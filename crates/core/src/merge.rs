//! P-thread merging (§3.3): combine partially redundant p-threads that
//! share a trigger, so the shared dataflow prefix executes once.

use crate::{SelectionParams, StaticPThread};
use preexec_isa::{Inst, Reg};
use std::collections::HashMap;

/// Merges p-threads that share a trigger PC.
///
/// Two p-threads launched by the same trigger execute redundantly: their
/// common dataflow prefix (typically the induction chain) runs twice. A
/// merged p-thread keeps one copy of the matching prefix and replicates
/// the divergent parts, renaming the replica's destinations into merge
/// temporaries so the computations cannot clobber one another — the
/// paper's "register renaming and code duplication performed as needed to
/// preserve the computational semantics of each of the original component
/// p-threads".
///
/// A merged p-thread achieves the same latency tolerance as the separate
/// originals (`LT_agg` adds) while paying overhead for one body, so its
/// `ADV_agg` is recomputed here from the merged size. Merging is skipped
/// when the rename pool (32 temporaries) would be exhausted.
pub fn merge_pthreads(
    pthreads: Vec<StaticPThread>,
    params: &SelectionParams,
) -> Vec<StaticPThread> {
    let mut by_trigger: HashMap<u32, Vec<StaticPThread>> = HashMap::new();
    let mut order: Vec<u32> = Vec::new();
    for p in pthreads {
        if !by_trigger.contains_key(&p.trigger) {
            order.push(p.trigger);
        }
        by_trigger.entry(p.trigger).or_default().push(p);
    }
    let mut out = Vec::new();
    for trigger in order {
        let group = by_trigger.remove(&trigger).expect("group exists");
        out.extend(merge_group(group, params));
    }
    out
}

fn merge_group(group: Vec<StaticPThread>, params: &SelectionParams) -> Vec<StaticPThread> {
    let mut merged: Vec<StaticPThread> = Vec::new();
    for p in group {
        let mut absorbed = false;
        for m in &mut merged {
            if let Some(new) = merge_two(m, &p, params) {
                *m = new;
                absorbed = true;
                break;
            }
        }
        if !absorbed {
            merged.push(p);
        }
    }
    merged
}

/// Attempts to merge `b` into `a`; returns the merged p-thread or `None`
/// if merging is not possible (rename pool exhausted).
fn merge_two(
    a: &StaticPThread,
    b: &StaticPThread,
    params: &SelectionParams,
) -> Option<StaticPThread> {
    debug_assert_eq!(a.trigger, b.trigger);
    // Matching dataflow prefix: the longest positional run of identical
    // instructions (bodies are in execution order, so the shared
    // trigger-side chain lines up positionally).
    let prefix = a
        .body
        .iter()
        .zip(&b.body)
        .take_while(|(x, y)| x == y)
        .count();

    let mut body = a.body.clone();
    // Replicate b's divergent tail with destination renaming.
    let mut rename: HashMap<Reg, Reg> = HashMap::new();
    let mut next_temp: u8 = next_free_temp(&a.body);
    for inst in &b.body[prefix..] {
        let mut inst = *inst;
        if let Some(r) = inst.rs1 {
            if let Some(&t) = rename.get(&r) {
                inst.rs1 = Some(t);
            }
        }
        if let Some(r) = inst.rs2 {
            if let Some(&t) = rename.get(&r) {
                inst.rs2 = Some(t);
            }
        }
        if let Some(rd) = inst.rd {
            if next_temp >= 32 {
                return None; // rename pool exhausted; keep them separate
            }
            let t = Reg::temp(next_temp);
            next_temp += 1;
            rename.insert(rd, t);
            inst.rd = Some(t);
        }
        body.push(inst);
    }

    let dc_ptcm = a.dc_ptcm + b.dc_ptcm;
    let mut targets = a.targets.clone();
    for &t in &b.targets {
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    // Recompute the aggregate score: latency tolerances add (disjoint miss
    // sets), overhead is paid once for the merged body.
    let oh = body.len() as f64 * params.oh_per_inst();
    let oh_agg = a.dc_trig as f64 * oh;
    let lt_agg = a.advantage.lt_agg + b.advantage.lt_agg;
    let mut advantage = a.advantage;
    advantage.oh = oh;
    advantage.oh_agg = oh_agg;
    advantage.lt_agg = lt_agg;
    advantage.adv_agg = lt_agg - oh_agg;
    advantage.lt = a.advantage.lt.max(b.advantage.lt);
    advantage.full_coverage = a.advantage.full_coverage && b.advantage.full_coverage;

    Some(StaticPThread {
        trigger: a.trigger,
        targets,
        body,
        dc_trig: a.dc_trig,
        dc_ptcm,
        advantage,
    })
}

/// The first temporary index not used by `body` (bodies produced by a
/// previous merge already use some temporaries).
fn next_free_temp(body: &[Inst]) -> u8 {
    let mut max: i16 = -1;
    for inst in body {
        for r in [inst.rd, inst.rs1, inst.rs2].into_iter().flatten() {
            if r.is_temp() {
                max = max.max((r.index() - 32) as i16);
            }
        }
    }
    (max + 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Advantage;
    use preexec_isa::{Op, Pc};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn adv(lt_agg: f64, oh_agg: f64) -> Advantage {
        Advantage {
            scdh_pt: 0.0,
            scdh_mt: 0.0,
            lt: 8.0,
            oh: 0.0,
            lt_agg,
            oh_agg,
            adv_agg: lt_agg - oh_agg,
            full_coverage: true,
        }
    }

    /// The paper's two example p-threads: left (#04 path) and right (#06
    /// path), both triggered by #11.
    fn paper_pair() -> (StaticPThread, StaticPThread) {
        let induct = Inst::itype(Op::Addi, r(5), r(5), 16);
        let left = StaticPThread {
            trigger: 11,
            targets: vec![9],
            body: vec![
                induct,
                Inst::load(Op::Lw, r(7), r(5), 4),
                Inst::itype(Op::Sll, r(7), r(7), 2),
                Inst::itype(Op::Addi, r(7), r(7), 4096),
                Inst::load(Op::Lw, r(8), r(7), 0),
            ],
            dc_trig: 100,
            dc_ptcm: 30,
            advantage: adv(240.0, 62.5),
        };
        let right = StaticPThread {
            trigger: 11,
            targets: vec![9],
            body: vec![
                induct,
                Inst::load(Op::Lw, r(7), r(5), 8),
                Inst::itype(Op::Sll, r(7), r(7), 2),
                Inst::itype(Op::Addi, r(7), r(7), 4096),
                Inst::load(Op::Lw, r(8), r(7), 0),
            ],
            dc_trig: 100,
            dc_ptcm: 10,
            advantage: adv(80.0, 62.5),
        };
        (left, right)
    }

    #[test]
    fn paper_merge_shape() {
        let (l, rgt) = paper_pair();
        let params = SelectionParams::working_example();
        let merged = merge_pthreads(vec![l, rgt], &params);
        assert_eq!(merged.len(), 1);
        let m = &merged[0];
        // Shared prefix: one induction instruction. Replicated: 4 from
        // the right path (#06 analogue, #07, #08, #09): 5 + 4 = 9,
        // matching the paper's replication of #07/#08/#09.
        assert_eq!(m.size(), 9);
        assert_eq!(m.dc_ptcm, 40);
        assert_eq!(m.targets, vec![9]);
        // Replica destinations are renamed to temporaries.
        assert!(m.body[5..].iter().all(|i| i.rd.is_none_or(Reg::is_temp)));
        // Replica uses of renamed values follow the renaming.
        let last = m.body.last().unwrap();
        assert!(last.rs1.unwrap().is_temp());
    }

    #[test]
    fn merged_score_adds_lt_and_pays_one_overhead() {
        let (l, rgt) = paper_pair();
        let params = SelectionParams::working_example();
        let m = &merge_pthreads(vec![l, rgt], &params)[0];
        assert_eq!(m.advantage.lt_agg, 320.0);
        // 9 instructions * 0.125 per-inst * 100 launches = 112.5,
        // cheaper than the two separate bodies (62.5 + 62.5 = 125).
        assert!((m.advantage.oh_agg - 112.5).abs() < 1e-9);
        assert!((m.advantage.adv_agg - 207.5).abs() < 1e-9);
    }

    #[test]
    fn different_triggers_not_merged() {
        let (l, mut rgt) = paper_pair();
        rgt.trigger = 12;
        let params = SelectionParams::working_example();
        let merged = merge_pthreads(vec![l, rgt], &params);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merged_targets_deduplicate() {
        let (l, mut rgt) = paper_pair();
        rgt.targets = vec![9, 20];
        let params = SelectionParams::working_example();
        let merged = merge_pthreads(vec![l, rgt], &params);
        assert_eq!(merged[0].targets, vec![9 as Pc, 20 as Pc]);
    }

    #[test]
    fn three_way_merge() {
        let (l, rgt) = paper_pair();
        let mut third = rgt.clone();
        third.body[1] = Inst::load(Op::Lw, r(7), r(5), 12);
        third.targets = vec![21];
        let params = SelectionParams::working_example();
        let merged = merge_pthreads(vec![l, rgt, third], &params);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].size(), 13); // 5 + 4 + 4
        assert_eq!(merged[0].dc_ptcm, 50);
    }

    #[test]
    fn rename_pool_exhaustion_keeps_separate() {
        // Bodies long enough that renaming the tail would need > 32 temps.
        let mk = |imm: i64| {
            let mut body = vec![Inst::itype(Op::Addi, r(1), r(1), imm)];
            for i in 0..33 {
                body.push(Inst::itype(Op::Addi, r((2 + (i % 20)) as u8), r(1), i as i64));
            }
            body.push(Inst::load(Op::Ld, r(30), r(2), 0));
            StaticPThread {
                trigger: 5,
                targets: vec![40],
                body,
                dc_trig: 10,
                dc_ptcm: 5,
                advantage: adv(40.0, 10.0),
            }
        };
        let a = mk(8);
        let mut b = mk(8);
        b.body[1] = Inst::itype(Op::Addi, r(2), r(1), 999); // diverge early
        let params = SelectionParams::default();
        let merged = merge_pthreads(vec![a, b], &params);
        assert_eq!(merged.len(), 2);
    }
}
