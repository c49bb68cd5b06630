//! Reproduction of the paper's §3.1/§3.2 working example (Figures 1–3).
//!
//! The pharmacy loop runs 100 iterations; the first branch is taken 20
//! times (so 80 iterations execute load #09), the second 60 times (60 of
//! those use the #04 computation, 20 the #06 computation); half of all #09
//! instances miss (40 misses: 30 via #04, 10 via #06). Unit latencies,
//! 8-cycle miss latency, 4-wide processor, unassisted IPC 1
//! (`BW_seq-mt = 2`).
//!
//! Expected results, from the paper's text:
//! - candidates 1–2 (triggers #08, #07): no fetch advantage, negative ADV;
//! - candidate 3 (trigger #04): LT 1 for 30 misses, OH 0.375 × 60 → +7.5;
//! - candidate 4 (trigger #11): LT 3 for 30 misses, OH 0.5 × 100 → +40;
//! - candidate 5 (trigger #11, 1 unrolling): LT 8 (capped), OH 62.5 → 177;
//! - candidate 6 (2 unrollings): LT 8, OH 75 → 165;
//! - the winner is candidate 5 with score 177 (printed floor of 177.5);
//! - the right-hand slice (#06) independently selects its unrolled
//!   p-thread and the two do not overlap (§3.2).

use crate::advantage::aggregate_advantage;
use crate::{candidate_body, solve_tree, SelectionParams};
use preexec_isa::{Inst, Op, Pc, Reg};
use preexec_slice::{DepPositions, SliceEntry, SliceTree};

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn entry(pc: Pc, inst: Inst, dist: u64, deps: &[u32]) -> SliceEntry {
    let dep_positions = DepPositions::from_slice(deps).expect("at most 3 positions");
    SliceEntry { pc, inst, dist, dep_positions }
}

/// Instruction #09: `lw r8, 0(r7)` — the problem load.
fn root_inst() -> Inst {
    Inst::load(Op::Lw, r(8), r(7), 0)
}

/// One dynamic slice along the #04 path, with the paper's loop structure:
/// the #04-path iteration is 13 dynamic instructions long
/// (#00 #01 #02 #03 #04 #05 #07 #08 #09 #10 #11 #12 #13).
fn left_slice(unrollings: usize) -> Vec<SliceEntry> {
    let mut s = vec![
        entry(9, root_inst(), 0, &[1]),
        entry(8, Inst::itype(Op::Addi, r(7), r(7), 4096), 1, &[2]),
        entry(7, Inst::itype(Op::Sll, r(7), r(7), 2), 2, &[3]),
        entry(4, Inst::load(Op::Lw, r(7), r(5), 4), 4, &[4]),
    ];
    // Induction copies: #11 of iteration i-1 is 11 instructions before
    // #09 of iteration i; each further copy is 13 earlier.
    for u in 0..unrollings {
        let dist = 11 + 13 * u as u64;
        let dep: &[u32] = if u + 1 < unrollings { &[5 + u as u32] } else { &[] };
        s.push(entry(11, Inst::itype(Op::Addi, r(5), r(5), 16), dist, dep));
    }
    s
}

/// One dynamic slice along the #06 path (generic drug id, offset 8).
fn right_slice(unrollings: usize) -> Vec<SliceEntry> {
    let mut s = vec![
        entry(9, root_inst(), 0, &[1]),
        entry(8, Inst::itype(Op::Addi, r(7), r(7), 4096), 1, &[2]),
        entry(7, Inst::itype(Op::Sll, r(7), r(7), 2), 2, &[3]),
        entry(6, Inst::load(Op::Lw, r(7), r(5), 8), 3, &[4]),
    ];
    for u in 0..unrollings {
        let dist = 10 + 12 * u as u64;
        let dep: &[u32] = if u + 1 < unrollings { &[5 + u as u32] } else { &[] };
        s.push(entry(11, Inst::itype(Op::Addi, r(5), r(5), 16), dist, dep));
    }
    s
}

/// Builds the Figure-3 slice tree: 30 misses along the #04 path, 10 along
/// the #06 path, each with three levels of induction available.
fn figure3_tree() -> SliceTree {
    let mut t = SliceTree::new(9, root_inst());
    for _ in 0..30 {
        t.insert_slice(&left_slice(3));
    }
    for _ in 0..10 {
        t.insert_slice(&right_slice(3));
    }
    t
}

/// `DC_trig` per static PC, from the example's narrative: the loop runs
/// 100 iterations; #08/#07/#09 execute 80 times; #04 60; #06 20; #11 100.
fn dc_trig(pc: Pc) -> u64 {
    match pc {
        7..=9 => 80,
        4 => 60,
        6 => 20,
        11 => 100,
        _ => 0,
    }
}

fn params() -> SelectionParams {
    SelectionParams::working_example()
}

/// Scores the candidate triggered at tree node `node` (left path nodes are
/// 1=#08, 2=#07, 3=#04, 4..6=#11 by insertion order).
fn score(t: &SliceTree, node: usize) -> crate::Advantage {
    let body = candidate_body(t, node);
    aggregate_advantage(&params(), &body, &body, dc_trig(t.node(node).pc), t.node(node).dc_ptcm)
}

#[test]
fn paper_worked_example_candidate_scores() {
    let t = figure3_tree();
    // Candidate 1: trigger #08, body [#09]. No fetch advantage; ADV = -10.
    let c1 = score(&t, 1);
    assert_eq!(c1.lt, 0.0);
    assert!((c1.oh_agg - 10.0).abs() < 1e-9);
    assert!((c1.adv_agg - -10.0).abs() < 1e-9);

    // Candidate 2: trigger #07, body [#08 #09]. ADV = -20.
    let c2 = score(&t, 2);
    assert_eq!(c2.lt, 0.0);
    assert!((c2.adv_agg - -20.0).abs() < 1e-9);

    // Candidate 3: trigger #04: LT 1 for 30 misses, OH 0.375 each for 60
    // launches -> ADV = 30 - 22.5 = 7.5.
    let c3 = score(&t, 3);
    assert_eq!(c3.lt, 1.0);
    assert!((c3.oh - 0.375).abs() < 1e-9);
    assert!((c3.adv_agg - 7.5).abs() < 1e-9);

    // Candidate 4: trigger #11 (previous iteration): LT 3, SIZE 4,
    // OH 0.5 for 100 launches -> ADV = 90 - 50 = 40.
    let c4 = score(&t, 4);
    assert_eq!(c4.lt, 3.0);
    assert!((c4.oh - 0.5).abs() < 1e-9);
    assert!((c4.adv_agg - 40.0).abs() < 1e-9);

    // Candidate 5: one unrolling: LT capped at 8, SIZE 5,
    // OHagg = 62.5 -> ADV = 240 - 62.5 = 177.5 (printed as 177).
    let c5 = score(&t, 5);
    assert_eq!(c5.lt, 8.0);
    assert!(c5.full_coverage);
    assert!((c5.oh_agg - 62.5).abs() < 1e-9);
    assert!((c5.adv_agg - 177.5).abs() < 1e-9);
    assert_eq!(c5.adv_agg.floor(), 177.0);

    // Candidate 6: two unrollings: LT still 8, SIZE 6 -> ADV = 240 - 75.
    let c6 = score(&t, 6);
    assert_eq!(c6.lt, 8.0);
    assert!((c6.adv_agg - 165.0).abs() < 1e-9);

    // The winner among the six is candidate 5.
    let best = [c1, c2, c3, c4, c5, c6]
        .iter()
        .map(|a| a.adv_agg)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(best, c5.adv_agg);
}

#[test]
fn paper_worked_example_highest_possible_score_is_320() {
    // "the highest possible ADVagg score in this case is 320: 8 cycles of
    // latency tolerance for each of the 40 #09 misses, with 0 overhead."
    let p = params();
    assert_eq!(40.0 * p.miss_latency, 320.0);
}

#[test]
fn paper_worked_example_tree_solution() {
    // §3.2: solving the whole tree selects the unrolled p-thread on each
    // side (F on the left, J on the right); they do not overlap, so no
    // reductions are needed.
    let t = figure3_tree();
    assert!(t.check_invariants());
    let picks = solve_tree(&t, &dc_trig, &params());
    assert_eq!(picks.len(), 2, "one p-thread per slice");
    let pcs: Vec<(Pc, usize)> = picks
        .iter()
        .map(|(n, sc, _)| (t.node(*n).pc, sc.exec_body.len()))
        .collect();
    // Both triggers are instances of #11.
    assert!(pcs.iter().all(|&(pc, _)| pc == 11));
    // Left body has 5 instructions ([#11 #04 #07 #08 #09]); the right
    // side covers only 10 misses, so its best p-thread may unroll less.
    assert!(pcs.iter().any(|&(_, len)| len == 5));
    // Net advantages equal raw advantages (no overlap).
    for (n, sc, net) in &picks {
        assert!((sc.advantage.adv_agg - net).abs() < 1e-9, "node {n} reduced");
    }
    // The left pick is exactly candidate 5.
    let left = picks
        .iter()
        .find(|(n, _, _)| t.is_ancestor(3, *n) || *n == 3)
        .expect("left-path selection");
    assert!((left.2 - 177.5).abs() < 1e-9);
}

#[test]
fn paper_worked_example_dc_invariants() {
    let t = figure3_tree();
    // Root covers all 40 misses; #04 node 30; #06 node 10.
    assert_eq!(t.root().dc_ptcm, 40);
    let shared = t.node(1); // #08
    assert_eq!(shared.dc_ptcm, 40);
    assert_eq!(t.node(3).dc_ptcm, 30); // #04
    // Children of #07 are #04 and #06.
    let seven = t.node(2);
    assert_eq!(seven.children.len(), 2);
    let total: u64 = seven.children.iter().map(|&c| t.node(c).dc_ptcm).sum();
    assert_eq!(total, 40);
}

#[test]
fn overlap_reduction_triggers_when_parent_and_child_selected() {
    // Force a tree where a short parent p-thread covers extra misses that
    // its long child does not, so both get selected, and verify the
    // parent's advantage is reduced by DC_pt-cm(child) * LT(parent).
    let mut t = SliceTree::new(9, root_inst());
    // 50 misses take a short, high-distance path through #05 (so even the
    // shallow candidate has fetch advantage), 50 extend deeper through #04.
    let short: Vec<SliceEntry> = vec![
        entry(9, root_inst(), 0, &[1]),
        entry(5, Inst::itype(Op::Addi, r(7), r(7), 8), 20, &[]),
    ];
    let long: Vec<SliceEntry> = vec![
        entry(9, root_inst(), 0, &[1]),
        entry(5, Inst::itype(Op::Addi, r(7), r(7), 8), 20, &[2]),
        entry(4, Inst::itype(Op::Addi, r(7), r(7), 8), 40, &[]),
    ];
    for _ in 0..50 {
        t.insert_slice(&short);
        t.insert_slice(&long);
    }
    let dc = |pc: Pc| match pc {
        9 => 100,
        5 => 100,
        4 => 60,
        _ => 0,
    };
    let picks = solve_tree(&t, &dc, &params());
    // Whatever the final selection, no pick may retain a net advantage
    // exceeding its raw advantage, and parent-child double counting must
    // be subtracted when both are picked.
    for (n, sc, net) in &picks {
        assert!(*net <= sc.advantage.adv_agg + 1e-9, "node {n}");
    }
    if picks.len() == 2 {
        let (parent_pick, child_pick) = {
            let a = &picks[0];
            let b = &picks[1];
            if t.is_ancestor(a.0, b.0) {
                (a, b)
            } else {
                (b, a)
            }
        };
        let expected_reduction =
            t.node(child_pick.0).dc_ptcm as f64 * parent_pick.1.advantage.lt;
        assert!(
            (parent_pick.1.advantage.adv_agg - parent_pick.2 - expected_reduction).abs() < 1e-6
        );
    }
}
