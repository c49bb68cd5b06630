//! Candidate construction: from a slice-tree node to a p-thread body.

use crate::{Body, BodyInst};
use preexec_slice::{NodeId, SliceTree};

/// Builds the body of the candidate static p-thread whose trigger is
/// `trigger` (a slice-tree node at depth ≥ 1).
///
/// The body consists of the instructions on the path *strictly between*
/// the trigger and the root, plus the root load itself, in execution order
/// (trigger-adjacent instruction first, problem load last) — the paper's
/// "walk from the node to the root". The trigger instruction itself is not
/// part of the body: it is executed by the main thread, and the p-thread's
/// live-ins are seeded from main-thread state when the trigger launches it
/// (working example, §3.1: the candidate triggered by `#04` has the
/// three-instruction body `#07 #08 #09`).
///
/// Dataflow: a producer deeper than the trigger is a live-in (dropped);
/// producers within the body become dependence edges. Main-thread trigger
/// distances come from the `DIST_pl` annotations
/// (`DIST_trig = DIST_pl(trigger) − DIST_pl(node)`), floored at the
/// physical minimum implied by the slice itself.
///
/// # Panics
///
/// Panics if `trigger` is the root (depth 0): the root is not a candidate.
pub fn candidate_body(tree: &SliceTree, trigger: NodeId) -> Body {
    let path = tree.path_from_root(trigger);
    let k = path.len() - 1; // trigger depth
    assert!(k >= 1, "the root node is not a p-thread candidate");
    let trigger_dist = tree.node(trigger).dist_pl();

    let mut insts = Vec::with_capacity(k);
    // Body position i corresponds to depth d = k-1-i.
    for i in 0..k {
        let d = k - 1 - i;
        let node = tree.node(path[d]);
        let deps: Vec<usize> = node
            .dep_depths
            .iter()
            .filter(|&&dd| (dd as usize) < k) // within body; deeper = live-in
            .map(|&dd| k - 1 - dd as usize)
            .filter(|&p| p < i) // guard against inconsistent annotations
            .collect();
        // Average distances can be slightly inconsistent across slices;
        // the main thread must sequence at least the k-d slice instructions
        // between the trigger and this node.
        let mt_dist = (trigger_dist - node.dist_pl()).max((k - d) as f64);
        insts.push(BodyInst { inst: node.inst, deps, mt_dist });
    }
    Body::new(insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{Inst, Op, Pc, Reg};
    use preexec_slice::{DepPositions, SliceEntry};

    /// Builds the single-path tree for the paper's left-hand slice:
    /// #09 <- #08 <- #07 <- #04 <- #11 <- #11 <- #11 with the paper's
    /// dynamic distances (iteration length 13 on the #04 path).
    fn paper_tree() -> SliceTree {
        let root = SliceEntry {
            pc: 9,
            inst: Inst::load(Op::Lw, Reg::new(8), Reg::new(7), 0),
            dist: 0,
            dep_positions: DepPositions::from_slice(&[1]).unwrap(),
        };
        let mk = |pc: Pc, inst: Inst, dist: u64, deps: &[u32]| SliceEntry {
            pc,
            inst,
            dist,
            dep_positions: DepPositions::from_slice(deps).unwrap(),
        };
        let slice = vec![
            root.clone(),
            mk(8, Inst::itype(Op::Addi, Reg::new(7), Reg::new(7), 4096), 1, &[2]),
            mk(7, Inst::itype(Op::Sll, Reg::new(7), Reg::new(7), 2), 2, &[3]),
            mk(4, Inst::load(Op::Lw, Reg::new(7), Reg::new(5), 4), 4, &[4]),
            mk(11, Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16), 11, &[5]),
            mk(11, Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16), 24, &[6]),
            mk(11, Inst::itype(Op::Addi, Reg::new(5), Reg::new(5), 16), 37, &[]),
        ];
        let mut t = SliceTree::new(9, root.inst);
        t.insert_slice(&slice);
        t
    }

    #[test]
    fn candidate_shapes_match_figure_2() {
        let t = paper_tree();
        // Node ids along the path: 0=#09, 1=#08, 2=#07, 3=#04, 4..6=#11.
        // Candidate 1 (trigger #08): body = [#09], size 1.
        let b1 = candidate_body(&t, 1);
        assert_eq!(b1.len(), 1);
        assert_eq!(b1.insts()[0].inst.op, Op::Lw);
        // Candidate 3 (trigger #04): body = [#07, #08, #09], size 3.
        let b3 = candidate_body(&t, 3);
        assert_eq!(b3.len(), 3);
        assert_eq!(b3.to_insts()[0].to_string(), "sll r7, r7, 2");
        assert_eq!(b3.to_insts()[2].to_string(), "lw r8, 0(r7)");
        // Candidate 5 (trigger second #11): body includes one #11 copy.
        let b5 = candidate_body(&t, 5);
        assert_eq!(b5.len(), 5);
        assert_eq!(b5.to_insts()[0].to_string(), "addi r5, r5, 16");
        assert_eq!(b5.to_insts()[1].to_string(), "lw r7, 4(r5)");
    }

    #[test]
    fn body_dataflow_is_a_chain_here() {
        let t = paper_tree();
        let b = candidate_body(&t, 4); // trigger first #11: [#04,#07,#08,#09]
        assert_eq!(b.len(), 4);
        for (i, bi) in b.insts().iter().enumerate() {
            if i == 0 {
                assert!(bi.deps.is_empty()); // #04 reads live-in r5
            } else {
                assert_eq!(bi.deps, vec![i - 1]);
            }
        }
    }

    #[test]
    fn main_thread_distances_subtract_dist_pl() {
        let t = paper_tree();
        let b = candidate_body(&t, 4); // trigger dist 11
        let dists: Vec<f64> = b.insts().iter().map(|bi| bi.mt_dist).collect();
        // #04 at 11-4=7, #07 at 9, #08 at 10, #09 at 11.
        assert_eq!(dists, vec![7.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn physical_floor_applies() {
        // Distances that would go negative are floored at slice spacing.
        let root = SliceEntry {
            pc: 1,
            inst: Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
            dist: 0,
            dep_positions: DepPositions::from_slice(&[1]).unwrap(),
        };
        let near = SliceEntry {
            pc: 0,
            inst: Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 8),
            dist: 1,
            dep_positions: DepPositions::from_slice(&[]).unwrap(),
        };
        let mut t = SliceTree::new(1, root.inst);
        t.insert_slice(&[root, near]);
        let b = candidate_body(&t, 1);
        assert!(b.insts()[0].mt_dist >= 1.0);
    }

    #[test]
    #[should_panic(expected = "not a p-thread candidate")]
    fn root_is_not_a_candidate() {
        let t = paper_tree();
        let _ = candidate_body(&t, 0);
    }
}
