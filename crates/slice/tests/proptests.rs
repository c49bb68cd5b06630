//! Property tests: slice-tree structural invariants under arbitrary
//! slice insertions.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_isa::{Inst, Op, Pc, Reg};
use preexec_slice::{DepPositions, SliceEntry, SliceTree};
use proptest::prelude::*;

fn entry(pc: Pc, dist: u64) -> SliceEntry {
    SliceEntry {
        pc,
        inst: Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 1),
        dist,
        dep_positions: DepPositions::from_slice(&[]).unwrap(),
    }
}

/// A random slice: root pc 99, then a path of small PCs with strictly
/// increasing distances.
fn slice_strategy() -> impl Strategy<Value = Vec<SliceEntry>> {
    prop::collection::vec((0u32..6, 1u64..4), 0..10).prop_map(|tail| {
        let mut out = vec![SliceEntry {
            pc: 99,
            inst: Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0),
            dist: 0,
            dep_positions: DepPositions::from_slice(&[]).unwrap(),
        }];
        let mut dist = 0;
        for (pc, step) in tail {
            dist += step;
            out.push(entry(pc, dist));
        }
        out
    })
}

proptest! {
    /// After any insertion sequence: DC invariants hold, the root count
    /// equals the insertion count, and every node's path key is unique.
    #[test]
    fn tree_invariants(slices in prop::collection::vec(slice_strategy(), 1..60)) {
        let mut tree = SliceTree::new(99, Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0));
        for s in &slices {
            tree.insert_slice(s);
        }
        prop_assert!(tree.check_invariants());
        prop_assert_eq!(tree.root().dc_ptcm, slices.len() as u64);

        for (id, node) in tree.iter() {
            // Depth consistency along parent links.
            if let Some(p) = node.parent {
                prop_assert_eq!(tree.node(p).depth + 1, node.depth);
                prop_assert!(tree.is_ancestor(p, id));
            } else {
                prop_assert_eq!(id, 0);
            }
            // Children have distinct PCs (paths are keyed by PC).
            let mut pcs: Vec<Pc> = node.children.iter().map(|&c| tree.node(c).pc).collect();
            let before = pcs.len();
            pcs.sort_unstable();
            pcs.dedup();
            prop_assert_eq!(pcs.len(), before, "duplicate child pc under node {}", id);
            // Within every contributing slice distances strictly increase
            // from 0 at the root, so each node's average distance is at
            // least its depth. (Parent/child averages are NOT ordered:
            // they average over different slice subsets.)
            if id != 0 {
                prop_assert!(
                    node.dist_pl() >= node.depth as f64,
                    "dist_pl {} below depth {} at node {}",
                    node.dist_pl(),
                    node.depth,
                    id
                );
            }
        }
    }

    /// Leaves have no children, and every node lies on a root path.
    #[test]
    fn leaves_and_paths(slices in prop::collection::vec(slice_strategy(), 1..40)) {
        let mut tree = SliceTree::new(99, Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0));
        for s in &slices {
            tree.insert_slice(s);
        }
        for leaf in tree.leaves() {
            prop_assert!(tree.node(leaf).children.is_empty());
            let path = tree.path_from_root(leaf);
            prop_assert_eq!(path[0], 0);
            prop_assert_eq!(*path.last().unwrap(), leaf);
            prop_assert_eq!(path.len() as u32, tree.node(leaf).depth + 1);
        }
    }
}

// --------------------------------------------------------------------------
// Corruption robustness: arbitrary line- and byte-level damage to a
// serialized forest must surface as a line-numbered parse error (strict
// reader) or a recovered prefix with diagnostics (lenient reader) — never
// a panic, and never a silently-wrong forest (the v2 checksum catches
// every payload mutation).

use preexec_func::{run_trace, TraceConfig};
use preexec_slice::{read_forest, read_forest_lenient, write_forest, SliceForestBuilder};

/// Serialized text of a real traced forest (deterministic fixture).
fn forest_text() -> String {
    let p = preexec_isa::assemble(
        "t",
        "li r1, 0x100000\n li r2, 0\n li r3, 512\n\
         top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
         done: halt",
    )
    .unwrap();
    let mut b = SliceForestBuilder::new(1024, 16);
    run_trace(&p, &TraceConfig::default(), |d| b.observe(d));
    write_forest(&b.finish())
}

/// One deterministic corruption, selected by `(kind, a, b)`.
fn corrupt(text: &str, kind: u8, a: usize, b: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let n = lines.len().max(1);
    match kind % 4 {
        // Drop line a.
        0 => {
            let keep = a % n;
            let mut out: Vec<&str> = lines.clone();
            out.remove(keep.min(out.len() - 1));
            out.join("\n") + "\n"
        }
        // Duplicate line a.
        1 => {
            let at = a % n;
            let mut out: Vec<&str> = lines.clone();
            out.insert(at, lines[at]);
            out.join("\n") + "\n"
        }
        // Truncate to b bytes (possibly mid-line).
        2 => {
            let mut cut = b % text.len().max(1);
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        // Flip a low bit of byte b in line a (ASCII-safe).
        _ => {
            let at = a % n;
            let mut bytes = lines[at].as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = b % bytes.len();
                let cand = bytes[i] ^ 0x02;
                bytes[i] = if cand.is_ascii_graphic() || cand == b' ' { cand } else { b'~' };
            }
            let fixed = String::from_utf8(bytes).unwrap();
            let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
            out[at] = fixed;
            out.join("\n") + "\n"
        }
    }
}

proptest! {
    /// Any single corruption: the strict reader either still accepts the
    /// text (the mutation was a no-op, e.g. flipping a byte to itself) or
    /// fails with an in-range 1-based line number; the lenient reader
    /// never panics, never invents trees, and reports diagnostics
    /// whenever strict parsing failed on non-empty damage.
    #[test]
    fn corrupted_forests_never_panic(kind in 0u8..4, a in 0usize..64, b in 0usize..4096) {
        let text = forest_text();
        let orig_trees = read_forest(&text).unwrap().num_trees();
        let mutated = corrupt(&text, kind, a, b);

        match read_forest(&mutated) {
            Ok(f) => {
                // Accepted: either untouched text, or damage confined to
                // ignorable bytes. The checksum guards the payload, so an
                // accepted forest must be the original one.
                prop_assert_eq!(f.num_trees(), orig_trees);
            }
            Err(e) => {
                prop_assert!(e.line >= 1);
                prop_assert!(e.line <= mutated.lines().count().max(1));
                let rec = read_forest_lenient(&mutated);
                prop_assert!(!rec.diagnostics.is_empty() || mutated.is_empty());
                prop_assert!(rec.forest.num_trees() <= orig_trees);
                for d in &rec.diagnostics {
                    prop_assert!(d.line >= 1);
                }
            }
        }
    }
}
