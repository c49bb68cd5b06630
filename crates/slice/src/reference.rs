//! The map-and-heap backward-slice traversal that [`slice_from`] replaced,
//! kept as a test oracle, and the differential property test pinning the
//! two together.

use crate::window::{slice_from, EntryView};
use crate::{DepPositions, SliceEntry, SliceError};
use preexec_isa::{Inst, Op, Reg};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// The original traversal: a SipHash map from seq to position, a map of
/// fetched views, and a `Vec` of positions per entry. It assumes nothing
/// about the direction of dependences.
fn reference_slice_from(
    root_seq: u64,
    min_seq: u64,
    max_len: usize,
    mut entry: impl FnMut(u64) -> Result<EntryView, SliceError>,
) -> Result<Vec<SliceEntry>, SliceError> {
    let mut heap: BinaryHeap<u64> = BinaryHeap::new();
    let mut included: HashMap<u64, u32> = HashMap::new(); // seq -> position
    let mut views: HashMap<u64, EntryView> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();

    let mut fetch = |seq: u64, views: &mut HashMap<u64, EntryView>| -> Result<EntryView, SliceError> {
        if let Some(v) = views.get(&seq) {
            return Ok(*v);
        }
        let v = entry(seq)?;
        views.insert(seq, v);
        Ok(v)
    };

    let root = fetch(root_seq, &mut views)?;
    included.insert(root_seq, 0);
    order.push(root_seq);
    for dep in root.reg_deps.into_iter().flatten() {
        if dep >= min_seq {
            heap.push(dep);
        }
    }

    while let Some(seq) = heap.pop() {
        if order.len() >= max_len {
            break;
        }
        match included.entry(seq) {
            Entry::Occupied(_) => continue,
            Entry::Vacant(v) => v.insert(order.len() as u32),
        };
        order.push(seq);
        let e = fetch(seq, &mut views)?;
        for dep in e.reg_deps.into_iter().flatten() {
            if dep >= min_seq && !included.contains_key(&dep) {
                heap.push(dep);
            }
        }
        if e.inst.op.is_load() {
            if let Some(dep) = e.mem_dep {
                if dep >= min_seq && !included.contains_key(&dep) {
                    heap.push(dep);
                }
            }
        }
    }

    order
        .iter()
        .map(|&seq| {
            let e = views.get(&seq).expect("visited seq has a cached view");
            let mut dep_positions: Vec<u32> = e
                .reg_deps
                .into_iter()
                .flatten()
                .chain(if e.inst.op.is_load() && seq != root_seq { e.mem_dep } else { None })
                .filter_map(|dep| included.get(&dep).copied())
                .collect();
            dep_positions.sort_unstable();
            dep_positions.dedup();
            let dep_positions = DepPositions::from_slice(&dep_positions)?;
            Ok(SliceEntry { pc: e.pc, inst: e.inst, dist: root_seq - seq, dep_positions })
        })
        .collect()
}

/// Sequence number of the first synthetic record: nonzero, so that a
/// traversal confusing seqs with positions shows.
const BASE: u64 = 1_000;

/// One dependence of a synthetic record: absent (`sel == 0`), on one of
/// the last three instructions (`sel == 1`, which makes producers shared
/// by many consumers), or up to 63 instructions back.
fn dep_of(seq: u64, (sel, back): (u8, u64)) -> Option<u64> {
    let back = match sel {
        0 => return None,
        1 => back % 3,
        _ => back,
    };
    seq.checked_sub(1 + back).filter(|&d| d >= BASE)
}

/// Raw draws for one record: (is-load, reg dep 0, reg dep 1, memory dep).
type RawRecord = (bool, (u8, u64), (u8, u64), (u8, u64));

fn record_strategy() -> impl Strategy<Value = RawRecord> {
    (any::<bool>(), (0u8..4, 0u64..64), (0u8..4, 0u64..64), (0u8..3, 0u64..64))
}

/// Decodes raw draws into dependence records with strictly backward
/// dependences, seqs `BASE..BASE + n`. Non-loads carry memory deps too
/// (the traversal must ignore them); when `root_mem` is set the root is a
/// load with a feeding store (which the traversal must not follow).
fn records(raw: &[RawRecord], root_mem: bool) -> Vec<EntryView> {
    let load = Inst::load(Op::Ld, Reg::new(2), Reg::new(1), 0);
    let alu = Inst::rtype(Op::Add, Reg::new(3), Reg::new(1), Reg::new(2));
    let mut out: Vec<EntryView> = raw
        .iter()
        .enumerate()
        .map(|(i, &(is_load, r0, r1, m))| {
            let seq = BASE + i as u64;
            EntryView {
                pc: (i % 7) as u32,
                inst: if is_load { load } else { alu },
                reg_deps: [dep_of(seq, r0), dep_of(seq, r1)],
                mem_dep: dep_of(seq, m),
            }
        })
        .collect();
    if root_mem {
        let root_seq = BASE + out.len() as u64 - 1;
        if let Some(root) = out.last_mut() {
            root.inst = load;
            root.mem_dep = root_seq.checked_sub(1).filter(|&d| d >= BASE);
        }
    }
    out
}

/// Runs `traversal` over `recs`, returning its output and how often it
/// consulted each seq. Consulting a seq outside `min_seq..=root_seq`
/// fails the test.
fn run(
    traversal: impl Fn(
        u64,
        u64,
        usize,
        &mut dyn FnMut(u64) -> Result<EntryView, SliceError>,
    ) -> Result<Vec<SliceEntry>, SliceError>,
    recs: &[EntryView],
    min_seq: u64,
    max_len: usize,
) -> (Vec<SliceEntry>, HashMap<u64, u32>) {
    let root_seq = BASE + recs.len() as u64 - 1;
    let mut calls: HashMap<u64, u32> = HashMap::new();
    let mut entry = |seq: u64| {
        assert!((min_seq..=root_seq).contains(&seq), "consulted out-of-scope seq {seq}");
        *calls.entry(seq).or_default() += 1;
        Ok(recs[(seq - BASE) as usize])
    };
    let slice = traversal(root_seq, min_seq, max_len, &mut entry).expect("synthetic slice");
    (slice, calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The rewritten traversal is output-identical to the map-and-heap
    /// one, and consults each sequence number at most once.
    #[test]
    fn slice_from_matches_reference(
        raw in prop::collection::vec(record_strategy(), 1..96),
        root_mem in any::<bool>(),
        floor in 0u64..128,
        max_len in 1usize..41,
    ) {
        let recs = records(&raw, root_mem);
        let root_seq = BASE + recs.len() as u64 - 1;
        let min_seq = root_seq.saturating_sub(floor).max(BASE);
        let (want, _) = run(|r, m, l, e| reference_slice_from(r, m, l, e), &recs, min_seq, max_len);
        let (got, calls) = run(|r, m, l, e| slice_from(r, m, l, e), &recs, min_seq, max_len);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        prop_assert_eq!(calls.len(), got.len());
        prop_assert!(calls.values().all(|&n| n == 1), "a seq was consulted twice: {calls:?}");
    }
}

#[test]
fn dep_positions_sort_dedup_and_cap() {
    let d = DepPositions::from_slice(&[5, 2, 5, 3]).expect("three distinct");
    assert_eq!(d[..], [2, 3, 5]);
    assert_eq!(format!("{d:?}"), "[2, 3, 5]");
    assert_eq!(d, DepPositions::from_slice(&[3, 5, 2]).expect("three distinct"));
    assert!(DepPositions::from_slice(&[]).expect("empty").is_empty());
    assert_eq!(
        DepPositions::from_slice(&[4, 1, 3, 2]),
        Err(SliceError::TooManyDepPositions { given: 4 })
    );
}
