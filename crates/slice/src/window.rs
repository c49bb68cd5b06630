//! The slicing window: a bounded history of dynamic instructions with
//! last-writer tracking, from which backward slices are extracted.

use crate::SliceError;
use preexec_func::DynInst;
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Pc};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::ops::Deref;

/// One element of an extracted backward slice.
///
/// Elements are ordered root-first (the problem load is element 0, its
/// earliest producer is last), i.e. in *reverse* program order — the order
/// in which a slice tree path is walked from the root downward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceEntry {
    /// Static PC of the instruction.
    pub pc: Pc,
    /// The instruction.
    pub inst: Inst,
    /// Dynamic-instruction distance from the root load (root = 0).
    pub dist: u64,
    /// Positions (indices into the same slice vector) of the producers of
    /// this instruction's source values that lie within the slice, stored
    /// inline in ascending order. Producer positions are always greater
    /// than the consumer's position (producers are earlier in program
    /// order, later in the root-first vector).
    pub dep_positions: DepPositions,
}

/// The in-slice producer positions of one [`SliceEntry`]: ascending,
/// distinct, and stored inline.
///
/// An instruction has at most two register sources plus, for a load
/// inside the slice, one feeding store, so [`CAPACITY`](Self::CAPACITY)
/// slots always suffice. Dereferences to the live `[u32]` prefix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct DepPositions {
    len: u8,
    /// Ascending positions in `pos[..len]`; the rest stay zero, so the
    /// derived equality sees only the live prefix.
    pos: [u32; DepPositions::CAPACITY],
}

impl DepPositions {
    /// The most producers one slice entry can have.
    pub const CAPACITY: usize = 3;

    const EMPTY: DepPositions = DepPositions { len: 0, pos: [0; DepPositions::CAPACITY] };

    /// The ascending, deduplicated positions in `positions`.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::TooManyDepPositions`] if `positions` holds
    /// more than [`CAPACITY`](Self::CAPACITY) distinct values.
    pub fn from_slice(positions: &[u32]) -> Result<DepPositions, SliceError> {
        let mut out = DepPositions::EMPTY;
        for &p in positions {
            let len = out.len as usize;
            if let Err(at) = out.pos[..len].binary_search(&p) {
                if len == Self::CAPACITY {
                    return Err(SliceError::TooManyDepPositions { given: positions.len() });
                }
                out.pos.copy_within(at..len, at + 1);
                out.pos[at] = p;
                out.len += 1;
            }
        }
        Ok(out)
    }

    /// Adds `p`, which is at least every position held so far; a repeat of
    /// the last one (both register sources naming one producer) is dropped.
    fn append(&mut self, p: u32) {
        let len = self.len as usize;
        if len > 0 && self.pos[len - 1] == p {
            return;
        }
        debug_assert!(len == 0 || self.pos[len - 1] < p, "positions append in order");
        self.pos[len] = p;
        self.len += 1;
    }
}

impl Deref for DepPositions {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.pos[..self.len as usize]
    }
}

impl fmt::Debug for DepPositions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[derive(Debug, Clone)]
struct WindowEntry {
    seq: u64,
    pc: Pc,
    inst: Inst,
    /// Sequence numbers of the in-window producers of each register source.
    reg_deps: [Option<u64>; 2],
    /// For loads: sequence number of the in-window store that produced the
    /// loaded value, if any.
    mem_dep: Option<u64>,
}

/// Memory dependences are tracked at 8-byte-granule granularity: precise
/// enough for the framework (whose store-load pairs are word/doubleword
/// scalar round-trips) and compact enough to track a whole working set.
/// Shared with the on-demand slicer, whose interval summaries must use
/// the same granularity to resolve the same dependences.
pub(crate) const GRANULE_SHIFT: u32 = 3;

pub(crate) fn granules(addr: u64, width: u8) -> impl Iterator<Item = u64> {
    let first = addr >> GRANULE_SHIFT;
    let last = (addr + width as u64 - 1) >> GRANULE_SHIFT;
    first..=last
}

/// Cap on the ring buffer's *eager* allocation. Scopes up to this size
/// pre-allocate in full (the common case — the paper's default is 1024);
/// larger scopes grow on demand, so a huge scope in a remote job spec
/// costs memory proportional to instructions actually observed, not to
/// the requested scope.
const MAX_EAGER_RING_CAPACITY: usize = 1 << 16;

/// Cap on the slice length [`slice_from`] sizes its buffers for up front;
/// longer slices grow them on demand.
const MAX_PRESIZED_SLICE_LEN: usize = 256;

/// One instruction's dependence record as the slice traversal sees it —
/// the common currency of the windowed and on-demand extractors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryView {
    pub pc: Pc,
    pub inst: Inst,
    /// Sequence numbers of the producers of each register source.
    pub reg_deps: [Option<u64>; 2],
    /// For loads: sequence number of the store that produced the value.
    pub mem_dep: Option<u64>,
}

impl EntryView {
    /// The producers a slice follows from this instruction: its register
    /// sources and, for a load other than the slice root, its feeding
    /// store (only the root's address computation matters).
    fn producers(&self, is_root: bool) -> impl Iterator<Item = u64> {
        let store = if self.inst.op.is_load() && !is_root { self.mem_dep } else { None };
        self.reg_deps.into_iter().flatten().chain(store)
    }
}

/// The backward-slice traversal shared by [`SliceWindow::try_slice_latest`]
/// and the on-demand slicer: both provide dependence records through
/// `entry`, so a slice of the same root over the same dependences is
/// byte-identical whichever extractor produced it — by construction, not
/// by two traversals kept in sync.
///
/// `entry` is consulted exactly once per included sequence number;
/// dependences older than `min_seq` (out of scope) are never followed, so
/// `entry` may report them as `None` or as their true (sub-`min_seq`)
/// value interchangeably.
///
/// Producers are visited nearest-first through a max-heap of
/// (producer seq, consumer position) pairs, so a truncated slice keeps the
/// instructions nearest the root. Dependences always point backward (a
/// producer is older than its consumer), so the heap pops sequence numbers
/// in non-increasing order and a producer shared by several consumers pops
/// back to back. That makes the traversal map-free: a producer's position
/// is the slice length when it first pops, each of its pairs hands that
/// position to its consumer (so positions arrive ascending), and nothing
/// already included can be pushed again. A dependence that does not point
/// backward is never followed. DESIGN.md §7.5 argues the equivalence with
/// the seq-to-position map this replaced.
pub(crate) fn slice_from(
    root_seq: u64,
    min_seq: u64,
    max_len: usize,
    mut entry: impl FnMut(u64) -> Result<EntryView, SliceError>,
) -> Result<Vec<SliceEntry>, SliceError> {
    let cap = max_len.min(MAX_PRESIZED_SLICE_LEN);
    // (producer seq, position of the consumer that follows it).
    let mut pending: BinaryHeap<(u64, u32)> =
        BinaryHeap::with_capacity(DepPositions::CAPACITY * cap);
    let mut slice: Vec<SliceEntry> = Vec::with_capacity(cap);

    let mut seq = root_seq;
    loop {
        let at = slice.len() as u32;
        let view = entry(seq)?;
        let followed = view.producers(at == 0).filter(|dep| (min_seq..seq).contains(dep));
        pending.extend(followed.map(|dep| (dep, at)));
        slice.push(SliceEntry {
            pc: view.pc,
            inst: view.inst,
            dist: root_seq - seq,
            dep_positions: DepPositions::EMPTY,
        });
        if slice.len() >= max_len {
            break;
        }
        // The nearest pending producer takes the next position, and every
        // consumer following it (its pairs pop back to back) records that.
        let Some(&(next, _)) = pending.peek() else { break };
        let next_at = slice.len() as u32;
        while let Some((_, consumer)) = pending.peek_mut().filter(|p| p.0 == next).map(PeekMut::pop) {
            slice[consumer as usize].dep_positions.append(next_at);
        }
        seq = next;
    }
    Ok(slice)
}

/// A ring buffer of the last *scope* dynamic instructions, with register
/// and memory last-writer maps, supporting backward-slice extraction.
///
/// This is the paper's "slicing scope": "the length of the dynamic trace
/// that is examined to construct a p-thread" (§4.4), default 1024.
#[derive(Debug)]
pub struct SliceWindow {
    scope: usize,
    ring: VecDeque<WindowEntry>,
    reg_writer: [Option<u64>; NUM_REGS],
    mem_writer: HashMap<u64, u64>,
    observed: u64,
}

impl SliceWindow {
    /// Creates a window holding the last `scope` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ZeroScope`] if `scope` is zero.
    pub fn try_new(scope: usize) -> Result<SliceWindow, SliceError> {
        if scope == 0 {
            return Err(SliceError::ZeroScope);
        }
        Ok(SliceWindow {
            scope,
            ring: VecDeque::with_capacity(scope.min(MAX_EAGER_RING_CAPACITY)),
            reg_writer: [None; NUM_REGS],
            mem_writer: HashMap::new(),
            observed: 0,
        })
    }

    /// Infallible [`try_new`](Self::try_new).
    ///
    /// # Panics
    ///
    /// Panics if `scope` is zero.
    pub fn new(scope: usize) -> SliceWindow {
        match SliceWindow::try_new(scope) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// The configured scope.
    pub fn scope(&self) -> usize {
        self.scope
    }

    /// Number of instructions currently held (≤ scope).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The oldest sequence number still in the window.
    fn min_seq(&self) -> u64 {
        self.ring.front().map_or(u64::MAX, |e| e.seq)
    }

    /// Pushes a dynamic instruction into the window, recording its
    /// dependences and updating the last-writer maps.
    pub fn push(&mut self, d: &DynInst) {
        let mut reg_deps = [None; 2];
        for (slot, reg) in [d.inst.rs1, d.inst.rs2].into_iter().enumerate() {
            if let Some(r) = reg {
                if !r.is_zero() {
                    reg_deps[slot] = self.reg_writer[r.index()];
                }
            }
        }
        let mut mem_dep = None;
        if d.inst.op.is_load() {
            let addr = d.addr.expect("load has address");
            let width = d.inst.op.mem_width().expect("load has width");
            mem_dep = granules(addr, width)
                .filter_map(|g| self.mem_writer.get(&g).copied())
                .max();
        }
        if let Some(def) = d.inst.def() {
            self.reg_writer[def.index()] = Some(d.seq);
        }
        if d.inst.op.is_store() {
            let addr = d.addr.expect("store has address");
            let width = d.inst.op.mem_width().expect("store has width");
            for g in granules(addr, width) {
                self.mem_writer.insert(g, d.seq);
            }
        }
        if self.ring.len() == self.scope {
            self.ring.pop_front();
        }
        self.ring.push_back(WindowEntry { seq: d.seq, pc: d.pc, inst: d.inst, reg_deps, mem_dep });

        // Periodically drop memory-writer entries that fell out of scope so
        // the map stays proportional to the write working set of the window.
        self.observed += 1;
        if self.observed.is_multiple_of(self.scope as u64 * 16) {
            let min = self.min_seq();
            self.mem_writer.retain(|_, &mut s| s >= min);
        }
    }

    fn entry(&self, seq: u64) -> Option<&WindowEntry> {
        let min = self.min_seq();
        if seq < min {
            return None;
        }
        let idx = (seq - min) as usize;
        let e = self.ring.get(idx)?;
        debug_assert_eq!(e.seq, seq);
        Some(e)
    }

    /// Extracts the backward data-dependence slice of the most recently
    /// pushed instruction (which must be the problem load), bounded to at
    /// most `max_len` instructions (including the load itself).
    ///
    /// The returned vector is root-first. The root's *memory* dependence is
    /// not followed (only its address computation matters for prefetching);
    /// loads inside the slice follow both their address computation and
    /// their feeding store, enabling store–load pair analysis downstream.
    /// When the budget runs out, the nearest (most recent) producers are
    /// kept — they make the most useful p-thread instructions.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn slice_latest(&self, max_len: usize) -> Vec<SliceEntry> {
        match self.try_slice_latest(max_len) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`slice_latest`](Self::slice_latest).
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::EmptyWindow`] if no instruction has been
    /// pushed yet.
    pub fn try_slice_latest(&self, max_len: usize) -> Result<Vec<SliceEntry>, SliceError> {
        let root = self.ring.back().ok_or(SliceError::EmptyWindow)?;
        let root_seq = root.seq;
        let min_seq = self.min_seq();
        slice_from(root_seq, min_seq, max_len, |seq| {
            let e = self.entry(seq).expect("slice seq within window");
            Ok(EntryView { pc: e.pc, inst: e.inst, reg_deps: e.reg_deps, mem_dep: e.mem_dep })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_func::{run_trace, TraceConfig};
    use preexec_isa::{assemble, Program};

    /// Runs a program and slices at the final load (assumed last non-halt
    /// instruction executed before halt), returning the slice.
    fn trace_into_window(p: &Program, scope: usize) -> SliceWindow {
        let mut w = SliceWindow::new(scope);
        run_trace(p, &TraceConfig::default(), |d| w.push(d));
        w
    }

    #[test]
    fn straight_line_slice() {
        // r3 = (r1 + r2); load r4 <- 0(r3)
        let p = assemble(
            "t",
            "li r1, 0x100\nli r2, 0x20\nadd r3, r1, r2\nld r4, 0(r3)\nhalt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut at_load: Option<Vec<SliceEntry>> = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.inst.op.is_load() {
                at_load = Some(w.slice_latest(16));
            }
        });
        let s = at_load.unwrap();
        // Slice: ld (root), add, li r2, li r1 — all four.
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].pc, 3); // root load
        assert_eq!(s[0].dist, 0);
        assert_eq!(s[1].pc, 2); // add
        assert_eq!(s[1].dist, 1);
        // add depends on both li's (positions 2 and 3).
        assert_eq!(s[1].dep_positions[..], [2, 3]);
        // root depends on add (position 1).
        assert_eq!(s[0].dep_positions[..], [1]);
    }

    #[test]
    fn irrelevant_instructions_excluded() {
        let p = assemble(
            "t",
            "li r1, 0x100\nli r9, 7\nadd r9, r9, r9\nld r4, 0(r1)\nhalt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.inst.op.is_load() {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        // Only the load and `li r1` are in the address computation.
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].pc, 0);
    }

    #[test]
    fn store_load_dependence_followed_for_inner_loads() {
        // Store an address to memory, load it back, then dereference it:
        // the dereference's slice must include the store and its sources.
        let p = assemble(
            "t",
            "li r1, 0x100\n li r2, 0x4000\n sd r2, 0(r1)\n ld r3, 0(r1)\n ld r4, 0(r3)\n halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 4 {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        let pcs: Vec<Pc> = s.iter().map(|e| e.pc).collect();
        // root(4) <- ld(3) <- sd(2) <- li r2(1), plus li r1(0) feeding both.
        assert_eq!(pcs, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn root_memory_dependence_not_followed() {
        // A store to the loaded location must NOT enter the root's slice
        // (the root's value is irrelevant; only its address matters).
        let p = assemble(
            "t",
            "li r1, 0x100\n li r2, 99\n sd r2, 0(r1)\n ld r3, 0(r1)\n halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(64);
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 3 {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        let pcs: Vec<Pc> = s.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![3, 0]); // load + li r1 only
    }

    #[test]
    fn induction_unrolling_emerges() {
        // Pointer increments accumulate: the slice of the load includes
        // successive copies of the induction `addi`.
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 10\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(1024);
        let mut last = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 4 {
                last = Some(w.slice_latest(8));
            }
        });
        let s = last.unwrap();
        // Root load, then a chain of addi r1 copies (pc 5), then li r1.
        assert_eq!(s[0].pc, 4);
        assert!(s[1..].iter().take(5).all(|e| e.pc == 5));
        assert_eq!(s.len(), 8); // truncated at max_len
    }

    #[test]
    fn truncation_keeps_nearest_producers() {
        let p = assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 50\n\
             top: bge r2, r3, done\n ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(1024);
        let mut last = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.pc == 4 {
                last = Some(w.slice_latest(4));
            }
        });
        let s = last.unwrap();
        assert_eq!(s.len(), 4);
        // Distances strictly increase root-first and stay small (nearest).
        for pair in s.windows(2) {
            assert!(pair[0].dist < pair[1].dist);
        }
    }

    #[test]
    fn scope_limits_history() {
        // With a tiny scope, producers older than the window are dropped.
        let p = assemble(
            "t",
            "li r1, 0x100000\n nop\n nop\n nop\n nop\n nop\n nop\n nop\n ld r2, 0(r1)\n halt",
        )
        .unwrap();
        let mut w = SliceWindow::new(4); // li falls out of the window
        let mut slice = None;
        run_trace(&p, &TraceConfig::default(), |d| {
            w.push(d);
            if d.inst.op.is_load() {
                slice = Some(w.slice_latest(16));
            }
        });
        let s = slice.unwrap();
        assert_eq!(s.len(), 1); // only the root; its producer is out of scope
    }

    #[test]
    fn window_eviction_bounds_len() {
        let p = assemble(
            "t",
            "li r1, 0\n li r2, 1000\n top: bge r1, r2, d\n addi r1, r1, 1\n j top\n d: halt",
        )
        .unwrap();
        let w = trace_into_window(&p, 16);
        assert_eq!(w.len(), 16);
        assert_eq!(w.scope(), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scope_rejected() {
        let _ = SliceWindow::new(0);
    }

    #[test]
    fn try_new_returns_typed_error() {
        assert!(matches!(SliceWindow::try_new(0), Err(crate::SliceError::ZeroScope)));
        assert!(SliceWindow::try_new(1).is_ok());
    }

    #[test]
    fn try_slice_of_empty_window_is_error() {
        let w = SliceWindow::new(8);
        assert!(matches!(
            w.try_slice_latest(4),
            Err(crate::SliceError::EmptyWindow)
        ));
    }
}
