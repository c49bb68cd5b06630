//! On-demand backward slicing over a checkpointed trace.
//!
//! The [`SliceWindow`](crate::SliceWindow) holds the last *scope* dynamic
//! instructions in memory, which caps the feasible scope: the window's
//! footprint is O(scope) however few slices are ever taken. The on-demand
//! slicer (DESIGN.md §17) inverts the trade: the trace pass records only
//! periodic checkpoints (see [`preexec_func::try_run_trace_checkpointed`]),
//! and when a slice is requested the slicer *re-executes* just the
//! checkpoint intervals the backward traversal reaches into,
//! reconstructing exactly the dependence records the window would have
//! held. Resident slice detail is a few intervals' worth whatever the
//! scope; scope is bounded only by the recorded trace.
//!
//! Identity with the windowed extractor is structural, not coincidental:
//! both feed the same traversal (the window module's `slice_from`), the
//! re-execution runs the same interpreter the recording run used, and
//! both turn each instruction into its dependence record through the same
//! last-writer `Recorder`.
//!
//! **Entry-state resolution.** An interval's dependences are resolved
//! once, when it is replayed, so a traversal visit is one indexed read of
//! the detail cache. The slicer keeps an index of the writes of the
//! intervals replayed so far: for every register and every granule, the
//! newest writer in each interval that wrote it. A replay seeds the
//! recorder's registers with the interval's entry state (each register's
//! newest indexed writer before the interval's first instruction), and a
//! load reading a granule that no earlier store of the interval covered
//! looks that granule's newest earlier writer up in the index — one
//! search of one granule's writers, however many intervals are in scope.
//!
//! **The floor.** `slice_from` never follows a producer below its
//! request's `min_seq`, so once a dependence falls below that it may be
//! reported as absent or as any older writer. An interval resolved while
//! the writes of every interval from `floor` up to it are indexed is
//! therefore exact for every request whose scope starts in interval
//! `floor` or later. No request that can visit interval `j` starts below
//! the interval holding `start_j + 1 - scope` — `j`'s fixed floor — so an
//! interval resolved against its fixed floor is exact for every request.
//! Before replaying interval `j` for a request whose scope starts in
//! interval `lo`, the slicer indexes every interval in `lo..j` it has not
//! indexed yet, oldest first, so each resolves against the ones below it;
//! `j`'s floor is then `lo`, extended down toward the fixed floor over
//! intervals still indexed. A request reuses a cached interval only if
//! that floor is at or below its own `lo`. Requests in trace order never
//! lower `lo`, so they never re-resolve: an interval is replayed again
//! only if a slice reaches back to it after the detail cache evicted it.

use crate::window::{slice_from, EntryView, Recorder};
use crate::{SliceEntry, SliceError};
use preexec_func::Replayer;
use preexec_isa::reg::NUM_REGS;
use preexec_mem::U64Map;

/// How many intervals of resolved detail are cached, interval `j` in
/// slot `j % DETAIL_CACHE_INTERVALS`. The traversal visits sequence
/// numbers in descending order, so the slots behave like a sliding
/// cursor over consecutive intervals; the cap (not the scope) bounds
/// resident detail at `DETAIL_CACHE_INTERVALS * checkpoint_every`
/// instructions.
const DETAIL_CACHE_INTERVALS: usize = 4;

/// One detail-cache slot: the resolved dependence records of one interval.
struct Detail {
    /// The interval held, or `usize::MAX` when none is.
    interval: usize,
    /// The floor the interval was resolved against.
    floor: usize,
    views: Vec<EntryView>,
}

/// The newest writer in the ascending `writers` older than `before`.
fn newest_before(writers: &[u64], before: u64) -> Option<u64> {
    match writers.last() {
        Some(&s) if s < before => Some(s),
        _ => writers[..writers.partition_point(|&s| s < before)].last().copied(),
    }
}

/// Adds `seq` to the ascending `writers` unless it is already there.
fn insert_writer(writers: &mut Vec<u64>, seq: u64) {
    match writers.last() {
        Some(&s) if s >= seq => {
            let at = writers.partition_point(|&s| s < seq);
            if writers[at] != seq {
                writers.insert(at, seq);
            }
        }
        _ => writers.push(seq),
    }
}

/// Extracts backward slices from a checkpointed trace by re-executing
/// only the intervals a slice actually reaches into.
///
/// Slices are byte-identical to [`SliceWindow::slice_latest`](crate::SliceWindow::slice_latest) over the
/// same trace, scope, and `max_slice_len` (pinned by this crate's tests
/// and the pipeline's proptests). Requests may arrive in any order;
/// ascending root order is cheapest: it resolves each interval once, and
/// the index forgets intervals behind the scope floor as it advances.
pub struct OnDemandSlicer<'a> {
    replayer: Replayer<'a>,
    scope: usize,
    max_slice_len: usize,
    details: Vec<Detail>,
    recorder: Recorder,
    /// Per register, then per granule: the newest writer in every
    /// indexed interval that wrote it, ascending.
    reg_writers: Vec<Vec<u64>>,
    granule_writers: U64Map<Vec<u64>>,
    /// Whether each interval's writes are in the index.
    indexed: Vec<bool>,
    /// No interval below this one is indexed.
    indexed_from: usize,
    /// Intervals indexed, and intervals forgotten since the index last
    /// shed their writes.
    live: usize,
    forgotten: usize,
    reexec_insts: u64,
    peak_resident_insts: usize,
}

impl<'a> OnDemandSlicer<'a> {
    /// Creates a slicer over `replayer`'s recorded trace with the given
    /// slicing `scope` and `max_slice_len` (same meaning as the windowed
    /// extractor's parameters).
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::ZeroScope`] or [`SliceError::ZeroMaxSliceLen`]
    /// when the corresponding parameter is zero.
    pub fn try_new(
        replayer: Replayer<'a>,
        scope: usize,
        max_slice_len: usize,
    ) -> Result<OnDemandSlicer<'a>, SliceError> {
        if scope == 0 {
            return Err(SliceError::ZeroScope);
        }
        if max_slice_len == 0 {
            return Err(SliceError::ZeroMaxSliceLen);
        }
        let intervals = replayer.trace().num_checkpoints();
        Ok(OnDemandSlicer {
            replayer,
            scope,
            max_slice_len,
            details: (0..DETAIL_CACHE_INTERVALS)
                .map(|_| Detail { interval: usize::MAX, floor: 0, views: Vec::new() })
                .collect(),
            recorder: Recorder::new(),
            reg_writers: vec![Vec::new(); NUM_REGS],
            granule_writers: U64Map::default(),
            indexed: vec![false; intervals],
            indexed_from: 0,
            live: 0,
            forgotten: 0,
            reexec_insts: 0,
            peak_resident_insts: 0,
        })
    }

    /// Total instructions re-executed so far across all interval
    /// replays (the time cost of on-demand slicing).
    pub fn reexec_insts(&self) -> u64 {
        self.reexec_insts
    }

    /// High-water mark of per-instruction detail entries resident at
    /// once — the O(intervals-cached × checkpoint_every) bound that
    /// replaces the window's O(scope).
    pub fn peak_resident_insts(&self) -> u64 {
        self.peak_resident_insts as u64
    }

    /// Number of checkpoints in the underlying trace.
    pub fn num_checkpoints(&self) -> usize {
        self.replayer.trace().num_checkpoints()
    }

    /// Extracts the backward slice rooted at the emitted instruction
    /// `root_seq`, exactly as [`SliceWindow::slice_latest`](crate::SliceWindow::slice_latest) would have
    /// at the moment `root_seq` was the newest instruction in a window
    /// of this slicer's scope.
    ///
    /// # Panics
    ///
    /// Panics if `root_seq` is not below the trace's emitted count.
    ///
    /// # Errors
    ///
    /// Returns [`SliceError::Replay`] if re-execution faults (possible
    /// only if the recording run did).
    pub fn try_slice_at(&mut self, root_seq: u64) -> Result<Vec<SliceEntry>, SliceError> {
        let trace = self.replayer.trace();
        assert!(
            root_seq < trace.emitted(),
            "slice root {root_seq} beyond recorded trace ({} emitted)",
            trace.emitted()
        );
        let every = trace.checkpoint_every();
        let min_seq = root_seq.saturating_sub(self.scope as u64 - 1);
        let lo = (min_seq / every) as usize;
        self.forget_below(lo);
        slice_from(root_seq, min_seq, self.max_slice_len, |seq| {
            let j = (seq / every) as usize;
            let slot = j % DETAIL_CACHE_INTERVALS;
            if self.details[slot].interval != j || self.details[slot].floor > lo {
                self.resolve(j, lo)?;
            }
            Ok(self.details[slot].views[(seq - j as u64 * every) as usize])
        })
    }

    /// Brings interval `j` into the detail cache, exact for a request
    /// whose scope starts in interval `lo`: replays every interval in
    /// `lo..j` not yet indexed, oldest first, then `j`.
    fn resolve(&mut self, j: usize, lo: usize) -> Result<(), SliceError> {
        for m in lo..j {
            if !self.indexed[m] {
                self.replay(m, lo)?;
            }
        }
        self.replay(j, lo)
    }

    /// Re-executes interval `j` from its checkpoint into its detail slot,
    /// resolving it against the index, and indexes its writes. Every
    /// interval in `lo..j` must be indexed.
    fn replay(&mut self, j: usize, lo: usize) -> Result<(), SliceError> {
        let trace = self.replayer.trace();
        let (start, end) = (trace.interval_start(j), trace.interval_end(j));
        let fixed_floor = (start.saturating_sub(self.scope as u64 - 1) / trace.checkpoint_every()) as usize;
        let mut floor = lo;
        while floor > fixed_floor && self.indexed[floor - 1] {
            floor -= 1;
        }

        let OnDemandSlicer { replayer, details, recorder, reg_writers, granule_writers, .. } = self;
        for (r, writers) in recorder.regs.iter_mut().zip(reg_writers.iter()) {
            *r = newest_before(writers, start);
        }
        recorder.granules.clear();
        let detail = &mut details[j % DETAIL_CACHE_INTERVALS];
        detail.interval = usize::MAX;
        detail.views.clear();
        replayer.try_replay(j, |d| {
            let earlier = |g| granule_writers.get(&g).and_then(|w| newest_before(w, start));
            detail.views.push(recorder.record(d, earlier));
            d.seq + 1 < end
        })?;
        detail.interval = j;
        detail.floor = floor;
        self.reexec_insts += detail.views.len() as u64;
        let resident = details.iter().map(|d| d.views.len()).sum::<usize>();
        self.peak_resident_insts = self.peak_resident_insts.max(resident);

        if !self.indexed[j] {
            for (r, writers) in recorder.regs.iter().zip(reg_writers.iter_mut()) {
                if let Some(s) = r.filter(|&s| s >= start) {
                    insert_writer(writers, s);
                }
            }
            for (&g, &s) in &recorder.granules {
                insert_writer(granule_writers.entry(g).or_default(), s);
            }
            self.indexed[j] = true;
            self.indexed_from = self.indexed_from.min(j);
            self.live += 1;
        }
        Ok(())
    }

    /// Forgets the intervals below `lo`, which no request in trace order
    /// reaches again, and sheds their writes from the index once the
    /// forgotten intervals outnumber the live ones.
    fn forget_below(&mut self, lo: usize) {
        if lo <= self.indexed_from {
            return;
        }
        for indexed in &mut self.indexed[self.indexed_from..lo] {
            if std::mem::take(indexed) {
                self.live -= 1;
                self.forgotten += 1;
            }
        }
        self.indexed_from = lo;
        if self.forgotten > self.live {
            let every = self.replayer.trace().checkpoint_every();
            let indexed = &self.indexed;
            let live = |s: &u64| indexed[(s / every) as usize];
            for writers in &mut self.reg_writers {
                writers.retain(live);
            }
            self.granule_writers.retain(|_, writers| {
                writers.retain(live);
                !writers.is_empty()
            });
            self.forgotten = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceWindow;
    use preexec_func::{
        try_run_trace_checkpointed, Replayer, Sampling, TraceConfig,
    };
    use preexec_isa::{assemble, Program};

    /// A loop with register induction, same-iteration and cross-iteration
    /// store–load feedback, and multi-granule (word) accesses — every
    /// dependence kind the window tracks. The pointer strides a whole L2
    /// line per iteration, so every iteration's first load is a cold miss.
    fn workload() -> Program {
        assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 400\n li r5, 3\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n add r5, r5, r4\n sd r5, 8(r1)\n\
             sw r5, 16(r1)\n lw r6, 16(r1)\n add r5, r5, r6\n\
             ld r7, -56(r1)\n add r5, r5, r7\n\
             addi r1, r1, 64\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    /// Slices every L2-miss load both ways and asserts equality.
    fn assert_identical(config: &TraceConfig, scope: usize, max_len: usize, every: u64) {
        let p = workload();
        // Windowed reference: slice at every miss as the trace streams.
        let mut window = SliceWindow::new(scope);
        let mut reference: Vec<(u64, Vec<SliceEntry>)> = Vec::new();
        let mut roots: Vec<u64> = Vec::new();
        let (_, trace) = try_run_trace_checkpointed(&p, config, every, |d| {
            window.push(d);
            if d.is_l2_miss_load() {
                reference.push((d.seq, window.slice_latest(max_len)));
                roots.push(d.seq);
            }
        })
        .unwrap();
        assert!(!roots.is_empty(), "workload must produce misses");
        // On-demand: same roots, from checkpoints.
        let replayer = Replayer::new(&p, config, &trace);
        let mut od = OnDemandSlicer::try_new(replayer, scope, max_len).unwrap();
        for (seq, want) in &reference {
            let got = od.try_slice_at(*seq).unwrap();
            assert_eq!(&got, want, "slice at seq {seq} (scope {scope}, every {every})");
        }
        assert!(od.reexec_insts() > 0);
    }

    #[test]
    fn matches_windowed_across_scopes_and_cadences() {
        let config = TraceConfig::default();
        for &(scope, every) in
            &[(64, 16), (64, 64), (64, 256), (1024, 32), (1024, 4096), (7, 3)]
        {
            assert_identical(&config, scope, 32, every);
        }
    }

    #[test]
    fn matches_windowed_with_tiny_max_len() {
        assert_identical(&TraceConfig::default(), 256, 4, 64);
    }

    #[test]
    fn matches_windowed_under_sampling() {
        let config = TraceConfig {
            sampling: Sampling::new(31, 17, 101),
            ..TraceConfig::default()
        };
        assert_identical(&config, 128, 32, 64);
    }

    #[test]
    fn out_of_order_requests_are_exact() {
        let p = workload();
        let config = TraceConfig::default();
        let mut window = SliceWindow::new(128);
        let mut reference: Vec<(u64, Vec<SliceEntry>)> = Vec::new();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, 32, |d| {
            window.push(d);
            if d.is_l2_miss_load() {
                reference.push((d.seq, window.slice_latest(16)));
            }
        })
        .unwrap();
        let mut od =
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), 128, 16).unwrap();
        // Descending order: summaries must be rebuilt after eviction.
        for (seq, want) in reference.iter().rev() {
            assert_eq!(&od.try_slice_at(*seq).unwrap(), want, "seq {seq}");
        }
    }

    #[test]
    fn detail_residency_is_bounded_by_cache_not_scope() {
        let p = workload();
        let config = TraceConfig::default();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, 8, |_| {}).unwrap();
        let emitted = trace.emitted();
        // Scope covering the whole trace: the window would hold every
        // instruction; the slicer's residency stays at the cache cap.
        let scope = emitted as usize;
        let mut od =
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), scope, 32).unwrap();
        let _ = od.try_slice_at(emitted - 1).unwrap();
        assert!(
            od.peak_resident_insts() <= (DETAIL_CACHE_INTERVALS as u64) * 8,
            "peak {} exceeds cache bound",
            od.peak_resident_insts()
        );
    }

    #[test]
    fn trace_order_replays_each_interval_once() {
        // Scope spans eight intervals. The workload's miss slices reach
        // back at most 31 iterations of 12 instructions, under three
        // intervals, so the detail cache holds every interval a slice
        // revisits and nothing is replayed twice.
        let p = workload();
        let config = TraceConfig::default();
        let every = 128;
        let scope = 8 * every as usize;
        let mut roots = Vec::new();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, every, |d| {
            if d.is_l2_miss_load() {
                roots.push(d.seq);
            }
        })
        .unwrap();
        let mut od =
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), scope, 32).unwrap();
        for &seq in &roots {
            let _ = od.try_slice_at(seq).unwrap();
        }
        assert!(od.reexec_insts() <= trace.emitted());
        // Exactly the intervals from the first slice's floor through the
        // last slice's root, once each.
        let first = (roots[0].saturating_sub(scope as u64 - 1) / every) as usize;
        let last = (roots[roots.len() - 1] / every) as usize;
        assert_eq!(
            od.reexec_insts(),
            trace.interval_end(last) - trace.interval_start(first),
            "{} roots over intervals {first}..={last}",
            roots.len()
        );
        assert!(
            od.peak_resident_insts() <= DETAIL_CACHE_INTERVALS as u64 * every,
            "peak {} exceeds cache bound",
            od.peak_resident_insts()
        );
    }

    #[test]
    fn zero_parameters_rejected() {
        let p = workload();
        let config = TraceConfig::default();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, 64, |_| {}).unwrap();
        assert!(matches!(
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), 0, 32),
            Err(SliceError::ZeroScope)
        ));
        assert!(matches!(
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), 128, 0),
            Err(SliceError::ZeroMaxSliceLen)
        ));
    }
}
