//! Deterministic re-execution from a [`Checkpoint`](crate::CheckpointTrace).
//!
//! A [`Replayer`] borrows a program, its trace configuration and the
//! [`CheckpointTrace`] recorded by
//! [`try_run_trace_checkpointed`](crate::try_run_trace_checkpointed), and
//! indexes the checkpoints' page records by page once. To replay from
//! checkpoint `i` it seeds the shared trace loop with clones of the
//! snapshot's CPU, hierarchy, and statistics, and with a [`Memory`] over
//! the program's data segments holding, for every page the run wrote
//! before checkpoint `i`, that page's newest record at or before `i` —
//! which is the page's content at the snapshot instant, since checkpoint
//! `j` records exactly the pages written between checkpoints `j-1` and
//! `j`. The records are shared, not copied; the replay copies a page only
//! when it writes it. Because the interpreter, the cache model, the
//! memory and the loop driving them are the very same code the recording
//! run executed, the replay emits byte-identical [`DynInst`]s —
//! determinism is by construction, not by a parallel implementation kept
//! in sync.

use crate::checkpoint::CheckpointTrace;
use crate::tracer::{initial_memory, run_trace_loop, TraceState};
use crate::{DynInst, ExecError, RunStats, TraceConfig};
use preexec_isa::Program;
use preexec_mem::{MemPage, Memory, U64Map};
use std::sync::Arc;

/// Deterministic re-executor over a recorded [`CheckpointTrace`].
///
/// # Example
///
/// ```
/// use preexec_func::{try_run_trace_checkpointed, Replayer, TraceConfig};
/// use preexec_isa::assemble;
///
/// let p = assemble(
///     "t",
///     "li r1, 0x1000\nli r2, 9\nsd r2, 0(r1)\nld r3, 0(r1)\nadd r4, r3, r3\nhalt",
/// )
/// .unwrap();
/// let config = TraceConfig::default();
/// let (stats, trace) = try_run_trace_checkpointed(&p, &config, 2, |_| {}).unwrap();
/// let replayer = Replayer::new(&p, &config, &trace);
/// // Replaying from any checkpoint reconstructs the identical suffix.
/// let replayed = replayer.try_replay(1, |_| true).unwrap();
/// assert_eq!(format!("{stats:?}"), format!("{replayed:?}"));
/// ```
pub struct Replayer<'a> {
    program: &'a Program,
    config: &'a TraceConfig,
    trace: &'a CheckpointTrace,
    /// Every page any checkpoint recorded: `(checkpoint, content)` in
    /// checkpoint order.
    history: U64Map<Vec<(usize, MemPage)>>,
}

impl<'a> Replayer<'a> {
    /// Builds a replayer for `trace`. `program` and `config` must be the
    /// ones the recording run used — the trace stores neither.
    pub fn new(program: &'a Program, config: &'a TraceConfig, trace: &'a CheckpointTrace) -> Replayer<'a> {
        let mut history: U64Map<Vec<(usize, MemPage)>> = U64Map::default();
        for i in 0..trace.num_checkpoints() {
            for (page, bytes) in &trace.checkpoint(i).pages {
                history.entry(*page).or_default().push((i, Arc::clone(bytes)));
            }
        }
        Replayer { program, config, trace, history }
    }

    /// The memory at checkpoint `idx`: the program's data segments under
    /// each written page's newest record at or before `idx`.
    fn memory_at(&self, idx: usize) -> Memory<'a> {
        let mut mem = initial_memory(self.program);
        for (&page, records) in &self.history {
            let n = records.partition_point(|&(j, _)| j <= idx);
            if let Some((_, bytes)) = records[..n].last() {
                mem.set_page(page, Arc::clone(bytes));
            }
        }
        mem
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &'a CheckpointTrace {
        self.trace
    }

    /// Re-executes from checkpoint `from_ckpt`, feeding every re-emitted
    /// [`DynInst`] (starting at `seq == from_ckpt * checkpoint_every`) to
    /// `sink` until the run ends or `sink` returns `false`. Returns the
    /// accumulated [`RunStats`] — identical to the recording run's if
    /// replayed to completion.
    ///
    /// # Panics
    ///
    /// Panics if `from_ckpt` is out of range.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Malformed`] only if the recording run did —
    /// replay executes the same instruction stream.
    pub fn try_replay(
        &self,
        from_ckpt: usize,
        mut sink: impl FnMut(&DynInst) -> bool,
    ) -> Result<RunStats, ExecError> {
        let ckpt = self.trace.checkpoint(from_ckpt);
        let mut state = TraceState {
            cpu: ckpt.cpu.clone(),
            mem: self.memory_at(from_ckpt),
            hierarchy: ckpt.hierarchy.clone(),
            stats: ckpt.stats.clone(),
            emitted: ckpt.emitted,
        };
        run_trace_loop(self.program, self.config, &mut state, |_| {}, |d| sink(d))?;
        Ok(state.stats)
    }

    /// Instructions replayed by a full [`try_replay`](Self::try_replay)
    /// from `from_ckpt` (used by callers to pick the cheapest checkpoint).
    pub fn tail_len(&self, from_ckpt: usize) -> u64 {
        self.trace.emitted() - self.trace.checkpoint(from_ckpt).emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_trace, try_run_trace_checkpointed, Sampling};
    use preexec_isa::assemble;

    /// A store-then-reload loop whose values depend on earlier stores, so
    /// any memory-reconstruction bug changes the emitted `result`s.
    fn feedback_loop() -> Program {
        assemble(
            "t",
            "li r1, 0x100000\n li r2, 0\n li r3, 300\n li r5, 1\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n add r5, r5, r4\n sd r5, 8(r1)\n\
             addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    fn record(
        config: &TraceConfig,
        every: u64,
    ) -> (Vec<String>, RunStats, CheckpointTrace) {
        let p = feedback_loop();
        let mut emitted = Vec::new();
        let (stats, trace) =
            try_run_trace_checkpointed(&p, config, every, |d| emitted.push(format!("{d:?}")))
                .unwrap();
        (emitted, stats, trace)
    }

    #[test]
    fn full_replay_from_every_checkpoint_matches() {
        let p = feedback_loop();
        let config = TraceConfig::default();
        let (emitted, stats, trace) = record(&config, 64);
        let replayer = Replayer::new(&p, &config, &trace);
        for i in 0..trace.num_checkpoints() {
            let start = trace.checkpoint(i).emitted as usize;
            let mut tail = Vec::new();
            let rstats = replayer.try_replay(i, |d| {
                tail.push(format!("{d:?}"));
                true
            })
            .unwrap();
            assert_eq!(tail, emitted[start..], "from checkpoint {i}");
            assert_eq!(format!("{rstats:?}"), format!("{stats:?}"), "from checkpoint {i}");
        }
    }

    #[test]
    fn early_stop_replays_exact_interval() {
        let p = feedback_loop();
        let config = TraceConfig::default();
        let (emitted, _, trace) = record(&config, 64);
        let replayer = Replayer::new(&p, &config, &trace);
        let i = 3;
        let (start, end) = (trace.interval_start(i), trace.interval_end(i));
        let mut got = Vec::new();
        replayer
            .try_replay(i, |d| {
                got.push(format!("{d:?}"));
                d.seq + 1 < end
            })
            .unwrap();
        assert_eq!(got, emitted[start as usize..end as usize]);
    }

    #[test]
    fn replay_under_sampling_schedule_matches() {
        // Off/warm phases exercise the total_steps-based phase clock: the
        // snapshot restores total_steps, so the schedule re-aligns.
        let config = TraceConfig {
            sampling: Sampling::new(57, 23, 41),
            ..TraceConfig::default()
        };
        let p = feedback_loop();
        let (emitted, stats, trace) = record(&config, 32);
        let replayer = Replayer::new(&p, &config, &trace);
        for i in [0, trace.num_checkpoints() / 2, trace.num_checkpoints() - 1] {
            let start = trace.checkpoint(i).emitted as usize;
            let mut tail = Vec::new();
            let rstats = replayer
                .try_replay(i, |d| {
                    tail.push(format!("{d:?}"));
                    true
                })
                .unwrap();
            assert_eq!(tail, emitted[start..], "from checkpoint {i}");
            assert_eq!(format!("{rstats:?}"), format!("{stats:?}"));
        }
    }

    #[test]
    fn checkpointed_stream_matches_plain_trace_under_sampling() {
        let config = TraceConfig {
            sampling: Sampling::new(13, 7, 29),
            ..TraceConfig::default()
        };
        let p = feedback_loop();
        let mut plain = Vec::new();
        try_run_trace(&p, &config, |d| plain.push(format!("{d:?}"))).unwrap();
        let (emitted, _, _) = record(&config, 32);
        assert_eq!(emitted, plain);
    }
}
