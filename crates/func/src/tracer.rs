//! The trace driver: functional execution + cache classification + sampling.

use crate::{Cpu, DynInst, ExecError, Phase, RunStats, Sampling};
use preexec_isa::{OpClass, Program};
use preexec_mem::{FuncHierarchy, HierarchyConfig, Memory};

/// Configuration for a trace run.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Cache geometry used for hit/miss classification.
    pub hierarchy: HierarchyConfig,
    /// Off / warm-up / on sampling schedule.
    pub sampling: Sampling,
    /// Hard cap on total architectural steps (off + warm + on). The run
    /// stops at this budget even if the program has not halted.
    pub max_steps: u64,
    /// Optional cap on *measured* (emitted) instructions.
    pub max_emitted: Option<u64>,
}

impl Default for TraceConfig {
    /// Paper-default caches, always-on sampling, a 100 M-step safety cap.
    fn default() -> TraceConfig {
        TraceConfig {
            hierarchy: HierarchyConfig::paper_default(),
            sampling: Sampling::always_on(),
            max_steps: 100_000_000,
            max_emitted: None,
        }
    }
}

/// Runs `program` to completion (or budget), streaming a [`DynInst`] for
/// every instruction retired in an "on" sampling phase to `sink`, and
/// returns the accumulated [`RunStats`].
///
/// Semantics per phase (paper §4.1):
/// - **Off**: architectural execution only; caches untouched; nothing
///   emitted.
/// - **Warm**: caches accessed (warmed) but nothing emitted or counted.
/// - **On**: caches accessed, [`DynInst`] emitted, statistics counted.
///
/// # Example
///
/// ```
/// use preexec_func::{run_trace, TraceConfig};
/// use preexec_isa::assemble;
///
/// let p = assemble("t", "li r1, 0x4000\nld r2, 0(r1)\nld r3, 0(r1)\nhalt").unwrap();
/// let mut misses = 0;
/// let stats = run_trace(&p, &TraceConfig::default(), |d| {
///     if d.is_l2_miss_load() { misses += 1 }
/// });
/// assert_eq!(misses, 1); // second load hits
/// assert_eq!(stats.l2_misses, 1);
/// ```
pub fn run_trace(
    program: &Program,
    config: &TraceConfig,
    sink: impl FnMut(&DynInst),
) -> RunStats {
    match try_run_trace(program, config, sink) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_trace`]: returns a typed [`ExecError`] instead of
/// panicking if a malformed instruction is encountered mid-trace.
///
/// The step watchdog (`config.max_steps`) is *not* an error: hitting it
/// ends the run normally with [`RunStats::timed_out`] set, since the
/// prefix traced so far is valid and usable.
///
/// # Errors
///
/// Returns [`ExecError::Malformed`] if execution reaches an instruction
/// whose operands are inconsistent with its opcode class (possible only
/// for programs not built through the assembler).
pub fn try_run_trace(
    program: &Program,
    config: &TraceConfig,
    mut sink: impl FnMut(&DynInst),
) -> Result<RunStats, ExecError> {
    let mut state = TraceState {
        cpu: Cpu::new(program),
        mem: initial_memory(program),
        hierarchy: FuncHierarchy::new(config.hierarchy),
        stats: RunStats::new(),
        emitted: 0,
    };
    run_trace_loop(program, config, &mut state, |_| {}, |d| {
        sink(d);
        true
    })?;
    Ok(state.stats)
}

/// `program`'s memory before its first instruction: the data segments,
/// read in place rather than copied (see [`Memory::with_segments`]).
pub fn initial_memory(program: &Program) -> Memory<'_> {
    Memory::with_segments(program.data_segments().iter().map(|s| (s.base, &s.bytes[..])))
}

/// The full mutable state of an in-flight trace run. One loop
/// ([`run_trace_loop`]) drives every trace path — the plain tracer, the
/// checkpoint recorder, and the checkpoint replayer — over this state, so
/// a replay resumed from a snapshot of it is exact by construction.
pub(crate) struct TraceState<'p> {
    pub cpu: Cpu,
    pub mem: Memory<'p>,
    pub hierarchy: FuncHierarchy,
    pub stats: RunStats,
    /// Measured ("on"-phase) instructions emitted so far — the `seq` of
    /// the next emitted [`DynInst`].
    pub emitted: u64,
}

/// The trace loop shared by tracing, checkpoint recording, and replay.
///
/// `at_loop_top` is called once per iteration before the step executes —
/// the checkpoint recorder snapshots there, so a snapshot captures the
/// state *before* the instruction whose `seq` equals the snapshot's
/// `emitted`. `sink` receives every emitted instruction and returns
/// whether to continue (replay stops at an interval boundary this way).
pub(crate) fn run_trace_loop<'p>(
    program: &Program,
    config: &TraceConfig,
    state: &mut TraceState<'p>,
    mut at_loop_top: impl FnMut(&mut TraceState<'p>),
    mut sink: impl FnMut(&DynInst) -> bool,
) -> Result<(), ExecError> {
    while !state.cpu.halted() {
        if state.stats.total_steps >= config.max_steps {
            // Watchdog: the program did not halt within its step budget.
            state.stats.timed_out = true;
            break;
        }
        if let Some(cap) = config.max_emitted {
            if state.emitted >= cap {
                break;
            }
        }
        at_loop_top(state);
        let phase = config.sampling.phase(state.stats.total_steps);
        let out = state.cpu.try_step(program, &mut state.mem)?;
        state.stats.total_steps += 1;
        if phase == Phase::Off {
            continue;
        }
        // Warm and On both touch the caches.
        let level = out.addr.map(|a| {
            let is_write = out.inst.op.is_store();
            state.hierarchy.access(a, is_write)
        });
        if phase == Phase::Warm {
            continue;
        }
        // On: count and emit.
        state.stats.insts += 1;
        match out.inst.class() {
            OpClass::Load => {
                let level = level
                    .ok_or(ExecError::Malformed { pc: out.pc, reason: "load without address" })?;
                state.stats.record_load(out.pc, level);
            }
            OpClass::Store => {
                let level = level
                    .ok_or(ExecError::Malformed { pc: out.pc, reason: "store without address" })?;
                state.stats.record_store(level);
            }
            OpClass::Branch => {
                state.stats.branches += 1;
                if out.taken {
                    state.stats.taken_branches += 1;
                }
            }
            _ => {}
        }
        let d = DynInst {
            seq: state.emitted,
            pc: out.pc,
            inst: out.inst,
            addr: out.addr,
            level,
            taken: out.taken,
            result: out.result,
        };
        state.emitted += 1;
        if !sink(&d) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::assemble;

    /// A loop that streams over 64 KB (beyond the tiny L2 in
    /// `HierarchyConfig::tiny`) so every new line misses.
    fn streaming_loop() -> Program {
        assemble(
            "stream",
            "li r1, 0x10000\n li r2, 0\n li r3, 8192\n\
             top: bge r2, r3, done\n\
             ld r4, 0(r1)\n addi r1, r1, 8\n addi r2, r2, 1\n j top\n\
             done: halt",
        )
        .unwrap()
    }

    #[test]
    fn l2_misses_once_per_line() {
        let config = TraceConfig {
            hierarchy: HierarchyConfig::paper_default(),
            ..TraceConfig::default()
        };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        // 8192 loads x 8B = 64KB = 1024 L2 lines (64B each), all cold.
        assert_eq!(stats.loads, 8192);
        assert_eq!(stats.l2_misses, 1024);
        // L1 lines are 32B -> 2048 L1 misses.
        assert_eq!(stats.l1d_misses, 2048);
    }

    #[test]
    fn seq_numbers_are_dense() {
        let mut next = 0;
        run_trace(&streaming_loop(), &TraceConfig::default(), |d| {
            assert_eq!(d.seq, next);
            next += 1;
        });
        assert!(next > 0);
    }

    #[test]
    fn step_budget_respected() {
        let config = TraceConfig { max_steps: 100, ..TraceConfig::default() };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        assert_eq!(stats.total_steps, 100);
        assert!(stats.timed_out, "watchdog cutoff must be flagged");
    }

    #[test]
    fn halting_run_is_not_timed_out() {
        let stats = run_trace(&streaming_loop(), &TraceConfig::default(), |_| {});
        assert!(!stats.timed_out);
    }

    #[test]
    fn emitted_budget_respected() {
        let config = TraceConfig { max_emitted: Some(7), ..TraceConfig::default() };
        let mut n = 0;
        run_trace(&streaming_loop(), &config, |_| n += 1);
        assert_eq!(n, 7);
    }

    #[test]
    fn off_phase_emits_nothing_and_skips_caches() {
        // off=30, warm=0, on=10: the first 30 instructions (which include
        // all the cold misses of the first lines) are skipped entirely.
        let config = TraceConfig {
            sampling: Sampling::new(1_000_000, 0, 10),
            ..TraceConfig::default()
        };
        let stats = run_trace(&streaming_loop(), &config, |_| {});
        assert_eq!(stats.insts, 0); // program shorter than off phase
        assert_eq!(stats.l2_misses, 0);
        assert!(stats.total_steps > 0);
    }

    #[test]
    fn warm_phase_warms_caches() {
        // Two-pass program: touch a line, then re-touch it. With the first
        // touch in warm-up and the second in "on", the second is a hit.
        let p = assemble(
            "t",
            "li r1, 0x4000\n ld r2, 0(r1)\n ld r3, 0(r1)\n halt",
        )
        .unwrap();
        // warm = 2 (li + first ld), on = rest.
        let config = TraceConfig {
            sampling: Sampling::new(0, 2, 100),
            ..TraceConfig::default()
        };
        let stats = run_trace(&p, &config, |_| {});
        assert_eq!(stats.loads, 1); // only the second load measured
        assert_eq!(stats.l2_misses, 0); // and it hit, thanks to warm-up
    }

    #[test]
    fn stats_match_emitted_stream() {
        let mut loads = 0;
        let stats = run_trace(&streaming_loop(), &TraceConfig::default(), |d| {
            if d.inst.op.is_load() {
                loads += 1;
            }
        });
        assert_eq!(stats.loads, loads);
        // 3 setup + 8192 iterations x (bge, ld, addi, addi, j) + final bge + halt.
        assert_eq!(stats.insts, 3 + 8192 * 5 + 1 + 1);
    }
}
