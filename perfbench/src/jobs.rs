//! Job specifications and the seeded job sequences of every workload.
//!
//! A run is a series of *rounds*. Each round holds every job kind of its
//! workload exactly once, in an order the seed draws, so every complete
//! round does the same work and the seed moves only the order. Runs stop
//! at a round boundary, which keeps the job mix of two runs identical.

use crate::stats::Rng;
use preexec_experiments::{PolicySpec, SlicingMode};
use preexec_isa::Program;
use preexec_workloads::{suite, InputSet};

/// Measured instructions per job.
pub const BUDGET: u64 = 60_000;
/// Scope of the `ondemand_deep` workload.
pub const DEEP_SCOPE: usize = 8192;
/// Checkpoint cadence of the `ondemand_deep` workload.
pub const DEEP_CHECKPOINT_EVERY: u64 = 1024;
/// The machines `reselect` draws from: (`mem_latency`, `width`).
pub const MACHINES: [(u64, u32); 6] = [(70, 4), (70, 8), (140, 4), (140, 8), (280, 4), (280, 8)];
/// Memory latencies a warm `serve_mixed` job re-runs its trace under.
pub const WARM_LATENCIES: [u64; 2] = [140, 280];
/// Rounds of distinct trace keys `serve_mixed` has reference digests
/// for; a run ends early rather than go past them.
pub const SERVE_ROUNDS: usize = 32;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSuite,
    Reselect,
    OndemandDeep,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_suite" => Some(Workload::ColdSuite),
            "reselect" => Some(Workload::Reselect),
            "ondemand_deep" => Some(Workload::OndemandDeep),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSuite => "cold_suite",
            Workload::Reselect => "reselect",
            Workload::OndemandDeep => "ondemand_deep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Intra-job threads of the workload's jobs.
    pub fn job_threads(self) -> usize {
        match self {
            Workload::Reselect => 2,
            _ => 1,
        }
    }

    /// Stream label separating this workload's draws from the others'.
    fn stream(self) -> u64 {
        self as u64 + 1
    }
}

/// One kernel with one input set: the unit every job runs on.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub name: &'static str,
    pub input: InputSet,
}

impl Pair {
    pub fn input_name(&self) -> &'static str {
        preexec_serve::cache::input_name(self.input)
    }
}

/// Every kernel of the suite with the train and alt inputs, in suite
/// order.
pub fn pairs() -> Vec<Pair> {
    suite()
        .iter()
        .flat_map(|w| {
            [InputSet::Train, InputSet::Alt].map(|input| Pair {
                name: w.name,
                input,
            })
        })
        .collect()
}

/// A pair with its program built.
pub struct Kernel {
    pub pair: Pair,
    pub program: Program,
}

/// Builds the program of every pair: the program builds of a
/// workload's set-up.
pub fn build_kernels() -> Vec<Kernel> {
    suite()
        .iter()
        .zip(pairs().chunks(2))
        .flat_map(|(w, two)| {
            two.iter().map(|&pair| Kernel {
                pair,
                program: w.build(pair.input),
            })
        })
        .collect()
}

/// Number of kernel × input pairs (`build_kernels().len()`).
pub const PAIRS: usize = 20;

/// The windowed toolflow policy at the benchmark's size, scope `scope`.
pub fn windowed(scope: usize) -> PolicySpec {
    let mut spec = PolicySpec::paper_default(BUDGET);
    spec.cfg.scope = scope;
    spec
}

/// The policy of an `ondemand_deep` job.
pub fn ondemand() -> PolicySpec {
    let mut spec = windowed(DEEP_SCOPE);
    spec.slicing = SlicingMode::OnDemand {
        checkpoint_every: DEEP_CHECKPOINT_EVERY,
    };
    spec
}

/// The policy of a `reselect` job on machine `m` (an index of
/// [`MACHINES`]).
pub fn reselect(m: usize) -> PolicySpec {
    let mut spec = windowed(1024);
    spec.cfg.machine.mem_latency = MACHINES[m].0;
    spec.cfg.machine.width = MACHINES[m].1;
    spec
}

/// Round `round` of `cold_suite` or `ondemand_deep`: every kernel pair
/// once, in seed order.
pub fn pair_round(w: Workload, seed: u64, round: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, w.stream() << 32 | round as u64);
    let mut order: Vec<usize> = (0..PAIRS).collect();
    rng.shuffle(&mut order);
    order
}

/// Round `round` of `reselect`: every (kernel pair, machine) once, in
/// seed order.
pub fn reselect_round(seed: u64, round: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, Workload::Reselect.stream() << 32 | round as u64);
    let mut order: Vec<(usize, usize)> = (0..PAIRS)
        .flat_map(|p| (0..MACHINES.len()).map(move |m| (p, m)))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// One `serve_mixed` job: a kernel pair at a trace scope, under a
/// memory latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeJob {
    pub pair: usize,
    pub scope: usize,
    pub mem_latency: u64,
}

/// Cold jobs per wave (the same number of warm jobs follows them).
pub const WAVE_COLD: usize = 5;
/// Waves per round: each round's cold jobs cover every pair once.
pub const WAVES_PER_ROUND: usize = PAIRS / WAVE_COLD;

/// Trace scope of serve round `round`: one new trace key per pair and
/// round. Round 0 is the set-up wave's.
pub fn serve_scope(round: usize) -> usize {
    1024 + round
}

/// The waves of serve round `round`. Each wave is five cold jobs, each
/// a trace key no earlier wave used, then five warm jobs, which repeat
/// the previous wave's trace keys (the set-up wave's own, for the first
/// wave of a run) under a memory latency the seed draws. Cold jobs use
/// the machine's default latency.
pub fn serve_round(seed: u64, round: usize, prev: Option<&[ServeJob]>) -> Vec<Vec<ServeJob>> {
    let mut rng = Rng::new(seed, Workload::ServeMixed.stream() << 32 | round as u64);
    let mut order: Vec<usize> = (0..PAIRS).collect();
    rng.shuffle(&mut order);
    let scope = serve_scope(round);
    let default_latency = PolicySpec::paper_default(BUDGET).cfg.machine.mem_latency;
    let mut waves = Vec::new();
    let mut prev_cold: Option<Vec<ServeJob>> = prev.map(<[ServeJob]>::to_vec);
    for chunk in order.chunks(WAVE_COLD) {
        let cold: Vec<ServeJob> = chunk
            .iter()
            .map(|&pair| ServeJob {
                pair,
                scope,
                mem_latency: default_latency,
            })
            .collect();
        let keys = prev_cold.take().unwrap_or_else(|| cold.clone());
        let warm = keys.iter().map(|k| ServeJob {
            mem_latency: WARM_LATENCIES[rng.below(WARM_LATENCIES.len())],
            ..*k
        });
        let mut wave = cold.clone();
        wave.extend(warm);
        waves.push(wave);
        prev_cold = Some(cold);
    }
    waves
}

/// The set-up wave of `serve_mixed`: the first wave of round 0, whose
/// warm half repeats its own cold keys.
pub fn serve_setup_wave(seed: u64) -> Vec<ServeJob> {
    serve_round(seed, 0, None).swap_remove(0)
}

/// The policy of a `serve_mixed` job, as the daemon builds it from the
/// submitted fields.
pub fn serve_policy(job: &ServeJob) -> PolicySpec {
    let mut spec = windowed(job.scope);
    spec.cfg.machine.mem_latency = job.mem_latency;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_job_sequence() {
        for w in [Workload::ColdSuite, Workload::OndemandDeep] {
            assert_eq!(pair_round(w, 11, 3), pair_round(w, 11, 3));
            assert_ne!(pair_round(w, 11, 3), pair_round(w, 12, 3));
        }
        assert_eq!(reselect_round(5, 0), reselect_round(5, 0));
        assert_ne!(reselect_round(5, 0), reselect_round(6, 0));
        assert_eq!(serve_round(9, 2, None), serve_round(9, 2, None));
        assert_ne!(serve_round(9, 2, None), serve_round(10, 2, None));
    }

    #[test]
    fn every_round_covers_each_job_kind_once() {
        let mut r = pair_round(Workload::ColdSuite, 1, 0);
        r.sort_unstable();
        assert_eq!(r, (0..PAIRS).collect::<Vec<_>>());
        let mut r = reselect_round(1, 4);
        r.sort_unstable();
        r.dedup();
        assert_eq!(r.len(), PAIRS * MACHINES.len());
    }

    #[test]
    fn serve_waves_pair_new_keys_with_the_previous_waves_keys() {
        let waves = serve_round(3, 1, Some(&serve_setup_wave(3)[..WAVE_COLD]));
        assert_eq!(waves.len(), WAVES_PER_ROUND);
        let mut cold_pairs = Vec::new();
        for (i, wave) in waves.iter().enumerate() {
            assert_eq!(wave.len(), 2 * WAVE_COLD);
            let (cold, warm) = wave.split_at(WAVE_COLD);
            assert!(cold
                .iter()
                .all(|j| j.scope == serve_scope(1) && j.mem_latency == 70));
            assert!(warm.iter().all(|j| WARM_LATENCIES.contains(&j.mem_latency)));
            if i > 0 {
                let prev = &waves[i - 1][..WAVE_COLD];
                assert!(warm
                    .iter()
                    .zip(prev)
                    .all(|(w, c)| (w.pair, w.scope) == (c.pair, c.scope)));
            } else {
                assert!(warm.iter().all(|w| w.scope == serve_scope(0)));
            }
            cold_pairs.extend(cold.iter().map(|j| j.pair));
        }
        cold_pairs.sort_unstable();
        assert_eq!(cold_pairs, (0..PAIRS).collect::<Vec<_>>());
    }
}
