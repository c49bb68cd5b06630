//! Output checks: job digests, the reference digests recorded in
//! `reference/digests.txt`, and the determinism ledger of work counters.
//!
//! A job's digest hashes its slice forest (the bytes `write_forest`
//! produces) and its `PipelineResult` (the `Debug` rendering, which
//! prints every float exactly). A daemon job's digest hashes the
//! daemon's canonical result. Reference digests are computed in process
//! by `--record-reference` and committed; every measured job is checked
//! against them, so a wrong output counts as a failed job.

use crate::jobs::{self, Kernel, Pair, ServeJob, MACHINES, SERVE_ROUNDS, WARM_LATENCIES};
use crate::stats::fnv1a64;
use preexec_experiments::{Pipeline, PipelineOutput, PolicySpec};
use preexec_serve::proto::result_json;
use preexec_serve::service::StageMicros;
use preexec_serve::{canonical_result, JobOutput};
use preexec_slice::write_forest;
use std::collections::BTreeMap;
use std::path::Path;

/// Digest of one in-process job output.
pub fn job_digest(out: &PipelineOutput) -> u64 {
    let forest = write_forest(&out.forest);
    let result = format!("{:?}", out.result);
    fnv1a64(&[forest.as_bytes(), result.as_bytes()])
}

/// Digest of a daemon result payload, wall-clock fields stripped.
pub fn serve_digest(result: &preexec_serve::Json) -> u64 {
    fnv1a64(&[canonical_result(result).as_bytes()])
}

/// Digest of the result payload the daemon would send for `out`,
/// computed in process.
fn inprocess_serve_digest(k: &Pair, out: PipelineOutput) -> u64 {
    let job = JobOutput {
        workload: k.name.to_string(),
        input: k.input,
        result: out.result,
        cache_hit: false,
        stage_us: StageMicros::default(),
    };
    serve_digest(&result_json(&job))
}

pub fn window_key(k: &Pair, scope: usize) -> String {
    format!("window/{}/{}/s{scope}", k.name, k.input_name())
}

pub fn reselect_key(k: &Pair, m: usize) -> String {
    let (lat, width) = MACHINES[m];
    format!("reselect/{}/{}/m{lat}w{width}", k.name, k.input_name())
}

pub fn serve_key(k: &Pair, job: &ServeJob) -> String {
    format!(
        "serve/{}/{}/s{}/m{}",
        k.name,
        k.input_name(),
        job.scope,
        job.mem_latency
    )
}

/// The committed reference digests, by key.
pub struct References(BTreeMap<String, u64>);

impl References {
    pub fn load(path: &Path) -> Result<References, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference digests {}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed reference line `{line}`"))?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("malformed digest in `{line}`: {e}"))?;
            map.insert(key.to_string(), d);
        }
        Ok(References(map))
    }

    /// Whether `digest` is the recorded reference for `key`. A missing
    /// reference is a mismatch.
    pub fn matches(&self, key: &str, digest: u64) -> bool {
        self.0.get(key) == Some(&digest)
    }
}

/// Computes every reference digest in process and writes them to
/// `path`. The `ondemand_deep` reference is the *windowed* run at the
/// same scope, so on-demand jobs are checked against an independent
/// slicing path.
pub fn record(path: &Path) -> Result<(), String> {
    let kernels = jobs::build_kernels();
    let mut lines = Vec::new();
    let run = |k: &Kernel, spec: PolicySpec| {
        Pipeline::new(&k.program)
            .policy(spec)
            .run()
            .map_err(|e| format!("{}: {e}", k.pair.name))
    };
    for k in &kernels {
        for scope in [1024, jobs::DEEP_SCOPE] {
            let out = run(k, jobs::windowed(scope))?;
            lines.push(format!(
                "{} {:016x}",
                window_key(&k.pair, scope),
                job_digest(&out)
            ));
        }
        let base = run(k, jobs::windowed(1024))?;
        for m in 0..MACHINES.len() {
            let out = Pipeline::new(&k.program)
                .policy(jobs::reselect(m))
                .artifacts(base.forest.clone(), base.result.stats.clone())
                .run()
                .map_err(|e| format!("{}: {e}", k.pair.name))?;
            lines.push(format!(
                "{} {:016x}",
                reselect_key(&k.pair, m),
                job_digest(&out)
            ));
        }
        eprintln!("recorded {} {}", k.pair.name, k.pair.input_name());
    }
    for round in 0..SERVE_ROUNDS {
        for (pair, k) in kernels.iter().enumerate() {
            let scope = jobs::serve_scope(round);
            let cold = ServeJob {
                pair,
                scope,
                mem_latency: jobs::windowed(scope).cfg.machine.mem_latency,
            };
            let out = run(k, jobs::serve_policy(&cold))?;
            let (forest, stats) = (out.forest.clone(), out.result.stats.clone());
            lines.push(format!(
                "{} {:016x}",
                serve_key(&k.pair, &cold),
                inprocess_serve_digest(&k.pair, out)
            ));
            for lat in WARM_LATENCIES {
                let warm = ServeJob {
                    mem_latency: lat,
                    ..cold
                };
                let out = Pipeline::new(&k.program)
                    .policy(jobs::serve_policy(&warm))
                    .artifacts(forest.clone(), stats.clone())
                    .run()
                    .map_err(|e| format!("{}: {e}", k.pair.name))?;
                lines.push(format!(
                    "{} {:016x}",
                    serve_key(&k.pair, &warm),
                    inprocess_serve_digest(&k.pair, out)
                ));
            }
        }
        eprintln!("recorded serve round {round}");
    }
    lines.sort();
    let text = format!(
        "# Reference digests of every benchmark job, computed in process.\n\
         # Regenerate with: python3 perfbench/run.py --record-reference\n{}\n",
        lines.join("\n")
    );
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Deterministic work counters of one job kind, in a fixed order.
pub type Counts = Vec<(&'static str, u64)>;

/// The determinism ledger: work counters by job key, for one workload,
/// trace mode and seed. A key seen twice, in this run or in an earlier
/// run at the same seed, must show the same counters.
pub struct Ledger {
    path: std::path::PathBuf,
    seen: BTreeMap<String, String>,
    pub mismatches: Vec<String>,
}

impl Ledger {
    pub fn open(path: std::path::PathBuf) -> Ledger {
        let mut seen = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once(' ') {
                    seen.insert(k.to_string(), v.to_string());
                }
            }
        }
        Ledger {
            path,
            seen,
            mismatches: Vec::new(),
        }
    }

    /// Records `counts` for `key`; returns `false` (and notes the
    /// mismatch) if they differ from an earlier record.
    pub fn check(&mut self, key: &str, counts: &Counts) -> bool {
        let rendered: Vec<String> = counts.iter().map(|(n, v)| format!("{n}={v}")).collect();
        let rendered = rendered.join(",");
        match self.seen.get(key) {
            Some(prev) if *prev != rendered => {
                self.mismatches
                    .push(format!("{key}: {prev} then {rendered}"));
                false
            }
            Some(_) => true,
            None => {
                self.seen.insert(key.to_string(), rendered);
                true
            }
        }
    }

    pub fn save(&self) -> std::io::Result<()> {
        let mut text = String::new();
        for (k, v) in &self.seen {
            text.push_str(&format!("{k} {v}\n"));
        }
        std::fs::write(&self.path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_flags_disagreeing_counters_across_runs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.txt");
        let mut a = Ledger::open(path.clone());
        assert!(a.check("k", &vec![("steps", 5)]));
        assert!(a.check("k", &vec![("steps", 5)]));
        a.save().unwrap();
        let mut b = Ledger::open(path);
        assert!(!b.check("k", &vec![("steps", 6)]));
        assert_eq!(b.mismatches.len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_digest_mismatch_is_a_failure_and_a_missing_reference_too() {
        let refs = References(
            [("window/x/train/s1024".to_string(), 7u64)]
                .into_iter()
                .collect(),
        );
        assert!(refs.matches("window/x/train/s1024", 7));
        assert!(!refs.matches("window/x/train/s1024", 8));
        assert!(!refs.matches("window/y/train/s1024", 7));
    }
}
