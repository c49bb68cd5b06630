//! `perfbench`: the layered benchmark of the preexec toolflow.
//!
//! Run through `python3 perfbench/run.py`, which builds this program and
//! the daemon from source and passes the daemon's path on:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH
//! perfbench --record-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metrics.

mod inproc;
mod jobs;
mod metrics;
mod refs;
mod serve;
mod spans;
mod stats;

use jobs::Workload;
use metrics::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Times each run sets itself up; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Jobs a measured run needs so that p90 has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Spans written out in full per traced run; the summary covers all.
const SPAN_FILE_CAP: usize = 100_000;
/// Where the benchmark's committed inputs and its outputs live, relative
/// to the checkout root.
const BENCH_DIR: &str = "perfbench";

/// Outcomes of the jobs of one run. A failed or wrong job counts as
/// attempted and failed, and its latency as infinite, so it misses any
/// latency limit.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    pub fn record(&mut self, latency_ms: f64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.latencies_ms.push(latency_ms);
        } else {
            self.failed += 1;
            self.latencies_ms.push(f64::INFINITY);
        }
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        daemon,
    })
}

/// What every result is stamped with.
fn stamp(a: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cfg = jobs::windowed(1024).cfg;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", a.workload.name().to_string()),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("trace", u8::from(a.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("budget", cfg.budget.to_string()),
        ("warmup", cfg.warmup.to_string()),
        ("job_threads", a.workload.job_threads().to_string()),
        (
            "daemon_workers",
            if a.workload == Workload::ServeMixed {
                "1"
            } else {
                "0"
            }
            .to_string(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git_commit", env("PERFBENCH_GIT_COMMIT")),
        ("source_digest", env("PERFBENCH_SOURCE_DIGEST")),
    ]
}

/// Runs the set-up `SETUP_REPS` times; returns the last result and the
/// median set-up time.
fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so it does not count toward
        // the peak memory of the run.
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

fn run(a: &Args, root: &Path) -> Result<Metrics, String> {
    let bench = root.join(BENCH_DIR);
    let out_dir = bench.join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let refs = refs::References::load(&bench.join("reference").join("digests.txt"))?;
    let tag = format!("{}-t{}-s{}", a.workload.name(), u8::from(a.trace), a.seed);
    let mut ledger = refs::Ledger::open(out_dir.join(format!("ledger-{tag}.txt")));
    let mut m = Metrics::new(stamp(a));

    if a.workload == Workload::ServeMixed {
        let bin = a
            .daemon
            .as_deref()
            .ok_or("serve_mixed needs --daemon PATH")?;
        let pairs = jobs::pairs();
        // Each set-up boots a daemon on a fresh cache directory and runs
        // the set-up wave; the last daemon is the one measured.
        let mut times = Vec::new();
        let mut ready = None;
        for rep in 0..SETUP_REPS {
            let dir = out_dir.join(format!("serve-cache-{}-{rep}", a.seed));
            let r = serve::setup(bin, dir, &pairs, a.seed, &refs, &mut ledger)?;
            times.push(r.setup_s);
            if let Some(prev) = ready.replace(r) {
                let dir = prev.daemon.cache_dir.clone();
                prev.daemon.shutdown()?;
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let ready = ready.expect("at least one set-up");
        let setup_s = stats::median(&times).expect("at least one set-up");
        let dir = ready.daemon.cache_dir.clone();
        let mut rec = spans::Recorder::new();
        let r = serve::measure(
            ready,
            &pairs,
            a.seed,
            a.seconds,
            if a.trace { 0 } else { MIN_JOBS },
            &refs,
            &mut ledger,
            a.trace.then_some(&mut rec),
        );
        let _ = std::fs::remove_dir_all(dir);
        let r = r?;
        m.serve(a.trace, &r, setup_s);
        if a.trace {
            write_spans(&rec, &out_dir, &tag)?;
        }
    } else {
        let (setup, setup_s) = timed_setup(|| inproc::setup(a.workload))?;
        if a.trace {
            let t =
                inproc::measure_traced(a.workload, &setup, a.seed, a.seconds, &refs, &mut ledger);
            m.layers(a.workload, &t);
            write_spans(&t.rec, &out_dir, &tag)?;
        } else {
            let r = inproc::measure(
                a.workload,
                &setup,
                a.seed,
                a.seconds,
                MIN_JOBS,
                &refs,
                &mut ledger,
            );
            m.end_to_end(&r.tally, r.busy_s, setup_s, stats::peak_rss_mb(None));
        }
    }
    if !ledger.mismatches.is_empty() {
        for line in &ledger.mismatches {
            eprintln!("work counters disagree: {line}");
        }
        m.incorrect("work counters disagree with an earlier run at this seed");
    }
    ledger
        .save()
        .map_err(|e| format!("saving the ledger: {e}"))?;
    m.save(&out_dir.join(format!("result-{tag}.json")))?;
    Ok(m)
}

/// Writes a traced run's spans (the first [`SPAN_FILE_CAP`] of them) and
/// their per-job summary into `out_dir`.
fn write_spans(rec: &spans::Recorder, out_dir: &Path, tag: &str) -> Result<(), String> {
    let write =
        |name: String,
         f: &dyn Fn(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>| {
            let path = out_dir.join(name);
            let err = |e: std::io::Error| format!("{}: {e}", path.display());
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
            f(&mut w).map_err(err)?;
            std::io::Write::flush(&mut w).map_err(err)
        };
    write(format!("spans-{tag}.tsv"), &|w| {
        rec.write_tsv(w, SPAN_FILE_CAP)
    })?;
    write(format!("span-summary-{tag}.tsv"), &|w| {
        rec.write_summary_tsv(w)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    if argv.first().map(String::as_str) == Some("--record-reference") {
        let path = root.join(BENCH_DIR).join("reference").join("digests.txt");
        return match refs::record(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &root) {
        Ok(m) => {
            m.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digest_mismatch_counts_as_a_failed_job() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-refs-{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "# comment\nwindow/mcf/train/s1024 00000000000000ff\n",
        )
        .unwrap();
        let refs = refs::References::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let mut t = Tally::default();
        for (digest, ms) in [(0xff, 10.0), (0xfe, 12.0), (0xff, 11.0)] {
            t.record(ms, refs.matches("window/mcf/train/s1024", digest));
        }
        assert_eq!((t.attempted, t.failed, t.ok()), (3, 1, 2));
        // The wrong job is slower than any latency limit.
        assert!(t.latencies_ms.contains(&f64::INFINITY));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv: Vec<String> = "--workload reselect --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Reselect, 7, 2.5, true)
        );
        assert!(parse_args(&argv[..6]).is_err(), "--trace is required");
        let bad: Vec<String> = ["--workload", "nope"].map(str::to_string).to_vec();
        assert!(parse_args(&bad).is_err());
    }
}
