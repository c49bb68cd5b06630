//! The `serve_mixed` workload: a release `preexecd` with one worker and
//! one job thread on a fresh cache directory, driven over one connection
//! in waves of `submit_batch`.
//!
//! Each job's latency runs from the moment its batch is sent to the
//! moment the bench observes its `done` state. The worker runs jobs in
//! submission order, so the bench polls the oldest unfinished job only.

use crate::jobs::{self, Pair, ServeJob, SERVE_ROUNDS, WAVES_PER_ROUND, WAVE_COLD};
use crate::refs::{self, Counts, Ledger, References};
use crate::spans::Recorder;
use crate::Tally;
use preexec_serve::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Pause between two polls of an unfinished job.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// How long a clean daemon shutdown may take before it is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(20);

/// A running daemon and the bench's connection to it.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    conn: BufReader<TcpStream>,
    pub cache_dir: PathBuf,
}

impl Daemon {
    /// Boots `bin` on an ephemeral port over an empty `cache_dir` and
    /// connects to it.
    pub fn boot(bin: &Path, cache_dir: PathBuf) -> Result<Daemon, String> {
        if cache_dir.exists() {
            std::fs::remove_dir_all(&cache_dir).map_err(|e| format!("clearing cache dir: {e}"))?;
        }
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("creating cache dir: {e}"))?;
        let mut child = Command::new(bin)
            .args([
                "--port",
                "0",
                "--workers",
                "1",
                "--job-threads",
                "1",
                "--cache-max",
                "4096",
            ])
            .arg("--cache-dir")
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("preexecd listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "daemon did not announce its address (got `{}`)",
                line.trim()
            ));
        };
        let conn = match TcpStream::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot connect to {addr}: {e}"));
            }
        };
        let _ = conn.set_nodelay(true);
        Ok(Daemon {
            child,
            _stdout: stdout,
            conn: BufReader::new(conn),
            cache_dir,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line and reads its response.
    fn call(&mut self, req: &Json) -> Result<Json, String> {
        let mut line = req.encode();
        line.push('\n');
        self.conn
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.conn.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Json::parse(resp.trim()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn call_ok(&mut self, req: &Json) -> Result<Json, String> {
        let resp = self.call(req)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(resp)
        } else {
            Err(format!("request refused: {}", resp.encode()))
        }
    }

    /// The daemon's cache counters: (hits, lookups).
    fn cache_counts(&mut self) -> Result<(u64, u64), String> {
        let stats = self.call_ok(&Json::obj(vec![("cmd", Json::str("stats"))]))?;
        let cache = stats.get("cache").ok_or("stats without a cache block")?;
        let hits = cache
            .get("hits")
            .and_then(Json::as_u64)
            .ok_or("cache.hits")?;
        let misses = cache
            .get("misses")
            .and_then(Json::as_u64)
            .ok_or("cache.misses")?;
        Ok((hits, hits + misses))
    }

    fn wal_bytes(&self) -> u64 {
        std::fs::metadata(self.cache_dir.join("preexecd.wal")).map_or(0, |m| m.len())
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it if
    /// it does not within the grace period.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.call(&Json::obj(vec![("cmd", Json::str("shutdown"))]));
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not shut down in time; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on error paths: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn submit_json(k: &Pair, job: &ServeJob) -> Json {
    Json::obj(vec![
        ("workload", Json::str(k.name)),
        ("input", Json::str(k.input_name())),
        ("budget", Json::num_u64(jobs::BUDGET)),
        ("scope", Json::num_u64(job.scope as u64)),
        ("mem_latency", Json::num_u64(job.mem_latency)),
    ])
}

/// Per-wave observations, in microseconds.
#[derive(Default)]
pub struct ServeObs {
    pub tally: Tally,
    pub ack_us: Vec<f64>,
    pub status_rtt_us: Vec<f64>,
    pub result_us: Vec<f64>,
    pub stages_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    pub mismatches: Vec<String>,
}

/// Runs one wave: submit, observe each job's `done`, fetch and check its
/// result.
fn run_wave(
    d: &mut Daemon,
    pairs: &[Pair],
    wave: &[ServeJob],
    refs: &References,
    ledger: &mut Ledger,
    obs: &mut ServeObs,
    rec: Option<(&mut Recorder, u32)>,
) -> Result<(), String> {
    let batch = Json::obj(vec![
        ("cmd", Json::str("submit_batch")),
        (
            "jobs",
            Json::Arr(
                wave.iter()
                    .map(|j| submit_json(&pairs[j.pair], j))
                    .collect(),
            ),
        ),
    ]);
    let sent = Instant::now();
    let ack = d.call_ok(&batch)?;
    let acked = Instant::now();
    obs.ack_us.push((acked - sent).as_secs_f64() * 1e6);
    let ids: Vec<u64> = ack
        .get("jobs")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    if ids.len() != wave.len() {
        return Err(format!(
            "submit_batch acked {} of {} jobs",
            ids.len(),
            wave.len()
        ));
    }
    let mut rec = rec;
    if let Some((r, w)) = rec.as_mut() {
        r.record("serve.ack", None, *w, sent, acked);
    }
    let mut done_at = Vec::with_capacity(ids.len());
    let mut states = Vec::with_capacity(ids.len());
    for &id in &ids {
        loop {
            let t = Instant::now();
            let st = d.call_ok(&Json::obj(vec![
                ("cmd", Json::str("status")),
                ("job", Json::num_u64(id)),
            ]))?;
            let now = Instant::now();
            obs.status_rtt_us.push((now - t).as_secs_f64() * 1e6);
            if let Some((r, w)) = rec.as_mut() {
                r.record("serve.status", None, *w, t, now);
            }
            let state = st
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if matches!(state.as_str(), "queued" | "running") {
                std::thread::sleep(POLL_EVERY);
                continue;
            }
            done_at.push(now);
            states.push(state);
            break;
        }
    }
    for (i, (&id, job)) in ids.iter().zip(wave).enumerate() {
        let k = &pairs[job.pair];
        let e2e_ms = (done_at[i] - sent).as_secs_f64() * 1e3;
        let t = Instant::now();
        let resp = d.call_ok(&Json::obj(vec![
            ("cmd", Json::str("result")),
            ("job", Json::num_u64(id)),
        ]))?;
        let fetched = Instant::now();
        obs.result_us.push((fetched - t).as_secs_f64() * 1e6);
        if let Some((r, w)) = rec.as_mut() {
            r.record("serve.job", None, *w, sent, done_at[i]);
            r.record("serve.result", None, *w, t, fetched);
        }
        let key = refs::serve_key(k, job);
        let ok = states[i] == "done"
            && match resp.get("result") {
                Some(result) => {
                    let stage_us: f64 = ["trace", "base_sim", "select", "assisted_sim"]
                        .iter()
                        .filter_map(|s| result.get("stage_us")?.get(s)?.as_f64())
                        .sum();
                    obs.stages_us.push(stage_us);
                    obs.queue_wait_us.push(e2e_ms * 1e3 - stage_us);
                    let digest_ok = refs.matches(&key, refs::serve_digest(result));
                    let counts_ok = ledger.check(&key, &result_counts(result));
                    if !digest_ok {
                        obs.mismatches.push(format!("output mismatch: {key}"));
                    }
                    digest_ok && counts_ok
                }
                None => false,
            };
        if !ok && states[i] != "done" {
            obs.mismatches
                .push(format!("{key}: job ended `{}`", states[i]));
        }
        obs.tally.record(e2e_ms, ok);
    }
    Ok(())
}

/// Work counters of a daemon result.
fn result_counts(result: &Json) -> Counts {
    let get = |a: &str, b: &str| {
        result
            .get(a)
            .and_then(|x| x.get(b))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    vec![
        ("trace_insts", get("trace", "insts")),
        ("trace_l2_misses", get("trace", "l2_misses")),
        ("base_cycles", get("base", "cycles")),
        ("assisted_cycles", get("assisted", "cycles")),
        ("launches", get("assisted", "launches")),
    ]
}

/// A booted daemon whose set-up wave has run, and how long that took.
pub struct Ready {
    pub daemon: Daemon,
    pub setup_s: f64,
    /// The set-up wave's cold jobs: the keys the first measured wave's
    /// warm half repeats.
    pub prev_cold: Vec<ServeJob>,
}

/// Set-up: boot a daemon on a fresh cache directory and run the set-up
/// wave (cache warm-up).
pub fn setup(
    bin: &Path,
    cache_dir: PathBuf,
    pairs: &[Pair],
    seed: u64,
    refs: &References,
    ledger: &mut Ledger,
) -> Result<Ready, String> {
    let t = Instant::now();
    let mut daemon = Daemon::boot(bin, cache_dir)?;
    let wave = jobs::serve_setup_wave(seed);
    let mut obs = ServeObs::default();
    run_wave(&mut daemon, pairs, &wave, refs, ledger, &mut obs, None)?;
    if obs.tally.failed > 0 {
        return Err(format!("set-up wave failed: {:?}", obs.mismatches));
    }
    Ok(Ready {
        daemon,
        setup_s: t.elapsed().as_secs_f64(),
        prev_cold: wave[..WAVE_COLD].to_vec(),
    })
}

/// What a `serve_mixed` run measured.
pub struct ServeRun {
    pub obs: ServeObs,
    pub wall_s: f64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub wal_bytes: u64,
    pub peak_rss_mb: Option<f64>,
    pub warm_jobs: u64,
}

/// The measured loop: complete rounds of waves until `seconds` have
/// passed and at least `min_jobs` jobs ran, then a clean shutdown.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    ready: Ready,
    pairs: &[Pair],
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    refs: &References,
    ledger: &mut Ledger,
    mut rec: Option<&mut Recorder>,
) -> Result<ServeRun, String> {
    let Ready {
        mut daemon,
        prev_cold,
        ..
    } = ready;
    let (hits0, lookups0) = daemon.cache_counts()?;
    let wal0 = daemon.wal_bytes();
    let mut obs = ServeObs::default();
    let mut prev = prev_cold;
    let mut warm_jobs = 0;
    let start = Instant::now();
    let mut round = 1;
    while round < SERVE_ROUNDS
        && (start.elapsed().as_secs_f64() < seconds || (obs.tally.attempted as usize) < min_jobs)
    {
        let waves = jobs::serve_round(seed, round, Some(&prev));
        for (w, wave) in waves.iter().enumerate() {
            let job = u32::try_from(round * WAVES_PER_ROUND + w).unwrap_or(u32::MAX);
            run_wave(
                &mut daemon,
                pairs,
                wave,
                refs,
                ledger,
                &mut obs,
                rec.as_deref_mut().map(|r| (r, job)),
            )?;
            warm_jobs += (wave.len() - WAVE_COLD) as u64;
            prev = wave[..WAVE_COLD].to_vec();
        }
        round += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (hits1, lookups1) = daemon.cache_counts()?;
    let wal_bytes = daemon.wal_bytes() - wal0;
    let peak_rss_mb = crate::stats::peak_rss_mb(Some(daemon.pid()));
    daemon.shutdown()?;
    Ok(ServeRun {
        obs,
        wall_s,
        cache_hits: hits1 - hits0,
        cache_lookups: lookups1 - lookups0,
        wal_bytes,
        peak_rss_mb,
        warm_jobs,
    })
}
