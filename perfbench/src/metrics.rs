//! Turning measurements into the named metrics, the result line and the
//! per-run result file.

use crate::inproc::Traced;
use crate::jobs::Workload;
use crate::serve::ServeRun;
use crate::spans::{self_ns_under, self_time_by_name};
use crate::stats::{median, percentile};
use crate::Tally;
use std::collections::BTreeMap;
use std::path::Path;

/// On `cold_suite`, the layers' self times must add up to the job's
/// wall time within this share of it.
pub const ACCOUNTING_TOLERANCE: f64 = 0.15;

/// The layer spans whose self times split a job, in chain order, with
/// the metric each one's self time is reported as.
pub const LAYERS: [(&str, &str); 11] = [
    ("mem.image_load", "mem.image_load.us"),
    ("func.trace", "func.trace.us"),
    ("func.checkpoint", "func.checkpoint.us"),
    ("mem.cache", "mem.cache.us"),
    ("slice.push", "slice.push.us"),
    ("slice.extract", "slice.extract.us"),
    ("slice.reexec", "slice.reexec.us"),
    ("slice.insert", "slice.insert.us"),
    ("core.select", "core.select.us"),
    ("timing.base_sim", "timing.base_sim.us"),
    ("timing.assisted_sim", "timing.assisted_sim.us"),
];

/// Every per-layer metric a traced run reports, with its unit. Metrics
/// of layers a workload does not run read 0. Times are host
/// microseconds per job; counts are per job unless noted.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("mem.image_load.us", "us"),
    ("mem.image_load.bytes", "bytes"),
    ("mem.image_load.count", "count"),
    ("func.trace.us", "us"),
    ("func.trace.steps", "count"),
    ("func.checkpoint.us", "us"),
    ("func.checkpoint.count", "count"),
    ("func.checkpoint.page_bytes", "bytes"),
    ("mem.cache.us", "us"),
    ("mem.cache.accesses", "count"),
    ("mem.cache.l2_misses", "count"),
    ("slice.push.us", "us"),
    ("slice.push.insts", "count"),
    ("slice.extract.us", "us"),
    ("slice.extract.slices", "count"),
    ("slice.extract.entries", "count"),
    ("slice.reexec.us", "us"),
    ("slice.reexec.insts", "count"),
    ("slice.reexec.peak_resident_insts", "count"),
    ("slice.reexec.insts_per_slice", "ratio"),
    ("slice.insert.us", "us"),
    ("slice.insert.slices", "count"),
    ("slice.insert.nodes", "count"),
    ("slice.insert.nodes_per_slice", "ratio"),
    ("core.select.us", "us"),
    ("core.select.candidates", "count"),
    ("core.select.pthreads", "count"),
    ("core.score.us", "us"),
    ("core.solve.us", "us"),
    ("core.par.speedup", "ratio"),
    ("timing.base_sim.us", "us"),
    ("timing.assisted_sim.us", "us"),
    ("timing.sim.cycles", "count"),
    ("timing.sim.ns_per_cycle", "ns"),
    ("timing.assisted.launches", "count"),
    ("experiments.job.us", "us"),
    ("experiments.unaccounted.us", "us"),
    ("experiments.accounted_frac", "ratio"),
    ("experiments.trace_overhead.us", "us"),
    ("serve.ack.us", "us"),
    ("serve.queue_wait.us", "us"),
    ("serve.stages.us", "us"),
    ("serve.result.us", "us"),
    ("serve.status_rtt.us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.hits", "count"),
    ("serve.cache.lookups", "count"),
    ("serve.wal.bytes", "bytes"),
];

/// The metrics of one run, its checks, and its stamp.
pub struct Metrics {
    stamp: Vec<(&'static str, String)>,
    values: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    largest_layer: Option<String>,
}

impl Metrics {
    pub fn new(stamp: Vec<(&'static str, String)>) -> Metrics {
        Metrics {
            stamp,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            largest_layer: None,
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    /// Marks the run incorrect.
    pub fn incorrect(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    fn tally(&mut self, t: &Tally) {
        self.attempted = t.attempted;
        self.failed = t.failed;
        if t.failed > 0 {
            self.incorrect(format!(
                "{} of {} jobs failed or gave wrong output",
                t.failed, t.attempted
            ));
        }
    }

    /// The six end-to-end metrics.
    pub fn end_to_end(&mut self, t: &Tally, busy_s: f64, setup_s: f64, peak_rss_mb: Option<f64>) {
        self.tally(t);
        self.put("setup_s", setup_s, "s");
        self.put("jobs_per_s", t.ok() as f64 / busy_s, "1/s");
        for (name, q) in [("job_ms_p50", 50.0), ("job_ms_p90", 90.0)] {
            match percentile(&t.latencies_ms, q) {
                Some(v) => self.put(name, v, "ms"),
                None => self.incorrect(format!(
                    "too few jobs ({}) for {name}",
                    t.latencies_ms.len()
                )),
            }
        }
        match peak_rss_mb {
            Some(v) => self.put("peak_rss_mb", v, "MB"),
            None => self.incorrect("no VmHWM reading"),
        }
        let attempted = t.attempted.max(1) as f64;
        self.put("ok_frac", t.ok() as f64 / attempted, "ratio");
    }

    pub fn serve(&mut self, trace: bool, r: &ServeRun, setup_s: f64) {
        for m in &r.obs.mismatches {
            eprintln!("{m}");
        }
        // Every warm job repeats a trace key already in the cache; every
        // cold job's key is new.
        let jobs = r.obs.tally.attempted;
        if r.cache_hits != r.warm_jobs || r.cache_lookups != jobs {
            self.incorrect(format!(
                "cache saw {} hits of {} lookups; expected {} of {jobs}",
                r.cache_hits, r.cache_lookups, r.warm_jobs
            ));
        }
        if !trace {
            self.end_to_end(&r.obs.tally, r.wall_s, setup_s, r.peak_rss_mb);
            return;
        }
        self.tally(&r.obs.tally);
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let per_job = |x: u64| x as f64 / jobs.max(1) as f64;
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        v.insert("serve.ack.us", mean(&r.obs.ack_us));
        v.insert("serve.queue_wait.us", mean(&r.obs.queue_wait_us));
        v.insert("serve.stages.us", mean(&r.obs.stages_us));
        v.insert("serve.result.us", mean(&r.obs.result_us));
        v.insert("serve.status_rtt.us", mean(&r.obs.status_rtt_us));
        v.insert(
            "serve.cache.hit_ratio",
            r.cache_hits as f64 / r.cache_lookups.max(1) as f64,
        );
        v.insert("serve.cache.hits", per_job(r.cache_hits));
        v.insert("serve.cache.lookups", per_job(r.cache_lookups));
        v.insert("serve.wal.bytes", per_job(r.wal_bytes));
        let e2e_us: Vec<f64> = r.obs.tally.latencies_ms.iter().map(|ms| ms * 1e3).collect();
        eprintln!(
            "serve_mixed: median job {:.0} us = queue wait {:.0} + stages {:.0} (means)",
            median(&e2e_us).unwrap_or(0.0),
            mean(&r.obs.queue_wait_us),
            mean(&r.obs.stages_us)
        );
        let largest = if mean(&r.obs.queue_wait_us) > mean(&r.obs.stages_us) {
            "serve.queue_wait"
        } else {
            "serve.stages"
        };
        self.largest_layer = Some(largest.to_string());
        self.per_layer(&v);
    }

    /// The per-layer metrics of a traced in-process run, and the
    /// accounting check on `cold_suite`.
    pub fn layers(&mut self, w: Workload, t: &Traced) {
        for m in &t.mismatches {
            self.incorrect(m.clone());
        }
        self.attempted = t.jobs;
        self.failed = t.failed;
        let jobs = t.jobs.max(1) as f64;
        let spans = t.rec.spans();
        let self_ns = self_time_by_name(spans);
        let us = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / jobs;
        let work = |name: &str| t.work.0.get(name).copied().unwrap_or(0) as f64 / jobs;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, metric) in LAYERS {
            v.insert(metric, us(span));
        }
        for name in [
            "mem.image_load.bytes",
            "mem.image_load.count",
            "func.trace.steps",
            "func.checkpoint.count",
            "func.checkpoint.page_bytes",
            "mem.cache.accesses",
            "mem.cache.l2_misses",
            "slice.push.insts",
            "slice.extract.slices",
            "slice.extract.entries",
            "slice.reexec.insts",
            "slice.reexec.peak_resident_insts",
            "slice.insert.slices",
        ] {
            v.insert(name, work(name));
        }
        v.insert(
            "slice.reexec.insts_per_slice",
            ratio(work("slice.reexec.insts"), work("slice.extract.slices")),
        );
        v.insert("slice.insert.nodes", work("nodes"));
        v.insert(
            "slice.insert.nodes_per_slice",
            ratio(work("nodes"), work("slice.insert.slices")),
        );
        v.insert("core.select.candidates", work("candidates"));
        v.insert("core.select.pthreads", work("pthreads"));
        v.insert("core.score.us", us("core.score"));
        v.insert("core.solve.us", us("core.solve"));
        let serial = us("core.select.serial");
        v.insert(
            "core.par.speedup",
            if serial > 0.0 {
                ratio(serial, us("core.select"))
            } else {
                1.0
            },
        );
        let cycles = work("base_cycles") + work("assisted_cycles");
        v.insert("timing.sim.cycles", cycles);
        let sim_ns = (us("timing.base_sim") + us("timing.assisted_sim")) * 1e3;
        v.insert("timing.sim.ns_per_cycle", ratio(sim_ns, cycles));
        v.insert("timing.assisted.launches", work("launches"));
        let job_us = us("experiments.job");
        let layers_us = self_ns_under(spans, "experiments.layers") as f64 / 1e3 / jobs;
        v.insert("experiments.job.us", job_us);
        v.insert("experiments.unaccounted.us", job_us - layers_us);
        v.insert("experiments.accounted_frac", ratio(layers_us, job_us));
        v.insert(
            "experiments.trace_overhead.us",
            t.wall_s * 1e6 / jobs - job_us,
        );

        let (largest, largest_us) = LAYERS
            .iter()
            .map(|&(l, _)| (l, us(l)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("LAYERS is not empty");
        eprintln!(
            "{}: largest layer {largest} ({largest_us:.0} us/job, {:.0}% of the job); \
             layers account for {:.1}% of the job",
            w.name(),
            100.0 * ratio(largest_us, job_us),
            100.0 * ratio(layers_us, job_us)
        );
        self.largest_layer = Some(largest.to_string());
        if w == Workload::ColdSuite && (1.0 - ratio(layers_us, job_us)).abs() > ACCOUNTING_TOLERANCE
        {
            self.incorrect(format!(
                "accounting: layers cover {layers_us:.0} of {job_us:.0} us per job, \
                 outside the {ACCOUNTING_TOLERANCE} tolerance"
            ));
        }
        self.per_layer(&v);
    }

    /// Emits every per-layer metric; those not measured read 0.
    fn per_layer(&mut self, v: &BTreeMap<&str, f64>) {
        for (name, unit) in PER_LAYER {
            self.put(name, v.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    pub fn is_correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints a human-readable table, then the result line last.
    pub fn print(&self) {
        for (k, v) in &self.stamp {
            println!("# {k} = {v}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
        if let Some(l) = &self.largest_layer {
            println!("# largest layer: {l}");
        }
        for (n, v, u) in &self.values {
            println!("# {n:<36} {v:>16.4} {u}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.is_correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        );
    }

    /// Writes the stamped result to `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let stamp: Vec<String> = self
            .stamp
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| format!("{p:?}")).collect();
        let text = format!(
            "{{\"stamp\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"problems\": [{}], \"largest_layer\": {:?}, \"metrics\": {}}}\n",
            stamp.join(", "),
            self.is_correct(),
            self.attempted,
            self.failed,
            problems.join(", "),
            self.largest_layer.clone().unwrap_or_default(),
            self.metrics_json()
        );
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A JSON number with every digit; non-finite values (a failed job's
/// latency) print as the largest finite double.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_job_marks_the_run_incorrect() {
        let mut t = Tally::default();
        for i in 0..120 {
            t.record(10.0 + f64::from(i), i != 7);
        }
        let mut m = Metrics::new(Vec::new());
        m.end_to_end(&t, 2.0, 0.1, Some(1.0));
        assert_eq!((m.attempted, m.failed), (120, 1));
        assert!(!m.is_correct());
        assert_eq!(
            m.problems,
            vec!["1 of 120 jobs failed or gave wrong output".to_string()]
        );
        let get = |n: &str| m.values.iter().find(|v| v.0 == n).unwrap().1;
        assert_eq!(get("ok_frac"), 119.0 / 120.0);
        assert_eq!(get("jobs_per_s"), 59.5);
    }

    #[test]
    fn too_few_jobs_for_p90_is_a_failed_check() {
        let mut t = Tally::default();
        for i in 0..99 {
            t.record(f64::from(i), true);
        }
        let mut m = Metrics::new(Vec::new());
        m.end_to_end(&t, 1.0, 0.1, Some(1.0));
        assert!(!m.is_correct());
        assert!(m.values.iter().all(|v| v.0 != "job_ms_p90"));
    }

    #[test]
    fn every_per_layer_metric_is_emitted_once() {
        let mut m = Metrics::new(Vec::new());
        m.per_layer(&BTreeMap::new());
        assert_eq!(m.values.len(), PER_LAYER.len());
        let mut names: Vec<&str> = m.values.iter().map(|v| v.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (_, metric) in LAYERS {
            assert!(
                names.contains(&metric),
                "{metric} is not a per-layer metric"
            );
        }
    }
}
