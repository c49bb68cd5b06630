//! The in-process workloads (`cold_suite`, `reselect`, `ondemand_deep`)
//! and, for traced runs, the layer decomposition of each job.
//!
//! A job is one `Pipeline::run`. In a traced run each job is followed by
//! its decomposition: the bench repeats the job's work by calling each
//! layer's public function itself, under a span per call, and checks
//! that the pieces reproduce the job's forest, selection and timing
//! results.

use crate::jobs::{self, Kernel, Workload};
use crate::refs::{self, Counts, Ledger, References};
use crate::spans::{Recorder, SpanId};
use crate::Tally;
use preexec_core::par::Parallelism;
use preexec_core::select::{score_tree_nodes_screened, solve_tree_scored};
use preexec_core::try_select_pthreads_stats;
use preexec_experiments::pipeline::selection_params;
use preexec_experiments::{Pipeline, PipelineConfig, PipelineOutput, PolicySpec};
use preexec_func::{
    try_run_trace, try_run_trace_checkpointed, DynInst, Replayer, RunStats, TraceConfig,
};
use preexec_isa::{Inst, Pc, Program};
use preexec_mem::{FuncHierarchy, HierarchyConfig, Memory};
use preexec_slice::{write_forest, OnDemandSlicer, SliceForest, SliceTree, SliceWindow};
use preexec_timing::{try_simulate, SimConfig, SimMode, SimResult};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a workload's set-up leaves for its jobs.
pub struct Setup {
    pub kernels: Vec<Kernel>,
    /// `reselect` only: each pair's windowed forest and trace stats.
    pub forests: Vec<(SliceForest, RunStats)>,
}

/// Builds the programs and, for `reselect`, traces the reference
/// forests (the decoupled toolflow's first pass).
pub fn setup(w: Workload) -> Result<Setup, String> {
    let kernels = jobs::build_kernels();
    let mut forests = Vec::new();
    if w == Workload::Reselect {
        for k in &kernels {
            let arts = Pipeline::new(&k.program)
                .policy(jobs::windowed(1024))
                .trace()
                .map_err(|e| format!("{}: {e}", k.pair.name))?;
            forests.push((arts.forest, arts.stats));
        }
    }
    Ok(Setup { kernels, forests })
}

/// One job of an in-process workload.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// A kernel pair (`cold_suite`, `ondemand_deep`).
    Pair(usize),
    /// A kernel pair's cached forest under machine `m` (`reselect`).
    Reselect(usize, usize),
}

impl Job {
    fn pair(self) -> usize {
        match self {
            Job::Pair(p) | Job::Reselect(p, _) => p,
        }
    }
}

/// The jobs of round `round`.
pub fn round_jobs(w: Workload, seed: u64, round: usize) -> Vec<Job> {
    match w {
        Workload::Reselect => jobs::reselect_round(seed, round)
            .into_iter()
            .map(|(p, m)| Job::Reselect(p, m))
            .collect(),
        _ => jobs::pair_round(w, seed, round)
            .into_iter()
            .map(Job::Pair)
            .collect(),
    }
}

fn policy(w: Workload, job: Job) -> PolicySpec {
    match (w, job) {
        (_, Job::Reselect(_, m)) => jobs::reselect(m),
        (Workload::OndemandDeep, _) => jobs::ondemand(),
        _ => jobs::windowed(1024),
    }
}

/// The reference digest key of `job`. On-demand jobs are checked
/// against the windowed run at the same scope.
fn reference_key(w: Workload, s: &Setup, job: Job) -> String {
    let k = &s.kernels[job.pair()].pair;
    match (w, job) {
        (_, Job::Reselect(_, m)) => refs::reselect_key(k, m),
        (Workload::OndemandDeep, _) => refs::window_key(k, jobs::DEEP_SCOPE),
        _ => refs::window_key(k, 1024),
    }
}

/// Runs one job: the measured call.
fn run_job(w: Workload, s: &Setup, job: Job) -> Result<PipelineOutput, String> {
    let k = &s.kernels[job.pair()];
    let mut p = Pipeline::new(&k.program)
        .policy(policy(w, job))
        .threads(w.job_threads());
    if let Job::Reselect(pair, _) = job {
        let (forest, stats) = &s.forests[pair];
        p = p.artifacts(forest.clone(), stats.clone());
    }
    p.run()
        .map_err(|e| format!("{} {}: {e}", k.pair.name, k.pair.input_name()))
}

/// Work counters readable from any job's output.
fn output_counts(out: &PipelineOutput) -> Counts {
    let nodes: u64 = out.forest.trees().map(|(_, t)| t.len() as u64).sum();
    let r = &out.result;
    vec![
        ("steps", r.stats.total_steps),
        ("l2_misses", r.stats.l2_misses),
        ("trees", out.forest.num_trees() as u64),
        ("nodes", nodes),
        ("candidates", nodes - out.forest.num_trees() as u64),
        ("pthreads", r.selection.pthreads.len() as u64),
        ("base_cycles", r.base.cycles),
        ("assisted_cycles", r.assisted.cycles),
        ("launches", r.assisted.launches),
    ]
}

/// What an untraced run measured.
pub struct Measured {
    pub tally: Tally,
    /// Host seconds spent running jobs (checks excluded).
    pub busy_s: f64,
}

/// The untraced loop: complete rounds until `seconds` have passed and at
/// least `min_jobs` jobs ran.
pub fn measure(
    w: Workload,
    s: &Setup,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    refs: &References,
    ledger: &mut Ledger,
) -> Measured {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut checking = Duration::ZERO;
    let mut round = 0;
    while start.elapsed().as_secs_f64() < seconds || (tally.attempted as usize) < min_jobs {
        for job in round_jobs(w, seed, round) {
            let t = Instant::now();
            let out = run_job(w, s, job);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let c = Instant::now();
            let key = reference_key(w, s, job);
            let ok = match out {
                Ok(out) => {
                    let digest_ok = refs.matches(&key, refs::job_digest(&out));
                    if !digest_ok {
                        eprintln!("output mismatch: {key}");
                    }
                    let counts_ok = ledger.check(&key, &output_counts(&out));
                    digest_ok && counts_ok
                }
                Err(e) => {
                    eprintln!("job failed: {e}");
                    false
                }
            };
            tally.record(ms, ok);
            checking += c.elapsed();
        }
        round += 1;
    }
    let busy_s = (start.elapsed() - checking).as_secs_f64();
    Measured { tally, busy_s }
}

/// The trace configuration a pipeline run uses.
fn trace_config(cfg: &PipelineConfig) -> TraceConfig {
    TraceConfig {
        hierarchy: HierarchyConfig::paper_default(),
        max_steps: cfg.warmup.saturating_add(cfg.budget),
        ..TraceConfig::default()
    }
}

/// The timing-sim configuration a pipeline run uses.
fn sim_config(cfg: &PipelineConfig) -> SimConfig {
    SimConfig {
        machine: cfg.machine,
        mode: SimMode::Normal,
        perfect_l2: false,
        max_insts: cfg.budget,
        max_cycles: cfg.budget.saturating_mul(64).max(1 << 22),
        ..SimConfig::default()
    }
}

/// Loads `program`'s data image into a fresh memory, as the tracer, the
/// checkpoint recorder, the replayer and the timing sim each do.
fn load_image(program: &Program) -> usize {
    let mut mem = Memory::new();
    let mut bytes = 0;
    for seg in program.data_segments() {
        mem.write_slice(seg.base, &seg.bytes);
        bytes += seg.bytes.len();
    }
    std::hint::black_box(&mem);
    bytes
}

/// Accumulates a traced run's work counters across jobs.
#[derive(Default)]
pub struct Work(pub BTreeMap<&'static str, u64>);

impl Work {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0) += v;
    }
}

/// A traced run's spans and counters.
pub struct Traced {
    pub rec: Recorder,
    pub work: Work,
    pub jobs: u64,
    pub failed: u64,
    /// Host seconds of the traced loop (jobs, decompositions, probes).
    pub wall_s: f64,
    pub mismatches: Vec<String>,
}

/// The traced loop: complete rounds until `seconds` have passed (at
/// least one), each job followed by its decomposition.
pub fn measure_traced(
    w: Workload,
    s: &Setup,
    seed: u64,
    seconds: f64,
    refs: &References,
    ledger: &mut Ledger,
) -> Traced {
    let mut t = Traced {
        rec: Recorder::new(),
        work: Work::default(),
        jobs: 0,
        failed: 0,
        wall_s: 0.0,
        mismatches: Vec::new(),
    };
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for job in round_jobs(w, seed, round) {
            let id = u32::try_from(t.jobs).unwrap_or(u32::MAX);
            t.jobs += 1;
            if let Err(e) = traced_job(&mut t, id, w, s, job, refs, ledger) {
                eprintln!("traced job failed: {e}");
                t.mismatches.push(e);
                t.failed += 1;
            }
        }
        round += 1;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// One job of a traced run: the job itself under `experiments.job`, then
/// its decomposition under `experiments.layers`, then the serial
/// selection probe under `core.probe`.
fn traced_job(
    t: &mut Traced,
    id: u32,
    w: Workload,
    s: &Setup,
    job: Job,
    refs: &References,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let (out, _) = t
        .rec
        .time("experiments.job", None, id, || run_job(w, s, job));
    let out = out?;
    let key = reference_key(w, s, job);
    if !refs.matches(&key, refs::job_digest(&out)) {
        return Err(format!("output mismatch: {key}"));
    }
    let k = &s.kernels[job.pair()];
    let spec = policy(w, job);
    let cfg = spec.cfg;
    let mut counts: Counts = Vec::new();

    // The recording pass runs before the layers root opens: it feeds
    // the replayed layers but is not one of them.
    let stream = match w {
        Workload::Reselect => Vec::new(),
        _ => record_stream(&k.program, &cfg)?,
    };
    let root = t.rec.begin("experiments.layers", None, id);
    let forest = match w {
        Workload::Reselect => s.forests[job.pair()].0.clone(),
        Workload::OndemandDeep => {
            ondemand_layers(t, root, id, &k.program, &cfg, &stream, &mut counts)?
        }
        _ => windowed_layers(t, root, id, &k.program, &cfg, &stream, &mut counts)?,
    };
    let (base, sel, assisted) =
        finish_layers(t, root, id, &k.program, &cfg, w, &forest, &mut counts)?;
    t.rec.end(root);
    if write_forest(&forest) != write_forest(&out.forest) {
        return Err(format!("decomposed forest differs: {key}"));
    }
    let r = &out.result;
    if format!("{base:?}") != format!("{:?}", r.base)
        || format!("{sel:?}") != format!("{:?}", r.selection)
        || format!("{assisted:?}") != format!("{:?}", r.assisted)
    {
        return Err(format!("decomposed selection or timing differs: {key}"));
    }

    select_probe(t, id, &forest, &cfg, base.ipc(), w.job_threads());

    counts.extend(output_counts(&out));
    for &(name, v) in &counts {
        t.work.add(name, v);
    }
    if !ledger.check(&key, &counts) {
        return Err(format!("work counters differ from an earlier run: {key}"));
    }
    Ok(())
}

/// Records the job's dynamic instruction stream (warm-up included), the
/// input the cache and slicing layers are replayed over. Not a layer:
/// it runs outside every accounted span.
fn record_stream(program: &Program, cfg: &PipelineConfig) -> Result<Vec<DynInst>, String> {
    let mut stream = Vec::new();
    try_run_trace(program, &trace_config(cfg), |d| stream.push(*d)).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Replays the recorded access stream through a fresh functional cache
/// hierarchy, checking every level against the recording.
fn cache_layer(
    t: &mut Traced,
    parent: SpanId,
    id: u32,
    stream: &[DynInst],
    counts: &mut Counts,
) -> Result<(), String> {
    let ((accesses, misses, agree), _) = t.rec.time("mem.cache", Some(parent), id, || {
        let mut h = FuncHierarchy::new(HierarchyConfig::paper_default());
        let (mut accesses, mut misses, mut agree) = (0u64, 0u64, true);
        for d in stream {
            if let Some(addr) = d.addr {
                let level = h.access(addr, d.inst.op.is_store());
                accesses += 1;
                misses += u64::from(level.is_l2_miss());
                agree &= Some(level) == d.level;
            }
        }
        (accesses, misses, agree)
    });
    if !agree {
        return Err("cache replay disagrees with the traced levels".into());
    }
    counts.push(("mem.cache.accesses", accesses));
    counts.push(("mem.cache.l2_misses", misses));
    Ok(())
}

fn image_layer(t: &mut Traced, parent: SpanId, id: u32, program: &Program, counts: &mut Counts) {
    let (bytes, _) = t
        .rec
        .time("mem.image_load", Some(parent), id, || load_image(program));
    counts.push(("mem.image_load.bytes", bytes as u64));
    counts.push(("mem.image_load.count", 1));
}

/// The windowed trace+slice layers: `func.trace` (the tracer with a
/// no-op sink; its image load and cache classification are split off by
/// standalone children), then the slicing window and tree inserts
/// replayed over the recorded stream.
fn windowed_layers(
    t: &mut Traced,
    root: SpanId,
    id: u32,
    program: &Program,
    cfg: &PipelineConfig,
    stream: &[DynInst],
    counts: &mut Counts,
) -> Result<SliceForest, String> {
    let (stats, trace) = t.rec.time("func.trace", Some(root), id, || {
        try_run_trace(program, &trace_config(cfg), |_| {})
    });
    let stats = stats.map_err(|e| e.to_string())?;
    counts.push(("func.trace.steps", stats.total_steps));
    image_layer(t, trace, id, program, counts);
    cache_layer(t, trace, id, stream, counts)?;

    let mut window = SliceWindow::try_new(cfg.scope).map_err(|e| e.to_string())?;
    let mut trees: BTreeMap<Pc, SliceTree> = BTreeMap::new();
    let mut exec_counts: Vec<u64> = Vec::new();
    let (mut pushes, mut slices, mut entries) = (0u64, 0u64, 0u64);
    let mut push_span: Option<SpanId> = None;
    for d in stream {
        let span = *push_span.get_or_insert_with(|| t.rec.begin("slice.push", Some(root), id));
        window.push(d);
        pushes += 1;
        if d.seq < cfg.warmup {
            continue;
        }
        let pc = d.pc as usize;
        if pc >= exec_counts.len() {
            exec_counts.resize(pc + 1, 0);
        }
        exec_counts[pc] += 1;
        if d.is_l2_miss_load() {
            t.rec.end(span);
            push_span = None;
            let (slice, _) = t.rec.time("slice.extract", Some(root), id, || {
                window.slice_latest(cfg.max_slice_len)
            });
            slices += 1;
            entries += slice.len() as u64;
            t.rec.time("slice.insert", Some(root), id, || {
                trees
                    .entry(d.pc)
                    .or_insert_with(|| SliceTree::new(d.pc, d.inst))
                    .insert_slice(&slice);
            });
        }
    }
    if let Some(span) = push_span {
        t.rec.end(span);
    }
    counts.push(("slice.push.insts", pushes));
    counts.push(("slice.extract.slices", slices));
    counts.push(("slice.extract.entries", entries));
    counts.push(("slice.insert.slices", slices));
    Ok(assemble(trees, &exec_counts, cfg, stream))
}

fn assemble(
    trees: BTreeMap<Pc, SliceTree>,
    exec_counts: &[u64],
    cfg: &PipelineConfig,
    stream: &[DynInst],
) -> SliceForest {
    let counts: Vec<(Pc, u64)> = exec_counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(pc, &c)| (pc as Pc, c))
        .collect();
    let observed = stream.iter().filter(|d| d.seq >= cfg.warmup).count() as u64;
    SliceForest::from_parts(trees.into_values().collect(), counts, observed)
}

/// The on-demand trace+slice layers: `func.checkpoint` (the
/// checkpointing tracer; image load and cache split off as above), then
/// `slice.reexec` (the replayer's image load nested inside, then one
/// `try_slice_at` per recorded miss), then the tree inserts.
fn ondemand_layers(
    t: &mut Traced,
    root: SpanId,
    id: u32,
    program: &Program,
    cfg: &PipelineConfig,
    stream: &[DynInst],
    counts: &mut Counts,
) -> Result<SliceForest, String> {
    let config = trace_config(cfg);
    let mut requests: Vec<(u64, Pc, Inst)> = Vec::new();
    let warmup = cfg.warmup;
    let (res, ckpt) = t.rec.time("func.checkpoint", Some(root), id, || {
        try_run_trace_checkpointed(program, &config, jobs::DEEP_CHECKPOINT_EVERY, |d| {
            if d.seq >= warmup && d.is_l2_miss_load() {
                requests.push((d.seq, d.pc, d.inst));
            }
        })
    });
    let (stats, trace) = res.map_err(|e| e.to_string())?;
    counts.push(("func.trace.steps", stats.total_steps));
    counts.push(("func.checkpoint.count", trace.num_checkpoints() as u64));
    counts.push(("func.checkpoint.page_bytes", trace.page_bytes_held() as u64));
    image_layer(t, ckpt, id, program, counts);
    cache_layer(t, ckpt, id, stream, counts)?;

    let reexec = t.rec.begin("slice.reexec", Some(root), id);
    let (replayer, _) = t.rec.time("mem.image_load", Some(reexec), id, || {
        Replayer::new(program, &config, &trace)
    });
    let mut slicer = OnDemandSlicer::try_new(replayer, cfg.scope, cfg.max_slice_len)
        .map_err(|e| e.to_string())?;
    let mut banks: Vec<(Pc, Inst, Vec<preexec_slice::SliceEntry>)> = Vec::new();
    for &(seq, pc, inst) in &requests {
        banks.push((
            pc,
            inst,
            slicer.try_slice_at(seq).map_err(|e| e.to_string())?,
        ));
    }
    t.rec.end(reexec);
    let entries: u64 = banks.iter().map(|b| b.2.len() as u64).sum();
    counts.push(("mem.image_load.bytes", image_bytes(program)));
    counts.push(("mem.image_load.count", 1));
    counts.push(("slice.reexec.insts", slicer.reexec_insts()));
    counts.push((
        "slice.reexec.peak_resident_insts",
        slicer.peak_resident_insts(),
    ));
    counts.push(("slice.extract.slices", requests.len() as u64));
    counts.push(("slice.extract.entries", entries));
    counts.push(("slice.insert.slices", requests.len() as u64));

    let mut trees: BTreeMap<Pc, SliceTree> = BTreeMap::new();
    for (pc, inst, slice) in &banks {
        t.rec.time("slice.insert", Some(root), id, || {
            trees
                .entry(*pc)
                .or_insert_with(|| SliceTree::new(*pc, *inst))
                .insert_slice(slice);
        });
    }
    let mut exec_counts: Vec<u64> = Vec::new();
    for d in stream.iter().filter(|d| d.seq >= warmup) {
        let pc = d.pc as usize;
        if pc >= exec_counts.len() {
            exec_counts.resize(pc + 1, 0);
        }
        exec_counts[pc] += 1;
    }
    Ok(assemble(trees, &exec_counts, cfg, stream))
}

fn image_bytes(program: &Program) -> u64 {
    program
        .data_segments()
        .iter()
        .map(|s| s.bytes.len() as u64)
        .sum()
}

/// The post-trace layers: base sim, selection at the job's thread count,
/// assisted sim. Each sim's image load is split off by a standalone
/// child.
#[allow(clippy::too_many_arguments)]
fn finish_layers(
    t: &mut Traced,
    root: SpanId,
    id: u32,
    program: &Program,
    cfg: &PipelineConfig,
    w: Workload,
    forest: &SliceForest,
    counts: &mut Counts,
) -> Result<(SimResult, preexec_core::Selection, SimResult), String> {
    let sim = sim_config(cfg);
    let (base, span) = t.rec.time("timing.base_sim", Some(root), id, || {
        try_simulate(program, &[], &sim)
    });
    let base = base.map_err(|e| e.to_string())?;
    image_layer(t, span, id, program, counts);

    let params = selection_params(cfg, base.ipc());
    let par = Parallelism::new(w.job_threads());
    let (sel, _) = t.rec.time("core.select", Some(root), id, || {
        try_select_pthreads_stats(forest, &params, par, true)
    });
    let (sel, _, _) = sel.map_err(|e| e.to_string())?;

    let (assisted, span) = t.rec.time("timing.assisted_sim", Some(root), id, || {
        try_simulate(program, &sel.pthreads, &sim)
    });
    let assisted = assisted.map_err(|e| e.to_string())?;
    image_layer(t, span, id, program, counts);
    Ok((base, sel, assisted))
}

/// The serial selection probe: scoring and solving each tree through
/// their public functions, and, for a parallel job, the whole selection
/// at one thread (the base of `core.par.speedup`).
fn select_probe(
    t: &mut Traced,
    id: u32,
    forest: &SliceForest,
    cfg: &PipelineConfig,
    base_ipc: f64,
    threads: usize,
) {
    let params = selection_params(cfg, base_ipc);
    let probe = t.rec.begin("core.probe", None, id);
    for (_, tree) in forest.trees() {
        let dc = |pc: Pc| forest.dc_trig(pc);
        let ((table, _), _) = t.rec.time("core.score", Some(probe), id, || {
            score_tree_nodes_screened(tree, &dc, &params)
        });
        t.rec.time("core.solve", Some(probe), id, || {
            solve_tree_scored(tree, &table)
        });
    }
    t.rec.end(probe);
    if threads > 1 {
        // The serial selection is the one the job ran, already checked.
        let _ = t.rec.time("core.select.serial", None, id, || {
            try_select_pthreads_stats(forest, &params, Parallelism::serial(), true)
        });
    }
}
