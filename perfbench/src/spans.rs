//! The bench-side span recorder for traced runs.
//!
//! Every call the bench makes into a layer's public function is wrapped
//! in a span: name, start, end, parent span and job id. Spans stay in
//! memory and are written out once, when the run ends.
//!
//! A layer's *self time* is its span's duration minus the durations of
//! its child spans. Most children nest inside their parent's interval.
//! Where a public function fuses several layers (the tracer loads the
//! image and classifies every access inside one call), the fused layers
//! are measured by a standalone call of their own and attached as
//! children of the fusing span, so the subtraction still splits the
//! fused call into its layers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub job: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store for one run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, job: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span already timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            job,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a new span and returns its value.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u32,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.begin(name, parent, job);
        let r = f();
        self.end(id);
        (r, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first `cap` spans as tab-separated lines
    /// `id job parent name start_ns dur_ns` (`parent` is `-` for roots),
    /// then one line noting how many were left out.
    pub fn write_tsv(&self, out: &mut impl Write, cap: usize) -> std::io::Result<()> {
        writeln!(out, "id\tjob\tparent\tname\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate().take(cap) {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.job,
                s.name,
                s.start_ns,
                s.dur_ns()
            )?;
        }
        if self.spans.len() > cap {
            writeln!(out, "# {} later spans not written", self.spans.len() - cap)?;
        }
        Ok(())
    }

    /// Writes one line per job and span name: `job name calls dur_ns
    /// self_ns`, covering every span.
    pub fn write_summary_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut rows: BTreeMap<(u32, &str), (u64, u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times(&self.spans)) {
            let row = rows.entry((s.job, s.name)).or_insert((0, 0, 0));
            *row = (row.0 + 1, row.1 + s.dur_ns(), row.2 + t);
        }
        writeln!(out, "job\tname\tcalls\tdur_ns\tself_ns")?;
        for ((job, name), (calls, dur, own)) in rows {
            writeln!(out, "{job}\t{name}\t{calls}\t{dur}\t{own}")?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its direct children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] = child_ns[p].saturating_add(s.dur_ns());
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Total self time of every span that descends from a span named
/// `root` (those roots excluded), in nanoseconds: what the layers under
/// such roots account for.
pub fn self_ns_under(spans: &[Span], root: &str) -> u64 {
    let selfs = self_times(spans);
    let mut inside = vec![false; spans.len()];
    let mut total = 0;
    // Parents are always recorded before their children.
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if spans[p].name == root || inside[p] {
                inside[i] = true;
                total += selfs[i];
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_at_every_level() {
        // job [0,100) > trace [10,60) > cache [20,30), load [30,35)
        //             > select [60,90) > score [60,80)
        let spans = vec![
            span("job", 0, 100, None),
            span("trace", 10, 60, Some(0)),
            span("cache", 20, 30, Some(1)),
            span("load", 30, 35, Some(1)),
            span("select", 60, 90, Some(0)),
            span("score", 60, 80, Some(4)),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 10, 5, 10, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["trace"], 35);
        assert_eq!(by_name["job"], 20);
        // Everything below the root: the root's duration minus its self.
        assert_eq!(self_ns_under(&spans, "job"), 80);
        assert_eq!(self_ns_under(&spans, "trace"), 15);
    }

    #[test]
    fn standalone_children_of_a_fused_call_split_it() {
        // A fused call of 50 whose image load (8) and cache (12) were
        // timed by standalone calls after it.
        let spans = vec![
            span("trace", 0, 50, None),
            span("load", 50, 58, Some(0)),
            span("cache", 58, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 8, 12]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span("p", 0, 10, None), span("c", 0, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_and_writes_every_span() {
        let mut rec = Recorder::new();
        let (_, job) = rec.time("job", None, 3, || ());
        let (v, child) = rec.time("child", Some(job), 3, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(rec.spans()[child].parent, Some(job));
        let mut out = Vec::new();
        rec.write_tsv(&mut out, 10).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("1\t3\t0\tchild\t"));
        let mut out = Vec::new();
        rec.write_tsv(&mut out, 1).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .ends_with("# 1 later spans not written\n"));
        let mut out = Vec::new();
        rec.write_summary_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().any(|l| l.starts_with("3\tchild\t1\t")));
    }
}
