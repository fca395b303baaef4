//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, job)`, recorded by the benchmark
//! around each call it makes into a layer. Spans stay in memory and are
//! written out as JSON lines when the run ends. A layer's self time is its
//! span's duration minus the part its child spans cover.
//!
//! Calls too frequent to record one by one (every `emit_iteration` of a
//! run) are folded into one *aggregate* child span per parent: its duration
//! is the summed time of the calls and `calls` says how many there were.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"sim.run_app"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (0 for work outside any job).
    pub job: u32,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Duration of the span.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op when disabled, so
/// the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Self {
        Tracer { enabled: true, ..Tracer::off() }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded so far (a mark for [`Tracer::self_times`]).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Set the job id stamped on the spans that follow.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
            calls: 1,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an aggregate child span of the innermost open span: `calls`
    /// calls totalling `total`, laid out at the start of the parent.
    pub fn aggregate(&mut self, name: &'static str, total: Duration, calls: u64) {
        let Some(&parent) = self.open.last().filter(|_| self.enabled) else { return };
        let start_ns = self.spans[parent].start_ns;
        let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns.saturating_add(total_ns),
            parent: Some(parent),
            job: self.job,
            calls,
        });
    }

    /// Self time per span name over the spans recorded since `mark`.
    #[must_use]
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, Duration> {
        let spans = &self.spans[mark..];
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child[p - mark] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_default() += s.duration().saturating_sub(c);
        }
        out
    }

    /// All spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let mark = t.mark();
        t.span("outer", |t| t.span("inner", |_| std::thread::sleep(Duration::from_millis(2))));
        t.span("run", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.aggregate("agg", Duration::from_millis(1), 5);
        });
        let selfs = t.self_times(mark);
        assert!(selfs["inner"] >= Duration::from_millis(2));
        assert_eq!(selfs["outer"], t.spans[0].duration() - selfs["inner"]);
        assert_eq!(selfs["agg"], Duration::from_millis(1));
        assert_eq!(selfs["run"], t.spans[2].duration() - Duration::from_millis(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("outer", |t| t.aggregate("agg", Duration::from_millis(1), 1));
        assert_eq!(t.mark(), 0);
        assert!(t.to_jsonl().is_empty());
    }
}
