//! Spans recorded from the benchmark's own files, around calls into the
//! program's public functions. The program itself carries no tracing.
//!
//! A span has a name, a start, an end, a parent and a query id, and is
//! kept in memory until the run writes it out. Calls made once per
//! block would be millions of spans, so each layer's per-block calls
//! inside one parent are folded into a single *leaf* span: its start is
//! the first call's start, its end the last call's end, and it carries
//! the call count and the summed call time. Self time is a span's
//! duration minus the time its children cover; for a leaf it is the
//! summed call time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span (or folded leaf).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name, e.g. `core.accumulate`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The query this span belongs to, if any.
    pub query: Option<u64>,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
    /// Summed call time; equals the duration for an ordinary span.
    pub busy_ns: u64,
}

/// Span identifier within one [`Tracer`].
pub type SpanId = usize;

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
            calls: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Self::close`] finishes.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u64>,
    ) -> SpanId {
        let now = Instant::now();
        self.span(name, parent, query, now, now)
    }

    /// Closes a span opened with [`Self::open`].
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns.saturating_sub(s.start_ns);
    }

    /// Adds a folded leaf under `parent` from a [`LayerTimer`].
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u64>,
        t: &LayerTimer,
    ) {
        let (Some(first), Some(last)) = (t.first, t.last) else {
            return;
        };
        let (start_ns, end_ns) = (self.ns(first), self.ns(last));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
            calls: t.calls,
            busy_ns: t.busy_ns,
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its busy time minus the busy time of its
    /// children (children of one parent never overlap: the benchmark
    /// calls them one after another on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// Calls and summed self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += s.calls;
            e.1 += own;
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = s.query.map_or("null".to_string(), |q| q.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"query\": {query}, \"calls\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns, own[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Times repeated calls into one layer: call count, summed time, and the
/// first start and last end (for the folded leaf span).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimer {
    /// Calls timed.
    pub calls: u64,
    /// Summed call time.
    pub busy_ns: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl LayerTimer {
    /// Runs `f`, charging its wall time to this layer.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.calls += 1;
        self.busy_ns += t1.saturating_duration_since(t0).as_nanos() as u64;
        self.first.get_or_insert(t0);
        self.last = Some(t1);
        r
    }

    /// Summed call time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }

    /// Adds another timer's totals into this one.
    pub fn absorb(&mut self, other: &LayerTimer) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        if let Some(f) = other.first {
            self.first = Some(self.first.map_or(f, |s| s.min(f)));
        }
        if let Some(l) = other.last {
            self.last = Some(self.last.map_or(l, |s| s.max(l)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let base = t.origin;
        let ms = |n: u64| base + Duration::from_millis(n);
        let root = t.span("root", None, Some(1), ms(0), ms(10));
        let child = t.span("child", Some(root), Some(1), ms(2), ms(5));
        t.span("grandchild", Some(child), Some(1), ms(3), ms(4));
        let own = t.self_ns();
        assert_eq!(own[root], 7_000_000);
        assert_eq!(own[child], 2_000_000);
        assert_eq!(own[2], 1_000_000);
    }

    #[test]
    fn folded_leaf_uses_summed_call_time() {
        let mut t = Tracer::new();
        let root = t.open("replay", None, Some(0));
        let mut layer = LayerTimer::default();
        for _ in 0..3 {
            layer.time(|| std::thread::sleep(Duration::from_millis(1)));
        }
        t.leaf("core.accumulate", Some(root), Some(0), &layer);
        t.close(root);
        let by_name = t.self_by_name();
        let (calls, busy) = by_name["core.accumulate"];
        assert_eq!(calls, 3);
        assert!(busy >= 3_000_000);
        let (_, root_self) = by_name["replay"];
        assert_eq!(root_self + busy, t.spans()[root].busy_ns);
    }
}
