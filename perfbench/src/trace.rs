//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code, around each
//! call into a crate's public API; nothing inside the program is
//! instrumented. A span records its name, start, end, the span that was
//! open when it started (its parent) and the request it belongs to.
//! Spans stay in memory until the run ends. With tracing off, `open`
//! records nothing and `close` is a no-op, so the untraced run pays no
//! recording cost.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed (or still open) interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `gr.route`.
    pub name: &'static str,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin; equal to `start` while open.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one flow or daemon job.
    pub request: u64,
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: usize,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the part covered by child spans, seconds.
    pub self_s: f64,
}

/// Records spans of one thread of control.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer::with_origin(on, Instant::now())
    }

    /// A tracer whose span offsets count from `origin`, so tracers of
    /// several threads can be merged onto one time line.
    pub fn with_origin(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end = self.origin.elapsed();
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let v = f();
        self.close(s);
        v
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans of another tracer sharing this one's origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total and self time per span name, over the spans of `request`
    /// (all spans when `None`). Spans of one thread nest strictly, so the
    /// children of a span cover exactly the sum of their durations.
    pub fn layer_times(&self, request: Option<u64>) -> BTreeMap<&'static str, LayerTime> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            if request.is_some_and(|r| r != s.request) {
                continue;
            }
            let d = (s.end - s.start).as_secs_f64();
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += d;
            e.self_s += d - child;
        }
        out
    }

    /// The span table: per span name, the count and the total and self
    /// time divided by `per` (the number of traced flows or jobs).
    #[allow(clippy::cast_precision_loss)]
    pub fn table(&self, per: usize) -> Vec<String> {
        let mut lines = vec![format!(
            "{:<24} {:>7} {:>12} {:>12}  (per {per} traced)",
            "span", "count", "total_s", "self_s"
        )];
        let per = per.max(1) as f64;
        for (name, t) in self.layer_times(None) {
            lines.push(format!(
                "{name:<24} {:>7} {:>12.6} {:>12.6}",
                t.count,
                t.total_s / per,
                t.self_s / per
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        t.close(outer);
        let lt = t.layer_times(None);
        let outer = lt["outer"];
        let inner = lt["inner"];
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(inner.self_s >= 0.02);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!(outer.self_s >= 0.005);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
