//! In-memory spans for the traced per-layer pass, written out once as
//! Chrome trace JSON (load it at <https://ui.perfetto.dev>).
//!
//! Spans are taken in the benchmark around calls into each layer, never
//! inside the measured crates, and only around calls that take about a
//! millisecond or more, so the two `Instant` reads per span stay a small
//! share of what they bracket.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nuca_experiments::json::JsonWriter;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `experiments.fig5`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Collects nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span, and returns its result with the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let started = Instant::now();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.since_origin(started),
            end_ns: 0,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        let took = started.elapsed();
        self.open.pop();
        self.spans[index].end_ns = self.spans[index].start_ns + took.as_nanos() as u64;
        (out, took)
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace JSON: one complete (`X`) event per span,
    /// with its parent's name in `args`.
    pub fn chrome_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_str("displayTimeUnit", "ms");
        w.key("traceEvents");
        w.begin_array();
        for span in &self.spans {
            w.begin_object();
            w.field_str("name", &span.name);
            w.field_str("ph", "X");
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            w.field_raw("ts", &format!("{:.3}", span.start_ns as f64 / 1e3));
            w.field_raw(
                "dur",
                &format!("{:.3}", (span.end_ns - span.start_ns) as f64 / 1e3),
            );
            w.key("args");
            w.begin_object();
            if let Some(p) = span.parent {
                w.field_str("parent", &self.spans[p].name);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Measured cost of one `Instant::now()` call on this host.
pub fn instant_cost() -> Duration {
    const CALLS: u32 = 100_000;
    let started = Instant::now();
    for _ in 0..CALLS {
        black_box(Instant::now());
    }
    started.elapsed() / CALLS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let (v, _) = t.span("outer", |t| t.span("inner", |_| 7).0);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = t.chrome_json();
        assert!(json.contains(r#""name":"inner""#), "{json}");
        assert!(json.contains(r#""parent":"outer""#), "{json}");
    }
}
