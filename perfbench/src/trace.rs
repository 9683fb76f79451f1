//! Spans recorded from outside the program, around calls into each
//! layer's public functions, kept in memory and written out as Chrome
//! trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `"record.thread_parallel"`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to; spans of one operation share it.
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Current repetition id stamped on new spans.
    pub run: u64,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant to the tracer's time base.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open_span(name);
        let out = f();
        self.close_span(id);
        out
    }

    /// Opens a span that stays open until [`Tracer::close_span`]; spans
    /// opened meanwhile nest under it.
    pub fn open_span(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes a span opened by [`Tracer::open_span`].
    pub fn close_span(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Closes `id` and every span still open inside it (after a panic
    /// unwound past their closes).
    pub fn close_up_to(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end;
            if open == id {
                break;
            }
        }
    }

    /// Adds an already-measured span as a child of `parent`: the timing
    /// sink's calls, which it records itself because `record_to` owns it
    /// while they happen.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, parent: usize) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent: Some(parent),
            run: self.run,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn busy_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds), with
    /// `metadata` copied into the file's top-level `otherData`.
    pub fn chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.run
            );
        }
        out.push_str("\n],\"otherData\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{}\"", v.replace(['"', '\\'], "'"));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.run = 7;
        let outer = t.open_span("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close_span(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 7);
        let selfs = t.self_ns();
        assert!(selfs["outer"] < spans[0].ns());
        assert_eq!(selfs["inner"], spans[1].ns());
        let json = t.chrome_json(&[("host", "x".into())]);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        let id = t.open_span("y");
        t.close_span(id);
        assert!(t.spans().is_empty());
    }
}
