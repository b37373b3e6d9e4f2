//! In-memory span recorder for the traced run.
//!
//! A span covers one call from the benchmark into a layer's public
//! function. Spans are kept in memory while the benchmark runs and
//! written out once, at exit, as a Chrome trace-event file (viewable in
//! `chrome://tracing` or Perfetto) next to the counts taken at the same
//! boundaries. When the tracer is disabled, [`Tracer::span`] just calls
//! its closure, so the untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.simulate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass (or set-up round) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall time of the span, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; a no-op wrapper otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
    counts: Vec<(String, f64)>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            counts: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id; later spans carry it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a count taken at a span boundary (written beside the
    /// spans).
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        if self.enabled {
            self.counts.push((name.into(), value));
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the union of the
    /// intervals its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = span.start_ns;
        for (start, end) in children {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        span.dur_ns() - covered.min(span.dur_ns())
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans and counts as a Chrome trace-event JSON document.
    /// Each complete (`"X"`) event carries its parent index, run id and
    /// self time in `args`; counts become one metadata event.
    pub fn to_chrome_json(&self, label: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"run\":{},\"self_us\":{:.3}}}}},",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.run,
                self.self_ns(i) as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            "{{\"name\":\"counts\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"workload\":\"{label}\""
        );
        for (name, value) in &self.counts {
            let _ = write!(out, ",\"{name}\":{}", crate::json_num(*value));
        }
        out.push_str("}}\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.spans().iter().position(|s| s.name == "outer").unwrap();
        let inner = t.spans().iter().position(|s| s.name == "inner").unwrap();
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert!(t.self_ns(outer) < t.spans()[outer].dur_ns());
        assert_eq!(t.self_ns(inner), t.spans()[inner].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.count("c", 1.0);
        assert!(t.spans().is_empty());
    }
}
