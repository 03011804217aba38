//! In-memory span recording for the traced run.
//!
//! A span is one public call the benchmark makes into the program — a session
//! phase, a pool call, a `linrv check` spawn — or a phase of the benchmark
//! that contains such calls. Spans stay in memory while the workload runs and
//! are written out once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The operation (or trace) this call belongs to.
    pub op: u64,
}

/// What the workload drivers report each timed call to.
pub trait Tracer {
    fn call(&mut self, name: &'static str, start: Instant, end: Instant, op: u64);
}

/// The tracer of every untraced run: records nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline]
    fn call(&mut self, _: &'static str, _: Instant, _: Instant, _: u64) {}
}

/// Records every call as a child of the currently open phase.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a phase span; calls recorded until [`Spans::close`] are its children.
    pub fn open(&mut self, name: &'static str) {
        self.open_at(name, Instant::now());
    }

    /// [`Spans::open`] for a phase that began at `at`.
    pub fn open_at(&mut self, name: &'static str, at: Instant) {
        let now = self.ns(at);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open,
            op: 0,
        });
        self.open = self.spans.len() as u32;
    }

    /// Closes the innermost open phase.
    pub fn close(&mut self) {
        self.close_at(Instant::now());
    }

    /// [`Spans::close`] for a phase that ended at `at`.
    pub fn close_at(&mut self, at: Instant) {
        if self.open == 0 {
            return;
        }
        let now = self.ns(at);
        let phase = &mut self.spans[self.open as usize - 1];
        phase.end_ns = now;
        self.open = phase.parent;
    }

    /// Takes over the calls another thread recorded (it opened no phases) as
    /// children of the currently open phase.
    pub fn adopt(&mut self, thread: Spans) {
        let shift = self.ns(thread.origin);
        let parent = self.open;
        self.spans.extend(thread.spans.into_iter().map(|span| Span {
            start_ns: span.start_ns + shift,
            end_ns: span.end_ns + shift,
            parent,
            ..span
        }));
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and call count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .fold((0, 0), |(ns, calls), span| {
                (ns + (span.end_ns - span.start_ns), calls + 1)
            })
    }

    /// Mean duration in nanoseconds of the spans called `name` (0 when none ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (ns, calls) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`, `parent`, `op`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                index + 1,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent,
                span.op
            );
        }
        out
    }
}

impl Tracer for Spans {
    fn call(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open,
            op,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.open("phase");
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.call("call", start, Instant::now(), 7);
        spans.close();
        let (phase, call) = (spans.all()[0], spans.all()[1]);
        assert_eq!(call.parent, 1);
        assert_eq!(call.op, 7);
        assert!(phase.end_ns >= call.end_ns);
        assert!(phase.start_ns <= call.start_ns);
        assert_eq!(spans.total("call").1, 1);
        assert!(spans.to_jsonl().lines().count() == 2);
    }
}
