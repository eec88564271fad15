//! In-memory spans. Nothing inside the program is instrumented: a span
//! wraps one call from the benchmark's own code into a layer's public
//! function. Spans are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// Id of the span this one was opened inside; 0 for a request root.
    pub parent: u32,
    /// Spans of one request share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when `enabled`; runs the same closures untimed when
/// not, which is how the tracing overhead is measured.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; `f` gets the span's id to parent its own
    /// children with.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce(&mut Tracer, u32) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, 0);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, id);
        self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Duration of the most recently opened span called `name` in
    /// `request`.
    pub fn duration_ns(&self, request: u32, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.request == request && s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// A span's self time: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize - 1];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// One JSON object per line: `request`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.request,
                span.id,
                span.parent,
                span.name,
                span.start_ns,
                span.end_ns,
                self.self_ns(span.id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::new();
        tracer.span("request", 0, 7, |t, root| {
            t.span("parse", root, 7, |_, _| std::hint::black_box(1 + 1));
            t.span("plan", root, 7, |t, plan| {
                t.span("simulate", plan, 7, |_, _| ());
            });
        });
        let names: Vec<_> = tracer.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("request", 0), ("parse", 1), ("plan", 1), ("simulate", 3)]
        );
        let root = &tracer.spans[0];
        let covered = tracer.duration_ns(7, "parse") + tracer.duration_ns(7, "plan");
        assert_eq!(tracer.self_ns(1), root.end_ns - root.start_ns - covered);
        assert!(tracer.spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn a_disabled_tracer_runs_the_same_code_and_records_nothing() {
        let mut tracer = Tracer::new();
        tracer.enabled = false;
        let out = tracer.span("request", 0, 1, |t, id| {
            t.span("inner", id, 1, |_, _| 41) + 1
        });
        assert_eq!(out, 42);
        assert!(tracer.spans.is_empty());
    }
}
