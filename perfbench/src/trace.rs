//! In-memory spans recorded around the calls the benchmark makes into
//! each layer's public functions.
//!
//! A span has a layer name, a start and an end, the span that caused it
//! and a group id shared by every span of one unit of work (a grid cell,
//! a replayed request). Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A layer's self time is its
//! spans' durations minus the part their child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, as reported in the per-layer metrics.
    pub layer: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one unit of work.
    pub group: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, group: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            group,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, group, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of `layer`'s spans, in milliseconds.
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ms)
            .sum()
    }

    /// Self time of `layer`'s spans: their durations minus their direct
    /// children's, in milliseconds.
    pub fn self_ms(&self, layer: &str) -> f64 {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer)
            .map(|(i, s)| s.ms() - child_ms[i])
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"parent\":{parent},\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let cell = t.open("cell", 1, None);
        t.time("train", 1, Some(cell), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.close(cell);
        let total = t.total_ms("cell");
        let own = t.self_ms("cell");
        assert!(total >= 25.0, "{total}");
        assert!((own - (total - t.total_ms("train"))).abs() < 1e-9);
        assert!(own >= 5.0 && own < total, "{own} of {total}");
        assert_eq!(t.spans()[1].parent, Some(cell));
    }
}
