//! Span recording for the traced run. The benchmark may not instrument
//! the program, so spans wrap the benchmark's own calls into each layer:
//! they live in a preallocated in-memory vector and are written out
//! once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span nothing encloses.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the written file.
    pub parent: u32,
    /// The request the span belongs to: (session or lane, step index).
    pub req: (u32, u32),
}

/// One thread's span buffer. All buffers of a run share `origin`, so
/// their timestamps are comparable.
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self { origin, spans: Vec::with_capacity(capacity) }
    }

    /// Records a finished span; drops it once the preallocated room is
    /// used up, so recording never reallocates inside a timed loop.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: (u32, u32),
    ) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
                parent,
                req,
            });
        }
    }

    /// Opens a span that encloses later ones and returns its index (the
    /// `parent` of its children); [`SpanBuf::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: u32, req: (u32, u32)) -> u32 {
        let now = Instant::now();
        let id = self.spans.len() as u32;
        self.record(name, now, now, parent, req);
        if self.spans.len() as u32 > id {
            id
        } else {
            NO_PARENT
        }
    }

    pub fn end(&mut self, id: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The instant all of a run's timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Moves another buffer's spans behind this one's. Parent indices
    /// refer to phase spans recorded in `self` before any thread ran, so
    /// they stay valid.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.spans.extend(other.spans);
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":[{},{}]}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.req.0,
                s.req.1,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_round_trip_through_the_file_and_respect_capacity() {
        let origin = Instant::now();
        let mut main = SpanBuf::new(origin, 4);
        let t = Instant::now();
        let phase = main.begin("phase", NO_PARENT, (0, 0));
        assert_eq!(phase, 0);
        let mut worker = SpanBuf::new(origin, 2);
        for i in 0..5 {
            worker.record("wire.step", t, Instant::now(), 0, (3, i));
        }
        assert_eq!(worker.len(), 2, "recording stops at the preallocated capacity");
        main.end(phase);
        main.absorb(worker);
        let dir = std::env::temp_dir().join(format!("e2e-bench-spans-{}", std::process::id()));
        let path = dir.join("trace.json");
        main.write(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let spans = doc.as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[2].get("name").and_then(Json::as_str), Some("wire.step"));
    }
}
