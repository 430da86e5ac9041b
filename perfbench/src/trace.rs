//! In-memory spans, written out once when the benchmark ends.
//!
//! Spans are recorded around the benchmark's own calls into each layer.
//! All spans of one chunk carry the same identifier (the night plus the
//! ship `seq`, see [`crate::child::chunk_id`]); spans recorded before the
//! chunk is known (the wait and read that bring its `ShipInput` in) are
//! held as pending and stamped when it decodes.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary that was timed.
    pub name: &'static str,
    /// Chunk identifier, 0 for spans that belong to no chunk.
    pub chunk: u64,
    /// Start, ns since the process's trace epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

impl Span {
    /// A span from `started` until now.
    pub fn new(name: &'static str, chunk: u64, started: Instant) -> Self {
        Span {
            name,
            chunk,
            start_ns: started.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
        }
    }
}

/// A span buffer that records nothing unless enabled.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    done: Vec<Span>,
    pending: Vec<Span>,
}

impl SpanLog {
    /// A log that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        epoch();
        SpanLog {
            enabled,
            ..SpanLog::default()
        }
    }

    /// Records a span of a known chunk (or of none).
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.done.push(span);
        }
    }

    /// Records a span whose chunk is not known yet.
    pub fn push_pending(&mut self, span: Span) {
        if self.enabled {
            self.pending.push(span);
        }
    }

    /// Assigns every pending span to `chunk`.
    pub fn stamp_pending(&mut self, chunk: u64) {
        for mut s in self.pending.drain(..) {
            s.chunk = chunk;
            self.done.push(s);
        }
    }

    /// Moves every recorded span (pending ones as chunkless) into `out`.
    pub fn drain_into(&mut self, out: &mut Vec<Span>) {
        out.append(&mut self.done);
        out.append(&mut self.pending);
    }
}

/// Writes spans as JSON lines under `.bench_out/` in the working
/// directory; returns the path written.
pub fn write_spans(file: &str, spans: &[Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{file}");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"chunk\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.name, s.chunk, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}
