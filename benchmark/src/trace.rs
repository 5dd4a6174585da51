//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: kept in memory while the run measures, written out as
//! JSON lines when it ends. Spans inside the product are a later issue.

use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// One span. `request` is shared by every span of one request; `parent`
/// is the span that caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. A span's id is `request · 8 + slot`, so a
/// span names its parent without the two threads of one connection
/// having to talk; requests are numbered `sequence · stride + offset`
/// so connections do not collide.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stride: u64,
    offset: u64,
    /// Spans beyond this many are dropped (and counted), so a faster
    /// server cannot grow the benchmark's own memory without bound.
    limit: usize,
    pub dropped: u64,
}

const SLOTS_PER_REQUEST: u64 = 8;

impl Spans {
    pub fn new(epoch: Instant, limit: usize, offset: usize, stride: usize) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
            stride: stride as u64,
            offset: offset as u64,
            limit,
            dropped: 0,
        }
    }

    /// Record `name` over `[start, end]` as span `slot` of the request
    /// with this sequence number, caused by its span `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        sequence: u64,
        slot: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        let request = sequence * self.stride + self.offset;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id: request * SLOTS_PER_REQUEST + slot,
            parent: parent.map(|slot| request * SLOTS_PER_REQUEST + slot),
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// The root span of a request: due (or submit) time to reply.
    pub fn request(&mut self, sequence: u64, start: Instant, end: Instant) {
        self.record("request", sequence, 0, None, start, end);
    }

    /// A client-side step of a request, caused by its root span.
    pub fn child(&mut self, name: &'static str, sequence: u64, start: Instant, end: Instant) {
        let slot = if name == "client.settle" { 2 } else { 1 };
        self.record(name, sequence, slot, Some(0), start, end);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Take over the spans another thread recorded for the same
    /// requests (the open loop's sender half).
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Append every span as one JSON object per line.
    pub fn write_jsonl(&self, section: &str, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"section\":\"{section}\",\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.request, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Write the sections of one traced run to `path`.
pub fn write_file(path: &std::path::Path, sections: &[(&str, &Spans)]) -> io::Result<usize> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for (section, spans) in sections {
        spans.write_jsonl(section, &mut out)?;
        written += spans.len();
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn spans_link_children_to_their_request_and_render_as_json_lines() {
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch, 3, 1, 2);
        let t = |us| epoch + Duration::from_micros(us);
        spans.child("client.submit", 7, t(10), t(12));
        spans.child("client.settle", 7, t(12), t(90));
        spans.request(7, t(10), t(90));
        spans.request(8, t(20), t(95)); // over the limit
        assert_eq!((spans.len(), spans.dropped), (3, 1));
        let mut buf = Vec::new();
        spans.write_jsonl("timed", &mut buf).unwrap();
        let lines: Vec<Json> =
            String::from_utf8(buf).unwrap().lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        let root = &lines[2];
        assert_eq!(root.get("parent"), Some(&Json::Null));
        assert_eq!(root.get("name").and_then(Json::as_str), Some("request"));
        for child in &lines[..2] {
            assert_eq!(child.get("parent"), root.get("id"));
            assert_eq!(child.get("request").and_then(Json::as_f64), Some(15.0));
        }
        assert_eq!(lines[1].get("end_ns").and_then(Json::as_f64), Some(90_000.0));
    }
}
