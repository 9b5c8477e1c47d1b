//! The traced run's span log: one span per operation per entry depth,
//! kept in memory and written out as JSON lines when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; spans inside the program are a
//! later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// `embedded-query` issues millions of operations per window; the log
/// keeps the first this many spans and counts the rest as dropped.
const SPAN_CAP: usize = 200_000;

/// One recorded span.  Spans of one operation share `op_id`; `parent` is
/// the span of the same operation one entry depth further out.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub class: &'static str,
    pub op_id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Record a span from `start` to `end`; returns its id (`None` once
    /// the cap is reached).
    pub fn close(
        &mut self,
        name: &'static str,
        class: &'static str,
        op_id: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            class,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() as u64 - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Median duration in µs of the spans called `name` of one operation
    /// class, with their count: the per-layer table is derived from here.
    /// A median, not a mean, so one slow fsync in a replay does not make
    /// the layer above it read negative.
    pub fn median_us(&self, name: &str, class: &str) -> (f64, u64) {
        let mut ns: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.class == class)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        ns.sort_unstable();
        let median = ns.get(ns.len() / 2).map_or(0.0, |&ns| ns as f64 / 1e3);
        (median, ns.len() as u64)
    }

    /// Write `{"id", "name", "class", "op_id", "parent", "start_ns",
    /// "end_ns"}` lines, preceded by one header line.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"class\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.class, s.op_id, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
