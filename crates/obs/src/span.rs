//! RAII nested spans with per-span I/O deltas.
//!
//! A [`Tracer`] hands out [`SpanGuard`]s; while a guard is alive every
//! page access charged to the tracer's attached
//! [`IoStats`](asr_pagesim::IoStats) falls inside the span, and when the
//! guard finishes (explicitly via [`SpanGuard::finish`] or implicitly on
//! drop — including during a panic unwind) the read/write/buffer-hit
//! *delta* is captured into a [`SpanRecord`] and offered to every
//! registered [`EventSink`]. Zero-duration [`Tracer::event`]s share the
//! record type (with `event = true`) so subscribers like the advisor's
//! usage recorder consume one stream.
//!
//! Watching is free when no one listens: a span borrows its name and
//! attribute values and builds its [`SpanRecord`] (formatting the values,
//! allocating the strings) only when a sink will receive it or the caller
//! asks for it with [`SpanGuard::finish`].  Span ids advance either way.

use std::cell::{Cell, RefCell};
use std::fmt::{self, Write as _};
use std::rc::Rc;

use asr_pagesim::{IoSnapshot, StatsHandle};

use crate::json;
use crate::metrics::MetricsRegistry;
use crate::sink::EventSink;

/// One finished span or point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique (per tracer) id.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name (dotted lower-case by convention, e.g. `query.backward`).
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Free-form key/value annotations.
    pub attrs: Vec<(String, String)>,
    /// Page reads charged while the span was open.
    pub reads: u64,
    /// Page writes charged while the span was open.
    pub writes: u64,
    /// Buffer hits recorded while the span was open.
    pub buffer_hits: u64,
    /// Rows/objects produced, when the instrumented code reports it.
    pub rows: Option<u64>,
    /// True for zero-duration point events ([`Tracer::event`]).
    pub event: bool,
}

impl SpanRecord {
    /// Total page accesses in the span (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The record as one line of JSON.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"depth\":{},\"event\":{}",
            self.id,
            json::escape(&self.name),
            self.depth,
            self.event
        );
        if let Some(parent) = self.parent {
            let _ = write!(out, ",\"parent\":{parent}");
        }
        let _ = write!(
            out,
            ",\"reads\":{},\"writes\":{},\"buffer_hits\":{}",
            self.reads, self.writes, self.buffer_hits
        );
        if let Some(rows) = self.rows {
            let _ = write!(out, ",\"rows\":{rows}");
        }
        if !self.attrs.is_empty() {
            let _ = write!(out, ",\"attrs\":{{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ",");
                }
                let _ = write!(out, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
            }
            let _ = write!(out, "}}");
        }
        let _ = write!(out, "}}");
        out
    }
}

/// Handle returned by [`Tracer::add_sink`], used to detach it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkId(u64);

#[derive(Default)]
struct Inner {
    stats: RefCell<Option<StatsHandle>>,
    metrics: MetricsRegistry,
    enabled: Cell<bool>,
    next_span: Cell<u64>,
    next_sink: Cell<u64>,
    /// Ids of currently open spans, innermost last.
    stack: RefCell<Vec<u64>>,
    sinks: RefCell<Vec<(u64, Rc<dyn EventSink>)>>,
}

/// Cheaply clonable tracing context: spans, events, sinks and a bundled
/// [`MetricsRegistry`].
///
/// Span *capture* (the I/O deltas) always works when stats are attached;
/// [`Tracer::set_enabled`] only gates delivery to sinks, so e.g.
/// `EXPLAIN ANALYZE` gets measured spans even while `\trace` is off.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled.get())
            .field("open_spans", &self.inner.stack.borrow().len())
            .field("sinks", &self.inner.sinks.borrow().len())
            .finish()
    }
}

impl Tracer {
    /// A tracer with no stats attached (spans report zero I/O) and
    /// delivery enabled.
    pub fn new() -> Self {
        let tracer = Tracer::default();
        tracer.inner.enabled.set(true);
        tracer
    }

    /// A tracer capturing I/O deltas from `stats`.
    pub fn with_stats(stats: StatsHandle) -> Self {
        let tracer = Tracer::new();
        *tracer.inner.stats.borrow_mut() = Some(stats);
        tracer
    }

    /// The bundled metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Gate delivery to sinks (capture is unaffected).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.set(enabled);
    }

    /// Whether records are delivered to sinks.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Register a sink; every finished span and event is offered to it.
    pub fn add_sink(&self, sink: Rc<dyn EventSink>) -> SinkId {
        let id = self.inner.next_sink.get();
        self.inner.next_sink.set(id + 1);
        self.inner.sinks.borrow_mut().push((id, sink));
        SinkId(id)
    }

    /// Detach a sink; returns false if it was already gone.
    pub fn remove_sink(&self, id: SinkId) -> bool {
        let mut sinks = self.inner.sinks.borrow_mut();
        let before = sinks.len();
        sinks.retain(|(sid, _)| *sid != id.0);
        sinks.len() != before
    }

    /// Number of attached sinks.
    pub fn sink_count(&self) -> usize {
        self.inner.sinks.borrow().len()
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.inner.stack.borrow().len()
    }

    /// Open a span. Close it with [`SpanGuard::finish`] to obtain the
    /// record, or let it drop.
    pub fn span<'a>(&self, name: &'a str) -> SpanGuard<'a> {
        self.span_with(name, &[])
    }

    /// Open a span with initial attributes.  The guard borrows `name` and
    /// the values; they are formatted into the record only if one is
    /// built (a sink receives it, or the caller [`SpanGuard::finish`]es).
    pub fn span_with<'a>(&self, name: &'a str, attrs: Attrs<'a>) -> SpanGuard<'a> {
        let inner = &self.inner;
        let id = inner.next_span.get() + 1;
        inner.next_span.set(id);
        let mut stack = inner.stack.borrow_mut();
        let parent = stack.last().copied();
        let depth = stack.len();
        stack.push(id);
        drop(stack);
        let start = inner.stats.borrow().as_ref().map(|s| s.snapshot());
        SpanGuard {
            inner: Rc::clone(&self.inner),
            start,
            open: Some(OpenSpan {
                id,
                parent,
                name,
                depth,
                attrs,
                added: Vec::new(),
                rows: None,
            }),
        }
    }

    /// Emit a zero-duration point event (no I/O delta) to the sinks.
    pub fn event(&self, name: &str, attrs: &[(&str, String)]) {
        let inner = &self.inner;
        let id = inner.next_span.get() + 1;
        inner.next_span.set(id);
        if !inner.delivers() {
            return;
        }
        let stack = inner.stack.borrow();
        let record = SpanRecord {
            id,
            parent: stack.last().copied(),
            name: name.to_string(),
            depth: stack.len(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            reads: 0,
            writes: 0,
            buffer_hits: 0,
            rows: None,
            event: true,
        };
        drop(stack);
        emit(inner, &record);
    }
}

impl Inner {
    /// Will a finished record reach a sink?  (Delivery is enabled and at
    /// least one sink is attached.)
    fn delivers(&self) -> bool {
        self.enabled.get() && !self.sinks.borrow().is_empty()
    }
}

fn emit(inner: &Inner, record: &SpanRecord) {
    if !inner.enabled.get() {
        return;
    }
    // Clone the sink list out so a sink may attach/detach sinks reentrantly.
    let sinks: Vec<Rc<dyn EventSink>> = inner
        .sinks
        .borrow()
        .iter()
        .map(|(_, s)| Rc::clone(s))
        .collect();
    for sink in sinks {
        sink.record(record);
    }
}

/// The attributes a span opens with: borrowed keys and values, formatted
/// (`Display`) into the record's strings only when a record is built.
pub type Attrs<'a> = &'a [(&'a str, &'a dyn fmt::Display)];

/// RAII handle for an open span. Dropping it — on any path, including a
/// panic unwind — closes the span, captures the I/O delta and notifies the
/// sinks.
pub struct SpanGuard<'a> {
    inner: Rc<Inner>,
    start: Option<IoSnapshot>,
    /// `None` once finalized (guards against double-close from
    /// `finish` + `Drop`).
    open: Option<OpenSpan<'a>>,
}

/// What an open span knows before its record is built.
struct OpenSpan<'a> {
    id: u64,
    parent: Option<u64>,
    name: &'a str,
    depth: usize,
    attrs: Attrs<'a>,
    /// Attributes added while open ([`SpanGuard::add_attr`]), after `attrs`.
    added: Vec<(String, String)>,
    rows: Option<u64>,
}

impl SpanGuard<'_> {
    /// Attach an attribute to the (still open) span.
    pub fn add_attr(&mut self, key: &str, value: impl Into<String>) {
        if let Some(open) = self.open.as_mut() {
            open.added.push((key.to_string(), value.into()));
        }
    }

    /// Report how many rows/objects the spanned operation produced.
    pub fn set_rows(&mut self, rows: u64) {
        if let Some(open) = self.open.as_mut() {
            open.rows = Some(rows);
        }
    }

    /// Close the span now and return its record (also delivered to sinks).
    pub fn finish(mut self) -> SpanRecord {
        self.finalize(true).expect("span can only finish once")
    }

    /// Close the span; build its record only when `wanted` by the caller
    /// or a sink will receive it.
    fn finalize(&mut self, wanted: bool) -> Option<SpanRecord> {
        let open = self.open.take()?;
        // Pop this span; search from the innermost end so out-of-order
        // drops (e.g. mid-unwind) stay consistent.
        let mut stack = self.inner.stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
            stack.remove(pos);
        }
        drop(stack);
        if !wanted && !self.inner.delivers() {
            return None;
        }
        let mut record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name.to_string(),
            depth: open.depth,
            attrs: open
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .chain(open.added)
                .collect(),
            reads: 0,
            writes: 0,
            buffer_hits: 0,
            rows: open.rows,
            event: false,
        };
        if let (Some(start), Some(stats)) = (self.start, self.inner.stats.borrow().as_ref()) {
            let now = stats.snapshot();
            record.reads = now.reads - start.reads;
            record.writes = now.writes - start.writes;
            record.buffer_hits = now.buffer_hits - start.buffer_hits;
        }
        emit(&self.inner, &record);
        Some(record)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let _ = self.finalize(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_pagesim::IoStats;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn spans_capture_io_deltas() {
        let stats = IoStats::new_handle();
        let tracer = Tracer::with_stats(Rc::clone(&stats));
        stats.count_read();
        let mut span = tracer.span("outer");
        stats.count_read();
        stats.count_write();
        stats.count_buffer_hit();
        span.set_rows(3);
        let record = span.finish();
        assert_eq!((record.reads, record.writes, record.buffer_hits), (1, 1, 1));
        assert_eq!(record.accesses(), 2);
        assert_eq!(record.rows, Some(3));
        assert!(!record.event);
    }

    #[test]
    fn nesting_tracks_parent_and_depth() {
        let tracer = Tracer::new();
        let outer = tracer.span("outer");
        let outer_id = {
            let inner = tracer.span("inner");
            assert_eq!(tracer.open_spans(), 2);
            let inner_record = inner.finish();
            assert_eq!(inner_record.depth, 1);
            inner_record.parent.expect("inner has a parent")
        };
        let outer_record = outer.finish();
        assert_eq!(outer_record.id, outer_id);
        assert_eq!(outer_record.depth, 0);
        assert_eq!(outer_record.parent, None);
        assert_eq!(tracer.open_spans(), 0);
    }

    #[test]
    fn guard_drop_is_panic_safe() {
        let tracer = Tracer::new();
        let seen = Rc::new(crate::sink::RingBufferSink::new(16));
        tracer.add_sink(seen.clone());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _span = tracer.span("doomed");
            panic!("boom");
        }));
        assert!(result.is_err());
        // The unwind closed the span: the stack is clean and the record
        // still reached the sink.
        assert_eq!(tracer.open_spans(), 0);
        let records = seen.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "doomed");
        // A fresh span after the panic is top-level again.
        let record = tracer.span("after").finish();
        assert_eq!(record.depth, 0);
        assert_eq!(record.parent, None);
    }

    #[test]
    fn disabled_tracer_still_measures_but_does_not_deliver() {
        let stats = IoStats::new_handle();
        let tracer = Tracer::with_stats(Rc::clone(&stats));
        let sink = Rc::new(crate::sink::RingBufferSink::new(4));
        tracer.add_sink(sink.clone());
        tracer.set_enabled(false);
        let span = tracer.span("quiet");
        stats.count_read();
        let record = span.finish();
        assert_eq!(record.reads, 1, "capture is independent of delivery");
        assert!(sink.is_empty());
        tracer.set_enabled(true);
        tracer.event("ping", &[]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn events_carry_attrs_and_position() {
        let tracer = Tracer::new();
        let sink = Rc::new(crate::sink::RingBufferSink::new(4));
        tracer.add_sink(sink.clone());
        let _span = tracer.span("ctx");
        tracer.event(
            "usage.backward",
            &[("i", "0".to_string()), ("j", "3".to_string())],
        );
        let records = sink.drain();
        assert_eq!(records.len(), 1);
        assert!(records[0].event);
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[0].attr("j"), Some("3"));
    }

    #[test]
    fn sink_removal_stops_delivery() {
        let tracer = Tracer::new();
        let sink = Rc::new(crate::sink::RingBufferSink::new(4));
        let id = tracer.add_sink(sink.clone());
        tracer.event("one", &[]);
        assert!(tracer.remove_sink(id));
        assert!(!tracer.remove_sink(id));
        tracer.event("two", &[]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        let tracer = Tracer::new();
        let mut span = tracer.span_with("q", &[("kind", &"backward")]);
        span.set_rows(2);
        let line = span.finish().to_jsonl();
        assert!(line.starts_with("{\"id\":1,\"name\":\"q\""));
        assert!(line.contains("\"rows\":2"));
        assert!(line.contains("\"attrs\":{\"kind\":\"backward\"}"));
        assert!(line.ends_with('}'));
    }
}
