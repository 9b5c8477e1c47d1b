//! A bounded black-box recorder for postmortem analysis.
//!
//! The [`FlightRecorder`] is an [`EventSink`] that keeps the most recent
//! `capacity` span/event records, stamping each with a monotonically
//! increasing sequence number the moment it arrives.  Unlike
//! [`crate::RingBufferSink`] (which is a raw drain-once buffer for the
//! shell's `\trace` command), the flight recorder is built for *failure
//! attribution*: when a replication pump stalls or crash recovery runs,
//! the last N events — which fault fired, which delivery was NACKed,
//! which backoff tick burned — are attached to the error/report itself.
//!
//! Determinism: sequence numbers are assigned in arrival order starting
//! at 1 and never reused, so two runs over the same schedule produce
//! byte-identical [`FlightRecorder::dump_jsonl`] output (wall-clock time
//! is deliberately absent from [`crate::SpanRecord`]).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::sink::EventSink;
use crate::span::SpanRecord;

/// One recorded entry: a span/event plus its arrival sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotonic arrival index (1-based, never reused).
    pub seq: u64,
    /// The underlying span or event record.
    pub record: SpanRecord,
}

impl FlightEvent {
    /// One JSON line: the record's JSONL with a leading `"seq"` field.
    pub fn to_jsonl(&self) -> String {
        let body = self.record.to_jsonl();
        // SpanRecord::to_jsonl always renders an object; splice seq in
        // front so the line stays a single flat object.
        format!("{{\"seq\":{},{}", self.seq, &body[1..])
    }

    /// A compact one-line summary (`#seq name [k=v ...]`) for embedding
    /// in error messages and recovery reports.
    pub fn summary(&self) -> String {
        let mut line = format!("#{} {}", self.seq, self.record.name);
        for (k, v) in &self.record.attrs {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(v);
        }
        line
    }
}

/// A point-in-time description of the recorder returned by
/// [`FlightRecorder::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightStatus {
    /// Ring capacity (events retained).
    pub capacity: usize,
    /// Events currently buffered.
    pub len: usize,
    /// Total events ever recorded (including evicted ones).
    pub recorded: u64,
    /// Events evicted to make room (== `recorded - len`).
    pub dropped: u64,
    /// Sequence number of the oldest buffered event, if any.
    pub first_seq: Option<u64>,
    /// Sequence number of the newest buffered event, if any.
    pub last_seq: Option<u64>,
}

/// Bounded ring of sequence-numbered records; see module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: Cell<u64>,
    dropped: Cell<u64>,
    buffer: RefCell<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// Default ring capacity used by the durability stack and the shell.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder retaining up to `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            next_seq: Cell::new(1),
            dropped: Cell::new(0),
            buffer: RefCell::new(VecDeque::new()),
        }
    }

    /// A recorder with [`Self::DEFAULT_CAPACITY`], wrapped in `Rc` ready
    /// for [`crate::Tracer::add_sink`].
    pub fn shared() -> Rc<Self> {
        Rc::new(FlightRecorder::new(Self::DEFAULT_CAPACITY))
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buffer.borrow().len()
    }

    /// True if nothing has been buffered (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.buffer.borrow().is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.next_seq.get() - 1
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Record an ad-hoc named event directly, without going through a
    /// [`crate::Tracer`].  Fault injectors use this: they sit *below* the
    /// database (the tracer may not exist yet when a fault fires during
    /// open/recovery), so they write into the black box directly.
    pub fn note(&self, name: &str, attrs: &[(&str, String)]) {
        let record = SpanRecord {
            id: 0,
            parent: None,
            name: name.to_string(),
            depth: 0,
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
        self.record(&record);
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let buffer = self.buffer.borrow();
        let skip = buffer.len().saturating_sub(n);
        buffer.iter().skip(skip).cloned().collect()
    }

    /// Compact summaries (see [`FlightEvent::summary`]) of the last `n`
    /// events, oldest first — the form embedded in error messages.
    pub fn tail_summaries(&self, n: usize) -> Vec<String> {
        self.tail(n).iter().map(FlightEvent::summary).collect()
    }

    /// Every buffered event as JSONL, oldest first, one line each.
    pub fn dump_jsonl(&self) -> String {
        let buffer = self.buffer.borrow();
        let mut out = String::new();
        for event in buffer.iter() {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Drop all buffered events.  Sequence numbering continues from where
    /// it was — `recorded()` is a lifetime total.
    pub fn clear(&self) {
        let mut buffer = self.buffer.borrow_mut();
        self.dropped.set(self.dropped.get() + buffer.len() as u64);
        buffer.clear();
    }

    /// Current status snapshot.
    pub fn status(&self) -> FlightStatus {
        let buffer = self.buffer.borrow();
        FlightStatus {
            capacity: self.capacity,
            len: buffer.len(),
            recorded: self.recorded(),
            dropped: self.dropped.get(),
            first_seq: buffer.front().map(|e| e.seq),
            last_seq: buffer.back().map(|e| e.seq),
        }
    }
}

impl EventSink for FlightRecorder {
    fn record(&self, record: &SpanRecord) {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let mut buffer = self.buffer.borrow_mut();
        if buffer.len() == self.capacity {
            buffer.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        buffer.push_back(FlightEvent {
            seq,
            record: record.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    #[test]
    fn sequence_numbers_are_monotonic_from_one() {
        let rec = FlightRecorder::new(8);
        let tracer = Tracer::new();
        tracer.add_sink(Rc::new(FlightRecorder::new(1))); // unrelated sink
        for name in ["a", "b", "c"] {
            rec.record(&tracer.span(name).finish());
        }
        let seqs: Vec<u64> = rec.tail(10).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn wraparound_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        let tracer = Tracer::new();
        for i in 0..10 {
            rec.record(&tracer.span(format!("s{i}").as_str()).finish());
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 7);
        let status = rec.status();
        assert_eq!(status.first_seq, Some(8));
        assert_eq!(status.last_seq, Some(10));
        let names: Vec<String> = rec.tail(3).into_iter().map(|e| e.record.name).collect();
        assert_eq!(names, ["s7", "s8", "s9"]);
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let rec = FlightRecorder::new(16);
        for i in 0..5 {
            rec.note(&format!("e{i}"), &[]);
        }
        let tail: Vec<u64> = rec.tail(2).iter().map(|e| e.seq).collect();
        assert_eq!(tail, [4, 5]);
        assert!(rec.tail(0).is_empty());
        assert_eq!(rec.tail(100).len(), 5);
    }

    #[test]
    fn dump_is_deterministic_across_identical_runs() {
        let run = || {
            let rec = FlightRecorder::new(4);
            let tracer = Tracer::new();
            for i in 0..7 {
                rec.record(&tracer.span_with("step", &[("i", &i)]).finish());
            }
            rec.note("fault.crash", &[("n", "3".to_string())]);
            rec.dump_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 4);
        assert!(a.lines().all(|l| l.starts_with("{\"seq\":")));
        assert!(a.contains("fault.crash"));
    }

    #[test]
    fn note_records_an_event_with_attrs() {
        let rec = FlightRecorder::new(4);
        rec.note("chaos.drop", &[("delivery", "7".to_string())]);
        let tail = rec.tail(1);
        assert!(tail[0].record.event);
        assert_eq!(tail[0].record.attr("delivery"), Some("7"));
        assert_eq!(tail[0].summary(), "#1 chaos.drop delivery=7");
    }

    #[test]
    fn attached_to_a_tracer_it_sees_spans_and_events() {
        let rec = Rc::new(FlightRecorder::new(8));
        let tracer = Tracer::new();
        tracer.add_sink(rec.clone());
        tracer.event("wal.fault", &[("kind", "torn".to_string())]);
        tracer.span("wal.append").finish();
        assert_eq!(rec.len(), 2);
        let sums = rec.tail_summaries(2);
        assert_eq!(sums[0], "#1 wal.fault kind=torn");
        assert_eq!(sums[1], "#2 wal.append");
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let rec = FlightRecorder::new(4);
        for _ in 0..3 {
            rec.note("e", &[]);
        }
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.dropped(), 3);
        rec.note("f", &[]);
        assert_eq!(rec.tail(1)[0].seq, 4);
    }
}
