//! The cost of watching.  With no sink attached, opening and dropping a
//! span with attributes and bumping an existing counter must allocate
//! nothing — the query path pays for instrumentation only when someone
//! receives it.  With a sink attached, the delivered records must be
//! exactly what they always were, and `finish()` must still hand back the
//! attributes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use asr_obs::{Attrs, RingBufferSink, SpanRecord, Tracer};
use asr_pagesim::IoStats;

/// Counts allocations made on the current thread (the test harness runs
/// tests on parallel threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation above is `System`'s).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `i..j`, formatted only when a record is built.
struct Cols(usize, usize);

impl fmt::Display for Cols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.0, self.1)
    }
}

/// What `Database::backward` does around every query.
fn one_query(tracer: &Tracer, stats: &asr_pagesim::StatsHandle) {
    let (id, cols) = (3usize, Cols(0, 4));
    let attrs: Attrs = &[("asr", &id), ("span", &cols)];
    let mut span = tracer.span_with("query.backward", attrs);
    tracer.metrics().inc_counter("query.backward", 1);
    stats.count_read();
    span.set_rows(2);
}

#[test]
fn unobserved_spans_and_counter_bumps_allocate_nothing() {
    let stats = IoStats::new_handle();
    let tracer = Tracer::with_stats(Rc::clone(&stats));
    // First use creates the counter and grows the span stack.
    one_query(&tracer, &stats);
    let before = allocations();
    for _ in 0..1_000 {
        one_query(&tracer, &stats);
    }
    assert_eq!(
        allocations() - before,
        0,
        "watching with no sink must be free"
    );
    assert_eq!(tracer.metrics().counter("query.backward"), 1_001);
}

#[test]
fn observed_spans_deliver_the_same_records() {
    let stats = IoStats::new_handle();
    let tracer = Tracer::with_stats(Rc::clone(&stats));
    // A span closed before any sink attaches is not delivered, but it
    // still takes its id.
    one_query(&tracer, &stats);
    let sink = Rc::new(RingBufferSink::new(8));
    tracer.add_sink(sink.clone());
    {
        let _outer = tracer.span("oql.query");
        one_query(&tracer, &stats);
    }
    let records = sink.drain();
    assert_eq!(
        records,
        vec![
            SpanRecord {
                id: 3,
                parent: Some(2),
                name: "query.backward".to_string(),
                depth: 1,
                attrs: vec![
                    ("asr".to_string(), "3".to_string()),
                    ("span".to_string(), "0..4".to_string()),
                ],
                reads: 1,
                writes: 0,
                buffer_hits: 0,
                rows: Some(2),
                event: false,
            },
            SpanRecord {
                id: 2,
                parent: None,
                name: "oql.query".to_string(),
                depth: 0,
                attrs: Vec::new(),
                reads: 1,
                writes: 0,
                buffer_hits: 0,
                rows: None,
                event: false,
            },
        ]
    );
}

#[test]
fn finish_returns_the_attributes_without_a_sink() {
    let tracer = Tracer::new();
    let kind = "backward";
    let attrs: Attrs = &[("kind", &kind)];
    let mut span = tracer.span_with("q", attrs);
    span.add_attr("fallback", "naive");
    let record = span.finish();
    assert_eq!(record.id, 1);
    assert_eq!(
        record.attrs,
        vec![
            ("kind".to_string(), "backward".to_string()),
            ("fallback".to_string(), "naive".to_string()),
        ]
    );
}
