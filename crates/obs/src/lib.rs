//! # asr-obs — zero-dependency tracing & metrics
//!
//! The paper's entire evaluation metric is *observed page accesses*; this
//! crate makes that metric a first-class runtime feature instead of a
//! single global counter. It is hand-rolled on `std` only (DESIGN.md
//! restricts external dependencies) and single-threaded by design, like
//! the rest of the system (`IoStats` itself is `Cell`-based).
//!
//! Three pieces:
//!
//! * [`Tracer`] — RAII nested [`span::SpanGuard`]s that capture per-span
//!   page read/write/buffer-hit deltas from [`asr_pagesim::IoStats`], plus
//!   zero-duration *events* (e.g. "a backward span query ran") that feed
//!   subscribers such as the advisor's usage recorder;
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms with human-table, JSONL and Prometheus-style text
//!   exposition;
//! * [`EventSink`] — pluggable span/event consumers: an in-memory
//!   [`sink::RingBufferSink`], a [`sink::WriterSink`] emitting JSONL, an
//!   arbitrary-closure [`sink::FnSink`], and the bounded, sequence-
//!   numbered [`FlightRecorder`] black box that failure paths attach
//!   their last-N-events tail from.
//!
//! A [`Tracer`] bundles one metrics registry and any number of sinks and
//! clones cheaply (`Rc` inside), so one instance threads through a whole
//! `Database` without lifetime gymnastics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flightrec;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use flightrec::{FlightEvent, FlightRecorder, FlightStatus};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, FnSink, RingBufferSink, WriterSink};
pub use span::{Attrs, SinkId, SpanGuard, SpanRecord, Tracer};
