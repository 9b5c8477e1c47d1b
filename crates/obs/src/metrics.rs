//! Named counters, gauges and fixed-bucket histograms with three
//! exposition formats: a human-readable table, JSONL, and
//! Prometheus-style text.
//!
//! The registry clones cheaply (`Rc<RefCell<…>>`) so every layer of the
//! system can hold the same instance. Metric names are free-form; the
//! convention used across the workspace is dotted lower-case
//! (`asr.rebuild_fallback`, `query.backward`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::json;

/// A fixed-bucket histogram in the Prometheus style: `bounds[i]` is the
/// inclusive upper bound (`le`) of bucket `i`, with an implicit final
/// `+Inf` bucket.
#[derive(Debug, Clone)]
struct Histogram {
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts.len() == bounds.len() + 1`.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    fn new(mut bounds: Vec<f64>) -> Self {
        bounds.retain(|b| b.is_finite());
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            total: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        // First bucket whose upper bound admits the value (`value <= le`).
        let idx = self
            .bounds
            .iter()
            .position(|&le| value <= le)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (`le`), ascending; the final `+Inf` bucket is
    /// implicit.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (not cumulative); one longer than `bounds`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub total: u64,
}

impl HistogramSnapshot {
    /// Cumulative counts per bucket, Prometheus-style (last = total).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket containing the target rank — the classic
    /// Prometheus `histogram_quantile` estimator.  The lower edge of the
    /// first bucket is taken as 0; a rank landing in the implicit `+Inf`
    /// bucket clamps to the last finite bound (the estimator cannot see
    /// past it).  `None` when the histogram is empty or `q` is out of
    /// range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            let upto = below + count;
            if rank <= upto as f64 || idx == self.counts.len() - 1 {
                if idx >= self.bounds.len() {
                    // +Inf bucket: clamp to the last finite bound.
                    return Some(self.bounds.last().copied().unwrap_or(0.0));
                }
                let lower = if idx == 0 { 0.0 } else { self.bounds[idx - 1] };
                let upper = self.bounds[idx];
                if count == 0 {
                    return Some(upper);
                }
                let within = (rank - below as f64) / count as f64;
                return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
            }
            below = upto;
        }
        None
    }

    /// The p50/p95/p99 tail summary used by serving benchmarks.
    pub fn tail_summary(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → snapshot.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Cheaply clonable registry of counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Inner>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to the named counter (creating it at zero).  Bumping a
    /// counter that already exists allocates nothing.
    pub fn inc_counter(&self, name: &str, by: u64) {
        let counters = &mut self.inner.borrow_mut().counters;
        match counters.get_mut(name) {
            Some(value) => *value += by,
            None => {
                counters.insert(name.to_string(), by);
            }
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner
            .borrow_mut()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Record `value` into the named histogram. `bounds` defines the
    /// inclusive bucket upper bounds on first use and is ignored on
    /// subsequent calls (fixed-bucket semantics).
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .observe(value);
    }

    /// Snapshot of one histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner
            .borrow()
            .histograms
            .get(name)
            .map(|h| HistogramSnapshot {
                bounds: h.bounds.clone(),
                counts: h.counts.clone(),
                sum: h.sum,
                total: h.total,
            })
    }

    /// Point-in-time copy of every metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            sum: h.sum,
                            total: h.total,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Drop every metric (names included).
    pub fn clear(&self) {
        *self.inner.borrow_mut() = Inner::default();
    }

    /// Human-readable table of every metric.
    pub fn render_table(&self) -> String {
        self.snapshot().render_table()
    }

    /// One JSON object per line (counters, then gauges, then histograms).
    pub fn to_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }

    /// Prometheus-style text exposition.
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

impl MetricsSnapshot {
    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable table of every metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            return "no metrics recorded\n".to_string();
        }
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0)
            .max(6);
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:<width$}  counter    {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name:<width$}  gauge      {value}");
        }
        for (name, h) in &self.histograms {
            let mean = if h.total > 0 {
                h.sum / h.total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<width$}  histogram  n={} sum={} mean={mean:.2}",
                h.total,
                json::number(h.sum),
            );
            for (i, &count) in h.counts.iter().enumerate() {
                let le = h
                    .bounds
                    .get(i)
                    .map(|b| json::number(*b))
                    .unwrap_or_else(|| "+Inf".to_string());
                let _ = writeln!(out, "{:<width$}    le={le}: {count}", "");
            }
        }
        out
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                json::escape(name)
            );
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json::escape(name),
                json::number(*value)
            );
        }
        for (name, h) in &self.histograms {
            let bounds: Vec<String> = h.bounds.iter().map(|b| json::number(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"total\":{}}}",
                json::escape(name),
                bounds.join(","),
                counts.join(","),
                json::number(h.sum),
                h.total
            );
        }
        out
    }

    /// Prometheus text format. Metric names are sanitized (`.` → `_`).
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", json::number(*value));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let cumulative = h.cumulative();
            for (i, cum) in cumulative.iter().enumerate() {
                let le = h
                    .bounds
                    .get(i)
                    .map(|b| json::number(*b))
                    .unwrap_or_else(|| "+Inf".to_string());
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_sum {}", json::number(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.total);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let m = MetricsRegistry::new();
        m.inc_counter("asr.rebuild_fallback", 1);
        m.inc_counter("asr.rebuild_fallback", 2);
        m.set_gauge("buffer.hit_rate", 0.75);
        assert_eq!(m.counter("asr.rebuild_fallback"), 3);
        assert_eq!(m.counter("never.touched"), 0);
        assert_eq!(m.gauge("buffer.hit_rate"), Some(0.75));

        let clone = m.clone();
        clone.inc_counter("asr.rebuild_fallback", 1);
        assert_eq!(m.counter("asr.rebuild_fallback"), 4, "clones share state");
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let m = MetricsRegistry::new();
        let bounds = [1.0, 5.0, 25.0];
        // One observation per interesting position: below, exactly on each
        // bound, between bounds, and above all bounds.
        for v in [0.0, 1.0, 1.5, 5.0, 24.9, 25.0, 25.1, 1000.0] {
            m.observe("q.pages", &bounds, v);
        }
        let h = m.histogram("q.pages").unwrap();
        assert_eq!(h.bounds, vec![1.0, 5.0, 25.0]);
        // le=1: {0.0, 1.0}; le=5: {1.5, 5.0}; le=25: {24.9, 25.0}; +Inf: {25.1, 1000}.
        assert_eq!(h.counts, vec![2, 2, 2, 2]);
        assert_eq!(h.cumulative(), vec![2, 4, 6, 8]);
        assert_eq!(h.total, 8);
        assert!((h.sum - 1082.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_bounds_are_fixed_at_first_use_and_sorted() {
        let m = MetricsRegistry::new();
        m.observe("h", &[10.0, 1.0, 10.0], 2.0);
        // Different bounds later are ignored: fixed-bucket semantics.
        m.observe("h", &[99.0], 2.0);
        let h = m.histogram("h").unwrap();
        assert_eq!(h.bounds, vec![1.0, 10.0], "sorted and deduplicated");
        assert_eq!(h.counts, vec![0, 2, 0]);
    }

    #[test]
    fn exposition_formats_cover_every_metric() {
        let m = MetricsRegistry::new();
        m.inc_counter("ops.total", 7);
        m.set_gauge("hit.rate", 0.5);
        m.observe("lat", &[1.0, 2.0], 1.5);

        let table = m.render_table();
        assert!(table.contains("ops.total"));
        assert!(table.contains("counter"));
        assert!(table.contains("histogram"));

        let jsonl = m.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"type\":\"counter\""));
        assert!(jsonl.contains("\"bounds\":[1,2]"));

        let prom = m.to_prometheus();
        assert!(prom.contains("# TYPE ops_total counter"));
        assert!(prom.contains("lat_bucket{le=\"2\"} 1"));
        assert!(prom.contains("lat_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("lat_count 1"));
    }

    #[test]
    fn quantile_estimates_interpolate_and_clamp() {
        let m = MetricsRegistry::new();
        let bounds = [1.0, 2.0, 4.0, 8.0];
        // 100 observations uniformly on (0, 4]: 25 per finite bucket ≤ 4.
        for i in 0..100 {
            m.observe("lat", &bounds, (i as f64 + 1.0) * 0.04);
        }
        let h = m.histogram("lat").unwrap();
        let (p50, p95, p99) = h.tail_summary().unwrap();
        assert!((p50 - 2.0).abs() < 0.25, "p50 ≈ 2.0, got {p50}");
        assert!((p95 - 3.8).abs() < 0.25, "p95 ≈ 3.8, got {p95}");
        assert!(p99 <= 4.0 && p99 > 3.8, "p99 in (3.8, 4.0], got {p99}");
        // Everything beyond the last finite bound clamps to it.
        m.observe("hot", &[1.0], 50.0);
        let hot = m.histogram("hot").unwrap();
        assert_eq!(hot.quantile(0.99), Some(1.0));
        // Empty and out-of-range are None.
        assert_eq!(h.quantile(1.5), None);
        let empty = HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
            total: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn clear_forgets_everything() {
        let m = MetricsRegistry::new();
        m.inc_counter("c", 1);
        m.observe("h", &[1.0], 0.5);
        m.clear();
        assert!(m.snapshot().is_empty());
    }
}
