//! Constant-memory latency histogram.
//!
//! `embedded-query` completes millions of operations per window; keeping
//! every sample would make peak RSS a function of throughput.  Values
//! below 4096 ns are counted exactly, larger ones in 1024 sub-buckets per
//! power of two (relative resolution under 0.1 %), so a percentile reads
//! the same to three digits as the sorted samples would.

const EXACT: u64 = 1 << 12;
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Durations are clamped below 2^41 ns (about 36 minutes).
const MAX_EXP: u32 = 40;

/// Nanosecond latency samples.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; EXACT as usize + (MAX_EXP as usize - 11) * SUB],
            n: 0,
            sum_ns: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let ns = ns.min((1 << (MAX_EXP + 1)) - 1);
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    EXACT as usize + (exp as usize - 12) * SUB + sub
}

/// Lower edge of a bucket.
fn lower(idx: usize) -> u64 {
    if idx < EXACT as usize {
        return idx as u64;
    }
    let rest = idx - EXACT as usize;
    let exp = (rest / SUB) as u32 + 12;
    let sub = (rest % SUB) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64 / 1e3
        }
    }

    /// The sample of 1-based `rank` in sorted order, in microseconds.
    fn at_rank_us(&self, rank: u64) -> f64 {
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank && c > 0 {
                return lower(idx) as f64 / 1e3;
            }
        }
        0.0
    }

    pub fn p50_us(&self) -> f64 {
        self.at_rank_us(self.n.div_ceil(2).max(1))
    }

    /// The 99th percentile, or — with fewer than 1000 samples — the
    /// highest rank that still has at least ten samples beyond it (the
    /// maximum when there are ten or fewer).  Returns the percentile
    /// actually reported next to the value.
    pub fn tail_us(&self) -> (f64, f64) {
        if self.n == 0 {
            return (0.0, 0.0);
        }
        let p99 = (self.n * 99).div_ceil(100);
        let rank = if self.n > 10 {
            p99.min(self.n - 10)
        } else {
            self.n
        };
        (
            rank as f64 * 100.0 / self.n as f64,
            self.at_rank_us(rank.max(1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_their_lower_edge() {
        for ns in [0, 1, 4095, 4096, 4100, 1_160_000, 3_000_000_000, u64::MAX] {
            let idx = bucket(ns);
            let lo = lower(idx);
            assert!(lo <= ns.min((1 << (MAX_EXP + 1)) - 1), "{ns}: {lo}");
            assert_eq!(bucket(lo), idx, "{ns}");
            if ns < (1 << MAX_EXP) {
                assert!((ns - lo) as f64 <= ns as f64 / 1000.0, "{ns}: {lo}");
            }
        }
    }

    #[test]
    fn percentiles_follow_the_ten_beyond_rule() {
        // Below 4096 ns samples are kept exactly.
        let mut h = Hist::default();
        for ns in 1..=100u64 {
            h.record(ns);
        }
        assert_eq!(h.p50_us(), 0.05);
        // p99 of 100 samples leaves one beyond; rank 90 leaves ten.
        assert_eq!(h.tail_us(), (90.0, 0.09));
        for ns in 101..=2000u64 {
            h.record(ns);
        }
        assert_eq!(h.tail_us(), (99.0, 1.98));
    }
}
