//! Histograms: fixed log2 buckets for values with large dynamic range,
//! and an exact `BTreeMap`-backed count histogram for small key spaces.

use std::collections::BTreeMap;

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds the value
/// `0`, bucket `b` (1..=64) holds values with `floor(log2(v)) == b - 1`,
/// i.e. `v` in `[2^(b-1), 2^b)`.
const LOG2_BUCKETS: usize = 65;

/// A histogram with fixed power-of-two buckets.
///
/// Recording is one `leading_zeros` and two adds; merging is element-wise
/// addition, so sharded accumulators combine deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by `bucket`
    /// (`hi == u64::MAX` stands in for `2^64` in the last bucket).
    pub(crate) fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), 1 << b),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(bucket_index, count)` in index order.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Element-wise addition of another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the inclusive
    /// upper edge of the bucket holding the `⌈q·count⌉`-th smallest
    /// observation. Log2 buckets make this at most 2x above the true
    /// quantile — the resolution tail-latency tables need. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match b {
                    64 => u64::MAX,
                    _ => Self::bucket_range(b).1 - 1,
                });
            }
        }
        None
    }
}

/// An exact histogram over `i64` keys, backed by a `BTreeMap` so
/// iteration (and therefore serialization) is always sorted.
///
/// This is the shape `sdam-trace`'s stride profiling needs — strides are
/// signed, the key space per variable is small, and the profiler wants
/// exact per-key counts, not bucketed ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountHistogram {
    counts: BTreeMap<i64, u64>,
    total: u64,
}

impl CountHistogram {
    /// Records one observation of `key`.
    pub fn record(&mut self, key: i64) {
        self.record_n(key, 1);
    }

    /// Records `n` observations of `key`.
    pub(crate) fn record_n(&mut self, key: i64, n: u64) {
        if n > 0 {
            *self.counts.entry(key).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Observations recorded for `key`.
    pub fn count(&self, key: i64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Total observations across all keys.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(key, count)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// The most frequent key, ties broken toward the smaller key;
    /// `None` when empty.
    pub fn mode(&self) -> Option<i64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, _)| k)
    }

    /// Fraction of observations on `key` in `[0, 1]`; 0.0 when empty.
    pub fn fraction(&self, key: i64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &Self) {
        for (k, c) in other.iter() {
            self.record_n(k, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        for b in 0..LOG2_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_range(b);
            assert_eq!(Log2Histogram::bucket_of(lo), b);
            assert_eq!(Log2Histogram::bucket_of(hi - 1), b);
        }
    }

    #[test]
    fn log2_record_and_merge() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1); // 5 in [4, 8)
        let mut other = Log2Histogram::new();
        other.record(5);
        h.merge(&other);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.nonzero_buckets().count(), 4);
        assert_eq!(h.sum(), 1011);
    }

    #[test]
    fn log2_quantiles_bound_the_distribution() {
        assert_eq!(Log2Histogram::new().quantile(0.5), None);
        let mut h = Log2Histogram::new();
        // 99 observations of 10 ([8, 16)) and one of 1000 ([512, 1024)).
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.0), Some(15));
        assert_eq!(h.quantile(0.5), Some(15));
        assert_eq!(h.quantile(0.99), Some(15));
        assert_eq!(h.quantile(1.0), Some(1023));
        let mut zeros = Log2Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.quantile(0.5), Some(0));
        let mut top = Log2Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn count_histogram_exact() {
        let mut h = CountHistogram::default();
        h.record(-8);
        h.record(64);
        h.record(64);
        h.record_n(0, 0); // no-op
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts.len(), 2);
        assert_eq!(h.count(64), 2);
        assert_eq!(h.mode(), Some(64));
        assert!((h.fraction(64) - 2.0 / 3.0).abs() < 1e-12);
        let keys: Vec<i64> = h.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![-8, 64]);
    }

    #[test]
    fn count_histogram_mode_tie_prefers_smaller_key() {
        let mut h = CountHistogram::default();
        h.record(3);
        h.record(-2);
        assert_eq!(h.mode(), Some(-2));
        assert_eq!(CountHistogram::default().mode(), None);
    }

    #[test]
    fn count_histogram_merge() {
        let mut a = CountHistogram::default();
        a.record(1);
        let mut b = CountHistogram::default();
        b.record(1);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(2), 1);
    }
}
