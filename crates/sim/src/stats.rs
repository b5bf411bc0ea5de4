//! Descriptive statistics for experiment samples.
//!
//! The paper reports averages and distributions (outliers, long tails) of Bootstrap,
//! Response and Inference times across many instances. This module provides the two
//! aggregation styles the harness needs: streaming statistics ([`OnlineStats`], Welford's
//! algorithm, mergeable across threads) and batch summaries with percentiles
//! ([`Summary`]), plus a fixed-bin [`Histogram`] for distribution plots.

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// Batch summary of a sample set: mean, std, min/max, and selected percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Compute a summary from a slice of samples. Returns the default (all zeros) for an
    /// empty slice.
    pub fn from_slice(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut acc = OnlineStats::new();
        for &s in samples {
            acc.push(s);
        }
        Summary {
            count: samples.len(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: acc.min(),
            max: acc.max(),
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }

    /// Render as a compact single-line report (used by the experiment binaries).
    pub fn report(&self) -> String {
        format!(
            "n={:<6} mean={:>9.4} std={:>8.4} min={:>9.4} p50={:>9.4} p95={:>9.4} max={:>9.4}",
            self.count, self.mean, self.std_dev, self.min, self.p50, self.p95, self.max
        )
    }
}

/// Linear-interpolated percentile of an already sorted slice; `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram with `nbins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram upper bound must exceed lower bound");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of recorded observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of observations at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Iterator over `(bin_center, count)` pairs.
    pub fn centers(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + width * (i as f64 + 0.5), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_from_slice() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_slice(&data);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 0.02);
        assert!(!s.report().is_empty());
    }

    #[test]
    fn summary_empty_slice() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 4.0);
        assert!((percentile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        // Out-of-range quantiles are clamped.
        assert_eq!(percentile_sorted(&v, 2.0), 4.0);
        assert_eq!(percentile_sorted(&v, -1.0), 1.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.bins()[9], 1);
        let centers: Vec<(f64, u64)> = h.centers().collect();
        assert_eq!(centers.len(), 10);
        assert!((centers[0].0 - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(5.0, 5.0, 4);
    }
}
