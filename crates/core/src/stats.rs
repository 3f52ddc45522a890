//! Streaming statistics for the experimental suite.
//!
//! Experiments report throughput, mean latency, latency variability and tail
//! percentiles per IO class. These collectors are O(1) per sample so they
//! can be attached to every thread and every IO source without distorting
//! simulation performance:
//!
//! * [`OnlineStats`] — Welford mean/variance plus min/max,
//! * [`Histogram`] — log-bucketed latency histogram with quantile queries.

use crate::time::SimDuration;

/// Welford-style streaming mean / variance / min / max.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if self.count == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another collector into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
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
}

/// Log-bucketed histogram of durations (nanoseconds), for quantile queries.
///
/// Buckets are `[2^k, 2^(k+1))` with 8 sub-buckets each, giving ≤ ~12%
/// relative quantile error over the full nanosecond-to-minutes range with a
/// few hundred fixed buckets — the classic HdrHistogram-style layout, sized
/// for simulation latencies.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

const SUB_BITS: u32 = 3; // 8 sub-buckets per power of two
const NUM_BUCKETS: usize = (64 << SUB_BITS) as usize;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }

    fn index_of(ns: u64) -> usize {
        // Values below 2^(SUB_BITS+1) map to themselves (exact buckets);
        // larger values use (exponent, sub-bucket) addressing. The identity
        // range ends below the first computed index (SUB_BITS+1 << SUB_BITS),
        // so the two ranges never collide.
        if ns < (2 << SUB_BITS) {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((exp as u64) << SUB_BITS) | sub) as usize
    }

    /// Lower bound of the bucket at `idx` (the value reported for quantiles).
    fn value_of(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < (2 << SUB_BITS) {
            return idx;
        }
        let exp = (idx >> SUB_BITS) as u32;
        let sub = idx & ((1 << SUB_BITS) - 1);
        if exp <= SUB_BITS {
            // Indices in the gap between the identity range and the first
            // computed index are unused by `index_of`; clamp to the identity
            // boundary so quantile scans stay monotonic.
            return 2 << SUB_BITS;
        }
        (1u64 << exp) | (sub << (exp - SUB_BITS))
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.buckets[Self::index_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded durations.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// The bucket holding the sample of rank `max(1, ceil(q·count))` —
    /// the one rank rule both quantile edges share.
    ///
    /// `q` outside `[0, 1]` is a caller bug: debug builds assert, release
    /// builds clamp to the nearest edge instead of silently mis-indexing
    /// through the float→int cast. NaN is asserted too and clamps to 0
    /// (the `partial_cmp` below is false for NaN, leaving the minimum).
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        debug_assert!(
            (0.0..=1.0).contains(&q),
            "quantile fraction must be in [0, 1], got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let q = if q.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater) {
            q.min(1.0)
        } else {
            0.0 // negative or NaN
        };
        #[expect(
            clippy::cast_sign_loss,
            reason = "a sample rank; q is clamped to [0, 1] just above"
        )]
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(i);
            }
        }
        Some(NUM_BUCKETS - 1)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket lower bound.
    ///
    /// An empty histogram returns [`SimDuration::ZERO`] for every `q`.
    /// Out-of-range or NaN `q` asserts in debug builds and clamps into
    /// `[0, 1]` (NaN to 0) in release builds.
    pub fn quantile(&self, q: f64) -> SimDuration {
        match self.quantile_bucket(q) {
            None => SimDuration::ZERO,
            Some(i) => SimDuration::from_nanos(Self::value_of(i)),
        }
    }

    /// Median.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> SimDuration {
        self.quantile(0.999)
    }

    /// The full tail summary (count, mean, p50/p95/p99/p99.9) in one call —
    /// what per-tenant QoS accounting reports per op class.
    pub fn tail(&self) -> Tail {
        Tail {
            count: self.count,
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            p999: self.p999(),
        }
    }

    /// Upper edge (exclusive) of the bucket a quantile query for `q` drew
    /// its answer from. Together with [`Histogram::quantile`] (the bucket's
    /// lower edge) this brackets the exact order-statistic: the histogram's
    /// quantile error is bounded by the width of one bucket.
    pub fn quantile_upper(&self, q: f64) -> SimDuration {
        match self.quantile_bucket(q) {
            None => SimDuration::ZERO,
            Some(i) if i + 1 < NUM_BUCKETS => {
                SimDuration::from_nanos(Self::value_of(i + 1))
            }
            Some(_) => SimDuration::from_nanos(u64::MAX),
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }
}

/// Tail-latency summary of one [`Histogram`]: the percentiles the
/// multi-tenant experiments plot (each a bucket lower bound, so within one
/// bucket width — ≤ ~12% relative — of the exact order statistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tail {
    pub count: u64,
    pub mean: SimDuration,
    pub p50: SimDuration,
    pub p95: SimDuration,
    pub p99: SimDuration,
    pub p999: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 19) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..40] {
            a.record(x);
        }
        for &x in &xs[40..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p50 = h.p50().as_nanos();
        // True median is 500us; log-buckets give ≤ ~12.5% error.
        assert!(
            (400_000..=600_000).contains(&p50),
            "p50 {p50}ns outside tolerance"
        );
        let p99 = h.p99().as_nanos();
        assert!(
            (850_000..=1_100_000).contains(&p99),
            "p99 {p99}ns outside tolerance"
        );
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(100));
        h.record(SimDuration::from_nanos(300));
        assert_eq!(h.mean().as_nanos(), 200);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "quantile fraction must be in [0, 1]")]
    fn quantile_out_of_range_asserts_in_debug() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(1));
        let _ = h.quantile(1.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "quantile fraction must be in [0, 1]")]
    fn quantile_nan_asserts_in_debug() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(1));
        let _ = h.quantile(f64::NAN);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().as_nanos(), 15_000);
    }

    #[test]
    fn histogram_index_value_roundtrip_is_lower_bound() {
        for ns in [0u64, 1, 7, 8, 9, 100, 1023, 1024, 123_456_789] {
            let idx = Histogram::index_of(ns);
            let lo = Histogram::value_of(idx);
            assert!(lo <= ns, "lower bound {lo} above sample {ns}");
            // And the next bucket starts above the sample.
            if idx + 1 < NUM_BUCKETS {
                assert!(Histogram::value_of(idx + 1) > ns);
            }
        }
    }
}
