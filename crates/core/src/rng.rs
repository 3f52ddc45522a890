//! Deterministic random number generation.
//!
//! EagleTree results must be reproducible across platforms and across runs,
//! so the simulator carries its own PRNG rather than depending on `rand`'s
//! unstable-by-version algorithms. [`SimRng`] is SplitMix64 — tiny, fast,
//! and statistically adequate for workload generation — and [`Zipf`] is the
//! skewed-access distribution used by the hot/cold workloads.

/// A deterministic SplitMix64 PRNG.
///
/// SplitMix64 passes BigCrush for the use here (workload generation) and has
/// a one-word state, so cloning a generator to fork per-thread streams is
/// cheap. Identical seeds produce identical streams on every platform.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Any seed (including zero) is fine.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Fork an independent stream, e.g. one per workload thread, so that
    /// adding a thread does not perturb the streams of existing threads.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}

/// A Zipf-distributed sampler over `0..n`.
///
/// Rank 0 is the hottest item. `theta = 0` degenerates to uniform;
/// `theta ≈ 0.99` is the usual YCSB-style skew. Sampling is O(log n) by
/// binary search over the precomputed CDF; for the population sizes
/// EagleTree sweeps (≤ a few million logical pages) the table is small.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` items with skew `theta >= 0`.
    ///
    /// Panics if `n == 0` or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf population must be non-empty");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf theta must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating point droop at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of items in the population.
    pub fn population(&self) -> usize {
        self.cdf.len()
    }

    /// Sample a rank in `0..n` (0 = hottest).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        // partition_point returns the first index with cdf[i] >= u … we want
        // the smallest i such that u < cdf[i].
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SimRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SimRng::new(99);
        let mut counts = [0usize; 10];
        let n = 100_000usize;
        for _ in 0..n {
            counts[rng.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                c.abs_diff(expected) < expected / 10,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::new(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SimRng::new(123);
        let n = 100_000;
        let hot = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        // With theta=0.99 the top 10% of ranks carry well over half the mass.
        assert!(
            hot as f64 / n as f64 > 0.6,
            "only {hot}/{n} samples hit the hot 10%"
        );
    }

    #[test]
    fn zipf_samples_cover_population_bounds() {
        let z = Zipf::new(10, 1.2);
        let mut rng = SimRng::new(77);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 0.8);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn zipf_rejects_empty_population() {
        Zipf::new(0, 1.0);
    }
}
