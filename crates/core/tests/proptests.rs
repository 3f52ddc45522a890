//! Property-based tests of the simulation kernel's data structures.

use proptest::prelude::*;

use eagletree_core::{EventQueue, Histogram, OnlineStats, SimDuration, SimRng, SimTime, Zipf};

/// Drive the queue and a model — a plain vector whose pop removes the
/// minimum `(time, seq)` — through the same schedule/pop trace and assert
/// every observable agrees: pop order, payloads, `now`, lengths, peeked
/// keys.
fn lockstep(ops: &[LockstepOp]) {
    let mut q = EventQueue::new();
    let mut model: Vec<(SimTime, u64, u64)> = Vec::new();
    let (mut next_seq, mut now) = (0u64, SimTime::ZERO);
    // The trace, then enough pops to drain whatever it left behind.
    let drain = std::iter::repeat_n(&LockstepOp::Pop, ops.len());
    for op in ops.iter().chain(drain) {
        match *op {
            LockstepOp::Schedule(delta, tag) => {
                let t = now + SimDuration::from_nanos(delta);
                q.schedule(t, tag);
                model.push((t, next_seq, tag));
                next_seq += 1;
            }
            LockstepOp::Pop => {
                let min = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1));
                let want = min.map(|i| model.swap_remove(i));
                now = want.map_or(now, |ev| ev.0);
                assert_eq!(q.pop().map(|e| (e.time, e.seq, e.payload)), want);
            }
        }
        assert_eq!(q.len(), model.len());
        assert_eq!(q.peek_key(), model.iter().map(|&(t, s, _)| (t, s)).min());
        assert_eq!(q.now(), now);
    }
    assert!(q.is_empty());
}

#[derive(Debug, Clone, Copy)]
enum LockstepOp {
    /// Schedule at `now + delta` with a payload tag.
    Schedule(u64, u64),
    Pop,
}

/// SplitMix-style payload tag so observably distinct events carry
/// distinct payloads without a second generator.
fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

fn lockstep_op_strategy() -> impl Strategy<Value = LockstepOp> {
    prop_oneof![
        // Dense near deltas: what flash completions look like.
        4 => (0u64..50_000).prop_map(|d| LockstepOp::Schedule(d, mix(d))),
        // Same-instant bursts exercise FIFO tie-breaking.
        2 => (0u64..1_000).prop_map(|t| LockstepOp::Schedule(0, t)),
        // Far outliers (timers, checkpoints) sit under everything else.
        1 => (10_000_000u64..50_000_000_000).prop_map(|d| LockstepOp::Schedule(d, mix(d))),
        4 => Just(LockstepOp::Pop),
    ]
}

proptest! {
    #[test]
    fn event_queue_matches_min_removal_model(
        ops in prop::collection::vec(lockstep_op_strategy(), 1..600),
    ) {
        lockstep(&ops);
    }
}

proptest! {
    #[test]
    fn event_queue_pops_total_order(times in prop::collection::vec(0u64..10_000, 1..500)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            if let Some((pt, pseq)) = prev {
                prop_assert!(e.time > pt || (e.time == pt && e.seq > pseq),
                    "order violated: {:?} after {:?}", (e.time, e.seq), (pt, pseq));
            }
            prev = Some((e.time, e.seq));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_fifo_within_timestamp(n in 1usize..200) {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..n {
            q.schedule(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn histogram_quantiles_bracket_true_values(
        mut samples in prop::collection::vec(1u64..100_000_000, 2..400),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        samples.sort_unstable();
        let est = h.quantile(q).as_nanos();
        // The log-bucketed estimate is a lower bound of its bucket and the
        // bucket has ≤ 12.5% relative width: the estimate must sit within
        // [min/1.125, max].
        let lo = samples[0] as f64 / 1.125;
        let hi = *samples.last().unwrap();
        prop_assert!((est as f64) >= lo - 1.0, "quantile {est} below all samples");
        prop_assert!(est <= hi, "quantile {est} above max {hi}");
        // Monotonicity in q.
        prop_assert!(h.quantile(0.0) <= h.quantile(q));
        prop_assert!(h.quantile(q) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_matches_exact_percentile_oracle_within_bucket_width(
        mut samples in prop::collection::vec(1u64..10_000_000_000, 1..500),
    ) {
        // The exact oracle: percentile = the sample of rank
        // max(1, ceil(q·n)) in the sorted vector (the histogram's own
        // rank rule). The histogram answer must equal the lower edge of
        // the bucket holding that sample, i.e. the error is bounded by
        // one bucket's width: answer ≤ exact < upper edge of the
        // answer's bucket.
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        samples.sort_unstable();
        let n = samples.len() as f64;
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            #[expect(
                clippy::cast_sign_loss,
                reason = "a sample rank; q is one of the literals above, n a length"
            )]
            let rank = ((q * n).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let est = h.quantile(q).as_nanos();
            let upper = h.quantile_upper(q).as_nanos();
            prop_assert!(
                est <= exact && exact < upper,
                "q={q}: estimate {est} / upper {upper} do not bracket exact {exact}"
            );
            // Bucket width ≤ 1/8 of the lower edge (8 sub-buckets per
            // power of two) once past the exact range: ≤ ~12.5% relative
            // quantile error.
            if est >= 16 {
                prop_assert!(upper - est <= est.div_ceil(8));
            }
        }
        // The one-call tail summary agrees with individual queries.
        let tail = h.tail();
        prop_assert_eq!(tail.count, samples.len() as u64);
        prop_assert_eq!(tail.p50, h.quantile(0.5));
        prop_assert_eq!(tail.p95, h.quantile(0.95));
        prop_assert_eq!(tail.p99, h.quantile(0.99));
        prop_assert_eq!(tail.p999, h.quantile(0.999));
    }

    #[test]
    fn histogram_merge_equals_combined(
        a in prop::collection::vec(1u64..1_000_000, 0..100),
        b in prop::collection::vec(1u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &x in &a { ha.record(SimDuration::from_nanos(x)); hall.record(SimDuration::from_nanos(x)); }
        for &x in &b { hb.record(SimDuration::from_nanos(x)); hall.record(SimDuration::from_nanos(x)); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.mean().as_nanos(), hall.mean().as_nanos());
        for qq in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(qq), hall.quantile(qq));
        }
    }

    #[test]
    fn online_stats_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() < 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn rng_gen_range_always_below_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    #[test]
    fn rng_shuffle_permutes(seed in any::<u64>(), n in 0usize..200) {
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_pmf_is_decreasing_and_normalized(n in 1usize..200, theta in 0.0f64..2.0) {
        let z = Zipf::new(n, theta);
        let mut total = 0.0;
        let mut prev = f64::INFINITY;
        for i in 0..n {
            let p = z.pmf(i);
            prop_assert!(p <= prev + 1e-12, "pmf not decreasing at {i}");
            prop_assert!(p >= 0.0);
            prev = p;
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range(seed in any::<u64>(), n in 1usize..500) {
        let z = Zipf::new(n, 0.99);
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
