//! Property tests for the lifecycle-span collector: across randomized
//! workloads (mix, intensity, queue depth, write buffering), the span
//! accounting must hold *exactly* — these are the invariants the
//! stage-attributed latency columns rest on.
//!
//! * every span closes with monotone timestamps (`start <= end`, every
//!   busy slice inside `[start, end]`);
//! * the stage sums equal the end-to-end duration to the nanosecond (the
//!   cursor construction makes attribution exhaustive — nothing is lost
//!   and nothing double-charged);
//! * every acknowledged application IO has a closed span, and the
//!   per-tenant stage breakdowns saw exactly the completed IOs;
//! * nothing stays open once the simulation quiesces.
//!
//! Half the cases run with a ring of 64: spans are evicted and their busy
//! lists reused all run long, and every retained span must still be whole.

use eagletree_core::ObsConfig;
use eagletree_experiments::Setup;
use eagletree_workloads::{sequential_fill, MixedGen, Pumped, Region};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn spans_account_exactly_for_every_acked_io(
        ios in 200u64..1200,
        qd in 1usize..32,
        read_pct in 0u32..101,
        buffer in prop_oneof![Just(0u64), Just(16u64)],
        span_capacity in prop_oneof![Just(1usize << 16), Just(64usize)],
        seed in 0u64..1_000_000,
    ) {
        let mut setup = Setup::tiny();
        setup.ctrl.obs = ObsConfig {
            span_capacity,
            timeline_interval_us: 250,
        };
        setup.ctrl.write_buffer_pages = buffer;
        setup.os.queue_depth = qd;
        let mut os = setup.build();
        os.add_thread(sequential_fill(32));
        os.add_thread(Box::new(
            Pumped::new(
                MixedGen::new(Region::whole(), ios, read_pct as f64 / 100.0),
                qd as u64,
                seed,
            )
            .named("mixed"),
        ));
        os.run();

        let stats = os.tenant_stats(0);
        let (reads, writes) = (stats.reads_completed, stats.writes_completed);
        let obs = os.obs().expect("observability enabled");
        prop_assert_eq!(obs.open_count(), 0, "spans left open at quiescence");
        let evicting = span_capacity == 64;
        prop_assert_eq!(obs.dropped() > 0, evicting, "the large ring keeps every span");
        prop_assert!(!evicting || obs.closed_count() == span_capacity);

        let (mut app_reads, mut app_writes) = (0u64, 0u64);
        for s in obs.spans() {
            // Monotone timestamps and contained busy slices.
            prop_assert!(s.end >= s.start, "span #{} ends before it starts", s.id);
            for &(_, from, to) in &s.busy {
                prop_assert!(from <= to, "span #{} has a negative busy slice", s.id);
                prop_assert!(
                    s.start <= from && to <= s.end,
                    "span #{} busy slice outside its lifetime", s.id
                );
            }
            // Exhaustive attribution: stage sums equal end-to-end exactly.
            prop_assert_eq!(
                s.stages.total(),
                s.end.since(s.start).as_nanos(),
                "span #{} ({}) lost time between stages", s.id, s.kind
            );
            // Application lifecycle spans carry their tenant; internal ops
            // scheduled in the app classes (e.g. write-buffer flushes ride
            // `AppWrite`) do not.
            if s.tenant.is_some() {
                match s.kind {
                    "AppRead" => app_reads += 1,
                    "AppWrite" => app_writes += 1,
                    _ => {}
                }
            }
        }
        // Every acknowledged application IO closed a span (the fill thread
        // and the measured thread both run in the default tenant).
        if !evicting {
            prop_assert_eq!(app_reads, reads, "acked reads without a closed span");
            prop_assert_eq!(app_writes, writes, "acked writes without a closed span");
        }
        // …and the tenant stage breakdowns saw exactly those IOs, whatever
        // the ring has dropped since.
        use eagletree_controller::RequestKind;
        let bd_reads = stats.stage_breakdown(RequestKind::Read).map_or(0, |b| b.count());
        let bd_writes = stats.stage_breakdown(RequestKind::Write).map_or(0, |b| b.count());
        prop_assert_eq!(bd_reads, reads);
        prop_assert_eq!(bd_writes, writes);
    }
}
