//! Property tests for the lifecycle-span collector: across randomized
//! workloads (mix, intensity, queue depth, write buffering), the span
//! accounting must hold *exactly* — these are the invariants the
//! stage-attributed latency columns rest on.
//!
//! * every span closes with monotone timestamps (`start <= end`, its
//!   busy slices pairwise disjoint and inside `[start, end]`);
//! * the stage sums equal the end-to-end duration to the nanosecond (the
//!   cursor construction makes attribution exhaustive — nothing is lost
//!   and nothing double-charged);
//! * every acknowledged application IO has a closed span, and the
//!   per-tenant stage breakdowns saw exactly the completed IOs (the
//!   tenant's latency histograms hold their end-to-end latency, once);
//! * nothing stays open once the simulation quiesces.
//!
//! Half the cases run with a ring of 64: spans are folded and evicted and
//! their busy lists reused all run long, and every retained span must
//! still be whole. Retention never changes what a span records, so a span
//! a full ring keeps is the very span a ring large enough for the whole
//! run keeps under the same id.
//!
//! A third property runs the same checks with program failures injected.
//! A failed program reports its status when it completes, and only then
//! is its write queued again for another page, so a retried write's
//! windows follow one another like any other span's: the checks are the
//! same, with no exemption. `FAULTS=on` widens its cases, as it does
//! `fault_injection.rs`'s sweeps.

use eagletree_controller::RequestKind;
use eagletree_core::ObsConfig;
use eagletree_experiments::Setup;
use eagletree_flash::FaultConfig;
use eagletree_os::Os;
use eagletree_workloads::{sequential_fill, MixedGen, Pumped, Region};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Widen the fault arm when `FAULTS=on`.
fn full_matrix() -> bool {
    std::env::var("FAULTS").is_ok_and(|v| v == "on")
}

/// Program failures per program with `faults`: most cases see a few.
/// Each retires a block, and a LUN that runs out of spare blocks stops
/// with relocations left (ROADMAP item 2), so the fault arm exports less
/// of the device ([`FAULTY_CAPACITY`]) and keeps the rate low: every case
/// of the arm, `FAULTS=on` included, runs to quiescence.
const PROGRAM_FAIL: f64 = 0.003;
/// The share of the tiny device the fault arm exports.
const FAULTY_CAPACITY: f64 = 0.4;

/// A 32-page fill beside `ios` mixed IOs at queue depth `qd`, spans and
/// timeline on, run to quiescence; `faults`: with program failures.
fn run(
    ios: u64,
    qd: usize,
    read_pct: u32,
    buffer: u64,
    span_capacity: usize,
    seed: u64,
    faults: bool,
) -> Os {
    let mut setup = Setup::tiny();
    setup.ctrl.obs = ObsConfig {
        span_capacity,
        timeline_interval_us: 250,
    };
    setup.ctrl.write_buffer_pages = buffer;
    if faults {
        setup.ctrl.logical_capacity = FAULTY_CAPACITY;
        setup.ctrl.fault = Some(FaultConfig {
            seed,
            program_fail_base: PROGRAM_FAIL,
            ..FaultConfig::default()
        });
    }
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
    os.run().unwrap();
    os
}

/// What every run's spans must satisfy (see the module docs).
fn spans_account_exactly(os: &Os, span_capacity: usize) -> Result<(), TestCaseError> {
    let stats = os.tenant_stats(0);
    let (reads, writes) = (stats.reads_completed, stats.writes_completed);
    let obs = os.obs().expect("observability enabled");
    prop_assert_eq!(obs.open_count(), 0, "spans left open at quiescence");
    let evicting = span_capacity == 64;
    prop_assert_eq!(
        obs.dropped() > 0,
        evicting,
        "the large ring keeps every span"
    );
    prop_assert!(!evicting || obs.closed_count() == span_capacity);

    let (mut app_reads, mut app_writes) = (0u64, 0u64);
    for s in obs.spans() {
        // Monotone timestamps and contained busy slices.
        prop_assert!(s.end >= s.start, "span #{} ends before it starts", s.id);
        for (i, &(_, from, to)) in s.busy.iter().enumerate() {
            prop_assert!(from <= to, "span #{} has a negative busy slice", s.id);
            prop_assert!(
                s.start <= from && to <= s.end,
                "span #{} busy slice outside its lifetime",
                s.id
            );
            prop_assert!(
                s.busy[i + 1..]
                    .iter()
                    .all(|&(_, f, t)| t <= from || to <= f),
                "span #{} has overlapping busy slices",
                s.id
            );
        }
        // Exhaustive attribution: stage sums equal end-to-end exactly.
        prop_assert_eq!(
            s.stages.total(),
            s.end.since(s.start).as_nanos(),
            "span #{} ({}) lost time between stages",
            s.id,
            s.kind
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
    for t in 0..os.tenant_names().len() {
        let stats = os.tenant_stats(t);
        for (kind, completed) in [
            (RequestKind::Read, stats.reads_completed),
            (RequestKind::Write, stats.writes_completed),
        ] {
            let bd = obs.stage_breakdown(Some(t as u32), kind.name());
            prop_assert_eq!(
                bd.map_or(0, |b| b.count()),
                completed,
                "tenant {} {:?}",
                t,
                kind
            );
        }
    }
    Ok(())
}

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
        let os = run(ios, qd, read_pct, buffer, span_capacity, seed, false);
        spans_account_exactly(&os, span_capacity)?;
    }

    #[test]
    fn a_small_ring_retains_the_spans_a_large_one_does(
        ios in 1_500u64..4_000,
        qd in 1usize..32,
        read_pct in 0u32..101,
        buffer in prop_oneof![Just(0u64), Just(16u64)],
        seed in 0u64..1_000_000,
    ) {
        let large = run(ios, qd, read_pct, buffer, 1 << 16, seed, false);
        let small = run(ios, qd, read_pct, buffer, 64, seed, false);
        let (large, small) = (large.obs().unwrap(), small.obs().unwrap());
        prop_assert_eq!(large.dropped(), 0, "the large ring keeps every span");
        prop_assert_eq!(small.closed_count() as u64 + small.dropped(), large.closed_count() as u64);
        prop_assert!(small.dropped() > small.evicted(), "a full ring folds spans");
        // Both rings hold spans in close order, so one pass pairs them up.
        let mut whole = large.spans();
        for kept in small.spans() {
            let same = whole.find(|s| s.id == kept.id);
            prop_assert_eq!(same.map(|s| format!("{s:?}")), Some(format!("{kept:?}")));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if full_matrix() { 64 } else { 8 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn spans_account_exactly_under_program_failures(
        ios in 200u64..1200,
        qd in 1usize..32,
        read_pct in 0u32..101,
        buffer in prop_oneof![Just(0u64), Just(16u64)],
        span_capacity in prop_oneof![Just(1usize << 16), Just(64usize)],
        seed in 0u64..1_000_000,
    ) {
        let os = run(ios, qd, read_pct, buffer, span_capacity, seed, true);
        spans_account_exactly(&os, span_capacity)?;
    }
}
