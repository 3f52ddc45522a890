//! Determinism regression: a fixed-seed mixed workload must produce
//! byte-identical completions, counters and lifecycle-span stream across
//! runs — and across commits: the fingerprints are pinned to text goldens.
//! Event-ordering bugs — easy to introduce with multi-step merge machinery
//! or with the slab/ready-queue dispatch structures — fail loudly here
//! instead of as flaky experiment numbers.
//!
//! Coverage is the cross product that exercises every ordering decision:
//! all three mapping schemes and all five `SchedPolicy` variants (the
//! workload carries priority tags so `TagPriority` actually discriminates).

mod common;

use common::{fingerprint, mappings, policies};
use eagletree_controller::{
    Controller, ControllerConfig, Driver, IoTags, MappingKind, RecoveryMode, RequestKind,
    SchedPolicy, WlConfig,
};
use eagletree_core::digest::{Fingerprint, Golden};
use eagletree_core::{ObsConfig, SimRng};

/// Run a fixed-seed mixed write/trim/read workload (every fifth request
/// priority-tagged) and render everything observable ([`fingerprint`]).
fn run_fingerprint(mapping: MappingKind, sched: SchedPolicy) -> Fingerprint {
    run_fingerprint_obs(mapping, sched, SPANS_ON)
}

/// Span collection on, sized so the 2000-op run drops nothing.
const SPANS_ON: ObsConfig = ObsConfig {
    span_capacity: 1 << 16,
    timeline_interval_us: 0,
};

fn run_fingerprint_obs(mapping: MappingKind, sched: SchedPolicy, obs: ObsConfig) -> Fingerprint {
    let cfg = ControllerConfig {
        mapping,
        sched,
        obs,
        wl: WlConfig {
            check_every_erases: 16,
            young_delta: 4,
            idle_factor: 0.5,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0xD17E_2B11);
    let ops: Vec<(RequestKind, u64, IoTags)> = (0..2000u32)
        .map(|i| {
            let lpn = rng.gen_range(logical);
            let tags = if i % 5 == 0 {
                IoTags::none().with_priority((i % 3) as u8)
            } else {
                IoTags::none()
            };
            match i % 10 {
                0..=5 => (RequestKind::Write, lpn, tags),
                6 => (RequestKind::Trim, lpn, tags),
                _ => (RequestKind::Read, lpn, tags),
            }
        })
        .collect();
    // Burst size trades run time against queue contention; 96 keeps every
    // scheduling policy's decisions observable (deep enough queues that
    // rankings disagree) while the whole suite stays fast.
    for chunk in ops.chunks(96) {
        for &(kind, lpn, tags) in chunk {
            d.submit_tagged(kind, lpn, tags);
        }
        d.run().unwrap();
    }
    d.run().unwrap();
    fingerprint(&d)
}

/// Every scheme × policy run against `goldens/determinism.txt`.
#[test]
fn fingerprints_match_committed_goldens() {
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "determinism");
    for (row, mapping) in mappings() {
        for (col, policy) in policies() {
            golden.record(row, col, run_fingerprint(mapping, policy));
        }
    }
    golden.check(include_str!("goldens/determinism.txt"));
}

#[test]
fn all_schemes_run_deterministically() {
    for mapping in [
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid { log_blocks: 4 },
    ] {
        let a = run_fingerprint(mapping, SchedPolicy::Fifo).text();
        let b = run_fingerprint(mapping, SchedPolicy::Fifo).text();
        assert!(a == b, "{mapping:?} fingerprints diverged");
    }
}

#[test]
fn observability_never_perturbs_the_schedule() {
    // The span collector is a pure recorder: it schedules no events,
    // consults no RNG and steers no control flow, so the fixed-seed
    // fingerprint (completions, counters) of an instrumented run must be
    // byte-identical to the uninstrumented one — across every mapping
    // scheme. The instrumented fingerprint only appends its span stream.
    let on = ObsConfig {
        span_capacity: 1 << 16,
        timeline_interval_us: 100,
    };
    for (_, mapping) in mappings() {
        let off = run_fingerprint_obs(mapping, SchedPolicy::Fifo, ObsConfig::default()).text();
        let with = run_fingerprint_obs(mapping, SchedPolicy::Fifo, on).text();
        assert!(
            with.starts_with(&off) && with.len() > off.len(),
            "{mapping:?}: enabling observability changed the simulation"
        );
    }
}

#[test]
fn sched_policies_actually_differ() {
    // Sanity for the test itself: if every policy produced the same
    // fingerprint the cross-product above would be vacuous (e.g. tags
    // stripped, or ready-queues collapsing policy distinctions).
    let prints: Vec<String> = policies()
        .into_iter()
        .map(|(_, p)| run_fingerprint(MappingKind::PageMap, p).text())
        .collect();
    let distinct: std::collections::BTreeSet<&String> = prints.iter().collect();
    // On this mix reads are the minority class, so reads-first,
    // EDF-with-default-deadlines and Fair legitimately converge on the
    // same schedule; FIFO and TagPriority must still disagree with them
    // and each other.
    assert!(
        distinct.len() >= 3,
        "expected scheduling policies to produce distinct schedules, got {} distinct of {}",
        distinct.len(),
        prints.len()
    );
}

/// Run a checkpointed churn with GC under `mapping`, cut power while
/// programs are in flight, and remount under each [`RecoveryMode`]; for
/// each remount, the recovery report, every page's OOB record and torn
/// flag, and every logical page's mapping.
fn crash_remount_fingerprints(mapping: MappingKind) -> [Fingerprint; 2] {
    let cfg = ControllerConfig {
        mapping,
        checkpoint_interval_programs: 64,
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg.clone());
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0x0C0B_2E57);
    let mut stalls = Vec::new();
    for i in 0..3000u32 {
        let lpn = rng.gen_range(logical);
        let kind = if i % 16 == 0 { RequestKind::Trim } else { RequestKind::Write };
        d.submit(kind, lpn);
        if i % 32 == 31 {
            if let Err(stuck) = d.run() {
                stalls.push(format!("op {i}: {stuck}"));
            }
        }
    }
    // ROADMAP item 2's relocation stall: under DFTL a GC write waits from
    // op 2815 on for a block its LUN has no room for. The churn goes on
    // around it, so the cut below still has programs in flight. Every
    // burst's stop is pinned, so a later, different or missing stall, or
    // any stall under another scheme, fails.
    let dftl_stall = |i: u32, free: &str| {
        format!(
            "op {i}: device stuck, agenda empty: 1 pending ops can never issue (1 GcWrite); \
             free blocks per LUN [{free}]; reclaim jobs (lun, source, moves left) \
             [(3, GarbageCollection, 1)]"
        )
    };
    let want: Vec<String> = if matches!(mapping, MappingKind::Dftl { .. }) {
        let burst = (2815..2975).step_by(32).map(|i| dftl_stall(i, "2, 2, 2, 0"));
        burst.chain([dftl_stall(2975, "1, 2, 2, 0")]).collect()
    } else {
        Vec::new()
    };
    assert_eq!(stalls, want, "{mapping:?}");
    // Cut a few events into the last burst, with programs in flight.
    d.step_n(12);
    let reclaimed = d.c.stats().gc_erases + d.c.stats().merge_erases;
    assert!(reclaimed > 0, "{mapping:?}: the churn never reclaimed a block");
    let image = d.power_cut();
    assert!(image.has_checkpoint(), "{mapping:?}: no checkpoint committed");
    [RecoveryMode::FullScan, RecoveryMode::Checkpoint].map(|mode| {
        let (c, report) = Controller::remount(image.clone(), cfg.clone(), mode).unwrap();
        assert!(report.torn_pages > 0, "{mapping:?}/{mode:?}: the cut tore no page");
        assert_eq!(report.used_checkpoint, mode == RecoveryMode::Checkpoint);
        let mut fp = Fingerprint::default();
        *fp.section("report") += &format!("{report:?}\n");
        let (a, oob) = (c.array(), fp.section("oob"));
        for p in 0..a.geometry().total_pages() {
            *oob += &format!("{:?} {}\n", a.oob_at(p), a.is_torn_at(p));
        }
        let map = fp.section("map");
        for lpn in 0..logical {
            *map += &format!("{:?}\n", c.peek_mapping(lpn));
        }
        fp
    })
}

/// What a power cut and remount leave on the medium and in the map, per
/// scheme and recovery mode, against `goldens/crash_remount.txt`.
#[test]
fn crash_remount_state_matches_pinned_digests() {
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "crash_remount");
    for (row, mapping) in mappings() {
        let [full, checkpoint] = crash_remount_fingerprints(mapping);
        golden.record(row, "full_scan", full);
        golden.record(row, "checkpoint", checkpoint);
    }
    golden.check(include_str!("goldens/crash_remount.txt"));
}
