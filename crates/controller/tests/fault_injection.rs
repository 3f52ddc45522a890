//! Media-fault property suite: the controller under an injected-fault
//! flash array.
//!
//! Three families of guarantees:
//!
//! * **Determinism.** The fault model draws from per-op hashes, not a
//!   shared RNG stream: a fixed-seed faulty run is byte-identical across
//!   repeats, exactly like a fault-free one. (`FAULTS=on` widens the matrix to every scheme × policy — the
//!   CI fault-matrix job sets it.)
//! * **No silent loss.** Every acknowledged write either remains mapped
//!   to a valid page or its logical page appears in the controller's
//!   lost-data ledger. Program failures remap in flight; uncorrectable
//!   reads are ledgered — nothing just vanishes.
//! * **Structural invariants.** `check_invariants` holds after heavy
//!   churn with failures injected, for every mapping scheme, and across
//!   a power-cut + remount of a medium that already carries grown bad
//!   blocks (the wear-out × recovery composition).

use std::collections::BTreeSet;

use eagletree_controller::{
    Controller, ControllerConfig, Driver, IoTags, Ledger, MappingKind, MergePolicy, RecoveryMode,
    RequestKind, SchedPolicy, ScrubConfig,
};
use eagletree_core::{ObsConfig, SimRng};
use eagletree_flash::FaultConfig;

/// Widen sweeps when the CI fault-matrix job sets `FAULTS=on`.
fn full_matrix() -> bool {
    std::env::var("FAULTS").is_ok_and(|v| v == "on")
}

/// A fault profile hot enough that a 2k-op run on the tiny array sees
/// program failures, transient and retiring erase failures, ECC retries
/// and the odd uncorrectable read — without starving the free pool.
fn test_faults() -> FaultConfig {
    FaultConfig {
        program_fail_base: 0.01,
        erase_fail_base: 0.15,
        raw_bits_base: 4.0,
        raw_bits_per_disturb: 0.05,
        ecc_bits: 6,
        read_retries: 2,
        ..FaultConfig::default()
    }
}

/// Mild read-error curve for the remount test: the mount-time OOB probe
/// has no retry ladder, so `raw_bits_base` close to the ECC strength
/// would shed a tenth of the mappings at scan time (by design — but this
/// test asserts survival, so it keeps reads clean and makes programs and
/// erases hostile instead).
fn remount_faults() -> FaultConfig {
    FaultConfig {
        program_fail_base: 0.02,
        erase_fail_base: 0.15,
        raw_bits_base: 1.0,
        ..FaultConfig::default()
    }
}

fn faulty_cfg(mapping: MappingKind, sched: SchedPolicy) -> ControllerConfig {
    ControllerConfig {
        mapping,
        sched,
        fault: Some(test_faults()),
        scrub: Some(ScrubConfig {
            check_every_ops: 128,
            read_disturb_threshold: 8,
            retention_threshold_s: 0.05,
            max_inflight: 1,
        }),
        // Spans on (sized to drop nothing): the fingerprint folds them.
        obs: ObsConfig {
            span_capacity: 1 << 16,
            timeline_interval_us: 0,
        },
        ..ControllerConfig::default()
    }
}

/// Fixed-seed workload against a faulty array: fill the device once
/// sequentially, then hammer a hot quarter of the space with mixed
/// writes/reads — the fill puts GC (and hence erases) on the critical
/// path, so every fault domain actually gets exercised. Returns the
/// driver for property checks.
fn churn(cfg: ControllerConfig, ops: usize) -> Driver {
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0xFA01_77E5);
    let hot = (logical / 4).max(1);
    let script: Vec<(RequestKind, u64, IoTags)> = (0..logical)
        .map(|lpn| (RequestKind::Write, lpn, IoTags::none()))
        .chain((0..ops).map(|i| {
            let lpn = rng.gen_range(hot);
            let tags = if i % 5 == 0 {
                IoTags::none().with_priority((i % 3) as u8)
            } else {
                IoTags::none()
            };
            // Writes + reads only: a trim legitimately unmaps its page,
            // which would muddy the acked-write survival property.
            match i % 10 {
                0..=6 => (RequestKind::Write, lpn, tags),
                _ => (RequestKind::Read, lpn, tags),
            }
        }))
        .collect();
    for chunk in script.chunks(96) {
        for &(kind, lpn, tags) in chunk {
            d.submit_tagged(kind, lpn, tags);
        }
        d.run();
    }
    d.run();
    d
}

/// Everything observable, rendered to one string (the determinism
/// fingerprint), reliability counters and the lifecycle-span stream (in
/// close order — the order-sensitive part) included.
fn fingerprint(d: &Driver) -> String {
    let mut out = String::new();
    for c in &d.done {
        out.push_str(&format!("{}@{}\n", c.id, c.at.as_nanos()));
    }
    out.push_str(&format!("{:?}\n", d.c.stats()));
    out.push_str(&format!("{:?}\n", d.c.merge_counters()));
    out.push_str(&format!("{:?}\n", d.c.array().counters()));
    out.push_str(&format!("{:?}\n", d.c.reliability()));
    if let Some(obs) = d.c.obs() {
        for span in obs.spans() {
            out.push_str(&format!("{span:?}\n"));
        }
        out.push_str(&format!("dropped={} open={}\n", obs.dropped(), obs.open_count()));
    }
    out
}

/// FNV-1a (64-bit) of a fingerprint string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden hashes of the faulty-run fingerprints (2000 ops),
/// generated from the simulator as it stood before the controller
/// decomposition (PR 12's parent) and never regenerated since. Rows:
/// `schemes()`; columns: `policies()`, in order.
const GOLDEN: [[u64; 5]; 3] = [
    [0x5ba9_95c8_b2ff_2fca, 0x6340_c428_9581_f505, 0xfa46_a58d_cad1_8e21,
     0x4355_2b38_2773_dd05, 0xb6e7_5a22_b2a5_da0b],
    [0xfb10_db39_e11c_2061, 0xc3c2_fcc0_d9fc_c958, 0xc984_fb10_62e0_6c1b,
     0x5662_c313_5c66_bf1b, 0xfb10_db39_e11c_2061],
    [0x9855_353a_440e_7673, 0x9f51_22ef_16a4_b195, 0x9f51_22ef_16a4_b195,
     0x8852_2316_88ba_d236, 0x9855_353a_440e_7673],
];

fn schemes() -> Vec<MappingKind> {
    vec![
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid {
            log_blocks: 3,
            merge: MergePolicy::Fifo,
        },
    ]
}

fn policies() -> Vec<(&'static str, SchedPolicy)> {
    vec![
        ("fifo", SchedPolicy::Fifo),
        ("class_priority", SchedPolicy::reads_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
        ("tag_priority", SchedPolicy::TagPriority),
    ]
}

#[test]
fn faulty_runs_are_byte_identical_across_repeats() {
    for mapping in schemes() {
        let pols = if full_matrix() {
            policies()
        } else {
            vec![policies().remove(0)]
        };
        for (name, policy) in pols {
            let a = fingerprint(&churn(faulty_cfg(mapping, policy.clone()), 2000));
            let b = fingerprint(&churn(faulty_cfg(mapping, policy), 2000));
            assert!(
                a == b,
                "{mapping:?}/{name}: faulty fingerprints diverged across repeats"
            );
        }
    }
}

#[test]
fn faulty_fingerprints_match_committed_goldens() {
    // Cross-commit determinism: every fault-handling path (program-fail
    // remap, erase retry/retire, read-retry, scrub) must keep producing
    // the exact completion stream, counters and spans it did when the
    // goldens were taken. Fifo only by default; `FAULTS=on` checks every
    // policy column.
    let cols = if full_matrix() { 5 } else { 1 };
    let got: Vec<Vec<u64>> = schemes()
        .into_iter()
        .map(|mapping| {
            policies()
                .into_iter()
                .take(cols)
                .map(|(_, policy)| fnv1a(&fingerprint(&churn(faulty_cfg(mapping, policy), 2000))))
                .collect()
        })
        .collect();
    let want: Vec<Vec<u64>> = GOLDEN.iter().map(|row| row[..cols].to_vec()).collect();
    assert!(
        got == want,
        "faulty fixed-seed behaviour changed since the goldens were committed; got\n{got:#018x?}"
    );
}

#[test]
fn faults_actually_fired_and_reliability_reports_them() {
    let d = churn(faulty_cfg(MappingKind::PageMap, SchedPolicy::Fifo), 2000);
    let rel = d.c.reliability().expect("fault model installed");
    assert!(rel.reads_sampled > 0);
    assert!(rel.corrected_bits > 0, "error curve never produced raw bits");
    assert!(rel.read_retries > 0, "ECC never needed a retry: {rel:?}");
    assert!(rel.program_fails > 0, "no program failures injected: {rel:?}");
    assert_eq!(
        rel.program_remaps, rel.program_fails,
        "every program failure must be remapped (none absorbed on the app path)"
    );
    assert!(rel.erase_fails > 0, "no erase failures injected: {rel:?}");
    assert!(rel.uber >= 0.0 && rel.uber.is_finite());
    // Scrubbing ran against the disturb the read-heavy mix built up.
    assert!(rel.scrub_refreshes > 0, "scrubber never refreshed: {rel:?}");
}

#[test]
fn no_acknowledged_write_is_lost_without_a_ledger_entry() {
    for mapping in schemes() {
        let d = churn(faulty_cfg(mapping, SchedPolicy::Fifo), 2000);
        let lost: BTreeSet<u64> = d.c.lost_data().collect();
        let mut verified = 0u64;
        for lpn in d.ledger.acked_writes() {
            let survives = Ledger::survives(&d.c, lpn);
            assert!(
                survives || lost.contains(&lpn),
                "{mapping:?}: acked lpn {lpn} neither mapped-valid nor ledgered"
            );
            if survives {
                verified += 1;
            }
        }
        assert!(verified > 0, "{mapping:?}: nothing verified");
        // The ledger only ever names logical pages the device actually
        // served — it cannot invent losses.
        let logical = d.c.logical_pages();
        for &lpn in &lost {
            assert!(lpn < logical, "{mapping:?}: ledgered out-of-range lpn {lpn}");
        }
    }
}

#[test]
fn ftl_invariants_hold_under_injected_failures() {
    for mapping in schemes() {
        let d = churn(faulty_cfg(mapping, SchedPolicy::Fifo), 2000);
        d.c.check_invariants();
        let rel = d.c.reliability().unwrap();
        assert!(
            rel.program_fails + rel.erase_fails > 0,
            "{mapping:?}: the invariant check never saw a fault"
        );
    }
}

#[test]
fn remount_tolerates_grown_bad_blocks() {
    // Satellite wear-out × recovery composition: churn a faulty device
    // until blocks have actually been retired as grown bad, cut power,
    // and remount the scarred medium under both recovery modes.
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let cfg = ControllerConfig {
            checkpoint_interval_programs: 128,
            fault: Some(remount_faults()),
            ..faulty_cfg(MappingKind::PageMap, SchedPolicy::Fifo)
        };
        let mut d = churn(cfg.clone(), 2500);
        let rel = d.c.reliability().unwrap();
        assert!(
            rel.grown_bad_blocks > 0,
            "churn must retire blocks before the cut: {rel:?}"
        );
        let ledger = std::mem::take(&mut d.ledger);
        let pre_lost: BTreeSet<u64> = d.c.lost_data().collect();
        let image = d.c.power_cut(d.now);
        let (c2, rep) = Controller::remount(image, cfg, mode).expect("remount scarred medium");
        c2.check_invariants();
        // The wear scars survive the remount.
        let rel2 = c2.reliability().expect("fault model carried across");
        assert_eq!(rel2.grown_bad_blocks, rel.grown_bad_blocks);
        // Acked writes still survive (or were already ledgered pre-cut).
        for lpn in ledger.acked_writes() {
            assert!(
                Ledger::survives(&c2, lpn) || pre_lost.contains(&lpn),
                "{mode:?}: acked lpn {lpn} lost across remount of scarred medium"
            );
        }
        // The report is coherent; uncorrectable OOB reads (if any) were
        // skipped, not fatal.
        assert!(rep.oob_scanned > 0);
        assert!(rep.mount_time.as_nanos() > 0);
    }
}

#[test]
fn disabled_fault_model_reports_nothing() {
    let d = churn(ControllerConfig::default(), 500);
    assert!(d.c.reliability().is_none());
    assert_eq!(d.c.lost_data().count(), 0);
    assert!(d.c.array().fault().is_none());
}
