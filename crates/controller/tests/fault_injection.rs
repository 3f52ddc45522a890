//! Media-fault property suite: the controller under an injected-fault
//! flash array.
//!
//! Three families of guarantees:
//!
//! * **Determinism.** The fault model draws from per-op hashes, not a
//!   shared RNG stream: a fixed-seed faulty run reproduces its committed
//!   golden, exactly like a fault-free one. (`FAULTS=on` widens the matrix
//!   to every scheme × policy — the CI fault-matrix job sets it.)
//! * **No silent loss.** The driver's live and cut checks: every
//!   acknowledged write either remains mapped to a valid page or its
//!   logical page appears in the controller's lost-data ledger. Program
//!   failures remap in flight; uncorrectable reads are ledgered — nothing
//!   just vanishes.
//! * **Structural invariants.** `check_invariants` holds after heavy
//!   churn with failures injected, for every mapping scheme, and across
//!   a power-cut + remount of a medium that already carries grown bad
//!   blocks (the wear-out × recovery composition).

mod common;

use common::{fingerprint, mappings, policies};
use eagletree_controller::{
    Controller, ControllerConfig, Driver, IoTags, MappingKind, RecoveryMode, RequestKind,
    SchedPolicy, ScrubConfig, Stuck,
};
use eagletree_core::digest::Golden;
use eagletree_core::{ObsConfig, SimRng};
use eagletree_flash::FaultConfig;

/// A fault profile hot enough that a 2k-op run on the tiny array sees
/// program failures, transient and retiring erase failures, ECC retries
/// and the odd uncorrectable read — and retires blocks until the device
/// reaches end of life ([`faulty_churn`]).
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
/// driver for property checks and how its last run ended.
fn churn(cfg: ControllerConfig, ops: usize) -> (Driver, Result<(), Stuck>) {
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
        // A chunk may stop before the device reaches end of life (page map
        // and DFTL on ROADMAP item 2's relocation stall); the last run's
        // verdict is the one returned.
        let _ = d.run();
    }
    let ran = d.run();
    (d, ran)
}

/// [`churn`] under a fault profile, which it outlives (ROADMAP item 2):
/// the blocks retired as grown bad or worn out outnumber the spare ones,
/// so the logical space no longer fits and the run ends with no free
/// block on any LUN — end of life.
fn faulty_churn(cfg: ControllerConfig, ops: usize) -> Driver {
    let (d, ran) = churn(cfg, ops);
    let stuck = ran.expect_err("the faulty churn outlives the device");
    assert!(stuck.free_blocks.iter().all(|&f| f == 0), "{stuck}");
    let g = d.c.array().geometry();
    let spare = g.total_blocks() - d.c.logical_pages().div_ceil(g.pages_per_block.into());
    let lost = d.c.reliability().unwrap().grown_bad_blocks + d.c.stats().bad_blocks_retired;
    assert!(lost > spare, "{lost} blocks lost, {spare} spare");
    d
}

#[test]
fn faulty_fingerprints_match_committed_goldens() {
    // Cross-commit determinism: every fault-handling path (program-fail
    // remap, erase retry/retire, read-retry, scrub) must keep producing
    // the exact completion stream, counters and spans it did when the
    // goldens were taken. Fifo only by default; `FAULTS=on` (the CI
    // fault-matrix job) checks every policy column.
    let cols = if std::env::var("FAULTS").is_ok_and(|v| v == "on") { 5 } else { 1 };
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "fault_injection");
    for (row, mapping) in mappings() {
        for (col, policy) in policies().into_iter().take(cols) {
            let d = faulty_churn(faulty_cfg(mapping, policy), 2000);
            golden.record(row, col, fingerprint(&d));
        }
    }
    golden.check(include_str!("goldens/fault_injection.txt"));
}

#[test]
fn faults_actually_fired_and_reliability_reports_them() {
    let d = faulty_churn(faulty_cfg(MappingKind::PageMap, SchedPolicy::Fifo), 2000);
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
    for (_, mapping) in mappings() {
        let d = faulty_churn(faulty_cfg(mapping, SchedPolicy::Fifo), 2000);
        let rel = d.c.reliability().unwrap();
        assert!(rel.program_fails + rel.erase_fails > 0, "{mapping:?}: no fault to check under");
        // The live check runs `check_invariants` first.
        let kept = d.check_promises().unwrap_or_else(|e| panic!("{mapping:?}: {e}"));
        assert!(kept > 0, "{mapping:?}: nothing verified");
        // The ledger only ever names logical pages the device actually
        // served — it cannot invent losses.
        let logical = d.c.logical_pages();
        for lpn in d.c.lost_data() {
            assert!(lpn < logical, "{mapping:?}: ledgered out-of-range lpn {lpn}");
        }
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
        let d = faulty_churn(cfg.clone(), 2500);
        let rel = d.c.reliability().unwrap();
        assert!(
            rel.grown_bad_blocks > 0,
            "churn must retire blocks before the cut: {rel:?}"
        );
        let promised = d.promised();
        let image = d.power_cut();
        let (c2, rep) = Controller::remount(image, cfg, mode).expect("remount scarred medium");
        // Acked writes still survive (or were already ledgered pre-cut).
        promised.check(&c2).unwrap_or_else(|e| panic!("{mode:?}: scarred medium: {e}"));
        // The wear scars survive the remount.
        let rel2 = c2.reliability().expect("fault model carried across");
        assert_eq!(rel2.grown_bad_blocks, rel.grown_bad_blocks);
        // The report is coherent; uncorrectable OOB reads (if any) were
        // skipped, not fatal.
        assert!(rep.oob_scanned > 0);
        assert!(rep.mount_time.as_nanos() > 0);
    }
}

#[test]
fn disabled_fault_model_reports_nothing() {
    let (d, ran) = churn(ControllerConfig::default(), 500);
    ran.expect("a fault-free churn runs to quiescence");
    assert!(d.c.reliability().is_none());
    assert_eq!(d.c.lost_data().count(), 0);
    assert!(d.c.array().fault().is_none());
}

/// Failures of one kind only, drawn under `seed`: programs fail at
/// `program`, erases at `erase`, and reads see no bit errors.
fn only_failing(seed: u64, program: f64, erase: f64) -> FaultConfig {
    FaultConfig {
        seed,
        program_fail_base: program,
        program_fail_per_pe: 0.0,
        erase_fail_base: erase,
        erase_fail_per_pe: 0.0,
        raw_bits_base: 0.0,
        raw_bits_per_pe: 0.0,
        raw_bits_per_retention_s: 0.0,
        raw_bits_per_disturb: 0.0,
        ..FaultConfig::default()
    }
}

/// Spans on, sized to keep every span of a short run.
const EVERY_SPAN: ObsConfig = ObsConfig {
    span_capacity: 1 << 16,
    timeline_interval_us: 0,
};

/// NAND reports a program's status only once the program has run (ONFI
/// "Read Status" after tPROG): the write a failed program carried is
/// retried no earlier than the failed command's end, whether or not the
/// controller pipelines programs. The one failure of this seed hits a
/// host write, whose span holds both windows.
#[test]
fn a_failed_program_is_retried_once_it_completes() {
    for cached in [true, false] {
        let mut d = Driver::tiny(ControllerConfig {
            use_cached_program: cached,
            fault: Some(only_failing(0, 0.01, 0.0)),
            obs: EVERY_SPAN,
            ..ControllerConfig::default()
        });
        let writes: Vec<_> = (0..128).map(|lpn| (RequestKind::Write, lpn)).collect();
        d.submit_windowed(&writes, 2).unwrap();
        assert_eq!(d.c.stats().program_remaps, 1, "cached {cached}");
        let obs = d.c.obs().unwrap();
        let retried: Vec<_> = obs.spans().filter(|s| s.busy.len() > 1).collect();
        let [s] = &retried[..] else {
            panic!("cached {cached}: {retried:?}")
        };
        let [(_, _, failed_end), (_, retry_from, _)] = s.busy[..] else {
            panic!("{s:?}")
        };
        assert!(
            retry_from >= failed_end,
            "cached {cached}: retry issued at {retry_from:?}, the failed program ends at {failed_end:?}"
        );
    }
}

/// The erase arm of the same contract: an erase's status is known once
/// the erase has run, so a transiently failed erase is issued again no
/// earlier than the failed one's end.
#[test]
fn a_failed_erase_is_retried_once_it_completes() {
    let mut d = Driver::tiny(ControllerConfig {
        fault: Some(only_failing(8, 0.0, 0.004)),
        obs: EVERY_SPAN,
        ..ControllerConfig::default()
    });
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(7);
    let overwrites = (0..2 * logical).map(|_| rng.gen_range(logical / 2));
    let script: Vec<u64> = (0..logical).chain(overwrites).collect();
    // The instant the failed erase issued: the array draws the failure
    // then.
    let mut failed_at = None;
    for chunk in script.chunks(8) {
        for &lpn in chunk {
            d.submit(RequestKind::Write, lpn);
        }
        while d.step().is_some() {
            if failed_at.is_none() && d.c.reliability().unwrap().erase_fails > 0 {
                failed_at = Some(d.now);
            }
        }
    }
    d.run().unwrap();
    assert_eq!((d.c.reliability().unwrap().erase_fails, d.c.stats().erase_retries), (1, 1));
    let spans = d.c.obs().unwrap().spans();
    let erases: Vec<_> = spans.filter(|s| s.kind == "Erase").flat_map(|s| s.busy).collect();
    let failed_at = failed_at.unwrap();
    let failed = erases.iter().find(|w| w.1 == failed_at).expect("the failed erase's window");
    let retry = erases
        .iter()
        .filter(|w| w.0 == failed.0 && w.1 > failed.1)
        .min_by_key(|w| w.1)
        .expect("an erase after the failed one on its LUN");
    assert!(retry.1 >= failed.2, "retry {retry:?} issued inside the failed erase {failed:?}");
}
