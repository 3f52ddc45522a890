//! Crash-recovery property tests: power-cut a random workload at an
//! arbitrary event boundary, remount, and check the recovery guarantees —
//! for every mapping scheme (page map, DFTL, hybrid log-block) and both
//! recovery modes (full OOB scan, checkpoint replay):
//!
//! 1. **No acknowledged write lost** — a logical page whose last
//!    acknowledged operation was a write is mapped after the remount, and
//!    its physical page is readable (valid, not torn) with a matching OOB
//!    record.
//! 2. **No double mapping** — no two logical pages share a physical page.
//! 3. **Consistency** — the rebuilt controller passes the same
//!    cross-structure `check_invariants` the live controller does, and
//!    keeps working: post-recovery IO completes and re-verifies.
//!
//! Trims are journaled into the periodic mapping checkpoint: a page
//! trimmed before the last *committed* checkpoint stays dead across a cut
//! under checkpoint recovery (`checkpoint_recovery_keeps_trimmed_pages_dead`
//! below pins this). Trims after the last committed checkpoint — and all
//! trims under full-scan recovery, which has no checkpoint to consult —
//! remain RAM-only and may be resurrected, exactly like on real FTLs with
//! lazily-journaled deallocations; the property suite therefore still
//! does not require *every* trimmed page to stay unmapped across a cut.

use std::collections::BTreeMap;

use eagletree_controller::{
    Controller, ControllerConfig, Driver, Ledger, MappingKind, MergePolicy, RecoveryMode,
    RequestKind, WlConfig,
};
use eagletree_core::SimTime;
use eagletree_flash::{Geometry, OobTag, TimingSpec};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

fn schemes() -> Vec<(&'static str, MappingKind)> {
    vec![
        ("page_map", MappingKind::PageMap),
        ("dftl", MappingKind::Dftl { cmt_entries: 24 }),
        (
            "hybrid",
            MappingKind::Hybrid {
                log_blocks: 3,
                merge: MergePolicy::Fifo,
            },
        ),
    ]
}

fn config(mapping: MappingKind, checkpoint_interval: u64) -> ControllerConfig {
    ControllerConfig {
        mapping,
        checkpoint_interval_programs: checkpoint_interval,
        wl: WlConfig {
            check_every_erases: 16,
            young_delta: 4,
            idle_factor: 0.5,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    }
}

/// Drive `ops`, cut power after `crash_step` event boundaries (or at
/// quiescence if the workload is shorter), and verify both recovery modes
/// from the same captured medium.
fn check_crash(
    name: &str,
    mapping: MappingKind,
    checkpoint_interval: u64,
    ops: &[Op],
    qd: usize,
    crash_step: u64,
) -> Result<(), TestCaseError> {
    let cfg = config(mapping, checkpoint_interval);
    let mut d = Driver::tiny(cfg.clone());
    let logical = d.c.logical_pages();
    let mut budget = crash_step;
    'drive: for chunk in ops.chunks(qd) {
        for op in chunk {
            match *op {
                Op::Write(l) => d.submit(RequestKind::Write, l % logical),
                Op::Trim(l) => d.submit(RequestKind::Trim, l % logical),
                Op::Read(l) => d.submit(RequestKind::Read, l % logical),
            };
        }
        budget = d.step_n(budget);
        if budget == 0 {
            break 'drive;
        }
    }
    if budget > 0 {
        // Workload ended first: cut at quiescence (every write acked).
        d.run();
    }
    let cut_at = d.now;
    let must_mapped = d.ledger.must_be_mapped();
    let image = d.c.power_cut(cut_at);

    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let (c2, report) = Controller::remount(image.clone(), cfg.clone(), mode)
            .map_err(|e| TestCaseError::fail(format!("{name}: remount failed: {e}")))?;
        prop_assert_eq!(
            report.used_checkpoint,
            mode == RecoveryMode::Checkpoint && image.has_checkpoint(),
            "{}: unexpected recovery path",
            name
        );

        // 1. No acknowledged write lost, and every mapping is readable.
        for &lpn in &must_mapped {
            prop_assert!(
                Ledger::survives(&c2, lpn),
                "{}/{:?}: acknowledged write of lpn {} lost (cut at {:?}, step {})",
                name,
                mode,
                lpn,
                cut_at,
                crash_step
            );
        }
        let g = *c2.array().geometry();
        for lpn in 0..logical {
            let Some(ppn) = c2.peek_mapping(lpn) else { continue };
            prop_assert!(
                Ledger::survives(&c2, lpn),
                "{}/{:?}: lpn {} maps to a non-valid or torn page",
                name,
                mode,
                lpn
            );
            let oob = c2.array().oob(g.page_at(ppn));
            prop_assert!(
                matches!(oob, Some(e) if e.tag == (OobTag::Data { lpn })),
                "{}/{:?}: lpn {} maps to a page whose OOB says {:?}",
                name,
                mode,
                lpn,
                oob
            );
        }

        // 2. No double-mapped physical page.
        let mut owners: BTreeMap<u64, u64> = BTreeMap::new();
        for lpn in 0..logical {
            if let Some(ppn) = c2.peek_mapping(lpn) {
                if let Some(prev) = owners.insert(ppn, lpn) {
                    return Err(TestCaseError::fail(format!(
                        "{name}/{mode:?}: lpns {prev} and {lpn} both map to ppn {ppn}"
                    )));
                }
            }
        }

        // 3. Cross-structure consistency, before and after further IO.
        c2.check_invariants();
        let mut d2 = Driver::new(c2);
        for (i, &lpn) in must_mapped.iter().take(16).enumerate() {
            d2.submit(RequestKind::Read, lpn);
            d2.submit(RequestKind::Write, (i as u64 * 37) % logical);
        }
        d2.submit(RequestKind::Write, 0);
        d2.run();
        prop_assert!(
            d2.c.is_quiescent(),
            "{}/{:?}: post-recovery IO did not drain",
            name,
            mode
        );
        d2.c.check_invariants();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Clustered overwrites (GC/merge pressure) cut at a random boundary.
    #[test]
    fn power_cut_preserves_acknowledged_writes(
        ops in prop::collection::vec(
            prop_oneof![
                8 => (0u64..96).prop_map(Op::Write),
                1 => (0u64..96).prop_map(Op::Trim),
                2 => (0u64..96).prop_map(Op::Read),
            ],
            300..700,
        ),
        qd in 1usize..24,
        crash_step in 1u64..1500,
    ) {
        for (name, mapping) in schemes() {
            // Checkpoints every 64 programs: several commit before the cut.
            check_crash(name, mapping, 64, &ops, qd, crash_step)?;
        }
    }

    /// Uniform traffic without checkpointing (pure full-scan recovery).
    #[test]
    fn power_cut_without_checkpoints_recovers_by_full_scan(
        ops in prop::collection::vec(
            prop_oneof![
                5 => (0u64..4096).prop_map(Op::Write),
                1 => (0u64..4096).prop_map(Op::Trim),
            ],
            200..500,
        ),
        qd in 1usize..32,
        crash_step in 1u64..1000,
    ) {
        for (name, mapping) in schemes() {
            check_crash(name, mapping, 0, &ops, qd, crash_step)?;
        }
    }
}

/// Journaled trims survive checkpoint replay: pages trimmed before the
/// last committed checkpoint stay dead across a power cut — specifically
/// when the blocks holding their stale copies get re-scanned because
/// neighbouring pages kept programming past the checkpoint watermark
/// (exactly the case an unjournaled trim resurrects). The scenario is
/// phase-aligned against the 64-program checkpoint interval using the
/// observable commit counter: victims are written late in an interval,
/// trimmed, the next checkpoint commits (journaling the trims), and a
/// few more programs land in the victims' still-active blocks before the
/// cut so those blocks' newest stamps exceed the watermark.
#[test]
fn checkpoint_recovery_keeps_trimmed_pages_dead() {
    for (name, mapping) in schemes() {
        let cfg = config(mapping, 64);
        let mut d = Driver::tiny(cfg.clone());
        let logical = d.c.logical_pages();
        // Victims live in the upper half of the address space; filler
        // churn stays in the lower half so nothing rewrites a trimmed
        // page after its trim.
        let victims: Vec<u64> = (0..12).map(|i| logical / 2 + i * 3).collect();
        let mut filler = 0u64;
        let fill = |d: &mut Driver, filler: &mut u64, n: u64| {
            for _ in 0..n {
                d.submit(RequestKind::Write, *filler % (logical / 2));
                *filler += 1;
            }
            d.run();
        };
        // Park right after a commit so the interval phase is known.
        let fill_until_commit =
            |d: &mut Driver, filler: &mut u64, fill: &dyn Fn(&mut Driver, &mut u64, u64)| {
                let base = d.c.stats().checkpoints_committed;
                for _ in 0..400 {
                    fill(d, filler, 1);
                    if d.c.stats().checkpoints_committed > base {
                        return;
                    }
                }
                panic!("no checkpoint committed within 400 programs");
            };
        fill(&mut d, &mut filler, logical / 2); // baseline fill
        fill_until_commit(&mut d, &mut filler, &fill);
        // Burn most of the next interval, then write the victims late in
        // it: their copies sit in the currently-active blocks.
        fill(&mut d, &mut filler, 40);
        for &v in &victims {
            d.submit(RequestKind::Write, v);
        }
        d.run();
        for &v in &victims {
            d.submit(RequestKind::Trim, v);
        }
        d.run();
        // The next commit journals the trims; its watermark covers the
        // victims' copies.
        fill_until_commit(&mut d, &mut filler, &fill);
        // A few more programs extend the victims' still-active blocks
        // past the watermark, making them re-scan candidates — but not
        // enough for another commit (the journaling one stays last).
        fill(&mut d, &mut filler, 20);
        for &v in &victims {
            assert!(d.c.peek_mapping(v).is_none(), "{name}: lpn {v} mapped pre-cut");
        }
        let image = d.c.power_cut(d.now);
        assert!(image.has_checkpoint(), "{name}: no checkpoint committed");
        let (c2, report) =
            Controller::remount(image, cfg, RecoveryMode::Checkpoint).unwrap();
        assert!(report.used_checkpoint, "{name}: fell back to full scan");
        for &v in &victims {
            assert!(
                c2.peek_mapping(v).is_none(),
                "{name}: trimmed lpn {v} resurrected by checkpoint recovery"
            );
        }
        c2.check_invariants();
    }
}

/// The battery-backed write buffer survives a power cut: buffered
/// (acknowledged, unflushed) writes are re-installed at remount and remain
/// readable.
#[test]
fn battery_backed_buffer_survives_power_cut() {
    let cfg = ControllerConfig {
        write_buffer_pages: 8,
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg.clone());
    for lpn in 0..4 {
        d.submit(RequestKind::Write, lpn);
    }
    // Buffered writes acknowledge instantly; cut before anything flushes.
    let batch = d.c.advance(SimTime::ZERO);
    assert_eq!(batch.len(), 4);
    let image = d.c.power_cut(SimTime::ZERO);
    let (c2, _) = Controller::remount(image, cfg, RecoveryMode::FullScan).unwrap();
    for lpn in 0..4 {
        assert!(c2.is_buffered(lpn), "buffered write of lpn {lpn} lost");
    }
}

/// OOB records are scheme-independent: a device written under the page map
/// remounts under DFTL (and vice versa) with the same mapping.
#[test]
fn remount_across_mapping_schemes() {
    let mut d = Driver::tiny(config(MappingKind::PageMap, 0));
    let logical = d.c.logical_pages();
    for lpn in 0..64 {
        d.submit(RequestKind::Write, lpn % logical);
    }
    d.run();
    let expected: Vec<Option<u64>> = (0..logical).map(|l| d.c.peek_mapping(l)).collect();
    let image = d.c.power_cut(d.now);
    let (c2, report) = Controller::remount(
        image,
        config(MappingKind::Dftl { cmt_entries: 24 }, 0),
        RecoveryMode::FullScan,
    )
    .unwrap();
    assert_eq!(report.data_entries, 64);
    for lpn in 0..logical {
        assert_eq!(c2.peek_mapping(lpn), expected[lpn as usize]);
    }
    c2.check_invariants();
}

/// `remount` goes through the same assembly path as `new`, so it refuses
/// the same configs: a cross-scheme remount whose hybrid log budget does
/// not fit the spare blocks is an `Err` at mount — with `new`'s message —
/// not a device that mounts and wedges once the log fills.
#[test]
fn remount_rejects_a_hybrid_log_budget_new_rejects() {
    let g = Geometry::tiny();
    let mut d = Driver::tiny(config(MappingKind::PageMap, 0));
    let logical = d.c.logical_pages();
    for lpn in 0..64 {
        d.submit(RequestKind::Write, lpn % logical);
    }
    d.run();
    let spare = g.total_blocks() - logical.div_ceil(g.pages_per_block as u64);
    let oversized = config(
        MappingKind::Hybrid {
            log_blocks: spare as usize,
            merge: MergePolicy::Fifo,
        },
        0,
    );
    let from_new = Controller::new(g, TimingSpec::slc(), oversized.clone())
        .err()
        .expect("new must reject a log budget that leaves no merge headroom");
    assert!(from_new.contains("does not fit"), "{from_new}");
    let image = d.c.power_cut(d.now);
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let from_remount = Controller::remount(image.clone(), oversized.clone(), mode)
            .err()
            .expect("remount must reject what new rejects");
        assert_eq!(from_remount, from_new);
    }
}
