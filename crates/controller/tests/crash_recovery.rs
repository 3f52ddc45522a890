//! Crash-recovery property tests: power-cut a random workload at an
//! arbitrary event boundary, remount, and check the remounted device with
//! the driver's cut check (`Driver::promised`, then `Promised::check`) —
//! for every mapping scheme (page map, DFTL, hybrid log-block) and both
//! recovery modes (full OOB scan, checkpoint replay):
//!
//! 1. **No acknowledged write lost** — a logical page whose last
//!    acknowledged operation was a write is kept: buffered, or mapped to
//!    a valid, untorn page.
//! 2. **A cut changes no answer that nothing was writing** — every
//!    logical page mapped live with no write of it in flight at the cut
//!    maps to the same physical page.
//! 3. **Consistency** — the rebuilt controller passes `check_invariants`
//!    (each mapping points at a valid page whose OOB names its logical
//!    page, so no two logical pages share one), and keeps working:
//!    post-recovery IO completes.
//!
//! Trims are journaled into the periodic mapping checkpoint: a page
//! trimmed before the last *committed* checkpoint stays dead across a cut
//! under checkpoint recovery (`checkpoint_recovery_keeps_trimmed_pages_dead`
//! below pins this). Trims after the last committed checkpoint — and all
//! trims under full-scan recovery, which has no checkpoint to consult —
//! remain RAM-only and may be resurrected, exactly like on real FTLs with
//! lazily-journaled deallocations; the property suite therefore still
//! does not require *every* trimmed page to stay unmapped across a cut.
//!
//! The workload is submitted in chunks, and each property draws how many
//! agenda instants run between two chunks, running the agenda dry being
//! one choice. So a trim can land between two landings of one page, and
//! new writes arrive while a merge is folding their logical block. The
//! first property also draws an 8-page battery-backed write buffer (not
//! under DFTL, whose double flush is pinned below), so cuts land among
//! buffered writes, their flushes and trims of buffered pages.
//!
//! A third property injects program failures. A failed program reports
//! its status when it completes, and a cut inside its window tears the
//! page like any in-flight program's: recovery needs no case of its own
//! for it, which the property checks by cutting there too. `FAULTS=on`
//! widens its cases from 64 to 256, as it widens `fault_injection.rs`'s
//! sweeps.

use eagletree_controller::{
    Controller, ControllerConfig, Driver, MappingKind, RecoveryMode, RequestKind, WlConfig,
};
use eagletree_core::SimTime;
use eagletree_flash::{FaultConfig, Geometry, TimingSpec};
use proptest::prelude::*;

/// Widen the fault arm when `FAULTS=on`.
fn full_matrix() -> bool {
    std::env::var("FAULTS").is_ok_and(|v| v == "on")
}

/// Program failures per program in the fault arm. Each retires a block,
/// and a LUN that runs out of spare blocks stops with relocations left
/// (ROADMAP item 2), so the arm keeps the rate low and exports less of
/// the device ([`FAULTY_CAPACITY`]), as `span_invariants.rs` does: every
/// case runs clear of the stall.
const PROGRAM_FAIL: f64 = 0.003;
/// The share of the tiny device the fault arm exports.
const FAULTY_CAPACITY: f64 = 0.4;

/// The fault arm of [`check_crash`]: program failures drawn under `seed`
/// (reads and erases stay clean); `in_window`: cut as soon as a failed
/// program is running, if that comes before the step budget runs out.
#[derive(Debug, Clone, Copy)]
struct Faults {
    seed: u64,
    in_window: bool,
}

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
        ("hybrid", MappingKind::Hybrid { log_blocks: 3 }),
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

/// Programs issued so far that the array failed.
fn program_fails(d: &Driver) -> u64 {
    d.c.reliability().map_or(0, |r| r.program_fails)
}

/// Drive `ops` in chunks of `qd` on a device under `cfg`, cut power after
/// `crash_step` event boundaries (or at quiescence if the workload is
/// shorter), and verify both recovery modes from the same captured
/// medium. After chunk `i`, `pace[i % pace.len()]` agenda instants run
/// before the next chunk is submitted, 0 running the agenda dry: a later
/// chunk's trim can land between two landings of an earlier chunk's
/// writes. `faults`: the fault arm.
fn check_crash(
    name: &str,
    mut cfg: ControllerConfig,
    ops: &[Op],
    qd: usize,
    pace: &[u64],
    crash_step: u64,
    faults: Option<Faults>,
) -> Result<(), TestCaseError> {
    if let Some(f) = faults {
        cfg.logical_capacity = FAULTY_CAPACITY;
        cfg.fault = Some(FaultConfig {
            seed: f.seed,
            program_fail_base: PROGRAM_FAIL,
            program_fail_per_pe: 0.0,
            erase_fail_base: 0.0,
            erase_fail_per_pe: 0.0,
            raw_bits_base: 0.0,
            raw_bits_per_pe: 0.0,
            raw_bits_per_retention_s: 0.0,
            raw_bits_per_disturb: 0.0,
            ..FaultConfig::default()
        });
    }
    let in_window = faults.is_some_and(|f| f.in_window);
    let mut d = Driver::tiny(cfg.clone());
    let logical = d.c.logical_pages();
    let mut budget = crash_step;
    // The chunks, each with its pace, then a last round that runs dry.
    let rounds = ops.chunks(qd).zip(pace.iter().cycle().copied());
    'drive: for (chunk, pace) in rounds.chain([(&[][..], 0)]) {
        for op in chunk {
            let (kind, lpn) = match *op {
                Op::Write(l) => (RequestKind::Write, l % logical),
                Op::Trim(l) => (RequestKind::Trim, l % logical),
                Op::Read(l) => (RequestKind::Read, l % logical),
            };
            d.submit(kind, lpn);
        }
        let mut steps = if pace == 0 { u64::MAX } else { pace };
        while budget > 0 && steps > 0 {
            let failed = program_fails(&d);
            if d.step().is_none() {
                break;
            }
            budget -= 1;
            steps -= 1;
            // A program that failed at this instant runs past it: cut now.
            if in_window && program_fails(&d) > failed {
                budget = 0;
                break 'drive;
            }
        }
        if budget == 0 {
            break 'drive;
        }
    }
    if budget > 0 {
        // Workload ended first: cut at quiescence (every write acked).
        d.run().unwrap();
    }
    let promised = d.promised();
    let cut_at = d.now;
    let image = d.power_cut();

    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let (c2, report) = Controller::remount(image.clone(), cfg.clone(), mode)
            .map_err(|e| TestCaseError::fail(format!("{name}: remount failed: {e}")))?;
        prop_assert_eq!(
            report.used_checkpoint,
            mode == RecoveryMode::Checkpoint && image.has_checkpoint(),
            "{}: unexpected recovery path",
            name
        );
        let broken = |e| format!("{name}/{mode:?}: {e} (cut at {cut_at:?}, step {crash_step})");
        promised.check(&c2).map_err(|e| TestCaseError::fail(broken(e)))?;

        // The remounted device keeps working.
        let mut d2 = Driver::new(c2);
        for (i, &lpn) in promised.mapped().iter().take(16).enumerate() {
            d2.submit(RequestKind::Read, lpn);
            d2.submit(RequestKind::Write, (i as u64 * 37) % logical);
        }
        d2.submit(RequestKind::Write, 0);
        d2.run().unwrap();
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

/// Agenda instants to run after each chunk, cycled: mostly a few, so
/// chunks overlap, and sometimes 0, running the agenda dry.
fn pace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop_oneof![1 => Just(0u64), 3 => 1u64..32], 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

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
        pace in pace(),
        crash_step in 1u64..1500,
        buffered in any::<bool>(),
    ) {
        for (name, mapping) in schemes() {
            // Checkpoints every 64 programs: several commit before the cut.
            // With a battery-backed buffer, cuts land among buffered
            // writes, their flushes and trims of buffered pages. Not under
            // DFTL: `dftl_flushes_a_page_twice_while_one_flush_waits_on_a_fetch`.
            let dftl = matches!(mapping, MappingKind::Dftl { .. });
            let cfg = ControllerConfig {
                write_buffer_pages: if buffered && !dftl { 8 } else { 0 },
                ..config(mapping, 64)
            };
            check_crash(name, cfg, &ops, qd, &pace, crash_step, None)?;
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
        pace in pace(),
        crash_step in 1u64..1000,
    ) {
        for (name, mapping) in schemes() {
            check_crash(name, config(mapping, 0), &ops, qd, &pace, crash_step, None)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if full_matrix() { 256 } else { 64 },
        ..ProptestConfig::default()
    })]

    /// Clustered overwrites under program failures, cut at a random
    /// boundary or inside a failed program's window.
    #[test]
    fn power_cut_under_program_failures_preserves_acknowledged_writes(
        ops in prop::collection::vec(
            prop_oneof![
                8 => (0u64..96).prop_map(Op::Write),
                1 => (0u64..96).prop_map(Op::Trim),
                2 => (0u64..96).prop_map(Op::Read),
            ],
            300..700,
        ),
        qd in 1usize..24,
        pace in pace(),
        crash_step in 1u64..1500,
        seed in 0u64..1_000_000,
        in_window in any::<bool>(),
    ) {
        for (name, mapping) in schemes() {
            let faults = Some(Faults { seed, in_window });
            check_crash(name, config(mapping, 64), &ops, qd, &pace, crash_step, faults)?;
        }
    }
}

/// The smallest case found of two writes of one page landing out of issue
/// order: five writes submitted at once, two of them to page 1 and two to
/// page 2, on the page map. The device used to map the copy whose program
/// completed last, and full-scan recovery the copy issued last, so a cut
/// at quiescence moved a page; both now keep the copy issued last.
#[test]
fn two_writes_of_one_page_in_flight_survive_a_clean_cut_as_they_were() {
    let ops = [Op::Write(4), Op::Write(1), Op::Write(1), Op::Write(2), Op::Write(2)];
    for (name, mapping) in schemes() {
        check_crash(name, config(mapping, 0), &ops, ops.len(), &[0], u64::MAX, None).unwrap();
    }
}

/// A trim between the two landings of one page (ROADMAP 21(f)): the same
/// five writes, then, once the later write of page 2 has landed and the
/// earlier has not, a trim of page 2, and the device runs dry. The
/// earlier program lands behind the trimmed copy, so it is dropped like
/// any stale program and page 2 stays unmapped. It used to commit, and
/// full-scan recovery then mapped the later copy instead. The hybrid
/// lands the two in issue order here, so its trim comes between them and
/// the later write maps the page again.
#[test]
fn a_trim_between_two_landings_of_one_page_leaves_it_unmapped() {
    for (name, mapping) in schemes() {
        let cfg = config(mapping, 0);
        let mut d = Driver::tiny(cfg.clone());
        for lpn in [4, 1, 1, 2, 2] {
            d.submit(RequestKind::Write, lpn);
        }
        let (earlier, later) = (3, 4);
        let acked = |d: &Driver, id| d.done.iter().any(|c| c.id == id);
        let hybrid = name == "hybrid";
        while !acked(&d, earlier) && !acked(&d, later) {
            d.step().expect("both writes of page 2 complete");
        }
        assert_eq!(acked(&d, later), !hybrid, "{name}: landing order");
        d.submit(RequestKind::Trim, 2);
        d.run().unwrap();
        assert_eq!(d.c.peek_mapping(2).is_some(), hybrid, "{name}: page 2 after the trim");
        let promised = d.promised();
        let image = d.power_cut();
        for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
            let (c2, _) = Controller::remount(image.clone(), cfg.clone(), mode).unwrap();
            promised.check(&c2).unwrap_or_else(|e| panic!("{name}/{mode:?}: {e}"));
        }
    }
}

/// Under DFTL with a buffer, one write of lpn 38 is flushed twice: a flush
/// parked on a mapping fetch does not count as in flight, so the next
/// round takes the page again. The first copy (seq 24, ppn 1012) commits,
/// the second (seq 31, ppn 504) is discarded, and full-scan recovery maps
/// the second. Ignored until the flush is fixed (which moves simulated
/// results); the crash property's buffer arm leaves DFTL out till then.
#[test]
#[ignore = "DFTL flushes a page twice while one flush waits on a mapping fetch"]
fn dftl_flushes_a_page_twice_while_one_flush_waits_on_a_fetch() {
    use Op::{Read as R, Trim as T, Write as W};
    let ops = [
        T(0), W(1), W(22), W(10), W(9), W(0), W(0), W(5), W(0), W(2), W(18), W(0), W(3), W(0),
        W(0), W(0), W(27), W(6), R(21), R(4), W(13), W(7), W(17), R(46), R(8), W(93), W(84),
        W(11), W(0), W(0), W(0), T(0), W(19), W(0), W(0), W(0), W(12), W(0), W(38), R(24), R(42),
        R(43), W(17), W(0), W(0), W(23), W(55), W(0), W(16), W(14), W(22), W(20), W(0), W(0),
        W(0), W(0), W(0), W(0),
    ];
    let dftl = MappingKind::Dftl { cmt_entries: 24 };
    let cfg = ControllerConfig { write_buffer_pages: 8, ..config(dftl, 64) };
    check_crash("dftl", cfg, &ops, 9, &[7], 66, None).unwrap();
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
            d.run().unwrap();
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
        d.run().unwrap();
        for &v in &victims {
            d.submit(RequestKind::Trim, v);
        }
        d.run().unwrap();
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
        let image = d.power_cut();
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
    let batch = d.advance_to(SimTime::ZERO);
    assert_eq!(batch.len(), 4);
    let promised = d.promised();
    let image = d.power_cut();
    let (c2, _) = Controller::remount(image, cfg, RecoveryMode::FullScan).unwrap();
    assert_eq!(promised.check(&c2), Ok(4), "the remount keeps all 4 buffered writes");
    assert!((0..4).all(|lpn| c2.is_buffered(lpn) && c2.peek_mapping(lpn).is_none()));
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
    d.run().unwrap();
    let promised = d.promised();
    let image = d.power_cut();
    let (c2, report) = Controller::remount(
        image,
        config(MappingKind::Dftl { cmt_entries: 24 }, 0),
        RecoveryMode::FullScan,
    )
    .unwrap();
    assert_eq!(report.data_entries, 64, "no page mapped that was not");
    assert_eq!(promised.check(&c2), Ok(64), "every page maps where it did");
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
    d.run().unwrap();
    let spare = g.total_blocks() - logical.div_ceil(g.pages_per_block as u64);
    let oversized = config(
        MappingKind::Hybrid { log_blocks: spare as usize },
        0,
    );
    let from_new = Controller::new(g, TimingSpec::slc(), oversized.clone())
        .err()
        .expect("new must reject a log budget that leaves no merge headroom");
    assert!(from_new.contains("does not fit"), "{from_new}");
    let image = d.power_cut();
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let from_remount = Controller::remount(image.clone(), oversized.clone(), mode)
            .err()
            .expect("remount must reject what new rejects");
        assert_eq!(from_remount, from_new);
    }
}

/// A buffered page whose flash copy differs across a cut: lpn 0 is
/// buffered at the cut and mapped to ppn 501, and full-scan recovery maps
/// it to ppn 1030, a flushed copy of higher `seq`. The host reads lpn 0
/// from the buffer on both sides of the cut.
#[test]
fn a_buffered_page_answers_from_the_buffer_across_a_cut() {
    use Op::{Read as R, Trim as T, Write as W};
    let ops = [
        W(0), W(0), W(22), W(10), W(9), W(0), W(0), W(5), W(0), W(2), W(18), W(0), W(1), W(0),
        T(0), W(0), W(27), W(6), R(21), R(4), W(13), W(7), W(0), W(17), R(46), R(8), W(93), W(0),
        W(0), W(0), W(3), W(84), W(11), W(0), W(0), W(0), T(0), W(19), W(0), W(0), W(0), W(6),
        W(0), W(38), R(12), R(42), R(43), W(34), W(0), W(0), W(23), W(55), W(0), W(16), W(14),
        W(22), W(10), W(0), W(0), W(0), W(0), W(0), W(0), W(0), W(0), W(0), W(0),
    ];
    let dftl = MappingKind::Dftl { cmt_entries: 24 };
    let cfg = ControllerConfig { write_buffer_pages: 8, ..config(dftl, 64) };
    check_crash("dftl", cfg, &ops, 9, &[4], 33, None).unwrap();
}
