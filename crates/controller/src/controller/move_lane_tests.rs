//! The three ways a queued `GcMove` leaves or re-enters its relocation
//! lane: superseded behind a blocked head, re-queued after a copy-back
//! program failure, and dropped with the pending set at a power cut.
//! Driven mid-flight, one agenda instant at a time, with the bookkeeping
//! recounted from the pending set after every step ([`submit`], [`step`],
//! [`run`] and [`age_until`], which also serve `read_lane_tests`).

use eagletree_core::SimTime;
use eagletree_flash::FaultConfig;

use super::dispatch::{PendKind, PendingOp};
use super::{Controller, PageContent};
use crate::config::{ControllerConfig, WlConfig};
use crate::driver::Driver;
use crate::pend::LaneKey;
use crate::recovery::RecoveryMode;
use crate::types::{Completion, Lpn, Ppn, RequestKind};

/// GC is the only reclaim trigger, so a LUN has at most one victim and a
/// relocation lane holds one job's moves.
pub(super) fn cfg() -> ControllerConfig {
    ControllerConfig {
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    }
}

/// Recount the lane bookkeeping from the pending set.
fn check_queued(c: &Controller) {
    c.check_queued_moves();
    c.check_queued_reads();
    c.check_ready_sets();
}

/// `d.submit`, then the recount.
pub(super) fn submit(d: &mut Driver, kind: RequestKind, lpn: Lpn) -> u64 {
    let id = d.submit(kind, lpn);
    check_queued(&d.c);
    id
}

/// `d.step`, then the recount.
pub(super) fn step(d: &mut Driver) -> Option<&[Completion]> {
    let from = d.done.len();
    d.step()?;
    check_queued(&d.c);
    Some(&d.done[from..])
}

/// Run the agenda dry, recounting after every instant.
pub(super) fn run(d: &mut Driver) {
    while step(d).is_some() {}
    d.run();
}

/// Fill the logical space, then overwrite every eighth page — each
/// block keeps most of its pages live, so the victims GC picks queue
/// long lanes — stepping until `stop` holds. Panics if it never does.
pub(super) fn age_until(d: &mut Driver, mut stop: impl FnMut(&Controller, SimTime) -> bool) {
    let n = d.c.logical_pages();
    for lpn in 0..n {
        submit(d, RequestKind::Write, lpn);
        run(d);
    }
    for lpn in (0..n).step_by(8).cycle().take(4 * n as usize) {
        submit(d, RequestKind::Write, lpn);
        while step(d).is_some() {
            if stop(&d.c, d.now) {
                return;
            }
        }
    }
    panic!("aging never reached the wanted state");
}

/// Every relocation lane of `c`, drained ones included: its source LUN
/// and its ops, head first.
pub(super) fn move_lanes(c: &Controller) -> Vec<(u32, Vec<PendingOp>)> {
    let pending = &c.disp.pending;
    let mut lanes = Vec::new();
    for group in 1..pending.group_count() {
        for (key, head) in pending.lanes(group) {
            let LaneKey::MoveFrom { lun } = key else {
                continue;
            };
            let lane = pending.walk(head);
            lanes.push((lun, lane.map(|slot| *pending.get(slot)).collect()));
        }
    }
    lanes
}

pub(super) fn lun_busy(c: &Controller, lun: u32, now: SimTime) -> bool {
    let per_channel = c.array.geometry().luns_per_channel;
    c.array.lun_free_at(lun / per_channel, lun % per_channel) > now
}

/// A lane of at least four moves whose LUN is busy: a blocked head with
/// ops that are neither head nor tail behind it.
pub(super) fn deep_blocked_lane(c: &Controller, now: SimTime) -> Option<(u32, Vec<PendingOp>)> {
    move_lanes(c)
        .into_iter()
        .find(|(lun, ops)| ops.len() >= 4 && lun_busy(c, *lun, now))
}

/// `(job, source page)` of a queued move.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "a relocation lane holds GcMove only; any other kind is the failure this reports"
)]
pub(super) fn move_of(c: &Controller, op: &PendingOp) -> (usize, Ppn) {
    match op.kind {
        PendKind::GcMove { job, from } => (job, c.array.geometry().page_index(from)),
        other => panic!("{other:?} in a relocation lane"),
    }
}

fn moves_left(c: &Controller, job: usize) -> u32 {
    c.reclaim.jobs[job].moves_left
}

/// Kill the page a mid-lane move reads, by `how`, while the lane's head is
/// blocked on its busy LUN: the move must be consumed by the scheduling
/// round that follows the invalidation, not when the LUN frees. Fails
/// (in debug builds already at the reference-scan assertion) if
/// `first_issuable` trusts the blocked head alone.
fn supersede_mid_lane(how: RequestKind) {
    let mut d = Driver::tiny(cfg());
    age_until(&mut d, |c, now| deep_blocked_lane(c, now).is_some());
    let (lun, ops) = deep_blocked_lane(&d.c, d.now).unwrap();
    let target = ops[ops.len() - 2];
    let (job, ppn) = move_of(&d.c, &target);
    let Some(PageContent::Data(lpn)) = d.c.reverse[ppn as usize] else {
        panic!("queued move of a page without data");
    };
    let skipped = d.c.stats.gc_skipped;
    let mut left = moves_left(&d.c, job);

    let id = submit(&mut d, how, lpn);
    if how == RequestKind::Write {
        // The old page dies when the new copy's program completes; until
        // then the move stays queued.
        loop {
            assert_eq!(d.c.stats.gc_skipped, skipped);
            left = moves_left(&d.c, job);
            let done = step(&mut d).expect("overwrite never completed");
            if done.iter().any(|c| c.id == id) {
                break;
            }
        }
    }
    // One `submit` (trim) or one `advance` instant (overwrite) later:
    assert_eq!(
        d.c.stats.gc_skipped,
        skipped + 1,
        "move not consumed in the same round"
    );
    assert_eq!(moves_left(&d.c, job), left - 1);
    assert_eq!(d.c.disp.moves.superseded_on(lun), 0);
    // It did not wait for the LUN, which is still busy with moves queued.
    assert!(lun_busy(&d.c, lun, d.now));
    let lanes = move_lanes(&d.c);
    let (_, after) = lanes.iter().find(|(l, _)| *l == lun).unwrap();
    assert!(!after.is_empty());
    assert!(after.iter().all(|op| op.seq != target.seq));

    run(&mut d);
    d.c.check_invariants();
}

#[test]
fn trimmed_move_behind_a_blocked_head_is_consumed_in_the_same_round() {
    supersede_mid_lane(RequestKind::Trim);
}

#[test]
fn overwritten_move_behind_a_blocked_head_is_consumed_in_the_same_round() {
    supersede_mid_lane(RequestKind::Write);
}

/// A copy-back whose program fails re-enqueues its `GcMove`: the retry
/// re-sets its queued bit (recounted after every step) and joins its lane
/// at the tail, behind the job's other moves.
#[test]
fn failed_copy_back_requeues_its_move_at_the_lane_tail() {
    let programs_fail = |p: f64| FaultConfig {
        program_fail_base: p,
        program_fail_per_pe: 0.0,
        erase_fail_base: 0.0,
        erase_fail_per_pe: 0.0,
        raw_bits_base: 0.0,
        ..FaultConfig::default()
    };
    let mut d = Driver::tiny(cfg());
    age_until(&mut d, |c, now| deep_blocked_lane(c, now).is_some());
    let (lun, before) = deep_blocked_lane(&d.c, d.now).unwrap();
    let remaps = d.c.stats.program_remaps;
    // From here every program fails, so the head's copy-back will.
    d.c.array.install_fault_model(programs_fail(1.0));
    let after = loop {
        step(&mut d).expect("the lane never moved");
        let lanes = move_lanes(&d.c);
        let (_, ops) = lanes.into_iter().find(|(l, _)| *l == lun).unwrap();
        if ops[0].seq != before[0].seq {
            break ops;
        }
    };
    assert!(d.c.stats.program_remaps > remaps);
    assert_eq!(
        after.len(),
        before.len(),
        "the failed head must be queued again"
    );
    let retry = after.last().unwrap();
    assert_eq!(move_of(&d.c, retry), move_of(&d.c, &before[0]));
    assert_eq!(retry.enqueued_at, d.now);
    assert!(
        after.windows(2).all(|w| w[0].seq < w[1].seq),
        "lane out of seq order"
    );
    assert!(
        lun_busy(&d.c, lun, d.now),
        "the failed copy-back still occupies the LUN"
    );

    d.c.array.install_fault_model(programs_fail(0.0));
    run(&mut d);
    d.c.check_invariants();
}

/// A power cut drops the pending set with moves queued; the remounted
/// controller starts with clean bookkeeping and keeps working.
#[test]
fn power_cut_with_moves_queued_remounts_with_clean_bookkeeping() {
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let mut d = Driver::tiny(cfg());
        age_until(&mut d, |c, now| deep_blocked_lane(c, now).is_some());
        let image = d.c.power_cut(d.now);
        let (c, _) = Controller::remount(image, cfg(), mode).unwrap();
        assert!(c.disp.pending.is_empty());
        c.check_invariants();
        let cut_at = d.now;
        let mut d = Driver::new(c);
        d.now = cut_at;
        let n = d.c.logical_pages();
        for lpn in (0..n).step_by(8) {
            submit(&mut d, RequestKind::Write, lpn);
            run(&mut d);
        }
        assert!(
            d.c.stats.gc_moves + d.c.stats.gc_skipped > 0,
            "{mode:?}: no GC after remount"
        );
        d.c.check_invariants();
    }
}
