//! The three ways a queued `GcMove` leaves or re-enters its relocation
//! lane: superseded behind a blocked head, re-queued after a copy-back
//! program failure, and dropped with the pending set at a power cut.
//! Driven mid-flight, one agenda instant at a time, with the bookkeeping
//! recounted from the pending set after every step. The [`Driver`] also
//! serves `read_lane_tests`.

use eagletree_core::SimTime;
use eagletree_flash::{FaultConfig, Geometry, TimingSpec};

use super::dispatch::{PendKind, PendingOp};
use super::{Controller, PageContent};
use crate::config::{ControllerConfig, WlConfig};
use crate::pend::LaneKey;
use crate::recovery::RecoveryMode;
use crate::types::{Completion, IoTags, Lpn, Ppn, RequestKind, SsdRequest};

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

pub(super) struct Driver {
    pub(super) c: Controller,
    pub(super) now: SimTime,
    pub(super) next_id: u64,
}

impl Driver {
    pub(super) fn new(cfg: ControllerConfig) -> Self {
        let c = Controller::new(Geometry::tiny(), TimingSpec::slc(), cfg).unwrap();
        Driver {
            c,
            now: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Recount the lane bookkeeping from the pending set.
    fn check_queued(&self) {
        self.c.check_queued_moves();
        self.c.check_queued_reads();
    }

    pub(super) fn submit(&mut self, kind: RequestKind, lpn: Lpn) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.c.submit(
            SsdRequest {
                id,
                kind,
                lpn,
                tags: IoTags::none(),
            },
            self.now,
        );
        self.check_queued();
        id
    }

    /// Process the next agenda instant; `None` once the agenda is dry.
    pub(super) fn step(&mut self) -> Option<Vec<Completion>> {
        self.now = self.c.next_event_time()?;
        let done = self.c.advance(self.now);
        self.check_queued();
        Some(done)
    }

    pub(super) fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Fill the logical space, then overwrite every eighth page — each
    /// block keeps most of its pages live, so the victims GC picks queue
    /// long lanes — stepping until `stop` holds. Panics if it never does.
    pub(super) fn age_until(&mut self, mut stop: impl FnMut(&Controller, SimTime) -> bool) {
        let n = self.c.logical_pages();
        for lpn in 0..n {
            self.submit(RequestKind::Write, lpn);
            self.run();
        }
        for lpn in (0..n).step_by(8).cycle().take(4 * n as usize) {
            self.submit(RequestKind::Write, lpn);
            while self.step().is_some() {
                if stop(&self.c, self.now) {
                    return;
                }
            }
        }
        panic!("aging never reached the wanted state");
    }
}

/// Every relocation lane of `c`: its source LUN and its ops, head first.
pub(super) fn move_lanes(c: &Controller) -> Vec<(u32, Vec<PendingOp>)> {
    let pending = &c.disp.pending;
    let mut lanes = Vec::new();
    for group in 1..pending.group_count() {
        for li in 0..pending.lane_count(group) {
            let LaneKey::MoveFrom { lun } = pending.lane_key(group, li) else {
                continue;
            };
            let lane = pending.walk(pending.lane_head(group, li));
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
    let mut d = Driver::new(cfg());
    d.age_until(|c, now| deep_blocked_lane(c, now).is_some());
    let (lun, ops) = deep_blocked_lane(&d.c, d.now).unwrap();
    let target = ops[ops.len() - 2];
    let (job, ppn) = move_of(&d.c, &target);
    let Some(PageContent::Data(lpn)) = d.c.reverse[ppn as usize] else {
        panic!("queued move of a page without data");
    };
    let skipped = d.c.stats.gc_skipped;
    let mut left = moves_left(&d.c, job);

    let id = d.submit(how, lpn);
    if how == RequestKind::Write {
        // The old page dies when the new copy's program completes; until
        // then the move stays queued.
        loop {
            assert_eq!(d.c.stats.gc_skipped, skipped);
            left = moves_left(&d.c, job);
            let done = d.step().expect("overwrite never completed");
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

    d.run();
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
    let mut d = Driver::new(cfg());
    d.age_until(|c, now| deep_blocked_lane(c, now).is_some());
    let (lun, before) = deep_blocked_lane(&d.c, d.now).unwrap();
    let remaps = d.c.stats.program_remaps;
    // From here every program fails, so the head's copy-back will.
    d.c.array.install_fault_model(programs_fail(1.0));
    let after = loop {
        d.step().expect("the lane never moved");
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
    d.run();
    d.c.check_invariants();
}

/// A power cut drops the pending set with moves queued; the remounted
/// controller starts with clean bookkeeping and keeps working.
#[test]
fn power_cut_with_moves_queued_remounts_with_clean_bookkeeping() {
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let mut d = Driver::new(cfg());
        d.age_until(|c, now| deep_blocked_lane(c, now).is_some());
        let image = d.c.power_cut(d.now);
        let (c, _) = Controller::remount(image, cfg(), mode).unwrap();
        assert!(c.disp.pending.is_empty());
        c.check_invariants();
        let mut d = Driver {
            c,
            now: d.now,
            next_id: d.next_id,
        };
        let n = d.c.logical_pages();
        for lpn in (0..n).step_by(8) {
            d.submit(RequestKind::Write, lpn);
            d.run();
        }
        assert!(
            d.c.stats.gc_moves + d.c.stats.gc_skipped > 0,
            "{mode:?}: no GC after remount"
        );
        d.c.check_invariants();
    }
}
