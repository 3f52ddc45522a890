//! The ways a queued mapped read (`AppRead`, `MapFetchRead`) changes lane
//! while it waits: its page is relocated by GC (within its LUN, or to
//! another after a failed program), overwritten by the host, trimmed, or —
//! for a translation page — rewritten by a writeback; and a power cut drops
//! it with the pending set. Driven with `move_lane_tests`' helpers: one
//! agenda instant at a time, `check_queued_reads` after every step, so a
//! read left in a stale lane, out of seq order or un-noted fails at the
//! step that did it.
//!
//! Reads rank below every other class here, so a queued read waits for as
//! long as anything else wants its LUN — long enough for its page to move.

use eagletree_flash::OobTag;

use super::dispatch::{PendKind, PendingOp, QueuedReads, WriteWhat};
use super::move_lane_tests::{
    age_until, cfg, deep_blocked_lane, lun_busy, move_lanes, move_of, programs_fail, run, step,
    submit,
};
use super::Controller;
use crate::config::{ControllerConfig, GcConfig, MappingKind};
use crate::driver::Driver;
use crate::pend::LaneKey;
use crate::recovery::RecoveryMode;
use crate::sched::{class_index, class_table, SchedPolicy};
use crate::types::{Lpn, OpClass, Ppn, RequestKind};

/// Relocation before host writes before reads, and no copy-back (a failed
/// relocation *program* is what retries on another LUN).
fn reads_last(mapping: MappingKind) -> ControllerConfig {
    let mut rank = class_table(1);
    for c in [OpClass::GcRead, OpClass::GcWrite, OpClass::Erase, OpClass::MappingWrite] {
        rank[class_index(c)] = 0;
    }
    for c in [OpClass::AppRead, OpClass::MappingRead] {
        rank[class_index(c)] = 2;
    }
    ControllerConfig {
        mapping,
        sched: SchedPolicy::ClassPriority(rank),
        gc: GcConfig {
            use_copyback: false,
            ..GcConfig::default()
        },
        ..cfg()
    }
}

fn lun_of(c: &Controller, ppn: Ppn) -> u32 {
    c.array.geometry().lun_of_page(ppn)
}

/// Every queued mapped read with the LUN of the lane it waits in, lane by
/// lane, each lane head first.
fn queued_reads(c: &Controller) -> Vec<(Option<u32>, PendingOp)> {
    let pending = &c.disp.pending;
    let mut out = Vec::new();
    for group in 1..pending.group_count() {
        for (key, head) in pending.lanes(group) {
            let LaneKey::ReadFrom { lun } = key else {
                continue;
            };
            let lane = pending.walk(head);
            out.extend(lane.map(|slot| (lun, *pending.get(slot))));
        }
    }
    out
}

/// The lane LUN and seq of request `id`'s queued `AppRead`, if still queued.
fn queued_read_of(c: &Controller, id: u64) -> Option<(Option<u32>, u64)> {
    queued_reads(c).into_iter().find_map(|(lun, op)| {
        matches!(op.kind, PendKind::AppRead { id: i, .. } if i == id).then_some((lun, op.seq))
    })
}

/// Seqs of the reads waiting for `lun`, head first (these tests queue
/// untagged `AppRead`s only: one group, one lane per LUN).
fn read_lane(c: &Controller, lun: u32) -> Vec<u64> {
    queued_reads(c)
        .into_iter()
        .filter(|(l, _)| *l == Some(lun))
        .map(|(_, op)| op.seq)
        .collect()
}

/// An aged page-map device with GC mid-victim on a busy LUN: that LUN, and
/// the queued moves of its victim (head first).
fn aged() -> (Driver, u32, Vec<PendingOp>) {
    let mut d = Driver::tiny(reads_last(MappingKind::PageMap));
    age_until(&mut d, |c, now| deep_blocked_lane(c, now).is_some());
    let (lun, ops) = deep_blocked_lane(&d.c, d.now).unwrap();
    (d, lun, ops)
}

/// A mapped LPN whose page sits on `lun`, is not in `avoid`, and is not
/// about to be relocated.
fn lpn_on(c: &Controller, lun: u32, avoid: &[Lpn]) -> Lpn {
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a filter: picks the queued moves out of every kind"
    )]
    let moving: Vec<Ppn> = c
        .disp
        .pending
        .iter()
        .filter_map(|op| match op.kind {
            PendKind::GcMove { from, .. } => Some(c.array.geometry().page_index(from)),
            _ => None,
        })
        .collect();
    (0..c.logical_pages())
        .find(|l| {
            !avoid.contains(l)
                && c.peek_mapping(*l)
                    .is_some_and(|p| lun_of(c, p) == lun && !moving.contains(&p))
        })
        .expect("no such page")
}

/// The logical page a queued move relocates.
fn lpn_moved_by(c: &Controller, op: &PendingOp) -> Lpn {
    match c.content_at(move_of(c, op).1) {
        Some(OobTag::Data { lpn }) => lpn,
        other => panic!("queued move of {other:?}"),
    }
}

/// Step until `lpn`'s mapping moves off `from`; the read `id` must still be
/// queued when the step that moves it begins.
fn step_until_remapped(d: &mut Driver, lpn: Lpn, from: Ppn, id: u64) -> Ppn {
    loop {
        assert!(
            queued_read_of(&d.c, id).is_some(),
            "the read issued before its page moved"
        );
        step(d).expect("the page never moved");
        match d.c.peek_mapping(lpn) {
            Some(p) if p == from => {}
            Some(p) => return p,
            None => panic!("lpn {lpn} unmapped"),
        }
    }
}

/// The read `id` (of seq `seq`) went where its page now is: it waits in
/// `dest`'s lane, or the round that moved it has already started it there.
fn assert_followed(d: &Driver, id: u64, seq: u64, dest: u32) {
    match queued_read_of(&d.c, id) {
        Some(at) => assert_eq!(at, (Some(dest), seq)),
        None => assert!(lun_busy(&d.c, dest, d.now), "the read went elsewhere"),
    }
}

/// (d) A host overwrite lands on a queued read's LPN: the read follows the
/// new page to its LUN's lane and reads it there.
#[test]
fn overwritten_read_follows_the_new_page() {
    let (mut d, lun, _) = aged();
    let x = lpn_on(&d.c, lun, &[]);
    let old = d.c.peek_mapping(x).unwrap();
    let r = submit(&mut d, RequestKind::Read, x);
    let (lane, seq) = queued_read_of(&d.c, r).unwrap();
    assert_eq!(lane, Some(lun));

    submit(&mut d, RequestKind::Write, x);
    let new = step_until_remapped(&mut d, x, old, r);
    // The source LUN was busy, so the unbound write went elsewhere.
    assert_ne!(lun_of(&d.c, new), lun);
    assert_followed(&d, r, seq, lun_of(&d.c, new));

    let reads = d.c.stats.app_reads_completed;
    run(&mut d).unwrap();
    assert_eq!(d.c.stats.app_reads_completed, reads + 1);
    d.c.check_invariants();
}

/// (c) A trim of a queued read's LPN leaves it nothing to read: it moves to
/// the `ReadFrom { lun: None }` lane and the scheduling round inside the
/// same `submit` completes it, without flash IO and without waiting for
/// the LUN it was blocked on.
#[test]
fn trimmed_read_completes_in_the_same_round_without_flash_io() {
    let (mut d, lun, _) = aged();
    let x = lpn_on(&d.c, lun, &[]);
    let r = submit(&mut d, RequestKind::Read, x);
    assert_eq!(queued_read_of(&d.c, r).unwrap().0, Some(lun));
    let flash_reads = d.c.array.counters().reads;
    let reads = d.c.stats.app_reads_completed;

    submit(&mut d, RequestKind::Trim, x);
    assert!(queued_read_of(&d.c, r).is_none());
    assert_eq!(d.c.stats.app_reads_completed, reads + 1);
    assert_eq!(d.c.array.counters().reads, flash_reads);
    assert!(lun_busy(&d.c, lun, d.now));
    let at = d.now;
    assert!(d.c.host.completions.iter().any(|c| c.id == r && c.at == at));

    run(&mut d).unwrap();
    d.c.check_invariants();
}

/// (b) GC relocates a queued read's page within its LUN — the read keeps
/// its lane but now reads another page — and then a host overwrite moves
/// it to another LUN: the read still follows, because the first move
/// re-noted it at the page it resolved to then.
#[test]
fn read_follows_a_cross_lun_move_after_a_same_lun_move() {
    let (mut d, lun, moves) = aged();
    // An early move of the victim: the later ones keep the LUN taken.
    let target = &moves[1];
    let x = lpn_moved_by(&d.c, target);
    let first = move_of(&d.c, target).1;
    let r = submit(&mut d, RequestKind::Read, x);
    let seq = queued_read_of(&d.c, r).unwrap().1;

    let second = step_until_remapped(&mut d, x, first, r);
    assert_eq!(lun_of(&d.c, second), lun, "GC relocates within the LUN");
    assert_eq!(queued_read_of(&d.c, r), Some((Some(lun), seq)));

    submit(&mut d, RequestKind::Write, x);
    let third = step_until_remapped(&mut d, x, second, r);
    assert_ne!(lun_of(&d.c, third), lun);
    assert_followed(&d, r, seq, lun_of(&d.c, third));

    run(&mut d).unwrap();
    d.c.check_invariants();
}

/// (a) A relocation whose program fails retries on any LUN. The read
/// queued on the moved page follows it into a lane that already holds
/// reads submitted before and after it, and lands between them.
#[test]
fn gc_relocation_to_another_lun_lands_mid_lane_in_seq_order() {
    // GC starts with blocks to spare (the failed programs below retire a
    // few) and on every LUN at once, so reads wait wherever they are.
    let mut cfg = reads_last(MappingKind::PageMap);
    cfg.logical_capacity = 0.7;
    cfg.gc.greediness = 8;
    let mut d = Driver::tiny(cfg);
    let luns = d.c.array.geometry().total_luns();
    let deep_everywhere = |c: &Controller| {
        move_lanes(c).iter().filter(|(_, ops)| ops.len() >= 8).count() == luns as usize
    };
    // Eight overwrites in flight, so that the LUNs run out of blocks together.
    let n = d.c.logical_pages();
    for lpn in 0..n {
        submit(&mut d, RequestKind::Write, lpn);
        run(&mut d).unwrap();
    }
    let mut inflight = 0;
    for lpn in (0..n).step_by(8).cycle() {
        submit(&mut d, RequestKind::Write, lpn);
        inflight += 1;
        while inflight >= 8 && !deep_everywhere(&d.c) {
            inflight -= step(&mut d).expect("writes in flight").len();
        }
        if deep_everywhere(&d.c) {
            break;
        }
    }
    // From this victim's first move the retry lands on another LUN while
    // both of that LUN's neighbours still wait (asserted below); not every
    // move's does.
    let (lun, moves) = move_lanes(&d.c).swap_remove(1);
    assert_eq!(lun, 1);
    let target = moves[0];
    let x = lpn_moved_by(&d.c, &target);
    let from = move_of(&d.c, &target).1;
    let others: Vec<u32> = (0..luns).filter(|&l| l != lun).collect();

    // Around the read of `x`: an older and a younger read on every other LUN.
    let mut used = vec![x];
    let mut neighbours = |d: &mut Driver| -> Vec<u64> {
        others
            .iter()
            .map(|&l| {
                let lpn = lpn_on(&d.c, l, &used);
                used.push(lpn);
                submit(d, RequestKind::Read, lpn)
            })
            .collect()
    };
    let older = neighbours(&mut d);
    let r = submit(&mut d, RequestKind::Read, x);
    let younger = neighbours(&mut d);
    assert_eq!(queued_read_of(&d.c, r).unwrap().0, Some(lun));

    // Fail programs while the move's bound program is queued: it issues,
    // fails, and once it completes is queued again unbound.
    let queued_write = |c: &Controller, bound: bool| {
        c.disp.pending.iter().any(|op| {
            matches!(op.kind, PendKind::Write { lun, what: WriteWhat::Gc { from_ppn, .. }, .. }
                if from_ppn == from && lun.is_some() == bound)
        })
    };
    while !queued_write(&d.c, true) {
        step(&mut d).expect("the move's program was never queued");
    }
    d.c.array.install_fault_model(programs_fail(1.0));
    while queued_write(&d.c, true) {
        step(&mut d).expect("the move's program never issued");
    }
    d.c.array.install_fault_model(programs_fail(0.0));
    let parked = |c: &Controller| {
        c.disp.failed.iter().any(|f| {
            matches!(f.retry.kind, PendKind::Write { what: WriteWhat::Gc { from_ppn, .. }, .. }
                if from_ppn == from)
        })
    };
    assert!(parked(&d.c), "the relocation program never failed");
    while parked(&d.c) {
        step(&mut d).expect("the failure never reported");
    }

    let to = step_until_remapped(&mut d, x, from, r);
    let dest = lun_of(&d.c, to);
    assert_ne!(dest, lun, "the retry stayed on the victim's LUN");
    let i = others.iter().position(|&l| l == dest).unwrap();
    let seq_of = |id| queued_read_of(&d.c, id).expect("neighbour issued early").1;
    assert_eq!(
        read_lane(&d.c, dest),
        vec![seq_of(older[i]), seq_of(r), seq_of(younger[i])]
    );

    run(&mut d).unwrap();
    d.c.check_invariants();
}

/// A DFTL device whose 16-entry CMT misses on nearly every IO, filled and
/// then driven by a scattered read/write mix, sixteen requests in flight:
/// translation fetches queue behind relocation and writebacks, so their
/// pages move while they wait. `each` sees the controller before every
/// step and may stop the run.
fn dftl_churn(mut each: impl FnMut(&mut Driver) -> bool) {
    let mut cfg = reads_last(MappingKind::Dftl { cmt_entries: 16 });
    cfg.logical_capacity = 0.7;
    cfg.gc.greediness = 8;
    let mut d = Driver::tiny(cfg);
    let n = d.c.logical_pages();
    for lpn in 0..n {
        submit(&mut d, RequestKind::Write, lpn);
        run(&mut d).unwrap();
    }
    let mut inflight = 0;
    for i in 0..40_000u64 {
        let kind = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
        submit(&mut d, kind, i * 7919 % n);
        inflight += 1;
        while inflight >= 16 {
            if each(&mut d) {
                run(&mut d).unwrap();
                d.c.check_invariants();
                return;
            }
            inflight -= step(&mut d).expect("requests in flight").len();
        }
    }
    panic!("the churn never produced the wanted state");
}

/// Every queued `MapFetchRead`: its translation page's number and where
/// that page is now.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "a filter: picks the mapping fetches out of the queued reads"
)]
fn queued_fetches(c: &Controller) -> Vec<(u64, Option<Ppn>)> {
    queued_reads(c)
        .into_iter()
        .filter_map(|(_, op)| match op.kind {
            PendKind::MapFetchRead { tvpn } => Some((tvpn, c.ftl.translation_location(tvpn))),
            _ => None,
        })
        .collect()
}

fn writebacks_of(c: &Controller, tvpn: u64) -> usize {
    c.mapio.wb_jobs.iter().filter(|j| j.tvpn == tvpn).count()
}

/// (e) A queued `MapFetchRead` follows its translation page when GC
/// relocates it and when a writeback rewrites it — `check_queued_reads`
/// after every step is the assertion; this test makes sure both happened,
/// and that a writeback took a waiting fetch to another LUN.
#[test]
fn queued_map_fetch_follows_gc_and_writeback_of_its_translation_page() {
    let (mut by_gc, mut by_writeback, mut to_another_lun) = (0, 0, 0);
    // The fetches queued before the last step — translation page, where it
    // was, writebacks of it in flight — and the GC moves committed by then.
    let mut before: Vec<(u64, Option<Ppn>, usize)> = Vec::new();
    let mut gc_moves = 0;
    dftl_churn(|d| {
        let still = queued_fetches(&d.c);
        for &(tvpn, was, writebacks) in &before {
            let Some(&(_, is)) = still.iter().find(|(t, _)| *t == tvpn) else {
                continue;
            };
            if is == was {
                continue;
            }
            if writebacks_of(&d.c, tvpn) < writebacks {
                by_writeback += 1;
                if was.map(|p| lun_of(&d.c, p)) != is.map(|p| lun_of(&d.c, p)) {
                    to_another_lun += 1;
                }
            } else {
                assert!(d.c.stats.gc_moves > gc_moves, "tvpn {tvpn} moved by neither");
                by_gc += 1;
            }
        }
        before = still
            .into_iter()
            .map(|(t, at)| (t, at, writebacks_of(&d.c, t)))
            .collect();
        gc_moves = d.c.stats.gc_moves;
        by_gc > 0 && to_another_lun > 0
    });
    assert!(by_writeback >= to_another_lun);
}

/// (e) The other side of `wb_write_done`'s guard: the translation page a
/// writeback supersedes is already dead when its program lands (forced
/// here — no handler kills a page the GTD still points at). The GTD moves
/// all the same, and the fetch queued on the old page's LUN must follow.
#[test]
fn queued_map_fetch_follows_a_writeback_over_a_dead_page() {
    let mut landing: Option<(u64, Ppn)> = None;
    dftl_churn(|d| {
        if let Some((tvpn, old)) = landing {
            // Forced below: wait for the writeback to land.
            assert!(
                queued_fetches(&d.c).iter().any(|(t, _)| *t == tvpn),
                "the fetch issued before the writeback landed"
            );
            return d.c.ftl.translation_location(tvpn) != Some(old);
        }
        let c = &mut d.c;
        let g = *c.array.geometry();
        // A queued fetch whose translation page has its replacement being
        // programmed (owned by the page, not yet in the GTD), is not itself
        // being relocated, and sits on a LUN that relocation keeps taken
        // for longer than a program.
        let lanes = move_lanes(c);
        let found = queued_fetches(c).into_iter().find_map(|(tvpn, at)| {
            let old = at?;
            let content = Some(OobTag::Translation { tvpn });
            let replacing = (0..g.total_pages()).any(|p| p != old && c.content_at(p) == content);
            let held = lanes.iter().any(|(lun, moves)| {
                *lun == lun_of(c, old)
                    && moves.len() >= 4
                    && moves.iter().all(|op| move_of(c, op).1 != old)
            });
            (replacing && held && c.content_at(old) == content).then_some((tvpn, old))
        });
        if let Some((tvpn, old)) = found {
            c.array.invalidate_at(old);
            landing = Some((tvpn, old));
        }
        false
    });
    assert!(landing.is_some());
}

/// (f) A power cut drops laned reads with the pending set; the remounted
/// controller starts with empty lanes and no page noted.
#[test]
fn power_cut_with_reads_queued_remounts_with_clean_bookkeeping() {
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let (mut d, lun, _) = aged();
        let mut used = Vec::new();
        for _ in 0..4 {
            let lpn = lpn_on(&d.c, lun, &used);
            used.push(lpn);
            submit(&mut d, RequestKind::Read, lpn);
        }
        assert_eq!(queued_reads(&d.c).len(), 4);
        let cut_at = d.now;
        let image = d.power_cut();
        let cfg = reads_last(MappingKind::PageMap);
        let (c, _) = Controller::remount(image, cfg, mode).unwrap();
        assert!(c.disp.pending.is_empty());
        assert!(
            c.disp.reads == QueuedReads::new(c.array.geometry()),
            "{mode:?}: a page is still noted"
        );
        c.check_invariants();
        let mut d = Driver::new(c);
        d.now = cut_at;
        for lpn in used {
            submit(&mut d, RequestKind::Read, lpn);
        }
        run(&mut d).unwrap();
        assert_eq!(d.c.stats.app_reads_completed, 4);
        d.c.check_invariants();
    }
}
