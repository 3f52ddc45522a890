//! The predicates of ready-set dispatch that the benchmark's one geometry
//! and default config never exercise: sets wider than a word, the config
//! gates that change what "ready" means, the cached-program path that makes
//! a busy LUN a write candidate, a lane blocked by its allocator alone, and
//! a clock that runs backwards. Every scheduling round of a debug build
//! compares `first_issuable` with the reference scan and recounts both
//! sides of the sets (`check_ready_sets`), so these tests mostly have to
//! reach the states; what they assert themselves is that the device got
//! there and came back.

use eagletree_core::SimTime;
use eagletree_flash::{Geometry, TimingSpec};

use super::move_lane_tests::{run, step, submit};
use super::Controller;
use crate::alloc::Stream;
use crate::config::{ControllerConfig, GcConfig, MappingKind, WriteAllocPolicy};
use crate::driver::Driver;
use crate::pend::{LaneKey, NO_SLOT};
use crate::types::RequestKind;

/// `channels × luns_per_channel` LUNs of 16 blocks of 4 pages: small
/// enough to age under the per-round reference scan in seconds, with
/// enough spare blocks per LUN for the allocator's open blocks and the GC
/// reserve (fewer is what ROADMAP item 2(c)'s geometry rule refuses).
fn wide(channels: u32, luns_per_channel: u32) -> Geometry {
    Geometry {
        channels,
        luns_per_channel,
        blocks_per_plane: 16,
        pages_per_block: 4,
        ..Geometry::tiny()
    }
}

/// Fill the logical space, then overwrite half of it in a scattered
/// order, every fourth request a read, 48 requests in flight: an aged
/// device in steady GC with work queued for most LUNs at every round.
/// Returns the driver at rest.
fn age(geometry: Geometry, cfg: ControllerConfig) -> Driver {
    let dftl = matches!(cfg.mapping, MappingKind::Dftl { .. });
    let c = Controller::new(geometry, TimingSpec::slc(), cfg).expect("config fits the geometry");
    let mut d = Driver::new(c);
    let n = d.c.logical_pages();
    let fill = (0..n).map(|lpn| (RequestKind::Write, lpn));
    let churn = (0..n / 2).map(|i| {
        let kind = if i % 4 == 3 { RequestKind::Read } else { RequestKind::Write };
        (kind, i * 7919 % n)
    });
    let mut submitted = 0;
    for (kind, lpn) in fill.chain(churn) {
        d.submit(kind, lpn);
        submitted += 1;
        while submitted - d.done.len() >= 48 {
            d.step().expect("requests in flight on an empty agenda");
        }
    }
    d.run();
    assert_eq!(d.done.len(), submitted, "requests left in flight");
    // Every request completes; under DFTL the relocation writes of the
    // last GC jobs may stay queued for good (ROADMAP item 2).
    assert!(dftl || d.c.stuck().is_none(), "{:?}", d.c.stuck());
    let erases = d.c.stats().gc_erases;
    assert!(erases > 2 * geometry.total_luns() as u64, "{erases} GC erases: not aged");
    d.c.check_invariants();
    d
}

fn dftl() -> ControllerConfig {
    ControllerConfig {
        mapping: MappingKind::Dftl { cmt_entries: 128 },
        logical_capacity: 0.7,
        ..ControllerConfig::default()
    }
}

/// (a) 72 LUNs: every set spans two words.
#[test]
fn two_word_sets_under_page_map() {
    age(wide(9, 8), ControllerConfig::default());
}

#[test]
fn two_word_sets_under_dftl() {
    let d = age(wide(9, 8), dftl());
    assert!(d.c.stats().mapping_writebacks > 0, "no translation page ever moved");
}

/// (a) 64 LUNs: the last LUN is the last bit of the only word.
#[test]
fn one_full_word_under_page_map() {
    age(wide(8, 8), ControllerConfig::default());
}

#[test]
fn one_full_word_under_dftl() {
    age(wide(8, 8), dftl());
}

/// (b) The three config gates that change which LUNs are candidates, one
/// at a time, same workload: without interleaving a LUN is ready only
/// while its siblings are at rest; without cached programming a busy LUN
/// takes nothing; without copy-back a relocation is a read and a bound
/// write instead of one command.
#[test]
fn each_config_gate_off() {
    let base = ControllerConfig::default;
    let gates = [
        ControllerConfig { interleaving: false, ..base() },
        ControllerConfig { use_cached_program: false, ..base() },
        ControllerConfig { gc: GcConfig { use_copyback: false, ..GcConfig::default() }, ..base() },
    ];
    let moves: Vec<u64> = gates
        .into_iter()
        .map(|cfg| age(wide(2, 4), cfg).c.stats().gc_moves)
        .collect();
    assert!(moves.iter().all(|&m| m > 0), "no relocation ran: {moves:?}");
}

/// Eight sequential pages striped onto LUN 0, in flight together: `Some`
/// of the instant the last one completed and whether a program was issued
/// while the LUN was still busy with the one before.
fn burst_on_one_lun(use_cached_program: bool) -> (SimTime, bool) {
    let mut d = Driver::tiny(ControllerConfig {
        write_alloc: WriteAllocPolicy::Striping,
        use_cached_program,
        ..ControllerConfig::default()
    });
    let luns = d.c.array.geometry().total_luns() as u64;
    for i in 0..8 {
        submit(&mut d, RequestKind::Write, i * luns);
    }
    let mut joined_a_busy_lun = false;
    while let Some(at) = d.c.next_event_time() {
        let busy = d.c.array.lun_free_at(0, 0) > at;
        let programs = d.c.array.counters().programs;
        step(&mut d);
        joined_a_busy_lun |= busy && d.c.array.counters().programs > programs;
    }
    run(&mut d);
    assert_eq!(d.done.len(), 8);
    d.c.check_invariants();
    (d.done.iter().map(|c| c.at).max().unwrap(), joined_a_busy_lun)
}

/// (c) With cached programming a LUN busy array-programming a block is a
/// candidate for that block's next page: the burst pipelines — a program
/// is issued while its LUN is busy — and finishes sooner than with the
/// gate off, where every program waits for the LUN.
#[test]
fn cached_programs_join_a_busy_lun() {
    let (pipelined_end, joined) = burst_on_one_lun(true);
    let (serial_end, joined_without) = burst_on_one_lun(false);
    assert!(joined, "no program was issued to a busy LUN");
    assert!(!joined_without, "a program joined a busy LUN with cached programming off");
    assert!(pipelined_end < serial_end, "{pipelined_end:?} vs {serial_end:?}");
}

/// (d) A bound write lane whose LUN is idle but whose stream cannot
/// allocate there stays blocked, while the lane of another LUN in the same
/// group issues; once the LUN has a block again, the next round starts it.
#[test]
fn a_lane_whose_stream_cannot_allocate_waits_alone() {
    let mut d = Driver::tiny(ControllerConfig {
        write_alloc: WriteAllocPolicy::Striping,
        ..ControllerConfig::default()
    });
    // Hand LUN 0's space out behind the scheduler's back, down to the
    // block application streams may not take.
    let mut taken = Vec::new();
    while d.c.alloc.can_alloc(0, Stream::Hot) {
        taken.push(d.c.alloc.alloc(0, Stream::Hot).unwrap());
    }
    let on_lun_0 = LaneKey::Write { lun: Some(0), stream: Stream::Hot };
    let blocked = submit(&mut d, RequestKind::Write, 0);
    let goes = submit(&mut d, RequestKind::Write, 1);
    assert_eq!(d.c.array.counters().programs, 1, "LUN 1's lane did not issue");
    run(&mut d);
    assert_eq!(d.done.iter().map(|c| c.id).collect::<Vec<_>>(), [goes]);
    let group = 1;
    assert_ne!(d.c.disp.pending.lane_head(group, on_lun_0), NO_SLOT);
    assert!(d.c.stuck().is_some(), "nothing can free a block on LUN 0");

    // A read of a page never written completes at once; its round finds
    // the block.
    d.c.alloc.block_freed(taken.last().unwrap().block_addr(), 0);
    submit(&mut d, RequestKind::Read, 2);
    assert_eq!(d.c.disp.pending.lane_head(group, on_lun_0), NO_SLOT);
    run(&mut d);
    assert!(d.done.iter().any(|c| c.id == blocked));
    assert_eq!(d.c.stuck(), None);
}

/// A round earlier than the last one cannot trust what it knew: every LUN
/// is asked again (the recount after the submit is the assertion).
#[test]
fn a_clock_running_backwards_re_derives_every_lun() {
    let mut d = Driver::tiny(ControllerConfig::default());
    for lpn in 0..12 {
        submit(&mut d, RequestKind::Write, lpn);
    }
    for _ in 0..5 {
        step(&mut d).expect("programs in flight");
    }
    assert!(d.now > SimTime::ZERO);
    d.now = SimTime::ZERO;
    submit(&mut d, RequestKind::Write, 12);
    d.c.check_ready_sets();
    run(&mut d);
    assert_eq!(d.done.len(), 13);
    d.c.check_invariants();
}
