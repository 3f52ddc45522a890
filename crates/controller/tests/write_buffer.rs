//! Write-buffer integration: durability-on-arrival semantics, overwrite
//! absorption, buffered reads, flush correctness under races.

use eagletree_controller::{
    Controller, ControllerConfig, Driver, Lpn, RequestKind, WlConfig, WriteBuffer,
};
use eagletree_core::{SimRng, SimTime};
use eagletree_flash::{Geometry, TimingSpec};
use proptest::prelude::*;

/// A tiny device with a write buffer of `write_buffer_pages`, GC the only
/// background activity.
fn buffered(write_buffer_pages: u64) -> Driver {
    Driver::tiny(ControllerConfig {
        write_buffer_pages,
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    })
}

#[test]
fn buffered_writes_complete_instantly() {
    let mut d = buffered(16);
    let w = d.submit(RequestKind::Write, 3);
    d.run();
    let c = d.done.iter().find(|c| c.id == w).unwrap();
    assert_eq!(c.at, SimTime::ZERO, "buffered write should not wait on flash");
    assert!(d.c.is_buffered(3));
    assert_eq!(d.c.array().counters().programs, 0);
}

#[test]
fn overwrites_are_absorbed_in_ram() {
    let mut d = buffered(32);
    for _ in 0..20 {
        d.submit(RequestKind::Write, 7);
    }
    d.run();
    assert_eq!(d.c.stats().app_writes_completed, 20);
    let b = d.c.write_buffer().unwrap();
    assert_eq!(b.absorbed, 19);
    assert_eq!(d.c.array().counters().programs, 0, "no flush needed yet");
    // Write amplification over app writes is far below 1: buffering pays.
    assert!(d.c.write_amplification() < 0.1);
}

#[test]
fn reads_of_buffered_pages_served_from_ram() {
    let mut d = buffered(16);
    d.submit(RequestKind::Write, 5);
    d.run();
    let reads_before = d.c.array().counters().reads;
    let r = d.submit(RequestKind::Read, 5);
    d.run();
    assert!(d.done.iter().any(|c| c.id == r));
    assert_eq!(d.c.array().counters().reads, reads_before);
    assert_eq!(d.c.write_buffer().unwrap().read_hits, 1);
}

#[test]
fn full_buffer_flushes_to_flash_and_publishes_mapping() {
    let mut d = buffered(8);
    for lpn in 0..8 {
        d.submit(RequestKind::Write, lpn);
    }
    d.run();
    // Capacity reached → background flush of capacity/4 oldest entries.
    assert!(d.c.array().counters().programs >= 2);
    assert!(d.c.peek_mapping(0).is_some(), "flushed page must be mapped");
    assert!(!d.c.is_buffered(0));
    assert!(d.c.is_buffered(7), "recent entries stay buffered");
    d.c.check_invariants();
}

#[test]
fn trim_drops_buffered_entry() {
    let mut d = buffered(16);
    d.submit(RequestKind::Write, 9);
    d.submit(RequestKind::Trim, 9);
    d.run();
    assert!(!d.c.is_buffered(9));
    assert_eq!(d.c.peek_mapping(9), None);
    // Read now zero-fills.
    let r = d.submit(RequestKind::Read, 9);
    d.run();
    assert!(d.done.iter().any(|c| c.id == r));
    d.c.check_invariants();
}

#[test]
fn sustained_buffered_overwrites_stay_consistent() {
    let mut d = buffered(64);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(77);
    for i in 0..logical * 3 {
        d.submit(RequestKind::Write, rng.gen_range(logical));
        if i % 32 == 31 {
            d.run();
        }
    }
    d.run();
    assert_eq!(d.c.stats().app_writes_completed, logical * 3);
    d.c.check_invariants();
    // With uniform random writes over a space ≫ buffer, flushes dominate;
    // flash programs stay below app writes (some absorption) but are
    // substantial.
    let programs = d.c.array().counters().programs;
    assert!(programs > 0);
    assert!(
        programs < logical * 3,
        "buffer must absorb at least some overwrites"
    );
}

#[test]
fn skewed_writes_absorb_most_traffic() {
    // Hot/cold 90/10: most writes hit 16 hot pages that fit in the buffer.
    let mut d = buffered(64);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(5);
    for i in 0..4000u64 {
        let lpn = if rng.gen_bool(0.9) {
            rng.gen_range(16)
        } else {
            16 + rng.gen_range(logical - 16)
        };
        d.submit(RequestKind::Write, lpn);
        if i % 32 == 31 {
            d.run();
        }
    }
    d.run();
    let wa = d.c.write_amplification();
    assert!(
        wa < 0.6,
        "buffer should absorb the hot set: WA {wa:.3} too high"
    );
    d.c.check_invariants();
}

#[test]
fn buffer_with_dftl_flushes_through_mapping() {
    let cfg = ControllerConfig {
        write_buffer_pages: 8,
        mapping: eagletree_controller::MappingKind::Dftl { cmt_entries: 16 },
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(3);
    for i in 0..1000u64 {
        d.submit(RequestKind::Write, rng.gen_range(logical));
        if i % 16 == 15 {
            d.run();
        }
    }
    d.run();
    assert_eq!(d.c.stats().app_writes_completed, 1000);
    d.c.check_invariants();
}

#[test]
fn battery_ram_budget_is_enforced() {
    let cfg = ControllerConfig {
        write_buffer_pages: 1 << 20, // 4 GiB of 4 KiB pages
        battery_ram_bytes: 1 << 20,  // 1 MiB budget
        ..ControllerConfig::default()
    };
    assert!(Controller::new(Geometry::tiny(), TimingSpec::slc(), cfg).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The buffer driven as the controller drives it — writes, trims,
    /// flush completions in any order, a new batch whenever it is full
    /// and nothing is in flight — never hands out one version twice in a
    /// batch: the second program of a page would land only to be
    /// discarded as stale.
    #[test]
    fn no_version_flushes_twice_in_one_batch(
        seed in any::<u64>(),
        capacity in 1usize..40,
        extra in 1u64..40,
        steps in 50usize..800,
    ) {
        let pages = capacity as u64 + extra;
        let mut rng = SimRng::new(seed);
        let mut b = WriteBuffer::new(capacity, pages);
        let mut inflight: Vec<(Lpn, u64)> = Vec::new();
        for _ in 0..steps {
            match rng.gen_range(8) {
                0..=3 => {
                    b.write(rng.gen_range(pages));
                }
                4 => b.remove(rng.gen_range(pages)),
                5 | 6 if !inflight.is_empty() => {
                    let (lpn, v) = inflight.swap_remove(rng.gen_range(inflight.len() as u64) as usize);
                    b.flush_done(lpn, v);
                }
                _ => {}
            }
            if b.needs_flush() && inflight.is_empty() {
                let batch = b.next_flush_candidates();
                for (i, c) in batch.iter().enumerate() {
                    prop_assert!(!batch[..i].contains(c), "{:?} twice in the batch {:?}", c, batch);
                }
                inflight.extend(batch);
            }
            // Remount re-installs each buffered page once.
            let resident = b.resident_lpns();
            prop_assert_eq!(resident.len(), b.len());
            prop_assert!(resident.iter().all(|&lpn| b.contains(lpn)));
        }
    }
}
