//! End-of-life behavior: blocks exhaust their erase endurance, get masked,
//! and the device keeps operating on the surviving pool.

use eagletree_controller::{Controller, ControllerConfig, Driver, RequestKind, WlConfig};
use eagletree_core::{SimRng, SimTime};
use eagletree_flash::{FlashArray, FlashCommand, Geometry, PhysicalAddr, TimingSpec};

#[test]
fn array_masks_block_at_endurance() {
    let mut spec = TimingSpec::slc();
    spec.endurance = 3;
    let mut a = FlashArray::new(Geometry::tiny(), spec);
    let addr = PhysicalAddr {
        channel: 0,
        lun: 0,
        plane: 0,
        block: 0,
        page: 0,
    };
    let mut now = SimTime::ZERO;
    for cycle in 0..3 {
        let out = a.issue(FlashCommand::Program(addr), now).unwrap();
        a.invalidate(addr);
        let out = a.issue(FlashCommand::Erase(addr.block_addr()), out.lun_free_at).unwrap();
        now = out.lun_free_at;
        let bad = a.block_info(addr.block_addr()).bad;
        assert_eq!(bad, cycle == 2, "bad flag wrong after erase {}", cycle + 1);
    }
    assert_eq!(a.bad_blocks(), 1);
    // Programs to a masked block are rejected.
    assert!(matches!(
        a.issue(FlashCommand::Program(addr), now),
        Err(eagletree_flash::FlashError::BadBlock(_))
    ));
}

#[test]
fn controller_survives_device_end_of_life() {
    // Tiny endurance so the overwrite load wears the whole device out
    // mid-run. The simulator must degrade gracefully: blocks retire one by
    // one, writes keep completing on the shrinking pool, and when the
    // erase budget is truly exhausted the device simply stops making
    // progress — without panics, lost bookkeeping, or invariant damage.
    let mut timing = TimingSpec::slc();
    timing.endurance = 5;
    let cfg = ControllerConfig {
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        // Export little space so plenty of spare blocks absorb retirement.
        logical_capacity: 0.25,
        ..ControllerConfig::default()
    };
    let mut d = Driver::new(Controller::new(Geometry::tiny(), timing, cfg).unwrap());
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(42);
    let total = logical * 24;
    let writes: Vec<_> = (0..total).map(|_| (RequestKind::Write, rng.gen_range(logical))).collect();
    d.submit_windowed(&writes, 16);
    let (c, done) = (d.c, d.done);
    assert!(
        c.stats().bad_blocks_retired > 0,
        "endurance 5 under 24x overwrite must wear out blocks (total erases {})",
        c.array().total_erases()
    );
    assert_eq!(c.array().bad_blocks(), c.stats().bad_blocks_retired);
    // The device survived well past its nominal budget before dying: at
    // least half the submitted writes completed.
    assert!(
        done.len() as u64 >= total / 2,
        "only {}/{} writes completed before end of life",
        done.len(),
        total
    );
    // Consistency holds even at end of life.
    c.check_invariants();
    // And every retired block consumed its full endurance.
    let spent: u64 = c.array().erase_counts().iter().map(|&e| e as u64).sum();
    assert!(spent >= c.array().bad_blocks() * 5);
}
