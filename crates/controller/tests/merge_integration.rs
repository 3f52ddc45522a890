//! Merge-machinery integration tests: the hybrid log-block FTL's merge
//! traffic must flow through the controller scheduler as internal ops
//! (visible per `OpClass`), not bypass it.

use eagletree_controller::{
    class_index, Controller, ControllerConfig, Driver, MappingKind, OpClass, RequestKind,
    SchedPolicy, WlConfig,
};
use eagletree_core::SimRng;
use eagletree_flash::{Geometry, TimingSpec};

fn hybrid_cfg(log_blocks: usize) -> ControllerConfig {
    ControllerConfig {
        mapping: MappingKind::Hybrid { log_blocks },
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    }
}

fn hybrid_driver(log_blocks: usize) -> Driver {
    Driver::tiny(hybrid_cfg(log_blocks))
}

#[test]
fn sequential_fill_switch_merges_with_unit_wa() {
    let mut d = hybrid_driver(4);
    let ppb = Geometry::tiny().pages_per_block as u64;
    let n = (d.c.logical_pages() / ppb) * ppb / 2; // whole logical blocks
    let reqs: Vec<_> = (0..n).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&reqs, 16).unwrap();
    assert_eq!(d.c.stats().app_writes_completed, n);
    let m = d.c.merge_counters();
    assert_eq!(
        m.switch_merges,
        n / ppb,
        "every filled logical block should switch for free"
    );
    assert_eq!(m.moves, 0, "sequential fill must copy nothing");
    assert!(
        (d.c.write_amplification() - 1.0).abs() < 1e-9,
        "switch merges are free: WA {}",
        d.c.write_amplification()
    );
    d.c.check_invariants();
}

#[test]
fn log_exhaustion_full_merges_through_the_scheduler() {
    let mut d = hybrid_driver(3);
    let logical = d.c.logical_pages();
    // Fill, then overwrite randomly until well past log exhaustion.
    let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 16).unwrap();
    let mut rng = SimRng::new(0xFA57);
    let over: Vec<_> = (0..logical * 2)
        .map(|_| (RequestKind::Write, 1 + rng.gen_range(logical - 1)))
        .collect();
    d.submit_windowed(&over, 16).unwrap();
    assert_eq!(d.c.stats().app_writes_completed, logical + logical * 2);

    let m = d.c.merge_counters();
    assert!(m.full_merges > 0, "random overwrite must force full merges");
    assert!(m.moves > 0, "full merges must copy live pages");
    assert!(m.erases > 0, "merges must erase retired blocks");

    // The merge traffic went through the scheduler: its op classes were
    // issued (and waited in the queue like everyone else)…
    let st = d.c.stats();
    assert!(st.issued[class_index(OpClass::MergeRead)] > 0);
    assert!(st.issued[class_index(OpClass::MergeWrite)] > 0);
    assert!(st.issued[class_index(OpClass::Erase)] > 0);
    // …and no generic GC ran: merges are the hybrid scheme's reclamation.
    assert_eq!(st.gc_erases, 0);
    assert_eq!(st.issued[class_index(OpClass::GcRead)], 0);

    // Every flash program is accounted to a scheduled class: application
    // writes plus merge/WL copies and fillers — nothing bypassed the
    // scheduler. (Reads of merge sources are issued ops too, but trimmed
    // reroutes make read counts a superset, so check programs exactly.)
    let programs = d.c.array().counters().programs;
    let scheduled = st.app_writes_completed + m.moves + m.stale + m.fillers + st.wl_moves;
    assert_eq!(
        programs, scheduled,
        "programs not accounted to scheduled ops"
    );
    assert!(
        d.c.write_amplification() > 1.0,
        "full merges must amplify writes"
    );
    d.c.check_invariants();
}

#[test]
fn merges_compete_with_reads_under_class_priority() {
    // Same overwrite-then-read workload under reads-first vs merges
    // implicitly first (internal_first): reads should wait less when the
    // policy prioritizes them over merge traffic.
    let read_wait = |policy: SchedPolicy| {
        let cfg = ControllerConfig {
            sched: policy,
            ..hybrid_cfg(2)
        };
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
        d.submit_windowed(&fill, 16).unwrap();
        let mut rng = SimRng::new(7);
        let mixed: Vec<_> = (0..logical)
            .map(|i| {
                if i % 4 == 0 {
                    (RequestKind::Read, rng.gen_range(logical))
                } else {
                    (RequestKind::Write, 1 + rng.gen_range(logical - 1))
                }
            })
            .collect();
        d.submit_windowed(&mixed, 48).unwrap();
        d.c.stats().wait_us[class_index(OpClass::AppRead)].mean()
    };
    let rf = read_wait(SchedPolicy::reads_first());
    let internal = read_wait(SchedPolicy::internal_first());
    assert!(
        rf < internal,
        "reads-first should cut read wait under merge load ({rf:.1}us vs {internal:.1}us)"
    );
}

#[test]
fn trims_shrink_merge_work() {
    let mut d = hybrid_driver(2);
    let logical = d.c.logical_pages();
    let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 16).unwrap();
    // Trim most of the space, then overwrite the remainder.
    let trims: Vec<_> = (logical / 4..logical).map(|l| (RequestKind::Trim, l)).collect();
    d.submit_windowed(&trims, 64).unwrap();
    let mut rng = SimRng::new(9);
    let over: Vec<_> = (0..logical)
        .map(|_| (RequestKind::Write, 1 + rng.gen_range(logical / 4 - 1)))
        .collect();
    d.submit_windowed(&over, 16).unwrap();
    assert!(d.c.merge_counters().full_merges > 0);
    d.c.check_invariants();
}

#[test]
fn static_wl_refreshes_cold_data_blocks_via_merges() {
    let cfg = ControllerConfig {
        wl: WlConfig {
            static_enabled: true,
            check_every_erases: 8,
            young_delta: 4,
            idle_factor: 0.1,
            dynamic_enabled: false,
        },
        ..hybrid_cfg(3)
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 16).unwrap();
    // Hammer a small hot range so cold data blocks pin young blocks.
    let hot = logical / 8;
    let mut rng = SimRng::new(23);
    let over: Vec<_> = (0..logical * 4)
        .map(|_| (RequestKind::Write, 1 + rng.gen_range(hot)))
        .collect();
    d.submit_windowed(&over, 16).unwrap();
    let m = d.c.merge_counters();
    assert!(
        m.refresh_merges > 0,
        "static WL should refresh cold data blocks under skewed wear"
    );
    assert!(d.c.stats().wl_moves > 0, "refresh merges move data");
    assert!(d.c.stats().wl_erases > 0);
    d.c.check_invariants();
}

#[test]
fn write_buffer_flushes_through_the_log_blocks() {
    // Buffered writes complete in RAM and flush in the background; under
    // the hybrid mapping those flushes must follow the log-block
    // discipline (including discarded stale flushes).
    let cfg = ControllerConfig {
        write_buffer_pages: 8,
        ..hybrid_cfg(3)
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0xBF);
    // Skewed overwrites so buffered pages are re-dirtied mid-flush.
    let reqs: Vec<_> = (0..logical)
        .map(|_| (RequestKind::Write, 1 + rng.gen_range(64)))
        .collect();
    d.submit_windowed(&reqs, 16).unwrap();
    assert_eq!(d.c.stats().app_writes_completed, logical);
    // Everything written is kept, in buffer or flash.
    assert_eq!(d.check_promises(), Ok(64));
}

#[test]
fn hybrid_budget_must_fit_spare_blocks() {
    let err = Controller::new(
        Geometry::tiny(),
        TimingSpec::slc(),
        hybrid_cfg(1000),
    );
    assert!(err.is_err(), "oversized log budget must be rejected");
}

#[test]
fn hybrid_ram_footprint_beats_page_map() {
    let hybrid = Controller::new(
        Geometry::tiny(),
        TimingSpec::slc(),
        hybrid_cfg(4),
    )
    .unwrap();
    let page_map =
        Controller::new(Geometry::tiny(), TimingSpec::slc(), ControllerConfig::default())
            .unwrap();
    let h = hybrid
        .memory()
        .reserved_for(eagletree_flash::MemoryKind::Ram, "mapping")
        .unwrap();
    let p = page_map
        .memory()
        .reserved_for(eagletree_flash::MemoryKind::Ram, "mapping")
        .unwrap();
    assert!(
        h * 4 < p,
        "hybrid mapping RAM ({h} B) should be far below page map ({p} B)"
    );
}
