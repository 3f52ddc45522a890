//! End-to-end controller tests: submissions through the full mapping / GC /
//! wear-leveling / scheduling pipeline against the simulated flash array.

use eagletree_controller::{
    Controller, ControllerConfig, Driver, GcConfig, IoTags, MappingKind, RequestKind, SchedPolicy,
    SsdRequest, TemperatureMode, VictimPolicy, WlConfig, WriteAllocPolicy,
};
use eagletree_core::{SimRng, SimTime};
use eagletree_flash::{Geometry, TimingSpec};

#[test]
fn write_then_read_round_trip() {
    let mut d = Driver::tiny(ControllerConfig::default());
    let w = d.submit(RequestKind::Write, 7);
    d.run();
    assert!(d.done.iter().any(|c| c.id == w));
    let write_done = d.done.iter().find(|c| c.id == w).unwrap().at;
    assert!(write_done > SimTime::ZERO);

    let r = d.submit(RequestKind::Read, 7);
    d.run();
    let read_done = d.done.iter().find(|c| c.id == r).unwrap().at;
    // Read latency ≈ cmd + tR + transfer; strictly after submission.
    assert!(read_done > write_done);
    d.c.check_invariants();
}

#[test]
#[should_panic(expected = "id 3 does not follow id 5")]
fn request_ids_only_increase() {
    let mut d = Driver::tiny(ControllerConfig::default());
    let write = |id, lpn| SsdRequest { id, kind: RequestKind::Write, lpn, tags: IoTags::none() };
    d.c.submit(write(5, 1), d.now);
    // Even once 5 has completed: an id is used once, in order.
    d.run();
    d.c.submit(write(3, 2), d.now);
}

#[test]
fn read_of_unwritten_page_completes_instantly() {
    let mut d = Driver::tiny(ControllerConfig::default());
    let r = d.submit(RequestKind::Read, 3);
    d.run();
    let c = d.done.iter().find(|c| c.id == r).unwrap();
    assert_eq!(c.at, SimTime::ZERO, "zero-fill read should not touch flash");
    assert_eq!(d.c.array().counters().reads, 0);
}

#[test]
fn trim_invalidates_and_read_returns_zero_fill() {
    let mut d = Driver::tiny(ControllerConfig::default());
    d.submit(RequestKind::Write, 5);
    d.run();
    d.submit(RequestKind::Trim, 5);
    d.run();
    let reads_before = d.c.array().counters().reads;
    let r = d.submit(RequestKind::Read, 5);
    d.run();
    assert!(d.done.iter().any(|c| c.id == r));
    assert_eq!(d.c.array().counters().reads, reads_before);
    assert_eq!(d.c.stats().trims_completed, 1);
    d.c.check_invariants();
}

#[test]
fn sequential_fill_has_unit_write_amplification() {
    let mut d = Driver::tiny(ControllerConfig::default());
    let n = d.c.logical_pages() / 2;
    let reqs: Vec<_> = (0..n).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&reqs, 16);
    assert_eq!(d.c.stats().app_writes_completed, n);
    // No GC yet: every program is an application write.
    assert!((d.c.write_amplification() - 1.0).abs() < 1e-9);
    assert_eq!(d.c.stats().gc_erases, 0);
    d.c.check_invariants();
}

#[test]
fn steady_state_overwrites_trigger_gc_and_stay_consistent() {
    let cfg = ControllerConfig {
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    // Precondition: fill the logical space.
    let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 16);
    // Overwrite randomly to accumulate garbage.
    let mut rng = SimRng::new(99);
    let over: Vec<_> = (0..logical * 3)
        .map(|_| (RequestKind::Write, rng.gen_range(logical)))
        .collect();
    d.submit_windowed(&over, 16);
    assert!(d.c.stats().gc_erases > 0, "GC never ran under overwrite load");
    assert!(
        d.c.write_amplification() > 1.0,
        "GC must add write amplification"
    );
    assert!(d.c.stats().gc_moves + d.c.stats().gc_skipped > 0);
    assert_eq!(
        d.c.stats().app_writes_completed,
        logical + logical * 3,
        "every write must complete"
    );
    d.c.check_invariants();
}

#[test]
fn copyback_used_when_enabled_and_absent_when_disabled() {
    for use_copyback in [true, false] {
        let cfg = ControllerConfig {
            gc: GcConfig {
                use_copyback,
                ..GcConfig::default()
            },
            wl: WlConfig {
                static_enabled: false,
                ..WlConfig::default()
            },
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
        d.submit_windowed(&fill, 16);
        let mut rng = SimRng::new(5);
        let over: Vec<_> = (0..logical * 2)
            .map(|_| (RequestKind::Write, rng.gen_range(logical)))
            .collect();
        d.submit_windowed(&over, 16);
        let copybacks = d.c.array().counters().copybacks;
        if use_copyback {
            assert!(copybacks > 0, "copyback enabled but never used");
        } else {
            assert_eq!(copybacks, 0, "copyback used despite being disabled");
        }
        d.c.check_invariants();
    }
}

#[test]
fn dftl_generates_mapping_traffic() {
    let cfg = ControllerConfig {
        mapping: MappingKind::Dftl { cmt_entries: 8 },
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 8);
    // Random reads over the whole space with a tiny CMT must miss.
    let mut rng = SimRng::new(7);
    let reads: Vec<_> = (0..200)
        .map(|_| (RequestKind::Read, rng.gen_range(logical)))
        .collect();
    d.submit_windowed(&reads, 8);
    let stats = d.c.dftl_stats().unwrap();
    assert!(stats.misses > 0, "tiny CMT should miss");
    assert!(d.c.stats().mapping_fetches > 0);
    assert!(
        d.c.stats().mapping_writebacks > 0,
        "dirty evictions must write back"
    );
    assert_eq!(d.c.stats().app_reads_completed, 200);
    d.c.check_invariants();
}

#[test]
fn dftl_and_page_map_agree_on_semantics() {
    // Same workload on both mappings: same completion *set* (timings
    // differ because DFTL adds translation IOs).
    let mk = |mapping| ControllerConfig {
        mapping,
        wl: WlConfig {
            static_enabled: false,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    let mut rng = SimRng::new(31);
    let logical_tmp = Driver::tiny(mk(MappingKind::PageMap)).c.logical_pages();
    let workload: Vec<_> = (0..600)
        .map(|i| {
            if i % 3 == 0 {
                (RequestKind::Read, rng.gen_range(logical_tmp))
            } else {
                (RequestKind::Write, rng.gen_range(logical_tmp))
            }
        })
        .collect();
    let mut ids = Vec::new();
    for mapping in [MappingKind::PageMap, MappingKind::Dftl { cmt_entries: 32 }] {
        let mut d = Driver::tiny(mk(mapping));
        d.submit_windowed(&workload, 8);
        let mut completed: Vec<u64> = d.done.iter().map(|c| c.id).collect();
        completed.sort_unstable();
        ids.push(completed);
        d.c.check_invariants();
    }
    assert_eq!(ids[0], ids[1]);
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = || {
        let cfg = ControllerConfig::default();
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let mut rng = SimRng::new(11);
        let reqs: Vec<_> = (0..800)
            .map(|_| (RequestKind::Write, rng.gen_range(logical)))
            .collect();
        d.submit_windowed(&reqs, 12);
        d.done
            .iter()
            .map(|c| (c.id, c.at.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn reads_first_policy_reduces_read_wait_under_mixed_load() {
    let wait_read_mean = |policy: SchedPolicy| {
        let cfg = ControllerConfig {
            sched: policy,
            wl: WlConfig {
                static_enabled: false,
                ..WlConfig::default()
            },
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let fill: Vec<_> = (0..logical / 2).map(|l| (RequestKind::Write, l)).collect();
        d.submit_windowed(&fill, 16);
        // Burst of writes and reads together, big windows to force queuing.
        let mut rng = SimRng::new(3);
        let mixed: Vec<_> = (0..600)
            .map(|i| {
                if i % 2 == 0 {
                    (RequestKind::Write, rng.gen_range(logical / 2))
                } else {
                    (RequestKind::Read, rng.gen_range(logical / 2))
                }
            })
            .collect();
        d.submit_windowed(&mixed, 64);
        let idx = eagletree_controller::class_index(eagletree_controller::OpClass::AppRead);
        d.c.stats().wait_us[idx].mean()
    };
    let fifo = wait_read_mean(SchedPolicy::Fifo);
    let rf = wait_read_mean(SchedPolicy::reads_first());
    assert!(
        rf < fifo,
        "reads-first should cut read queue wait (fifo {fifo:.1}us vs reads-first {rf:.1}us)"
    );
}

#[test]
fn striping_policy_still_completes_everything() {
    let cfg = ControllerConfig {
        write_alloc: WriteAllocPolicy::Striping,
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let reqs: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&reqs, 16);
    assert_eq!(d.c.stats().app_writes_completed, logical);
    d.c.check_invariants();
}

#[test]
fn victim_policies_all_reach_steady_state() {
    for victim in [
        VictimPolicy::Greedy,
        VictimPolicy::Random,
        VictimPolicy::CostBenefit,
    ] {
        let cfg = ControllerConfig {
            gc: GcConfig {
                victim,
                ..GcConfig::default()
            },
            wl: WlConfig {
                static_enabled: false,
                ..WlConfig::default()
            },
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
        d.submit_windowed(&fill, 16);
        let mut rng = SimRng::new(17);
        let over: Vec<_> = (0..logical * 2)
            .map(|_| (RequestKind::Write, rng.gen_range(logical)))
            .collect();
        d.submit_windowed(&over, 16);
        assert!(d.c.stats().gc_erases > 0, "{victim:?} never collected");
        d.c.check_invariants();
    }
}

#[test]
fn static_wear_leveling_migrates_cold_data() {
    let cfg = ControllerConfig {
        wl: WlConfig {
            static_enabled: true,
            check_every_erases: 8,
            young_delta: 4,
            idle_factor: 0.1,
            dynamic_enabled: false,
        },
        temperature: TemperatureMode::Off,
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    // Fill everything (cold tail), then hammer a small hot range.
    let fill: Vec<_> = (0..logical).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 16);
    let hot = logical / 8;
    let mut rng = SimRng::new(23);
    let over: Vec<_> = (0..logical * 4)
        .map(|_| (RequestKind::Write, rng.gen_range(hot)))
        .collect();
    d.submit_windowed(&over, 16);
    assert!(
        d.c.stats().wl_erases > 0,
        "static WL never fired under skewed wear"
    );
    assert!(d.c.stats().wl_moves > 0, "static WL moved no data");
    d.c.check_invariants();
}

#[test]
fn priority_tags_favor_tagged_ios() {
    let cfg = ControllerConfig {
        sched: SchedPolicy::TagPriority,
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let fill: Vec<_> = (0..logical / 2).map(|l| (RequestKind::Write, l)).collect();
    d.submit_windowed(&fill, 16);
    // Enqueue a burst: many untagged reads, then one urgent read last.
    for l in 0..60 {
        d.submit(RequestKind::Read, l);
    }
    let urgent = d.submit_tagged(RequestKind::Read, 60, IoTags::none().with_priority(0));
    d.run();
    let urgent_at = d.done.iter().find(|c| c.id == urgent).unwrap().at;
    let finished_before_urgent = d
        .done
        .iter()
        .filter(|c| c.id != urgent && c.at < urgent_at && c.id >= urgent - 60)
        .count();
    assert!(
        finished_before_urgent < 30,
        "urgent IO queued behind {finished_before_urgent} untagged ones"
    );
}

#[test]
fn interleaving_off_slows_throughput() {
    let makespan = |interleaving: bool| {
        let cfg = ControllerConfig {
            interleaving,
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg);
        let reqs: Vec<_> = (0..200u64).map(|l| (RequestKind::Write, l)).collect();
        d.submit_windowed(&reqs, 64);
        d.now
    };
    let on = makespan(true);
    let off = makespan(false);
    assert!(
        off > on,
        "serial channels should be slower: {off:?} !> {on:?}"
    );
}

#[test]
fn locality_groups_share_blocks() {
    let cfg = ControllerConfig {
        honor_locality: true,
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    // Two groups alternating; writes within one group should co-locate,
    // which we observe indirectly: it still completes and stays consistent.
    for i in 0..64u64 {
        d.submit_tagged(
            RequestKind::Write,
            i,
            IoTags::none().with_locality((i % 2) as u32),
        );
    }
    d.run();
    assert_eq!(d.c.stats().app_writes_completed, 64);
    d.c.check_invariants();
}

#[test]
fn overlapping_writes_to_same_lpn_are_safe() {
    let mut d = Driver::tiny(ControllerConfig::default());
    // Submit several concurrent writes to one lpn without draining.
    for _ in 0..8 {
        d.submit(RequestKind::Write, 1);
    }
    d.run();
    assert_eq!(d.c.stats().app_writes_completed, 8);
    d.c.check_invariants();
    // Exactly one physical page remains valid for the lpn.
    let r = d.submit(RequestKind::Read, 1);
    d.run();
    assert!(d.done.iter().any(|c| c.id == r));
}

#[test]
fn mlc_run_is_slower_than_slc() {
    let makespan = |timing: TimingSpec| {
        let mut d = Driver::new(
            Controller::new(Geometry::tiny(), timing, ControllerConfig::default()).unwrap(),
        );
        let reqs: Vec<_> = (0..100u64).map(|l| (RequestKind::Write, l)).collect();
        d.submit_windowed(&reqs, 16);
        d.now
    };
    assert!(makespan(TimingSpec::mlc()) > makespan(TimingSpec::slc()));
}
