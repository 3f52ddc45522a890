//! Cross-crate integration tests: workloads → OS → controller → flash.

use eagletree::controller::{IoSource, OpClass};
use eagletree::core::{BlkOp, BlkRecord};
use eagletree::prelude::*;
use eagletree::workloads::{ReplayThread, TraceSource};

fn small_setup() -> Setup {
    let mut s = Setup::tiny();
    s.ctrl.wl.static_enabled = false;
    s
}

#[test]
fn precondition_then_measure_uses_dependencies() {
    let mut os = small_setup().build();
    let fill = os.add_thread(precondition::sequential_fill(16));
    let reader = os.add_thread_after(
        Box::new(Pumped::new(RandReadGen::new(Region::whole(), 500), 8, 3).named("r")),
        vec![fill],
    );
    os.run().unwrap();
    let logical = os.controller().logical_pages();
    assert_eq!(os.thread_stats(fill).writes_completed, logical);
    assert_eq!(os.thread_stats(reader).reads_completed, 500);
    // Reads hit real flash (everything was preconditioned).
    assert!(os.controller().array().counters().reads >= 500);
    os.controller().check_invariants();
}

#[test]
fn full_stack_determinism() {
    let run = || {
        let mut setup = small_setup();
        setup.ctrl.sched = SchedPolicy::edf_default();
        let mut os = setup.build();
        let fill = os.add_thread(precondition::sequential_fill(16));
        let a = os.add_thread_after(
            Box::new(
                Pumped::new(
                    ZipfGen::new(Region::whole(), 2_000, 0.99, ZipfKind::Mixed(40)),
                    8,
                    11,
                )
                .named("a"),
            ),
            vec![fill],
        );
        let b = os.add_thread_after(
            Box::new(Pumped::new(RandWriteGen::new(Region::whole(), 1_000), 4, 13).named("b")),
            vec![fill],
        );
        os.run().unwrap();
        (
            os.now().as_nanos(),
            os.thread_stats(a).read_latency.p99().as_nanos(),
            os.thread_stats(a).write_latency.p99().as_nanos(),
            os.thread_stats(b).write_latency.mean().as_nanos(),
            os.controller().array().counters(),
            os.controller().stats().gc_erases,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn sustained_overwrite_never_stalls_and_stays_consistent() {
    let mut setup = small_setup();
    setup.ctrl.gc.greediness = 1; // laziest legal GC
    let mut os = setup.build();
    let fill = os.add_thread(precondition::sequential_fill(16));
    let logical = Setup::tiny().logical_pages();
    let w = os.add_thread_after(
        Box::new(
            Pumped::new(RandWriteGen::new(Region::whole(), logical * 4), 16, 5).named("w"),
        ),
        vec![fill],
    );
    os.run().unwrap();
    assert_eq!(os.thread_stats(w).writes_completed, logical * 4);
    assert!(os.controller().stats().gc_erases > 0);
    assert!(os.controller().write_amplification() > 1.0);
    os.controller().check_invariants();
}

#[test]
fn dftl_full_stack_matches_page_map_semantics() {
    let run = |mapping: MappingKind| {
        let mut setup = small_setup();
        setup.ctrl.mapping = mapping;
        let mut os = setup.build();
        let fill = os.add_thread(precondition::sequential_fill(16));
        let t = os.add_thread_after(
            Box::new(
                Pumped::new(
                    ZipfGen::new(Region::whole(), 1_500, 0.9, ZipfKind::Mixed(50)),
                    8,
                    21,
                )
                .named("t"),
            ),
            vec![fill],
        );
        os.run().unwrap();
        os.controller().check_invariants();
        (
            os.thread_stats(t).reads_completed,
            os.thread_stats(t).writes_completed,
        )
    };
    let pm = run(MappingKind::PageMap);
    let dftl = run(MappingKind::Dftl { cmt_entries: 64 });
    assert_eq!(pm, dftl, "same completion counts under both mappings");
}

#[test]
fn file_system_thread_runs_clean() {
    let mut os = small_setup().build();
    let logical = os.controller().logical_pages();
    let t = os.add_thread(Box::new(FileSystemThread::new(
        Region::new(0, logical / 2),
        300,
        8,
        9,
    )));
    os.run().unwrap();
    assert!(os.thread_finished(t));
    let s = os.thread_stats(t);
    assert!(s.writes_completed > 0);
    assert!(s.trims_completed > 0, "deletes must trim");
    os.controller().check_invariants();
}

#[test]
fn lsm_thread_compacts_and_stays_consistent() {
    let mut os = small_setup().build();
    let logical = os.controller().logical_pages();
    let t = os.add_thread(Box::new(LsmTreeThread::new(
        Region::new(0, logical / 2),
        2,
        2,
        16,
        16 * 12,
        8,
    )));
    os.run().unwrap();
    assert!(os.thread_finished(t));
    let s = os.thread_stats(t);
    assert!(s.reads_completed > 0, "compactions must read");
    assert!(s.trims_completed > 0, "compactions must trim old runs");
    os.controller().check_invariants();
}

#[test]
fn grace_join_completes_both_phases() {
    let mut os = small_setup().build();
    let sink = std::rc::Rc::new(std::cell::RefCell::new((None, None)));
    let r = Region::new(0, 200);
    let s = Region::new(200, 200);
    let out = Region::new(400, 800);
    os.add_thread(precondition::region_fill(r, 16));
    os.add_thread(precondition::region_fill(s, 16));
    os.run().unwrap();
    let t = os.add_thread(Box::new(
        GraceHashJoin::new(r, s, out, 4, 16).with_phase_sink(sink.clone()),
    ));
    os.run().unwrap();
    assert!(os.thread_finished(t));
    let (part, probe) = *sink.borrow();
    let part = part.expect("partition phase finished");
    let probe = probe.expect("probe phase finished");
    assert!(probe > part);
    // Partition phase does |R|+|S| reads and writes; probe reads them back.
    let st = os.thread_stats(t);
    assert_eq!(st.writes_completed, 400);
    assert_eq!(st.reads_completed, 400 + 400);
    os.controller().check_invariants();
}

#[test]
fn trace_replay_is_exact_and_serial() {
    let mut os = small_setup().build();
    /// An in-memory trace.
    struct Records(std::vec::IntoIter<BlkRecord>);
    impl TraceSource for Records {
        fn next_record(&mut self) -> Option<BlkRecord> {
            self.0.next()
        }
    }
    // The last three records arrive 500 µs into the recorded clock.
    let later = SimTime::from_nanos(500_000);
    let trace = vec![
        BlkRecord::new(SimTime::ZERO, BlkOp::Write, 1),
        BlkRecord::new(later, BlkOp::Write, 2),
        BlkRecord::new(later, BlkOp::Read, 1),
        BlkRecord::new(later, BlkOp::Trim, 1),
    ];
    let t = os.add_thread(Box::new(ReplayThread::open_loop(Records(trace.into_iter()), 1.0)));
    os.run().unwrap();
    let s = os.thread_stats(t);
    assert_eq!(s.writes_completed, 2);
    assert_eq!(s.reads_completed, 1);
    assert_eq!(s.trims_completed, 1);
    // The recorded arrival instants must appear in the makespan.
    assert!(os.now() > SimTime::from_nanos(500_000));
}

#[test]
fn open_interface_lock_gates_tag_effects() {
    // A tagged urgent reader behind a flood of writes: with TagPriority
    // scheduling its mean latency should be clearly better when the
    // interface is open than when it is locked. (The extreme tail can
    // even degrade slightly — priority cannot break a cached-program
    // pipeline already occupying a LUN — which is exactly the kind of
    // counter-intuitive interplay the demo highlights.)
    let mean_us = |open: bool| {
        let mut setup = small_setup();
        setup.ctrl.sched = SchedPolicy::TagPriority;
        setup.os.open_interface = open;
        setup.os.queue_depth = 64;
        let mut os = setup.build();
        let fill = os.add_thread(precondition::sequential_fill(16));
        let _w = os.add_thread_after(
            Box::new(
                Pumped::new(RandWriteGen::new(Region::whole(), 3_000), 64, 3).named("flood"),
            ),
            vec![fill],
        );
        let r = os.add_thread_after(
            Box::new(
                Pumped::new(RandReadGen::new(Region::whole(), 300), 2, 5)
                    .named("urgent")
                    .tagged(IoTags::none().with_priority(0)),
            ),
            vec![fill],
        );
        os.run().unwrap();
        os.thread_stats(r).read_lat_us.mean()
    };
    let locked = mean_us(false);
    let open = mean_us(true);
    assert!(
        open < locked * 0.75,
        "open interface should cut urgent reader mean latency: open={open:.0}us locked={locked:.0}us"
    );
}

#[test]
fn wear_leveling_narrows_erase_distribution() {
    let wear_sd = |static_wl: bool| {
        let mut setup = Setup::tiny();
        setup.ctrl.wl.static_enabled = static_wl;
        setup.ctrl.wl.check_every_erases = 8;
        setup.ctrl.wl.young_delta = 3;
        setup.ctrl.wl.idle_factor = 0.1;
        let mut os = setup.build();
        let fill = os.add_thread(precondition::sequential_fill(16));
        let logical = setup.logical_pages();
        // Hammer a small hot range so wear skews without WL.
        let _w = os.add_thread_after(
            Box::new(
                Pumped::new(
                    RandWriteGen::new(Region::new(0, logical / 10), logical * 6),
                    16,
                    7,
                )
                .named("hot"),
            ),
            vec![fill],
        );
        // Static WL's moves may open a LUN's last free block (`WlMove` is an
        // internal stream), so both runs finish.
        os.run().unwrap();
        os.controller().check_invariants();
        eagletree::controller::wear_summary(os.controller().array()).stddev_erases
    };
    let without = wear_sd(false);
    let with = wear_sd(true);
    assert!(
        with < without,
        "static WL should narrow wear: with={with:.2} without={without:.2}"
    );
}

/// ROADMAP item 2's stall, at tier-1 size: DFTL, a sequential fill, then
/// uniform random overwrites. `Os::run` stops with the writer unfinished —
/// relocation writes bound to LUNs whose `Gc` stream has no block to
/// allocate, and an empty agenda — and its `Err` names exactly that. When
/// the stall is fixed this flips to "completes".
#[test]
fn dftl_random_overwrite_stall_is_named() {
    let mut setup = Setup::small();
    setup.ctrl.mapping = MappingKind::Dftl { cmt_entries: 256 };
    let mut os = setup.build();
    let fill = os.add_thread(precondition::sequential_fill(32));
    let w = os.add_thread_after(
        Box::new(Pumped::new(RandWriteGen::new(Region::whole(), 5000), 32, 42)),
        vec![fill],
    );
    let stalled = os.run().expect_err("the run stopped with work it cannot issue");
    assert!(os.thread_finished(fill) && !os.thread_finished(w));
    assert_eq!(stalled.unfinished_threads, vec![w]);
    assert_eq!(stalled.inflight, 32);
    let dev = stalled.device.as_ref().expect("the device holds what it cannot issue");
    assert_eq!(dev.pending, [(OpClass::AppWrite, 32), (OpClass::GcWrite, 30)]);
    assert_eq!(dev.pending_ops(), 62, "{stalled}");
    assert_eq!(dev.free_blocks, vec![1, 0, 0, 1]);
    // Two GC jobs, each on a LUN with no block left for its destination.
    assert_eq!(dev.jobs.len(), 2, "{stalled}");
    for &(lun, source, moves_left) in &dev.jobs {
        assert_eq!(source, IoSource::GarbageCollection);
        assert_eq!(dev.free_blocks[lun as usize], 0);
        assert!(moves_left > 0);
    }
    assert_eq!(dev.jobs.iter().map(|j| j.2).sum::<u32>(), 30, "one GcWrite per move left");
    assert_eq!(
        stalled.to_string(),
        "stalled: threads [1] unfinished, 32 requests in flight; device stuck, agenda empty: \
         62 pending ops can never issue (32 AppWrite, 30 GcWrite); free blocks per LUN \
         [1, 0, 0, 1]; reclaim jobs (lun, source, moves left) [(1, GarbageCollection, 22), \
         (2, GarbageCollection, 8)]"
    );
}
