//! The predefined experiment suite: E1–E27 and the G1 game.
//!
//! Each experiment reproduces one question the paper poses ([`all`] is
//! the index: id, title and paper hook; `harness --help` prints it). An
//! experiment is a list of [`Point`]s — one per swept value — and the
//! columns it reads off each finished point, interpreted by [`sweep`] /
//! [`run_point`]; only E10, E21, E22 and E23's `trace/profile` row drive
//! the device by hand. All experiments are deterministic for a fixed
//! [`Scale`].

use eagletree_controller::{
    Controller, ControllerConfig, Driver, IoTags, Lpn, MappingKind, RecoveryMode, RequestKind,
    SchedPolicy, ScrubConfig, Stuck, TemperatureMode, WriteAllocPolicy,
};
use eagletree_core::{SimDuration, SimRng, SimTime, Stage};
use eagletree_flash::{FaultConfig, Geometry, MemoryKind, TimingSpec};
use eagletree_os::{OsSchedPolicy, QosPolicy, Workload};
use eagletree_workloads::{
    characterize, precondition::region_fill, ChunkedSource, GraceHashJoin, IoGen, MixedGen,
    MsrCsvSource, Pumped, RandReadGen, RandWriteGen, Region, Remap, ReplayThread, SeqWriteGen,
    SynthCsv, SynthShape, SyntheticTrace, TenantProfile, ZipfGen, ZipfKind,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::columns::*;
use crate::experiment::{Experiment, Scale};
use crate::metrics::{Measured, Row, Table};
use crate::point::{run_point, sweep, Actor, Point, Ran};
use crate::setup::Setup;

/// All predefined experiments, in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment::new("E1", "SSD parallelism: channels × LUNs", "§1-Q1 / Fig 1 hardware design space", e1_parallelism),
        Experiment::new("E2", "OS queue depth", "§2.1 'applications' IO queue size'", e2_queue_depth),
        Experiment::new("E3", "GC greediness", "§2.2 GC trigger policy", e3_gc_greediness),
        Experiment::new("E4", "Controller scheduling policies", "§3 'prioritizing reads vs writes is not always easy'", e4_ctrl_sched),
        Experiment::new("E5", "Internal-op priority", "§1-Q2 GC/WL interference", e5_internal_priority),
        Experiment::new("E6", "Mapping schemes: page map vs DFTL vs hybrid log-block", "§2.2 mapping design space", e6_mapping),
        Experiment::new("E7", "Wear leveling", "§2.2 WL strategies", e7_wear_leveling),
        Experiment::new("E8", "Open interface hints", "§2.2 open interface / §3 appetizers", e8_open_interface),
        Experiment::new("E9", "Advanced commands: copyback & interleaving", "§2.2 hardware advanced commands", e9_advanced_commands),
        Experiment::new("E10", "Grace hash join layouts", "§2.2 application threads", e10_grace_join),
        Experiment::new("E11", "OS scheduler fairness", "§2.2 OS scheduler", e11_os_fairness),
        Experiment::new("E12", "SLC vs MLC chips", "§2.2 flash chip type", e12_chip_type),
        Experiment::new("E13", "Battery-backed write buffer", "§2.2 'best usage for battery-backed RAM' / write-buffering module", e13_write_buffer),
        Experiment::new("E14", "Over-provisioning", "§2.2 GC headroom vs exported capacity", e14_overprovisioning),
        Experiment::new("E15", "GC victim selection", "§2.2 GC strategies", e15_victim_policy),
        Experiment::new("E16", "Cached-program pipelining", "§2.2 advanced commands (pipelining)", e16_pipelining),
        Experiment::new("E17", "Hybrid log-block budget sweep", "§2.2 mapping design space (merge costs)", e17_log_budget),
        Experiment::new("E18", "Event-engine work: events and queue ops vs geometry × queue depth", "§1 'as fast as the hardware allows' (sweep affordability)", e18_engine_work),
        Experiment::new("E19", "Noisy neighbor: reader-tenant tails vs a flooding writer, per QoS policy", "§2.2 OS scheduler × consolidation (tenant isolation)", e19_noisy_neighbor),
        Experiment::new("E20", "QoS design sweep: policy × weights × tenant count", "§1-Q1 design space, extended to the serving side", e20_qos_sweep),
        Experiment::new("E21", "Crash recovery: mount time vs checkpoint interval × device fill", "§2.2 controller modules, extended to crash consistency (durability vs mount-time trade-off)", e21_mount_time),
        Experiment::new("E22", "Crash-point sweep during GC/merge: no acknowledged write lost", "§1-Q2 internal ops × crash atomicity", e22_crash_sweep),
        Experiment::new("E23", "Trace replay vs characterizer-matched synthetic, per mapping scheme", "§2.1 'real-world applications' — production trace ingestion", e23_trace_vs_synth),
        Experiment::new("E24", "QoS isolation under a replayed bursty trace neighbor", "§2.2 OS scheduler × consolidation, driven by recorded traffic", e24_replayed_noisy_neighbor),
        Experiment::new("E25", "Media reliability: UBER, ECC retries and read tails vs device age, per scheme, ± scrubbing", "§2.2 controller modules, extended to media reliability (fault injection)", e25_reliability_aging),
        Experiment::new("E26", "Scrub interference: foreground tenant tails vs scrub aggressiveness", "§1-Q2 internal ops × QoS, extended to background scrubbing", e26_scrub_interference),
        Experiment::new("E27", "Tail forensics: p999 outliers bucketed by dominant latency stage", "§1-Q2 interference, attributed per stage via lifecycle spans", e27_tail_forensics),
        Experiment::new("G1", "The scheduling game", "§3 demonstration game", g1_game),
    ]
}

/// Look up an experiment by id (case-insensitive).
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

// ---------------------------------------------------------------------
// shared vocabulary: devices, actors, sweep axes, rows

/// [`Setup::small`] with static wear leveling off, so its background
/// migrations do not blur the one knob a sweep turns — where nearly every
/// experiment starts.
fn small() -> Setup {
    let mut setup = Setup::small();
    setup.ctrl.wl.static_enabled = false;
    setup
}

/// [`small`] shared by tenants: OS queue depth 32 under `qos`.
pub(crate) fn shared(qos: QosPolicy) -> Setup {
    let mut setup = small();
    setup.os.qos = qos;
    setup.os.queue_depth = 32;
    setup
}

/// One closed-loop thread: `gen` with up to `window` IOs in flight.
fn pumped<G: IoGen + 'static>(gen: G, window: u64, seed: u64, name: &str) -> Actor {
    Actor::thread(Pumped::new(gen, window, seed).named(name))
}

/// Uniform random writes over the whole logical space.
fn rand_writer(ios: u64, window: u64, seed: u64, name: &str) -> Actor {
    pumped(RandWriteGen::new(Region::whole(), ios), window, seed, name)
}

/// Uniform random reads over the whole logical space.
fn rand_reader(ios: u64, window: u64, seed: u64, name: &str) -> Actor {
    pumped(RandReadGen::new(Region::whole(), ios), window, seed, name)
}

/// A 50/50 uniform random read/write mix over the whole logical space.
fn mixed(ios: u64, window: u64, seed: u64, name: &str) -> Actor {
    pumped(MixedGen::new(Region::whole(), ios, 0.5), window, seed, name)
}

/// Skewed (θ = 0.99) reads over the whole space or namespace.
fn zipf_reader(ios: u64, window: u64, seed: u64) -> Pumped<ZipfGen> {
    let gen = ZipfGen::new(Region::whole(), ios, 0.99, ZipfKind::Reads);
    Pumped::new(gen, window, seed).named("zipf-reader")
}

/// A sequential write flood with a large window.
pub(crate) fn seq_flooder(ios: u64, window: u64, seed: u64) -> Pumped<SeqWriteGen> {
    Pumped::new(SeqWriteGen::new(Region::whole(), ios), window, seed).named("seq-flooder")
}

/// The latency-sensitive tenant: skewed reads, small in-flight window,
/// high WFQ weight / top tier / no rate cap.
pub(crate) fn reader_tenant(ios: u64, window: u64, seed: u64) -> Actor {
    Actor::Tenant(
        TenantProfile::new("reader", 2048)
            .weight(8)
            .tier(0)
            .thread(zipf_reader(ios, window, seed)),
    )
}

/// The misbehaving neighbor running `flood`: low weight / lower tier / a
/// 4k-IOPS cap under the token bucket.
pub(crate) fn flooder_tenant(pages: u64, flood: impl Workload + 'static) -> Actor {
    Actor::Tenant(
        TenantProfile::new("flooder", pages)
            .weight(1)
            .tier(1)
            .iops_limit(4_000.0)
            .burst(4.0)
            .thread(flood),
    )
}

/// The controller scheduling policies E4 and G1 sweep.
fn policies() -> Vec<(&'static str, SchedPolicy)> {
    vec![
        ("fifo", SchedPolicy::Fifo),
        ("reads_first", SchedPolicy::reads_first()),
        ("writes_first", SchedPolicy::writes_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
    ]
}

/// The tenant QoS policies E19/E20/E24 sweep (every scale runs all of
/// them — the whole point is the cross-policy comparison).
fn qos_policies() -> Vec<(&'static str, QosPolicy)> {
    vec![
        ("none", QosPolicy::None),
        ("wfq", QosPolicy::Wfq),
        ("token_bucket", QosPolicy::TokenBucket),
        (
            "strict_tiers",
            QosPolicy::StrictTiers {
                starvation_us: 50_000,
            },
        ),
    ]
}

/// A DFTL whose cached mapping table covers `percent` of `logical` pages.
fn dftl_covering(logical: u64, percent: u64) -> MappingKind {
    MappingKind::Dftl {
        cmt_entries: ((logical * percent) / 100).max(8) as usize,
    }
}

/// A hybrid log-block FTL with `log_blocks` random log blocks.
fn hybrid(log_blocks: usize) -> MappingKind {
    MappingKind::Hybrid { log_blocks }
}

/// The three mapping families, given the DFTL and hybrid variants to use.
fn schemes(dftl: MappingKind, hybrid: MappingKind) -> [(&'static str, MappingKind); 3] {
    [
        ("page_map", MappingKind::PageMap),
        ("dftl", dftl),
        ("hybrid", hybrid),
    ]
}

/// Every pair of one value from `a` and one from `b`, `a` outermost.
fn cross<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|x| b.iter().map(move |y| (x.clone(), y.clone())))
        .collect()
}

/// The standard row: throughput, latencies, WA and GC erases over all
/// actors.
fn standard(r: &Ran) -> Row {
    r.row().cols(&r.all, &STANDARD)
}

// ---------------------------------------------------------------------
// E1 — parallelism

fn e1_parallelism(scale: Scale) -> Table {
    let dims = scale.thin(&[1u32, 2, 4, 8]);
    let ios = scale.ios(8192);
    sweep(
        "E1",
        "Random-write IOPS vs channels × LUNs/channel",
        "geometry",
        cross(&dims, &dims),
        |(ch, luns)| {
            let mut setup = Setup::demo();
            setup.geometry = Geometry {
                channels: ch,
                luns_per_channel: luns,
                ..Setup::small().geometry
            };
            setup.os.queue_depth = 128;
            let writer = rand_writer(ios, 128, 0xE1, "rand-writer");
            Point::fresh(format!("{ch}x{luns}"), setup, vec![writer])
        },
        |r| {
            let luns = r.os.controller().array().geometry().total_luns();
            r.row()
                .push("luns_total", luns as f64)
                .cols(&r.all, &[IOPS, WRITE_US])
        },
    )
}

// ---------------------------------------------------------------------
// E2 — queue depth

fn e2_queue_depth(scale: Scale) -> Table {
    let ios = scale.ios(8192);
    sweep(
        "E2",
        "Random-read IOPS and latency vs OS queue depth",
        "qd",
        scale.thin(&[1usize, 2, 4, 8, 16, 32, 64]),
        |qd| {
            let mut setup = Setup::small();
            setup.os.queue_depth = qd;
            let reader = rand_reader(ios, 256, 0xE2, "reader");
            Point::filled(format!("{qd}"), setup, vec![reader])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E3 — GC greediness

fn e3_gc_greediness(scale: Scale) -> Table {
    sweep(
        "E3",
        "Steady-state overwrite: throughput / WA / tails vs GC greediness",
        "greediness",
        scale.thin(&[1u32, 2, 3, 4, 6, 8]),
        |g| {
            let mut setup = small();
            setup.ctrl.gc.greediness = g;
            let ios = scale.ios(setup.logical_pages() * 3);
            let writer = rand_writer(ios, 32, 0xE3, "overwriter");
            Point::filled(format!("{g}"), setup, vec![writer])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E4 — controller scheduling policies

fn e4_ctrl_sched(scale: Scale) -> Table {
    sweep(
        "E4",
        "Mixed 50/50 read-write under controller scheduling policies",
        "policy",
        scale.thin(&policies()),
        |(name, pol)| {
            let mut setup = small();
            setup.ctrl.sched = pol;
            setup.os.queue_depth = 64;
            let ios = scale.ios(setup.logical_pages() * 2);
            Point::filled(name, setup, vec![mixed(ios, 64, 0xE4, "mixed")])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E5 — internal-op (GC) priority

fn e5_internal_priority(scale: Scale) -> Table {
    let variants: Vec<(&str, SchedPolicy)> = vec![
        ("internal_low", SchedPolicy::app_first()),
        ("equal_fifo", SchedPolicy::Fifo),
        ("internal_high", SchedPolicy::internal_first()),
    ];
    sweep(
        "E5",
        "Reader tail latency vs internal-op priority under overwrite load",
        "gc_priority",
        scale.thin(&variants),
        |(name, pol)| {
            let mut setup = small();
            setup.ctrl.sched = pol;
            setup.os.queue_depth = 32;
            let logical = setup.logical_pages();
            let writer = rand_writer(scale.ios(logical * 2), 16, 0xE5, "overwriter");
            let reader = rand_reader(scale.ios(logical), 4, 0x5E, "reader");
            Point::filled(name, setup, vec![writer, reader])
        },
        // The reader's view plus global throughput and WA.
        |r| {
            r.row()
                .cols(&r.actors[1].m, &[READ_US, READ_P99_US, READ_SD_US])
                .cols(&r.all, &[TOTAL_IOPS, WA])
        },
    )
}

// ---------------------------------------------------------------------
// E6 — mapping schemes

fn e6_mapping(scale: Scale) -> Table {
    let logical = small().logical_pages();
    let mut variants = vec![("page_map".to_string(), MappingKind::PageMap)];
    for c in scale.thin(&[1u64, 5, 10, 25, 50, 100]) {
        variants.push((format!("dftl_{c}%"), dftl_covering(logical, c)));
    }
    for b in scale.thin(&[4usize, 16]) {
        variants.push((format!("hybrid_{b}"), hybrid(b)));
    }
    sweep(
        "E6",
        "Zipf mixed workload: page map vs DFTL (CMT coverage) vs hybrid (log budget)",
        "mapping",
        variants,
        |(name, mapping)| {
            let mut setup = small();
            setup.ctrl.mapping = mapping;
            let ios = scale.ios(logical * 2);
            let gen = ZipfGen::new(Region::whole(), ios, 0.99, ZipfKind::Mixed(50));
            Point::filled(name, setup, vec![pumped(gen, 32, 0xE6, "zipf-mixed")])
        },
        |r| {
            let memory = r.os.controller().memory();
            let map_ram = memory.reserved_for(MemoryKind::Ram, "mapping");
            r.row()
                .cols(&r.all, &[IOPS, READ_US, WRITE_US])
                .push("map_ram_kb", map_ram.unwrap_or(0) as f64 / 1024.0)
                .cols(&r.all, &[MAP_FETCHES, MAP_WRITEBACKS, MERGES, WA])
        },
    )
}

// ---------------------------------------------------------------------
// E7 — wear leveling

fn e7_wear_leveling(scale: Scale) -> Table {
    let variants: Vec<(&str, bool, bool, TemperatureMode)> = vec![
        ("off", false, false, TemperatureMode::Off),
        ("static", true, false, TemperatureMode::Off),
        ("static+dynamic", true, true, TemperatureMode::Detector),
    ];
    sweep(
        "E7",
        "Skewed overwrite: wear distribution vs WL strategy",
        "wl_mode",
        scale.thin(&variants),
        |(name, stat, dyn_, temp)| {
            let mut setup = Setup::small();
            setup.ctrl.wl.static_enabled = stat;
            setup.ctrl.wl.dynamic_enabled = dyn_;
            setup.ctrl.wl.check_every_erases = 16;
            setup.ctrl.wl.young_delta = 4;
            // The conservative default idle factor only fires on much
            // longer runs; sweep with an eager setting so the experiment
            // shows the static-WL trade-off at this scale.
            setup.ctrl.wl.idle_factor = 0.5;
            setup.ctrl.temperature = temp;
            let ios = scale.ios(setup.logical_pages() * 6);
            let gen = ZipfGen::new(Region::whole(), ios, 1.1, ZipfKind::Writes);
            Point::filled(name, setup, vec![pumped(gen, 32, 0xE7, "zipf-writer")])
        },
        |r| {
            r.row()
                .cols(&r.all, &[IOPS, WA, WEAR_SD, WEAR_MAX, WL_ERASES])
        },
    )
}

// ---------------------------------------------------------------------
// E8 — open interface

fn e8_open_interface(scale: Scale) -> Table {
    // Each open-interface mode is the one controller knob that honours
    // its hint; "closed" leaves the OS interface shut as well.
    type HonourHint = fn(&mut Setup);
    let variants: [(&str, HonourHint); 4] = [
        ("closed", |_| {}),
        ("priority", |s| s.ctrl.sched = SchedPolicy::TagPriority),
        ("temperature", |s| {
            s.ctrl.temperature = TemperatureMode::Hints
        }),
        ("locality", |s| s.ctrl.honor_locality = true),
    ];
    sweep(
        "E8",
        "Open-interface hints vs the locked block device",
        "hints",
        scale.thin(&variants),
        |(name, honour_hint)| {
            let mut setup = small();
            setup.os.queue_depth = 32;
            setup.os.open_interface = name != "closed";
            honour_hint(&mut setup);
            let logical = setup.logical_pages();
            let (w_ios, r_ios) = (scale.ios(logical * 3), scale.ios(logical / 2));
            // Writer: skewed updates, hinted hot/cold + per-group locality.
            let writer_gen = ZipfGen::new(Region::whole(), w_ios, 0.99, ZipfKind::Writes)
                .with_temperature_hints(0.2);
            let mut writer = Pumped::new(writer_gen, 16, 0xE8).named("tenant-writer");
            if name == "locality" {
                writer = writer.tagged(IoTags::none().with_locality(1));
            }
            // Reader: latency sensitive, tagged urgent.
            let reader = Pumped::new(RandReadGen::new(Region::whole(), r_ios), 4, 0x8E)
                .named("urgent-reader")
                .tagged(IoTags::none().with_priority(0));
            let actors = vec![Actor::thread(writer), Actor::thread(reader)];
            Point::filled(name, setup, actors)
        },
        |r| {
            let reader = &r.actors[1];
            r.row()
                .cols(&r.all, &[TOTAL_IOPS, WA])
                .cols(&reader.m.read_tail, &[READER_P99_US])
                .cols(&reader.m, &[READER_US])
        },
    )
}

// ---------------------------------------------------------------------
// E9 — advanced commands

fn e9_advanced_commands(scale: Scale) -> Table {
    let variants = [
        ("neither", false, false),
        ("copyback", true, false),
        ("interleave", false, true),
        ("both", true, true),
    ];
    sweep(
        "E9",
        "GC-heavy overwrite: copy-back × channel interleaving",
        "commands",
        scale.thin(&variants),
        |(name, cb, il)| {
            let mut setup = small();
            setup.ctrl.gc.use_copyback = cb;
            setup.ctrl.interleaving = il;
            let ios = scale.ios(setup.logical_pages() * 3);
            let writer = rand_writer(ios, 32, 0xE9, "overwriter");
            Point::filled(name, setup, vec![writer])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E10 — Grace hash join

fn e10_grace_join(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10",
        "Grace hash join phases vs write-allocation policy",
        "alloc",
    );
    let variants = [
        ("round_robin", WriteAllocPolicy::RoundRobin),
        ("least_utilized", WriteAllocPolicy::LeastUtilized),
        ("striping", WriteAllocPolicy::Striping),
    ];
    for (name, alloc) in scale.thin(&variants) {
        let mut setup = small();
        setup.ctrl.write_alloc = alloc;
        setup.os.queue_depth = 64;
        let logical = setup.logical_pages();
        // Relations sized so inputs + 2x-slack partitions fit.
        let r = (logical / 8).min(scale.ios(1024));
        let s = r;
        let sink = std::rc::Rc::new(std::cell::RefCell::new((None, None)));
        let region_r = Region::new(0, r);
        let region_s = Region::new(r, s);
        let out_len = ((r + s) * 2).div_ceil(8) * 8;
        let region_out = Region::new(r + s, out_len);
        let join = GraceHashJoin::new(region_r, region_s, region_out, 8, 32)
            .with_phase_sink(sink.clone());
        // Pre-write the inputs.
        let fill = vec![region_fill(region_r, 32), region_fill(region_s, 32)];
        let ran = run_point(Point::aged(name, setup, fill, vec![Actor::thread(join)]));
        t.note(name, &ran.stalled);
        let t0 = ran.started;
        let (part, probe) = *sink.borrow();
        let part_ms = part.map_or(0.0, |p: SimTime| p.since(t0).as_millis_f64());
        let probe_ms = probe.map_or(0.0, |p: SimTime| {
            p.since(part.unwrap_or(t0)).as_millis_f64()
        });
        t.rows.push(
            ran.row()
                .push("partition_ms", part_ms)
                .push("probe_ms", probe_ms)
                .cols(&ran.all, &[TOTAL_MS, IOPS]),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E11 — OS scheduler fairness

fn e11_os_fairness(scale: Scale) -> Table {
    let variants: Vec<(&str, OsSchedPolicy)> = vec![
        ("fifo", OsSchedPolicy::Fifo),
        ("round_robin", OsSchedPolicy::RoundRobin),
        (
            "priority_t2",
            OsSchedPolicy::ThreadPriority(vec![2, 2, 0, 1]),
        ),
    ];
    sweep(
        "E11",
        "Three competing threads under OS dispatch policies",
        "os_policy",
        scale.thin(&variants),
        |(name, pol)| {
            let mut setup = small();
            setup.os.policy = pol;
            setup.os.queue_depth = 8;
            let ios = scale.ios(setup.logical_pages());
            // Thread 1 (after fill): aggressive writer with a huge window;
            // threads 2 and 3: modest readers.
            let aggressive = rand_writer(ios, 128, 0xB1, "aggressive");
            let modest_a = rand_reader(ios / 2, 4, 0xB2, "modest-a");
            let modest_b = rand_reader(ios / 2, 4, 0xB3, "modest-b");
            Point::filled(name, setup, vec![aggressive, modest_a, modest_b])
        },
        |r| {
            r.row()
                .cols(&r.actors[0].m, &[AGGRESSIVE_IOPS])
                .cols(&r.actors[1].m, &[MODEST_A_IOPS])
                .cols(&r.actors[2].m, &[MODEST_B_IOPS])
                .cols(r, &[JAIN])
        },
    )
}

// ---------------------------------------------------------------------
// E12 — chip type

fn e12_chip_type(scale: Scale) -> Table {
    sweep(
        "E12",
        "Mixed workload on SLC vs MLC flash",
        "chip",
        [("slc", TimingSpec::slc()), ("mlc", TimingSpec::mlc())],
        |(name, timing)| {
            let mut setup = small();
            setup.timing = timing;
            let ios = scale.ios(setup.logical_pages() * 2);
            Point::filled(name, setup, vec![mixed(ios, 32, 0xE12, "mixed")])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E13 — write buffer

fn e13_write_buffer(scale: Scale) -> Table {
    sweep(
        "E13",
        "Skewed overwrite vs battery-backed write-buffer size",
        "buffer_pages",
        scale.thin(&[0u64, 16, 64, 256]),
        |pages| {
            let mut setup = small();
            setup.ctrl.write_buffer_pages = pages;
            let ios = scale.ios(setup.logical_pages() * 3);
            let gen = ZipfGen::new(Region::whole(), ios, 0.99, ZipfKind::Writes);
            let writer = pumped(gen, 32, 0xE13, "zipf-writer");
            Point::filled(format!("{pages}"), setup, vec![writer])
        },
        // Buffered writes complete at RAM speed (zero virtual latency), so
        // IOPS over the completion window is not meaningful; the makespan
        // of the measured phase until the device drains and the
        // flash-side WA are.
        |r| {
            let phase = r.os.now().since(r.started);
            r.row()
                .push(MAKESPAN_MS.name, phase.as_millis_f64())
                .cols(&r.all, &[WA, GC_ERASES, WRITE_P99_US])
        },
    )
}

// ---------------------------------------------------------------------
// E14 — over-provisioning

fn e14_overprovisioning(scale: Scale) -> Table {
    sweep(
        "E14",
        "Steady-state overwrite vs exported-capacity fraction",
        "logical_frac",
        scale.thin(&[0.70f64, 0.80, 0.85, 0.90, 0.95]),
        |frac| {
            let mut setup = small();
            setup.ctrl.logical_capacity = frac;
            let ios = scale.ios(setup.logical_pages() * 3);
            let writer = rand_writer(ios, 32, 0xE14, "overwriter");
            Point::filled(format!("{frac:.2}"), setup, vec![writer])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E15 — GC victim selection

fn e15_victim_policy(scale: Scale) -> Table {
    use eagletree_controller::VictimPolicy;
    let variants = [
        ("greedy", VictimPolicy::Greedy),
        ("random", VictimPolicy::Random),
        ("cost_benefit", VictimPolicy::CostBenefit),
    ];
    sweep(
        "E15",
        "Hot/cold overwrite under GC victim-selection policies",
        "victim",
        scale.thin(&variants),
        |(name, victim)| {
            let mut setup = small();
            setup.ctrl.gc.victim = victim;
            let ios = scale.ios(setup.logical_pages() * 4);
            let gen = ZipfGen::new(Region::whole(), ios, 1.0, ZipfKind::Writes);
            let writer = pumped(gen, 32, 0xE15, "hotcold-writer");
            Point::filled(name, setup, vec![writer])
        },
        standard,
    )
}

// ---------------------------------------------------------------------
// E16 — cached-program pipelining

fn e16_pipelining(scale: Scale) -> Table {
    sweep(
        "E16",
        "Sequential write throughput with and without cached programming",
        "pipelining",
        [("off", false), ("on", true)],
        |(name, on)| {
            let mut setup = small();
            setup.ctrl.use_cached_program = on;
            setup.os.queue_depth = 64;
            let ios = scale.ios(setup.logical_pages());
            let gen = SeqWriteGen::new(Region::whole(), ios);
            Point::fresh(name, setup, vec![pumped(gen, 64, 0xE16, "seq-writer")])
        },
        |r| r.row().cols(&r.all, &[IOPS, WRITE_US, MAKESPAN_MS]),
    )
}

// ---------------------------------------------------------------------
// E17 — hybrid log-block budget sweep

/// How many log blocks does a hybrid FTL need? Random overwrites force
/// full merges whose cost shrinks as the log pool grows — the §2.2 mapping
/// axis measured at its extreme (merge storms vs RAM budget).
fn e17_log_budget(scale: Scale) -> Table {
    sweep(
        "E17",
        "Random overwrite under the hybrid FTL vs log-block budget",
        "log_blocks",
        scale.thin(&[2usize, 4, 8, 16, 32]),
        |b| {
            let mut setup = small();
            setup.ctrl.mapping = hybrid(b);
            let ios = scale.ios(setup.logical_pages());
            let writer = rand_writer(ios, 32, 0xE17, "overwriter");
            Point::filled(format!("{b}"), setup, vec![writer])
        },
        |r| {
            r.row().cols(
                &r.all,
                &[
                    IOPS,
                    WRITE_US,
                    WRITE_P99_US,
                    WA,
                    FULL_MERGES,
                    SWITCH_MERGES,
                    MERGE_MOVES,
                    MERGE_ERASES,
                ],
            )
        },
    )
}

// ---------------------------------------------------------------------
// E18 — event-engine work

/// How much work does the *simulator* do? Simulation events and
/// event-queue operations for a GC-heavy random overwrite, swept over
/// device geometry × OS queue depth. This is the
/// meta-experiment behind every other one: the design-space sweeps the
/// paper calls for cost host time in proportion to these counts (what a
/// count costs on a given host is the `benchmark/` package's
/// `core.queue_ns_per_op` and `core.events_per_s`). Queue depth stresses
/// the controller's dispatch path (pending-op selection) and the overwrite
/// phase stresses GC victim selection (`queue_ops` counts the schedules +
/// pops the engine performed).
fn e18_engine_work(scale: Scale) -> Table {
    let small_geometry = Setup::small().geometry;
    let large_geometry = Geometry {
        channels: 4,
        luns_per_channel: 4,
        blocks_per_plane: 128,
        pages_per_block: 64,
        ..small_geometry
    };
    let geoms = [
        ("2x2x64x32", small_geometry),
        ("4x4x128x64", large_geometry),
    ];
    let geoms_qds = cross(&scale.thin(&geoms), &scale.thin(&[1usize, 64, 512]));
    sweep(
        "E18",
        "Events and queue ops for GC-heavy overwrite vs geometry × queue depth",
        "geometry/qd",
        geoms_qds,
        |((gname, g), qd)| {
            let mut setup = small();
            setup.geometry = g;
            setup.os.queue_depth = qd;
            // Enough overwrite to reach GC steady state even at smoke
            // scale (the fill leaves only the over-provisioning headroom
            // free).
            let ios = scale.ios(setup.logical_pages() * 4);
            let writer = rand_writer(ios, qd as u64, 0xE18, "overwriter");
            Point::filled(format!("{gname}/qd{qd}"), setup, vec![writer])
        },
        |r| {
            r.row()
                .push("events", r.events as f64)
                .push("queue_ops", r.queue_ops as f64)
                .cols(&r.all, &[IOPS, WA])
        },
    )
}

// ---------------------------------------------------------------------
// E19 — noisy neighbor

/// The row of a reader tenant (actor 0) beside a flooder tenant (actor
/// 1): the reader's tail percentiles are the paper-style y-axis.
fn neighbor_row(r: &Ran, flooder_cols: &[Col<Measured>]) -> Row {
    let (reader, flooder) = (&r.actors[0], &r.actors[1]);
    r.row()
        .cols(&reader.m.read_tail, &READER_TAIL)
        .cols(&reader.m, &[READER_IOPS])
        .cols(&flooder.m, flooder_cols)
        .push(
            "reader_util",
            r.os.namespace_utilization(reader.tenant_id()),
        )
        .push(
            "flooder_util",
            r.os.namespace_utilization(flooder.tenant_id()),
        )
}

/// "What does tenant A's p99 look like when tenant B misbehaves?" — a
/// latency-sensitive Zipf reader tenant shares the device with a
/// sequential-flood writer tenant. Swept over the tenant QoS policy: flat
/// dispatch (no isolation) vs WFQ vs token-bucket rate capping vs strict
/// tiers.
fn e19_noisy_neighbor(scale: Scale) -> Table {
    sweep(
        "E19",
        "Reader-tenant tail latency under a flooding writer neighbor",
        "qos",
        qos_policies(),
        |(name, qos)| {
            let setup = shared(qos);
            let logical = setup.logical_pages();
            let reader = reader_tenant(scale.ios(logical / 2), 4, 0xE19);
            let flood = seq_flooder(scale.ios(logical * 3), 256, 0x91E);
            Point::filled(name, setup, vec![reader, flooder_tenant(4096, flood)])
        },
        |r| neighbor_row(r, &[FLOODER_IOPS, INTERNAL_OPS]),
    )
}

// ---------------------------------------------------------------------
// E20 — QoS design sweep

/// The serving-side design space: QoS policy × victim weight × tenant
/// count, with one flooding writer and `n-1` latency-sensitive readers.
/// Reports the worst reader p99, Jain fairness over per-tenant
/// throughput, and aggregate IOPS — the isolation-vs-utilization
/// trade-off grid.
fn e20_qos_sweep(scale: Scale) -> Table {
    let policies_weights = cross(&qos_policies(), &scale.thin(&[1u32, 2, 4]));
    sweep(
        "E20",
        "Worst reader p99 / fairness / aggregate IOPS over the QoS grid",
        "policy/weight/tenants",
        cross(&policies_weights, &scale.thin(&[2u64, 3, 4])),
        |(((pname, qos), w), n)| {
            let setup = shared(qos);
            let logical = setup.logical_pages();
            let flood = seq_flooder(scale.ios(logical * 2), 256, 0x20);
            let mut actors = vec![flooder_tenant(2048, flood)];
            actors.extend((0..n - 1).map(|i| {
                let reads = zipf_reader(scale.ios(logical / 4), 4, 0xE20 + i);
                let reader = TenantProfile::new(format!("reader{i}"), 1024);
                Actor::Tenant(reader.weight(w).tier(0).thread(reads))
            }));
            Point::filled(format!("{pname}/w{w}/n{n}"), setup, actors)
        },
        |r| {
            let worst_p99 = r.actors[1..]
                .iter()
                .map(|reader| reader.m.read_tail.p99.as_micros_f64())
                .fold(0.0f64, f64::max);
            r.row()
                .push("worst_reader_p99_us", worst_p99)
                .cols(r, &[JAIN])
                .cols(&r.all, &[TOTAL_IOPS, WA])
        },
    )
}

// ---------------------------------------------------------------------
// E21 — crash recovery: mount time vs checkpoint interval × fill

/// The durability-vs-mount-time trade-off: fill a device to varying
/// levels (with overwrite churn on top), pull the plug through the OS
/// layer, and remount the captured medium under both recovery modes. A
/// full OOB scan reads every written page's spare area, so mount time
/// grows with fill; checkpointed recovery replays the last committed
/// snapshot and re-scans only blocks holding post-watermark entries, at
/// the cost of periodic checkpoint writes during normal operation.
fn e21_mount_time(scale: Scale) -> Table {
    let mut t = Table::new(
        "E21",
        "Mount time and OOB reads: full scan vs checkpoint replay, per fill × interval",
        "fill/interval",
    );
    let fills: Vec<f64> = vec![0.25, 0.5, 1.0];
    let intervals: Vec<u64> = vec![256, 512, 1024];
    for &fill in &scale.thin(&fills) {
        for &interval in &scale.thin(&intervals) {
            let mut setup = small();
            setup.ctrl.checkpoint_interval_programs = interval;
            let logical = setup.logical_pages();
            #[expect(
                clippy::cast_sign_loss,
                reason = "a page count; fill is one of the literal fractions above"
            )]
            let pages = ((logical as f64) * fill) as u64;
            let region = Region::new(0, pages);
            let ctrl = setup.ctrl.clone();
            let filler = Pumped::new(SeqWriteGen::new(region, pages), 32, 0xE21).named("filler");
            // Overwrite churn: garbage + post-checkpoint entries to replay.
            let churner =
                Pumped::new(RandWriteGen::new(region, pages / 2), 32, 0x21E).named("churner");
            let label = format!("f{:.0}/i{interval}", fill * 100.0);
            let fill = vec![Box::new(filler) as Box<dyn Workload>];
            let ran = run_point(Point::aged(label, setup, fill, vec![Actor::thread(churner)]));
            t.note(&ran.label, &ran.stalled);
            let ckpt_writes = ran.os.controller().stats().checkpoint_pages;
            let row = ran.row();
            let image = ran.os.power_cut();
            let (_, full) = Controller::remount(image.clone(), ctrl.clone(), RecoveryMode::FullScan)
                .expect("full-scan remount");
            let (c2, ck) = Controller::remount(image, ctrl, RecoveryMode::Checkpoint)
                .expect("checkpoint remount");
            c2.check_invariants();
            t.rows.push(
                row.push("entries", full.data_entries as f64)
                    .push("full_oob", full.oob_scanned as f64)
                    .push("full_mount_us", full.mount_time.as_micros_f64())
                    .push("ckpt_oob", ck.oob_scanned as f64)
                    .push("ckpt_mount_us", ck.mount_time.as_micros_f64())
                    .push("ckpt_probes", ck.blocks_probed as f64)
                    .push("used_ckpt", if ck.used_checkpoint { 1.0 } else { 0.0 })
                    .push("ckpt_pages_written", ckpt_writes as f64),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// E22 — crash-point sweep during GC/merge

/// Sequentially fill the whole logical space of `d` (GC
/// preconditioning): each cut must keep these pages too, whichever of
/// them GC was moving.
fn e22_fill(d: &mut Driver) -> Result<(), Stuck> {
    let fill: Vec<_> = (0..d.c.logical_pages()).map(|lpn| (RequestKind::Write, lpn)).collect();
    d.submit_windowed(&fill, 32)
}

/// Agenda instants between two windows of E22's churn: fewer than a
/// window takes to drain, so windows overlap.
const E22_PACE: u64 = 4;

/// Submit `ops` in windows of `qd`, [`E22_PACE`] agenda instants apart,
/// then run the agenda dry, so a power cut can land anywhere in the event
/// stream — mid-GC and mid-merge included: stop after `crash_step`
/// instants (`u64::MAX` = run to quiescence). Returns the instants left.
fn e22_churn(d: &mut Driver, ops: &[(RequestKind, Lpn)], qd: usize, crash_step: u64) -> u64 {
    let mut budget = crash_step;
    for window in ops.chunks(qd) {
        for &(kind, lpn) in window {
            d.submit(kind, lpn);
        }
        let pace = E22_PACE.min(budget);
        budget -= pace - d.step_n(pace);
        if budget == 0 {
            return 0;
        }
    }
    d.step_n(budget)
}

/// The churn script: clustered overwrites on a full device — every write
/// forces reclamation (generic GC or log-block merges), so crash points
/// land inside GC reads/writes/erases and merge folds. One op in 8 is a
/// trim, mixed in besides the writes, so a cut also lands between a trim
/// and the writes around it.
fn e22_ops(scale: Scale) -> Vec<(RequestKind, Lpn)> {
    let mut rng = SimRng::new(0xE22);
    let mut ops = Vec::new();
    let mut writes = 0;
    while writes < scale.ios(2048) {
        let kind = if rng.gen_range(8) == 0 { RequestKind::Trim } else { RequestKind::Write };
        writes += u64::from(kind == RequestKind::Write);
        ops.push((kind, rng.gen_range(96)));
    }
    ops
}

/// Pull the plug at evenly spaced points of a GC/merge-heavy event
/// stream, remount under both recovery modes, and run the driver's cut
/// check — the crash-atomicity proof for GC and merge relocation (copies
/// are sequence-stamped; victims are erased only after all live copies
/// landed). `broken_cuts` must be zero; stderr names each broken promise.
fn e22_crash_sweep(scale: Scale) -> Table {
    let mut t = Table::new(
        "E22",
        "Acknowledged writes surviving a power cut during GC/merge, per scheme × recovery mode",
        "scheme/mode",
    );
    let points = match scale {
        Scale::Smoke => 6u64,
        Scale::Demo => 12,
        Scale::Full => 24,
    };
    let ops = e22_ops(scale);
    let qd = 16;
    for (sname, mapping) in schemes(MappingKind::Dftl { cmt_entries: 24 }, hybrid(3)) {
        let cfg = ControllerConfig {
            mapping,
            checkpoint_interval_programs: 128,
            ..ControllerConfig::default()
        };
        // Rehearsal: total event boundaries of the churn phase.
        let mut d = Driver::tiny(cfg.clone());
        let filled = e22_fill(&mut d);
        let total_steps = u64::MAX - e22_churn(&mut d, &ops, qd, u64::MAX);
        if let Err(s) = d.run().and(filled) {
            t.stuck.push((sname.to_string(), s.pending_ops() as usize));
        }
        let internal_erases =
            d.c.stats().gc_erases + d.c.stats().merge_erases + d.c.stats().wl_erases;
        // Per recovery mode: acked writes kept, cuts that broke a promise,
        // torn pages, interrupted erases, mount µs and OOB records read.
        let modes = [RecoveryMode::FullScan, RecoveryMode::Checkpoint];
        let mut sums = [(0u64, 0u64, 0u64, 0u64, 0.0f64, 0u64); 2];
        for k in 1..=points {
            let crash_step = (k * total_steps / (points + 1)).max(1);
            let mut d = Driver::tiny(cfg.clone());
            // The rehearsal's fill, to the event: its stop is noted above.
            let _ = e22_fill(&mut d);
            e22_churn(&mut d, &ops, qd, crash_step);
            let promised = d.promised();
            let image = d.power_cut();
            for (mode, sum) in modes.into_iter().zip(&mut sums) {
                let (c2, rep) = Controller::remount(image.clone(), cfg.clone(), mode)
                    .expect("E22 remount");
                match promised.check(&c2) {
                    Ok(kept) => sum.0 += kept,
                    Err(e) => {
                        eprintln!("E22 {sname}/{}: cut {k} broke a promise: {e}", mode.name());
                        sum.1 += 1;
                    }
                }
                sum.2 += rep.torn_pages;
                sum.3 += rep.interrupted_erases;
                sum.4 += rep.mount_time.as_micros_f64();
                sum.5 += rep.oob_scanned;
            }
        }
        for (mode, sum) in modes.into_iter().zip(sums) {
            let (verified, broken, torn, interrupted, mount_us, oob) = sum;
            t.rows.push(
                Row::new(format!("{sname}/{}", mode.name()))
                    .push("crash_points", points as f64)
                    .push("acked_verified", verified as f64)
                    .push("broken_cuts", broken as f64)
                    .push("torn_pages", torn as f64)
                    .push("interrupted_erases", interrupted as f64)
                    .push("mean_mount_us", mount_us / points as f64)
                    .push("mean_oob", oob as f64 / points as f64)
                    .push("pre_cut_internal_erases", internal_erases as f64),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// E23 — trace replay vs characterizer-matched synthetic

/// Record counts for the replayed trace: the Full run streams a
/// million-IO trace end-to-end (the production-scale target), smoke keeps
/// CI in milliseconds.
fn e23_records(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 6_000,
        Scale::Demo => 120_000,
        Scale::Full => 1_100_000,
    }
}

/// The canonical E23 trace shape: a skewed, bursty, read-mostly mix over
/// a footprint comfortably inside the device's logical space.
fn e23_shape() -> SynthShape {
    SynthShape {
        footprint_pages: 3_000,
        read_fraction: 0.7,
        trim_fraction: 0.0,
        zipf_theta: 1.1,
        pages_per_record: 1,
        mean_interarrival: SimDuration::from_micros(20),
        interarrival_cv: 2.0,
    }
}

/// The full production ingestion chain for E23: a deterministic MSR-style
/// CSV byte stream, parsed back through [`MsrCsvSource`], folded into the
/// device's logical space, and prefetched in bounded chunks (peak
/// residency reported through `probe`).
fn e23_stream(
    records: u64,
    seed: u64,
    logical: u64,
    probe: Arc<AtomicUsize>,
) -> ChunkedSource<Remap<MsrCsvSource<std::io::BufReader<SynthCsv<SyntheticTrace>>>>> {
    let csv = SynthCsv::new(SyntheticTrace::new(e23_shape(), records, seed), 4096);
    let parsed = MsrCsvSource::new(std::io::BufReader::new(csv), 4096);
    ChunkedSource::new(Remap::new(parsed, logical), E23_CHUNK).with_probe(probe)
}

/// Records buffered per prefetch chunk — the bound the smoke test holds
/// peak residency to.
const E23_CHUNK: usize = 4096;

/// "Can a characterizer-matched synthetic stand in for the real trace?" —
/// replay a production-style CSV trace open-loop against all three
/// mapping schemes, then characterize the same byte stream and replay a
/// synthesized look-alike. The paper's methodology question: rows pair
/// `scheme/replay` with `scheme/synth` so throughput, tails and WA can be
/// compared side by side; the lead `trace/profile` row records what the
/// characterizer measured.
fn e23_trace_vs_synth(scale: Scale) -> Table {
    let mut t = Table::new(
        "E23",
        "Replayed CSV trace vs characterizer-matched synthetic, per mapping scheme",
        "scheme/source",
    );
    let records = e23_records(scale);
    let logical = small().logical_pages();
    // Characterize one identical byte stream (same seed ⇒ same records).
    let mut probe_src = e23_stream(records, 0xE23, logical, Arc::new(AtomicUsize::new(0)));
    let profile = characterize(&mut probe_src);
    t.rows.push(
        Row::new("trace/profile".to_string())
            .push("records", profile.records as f64)
            .push("footprint_pages", profile.footprint_pages as f64)
            .push("read_frac", profile.read_fraction)
            .push("zipf_theta", profile.zipf_theta)
            .push("mean_gap_us", profile.mean_interarrival.as_micros_f64())
            .push("gap_cv", profile.interarrival_cv),
    );
    for (sname, mapping) in schemes(dftl_covering(logical, 25), hybrid(16)) {
        // Both arms: same device, same preconditioning, open-loop pacing
        // with the same warp — only the record source differs.
        let probe = Arc::new(AtomicUsize::new(0));
        let stream = e23_stream(records, 0xE23, logical, Arc::clone(&probe));
        let replay = ReplayThread::open_loop(stream, 50.0).named("trace-replay");
        let synth = profile.synthesize(records, 0x53E23);
        let synth = ReplayThread::open_loop(synth, 50.0).named("synth");
        for (arm, source, probe) in [
            ("replay", Actor::thread(replay), Some(probe)),
            ("synth", Actor::thread(synth), None),
        ] {
            let mut setup = small();
            setup.ctrl.mapping = mapping;
            setup.os.queue_depth = 64;
            let label = format!("{sname}/{arm}");
            let r = run_point(Point::filled(label, setup, vec![source]));
            t.note(&r.label, &r.stalled);
            let cols = [IOPS, READ_P99_US, WRITE_P99_US, WA, GC_ERASES];
            let mut row = r.row().cols(&r.all, &cols);
            if let Some(p) = probe {
                let peak = p.load(Ordering::Relaxed);
                row = row.push("peak_resident_recs", peak as f64);
            }
            t.rows.push(row);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E24 — QoS isolation under a replayed noisy neighbor

/// E19 re-run with production-style traffic: the flooding writer tenant
/// is replaced by an open-loop replay of a bursty write-heavy CSV trace
/// (ingested through the full parse chain), so the QoS policies face
/// recorded burst structure instead of a synthetic steady flood. Same
/// acceptance bar as E19: WFQ / token bucket must still cut the reader's
/// p99.
fn e24_replayed_noisy_neighbor(scale: Scale) -> Table {
    sweep(
        "E24",
        "Reader-tenant tails vs a replayed bursty trace neighbor, per QoS policy",
        "qos",
        qos_policies(),
        |(name, qos)| {
            let setup = shared(qos);
            let logical = setup.logical_pages();
            // Misbehaving neighbor: an open-loop replay of a write-heavy
            // bursty trace, parsed from CSV; the replay thread folds trace
            // pages into the tenant's namespace.
            let shape = SynthShape {
                footprint_pages: 4_096,
                read_fraction: 0.05,
                trim_fraction: 0.0,
                zipf_theta: 0.4,
                pages_per_record: 1,
                mean_interarrival: SimDuration::from_micros(10),
                interarrival_cv: 2.5,
            };
            let trace = SyntheticTrace::new(shape, scale.ios(logical * 2), 0xE24);
            let csv = std::io::BufReader::new(SynthCsv::new(trace, 4096));
            let records = ChunkedSource::new(MsrCsvSource::new(csv, 4096), E23_CHUNK);
            let flood = ReplayThread::open_loop(records, 20.0).named("trace-flooder");
            // The latency-sensitive tenant is E19's reader, seed included.
            let reader = reader_tenant(scale.ios(logical / 2), 4, 0xE19);
            Point::filled(name, setup, vec![reader, flooder_tenant(4096, flood)])
        },
        |r| neighbor_row(r, &[FLOODER_IOPS]),
    )
}

// ---------------------------------------------------------------------
// E25 — media reliability vs device age

/// The E25/E26 fault profile at `age` baseline P/E cycles: default
/// MLC-class failure curves, but disturb-sensitive cells so a short
/// virtual run accumulates enough raw errors for scrubbing to matter.
fn e25_fault(age: u32) -> FaultConfig {
    FaultConfig {
        raw_bits_per_disturb: 0.08,
        baseline_pe: age,
        ..FaultConfig::default()
    }
}

/// The E25/E26 scrub knob: disturb/retention thresholds low enough to
/// trip within a smoke-scale run, checked every `check_every_ops` ops.
fn e25_scrub(check_every_ops: u64) -> ScrubConfig {
    ScrubConfig {
        check_every_ops,
        read_disturb_threshold: 48,
        retention_threshold_s: 1.0,
        max_inflight: 1,
    }
}

/// Age the device (baseline P/E in the error curves) and read it hard:
/// raw bit errors grow with wear and read disturb, ECC retries charge
/// extra read time, and past the ECC's strength reads go uncorrectable.
/// Each scheme runs with and without background scrubbing — the scrubber
/// refreshes disturbed blocks before their errors outgrow the ECC, at
/// the cost of its own internal traffic.
fn e25_reliability_aging(scale: Scale) -> Table {
    let scheme_ages = cross(
        &schemes(MappingKind::Dftl { cmt_entries: 24 }, hybrid(8)),
        &scale.thin(&[0u32, 2_500, 5_000]),
    );
    let scrubs = [("noscrub", None), ("scrub", Some(e25_scrub(64)))];
    sweep(
        "E25",
        "UBER / corrected bits / ECC retries / read tails vs device age, per scheme, ± scrubbing",
        "scheme/age/scrub",
        cross(&scheme_ages, &scrubs),
        |(((sname, mapping), age), (scrub_name, scrub))| {
            let mut setup = small();
            setup.ctrl.mapping = mapping;
            setup.ctrl.fault = Some(e25_fault(age));
            setup.ctrl.scrub = scrub;
            let ios = scale.ios(setup.logical_pages() * 2);
            let reader = Actor::thread(zipf_reader(ios, 32, 0xE25));
            let label = format!("{sname}/pe{age}/{scrub_name}");
            Point::filled(label, setup, vec![reader])
        },
        |r| {
            let rel = r.all.reliability.expect("fault model installed");
            let rel_cols = [
                UBER,
                CORRECTED_BITS,
                RETRIES,
                UNCORRECTABLE,
                GROWN_BAD,
                REMAPS,
                SCRUB_REFRESHES,
                LOST_LPNS,
            ];
            r.row()
                .cols(&r.all, &[READ_US, READ_P99_US])
                .cols(&rel, &rel_cols)
        },
    )
}

// ---------------------------------------------------------------------
// E26 — scrub interference

/// What does reliability maintenance cost the foreground? One
/// latency-sensitive zipf reader (the E19 tenant-histogram machinery)
/// runs on an aged, disturb-sensitive device while the scrub cadence
/// sweeps from off to eager. Scrub refreshes ride the scheduler as
/// `ScrubRead`/`ScrubWrite`, so their interference lands in the reader's
/// tail percentiles; the reliability columns show what the interference
/// buys.
fn e26_scrub_interference(scale: Scale) -> Table {
    let cadences: Vec<(&str, Option<u64>)> = vec![
        ("off", None),
        ("lazy", Some(1024)),
        ("steady", Some(256)),
        ("eager", Some(64)),
    ];
    sweep(
        "E26",
        "Foreground reader tails and reliability vs scrub cadence (aged device)",
        "scrub_cadence",
        scale.thin(&cadences),
        |(name, every)| {
            let mut setup = shared(QosPolicy::None);
            setup.ctrl.fault = Some(e25_fault(2_500));
            setup.ctrl.scrub = every.map(e25_scrub);
            let ios = scale.ios(setup.logical_pages());
            Point::filled(name, setup, vec![reader_tenant(ios, 8, 0xE26)])
        },
        |r| {
            let reader = &r.actors[0];
            let rel = r.all.reliability.expect("fault model installed");
            r.row()
                .cols(&reader.m.read_tail, &READER_TAIL)
                .cols(&reader.m, &[READER_IOPS])
                .cols(
                    &rel,
                    &[
                        SCRUB_REFRESHES,
                        SCRUB_READS,
                        SCRUB_WRITES,
                        CORRECTED_BITS,
                        RETRIES,
                        UNCORRECTABLE,
                    ],
                )
        },
    )
}

// ---------------------------------------------------------------------
// E27 — tail forensics

/// *Where* does the tail come from? An E19/E26-style contention run — a
/// latency-sensitive Zipf reader against a flooding sequential writer on
/// an aged device — with the span collector enabled, per QoS arm. The
/// reader's mean latency is split per stage (the spans are exhaustive by
/// construction: every close checks that its stage sums equal its
/// latency), and every read slower than the p999 threshold is bucketed
/// by its *dominant* stage, turning "the tail got worse" into "the tail
/// is scheduler-pending time behind GC".
fn e27_tail_forensics(scale: Scale) -> Table {
    let arms = qos_policies()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "none" | "token_bucket"));
    sweep(
        "E27",
        "Reader tail explained per stage; p999 outliers bucketed by dominant stage",
        "qos",
        arms,
        |(name, qos)| {
            let mut setup = shared(qos);
            setup.ctrl.fault = Some(e25_fault(2_500));
            setup.ctrl.obs.span_capacity = 1 << 18;
            setup.ctrl.obs.timeline_interval_us = 500;
            let logical = setup.logical_pages();
            let reader = reader_tenant(scale.ios(logical / 2), 4, 0xE27);
            let flood = seq_flooder(scale.ios(logical * 2), 256, 0x72E);
            Point::filled(name, setup, vec![reader, flooder_tenant(4096, flood)])
        },
        tail_forensics_row,
    )
}

fn tail_forensics_row(r: &Ran) -> Row {
    let (reader, flooder) = (&r.actors[0], &r.actors[1]);
    let tail = reader.m.read_tail;
    let obs = r.os.obs().expect("observability enabled");
    let bd = obs
        .stage_breakdown(Some(reader.tenant_id() as u32), RequestKind::Read.name())
        .expect("the reader's reads closed spans");
    let fl_qos_us = obs
        .stage_breakdown(Some(flooder.tenant_id() as u32), RequestKind::Write.name())
        .map_or(0.0, |b| b.mean_us(Stage::QosHold));
    // Bucket the p999 outliers by their dominant stage.
    let reader_tag = reader.tenant.map(|t| t as u32);
    let threshold = tail.p999.as_nanos();
    let mut outliers = [0u64; Stage::COUNT];
    for s in obs.spans() {
        if s.kind == "AppRead" && s.tenant == reader_tag && s.stages.total() >= threshold {
            outliers[s.stages.dominant() as usize] += 1;
        }
    }
    let mut row = r
        .row()
        .cols(&tail, &[READER_P50_US, READER_P99_US, READER_P999_US])
        .cols(bd, &STAGES)
        .push("fl_qos_us", fl_qos_us)
        .push("p999_outliers", outliers.iter().sum::<u64>() as f64);
    for (i, stage) in Stage::ALL.iter().enumerate() {
        row = row.push(
            match stage {
                Stage::QueueWait => "out_queue",
                Stage::QosHold => "out_qos",
                Stage::SchedPending => "out_pend",
                Stage::Media => "out_media",
                Stage::Retry => "out_retry",
            },
            outliers[i] as f64,
        );
    }
    row.push("spans", obs.closed_count() as f64)
        .push("spans_dropped", obs.dropped() as f64)
        .push("tl_rows", r.os.timeline().map_or(0, |tl| tl.len()) as f64)
}

// ---------------------------------------------------------------------
// G1 — the game

/// The demo game: grid-search scheduling-related knobs and score each
/// combination by throughput balanced against latency imbalance and
/// variability between reads and writes (§3). Rows are sorted best-first.
fn g1_game(scale: Scale) -> Table {
    let mut pols = policies();
    pols.retain(|(name, _)| *name != "writes_first");
    let pols_greeds = cross(&scale.thin(&pols), &scale.thin(&[1u32, 4]));
    let mut t = sweep(
        "G1",
        "Scheduling game: score = iops/1k − imbalance − variability",
        "combo",
        cross(&pols_greeds, &scale.thin(&[8usize, 32])),
        |(((pname, pol), g), qd)| {
            let mut setup = small();
            setup.ctrl.sched = pol;
            setup.ctrl.gc.greediness = g;
            setup.os.queue_depth = qd;
            let ios = scale.ios(setup.logical_pages() * 2);
            let label = format!("{pname}/g{g}/qd{qd}");
            Point::filled(label, setup, vec![mixed(ios, 64, 0x61, "game")])
        },
        |r| {
            let m = &r.all;
            let imbalance = (m.read_mean_us - m.write_mean_us).abs() / 100.0;
            let variability = (m.read_stddev_us + m.write_stddev_us) / 200.0;
            r.row()
                .push("score", m.iops / 1000.0 - imbalance - variability)
                .cols(m, &[IOPS, READ_US, WRITE_US, READ_SD_US, WRITE_SD_US])
        },
    );
    t.rows.sort_by(|a, b| {
        b.get("score")
            .partial_cmp(&a.get("score"))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    t
}
#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(id: &str) -> Table {
        by_id(id).expect("a suite id").run(Scale::Smoke)
    }

    /// E25's `dftl/pe5000/scrub` device stops during `run_point`'s fill
    /// (51 ops that can never issue, on a LUN with no free block). With no measured
    /// work the fill's stop is what the point reports; with the reader, the
    /// measured phase's, which at this seed stops on the same 51 ops.
    #[test]
    fn a_fill_phase_stall_is_reported() {
        let mut setup = small();
        setup.ctrl.mapping = MappingKind::Dftl { cmt_entries: 24 };
        setup.ctrl.fault = Some(e25_fault(5_000));
        setup.ctrl.scrub = Some(e25_scrub(64));
        let ios = Scale::Smoke.ios(setup.logical_pages() * 2);
        let point = |read: bool| {
            let reader = || Actor::thread(zipf_reader(ios, 32, 0xE25));
            let actors = if read { vec![reader()] } else { Vec::new() };
            Point::filled(format!("read {read}"), setup.clone(), actors)
        };
        let t = sweep("EX", "fill stall", "read", [false, true], point, Ran::row);
        assert_eq!(t.stuck, [("read false".to_string(), 51), ("read true".to_string(), 51)]);
    }

    #[test]
    fn suite_is_complete_and_indexed() {
        let s = all();
        assert_eq!(s.len(), 28);
        let ids: Vec<&str> = s.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec![
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12",
                "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23",
                "E24", "E25", "E26", "E27", "G1"
            ]
        );
        assert!(by_id("e3").is_some());
        assert!(by_id("G1").is_some());
        assert!(by_id("E99").is_none());
    }

    #[test]
    fn smoke_e25_reliability_scales_with_age() {
        let t = smoke("E25");
        // 3 schemes x 2 ages (smoke keeps the sweep's ends) x ± scrub.
        assert_eq!(t.rows.len(), 12);
        let get = |label: String, col: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
                .get(col)
                .unwrap()
        };
        for scheme in ["page_map", "dftl", "hybrid"] {
            // An aged device needs more ECC retries (and read-retry time)
            // than a fresh one — the aging curve actually bites.
            assert!(
                get(format!("{scheme}/pe5000/noscrub"), "retries")
                    > get(format!("{scheme}/pe0/noscrub"), "retries"),
                "retries must grow with device age: {}",
                t.render()
            );
            // The scrubber refreshed at-risk blocks when enabled and
            // never ran when disabled.
            assert_eq!(get(format!("{scheme}/pe5000/noscrub"), "scrub_refreshes"), 0.0);
            assert!(
                get(format!("{scheme}/pe5000/scrub"), "scrub_refreshes") > 0.0,
                "an aged disturb-heavy run must trigger scrubbing: {}",
                t.render()
            );
            // At these ECC settings nothing goes uncorrectable, so the
            // lost-data ledger stays empty.
            assert_eq!(get(format!("{scheme}/pe5000/scrub"), "lost_lpns"), 0.0);
        }
    }

    #[test]
    fn smoke_e26_scrub_cadence_trades_interference() {
        let t = smoke("E26");
        // Smoke thins the cadence sweep to off + eager.
        assert_eq!(t.rows.len(), 2);
        let off = &t.rows[0];
        let eager = &t.rows[1];
        assert_eq!(off.label, "off");
        assert_eq!(off.get("scrub_refreshes").unwrap(), 0.0);
        assert_eq!(off.get("scrub_reads").unwrap(), 0.0);
        assert!(
            eager.get("scrub_refreshes").unwrap() > 0.0,
            "eager cadence must scrub: {}",
            t.render()
        );
        assert!(eager.get("scrub_reads").unwrap() > 0.0);
        // Both arms measured a live foreground.
        assert!(off.get("reader_p99_us").unwrap() > 0.0);
        assert!(eager.get("reader_p99_us").unwrap() > 0.0);
    }

    #[test]
    fn smoke_e21_checkpoint_cuts_mount_scan() {
        let t = smoke("E21");
        assert!(!t.rows.is_empty());
        for r in &t.rows {
            assert_eq!(
                r.get("used_ckpt").unwrap(),
                1.0,
                "a checkpoint must commit before the cut: {}",
                t.render()
            );
            // The acceptance bar: checkpointed recovery scans strictly
            // fewer OOB entries than the full scan, and mounts no slower.
            assert!(
                r.get("ckpt_oob").unwrap() < r.get("full_oob").unwrap(),
                "checkpoint replay must scan less than a full scan: {}",
                t.render()
            );
            assert!(
                r.get("ckpt_mount_us").unwrap() <= r.get("full_mount_us").unwrap(),
                "checkpoint replay must not mount slower: {}",
                t.render()
            );
            assert!(r.get("ckpt_pages_written").unwrap() > 0.0);
        }
        // Fuller devices pay more for the full scan.
        let first = t.rows.first().unwrap().get("full_oob").unwrap();
        let last = t.rows.last().unwrap().get("full_oob").unwrap();
        assert!(last > first, "full-scan cost should grow with fill");
    }

    #[test]
    fn smoke_e22_no_acknowledged_write_lost() {
        let t = smoke("E22");
        assert_eq!(t.rows.len(), 6, "3 schemes x 2 recovery modes");
        let mut torn_total = 0.0;
        for r in &t.rows {
            assert_eq!(
                r.get("broken_cuts").unwrap(),
                0.0,
                "a power cut broke a promise (stderr names it): {}",
                t.render()
            );
            assert!(r.get("acked_verified").unwrap() > 0.0);
            assert!(
                r.get("pre_cut_internal_erases").unwrap() > 0.0,
                "the sweep must actually crash into GC/merge activity"
            );
            torn_total += r.get("torn_pages").unwrap();
        }
        assert!(
            torn_total > 0.0,
            "some crash point should land mid-program: {}",
            t.render()
        );
    }

    #[test]
    fn smoke_e19_qos_isolates_the_reader_tenant() {
        let t = smoke("E19");
        let p99 = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .get("reader_p99_us")
                .unwrap()
        };
        let (none, wfq, tb) = (p99("none"), p99("wfq"), p99("token_bucket"));
        // The acceptance bar: WFQ or the token bucket must cut the
        // reader's p99 under a flooding neighbor at least 2x.
        assert!(
            none >= 2.0 * wfq.min(tb),
            "no >=2x isolation win: none={none:.0}us wfq={wfq:.0}us tb={tb:.0}us\n{}",
            t.render()
        );
        // Namespace accounting: the flooder writes, the reader does not.
        let row = t.rows.iter().find(|r| r.label == "none").unwrap();
        assert!(row.get("flooder_util").unwrap() > 0.0);
        assert_eq!(row.get("reader_util").unwrap(), 0.0);
    }

    #[test]
    fn smoke_e23_replays_and_matches_the_trace() {
        let t = smoke("E23");
        // 1 profile row + 3 schemes × {replay, synth}.
        assert_eq!(t.rows.len(), 7, "{}", t.render());
        let profile = t.rows.first().unwrap();
        assert_eq!(profile.get("records").unwrap(), e23_records(Scale::Smoke) as f64);
        // The characterizer should land near the generating shape.
        assert!((profile.get("read_frac").unwrap() - 0.7).abs() < 0.05, "{}", t.render());
        assert!((profile.get("zipf_theta").unwrap() - 1.1).abs() < 0.4, "{}", t.render());
        for r in t.rows.iter().skip(1) {
            assert!(r.get("iops").unwrap() > 0.0, "{}", t.render());
            // The streaming chain must never buffer more than one chunk.
            if let Some(peak) = r.get("peak_resident_recs") {
                assert!(
                    peak <= E23_CHUNK as f64,
                    "trace residency exceeded the chunk bound: {}",
                    t.render()
                );
                assert!(peak > 0.0);
            }
        }
        // Every scheme ran both arms.
        for s in ["page_map", "dftl", "hybrid"] {
            assert!(t.rows.iter().any(|r| r.label == format!("{s}/replay")));
            assert!(t.rows.iter().any(|r| r.label == format!("{s}/synth")));
        }
    }

    #[test]
    fn smoke_e24_qos_still_isolates_under_replayed_traffic() {
        let t = smoke("E24");
        let p99 = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .get("reader_p99_us")
                .unwrap()
        };
        let (none, wfq, tb) = (p99("none"), p99("wfq"), p99("token_bucket"));
        // E19's acceptance bar holds under recorded burst structure too.
        assert!(
            none >= 2.0 * wfq.min(tb),
            "no >=2x isolation win under replay: none={none:.0}us wfq={wfq:.0}us tb={tb:.0}us\n{}",
            t.render()
        );
        let row = t.rows.iter().find(|r| r.label == "none").unwrap();
        assert!(row.get("flooder_iops").unwrap() > 0.0, "{}", t.render());
        assert!(row.get("flooder_util").unwrap() > 0.0);
    }

    #[test]
    fn smoke_e20_covers_the_policy_grid() {
        let t = smoke("E20");
        // 4 policies × thinned weights {1,4} × thinned counts {2,4}.
        assert_eq!(t.rows.len(), 16);
        for r in &t.rows {
            assert!(r.get("worst_reader_p99_us").unwrap() > 0.0, "{}", t.render());
            let jain = r.get("jain").unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&jain));
        }
        // Isolation must show up in the grid too: some QoS row beats the
        // flat dispatcher on the worst reader p99.
        let flat = t.rows.iter().find(|r| r.label.starts_with("none/")).unwrap();
        let best_qos = t
            .rows
            .iter()
            .filter(|r| !r.label.starts_with("none/"))
            .map(|r| r.get("worst_reader_p99_us").unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(best_qos < flat.get("worst_reader_p99_us").unwrap());
    }

    #[test]
    fn smoke_e6_covers_all_three_mapping_families() {
        let t = smoke("E6");
        let labels: Vec<&str> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"page_map"));
        assert!(labels.iter().any(|l| l.starts_with("dftl_")));
        assert!(labels.iter().any(|l| l.starts_with("hybrid_")));
        // The hybrid's selling point: far less mapping RAM than page map.
        let pm = t.rows.iter().find(|r| r.label == "page_map").unwrap();
        let hy = t.rows.iter().find(|r| r.label.starts_with("hybrid_")).unwrap();
        assert!(
            hy.get("map_ram_kb").unwrap() * 4.0 < pm.get("map_ram_kb").unwrap(),
            "hybrid mapping RAM should be far below the page map's"
        );
        assert!(hy.get("merges").unwrap() > 0.0, "hybrid rows must merge");
    }

    #[test]
    fn smoke_e17_bigger_log_pool_cuts_wa() {
        let t = smoke("E17");
        let small = t.rows.first().unwrap();
        let big = t.rows.last().unwrap();
        assert!(
            big.get("WA").unwrap() < small.get("WA").unwrap(),
            "more log blocks must reduce merge write amplification: {}",
            t.render()
        );
        assert!(small.get("full_merges").unwrap() > 0.0);
    }

    #[test]
    fn smoke_e16_pipelining_speeds_sequential_writes() {
        let t = smoke("E16");
        let off = t.rows[0].get("iops").unwrap();
        let on = t.rows[1].get("iops").unwrap();
        assert!(
            on > off * 1.1,
            "cached programming should lift sequential writes: on={on:.0} off={off:.0}"
        );
    }

    #[test]
    fn smoke_e13_buffer_absorbs_writes() {
        let t = smoke("E13");
        let none = t.rows.first().unwrap().get("WA").unwrap();
        let big = t.rows.last().unwrap().get("WA").unwrap();
        assert!(
            big < none,
            "a 256-page buffer must cut WA under zipf: {big} !< {none}"
        );
    }

    #[test]
    fn smoke_e1_scales_with_parallelism() {
        let t = smoke("E1");
        assert!(t.rows.len() >= 2);
        let first = t.rows.first().unwrap();
        let last = t.rows.last().unwrap();
        assert!(
            last.get("iops").unwrap() > first.get("iops").unwrap() * 2.0,
            "64 LUNs should far outrun 1 LUN: {t:?}",
            t = t.render()
        );
    }

    #[test]
    fn smoke_e2_throughput_rises_with_qd() {
        let t = smoke("E2");
        let qd1 = t.rows.first().unwrap().get("iops").unwrap();
        let qd64 = t.rows.last().unwrap().get("iops").unwrap();
        assert!(qd64 > qd1 * 2.0, "qd=64 ({qd64}) !> 2×qd=1 ({qd1})");
    }

    #[test]
    fn smoke_e12_slc_beats_mlc() {
        let t = smoke("E12");
        let slc = t.rows[0].get("iops").unwrap();
        let mlc = t.rows[1].get("iops").unwrap();
        assert!(slc > mlc, "SLC {slc} should beat MLC {mlc}");
    }

    #[test]
    fn smoke_e18_reports_event_engine_work() {
        let t = smoke("E18");
        // Smoke thins to first/last of each axis: 2 geometries × 2 qds.
        assert_eq!(t.rows.len(), 4);
        for r in &t.rows {
            assert!(r.get("events").unwrap() > 0.0, "no events simulated: {t}", t = t.render());
            assert_eq!(r.values.len(), 4, "events, queue_ops, iops, WA only");
            assert!(r.get("queue_ops").unwrap() > 0.0);
            assert!(r.get("WA").unwrap() >= 1.0, "overwrite phase must hit flash");
        }
        // The GC-heavy phase must actually trigger GC at the small geometry.
        assert!(
            t.rows[0].get("WA").unwrap() > 1.0,
            "steady-state overwrite should amplify writes: {t}",
            t = t.render()
        );
    }

    #[test]
    fn smoke_e27_stage_breakdown_explains_the_tail() {
        let t = smoke("E27");
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            // Every p999 outlier got a dominant-stage bucket, and the
            // buckets sum to the outlier count.
            let n = r.get("p999_outliers").unwrap();
            assert!(n > 0.0, "no p999 outliers found: {}", t.render());
            let sum: f64 = ["out_queue", "out_qos", "out_pend", "out_media", "out_retry"]
                .iter()
                .map(|c| r.get(c).unwrap())
                .sum();
            assert_eq!(sum, n);
            assert!(r.get("spans").unwrap() > 0.0);
            assert!(r.get("tl_rows").unwrap() > 0.0, "timeline sampled no intervals");
            // Media time is charged on every read that touched flash.
            assert!(r.get("st_media_us").unwrap() > 0.0);
        }
        // The QosHold stage only exists under the token bucket: the
        // rate-capped flooder accrues hold time, the flat dispatcher none.
        let none = t.rows.iter().find(|r| r.label == "none").unwrap();
        let tb = t.rows.iter().find(|r| r.label == "token_bucket").unwrap();
        assert_eq!(none.get("fl_qos_us").unwrap(), 0.0);
        assert!(
            tb.get("fl_qos_us").unwrap() > 0.0,
            "token bucket must charge the flooder hold time: {}",
            t.render()
        );
    }

    #[test]
    fn smoke_g1_produces_sorted_leaderboard() {
        let t = smoke("G1");
        assert!(t.rows.len() >= 4);
        let scores: Vec<f64> = t.rows.iter().map(|r| r.get("score").unwrap()).collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(scores, sorted, "leaderboard must be best-first");
    }
}
