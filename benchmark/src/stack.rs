//! One full-stack round: build the stack, precondition, run the measured
//! threads, check the outcome, extract simulated results and counters.
//! The traced variant wraps every thread in [`Timed`].
//!
//! Host time is taken per *segment*: each stage runs as a sequence of
//! `Os::run_until` calls whose simulated-time horizons the first round
//! fixes in a [`Plan`]. The simulation is deterministic, so segment `k`
//! is the same work in every round, and rounds can be compared — and
//! combined — segment by segment (see `run::best`).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use eagletree_controller::{class_index, OpClass};
use eagletree_core::{Histogram, SimDuration, SimTime};
use eagletree_experiments::{measure, measure_since, snapshot};
use eagletree_flash::array::OpCounters;
use eagletree_os::{CompletedIo, Os, TenantConfig, TenantId, ThreadCtx, ThreadId, Workload};

use crate::alloc;
use crate::calib::Clock;
use crate::spec::{Spec, ThreadSpec};
use crate::trace::Spans;

/// Host time spent inside the workload threads of one stage, and when
/// each of their IOs was enqueued and dispatched.
#[derive(Default)]
pub struct Probe {
    calls: Cell<u64>,
    /// ns inside the threads during the open segment.
    ns: Cell<u64>,
    /// Per thread, in completion order: `(dispatched_at, enqueued_at)` ns.
    times: RefCell<Vec<Vec<(u64, u64)>>>,
}

/// Benchmark-side decorator: times every call the OS makes into a
/// workload thread and logs each completion's dispatch instant — the
/// device-level request trace the controller replay is built from.
struct Timed {
    inner: Box<dyn Workload>,
    probe: Rc<Probe>,
    idx: usize,
}

impl Timed {
    fn timed(&mut self, f: impl FnOnce(&mut dyn Workload)) {
        let t = Instant::now();
        f(self.inner.as_mut());
        let p = &self.probe;
        p.ns.set(p.ns.get() + t.elapsed().as_nanos() as u64);
        p.calls.set(p.calls.get() + 1);
    }
}

impl Workload for Timed {
    fn init(&mut self, ctx: &mut ThreadCtx) {
        self.timed(|w| w.init(ctx));
    }

    fn call_back(&mut self, ctx: &mut ThreadCtx, done: CompletedIo) {
        self.probe.times.borrow_mut()[self.idx]
            .push((done.dispatched_at.as_nanos(), done.enqueued_at.as_nanos()));
        self.timed(|w| w.call_back(ctx, done));
    }

    fn on_timer(&mut self, ctx: &mut ThreadCtx) {
        self.timed(|w| w.on_timer(ctx));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What one thread of a stage did, as the replay needs it.
pub struct ThreadLog {
    pub spec: ThreadSpec,
    /// First device-absolute page and size of the thread's namespace.
    pub base: u64,
    pub pages: u64,
    /// `(dispatched_at, enqueued_at)` of every completed IO, sorted: the
    /// k-th entry belongs to the k-th IO the thread generated, because a
    /// thread's queue is FIFO and both instants never decrease along it.
    pub times: Vec<(u64, u64)>,
}

/// A set of threads the OS ran to completion together.
pub struct StageLog {
    pub threads: Vec<ThreadLog>,
    pub workload_calls: u64,
    /// Host seconds inside the threads, per segment.
    pub workload_s: Vec<f64>,
}

/// Simulated results of the measured phase (simulated time throughout).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sim {
    pub iops: f64,
    pub p50_us: f64,
    pub p999_us: f64,
    pub write_amp: f64,
    pub read_p50_us: f64,
    pub read_p999_us: f64,
    pub write_p50_us: f64,
    pub write_p999_us: f64,
    pub queue_wait_us: f64,
    pub tenant_jain: f64,
    pub worst_reader_p99_us: f64,
    pub makespan_ns: u64,
}

/// Counter deltas over the measured phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counts {
    pub events: u64,
    pub queue_ops: u64,
    pub flash: [u64; 5],
    pub gc_moves: u64,
    pub gc_erases: u64,
    pub internal_ops: u64,
    pub app_write_wait_us: f64,
    pub cmt_hits: u64,
    pub cmt_misses: u64,
    pub map_fetches: u64,
    pub map_writebacks: u64,
    pub obs_spans: u64,
    pub obs_dropped: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub heap_peak: u64,
}

/// Simulated-time horizons (ns) of every stage's segments, in stage
/// order. Empty until the first round has run.
#[derive(Default)]
pub struct Plan(Vec<Vec<u64>>);

#[derive(Default)]
pub struct Round {
    /// Host seconds per segment: stack construction, then every
    /// preconditioning stage. Host seconds are calibrated (`calib.rs`).
    pub setup_s: Vec<f64>,
    /// Host seconds per segment of the measured phase.
    pub host_s: Vec<f64>,
    /// Uncalibrated seconds of the measured phase (spins excluded).
    pub wall_s: f64,
    /// Every calibration spin of the round, in ms.
    pub spins: Vec<f64>,
    /// CPU seconds per elapsed second over the measured phase.
    pub cpu_over_wall: f64,
    pub measure_ms: f64,
    /// IOs every generator (preconditioning included) was sized to issue.
    pub attempted: u64,
    /// IOs of the measured threads.
    pub ios: u64,
    pub failed: u64,
    pub sim: Sim,
    pub counts: Counts,
    pub quiescent: bool,
    /// Hash over controller statistics, flash counters, per-thread
    /// completions and the simulated results: equal for equal simulations.
    pub fingerprint: u64,
    /// Controller statistics and flash counters when the measured phase
    /// began and at the end; the replay must reproduce them.
    pub setup_state: EndState,
    pub end_state: EndState,
    /// Preconditioning stages, then the measured stage (traced rounds).
    pub stages: Vec<StageLog>,
}

/// Cumulative controller-side state a replay is compared against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EndState {
    pub rendered: String,
    pub counters: Vec<u64>,
}

impl EndState {
    pub fn of(ctrl: &eagletree_controller::Controller) -> EndState {
        let s = ctrl.stats();
        let f = ctrl.array().counters();
        let mut counters = s.issued.to_vec();
        counters.extend([
            s.app_reads_completed,
            s.app_writes_completed,
            s.gc_moves,
            s.gc_erases,
        ]);
        counters.extend([s.mapping_fetches, s.mapping_writebacks]);
        counters.extend(flash_array(f));
        EndState {
            rendered: format!("{s:?} {f:?}"),
            counters,
        }
    }

    /// How much the work done since `start` differs between two states:
    /// summed absolute counter differences over `self`'s summed counter
    /// growth (0 = equal).
    pub fn deviation(&self, other: &EndState, start: &EndState) -> f64 {
        let pairs = self.counters.iter().zip(&other.counters);
        let diff: u64 = pairs.map(|(&a, &b)| a.abs_diff(b)).sum();
        let work = self.counters.iter().sum::<u64>() - start.counters.iter().sum::<u64>();
        diff as f64 / work.max(1) as f64
    }
}

fn flash_array(c: OpCounters) -> [u64; 5] {
    [c.reads, c.transfers, c.programs, c.erases, c.copybacks]
}

/// FNV-1a over a rendered state.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// utime + stime of this process in seconds (USER_HZ is 100 on Linux).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Rank-interpolated quantile in µs. `Histogram` reports a bucket's lower
/// edge (buckets are up to 12% wide), which would make a percentile jump
/// by a whole bucket between seeds; spreading the bucket's samples evenly
/// across its width gives a continuous estimate of the same order statistic.
fn quantile_us(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // The value `Histogram::quantile` reports for the sample of rank `r`.
    let q_of = |r: u64| (r as f64 - 0.5) / n as f64;
    let at = |r: u64| h.quantile(q_of(r));
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let lo = at(rank);
    // First and last rank that fall in the same bucket as `rank`.
    let (mut a, mut b) = (1, rank);
    while a < b {
        let m = (a + b) / 2;
        if at(m) < lo {
            a = m + 1
        } else {
            b = m
        }
    }
    let first = a;
    let (mut a, mut b) = (rank, n);
    while a < b {
        let m = (a + b).div_ceil(2);
        if at(m) > lo {
            b = m - 1
        } else {
            a = m
        }
    }
    let last = a;
    let frac = (rank - first) as f64 / (last - first + 1) as f64;
    let hi = h.quantile_upper(q_of(rank)).as_micros_f64();
    let lo = lo.as_micros_f64();
    lo + frac * (hi - lo)
}

struct Installed {
    /// `(tenant, its threads)`; tenant `None` is the implicit device tenant.
    groups: Vec<(Option<TenantId>, Vec<ThreadId>)>,
    /// Every thread with its description; `times` still empty.
    threads: Vec<(ThreadId, ThreadLog)>,
}

/// Register a stage's threads, wrapped in [`Timed`] when probing.
fn install(
    os: &mut Os,
    tenants: &[crate::spec::TenantSpec],
    probe: Option<&Rc<Probe>>,
) -> Installed {
    let mut inst = Installed {
        groups: Vec::new(),
        threads: Vec::new(),
    };
    for ten in tenants {
        let tenant = ten.namespace.map(|(pages, weight)| {
            let mut cfg = TenantConfig::new(ten.name.clone(), pages);
            cfg.qos.weight = weight;
            os.add_tenant(cfg)
        });
        let (base, pages) = tenant.map_or((0, os.controller().logical_pages()), |t| {
            let ns = os.namespace(t);
            (ns.base, ns.len)
        });
        let mut tids = Vec::new();
        for t in &ten.threads {
            let mut w = t.build();
            if let Some(p) = probe {
                let idx = inst.threads.len();
                p.times
                    .borrow_mut()
                    .push(Vec::with_capacity(t.ios as usize));
                w = Box::new(Timed {
                    inner: w,
                    probe: p.clone(),
                    idx,
                });
            }
            let tid = match tenant {
                Some(id) => os.add_tenant_thread(id, w),
                None => os.add_thread(w),
            };
            tids.push(tid);
            let log = ThreadLog {
                spec: t.clone(),
                base,
                pages,
                times: Vec::new(),
            };
            inst.threads.push((tid, log));
        }
        inst.groups.push((tenant, tids));
    }
    inst
}

/// IOs of a stage that did not happen: planned but not completed, plus one
/// for a thread that completed its plan yet never finished.
fn unfinished(os: &Os, inst: &Installed) -> u64 {
    inst.threads
        .iter()
        .map(|(tid, t)| {
            let missing = (t.spec.ios).saturating_sub(os.thread_stats(*tid).completed());
            missing + (missing == 0 && !os.thread_finished(*tid)) as u64
        })
        .sum()
}

/// Host time a segment should take when the first round sizes it.
const SEGMENT_MS: f64 = 30.0;

/// Run the OS until nothing is left to do, as `Os::run` would, one
/// `run_until` per segment; returns the calibrated host seconds of each
/// segment (and of the workload threads within it, when probing). A
/// horizon only interrupts the event loop between two instants, so the
/// simulation is the one `Os::run` computes — the fingerprints check that.
///
/// With no horizons yet, this pass chooses them: simulated steps steered
/// towards [`SEGMENT_MS`] of host time each. Later passes reuse them.
fn run_segments(
    os: &mut Os,
    horizons: &mut Vec<u64>,
    clock: &mut Clock,
    probe: Option<&Probe>,
) -> (Vec<f64>, Vec<f64>) {
    let planned = !horizons.is_empty();
    // Sized up front: segment counts differ from process to process, and
    // growing these would make the allocation count differ with them.
    let (mut host_s, mut workload_s) = (Vec::with_capacity(1 << 14), Vec::with_capacity(1 << 14));
    let mut step = 1_000_000u64;
    for k in 0.. {
        let t = Instant::now();
        let idle = match horizons.get(k).filter(|_| planned) {
            Some(&h) => {
                os.run_until(SimTime::ZERO + SimDuration::from_nanos(h));
                false
            }
            None if planned => {
                os.run(); // the tail after the last horizon
                true
            }
            None => {
                let h = os.now() + SimDuration::from_nanos(step);
                os.run_until(h);
                if os.now() < h {
                    os.run(); // already idle; flushes the telemetry timeline as above
                    true
                } else {
                    horizons.push(h.as_nanos());
                    false
                }
            }
        };
        let secs = t.elapsed().as_secs_f64();
        let scale = clock.scale();
        host_s.push(secs * scale);
        workload_s.push(probe.map_or(0.0, |p| p.ns.replace(0) as f64 / 1e9 * scale));
        if idle {
            return (host_s, workload_s);
        }
        step =
            ((step as f64 * (SEGMENT_MS / (secs * 1e3).max(0.1)).clamp(0.5, 2.0)) as u64).max(1000);
    }
    unreachable!("the loop returns when the OS goes idle")
}

/// The stage's threads with their sorted completion logs.
fn stage_log(inst: Installed, probe: &Probe, workload_s: Vec<f64>) -> StageLog {
    let threads = inst
        .threads
        .into_iter()
        .zip(probe.times.take())
        .map(|((_, log), mut times)| {
            times.sort_unstable();
            ThreadLog { times, ..log }
        })
        .collect();
    StageLog {
        threads,
        workload_calls: probe.calls.get(),
        workload_s,
    }
}

/// Run one round of `spec`, segmenting as `plan` says (the first round
/// fills it in). With `traced`, every thread is wrapped in [`Timed`] and
/// the per-stage logs are returned.
pub fn round(spec: &Spec, traced: bool, plan: &mut Plan, spans: &mut Spans) -> Round {
    let whole = |t: &ThreadSpec| {
        vec![crate::spec::TenantSpec {
            name: "device".into(),
            namespace: None,
            threads: vec![t.clone()],
        }]
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut stages = Vec::new();

    // Room for every horizon up front, so that the round that chooses them
    // allocates like the rounds that follow them.
    plan.0
        .resize_with(spec.precondition.len() + 1, || Vec::with_capacity(1 << 14));
    let setup_span = spans.begin("setup");
    let mut clock = Clock::start();
    let t = Instant::now();
    let mut os = spec.setup.build();
    let mut setup_s = vec![t.elapsed().as_secs_f64() * clock.scale()];
    for (t, horizons) in spec.precondition.iter().zip(&mut plan.0) {
        let probe = traced.then(|| Rc::new(Probe::default()));
        let inst = install(&mut os, &whole(t), probe.as_ref());
        let (mut host_s, workload_s) =
            run_segments(&mut os, horizons, &mut clock, probe.as_deref());
        setup_s.append(&mut host_s);
        attempted += t.ios;
        failed += unfinished(&os, &inst);
        if let Some(p) = &probe {
            stages.push(stage_log(inst, p, workload_s));
        }
    }
    spans.end(setup_span);

    let ios = spec.planned_ios();
    attempted += ios;
    let mut r = Round {
        setup_s,
        attempted,
        ios,
        failed,
        quiescent: os.controller().is_quiescent(),
        setup_state: EndState::of(os.controller()),
        end_state: EndState::of(os.controller()),
        stages,
        ..Round::default()
    };
    if failed > 0 {
        // Preconditioning stalled: the device is not in the stated state,
        // so nothing measured on it would mean anything.
        r.failed += ios;
        return r;
    }

    let probe = traced.then(|| Rc::new(Probe::default()));
    let inst = install(&mut os, &spec.tenants, probe.as_ref());
    let tids: Vec<ThreadId> = inst.threads.iter().map(|t| t.0).collect();

    let extract_span = spans.begin("experiments.snapshot");
    let t = Instant::now();
    let base = snapshot(&os);
    let mut measure_ns = t.elapsed().as_nanos();
    spans.end(extract_span);
    let ctrl = os.controller();
    let stats0 = ctrl.stats().clone();
    let flash0 = flash_array(ctrl.array().counters());
    let dftl0 = ctrl.dftl_stats();
    let obs_total = |os: &Os| {
        os.obs().map_or((0, 0), |o| {
            (o.closed_count() as u64 + o.dropped(), o.dropped())
        })
    };
    let obs0 = obs_total(&os);
    let (events0, queue_ops0, now0) = (os.events_simulated(), os.queue_ops(), os.now());
    let (allocs0, bytes0) = alloc::totals();
    alloc::reset_peak();
    let cpu0 = cpu_seconds();

    let measured_span = spans.begin("measured");
    let t = Instant::now();
    let horizons = plan.0.last_mut().expect("sized above");
    let workload_s;
    let spins_before = clock.spins.len();
    (r.host_s, workload_s) = run_segments(&mut os, horizons, &mut clock, probe.as_deref());
    spans.end(measured_span);
    let elapsed = t.elapsed().as_secs_f64();
    r.cpu_over_wall = (cpu_seconds() - cpu0) / elapsed;
    r.wall_s = elapsed - clock.spins[spins_before..].iter().sum::<f64>() / 1e3;
    r.spins = clock.spins;

    let (allocs1, bytes1) = alloc::totals();
    let extract_span = spans.begin("experiments.measure_since");
    let t = Instant::now();
    let m = measure_since(&os, &tids, &base);
    measure_ns += t.elapsed().as_nanos();
    spans.end(extract_span);
    r.measure_ms = measure_ns as f64 / 1e6;

    // ---- checks: every planned IO happened, every page is still mapped,
    // the controller's cross-structure invariants hold.
    r.failed += unfinished(&os, &inst);
    let ctrl = os.controller();
    r.failed += (0..ctrl.logical_pages())
        .filter(|&l| ctrl.peek_mapping(l).is_none() && !ctrl.is_buffered(l))
        .count() as u64;
    r.quiescent = ctrl.is_quiescent();
    if r.quiescent && catch_unwind(AssertUnwindSafe(|| ctrl.check_invariants())).is_err() {
        r.failed += 1;
    }

    // ---- simulated results
    let (mut reads, mut writes) = (Histogram::new(), Histogram::new());
    for &t in &tids {
        reads.merge(&os.thread_stats(t).read_latency);
        writes.merge(&os.thread_stats(t).write_latency);
    }
    let mut all = reads.clone();
    all.merge(&writes);
    let per_tenant: Vec<f64> = inst
        .groups
        .iter()
        .map(|(_, tids)| measure(&os, tids).iops)
        .collect();
    let (sum, sumsq) = per_tenant
        .iter()
        .fold((0.0, 0.0), |(s, q), x| (s + x, q + x * x));
    // Worst per-tenant read p99; a tenant that reads nothing reports 0.
    let worst_reader = inst
        .groups
        .iter()
        .map(|(t, _)| {
            t.map_or(reads.p99(), |t| {
                os.tenant_stats(t).tail(OpClass::AppRead).p99
            })
            .as_micros_f64()
        })
        .fold(0.0, f64::max);
    r.sim = Sim {
        iops: m.iops,
        p50_us: quantile_us(&all, 0.5),
        p999_us: quantile_us(&all, 0.999),
        write_amp: m.write_amplification,
        read_p50_us: quantile_us(&reads, 0.5),
        read_p999_us: quantile_us(&reads, 0.999),
        write_p50_us: quantile_us(&writes, 0.5),
        write_p999_us: quantile_us(&writes, 0.999),
        queue_wait_us: m.queue_wait_us,
        tenant_jain: if sumsq > 0.0 {
            sum * sum / (per_tenant.len() as f64 * sumsq)
        } else {
            0.0
        },
        worst_reader_p99_us: worst_reader,
        makespan_ns: os.now().since(now0).as_nanos(),
    };

    // ---- counters over the measured phase
    let stats1 = ctrl.stats();
    let flash1 = flash_array(ctrl.array().counters());
    let aw = class_index(OpClass::AppWrite);
    let (w0, w1) = (&stats0.wait_us[aw], &stats1.wait_us[aw]);
    let waits = w1.count() - w0.count();
    let dftl = |f: fn(&eagletree_controller::ftl::DftlStats) -> u64| {
        ctrl.dftl_stats().as_ref().map_or(0, f) - dftl0.as_ref().map_or(0, f)
    };
    r.counts = Counts {
        events: os.events_simulated() - events0,
        queue_ops: os.queue_ops() - queue_ops0,
        flash: std::array::from_fn(|i| flash1[i] - flash0[i]),
        gc_moves: stats1.gc_moves - stats0.gc_moves,
        gc_erases: m.gc_erases,
        internal_ops: m.internal_ops,
        app_write_wait_us: if waits == 0 {
            0.0
        } else {
            (w1.mean() * w1.count() as f64 - w0.mean() * w0.count() as f64) / waits as f64
        },
        cmt_hits: dftl(|d| d.cmt_hits + d.pending_hits),
        cmt_misses: dftl(|d| d.misses),
        map_fetches: m.mapping_fetches,
        map_writebacks: m.mapping_writebacks,
        obs_spans: obs_total(&os).0 - obs0.0,
        obs_dropped: obs_total(&os).1 - obs0.1,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        heap_peak: alloc::peak(),
    };
    r.end_state = EndState::of(ctrl);
    let completions: Vec<u64> = tids
        .iter()
        .map(|&t| os.thread_stats(t).completed())
        .collect();
    // Observability adds spans and nothing else, so leave its own counters
    // out: an obs-on run must fingerprint like its obs-off twin.
    let c = &r.counts;
    r.fingerprint = fnv(&format!(
        "{} {completions:?} {:?} {} {} {:?}",
        r.end_state.rendered, r.sim, c.events, c.queue_ops, c.flash
    ));
    if let Some(p) = &probe {
        r.stages.push(stage_log(inst, p, workload_s));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Gen, ThreadSpec};
    use eagletree_os::OsIo;

    /// Submits one write, then goes quiet without ever finishing — what a
    /// thread looks like from outside when the device stops answering.
    struct Stalls;

    impl Workload for Stalls {
        fn init(&mut self, ctx: &mut ThreadCtx) {
            ctx.submit(OsIo::write(0));
        }
        fn call_back(&mut self, _ctx: &mut ThreadCtx, _done: CompletedIo) {}
    }

    fn spec(ios: u64) -> ThreadSpec {
        ThreadSpec {
            name: "t".into(),
            gen: Gen::SeqWrite,
            ios,
            window: 1,
            seed: 0,
        }
    }

    /// One installed thread sized for `ios` IOs.
    fn installed(tid: ThreadId, ios: u64) -> Installed {
        let log = ThreadLog {
            spec: spec(ios),
            base: 0,
            pages: 0,
            times: Vec::new(),
        };
        Installed {
            groups: Vec::new(),
            threads: vec![(tid, log)],
        }
    }

    #[test]
    fn ios_that_did_not_happen_are_counted_as_failed() {
        let mut os = eagletree_experiments::Setup::tiny().build();
        let tid = os.add_thread(Box::new(Stalls));
        os.run();
        assert!(
            !os.thread_finished(tid),
            "`Os::run` returns normally on a stalled thread"
        );
        // Sized for 5 IOs, completed 1.
        assert_eq!(unfinished(&os, &installed(tid, 5)), 4);
        // Completed its whole plan but never finished: still a failure.
        assert_eq!(unfinished(&os, &installed(tid, 1)), 1);
    }

    #[test]
    fn finished_threads_fail_nothing() {
        let mut os = eagletree_experiments::Setup::tiny().build();
        let tid = os.add_thread(spec(40).build());
        os.run();
        assert_eq!(unfinished(&os, &installed(tid, 40)), 0);
    }

    #[test]
    fn interpolated_quantiles_stay_inside_their_bucket_and_grow_with_rank() {
        let mut h = Histogram::new();
        for ns in (100_000..200_000).step_by(50) {
            h.record(SimDuration::from_nanos(ns));
        }
        let mut last = 0.0;
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let v = quantile_us(&h, q);
            let (lo, hi) = (
                h.quantile(q).as_micros_f64(),
                h.quantile_upper(q).as_micros_f64(),
            );
            assert!(lo <= v && v <= hi, "q={q}: {v} outside [{lo}, {hi}]");
            // Uniform data: where the samples fill the bucket the estimate
            // tracks the true quantile closely (the bucket edge alone is up
            // to 12% off). The last bucket is only part full, and there the
            // bucket width still bounds the error.
            let truth = 100.0 + 100.0 * q;
            assert!(
                (v - truth).abs() / truth < if q <= 0.9 { 0.01 } else { 0.12 },
                "q={q}: {v} vs {truth}"
            );
            assert!(v > last);
            last = v;
        }
        assert_eq!(quantile_us(&Histogram::new(), 0.5), 0.0);
    }
}
