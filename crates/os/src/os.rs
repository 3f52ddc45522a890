//! The OS dispatcher and main simulation loop.
//!
//! [`Os`] owns the simulated threads and drives the [`Controller`] through
//! a [`Driver`]. Threads hand IOs to per-thread queues; the OS dispatches
//! up to [`OsConfig::queue_depth`] outstanding requests to the SSD,
//! choosing the next one per [`OsSchedPolicy`]. When the SSD completes a
//! request the OS "interrupts": it updates the dispatching thread's
//! statistics and invokes its `call_back`, which may submit further IOs —
//! the paper's reactive thread model.
//!
//! Threads are grouped into [tenants](crate::tenant): each tenant owns a
//! namespace (tenant-relative LBAs, translated and bounds-checked here at
//! the OS boundary) and per-tenant QoS parameters. When a [`QosPolicy`]
//! other than `None` is configured, dispatch is two-stage: the QoS layer
//! picks the tenant, then the [`OsSchedPolicy`] picks among that tenant's
//! thread queues. Both stages work over reused scratch buffers — no
//! allocation per dispatched IO.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use eagletree_controller::{
    class_index, Completion, Controller, CrashImage, Driver, IoTags, OpClass, RequestKind, Stuck,
};
use eagletree_core::{
    EventQueue, Histogram, IdTable, Obs, OnlineStats, SimDuration, SimTime, Tail, Timeline, NO_SPAN,
};

use crate::qos::{self, QosPolicy, QosSlot, TenantCand};
use crate::sched::{DispatchCandidate, OsSchedPolicy};
use crate::tenant::{Namespace, TenantConfig, TenantId, ValidPages};
use crate::thread::{CompletedIo, OsIo, ThreadCtx, ThreadId, Workload};

/// OS-layer configuration.
#[derive(Debug, Clone)]
pub struct OsConfig {
    /// Maximum requests outstanding at the SSD (the device queue).
    pub queue_depth: usize,
    /// Dispatch policy across thread queues.
    pub policy: OsSchedPolicy,
    /// Tenant-selection policy above `policy`. `None` keeps the flat
    /// single-tenant behavior (all thread queues compete directly).
    pub qos: QosPolicy,
    /// Unlock the open interface: pass IO tags through to the SSD.
    /// When `false`, the OS strips all hints — a traditional block device.
    pub open_interface: bool,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            queue_depth: 32,
            policy: OsSchedPolicy::Fifo,
            qos: QosPolicy::None,
            open_interface: false,
        }
    }
}

/// Per-thread measurement: the "statistics gathering objects" attachable to
/// individual threads (§2.3). The one OS-side record of a host completion:
/// a tenant's, or any set of threads', is the [`ThreadStats::merge`] of its
/// threads'.
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    pub reads_completed: u64,
    pub writes_completed: u64,
    pub trims_completed: u64,
    /// End-to-end (enqueue → completion) read latencies.
    pub read_latency: Histogram,
    /// End-to-end write latencies.
    pub write_latency: Histogram,
    /// Read latency mean/stddev in µs (latency variability metric).
    pub read_lat_us: OnlineStats,
    /// Write latency mean/stddev in µs.
    pub write_lat_us: OnlineStats,
    /// Time spent in the OS queue before dispatch (µs).
    pub queue_wait_us: OnlineStats,
    /// First and last completion instants (throughput window).
    pub first_completion: Option<SimTime>,
    pub last_completion: Option<SimTime>,
}

impl ThreadStats {
    /// Total completions.
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed + self.trims_completed
    }

    /// Completions per second over this thread's completion window.
    pub fn throughput_iops(&self) -> f64 {
        match (self.first_completion, self.last_completion) {
            (Some(a), Some(b)) if b > a => {
                self.completed() as f64 / b.since(a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Tail summary (p50/p95/p99/p99.9) for an application op class.
    /// Threads only generate application traffic, so only
    /// [`OpClass::AppRead`] and [`OpClass::AppWrite`] carry latencies.
    pub fn tail(&self, class: OpClass) -> Tail {
        match class {
            OpClass::AppRead => self.read_latency.tail(),
            OpClass::AppWrite => self.write_latency.tail(),
            OpClass::GcRead
            | OpClass::GcWrite
            | OpClass::WlRead
            | OpClass::WlWrite
            | OpClass::MergeRead
            | OpClass::MergeWrite
            | OpClass::MappingRead
            | OpClass::MappingWrite
            | OpClass::Erase
            | OpClass::ScrubRead
            | OpClass::ScrubWrite => Tail::default(),
        }
    }

    /// Count one completion of `kind` at `at`, `latency` after its
    /// enqueue.
    fn record_completion(&mut self, kind: RequestKind, latency: SimDuration, at: SimTime) {
        match kind {
            RequestKind::Read => {
                self.reads_completed += 1;
                self.read_latency.record(latency);
                self.read_lat_us.record(latency.as_micros_f64());
            }
            RequestKind::Write => {
                self.writes_completed += 1;
                self.write_latency.record(latency);
                self.write_lat_us.record(latency.as_micros_f64());
            }
            RequestKind::Trim => self.trims_completed += 1,
        }
        self.first_completion.get_or_insert(at);
        self.last_completion = Some(at);
    }

    /// Add `other`'s completions to this record, as if one thread had
    /// made both sets. Counts, histograms and the completion window are
    /// exact; the Welford collectors combine in parallel, so merging into
    /// an empty record is a copy.
    pub fn merge(&mut self, other: &ThreadStats) {
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.trims_completed += other.trims_completed;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.read_lat_us.merge(&other.read_lat_us);
        self.write_lat_us.merge(&other.write_lat_us);
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.first_completion =
            [self.first_completion, other.first_completion].into_iter().flatten().min();
        self.last_completion = self.last_completion.max(other.last_completion);
    }
}

/// A run that stopped with work left, the `Err` of [`Os::run`] and
/// [`Os::run_until`]: nothing could make progress, yet a thread has not
/// finished or the device still holds work it can never issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stalled {
    /// What the device holds and why it cannot go; `None` when it is idle
    /// and only threads are left waiting.
    pub device: Option<Arc<Stuck>>,
    /// Threads that have not declared themselves finished.
    pub unfinished_threads: Vec<ThreadId>,
    /// Requests dispatched to the device and never completed.
    pub inflight: usize,
}

impl fmt::Display for Stalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let device = self.device.as_ref().map_or("device idle".into(), |d| d.to_string());
        write!(
            f,
            "stalled: threads {:?} unfinished, {} requests in flight; {device}",
            self.unfinished_threads, self.inflight
        )
    }
}

struct QueuedIo {
    io: OsIo,
    enqueued_at: SimTime,
    seq: u64,
    /// Lifecycle span opened at submission ([`NO_SPAN`] with obs off).
    span: u64,
}

struct ThreadState {
    workload: Box<dyn Workload>,
    queue: VecDeque<QueuedIo>,
    deps: Vec<ThreadId>,
    tenant: TenantId,
    started: bool,
    finished: bool,
    stats: ThreadStats,
}

/// One tenant's OS-side state: its namespace window, member threads and
/// valid pages. QoS state lives in the parallel `qos_slots` vector.
struct TenantEntry {
    name: String,
    ns: Namespace,
    threads: Vec<ThreadId>,
    /// Queued (not yet dispatched) IOs across this tenant's threads.
    backlog: usize,
    valid: ValidPages,
    /// Instant this tenant became QoS rate-blocked with device slots
    /// free (span accounting only; `None` when dispatchable).
    held_since: Option<SimTime>,
}

struct Inflight {
    thread: ThreadId,
    io: OsIo,
    enqueued_at: SimTime,
    dispatched_at: SimTime,
}

/// The simulated operating system.
pub struct Os {
    /// The device and the host clock, request ids, completions and
    /// liveness that go with it.
    d: Driver,
    cfg: OsConfig,
    threads: Vec<ThreadState>,
    tenants: Vec<TenantEntry>,
    qos_slots: Vec<QosSlot>,
    /// Index of the implicit whole-device tenant, once created.
    default_tenant: Option<TenantId>,
    /// Next free logical page for namespace carving.
    ns_watermark: u64,
    /// WFQ virtual clock: virtual start time of the last dispatched IO.
    vclock: f64,
    /// The dispatched IOs, by the request id `dispatch` counted up to.
    inflight: IdTable<Inflight>,
    timers: EventQueue<ThreadId>,
    next_seq: u64,
    last_served: ThreadId,
    /// Dispatch scratch (reused; no per-IO allocation).
    scratch_heads: Vec<DispatchCandidate>,
    scratch_tenants: Vec<TenantCand>,
    /// What a workload callback submits and arms, until `call_workload`
    /// applies it (reused likewise; empty between callbacks).
    scratch_submissions: Vec<OsIo>,
    scratch_timers: Vec<SimDuration>,
    /// Time-sliced telemetry, when `ObsConfig::timeline_interval_us` is
    /// set on the controller.
    timeline: Option<Timeline>,
    /// Start of the current (not yet emitted) timeline interval.
    tl_next: SimTime,
    /// Cumulative-counter snapshot at the last emitted row.
    tl_prev: TlSnap,
}

/// Snapshot of the cumulative counters a timeline row differences.
#[derive(Debug, Clone, Copy, Default)]
struct TlSnap {
    completions: u64,
    issued: [u64; OpClass::COUNT],
    corrected_bits: u64,
    read_retries: u64,
    grown_bad: u64,
}

/// Timeline column names, in row order. Issue columns are per-interval
/// flash-command counts; `iops` is host completions per second over the
/// interval; `wa` is the cumulative write amplification at the interval
/// boundary; depth columns are instantaneous.
const TL_COLUMNS: &[&str] = &[
    "iops",
    "wa",
    "os_backlog",
    "dev_inflight",
    "app_read_issues",
    "app_write_issues",
    "gc_issues",
    "wl_issues",
    "merge_issues",
    "mapping_issues",
    "scrub_issues",
    "erase_issues",
    "corrected_bits",
    "read_retries",
    "grown_bad",
];

impl Os {
    /// An OS over a controller.
    pub fn new(ctrl: Controller, cfg: OsConfig) -> Self {
        assert!(cfg.queue_depth > 0, "queue depth must be positive");
        let obs_cfg = ctrl.obs_config();
        let timeline = obs_cfg.timeline_enabled().then(|| {
            Timeline::new(
                SimDuration::from_micros(obs_cfg.timeline_interval_us),
                TL_COLUMNS.to_vec(),
            )
        });
        Os {
            d: Driver::new(ctrl),
            cfg,
            threads: Vec::new(),
            tenants: Vec::new(),
            qos_slots: Vec::new(),
            default_tenant: None,
            ns_watermark: 0,
            vclock: 0.0,
            inflight: IdTable::default(),
            timers: EventQueue::new(),
            next_seq: 0,
            last_served: 0,
            scratch_heads: Vec::new(),
            scratch_tenants: Vec::new(),
            scratch_submissions: Vec::new(),
            scratch_timers: Vec::new(),
            timeline,
            tl_next: SimTime::ZERO,
            tl_prev: TlSnap::default(),
        }
    }

    /// Create a tenant: carves its namespace from the next free logical
    /// pages (setup-time operation). Panics when the device has too few
    /// logical pages left.
    pub fn add_tenant(&mut self, cfg: TenantConfig) -> TenantId {
        assert!(cfg.namespace_pages > 0, "namespace must have pages");
        let base = self.ns_watermark;
        assert!(
            base + cfg.namespace_pages <= self.d.c.logical_pages(),
            "tenant `{}`: namespace of {} pages does not fit ({} of {} logical pages already carved)",
            cfg.name,
            cfg.namespace_pages,
            base,
            self.d.c.logical_pages()
        );
        self.ns_watermark = base + cfg.namespace_pages;
        self.push_tenant(cfg.name, Namespace { base, len: cfg.namespace_pages }, cfg.qos)
    }

    /// The implicit whole-device tenant (identity namespace), created on
    /// first use. Threads registered through [`Os::add_thread`] belong to
    /// it, which keeps single-tenant setups working unchanged.
    fn ensure_default_tenant(&mut self) -> TenantId {
        if let Some(t) = self.default_tenant {
            return t;
        }
        let whole = Namespace { base: 0, len: self.d.c.logical_pages() };
        let t = self.push_tenant("default".to_string(), whole, crate::QosParams::default());
        self.default_tenant = Some(t);
        t
    }

    /// A new tenant owning `ns`, with no threads yet.
    fn push_tenant(&mut self, name: String, ns: Namespace, qos: crate::QosParams) -> TenantId {
        self.tenants.push(TenantEntry {
            name,
            ns,
            threads: Vec::new(),
            backlog: 0,
            valid: ValidPages::new(ns.len),
            held_since: None,
        });
        self.qos_slots.push(QosSlot::new(qos));
        self.tenants.len() - 1
    }

    /// Register a thread that starts immediately (default tenant).
    pub fn add_thread(&mut self, workload: Box<dyn Workload>) -> ThreadId {
        self.add_thread_after(workload, Vec::new())
    }

    /// Register a thread that starts once all of `deps` have finished —
    /// the preconditioning mechanism of §2.3 (default tenant).
    pub fn add_thread_after(&mut self, workload: Box<dyn Workload>, deps: Vec<ThreadId>) -> ThreadId {
        let t = self.ensure_default_tenant();
        self.add_tenant_thread_after(t, workload, deps)
    }

    /// Register a thread owned by tenant `t`; its IOs address the tenant's
    /// namespace (`ThreadCtx::logical_pages` reports the namespace size).
    pub fn add_tenant_thread(&mut self, t: TenantId, workload: Box<dyn Workload>) -> ThreadId {
        self.add_tenant_thread_after(t, workload, Vec::new())
    }

    /// Tenant-owned thread with start dependencies.
    pub fn add_tenant_thread_after(
        &mut self,
        t: TenantId,
        workload: Box<dyn Workload>,
        deps: Vec<ThreadId>,
    ) -> ThreadId {
        assert!(t < self.tenants.len(), "unknown tenant {t}");
        for &d in &deps {
            assert!(d < self.threads.len(), "dependency on unknown thread {d}");
        }
        self.threads.push(ThreadState {
            workload,
            queue: VecDeque::new(),
            deps,
            tenant: t,
            started: false,
            finished: false,
            stats: ThreadStats::default(),
        });
        let tid = self.threads.len() - 1;
        self.tenants[t].threads.push(tid);
        tid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.d.now
    }

    /// The controller (counters, wear metrics, write amplification …).
    pub fn controller(&self) -> &Controller {
        &self.d.c
    }

    /// The structured span collector, when observability is enabled on
    /// the controller (`ObsConfig::span_capacity > 0`).
    pub fn obs(&self) -> Option<&Obs> {
        self.d.c.obs()
    }

    /// The sampled telemetry timeline, when enabled
    /// (`ObsConfig::timeline_interval_us > 0`).
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Tenant names in id order (the Perfetto exporter's tenant tracks).
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// Simulation events processed so far: controller agenda events plus
    /// OS timer firings.
    pub fn events_simulated(&self) -> u64 {
        self.d.c.events_processed() + self.timers.popped()
    }

    /// Total event-queue operations (schedules + pops) across the
    /// controller agenda and the OS timer queue: the event-engine work
    /// metric reported by the E18 sweep.
    pub fn queue_ops(&self) -> u64 {
        self.d.c.queue_ops() + self.timers.scheduled() + self.timers.popped()
    }

    /// Statistics of one thread.
    pub fn thread_stats(&self, t: ThreadId) -> &ThreadStats {
        &self.threads[t].stats
    }

    /// Whether thread `t` has declared itself finished.
    pub fn thread_finished(&self, t: ThreadId) -> bool {
        self.threads[t].finished
    }

    /// A tenant's name.
    pub fn tenant_name(&self, t: TenantId) -> &str {
        &self.tenants[t].name
    }

    /// A tenant's namespace window.
    pub fn namespace(&self, t: TenantId) -> Namespace {
        self.tenants[t].ns
    }

    /// A tenant's accounting: the merge of its threads' records.
    pub fn tenant_stats(&self, t: TenantId) -> ThreadStats {
        self.tenants[t].threads.iter().fold(ThreadStats::default(), |mut s, &tid| {
            s.merge(&self.threads[tid].stats);
            s
        })
    }

    /// Distinct namespace pages of tenant `t` holding data (written and
    /// not since trimmed).
    pub fn valid_pages(&self, t: TenantId) -> u64 {
        self.tenants[t].valid.count()
    }

    /// A tenant's namespace utilization (valid pages / namespace pages).
    pub fn namespace_utilization(&self, t: TenantId) -> f64 {
        self.valid_pages(t) as f64 / self.tenants[t].ns.len as f64
    }

    /// Pull the plug at the current virtual instant: the whole host dies
    /// with the device. Queued and in-flight (unacknowledged) IOs, thread
    /// state and OS statistics are lost; the SSD loses exactly the flash
    /// operations still in flight. Returns the dead medium — pass it to
    /// [`Controller::remount`] and wrap the recovered controller in a
    /// fresh [`Os`] to model the reboot.
    ///
    /// Typically used after [`Os::run_until`], which stops the simulation
    /// at the chosen crash instant.
    pub fn power_cut(self) -> CrashImage {
        self.d.power_cut()
    }

    /// Run until no further progress is possible (no in-flight IOs, no
    /// timers, controller idle). `Ok` when every thread finished and the
    /// device is quiescent; otherwise [`Stalled`] names what is left.
    /// Flushes the trailing partial telemetry interval, when the timeline
    /// is on, either way.
    pub fn run(&mut self) -> Result<(), Stalled> {
        let ran = self.run_inner(None);
        self.timeline_final();
        ran
    }

    /// Run until progress stops or virtual time would pass `horizon`:
    /// `Ok` at the horizon, and as [`Os::run`] when progress stops first.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<(), Stalled> {
        self.run_inner(Some(horizon))
    }

    fn run_inner(&mut self, horizon: Option<SimTime>) -> Result<(), Stalled> {
        self.try_start_threads();
        self.pump();
        loop {
            let wake = [
                self.d.next_wake(),
                self.timers.peek_time(),
                self.qos_next_ready(),
            ];
            let Some(next) = wake.into_iter().flatten().min() else {
                let unfinished_threads: Vec<ThreadId> =
                    (0..self.threads.len()).filter(|&t| !self.threads[t].finished).collect();
                let device = self.d.stuck();
                if device.is_none() && unfinished_threads.is_empty() {
                    return Ok(());
                }
                return Err(Stalled { device, unfinished_threads, inflight: self.inflight.len() });
            };
            if let Some(h) = horizon {
                if next > h {
                    self.d.now = h;
                    return Ok(());
                }
            }
            self.d.now = next;
            self.timeline_tick();
            self.advance_ctrl();
            while self.timers.peek_time() == Some(next) {
                let tid = self.timers.pop().expect("peeked timer").payload;
                self.call_workload(tid, |w, ctx| w.on_timer(ctx));
            }
            self.pump();
        }
    }

    /// Dispatch + drain instant completions until a fixpoint.
    fn pump(&mut self) {
        loop {
            self.dispatch();
            if self.advance_ctrl() == 0 {
                break;
            }
        }
    }

    /// Advance the device to `now` and handle what it completed; returns
    /// how many requests that was. `d.done` is empty between advances.
    fn advance_ctrl(&mut self) -> usize {
        let n = self.d.advance_to(self.d.now).len();
        let mut done = std::mem::take(&mut self.d.done);
        for c in done.drain(..) {
            self.handle_completion(c);
        }
        self.d.done = done;
        n
    }

    /// Emit telemetry rows for every whole interval the clock just
    /// crossed. Called right after `now` advances and before the events
    /// at `now` are processed, so each row covers activity strictly
    /// before its interval end.
    fn timeline_tick(&mut self) {
        let Some(tl) = &self.timeline else { return };
        let interval = tl.interval();
        while self.d.now >= self.tl_next + interval {
            let end = self.tl_next + interval;
            self.timeline_row(self.tl_next, end);
            self.tl_next = end;
        }
    }

    /// Flush the trailing partial interval at the end of a run.
    fn timeline_final(&mut self) {
        if self.timeline.is_none() {
            return;
        }
        if self.d.now > self.tl_next {
            let end = self.d.now;
            self.timeline_row(self.tl_next, end);
            self.tl_next = end;
        }
    }

    /// Compute and append one telemetry row covering `[from, to)`.
    fn timeline_row(&mut self, from: SimTime, to: SimTime) {
        let issued = self.d.c.stats().issued;
        let (cb, rr, gb) = self.d.c.reliability().map_or((0, 0, 0), |r| {
            (r.corrected_bits, r.read_retries, r.grown_bad_blocks)
        });
        let completions: u64 = self.threads.iter().map(|t| t.stats.completed()).sum();
        let prev = self.tl_prev;
        let secs = to.since(from).as_secs_f64();
        let iops = if secs > 0.0 {
            (completions - prev.completions) as f64 / secs
        } else {
            0.0
        };
        let d = |a: OpClass| (issued[class_index(a)] - prev.issued[class_index(a)]) as f64;
        let backlog: usize = self.tenants.iter().map(|t| t.backlog).sum();
        let row = [
            iops,
            self.d.c.write_amplification(),
            backlog as f64,
            self.inflight.len() as f64,
            d(OpClass::AppRead),
            d(OpClass::AppWrite),
            d(OpClass::GcRead) + d(OpClass::GcWrite),
            d(OpClass::WlRead) + d(OpClass::WlWrite),
            d(OpClass::MergeRead) + d(OpClass::MergeWrite),
            d(OpClass::MappingRead) + d(OpClass::MappingWrite),
            d(OpClass::ScrubRead) + d(OpClass::ScrubWrite),
            d(OpClass::Erase),
            (cb - prev.corrected_bits) as f64,
            (rr - prev.read_retries) as f64,
            (gb - prev.grown_bad) as f64,
        ];
        self.tl_prev = TlSnap {
            completions,
            issued,
            corrected_bits: cb,
            read_retries: rr,
            grown_bad: gb,
        };
        self.timeline
            .as_mut()
            .expect("caller checked")
            .push_row(from, &row);
    }

    /// Earliest token-refill instant the main loop must wake for: only
    /// meaningful under `TokenBucket` with free device-queue slots and a
    /// rate-blocked backlog.
    fn qos_next_ready(&mut self) -> Option<SimTime> {
        if self.cfg.qos != QosPolicy::TokenBucket
            || self.inflight.len() >= self.cfg.queue_depth
        {
            return None;
        }
        self.scratch_tenants.clear();
        for (t, e) in self.tenants.iter().enumerate() {
            if e.backlog > 0 {
                self.scratch_tenants.push(TenantCand {
                    tenant: t,
                    head_seq: 0,
                    head_enqueued_at: SimTime::ZERO,
                });
            }
        }
        qos::next_ready_time(
            &self.cfg.qos,
            &self.scratch_tenants,
            &mut self.qos_slots,
            self.d.now,
        )
    }

    /// Collect the head-of-queue candidates of the given threads into the
    /// reused scratch buffer.
    fn collect_heads(threads: &[ThreadState], tids: impl Iterator<Item = ThreadId>, out: &mut Vec<DispatchCandidate>) {
        out.clear();
        for tid in tids {
            if let Some(q) = threads[tid].queue.front() {
                out.push(DispatchCandidate { thread: tid, seq: q.seq });
            }
        }
    }

    /// Pick the next thread to serve, or `None` when nothing is
    /// dispatchable. Stage 1 (QoS) chooses the tenant, stage 2 (the OS
    /// policy) chooses among that tenant's thread queues; under
    /// `QosPolicy::None` all thread queues compete flat, exactly as in the
    /// pre-tenant dispatcher.
    fn pick_thread(&mut self) -> Option<ThreadId> {
        if self.cfg.qos == QosPolicy::None {
            let n = self.threads.len();
            Self::collect_heads(&self.threads, 0..n, &mut self.scratch_heads);
            let pick = self.cfg.policy.select(&self.scratch_heads, self.last_served)?;
            return Some(self.scratch_heads[pick].thread);
        }
        self.scratch_tenants.clear();
        for (t, e) in self.tenants.iter().enumerate() {
            if e.backlog == 0 {
                continue;
            }
            // The tenant's oldest queued IO (min arrival seq over heads).
            let mut head: Option<(u64, SimTime)> = None;
            for &tid in &e.threads {
                if let Some(q) = self.threads[tid].queue.front() {
                    if head.is_none_or(|(s, _)| q.seq < s) {
                        head = Some((q.seq, q.enqueued_at));
                    }
                }
            }
            let (head_seq, head_enqueued_at) = head.expect("backlogged tenant has a head");
            self.scratch_tenants.push(TenantCand {
                tenant: t,
                head_seq,
                head_enqueued_at,
            });
        }
        let pick = qos::select(
            &self.cfg.qos,
            &self.scratch_tenants,
            &mut self.qos_slots,
            self.d.now,
            self.vclock,
        )?;
        let tenant = self.scratch_tenants[pick].tenant;
        Self::collect_heads(
            &self.threads,
            self.tenants[tenant].threads.iter().copied(),
            &mut self.scratch_heads,
        );
        let pick = self
            .cfg
            .policy
            .select(&self.scratch_heads, self.last_served)
            .expect("backlogged tenant has dispatchable heads");
        Some(self.scratch_heads[pick].thread)
    }

    /// Move queued IOs to the SSD while device-queue slots are free.
    fn dispatch(&mut self) {
        while self.inflight.len() < self.cfg.queue_depth {
            let Some(tid) = self.pick_thread() else {
                break;
            };
            let q = self.threads[tid].queue.pop_front().expect("head exists");
            let tenant = self.threads[tid].tenant;
            self.tenants[tenant].backlog -= 1;
            self.vclock = qos::charge(
                &self.cfg.qos,
                &mut self.qos_slots,
                tenant,
                self.d.now,
                self.vclock,
            );
            self.last_served = tid;
            let tags = if self.cfg.open_interface {
                q.io.tags
            } else {
                IoTags::none()
            };
            let wait_us = self.d.now.saturating_since(q.enqueued_at).as_micros_f64();
            self.threads[tid].stats.queue_wait_us.record(wait_us);
            if q.span != NO_SPAN {
                // The span's host wait splits into QoS hold (while the
                // tenant was rate-blocked) and plain queue wait.
                let hold = match self.tenants[tenant].held_since.take() {
                    Some(since) => self.d.now.saturating_since(since),
                    None => SimDuration::ZERO,
                };
                if let Some(o) = self.d.c.obs_mut() {
                    o.acc_queue(q.span, self.d.now, hold);
                }
            }
            // Namespace translation: queues hold tenant-relative LBAs
            // (bounds-checked at submission); the device sees absolute ones.
            let lpn = self.tenants[tenant].ns.base + q.io.lpn;
            // The controller continues the span the IO was queued under.
            let id = self.d.submit_spanned(q.io.kind, lpn, tags, q.span);
            self.inflight.insert(
                id,
                Inflight {
                    thread: tid,
                    io: q.io,
                    enqueued_at: q.enqueued_at,
                    dispatched_at: self.d.now,
                },
            );
        }
        // Dispatch stopped with device slots free: under a token bucket
        // any still-backlogged tenant is rate-blocked — note when the
        // hold began so its next dispatch can attribute the wait.
        if self.cfg.qos == QosPolicy::TokenBucket
            && self.inflight.len() < self.cfg.queue_depth
            && self.d.c.obs().is_some()
        {
            let now = self.d.now;
            for e in &mut self.tenants {
                if e.backlog > 0 {
                    e.held_since.get_or_insert(now);
                } else {
                    e.held_since = None;
                }
            }
        }
    }

    fn handle_completion(&mut self, c: Completion) {
        let inf = self
            .inflight
            .remove(c.id)
            .expect("completion for unknown request");
        let done = CompletedIo {
            io: inf.io,
            enqueued_at: inf.enqueued_at,
            dispatched_at: inf.dispatched_at,
            completed_at: c.at,
        };
        let thread = &mut self.threads[inf.thread];
        self.tenants[thread.tenant].valid.note(inf.io.kind, inf.io.lpn);
        thread.stats.record_completion(inf.io.kind, done.latency(), c.at);
        self.call_workload(inf.thread, |w, ctx| w.call_back(ctx, done));
    }

    /// Start every not-yet-started thread whose dependencies all finished.
    fn try_start_threads(&mut self) {
        loop {
            let ready: Vec<ThreadId> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    !t.started && t.deps.iter().all(|&d| self.threads[d].finished)
                })
                .map(|(tid, _)| tid)
                .collect();
            if ready.is_empty() {
                return;
            }
            for tid in ready {
                self.threads[tid].started = true;
                self.call_workload(tid, |w, ctx| w.init(ctx));
            }
        }
    }

    /// Invoke a workload callback with a fresh context, then apply the
    /// buffered effects (submissions, timers, finish). Submissions are
    /// bounds-checked against the thread's namespace here — the OS
    /// boundary no tenant-relative LBA crosses unchecked.
    fn call_workload(&mut self, tid: ThreadId, f: impl FnOnce(&mut dyn Workload, &mut ThreadCtx)) {
        let tenant = self.threads[tid].tenant;
        let ns = self.tenants[tenant].ns;
        let mut submissions = std::mem::take(&mut self.scratch_submissions);
        let mut timer_delays = std::mem::take(&mut self.scratch_timers);
        let mut finished = self.threads[tid].finished;
        {
            let mut ctx = ThreadCtx {
                now: self.d.now,
                logical_pages: ns.len,
                submissions: &mut submissions,
                timers: &mut timer_delays,
                finished: &mut finished,
            };
            f(self.threads[tid].workload.as_mut(), &mut ctx);
        }
        if !submissions.is_empty() {
            if self.tenants[tenant].backlog == 0 {
                // Idle → backlogged: sync the WFQ virtual time.
                self.qos_slots[tenant].on_backlogged(self.vclock);
            }
            for io in submissions.drain(..) {
                // Bounds check (panics on violation); translation to the
                // device-absolute LBA happens at dispatch.
                ns.translate(io.lpn, &self.tenants[tenant].name);
                let seq = self.next_seq;
                self.next_seq += 1;
                let now = self.d.now;
                let span = self.d.c.obs_mut().map_or(NO_SPAN, |o| {
                    o.open(io.kind.name(), Some(tenant as u32), now)
                });
                self.threads[tid].queue.push_back(QueuedIo {
                    io,
                    enqueued_at: self.d.now,
                    seq,
                    span,
                });
                self.tenants[tenant].backlog += 1;
            }
        }
        for d in timer_delays.drain(..) {
            self.timers.schedule(self.d.now + d, tid);
        }
        // Back before a finished thread starts its dependants, whose
        // callbacks come through here again.
        self.scratch_submissions = submissions;
        self.scratch_timers = timer_delays;
        let newly_finished = finished && !self.threads[tid].finished;
        self.threads[tid].finished = finished;
        if newly_finished {
            self.try_start_threads();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_controller::ControllerConfig;
    use eagletree_core::{SimDuration, Stage};
    use eagletree_flash::{Geometry, TimingSpec};

    /// Writes `count` sequential pages with `inflight` self-imposed
    /// parallelism, then finishes.
    struct SeqWriter {
        next: u64,
        count: u64,
        inflight: u64,
        outstanding: u64,
    }

    impl SeqWriter {
        fn new(count: u64, inflight: u64) -> Self {
            SeqWriter {
                next: 0,
                count,
                inflight,
                outstanding: 0,
            }
        }
        fn feed(&mut self, ctx: &mut ThreadCtx) {
            while self.outstanding < self.inflight && self.next < self.count {
                ctx.submit(OsIo::write(self.next));
                self.next += 1;
                self.outstanding += 1;
            }
            if self.next == self.count && self.outstanding == 0 {
                ctx.finish();
            }
        }
    }

    impl Workload for SeqWriter {
        fn init(&mut self, ctx: &mut ThreadCtx) {
            self.feed(ctx);
        }
        fn call_back(&mut self, ctx: &mut ThreadCtx, _done: CompletedIo) {
            self.outstanding -= 1;
            self.feed(ctx);
        }
        fn name(&self) -> &str {
            "seq-writer"
        }
    }

    fn os(cfg: OsConfig) -> Os {
        let ctrl = Controller::new(
            Geometry::tiny(),
            TimingSpec::slc(),
            ControllerConfig::default(),
        )
        .unwrap();
        Os::new(ctrl, cfg)
    }

    #[test]
    fn single_thread_completes_all_ios() {
        let mut os = os(OsConfig::default());
        let t = os.add_thread(Box::new(SeqWriter::new(100, 4)));
        os.run().unwrap();
        assert_eq!(os.thread_stats(t).writes_completed, 100);
        assert!(os.thread_finished(t));
        assert!(os.thread_stats(t).throughput_iops() > 0.0);
        assert!(os.now() > SimTime::ZERO);
    }

    #[test]
    fn queue_depth_bounds_outstanding() {
        // qd=1 must serialize: makespan ≈ count × write path; much larger
        // than qd=16 on a 4-LUN device.
        let makespan = |qd: usize| {
            let mut o = os(OsConfig {
                queue_depth: qd,
                ..OsConfig::default()
            });
            o.add_thread(Box::new(SeqWriter::new(200, 64)));
            o.run().unwrap();
            o.now()
        };
        let serial = makespan(1);
        let parallel = makespan(16);
        assert!(
            serial > parallel,
            "qd=1 ({serial:?}) should be slower than qd=16 ({parallel:?})"
        );
    }

    #[test]
    fn dependencies_serialize_threads() {
        struct Recorder {
            target: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>,
            label: &'static str,
        }
        impl Workload for Recorder {
            fn init(&mut self, ctx: &mut ThreadCtx) {
                self.target.borrow_mut().push(self.label);
                ctx.submit(OsIo::write(0));
            }
            fn call_back(&mut self, ctx: &mut ThreadCtx, _d: CompletedIo) {
                ctx.finish();
            }
        }
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut o = os(OsConfig::default());
        let a = o.add_thread(Box::new(Recorder {
            target: order.clone(),
            label: "a",
        }));
        let _b = o.add_thread_after(
            Box::new(Recorder {
                target: order.clone(),
                label: "b",
            }),
            vec![a],
        );
        o.run().unwrap();
        assert_eq!(*order.borrow(), vec!["a", "b"]);
    }

    #[test]
    fn round_robin_is_fairer_than_fifo_for_greedy_thread() {
        // Thread 0 floods 600 IOs up front; thread 1 trickles with
        // self-limited parallelism. Under round-robin, thread 1's queue
        // wait should be far lower than under FIFO.
        struct Flood {
            n: u64,
        }
        impl Workload for Flood {
            fn init(&mut self, ctx: &mut ThreadCtx) {
                for i in 0..self.n {
                    ctx.submit(OsIo::write(i % ctx.logical_pages()));
                }
            }
            fn call_back(&mut self, ctx: &mut ThreadCtx, _d: CompletedIo) {
                ctx.finish();
            }
        }
        let wait = |policy: OsSchedPolicy| {
            let mut o = os(OsConfig {
                queue_depth: 8,
                policy,
                ..OsConfig::default()
            });
            let _flood = o.add_thread(Box::new(Flood { n: 600 }));
            let victim = o.add_thread(Box::new(SeqWriter::new(50, 2)));
            o.run().unwrap();
            o.thread_stats(victim).queue_wait_us.mean()
        };
        let fifo = wait(OsSchedPolicy::Fifo);
        let rr = wait(OsSchedPolicy::RoundRobin);
        assert!(
            rr < fifo / 2.0,
            "round-robin wait {rr:.0}us not clearly fairer than fifo {fifo:.0}us"
        );
    }

    #[test]
    fn timers_fire_and_resubmit() {
        struct Ticker {
            ticks: u32,
        }
        impl Workload for Ticker {
            fn init(&mut self, ctx: &mut ThreadCtx) {
                ctx.set_timer_at(ctx.now() + SimDuration::from_micros(100));
            }
            fn call_back(&mut self, _ctx: &mut ThreadCtx, _d: CompletedIo) {}
            fn on_timer(&mut self, ctx: &mut ThreadCtx) {
                self.ticks += 1;
                if self.ticks < 5 {
                    ctx.set_timer_at(ctx.now() + SimDuration::from_micros(100));
                } else {
                    ctx.finish();
                }
            }
        }
        let mut o = os(OsConfig::default());
        let t = o.add_thread(Box::new(Ticker { ticks: 0 }));
        o.run().unwrap();
        assert!(o.thread_finished(t));
        assert_eq!(o.now(), SimTime::from_nanos(500_000));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut o = os(OsConfig::default());
        o.add_thread(Box::new(SeqWriter::new(10_000, 8)));
        let horizon = SimTime::from_nanos(1_000_000); // 1 ms
        // Stopping at the horizon, work left and all, is no stall.
        assert_eq!(o.run_until(horizon), Ok(()));
        assert!(o.now() <= horizon);
        let done = o.thread_stats(0).writes_completed;
        assert!(done > 0, "nothing completed within horizon");
        assert!(done < 10_000, "horizon did not cut the run short");
    }

    #[test]
    fn a_thread_that_never_finishes_stalls_the_run_on_an_idle_device() {
        struct Forgets;
        impl Workload for Forgets {
            fn init(&mut self, ctx: &mut ThreadCtx) {
                ctx.submit(OsIo::write(0));
            }
            fn call_back(&mut self, _ctx: &mut ThreadCtx, _d: CompletedIo) {}
        }
        let mut o = os(OsConfig::default());
        let t = o.add_thread(Box::new(Forgets));
        let idle = Stalled { device: None, unfinished_threads: vec![t], inflight: 0 };
        assert_eq!(o.run_until(SimTime::from_nanos(1_000_000_000)), Err(idle.clone()));
        assert_eq!(o.run(), Err(idle.clone()));
        assert_eq!(o.thread_stats(t).writes_completed, 1);
        assert!(o.controller().is_quiescent());
        assert_eq!(idle.to_string(), "stalled: threads [0] unfinished, 0 requests in flight; device idle");
    }

    #[test]
    fn locked_interface_strips_tags() {
        // With the interface locked, priority tags must not reach the
        // controller; with it open, they must. Observable through the
        // controller's TagPriority scheduler only as behavior, so here we
        // assert the plumbing directly on dispatch by running twice and
        // checking both complete (smoke) — detailed behavioral assertions
        // live in the experiments crate.
        for open in [false, true] {
            let mut o = os(OsConfig {
                open_interface: open,
                ..OsConfig::default()
            });
            struct Tagged;
            impl Workload for Tagged {
                fn init(&mut self, ctx: &mut ThreadCtx) {
                    ctx.submit(
                        OsIo::write(1).tagged(IoTags::none().with_priority(0)),
                    );
                }
                fn call_back(&mut self, ctx: &mut ThreadCtx, _d: CompletedIo) {
                    ctx.finish();
                }
            }
            let t = o.add_thread(Box::new(Tagged));
            o.run().unwrap();
            assert!(o.thread_finished(t));
        }
    }

    #[test]
    fn per_thread_stats_are_isolated() {
        let mut o = os(OsConfig::default());
        let a = o.add_thread(Box::new(SeqWriter::new(30, 2)));
        let b = o.add_thread(Box::new(SeqWriter::new(70, 2)));
        o.run().unwrap();
        assert_eq!(o.thread_stats(a).writes_completed, 30);
        assert_eq!(o.thread_stats(b).writes_completed, 70);
        assert_eq!(o.thread_stats(a).read_latency.count(), 0);
    }

    #[test]
    fn merged_records_equal_one_record_fed_every_sample() {
        let mut rng = eagletree_core::SimRng::new(40);
        let (mut a, mut b, mut union) =
            (ThreadStats::default(), ThreadStats::default(), ThreadStats::default());
        for i in 0..2_000 {
            let kind = [RequestKind::Read, RequestKind::Write, RequestKind::Trim]
                [rng.gen_range(3) as usize];
            let latency = SimDuration::from_nanos(1_000 + rng.gen_range(5_000_000));
            let wait_us = rng.gen_range(10_000) as f64 / 7.0;
            let at = SimTime::from_nanos(1_000 * i);
            let feed = |s: &mut ThreadStats| {
                s.queue_wait_us.record(wait_us);
                s.record_completion(kind, latency, at);
            };
            // The two records' completions interleave in time.
            feed(if rng.gen_range(3) == 0 { &mut a } else { &mut b });
            feed(&mut union);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(
            [merged.reads_completed, merged.writes_completed, merged.trims_completed],
            [union.reads_completed, union.writes_completed, union.trims_completed]
        );
        // Every bucket, the count and the sum.
        assert_eq!(merged.read_latency, union.read_latency);
        assert_eq!(merged.write_latency, union.write_latency);
        assert_eq!(merged.first_completion, union.first_completion);
        assert_eq!(merged.last_completion, union.last_completion);
        for (m, u) in [
            (&merged.read_lat_us, &union.read_lat_us),
            (&merged.write_lat_us, &union.write_lat_us),
            (&merged.queue_wait_us, &union.queue_wait_us),
        ] {
            assert_eq!([m.count() as f64, m.min(), m.max()], [u.count() as f64, u.min(), u.max()]);
            for (x, y) in [(m.mean(), u.mean()), (m.variance(), u.variance())] {
                assert!((x - y).abs() <= 1e-12 * y.abs(), "{x} vs {y}");
            }
        }
        // Into an empty record a merge is a copy, bit for bit (`Debug`
        // prints each float's shortest exact form): a one-thread tenant
        // reads exactly its thread's record.
        let mut copy = ThreadStats::default();
        copy.merge(&a);
        assert_eq!(format!("{copy:?}"), format!("{a:?}"));
    }

    #[test]
    fn tail_reports_only_app_classes() {
        let mut s = ThreadStats::default();
        s.record_completion(RequestKind::Read, SimDuration::from_micros(100), SimTime::ZERO);
        assert_eq!(s.tail(OpClass::AppRead).count, 1);
        assert!(s.tail(OpClass::AppRead).p99 > SimDuration::ZERO);
        assert_eq!(s.tail(OpClass::AppWrite).count, 0);
        assert_eq!(s.tail(OpClass::GcRead), Tail::default());
    }

    #[test]
    #[should_panic(expected = "dependency on unknown thread")]
    fn bad_dependency_panics() {
        let mut o = os(OsConfig::default());
        o.add_thread_after(Box::new(SeqWriter::new(1, 1)), vec![5]);
    }

    #[test]
    fn tenants_get_disjoint_namespaces_and_isolated_stats() {
        use crate::tenant::TenantConfig;
        let mut o = os(OsConfig::default());
        let a = o.add_tenant(TenantConfig::new("a", 64));
        let b = o.add_tenant(TenantConfig::new("b", 32));
        assert_eq!(o.namespace(a).base, 0);
        assert_eq!(o.namespace(b).base, 64);
        o.add_tenant_thread(a, Box::new(SeqWriter::new(64, 4)));
        o.add_tenant_thread(b, Box::new(SeqWriter::new(10, 2)));
        o.run().unwrap();
        assert_eq!(o.tenant_stats(a).writes_completed, 64);
        assert_eq!(o.tenant_stats(b).writes_completed, 10);
        // Utilization counts distinct namespace pages.
        assert_eq!(o.valid_pages(a), 64);
        assert_eq!(o.namespace_utilization(a), 1.0);
        assert!((o.namespace_utilization(b) - 10.0 / 32.0).abs() < 1e-12);
        assert!(o.tenant_stats(a).tail(eagletree_controller::OpClass::AppWrite).p99
            > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside its 8-page namespace")]
    fn tenant_lba_out_of_namespace_panics_at_the_boundary() {
        use crate::tenant::TenantConfig;
        let mut o = os(OsConfig::default());
        let t = o.add_tenant(TenantConfig::new("tiny", 8));
        // SeqWriter writes LBAs 0..16: the 9th violates the namespace.
        o.add_tenant_thread(t, Box::new(SeqWriter::new(16, 1)));
        o.run().unwrap();
    }

    #[test]
    fn wfq_isolates_a_modest_tenant_from_a_flooder() {
        use crate::qos::QosPolicy;
        use crate::tenant::TenantConfig;
        // Tenant "hog" floods 600 writes up front; tenant "victim" issues
        // a trickle. Under WFQ the victim's queue wait must collapse
        // relative to the flat (None) dispatch.
        let victim_wait = |qos: QosPolicy, hog_weight: u32, victim_weight: u32| {
            let mut o = os(OsConfig {
                queue_depth: 8,
                qos,
                ..OsConfig::default()
            });
            let mut hog_cfg = TenantConfig::new("hog", 32);
            hog_cfg.qos.weight = hog_weight;
            let mut victim_cfg = TenantConfig::new("victim", 32);
            victim_cfg.qos.weight = victim_weight;
            let hog = o.add_tenant(hog_cfg);
            let victim = o.add_tenant(victim_cfg);
            struct Flood {
                n: u64,
            }
            impl Workload for Flood {
                fn init(&mut self, ctx: &mut ThreadCtx) {
                    for i in 0..self.n {
                        ctx.submit(OsIo::write(i % ctx.logical_pages()));
                    }
                }
                fn call_back(&mut self, ctx: &mut ThreadCtx, _d: CompletedIo) {
                    ctx.finish();
                }
            }
            o.add_tenant_thread(hog, Box::new(Flood { n: 600 }));
            let v = o.add_tenant_thread(victim, Box::new(SeqWriter::new(30, 2)));
            o.run().unwrap();
            let _ = v;
            o.tenant_stats(victim).queue_wait_us.mean()
        };
        let flat = victim_wait(QosPolicy::None, 1, 1);
        let wfq = victim_wait(QosPolicy::Wfq, 1, 1);
        assert!(
            wfq < flat / 2.0,
            "wfq victim wait {wfq:.0}us not clearly better than flat {flat:.0}us"
        );
    }

    #[test]
    fn token_bucket_caps_tenant_throughput() {
        use crate::qos::QosPolicy;
        use crate::tenant::TenantConfig;
        // One tenant capped at 10k IOPS must take ≥ ~100µs per IO of
        // virtual time even though the device is much faster.
        let mut o = os(OsConfig {
            qos: QosPolicy::TokenBucket,
            ..OsConfig::default()
        });
        let mut cfg = TenantConfig::new("capped", 64);
        cfg.qos.iops_limit = Some(10_000.0);
        cfg.qos.burst = 1.0;
        let t = o.add_tenant(cfg);
        o.add_tenant_thread(t, Box::new(SeqWriter::new(50, 8)));
        o.run().unwrap();
        let makespan_us = o.now().as_nanos() as f64 / 1e3;
        assert!(
            makespan_us >= 49.0 * 100.0,
            "50 IOs at 10k IOPS must span ≥4.9ms of virtual time, got {makespan_us:.0}us"
        );
        assert_eq!(o.tenant_stats(t).writes_completed, 50);
    }

    #[test]
    fn strict_tiers_prefer_low_tier_and_never_starve() {
        use crate::qos::QosPolicy;
        use crate::tenant::TenantConfig;
        let mut o = os(OsConfig {
            queue_depth: 4,
            qos: QosPolicy::StrictTiers {
                starvation_us: 50_000,
            },
            ..OsConfig::default()
        });
        let mut hi = TenantConfig::new("hi", 256);
        hi.qos.tier = 0;
        let mut lo = TenantConfig::new("lo", 64);
        lo.qos.tier = 3;
        let hi = o.add_tenant(hi);
        let lo = o.add_tenant(lo);
        o.add_tenant_thread(hi, Box::new(SeqWriter::new(200, 16)));
        o.add_tenant_thread(lo, Box::new(SeqWriter::new(50, 16)));
        o.run().unwrap();
        // Both finish (starvation guard), and the high tier waits less.
        assert_eq!(o.tenant_stats(hi).writes_completed, 200);
        assert_eq!(o.tenant_stats(lo).writes_completed, 50);
        assert!(
            o.tenant_stats(hi).queue_wait_us.mean()
                < o.tenant_stats(lo).queue_wait_us.mean()
        );
    }

    #[test]
    fn default_tenant_coexists_with_named_tenants() {
        use crate::tenant::TenantConfig;
        let mut o = os(OsConfig::default());
        // Preconditioning-style whole-device thread (default tenant) plus
        // a carved tenant.
        let fill = o.add_thread(Box::new(SeqWriter::new(100, 8)));
        let t = o.add_tenant(TenantConfig::new("t", 32));
        o.add_tenant_thread(t, Box::new(SeqWriter::new(32, 4)));
        o.run().unwrap();
        assert_eq!(o.thread_stats(fill).writes_completed, 100);
        assert_eq!(o.tenant_stats(t).writes_completed, 32);
        assert_eq!(o.tenant_name(t), "t");
    }

    #[test]
    fn obs_spans_and_timeline_capture_lifecycles() {
        let mut ccfg = ControllerConfig::default();
        ccfg.obs.span_capacity = 4096;
        ccfg.obs.timeline_interval_us = 200;
        let ctrl =
            Controller::new(Geometry::tiny(), TimingSpec::slc(), ccfg).unwrap();
        let mut o = Os::new(ctrl, OsConfig::default());
        let t = o.add_thread(Box::new(SeqWriter::new(100, 4)));
        o.run().unwrap();
        assert_eq!(o.thread_stats(t).writes_completed, 100);
        let obs = o.obs().expect("spans enabled");
        assert_eq!(obs.open_count(), 0, "all spans closed at quiescence");
        assert!(obs.closed_count() > 0);
        // Every host write fed its tenant's stage breakdown, and the
        // cursor accounting makes stage sums equal end-to-end latency.
        let bd = obs
            .stage_breakdown(Some(0), "AppWrite")
            .expect("write breakdowns recorded");
        assert_eq!(bd.count(), 100);
        assert!(bd.mean_us(Stage::Media) > 0.0);
        for s in obs.spans() {
            assert_eq!(
                s.stages.total(),
                s.end.since(s.start).as_nanos(),
                "span {} stage sums must equal end-to-end",
                s.id
            );
        }
        let tl = o.timeline().expect("timeline enabled");
        assert!(!tl.is_empty(), "run must span telemetry intervals");
        assert!(tl.to_csv().starts_with("t_us,iops,wa,"));
        let writes: f64 = tl
            .rows()
            .map(|(_, v)| v[TL_COLUMNS.iter().position(|c| *c == "app_write_issues").unwrap()])
            .sum();
        assert!(writes >= 100.0, "all write issues land in some interval");
        // Obs off: no collector (so no breakdowns), no timeline.
        let mut plain = os(OsConfig::default());
        plain.add_thread(Box::new(SeqWriter::new(10, 2)));
        plain.run().unwrap();
        assert!(plain.obs().is_none());
        assert!(plain.timeline().is_none());
    }

    #[test]
    fn every_completion_of_a_wfq_run_finds_its_breakdown() {
        use crate::qos::QosPolicy;
        use crate::tenant::TenantConfig;
        // A ring of 64 is far smaller than the run: breakdowns are kept
        // where each span closes, not read back from the ring.
        let mut ccfg = ControllerConfig::default();
        ccfg.obs.span_capacity = 64;
        let ctrl = Controller::new(Geometry::tiny(), TimingSpec::slc(), ccfg).unwrap();
        let mut o = Os::new(
            ctrl,
            OsConfig {
                queue_depth: 8,
                qos: QosPolicy::Wfq,
                ..OsConfig::default()
            },
        );
        let mut heavy = TenantConfig::new("heavy", 32);
        heavy.qos.weight = 3;
        let tenants = [o.add_tenant(heavy), o.add_tenant(TenantConfig::new("light", 32))];
        // Twelve threads overwriting the heavy tenant's 32 pages, four the
        // light one's.
        for i in 0..16 {
            let (tenant, inflight) = if i < 12 { (tenants[0], 4) } else { (tenants[1], 1) };
            o.add_tenant_thread(tenant, Box::new(SeqWriter::new(32, inflight)));
        }
        o.run().unwrap();
        let obs = o.obs().expect("spans enabled");
        for (t, writes) in tenants.into_iter().zip([12 * 32, 4 * 32]) {
            assert_eq!(o.tenant_stats(t).writes_completed, writes);
            let bd = obs
                .stage_breakdown(Some(t as u32), "AppWrite")
                .expect("breakdowns recorded");
            assert_eq!(bd.count(), writes, "tenant {t}: a completion lost its breakdown");
        }
        assert_eq!(obs.open_count(), 0);
        assert_eq!(obs.closed_count(), 64);
    }

    #[test]
    fn timeline_captures_completions_over_time() {
        // The `iops` column is the per-interval completion rate examples
        // plot: rate × interval length must add back up to the run.
        let mut ccfg = ControllerConfig::default();
        ccfg.obs.timeline_interval_us = 500;
        let ctrl = Controller::new(Geometry::tiny(), TimingSpec::slc(), ccfg).unwrap();
        let mut o = Os::new(ctrl, OsConfig::default());
        o.add_thread(Box::new(SeqWriter::new(100, 4)));
        o.run().unwrap();
        let tl = o.timeline().expect("timeline on");
        assert_eq!(tl.columns()[0], "iops");
        assert!(tl.len() > 1, "run spans several intervals");
        let ends = tl.rows().skip(1).map(|(at, _)| at).chain([o.now()]);
        let total: f64 = tl
            .rows()
            .zip(ends)
            .map(|((from, v), to)| v[0] * to.since(from).as_secs_f64())
            .sum();
        assert!(
            (total - 100.0).abs() < 1e-6,
            "every completion lands in some interval, got {total}"
        );
    }

    /// Writes page 0 once, when its timer fires at 500 µs.
    struct WriteAt500;

    impl Workload for WriteAt500 {
        fn init(&mut self, ctx: &mut ThreadCtx) {
            ctx.set_timer_at(SimTime::from_nanos(500_000));
        }
        fn on_timer(&mut self, ctx: &mut ThreadCtx) {
            ctx.submit(OsIo::write(0));
        }
        fn call_back(&mut self, ctx: &mut ThreadCtx, _done: CompletedIo) {
            ctx.finish();
        }
        fn name(&self) -> &str {
            "write-at-500"
        }
    }

    #[test]
    fn a_timeline_row_ends_before_the_events_at_its_end() {
        let mut ccfg = ControllerConfig::default();
        ccfg.obs.timeline_interval_us = 500;
        let ctrl = Controller::new(Geometry::tiny(), TimingSpec::slc(), ccfg).unwrap();
        let mut o = Os::new(ctrl, OsConfig::default());
        o.add_thread(Box::new(WriteAt500));
        o.run().unwrap();
        let tl = o.timeline().expect("timeline on");
        let writes = tl.columns().iter().position(|&c| c == "app_write_issues").unwrap();
        let rows: Vec<_> = tl.rows().map(|(at, v)| (at, v[writes])).collect();
        // The write issued at 500 µs belongs to the interval that starts
        // there, not to the one that ends there.
        assert_eq!(rows, [(SimTime::ZERO, 0.0), (SimTime::from_nanos(500_000), 1.0)]);
        // A run with nothing left to do ends where the last row did: it
        // adds no empty row.
        o.run().unwrap();
        assert_eq!(o.timeline().unwrap().len(), 2);
    }

    #[test]
    fn a_tenant_namespace_may_fill_the_device() {
        use crate::tenant::TenantConfig;
        let mut o = os(OsConfig::default());
        let pages = o.controller().logical_pages();
        let t = o.add_tenant(TenantConfig::new("all", pages));
        assert_eq!(o.namespace(t), Namespace { base: 0, len: pages });
    }
}
