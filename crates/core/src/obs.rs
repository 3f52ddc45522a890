//! Observability: per-op lifecycle spans, stage-attributed latency and
//! time-sliced telemetry.
//!
//! §2.3 of the paper promises "massive visual traces showing exactly how
//! every IO was handled throughout the simulator components". This module
//! is that capture, in structured form:
//!
//! * [`Span`] — the lifecycle of one operation (an application request or
//!   an internal GC / wear-leveling / merge / mapping / scrub / checkpoint
//!   op) from creation to completion, carrying a [`StageNs`] breakdown of
//!   *where* its latency went, a [`Cause`] link to whatever triggered it,
//!   and an interference annotation when it was stalled behind an internal
//!   op on its LUN.
//! * [`Obs`] — the collector: open-span cursors in the crate's
//!   [`IdTable`], found from a span id by subtraction; a ring of the most
//!   recent closed spans; the host breakdowns of one
//!   [`Obs::rotate_finished`] period; and per-lane "last internal op"
//!   memory for interference attribution. Nothing is keyed by a host
//!   request id: whoever holds the request holds its span id. The
//!   contract: *ids are dense, monotone and never reused; handles to
//!   closed spans are inert* — every call on a closed, never-issued or
//!   [`NO_SPAN`] id is a silent no-op. A span costs a handful of array
//!   accesses and allocates only while a ring or the busy-list pool
//!   grows. Pure
//!   observation: it never schedules events, never consults the RNG, and
//!   never influences control flow, so enabling it cannot perturb a
//!   simulation (fingerprints stay byte-identical).
//!
//!   The ring holds no [`Span`]s. A closed span is a fixed-size record
//!   (at most 96 B, no heap pointer): its names — op kind, cause policy,
//!   stalled-behind kind — are `u8` codes into a per-collector name table,
//!   and its busy windows are a count. The windows themselves go, in
//!   close order, into one flat window ring; evicting a record drains its
//!   count from that ring's front. Closes append to both rings, so the
//!   windows of the retained records are exactly the ring's contents, in
//!   order: [`Obs::spans`] rebuilds each [`Span`] by walking the two side
//!   by side, and a code decodes to a name equal to the one it was given
//!   (a name is found by pointer, else by content). An open span's busy
//!   list goes back to the spare pool the moment it closes, still in cache
//!   for the next open.
//! * [`StageBreakdown`] — per-stage latency histograms whose stage sums
//!   equal end-to-end latency *by construction*: every attribution call
//!   advances a single cursor (`last`), so no nanosecond is counted twice
//!   or dropped.
//! * [`Timeline`] — fixed-interval rows of named telemetry columns
//!   (IOPS, write amplification, queue depths, GC/merge/scrub activity,
//!   error rates), exportable as CSV or JSON.
//! * [`Obs::to_perfetto`] — a Chrome-trace / Perfetto JSON exporter with
//!   one track per LUN (plus a misc track) and one per tenant.
//!
//! Everything is gated behind [`ObsConfig`]; the default configuration
//! disables all of it and costs one `Option` test per hook site.

use std::collections::VecDeque;

use crate::idtable::IdTable;
use crate::stats::{Histogram, Tail};
use crate::time::{SimDuration, SimTime};

/// Sentinel span id: "no span" (ids start at 1).
pub const NO_SPAN: u64 = 0;

/// Observability configuration. The default disables everything; a
/// disabled collector is never even allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Retain up to this many closed spans (a ring buffer keeping the most
    /// recent; older spans are counted as dropped). `0` disables span
    /// collection entirely.
    pub span_capacity: usize,
    /// Emit one telemetry row per this many microseconds of virtual time.
    /// `0` disables the timeline.
    pub timeline_interval_us: u64,
}

impl ObsConfig {
    /// True when span collection is on.
    pub fn spans_enabled(&self) -> bool {
        self.span_capacity > 0
    }

    /// True when timeline sampling is on.
    pub fn timeline_enabled(&self) -> bool {
        self.timeline_interval_us > 0
    }
}

/// Latency stage of an operation's lifecycle. Together the stages
/// partition an op's end-to-end latency:
///
/// * `QueueWait` — host-side: enqueued in the OS dispatch queue (beyond
///   any QoS hold).
/// * `QosHold` — host-side: the tenant's QoS policy (token bucket) had
///   the IO rate-blocked while device slots were available.
/// * `SchedPending` — device-side: waiting in the controller's pending
///   set for the scheduler to issue it, including mapping-fetch parks and
///   the gaps between multi-phase flash commands.
/// * `Media` — NAND busy time of the issued flash commands.
/// * `Retry` — the portion of NAND busy time spent on extra ECC
///   read-retry rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    QueueWait,
    QosHold,
    SchedPending,
    Media,
    Retry,
}

impl Stage {
    /// Number of stages; sizes every per-stage table.
    pub const COUNT: usize = 5;

    /// All stages, in declaration order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::QosHold,
        Stage::SchedPending,
        Stage::Media,
        Stage::Retry,
    ];

    /// Stable snake_case name (CSV/JSON column stems, trace args).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::QosHold => "qos_hold",
            Stage::SchedPending => "sched_pending",
            Stage::Media => "media",
            Stage::Retry => "retry",
        }
    }
}

/// Per-stage nanosecond totals of one span. The sum over stages equals
/// the span's end-to-end latency exactly (cursor accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageNs(pub [u64; Stage::COUNT]);

impl StageNs {
    /// Add `ns` to `stage`.
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.0[stage as usize] += ns;
    }

    /// Nanoseconds attributed to `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.0[stage as usize]
    }

    /// Total nanoseconds across all stages (== end-to-end latency).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The stage holding the largest share (ties break toward the earlier
    /// stage, deterministically).
    pub fn dominant(&self) -> Stage {
        let mut best = 0;
        for i in 1..Stage::COUNT {
            if self.0[i] > self.0[best] {
                best = i;
            }
        }
        Stage::ALL[best]
    }
}

/// Why an internal op exists: the host request span that forced it (a
/// DFTL mapping fetch) or the background policy that scheduled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cause {
    /// No recorded trigger.
    #[default]
    None,
    /// Triggered by the op with this span id.
    Op(u64),
    /// Scheduled by a named background policy ("gc", "wear-leveling",
    /// "scrub", "merge", "mapping-writeback", "checkpoint", "flush").
    Policy(&'static str),
}

impl Cause {
    /// Render for trace args ("", "op:12", "policy:gc").
    pub fn label(&self) -> String {
        match self {
            Cause::None => String::new(),
            Cause::Op(id) => format!("op:{id}"),
            Cause::Policy(p) => format!("policy:{p}"),
        }
    }
}

/// A closed span: one operation's completed lifecycle.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; [`NO_SPAN`] never appears).
    pub id: u64,
    /// Op kind ("AppRead", "GcWrite", "Erase", …).
    pub kind: &'static str,
    /// Owning tenant for host requests; `None` for internal ops.
    pub tenant: Option<u32>,
    /// Creation instant (host enqueue / controller enqueue).
    pub start: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// Stage attribution; `stages.total() == (end - start)` exactly.
    pub stages: StageNs,
    /// What triggered this op, when known.
    pub cause: Cause,
    /// Interference: `(span id, kind)` of an internal op that occupied
    /// this op's LUN lane while it waited to issue.
    pub stalled_behind: Option<(u64, &'static str)>,
    /// Flash busy windows `(lane, from, to)` of the issued commands
    /// (lane 0 = misc; `1 + lun_index` otherwise). Empty for ops that
    /// completed without touching flash.
    pub busy: Vec<(u32, SimTime, SimTime)>,
}

/// [`Closed::cause`] of a span with [`Cause::None`].
const CAUSE_NONE: u8 = u8::MAX;
/// [`Closed::cause`] of a span with [`Cause::Op`]; the id is in
/// [`Closed::cause_op`]. Any other value is a policy name's code.
const CAUSE_OP: u8 = u8::MAX - 1;

/// A closed span as the ring keeps it: a [`Span`] without pointers —
/// names as [`Names`] codes, busy windows as a count of the window ring's
/// entries.
#[derive(Clone, Copy)]
struct Closed {
    id: u64,
    start: SimTime,
    end: SimTime,
    stages: StageNs,
    tenant: Option<u32>,
    /// The triggering op's span id when `cause` is [`CAUSE_OP`].
    cause_op: u64,
    /// The span this one was stalled behind; [`NO_SPAN`] when none (span
    /// ids start at 1).
    stalled_id: u64,
    /// Busy windows, the next this many of the window ring.
    windows: u32,
    kind: u8,
    /// [`CAUSE_NONE`], [`CAUSE_OP`] or the cause policy's name code.
    cause: u8,
    /// The kind code of `stalled_id`'s op.
    stalled_kind: u8,
}

const _: () = assert!(std::mem::size_of::<Closed>() <= 96);

/// The names spans carry — op kinds and policy names — by `u8` code.
#[derive(Default)]
struct Names(Vec<&'static str>);

impl Names {
    /// The code of `name`: the entry with the same pointer, else the one
    /// with the same content, else a new one. Either way the code decodes
    /// to a name equal to `name`.
    fn code(&mut self, name: &'static str) -> u8 {
        let found = self.0.iter().position(|n| std::ptr::eq(*n, name));
        let i = match found.or_else(|| self.0.iter().position(|n| *n == name)) {
            Some(i) => i,
            None => {
                self.0.push(name);
                self.0.len() - 1
            }
        };
        u8::try_from(i)
            .ok()
            .filter(|&c| c < CAUSE_OP)
            .expect("spans carry at most 254 distinct names")
    }

    fn name(&self, code: u8) -> &'static str {
        self.0[code as usize]
    }
}

/// An open span: the record it will close as (`end` and `windows` still
/// unset), its busy windows so far, and its cursor.
struct OpenSpan {
    rec: Closed,
    busy: Vec<(u32, SimTime, SimTime)>,
    /// The last attributed boundary; the next attribution call charges
    /// `now - last` to its stage and advances the cursor.
    last: SimTime,
}

impl OpenSpan {
    /// Charge the time since the cursor to `stage`, up to `now`.
    fn charge(&mut self, stage: Stage, now: SimTime) {
        self.rec
            .stages
            .add(stage, now.saturating_since(self.last).as_nanos());
        self.last = now;
    }
}

/// The span collector. Owned by the controller (one per device); the OS
/// layer reaches it through the controller to open host-request spans and
/// drain finished breakdowns.
pub struct Obs {
    capacity: usize,
    next_id: u64,
    /// The open spans' cursors, by id; a closed span's slot goes to a
    /// later open.
    open: IdTable<OpenSpan>,
    /// Host breakdowns closed since the last [`Obs::rotate_finished`], as
    /// `(request id, stages)` in close order: their completions have not
    /// been handed to the host yet.
    acked: VecDeque<(u64, StageNs)>,
    /// Those of the period before, which [`Obs::take_finished`] serves.
    returned: VecDeque<(u64, StageNs)>,
    /// The most recent `capacity` closed spans, oldest first.
    closed: VecDeque<Closed>,
    /// The busy windows of `closed`, record by record, in the same order.
    windows: VecDeque<(u32, SimTime, SimTime)>,
    dropped: u64,
    /// Busy lists of closed spans, emptied: the next opens take them, so
    /// spans allocate nothing once as many lists exist as spans were ever
    /// open at once.
    spare_busy: Vec<Vec<(u32, SimTime, SimTime)>>,
    /// What the `u8` name codes of `closed` and `open` stand for.
    names: Names,
    /// Cause applied to internal spans opened via [`Obs::open_internal`];
    /// set by the triggering policy code around its enqueues.
    cause_ctx: Cause,
    /// Per lane: the last internal op issued there `(span id, kind code,
    /// busy-until)` — the interference source a host op can stall behind.
    lane_internal: Vec<Option<(u64, u8, SimTime)>>,
}

impl Obs {
    /// A collector retaining up to `capacity` (at least one) closed spans.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a span collector retains at least one span");
        Obs {
            capacity,
            next_id: 1,
            open: IdTable::default(),
            acked: VecDeque::new(),
            returned: VecDeque::new(),
            closed: VecDeque::new(),
            windows: VecDeque::new(),
            dropped: 0,
            spare_busy: Vec::new(),
            names: Names::default(),
            cause_ctx: Cause::None,
            lane_internal: Vec::new(),
        }
    }

    /// Open a host-request span (cause always [`Cause::None`]: host IOs
    /// are roots of the causality graph).
    pub fn open(&mut self, kind: &'static str, tenant: Option<u32>, now: SimTime) -> u64 {
        self.open_with(kind, tenant, now, Cause::None)
    }

    /// Open an internal-op span, linking the currently set cause context.
    pub fn open_internal(&mut self, kind: &'static str, now: SimTime) -> u64 {
        let cause = self.cause_ctx;
        self.open_with(kind, None, now, cause)
    }

    /// Open an internal-op span with an explicit cause (bypassing the
    /// context), for callers that can derive the trigger structurally.
    pub fn open_caused(&mut self, kind: &'static str, now: SimTime, cause: Cause) -> u64 {
        self.open_with(kind, None, now, cause)
    }

    fn open_with(
        &mut self,
        kind: &'static str,
        tenant: Option<u32>,
        now: SimTime,
        cause: Cause,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (cause, cause_op) = match cause {
            Cause::None => (CAUSE_NONE, 0),
            Cause::Op(op) => (CAUSE_OP, op),
            Cause::Policy(p) => (self.names.code(p), 0),
        };
        let rec = Closed {
            id,
            start: now,
            end: now,
            stages: StageNs::default(),
            tenant,
            cause_op,
            stalled_id: NO_SPAN,
            windows: 0,
            kind: self.names.code(kind),
            cause,
            stalled_kind: 0,
        };
        let busy = self.spare_busy.pop().unwrap_or_default();
        self.open.insert(
            id,
            OpenSpan {
                rec,
                busy,
                last: now,
            },
        );
        id
    }

    /// Set the cause attached to subsequently opened internal spans. The
    /// triggering code sets it before its enqueues and resets to
    /// [`Cause::None`] after.
    pub fn set_cause(&mut self, cause: Cause) {
        self.cause_ctx = cause;
    }

    /// Charge `now - last` to `stage` and advance the cursor.
    pub fn acc(&mut self, span: u64, stage: Stage, now: SimTime) {
        if let Some(s) = self.open.get_mut(span) {
            s.charge(stage, now);
        }
    }

    /// Charge the wait since the last boundary to the host queue stages:
    /// up to `qos_hold` of it to [`Stage::QosHold`], the rest to
    /// [`Stage::QueueWait`]; advance the cursor to `now`.
    pub fn acc_queue(&mut self, span: u64, now: SimTime, qos_hold: SimDuration) {
        if let Some(s) = self.open.get_mut(span) {
            let hold = qos_hold.min(now.saturating_since(s.last));
            s.charge(Stage::QosHold, s.last + hold);
            s.charge(Stage::QueueWait, now);
        }
    }

    /// Record a flash-command issue for `span`: the wait since the last
    /// boundary becomes [`Stage::SchedPending`], the busy window
    /// `[now, done_at)` splits into [`Stage::Media`] and [`Stage::Retry`],
    /// and the cursor advances to `done_at`. Internal spans (not bound to
    /// a host request) close here — their lifecycle ends when the
    /// command's effect lands — and mark the lane busy for interference
    /// attribution; host-bound spans instead pick up a "stalled behind"
    /// annotation if an internal op occupied the lane after they were
    /// enqueued (`waited_since`).
    #[allow(clippy::too_many_arguments)]
    pub fn on_issue(
        &mut self,
        span: u64,
        lane: u32,
        now: SimTime,
        done_at: SimTime,
        retry: SimDuration,
        waited_since: SimTime,
        host_bound: bool,
    ) {
        let Some(s) = self.open.get_mut(span) else {
            return;
        };
        s.charge(Stage::SchedPending, now);
        let busy = done_at.saturating_since(now);
        let retry = retry.min(busy);
        s.rec.stages.add(Stage::Media, (busy - retry).as_nanos());
        s.rec.stages.add(Stage::Retry, retry.as_nanos());
        s.last = done_at;
        s.busy.push((lane, now, done_at));
        let li = lane as usize;
        if host_bound {
            if s.rec.stalled_id == NO_SPAN {
                if let Some(&Some((sid, kind, until))) = self.lane_internal.get(li) {
                    if until > waited_since {
                        s.rec.stalled_id = sid;
                        s.rec.stalled_kind = kind;
                    }
                }
            }
        } else {
            let kind = s.rec.kind;
            if self.lane_internal.len() <= li {
                self.lane_internal.resize(li + 1, None);
            }
            self.lane_internal[li] = Some((span, kind, done_at));
            self.close_open(span, done_at);
        }
    }

    /// Close `span` at `end`, charging any remainder since the cursor to
    /// [`Stage::SchedPending`], and push it to the closed ring. Returns
    /// the final breakdown (zeroes if the span was unknown).
    pub fn close(&mut self, span: u64, end: SimTime) -> StageNs {
        self.close_open(span, end).unwrap_or_default()
    }

    /// [`Obs::close`]; `None` when `span` is not open.
    fn close_open(&mut self, span: u64, end: SimTime) -> Option<StageNs> {
        let mut s = self.open.remove(span)?;
        s.charge(Stage::SchedPending, end);
        s.rec.end = end;
        s.rec.windows = u32::try_from(s.busy.len()).expect("a span's windows fit a u32");
        if self.closed.len() == self.capacity {
            let evicted = self.closed.pop_front().expect("a full ring");
            self.windows.drain(..evicted.windows as usize);
            self.dropped += 1;
        }
        self.closed.push_back(s.rec);
        self.windows.extend(&s.busy);
        s.busy.clear();
        self.spare_busy.push(s.busy);
        Some(s.rec.stages)
    }

    /// Close the span of host request `req` at `end`, the instant the
    /// request is acknowledged; the final breakdown waits for
    /// [`Obs::take_finished`] under the request's id.
    pub fn close_host(&mut self, span: u64, req: u64, end: SimTime) {
        if let Some(stages) = self.close_open(span, end) {
            self.acked.push_back((req, stages));
        }
    }

    /// The device hands the host the completions acknowledged so far (the
    /// end of a `Controller::advance`): their breakdowns become the ones
    /// [`Obs::take_finished`] serves, and whatever the host left of the
    /// hand-over before is forgotten — so a host that never collects
    /// holds one hand-over's breakdowns, not one per request it ever made.
    pub fn rotate_finished(&mut self) {
        self.returned.clear();
        std::mem::swap(&mut self.acked, &mut self.returned);
    }

    /// Drain the finished breakdown of host request `req`, one of the
    /// completions the device last handed over.
    pub fn take_finished(&mut self, req: u64) -> Option<StageNs> {
        // A host collecting in completion order finds it at the front.
        let i = self.returned.iter().position(|&(r, _)| r == req)?;
        self.returned.remove(i).map(|(_, stages)| stages)
    }

    /// Breakdowns acknowledged or handed over that no
    /// [`Obs::take_finished`] has collected.
    pub fn uncollected(&self) -> usize {
        self.acked.len() + self.returned.len()
    }

    /// Closed spans, oldest retained first, each rebuilt from its record.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        let mut windows = self.windows.iter();
        self.closed.iter().map(move |c| Span {
            id: c.id,
            kind: self.names.name(c.kind),
            tenant: c.tenant,
            start: c.start,
            end: c.end,
            stages: c.stages,
            cause: match c.cause {
                CAUSE_NONE => Cause::None,
                CAUSE_OP => Cause::Op(c.cause_op),
                policy => Cause::Policy(self.names.name(policy)),
            },
            stalled_behind: (c.stalled_id != NO_SPAN)
                .then(|| (c.stalled_id, self.names.name(c.stalled_kind))),
            busy: windows.by_ref().take(c.windows as usize).copied().collect(),
        })
    }

    /// Closed spans currently retained.
    pub fn closed_count(&self) -> usize {
        self.closed.len()
    }

    /// Spans evicted from the ring after it filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans opened but not yet closed (0 at quiescence).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Render a plain listing of up to `limit` retained spans.
    pub fn render_spans(&self, limit: usize) -> String {
        let mut out = String::new();
        for s in self.spans().take(limit) {
            let st = &s.stages;
            out.push_str(&format!(
                "{:>12}  #{:<6} {:<13} {:>12}  [qw {} qos {} sched {} media {} retry {}]",
                s.start,
                s.id,
                s.kind,
                SimDuration::from_nanos(st.total()).to_string(),
                SimDuration::from_nanos(st.get(Stage::QueueWait)),
                SimDuration::from_nanos(st.get(Stage::QosHold)),
                SimDuration::from_nanos(st.get(Stage::SchedPending)),
                SimDuration::from_nanos(st.get(Stage::Media)),
                SimDuration::from_nanos(st.get(Stage::Retry)),
            ));
            if s.cause != Cause::None {
                out.push_str(&format!("  cause={}", s.cause.label()));
            }
            if let Some((sid, kind)) = s.stalled_behind {
                out.push_str(&format!("  stalled-behind={kind}#{sid}"));
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!("… {} older spans dropped\n", self.dropped));
        }
        out
    }

    /// Render an ASCII Gantt chart of span busy windows between `from`
    /// and `to`, `width` columns wide: one row per observed lane, cells
    /// showing the occupying op kind's letter (lowercase application,
    /// uppercase internal). Drops are surfaced below the chart.
    pub fn render_gantt(
        &self,
        from: SimTime,
        to: SimTime,
        width: usize,
        lane_names: &[String],
    ) -> String {
        assert!(to > from && width > 0);
        let window = to.since(from).as_nanos();
        let mut rows: Vec<(u32, Vec<u8>)> = Vec::new();
        for s in self.spans() {
            for &(lane, b_from, b_to) in &s.busy {
                if b_from >= to || b_to <= from {
                    continue;
                }
                let row = match rows.iter_mut().find(|(l, _)| *l == lane) {
                    Some((_, r)) => r,
                    None => {
                        rows.push((lane, vec![b'.'; width]));
                        rows.sort_by_key(|(l, _)| *l);
                        &mut rows.iter_mut().find(|(l, _)| *l == lane).unwrap().1
                    }
                };
                let start_ns = b_from.saturating_since(from).as_nanos();
                let end_ns = b_to.saturating_since(from).as_nanos().min(window);
                let a = (start_ns as u128 * width as u128 / window as u128) as usize;
                let b = ((end_ns as u128 * width as u128).div_ceil(window as u128) as usize)
                    .min(width)
                    .max(a + 1);
                let ch = kind_char(s.kind);
                for cell in &mut row[a..b] {
                    *cell = ch;
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "span occupancy {from} .. {to}  ({window} ns, {width} cols)\n",
        ));
        for (lane, row) in rows {
            let name = lane_names
                .get(lane as usize)
                .map(String::as_str)
                .unwrap_or("?");
            out.push_str(&format!(
                "{name:>10} |{}|\n",
                String::from_utf8_lossy(&row)
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} older spans dropped from the ring)\n",
                self.dropped
            ));
        }
        out
    }

    /// Export retained spans as Chrome-trace / Perfetto JSON: pid 1 is
    /// the device (one thread per LUN track — misc, then one per LUN),
    /// pid 2 the tenants (one thread per tenant). Device tracks carry the
    /// flash busy windows; tenant tracks carry full host-request spans.
    /// Load the file at `ui.perfetto.dev` or `chrome://tracing`.
    pub fn to_perfetto(&self, lane_names: &[String], tenant_names: &[String]) -> String {
        let mut ev: Vec<String> = Vec::new();
        ev.push("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"ssd-device\"}}".into());
        for (i, name) in lane_names.iter().enumerate() {
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_str(name)
            ));
        }
        if !tenant_names.is_empty() {
            ev.push(
                "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"tenants\"}}"
                    .into(),
            );
            for (i, name) in tenant_names.iter().enumerate() {
                ev.push(format!(
                    "{{\"ph\":\"M\",\"pid\":2,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    json_str(name)
                ));
            }
        }
        for s in self.spans() {
            let args = span_args(&s);
            if s.busy.is_empty() {
                ev.push(x_event(1, 0, s.kind, s.start, s.end, &args));
            } else {
                for &(lane, from, to) in &s.busy {
                    ev.push(x_event(1, lane, s.kind, from, to, &args));
                }
            }
            if let Some(t) = s.tenant {
                ev.push(x_event(2, t, s.kind, s.start, s.end, &args));
            }
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"))
    }
}

/// Gantt cell letter for an op kind: lowercase application, uppercase
/// internal.
fn kind_char(kind: &str) -> u8 {
    match kind {
        "AppRead" => b'r',
        "AppWrite" | "Flush" => b'w',
        "Trim" => b't',
        "GcRead" | "GcWrite" => b'G',
        "WlRead" | "WlWrite" => b'L',
        "MergeRead" | "MergeWrite" => b'M',
        "MappingRead" | "MappingWrite" => b'm',
        "Erase" => b'E',
        "ScrubRead" | "ScrubWrite" => b'S',
        _ => kind.as_bytes().first().copied().unwrap_or(b'?'),
    }
}

fn span_args(s: &Span) -> String {
    let st = &s.stages;
    let mut args = format!(
        "\"span\":{},\"queue_wait_ns\":{},\"qos_hold_ns\":{},\"sched_pending_ns\":{},\"media_ns\":{},\"retry_ns\":{}",
        s.id,
        st.get(Stage::QueueWait),
        st.get(Stage::QosHold),
        st.get(Stage::SchedPending),
        st.get(Stage::Media),
        st.get(Stage::Retry),
    );
    if s.cause != Cause::None {
        args.push_str(&format!(",\"cause\":{}", json_str(&s.cause.label())));
    }
    if let Some((sid, kind)) = s.stalled_behind {
        args.push_str(&format!(",\"stalled_behind\":{}", json_str(&format!("{kind}#{sid}"))));
    }
    args
}

fn x_event(pid: u32, tid: u32, name: &str, from: SimTime, to: SimTime, args: &str) -> String {
    let ts = from.as_nanos() as f64 / 1_000.0;
    let dur = (to.saturating_since(from).as_nanos() as f64 / 1_000.0).max(0.001);
    format!(
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{{args}}}}}",
        json_str(name)
    )
}

/// `s` as a quoted, escaped JSON string (the build container has no
/// serde).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-stage latency histograms plus an end-to-end total histogram fed
/// from the same [`StageNs`] records — so `total` and the stage sums
/// describe exactly the same population of IOs.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    stages: [Histogram; Stage::COUNT],
    total: Histogram,
}

impl Default for StageBreakdown {
    fn default() -> Self {
        Self::new()
    }
}

impl StageBreakdown {
    pub fn new() -> Self {
        StageBreakdown {
            stages: std::array::from_fn(|_| Histogram::new()),
            total: Histogram::new(),
        }
    }

    /// Record one IO's breakdown.
    pub fn record(&mut self, st: StageNs) {
        for (h, &ns) in self.stages.iter_mut().zip(st.0.iter()) {
            h.record(SimDuration::from_nanos(ns));
        }
        self.total.record(SimDuration::from_nanos(st.total()));
    }

    /// IOs recorded.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Histogram of end-to-end latency (stage sums).
    pub fn total(&self) -> &Histogram {
        &self.total
    }

    /// Mean microseconds spent in `stage` per IO.
    pub fn mean_us(&self, stage: Stage) -> f64 {
        self.stages[stage as usize].mean().as_micros_f64()
    }

    /// Tail summary of one stage.
    pub fn tail(&self, stage: Stage) -> Tail {
        self.stages[stage as usize].tail()
    }

    /// Tail summary of the stage sums.
    pub fn total_tail(&self) -> Tail {
        self.total.tail()
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (a, b) in self.stages.iter_mut().zip(other.stages.iter()) {
            a.merge(b);
        }
        self.total.merge(&other.total);
    }
}

/// Fixed-interval telemetry rows: each row is one interval's values for a
/// fixed set of named columns. The sampler computes the values (counter
/// deltas, instantaneous depths); this container only stores and exports.
#[derive(Debug, Clone)]
pub struct Timeline {
    interval: SimDuration,
    columns: Vec<&'static str>,
    rows: Vec<(SimTime, Vec<f64>)>,
}

impl Timeline {
    /// A timeline with the given sampling interval and column names.
    pub fn new(interval: SimDuration, columns: Vec<&'static str>) -> Self {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        assert!(!columns.is_empty(), "timeline needs at least one column");
        Timeline {
            interval,
            columns,
            rows: Vec::new(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Column names, in row order.
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    /// Append one row starting at `at` (must carry one value per column).
    pub fn push_row(&mut self, at: SimTime, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        self.rows.push((at, values));
    }

    /// Rows recorded so far.
    pub fn rows(&self) -> &[(SimTime, Vec<f64>)] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Export as CSV: `t_us` then one column per name.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (t, vals) in &self.rows {
            out.push_str(&format!("{}", t.as_nanos() as f64 / 1_000.0));
            for v in vals {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Export as JSON: `{"interval_us": …, "columns": […], "rows":
    /// [[t_us, …], …]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"interval_us\": {},\n  \"columns\": [{}],\n  \"rows\": [\n",
            self.interval.as_micros_f64(),
            self.columns
                .iter()
                .map(|c| json_str(c))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (i, (t, vals)) in self.rows.iter().enumerate() {
            out.push_str(&format!("    [{}", t.as_nanos() as f64 / 1_000.0));
            for v in vals {
                out.push_str(&format!(", {v}"));
            }
            out.push(']');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn config_defaults_off() {
        let c = ObsConfig::default();
        assert!(!c.spans_enabled());
        assert!(!c.timeline_enabled());
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["queue_wait", "qos_hold", "sched_pending", "media", "retry"]
        );
    }

    #[test]
    fn host_span_stage_sums_equal_end_to_end() {
        let mut o = Obs::new(16);
        let span = o.open("AppRead", Some(1), t(0));
        // 10us in the OS queue, 4 of them QoS-held.
        o.acc_queue(span, t(10), SimDuration::from_micros(4));
        // Issues at 25us, media until 75us with 20us of retry.
        o.on_issue(
            span,
            3,
            t(25),
            t(75),
            SimDuration::from_micros(20),
            t(10),
            true,
        );
        o.close_host(span, 7, t(75));
        assert!(o.take_finished(7).is_none(), "not handed to the host yet");
        o.rotate_finished();
        let st = o.take_finished(7).unwrap();
        assert_eq!(st.get(Stage::QueueWait), 6_000);
        assert_eq!(st.get(Stage::QosHold), 4_000);
        assert_eq!(st.get(Stage::SchedPending), 15_000);
        assert_eq!(st.get(Stage::Media), 30_000);
        assert_eq!(st.get(Stage::Retry), 20_000);
        assert_eq!(st.total(), 75_000);
        assert_eq!(st.dominant(), Stage::Media);
        let s = o.spans().next().unwrap();
        assert_eq!(s.end.since(s.start).as_nanos(), st.total());
        assert_eq!(s.tenant, Some(1));
        assert_eq!(o.open_count(), 0);
        assert!(o.take_finished(7).is_none(), "finished drains once");
    }

    #[test]
    fn finished_breakdowns_last_one_hand_over() {
        let mut o = Obs::new(4);
        for req in 0..3u64 {
            let s = o.open("AppWrite", None, t(req));
            o.close_host(s, req, t(req + 1));
        }
        o.rotate_finished();
        assert_eq!(o.uncollected(), 3);
        // Collected out of order, each once.
        assert_eq!(o.take_finished(1).unwrap().total(), 1_000);
        assert!(o.take_finished(1).is_none());
        assert!(o.take_finished(0).is_some());
        // Request 2 is never collected: the next hand-over forgets it.
        let s = o.open("AppWrite", None, t(5));
        o.close_host(s, 9, t(6));
        assert_eq!(o.uncollected(), 2);
        o.rotate_finished();
        assert!(o.take_finished(2).is_none());
        assert!(o.take_finished(9).is_some());
        assert_eq!(o.uncollected(), 0);
        // A span that is not open acknowledges nothing.
        o.close_host(s, 10, t(7));
        o.close_host(NO_SPAN, 11, t(7));
        assert_eq!(o.uncollected(), 0);
        assert_eq!(o.closed_count() as u64 + o.dropped(), 4);
    }

    #[test]
    fn internal_span_closes_at_issue_and_marks_interference() {
        let mut o = Obs::new(16);
        o.set_cause(Cause::Policy("gc"));
        let gc = o.open_internal("GcRead", t(0));
        o.set_cause(Cause::None);
        // Issues at 5us, busy until 60us: closes itself.
        o.on_issue(gc, 2, t(5), t(60), SimDuration::ZERO, t(0), false);
        assert_eq!(o.open_count(), 0);
        let gc_span = o.spans().next().unwrap();
        assert_eq!(gc_span.cause, Cause::Policy("gc"));
        assert_eq!(gc_span.stages.total(), 60_000);
        // A host read enqueued at 10us that issues on the same lane at
        // 70us was stalled behind the GC read (busy until 60 > 10).
        let app = o.open("AppRead", None, t(10));
        o.on_issue(app, 2, t(70), t(95), SimDuration::ZERO, t(10), true);
        let st = o.close(app, t(95));
        assert_eq!(st.total(), 85_000);
        let app_span = o.spans().nth(1).unwrap();
        assert_eq!(app_span.stalled_behind, Some((gc, "GcRead")));
        // A host op on a different lane is not stalled.
        let other = o.open("AppRead", None, t(10));
        o.on_issue(other, 4, t(70), t(95), SimDuration::ZERO, t(10), true);
        o.close(other, t(95));
        assert_eq!(o.spans().nth(2).unwrap().stalled_behind, None);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut o = Obs::new(2);
        for i in 0..5u64 {
            let s = o.open("AppWrite", None, t(i));
            o.close(s, t(i + 1));
        }
        assert_eq!(o.closed_count(), 2);
        assert_eq!(o.dropped(), 3);
        // Oldest retained first: spans 4 and 5 (ids are 1-based).
        let ids: Vec<u64> = o.spans().map(|s| s.id).collect();
        assert_eq!(ids, vec![4, 5]);
        assert!(o.render_spans(10).contains("dropped"));
        let g = o.render_gantt(t(0), t(10), 20, &[]);
        assert!(g.contains("dropped"), "gantt must surface drops: {g}");
    }

    #[test]
    fn the_window_ring_wraps_with_its_spans() {
        let mut o = Obs::new(3);
        // Spans of 0, 1 and 5 windows, evicted in every mix of sizes.
        let counts = [5, 0, 1, 5, 5, 1, 0, 0, 5, 1, 5, 0, 1, 1, 5, 0, 5, 5];
        let mut issued = Vec::new();
        let mut now = 0;
        for n in counts {
            let id = o.open("AppWrite", None, t(now));
            let mut busy = Vec::new();
            for _ in 0..n {
                let (lane, from, to) = (id as u32, t(now), t(now + 1));
                o.on_issue(id, lane, from, to, SimDuration::ZERO, from, true);
                busy.push((lane, from, to));
                now += 1;
            }
            o.close(id, t(now));
            issued.push(busy);
            let kept = &issued[issued.len().saturating_sub(3)..];
            let rebuilt: Vec<_> = o.spans().map(|s| s.busy).collect();
            assert_eq!(rebuilt, kept);
            assert_eq!(o.windows.len(), kept.iter().map(Vec::len).sum::<usize>());
        }
        assert_eq!(o.dropped(), counts.len() as u64 - 3);
        // One busy list served every span.
        assert_eq!(o.spare_busy.len(), 1);
    }

    #[test]
    fn gantt_places_busy_windows_per_lane() {
        let mut o = Obs::new(8);
        let a = o.open_internal("GcWrite", t(0));
        o.on_issue(a, 1, t(0), t(50), SimDuration::ZERO, t(0), false);
        let b = o.open("AppRead", None, t(0));
        o.on_issue(b, 2, t(50), t(75), SimDuration::ZERO, t(0), true);
        o.close(b, t(75));
        let names = vec!["misc".to_string(), "c0l0".to_string(), "c0l1".to_string()];
        let g = o.render_gantt(t(0), t(100), 20, &names);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("c0l0") && lines[1].contains('G'));
        assert!(lines[2].contains("c0l1") && lines[2].contains('r'));
        let bar = &lines[2][lines[2].find('|').unwrap() + 1..];
        assert!(bar.starts_with('.'), "read must not start at t=0: {bar}");
    }

    #[test]
    fn perfetto_export_shape() {
        let mut o = Obs::new(8);
        let s = o.open("AppRead", Some(0), t(0));
        o.on_issue(s, 1, t(5), t(30), SimDuration::from_micros(10), t(0), true);
        o.close(s, t(30));
        let trivial = o.open("Trim", Some(1), t(40));
        o.close(trivial, t(40));
        let json = o.to_perfetto(
            &["misc".to_string(), "c0l0".to_string()],
            &["default".to_string(), "reader".to_string()],
        );
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"AppRead\""));
        assert!(json.contains("\"retry_ns\":10000"));
        // Flash-less spans land on the misc lane with a non-zero duration.
        assert!(json.contains("\"name\":\"Trim\""));
        // Braces balance (cheap well-formedness check without a parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn stage_breakdown_totals_match() {
        let mut b = StageBreakdown::new();
        let mut st = StageNs::default();
        st.add(Stage::QueueWait, 10_000);
        st.add(Stage::Media, 40_000);
        b.record(st);
        let mut st2 = StageNs::default();
        st2.add(Stage::Media, 90_000);
        b.record(st2);
        assert_eq!(b.count(), 2);
        assert_eq!(b.stage(Stage::Media).count(), 2);
        assert!(b.mean_us(Stage::Media) > 0.0);
        assert_eq!(b.total().mean().as_nanos(), 70_000);
        let mut c = StageBreakdown::new();
        c.merge(&b);
        assert_eq!(c.count(), 2);
        assert_eq!(c.total_tail().count, 2);
        assert_eq!(c.tail(Stage::Media).count, 2);
    }

    #[test]
    fn timeline_exports_csv_and_json() {
        let mut tl = Timeline::new(
            SimDuration::from_micros(100),
            vec!["iops", "gc_ops"],
        );
        assert!(tl.is_empty());
        tl.push_row(t(0), vec![10.0, 2.0]);
        tl.push_row(t(100), vec![8.0, 0.0]);
        assert_eq!(tl.len(), 2);
        let csv = tl.to_csv();
        assert!(csv.starts_with("t_us,iops,gc_ops\n"));
        assert!(csv.contains("\n100,8,0\n"));
        let json = tl.to_json();
        assert!(json.contains("\"interval_us\": 100"));
        assert!(json.contains("\"columns\": [\"iops\", \"gc_ops\"]"));
        assert!(json.contains("[100, 8, 0]"));
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn timeline_rejects_wrong_arity() {
        let mut tl = Timeline::new(SimDuration::from_micros(1), vec!["a"]);
        tl.push_row(SimTime::ZERO, vec![1.0, 2.0]);
    }

    /// What the property test below remembers of the spans it opened — a
    /// plain log of its own calls, not a second table of cursors.
    #[derive(Default)]
    struct Script {
        now: SimTime,
        /// Per id − 1: open instant and `on_issue` calls made while open.
        opened: Vec<(SimTime, usize)>,
        /// Ids opened and not yet closed, in open order.
        live: Vec<u64>,
        /// Ids in close order, each with its close instant.
        closes: Vec<(u64, SimTime)>,
        /// `(request, total ns)` of host closes since the last rotation.
        acked: Vec<(u64, u64)>,
    }

    impl Script {
        /// A live id: mostly one of the newest four, so the old ones stay
        /// open while thousands open and close after them.
        fn pick(&self, rng: &mut crate::SimRng) -> Option<u64> {
            let n = self.live.len() as u64;
            let among = if rng.gen_bool(0.9) { n.min(4) } else { n };
            let back = rng.gen_range(among.max(1));
            self.live.get(n.checked_sub(1 + back)? as usize).copied()
        }

        /// An id no call may act on: closed, never issued, or a sentinel.
        fn stale(&self, rng: &mut crate::SimRng) -> u64 {
            match rng.gen_range(4) {
                0 => NO_SPAN,
                1 => u64::MAX,
                2 => self.opened.len() as u64 + 1 + rng.gen_range(1 << 40),
                _ => match self.closes.len() as u64 {
                    0 => NO_SPAN,
                    n => self.closes[rng.gen_range(n) as usize].0,
                },
            }
        }

        fn closed(&mut self, id: u64) {
            self.live.retain(|&l| l != id);
            self.closes.push((id, self.now));
        }
    }

    /// Every call that takes a span id, aimed at `id`; busy windows are
    /// labelled with the id they were issued for (the lane).
    fn call(o: &mut Obs, which: u64, id: u64, req: u64, now: SimTime, done_at: SimTime) {
        match which {
            0 => o.acc(id, Stage::SchedPending, now),
            1 => o.acc_queue(id, now, SimDuration::from_nanos(req % 700)),
            2 => o.on_issue(id, id as u32, now, done_at, SimDuration::from_nanos(req % 300), now, true),
            3 => o.on_issue(id, id as u32, now, done_at, SimDuration::ZERO, now, false),
            4 => {
                o.close(id, now);
            }
            _ => o.close_host(id, req, now),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24, ..Default::default() })]

        #[test]
        fn the_span_table_does_what_it_must(
            seed in proptest::prelude::any::<u64>(),
            capacity in proptest::prop_oneof![
                proptest::prelude::Just(1usize),
                proptest::prelude::Just(2usize),
                proptest::prelude::Just(64usize)
            ],
            steps in 500usize..5000,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut rng = crate::SimRng::new(seed);
            let mut o = Obs::new(capacity);
            let mut sc = Script::default();
            let mut peak_open = 0;
            for _ in 0..steps {
                sc.now += SimDuration::from_nanos(rng.gen_range(2_000));
                let done_at = sc.now + SimDuration::from_nanos(1 + rng.gen_range(5_000));
                let req = [rng.gen_range(6), u64::MAX][rng.gen_bool(0.1) as usize];
                let footprint = |o: &Obs| {
                    let closes = o.closed_count() as u64 + o.dropped();
                    let table = (o.open.window_len(), o.open.slots());
                    (o.open_count(), closes, table, o.windows.len(), o.spare_busy.len(), o.uncollected())
                };
                let before = footprint(&o);
                match rng.gen_range(10) {
                    // Ids are 1, 2, 3 … in open order.
                    0..=2 => {
                        let id = if rng.gen_bool(0.5) {
                            o.open("AppRead", Some(1), sc.now)
                        } else {
                            o.open_internal("GcRead", sc.now)
                        };
                        sc.opened.push((sc.now, 0));
                        sc.live.push(id);
                        prop_assert_eq!(id, sc.opened.len() as u64);
                    }
                    // A call on an id that is not open changes nothing,
                    // and reserves nothing for it.
                    3 => {
                        call(&mut o, rng.gen_range(6), sc.stale(&mut rng), req, sc.now, done_at);
                        prop_assert_eq!(before, footprint(&o));
                    }
                    // The host collects what the last rotation handed over.
                    4 => {
                        o.rotate_finished();
                        prop_assert_eq!(o.uncollected(), sc.acked.len());
                        for (req, total) in sc.acked.drain(..) {
                            prop_assert_eq!(o.take_finished(req).map(|st| st.total()), Some(total));
                        }
                        prop_assert_eq!(o.uncollected(), 0);
                        prop_assert!(o.take_finished(req).is_none());
                    }
                    _ => {
                        let Some(id) = sc.pick(&mut rng) else { continue };
                        let which = rng.gen_range(6);
                        call(&mut o, which, id, req, sc.now, done_at);
                        if which == 2 || which == 3 {
                            // The cursor moved to `done_at`; so does the clock.
                            sc.opened[id as usize - 1].1 += 1;
                            sc.now = done_at;
                        }
                        if which >= 3 {
                            sc.closed(id);
                            let s = o.spans().last().expect("just closed");
                            prop_assert_eq!(s.id, id);
                            if which == 5 {
                                sc.acked.push((req, s.stages.total()));
                            }
                        }
                    }
                }
                prop_assert_eq!(o.open_count(), sc.live.len());
                prop_assert_eq!(o.open.len(), sc.live.len());
                if sc.live.is_empty() {
                    prop_assert_eq!(o.open.window_len(), 0, "the id window outlived its spans");
                } else {
                    prop_assert_eq!(o.next_id - o.open.window_len() as u64, sc.live[0]);
                }
                // A busy list is made only when no spare one waits, and
                // goes back when its span closes.
                peak_open = peak_open.max(sc.live.len());
                prop_assert!(o.spare_busy.len() <= peak_open, "more spare busy lists than spans ever open");
                prop_assert_eq!(o.closed_count() as u64 + o.dropped(), sc.closes.len() as u64);
                // The ring is the last `capacity` closes, in close order,
                // and each retained span is whole and its own.
                let kept = &sc.closes[sc.closes.len().saturating_sub(capacity)..];
                prop_assert_eq!(o.closed_count(), kept.len());
                for (s, &(id, end)) in o.spans().zip(kept) {
                    let (start, issues) = sc.opened[id as usize - 1];
                    prop_assert_eq!((s.id, s.start, s.end), (id, start, end));
                    prop_assert_eq!(s.stages.total(), end.since(start).as_nanos());
                    prop_assert_eq!(s.busy.len(), issues, "span #{} carries another span's windows", id);
                    for &(lane, from, to) in &s.busy {
                        prop_assert_eq!(lane, id as u32, "window of another span in #{}", id);
                        prop_assert!(start <= from && from < to && to <= end);
                    }
                }
                // The window ring holds the retained spans' windows and
                // nothing else.
                let counted: usize = o.closed.iter().map(|c| c.windows as usize).sum();
                prop_assert_eq!(o.windows.len(), counted, "windows of evicted spans retained");
            }
            // Close whatever is still open: the id table drains with it.
            for id in sc.live.clone() {
                o.close(id, sc.now);
            }
            prop_assert_eq!(o.open_count(), 0);
            prop_assert!(o.open.window_len() == 0 && o.open.is_empty());
            prop_assert!(o.spare_busy.len() <= peak_open);
            prop_assert!(o.spare_busy.iter().all(Vec::is_empty));
        }
    }
}
