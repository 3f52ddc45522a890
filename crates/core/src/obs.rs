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
//!   [`IdTable`], found from a span id by subtraction; a byte log of
//!   closed spans, retained by policy once full (below); one [`StageBreakdown`]
//!   per (tenant, kind) of host span, fed where the span closes
//!   ([`Obs::stage_breakdown`]); and per-lane "last internal op" memory
//!   for interference attribution. Nothing is keyed by a host request
//!   id: whoever holds the request holds its span id. The
//!   contract: *ids are dense, monotone and never reused; handles to
//!   closed spans are inert* — every call on a closed, never-issued or
//!   [`NO_SPAN`] id is a silent no-op. A span costs a handful of array
//!   accesses and allocates only while the busy-list pool grows: the log
//!   is reserved when the collector is made ([`Obs::new`]). Pure
//!   observation: it never schedules events, never consults the RNG, and
//!   never influences control flow, so enabling it cannot perturb a
//!   simulation (fingerprints stay byte-identical).
//!
//!   The log holds no [`Span`]s. An admitted span is appended, in close
//!   order, as one record of LEB128 varints that drops what the span's
//!   stage sums already give: a presence byte (which stage sums are not
//!   zero, whether it has a tenant, whether it stalled, whether its one
//!   busy window is implied); its id and end as zigzag deltas from the
//!   previous record's; its non-zero stage sums (its start is its end less
//!   their total, the identity every close asserts); its tenant; its
//!   names — op kind, cause policy, stalled-behind kind — as `u8` codes
//!   into a per-collector name table, with the cause op's and the
//!   stalled-behind op's ids as zigzag deltas from its own; then its busy
//!   windows. A span that issued one command has one window, ending at the
//!   span's end and exactly Media + Retry wide: the record keeps only its
//!   lane. Any other window list is written whole, each window as lane,
//!   offset from the span's start and width. A record averages about 13 B
//!   (`tenants_qos_obs`); [`Obs::new`] reserves 14 B per span once, and the
//!   log grows only if its records average more. Evicting the front record
//!   decodes it, to learn its length and the `(id, end)` the next record's
//!   deltas are from; [`Obs::spans`] decodes front to back, every field
//!   exactly, and a code decodes to a name equal to the one it was given (a
//!   name is found by pointer, else by content). An open span's busy list
//!   goes back to the spare pool the moment it closes, still in cache for the
//!   next open.
//!
//!   Retention is by policy, not recency. Every close records the span's
//!   end-to-end latency in a per-kind [`Histogram`]. Until the log holds
//!   `span_capacity` spans it keeps every closed span. After that it
//!   *admits* a span only if the span is at or above its kind's running
//!   p999 (re-read every 1024 closes of the kind; 0 — admit all — before
//!   the first re-read) or its id is a multiple of 64. An admitted span
//!   evicts the oldest record. Any other span is *folded*: its latency
//!   stays in the kind's histogram ([`Obs::latency`]) and nothing else of
//!   it is kept. Retention never changes what a span records, so a
//!   retained span is the same whatever the capacity; and a short run
//!   keeps the most recent spans, as a plain ring would.
//! * [`StageBreakdown`] — per-stage time sums and a count, whose stage
//!   sums equal end-to-end latency *by construction*: every attribution
//!   call advances a single cursor (`last`), forward only, so no
//!   nanosecond is counted twice or dropped. Every close asserts it.
//! * [`Timeline`] — fixed-interval rows of named telemetry columns
//!   (IOPS, write amplification, queue depths, GC/merge/scrub activity,
//!   error rates), kept as one varint log and exportable as CSV or JSON.
//! * [`Obs::to_perfetto`] — a Chrome-trace / Perfetto JSON exporter with
//!   one track per LUN (plus a misc track) and one per tenant.
//!
//! Everything is gated behind [`ObsConfig`]; the default configuration
//! disables all of it and costs one `Option` test per hook site.

use std::collections::{TryReserveError, VecDeque};

use crate::idtable::IdTable;
use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};

/// Sentinel span id: "no span" (ids start at 1).
pub const NO_SPAN: u64 = 0;

/// Observability configuration. The default disables everything; a
/// disabled collector is never even allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Retain up to this many closed spans. Once that many are retained, a
    /// closed span is kept (evicting the oldest) only if it is in its
    /// kind's running tail or the 1-in-64 id sample; the rest are folded
    /// into per-kind latency histograms. Both kinds of loss are counted
    /// as dropped. `0` disables span collection entirely.
    ///
    /// Retained spans are varint records in one byte log, about 13 B a
    /// span; mount reserves 14 B a span once (failing with an `Err` naming
    /// this field if it cannot), and the log grows only if records average
    /// more.
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
    /// (lane 0 = misc; `1 + lun_index` otherwise), as issued. Empty for
    /// ops that completed without touching flash. They are disjoint and
    /// lie within `[start, end]`.
    pub busy: Vec<(u32, SimTime, SimTime)>,
}

/// [`Closed::cause`] of a span with [`Cause::None`].
const CAUSE_NONE: u8 = u8::MAX;
/// [`Closed::cause`] of a span with [`Cause::Op`]; the id is in
/// [`Closed::cause_op`]. Any other value is a policy name's code.
const CAUSE_OP: u8 = u8::MAX - 1;

/// A closed span without pointers — names as [`Names`] codes — and without
/// its busy windows: what an open span fills in and [`SpanLog`] encodes.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    kind: u8,
    /// [`CAUSE_NONE`], [`CAUSE_OP`] or the cause policy's name code.
    cause: u8,
    /// The kind code of `stalled_id`'s op.
    stalled_kind: u8,
}

/// Log bytes reserved per retained span: records average about 13.
const RECORD_BYTES: usize = 14;
/// Bits of a record's presence byte past its five stage bits (bit `i`:
/// stage `i`'s sum is not zero).
const HAS_TENANT: u8 = 1 << 5;
const HAS_STALL: u8 = 1 << 6;
/// The span's one busy window is implied: it ends at the span's end and
/// is [`implied_width`] wide, so the record keeps only its lane.
const IMPLIED_WINDOW: u8 = 1 << 7;

/// The width of an implied window: a span's flash time, Media + Retry,
/// which is exactly its window's width when it issued one command.
fn implied_width(stages: &StageNs) -> u64 {
    stages.get(Stage::Media).wrapping_add(stages.get(Stage::Retry))
}

/// The retained spans, in close order: one record of LEB128 varints per
/// span, in one byte log.
///
/// A record is: a presence byte (a bit per non-zero stage sum, then
/// [`HAS_TENANT`], [`HAS_STALL`] and [`IMPLIED_WINDOW`]); id and end, each
/// as a zigzag delta from the previous record's; the non-zero stage sums
/// (start is end less their total, the identity every close asserts); the
/// tenant, if any; the kind code; the cause code, then, for [`CAUSE_OP`],
/// the cause op's id as a zigzag delta from the span's own; if stalled,
/// the stalled-behind kind code and that op's id likewise; then the
/// implied window's lane, or else the window count, and per window its
/// lane, `from − start` and `to − from`. Differences wrap, so every field
/// decodes exactly whatever its value.
struct SpanLog {
    bytes: VecDeque<u8>,
    /// Records in `bytes`.
    len: usize,
    /// The `(id, end)` the front record's deltas are from: the last
    /// evicted record's, `(0, 0)` before the first eviction.
    front: (u64, u64),
    /// The back record's `(id, end)`, which the next record's deltas are
    /// from.
    back: (u64, u64),
}

impl SpanLog {
    /// An empty log with room for `records` records of [`RECORD_BYTES`].
    /// A product past `usize` saturates to a reservation no allocator
    /// grants, so it is an error too.
    fn new(records: usize) -> Result<Self, TryReserveError> {
        let mut bytes = VecDeque::new();
        bytes.try_reserve_exact(records.saturating_mul(RECORD_BYTES))?;
        Ok(SpanLog {
            bytes,
            len: 0,
            front: (0, 0),
            back: (0, 0),
        })
    }

    /// Append `rec`, whose busy windows are `busy`.
    fn push(&mut self, rec: &Closed, busy: &[(u32, SimTime, SimTime)]) {
        let (id, end) = (rec.id, rec.end.as_nanos());
        let start = rec.start.as_nanos();
        let implied = match *busy {
            [(_, from, to)] => {
                to.as_nanos() == end
                    && to.as_nanos().wrapping_sub(from.as_nanos()) == implied_width(&rec.stages)
            }
            _ => false,
        };
        let stalled = rec.stalled_id != NO_SPAN;
        let mut present = 0;
        for (i, &ns) in rec.stages.0.iter().enumerate() {
            present |= u8::from(ns != 0) << i;
        }
        if rec.tenant.is_some() {
            present |= HAS_TENANT;
        }
        if stalled {
            present |= HAS_STALL;
        }
        if implied {
            present |= IMPLIED_WINDOW;
        }
        let b = &mut self.bytes;
        b.push_back(present);
        put(b, zigzag(id.wrapping_sub(self.back.0)));
        put(b, zigzag(end.wrapping_sub(self.back.1)));
        for ns in rec.stages.0.into_iter().filter(|&ns| ns != 0) {
            put(b, ns);
        }
        if let Some(t) = rec.tenant {
            put(b, u64::from(t));
        }
        b.push_back(rec.kind);
        b.push_back(rec.cause);
        if rec.cause == CAUSE_OP {
            put(b, zigzag(rec.cause_op.wrapping_sub(id)));
        }
        if stalled {
            b.push_back(rec.stalled_kind);
            put(b, zigzag(rec.stalled_id.wrapping_sub(id)));
        }
        if implied {
            put(b, u64::from(busy[0].0));
        } else {
            put(b, busy.len() as u64);
            for &(lane, from, to) in busy {
                put(b, u64::from(lane));
                put(b, from.as_nanos().wrapping_sub(start));
                put(b, to.as_nanos().wrapping_sub(from.as_nanos()));
            }
        }
        self.back = (id, end);
        self.len += 1;
    }

    /// Drop the front record.
    fn pop_front(&mut self) {
        let mut r = self.reader();
        r.record(|_| ());
        let used = self.bytes.len() - r.bytes.0.len();
        self.front = r.prev;
        self.bytes.drain(..used);
        self.len -= 1;
    }

    /// A reader at the front record.
    fn reader(&self) -> Reader<'_> {
        Reader {
            bytes: Varints(self.bytes.iter()),
            prev: self.front,
        }
    }
}

/// Decodes a [`SpanLog`]'s records front to back.
struct Reader<'a> {
    bytes: Varints<std::collections::vec_deque::Iter<'a, u8>>,
    /// The `(id, end)` the next record's deltas are from.
    prev: (u64, u64),
}

impl Reader<'_> {
    /// The next record; each of its busy windows goes to `window`.
    fn record(&mut self, mut window: impl FnMut((u32, SimTime, SimTime))) -> Closed {
        let b = &mut self.bytes;
        let present = b.byte();
        let id = self.prev.0.wrapping_add(unzigzag(b.varint()));
        let end = self.prev.1.wrapping_add(unzigzag(b.varint()));
        self.prev = (id, end);
        let mut stages = StageNs::default();
        for (i, ns) in stages.0.iter_mut().enumerate() {
            if present & (1 << i) != 0 {
                *ns = b.varint();
            }
        }
        let start = end.wrapping_sub(stages.0.iter().fold(0, |a, &ns| a.wrapping_add(ns)));
        let tenant = (present & HAS_TENANT != 0)
            .then(|| u32::try_from(b.varint()).expect("a tenant fits a u32"));
        let kind = b.byte();
        let cause = b.byte();
        let cause_op = if cause == CAUSE_OP {
            id.wrapping_add(unzigzag(b.varint()))
        } else {
            0
        };
        let (stalled_id, stalled_kind) = if present & HAS_STALL != 0 {
            let k = b.byte();
            (id.wrapping_add(unzigzag(b.varint())), k)
        } else {
            (NO_SPAN, 0)
        };
        let lane = |b: &mut Varints<_>| u32::try_from(b.varint()).expect("a lane fits a u32");
        if present & IMPLIED_WINDOW != 0 {
            let from = end.wrapping_sub(implied_width(&stages));
            window((lane(b), SimTime::from_nanos(from), SimTime::from_nanos(end)));
        } else {
            for _ in 0..b.varint() {
                let lane = lane(b);
                let from = start.wrapping_add(b.varint());
                let to = from.wrapping_add(b.varint());
                window((lane, SimTime::from_nanos(from), SimTime::from_nanos(to)));
            }
        }
        Closed {
            id,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            stages,
            tenant,
            cause_op,
            stalled_id,
            kind,
            cause,
            stalled_kind,
        }
    }
}

/// A byte log [`put`] appends to: the span log's ring and the timeline's
/// chunks.
trait ByteLog {
    fn push(&mut self, b: u8);
}

impl ByteLog for VecDeque<u8> {
    fn push(&mut self, b: u8) {
        self.push_back(b);
    }
}

/// Append `v` as an LEB128 varint: 7 bits a byte, low first, the high
/// bit set on every byte but the last.
fn put(bytes: &mut impl ByteLog, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

/// Reads back what [`put`] wrote, from either log's bytes.
struct Varints<I>(I);

impl<'a, I: Iterator<Item = &'a u8>> Varints<I> {
    fn byte(&mut self) -> u8 {
        *self.0.next().expect("a record is whole")
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }
}

/// A wrapped difference as a zigzag code: small magnitudes of either sign
/// become small codes (0, −1, 1, −2 … → 0, 1, 2, 3 …).
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ (d >> 63).wrapping_neg()
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

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

/// A full log admits a span at or above this quantile of its kind.
const ADMIT_QUANTILE: f64 = 0.999;
/// Closes of one kind between two re-reads of its admission threshold.
const REREAD_EVERY: u64 = 1024;
/// A full log admits every span whose id is a multiple of this.
const SAMPLE_EVERY: u64 = 64;

/// Every close of one op kind: the histogram its spans' end-to-end
/// latencies fold into, the threshold a full log admits them at, and the
/// breakdowns of its host spans.
#[derive(Default)]
struct KindLatency {
    hist: Histogram,
    /// The histogram's [`ADMIT_QUANTILE`] as of its last re-read, in ns;
    /// 0 (admit all) before [`REREAD_EVERY`] closes.
    admit_ns: u64,
    /// Per tenant slot (0 for `None`, `t + 1` for `Some(t)`): the
    /// breakdown of every host span of the kind and tenant closed.
    host: Vec<Option<StageBreakdown>>,
}

/// An open span: the record it will close as (`end` and `windows` still
/// unset), its busy windows so far, and its cursor.
struct OpenSpan {
    rec: Closed,
    busy: Vec<(u32, SimTime, SimTime)>,
    /// The last attributed boundary; the next attribution call charges
    /// `now - last` to its stage and advances the cursor. It only moves
    /// forward, so no nanosecond is charged twice.
    last: SimTime,
}

impl OpenSpan {
    /// Charge the time since the cursor to `stage`, up to `now`.
    fn charge(&mut self, stage: Stage, now: SimTime) {
        debug_assert!(now >= self.last, "span #{}: charged behind its cursor", self.rec.id);
        self.rec
            .stages
            .add(stage, now.saturating_since(self.last).as_nanos());
        self.last = now;
    }

    /// End the span at `end`, charging what is left to
    /// [`Stage::SchedPending`].
    fn close_at(&mut self, end: SimTime) {
        self.charge(Stage::SchedPending, end);
        self.rec.end = end;
    }
}

/// The span collector. Owned by the controller (one per device); the OS
/// layer reaches it through the controller to open host-request spans.
pub struct Obs {
    capacity: usize,
    next_id: u64,
    /// The open spans' cursors, by id; a closed span's slot goes to a
    /// later open.
    open: IdTable<OpenSpan>,
    /// Up to `capacity` retained spans, in close order.
    log: SpanLog,
    /// Per kind code: the latency of every span of that kind closed.
    latency: Vec<KindLatency>,
    /// Closed spans a full log did not admit.
    folded: u64,
    /// Retained spans pushed out by a later admitted one.
    evicted: u64,
    /// Busy lists of closed spans, emptied: the next opens take them, so
    /// spans allocate nothing once as many lists exist as spans were ever
    /// open at once.
    spare_busy: Vec<Vec<(u32, SimTime, SimTime)>>,
    /// What the `u8` name codes of `log` and `open` stand for.
    names: Names,
    /// Per lane: the last internal op issued there `(span id, kind code,
    /// busy-until)` — the interference source a host op can stall behind.
    lane_internal: Vec<Option<(u64, u8, SimTime)>>,
}

impl Obs {
    /// A collector retaining up to `capacity` (at least one) closed spans.
    /// The log of closed spans is reserved here, once, at
    /// [`RECORD_BYTES`] a span, and grows after only if its records
    /// average more; the pages a run never fills are never touched. A
    /// capacity the allocator cannot reserve is an error, not an abort.
    pub fn new(capacity: usize) -> Result<Self, TryReserveError> {
        assert!(capacity > 0, "a span collector retains at least one span");
        Ok(Obs {
            capacity,
            next_id: 1,
            open: IdTable::default(),
            log: SpanLog::new(capacity)?,
            latency: Vec::new(),
            folded: 0,
            evicted: 0,
            spare_busy: Vec::new(),
            names: Names::default(),
            lane_internal: Vec::new(),
        })
    }

    /// Open a host-request span (cause always [`Cause::None`]: host IOs
    /// are roots of the causality graph).
    pub fn open(&mut self, kind: &'static str, tenant: Option<u32>, now: SimTime) -> u64 {
        self.open_with(kind, tenant, now, Cause::None)
    }

    /// Open an internal-op span, linked to what triggered it.
    pub fn open_internal(&mut self, kind: &'static str, now: SimTime, cause: Cause) -> u64 {
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
    /// `[now, done_at)` is charged whole — `retry` of it, the read-retry
    /// rounds, to [`Stage::Retry`], the rest to [`Stage::Media`] — and the
    /// cursor advances to `done_at`. Internal spans (not bound to a host
    /// request) close here — their lifecycle ends when the command's
    /// effect lands — and mark the lane busy for interference
    /// attribution; host-bound spans instead pick up a "stalled behind"
    /// annotation if an internal op occupied the lane after they were
    /// enqueued (`waited_since`).
    #[expect(
        clippy::too_many_arguments,
        reason = "one caller (the controller's flash issue); a parameter struct would only rename its seven values"
    )]
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
        s.charge(Stage::Retry, now + retry);
        s.charge(Stage::Media, done_at);
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
    /// [`Stage::SchedPending`], and offer it to the log. Returns
    /// the final breakdown (zeroes if the span was unknown).
    pub fn close(&mut self, span: u64, end: SimTime) -> StageNs {
        self.close_open(span, end)
            .map(|rec| rec.stages)
            .unwrap_or_default()
    }

    /// [`Obs::close`], returning the closed record; `None` when `span` is
    /// not open.
    fn close_open(&mut self, span: u64, end: SimTime) -> Option<Closed> {
        let mut s = self.open.remove(span)?;
        s.close_at(end);
        debug_assert!(
            end >= s.rec.start && s.rec.stages.total() == (end - s.rec.start).as_nanos(),
            "span #{span}: stage sums differ from its latency"
        );
        if self.admit(&s.rec) {
            if self.log.len == self.capacity {
                self.log.pop_front();
                self.evicted += 1;
            }
            self.log.push(&s.rec, &s.busy);
        } else {
            self.folded += 1;
        }
        s.busy.clear();
        self.spare_busy.push(s.busy);
        Some(s.rec)
    }

    /// Record the latency of closed span `rec` under its kind, and say
    /// whether the log takes it: always while it has room, then
    /// only at or above the kind's threshold or on the id sample.
    fn admit(&mut self, rec: &Closed) -> bool {
        let ns = rec.end.saturating_since(rec.start);
        let k = rec.kind as usize;
        if self.latency.len() <= k {
            self.latency.resize_with(k + 1, KindLatency::default);
        }
        let kind = &mut self.latency[k];
        kind.hist.record(ns);
        if kind.hist.count().is_multiple_of(REREAD_EVERY) {
            kind.admit_ns = kind.hist.quantile(ADMIT_QUANTILE).as_nanos();
        }
        self.log.len < self.capacity
            || ns.as_nanos() >= kind.admit_ns
            || rec.id.is_multiple_of(SAMPLE_EVERY)
    }

    /// Close host-request span `span` at `end`, the instant the request
    /// is acknowledged, and record its breakdown under the span's own
    /// tenant and kind ([`Obs::stage_breakdown`]). False when `span` is
    /// not open.
    pub fn close_host(&mut self, span: u64, end: SimTime) -> bool {
        let Some(rec) = self.close_open(span, end) else {
            return false;
        };
        // `close_open` made the kind's entry.
        let tenants = &mut self.latency[rec.kind as usize].host;
        let t = rec.tenant.map_or(0, |t| t as usize + 1);
        if tenants.len() <= t {
            tenants.resize_with(t + 1, || None);
        }
        tenants[t]
            .get_or_insert_with(StageBreakdown::new)
            .record(rec.stages);
        true
    }

    // named by `benchmark/src/trace.rs`; delete with ROADMAP 1(b)
    #[doc(hidden)]
    pub fn take_finished(&mut self, _req: u64) -> Option<StageNs> {
        None
    }

    /// The breakdown of every host span of `kind` ("AppRead", "AppWrite",
    /// "Trim") and `tenant` closed so far, retained or not; `None` if no
    /// such span has closed.
    pub fn stage_breakdown(&self, tenant: Option<u32>, kind: &str) -> Option<&StageBreakdown> {
        let t = tenant.map_or(0, |t| t as usize + 1);
        self.closes_of(kind)?.host.get(t)?.as_ref()
    }

    /// Retained spans in close order, each decoded from its record.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        let mut log = self.log.reader();
        (0..self.log.len).map(move |_| {
            let mut busy = Vec::new();
            let c = log.record(|w| busy.push(w));
            Span {
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
                busy,
            }
        })
    }

    /// Closed spans currently retained.
    pub fn closed_count(&self) -> usize {
        self.log.len
    }

    /// Closed spans not retained: folded by a full log, or evicted.
    pub fn dropped(&self) -> u64 {
        self.folded + self.evicted
    }

    /// Retained spans a later admitted span pushed out of the full log.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The end-to-end latency of every closed span of `kind`, retained or
    /// not; `None` if no span of that kind has closed.
    pub fn latency(&self, kind: &str) -> Option<&Histogram> {
        Some(&self.closes_of(kind)?.hist).filter(|h| h.count() > 0)
    }

    /// What the closes of `kind` left, if the kind has a name code.
    fn closes_of(&self, kind: &str) -> Option<&KindLatency> {
        let k = self.names.0.iter().position(|n| *n == kind)?;
        self.latency.get(k)
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
        if self.dropped() > 0 {
            out.push_str(&format!("… {}\n", self.dropped_note()));
        }
        out
    }

    /// What both renders print under the spans once any were dropped.
    fn dropped_note(&self) -> String {
        format!(
            "{} spans dropped ({} folded into per-kind latency histograms, {} evicted)",
            self.dropped(),
            self.folded,
            self.evicted
        )
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
                let i = match rows.binary_search_by_key(&lane, |(l, _)| *l) {
                    Ok(i) => i,
                    Err(i) => {
                        rows.insert(i, (lane, vec![b'.'; width]));
                        i
                    }
                };
                let row = &mut rows[i].1;
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
        if self.dropped() > 0 {
            out.push_str(&format!("({})\n", self.dropped_note()));
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

/// Per-stage time sums over a population of IOs, and its size. The
/// end-to-end latency of the same IOs is recorded once, by whoever
/// acknowledges them (the OS's per-thread and per-tenant histograms).
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    /// Nanoseconds spent in each stage, summed over the IOs recorded.
    stage_ns: [u128; Stage::COUNT],
    count: u64,
}

impl StageBreakdown {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one IO's breakdown.
    pub fn record(&mut self, st: StageNs) {
        for (sum, &ns) in self.stage_ns.iter_mut().zip(st.0.iter()) {
            *sum += u128::from(ns);
        }
        self.count += 1;
    }

    /// IOs recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean microseconds spent in `stage` per IO, from the mean's whole
    /// nanoseconds (as a histogram's mean is).
    pub fn mean_us(&self, stage: Stage) -> f64 {
        let mean = self.stage_ns[stage as usize].checked_div(self.count.into()).unwrap_or(0);
        SimDuration::from_nanos(mean as u64).as_micros_f64()
    }
}

/// Bytes a [`Timeline`] grows by at a time.
const CHUNK: usize = 16 << 10;

/// A byte log grown in fixed chunks of [`CHUNK`] bytes: a full log takes
/// a new chunk and never copies the old ones.
#[derive(Debug, Clone, Default)]
struct Chunks(Vec<Vec<u8>>);

impl ByteLog for Chunks {
    fn push(&mut self, b: u8) {
        match self.0.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(b),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(b);
                self.0.push(c);
            }
        }
    }
}

/// `v` as the integer `n` it is exactly, if `n < 2^63`: `n` converts back
/// to the same bits, which −0.0, NaN, negatives and fractions do not.
#[expect(
    clippy::cast_sign_loss,
    reason = "the round trip rejects every value the cast changes"
)]
fn exact_integer(v: f64) -> Option<u64> {
    let n = v as u64;
    (n < 1 << 63 && (n as f64).to_bits() == v.to_bits()).then_some(n)
}

/// Fixed-interval telemetry rows: each row is one interval's values for a
/// fixed set of named columns. The sampler computes the values (counter
/// deltas, instantaneous depths); this container only stores and exports.
///
/// The rows are one varint log (the span log's LEB128 [`put`]), grown in
/// [`CHUNK`]s. A row is its start, as a zigzag delta from the previous
/// row's start plus one interval (0 at every whole interval), then each
/// value: `2n` for a value that is exactly the integer `n` below 2^63,
/// else `1` and its 8 bytes. Counts and depths, most of a row, take a byte
/// or two; every value decodes to the same bits.
#[derive(Debug, Clone)]
pub struct Timeline {
    interval: SimDuration,
    columns: Vec<&'static str>,
    log: Chunks,
    /// Rows in `log`.
    len: usize,
    /// The previous row's start plus one interval (0 before the first
    /// row), which the next row's start is a delta from.
    next: u64,
}

impl Timeline {
    /// A timeline with the given sampling interval and column names.
    pub fn new(interval: SimDuration, columns: Vec<&'static str>) -> Self {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        assert!(!columns.is_empty(), "timeline needs at least one column");
        Timeline {
            interval,
            columns,
            log: Chunks::default(),
            len: 0,
            next: 0,
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
    pub fn push_row(&mut self, at: SimTime, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        let at = at.as_nanos();
        put(&mut self.log, zigzag(at.wrapping_sub(self.next)));
        for &v in values {
            match exact_integer(v) {
                Some(n) => put(&mut self.log, n << 1),
                None => {
                    put(&mut self.log, 1);
                    for b in v.to_le_bytes() {
                        self.log.push(b);
                    }
                }
            }
        }
        self.next = at.wrapping_add(self.interval.as_nanos());
        self.len += 1;
    }

    /// Rows recorded so far, each decoded from the log: its start and one
    /// value per column.
    pub fn rows(&self) -> impl Iterator<Item = (SimTime, Vec<f64>)> + '_ {
        let mut b = Varints(self.log.0.iter().flatten());
        let mut next = 0u64;
        (0..self.len).map(move |_| {
            let at = next.wrapping_add(unzigzag(b.varint()));
            next = at.wrapping_add(self.interval.as_nanos());
            let values = (0..self.columns.len())
                .map(|_| match b.varint() {
                    v if v & 1 == 0 => (v >> 1) as f64,
                    _ => f64::from_le_bytes(std::array::from_fn(|_| b.byte())),
                })
                .collect();
            (SimTime::from_nanos(at), values)
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Export as CSV: `t_us` then one column per name.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (t, vals) in self.rows() {
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
        for (i, (t, vals)) in self.rows().enumerate() {
            out.push_str(&format!("    [{}", t.as_nanos() as f64 / 1_000.0));
            for v in vals {
                out.push_str(&format!(", {v}"));
            }
            out.push(']');
            if i + 1 < self.len {
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
        let mut o = Obs::new(16).unwrap();
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
        assert!(o.close_host(span, t(75)));
        let st = o.spans().next().unwrap().stages;
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
        // The span's breakdown went to its tenant and kind as it closed.
        let bd = o.stage_breakdown(Some(1), "AppRead").unwrap();
        assert_eq!(bd.count(), 1);
        assert_eq!(
            (bd.mean_us(Stage::Media), bd.mean_us(Stage::Retry)),
            (30.0, 20.0)
        );
        assert_eq!(Stage::ALL.map(|st| bd.mean_us(st)).iter().sum::<f64>(), 75.0);
    }

    #[test]
    fn a_window_is_charged_whole_and_ends_by_its_close() {
        let mut o = Obs::new(4).unwrap();
        // A write's program issues at 10 µs, busy until 50, and fails; its
        // retry issues at 60, once the failure has reported, busy until
        // 100, and the write is acknowledged then. Each window is Media
        // whole, the gaps around them SchedPending.
        let w = o.open("AppWrite", Some(0), t(0));
        o.on_issue(w, 4, t(10), t(50), SimDuration::ZERO, t(0), true);
        o.on_issue(w, 2, t(60), t(100), SimDuration::ZERO, t(0), true);
        assert!(o.close_host(w, t(100)));
        let s = o.spans().next().unwrap();
        assert_eq!(s.stages.0, [0, 0, 20_000, 80_000, 0]);
        assert_eq!(s.busy, [(4, t(10), t(50)), (2, t(60), t(100))]);
        // A read's retry rounds are its window's share, the rest Media.
        let rd = o.open("AppRead", Some(0), t(200));
        let retry = SimDuration::from_micros(30);
        o.on_issue(rd, 1, t(200), t(240), retry, t(200), true);
        assert_eq!(o.close(rd, t(240)).0, [0, 0, 0, 10_000, 30_000]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "charged behind its cursor")]
    fn a_close_inside_a_window_is_a_bug() {
        let mut o = Obs::new(4).unwrap();
        let w = o.open("AppWrite", Some(0), t(0));
        o.on_issue(w, 4, t(10), t(50), SimDuration::ZERO, t(0), true);
        o.close_host(w, t(40));
    }

    #[test]
    fn the_ring_is_reserved_once_at_its_bound() {
        for capacity in [1, 3, 100] {
            let mut o = Obs::new(capacity).unwrap();
            let reserved = o.log.bytes.capacity();
            assert!(reserved >= capacity * RECORD_BYTES);
            for i in 0..10 * capacity as u64 {
                let s = o.open("AppWrite", None, t(i));
                o.close(s, t(i + 1));
            }
            assert_eq!(o.closed_count(), capacity);
            assert_eq!(o.log.bytes.capacity(), reserved, "the log regrew");
        }
        // A bound the allocator cannot reserve is an error, not an abort;
        // so is one whose byte count overflows.
        for capacity in [usize::MAX, 1 << 48, usize::MAX / RECORD_BYTES + 1] {
            assert!(Obs::new(capacity).is_err(), "reserved {capacity} spans");
        }
    }

    /// Bytes from the log's front to the end of its last record.
    fn decoded_len(log: &SpanLog) -> usize {
        let mut r = log.reader();
        for _ in 0..log.len {
            r.record(|_| ());
        }
        log.bytes.len() - r.bytes.0.len()
    }

    #[test]
    fn span_records_decode_to_what_was_encoded() {
        const MAX: u64 = u64::MAX;
        let rec = |id: u64, end: u64, stages: [u64; 5]| Closed {
            id,
            start: SimTime::from_nanos(
                end.wrapping_sub(stages.iter().fold(0, |a, &ns| a.wrapping_add(ns))),
            ),
            end: SimTime::from_nanos(end),
            stages: StageNs(stages),
            tenant: None,
            cause_op: 0,
            stalled_id: NO_SPAN,
            kind: 0,
            cause: CAUSE_NONE,
            stalled_kind: 0,
        };
        let w = |lane: u32, from: u64, to: u64| {
            (lane, SimTime::from_nanos(from), SimTime::from_nanos(to))
        };
        let wide: Vec<_> = (0..300)
            .map(|i| w(i, 1_000 + i as u64, 1_000 + 2 * i as u64))
            .collect();
        let records = [
            // Ids and ends near the top of their range, a stage at its
            // maximum, every name code and tenant at its largest.
            (
                Closed {
                    tenant: Some(u32::MAX),
                    kind: CAUSE_OP - 1,
                    cause: CAUSE_OP - 1,
                    stalled_id: MAX,
                    stalled_kind: CAUSE_OP - 1,
                    ..rec(MAX - 1, MAX, [0, 0, 0, MAX, 0])
                },
                vec![w(u32::MAX, 0, MAX), w(0, MAX, MAX)],
            ),
            // An end far before the previous record's (an internal span
            // closes at a future `done_at`), a cause op and a stall on
            // either side of the span's own id.
            (
                Closed {
                    tenant: Some(0),
                    cause: CAUSE_OP,
                    cause_op: MAX,
                    stalled_id: 1,
                    stalled_kind: 7,
                    ..rec(2, 5, [1, 1, 1, 1, 1])
                },
                vec![w(3, 2, 2)],
            ),
            (
                Closed {
                    cause: CAUSE_OP,
                    cause_op: 1,
                    stalled_id: 900,
                    ..rec(9, 1_000, [0, 0, 0, 0, 0])
                },
                // Zero-width, and starting before its span.
                vec![w(1, 1_000, 1_000), w(2, 10, 999), w(1, 0, 0)],
            ),
            // One window ending at the span's end, Media + Retry wide: it
            // is implied, with or without retry rounds, whatever its lane.
            (rec(12, 4_000, [0, 0, 100, 30, 20]), vec![w(u32::MAX, 3_950, 4_000)]),
            (rec(13, 4_100, [0, 0, 0, 7, 0]), vec![w(0, 4_093, 4_100)]),
            // Media + Retry wrapping past `u64::MAX`, as every sum may.
            (rec(14, MAX, [0, 0, 0, MAX, 1]), vec![w(5, MAX, MAX)]),
            // One window that is not implied: ending before the span's
            // end; ending there but Media wide only, or Retry only; or
            // wider than Media + Retry.
            (rec(15, 5_000, [0, 0, 10, 30, 20]), vec![w(2, 4_940, 4_990)]),
            (rec(16, 5_100, [0, 0, 10, 30, 20]), vec![w(2, 5_070, 5_100)]),
            (rec(17, 5_200, [0, 0, 10, 30, 20]), vec![w(2, 5_180, 5_200)]),
            (rec(18, 5_300, [0, 0, 0, 30, 20]), vec![w(2, 5_240, 5_300)]),
            // Two windows, the last implied-shaped: both are written.
            (rec(19, 5_400, [0, 0, 10, 60, 0]), vec![w(1, 5_330, 5_360), w(1, 5_370, 5_400)]),
            // A plain span, and 300 windows on one.
            (rec(10, 2_000, [10, 20, 30, 40, 50]), Vec::new()),
            (
                Closed {
                    tenant: Some(3),
                    ..rec(11, 3_000, [7, 0, 0, 93, 0])
                },
                wide,
            ),
        ];
        let mut log = SpanLog::new(1).unwrap();
        for (n, (r, busy)) in records.iter().enumerate() {
            let before = log.bytes.len();
            log.push(r, busy);
            assert_eq!(decoded_len(&log), log.bytes.len(), "record {n}");
            // The decoder reads exactly the bytes the record took.
            let mut reader = log.reader();
            for _ in 0..n {
                reader.record(|_| ());
            }
            assert_eq!(log.bytes.len() - reader.bytes.0.len(), before);
        }
        for first in 0..records.len() {
            let mut reader = log.reader();
            for (r, busy) in &records[first..] {
                let mut windows = Vec::new();
                assert_eq!(reader.record(|w| windows.push(w)), *r);
                assert_eq!(&windows, busy, "span #{}", r.id);
            }
            assert_eq!(reader.bytes.0.len(), 0, "bytes left after the last record");
            log.pop_front();
            assert_eq!(
                (log.len, decoded_len(&log)),
                (records.len() - first - 1, log.bytes.len())
            );
        }
        assert!(log.bytes.is_empty());
    }

    #[test]
    fn a_record_keeps_only_what_its_stage_sums_do_not_give() {
        // A host read: 10 µs queued (4 of them QoS-held), issued at 25 µs,
        // busy until 75 µs with 20 µs of retry rounds; and a GC read with
        // no retry, which closes as its one window ends.
        let mut o = Obs::new(4).unwrap();
        let rd = o.open("AppRead", Some(1), t(0));
        o.acc_queue(rd, t(10), SimDuration::from_micros(4));
        o.on_issue(rd, 3, t(25), t(75), SimDuration::from_micros(20), t(10), true);
        assert!(o.close_host(rd, t(75)));
        // Presence 1, id 1, end 3 (150,000 zigzagged), the five sums
        // 2 + 2 + 2 + 3 + 3, tenant 1, kind 1, cause 1, and the window's
        // lane alone: 1.
        assert_eq!(o.log.bytes.len(), 21, "the read's window is written whole");
        let gc = o.open_internal("GcRead", t(80), Cause::Policy("gc"));
        o.on_issue(gc, 3, t(80), t(120), SimDuration::ZERO, t(80), false);
        // Presence, id, end 3 (the 45 µs step, zigzagged), Media 3, kind,
        // cause, lane.
        assert_eq!(o.log.bytes.len(), 21 + 11);
        let spans: Vec<Span> = o.spans().collect();
        assert_eq!(spans[0].busy, [(3, t(25), t(75))]);
        assert_eq!(spans[1].busy, [(3, t(80), t(120))]);
    }

    #[test]
    fn host_breakdowns_aggregate_by_tenant_and_kind() {
        let mut o = Obs::new(4).unwrap();
        // Tenant 0 writes 1 and 3 µs, tenant 1 writes 2 µs and reads
        // 4 µs, a controller-only host (no tenant) writes 5 µs.
        for (tenant, kind, us) in [
            (Some(0), "AppWrite", 1),
            (Some(1), "AppWrite", 2),
            (Some(0), "AppWrite", 3),
            (Some(1), "AppRead", 4),
            (None, "AppWrite", 5),
        ] {
            let s = o.open(kind, tenant, t(10));
            assert!(o.close_host(s, t(10 + us)));
        }
        let mean_us = |o: &Obs, tenant, kind| {
            let bd = o.stage_breakdown(tenant, kind).unwrap();
            (bd.count(), bd.mean_us(Stage::SchedPending))
        };
        assert_eq!(mean_us(&o, Some(0), "AppWrite"), (2, 2.0));
        assert_eq!(mean_us(&o, Some(1), "AppWrite"), (1, 2.0));
        assert_eq!(mean_us(&o, Some(1), "AppRead"), (1, 4.0));
        assert_eq!(mean_us(&o, None, "AppWrite"), (1, 5.0));
        for (tenant, kind) in [
            (Some(0), "AppRead"),
            (Some(2), "AppWrite"),
            (Some(0), "Trim"),
        ] {
            assert!(o.stage_breakdown(tenant, kind).is_none());
        }
        // Only a host close records: an internal span, a plain close and
        // a span that is not open add nothing.
        let gc = o.open_internal("GcRead", t(20), Cause::None);
        o.on_issue(gc, 1, t(20), t(30), SimDuration::ZERO, t(20), false);
        let w = o.open("AppWrite", Some(0), t(20));
        o.close(w, t(30));
        assert!(!o.close_host(w, t(31)));
        assert!(!o.close_host(NO_SPAN, t(31)));
        assert!(o.stage_breakdown(None, "GcRead").is_none());
        assert_eq!(mean_us(&o, Some(0), "AppWrite"), (2, 2.0));
        assert_eq!(o.closed_count() as u64 + o.dropped(), 7);
    }

    #[test]
    fn internal_span_closes_at_issue_and_marks_interference() {
        let mut o = Obs::new(16).unwrap();
        let gc = o.open_internal("GcRead", t(0), Cause::Policy("gc"));
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
        let mut o = Obs::new(2).unwrap();
        for i in 0..5u64 {
            let s = o.open("AppWrite", None, t(i));
            o.close(s, t(i + 1));
        }
        assert_eq!(o.closed_count(), 2);
        // A kind with fewer than `REREAD_EVERY` closes admits every span:
        // a short run keeps the most recent ones, in close order — spans
        // 4 and 5 (ids are 1-based).
        assert_eq!((o.dropped(), o.evicted()), (3, 3));
        let ids: Vec<u64> = o.spans().map(|s| s.id).collect();
        assert_eq!(ids, vec![4, 5]);
        assert!(o.render_spans(10).contains("dropped"));
        let g = o.render_gantt(t(0), t(10), 20, &[]);
        assert!(g.contains("dropped"), "gantt must surface drops: {g}");
    }

    #[test]
    fn a_full_ring_admits_the_tail_and_the_sample() {
        // 4096 reads of 1–50 µs, and three of 5 ms long after the log
        // filled: room for 128 of 4096 spans.
        const OUTLIERS: [u64; 3] = [1_500, 2_801, 4_000];
        let latency_us = |id: u64| if OUTLIERS.contains(&id) { 5_000 } else { id % 50 + 1 };
        let mut o = Obs::new(128).unwrap();
        for i in 0..4096 {
            let s = o.open("AppRead", Some(0), t(i));
            o.close(s, t(i + latency_us(s)));
        }
        let hist = o.latency("AppRead").expect("reads closed");
        assert_eq!(hist.count(), 4096, "every close is in its kind's histogram");
        assert!(o.latency("GcRead").is_none());
        assert_eq!(o.closed_count() as u64 + o.dropped(), 4096);
        assert!(o.evicted() > 0 && o.dropped() > o.evicted(), "some spans folded");
        let kept: Vec<Span> = o.spans().collect();
        for id in OUTLIERS {
            assert!(kept.iter().any(|s| s.id == id), "outlier #{id} not retained");
        }
        // Past the threshold's first re-read, a span the log holds is in
        // its kind's p999 or on the 1-in-64 sample; the rest left nothing.
        let p999 = hist.p999().as_nanos();
        for s in kept.iter().filter(|s| s.id > 1024) {
            assert!(s.stages.total() >= p999 || s.id.is_multiple_of(64), "#{} admitted", s.id);
        }
        assert!(kept.iter().any(|s| s.id > 1024 && s.stages.total() < p999));
        let footer = o.render_spans(0);
        assert!(footer.contains(&format!("{} spans dropped", o.dropped())), "{footer}");
        assert!(footer.contains(&format!("{} evicted", o.evicted())), "{footer}");
    }

    #[test]
    fn evicted_windows_leave_the_log_with_their_spans() {
        let mut o = Obs::new(3).unwrap();
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
            assert_eq!(decoded_len(&o.log), o.log.bytes.len());
        }
        assert_eq!(o.dropped(), counts.len() as u64 - 3);
        // One busy list served every span.
        assert_eq!(o.spare_busy.len(), 1);
    }

    #[test]
    fn gantt_places_busy_windows_per_lane() {
        let mut o = Obs::new(8).unwrap();
        let a = o.open_internal("GcWrite", t(0), Cause::None);
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
        let mut o = Obs::new(8).unwrap();
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
        assert_eq!(b.mean_us(Stage::Media), 65.0);
        assert_eq!(b.mean_us(Stage::QueueWait), 5.0);
        assert_eq!(b.mean_us(Stage::Retry), 0.0);
        assert_eq!(StageBreakdown::new().mean_us(Stage::Media), 0.0, "no IO recorded");
        // A mean's fraction of a nanosecond is dropped, as a histogram's is.
        let mut st3 = StageNs::default();
        st3.add(Stage::Media, 1);
        b.record(st3);
        assert_eq!(b.count(), 3);
        assert_eq!(b.mean_us(Stage::Media), 43.333);
    }

    #[test]
    fn timeline_exports_csv_and_json() {
        let mut tl = Timeline::new(
            SimDuration::from_micros(100),
            vec!["iops", "gc_ops"],
        );
        assert!(tl.is_empty());
        tl.push_row(t(0), &[10.0, 2.0]);
        tl.push_row(t(100), &[8.0, 0.0]);
        assert_eq!(tl.len(), 2);
        let csv = tl.to_csv();
        assert!(csv.starts_with("t_us,iops,gc_ops\n"));
        assert!(csv.contains("\n100,8,0\n"));
        let json = tl.to_json();
        assert!(json.contains("\"interval_us\": 100"));
        assert!(json.contains("\"columns\": [\"iops\", \"gc_ops\"]"));
        assert!(
            json.ends_with("    [0, 10, 2],\n    [100, 8, 0]\n  ]\n}\n"),
            "rows are comma-separated, the last one bare: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn timeline_rejects_wrong_arity() {
        let mut tl = Timeline::new(SimDuration::from_micros(1), vec!["a"]);
        tl.push_row(SimTime::ZERO, &[1.0, 2.0]);
    }

    #[test]
    fn timeline_rows_decode_to_the_same_bits() {
        let two = |e: i32| 2f64.powi(e);
        let values = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            0.5,
            1.0 / 3.0,
            two(53) + 1.0,
            two(53) + 2.0,
            two(63) - 1024.0,
            two(63),
            two(64),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            7.0,
            1e15,
        ];
        let interval = SimDuration::from_micros(100);
        // Whole intervals, a row at its predecessor's start, one before
        // it, one far past it, and a final partial row: any start decodes.
        let starts = [0, 100_000, 200_000, 200_000, 150_000, u64::MAX, 7, 300_003];
        let mut tl = Timeline::new(interval, vec!["a", "b", "c", "d"]);
        let rows: Vec<(SimTime, Vec<f64>)> = starts
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                let row = (0..4).map(|c| values[(i * 4 + c) % values.len()]).collect();
                (SimTime::from_nanos(at), row)
            })
            .collect();
        for (at, row) in &rows {
            tl.push_row(*at, row);
        }
        let bits = |rows: &[(SimTime, Vec<f64>)]| -> Vec<(SimTime, Vec<u64>)> {
            rows.iter()
                .map(|(at, v)| (*at, v.iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        let decoded: Vec<_> = tl.rows().collect();
        assert_eq!(bits(&decoded), bits(&rows), "a value decoded to other bits");
        // Whole-interval starts and small integers take a byte each.
        let mut small = Timeline::new(interval, vec!["n"]);
        for i in 0..10 {
            small.push_row(t(100 * i), &[i as f64]);
        }
        assert_eq!(small.log.0.concat().len(), 20);
    }

    #[test]
    fn the_timeline_grows_in_chunks_and_never_copies() {
        let mut tl = Timeline::new(SimDuration::from_micros(1), vec!["x"; 15]);
        let row: Vec<f64> = (0..15).map(|i| f64::from(i) + 0.5).collect();
        for i in 0..2_000 {
            tl.push_row(t(i), &row);
        }
        assert_eq!(tl.len(), 2_000);
        let chunks = &tl.log.0;
        assert!(chunks.len() > 1, "{} chunks", chunks.len());
        assert!(chunks.iter().all(|c| c.capacity() == CHUNK), "a chunk regrew");
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == CHUNK));
        assert!(tl.rows().all(|(_, r)| r == row));
    }

    /// What the property test below remembers of the spans it opened — a
    /// plain log of its own calls, not a second table of cursors.
    #[derive(Default)]
    struct Script {
        now: SimTime,
        /// Per id − 1: open instant, `on_issue` calls made while open, and
        /// kind (an index into [`KINDS`]).
        opened: Vec<(SimTime, usize, usize)>,
        /// Ids opened and not yet closed, in open order.
        live: Vec<u64>,
        /// Ids in close order, each with its close instant.
        closes: Vec<(u64, SimTime)>,
        /// Per kind: how many host closes.
        host: [u64; 2],
        /// What the log must hold by the admission rule: `(id, close
        /// instant)`, in close order.
        kept: VecDeque<(u64, SimTime)>,
        /// Per kind: every close's latency, and the threshold last read
        /// from it.
        latency: [(Histogram, u64); 2],
        /// Spans `kept` pushed out.
        evicted: u64,
    }

    /// The kinds the property test opens, by index, and the tenant each
    /// is opened under.
    const KINDS: [&str; 2] = ["AppRead", "GcRead"];
    const TENANTS: [Option<u32>; 2] = [Some(1), None];

    /// IOs the host breakdown of kind `k` recorded.
    fn host_count(o: &Obs, k: usize) -> u64 {
        o.stage_breakdown(TENANTS[k], KINDS[k]).map_or(0, StageBreakdown::count)
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

        /// `id` closed now; whether a log of `capacity` admits it: while
        /// it has room, else at or above the kind's p999 as of its last
        /// re-read (every 1024 closes of the kind; 0 before the first), or
        /// on the 1-in-64 id sample.
        fn closed(&mut self, id: u64, capacity: usize) -> bool {
            self.live.retain(|&l| l != id);
            self.closes.push((id, self.now));
            let (start, _, kind) = self.opened[id as usize - 1];
            let ns = self.now.saturating_since(start);
            let (hist, admit_ns) = &mut self.latency[kind];
            hist.record(ns);
            if hist.count().is_multiple_of(1024) {
                *admit_ns = hist.quantile(0.999).as_nanos();
            }
            let admit = self.kept.len() < capacity || ns.as_nanos() >= *admit_ns || id.is_multiple_of(64);
            if admit {
                if self.kept.len() == capacity {
                    self.kept.pop_front();
                    self.evicted += 1;
                }
                self.kept.push_back((id, self.now));
            }
            admit
        }
    }

    /// Every call that takes a span id, aimed at `id`; busy windows are
    /// labelled with the id they were issued for (the lane).
    fn call(o: &mut Obs, which: u64, id: u64, req: u64, now: SimTime, done_at: SimTime) {
        match which {
            0 => o.acc(id, Stage::SchedPending, now),
            1 => o.acc_queue(id, now, SimDuration::from_nanos(req % 700)),
            2 => {
                // Read-retry rounds are a share of the window.
                let retry = SimDuration::from_nanos(req % 300).min(done_at.since(now));
                o.on_issue(id, id as u32, now, done_at, retry, now, true);
            }
            3 => o.on_issue(id, id as u32, now, done_at, SimDuration::ZERO, now, false),
            4 => {
                o.close(id, now);
            }
            _ => {
                o.close_host(id, now);
            }
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
            steps in 500usize..12_000,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut rng = crate::SimRng::new(seed);
            let mut o = Obs::new(capacity).unwrap();
            let mut sc = Script::default();
            let mut peak_open = 0;
            for _ in 0..steps {
                sc.now += SimDuration::from_nanos(rng.gen_range(2_000));
                let done_at = sc.now + SimDuration::from_nanos(1 + rng.gen_range(5_000));
                let req = [rng.gen_range(6), u64::MAX][rng.gen_bool(0.1) as usize];
                let footprint = |o: &Obs| {
                    let closes = o.closed_count() as u64 + o.dropped();
                    let table = (o.open.window_len(), o.open.slots());
                    let host = (host_count(o, 0), host_count(o, 1));
                    (o.open_count(), closes, table, o.log.bytes.len(), o.spare_busy.len(), host)
                };
                let before = footprint(&o);
                match rng.gen_range(10) {
                    // Ids are 1, 2, 3 … in open order.
                    0..=2 => {
                        // Enough reads to re-read their threshold; few
                        // enough GC reads that theirs may stay 0.
                        let kind = usize::from(rng.gen_bool(0.2));
                        let id = if kind == 0 {
                            o.open(KINDS[0], Some(1), sc.now)
                        } else {
                            o.open_internal(KINDS[1], sc.now, Cause::None)
                        };
                        sc.opened.push((sc.now, 0, kind));
                        sc.live.push(id);
                        prop_assert_eq!(id, sc.opened.len() as u64);
                    }
                    // A call on an id that is not open changes nothing,
                    // and reserves nothing for it.
                    3 => {
                        call(&mut o, rng.gen_range(6), sc.stale(&mut rng), req, sc.now, done_at);
                        prop_assert_eq!(before, footprint(&o));
                    }
                    // Each kind's host breakdown is every host close of it.
                    4 => {
                        for (k, &closes) in sc.host.iter().enumerate() {
                            prop_assert_eq!(host_count(&o, k), closes);
                        }
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
                            let admitted = sc.closed(id, capacity);
                            let last = o.spans().last().map(|s| s.id);
                            prop_assert_eq!(last == Some(id), admitted, "#{} admitted", id);
                            if which == 5 {
                                sc.host[sc.opened[id as usize - 1].2] += 1;
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
                prop_assert_eq!(o.evicted(), sc.evicted);
                for (kind, (hist, _)) in KINDS.iter().zip(&sc.latency) {
                    prop_assert_eq!(o.latency(kind).map_or(0, Histogram::count), hist.count());
                }
                // The log is the admitted closes, in close order, and each
                // retained span is whole and its own.
                prop_assert_eq!(o.closed_count(), sc.kept.len());
                for (s, &(id, end)) in o.spans().zip(&sc.kept) {
                    let (start, issues, kind) = sc.opened[id as usize - 1];
                    prop_assert_eq!(s.kind, KINDS[kind]);
                    prop_assert_eq!((s.id, s.start, s.end), (id, start, end));
                    prop_assert_eq!(s.stages.total(), end.since(start).as_nanos());
                    prop_assert_eq!(s.busy.len(), issues, "span #{} carries another span's windows", id);
                    for &(lane, from, to) in &s.busy {
                        prop_assert_eq!(lane, id as u32, "window of another span in #{}", id);
                        prop_assert!(start <= from && from < to && to <= end);
                    }
                }
                // The log holds the retained records and nothing else.
                prop_assert_eq!(decoded_len(&o.log), o.log.bytes.len(), "bytes of evicted spans retained");
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
