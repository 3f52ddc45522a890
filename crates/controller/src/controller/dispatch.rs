//! Dispatch: the pending set, the agenda, and the scheduling round.
//!
//! Owns [`Dispatch`] — every flash operation the controller has decided on
//! but not yet issued (`pending`), the single event agenda (`events`:
//! flash completions and scheduler wake-ups), the arrival counter, the
//! per-class service tallies the policies read, the observability context
//! of the op being issued, the superseded-while-queued bookkeeping of the
//! relocation lanes ([`QueuedMoves`]), the pages queued mapped reads may
//! be waiting on ([`QueuedReads`] — what lets a read follow its page to
//! another LUN's lane when the page dies), and the reusable scratch of one
//! scheduling round. Every subsystem queues flash work through
//! [`Controller::enqueue`]; [`Controller::run_sched`] decides what goes
//! next under the configured `SchedPolicy`, and `issue.rs` turns the chosen
//! op into a flash command.

use eagletree_core::{Cause, EventQueue, QueueKind, SimDuration, SimTime, NO_SPAN};
use eagletree_flash::{
    BlockAddr, FlashCommand, Geometry, IssueOutcome, PhysicalAddr, TimingSpec,
};

use super::{Controller, PageContent};
use crate::alloc::Stream;
use crate::ftl::{FtlKind, HybridPlace};
use crate::pend::{LaneKey, PendingSet, QueueKey, NO_SLOT};
use crate::sched::{class_table, ClassTable};
use crate::types::{IoSource, Lpn, OpClass, Ppn, RequestId};

/// Sort key the scheduler sees per issuable op: class, open-interface
/// priority tag, enqueue time, arrival sequence.
type SchedKey = (OpClass, Option<u8>, SimTime, u64);

/// Per-scheduling-round memo of write-issuability results, keyed by the
/// op-independent `(bound LUN, stream)` pair: every unbound write of one
/// stream shares one probe per round instead of re-scanning all LUNs.
type WriteMemo = Vec<((Option<u32>, Stream), bool)>;

/// What a finished register transfer hands its data to: the second half
/// of every read (array read → channel transfer → this).
#[derive(Debug, Clone, Copy)]
pub(super) enum XferDone {
    App { id: RequestId },
    Gc { job: usize, from: PhysicalAddr },
    MapFetch { tvpn: u64 },
    Wb { wb: usize },
    Merge { from: PhysicalAddr },
}

/// Who an erase belongs to: decides what its completion releases.
#[derive(Debug, Clone, Copy)]
pub(super) enum EraseOwner {
    /// A reclaim job's victim (GC, static WL or scrub).
    Reclaim { job: usize },
    /// A merge-retired block. `completes_merge`: set for the victim log
    /// block, whose erase is the running merge's last step.
    Merge { source: IoSource, completes_merge: bool },
    /// A reserved block whose checkpoint a newer commit retired.
    Ckpt,
}

/// Completion-event payloads: what finished and what to do next.
#[derive(Debug, Clone, Copy)]
pub(super) enum DoneWhat {
    /// An array read left its page in the LUN register: queue the channel
    /// transfer (under `class`/`tag`) that carries it on to `then`.
    ReadArray { addr: PhysicalAddr, class: OpClass, tag: Option<u8>, then: XferDone },
    Xfer(XferDone),
    AppWriteDone { id: RequestId, lpn: Lpn, ppn: Ppn },
    /// A reclaim migration (read+program or copy-back) landed at `new`.
    MoveDone { job: usize, from_ppn: Ppn, content: PageContent, new: PhysicalAddr },
    EraseDone { block: BlockAddr, owner: EraseOwner },
    WbWrite { wb: usize, new: PhysicalAddr },
    FlushDone { lpn: Lpn, version: u64, ppn: Ppn },
    MergeProgDone { from: Option<Ppn>, dest: Ppn },
    CkptWriteDone,
}

pub(super) enum CtrlEvent {
    Wake,
    Done(DoneWhat),
}

/// A host page on its way to flash: an application write, or the
/// background flush of a buffered one.
#[derive(Debug, Clone, Copy)]
pub(super) enum HostWrite {
    App { id: RequestId, lpn: Lpn },
    Flush { lpn: Lpn, version: u64 },
}

impl HostWrite {
    pub(super) fn lpn(self) -> Lpn {
        match self {
            HostWrite::App { lpn, .. } | HostWrite::Flush { lpn, .. } => lpn,
        }
    }

    /// The completion of this write's program at `ppn`.
    pub(super) fn landed(self, ppn: Ppn) -> DoneWhat {
        match self {
            HostWrite::App { id, lpn } => DoneWhat::AppWriteDone { id, lpn, ppn },
            HostWrite::Flush { lpn, version } => DoneWhat::FlushDone { lpn, version, ppn },
        }
    }
}

/// Payload of an unbound write op.
#[derive(Debug, Clone, Copy)]
pub(super) enum WriteWhat {
    Host(HostWrite),
    Gc { job: usize, from_ppn: Ppn, content: PageContent },
    Translation { wb: usize },
}

/// A pending flash operation awaiting scheduling.
#[derive(Debug, Clone, Copy)]
pub(super) enum PendKind {
    /// Transfer previously read data out of a LUN register.
    Transfer { addr: PhysicalAddr, done: XferDone },
    /// Erase `block` on behalf of `owner` (a reclaimed victim, a
    /// merge-retired block, or a retired checkpoint block).
    Erase { block: BlockAddr, owner: EraseOwner },
    /// Application read; physical target resolved at issue time (while it
    /// waits it rides the read lane of the LUN its page is on).
    AppRead { id: RequestId, lpn: Lpn },
    /// DFTL translation-page fetch; location resolved at issue time (laned
    /// like an `AppRead`).
    MapFetchRead { tvpn: u64 },
    /// Read-merge source of a translation writeback.
    WbRead { wb: usize },
    /// Program with destination chosen at issue time.
    Write { lun: Option<u32>, stream: Stream, what: WriteWhat },
    /// GC page migration (copy-back or read+program, decided at issue).
    GcMove { job: usize, from: PhysicalAddr },
    /// Hybrid-FTL write: appends to the scheme's current log block
    /// (placement resolved at issue time by the log-block discipline, not
    /// the free write allocator).
    HybridWrite { what: HostWrite },
    /// Read of the current merge-fold offset's live copy (source resolved
    /// at issue; a trimmed page reroutes to a filler program).
    MergeRead,
    /// Program of the current merge-fold offset into the destination
    /// block. `from` is the copied source (`None`: filler keeping the
    /// destination's NAND program order over an unmapped hole).
    MergeProgram { from: Option<Ppn> },
    /// Program of the in-flight checkpoint's next snapshot page into its
    /// reserved slot (destination derived from the checkpoint job).
    CkptWrite,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct PendingOp {
    pub(super) seq: u64,
    pub(super) class: OpClass,
    pub(super) tag: Option<u8>,
    pub(super) enqueued_at: SimTime,
    pub(super) kind: PendKind,
    /// Lifecycle span this op belongs to ([`NO_SPAN`] with obs off).
    pub(super) span: u64,
}

/// Issue-time observability context, handed from [`Controller::issue`] to
/// `issue_cmd` through a field so the `issue_cmd` call sites stay
/// untouched: the span of the op being issued, whether it is bound to a
/// host request (vs. an internal op), and when it entered the pending set.
#[derive(Debug, Clone, Copy)]
pub(super) struct ObsCur {
    pub(super) span: u64,
    pub(super) host: bool,
    pub(super) enqueued_at: SimTime,
}

impl Default for ObsCur {
    fn default() -> Self {
        ObsCur {
            span: NO_SPAN,
            host: false,
            enqueued_at: SimTime::ZERO,
        }
    }
}

/// One bit per physical page.
#[derive(Debug, PartialEq, Eq)]
struct PageBits(Vec<u64>);

impl PageBits {
    fn new(g: &Geometry) -> Self {
        PageBits(vec![0; (g.total_pages() as usize).div_ceil(64)])
    }

    fn get(&self, ppn: Ppn) -> bool {
        self.0[ppn as usize / 64] & (1u64 << (ppn % 64)) != 0
    }

    fn set(&mut self, ppn: Ppn) {
        self.0[ppn as usize / 64] |= 1u64 << (ppn % 64);
    }

    fn clear(&mut self, ppn: Ppn) {
        self.0[ppn as usize / 64] &= !(1u64 << (ppn % 64));
    }
}

/// The one op-specific term of a queued `GcMove`'s issuability: its source
/// page may be invalidated while it waits, after which it is consumed
/// without flash IO whatever its LUN is doing. Counting those per LUN lets
/// [`Controller::first_issuable`] trust a blocked lane head unless the
/// lane's LUN has one.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct QueuedMoves {
    /// Per physical page: a `GcMove` reading it is queued.
    queued: PageBits,
    /// Per LUN: queued `GcMove`s whose source page has been invalidated.
    superseded: Vec<u32>,
}

impl QueuedMoves {
    fn new(g: &Geometry) -> Self {
        QueuedMoves {
            queued: PageBits::new(g),
            superseded: vec![0; g.total_luns() as usize],
        }
    }

    /// A `GcMove` reading the live page `ppn` entered the pending set.
    fn enqueued(&mut self, ppn: Ppn) {
        debug_assert!(!self.queued.get(ppn), "two queued moves of page {ppn}");
        self.queued.set(ppn);
    }

    /// The live page `ppn` on `lun` was invalidated.
    pub(super) fn invalidated(&mut self, ppn: Ppn, lun: u32) {
        if self.queued.get(ppn) {
            self.superseded[lun as usize] += 1;
        }
    }

    /// Queued moves on `lun` consumable without flash IO.
    pub(super) fn superseded_on(&self, lun: u32) -> u32 {
        self.superseded[lun as usize]
    }

    /// The `GcMove` reading `ppn` on `lun` left the pending set;
    /// `superseded`: consumed because its page was invalidated.
    pub(super) fn issued(&mut self, ppn: Ppn, lun: u32, superseded: bool) {
        self.queued.clear(ppn);
        if superseded {
            self.superseded[lun as usize] -= 1;
        }
    }
}

/// The one thing that changes a queued mapped read's lane key: the page
/// its source resolves to dies (overwrite, trim, relocation, writeback),
/// and the mapping now points elsewhere — perhaps at another LUN. Every
/// such change passes through [`Controller::invalidate_ppn`], so marking
/// the pages laned reads resolved to lets that hook find the reads to
/// re-lane by one bit test on the dying page.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct QueuedReads {
    /// Per physical page, a superset: a laned read that resolved to it
    /// *may* be queued. Set at enqueue and at re-lane, cleared only when
    /// the page dies — a read that issued leaves its bit stale.
    noted: PageBits,
    /// Reusable scratch of one re-lane walk: `(slot, new lane)`.
    moving: Vec<(u32, LaneKey)>,
}

impl QueuedReads {
    pub(super) fn new(g: &Geometry) -> Self {
        QueuedReads {
            noted: PageBits::new(g),
            moving: Vec::new(),
        }
    }
}

pub(super) struct Dispatch {
    /// The agenda: flash completions and wake-ups in `(time, seq)` order.
    /// Backend per `ControllerConfig::queue`.
    pub(super) events: EventQueue<CtrlEvent>,
    pub(super) pending: PendingSet<PendingOp>,
    pub(super) moves: QueuedMoves,
    pub(super) reads: QueuedReads,
    /// Reusable scratch for one scheduling round's head candidates
    /// (`(key, slot)`), keys-only view, write memo and LUN probe —
    /// kept here so steady-state dispatch never allocates.
    sched_cand: Vec<(SchedKey, u32)>,
    sched_keys: Vec<SchedKey>,
    write_memo: WriteMemo,
    pub(super) lun_scratch: Vec<bool>,
    op_seq: u64,
    pub(super) serviced: ClassTable,
    /// Context of the op currently being issued (see [`ObsCur`]).
    pub(super) obs_cur: ObsCur,
}

impl Dispatch {
    /// An empty pending set over an empty agenda. The horizon hint covers
    /// the longest single flash op with slack so completions stay in the
    /// calendar's near ring.
    pub(super) fn new(queue: QueueKind, timing: &TimingSpec, geometry: &Geometry) -> Self {
        let mut events = EventQueue::with_kind(queue);
        let max_op = timing
            .t_erase
            .as_nanos()
            .max(timing.t_prog.as_nanos())
            .max(timing.t_read.as_nanos());
        events.hint_horizon(SimDuration::from_nanos(max_op.saturating_mul(2).max(1)));
        Dispatch {
            events,
            pending: PendingSet::new(),
            moves: QueuedMoves::new(geometry),
            reads: QueuedReads::new(geometry),
            sched_cand: Vec::new(),
            sched_keys: Vec::new(),
            write_memo: Vec::new(),
            lun_scratch: Vec::new(),
            op_seq: 0,
            serviced: class_table(0),
            obs_cur: ObsCur::default(),
        }
    }

    /// Schedule `first` for when an issued command finishes, plus the
    /// wake-ups for its channel and LUN freeing earlier than that (each
    /// lets the scheduler hand the freed resource to the next op).
    pub(super) fn schedule_after(&mut self, out: &IssueOutcome, first: CtrlEvent) {
        self.events.schedule(out.done_at, first);
        if out.channel_free_at < out.done_at {
            self.events.schedule(out.channel_free_at, CtrlEvent::Wake);
        }
        if out.lun_free_at < out.done_at {
            self.events.schedule(out.lun_free_at, CtrlEvent::Wake);
        }
    }
}

impl Controller {
    pub(super) fn enqueue(&mut self, class: OpClass, tag: Option<u8>, now: SimTime, kind: PendKind) {
        let seq = self.disp.op_seq;
        self.disp.op_seq += 1;
        let span = if self.obs.is_none() {
            NO_SPAN
        } else {
            match Self::pend_request(&kind) {
                // Host-bound phase: continue the request's lifecycle span.
                Some(id) => self
                    .obs
                    .as_ref()
                    .and_then(|o| o.request_span(id))
                    .unwrap_or(NO_SPAN),
                // Internal op: open a fresh span, causally linked to the
                // job/policy that spawned it.
                None => {
                    let cause = self.pend_cause(&kind);
                    match (self.obs.as_mut(), cause) {
                        (Some(o), Cause::None) => o.open_internal(class.name(), now),
                        (Some(o), c) => o.open_caused(class.name(), now, c),
                        (None, _) => NO_SPAN,
                    }
                }
            }
        };
        let key = match kind {
            PendKind::Transfer { .. } => QueueKey::Transfer,
            _ => QueueKey::Class(class, tag),
        };
        match kind {
            PendKind::GcMove { from, .. } => {
                let ppn = self.array.geometry().page_index(from);
                debug_assert!(self.reverse[ppn as usize].is_some(), "move of a dead page queued");
                self.disp.moves.enqueued(ppn);
            }
            PendKind::AppRead { .. } | PendKind::MapFetchRead { .. } => {
                if let Some(ppn) = self.mapped_read_page(&kind) {
                    self.disp.reads.noted.set(ppn);
                }
            }
            _ => {}
        }
        self.disp.pending.insert(
            key,
            self.lane_of(&kind),
            PendingOp {
                seq,
                class,
                tag,
                enqueued_at: now,
                kind,
                span,
            },
        );
    }

    /// The application request a pending op serves directly, if any —
    /// such ops continue the request's lifecycle span instead of opening
    /// an internal one.
    pub(super) fn pend_request(kind: &PendKind) -> Option<RequestId> {
        match kind {
            PendKind::AppRead { id, .. } => Some(*id),
            PendKind::Write {
                what: WriteWhat::Host(HostWrite::App { id, .. }),
                ..
            }
            | PendKind::HybridWrite {
                what: HostWrite::App { id, .. },
            } => Some(*id),
            PendKind::Transfer {
                done: XferDone::App { id },
                ..
            } => Some(*id),
            _ => None,
        }
    }

    /// Span cause for an op spawned by an [`IoSource`]-attributed job.
    fn source_cause(source: IoSource) -> Cause {
        Cause::Policy(match source {
            IoSource::Application => "host",
            IoSource::GarbageCollection => "gc",
            IoSource::WearLeveling => "wear-leveling",
            IoSource::Mapping => "mapping",
            IoSource::Merge => "merge",
            IoSource::Scrub => "scrub",
        })
    }

    /// Derive the cause of an internal op structurally from its pending
    /// kind: GC/WL/merge phases point at their job's source policy,
    /// mapping and checkpoint traffic at theirs. `MapFetchRead` returns
    /// [`Cause::None`] so the ambient cause context set by
    /// [`Self::park_on_fetch`] (which links the stalled *request*) wins.
    fn pend_cause(&self, kind: &PendKind) -> Cause {
        // An op is enqueued on behalf of a job still in flight.
        let job_cause = |job: usize| Self::source_cause(self.reclaim.jobs[job].source);
        let merge_cause = || {
            let job = self.merge.job.as_ref();
            job.map_or(Cause::Policy("merge"), |j| Self::source_cause(j.source))
        };
        match kind {
            PendKind::GcMove { job, .. } => job_cause(*job),
            PendKind::Erase { owner, .. } => match owner {
                EraseOwner::Reclaim { job } => job_cause(*job),
                EraseOwner::Merge { source, .. } => Self::source_cause(*source),
                EraseOwner::Ckpt => Cause::Policy("checkpoint"),
            },
            PendKind::Write {
                what: WriteWhat::Gc { job, .. },
                ..
            } => job_cause(*job),
            PendKind::Write {
                what: WriteWhat::Translation { .. },
                ..
            }
            | PendKind::WbRead { .. } => Cause::Policy("mapping-writeback"),
            PendKind::Write {
                what: WriteWhat::Host(HostWrite::Flush { .. }),
                ..
            }
            | PendKind::HybridWrite {
                what: HostWrite::Flush { .. },
            } => Cause::Policy("flush"),
            PendKind::MergeRead | PendKind::MergeProgram { .. } => merge_cause(),
            PendKind::CkptWrite => Cause::Policy("checkpoint"),
            PendKind::Transfer { done, .. } => match done {
                XferDone::Gc { job, .. } => job_cause(*job),
                XferDone::MapFetch { .. } => Cause::Policy("mapping"),
                XferDone::Wb { .. } => Cause::Policy("mapping-writeback"),
                XferDone::Merge { .. } => merge_cause(),
                XferDone::App { .. } => Cause::None,
            },
            _ => Cause::None,
        }
    }

    /// Lane for ops whose issuability is a function of a [`LaneKey`] — the
    /// contract a `PendingSet` lane requires (the lane head's verdict then
    /// covers the whole lane): a page write's of `(LUN, stream)`, a
    /// `GcMove`'s of its source LUN (`ReadStart` resources are per LUN;
    /// its one per-op exception is tracked in [`QueuedMoves`]), a mapped
    /// read's of the LUN its source resolves to now (when that changes,
    /// [`Self::reads_follow`] moves the op). Everything else goes to the
    /// group's order-scan queue.
    fn lane_of(&self, kind: &PendKind) -> Option<LaneKey> {
        match *kind {
            PendKind::Write { lun, stream, .. } => Some(LaneKey::Write { lun, stream }),
            PendKind::GcMove { from, .. } => Some(LaneKey::MoveFrom {
                lun: self.array.geometry().lun_index(from.channel, from.lun),
            }),
            PendKind::AppRead { .. } | PendKind::MapFetchRead { .. } => {
                Some(self.read_lane(self.mapped_read_page(kind)))
            }
            _ => None,
        }
    }

    /// The page a mapped read (`AppRead`, `MapFetchRead`) would read right
    /// now. `None`: nothing (left) to read — trimmed while queued, or a
    /// fetch resolvable from RAM structures.
    fn mapped_read_page(&self, kind: &PendKind) -> Option<Ppn> {
        match *kind {
            PendKind::AppRead { lpn, .. } => self.ftl.peek(lpn),
            PendKind::MapFetchRead { tvpn } => self.ftl.translation_location(tvpn),
            _ => unreachable!("{kind:?} is not a mapped read"),
        }
    }

    /// The lane of a mapped read whose source resolves to `page`.
    fn read_lane(&self, page: Option<Ppn>) -> LaneKey {
        LaneKey::ReadFrom {
            lun: page.map(|p| self.array.geometry().lun_of_page(p)),
        }
    }

    /// The page `ppn` on `lun` no longer holds what the mapping points at
    /// (called after the mapping moved): queued mapped reads that resolved
    /// to it follow their page, to another lane if it changed LUN. One bit
    /// test unless such a read may be queued.
    #[inline]
    pub(super) fn reads_follow(&mut self, ppn: Ppn, lun: u32) {
        debug_assert_eq!(lun, self.array.geometry().lun_of_page(ppn));
        if self.disp.reads.noted.get(ppn) {
            self.relane_reads(ppn, lun);
        }
    }

    /// The noted page `dead` on `lun` died: re-resolve every mapped read
    /// queued on `lun`'s read lanes and move those whose LUN changed to
    /// their new lane, in seq order. Every op walked is noted at the page
    /// it resolves to *now*, not only the ones that move: a read whose
    /// page moved within the LUN keeps its lane but must still be found
    /// when the new page dies.
    #[cold]
    fn relane_reads(&mut self, dead: Ppn, lun: u32) {
        self.disp.reads.noted.clear(dead);
        let here = LaneKey::ReadFrom { lun: Some(lun) };
        let mut moving = std::mem::take(&mut self.disp.reads.moving);
        for group in 1..self.disp.pending.group_count() {
            let pending = &self.disp.pending;
            let Some(li) = pending.lane_index(group, here) else { continue };
            moving.clear();
            for slot in pending.walk(pending.lane_head(group, li)) {
                let page = self.mapped_read_page(&pending.get(slot).kind);
                let lane = self.read_lane(page);
                if let Some(ppn) = page {
                    self.disp.reads.noted.set(ppn);
                }
                if lane != here {
                    moving.push((slot, lane));
                }
            }
            for &(slot, lane) in &moving {
                self.disp.pending.move_to_lane(slot, lane, |op| op.seq);
            }
        }
        self.disp.reads.moving = moving;
    }

    /// Channel usable under the interleaving policy: with interleaving off
    /// the controller keeps at most one LUN in flight per channel.
    fn channel_ok(&self, channel: u32, lun_in_channel: u32, now: SimTime) -> bool {
        if self.cfg.interleaving {
            return true;
        }
        let g = self.array.geometry();
        (0..g.luns_per_channel).all(|l| {
            l == lun_in_channel
                || (self.array.lun_free_at(channel, l) <= now
                    && self.array.lun_holding(channel, l).is_none())
        })
    }

    fn cmd_resources_free(&self, cmd: &FlashCommand, now: SimTime) -> bool {
        self.array.can_issue(cmd, now) && self.channel_ok(cmd.channel(), cmd.lun(), now)
    }

    /// LUN (linear) free to start a new array operation right now: the
    /// resources of a program, and exactly those of a `ReadStart`.
    fn lun_idle(&self, lun: u32, now: SimTime) -> bool {
        let g = self.array.geometry();
        let channel = lun / g.luns_per_channel;
        let l = lun % g.luns_per_channel;
        self.array.channel_free_at(channel) <= now
            && self.array.lun_free_at(channel, l) <= now
            && self.array.lun_holding(channel, l).is_none()
            && self.channel_ok(channel, l, now)
    }

    /// Resources free for a program at exactly `addr` right now, honoring
    /// the cached-programming config gate (the array alone only checks
    /// chip support). Used for hybrid log appends and merge-fold programs,
    /// whose destinations are bound by the log-block discipline.
    fn program_ok(&self, addr: PhysicalAddr, now: SimTime) -> bool {
        self.array.can_issue(&FlashCommand::Program(addr), now)
            && self.channel_ok(addr.channel, addr.lun, now)
            && (self.cfg.use_cached_program
                || self.array.lun_free_at(addr.channel, addr.lun) <= now)
    }

    /// A program for `stream` could start on `lun` right now: either the
    /// LUN is idle, or (cached programming) the stream's next page extends
    /// the block the LUN is currently programming.
    pub(super) fn can_program_on(&self, lun: u32, stream: Stream, now: SimTime) -> bool {
        if !self.alloc.can_alloc(lun, stream) {
            return false;
        }
        if self.lun_idle(lun, now) {
            return true;
        }
        if !self.cfg.use_cached_program {
            return false;
        }
        let g = self.array.geometry();
        let channel = lun / g.luns_per_channel;
        let l = lun % g.luns_per_channel;
        self.channel_ok(channel, l, now)
            && self
                .alloc
                .peek_active(lun, stream)
                .is_some_and(|addr| self.array.can_pipeline(addr, now))
    }

    /// Whether an unbound (or LUN-bound) write could start right now.
    fn write_can_issue(&self, lun: Option<u32>, stream: Stream, now: SimTime) -> bool {
        match lun {
            Some(l) => self.can_program_on(l, stream, now),
            None => {
                let g = self.array.geometry();
                (0..g.total_luns()).any(|l| self.can_program_on(l, stream, now))
            }
        }
    }

    /// Where a read op's source page sits right now — resolved when the
    /// op issues (and when the scan queue or the debug oracle probes it),
    /// since the mapping moves while the op waits. `None`: there is
    /// nothing (left) to read and the op is consumed without flash IO.
    /// Not a read op: `None`.
    pub(super) fn read_source(&self, kind: &PendKind) -> Option<PhysicalAddr> {
        let g = self.array.geometry();
        match *kind {
            PendKind::AppRead { .. } | PendKind::MapFetchRead { .. } => {
                self.mapped_read_page(kind).map(|p| g.page_at(p))
            }
            PendKind::WbRead { wb } => self.wb_read_source(wb),
            // `None`: trimmed since enqueue, reroutes to a filler program.
            PendKind::MergeRead => {
                let cur = self.merge.cur();
                let lpn = cur.lbn * self.ppb() + cur.next as u64;
                self.ftl.peek(lpn).map(|p| g.page_at(p))
            }
            _ => None,
        }
    }

    /// `disp.moves` is exactly what a recount of the pending set gives —
    /// with nothing pending, every bit clear and every count zero.
    pub(super) fn check_queued_moves(&self) {
        let g = self.array.geometry();
        let mut recount = QueuedMoves::new(g);
        for op in self.disp.pending.iter() {
            if let PendKind::GcMove { from, .. } = op.kind {
                recount.enqueued(g.page_index(from));
                if self.move_superseded(from) {
                    recount.superseded[g.lun_index(from.channel, from.lun) as usize] += 1;
                }
            }
        }
        assert!(self.disp.moves == recount, "queued-move bookkeeping drifted from the pending set");
    }

    /// Every queued mapped read sits where [`Self::reads_follow`] will
    /// find it: in the read lane of the LUN its source resolves to now, in
    /// seq order, with that page noted — and nowhere else. Between
    /// scheduling rounds no `ReadFrom { lun: None }` lane holds an op: such
    /// an op is always issuable, so the round that follows the handler
    /// that made it drains it, and "`None` becomes `Some` later" cannot
    /// happen to a queued op.
    pub(super) fn check_queued_reads(&self) {
        let pending = &self.disp.pending;
        let mapped = |op: &PendingOp| {
            matches!(op.kind, PendKind::AppRead { .. } | PendKind::MapFetchRead { .. })
        };
        let walk = |head: u32| pending.walk(head).map(|s| pending.get(s));
        for group in 0..pending.group_count() {
            assert!(
                !walk(pending.scan_head(group)).any(mapped),
                "a scan queue holds a mapped read"
            );
            for li in 0..pending.lane_count(group) {
                let key = pending.lane_key(group, li);
                let ops = || walk(pending.lane_head(group, li));
                let LaneKey::ReadFrom { lun } = key else {
                    assert!(!ops().any(mapped), "{key:?} holds a mapped read");
                    continue;
                };
                assert!(
                    lun.is_some() || ops().next().is_none(),
                    "a read with nothing to read outlived its scheduling round"
                );
                let mut last = None;
                for op in ops() {
                    assert!(mapped(op), "{:?} in a read lane", op.kind);
                    let page = self.mapped_read_page(&op.kind);
                    assert_eq!(self.read_lane(page), key, "read in another LUN's lane: {op:?}");
                    assert!(page.is_none_or(|p| self.disp.reads.noted.get(p)), "unnoted: {op:?}");
                    assert!(last < Some(op.seq), "read lane out of seq order");
                    last = Some(op.seq);
                }
            }
        }
    }

    /// Whether the source page of a queued `GcMove` has been invalidated
    /// since it was queued (the op is then consumed without flash IO).
    fn move_superseded(&self, from: PhysicalAddr) -> bool {
        self.reverse[self.array.geometry().page_index(from) as usize].is_none()
    }

    /// Whether `op` could issue (or be consumed) right now. `memo` caches
    /// write-issuability per `(LUN, stream)` within one scheduling round
    /// (the underlying state only changes when an op actually issues).
    fn op_issuable(&self, op: &PendingOp, now: SimTime, memo: &mut WriteMemo) -> bool {
        match op.kind {
            PendKind::Transfer { addr, .. } => {
                self.cmd_resources_free(&FlashCommand::TransferOut(addr), now)
            }
            PendKind::Erase { block, .. } => {
                self.cmd_resources_free(&FlashCommand::Erase(block), now)
            }
            PendKind::GcMove { from, .. } => {
                // Superseded: consumed without flash IO.
                self.move_superseded(from)
                    || self.cmd_resources_free(&FlashCommand::ReadStart(from), now)
            }
            PendKind::AppRead { .. }
            | PendKind::MapFetchRead { .. }
            | PendKind::WbRead { .. }
            | PendKind::MergeRead => match self.read_source(&op.kind) {
                None => true, // nothing to read any more: consumed instantly
                Some(addr) => self.cmd_resources_free(&FlashCommand::ReadStart(addr), now),
            },
            PendKind::Write { lun, stream, .. } => {
                if let Some(&(_, ok)) = memo.iter().find(|&&(k, _)| k == (lun, stream)) {
                    return ok;
                }
                let ok = self.write_can_issue(lun, stream, now);
                memo.push(((lun, stream), ok));
                ok
            }
            PendKind::HybridWrite { what } => {
                let FtlKind::Hybrid(h) = &self.ftl else { return false };
                match h.place(what.lpn()) {
                    HybridPlace::Append(ppn) => {
                        let addr = self.array.geometry().page_at(ppn);
                        self.program_ok(addr, now)
                    }
                    // Waiting on a log block or a merge (maintenance's job).
                    _ => false,
                }
            }
            PendKind::MergeProgram { .. } => {
                let cur = self.merge.cur();
                let addr = self.array.geometry().page_at(cur.dest + cur.next as u64);
                self.program_ok(addr, now)
            }
            PendKind::CkptWrite => self.program_ok(self.ckpt_next_program().1, now),
        }
    }

    pub(super) fn run_sched(&mut self, now: SimTime) {
        // Space maintenance is evaluated here so that every pathway that
        // could change free-space (submissions, completions, erases)
        // funnels through one place. Under the hybrid mapping, log-block
        // merges replace generic GC.
        if self.is_hybrid() {
            self.hybrid_maintenance(now);
        } else {
            let nluns = self.array.geometry().total_luns();
            for lun in 0..nluns {
                if self.alloc.free_blocks(lun) < self.gc_floor() {
                    self.maybe_gc(lun, now);
                }
            }
        }
        self.maybe_checkpoint(now);
        self.maybe_scrub(now);
        // Each round compares at most one candidate per live group (the
        // group's first issuable op dominates the rest of it under every
        // policy), and finding it probes one head per lane plus the
        // blocked prefix of the scan queue — so per-issue cost tracks the
        // live (class, tag) groups and their lanes, not the number of
        // queued writes, relocations or reads — and the reused scratch
        // buffers keep the loop allocation-free.
        let mut memo = std::mem::take(&mut self.disp.write_memo);
        loop {
            memo.clear();
            // Hardware necessity: pending transfers hold LUN registers
            // hostage, so they always go first (from their own group —
            // no scan over non-transfer ops).
            const TRANSFERS: u32 = PendingSet::<PendingOp>::TRANSFER_GROUP;
            if self.disp.pending.group_len(TRANSFERS) != 0 {
                let t = self.first_issuable(TRANSFERS, now, &mut memo);
                if t != NO_SLOT {
                    self.issue(t, now);
                    continue;
                }
            }
            let mut cand = std::mem::take(&mut self.disp.sched_cand);
            cand.clear();
            for q in 1..self.disp.pending.group_count() {
                // Groups outlive their ops; most are empty most rounds.
                if self.disp.pending.group_len(q) == 0 {
                    continue;
                }
                let slot = self.first_issuable(q, now, &mut memo);
                if slot != NO_SLOT {
                    let op = self.disp.pending.get(slot);
                    cand.push(((op.class, op.tag, op.enqueued_at, op.seq), slot));
                }
            }
            // Policies tie-break by seq: presenting heads in seq order
            // keeps Fair's first-encountered class resolution (and any
            // future order-sensitive policy) deterministic.
            cand.sort_unstable_by_key(|&((_, _, _, seq), _)| seq);
            if cand.is_empty() {
                self.disp.sched_cand = cand;
                if self.unwedge_sequential_stream(now) {
                    // The freed writes may now need log blocks (or the
                    // merge may have resolved instantly): re-run
                    // maintenance before re-scanning the queues.
                    self.hybrid_maintenance(now);
                    continue;
                }
                break;
            }
            let mut keys = std::mem::take(&mut self.disp.sched_keys);
            keys.clear();
            keys.extend(cand.iter().map(|&(k, _)| k));
            let chosen = self
                .cfg
                .sched
                .select(&keys, &self.disp.serviced)
                .expect("non-empty candidates");
            let slot = cand[chosen].1;
            self.disp.sched_keys = keys;
            self.disp.sched_cand = cand;
            self.issue(slot, now);
        }
        self.disp.write_memo = memo;
        #[cfg(debug_assertions)]
        self.check_queued_reads();
    }

    /// First op in `group` that could issue right now, or `NO_SLOT`.
    ///
    /// The group's order-scan queue is probed in FIFO order; each lane
    /// contributes its head (a blocked head proves the lane blocked — its
    /// ops share one issuability predicate), except that a blocked
    /// relocation lane whose LUN has superseded moves queued is walked for
    /// its first one. A read lane is answered from its key alone — nothing
    /// to read, or the LUN free for a `ReadStart` — without resolving the
    /// head's mapping. The min-seq winner is exactly the op a single merged
    /// FIFO would have yielded: a lane head has the smallest seq of its
    /// key, and any issuable lane op is either superseded or implies its
    /// head (same predicate, smaller seq) issuable too. Debug builds check
    /// that against [`Self::first_issuable_reference`] on every call.
    fn first_issuable(&self, group: u32, now: SimTime, memo: &mut WriteMemo) -> u32 {
        let pending = &self.disp.pending;
        let mut best = NO_SLOT;
        let mut best_seq = u64::MAX;
        let mut cur = pending.scan_head(group);
        while cur != NO_SLOT {
            let op = pending.get(cur);
            if self.op_issuable(op, now, memo) {
                best = cur;
                best_seq = op.seq;
                break;
            }
            cur = pending.next(cur);
        }
        for li in 0..pending.lane_count(group) {
            let head = pending.lane_head(group, li);
            if head == NO_SLOT {
                continue;
            }
            let op = pending.get(head);
            if op.seq >= best_seq {
                continue;
            }
            // By the head's kind first: the key is loaded only where it
            // decides (write-only workloads run this loop ~23× per IO).
            let slot = match op.kind {
                PendKind::AppRead { .. } | PendKind::MapFetchRead { .. } => {
                    let LaneKey::ReadFrom { lun } = pending.lane_key(group, li) else {
                        unreachable!("mapped read outside a read lane");
                    };
                    if lun.is_none_or(|l| self.lun_idle(l, now)) {
                        head
                    } else {
                        NO_SLOT
                    }
                }
                _ if self.op_issuable(op, now, memo) => head,
                _ => self.first_superseded_behind(head, pending.lane_key(group, li), best_seq),
            };
            if slot != NO_SLOT {
                best = slot;
                best_seq = pending.get(slot).seq;
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(best, self.first_issuable_reference(group, now), "lane ≠ merged FIFO");
        best
    }

    /// The lane exception: the first op behind the blocked `head` of lane
    /// `key`, with seq below `limit`, that can go although its lane is
    /// blocked — a superseded move, which only a relocation lane whose LUN
    /// counts one can hold (the count is per LUN, so the op may turn out to
    /// sit in another group's lane). `NO_SLOT` if there is none.
    fn first_superseded_behind(&self, head: u32, key: LaneKey, limit: u64) -> u32 {
        let LaneKey::MoveFrom { lun } = key else { return NO_SLOT };
        if self.disp.moves.superseded_on(lun) == 0 {
            return NO_SLOT;
        }
        let pending = &self.disp.pending;
        let mut cur = pending.next(head);
        while cur != NO_SLOT {
            let op = pending.get(cur);
            if op.seq >= limit {
                break;
            }
            if matches!(op.kind, PendKind::GcMove { from, .. } if self.move_superseded(from)) {
                return cur;
            }
            cur = pending.next(cur);
        }
        NO_SLOT
    }

    /// The merged-FIFO semantics `first_issuable` must reproduce: the
    /// min-seq op over every queue of the group, walked full length, for
    /// which `op_issuable` holds.
    #[cfg(debug_assertions)]
    fn first_issuable_reference(&self, group: u32, now: SimTime) -> u32 {
        let pending = &self.disp.pending;
        let mut memo = WriteMemo::new();
        let heads = std::iter::once(pending.scan_head(group))
            .chain((0..pending.lane_count(group)).map(|li| pending.lane_head(group, li)));
        let mut best = NO_SLOT;
        let mut best_seq = u64::MAX;
        for head in heads {
            let mut cur = head;
            while cur != NO_SLOT {
                let op = pending.get(cur);
                if op.seq < best_seq && self.op_issuable(op, now, &mut memo) {
                    best = cur;
                    best_seq = op.seq;
                }
                cur = pending.next(cur);
            }
        }
        best
    }
}
