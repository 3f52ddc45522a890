//! Dispatch: the pending set, the agenda, and the scheduling round.
//!
//! Owns [`Dispatch`] — every flash operation the controller has decided on
//! but not yet issued (`pending`), the single event agenda (`events`:
//! flash completions and scheduler wake-ups), the arrival counter, the
//! per-class service tallies the policies read, the observability context
//! of the op being issued, the superseded-while-queued bookkeeping of the
//! relocation lanes ([`QueuedMoves`]), the pages queued mapped reads may
//! be waiting on ([`QueuedReads`] — what lets a read follow its page to
//! another LUN's lane when the page dies), the LUNs that can take a command
//! now ([`ReadySet`]), and the reusable scratch of one scheduling round.
//! Every subsystem queues flash work through [`Controller::enqueue`];
//! [`Controller::run_sched`] decides what goes next under the configured
//! `SchedPolicy`, and `issue.rs` turns the chosen op into a flash command.
//!
//! **Ready-set dispatch.** A lane is addressed by (family, LUN) and its
//! group knows which LUNs have one non-empty (`pend.rs`); this module knows
//! which LUNs can take a command. "Has work" and "can take a command" are
//! two sparse boolean arrays keyed by LUN, and a family's candidates are
//! their element-wise product: [`Controller::first_issuable`] visits
//! `waiting ∩ eligible` and nothing else, where eligible is the idle LUNs
//! for mapped reads, the idle LUNs and those with a superseded move queued
//! for relocation reads, and the LUNs that can take a program for writes.
//! Both sides are maintained, not recomputed: the waiting sets where ops
//! are linked and unlinked, the ready sets for the issued channel at the
//! one `issue_cmd` site and, when a round starts later than the last one,
//! for the busy LUNs whose answer the array said would run out by now
//! ([`Controller::refresh_ready`]).

use eagletree_core::{Cause, EventQueue, SimTime, NO_SPAN};
use eagletree_flash::{
    BlockAddr, FlashArray, FlashCommand, Geometry, IssueOutcome, LunReady, PhysicalAddr,
};

use super::{Controller, PageContent};
use crate::alloc::{Allocator, Stream};
use crate::bits::{ones, BitSet};
use crate::ftl::{FtlKind, HybridPlace};
use crate::pend::{Family, LaneKey, PendingSet, QueueKey, NO_SLOT};
use crate::sched::{class_table, ClassTable};
use crate::types::{IoSource, Lpn, OpClass, Ppn, RequestId};

/// Sort key the scheduler sees per issuable op: class, open-interface
/// priority tag, enqueue time, arrival sequence.
type SchedKey = (OpClass, Option<u8>, SimTime, u64);

/// The reference scan's memo of write-issuability results, keyed by the
/// op-independent `(bound LUN, stream)` pair: every write of one lane
/// shares one all-LUN probe per scan.
#[cfg(debug_assertions)]
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

/// The one op-specific term of a queued `GcMove`'s issuability: its source
/// page may be invalidated while it waits, after which it is consumed
/// without flash IO whatever its LUN is doing. Counting those per LUN lets
/// [`Controller::first_issuable`] trust a blocked lane head unless the
/// lane's LUN has one.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct QueuedMoves {
    /// Per physical page: a `GcMove` reading it is queued.
    queued: BitSet,
    /// Per LUN: queued `GcMove`s whose source page has been invalidated.
    superseded: Vec<u32>,
    /// The LUNs whose `superseded` count is non-zero.
    superseded_luns: BitSet,
}

impl QueuedMoves {
    fn new(g: &Geometry) -> Self {
        QueuedMoves {
            queued: BitSet::new(g.total_pages()),
            superseded: vec![0; g.total_luns() as usize],
            superseded_luns: BitSet::new(g.total_luns().into()),
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
            self.superseded_luns.set(lun);
        }
    }

    /// Queued moves on `lun` consumable without flash IO.
    #[cfg(test)]
    pub(super) fn superseded_on(&self, lun: u32) -> u32 {
        self.superseded[lun as usize]
    }

    /// The `GcMove` reading `ppn` on `lun` left the pending set;
    /// `superseded`: consumed because its page was invalidated.
    pub(super) fn issued(&mut self, ppn: Ppn, lun: u32, superseded: bool) {
        self.queued.clear(ppn);
        if superseded {
            self.superseded[lun as usize] -= 1;
            if self.superseded[lun as usize] == 0 {
                self.superseded_luns.clear(lun);
            }
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
    noted: BitSet,
    /// Reusable scratch of one re-lane walk: `(slot, new lane)`.
    moving: Vec<(u32, LaneKey)>,
}

impl QueuedReads {
    pub(super) fn new(g: &Geometry) -> Self {
        QueuedReads {
            noted: BitSet::new(g.total_pages()),
            moving: Vec::new(),
        }
    }
}

/// The ready side of ready-set dispatch: what each LUN could take at the
/// instant of the last scheduling round. Membership is a function of the
/// array's occupancy and the clock alone — never of what is queued.
#[derive(Debug)]
pub(super) struct ReadySet {
    /// LUNs free to start a new array operation ([`Controller::lun_idle`]):
    /// where a relocation read, a mapped read or any program can go.
    idle: BitSet,
    /// LUNs that could take a program: the idle ones and, with cached
    /// programming, those busy array-programming some block while their
    /// channel is free — a superset for any one stream, whose next page
    /// must extend that very block ([`ReadySet::can_program`] confirms).
    program: BitSet,
    /// The instant the sets describe; `None` until the first round.
    at: Option<SimTime>,
    /// Per LUN: the first instant its membership may change without a
    /// command going to its channel (`SimTime::MAX`: never; zero before
    /// the first round) — a LUN is asked again only once this has passed.
    until: Vec<SimTime>,
}

impl ReadySet {
    fn new(g: &Geometry) -> Self {
        ReadySet {
            idle: BitSet::new(g.total_luns().into()),
            program: BitSet::new(g.total_luns().into()),
            at: None,
            until: vec![SimTime::ZERO; g.total_luns() as usize],
        }
    }

    /// A program of `stream` could start right now on `lun`, a member of
    /// `program`: the LUN is idle and the stream can allocate there, or it
    /// is array-programming the open block the stream's next page extends
    /// (an open block with room is itself the proof that the stream can
    /// allocate).
    pub(super) fn can_program(
        &self,
        lun: u32,
        stream: Stream,
        alloc: &Allocator,
        array: &FlashArray,
        now: SimTime,
    ) -> bool {
        debug_assert!(self.at == Some(now) && self.program.get(lun));
        if self.idle.get(lun) {
            alloc.can_alloc(lun, stream)
        } else {
            alloc.peek_active(lun, stream).is_some_and(|a| array.can_pipeline(a, now))
        }
    }

    /// The LUNs an unbound write may be placed on, before
    /// [`ReadySet::can_program`] asks its stream.
    pub(super) fn program(&self) -> &BitSet {
        &self.program
    }
}

/// The min-seq candidate of one [`Controller::first_issuable`] probe.
struct Oldest {
    slot: u32,
    seq: u64,
}

impl Oldest {
    /// Keep the op in `slot` (`NO_SLOT`: none) if it is older than the one
    /// held and `can_go` — asked only of an op that would win.
    fn offer_if(
        &mut self,
        pending: &PendingSet<PendingOp>,
        slot: u32,
        can_go: impl FnOnce() -> bool,
    ) {
        if slot == NO_SLOT {
            return;
        }
        let seq = pending.get(slot).seq;
        if seq < self.seq && can_go() {
            *self = Oldest { slot, seq };
        }
    }

    /// [`Self::offer_if`] for an op already known to be able to go.
    fn offer(&mut self, pending: &PendingSet<PendingOp>, slot: u32) {
        self.offer_if(pending, slot, || true);
    }
}

pub(super) struct Dispatch {
    /// The agenda: flash completions and wake-ups in `(time, seq)` order.
    pub(super) events: EventQueue<CtrlEvent>,
    pub(super) pending: PendingSet<PendingOp>,
    pub(super) moves: QueuedMoves,
    pub(super) reads: QueuedReads,
    pub(super) ready: ReadySet,
    /// Reusable scratch for one scheduling round's head candidates
    /// (`(key, slot)`) and their keys-only view — kept here so
    /// steady-state dispatch never allocates.
    sched_cand: Vec<(SchedKey, u32)>,
    sched_keys: Vec<SchedKey>,
    op_seq: u64,
    pub(super) serviced: ClassTable,
    /// Context of the op currently being issued (see [`ObsCur`]).
    pub(super) obs_cur: ObsCur,
}

impl Dispatch {
    /// An empty pending set over an empty agenda.
    pub(super) fn new(geometry: &Geometry) -> Self {
        Dispatch {
            events: EventQueue::new(),
            pending: PendingSet::new(geometry.total_luns()),
            moves: QueuedMoves::new(geometry),
            reads: QueuedReads::new(geometry),
            ready: ReadySet::new(geometry),
            sched_cand: Vec::new(),
            sched_keys: Vec::new(),
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
                Some(id) => self.host.span_of(id),
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
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "Transfer is the one kind with a queue of its own; any other, present or future, queues by class"
        )]
        let key = match kind {
            PendKind::Transfer { .. } => QueueKey::Transfer,
            _ => QueueKey::Class(class, tag),
        };
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "only the laned kinds note their source page; a kind without a lane has nothing to note"
        )]
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
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "names the host-bound kinds; every other kind, present or future, is internal"
    )]
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
            PendKind::AppRead { .. }
            | PendKind::MapFetchRead { .. }
            | PendKind::Write { .. }
            | PendKind::HybridWrite { .. } => Cause::None,
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
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "names the laned kinds; every other kind, present or future, waits in a scan queue"
    )]
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
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "callers pass the two mapped-read kinds only; any other is a bug and panics"
    )]
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
            moving.clear();
            for slot in pending.walk(pending.lane_head(group, here)) {
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
    /// resources of a program, and exactly those of a `ReadStart`. The long
    /// way, for the checks; dispatch reads `ReadySet::idle`.
    fn lun_idle(&self, lun: u32, now: SimTime) -> bool {
        let g = self.array.geometry();
        let channel = lun / g.luns_per_channel;
        let l = lun % g.luns_per_channel;
        self.array.channel_free_at(channel) <= now
            && self.array.lun_free_at(channel, l) <= now
            && self.array.lun_holding(channel, l).is_none()
            && self.channel_ok(channel, l, now)
    }

    /// What `lun` (linear) could take at `now` and until when, barring a
    /// command to its channel: the array's answer, under the interleaving
    /// policy. With interleaving off a LUN the array calls ready is still
    /// busy while a sibling is in flight (`channel_ok`), for as long as
    /// the sibling says — so that answer holds for this instant only. The
    /// siblings are all on the LUN's channel, so the sites that refresh a
    /// LUN's channel stay exact.
    fn lun_ready(&self, lun: u32, now: SimTime) -> (LunReady, SimTime) {
        let (ready, until) = self.array.lun_ready(lun, now);
        if self.cfg.interleaving || ready == LunReady::Busy {
            return (ready, until);
        }
        let per_channel = self.array.geometry().luns_per_channel;
        if self.channel_ok(lun / per_channel, lun % per_channel, now) {
            (ready, until)
        } else {
            (LunReady::Busy, now)
        }
    }

    /// Re-derive `lun`'s membership of the ready sets at `now` — the one
    /// place they are written.
    fn refresh_lun(&mut self, lun: u32, now: SimTime) {
        let (ready, until) = self.lun_ready(lun, now);
        let idle = ready == LunReady::ArrayOp;
        let cached = ready == LunReady::CachedProgram && self.cfg.use_cached_program;
        self.disp.ready.idle.assign(lun, idle);
        self.disp.ready.program.assign(lun, idle || cached);
        self.disp.ready.until[lun as usize] = until;
    }

    /// A command went to `channel` at `now`, the instant of the running
    /// round: its LUNs are the only ones whose readiness it can change.
    pub(super) fn refresh_channel(&mut self, channel: u32, now: SimTime) {
        debug_assert_eq!(self.disp.ready.at, Some(now), "a command issued outside a round");
        let per_channel = self.array.geometry().luns_per_channel;
        for lun in channel * per_channel..(channel + 1) * per_channel {
            self.refresh_lun(lun, now);
        }
    }

    /// Bring the ready sets to `now` at the start of a scheduling round:
    /// ask again the LUNs whose answer has run out, and only those. A LUN
    /// idle at the last round stays idle until a command goes to its
    /// channel (its answer never runs out, and that site refreshes it), a
    /// busy one is left alone until the instant the array named, and a
    /// round at the instant of the last one asks nothing — all of which
    /// holds only while the clock does not run backwards, so a round
    /// earlier than the last asks every LUN.
    fn refresh_ready(&mut self, now: SimTime) {
        if self.disp.ready.at == Some(now) {
            return;
        }
        let backwards = self.disp.ready.at > Some(now);
        for lun in 0..self.array.geometry().total_luns() {
            if backwards || self.disp.ready.until[lun as usize] <= now {
                self.refresh_lun(lun, now);
            }
        }
        self.disp.ready.at = Some(now);
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

    /// Where a read op's source page sits right now — resolved when the
    /// op issues (and when the scan queue or the debug oracle probes it),
    /// since the mapping moves while the op waits. `None`: there is
    /// nothing (left) to read and the op is consumed without flash IO.
    /// Not a read op: `None`.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "names the kinds that begin with an array read; every other kind reads nothing"
    )]
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
                let ppn = g.page_index(from);
                recount.enqueued(ppn);
                if self.move_superseded(from) {
                    recount.invalidated(ppn, g.lun_index(from.channel, from.lun));
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
            for (key, head) in pending.lanes(group) {
                let LaneKey::ReadFrom { lun } = key else {
                    assert!(!walk(head).any(mapped), "{key:?} holds a mapped read");
                    continue;
                };
                assert!(
                    lun.is_some() || head == NO_SLOT,
                    "a read with nothing to read outlived its scheduling round"
                );
                let mut last = None;
                for op in walk(head) {
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

    /// Both sides of ready-set dispatch are what a recount gives: every
    /// family's waiting set is the LUNs whose lane holds an op, and the
    /// ready sets are, LUN by LUN, what the array answers at the instant
    /// of the last round (nothing but that round's own issues, which
    /// refresh their channel, has touched the array since). Allocation-free:
    /// debug builds run it after every scheduling round.
    pub(super) fn check_ready_sets(&self) {
        self.disp.pending.check_waiting();
        let ready = &self.disp.ready;
        let Some(at) = ready.at else { return };
        let g = self.array.geometry();
        for lun in 0..g.total_luns() {
            let idle = self.lun_idle(lun, at);
            let cached = self.cfg.use_cached_program
                && self.lun_ready(lun, at).0 == LunReady::CachedProgram;
            assert_eq!(ready.idle.get(lun), idle, "idle set stale at LUN {lun}, {at:?}");
            assert_eq!(
                ready.program.get(lun),
                idle || cached,
                "program set stale at LUN {lun}, {at:?}"
            );
        }
    }

    /// Whether the source page of a queued `GcMove` has been invalidated
    /// since it was queued (the op is then consumed without flash IO).
    fn move_superseded(&self, from: PhysicalAddr) -> bool {
        self.reverse[self.array.geometry().page_index(from) as usize].is_none()
    }

    /// Whether `op`, of a kind that waits in a scan queue, could issue
    /// right now: each asks about exactly the address it will use.
    fn scan_op_issuable(&self, op: &PendingOp, now: SimTime) -> bool {
        match op.kind {
            PendKind::Transfer { addr, .. } => {
                self.cmd_resources_free(&FlashCommand::TransferOut(addr), now)
            }
            PendKind::Erase { block, .. } => {
                self.cmd_resources_free(&FlashCommand::Erase(block), now)
            }
            PendKind::WbRead { .. } | PendKind::MergeRead => match self.read_source(&op.kind) {
                None => true, // nothing to read any more: consumed instantly
                Some(addr) => self.cmd_resources_free(&FlashCommand::ReadStart(addr), now),
            },
            PendKind::HybridWrite { what } => {
                let FtlKind::Hybrid(h) = &self.ftl else { return false };
                match h.place(what.lpn()) {
                    HybridPlace::Append(ppn) => {
                        let addr = self.array.geometry().page_at(ppn);
                        self.program_ok(addr, now)
                    }
                    // Waiting on a log block or a merge (maintenance's job).
                    HybridPlace::NeedsLogBlock { .. }
                    | HybridPlace::NeedsSeqMerge
                    | HybridPlace::AwaitSequential
                    | HybridPlace::NeedsMerge => false,
                }
            }
            PendKind::MergeProgram { .. } => {
                let cur = self.merge.cur();
                let addr = self.array.geometry().page_at(cur.dest + cur.next as u64);
                self.program_ok(addr, now)
            }
            PendKind::CkptWrite => self.program_ok(self.ckpt_next_program().1, now),
            PendKind::Write { .. }
            | PendKind::GcMove { .. }
            | PendKind::AppRead { .. }
            | PendKind::MapFetchRead { .. } => unreachable!("{:?} waits in a lane", op.kind),
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
            self.gc_trigger(now);
        }
        self.maybe_checkpoint(now);
        self.maybe_scrub(now);
        self.refresh_ready(now);
        // Each round compares at most one candidate per live group (the
        // group's first issuable op dominates the rest of it under every
        // policy), and finding it visits the lanes that hold an op *and*
        // whose LUN can take it, plus the blocked prefix of the scan queue
        // — so per-issue cost tracks the live (class, tag) groups and the
        // candidates found, not the lanes that exist nor the number of
        // queued writes, relocations or reads — and the reused scratch
        // buffers keep the loop allocation-free.
        loop {
            // Hardware necessity: pending transfers hold LUN registers
            // hostage, so they always go first (from their own group —
            // no scan over non-transfer ops).
            const TRANSFERS: u32 = PendingSet::<PendingOp>::TRANSFER_GROUP;
            if self.disp.pending.group_len(TRANSFERS) != 0 {
                let t = self.first_issuable(TRANSFERS, now);
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
                let slot = self.first_issuable(q, now);
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
        #[cfg(debug_assertions)]
        {
            self.check_queued_reads();
            self.check_ready_sets();
        }
    }

    /// First op in `group` that could issue right now, or `NO_SLOT`.
    ///
    /// The group's order-scan queue is probed in FIFO order. Of each lane
    /// family only the lanes in `waiting ∩ eligible` are visited, each
    /// contributing its head (the LUN being eligible proves the head
    /// issuable, as every other lane's not being so proves it blocked —
    /// its ops share one issuability predicate): mapped reads on idle LUNs
    /// (and the unbound lane, whose ops have nothing left to read);
    /// relocation reads on idle LUNs and, walked for its first superseded
    /// move, on LUNs that count one queued; bound writes on LUNs that can
    /// take a program and on which their stream can place one; the unbound
    /// write lane if there is any such LUN. The min-seq winner is exactly
    /// the op a single merged FIFO would have yielded: a lane head has the
    /// smallest seq of its key, and any issuable lane op is either
    /// superseded or implies its head (same predicate, smaller seq)
    /// issuable too. Debug builds check that against
    /// [`Self::first_issuable_reference`] on every call.
    fn first_issuable(&self, group: u32, now: SimTime) -> u32 {
        let pending = &self.disp.pending;
        let ready = &self.disp.ready;
        let mut best = Oldest { slot: NO_SLOT, seq: u64::MAX };
        let mut cur = pending.scan_head(group);
        while cur != NO_SLOT {
            if self.scan_op_issuable(pending.get(cur), now) {
                best.offer(pending, cur);
                break;
            }
            cur = pending.next(cur);
        }
        for lanes in pending.families(group) {
            let head = |lun| pending.head(lanes, lun);
            let waiting = lanes.waiting().words().iter();
            let idle = ready.idle.words().iter();
            match lanes.family() {
                Family::ReadFrom => {
                    // Nothing left to read: consumed whatever the LUNs do.
                    best.offer(pending, head(None));
                    for lun in ones(waiting.zip(idle).map(|(w, i)| w & i)) {
                        best.offer(pending, head(Some(lun)));
                    }
                }
                Family::MoveFrom => {
                    let superseded = self.disp.moves.superseded_luns.words().iter();
                    let eligible = idle.zip(superseded).map(|(i, s)| i | s);
                    for lun in ones(waiting.zip(eligible).map(|(w, e)| w & e)) {
                        let slot = match head(Some(lun)) {
                            head if ready.idle.get(lun) => head,
                            head => self.first_superseded(head, best.seq),
                        };
                        best.offer(pending, slot);
                    }
                }
                Family::Write(stream) => {
                    let can_program =
                        |lun| ready.can_program(lun, stream, &self.alloc, &self.array, now);
                    let program = ready.program.words().iter();
                    for lun in ones(waiting.zip(program).map(|(w, p)| w & p)) {
                        best.offer_if(pending, head(Some(lun)), || can_program(lun));
                    }
                    // Unbound: wherever the stream could place a page now.
                    best.offer_if(pending, head(None), || ready.program.ones().any(can_program));
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(best.slot, self.first_issuable_reference(group, now), "lane ≠ merged FIFO");
        best.slot
    }

    /// The lane exception: the first op from `head` on, in a relocation
    /// lane whose LUN is busy but counts a superseded move queued, with
    /// seq below `limit`, that can go although its lane is blocked — a
    /// superseded move (the count is per LUN, so the op may turn out to
    /// sit in another group's lane). `NO_SLOT` if there is none.
    fn first_superseded(&self, head: u32, limit: u64) -> u32 {
        let pending = &self.disp.pending;
        let mut cur = head;
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
}

/// The reference the lanes and sets must reproduce, kept out of release
/// builds: every predicate asked per op, of the array, the long way.
#[cfg(debug_assertions)]
impl Controller {
    /// A program for `stream` could start on `lun` right now: either the
    /// LUN is idle, or (cached programming) the stream's next page extends
    /// the block the LUN is currently programming.
    fn can_program_on(&self, lun: u32, stream: Stream, now: SimTime) -> bool {
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

    /// Whether `op` could issue (or be consumed) right now. `memo` caches
    /// write-issuability per `(LUN, stream)` within one reference scan.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "names the kinds with a lane-head shortcut; every other kind takes scan_op_issuable's exhaustive match"
    )]
    fn op_issuable(&self, op: &PendingOp, now: SimTime, memo: &mut WriteMemo) -> bool {
        match op.kind {
            PendKind::GcMove { from, .. } => {
                // Superseded: consumed without flash IO.
                self.move_superseded(from)
                    || self.cmd_resources_free(&FlashCommand::ReadStart(from), now)
            }
            PendKind::AppRead { .. } | PendKind::MapFetchRead { .. } => {
                match self.read_source(&op.kind) {
                    None => true, // nothing to read any more: consumed instantly
                    Some(addr) => self.cmd_resources_free(&FlashCommand::ReadStart(addr), now),
                }
            }
            PendKind::Write { lun, stream, .. } => {
                if let Some(&(_, ok)) = memo.iter().find(|&&(k, _)| k == (lun, stream)) {
                    return ok;
                }
                let ok = match lun {
                    Some(l) => self.can_program_on(l, stream, now),
                    None => {
                        let g = self.array.geometry();
                        (0..g.total_luns()).any(|l| self.can_program_on(l, stream, now))
                    }
                };
                memo.push(((lun, stream), ok));
                ok
            }
            _ => self.scan_op_issuable(op, now),
        }
    }

    /// The merged-FIFO semantics `first_issuable` must reproduce: the
    /// min-seq op over every queue of the group, walked full length, for
    /// which `op_issuable` holds. Reads neither the waiting sets nor the
    /// ready sets.
    fn first_issuable_reference(&self, group: u32, now: SimTime) -> u32 {
        let pending = &self.disp.pending;
        let mut memo = WriteMemo::new();
        let heads = std::iter::once(pending.scan_head(group))
            .chain(pending.lanes(group).map(|(_, head)| head));
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
