//! The SSD controller: orchestration of mapping, GC, wear leveling and
//! scheduling over the flash array.
//!
//! The controller owns an internal event agenda (flash completions and
//! scheduler wake-ups) and exposes a pull interface to the OS layer:
//! [`Controller::submit`] accepts requests, [`Controller::next_event_time`]
//! reports when something internal happens next, and
//! [`Controller::advance`] processes the agenda up to a virtual instant and
//! returns request completions. All policy — *which* pending flash
//! operation issues next and *where* unbound writes land — is delegated to
//! the configured [`crate::sched::SchedPolicy`] and write allocator — precisely
//! the design space the paper exposes.
//!
//! This module owns the shared device state every subsystem reads and
//! writes — the flash array, the FTL, the write allocator, the counters,
//! the span collector and the lost-data ledger — and routes completions.
//! What a physical page holds is the array's record, not a controller
//! copy: its page state and the tag its program left in the OOB
//! ([`Controller::content_at`]). Each state machine lives in its own
//! module with the state it owns:
//!
//! * `host` — in-flight application requests, write buffer, completions;
//! * `dispatch` — the pending set, the event agenda, the scheduling round;
//! * `issue` — (no state) pending op → flash command, one path per verb;
//! * `reclaim` — GC / static-WL / scrub victim jobs and every erase's end;
//! * `merge` — hybrid log-block merge jobs;
//! * `mapio` — DFTL translation fetches and writebacks;
//! * `checkpoint` — reserved slots, committed record, and the rules of the
//!   trim journal;
//! * `stamps` — the OOB program-stamp counter and in-flight stamps;
//! * `mount` — (no state) the one assembly path behind `new` / `remount`;
//! * `stats` — the counter structs and derived reports.

mod checkpoint;
#[cfg(test)]
mod content_tests;
mod dispatch;
#[cfg(test)]
mod gc_guard_tests;
mod host;
mod issue;
mod mapio;
mod merge;
mod mount;
#[cfg(test)]
mod move_lane_tests;
#[cfg(test)]
mod read_lane_tests;
#[cfg(test)]
mod ready_set_tests;
mod reclaim;
mod stamps;
mod stats;

use std::collections::{BTreeMap, BTreeSet};

use eagletree_core::{Obs, ObsConfig, SimTime};
use eagletree_flash::{
    BlockAddr, FaultEvent, FlashArray, IssueOutcome, MemoryManager, OobTag, PageState,
};

use crate::alloc::Allocator;
use crate::buffer::WriteBuffer;
use crate::config::ControllerConfig;
use crate::ftl::{FtlKind, Hybrid, HybridStats};
use crate::types::{Completion, Lpn, Ppn};
use dispatch::{CtrlEvent, DoneWhat, PendKind, XferDone};

pub use stats::{CtrlStats, MergeCounters, ReliabilityStats, Stuck};

/// The simulated SSD controller.
pub struct Controller {
    array: FlashArray,
    ftl: FtlKind,
    alloc: Allocator,
    cfg: ControllerConfig,
    mem: MemoryManager,
    logical_pages: u64,
    stats: CtrlStats,
    /// Lifecycle-span collector (`ObsConfig::span_capacity > 0`). Boxed
    /// so the disabled default costs one pointer; pure observation — it
    /// never feeds back into scheduling, timing or the RNG.
    obs: Option<Box<Obs>>,
    /// The lost-data ledger: logical pages whose content hit uncorrectable
    /// bit errors. Deterministically ordered; only populated with a fault
    /// model installed.
    lost_lpns: BTreeSet<Lpn>,
    host: host::HostIo,
    disp: dispatch::Dispatch,
    reclaim: reclaim::Reclaim,
    merge: merge::Merges,
    mapio: mapio::MapIo,
    /// Periodic mapping checkpoint, when configured.
    ckpt: Option<checkpoint::CkptState>,
    /// The trim journal: lpn → the content version (`seq`) of the newest
    /// copy a trim discarded. The one floor that a live commit
    /// ([`Self::drop_if_behind`]) and checkpoint replay both read: a copy
    /// of the page at or below it is stale. Pruned at each checkpoint
    /// once the page is mapped again. Deterministically ordered, so
    /// snapshots are reproducible.
    trims: BTreeMap<Lpn, u64>,
    stamps: stamps::Stamps,
}

impl Controller {
    /// Number of logical pages the device exports.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The underlying flash array (wear metrics, utilization, counters).
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Controller counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Internal agenda events processed so far (completions + wake-ups).
    pub fn events_processed(&self) -> u64 {
        self.disp.events.popped()
    }

    /// Logical pages whose acknowledged content hit an uncorrectable read
    /// (the lost-data ledger), in ascending LPN order.
    pub fn lost_data(&self) -> impl Iterator<Item = Lpn> + '_ {
        self.lost_lpns.iter().copied()
    }

    /// Total agenda queue operations (schedules + pops) so far: the
    /// event-engine work metric the E18 sweep reports.
    pub fn queue_ops(&self) -> u64 {
        self.disp.events.scheduled() + self.disp.events.popped()
    }

    /// The memory manager (RAM budget introspection).
    pub fn memory(&self) -> &MemoryManager {
        &self.mem
    }

    /// DFTL cost-model counters, when DFTL is configured.
    pub fn dftl_stats(&self) -> Option<crate::ftl::DftlStats> {
        match &self.ftl {
            FtlKind::Dftl(d) => Some(d.stats()),
            FtlKind::PageMap(_) | FtlKind::Hybrid(_) => None,
        }
    }

    /// Hybrid-FTL scheme counters, when the hybrid mapping is configured.
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        match &self.ftl {
            FtlKind::Hybrid(h) => Some(h.stats()),
            FtlKind::PageMap(_) | FtlKind::Dftl(_) => None,
        }
    }

    fn hybrid_mut(&mut self) -> &mut Hybrid {
        match &mut self.ftl {
            FtlKind::Hybrid(h) => h,
            FtlKind::PageMap(_) | FtlKind::Dftl(_) => {
                panic!("hybrid operation outside hybrid mapping")
            }
        }
    }

    fn is_hybrid(&self) -> bool {
        matches!(self.ftl, FtlKind::Hybrid(_))
    }

    /// Authoritative mapping of `lpn`, bypassing the DFTL cost model.
    /// For tests and invariant checks.
    pub fn peek_mapping(&self, lpn: Lpn) -> Option<Ppn> {
        self.ftl.peek(lpn)
    }

    /// The write buffer, when configured.
    pub fn write_buffer(&self) -> Option<&WriteBuffer> {
        self.host.buffer.as_ref()
    }

    /// The span collector, when `ObsConfig::span_capacity > 0`.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }

    /// Mutable span collector (the OS layer opens host spans through
    /// this).
    pub fn obs_mut(&mut self) -> Option<&mut Obs> {
        self.obs.as_deref_mut()
    }

    /// The configured observability knobs.
    pub fn obs_config(&self) -> ObsConfig {
        self.cfg.obs
    }

    /// Display names of the span LUN tracks, index-aligned with
    /// [`eagletree_core::Span`] busy-slice lane ids: "misc", then one per
    /// LUN in geometry order ("ch0/lun0", …). For Perfetto export and
    /// gantt rendering.
    pub fn obs_lane_names(&self) -> Vec<String> {
        let g = self.array.geometry();
        std::iter::once("misc".to_string())
            .chain((0..g.channels).flat_map(|c| {
                (0..g.luns_per_channel).map(move |l| format!("ch{c}/lun{l}"))
            }))
            .collect()
    }

    /// Whether `lpn`'s latest contents sit in the write buffer.
    pub fn is_buffered(&self, lpn: Lpn) -> bool {
        self.host.buffer.as_ref().is_some_and(|b| b.contains(lpn))
    }

    /// True when no work is pending, in flight, or scheduled.
    pub fn is_quiescent(&self) -> bool {
        self.disp.pending.is_empty() && self.disp.events.is_empty() && self.host.is_idle()
    }

    /// Earliest internal event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.disp.events.peek_time()
    }

    /// Process internal events up to and including `now`; return completed
    /// requests. A fresh `Vec` per call that completes something:
    /// [`Controller::advance_into`] reuses the caller's.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// [`Controller::advance`] into `done`, whose contents it replaces. The
    /// controller collects completions in a buffer of its own and swaps it
    /// with `done`: a host that hands the same `Vec` back every call keeps
    /// both buffers' capacity, so collecting allocates nothing once they
    /// have grown.
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<Completion>) {
        while let Some(t) = self.disp.events.peek_time() {
            if t > now {
                break;
            }
            let ev = self.disp.events.pop().expect("peeked event");
            match ev.payload {
                CtrlEvent::Wake => {}
                CtrlEvent::Done(d) => self.handle_done(d, ev.time),
            }
            self.run_sched(ev.time);
        }
        done.clear();
        std::mem::swap(&mut self.host.completions, done);
    }

    /// The single place a physical page's content dies — which is what
    /// lets `disp.moves` count the queued `GcMove`s it supersedes, and
    /// queued mapped reads follow their page: every handler that moves a
    /// mapping away from a live page calls this for the old page before
    /// the next scheduling round.
    fn invalidate_ppn(&mut self, ppn: Ppn) {
        let lun = self.array.geometry().lun_of_page(ppn);
        self.array.invalidate_at(ppn);
        self.disp.moves.invalidated(ppn, lun);
        self.reads_follow(ppn, lun);
    }

    /// What physical page `ppn` holds: the tag its program left in the
    /// OOB, while the page is `Valid` (a merge filler holds nothing). The
    /// array is the one record of page content, as a real FTL learns what
    /// a victim's page holds from its spare area.
    fn content_at(&self, ppn: Ppn) -> Option<OobTag> {
        (self.array.page_state_at(ppn) == PageState::Valid)
            .then(|| self.array.oob_at(ppn).expect("a valid page carries its OOB").tag)
            .filter(|&tag| tag != OobTag::Filler)
    }

    /// Ledger an uncorrectable read of application data: `lpn` is the
    /// logical page whose content the read carried, if any (translation
    /// and checkpoint pages are rebuilt from RAM state and not ledgered).
    fn note_read_fault(&mut self, out: &IssueOutcome, lpn: Option<Lpn>) {
        if let Some(FaultEvent::Read(o)) = out.fault {
            if o.uncorrectable {
                if let Some(lpn) = lpn {
                    self.lost_lpns.insert(lpn);
                }
            }
        }
    }

    /// The logical page a page tagged `tag` carries, for the ledger.
    fn data_lpn(tag: OobTag) -> Option<Lpn> {
        match tag {
            OobTag::Data { lpn } => Some(lpn),
            OobTag::Translation { .. } | OobTag::Filler | OobTag::Checkpoint { .. } => None,
        }
    }

    /// Route a completion to the state machine that owns it.
    fn handle_done(&mut self, d: DoneWhat, now: SimTime) {
        match d {
            // The read-hop's second leg: every array read, whoever issued
            // it, next needs its channel transfer.
            DoneWhat::ReadArray { addr, class, tag, then } => {
                self.enqueue(class, tag, now, PendKind::Transfer { addr, done: then });
            }
            DoneWhat::Xfer(XferDone::App { id }) => self.complete_app(id, now),
            DoneWhat::Xfer(XferDone::Gc { job, from }) => self.gc_xfer_done(job, from, now),
            DoneWhat::Xfer(XferDone::MapFetch { tvpn }) => self.fetch_done(tvpn, now),
            DoneWhat::Xfer(XferDone::Wb { wb }) => self.enqueue_translation_write(wb, now),
            DoneWhat::Xfer(XferDone::Merge { from }) => self.merge_xfer_done(from, now),
            DoneWhat::AppWriteDone { id, lpn, ppn } => self.app_write_done(id, lpn, ppn, now),
            DoneWhat::MoveDone { job, from_ppn, new } => {
                self.finalize_move(job, from_ppn, new, now);
            }
            DoneWhat::EraseDone { block, owner } => self.erase_done(block, owner, now),
            DoneWhat::WbWrite { wb, new } => self.wb_write_done(wb, new),
            DoneWhat::FlushDone { lpn, version, ppn } => self.flush_done(lpn, version, ppn, now),
            DoneWhat::MergeProgDone { from, dest } => {
                self.merge_prog_done(from, dest, now);
            }
            DoneWhat::CkptWriteDone => self.ckpt_write_done(now),
            DoneWhat::Failed { slot } => self.command_failed(slot, now),
        }
    }

    /// Verify cross-structure invariants. Intended for tests at quiescent
    /// points (no in-flight operations).
    pub fn check_invariants(&self) {
        let g = *self.array.geometry();
        // Every valid physical page holds content its map points back at.
        let ppb = g.pages_per_block as u64;
        for ppn in 0..g.total_pages() {
            match self.content_at(ppn) {
                Some(OobTag::Data { lpn }) => {
                    assert_eq!(
                        self.ftl.peek(lpn),
                        Some(ppn),
                        "forward map disagrees with page {ppn}'s OOB for lpn {lpn}"
                    );
                }
                Some(OobTag::Translation { tvpn }) => {
                    assert_eq!(
                        self.ftl.translation_location(tvpn),
                        Some(ppn),
                        "GTD disagrees with page {ppn}'s OOB for tvpn {tvpn}"
                    );
                }
                Some(OobTag::Checkpoint { .. }) => {
                    assert!(
                        self.is_ckpt_reserved(g.block_at(ppn / ppb)),
                        "checkpoint page outside the reserved slots"
                    );
                }
                Some(OobTag::Filler) | None => {
                    let state = self.array.page_state_at(ppn);
                    assert_ne!(state, PageState::Valid, "valid page {ppn} holds nothing");
                }
            }
        }
        // Forward map targets are valid pages.
        for lpn in 0..self.logical_pages {
            if let Some(ppn) = self.ftl.peek(lpn) {
                assert_eq!(
                    self.content_at(ppn),
                    Some(OobTag::Data { lpn }),
                    "lpn {lpn} maps to page not owned by it"
                );
            }
        }
        // Hybrid discipline: a data block's valid pages sit at their
        // logical offsets (block mapping would be meaningless otherwise).
        if let FtlKind::Hybrid(h) = &self.ftl {
            for lbn in 0..h.lbn_count() {
                let Some(base) = h.data_block(lbn) else { continue };
                for o in 0..ppb {
                    if self.array.page_state_at(base + o) == PageState::Valid {
                        let lpn = lbn * ppb + o;
                        assert_eq!(
                            self.content_at(base + o),
                            Some(OobTag::Data { lpn }),
                            "data block of lbn {lbn} holds a misaligned page at offset {o}"
                        );
                    }
                }
            }
        }
        self.check_queued_moves();
        self.check_queued_reads();
        self.check_ready_sets();
        self.check_gc_sets();
        // Allocator free-block accounting matches the array.
        for lun in 0..g.total_luns() {
            let channel = lun / g.luns_per_channel;
            let l = lun % g.luns_per_channel;
            let free_in_alloc = self.alloc.free_blocks(lun);
            let blocks = || {
                (0..g.planes_per_lun).flat_map(move |plane| {
                    (0..g.blocks_per_plane).map(move |block| BlockAddr {
                        channel,
                        lun: l,
                        plane,
                        block,
                    })
                })
            };
            let empty_blocks = blocks()
                .filter(|&b| self.array.block_info(b).write_ptr == 0)
                .count();
            assert!(
                free_in_alloc <= empty_blocks,
                "allocator believes more blocks free than are empty on lun {lun}"
            );
            // The count that lets GC skip a victim search matches the blocks.
            assert_eq!(
                self.array.reclaimable_on(lun) as usize,
                blocks().filter(|&b| self.array.is_reclaimable(b)).count(),
                "reclaimable-block count drifted on lun {lun}"
            );
        }
    }
}

