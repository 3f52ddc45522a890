//! Reclaim and relocation: GC, static wear leveling and scrub refreshes
//! of page-mapped blocks, and the completion of every erase.
//!
//! Owns [`Reclaim`] — the victim jobs (one per block being evacuated), the
//! set of blocks already claimed, per-LUN job counts, the RNG of the
//! random victim policy, and the three trigger counters (erases since the
//! last static-WL check, flash ops since the last scrub check, scrub
//! refreshes in flight). All three triggers drive the same machine: move
//! every live page of the victim (`PendKind::GcMove`), then erase it.
//!
//! **The GC trigger is kept, not scanned.** GC is due on a LUN short of
//! free blocks (the allocator keeps that set where its free lists change)
//! with no reclaim job (kept here, where `active` changes): each round
//! visits `short ∩ jobless` and nothing else. And a visit searches for a
//! victim only where one exists: on a LUN with no job, the blocks a search
//! skips are exactly its open and reserved checkpoint blocks, so counting
//! those against the array's reclaimable count answers without a search.

use eagletree_core::{SimRng, SimTime, Slab};
use eagletree_flash::{BlockAddr, Geometry, OobTag, PageState, PhysicalAddr};

use super::dispatch::{EraseOwner, PendKind, WriteWhat};
use super::Controller;
use crate::alloc::Stream;
use crate::bits::BitSet;
use crate::config::GcConfig;
use crate::gc::{pick_victim, ReclaimJob};
use crate::scrub::pick_scrub_victim;
use crate::types::{IoSource, OpClass, Ppn};
use crate::wear::pick_wl_victim;

pub(super) struct Reclaim {
    pub(super) jobs: Slab<ReclaimJob>,
    /// The blocks being evacuated, by [`Geometry::block_index`].
    victims: BitSet,
    /// Reclaim jobs in flight per LUN (GC starts at most one).
    active: Vec<u32>,
    /// The LUNs whose `active` count is zero.
    jobless: BitSet,
    rng: SimRng,
    erases_since_wl: u32,
    /// Flash ops issued since the scrubber last looked for a victim.
    pub(super) ops_since_scrub: u64,
    /// Scrub refresh jobs currently in flight (bounded by
    /// `ScrubConfig::max_inflight`).
    pub(super) scrub_inflight: usize,
}

impl Reclaim {
    pub(super) fn new(geometry: &Geometry, seed: u64) -> Self {
        Reclaim {
            jobs: Slab::default(),
            victims: BitSet::new(geometry.total_blocks()),
            active: vec![0; geometry.total_luns() as usize],
            jobless: {
                let mut all = BitSet::new(geometry.total_luns().into());
                (0..geometry.total_luns()).for_each(|lun| all.set(lun));
                all
            },
            rng: SimRng::new(seed),
            erases_since_wl: 0,
            ops_since_scrub: 0,
            scrub_inflight: 0,
        }
    }
}

/// `(read, write)` op classes of a relocation driven by `source`: wear-
/// leveling and scrub traffic bill to their own classes under every
/// mapping scheme, everything else to `own` (the GC classes for reclaim
/// jobs, the merge classes for hybrid merges).
pub(super) fn move_classes(source: IoSource, own: (OpClass, OpClass)) -> (OpClass, OpClass) {
    match source {
        IoSource::WearLeveling => (OpClass::WlRead, OpClass::WlWrite),
        IoSource::Scrub => (OpClass::ScrubRead, OpClass::ScrubWrite),
        IoSource::Application
        | IoSource::GarbageCollection
        | IoSource::Mapping
        | IoSource::Merge => own,
    }
}

const GC_CLASSES: (OpClass, OpClass) = (OpClass::GcRead, OpClass::GcWrite);

/// Effective GC trigger threshold: collect while `free < floor`.
///
/// The floor is at least 2 regardless of the configured greediness:
/// the allocator reserves the last free block for internal streams, so
/// application writes need two free blocks to open a fresh one —
/// a floor of 1 would deadlock (GC never triggers, app never writes).
/// Strictly-below is essential: triggering at equality makes GC
/// repack the device forever once free blocks settle at the threshold.
pub(super) fn gc_floor(gc: &GcConfig) -> usize {
    (gc.greediness as usize).max(2)
}

impl Controller {
    pub(super) fn reclaim_skip_set(&self) -> impl Fn(BlockAddr) -> bool + '_ {
        let geometry = self.array.geometry();
        move |b: BlockAddr| {
            self.reclaim.victims.get(geometry.block_index(b))
                || self.alloc.is_free(b)
                || self.alloc.is_active(b)
                || self.is_ckpt_reserved(b)
        }
    }

    /// Start GC wherever it is due: on every LUN short of free blocks and
    /// with no reclaim job, in ascending order — the order of a scan over
    /// every LUN, which the Random policy's draws follow. A visit changes
    /// no other LUN's membership of either set, so each word of the
    /// intersection is read once, before its LUNs are visited.
    pub(super) fn gc_trigger(&mut self, now: SimTime) {
        for w in 0..self.reclaim.jobless.words().len() {
            let mut due = self.alloc.short_luns().words()[w] & self.reclaim.jobless.words()[w];
            while due != 0 {
                let lun = w as u32 * 64 + due.trailing_zeros();
                due &= due - 1;
                self.maybe_gc(lun, now);
            }
        }
        #[cfg(debug_assertions)]
        {
            self.check_gc_sets();
            let short = self.alloc.short_luns().words().iter();
            let due = short.zip(self.reclaim.jobless.words()).map(|(s, j)| s & j);
            for lun in crate::bits::ones(due) {
                assert!(!self.gc_victim_possible(lun), "the GC trigger left LUN {lun} a victim");
            }
        }
    }

    /// `lun` is short and has no reclaim job: start one on its victim, if
    /// it has one.
    fn maybe_gc(&mut self, lun: u32, now: SimTime) {
        if !self.gc_victim_possible(lun) {
            #[cfg(debug_assertions)]
            assert_eq!(
                self.gc_victim_search(lun, &mut self.reclaim.rng.clone(), now),
                None,
                "the victim guard missed a candidate on LUN {lun}"
            );
            return;
        }
        let mut rng = self.reclaim.rng.clone();
        let victim = self.gc_victim_search(lun, &mut rng, now);
        self.reclaim.rng = rng;
        let victim = victim.expect("the victim guard promised a candidate");
        self.start_reclaim(victim, lun, IoSource::GarbageCollection, now);
    }

    /// The GC policy's victim on `lun`, drawing from `rng`.
    pub(super) fn gc_victim_search(
        &self,
        lun: u32,
        rng: &mut SimRng,
        now: SimTime,
    ) -> Option<BlockAddr> {
        let skip = self.reclaim_skip_set();
        pick_victim(&self.array, lun, self.cfg.gc.victim, skip, rng, now)
    }

    /// Whether [`Self::gc_victim_search`] finds a victim on `lun`, a LUN
    /// with no reclaim job, without searching. Of the blocks it skips,
    /// none on such a LUN is a victim and no free block is reclaimable, so
    /// it finds one exactly when the LUN's reclaimable blocks outnumber
    /// those among its open and reserved checkpoint blocks. Answering
    /// `false` is no search, and no draw from the RNG either — Random
    /// would have counted no candidate.
    pub(super) fn gc_victim_possible(&self, lun: u32) -> bool {
        let reclaimable = self.array.reclaimable_on(lun) as usize;
        if reclaimable == 0 {
            return false;
        }
        let g = self.array.geometry();
        let reserved = self.ckpt_blocks().filter(|b| g.lun_index(b.channel, b.lun) == lun);
        let skipped = self.alloc.open_blocks(lun).chain(reserved);
        reclaimable > skipped.filter(|&b| self.array.is_reclaimable(b)).count()
    }

    /// The GC policy's victim on each LUN with no reclaim job, ascending,
    /// each drawn from a copy of the reclaim RNG.
    #[cfg(test)]
    pub(super) fn gc_victims_on_clone(&self, now: SimTime) -> Vec<(u32, Option<BlockAddr>)> {
        let search = |lun| (lun, self.gc_victim_search(lun, &mut self.reclaim.rng.clone(), now));
        self.reclaim.jobless.ones().map(search).collect()
    }

    /// The GC trigger's sets are what a recount gives: `short` the LUNs
    /// with fewer free blocks than the floor, `jobless` those with no
    /// reclaim job. Allocation-free: debug builds run it every round.
    pub(super) fn check_gc_sets(&self) {
        for lun in 0..self.array.geometry().total_luns() {
            let short = self.alloc.free_blocks(lun) < self.alloc.gc_floor();
            let jobless = self.reclaim.active[lun as usize] == 0;
            assert_eq!(self.alloc.short_luns().get(lun), short, "short set stale at LUN {lun}");
            assert_eq!(self.reclaim.jobless.get(lun), jobless, "jobless set stale at LUN {lun}");
        }
    }

    fn maybe_wl(&mut self, now: SimTime) {
        let victim = {
            let skip = self.reclaim_skip_set();
            pick_wl_victim(&self.array, now, &self.cfg.wl, skip)
        };
        if let Some(victim) = victim {
            let lun = self.array.geometry().lun_index(victim.channel, victim.lun);
            self.start_reclaim(victim, lun, IoSource::WearLeveling, now);
        }
    }

    /// Every `check_every_ops` issued flash ops, look for a block whose
    /// read-disturb count or retention age crossed the scrub thresholds
    /// and refresh it: evacuate-and-erase through the reclaim machinery
    /// (page-mapped schemes) or a refresh merge (hybrid). The refresh IO
    /// rides the scheduler as `ScrubRead`/`ScrubWrite`, competing with
    /// application traffic under the configured policy.
    pub(super) fn maybe_scrub(&mut self, now: SimTime) {
        let Some(sc) = self.cfg.scrub else { return };
        if self.reclaim.ops_since_scrub < sc.check_every_ops {
            return;
        }
        self.reclaim.ops_since_scrub = 0;
        if self.reclaim.scrub_inflight >= sc.max_inflight {
            return;
        }
        if self.is_hybrid() {
            self.refresh_merge(IoSource::Scrub, now);
            return;
        }
        let victim = {
            let skip = self.reclaim_skip_set();
            pick_scrub_victim(&self.array, &sc, now, skip)
        };
        if let Some(victim) = victim {
            let lun = self.array.geometry().lun_index(victim.channel, victim.lun);
            self.reclaim.scrub_inflight += 1;
            self.stats.scrub_refreshes += 1;
            self.start_reclaim(victim, lun, IoSource::Scrub, now);
        }
    }

    fn start_reclaim(&mut self, victim: BlockAddr, lun: u32, source: IoSource, now: SimTime) {
        let valid = self.array.valid_pages_in(victim);
        let job_id = self
            .reclaim
            .jobs
            .insert(ReclaimJob::new(victim, lun, source, valid.len() as u32));
        let victim_index = self.array.geometry().block_index(victim);
        self.reclaim.victims.set(victim_index);
        self.reclaim.active[lun as usize] += 1;
        self.reclaim.jobless.clear(lun);
        if valid.is_empty() {
            self.enqueue_erase(job_id, victim, now);
        } else {
            let (class, _) = move_classes(source, GC_CLASSES);
            for from in valid {
                self.enqueue(class, None, now, PendKind::GcMove { job: job_id, from });
            }
        }
    }

    fn enqueue_erase(&mut self, job: usize, block: BlockAddr, now: SimTime) {
        self.reclaim.jobs[job].erase_enqueued = true;
        let owner = EraseOwner::Reclaim { job };
        self.enqueue(OpClass::Erase, None, now, PendKind::Erase { block, owner });
    }

    /// A victim page crossed the channel: queue its program, unless it
    /// was invalidated between read and write.
    pub(super) fn gc_xfer_done(&mut self, job: usize, from: PhysicalAddr, now: SimTime) {
        let from_ppn = self.array.geometry().page_index(from);
        match self.content_at(from_ppn) {
            None => {
                // Invalidated between read and write: drop the move.
                self.stats.gc_stale += 1;
                self.move_done(job, now);
            }
            Some(tag) => {
                let j = &self.reclaim.jobs[job];
                let (_, class) = move_classes(j.source, GC_CLASSES);
                let stream = match (j.source, tag) {
                    (_, OobTag::Translation { .. }) => Stream::Translation,
                    // Static WL migrates presumed-cold data.
                    (IoSource::WearLeveling, _) => Stream::WlMove,
                    _ => Stream::Gc,
                };
                self.enqueue(
                    class,
                    None,
                    now,
                    PendKind::Write {
                        // Victims' pages migrate within their own LUN.
                        lun: Some(j.lun),
                        stream,
                        what: WriteWhat::Gc { job, from_ppn },
                    },
                );
            }
        }
    }

    /// A migration landed at `new_ppn`; commit or discard it, then advance
    /// the job toward its erase. What it carries is its source's OOB tag:
    /// the source page may be dead by now, but not yet erased. The move
    /// is still current while its source page is valid: every path that
    /// repoints a mapping invalidates the old page at the same instant.
    pub(super) fn finalize_move(&mut self, job: usize, from_ppn: Ppn, new_ppn: Ppn, now: SimTime) {
        self.landed(new_ppn);
        let tag = self.source_oob(from_ppn).tag;
        let still_current = self.array.page_state_at(from_ppn) == PageState::Valid;
        debug_assert_eq!(
            still_current,
            match tag {
                OobTag::Data { lpn } => self.ftl.peek(lpn) == Some(from_ppn),
                OobTag::Translation { tvpn } => {
                    self.ftl.translation_location(tvpn) == Some(from_ppn)
                }
                OobTag::Filler | OobTag::Checkpoint { .. } => false,
            },
            "page state and mapping disagree on relocation source {from_ppn} ({tag:?})"
        );
        if still_current {
            match tag {
                OobTag::Data { lpn } => self.ftl.relocate(lpn, new_ppn),
                OobTag::Translation { tvpn } => {
                    self.ftl.translation_written(tvpn, new_ppn);
                }
                OobTag::Filler | OobTag::Checkpoint { .. } => {
                    unreachable!("only data and translation pages are GC-migrated")
                }
            }
            self.invalidate_ppn(from_ppn);
            match self.reclaim.jobs[job].source {
                IoSource::WearLeveling => self.stats.wl_moves += 1,
                IoSource::Application
                | IoSource::GarbageCollection
                | IoSource::Mapping
                | IoSource::Merge
                | IoSource::Scrub => self.stats.gc_moves += 1,
            }
        } else {
            // A newer write superseded the page mid-migration; the fresh
            // copy is garbage on arrival.
            self.stats.gc_stale += 1;
            self.invalidate_ppn(new_ppn);
        }
        self.move_done(job, now);
    }

    pub(super) fn move_done(&mut self, job: usize, now: SimTime) {
        let ready = {
            let j = &mut self.reclaim.jobs[job];
            j.move_done() && !j.erase_enqueued
        };
        if ready {
            let block = self.reclaim.jobs[job].victim;
            self.enqueue_erase(job, block, now);
        }
    }

    /// An erase finished: the single completion path of every erase the
    /// controller issues. Retire or recycle the block, release whatever
    /// `owner` was waiting on it, and tick the static-WL trigger.
    pub(super) fn erase_done(&mut self, block: BlockAddr, owner: EraseOwner, now: SimTime) {
        let info = self.array.block_info(block);
        if info.bad {
            // Endurance exhausted: mask the block — it never returns to
            // the free pool.
            self.stats.bad_blocks_retired += 1;
        }
        let source = match owner {
            EraseOwner::Ckpt => {
                if info.bad {
                    self.replace_ckpt_block(block);
                }
                // Otherwise the block stays reserved, erased and ready.
                return;
            }
            EraseOwner::Reclaim { job } => {
                let block_index = self.array.geometry().block_index(block);
                self.reclaim.victims.clear(block_index);
                let j = self.reclaim.jobs.remove(job);
                self.reclaim.active[j.lun as usize] -= 1;
                let jobless = self.reclaim.active[j.lun as usize] == 0;
                self.reclaim.jobless.assign(j.lun, jobless);
                j.source
            }
            EraseOwner::Merge { source, completes_merge } => {
                if completes_merge {
                    self.finish_merge();
                }
                source
            }
        };
        if !info.bad {
            self.alloc.block_freed(block, info.erase_count);
        }
        match (source, owner) {
            (IoSource::WearLeveling, _) => self.stats.wl_erases += 1,
            (IoSource::Scrub, _) => {
                self.stats.scrub_erases += 1;
                self.reclaim.scrub_inflight -= 1;
            }
            (_, EraseOwner::Merge { .. }) => self.stats.merge_erases += 1,
            _ => self.stats.gc_erases += 1,
        }
        self.reclaim.erases_since_wl += 1;
        if self.cfg.wl.static_enabled
            && self.reclaim.erases_since_wl >= self.cfg.wl.check_every_erases
        {
            self.reclaim.erases_since_wl = 0;
            match owner {
                EraseOwner::Merge { .. } => self.refresh_merge(IoSource::WearLeveling, now),
                EraseOwner::Reclaim { .. } | EraseOwner::Ckpt => self.maybe_wl(now),
            }
        }
    }
}
