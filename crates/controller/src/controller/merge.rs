//! Hybrid log-block merges: the relocation engine of the hybrid mapping.
//!
//! Owns [`Merges`] — the one merge job in flight (a fold sequence ending
//! in the victim log block's erase) and the scratch of the per-pass
//! pending-write scan. Under the hybrid scheme this replaces
//! generic reclaim: log exhaustion, sequential-stream switches, static-WL
//! and scrub refreshes all become merge jobs whose copies flow through
//! the scheduler (`PendKind::MergeRead` / `MergeProgram`, erases owned by
//! `EraseOwner::Merge`).

use std::collections::BTreeSet;

use eagletree_core::SimTime;
use eagletree_flash::{BlockAddr, PageState, PhysicalAddr};

use super::dispatch::{EraseOwner, PendKind};
use super::reclaim::move_classes;
use super::Controller;
use crate::ftl::{FtlKind, HybridPlace, SwMergePlan};
use crate::gc::{FoldPlan, FoldState, MergeJob};
use crate::scrub::pick_scrub_victim;
use crate::types::{IoSource, Lpn, OpClass, Ppn};
use crate::wear::pick_wl_victim;

#[derive(Default)]
pub(super) struct Merges {
    /// At most one merge runs at a time: it bounds destination-block use
    /// and keeps fold programs in NAND page order.
    pub(super) job: Option<MergeJob>,
    /// Reusable scratch for the maintenance pass's hybrid-write scan.
    scratch: Vec<(u64, Lpn)>,
}

impl Merges {
    fn live(&self) -> &MergeJob {
        self.job.as_ref().expect("live merge job")
    }

    fn live_mut(&mut self) -> &mut MergeJob {
        self.job.as_mut().expect("live merge job")
    }

    /// What started the running merge.
    pub(super) fn source(&self) -> IoSource {
        self.live().source
    }

    /// The fold step the running merge is executing.
    pub(super) fn cur(&self) -> FoldState {
        self.live().cur.expect("merge op without an active fold")
    }
}

impl Controller {
    /// Op classes for a merge job's copies: WL and scrub refresh merges
    /// bill to their own classes, everything else to the merge classes.
    pub(super) fn merge_classes(source: IoSource) -> (OpClass, OpClass) {
        move_classes(source, (OpClass::MergeRead, OpClass::MergeWrite))
    }

    /// React to the hybrid FTL's structural needs: open log blocks for
    /// pending appends, and start (or un-stall) merge jobs when the log
    /// space is exhausted. Runs at the top of every scheduling pass.
    pub(super) fn hybrid_maintenance(&mut self, now: SimTime) {
        if self.merge.job.as_ref().is_some_and(|j| j.waiting_for_block) {
            self.advance_merge(now);
        }
        // Scan in arrival order: opening log blocks / sealing streams for
        // one write changes what later writes need.
        let mut lpns = std::mem::take(&mut self.merge.scratch);
        lpns.clear();
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "a filter: picks the queued hybrid writes out of every kind"
        )]
        lpns.extend(self.disp.pending.iter().filter_map(|op| match op.kind {
            PendKind::HybridWrite { what } => Some((op.seq, what.lpn())),
            _ => None,
        }));
        lpns.sort_unstable();
        for &(_, lpn) in &lpns {
            // A switch merge can resolve *synchronously* (the SW block
            // becomes the data block: no copies, no erase, no event). The
            // write that triggered it must then be re-placed in the same
            // pass, or it would sit unissuable over an empty agenda and
            // wedge the simulation. Bounded: each extra round consumes
            // the SW block or ends in a non-merge placement.
            let mut rounds = 0u32;
            while rounds < 4 {
                rounds += 1;
                match self.hybrid_mut().place(lpn) {
                    // Appends issue through the scheduler; stream waiters
                    // hold until the sequential fill catches up (or the
                    // quiescence fallback in `run_sched` merges the
                    // wedged stream).
                    HybridPlace::Append(_) | HybridPlace::AwaitSequential => {}
                    HybridPlace::NeedsLogBlock { sequential } => {
                        if let Some((block, _)) = self.alloc.take_block() {
                            let base = self.array.geometry().page_index(block.page(0));
                            let lbn = sequential.then(|| lpn / self.ppb());
                            self.hybrid_mut().open_log(base, lbn);
                        }
                        // No free block: a pending erase will return one.
                    }
                    HybridPlace::NeedsSeqMerge => {
                        let lbn = lpn / self.ppb();
                        if self.hybrid_mut().retarget_empty_sw(lbn) {
                            break; // the empty SW block changed streams
                        }
                        self.hybrid_mut().seal_sw();
                        if self.merge.job.is_some() {
                            break;
                        }
                        if let Some(plan) = self.hybrid_mut().take_sw_for_merge() {
                            self.start_sw_merge(plan, now);
                            if self.merge.job.is_none() {
                                // Instant switch: the SW slot freed with
                                // no event pending — re-place this write.
                                continue;
                            }
                        }
                    }
                    HybridPlace::NeedsMerge => {
                        if self.merge.job.is_some() {
                            break;
                        }
                        if let Some(plan) = self.hybrid_mut().take_merge_victim() {
                            let folds = plan
                                .lbns
                                .iter()
                                .map(|&lbn| FoldPlan {
                                    lbn,
                                    reuse: None,
                                    start: 0,
                                })
                                .collect();
                            self.start_merge_job(
                                MergeJob::new(IoSource::Merge, Some(plan.victim), folds),
                                now,
                            );
                        }
                    }
                }
                break;
            }
        }
        self.merge.scratch = lpns;
    }

    pub(super) fn ppb(&self) -> u64 {
        self.array.geometry().pages_per_block as u64
    }

    /// Quiescence fallback for a wedged sequential stream: pending writes
    /// sit ahead of the SW fill pointer (`AwaitSequential`) but the gap
    /// will never arrive. Merge the SW block so they fall back to the
    /// random path. Returns whether anything was kicked off.
    pub(super) fn unwedge_sequential_stream(&mut self, now: SimTime) -> bool {
        if !self.is_hybrid() || !self.disp.events.is_empty() || self.merge.job.is_some() {
            return false;
        }
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "a filter: only a queued hybrid write can wait on the sequential stream"
        )]
        let wedged = self.disp.pending.iter().any(|op| match op.kind {
            PendKind::HybridWrite { what } => {
                let FtlKind::Hybrid(h) = &self.ftl else { return false };
                h.place(what.lpn()) == HybridPlace::AwaitSequential
            }
            _ => false,
        });
        if !wedged {
            return false;
        }
        self.hybrid_mut().seal_sw();
        if let Some(plan) = self.hybrid_mut().take_sw_for_merge() {
            self.start_sw_merge(plan, now);
            return true;
        }
        false
    }

    /// Merge the sequential log block per `plan`: complete its prefix in
    /// place when it is still current. A superseded prefix cannot be
    /// completed in place: fold elsewhere, then erase the log block.
    fn start_sw_merge(&mut self, plan: SwMergePlan, now: SimTime) {
        let fold = FoldPlan {
            lbn: plan.lbn,
            reuse: plan.reuse_from.map(|_| plan.base),
            start: plan.reuse_from.unwrap_or(0),
        };
        let victim = plan.reuse_from.is_none().then_some(plan.base);
        self.start_merge_job(MergeJob::new(IoSource::Merge, victim, vec![fold]), now);
    }

    fn start_merge_job(&mut self, job: MergeJob, now: SimTime) {
        debug_assert!(self.merge.job.is_none(), "one merge at a time");
        self.merge.job = Some(job);
        self.advance_merge(now);
    }

    /// Drive the running merge forward: enqueue its next copy step, finish
    /// folds, and finally enqueue the victim's erase. Copies run one at a
    /// time so destination programs stay in NAND page order.
    fn advance_merge(&mut self, now: SimTime) {
        loop {
            let job = self.merge.live_mut();
            job.waiting_for_block = false;
            let source = job.source;
            let (read_class, write_class) = Self::merge_classes(source);
            if let Some(cur) = job.cur {
                if cur.next < cur.end {
                    let lpn = cur.lbn * self.ppb() + cur.next as u64;
                    match self.ftl.peek(lpn) {
                        Some(_) => {
                            self.enqueue(read_class, None, now, PendKind::MergeRead)
                        }
                        None => self.enqueue(
                            write_class,
                            None,
                            now,
                            PendKind::MergeProgram { from: None },
                        ),
                    }
                    return;
                }
                // Fold complete: the destination becomes the data block.
                self.merge.live_mut().cur = None;
                let old = self.hybrid_mut().fold_finished(cur.lbn, Some(cur.dest));
                if let Some(old) = old {
                    self.enqueue_merge_erase(source, old, false, now);
                }
                continue;
            }
            let Some(plan) = job.folds.pop_front() else {
                // All folds done: erase the victim log block, if any.
                if let Some(v) = job.victim {
                    if !job.victim_erase_enqueued {
                        job.victim_erase_enqueued = true;
                        self.enqueue_merge_erase(source, v, true, now);
                    }
                    return;
                }
                self.finish_merge();
                return;
            };
            let end = {
                let FtlKind::Hybrid(h) = &self.ftl else {
                    panic!("merge outside hybrid mapping")
                };
                h.fold_end(plan.lbn)
            };
            match plan.reuse {
                Some(base) if end <= plan.start => {
                    // Switch: the log block already holds everything live.
                    let old = self.hybrid_mut().fold_finished(plan.lbn, Some(base));
                    if let Some(old) = old {
                        self.enqueue_merge_erase(source, old, false, now);
                    }
                }
                Some(base) => {
                    self.hybrid_mut().fold_started(plan.lbn);
                    self.merge.live_mut().cur = Some(FoldState {
                        lbn: plan.lbn,
                        dest: base,
                        next: plan.start,
                        end,
                    });
                }
                None if end == 0 => {
                    // Nothing live (trimmed away): drop the directory entry.
                    let old = self.hybrid_mut().fold_finished(plan.lbn, None);
                    if let Some(old) = old {
                        self.enqueue_merge_erase(source, old, false, now);
                    }
                }
                None => match self.alloc.take_block() {
                    Some((block, _)) => {
                        let dest = self.array.geometry().page_index(block.page(0));
                        self.hybrid_mut().fold_started(plan.lbn);
                        self.merge.live_mut().cur = Some(FoldState {
                            lbn: plan.lbn,
                            dest,
                            next: 0,
                            end,
                        });
                    }
                    None => {
                        // Out of free blocks: park until an erase lands.
                        let job = self.merge.live_mut();
                        job.folds.push_front(plan);
                        job.waiting_for_block = true;
                        return;
                    }
                },
            }
        }
    }

    pub(super) fn enqueue_merge_erase(
        &mut self,
        source: IoSource,
        base: Ppn,
        completes_merge: bool,
        now: SimTime,
    ) {
        let block = self.array.geometry().page_at(base).block_addr();
        let owner = EraseOwner::Merge {
            source,
            completes_merge,
        };
        self.enqueue(OpClass::Erase, None, now, PendKind::Erase { block, owner });
    }

    /// The running merge has nothing left to do.
    pub(super) fn finish_merge(&mut self) {
        self.merge.job = None;
    }

    /// Refresh one hybrid *data* block by folding its logical block to a
    /// fresh destination — relocation that preserves the block-mapping
    /// discipline. `source` picks the victim: static wear leveling
    /// ([`IoSource::WearLeveling`]) a young idle block, the scrubber
    /// ([`IoSource::Scrub`]) an at-risk one. Log blocks are skipped — their
    /// churn through merges refreshes them anyway.
    pub(super) fn refresh_merge(&mut self, source: IoSource, now: SimTime) {
        if self.merge.job.is_some() {
            return; // one merge at a time; retry at the next check
        }
        let lbn = {
            let FtlKind::Hybrid(h) = &self.ftl else { return };
            let g = *self.array.geometry();
            let logs: BTreeSet<Ppn> = h.log_bases().into_iter().collect();
            let data = h.data_block_map();
            let skip = |b: BlockAddr| {
                let base = g.page_index(b.page(0));
                logs.contains(&base) || !data.contains_key(&base)
            };
            let victim = match source {
                IoSource::Scrub => {
                    let sc = self.cfg.scrub.expect("scrub refresh without scrub config");
                    pick_scrub_victim(&self.array, &sc, now, skip)
                }
                IoSource::Application
                | IoSource::GarbageCollection
                | IoSource::WearLeveling
                | IoSource::Mapping
                | IoSource::Merge => pick_wl_victim(&self.array, now, &self.cfg.wl, skip),
            };
            let Some(victim) = victim else { return };
            let base = g.page_index(victim.page(0));
            data[&base]
        };
        if source == IoSource::Scrub {
            self.reclaim.scrub_inflight += 1;
            self.stats.scrub_refreshes += 1;
        }
        self.hybrid_mut().note_refresh_merge();
        self.start_merge_job(
            MergeJob::new(
                source,
                None,
                vec![FoldPlan {
                    lbn,
                    reuse: None,
                    start: 0,
                }],
            ),
            now,
        );
    }

    /// A merge source page crossed the channel: queue its program.
    pub(super) fn merge_xfer_done(&mut self, from: PhysicalAddr, now: SimTime) {
        let (_, write_class) = Self::merge_classes(self.merge.source());
        let from_ppn = self.array.geometry().page_index(from);
        self.enqueue(
            write_class,
            None,
            now,
            PendKind::MergeProgram {
                from: Some(from_ppn),
            },
        );
    }

    /// A fold program landed at `dest`: commit, discard or count the
    /// filler, then drive the fold on.
    pub(super) fn merge_prog_done(&mut self, from: Option<Ppn>, dest: Ppn, now: SimTime) {
        self.landed(dest);
        let cur = self.merge.cur();
        let source = self.merge.source();
        let lpn = cur.lbn * self.ppb() + cur.next as u64;
        match from {
            Some(f) if self.array.page_state_at(f) == PageState::Valid => {
                // Still current: commit the move.
                debug_assert_eq!(self.ftl.peek(lpn), Some(f), "valid merge source not mapped");
                self.ftl.relocate(lpn, dest);
                self.invalidate_ppn(f);
                match source {
                    IoSource::WearLeveling => self.stats.wl_moves += 1,
                    IoSource::Application
                    | IoSource::GarbageCollection
                    | IoSource::Mapping
                    | IoSource::Merge
                    | IoSource::Scrub => self.stats.merge_moves += 1,
                }
            }
            Some(f) => {
                // Superseded mid-copy: the fresh page is garbage,
                // but it kept the destination's program order.
                debug_assert_ne!(self.ftl.peek(lpn), Some(f), "dead merge source still mapped");
                self.stats.merge_stale += 1;
                self.invalidate_ppn(dest);
            }
            None => {
                self.stats.merge_fillers += 1;
                self.invalidate_ppn(dest);
            }
        }
        let cur = self.merge.live_mut().cur.as_mut();
        cur.expect("merge op without an active fold").next += 1;
        self.advance_merge(now);
    }
}
