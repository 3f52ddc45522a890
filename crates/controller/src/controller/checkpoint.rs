//! The periodic mapping-checkpoint writer.
//!
//! Owns [`CkptState`] — the two reserved slot block groups, the committed
//! [`CheckpointRecord`], the snapshot currently being programmed, the
//! interval bookkeeping and the trim journal the next snapshot carries.
//! Checkpoint pages are programmed and retired through the scheduler like
//! any other flash traffic (`PendKind::CkptWrite`, erases owned by
//! `EraseOwner::Ckpt`).

use std::collections::BTreeMap;

use eagletree_core::SimTime;
use eagletree_flash::{BlockAddr, Geometry, MemoryKind, MemoryManager, PageState, PhysicalAddr};

use super::dispatch::{EraseOwner, PendKind};
use super::Controller;
use crate::alloc::Allocator;
use crate::config::ControllerConfig;
use crate::ftl::FtlKind;
use crate::recovery::CheckpointRecord;
use crate::types::{Lpn, OpClass, Ppn};

/// Runtime state of the periodic mapping checkpoint
/// (`ControllerConfig::checkpoint_interval_programs > 0`).
///
/// Two reserved block groups double-buffer the snapshot: the next
/// checkpoint programs into `slots[next_slot]` page by page through the
/// scheduler, commits when its last program lands, and only then retires
/// (erases) the previous committed slot — so at every instant, either the
/// old or the new checkpoint is whole on flash.
pub(super) struct CkptState {
    /// Program stamps between checkpoints.
    interval: u64,
    /// Pages one snapshot serializes to.
    pages_per_snapshot: u32,
    /// Reserved blocks per slot (never in the allocator's free pool).
    slots: [Vec<BlockAddr>; 2],
    /// Slot the next checkpoint writes into.
    next_slot: usize,
    /// The last committed checkpoint — what a power cut recovers from.
    pub(super) committed: Option<CheckpointRecord>,
    /// Snapshot currently being programmed, if any.
    job: Option<CkptJob>,
    /// Stamp-counter value at the last checkpoint trigger.
    last_stamp: u64,
    /// Trim journal for the next checkpoint: lpn → the content version
    /// (`seq`) of the copy the trim discarded. Snapshotted into each
    /// [`CheckpointRecord`] so checkpoint replay rejects stale copies of
    /// trimmed pages instead of resurrecting them; pruned once the page
    /// is mapped again (any newer copy outranks the barrier by itself).
    /// Deterministically ordered so snapshots are reproducible.
    trims: BTreeMap<Lpn, u64>,
}

struct CkptJob {
    record: CheckpointRecord,
    /// Next snapshot page to program, `0..pages_per_snapshot`.
    next_page: u32,
}

impl CkptState {
    /// Reserve the double-buffered checkpoint slots and account their
    /// staging RAM, when checkpointing is configured. `last_stamp` opens
    /// the first interval; `trims` seeds the journal (barriers a replayed
    /// checkpoint still needs enforced).
    pub(super) fn reserve(
        cfg: &ControllerConfig,
        geometry: &Geometry,
        entries: u64,
        mem: &mut MemoryManager,
        alloc: &mut Allocator,
        last_stamp: u64,
        trims: BTreeMap<Lpn, u64>,
    ) -> Result<Option<CkptState>, String> {
        if cfg.checkpoint_interval_programs == 0 {
            return Ok(None);
        }
        let bytes = entries * 8;
        let pages = bytes.div_ceil(geometry.page_size as u64).max(1);
        let blocks_per_slot = pages.div_ceil(geometry.pages_per_block as u64).max(1) as usize;
        mem.reserve(MemoryKind::Ram, "checkpoint-staging", bytes)?;
        let mut slots = [Vec::new(), Vec::new()];
        for slot in &mut slots {
            for _ in 0..blocks_per_slot {
                let Some((b, _)) = alloc.take_block() else {
                    return Err(format!(
                        "checkpoint reservation does not fit: need {} spare blocks",
                        2 * blocks_per_slot
                    ));
                };
                slot.push(b);
            }
        }
        Ok(Some(CkptState {
            interval: cfg.checkpoint_interval_programs,
            pages_per_snapshot: pages as u32,
            slots,
            next_slot: 0,
            committed: None,
            job: None,
            last_stamp,
            trims,
        }))
    }

    /// Slot and destination page of the in-flight snapshot's next program.
    fn next_program(&self, pages_per_block: u32) -> (u8, PhysicalAddr) {
        let job = self.job.as_ref().expect("ckpt write without job");
        let slot = job.record.slot;
        let block = self.slots[slot as usize][(job.next_page / pages_per_block) as usize];
        (slot, block.page(job.next_page % pages_per_block))
    }
}

impl Controller {
    /// Whether `b` is one of the reserved checkpoint blocks (never a GC or
    /// wear-leveling victim; its pages are retired by checkpoint commits).
    pub(super) fn is_ckpt_reserved(&self, b: BlockAddr) -> bool {
        self.ckpt_blocks().any(|r| r == b)
    }

    /// Every reserved checkpoint block.
    pub(super) fn ckpt_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.ckpt.iter().flat_map(|c| c.slots.iter().flatten().copied())
    }

    /// Number of translation virtual pages the scheme persists (DFTL).
    fn tvpn_count(&self) -> u64 {
        match &self.ftl {
            FtlKind::Dftl(d) => d.tvpn_count(),
            FtlKind::PageMap(_) | FtlKind::Hybrid(_) => 0,
        }
    }

    /// Journal a trim of `lpn` (whose discarded copy sat at `old`) for the
    /// next checkpoint: remember the discarded copy's content version so
    /// replay can reject it (and any GC relocation of it, which inherits
    /// the seq) if its block gets re-scanned. In-flight and later host
    /// writes carry newer seqs and are unaffected. Only maintained when
    /// checkpointing is configured.
    pub(super) fn journal_trim(&mut self, lpn: Lpn, old: Ppn) {
        let Some(ck) = &mut self.ckpt else { return };
        let seq = self
            .array
            .oob(self.array.geometry().page_at(old))
            .map(|e| e.seq)
            .unwrap_or(0);
        let barrier = ck.trims.entry(lpn).or_insert(0);
        *barrier = (*barrier).max(seq);
    }

    /// Start a checkpoint when the interval elapsed, no snapshot is in
    /// flight, and the target slot is fully erased (its previous
    /// contents' erases may still be queued). Runs at the top of every
    /// scheduling pass.
    pub(super) fn maybe_checkpoint(&mut self, now: SimTime) {
        let Some(ck) = &self.ckpt else { return };
        if ck.job.is_some() || self.stamps.next.saturating_sub(ck.last_stamp) < ck.interval {
            return;
        }
        let slot = ck.next_slot;
        let ppb = self.array.geometry().pages_per_block as u64;
        if (ck.slots[slot].len() as u64) * ppb < ck.pages_per_snapshot as u64 {
            return; // slot lost blocks to wear-out and found no spares
        }
        let erased = ck.slots[slot].iter().all(|b| {
            let info = self.array.block_info(*b);
            info.write_ptr == 0 && !info.bad && !self.array.block_needs_erase(*b)
        });
        if !erased {
            return;
        }
        // Drop trim barriers that no longer guard anything: once the page
        // is mapped again, every scanned copy that could win for it
        // outranks the barrier by itself, so the filter is redundant.
        let ftl = &self.ftl;
        let ck = self.ckpt.as_mut().expect("checked above");
        ck.trims.retain(|&lpn, _| ftl.peek(lpn).is_none());
        let record = self.snapshot_record(slot);
        let ck = self.ckpt.as_mut().expect("checked above");
        ck.last_stamp = self.stamps.next;
        ck.job = Some(CkptJob {
            record,
            next_page: 0,
        });
        self.enqueue(OpClass::MappingWrite, None, now, PendKind::CkptWrite);
    }

    /// Capture the mapping snapshot the next checkpoint persists, under
    /// the stamp watermark (see [`super::stamps::Stamps::watermark`]).
    fn snapshot_record(&self, slot: usize) -> CheckpointRecord {
        let data = (0..self.logical_pages).map(|l| self.ftl.peek(l)).collect();
        let trans = (0..self.tvpn_count())
            .map(|t| self.ftl.translation_location(t))
            .collect();
        let ck = self.ckpt.as_ref().expect("snapshot without checkpoint state");
        CheckpointRecord {
            watermark: self.stamps.watermark(),
            data,
            trans,
            slot: slot as u8,
            blocks: ck.slots[slot].clone(),
            trims: ck.trims.iter().map(|(&l, &s)| (l, s)).collect(),
        }
    }

    /// Slot and destination page of the in-flight checkpoint's next
    /// program.
    pub(super) fn ckpt_next_program(&self) -> (u8, PhysicalAddr) {
        let ck = self.ckpt.as_ref().expect("ckpt write without state");
        ck.next_program(self.array.geometry().pages_per_block)
    }

    /// A snapshot page landed: program the next one, or — when it was the
    /// last — commit the checkpoint.
    pub(super) fn ckpt_write_done(&mut self, now: SimTime) {
        let ck = self.ckpt.as_mut().expect("ckpt done without state");
        let job = ck.job.as_mut().expect("ckpt done without job");
        job.next_page += 1;
        if job.next_page < ck.pages_per_snapshot {
            self.enqueue(OpClass::MappingWrite, None, now, PendKind::CkptWrite);
            return;
        }
        // The snapshot's last page landed: commit, then retire the
        // previous committed slot — old-before-new never holds a
        // window where neither checkpoint is whole.
        let job = ck.job.take().expect("ckpt done without job");
        ck.next_slot ^= 1;
        let old = ck.committed.replace(job.record);
        self.stats.checkpoints_committed += 1;
        if let Some(old) = old {
            self.retire_checkpoint_slot(old, now);
        }
    }

    /// A newer checkpoint committed: the previous one's pages are garbage.
    /// Invalidate them and queue the slot's erases (the slot becomes the
    /// target of the checkpoint after next once they land).
    fn retire_checkpoint_slot(&mut self, old: CheckpointRecord, now: SimTime) {
        for block in old.blocks {
            let info = self.array.block_info(block);
            if info.write_ptr == 0 {
                continue;
            }
            let g = *self.array.geometry();
            let base = g.page_index(block.page(0));
            for p in 0..info.write_ptr as u64 {
                if self.array.page_state(g.page_at(base + p)) == PageState::Valid {
                    self.invalidate_ppn(base + p);
                }
            }
            let owner = EraseOwner::Ckpt;
            self.enqueue(OpClass::Erase, None, now, PendKind::Erase { block, owner });
        }
    }

    /// A reserved block wore out: replace it from the free pool
    /// (checkpointing pauses if none is available).
    pub(super) fn replace_ckpt_block(&mut self, block: BlockAddr) {
        let replacement = self.alloc.take_block();
        if let Some(ck) = &mut self.ckpt {
            for slot in &mut ck.slots {
                if let Some(pos) = slot.iter().position(|b| *b == block) {
                    slot.swap_remove(pos);
                    if let Some((b, _)) = replacement {
                        slot.push(b);
                    }
                    break;
                }
            }
        }
    }
}
