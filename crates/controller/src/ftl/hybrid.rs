//! FAST-style hybrid log-block mapping.
//!
//! The classic third family of the mapping design space (§2.2): data blocks
//! are **block-mapped** (one directory entry per logical block, pages at
//! their in-block offsets), while updates append to a small pool of
//! **page-mapped log blocks** — one dedicated *sequential* (SW) log block
//! fed by offset-0 streams, plus `budget` *random* (RW) log blocks shared
//! by all logical blocks, exactly the FAST layout (Lee et al., TECS 2007).
//!
//! Reclamation is by **merge**, not by generic GC:
//!
//! * **switch merge** — the SW log block holds a complete, current,
//!   in-order copy of one logical block: it *becomes* the data block; the
//!   superseded data block is erased. Cost: one erase, zero copies.
//! * **partial merge** — the SW log block holds a current sequential
//!   *prefix*: the remaining pages are copied in from the old data block,
//!   then the block switches. Cost: the tail copies plus one erase.
//! * **full merge** — an RW log block is reclaimed by folding every logical
//!   block it holds pages of into a fresh block (latest copy of each page,
//!   wherever it lives), erasing the superseded data blocks and finally the
//!   log block itself. This is the expensive path that dominates random
//!   writes on hybrid FTLs.
//!
//! Division of labor: this module owns the mapping state and *decides*
//! placements and merge plans; the controller executes each copy / program
//! / erase as scheduled flash operations (`OpClass::MergeRead` /
//! `MergeWrite` / `Erase`), so merges compete with application IO under
//! every `SchedPolicy`.
//!
//! Simulator note: as with the other schemes, the authoritative
//! logical→physical map is kept in RAM for correctness bookkeeping; the
//! block directory and log-block page tables model the *RAM cost* (a few
//! bytes per logical block plus `pages_per_block` entries per log block —
//! the scheme's selling point against a full page map).

use crate::config::MergePolicy;
use crate::ftl::MapLookup;
use crate::types::{Lpn, Ppn};

/// Where the next write of an LPN must go, per the log-block discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridPlace {
    /// Program exactly this physical page (an append to a log block).
    Append(Ppn),
    /// No open log block can take it: open a fresh one first.
    NeedsLogBlock {
        /// `true`: the new block becomes the sequential (SW) log block.
        sequential: bool,
    },
    /// A new sequential stream wants the SW log block: merge it first.
    NeedsSeqMerge,
    /// The write sits *ahead* of its logical block's sequential stream
    /// (`offset > fill`): hold it until the stream catches up, so queued
    /// sequential writes keep their in-order placement under queue depth.
    /// If the gap never fills, the controller's quiescence fallback merges
    /// the SW block and the write falls back to the random path.
    AwaitSequential,
    /// The random log-block budget is exhausted: full-merge a victim first.
    NeedsMerge,
}

/// RAM-side bookkeeping events the controller must turn into flash work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridEvent {
    /// A switch merge retired this data block; erase it.
    EraseDataBlock {
        /// Base PPN (page 0) of the superseded block.
        base: Ppn,
    },
}

/// Plan for merging the sequential log block.
#[derive(Debug, Clone, Copy)]
pub struct SwMergePlan {
    /// Base PPN of the SW log block.
    pub base: Ppn,
    /// Logical block the SW stream belongs to.
    pub lbn: u64,
    /// `Some(fill)`: the block holds a current sequential prefix — reuse it
    /// as the fold destination, copying from offset `fill` on (partial
    /// merge; a switch if nothing is left to copy). `None`: the prefix was
    /// superseded — fold into a fresh block and erase this one (counted as
    /// a full merge).
    pub reuse_from: Option<u32>,
}

/// Plan for full-merging a random log block.
#[derive(Debug, Clone)]
pub struct FullMergePlan {
    /// Base PPN of the victim log block (erased once the folds finish).
    pub victim: Ppn,
    /// Logical blocks with at least one live page in the victim, in
    /// first-appearance order.
    pub lbns: Vec<u64>,
}

/// Scheme-level merge counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Switch merges (log block became the data block for free).
    pub switch_merges: u64,
    /// Partial merges (sequential prefix completed in place).
    pub partial_merges: u64,
    /// Full merges (log victim folded logical block by logical block).
    pub full_merges: u64,
    /// Wear-leveling refresh merges (data block folded to a fresh block).
    pub refresh_merges: u64,
    /// Log blocks opened (SW + RW).
    pub log_blocks_opened: u64,
}

#[derive(Debug, Clone)]
struct LogBlock {
    /// Base PPN (page 0); pages of a block are consecutive PPNs.
    base: Ppn,
    /// Next append offset (mirrors the flash block's write pointer).
    fill: u32,
    /// Appends issued to flash but not yet committed to the map.
    inflight: u32,
    /// `entries[i]` = LPN programmed at `base + i` (possibly superseded).
    entries: Vec<Lpn>,
}

impl LogBlock {
    fn new(base: Ppn) -> Self {
        LogBlock {
            base,
            fill: 0,
            inflight: 0,
            entries: Vec::new(),
        }
    }

    fn contains(&self, ppn: Ppn, ppb: u64) -> bool {
        ppn >= self.base && ppn < self.base + ppb
    }
}

#[derive(Debug, Clone)]
struct SwLog {
    lb: LogBlock,
    /// The logical block whose sequential stream this holds.
    lbn: u64,
    /// Sealed: a competing stream wants the block; no further appends.
    sealed: bool,
}

/// The hybrid log-block FTL.
pub struct Hybrid {
    /// Authoritative logical→physical map (simulator ground truth).
    map: Vec<Option<Ppn>>,
    /// Pages per (logical and physical) block.
    ppb: u64,
    /// lbn → base PPN of its data block.
    dir: Vec<Option<Ppn>>,
    /// The sequential log block, if open.
    sw: Option<SwLog>,
    /// Random log blocks, oldest first; only the last may be non-full.
    rw: Vec<LogBlock>,
    /// RW log-block budget.
    budget: usize,
    /// Full-merge victim selection.
    policy: MergePolicy,
    /// Events awaiting the controller (switch-merge erases).
    events: Vec<HybridEvent>,
    stats: HybridStats,
}

impl Hybrid {
    /// A hybrid FTL over `logical_pages`, with physical/logical blocks of
    /// `pages_per_block` pages, `log_blocks` RW log blocks and `policy`
    /// victim selection.
    pub fn new(
        logical_pages: u64,
        pages_per_block: u32,
        log_blocks: usize,
        policy: MergePolicy,
    ) -> Self {
        assert!(pages_per_block > 0, "pages_per_block must be positive");
        assert!(log_blocks > 0, "log_blocks must be positive");
        let ppb = pages_per_block as u64;
        let lbns = logical_pages.div_ceil(ppb).max(1);
        Hybrid {
            map: vec![None; logical_pages as usize],
            ppb,
            dir: vec![None; lbns as usize],
            sw: None,
            rw: Vec::new(),
            budget: log_blocks,
            policy,
            events: Vec::new(),
            stats: HybridStats::default(),
        }
    }

    /// Rebuild a hybrid FTL from recovered state (mount-time OOB scan).
    ///
    /// `dir` registers the blocks recovery classified as data blocks (all
    /// live pages at their logical offsets, one logical block each);
    /// `logs` re-registers every other block still holding live pages as a
    /// random log block `(base, entries)`, where `entries[o]` is the OOB
    /// logical page of offset `o` (superseded entries included, exactly as
    /// the live page table would have recorded them). No sequential log
    /// block survives a crash — the next offset-0 stream opens a fresh
    /// one. `logs` may exceed the budget: the controller then full-merges
    /// the excess down before accepting new random writes, the recovery
    /// merge storm a crashed log pool implies.
    pub fn restore(
        logical_pages: u64,
        pages_per_block: u32,
        log_blocks: usize,
        policy: MergePolicy,
        map: Vec<Option<Ppn>>,
        dir: Vec<Option<Ppn>>,
        logs: Vec<(Ppn, Vec<Lpn>)>,
    ) -> Self {
        let mut h = Hybrid::new(logical_pages, pages_per_block, log_blocks, policy);
        assert_eq!(map.len(), h.map.len());
        assert_eq!(dir.len(), h.dir.len());
        h.map = map;
        h.dir = dir;
        for (base, entries) in logs {
            let mut lb = LogBlock::new(base);
            lb.fill = entries.len() as u32;
            lb.entries = entries;
            h.rw.push(lb);
        }
        h
    }

    /// Scheme-level merge counters.
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Logical block of `lpn`.
    pub fn lbn_of(&self, lpn: Lpn) -> u64 {
        lpn / self.ppb
    }

    /// Number of logical blocks.
    pub fn lbn_count(&self) -> u64 {
        self.dir.len() as u64
    }

    /// Pages `lbn` actually spans (the last logical block may be partial).
    fn lbn_pages(&self, lbn: u64) -> u32 {
        let start = lbn * self.ppb;
        (self.map.len() as u64 - start).min(self.ppb) as u32
    }

    /// Log blocks currently in use (SW + RW), as base PPNs.
    pub fn log_bases(&self) -> Vec<Ppn> {
        let mut v: Vec<Ppn> = self.rw.iter().map(|l| l.base).collect();
        if let Some(sw) = &self.sw {
            v.push(sw.lb.base);
        }
        v
    }

    /// Invert the directory: base PPN → lbn for every registered data
    /// block, for O(1) membership tests in whole-array block scans.
    pub fn data_block_map(&self) -> std::collections::BTreeMap<Ppn, u64> {
        self.dir
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|base| (base, i as u64)))
            .collect()
    }

    /// Where the next write of `lpn` must go. Pure: the decision is
    /// re-derived (and committed) by [`Hybrid::commit_append`] at issue
    /// time.
    pub fn place(&self, lpn: Lpn) -> HybridPlace {
        let lbn = self.lbn_of(lpn);
        let off = (lpn % self.ppb) as u32;
        if let Some(sw) = &self.sw {
            if !sw.sealed && sw.lbn == lbn {
                if sw.lb.fill == off {
                    return HybridPlace::Append(sw.lb.base + off as u64);
                }
                if off > sw.lb.fill {
                    return HybridPlace::AwaitSequential;
                }
                // `off < fill`: an overwrite behind the stream → random.
            }
            if off == 0 {
                // A new sequential stream contends for the SW block.
                return HybridPlace::NeedsSeqMerge;
            }
        } else if off == 0 {
            return HybridPlace::NeedsLogBlock { sequential: true };
        }
        // Random path: append to the open RW block, else open, else merge.
        if let Some(open) = self.rw.last() {
            if open.fill < self.ppb as u32 {
                return HybridPlace::Append(open.base + open.fill as u64);
            }
        }
        if self.rw.len() < self.budget {
            return HybridPlace::NeedsLogBlock { sequential: false };
        }
        HybridPlace::NeedsMerge
    }

    /// Commit the placement for `lpn`: advance the log block's fill pointer
    /// and record the in-flight append. Callers must have seen
    /// [`HybridPlace::Append`] from [`Hybrid::place`] in the same scheduling
    /// step.
    pub fn commit_append(&mut self, lpn: Lpn) -> Ppn {
        let place = self.place(lpn);
        let HybridPlace::Append(ppn) = place else {
            panic!("commit_append of {lpn} without an append placement ({place:?})");
        };
        let lb = match &mut self.sw {
            Some(sw) if sw.lb.contains(ppn, self.ppb) => &mut sw.lb,
            _ => self
                .rw
                .last_mut()
                .expect("random append implies open block"),
        };
        debug_assert_eq!(lb.base + lb.fill as u64, ppn);
        lb.entries.push(lpn);
        lb.fill += 1;
        lb.inflight += 1;
        ppn
    }

    /// An issued append completed but its payload was discarded (stale
    /// buffered flush): release the in-flight slot without mapping it.
    pub fn abort_append(&mut self, ppn: Ppn) {
        self.note_commit(ppn);
    }

    /// Open a fresh log block at `base`. `sequential` carries the logical
    /// block of the incoming offset-0 stream for an SW block.
    pub fn open_log(&mut self, base: Ppn, sequential: Option<u64>) {
        self.stats.log_blocks_opened += 1;
        match sequential {
            Some(lbn) => {
                assert!(self.sw.is_none(), "opening SW log over an existing one");
                self.sw = Some(SwLog {
                    lb: LogBlock::new(base),
                    lbn,
                    sealed: false,
                });
            }
            None => {
                assert!(self.rw.len() < self.budget, "RW log budget exceeded");
                self.rw.push(LogBlock::new(base));
            }
        }
    }

    /// Seal the SW log block: a competing sequential stream needs it; no
    /// further appends until it is merged.
    pub fn seal_sw(&mut self) {
        if let Some(sw) = &mut self.sw {
            sw.sealed = true;
        }
    }

    /// Hand a still-empty SW log block to a new sequential stream instead
    /// of merging it (two offset-0 streams racing before either appended).
    /// Returns whether the retarget happened.
    pub fn retarget_empty_sw(&mut self, lbn: u64) -> bool {
        match &mut self.sw {
            Some(sw) if sw.lb.fill == 0 => {
                sw.lbn = lbn;
                sw.sealed = false;
                true
            }
            _ => false,
        }
    }

    /// Current data block of `lbn`, as a base PPN.
    pub fn data_block(&self, lbn: u64) -> Option<Ppn> {
        self.dir[lbn as usize]
    }

    /// Take the SW log block for merging, once no append is in flight.
    /// Removes it from the log set; the caller owns the block until the
    /// merge completes.
    pub fn take_sw_for_merge(&mut self) -> Option<SwMergePlan> {
        let sw = self.sw.as_ref()?;
        if sw.lb.inflight > 0 {
            return None; // retry once issued appends commit
        }
        let sw = self.sw.take().expect("checked above");
        let base = sw.lb.base;
        let lbn = sw.lbn;
        let prefix_current = (0..sw.lb.fill)
            .all(|o| self.map[(lbn * self.ppb + o as u64) as usize] == Some(base + o as u64));
        let reuse_from = prefix_current.then_some(sw.lb.fill);
        if reuse_from.is_some() {
            // Switch vs partial is decided by whether a tail remains; the
            // controller reports back via `fold_finished`, but the scheme
            // classification is known now.
            if self.fold_end(lbn) <= sw.lb.fill {
                self.stats.switch_merges += 1;
            } else {
                self.stats.partial_merges += 1;
            }
        } else {
            self.stats.full_merges += 1;
        }
        Some(SwMergePlan {
            base,
            lbn,
            reuse_from,
        })
    }

    /// Pick and take a full-merge victim among the exhausted RW log blocks,
    /// once it has no append in flight. Removes it from the log set.
    pub fn take_merge_victim(&mut self) -> Option<FullMergePlan> {
        if self.rw.len() < self.budget {
            return None; // budget not exhausted: no forced merge
        }
        let idx = match self.policy {
            MergePolicy::Fifo => self.rw.iter().position(|l| l.inflight == 0)?,
            MergePolicy::MinValid => self
                .rw
                .iter()
                .enumerate()
                .filter(|(_, l)| l.inflight == 0)
                .min_by_key(|(i, l)| (self.live_entries(l), *i))
                .map(|(i, _)| i)?,
        };
        let victim = self.rw.remove(idx);
        let mut lbns: Vec<u64> = Vec::new();
        for (o, &lpn) in victim.entries.iter().enumerate() {
            if self.map[lpn as usize] == Some(victim.base + o as u64) {
                let lbn = self.lbn_of(lpn);
                if !lbns.contains(&lbn) {
                    lbns.push(lbn);
                }
            }
        }
        self.stats.full_merges += 1;
        Some(FullMergePlan {
            victim: victim.base,
            lbns,
        })
    }

    /// Live (still-mapped) entries in a log block.
    fn live_entries(&self, lb: &LogBlock) -> u32 {
        lb.entries
            .iter()
            .enumerate()
            .filter(|(o, &lpn)| self.map[lpn as usize] == Some(lb.base + *o as u64))
            .count() as u32
    }

    /// One past the highest mapped offset of `lbn` (0 = nothing mapped).
    /// The controller folds offsets `[start, end)`; trailing unmapped pages
    /// stay unprogrammed.
    pub fn fold_end(&self, lbn: u64) -> u32 {
        let pages = self.lbn_pages(lbn);
        (0..pages)
            .rev()
            .find(|&o| self.map[(lbn * self.ppb + o as u64) as usize].is_some())
            .map_or(0, |o| o + 1)
    }

    /// A WL-refresh victim is only meaningful for registered data blocks.
    /// Count it at plan time.
    pub fn note_refresh_merge(&mut self) {
        self.stats.refresh_merges += 1;
    }

    /// A fold of `lbn` finished with `dest` as its new data block (`None`:
    /// the logical block had no live pages and keeps no data block).
    /// Returns the superseded data block to erase, if any.
    pub fn fold_finished(&mut self, lbn: u64, dest: Option<Ppn>) -> Option<Ppn> {
        let old = self.dir[lbn as usize];
        self.dir[lbn as usize] = dest;
        old.filter(|&o| Some(o) != dest)
    }

    /// Drain switch-merge events for the controller.
    pub fn take_events(&mut self) -> Vec<HybridEvent> {
        std::mem::take(&mut self.events)
    }

    /// Decrement the in-flight count of the log block holding `ppn`.
    fn note_commit(&mut self, ppn: Ppn) {
        let ppb = self.ppb;
        if let Some(sw) = &mut self.sw {
            if sw.lb.contains(ppn, ppb) {
                debug_assert!(sw.lb.inflight > 0);
                sw.lb.inflight -= 1;
                return;
            }
        }
        if let Some(lb) = self.rw.iter_mut().find(|l| l.contains(ppn, ppb)) {
            debug_assert!(lb.inflight > 0);
            lb.inflight -= 1;
        }
    }

    /// After an append into the SW block commits: if the block now holds a
    /// complete, current, in-order copy of its logical block, switch-merge
    /// it on the spot — the log block becomes the data block and the old
    /// data block is queued for erase. The free merge the scheme exists for.
    fn maybe_switch(&mut self) {
        let Some(sw) = &self.sw else { return };
        if sw.lb.fill < self.ppb as u32 || sw.lb.inflight > 0 {
            return;
        }
        let (base, lbn) = (sw.lb.base, sw.lbn);
        let complete =
            (0..self.ppb).all(|o| self.map[(lbn * self.ppb + o) as usize] == Some(base + o));
        if !complete {
            return;
        }
        self.sw = None;
        self.stats.switch_merges += 1;
        if let Some(old) = self.fold_finished(lbn, Some(base)) {
            self.events.push(HybridEvent::EraseDataBlock { base: old });
        }
    }

    #[cfg(test)]
    fn rw_len(&self) -> usize {
        self.rw.len()
    }
}

/// The scheme's share of [`FtlKind`]'s methods (documented there).
impl Hybrid {
    pub fn lookup(&mut self, lpn: Lpn, _pin: bool) -> MapLookup {
        // The directory and log page tables fit in RAM: lookups never
        // require flash IOs (the scheme's cost sits in merges instead).
        MapLookup::Ready(self.map[lpn as usize])
    }

    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let old = self.map[lpn as usize].replace(ppn);
        self.note_commit(ppn);
        self.maybe_switch();
        old
    }

    /// A merge copy of `lpn` landed at `new_ppn` and is still current
    /// (generic GC/WL relocation does not run under the hybrid scheme;
    /// merges replace it).
    pub fn relocate(&mut self, lpn: Lpn, new_ppn: Ppn) {
        debug_assert!(
            self.map[lpn as usize].is_some(),
            "relocate of unmapped lpn {lpn}"
        );
        self.map[lpn as usize] = Some(new_ppn);
    }

    pub fn trim(&mut self, lpn: Lpn) -> Option<Ppn> {
        self.map[lpn as usize].take()
    }

    pub fn ram_bytes(&self) -> u64 {
        // Directory: 8 B per logical block. Log page tables: 8 B per page
        // plus a small header per log block, at the static worst case
        // (full RW budget + the SW block) — the controller reserves this
        // once at construction, before any log block opens. The
        // authoritative `map` is simulator ground truth, not part of the
        // modeled footprint.
        let log_blocks = self.budget as u64 + 1;
        self.dir.len() as u64 * 8 + log_blocks * (self.ppb * 8 + 32)
    }

    pub fn peek(&self, lpn: Lpn) -> Option<Ppn> {
        self.map[lpn as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 logical pages over 8-page blocks, 2 RW log blocks.
    fn hybrid() -> Hybrid {
        Hybrid::new(64, 8, 2, MergePolicy::Fifo)
    }

    /// Simulate an append landing: place must be Append, then commit both
    /// the placement and (immediately) the map update.
    fn append(h: &mut Hybrid, lpn: Lpn) -> Ppn {
        let ppn = h.commit_append(lpn);
        let old = h.update(lpn, ppn);
        assert_ne!(old, Some(ppn));
        ppn
    }

    #[test]
    fn offset_zero_opens_sequential_log() {
        let h = hybrid();
        assert_eq!(h.place(0), HybridPlace::NeedsLogBlock { sequential: true });
        assert_eq!(h.place(3), HybridPlace::NeedsLogBlock { sequential: false });
    }

    #[test]
    fn sequential_stream_appends_then_switch_merges() {
        let mut h = hybrid();
        h.open_log(800, Some(0));
        for lpn in 0..8 {
            assert_eq!(h.place(lpn), HybridPlace::Append(800 + lpn));
            append(&mut h, lpn);
        }
        // Full in-order block: switched for free, no data block existed.
        assert_eq!(h.stats().switch_merges, 1);
        assert!(h.take_events().is_empty());
        assert_eq!(h.data_block(0), Some(800));
        assert_eq!(h.peek(5), Some(805));
        // The SW slot is free again.
        assert_eq!(h.place(8), HybridPlace::NeedsLogBlock { sequential: true });
    }

    #[test]
    fn switch_merge_erases_superseded_data_block() {
        let mut h = hybrid();
        h.open_log(800, Some(0));
        for lpn in 0..8 {
            append(&mut h, lpn);
        }
        h.open_log(900, Some(0));
        for lpn in 0..8 {
            append(&mut h, lpn);
        }
        assert_eq!(h.stats().switch_merges, 2);
        assert_eq!(
            h.take_events(),
            vec![HybridEvent::EraseDataBlock { base: 800 }]
        );
        assert_eq!(h.data_block(0), Some(900));
        assert!(!h.data_block_map().contains_key(&800));
    }

    #[test]
    fn random_writes_fill_rw_blocks_then_demand_merge() {
        let mut h = hybrid();
        h.open_log(800, None);
        // Non-zero offsets from several logical blocks.
        let lpns = [1u64, 9, 17, 25, 33, 41, 49, 57];
        for (i, &lpn) in lpns.iter().enumerate() {
            assert_eq!(h.place(lpn), HybridPlace::Append(800 + i as u64));
            append(&mut h, lpn);
        }
        assert_eq!(h.place(2), HybridPlace::NeedsLogBlock { sequential: false });
        h.open_log(900, None);
        for i in 0..8u64 {
            append(&mut h, 2 + i * 8);
        }
        assert_eq!(h.rw_len(), 2);
        assert_eq!(h.place(3), HybridPlace::NeedsMerge);
    }

    #[test]
    fn full_merge_plan_lists_live_lbns_in_order() {
        let mut h = hybrid();
        h.open_log(800, None);
        for &lpn in &[1u64, 9, 1, 9, 17, 2, 3, 10] {
            append(&mut h, lpn);
        }
        h.open_log(900, None);
        append(&mut h, 17); // supersedes the lpn-17 entry in the victim
        let plan = h.take_merge_victim().expect("budget exhausted");
        assert_eq!(plan.victim, 800);
        // lpn 17's copy in block 800 is stale; lbns 0 and 1 remain.
        assert_eq!(plan.lbns, vec![0, 1]);
        assert_eq!(h.rw_len(), 1);
        assert_eq!(h.stats().full_merges, 1);
    }

    #[test]
    fn min_valid_policy_picks_cheapest_victim() {
        let mut h = Hybrid::new(64, 4, 2, MergePolicy::MinValid);
        h.open_log(800, None);
        for &lpn in &[1u64, 2, 3, 5] {
            append(&mut h, lpn);
        }
        h.open_log(900, None);
        // Supersede most of block 800 from block 900.
        for &lpn in &[1u64, 2, 3, 6] {
            append(&mut h, lpn);
        }
        let plan = h.take_merge_victim().unwrap();
        assert_eq!(plan.victim, 800, "block 800 has one live entry");
        assert_eq!(plan.lbns, vec![1]);
    }

    #[test]
    fn sw_merge_partial_vs_switch_classification() {
        let mut h = hybrid();
        // Stream pages 0..3 of lbn 1 into the SW block, then let lbn 0
        // contend for it.
        h.open_log(800, Some(1));
        for lpn in 8..11 {
            append(&mut h, lpn);
        }
        h.seal_sw();
        let plan = h.take_sw_for_merge().unwrap();
        assert_eq!(plan.base, 800);
        assert_eq!(plan.lbn, 1);
        assert_eq!(plan.reuse_from, Some(3));
        // Nothing beyond the prefix is mapped: a switch (no copies).
        assert_eq!(h.fold_end(1), 3);
        assert_eq!(h.stats().switch_merges, 1);

        // Now a prefix with a mapped tail → partial merge. The tail write
        // (offset 4, ahead of the stream) waits until the SW is sealed,
        // then takes the random path.
        h.open_log(900, Some(2));
        append(&mut h, 16);
        h.open_log(1000, None);
        assert_eq!(h.place(20), HybridPlace::AwaitSequential);
        h.seal_sw();
        append(&mut h, 20); // offset 4 of lbn 2 lives in an RW block
        let plan = h.take_sw_for_merge().unwrap();
        assert_eq!(plan.reuse_from, Some(1));
        assert_eq!(h.fold_end(2), 5);
        assert_eq!(h.stats().partial_merges, 1);
    }

    #[test]
    fn superseded_sw_prefix_forces_full_style_fold() {
        let mut h = hybrid();
        h.open_log(800, Some(1));
        for lpn in 8..11 {
            append(&mut h, lpn);
        }
        // Overwrite page 9 through the random path: the prefix is stale.
        h.open_log(900, None);
        append(&mut h, 9);
        h.seal_sw();
        let plan = h.take_sw_for_merge().unwrap();
        assert_eq!(plan.reuse_from, None);
        assert_eq!(h.stats().full_merges, 1);
    }

    #[test]
    fn inflight_appends_defer_merges() {
        let mut h = hybrid();
        h.open_log(800, Some(0));
        let ppn = h.commit_append(0); // issued, not yet committed
        h.seal_sw();
        assert!(h.take_sw_for_merge().is_none(), "in-flight append");
        h.update(0, ppn);
        assert!(h.take_sw_for_merge().is_some());
    }

    #[test]
    fn fold_bookkeeping_replaces_data_block() {
        let mut h = hybrid();
        h.open_log(800, None);
        append(&mut h, 1);
        assert_eq!(h.fold_end(0), 2);
        // Fold lbn 0 into a fresh block at 1600.
        h.relocate(1, 1601);
        assert_eq!(h.fold_finished(0, Some(1600)), None);
        assert_eq!(h.data_block(0), Some(1600));
        // A later fold supersedes it.
        h.relocate(1, 1701);
        assert_eq!(h.fold_finished(0, Some(1700)), Some(1600));
    }

    #[test]
    fn trim_unmaps_and_shrinks_fold_end() {
        let mut h = hybrid();
        h.open_log(800, None);
        append(&mut h, 5);
        append(&mut h, 3);
        assert_eq!(h.fold_end(0), 6);
        assert_eq!(h.trim(5), Some(800));
        assert_eq!(h.fold_end(0), 4);
        assert_eq!(h.trim(5), None);
    }

    #[test]
    fn ram_bytes_far_below_page_map() {
        let h = Hybrid::new(1 << 16, 64, 8, MergePolicy::Fifo);
        // Page map would be 8 B × 65536 = 512 KiB; hybrid holds a 1024-entry
        // directory plus at most 9 log page tables.
        assert!(h.ram_bytes() < (1u64 << 19) / 8);
    }

    #[test]
    fn last_partial_logical_block_is_bounded() {
        let h = Hybrid::new(20, 8, 2, MergePolicy::Fifo);
        assert_eq!(h.lbn_count(), 3);
        assert_eq!(h.lbn_pages(2), 4);
        assert_eq!(h.fold_end(2), 0);
    }

    #[test]
    fn abort_append_releases_inflight_slot() {
        let mut h = hybrid();
        h.open_log(800, Some(0));
        let ppn = h.commit_append(0);
        h.seal_sw();
        assert!(h.take_sw_for_merge().is_none());
        h.abort_append(ppn);
        assert!(h.take_sw_for_merge().is_some());
    }
}
