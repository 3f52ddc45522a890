//! DFTL: demand-based selective caching of page-level mappings.
//!
//! Faithful cost model of Gupta, Kim & Urgaonkar (ASPLOS 2009):
//!
//! * The full page map is logically stored on flash in *translation pages*,
//!   each covering `entries_per_tp` consecutive logical pages.
//! * A **GTD** (global translation directory) in RAM maps each translation
//!   virtual page (tvpn) to its current flash location.
//! * A **CMT** (cached mapping table) holds a bounded set of entries; a
//!   lookup miss costs a flash read of the translation page, and evicting a
//!   dirty entry costs a read-merge-program of its translation page.
//! * **Batched updates**: evicting one dirty entry writes back *all* dirty
//!   CMT entries of the same translation page in the same program, and GC
//!   relocations accumulate in a pending set folded into the next write of
//!   that translation page — DFTL's lazy-copying optimization.
//!
//! Any mutation may evict dirty entries; the resulting
//! [`TranslationWriteback`]s are queued internally and drained by the
//! controller via [`Ftl::take_writebacks`].
//!
//! The authoritative map is kept in RAM for simulator correctness; the CMT
//! / GTD / pending structures model the *cost* (which operations require
//! flash IOs), never the values.

use crate::bits::BitSet;
use crate::ftl::lru::LruCache;
use crate::ftl::{MapLookup, TranslationWriteback};
use crate::types::{Lpn, Ppn};

/// DFTL mapping scheme.
pub struct Dftl {
    /// Authoritative logical→physical map (simulator ground truth).
    map: Vec<Option<Ppn>>,
    /// Cached mapping table: which entries are in controller RAM.
    cmt: LruCache,
    /// tvpn → flash location of the translation page.
    gtd: Vec<Option<Ppn>>,
    /// GC-relocated entries not yet persisted nor cached.
    pending: BitSet,
    /// How many of them each translation page covers.
    pending_in: Vec<u32>,
    /// Dirty-eviction writebacks awaiting the controller.
    queued: Vec<TranslationWriteback>,
    /// Mapping entries per translation page.
    entries_per_tp: u64,
    /// Cost-model counters.
    stats: DftlStats,
}

/// Observability counters for the mapping cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DftlStats {
    /// Lookups answered from the CMT.
    pub cmt_hits: u64,
    /// Lookups answered from the pending-update set.
    pub pending_hits: u64,
    /// Lookups that required a translation-page fetch.
    pub misses: u64,
    /// Dirty evictions that triggered a translation writeback.
    pub writebacks: u64,
    /// Dirty sibling entries cleaned for free by batched writebacks.
    pub batched_entries: u64,
}

impl Dftl {
    /// A DFTL over `logical_pages`, with `cmt_entries` cached entries and
    /// translation pages covering `entries_per_tp` entries each
    /// (typically `page_size / 8`).
    pub fn new(logical_pages: u64, cmt_entries: usize, entries_per_tp: u64) -> Self {
        assert!(entries_per_tp > 0, "entries_per_tp must be positive");
        let tvpns = logical_pages.div_ceil(entries_per_tp).max(1);
        Dftl {
            map: vec![None; logical_pages as usize],
            cmt: LruCache::new(cmt_entries, logical_pages),
            gtd: vec![None; tvpns as usize],
            pending: BitSet::new(logical_pages),
            pending_in: vec![0; tvpns as usize],
            queued: Vec::new(),
            entries_per_tp,
            stats: DftlStats::default(),
        }
    }

    /// Rebuild a DFTL from recovered state (mount-time OOB scan or
    /// checkpoint replay): the authoritative data map plus the flash
    /// locations of surviving translation pages. The CMT starts cold and
    /// the pending set empty — the first lookups after a remount pay
    /// translation fetches, exactly the cost model a cold mount implies.
    pub fn restore(
        logical_pages: u64,
        cmt_entries: usize,
        entries_per_tp: u64,
        map: Vec<Option<Ppn>>,
        gtd: Vec<Option<Ppn>>,
    ) -> Self {
        let mut d = Dftl::new(logical_pages, cmt_entries, entries_per_tp);
        assert_eq!(map.len(), d.map.len());
        assert_eq!(gtd.len(), d.gtd.len());
        d.map = map;
        d.gtd = gtd;
        d
    }

    /// Cost-model counters.
    pub fn stats(&self) -> DftlStats {
        self.stats
    }

    /// Number of translation virtual pages.
    pub fn tvpn_count(&self) -> u64 {
        self.gtd.len() as u64
    }

    pub fn tvpn_of(&self, lpn: Lpn) -> u64 {
        lpn / self.entries_per_tp
    }

    /// Queue a writeback of `tvpn`, batch-cleaning dirty siblings and
    /// folding its pending GC relocations into the same program.
    fn queue_writeback(&mut self, tvpn: u64) {
        self.stats.writebacks += 1;
        // The entries of one translation page are one run of keys.
        let first = tvpn * self.entries_per_tp;
        let siblings: Vec<Lpn> = self
            .cmt
            .keys_in(first..first + self.entries_per_tp)
            .filter(|&l| self.cmt.is_dirty(l))
            .collect();
        for l in siblings {
            self.cmt.set_dirty(l, false);
            self.stats.batched_entries += 1;
        }
        self.clear_pending(tvpn);
        self.queued.push(TranslationWriteback {
            tvpn,
            old_ppn: self.gtd[tvpn as usize],
        });
    }

    /// Forget a pending relocation of `lpn`, if there is one.
    fn take_pending(&mut self, lpn: Lpn) -> bool {
        let pending = self.pending.get(lpn);
        if pending {
            self.pending.clear(lpn);
            let tvpn = self.tvpn_of(lpn);
            self.pending_in[tvpn as usize] -= 1;
        }
        pending
    }

    /// Forget every pending relocation translation page `tvpn` covers.
    fn clear_pending(&mut self, tvpn: u64) {
        let first = tvpn * self.entries_per_tp;
        let mut lpn = first;
        while self.pending_in[tvpn as usize] > 0 {
            self.take_pending(lpn);
            lpn += 1;
        }
        debug_assert!(lpn <= first + self.entries_per_tp);
    }

    /// Insert `lpn` into the CMT; a dirty eviction queues a writeback.
    fn cmt_insert(&mut self, lpn: Lpn, dirty: bool) {
        if let Some((victim, was_dirty)) = self.cmt.insert(lpn, dirty) {
            if was_dirty {
                let tvpn = self.tvpn_of(victim);
                self.queue_writeback(tvpn);
            }
        }
    }
}

/// The scheme's share of [`FtlKind`]'s methods (documented there).
impl Dftl {
    pub fn lookup(&mut self, lpn: Lpn, pin: bool) -> MapLookup {
        let tvpn = self.tvpn_of(lpn);
        if self.cmt.touch(lpn) {
            if pin {
                self.cmt.pin(lpn);
            }
            self.stats.cmt_hits += 1;
            return MapLookup::Ready(self.map[lpn as usize]);
        }
        if self.take_pending(lpn) {
            // The latest location is known in RAM (awaiting fold); no flash
            // read needed. Promote into the CMT as dirty so it eventually
            // persists.
            self.stats.pending_hits += 1;
            self.cmt_insert(lpn, true);
            if pin {
                self.cmt.pin(lpn);
            }
            return MapLookup::Ready(self.map[lpn as usize]);
        }
        if self.gtd[tvpn as usize].is_none() {
            // Translation page never persisted: every entry it covers is
            // either cached, pending, or unmapped. Not cached or pending ⇒
            // unmapped; answer without flash IO, and cache the (empty)
            // entry so a subsequent write can mark it dirty.
            self.cmt_insert(lpn, false);
            if pin {
                self.cmt.pin(lpn);
            }
            self.stats.cmt_hits += 1;
            return MapLookup::Ready(self.map[lpn as usize]);
        }
        self.stats.misses += 1;
        MapLookup::NeedsFetch(tvpn)
    }

    pub fn unpin(&mut self, lpn: Lpn) {
        self.cmt.unpin(lpn);
    }

    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let old = self.map[lpn as usize].replace(ppn);
        self.take_pending(lpn);
        self.cmt_insert(lpn, true);
        old
    }

    pub fn relocate(&mut self, lpn: Lpn, new_ppn: Ppn) {
        debug_assert!(
            self.map[lpn as usize].is_some(),
            "relocate of unmapped lpn {lpn}"
        );
        self.map[lpn as usize] = Some(new_ppn);
        if self.cmt.touch(lpn) {
            self.cmt.set_dirty(lpn, true);
        } else if !self.pending.get(lpn) {
            self.pending.set(lpn);
            let tvpn = self.tvpn_of(lpn);
            self.pending_in[tvpn as usize] += 1;
        }
    }

    pub fn trim(&mut self, lpn: Lpn) -> Option<Ppn> {
        let old = self.map[lpn as usize].take();
        if old.is_some() {
            self.take_pending(lpn);
            // Record the unmapping so it persists: cache dirty.
            self.cmt_insert(lpn, true);
        }
        old
    }

    pub fn fetch_complete(&mut self, _tvpn: u64, lpns: &[Lpn]) {
        for &lpn in lpns {
            self.cmt_insert(lpn, false);
        }
    }

    pub fn take_writebacks(&mut self) -> Vec<TranslationWriteback> {
        std::mem::take(&mut self.queued)
    }

    pub fn translation_location(&self, tvpn: u64) -> Option<Ppn> {
        self.gtd[tvpn as usize]
    }

    pub fn translation_written(&mut self, tvpn: u64, new_ppn: Ppn) -> Option<Ppn> {
        // A fresh flash copy subsumes any pending relocations of this page.
        self.clear_pending(tvpn);
        self.gtd[tvpn as usize].replace(new_ppn)
    }

    pub fn ram_bytes(&self) -> u64 {
        // CMT entries: 16 B (lpn + ppn); GTD: 8 B per tvpn; pending: 8 B.
        self.cmt.capacity() as u64 * 16
            + self.gtd.len() as u64 * 8
            + self.pending_in.iter().map(|&n| n as u64 * 8).sum::<u64>()
    }

    pub fn peek(&self, lpn: Lpn) -> Option<Ppn> {
        self.map[lpn as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dftl() -> Dftl {
        Dftl::new(64, 4, 8)
    }

    #[test]
    fn unwritten_translation_pages_need_no_fetch() {
        let mut d = dftl();
        assert_eq!(d.lookup(0, false), MapLookup::Ready(None));
        assert_eq!(d.lookup(63, false), MapLookup::Ready(None));
        assert_eq!(d.stats().misses, 0);
    }

    #[test]
    fn miss_after_eviction_requires_fetch() {
        let mut d = dftl();
        // Writes covering distinct translation pages churn the CMT.
        for i in 0..8u64 {
            d.update(i * 8, 100 + i);
        }
        let wbs = d.take_writebacks();
        assert!(!wbs.is_empty(), "dirty evictions must queue writebacks");
        // Persist one so the GTD knows a flash location.
        let wb = wbs[0];
        assert_eq!(d.translation_written(wb.tvpn, 500), None);
        let lpn = wb.tvpn * 8;
        assert_eq!(d.lookup(lpn, false), MapLookup::NeedsFetch(wb.tvpn));
        assert!(d.stats().misses >= 1);
    }

    #[test]
    fn lookup_evictions_also_queue_writebacks() {
        // Regression: evictions triggered by read-path lookups (not just
        // updates) must surface their writebacks.
        let mut d = Dftl::new(64, 2, 8);
        d.update(0, 10);
        d.update(8, 11); // CMT full, both dirty
        let _ = d.take_writebacks();
        // Read lookup of a third tvpn evicts a dirty entry.
        assert!(matches!(d.lookup(16, false), MapLookup::Ready(None)));
        let wbs = d.take_writebacks();
        assert_eq!(wbs.len(), 1, "lookup eviction dropped its writeback");
    }

    #[test]
    fn fetch_complete_caches_entries() {
        let mut d = dftl();
        d.update(0, 42);
        for i in 1..=4u64 {
            d.update(i * 8, i);
        }
        d.take_writebacks();
        d.translation_written(0, 900);
        assert_eq!(d.lookup(0, false), MapLookup::NeedsFetch(0));
        d.fetch_complete(0, &[0]);
        assert_eq!(d.lookup(0, false), MapLookup::Ready(Some(42)));
    }

    #[test]
    fn eviction_batches_same_tvpn_dirty_entries() {
        // CMT of 4; dirty entries 0,1,2 share tvpn 0; entry 8 is tvpn 1.
        let mut d = Dftl::new(64, 4, 8);
        d.update(0, 10);
        d.update(1, 11);
        d.update(2, 12);
        d.update(8, 13);
        let _ = d.take_writebacks();
        // Insert a 5th entry: LRU victim is lpn 0 (dirty, tvpn 0) → one
        // writeback that also cleans 1 and 2.
        d.update(16, 14);
        let wbs = d.take_writebacks();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].tvpn, 0);
        assert!(d.stats().batched_entries >= 2);
    }

    #[test]
    fn relocate_uncached_goes_pending_then_hits() {
        let mut d = dftl();
        d.update(0, 10);
        for i in 1..=4u64 {
            d.update(i * 8, i); // evict lpn 0
        }
        assert!(!d.cmt.contains(0));
        d.relocate(0, 99);
        assert_eq!(d.lookup(0, false), MapLookup::Ready(Some(99)));
        assert!(d.stats().pending_hits >= 1);
    }

    #[test]
    fn translation_written_folds_pending() {
        let mut d = dftl();
        d.update(0, 10);
        for i in 1..=4u64 {
            d.update(i * 8, i);
        }
        d.relocate(0, 99);
        d.translation_written(0, 700);
        assert_eq!(d.translation_location(0), Some(700));
        assert_eq!(d.peek(0), Some(99));
    }

    #[test]
    fn pinned_entries_stay_during_churn() {
        let mut d = Dftl::new(64, 2, 8);
        d.update(0, 10);
        assert_eq!(d.lookup(0, true), MapLookup::Ready(Some(10)));
        for i in 1..10u64 {
            d.update(i * 8 % 64, i);
        }
        assert!(d.cmt.contains(0));
        d.unpin(0);
    }

    #[test]
    fn trim_unmaps_and_dirties() {
        let mut d = dftl();
        d.update(0, 10);
        assert_eq!(d.trim(0), Some(10));
        assert_eq!(d.trim(0), None);
        assert_eq!(d.lookup(0, false), MapLookup::Ready(None));
        assert!(d.cmt.is_dirty(0));
    }

    #[test]
    fn update_returns_old_ppn() {
        let mut d = dftl();
        assert_eq!(d.update(5, 50), None);
        assert_eq!(d.update(5, 51), Some(50));
        assert_eq!(d.peek(5), Some(51));
    }

    #[test]
    fn ram_bytes_scales_with_cmt() {
        let small = Dftl::new(1024, 16, 512);
        let big = Dftl::new(1024, 1024, 512);
        assert!(big.ram_bytes() > small.ram_bytes());
    }

    #[test]
    fn tvpn_partitioning() {
        let d = Dftl::new(100, 4, 8);
        assert_eq!(d.tvpn_of(0), 0);
        assert_eq!(d.tvpn_of(7), 0);
        assert_eq!(d.tvpn_of(8), 1);
        assert_eq!(d.tvpn_count(), 13); // ceil(100/8)
    }

    #[test]
    fn take_writebacks_drains() {
        let mut d = Dftl::new(64, 1, 8);
        d.update(0, 1);
        d.update(8, 2);
        assert!(!d.take_writebacks().is_empty());
        assert!(d.take_writebacks().is_empty());
    }
}
