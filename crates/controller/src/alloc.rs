//! Write allocation: which LUN, which block, which page.
//!
//! "For writes, the mapping scheme imposes constraints on which physical
//! address a given IO might be bound to" (§2.2) — with page mapping the
//! constraint is only NAND's sequential-program rule, so the allocator is
//! free to choose *where* each write lands, and that choice is a scheduling
//! decision. The allocator keeps, per LUN, a free-block list and one active
//! (partially written) block per [`Stream`]; streams separate hot/cold data
//! (dynamic wear leveling), GC migrations, DFTL translation pages, and
//! open-interface update-locality groups.

use std::collections::BTreeMap;

use eagletree_flash::{BlockAddr, Geometry, PhysicalAddr};

use crate::bits::BitSet;
use crate::config::WriteAllocPolicy;

/// A write stream: pages in one stream share active blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stream {
    /// Default / hot application data.
    Hot,
    /// Cold application data (dynamic WL steers this to old blocks).
    Cold,
    /// GC migration destinations.
    Gc,
    /// DFTL translation pages.
    Translation,
    /// Static wear-leveling moves: cold data, steered to old blocks like
    /// `Cold`, but internal, so a move may take its LUN's last free block.
    /// No GC starts on a LUN while its wear-leveling job runs, so a move
    /// that waited on the reserve would wait forever; the job's erase
    /// gives the block back.
    WlMove,
    /// Open-interface update-locality group.
    Locality(u32),
}

impl Stream {
    /// Streams whose writes may consume the last free block of a LUN.
    /// Application streams must leave headroom so GC can always make
    /// progress.
    pub fn is_internal(self) -> bool {
        matches!(self, Stream::Gc | Stream::Translation | Stream::WlMove)
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveBlock {
    addr: BlockAddr,
    next_page: u32,
}

/// A LUN's open block per stream. The scheduler asks `can_alloc` of every
/// candidate LUN of every probe, so the five fixed streams get a direct
/// slot each — no search on that path — and only the open-interface
/// locality groups, unbounded in number, a small map (of slots too: a
/// group's entry stays, empty, once its block is full).
#[derive(Debug, Clone, Default)]
struct ActiveBlocks {
    fixed: [Option<ActiveBlock>; 5],
    locality: BTreeMap<u32, Option<ActiveBlock>>,
}

impl ActiveBlocks {
    /// The fixed slot of `stream`, or its locality group.
    fn index(stream: Stream) -> Result<usize, u32> {
        match stream {
            Stream::Hot => Ok(0),
            Stream::Cold => Ok(1),
            Stream::Gc => Ok(2),
            Stream::Translation => Ok(3),
            Stream::WlMove => Ok(4),
            Stream::Locality(g) => Err(g),
        }
    }

    fn get(&self, stream: Stream) -> Option<&ActiveBlock> {
        match Self::index(stream) {
            Ok(i) => self.fixed[i].as_ref(),
            Err(g) => self.locality.get(&g)?.as_ref(),
        }
    }

    fn slot(&mut self, stream: Stream) -> &mut Option<ActiveBlock> {
        match Self::index(stream) {
            Ok(i) => &mut self.fixed[i],
            Err(g) => self.locality.entry(g).or_default(),
        }
    }

    fn slots(&mut self) -> impl Iterator<Item = &mut Option<ActiveBlock>> {
        self.fixed.iter_mut().chain(self.locality.values_mut())
    }

    fn values(&self) -> impl Iterator<Item = &ActiveBlock> {
        self.fixed.iter().chain(self.locality.values()).flatten()
    }
}

#[derive(Debug, Clone, Default)]
struct LunAlloc {
    /// Free blocks with their erase counts (for age-aware allocation).
    free: Vec<(BlockAddr, u32)>,
    active: ActiveBlocks,
}

/// Per-LUN free-space manager.
pub struct Allocator {
    geometry: Geometry,
    luns: Vec<LunAlloc>,
    policy: WriteAllocPolicy,
    /// Dynamic wear leveling: hot streams take young blocks, cold old.
    dynamic_wl: bool,
    rr_cursor: usize,
    /// The GC floor: a LUN with fewer free blocks is short.
    floor: usize,
    /// The LUNs with fewer than `floor` free blocks, kept where the free
    /// lists change so the GC trigger visits these and no others.
    short: BitSet,
}

impl Allocator {
    /// All blocks start free with erase count zero.
    pub fn new(geometry: Geometry, policy: WriteAllocPolicy, dynamic_wl: bool) -> Self {
        let mut luns = vec![LunAlloc::default(); geometry.total_luns() as usize];
        for b in geometry.blocks() {
            luns[geometry.lun_index(b.channel, b.lun) as usize]
                .free
                .push((b, 0));
        }
        Allocator {
            geometry,
            luns,
            policy,
            dynamic_wl,
            rr_cursor: 0,
            floor: 0,
            short: BitSet::new(geometry.total_luns().into()),
        }
    }

    /// An allocator with *no* free blocks: the mount-time starting point.
    /// Recovery hands back each block it found erased (with its surviving
    /// erase count) via [`Allocator::block_freed`].
    pub fn empty(geometry: Geometry, policy: WriteAllocPolicy, dynamic_wl: bool) -> Self {
        Allocator {
            geometry,
            luns: vec![LunAlloc::default(); geometry.total_luns() as usize],
            policy,
            dynamic_wl,
            rr_cursor: 0,
            floor: 0,
            short: BitSet::new(geometry.total_luns().into()),
        }
    }

    /// Keep the set of LUNs with fewer than `floor` free blocks
    /// ([`Allocator::short_luns`]; without a floor it stays empty).
    pub(crate) fn with_gc_floor(mut self, floor: usize) -> Self {
        self.floor = floor;
        for lun in 0..self.geometry.total_luns() {
            self.note_free(lun);
        }
        self
    }

    /// Re-derive `lun`'s membership of `short` after its free list changed.
    fn note_free(&mut self, lun: u32) {
        let short = self.luns[lun as usize].free.len() < self.floor;
        self.short.assign(lun, short);
    }

    /// The LUNs with fewer free blocks than the GC floor.
    pub(crate) fn short_luns(&self) -> &BitSet {
        &self.short
    }

    /// The GC floor the short set is kept for.
    pub(crate) fn gc_floor(&self) -> usize {
        self.floor
    }

    /// Number of wholly-free blocks on a LUN.
    pub fn free_blocks(&self, lun: u32) -> usize {
        self.luns[lun as usize].free.len()
    }

    /// Free pages on a LUN: whole free blocks plus room in active blocks.
    pub fn free_pages(&self, lun: u32) -> u64 {
        let l = &self.luns[lun as usize];
        let ppb = self.geometry.pages_per_block as u64;
        l.free.len() as u64 * ppb
            + l.active
                .values()
                .map(|a| (self.geometry.pages_per_block - a.next_page) as u64)
                .sum::<u64>()
    }

    /// True if `block` sits in a free list.
    pub fn is_free(&self, block: BlockAddr) -> bool {
        let lun = self.geometry.lun_index(block.channel, block.lun) as usize;
        self.luns[lun].free.iter().any(|(b, _)| *b == block)
    }

    /// True if `block` is an active (partially written) allocation target.
    pub fn is_active(&self, block: BlockAddr) -> bool {
        let lun = self.geometry.lun_index(block.channel, block.lun) as usize;
        self.luns[lun].active.values().any(|a| a.addr == block)
    }

    /// The active blocks of `lun`, at most one per stream.
    pub(crate) fn open_blocks(&self, lun: u32) -> impl Iterator<Item = BlockAddr> + '_ {
        self.luns[lun as usize].active.values().map(|a| a.addr)
    }

    /// Whether a page could be allocated right now on `lun` for `stream`.
    pub fn can_alloc(&self, lun: u32, stream: Stream) -> bool {
        let l = &self.luns[lun as usize];
        if let Some(a) = l.active.get(stream) {
            if a.next_page < self.geometry.pages_per_block {
                return true;
            }
        }
        if stream.is_internal() {
            !l.free.is_empty()
        } else {
            // Application streams never take the last free block: it is
            // reserved so GC can always allocate a migration destination.
            l.free.len() > 1
        }
    }

    /// The page the next `alloc(lun, stream)` would return *if* it comes
    /// from the stream's current active block (`None` when a fresh block
    /// would have to be opened). Used to probe for pipelined programs.
    pub fn peek_active(&self, lun: u32, stream: Stream) -> Option<PhysicalAddr> {
        let l = &self.luns[lun as usize];
        let a = l.active.get(stream)?;
        if a.next_page < self.geometry.pages_per_block {
            Some(a.addr.page(a.next_page))
        } else {
            None
        }
    }

    /// Allocate the next page on `lun` for `stream`.
    ///
    /// Returns `None` when the LUN is out of space for this stream (callers
    /// leave the op pending and retry after GC frees a block).
    pub fn alloc(&mut self, lun: u32, stream: Stream) -> Option<PhysicalAddr> {
        if !self.can_alloc(lun, stream) {
            return None;
        }
        let ppb = self.geometry.pages_per_block;
        let l = &mut self.luns[lun as usize];
        let slot = l.active.slot(stream);
        if let Some(a) = slot {
            if a.next_page < ppb {
                let addr = a.addr.page(a.next_page);
                a.next_page += 1;
                if a.next_page == ppb {
                    *slot = None;
                }
                return Some(addr);
            }
        }
        let block = Self::pop_free(l, stream, self.dynamic_wl)?;
        let addr = block.page(0);
        if ppb > 1 {
            *l.active.slot(stream) = Some(ActiveBlock {
                addr: block,
                next_page: 1,
            });
        }
        self.note_free(lun);
        Some(addr)
    }

    /// Allocate a page in a *specific plane* of a LUN (copy-back targets).
    pub fn alloc_in_plane(&mut self, lun: u32, plane: u32, stream: Stream) -> Option<PhysicalAddr> {
        let ppb = self.geometry.pages_per_block;
        let l = &mut self.luns[lun as usize];
        let slot = l.active.slot(stream);
        if let Some(a) = slot {
            if a.addr.plane == plane && a.next_page < ppb {
                let addr = a.addr.page(a.next_page);
                a.next_page += 1;
                if a.next_page == ppb {
                    *slot = None;
                }
                return Some(addr);
            }
        }
        // Need a fresh block in this plane; only take it if the stream may
        // (or a spare remains for internal streams).
        let min_left = if stream.is_internal() { 0 } else { 1 };
        if l.free.iter().filter(|(b, _)| b.plane == plane).count() == 0
            || l.free.len() <= min_left
        {
            return None;
        }
        // Current active block (wrong plane) is abandoned for this stream:
        // its remaining pages are left unwritten; GC reclaims them later.
        let pos = Self::pick_free_in(l, stream, self.dynamic_wl, Some(plane))?;
        let (block, _) = l.free.swap_remove(pos);
        let addr = block.page(0);
        if ppb > 1 {
            *l.active.slot(stream) = Some(ActiveBlock {
                addr: block,
                next_page: 1,
            });
        }
        self.note_free(lun);
        Some(addr)
    }

    fn pick_free_in(
        l: &LunAlloc,
        stream: Stream,
        dynamic_wl: bool,
        plane: Option<u32>,
    ) -> Option<usize> {
        let candidates = l
            .free
            .iter()
            .enumerate()
            .filter(|(_, (b, _))| plane.is_none_or(|p| b.plane == p));
        if dynamic_wl {
            // Hot data → youngest block (lowest erase count) so young
            // blocks age; cold data → oldest block so old blocks rest.
            match stream {
                Stream::Cold | Stream::WlMove => candidates.max_by_key(|(_, (_, ec))| *ec).map(|(i, _)| i),
                Stream::Hot | Stream::Gc | Stream::Translation | Stream::Locality(_) => {
                    candidates.min_by_key(|(_, (_, ec))| *ec).map(|(i, _)| i)
                }
            }
        } else {
            candidates.map(|(i, _)| i).next()
        }
    }

    fn pop_free(l: &mut LunAlloc, stream: Stream, dynamic_wl: bool) -> Option<BlockAddr> {
        let pos = Self::pick_free_in(l, stream, dynamic_wl, None)?;
        Some(l.free.swap_remove(pos).0)
    }

    /// Take a whole free block for FTL-managed structures (hybrid log
    /// blocks and merge destinations), which keep their own fill pointers.
    ///
    /// Picks the LUN with the most free blocks (load spreading, lowest
    /// index on ties); within it, dynamic wear leveling steers these
    /// hot-churn blocks to the youngest candidate. Returns the block and
    /// its erase count, or `None` when every LUN is empty — callers retry
    /// after a pending erase returns a block.
    pub fn take_block(&mut self) -> Option<(BlockAddr, u32)> {
        let lun = (0..self.geometry.total_luns())
            .max_by_key(|&l| (self.luns[l as usize].free.len(), std::cmp::Reverse(l)))?;
        let l = &mut self.luns[lun as usize];
        if l.free.is_empty() {
            return None;
        }
        let pos = if self.dynamic_wl {
            l.free
                .iter()
                .enumerate()
                .min_by_key(|(_, (b, ec))| (*ec, *b))
                .map(|(i, _)| i)
                .expect("non-empty free list")
        } else {
            0
        };
        let taken = l.free.swap_remove(pos);
        self.note_free(lun);
        Some(taken)
    }

    /// Remove `block` from this allocator entirely: drop it from the free
    /// list and close it if it is an active allocation target. Grown-bad
    /// retirement after a program-status failure — the block is never
    /// handed out again; its surviving live pages are evacuated by normal
    /// GC and the eventual erase masks it bad for good.
    pub fn retire_block(&mut self, block: BlockAddr) {
        let lun = self.geometry.lun_index(block.channel, block.lun);
        let l = &mut self.luns[lun as usize];
        l.free.retain(|(b, _)| *b != block);
        for slot in l.active.slots() {
            *slot = slot.filter(|a| a.addr != block);
        }
        self.note_free(lun);
    }

    /// Return an erased block to its LUN's free list.
    pub fn block_freed(&mut self, block: BlockAddr, erase_count: u32) {
        let lun = self.geometry.lun_index(block.channel, block.lun);
        let free = &mut self.luns[lun as usize].free;
        debug_assert!(!free.iter().any(|(b, _)| *b == block), "double free of {block:?}");
        free.push((block, erase_count));
        self.note_free(lun);
    }

    /// Choose a LUN for an unbound write per the write-allocation policy,
    /// among `ready` — the LUNs whose resources could take a program now —
    /// for which `usable` holds (the stream can allocate there and its
    /// program can start). Costs the members of `ready` it looks at, not
    /// the LUNs of the device.
    pub(crate) fn choose_lun(
        &mut self,
        ready: &BitSet,
        usable: impl Fn(&Allocator, u32) -> bool,
    ) -> Option<u32> {
        let usable = |l: &u32| usable(self, *l);
        match self.policy {
            WriteAllocPolicy::RoundRobin => {
                // From the cursor upwards, then around.
                let from = self.rr_cursor as u32;
                let upwards = ready.ones().filter(|&l| l >= from);
                let around = ready.ones().take_while(|&l| l < from);
                let lun = upwards.chain(around).find(usable)?;
                self.rr_cursor = ((lun + 1) % self.geometry.total_luns()) as usize;
                Some(lun)
            }
            WriteAllocPolicy::LeastUtilized => {
                ready.ones().filter(usable).max_by_key(|&l| self.free_pages(l))
            }
            // Striping binds the LUN from the LPN before ops are enqueued;
            // an unbound chooser falls back to round-robin order.
            WriteAllocPolicy::Striping => ready.ones().find(usable),
        }
    }

    /// The LUN a striped write of `lpn` is bound to.
    pub fn striped_lun(&self, lpn: u64) -> u32 {
        (lpn % self.geometry.total_luns() as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> Allocator {
        Allocator::new(Geometry::tiny(), WriteAllocPolicy::RoundRobin, false)
    }

    fn every_lun() -> BitSet {
        let n = Geometry::tiny().total_luns();
        let mut all = BitSet::new(n.into());
        (0..n).for_each(|l| all.set(l));
        all
    }

    #[test]
    fn fresh_allocator_has_all_blocks_free() {
        let a = alloc();
        let g = Geometry::tiny();
        for lun in 0..g.total_luns() {
            assert_eq!(a.free_blocks(lun), g.blocks_per_lun() as usize);
            assert_eq!(
                a.free_pages(lun),
                g.blocks_per_lun() as u64 * g.pages_per_block as u64
            );
        }
    }

    #[test]
    fn allocations_are_sequential_within_block() {
        let mut a = alloc();
        let first = a.alloc(0, Stream::Hot).unwrap();
        assert_eq!(first.page, 0);
        let second = a.alloc(0, Stream::Hot).unwrap();
        assert_eq!(second.block_addr(), first.block_addr());
        assert_eq!(second.page, 1);
    }

    #[test]
    fn streams_use_distinct_blocks() {
        let mut a = alloc();
        let hot = a.alloc(0, Stream::Hot).unwrap();
        let gc = a.alloc(0, Stream::Gc).unwrap();
        let loc = a.alloc(0, Stream::Locality(3)).unwrap();
        assert_ne!(hot.block_addr(), gc.block_addr());
        assert_ne!(hot.block_addr(), loc.block_addr());
        assert_ne!(gc.block_addr(), loc.block_addr());
    }

    #[test]
    fn full_block_rolls_to_next_free() {
        let mut a = alloc();
        let ppb = Geometry::tiny().pages_per_block;
        let first_block = a.alloc(0, Stream::Hot).unwrap().block_addr();
        for _ in 1..ppb {
            a.alloc(0, Stream::Hot).unwrap();
        }
        let next = a.alloc(0, Stream::Hot).unwrap();
        assert_ne!(next.block_addr(), first_block);
        assert_eq!(next.page, 0);
    }

    #[test]
    fn app_streams_cannot_take_last_free_block() {
        let g = Geometry {
            blocks_per_plane: 2,
            ..Geometry::tiny()
        };
        let mut a = Allocator::new(g, WriteAllocPolicy::RoundRobin, false);
        // Drain: app can open the first block (2 free), fill it…
        for _ in 0..g.pages_per_block {
            a.alloc(0, Stream::Hot).unwrap();
        }
        // …but not open the last block.
        assert!(!a.can_alloc(0, Stream::Hot));
        assert!(a.alloc(0, Stream::Hot).is_none());
        // Internal streams can.
        assert!(a.can_alloc(0, Stream::Gc));
        assert!(a.alloc(0, Stream::Gc).is_some());
    }

    #[test]
    fn block_freed_returns_to_pool() {
        let g = Geometry {
            blocks_per_plane: 2,
            ..Geometry::tiny()
        };
        let mut a = Allocator::new(g, WriteAllocPolicy::RoundRobin, false);
        let block = a.alloc(0, Stream::Gc).unwrap().block_addr();
        for _ in 1..g.pages_per_block {
            a.alloc(0, Stream::Gc).unwrap();
        }
        assert_eq!(a.free_blocks(0), 1);
        a.block_freed(block, 1);
        assert_eq!(a.free_blocks(0), 2);
        assert!(a.is_free(block));
    }

    #[test]
    fn dynamic_wl_steers_hot_to_young_cold_to_old() {
        let g = Geometry {
            blocks_per_plane: 4,
            ..Geometry::tiny()
        };
        let mut a = Allocator::new(g, WriteAllocPolicy::RoundRobin, true);
        // Rebuild lun 0's free list with distinct erase counts.
        let blocks: Vec<BlockAddr> = (0..4)
            .map(|i| BlockAddr {
                channel: 0,
                lun: 0,
                plane: 0,
                block: i,
            })
            .collect();
        a.luns[0].free.clear();
        for (i, b) in blocks.iter().enumerate() {
            a.luns[0].free.push((*b, i as u32 * 10));
        }
        let hot = a.alloc(0, Stream::Hot).unwrap();
        assert_eq!(hot.block_addr(), blocks[0], "hot should take youngest");
        let cold = a.alloc(0, Stream::Cold).unwrap();
        assert_eq!(cold.block_addr(), blocks[3], "cold should take oldest");
    }

    #[test]
    fn alloc_in_plane_respects_plane() {
        let g = Geometry {
            planes_per_lun: 2,
            ..Geometry::tiny()
        };
        let mut a = Allocator::new(g, WriteAllocPolicy::RoundRobin, false);
        let p1 = a.alloc_in_plane(0, 1, Stream::Gc).unwrap();
        assert_eq!(p1.plane, 1);
        let p1b = a.alloc_in_plane(0, 1, Stream::Gc).unwrap();
        assert_eq!(p1b.block_addr(), p1.block_addr());
        assert_eq!(p1b.page, 1);
    }

    #[test]
    fn choose_lun_round_robin_rotates() {
        let mut a = alloc();
        let all = every_lun();
        let l1 = a.choose_lun(&all, |_, _| true).unwrap();
        let l2 = a.choose_lun(&all, |_, _| true).unwrap();
        assert_eq!((l1, l2), (0, 1));
        // Unusable LUNs are skipped, and so are LUNs that are not ready.
        let l3 = a.choose_lun(&all, |_, l| l == 0).unwrap();
        assert_eq!(l3, 0);
        assert_eq!(a.choose_lun(&all, |_, _| false), None);
        let mut only = BitSet::new(Geometry::tiny().total_luns().into());
        only.set(3u32);
        assert_eq!(a.choose_lun(&only, |_, _| true), Some(3));
        assert_eq!(a.choose_lun(&only, |_, _| true), Some(3), "around the cursor");
        only.set(1u32);
        assert_eq!(a.choose_lun(&only, |_, _| true), Some(1), "the cursor wrapped to 0");
        assert_eq!(a.choose_lun(&only, |_, _| true), Some(3));
        assert_eq!(a.choose_lun(&BitSet::new(4), |_, _| true), None);
    }

    #[test]
    fn choose_lun_least_utilized_prefers_space() {
        let mut a = Allocator::new(Geometry::tiny(), WriteAllocPolicy::LeastUtilized, false);
        // Consume a block's worth on LUN 0.
        for _ in 0..Geometry::tiny().pages_per_block {
            a.alloc(0, Stream::Hot).unwrap();
        }
        let l = a.choose_lun(&every_lun(), |a, l| a.can_alloc(l, Stream::Hot)).unwrap();
        assert_ne!(l, 0);
    }

    #[test]
    fn striped_lun_is_modulo() {
        let a = alloc();
        let n = Geometry::tiny().total_luns() as u64;
        assert_eq!(a.striped_lun(0), 0);
        assert_eq!(a.striped_lun(n + 1), 1);
    }

    #[test]
    fn take_block_prefers_fullest_lun_and_drains() {
        let mut a = alloc();
        let g = Geometry::tiny();
        // Consume one block from LUN 0: the next take goes elsewhere.
        let first = a.take_block().unwrap().0;
        assert_eq!(g.lun_index(first.channel, first.lun), 0);
        let second = a.take_block().unwrap().0;
        assert_ne!(g.lun_index(second.channel, second.lun), 0);
        // Taken blocks are no longer free.
        assert!(!a.is_free(first));
        let total = g.total_blocks();
        for _ in 2..total {
            assert!(a.take_block().is_some());
        }
        assert!(a.take_block().is_none());
    }

    #[test]
    fn take_block_with_dynamic_wl_prefers_young() {
        let mut a = Allocator::new(Geometry::tiny(), WriteAllocPolicy::RoundRobin, true);
        // Age every block except one on LUN 0.
        for (i, entry) in a.luns[0].free.iter_mut().enumerate() {
            entry.1 = if i == 3 { 0 } else { 50 };
        }
        for l in 1..Geometry::tiny().total_luns() as usize {
            for entry in a.luns[l].free.iter_mut() {
                entry.1 = 50;
            }
        }
        let (b, ec) = a.take_block().unwrap();
        assert_eq!(ec, 0, "dynamic WL should hand out the youngest block");
        assert_eq!(Geometry::tiny().lun_index(b.channel, b.lun), 0);
    }

    #[test]
    fn is_active_tracks_open_blocks() {
        let mut a = alloc();
        let b = a.alloc(0, Stream::Hot).unwrap().block_addr();
        assert!(a.is_active(b));
        assert!(!a.is_free(b));
    }

    #[test]
    fn retire_block_closes_active_and_drops_free() {
        let mut a = alloc();
        // Retire the currently active hot block: the next allocation must
        // come from a different block.
        let active = a.alloc(0, Stream::Hot).unwrap().block_addr();
        a.retire_block(active);
        assert!(!a.is_active(active));
        let next = a.alloc(0, Stream::Hot).unwrap();
        assert_ne!(next.block_addr(), active);
        assert_eq!(next.page, 0, "retired block's fill pointer is abandoned");
        // Retiring a free block shrinks the pool.
        let free_before = a.free_blocks(0);
        let some_free = a.luns[0].free[0].0;
        a.retire_block(some_free);
        assert_eq!(a.free_blocks(0), free_before - 1);
        assert!(!a.is_free(some_free));
    }
}
