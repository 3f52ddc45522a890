//! Flash translation layer: logical-to-physical mapping schemes.
//!
//! The mapping scheme is the first axis of the paper's §2.2 design space.
//! Three families are modeled, all behind [`FtlKind`]:
//!
//! | scheme | granularity | RAM cost | flash cost | design-space coordinate |
//! |---|---|---|---|---|
//! | [`PageMap`] | page | 8 B / logical page | none | maximum flexibility, maximum RAM |
//! | [`Dftl`] | page, demand-cached | CMT + GTD (bounded) | translation-page fetches & writebacks | flexibility at bounded RAM, extra read traffic |
//! | [`Hybrid`] | block + log pages | directory + log page tables | switch / partial / full **merges** | minimum RAM, write placement constrained, merge storms under random writes |
//!
//! The page-based schemes are "the most flexible schemes i.e., page-based
//! mappings: the well-known DFTL and a page-based mapping scheme where the
//! entire mapping is kept in RAM" (§2.2); the hybrid log-block scheme
//! (FAST, Lee et al., TECS 2007) is the classic third point, whose merge
//! costs interact with GC, scheduling and wear leveling in exactly the
//! ways the paper's design questions probe.
//!
//! Simulator note: each scheme keeps the *authoritative* logical→physical
//! map in RAM for correctness bookkeeping; what differs is the **cost
//! model** — which lookups and updates require flash IOs, and (for the
//! hybrid scheme) which physical placements are legal. For DFTL the cost is
//! determined by the cached mapping table (CMT), the global translation
//! directory (GTD), and the batched pending updates from GC relocation;
//! for the hybrid scheme it is the log-block discipline and the merge
//! machinery the controller schedules on its behalf.

mod dftl;
mod hybrid;
mod lru;
mod page_map;
mod table;

pub use dftl::{Dftl, DftlStats};
pub use hybrid::{FullMergePlan, Hybrid, HybridEvent, HybridPlace, HybridStats, SwMergePlan};
pub use lru::LruCache;
pub use page_map::PageMap;
pub use table::PpnTable;

use crate::types::{Lpn, Ppn};

/// Result of a mapping lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapLookup {
    /// The entry is available now. `None` means the page was never written
    /// (reads of it complete immediately with zero-fill semantics).
    Ready(Option<Ppn>),
    /// The translation page `tvpn` must be read from flash first; retry
    /// after signalling `fetch_complete(tvpn)`.
    NeedsFetch(u64),
}

/// A dirty translation page that must be written back to flash.
///
/// Produced when a CMT eviction (or explicit flush) needs persistence. The
/// controller turns each into a mapping-source read (of `old_ppn`, when the
/// page already exists on flash) followed by a program, then calls
/// [`FtlKind::translation_written`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationWriteback {
    /// Translation virtual page number.
    pub tvpn: u64,
    /// Current flash copy to read+merge (None on first persistence).
    pub old_ppn: Option<Ppn>,
}

/// The available schemes behind one concrete type.
pub enum FtlKind {
    PageMap(PageMap),
    // Boxed: Dftl and Hybrid are an order of magnitude larger than
    // PageMap's header.
    Dftl(Box<Dftl>),
    Hybrid(Box<Hybrid>),
}

/// `$call` on whichever scheme `$kind` holds, bound to `$m`.
macro_rules! scheme {
    ($kind:expr, $m:ident => $call:expr) => {
        match $kind {
            FtlKind::PageMap($m) => $call,
            FtlKind::Dftl($m) => $call,
            FtlKind::Hybrid($m) => $call,
        }
    };
}

/// What every scheme does.
impl FtlKind {
    /// Look up the mapping entry for `lpn` (for a read, or before a write).
    ///
    /// `pin` prevents the entry from being evicted while an IO that depends
    /// on it is in flight; pair every `pin=true` lookup that returns
    /// `Ready` with an eventual [`FtlKind::unpin`].
    pub fn lookup(&mut self, lpn: Lpn, pin: bool) -> MapLookup {
        scheme!(self, m => m.lookup(lpn, pin))
    }

    /// Record that `lpn` now lives at `ppn` (application write committed).
    /// Returns the superseded physical page (to invalidate).
    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        scheme!(self, m => m.update(lpn, ppn))
    }

    /// Record that GC moved `lpn`'s live copy to `new_ppn` without changing
    /// its contents. Never stalls: schemes absorb the update in RAM
    /// (CMT or the batched pending-update set).
    pub fn relocate(&mut self, lpn: Lpn, new_ppn: Ppn) {
        scheme!(self, m => m.relocate(lpn, new_ppn))
    }

    /// Drop the mapping for `lpn` (trim). Returns the physical page to
    /// invalidate, if one existed.
    pub fn trim(&mut self, lpn: Lpn) -> Option<Ppn> {
        scheme!(self, m => m.trim(lpn))
    }

    /// Current mapping-structure RAM footprint in bytes (for the memory
    /// manager and RAM-budget experiments).
    pub fn ram_bytes(&self) -> u64 {
        scheme!(self, m => m.ram_bytes())
    }

    /// The authoritative location of `lpn`, bypassing the cost model.
    /// For invariant checks and tests only.
    pub fn peek(&self, lpn: Lpn) -> Option<Ppn> {
        scheme!(self, m => m.peek(lpn))
    }
}

/// What only DFTL does: the other schemes keep their whole map in RAM,
/// so they pin nothing, fetch nothing and have no translation pages.
impl FtlKind {
    fn dftl(&self) -> Option<&Dftl> {
        match self {
            FtlKind::Dftl(m) => Some(m),
            FtlKind::PageMap(_) | FtlKind::Hybrid(_) => None,
        }
    }

    fn dftl_mut(&mut self) -> Option<&mut Dftl> {
        match self {
            FtlKind::Dftl(m) => Some(m),
            FtlKind::PageMap(_) | FtlKind::Hybrid(_) => None,
        }
    }

    /// Release a pin taken by `lookup(.., true)`.
    pub fn unpin(&mut self, lpn: Lpn) {
        if let Some(m) = self.dftl_mut() {
            m.unpin(lpn);
        }
    }

    /// A translation-page fetch issued for `NeedsFetch(tvpn)` finished;
    /// entries of that page may now be inserted.
    pub fn fetch_complete(&mut self, tvpn: u64, lpns: &[Lpn]) {
        if let Some(m) = self.dftl_mut() {
            m.fetch_complete(tvpn, lpns);
        }
    }

    /// Drain translation writebacks queued by any mutation since the last
    /// drain. Every [`FtlKind::lookup`], [`FtlKind::update`],
    /// [`FtlKind::trim`] or [`FtlKind::fetch_complete`] may evict dirty
    /// CMT entries; the controller calls this after each batch of FTL
    /// activity and turns the results into mapping-source flash IOs.
    pub fn take_writebacks(&mut self) -> Vec<TranslationWriteback> {
        self.dftl_mut().map_or_else(Vec::new, Dftl::take_writebacks)
    }

    /// Where translation page `tvpn` currently lives on flash.
    pub fn translation_location(&self, tvpn: u64) -> Option<Ppn> {
        self.dftl()?.translation_location(tvpn)
    }

    /// A translation page was (re)programmed at `new_ppn` (writeback
    /// completion or GC move). Returns the superseded flash copy.
    pub fn translation_written(&mut self, tvpn: u64, new_ppn: Ppn) -> Option<Ppn> {
        self.dftl_mut()?.translation_written(tvpn, new_ppn)
    }
}
