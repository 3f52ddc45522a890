//! Full in-RAM page-level mapping.
//!
//! The simplest flexible scheme: the whole logical→physical map lives in
//! controller DRAM, so every lookup and update is free of flash IOs. Its
//! cost is RAM: 8 bytes per logical page, reported via
//! [`PageMap::ram_bytes`] so experiments can compare against DFTL budgets.

use crate::ftl::MapLookup;
use crate::types::{Lpn, Ppn};

/// Full page-level map held in RAM.
pub struct PageMap {
    map: Vec<Option<Ppn>>,
}

impl PageMap {
    /// A map for `logical_pages` pages, all initially unmapped.
    pub fn new(logical_pages: u64) -> Self {
        PageMap {
            map: vec![None; logical_pages as usize],
        }
    }

    /// Rebuild a map from a recovered logical→physical table (mount-time
    /// OOB scan or checkpoint replay).
    pub fn restore(map: Vec<Option<Ppn>>) -> Self {
        PageMap { map }
    }
}

/// The scheme's share of [`FtlKind`]'s methods (documented there).
impl PageMap {
    pub fn lookup(&mut self, lpn: Lpn, _pin: bool) -> MapLookup {
        MapLookup::Ready(self.map[lpn as usize])
    }

    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        self.map[lpn as usize].replace(ppn)
    }

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
        self.map.len() as u64 * 8
    }

    pub fn peek(&self, lpn: Lpn) -> Option<Ppn> {
        self.map[lpn as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_always_ready() {
        let mut m = PageMap::new(10);
        assert_eq!(m.lookup(3, false), MapLookup::Ready(None));
        m.update(3, 77);
        assert_eq!(m.lookup(3, true), MapLookup::Ready(Some(77)));
        assert_eq!(m.peek(3), Some(77));
    }

    #[test]
    fn update_returns_superseded_ppn() {
        let mut m = PageMap::new(4);
        assert_eq!(m.update(0, 5), None);
        assert_eq!(m.update(0, 9), Some(5));
    }

    #[test]
    fn relocate_moves_without_history() {
        let mut m = PageMap::new(4);
        m.update(1, 10);
        m.relocate(1, 20);
        assert_eq!(m.peek(1), Some(20));
    }

    #[test]
    fn trim_unmaps() {
        let mut m = PageMap::new(4);
        m.update(2, 8);
        assert_eq!(m.trim(2), Some(8));
        assert_eq!(m.trim(2), None);
        assert_eq!(m.lookup(2, false), MapLookup::Ready(None));
    }

    #[test]
    fn ram_cost_is_8_bytes_per_page() {
        let m = PageMap::new(1000);
        assert_eq!(m.ram_bytes(), 8000);
    }
}
