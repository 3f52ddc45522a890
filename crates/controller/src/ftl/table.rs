//! The one mapping-table mechanism: a dense index → physical page table.
//!
//! Every logical→physical map the controller keeps (the page map, DFTL's
//! authoritative map and GTD, the hybrid scheme's map and block directory,
//! recovery's rebuilt tables, checkpoint snapshots) is a [`PpnTable`]. A
//! slot holds the page number in 32 bits, with `u32::MAX` for unmapped:
//! `Geometry::validate` keeps every array below `u32::MAX` pages. The
//! *modeled* controller RAM of a map ([`crate::ftl::FtlKind::ram_bytes`])
//! is the scheme's own cost model and does not follow this host layout.

use crate::types::Ppn;

/// One table entry: a page number, or [`UNMAPPED`].
type Slot = u32;

// A quarter of `Option<u64>`: the page map and DFTL's map hold one slot
// per logical page, the largest host tables after the flash array's.
const _: () = assert!(std::mem::size_of::<Slot>() == 4);

/// The slot value of an unmapped index.
const UNMAPPED: Slot = Slot::MAX;

/// A fixed-length table of optional physical page numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpnTable {
    slots: Vec<Slot>,
}

/// The slot value of `ppn`.
fn slot(ppn: Ppn) -> Slot {
    match Slot::try_from(ppn) {
        Ok(s) if s != UNMAPPED => s,
        _ => panic!("ppn {ppn} does not fit a mapping table slot"),
    }
}

fn ppn(slot: Slot) -> Option<Ppn> {
    (slot != UNMAPPED).then_some(Ppn::from(slot))
}

impl PpnTable {
    /// `len` unmapped indexes.
    pub fn unmapped(len: u64) -> Self {
        PpnTable {
            slots: vec![UNMAPPED; len as usize],
        }
    }

    /// Where index `i` maps. Panics when `i` is out of range.
    #[inline]
    pub fn get(&self, i: u64) -> Option<Ppn> {
        ppn(self.slots[i as usize])
    }

    /// Map `i` to `to`; returns where it mapped before.
    #[inline]
    pub fn replace(&mut self, i: u64, to: Ppn) -> Option<Ppn> {
        ppn(std::mem::replace(&mut self.slots[i as usize], slot(to)))
    }

    /// Unmap `i`; returns where it mapped before.
    #[inline]
    pub fn take(&mut self, i: u64) -> Option<Ppn> {
        ppn(std::mem::replace(&mut self.slots[i as usize], UNMAPPED))
    }

    /// Map `i` to `to` (`None`: unmap it).
    #[inline]
    pub fn set(&mut self, i: u64, to: Option<Ppn>) {
        self.slots[i as usize] = to.map_or(UNMAPPED, slot);
    }

    /// Number of indexes.
    pub fn len(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Whether the table has no indexes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every index's mapping, in index order.
    pub fn iter(&self) -> impl Iterator<Item = Option<Ppn>> + '_ {
        self.slots.iter().map(|&s| ppn(s))
    }
}

impl FromIterator<Option<Ppn>> for PpnTable {
    fn from_iter<I: IntoIterator<Item = Option<Ppn>>>(iter: I) -> Self {
        PpnTable {
            slots: iter.into_iter().map(|p| p.map_or(UNMAPPED, slot)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round_trip_up_to_the_largest_page() {
        let top = Ppn::from(u32::MAX - 1);
        let mut t = PpnTable::unmapped(3);
        assert_eq!(t.get(0), None);
        assert_eq!(t.replace(0, top), None);
        assert_eq!(t.replace(0, 0), Some(top));
        t.set(1, Some(top));
        assert_eq!(t.get(1), Some(top));
        assert_eq!(t.take(1), Some(top));
        assert_eq!(t.take(1), None);
        t.set(2, Some(7));
        t.set(2, None);
        assert_eq!(t.iter().collect::<Vec<_>>(), [Some(0), None, None]);
        let back: PpnTable = [None, Some(top), Some(0)].into_iter().collect();
        assert_eq!(back.iter().collect::<Vec<_>>(), [None, Some(top), Some(0)]);
        assert_eq!(back.len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn the_unmapped_value_is_not_a_page() {
        PpnTable::unmapped(1).replace(0, Ppn::from(u32::MAX));
    }
}
