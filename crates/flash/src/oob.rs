//! Per-page out-of-band (OOB) metadata.
//!
//! Real NAND pages carry a spare area alongside the data payload; FTLs use
//! it to persist, with every program, which logical page the physical page
//! holds and a version stamp. After a power failure this is the only
//! durable record of the mapping: mount-time recovery scans the OOB of
//! written pages and rebuilds the logical→physical map (see the
//! controller's `recovery` module). The live controller reads the same
//! tag, while a page is valid, to learn what a page it relocates holds.
//!
//! Two counters travel in each entry:
//!
//! * [`OobEntry::seq`] — the *content version*. Fresh for every host or
//!   translation write; **copied from the source** for GC / wear-leveling /
//!   merge relocations, because a relocation does not change the content.
//!   Recovery keeps, per logical page, the copy with the highest
//!   `(seq, stamp)` pair — so a relocated copy never outranks a newer host
//!   write, while it does supersede the original it was copied from.
//! * [`OobEntry::stamp`] — the *program stamp*, fresh for every program
//!   (copies included). Stamps grow monotonically with issue order, so
//!   within one block the last programmed page carries the block's highest
//!   stamp; checkpointed recovery probes it to decide whether the block
//!   holds any entry newer than the checkpoint watermark.

/// What a programmed page holds, as recorded in its OOB spare area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OobTag {
    /// Application data for this logical page.
    Data { lpn: u64 },
    /// A DFTL translation page (tvpn = translation virtual page number).
    Translation { tvpn: u64 },
    /// A merge filler program keeping NAND page order over an unmapped
    /// hole; carries no logical content and is skipped by recovery.
    Filler,
    /// A page of a mapping checkpoint written to reserved blocks.
    Checkpoint { slot: u8 },
}

/// The OOB record persisted with one page program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobEntry {
    /// What the page holds.
    pub tag: OobTag,
    /// Content version (see module docs).
    pub seq: u64,
    /// Monotone program stamp (see module docs).
    pub stamp: u64,
}

/// One page's OOB record as the array stores it.
///
/// The tag word holds the kind in its top three bits and the tag's lpn,
/// tvpn or slot below them; kind 0 is a page with no record (unwritten,
/// erased or torn). `Option<OobEntry>` would take 32 B a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedOob {
    tag: u64,
    seq: u64,
    stamp: u64,
}

// Three words: one per physical page, the array's largest table.
const _: () = assert!(std::mem::size_of::<PackedOob>() == 24);

const KIND_SHIFT: u32 = 61;
const PAYLOAD_MASK: u64 = (1 << KIND_SHIFT) - 1;
const EMPTY: u64 = 0;
const DATA: u64 = 1;
const TRANSLATION: u64 = 2;
const FILLER: u64 = 3;
const CHECKPOINT: u64 = 4;

impl PackedOob {
    /// No record.
    pub(crate) const EMPTY: PackedOob = PackedOob {
        tag: EMPTY,
        seq: 0,
        stamp: 0,
    };

    /// Pack `e`. Its lpn or tvpn must fit the payload's 61 bits, which
    /// `Geometry::validate`'s page bound leaves room for.
    pub(crate) fn pack(e: OobEntry) -> Self {
        let (kind, payload) = match e.tag {
            OobTag::Data { lpn } => (DATA, lpn),
            OobTag::Translation { tvpn } => (TRANSLATION, tvpn),
            OobTag::Filler => (FILLER, 0),
            OobTag::Checkpoint { slot } => (CHECKPOINT, u64::from(slot)),
        };
        assert!(
            payload <= PAYLOAD_MASK,
            "OOB tag payload {payload} overflows 61 bits"
        );
        PackedOob {
            tag: kind << KIND_SHIFT | payload,
            seq: e.seq,
            stamp: e.stamp,
        }
    }

    /// The record `pack` was given, or `None` for [`PackedOob::EMPTY`].
    pub(crate) fn unpack(self) -> Option<OobEntry> {
        let payload = self.tag & PAYLOAD_MASK;
        let tag = match self.tag >> KIND_SHIFT {
            EMPTY => return None,
            DATA => OobTag::Data { lpn: payload },
            TRANSLATION => OobTag::Translation { tvpn: payload },
            FILLER => OobTag::Filler,
            CHECKPOINT => OobTag::Checkpoint {
                slot: payload as u8,
            },
            kind => unreachable!("OOB record of unknown kind {kind}"),
        };
        Some(OobEntry {
            tag,
            seq: self.seq,
            stamp: self.stamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_records_round_trip_at_field_extremes() {
        let big = u64::from(u32::MAX - 1);
        for tag in [
            OobTag::Data { lpn: big },
            OobTag::Data { lpn: 0 },
            OobTag::Translation { tvpn: big },
            OobTag::Translation { tvpn: 0 },
            OobTag::Filler,
            OobTag::Checkpoint { slot: 255 },
            OobTag::Checkpoint { slot: 0 },
        ] {
            for (seq, stamp) in [(u64::MAX, u64::MAX), (0, 0), (u64::MAX, 0)] {
                let e = OobEntry { tag, seq, stamp };
                assert_eq!(PackedOob::pack(e).unpack(), Some(e));
            }
        }
        // An all-zero entry is a record; only the empty kind is none.
        assert_eq!(PackedOob::EMPTY.unpack(), None);
        let zero = OobEntry { tag: OobTag::Data { lpn: 0 }, seq: 0, stamp: 0 };
        assert_ne!(PackedOob::pack(zero), PackedOob::EMPTY);
    }

    #[test]
    fn winner_ordering_prefers_seq_then_stamp() {
        // The rule recovery applies: compare (seq, stamp).
        let original = OobEntry { tag: OobTag::Data { lpn: 7 }, seq: 5, stamp: 5 };
        let gc_copy = OobEntry { tag: OobTag::Data { lpn: 7 }, seq: 5, stamp: 9 };
        let newer_write = OobEntry { tag: OobTag::Data { lpn: 7 }, seq: 8, stamp: 8 };
        assert!((gc_copy.seq, gc_copy.stamp) > (original.seq, original.stamp));
        assert!((newer_write.seq, newer_write.stamp) > (gc_copy.seq, gc_copy.stamp));
    }
}
