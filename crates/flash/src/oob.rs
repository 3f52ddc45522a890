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

/// One page's OOB record as the array stores it, in 16 B.
///
/// From the top: the kind in three bits (kind 0 is a page with no record:
/// unwritten, erased or torn), the tag's lpn, tvpn or slot in 32 bits,
/// then `seq` and `stamp` in 46 bits each. `Geometry::validate`'s `u32`
/// page bound holds the payload; 2^46 programs is 7·10^13, over two years
/// of host time at 10^6 programs a second. `Option<OobEntry>` would take
/// 32 B a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedOob(u128);

// One per physical page, the array's largest table.
const _: () = assert!(std::mem::size_of::<PackedOob>() == 16);

const COUNTER_BITS: u32 = 46;
const COUNTER_MAX: u64 = (1 << COUNTER_BITS) - 1;
const SEQ_SHIFT: u32 = COUNTER_BITS;
const PAYLOAD_SHIFT: u32 = 2 * COUNTER_BITS;
const KIND_SHIFT: u32 = PAYLOAD_SHIFT + 32;
const EMPTY: u128 = 0;
const DATA: u128 = 1;
const TRANSLATION: u128 = 2;
const FILLER: u128 = 3;
const CHECKPOINT: u128 = 4;

impl PackedOob {
    /// No record.
    pub(crate) const EMPTY: PackedOob = PackedOob(EMPTY);

    /// Pack `e`. Its lpn or tvpn must fit 32 bits and its counters 46.
    pub(crate) fn pack(e: OobEntry) -> Self {
        let (kind, payload) = match e.tag {
            OobTag::Data { lpn } => (DATA, lpn),
            OobTag::Translation { tvpn } => (TRANSLATION, tvpn),
            OobTag::Filler => (FILLER, 0),
            OobTag::Checkpoint { slot } => (CHECKPOINT, u64::from(slot)),
        };
        let payload = u32::try_from(payload)
            .unwrap_or_else(|_| panic!("OOB tag payload {payload} overflows 32 bits"));
        assert!(e.seq <= COUNTER_MAX, "OOB seq {} overflows 46 bits", e.seq);
        assert!(
            e.stamp <= COUNTER_MAX,
            "OOB stamp {} overflows 46 bits",
            e.stamp
        );
        PackedOob(
            kind << KIND_SHIFT
                | u128::from(payload) << PAYLOAD_SHIFT
                | u128::from(e.seq) << SEQ_SHIFT
                | u128::from(e.stamp),
        )
    }

    /// The record `pack` was given, or `None` for [`PackedOob::EMPTY`].
    pub(crate) fn unpack(self) -> Option<OobEntry> {
        let payload = u64::from((self.0 >> PAYLOAD_SHIFT) as u32);
        let tag = match self.0 >> KIND_SHIFT {
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
            seq: (self.0 >> SEQ_SHIFT) as u64 & COUNTER_MAX,
            stamp: self.0 as u64 & COUNTER_MAX,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_records_round_trip_at_field_extremes() {
        let big = u64::from(u32::MAX);
        for tag in [
            OobTag::Data { lpn: big },
            OobTag::Data { lpn: 0 },
            OobTag::Translation { tvpn: big },
            OobTag::Translation { tvpn: 0 },
            OobTag::Filler,
            OobTag::Checkpoint { slot: 255 },
            OobTag::Checkpoint { slot: 0 },
        ] {
            let max = COUNTER_MAX;
            for (seq, stamp) in [(max, max), (0, 0), (max, 0), (0, max)] {
                let e = OobEntry { tag, seq, stamp };
                assert_eq!(PackedOob::pack(e).unpack(), Some(e));
            }
        }
        // An all-zero entry is a record; only the empty kind is none.
        assert_eq!(PackedOob::EMPTY.unpack(), None);
        let zero = OobEntry { tag: OobTag::Data { lpn: 0 }, seq: 0, stamp: 0 };
        assert_ne!(PackedOob::pack(zero), PackedOob::EMPTY);
    }

    fn data(lpn: u64, seq: u64, stamp: u64) -> OobEntry {
        OobEntry { tag: OobTag::Data { lpn }, seq, stamp }
    }

    #[test]
    #[should_panic(expected = "OOB seq 70368744177664 overflows 46 bits")]
    fn packing_a_seq_of_2_pow_46_panics() {
        PackedOob::pack(data(1, 1 << 46, 1));
    }

    #[test]
    #[should_panic(expected = "OOB stamp 70368744177664 overflows 46 bits")]
    fn packing_a_stamp_of_2_pow_46_panics() {
        PackedOob::pack(data(1, 1, 1 << 46));
    }

    #[test]
    #[should_panic(expected = "OOB tag payload 4294967296 overflows 32 bits")]
    fn packing_a_payload_of_2_pow_32_panics() {
        PackedOob::pack(data(1 << 32, 1, 1));
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
