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

#[cfg(test)]
mod tests {
    use super::*;

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
