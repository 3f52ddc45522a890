//! Durability stamps: the OOB records that make the mapping recoverable.
//!
//! Owns [`Stamps`] — the monotone program-stamp counter and the set of
//! stamps whose program was issued but whose mapping effect has not landed
//! yet. Every data/translation program is stamped here at issue time and
//! released when its completion is handled; the minimum outstanding stamp
//! bounds the checkpoint watermark.

use eagletree_core::IdTable;
use eagletree_flash::{OobEntry, OobTag, PhysicalAddr};

use super::{Controller, PageContent};
use crate::types::Ppn;

pub(super) struct Stamps {
    /// Next OOB program stamp (monotone over the device's whole life —
    /// remount resumes it above every stamp the scan saw).
    pub(super) next: u64,
    /// Stamps of data/translation programs whose mapping effect has not
    /// landed yet; their minimum bounds the checkpoint watermark, so a
    /// snapshot never claims to cover an entry it cannot contain.
    inflight: IdTable<()>,
}

impl Stamps {
    /// A counter resuming above `max_stamp`, the highest stamp on the
    /// medium (0 for a factory-fresh array).
    pub(super) fn resume(max_stamp: u64) -> Self {
        Stamps {
            next: max_stamp + 1,
            inflight: IdTable::default(),
        }
    }

    pub(super) fn fresh(&mut self) -> u64 {
        let s = self.next;
        self.next += 1;
        s
    }

    /// The checkpoint watermark: held below every outstanding
    /// (issued-but-unlanded) program stamp, so replay re-scans any block
    /// that could hold an entry a snapshot does not yet reflect.
    pub(super) fn watermark(&self) -> u64 {
        self.inflight.oldest().unwrap_or(self.next) - 1
    }
}

impl Controller {
    /// The program at `ppn` has landed (mapping effect applied or
    /// discarded): release the stamp it left in the page's OOB from the
    /// watermark bound. A filler's or checkpoint page's stamp was never
    /// held there, so releasing it changes nothing; any other page lands
    /// exactly once per program.
    pub(super) fn landed(&mut self, ppn: Ppn) {
        let oob = self.array.oob(self.array.geometry().page_at(ppn));
        let oob = oob.expect("a landed program carries OOB");
        let held = self.stamps.inflight.remove(oob.stamp).is_some();
        debug_assert!(
            held || matches!(oob.tag, OobTag::Filler | OobTag::Checkpoint { .. }),
            "page {ppn} landed twice, or was programmed again without landing: {oob:?}"
        );
    }

    /// The content version a relocation inherits from its source page.
    pub(super) fn source_seq(&self, src_ppn: Ppn) -> u64 {
        self.array
            .oob(self.array.geometry().page_at(src_ppn))
            .expect("live relocation source carries OOB")
            .seq
    }

    /// Persist the OOB record of a data/translation program the scheduler
    /// just issued, and track its stamp until the mapping effect lands
    /// (the minimum outstanding stamp bounds the checkpoint watermark).
    /// `seq`: `None` = fresh content version (host/translation write),
    /// `Some` = inherited from a relocation source (GC / WL / merge copy —
    /// the copy must never outrank a newer host write).
    pub(super) fn stamp_program(&mut self, addr: PhysicalAddr, tag: OobTag, seq: Option<u64>) {
        let stamp = self.stamps.fresh();
        let seq = seq.unwrap_or(stamp);
        self.array.set_oob(addr, OobEntry { tag, seq, stamp });
        self.stamps.inflight.insert(stamp, ());
    }

    /// Stamp a program that carries no mapping entry of its own (merge
    /// fillers, checkpoint pages): stamped for block probes, never
    /// replayed, so it is not tracked against the watermark.
    pub(super) fn stamp_unmapped(&mut self, addr: PhysicalAddr, tag: OobTag) {
        let stamp = self.stamps.fresh();
        self.array.set_oob(addr, OobEntry { tag, seq: stamp, stamp });
    }

    /// OOB tag for a page holding `content`.
    pub(super) fn content_tag(content: PageContent) -> OobTag {
        match content {
            PageContent::Data(lpn) => OobTag::Data { lpn },
            PageContent::Translation(tvpn) => OobTag::Translation { tvpn },
            PageContent::Checkpoint(slot) => OobTag::Checkpoint { slot },
        }
    }
}
