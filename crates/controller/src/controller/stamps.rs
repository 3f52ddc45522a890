//! Durability stamps: the OOB records that make the mapping recoverable.
//!
//! Owns [`Stamps`] — the monotone program-stamp counter and the set of
//! stamps whose program was issued but whose mapping effect has not landed
//! yet. Every data/translation program is stamped here at issue time and
//! released when its completion is handled; the minimum outstanding stamp
//! bounds the checkpoint watermark.

use eagletree_core::IdTable;
use eagletree_flash::{OobEntry, OobTag, PageState};

use super::Controller;
use crate::types::Ppn;

pub(super) struct Stamps {
    /// Next OOB program stamp (monotone over the device's whole life —
    /// remount resumes it above every stamp the scan saw).
    pub(super) next: u64,
    /// Stamps of data/translation programs whose mapping effect has not
    /// landed yet; their minimum bounds the checkpoint watermark, so a
    /// snapshot never claims to cover an entry it cannot contain.
    inflight: IdTable<()>,
    /// The highest content version (`seq`) of any program that has landed;
    /// on remount, the highest stamp on the medium, which bounds every
    /// `seq` there. Every mapped copy's `seq` is at most this, so only a
    /// program landing below it can land behind the copy mapped now.
    newest_landed: u64,
}

impl Stamps {
    /// A counter resuming above `max_stamp`, the highest stamp on the
    /// medium (0 for a factory-fresh array).
    pub(super) fn resume(max_stamp: u64) -> Self {
        Stamps {
            next: max_stamp + 1,
            inflight: IdTable::default(),
            newest_landed: max_stamp,
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
    /// exactly once per program. Returns the page's content version when
    /// a program that landed before it carries a newer one: only then can
    /// it land behind a mapped copy ([`Self::drop_if_behind`]).
    pub(super) fn landed(&mut self, ppn: Ppn) -> Option<u64> {
        let oob = self.array.oob_at(ppn).expect("a landed program carries OOB");
        let held = self.stamps.inflight.remove(oob.stamp).is_some();
        debug_assert!(
            held || matches!(oob.tag, OobTag::Filler | OobTag::Checkpoint { .. }),
            "page {ppn} landed twice, or was programmed again without landing: {oob:?}"
        );
        let overtaken = oob.seq < self.stamps.newest_landed;
        self.stamps.newest_landed = self.stamps.newest_landed.max(oob.seq);
        overtaken.then_some(oob.seq)
    }

    /// The OOB record of a relocation's source page: what the copy holds
    /// and the content version it inherits. It stays intact until the
    /// victim block is erased, and that erase waits for every move out.
    pub(super) fn source_oob(&self, src_ppn: Ppn) -> OobEntry {
        self.array.oob_at(src_ppn).expect("a relocation source carries OOB")
    }

    /// Persist the OOB record of a data/translation program the scheduler
    /// just issued to `ppn`, and track its stamp until the mapping effect
    /// lands (the minimum outstanding stamp bounds the checkpoint
    /// watermark).
    /// `seq`: `None` = fresh content version (host/translation write),
    /// `Some` = inherited from a relocation source (GC / WL / merge copy —
    /// the copy must never outrank a newer host write).
    pub(super) fn stamp_program(&mut self, ppn: Ppn, tag: OobTag, seq: Option<u64>) {
        let stamp = self.stamps.fresh();
        let seq = seq.unwrap_or(stamp);
        self.array.set_oob_at(ppn, OobEntry { tag, seq, stamp });
        self.stamps.inflight.insert(stamp, ());
    }

    /// [`Self::stamp_program`] of a relocation (GC / WL / merge copy) of
    /// the page at `src_ppn` to `ppn`: the source's tag and content
    /// version, read from one OOB look-up.
    pub(super) fn stamp_copy(&mut self, ppn: Ppn, src_ppn: Ppn) {
        let src = self.source_oob(src_ppn);
        self.stamp_program(ppn, src.tag, Some(src.seq));
    }

    /// Drop the program that just landed at `new`, holding `tag` at content
    /// version `seq`, if it lands behind `cur`, the copy mapped now, or,
    /// with the page unmapped, behind a copy a trim discarded
    /// ([`Self::trim_floor`]): invalidate it and count it in
    /// `CtrlStats::gc_stale`. Returns whether it did. Two programs of one
    /// page in flight on different LUNs can land out of issue order. The
    /// copy with the higher content version (`seq`, assigned at issue) is
    /// the one recovery keeps, so it is the one the live device keeps too,
    /// and a clean power cut changes no answer. Asked only of an overtaken
    /// program ([`Self::landed`]).
    pub(super) fn drop_if_behind(
        &mut self,
        tag: OobTag,
        new: Ppn,
        seq: u64,
        cur: Option<Ppn>,
    ) -> bool {
        let behind = match cur {
            Some(c) => {
                self.array.page_state_at(c) == PageState::Valid
                    && self.array.oob_at(c).is_some_and(|e| e.seq > seq && e.tag == tag)
            }
            None => matches!(tag, OobTag::Data { lpn } if self.trim_floor(lpn) > seq),
        };
        if behind {
            self.invalidate_ppn(new);
            self.stats.gc_stale += 1;
        }
        behind
    }

    /// Stamp a program to `ppn` that carries no mapping entry of its own
    /// (merge fillers, checkpoint pages): stamped for block probes, never
    /// replayed, so it is not tracked against the watermark.
    pub(super) fn stamp_unmapped(&mut self, ppn: Ppn, tag: OobTag) {
        let stamp = self.stamps.fresh();
        self.array.set_oob_at(ppn, OobEntry { tag, seq: stamp, stamp });
    }
}
