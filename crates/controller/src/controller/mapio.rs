//! Mapping IO: DFTL translation-page fetches and writebacks.
//!
//! Owns [`MapIo`] — the in-flight translation fetches with the requests
//! and flushes parked on each, and the translation-writeback jobs (read-
//! merge source plus program). Under the page map both stay empty; under
//! the hybrid map [`Controller::drain_ftl_writebacks`] also forwards the
//! scheme's switch-merge erase events.

use eagletree_core::{Cause, SimTime};
use eagletree_flash::{PageState, PhysicalAddr};

use super::dispatch::{PendKind, WriteWhat};
use super::jobs::JobTable;
use super::{Controller, PageContent};
use crate::alloc::Stream;
use crate::ftl::{FtlKind, HybridEvent, TranslationWriteback};
use crate::types::{IoSource, Lpn, OpClass, Ppn, RequestId};

/// Something parked on a translation-page fetch.
#[derive(Debug, Clone, Copy)]
pub(super) enum Waiter {
    Request(RequestId),
    Flush { lpn: Lpn, version: u64 },
}

pub(super) struct WbJob {
    pub(super) tvpn: u64,
    old_ppn: Option<Ppn>,
}

pub(super) struct MapIo {
    /// Per translation page: what is parked on its fetch. A page is being
    /// fetched exactly while its list is non-empty.
    fetches: Vec<Vec<Waiter>>,
    pub(super) wb_jobs: JobTable<WbJob>,
}

impl MapIo {
    /// Mapping IO over `tvpns` translation pages.
    pub(super) fn new(tvpns: u64) -> Self {
        MapIo {
            fetches: vec![Vec::new(); tvpns as usize],
            wb_jobs: JobTable::default(),
        }
    }

    /// The translation page writeback job `wb` programs.
    pub(super) fn wb_tvpn(&self, wb: usize) -> u64 {
        self.wb_jobs[wb].tvpn
    }
}

impl Controller {
    pub(super) fn park_on_fetch(&mut self, waiter: Waiter, tvpn: u64, now: SimTime) {
        self.stats.mapping_fetches += 1;
        let parked = &mut self.mapio.fetches[tvpn as usize];
        parked.push(waiter);
        if parked.len() == 1 {
            if let Some(o) = &mut self.obs {
                // Link the fetch span to the request it stalls (or the
                // flush policy) rather than the generic mapping policy.
                let cause = match waiter {
                    Waiter::Request(id) => Cause::Op(self.host.span_of(id)),
                    Waiter::Flush { .. } => Cause::Policy("flush"),
                };
                o.set_cause(cause);
            }
            self.enqueue(
                OpClass::MappingRead,
                None,
                now,
                PendKind::MapFetchRead { tvpn },
            );
            if let Some(o) = &mut self.obs {
                o.set_cause(Cause::None);
            }
        }
    }

    /// Translation page `tvpn` arrived (or resolved from RAM): install
    /// its entries and restart everything parked on it.
    pub(super) fn fetch_done(&mut self, tvpn: u64, now: SimTime) {
        let waiting = std::mem::take(&mut self.mapio.fetches[tvpn as usize]);
        assert!(!waiting.is_empty(), "live fetch");
        let lpns: Vec<Lpn> = waiting
            .iter()
            .map(|w| match w {
                Waiter::Request(id) => self.host.lpn_of(*id),
                Waiter::Flush { lpn, .. } => *lpn,
            })
            .collect();
        self.ftl.fetch_complete(tvpn, &lpns);
        for w in waiting {
            match w {
                Waiter::Request(id) => self.start_or_park(id, now),
                Waiter::Flush { lpn, version } => self.start_flush(lpn, version, now),
            }
        }
        self.drain_ftl_writebacks(now);
    }

    /// Turn any translation writebacks (DFTL) or switch-merge events
    /// (hybrid) queued inside the FTL into flash work. Called after every
    /// FTL mutation.
    pub(super) fn drain_ftl_writebacks(&mut self, now: SimTime) {
        let wbs = self.ftl.take_writebacks();
        if !wbs.is_empty() {
            self.spawn_writebacks(wbs, now);
        }
        if let FtlKind::Hybrid(h) = &mut self.ftl {
            let events = h.take_events();
            for HybridEvent::EraseDataBlock { base } in events {
                self.enqueue_merge_erase(IoSource::Merge, base, false, now);
            }
        }
    }

    fn spawn_writebacks(&mut self, wbs: Vec<TranslationWriteback>, now: SimTime) {
        for wb in wbs {
            self.stats.mapping_writebacks += 1;
            let id = self.mapio.wb_jobs.insert(WbJob {
                tvpn: wb.tvpn,
                old_ppn: wb.old_ppn,
            });
            if wb.old_ppn.is_some() {
                self.enqueue(OpClass::MappingRead, None, now, PendKind::WbRead { wb: id });
            } else {
                self.enqueue_translation_write(id, now);
            }
        }
    }

    /// Queue the program of writeback `wb`'s (merged) translation page.
    pub(super) fn enqueue_translation_write(&mut self, wb: usize, now: SimTime) {
        self.enqueue(
            OpClass::MappingWrite,
            None,
            now,
            PendKind::Write {
                lun: None,
                stream: Stream::Translation,
                what: WriteWhat::Translation { wb },
            },
        );
    }

    /// The old translation page writeback `wb` must read-merge, or `None`
    /// when there is none — or it was erased meanwhile — and the job skips
    /// straight to its program.
    pub(super) fn wb_read_source(&self, wb: usize) -> Option<PhysicalAddr> {
        let old = self.mapio.wb_jobs[wb].old_ppn?;
        let addr = self.array.geometry().page_at(old);
        (self.array.page_state(addr) != PageState::Free).then_some(addr)
    }

    /// Writeback `wb`'s program landed at `new`: repoint the GTD.
    pub(super) fn wb_write_done(&mut self, wb: usize, new: PhysicalAddr) {
        let job = self.mapio.wb_jobs.take(wb);
        let new_ppn = self.array.geometry().page_index(new);
        self.landed(new_ppn);
        let old = self.ftl.translation_written(job.tvpn, new_ppn);
        if let Some(old) = old {
            if self.reverse[old as usize] == Some(PageContent::Translation(job.tvpn)) {
                self.invalidate_ppn(old);
            } else {
                // Already dead, but the GTD pointed at it until just now:
                // a queued fetch of `tvpn` may still be laned on its LUN.
                let lun = self.array.geometry().lun_of_page(old);
                self.reads_follow(old, lun);
            }
        }
    }
}
