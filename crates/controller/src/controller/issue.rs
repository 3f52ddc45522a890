//! Issue: one path per flash verb, from a chosen pending op to the array.
//!
//! Owns no state of its own. [`Controller::issue`] consumes the op the
//! scheduler picked, resolves its physical target, and hands the flash
//! command to the array through the single [`Controller::issue_cmd`];
//! every array read goes through [`Controller::issue_read`], every erase
//! through the one `PendKind::Erase` arm, every program failure through
//! [`Controller::program_failed`], and every issued command's completion
//! and wake-ups through `Dispatch::schedule_after`.

use eagletree_core::{SimDuration, SimTime, NO_SPAN};
use eagletree_flash::{FaultEvent, FlashCommand, IssueOutcome, OobTag, PhysicalAddr};

use super::dispatch::{
    CtrlEvent, DoneWhat, ObsCur, PendKind, PendingOp, WriteWhat, XferDone,
};
use super::{Controller, PageContent};
use crate::alloc::Stream;
use crate::sched::class_index;
use crate::types::{Lpn, OpClass};

impl Controller {
    /// Issue a flash command whose resources the scheduler verified free,
    /// attributing its busy window to the current op's span.
    fn issue_cmd(&mut self, cmd: FlashCommand, now: SimTime) -> IssueOutcome {
        let out = self
            .array
            .issue(cmd, now)
            .unwrap_or_else(|e| panic!("scheduler issued invalid command: {e}"));
        self.refresh_channel(cmd.channel(), now);
        if self.disp.obs_cur.span != NO_SPAN {
            if let Some(o) = &mut self.obs {
                // Span busy slices are keyed by LUN track: 0 = misc, then
                // one per LUN (see `Controller::obs_lane_names`).
                let track = 1 + self
                    .array
                    .geometry()
                    .lun_index(cmd.channel(), cmd.lun());
                // ECC read-retry rounds extend the busy window; attribute
                // the extra rounds' share of it to the Retry stage.
                let retry = match out.fault {
                    Some(FaultEvent::Read(r)) if r.retries > 0 => {
                        let busy = out.done_at.saturating_since(now);
                        busy * r.retries as u64 / (r.retries as u64 + 1)
                    }
                    _ => SimDuration::ZERO,
                };
                o.on_issue(
                    self.disp.obs_cur.span,
                    track,
                    now,
                    out.done_at,
                    retry,
                    self.disp.obs_cur.enqueued_at,
                    self.disp.obs_cur.host,
                );
            }
        }
        out
    }

    /// Close the current op's internal span without a flash command —
    /// for pending ops consumed at issue time with no NAND work (a
    /// RAM-resolved map fetch, a superseded GC move, a trimmed merge
    /// source, a skipped writeback read). Host-bound spans stay open:
    /// the request's completion closes them.
    fn obs_close_cur(&mut self, now: SimTime) {
        if self.disp.obs_cur.span != NO_SPAN && !self.disp.obs_cur.host {
            if let Some(o) = &mut self.obs {
                o.close(self.disp.obs_cur.span, now);
            }
        }
    }

    /// Account an issued command and schedule its completion.
    fn finish_issue(&mut self, class: OpClass, done: DoneWhat, out: IssueOutcome) {
        self.stats.issued[class_index(class)] += 1;
        self.disp.schedule_after(&out, CtrlEvent::Done(done));
    }

    /// Re-enqueue `op` as `retry` after an injected fault cancelled its
    /// completion: the LUN/channel occupancy the command charged is still
    /// real, and the retry can only issue once those resources free — so
    /// the completion slot becomes a plain wake-up.
    fn retry_after_fault(&mut self, op: &PendingOp, retry: PendKind, out: IssueOutcome, now: SimTime) {
        self.enqueue(op.class, op.tag, now, retry);
        self.disp.schedule_after(&out, CtrlEvent::Wake);
    }

    /// The read-hop: start the array read of `addr` for `op`. Its
    /// completion queues the channel transfer under `xfer_class`, which
    /// hands the data to `then`. `carries`: the logical page whose content
    /// the read carries, ledgered as lost when the read is uncorrectable
    /// (translation and checkpoint pages are rebuilt from RAM state and
    /// not ledgered).
    fn issue_read(
        &mut self,
        op: &PendingOp,
        addr: PhysicalAddr,
        xfer_class: OpClass,
        carries: Option<Lpn>,
        then: XferDone,
        now: SimTime,
    ) {
        let out = self.issue_cmd(FlashCommand::ReadStart(addr), now);
        self.note_read_fault(&out, carries);
        let done = DoneWhat::ReadArray { addr, class: xfer_class, tag: op.tag, then };
        self.finish_issue(op.class, done, out);
    }

    /// Program-failure handling for every remappable program (free-
    /// allocated writes, GC copy-back destinations, hybrid log appends).
    /// When `out` reports a failed program status, the page at `burned`
    /// is burned (no OOB stamp: recovery skips it): drop its reverse
    /// entry, take it out of service — a hybrid append releases its log
    /// slot (the entry stays, so merges see the offset as stale and switch
    /// merges are off the table; the next `commit_append` lands on the
    /// advanced write pointer), any other block can't be trusted for fresh
    /// allocations and is retired as grown bad — and remap by re-enqueueing
    /// `retry`, which allocates elsewhere. For a relocation the source
    /// page is still live. Returns whether the program failed.
    fn program_failed(
        &mut self,
        op: &PendingOp,
        burned: PhysicalAddr,
        retry: PendKind,
        out: IssueOutcome,
        now: SimTime,
    ) -> bool {
        if !matches!(out.fault, Some(FaultEvent::ProgramFailed)) {
            return false;
        }
        let ppn = self.array.geometry().page_index(burned);
        self.invalidate_ppn(ppn);
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "only a hybrid append burns a log-block slot; every other program came from the write allocator"
        )]
        match retry {
            PendKind::HybridWrite { .. } => self.hybrid_mut().abort_append(ppn),
            _ => self.alloc.retire_block(burned.block_addr()),
        }
        self.stats.program_remaps += 1;
        self.retry_after_fault(op, retry, out, now);
        true
    }

    /// Issue (or consume) the pending op in `slot`. Caller guarantees
    /// issuability.
    pub(super) fn issue(&mut self, slot: u32, now: SimTime) {
        let op = self.disp.pending.remove(slot);
        self.disp.obs_cur = ObsCur {
            span: op.span,
            host: Self::pend_request(&op.kind).is_some(),
            enqueued_at: op.enqueued_at,
        };
        self.reclaim.ops_since_scrub += 1;
        self.disp.serviced[class_index(op.class)] += 1;
        self.stats.wait_us[class_index(op.class)]
            .record(now.saturating_since(op.enqueued_at).as_micros_f64());
        match op.kind {
            PendKind::Transfer { addr, done } => {
                let out = self.issue_cmd(FlashCommand::TransferOut(addr), now);
                self.finish_issue(op.class, DoneWhat::Xfer(done), out);
            }
            PendKind::Erase { block, owner } => {
                let out = self.issue_cmd(FlashCommand::Erase(block), now);
                // A transient erase failure leaves the block un-reset:
                // charge the time, retry. A retiring failure falls through
                // to EraseDone, whose bad-block path swallows the block.
                if matches!(out.fault, Some(FaultEvent::EraseFailed { retired: false })) {
                    self.stats.erase_retries += 1;
                    self.retry_after_fault(&op, op.kind, out, now);
                    return;
                }
                self.finish_issue(op.class, DoneWhat::EraseDone { block, owner }, out);
            }
            PendKind::AppRead { id, lpn } => match self.read_source(&op.kind) {
                None => self.complete_app(id, now),
                Some(addr) => {
                    self.issue_read(&op, addr, op.class, Some(lpn), XferDone::App { id }, now);
                }
            },
            PendKind::MapFetchRead { tvpn } => match self.read_source(&op.kind) {
                None => {
                    // Entries live in RAM structures: resolve immediately.
                    self.obs_close_cur(now);
                    let done = DoneWhat::Xfer(XferDone::MapFetch { tvpn });
                    self.disp.events.schedule(now, CtrlEvent::Done(done));
                }
                Some(addr) => {
                    self.issue_read(&op, addr, op.class, None, XferDone::MapFetch { tvpn }, now);
                }
            },
            PendKind::WbRead { wb } => match self.read_source(&op.kind) {
                None => {
                    self.obs_close_cur(now);
                    self.enqueue_translation_write(wb, now);
                }
                // The merged page's transfer already bills as writeback.
                Some(addr) => {
                    let then = XferDone::Wb { wb };
                    self.issue_read(&op, addr, OpClass::MappingWrite, None, then, now);
                }
            },
            PendKind::Write { lun, stream, what } => {
                let lun = match lun {
                    Some(l) => l,
                    None => self
                        .choose_write_lun(stream, now)
                        .expect("write issuable implies a usable LUN"),
                };
                let addr = self.alloc.alloc(lun, stream).expect("issuable implies alloc");
                let ppn = self.array.geometry().page_index(addr);
                let content = match what {
                    WriteWhat::Host(h) => PageContent::Data(h.lpn()),
                    WriteWhat::Gc { content, .. } => content,
                    WriteWhat::Translation { wb } => {
                        PageContent::Translation(self.mapio.wb_tvpn(wb))
                    }
                };
                self.reverse[ppn as usize] = Some(content);
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                let retry = PendKind::Write { lun: None, stream, what };
                if self.program_failed(&op, addr, retry, out, now) {
                    return;
                }
                // Relocations inherit the source's content version; host
                // and translation writes get a fresh one.
                let seq = match what {
                    WriteWhat::Gc { from_ppn, .. } => Some(self.source_seq(from_ppn)),
                    WriteWhat::Host(_) | WriteWhat::Translation { .. } => None,
                };
                self.stamp_program(addr, Self::content_tag(content), seq);
                let done = match what {
                    WriteWhat::Host(h) => h.landed(ppn),
                    WriteWhat::Gc { job, from_ppn, content } => DoneWhat::MoveDone {
                        job,
                        from_ppn,
                        content,
                        new: addr,
                    },
                    WriteWhat::Translation { wb } => DoneWhat::WbWrite { wb, new: addr },
                };
                self.finish_issue(op.class, done, out);
            }
            PendKind::GcMove { job, from } => {
                let g = self.array.geometry();
                let from_ppn = g.page_index(from);
                let content = self.reverse[from_ppn as usize];
                let lun = g.lun_index(from.channel, from.lun);
                self.disp.moves.issued(from_ppn, lun, content.is_none());
                let Some(content) = content else {
                    // Superseded while queued: space reclaims for free.
                    self.obs_close_cur(now);
                    self.stats.gc_skipped += 1;
                    self.move_done(job, now);
                    return;
                };
                // Copy-back when permitted, supported, and a same-plane
                // destination exists.
                if self.cfg.gc.use_copyback && self.array.timing().copyback {
                    let lun = self.reclaim.jobs[job].lun;
                    if let Some(to) = self.alloc.alloc_in_plane(lun, from.plane, Stream::Gc) {
                        self.reverse[self.array.geometry().page_index(to) as usize] =
                            Some(content);
                        let seq = self.source_seq(from_ppn);
                        let out = self.issue_cmd(FlashCommand::CopyBack { from, to }, now);
                        if self.program_failed(&op, to, op.kind, out, now) {
                            return;
                        }
                        // Copy-back reads on-chip; an uncorrectable source
                        // still surfaces through the fault event.
                        self.note_read_fault(&out, Self::content_lpn(content));
                        self.stamp_program(to, Self::content_tag(content), Some(seq));
                        let done = DoneWhat::MoveDone { job, from_ppn, content, new: to };
                        self.finish_issue(op.class, done, out);
                        return;
                    }
                }
                let then = XferDone::Gc { job, from };
                self.issue_read(&op, from, op.class, Self::content_lpn(content), then, now);
            }
            PendKind::HybridWrite { what } => {
                let lpn = what.lpn();
                let ppn = self.hybrid_mut().commit_append(lpn);
                let addr = self.array.geometry().page_at(ppn);
                self.reverse[ppn as usize] = Some(PageContent::Data(lpn));
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                if self.program_failed(&op, addr, op.kind, out, now) {
                    return;
                }
                self.stamp_program(addr, OobTag::Data { lpn }, None);
                self.finish_issue(op.class, what.landed(ppn), out);
            }
            PendKind::MergeRead => {
                let cur = self.merge.cur();
                let lpn = cur.lbn * self.ppb() + cur.next as u64;
                match self.read_source(&op.kind) {
                    None => {
                        // Trimmed since enqueue: a filler program keeps the
                        // destination's page order instead.
                        self.obs_close_cur(now);
                        let (_, write_class) = Self::merge_classes(self.merge.source());
                        self.enqueue(
                            write_class,
                            None,
                            now,
                            PendKind::MergeProgram { from: None },
                        );
                    }
                    Some(from) => {
                        let then = XferDone::Merge { from };
                        self.issue_read(&op, from, op.class, Some(lpn), then, now);
                    }
                }
            }
            PendKind::MergeProgram { from } => {
                let cur = self.merge.cur();
                let lpn = cur.lbn * self.ppb() + cur.next as u64;
                let dest = cur.dest + cur.next as u64;
                let addr = self.array.geometry().page_at(dest);
                if from.is_some() {
                    self.reverse[dest as usize] = Some(PageContent::Data(lpn));
                }
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                // A program failure here is absorbed: the fold's destination
                // order is fixed, so the page keeps its slot and the at-risk
                // data is already counted by the fault model's counters.
                match from {
                    Some(src) => {
                        let seq = self.source_seq(src);
                        self.stamp_program(addr, OobTag::Data { lpn }, Some(seq));
                    }
                    // Fillers carry no logical content; recovery skips
                    // them.
                    None => self.stamp_unmapped(addr, OobTag::Filler),
                }
                self.finish_issue(op.class, DoneWhat::MergeProgDone { from, dest }, out);
            }
            PendKind::CkptWrite => {
                let (slot, addr) = self.ckpt_next_program();
                let ppn = self.array.geometry().page_index(addr);
                self.reverse[ppn as usize] = Some(PageContent::Checkpoint(slot));
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                // Program failures are absorbed: a snapshot with a burned
                // page is caught at mount (the OOB read reports it) and
                // recovery falls back to the previous slot or a full scan.
                // Checkpoint pages carry no mapping entry of their own:
                // stamped (for block probes) but never replayed.
                self.stamp_unmapped(addr, OobTag::Checkpoint { slot });
                self.stats.checkpoint_pages += 1;
                self.finish_issue(op.class, DoneWhat::CkptWriteDone, out);
            }
        }
    }

    /// The LUN an unbound write of `stream` lands on: the allocation
    /// policy's pick among the very set that made the write issuable.
    fn choose_write_lun(&mut self, stream: Stream, now: SimTime) -> Option<u32> {
        let (ready, array) = (&self.disp.ready, &self.array);
        self.alloc.choose_lun(ready.program(), |alloc, lun| {
            ready.can_program(lun, stream, alloc, array, now)
        })
    }
}
