//! Issue: one path per flash verb, from a chosen pending op to the array.
//!
//! Owns no state of its own. [`Controller::issue`] consumes the op the
//! scheduler picked, resolves its physical target, and hands the flash
//! command to the array through the single [`Controller::issue_cmd`];
//! every array read goes through [`Controller::issue_read`], every erase
//! through the one `PendKind::Erase` arm, every failed command through
//! [`Controller::parked_failed`] and, when it completes and its status
//! reports, [`Controller::command_failed`], and every issued command's
//! completion and wake-ups through `Dispatch::schedule_after`.

use eagletree_core::{SimDuration, SimTime, NO_SPAN};
use eagletree_flash::{FaultEvent, FlashCommand, IssueOutcome, OobTag, PhysicalAddr};

use super::dispatch::{CtrlEvent, DoneWhat, Failed, PendKind, PendingOp, WriteWhat, XferDone};
use super::Controller;
use crate::alloc::Stream;
use crate::sched::class_index;
use crate::types::{Lpn, OpClass};

impl Controller {
    /// Issue `op`'s flash command, whose resources the scheduler verified
    /// free, attributing its busy window to the op's span.
    fn issue_cmd(&mut self, op: &PendingOp, cmd: FlashCommand, now: SimTime) -> IssueOutcome {
        let out = self
            .array
            .issue(cmd, now)
            .unwrap_or_else(|e| panic!("scheduler issued invalid command: {e}"));
        self.refresh_channel(cmd.channel(), now);
        if op.span != NO_SPAN {
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
                let host = Self::pend_request(&op.kind).is_some();
                o.on_issue(op.span, track, now, out.done_at, retry, op.enqueued_at, host);
            }
        }
        out
    }

    /// Close `op`'s internal span without a flash command — for pending
    /// ops consumed at issue time with no NAND work (a RAM-resolved map
    /// fetch, a superseded GC move, a trimmed merge source, a skipped
    /// writeback read). Host-bound spans stay open: the request's
    /// completion closes them.
    fn obs_close(&mut self, op: &PendingOp, now: SimTime) {
        if op.span != NO_SPAN && Self::pend_request(&op.kind).is_none() {
            if let Some(o) = &mut self.obs {
                o.close(op.span, now);
            }
        }
    }

    /// Account an issued command and schedule its completion.
    fn finish_issue(&mut self, class: OpClass, done: DoneWhat, out: IssueOutcome) {
        self.stats.issued[class_index(class)] += 1;
        self.disp.schedule_after(&out, CtrlEvent::Done(done));
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
        let out = self.issue_cmd(op, FlashCommand::ReadStart(addr), now);
        self.note_read_fault(&out, carries);
        let done = DoneWhat::ReadArray { addr, class: xfer_class, tag: op.tag, then };
        self.finish_issue(op.class, done, out);
    }

    /// Whether the array failed `op`'s command, which is then parked until
    /// its completion reports the failure and queues `retry`
    /// ([`Controller::command_failed`]): a program's status (the page at
    /// `burned` took no OOB stamp and dies now, so no reclaim reads a valid
    /// page without a record) or a transient erase's (`burned` is `None`).
    fn parked_failed(
        &mut self,
        op: &PendingOp,
        retry: PendKind,
        burned: Option<PhysicalAddr>,
        out: IssueOutcome,
    ) -> bool {
        match (out.fault, burned) {
            (Some(FaultEvent::ProgramFailed), Some(page)) => {
                self.invalidate_ppn(self.array.geometry().page_index(page));
            }
            (Some(FaultEvent::EraseFailed { retired: false }), None) => {}
            _ => return false,
        }
        let retry = PendingOp { kind: retry, ..*op };
        let slot = self.disp.failed.insert(Failed { retry, burned }) as u32;
        self.disp.schedule_after(&out, CtrlEvent::Done(DoneWhat::Failed { slot }));
        true
    }

    /// A failed command's completion, where its status reports. An erase
    /// left its block un-reset and is queued again. A program takes its
    /// block out of service — a hybrid append releases its log slot (the
    /// entry stays, so merges see the offset as stale; the next
    /// `commit_append` lands on the advanced write pointer), any other
    /// block is retired as grown bad — and its retry allocates elsewhere,
    /// unless it relocates a page that died meanwhile.
    pub(super) fn command_failed(&mut self, slot: u32, now: SimTime) {
        let Failed { retry: op, burned } = self.disp.failed.remove(slot as usize);
        match (burned, op.kind) {
            (None, _) => self.stats.erase_retries += 1,
            (Some(page), PendKind::HybridWrite { .. }) => {
                let ppn = self.array.geometry().page_index(page);
                self.stats.program_remaps += 1;
                self.hybrid_mut().abort_append(ppn);
            }
            (Some(page), _) => {
                self.stats.program_remaps += 1;
                self.alloc.retire_block(page.block_addr());
            }
        }
        if let PendKind::GcMove { job, from } = op.kind {
            if self.move_superseded(from) {
                self.stats.gc_stale += 1;
                self.move_done(job, now);
                return;
            }
        }
        self.enqueue(op.class, op.tag, now, op.kind);
    }

    /// Issue (or consume) the pending op in `slot`. Caller guarantees
    /// issuability.
    pub(super) fn issue(&mut self, slot: u32, now: SimTime) {
        let op = self.disp.pending.remove(slot);
        self.reclaim.ops_since_scrub += 1;
        self.disp.serviced[class_index(op.class)] += 1;
        self.stats.wait_us[class_index(op.class)]
            .record(now.saturating_since(op.enqueued_at).as_micros_f64());
        match op.kind {
            PendKind::Transfer { addr, done } => {
                let out = self.issue_cmd(&op, FlashCommand::TransferOut(addr), now);
                self.finish_issue(op.class, DoneWhat::Xfer(done), out);
            }
            PendKind::Erase { block, owner } => {
                let out = self.issue_cmd(&op, FlashCommand::Erase(block), now);
                // A transient erase failure leaves the block un-reset: it
                // is retried once the erase completes. A retiring failure
                // falls through to EraseDone, whose bad-block path
                // swallows the block.
                if self.parked_failed(&op, op.kind, None, out) {
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
                    self.obs_close(&op, now);
                    let done = DoneWhat::Xfer(XferDone::MapFetch { tvpn });
                    self.disp.events.schedule(now, CtrlEvent::Done(done));
                }
                Some(addr) => {
                    self.issue_read(&op, addr, op.class, None, XferDone::MapFetch { tvpn }, now);
                }
            },
            PendKind::WbRead { wb } => match self.read_source(&op.kind) {
                None => {
                    self.obs_close(&op, now);
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
                let out = self.issue_cmd(&op, FlashCommand::Program(addr), now);
                let retry = PendKind::Write { lun: None, stream, what };
                if self.parked_failed(&op, retry, Some(addr), out) {
                    return;
                }
                let done = match what {
                    WriteWhat::Host(h) => {
                        self.stamp_program(ppn, OobTag::Data { lpn: h.lpn() }, None);
                        h.landed(ppn)
                    }
                    WriteWhat::Gc { job, from_ppn } => {
                        self.stamp_copy(ppn, from_ppn);
                        DoneWhat::MoveDone { job, from_ppn, new: ppn }
                    }
                    WriteWhat::Translation { wb } => {
                        let tvpn = self.mapio.wb_tvpn(wb);
                        self.stamp_program(ppn, OobTag::Translation { tvpn }, None);
                        DoneWhat::WbWrite { wb, new: ppn }
                    }
                };
                self.finish_issue(op.class, done, out);
            }
            PendKind::GcMove { job, from } => {
                let g = self.array.geometry();
                let from_ppn = g.page_index(from);
                let lun = g.lun_index(from.channel, from.lun);
                let content = self.content_at(from_ppn);
                self.disp.moves.issued(from_ppn, lun, content.is_none());
                let Some(tag) = content else {
                    // Superseded while queued: space reclaims for free.
                    self.obs_close(&op, now);
                    self.stats.gc_skipped += 1;
                    self.move_done(job, now);
                    return;
                };
                // Copy-back when permitted, supported, and a same-plane
                // destination exists.
                if self.cfg.gc.use_copyback && self.array.timing().copyback {
                    let lun = self.reclaim.jobs[job].lun;
                    if let Some(to) = self.alloc.alloc_in_plane(lun, from.plane, Stream::Gc) {
                        let to_ppn = self.array.geometry().page_index(to);
                        let out = self.issue_cmd(&op, FlashCommand::CopyBack { from, to }, now);
                        if self.parked_failed(&op, op.kind, Some(to), out) {
                            return;
                        }
                        // Copy-back reads on-chip; an uncorrectable source
                        // still surfaces through the fault event.
                        self.note_read_fault(&out, Self::data_lpn(tag));
                        self.stamp_copy(to_ppn, from_ppn);
                        let done = DoneWhat::MoveDone { job, from_ppn, new: to_ppn };
                        self.finish_issue(op.class, done, out);
                        return;
                    }
                }
                let then = XferDone::Gc { job, from };
                self.issue_read(&op, from, op.class, Self::data_lpn(tag), then, now);
            }
            PendKind::HybridWrite { what } => {
                let lpn = what.lpn();
                let ppn = self.hybrid_mut().commit_append(lpn);
                let addr = self.array.geometry().page_at(ppn);
                let out = self.issue_cmd(&op, FlashCommand::Program(addr), now);
                if self.parked_failed(&op, op.kind, Some(addr), out) {
                    return;
                }
                self.stamp_program(ppn, OobTag::Data { lpn }, None);
                self.finish_issue(op.class, what.landed(ppn), out);
            }
            PendKind::MergeRead => {
                let cur = self.merge.cur();
                let lpn = cur.lbn * self.ppb() + cur.next as u64;
                match self.read_source(&op.kind) {
                    None => {
                        // Trimmed since enqueue: a filler program keeps the
                        // destination's page order instead.
                        self.obs_close(&op, now);
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
                let dest = cur.dest + cur.next as u64;
                let addr = self.array.geometry().page_at(dest);
                let out = self.issue_cmd(&op, FlashCommand::Program(addr), now);
                // A program failure here is absorbed: the fold's destination
                // order is fixed, so the page keeps its slot and the at-risk
                // data is already counted by the fault model's counters.
                match from {
                    Some(src) => self.stamp_copy(dest, src),
                    // Fillers carry no logical content; recovery skips
                    // them.
                    None => self.stamp_unmapped(dest, OobTag::Filler),
                }
                self.finish_issue(op.class, DoneWhat::MergeProgDone { from, dest }, out);
            }
            PendKind::CkptWrite => {
                let (slot, addr) = self.ckpt_next_program();
                let ppn = self.array.geometry().page_index(addr);
                let out = self.issue_cmd(&op, FlashCommand::Program(addr), now);
                // Program failures are absorbed: a snapshot with a burned
                // page is caught at mount (the OOB read reports it) and
                // recovery falls back to the previous slot or a full scan.
                // Checkpoint pages carry no mapping entry of their own:
                // stamped (for block probes) but never replayed.
                self.stamp_unmapped(ppn, OobTag::Checkpoint { slot });
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
