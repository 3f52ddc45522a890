//! The flash memory array: occupancy, page state, and wear tracking.
//!
//! [`FlashArray`] is the authoritative hardware model. The controller asks
//! whether a command's channel and LUN are free *now*, then issues it; the
//! array advances resource occupancy and page state and reports when the
//! command completes. The array never queues anything — queueing, ordering
//! and policy all live in the controller's scheduler, which is exactly the
//! separation the paper's design space calls for.
//!
//! Hardware invariants enforced here (violations are controller bugs and
//! return [`FlashError`]):
//!
//! * pages within a block are programmed strictly in order,
//! * a block is erased only when it holds no live pages,
//! * reads only target written pages; transfers only follow reads,
//! * copy-back stays within one plane and requires chip support.
//!
//! The array also models the *durable* half of crash consistency: every
//! program carries an [`OobEntry`] in the page's spare area, and
//! [`FlashArray::power_cut`] destroys exactly the operations still in
//! flight at the cut — partially-programmed pages become unreadable
//! (torn), interrupted erases leave their block unusable until erased
//! again, and everything already completed survives.

use eagletree_core::SimTime;

use crate::address::{BlockAddr, Geometry, PhysicalAddr};
use crate::command::FlashCommand;
use crate::error::FlashError;
use crate::fault::{FaultConfig, FaultEvent, FaultModel};
use crate::oob::OobEntry;
use crate::timing::TimingSpec;

/// The fewest in-flight-list entries at which [`FlashArray::issue`] prunes
/// completed ones.
const PRUNE_FLOOR: usize = 64;

/// Lifecycle of a physical page between erases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased, ready to program.
    Free,
    /// Holds the live copy of some logical page.
    Valid,
    /// Holds a superseded (garbage) copy.
    Invalid,
}

/// Per-block bookkeeping consumed by GC and wear leveling.
#[derive(Debug, Clone, Copy)]
pub struct BlockInfo {
    /// Number of times this block has been erased.
    pub erase_count: u32,
    /// Virtual time of the last erase (zero if never erased).
    pub last_erase: SimTime,
    /// Next page to program (pages below this are written).
    pub write_ptr: u32,
    /// Number of valid pages.
    pub live_pages: u32,
    /// Worn out: the block reached the chip's erase endurance and must be
    /// masked (never programmed or erased again).
    pub bad: bool,
}

impl BlockInfo {
    fn new() -> Self {
        BlockInfo {
            erase_count: 0,
            last_erase: SimTime::ZERO,
            write_ptr: 0,
            live_pages: 0,
            bad: false,
        }
    }
}

/// What a LUN is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LunStatus {
    /// Free once `busy_until` passes.
    Idle,
    /// Array read finished (or will finish at `busy_until`); the page
    /// register holds data that must be transferred out before the LUN can
    /// accept any other command.
    HoldingData(PhysicalAddr),
}

/// A power-cut report: what the cut destroyed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerCutReport {
    /// Pages whose program was still in flight: left partially programmed
    /// and unreadable (torn).
    pub torn_pages: u64,
    /// Blocks whose erase was still in flight: left in an undefined state
    /// and unusable until erased again.
    pub interrupted_erases: u64,
    /// The virtual instant of the cut. Recovery uses it as "now" when it
    /// re-reads OOB areas, so retention age at the remount is charged
    /// against the data — not reset by the crash.
    pub at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct LunState {
    busy_until: SimTime,
    status: LunStatus,
    /// Set while the LUN's current operation is an array-program of this
    /// block: a cached program of the block's next page may pipeline
    /// behind it. Cleared by any other operation.
    programming: Option<BlockAddr>,
}

/// What a LUN could accept at an instant: the resource test of
/// [`FlashArray::can_issue`] for every command but a register transfer,
/// asked of the LUN instead of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LunReady {
    /// Channel and LUN free, register empty: any array operation — read,
    /// program, erase, copy-back — can start.
    ArrayOp,
    /// Channel free and the LUN busy array-programming a block on a chip
    /// with cached programming: only a program of that block's next page
    /// can join it ([`FlashArray::can_pipeline`] says whether an address
    /// is that page's).
    CachedProgram,
    /// Nothing but, once its data is ready, the transfer of a held page.
    Busy,
}

/// Raw operation counters (all sources combined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    pub reads: u64,
    pub transfers: u64,
    pub programs: u64,
    pub erases: u64,
    pub copybacks: u64,
}

/// Result of successfully issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// When the command's effect is complete. For `ReadStart` this is when
    /// data is ready in the LUN register (a `TransferOut` must follow).
    pub done_at: SimTime,
    /// When the channel becomes free again.
    pub channel_free_at: SimTime,
    /// When the LUN becomes free again (for `ReadStart`: when data is
    /// ready — the LUN then *holds data* and only accepts `TransferOut`).
    pub lun_free_at: SimTime,
    /// Media fault that accompanied the command, when a [`FaultModel`] is
    /// installed. `done_at`/`channel_free_at`/`lun_free_at` already include
    /// any read-retry latency the fault cost. Always `None` without a
    /// model.
    pub fault: Option<FaultEvent>,
}

/// Sentinel for "no block" in the victim index's intrusive lists.
const NO_BLOCK: u32 = u32::MAX;

/// Intrusive list node of the victim index: one per physical block.
/// `bucket == NO_BLOCK` means the block is not indexed (never programmed
/// since its last erase, or masked bad).
#[derive(Debug, Clone, Copy)]
struct VictimNode {
    prev: u32,
    next: u32,
    bucket: u32,
}

/// Incremental per-LUN GC candidate index: for every LUN, one intrusive
/// doubly-linked list of blocks per live-page count (`0..=pages_per_block`).
///
/// Maintained from the program / invalidate / erase deltas the array
/// already applies. Greedy victim selection pops the lowest non-empty
/// bucket without rescanning the device; Random and CostBenefit still
/// walk a LUN's blocks in address order (their historical candidate
/// numbering) but test membership here in O(1) instead of fetching
/// `BlockInfo` per block. Moves between buckets are O(1). A per-LUN count
/// of the indexed blocks that are not fully live answers "is anything
/// reclaimable here at all" without walking the buckets.
#[derive(Debug, Clone)]
struct VictimIndex {
    /// Bucket heads, `lun * (ppb + 1) + live`.
    heads: Vec<u32>,
    nodes: Vec<VictimNode>,
    /// Per LUN: indexed blocks with `live < ppb`.
    reclaimable: Vec<u32>,
    buckets_per_lun: u32,
    blocks_per_lun: u32,
}

impl VictimIndex {
    fn new(g: &Geometry) -> Self {
        let buckets_per_lun = g.pages_per_block + 1;
        VictimIndex {
            heads: vec![NO_BLOCK; (g.total_luns() * buckets_per_lun) as usize],
            nodes: vec![
                VictimNode {
                    prev: NO_BLOCK,
                    next: NO_BLOCK,
                    bucket: NO_BLOCK,
                };
                g.total_blocks() as usize
            ],
            reclaimable: vec![0; g.total_luns() as usize],
            buckets_per_lun,
            blocks_per_lun: g.blocks_per_lun(),
        }
    }

    fn bucket_slot(&self, block: u32, live: u32) -> u32 {
        (block / self.blocks_per_lun) * self.buckets_per_lun + live
    }

    /// The live count of a fully valid block: the one bucket whose blocks
    /// are not reclaimable.
    fn full(&self) -> u32 {
        self.buckets_per_lun - 1
    }

    fn contains(&self, block: u32) -> bool {
        self.nodes[block as usize].bucket != NO_BLOCK
    }

    /// Push `block` onto the list of `bucket`.
    fn attach(&mut self, block: u32, bucket: u32) {
        let head = self.heads[bucket as usize];
        self.nodes[block as usize] = VictimNode {
            prev: NO_BLOCK,
            next: head,
            bucket,
        };
        if head != NO_BLOCK {
            self.nodes[head as usize].prev = block;
        }
        self.heads[bucket as usize] = block;
    }

    /// Take `block` off its bucket's list.
    fn detach(&mut self, block: u32) {
        let node = self.nodes[block as usize];
        if node.prev == NO_BLOCK {
            self.heads[node.bucket as usize] = node.next;
        } else {
            self.nodes[node.prev as usize].next = node.next;
        }
        if node.next != NO_BLOCK {
            self.nodes[node.next as usize].prev = node.prev;
        }
    }

    fn link(&mut self, block: u32, live: u32) {
        debug_assert!(!self.contains(block), "double-link of block {block}");
        if live < self.full() {
            self.reclaimable[(block / self.blocks_per_lun) as usize] += 1;
        }
        self.attach(block, self.bucket_slot(block, live));
    }

    fn unlink(&mut self, block: u32) {
        let bucket = self.nodes[block as usize].bucket;
        debug_assert!(bucket != NO_BLOCK, "unlink of unindexed block {block}");
        if bucket % self.buckets_per_lun < self.full() {
            self.reclaimable[(block / self.blocks_per_lun) as usize] -= 1;
        }
        self.detach(block);
        self.nodes[block as usize] = VictimNode {
            prev: NO_BLOCK,
            next: NO_BLOCK,
            bucket: NO_BLOCK,
        };
    }

    /// `block`'s live count went from `was` to `live`. Runs on every
    /// program and every invalidate, so it divides nothing: the block
    /// stays on its LUN, whose bucket range the old bucket gives, and the
    /// reclaimable count is touched only when the move enters or leaves
    /// the fully-live bucket.
    fn move_to(&mut self, block: u32, was: u32, live: u32) {
        let full = self.full();
        if (was == full) != (live == full) {
            let n = &mut self.reclaimable[(block / self.blocks_per_lun) as usize];
            if live == full {
                *n -= 1;
            } else {
                *n += 1;
            }
        }
        let bucket = self.nodes[block as usize].bucket - was + live;
        self.detach(block);
        self.attach(block, bucket);
    }

    fn bucket_head(&self, lun: u32, live: u32) -> u32 {
        self.heads[(lun * self.buckets_per_lun + live) as usize]
    }
}

/// The simulated flash memory array.
///
/// Cloneable so experiments can remount one captured post-crash medium
/// under several recovery modes.
#[derive(Clone)]
pub struct FlashArray {
    geometry: Geometry,
    timing: TimingSpec,
    channels: Vec<SimTime>,
    luns: Vec<LunState>,
    page_state: Vec<PageState>,
    blocks: Vec<BlockInfo>,
    victim_index: VictimIndex,
    counters: OpCounters,
    /// Per-page OOB spare-area records (persisted with each program; the
    /// durable side of the mapping). `None` for unwritten or torn pages.
    oob: Vec<Option<OobEntry>>,
    /// Pages left partially programmed by a power cut: unreadable until
    /// their block is erased.
    torn: Vec<bool>,
    /// Blocks whose erase a power cut interrupted: unusable (no programs)
    /// until erased again.
    needs_erase: Vec<bool>,
    /// Programs issued and perhaps not yet complete, for power-cut
    /// injection: a superset — entries that completed stay until the next
    /// prune, and [`FlashArray::power_cut`] skips them.
    inflight_programs: Vec<(PhysicalAddr, SimTime)>,
    /// Erases issued and perhaps not yet complete (likewise a superset).
    inflight_erases: Vec<(BlockAddr, SimTime)>,
    /// The combined length of the two lists at which `issue` next prunes
    /// them: twice what the last prune left, and at least [`PRUNE_FLOOR`].
    prune_at: usize,
    /// Media-fault injector. `None` (the default) costs nothing: no RNG
    /// draws, no timing changes, no new state — fingerprints are
    /// byte-identical to an array built before the fault model existed.
    fault: Option<FaultModel>,
}

impl FlashArray {
    /// A fresh (fully-erased) array.
    pub fn new(geometry: Geometry, timing: TimingSpec) -> Self {
        geometry.validate().expect("invalid geometry");
        timing.validate().expect("invalid timing spec");
        FlashArray {
            geometry,
            timing,
            channels: vec![SimTime::ZERO; geometry.channels as usize],
            luns: vec![
                LunState {
                    busy_until: SimTime::ZERO,
                    status: LunStatus::Idle,
                    programming: None,
                };
                geometry.total_luns() as usize
            ],
            page_state: vec![PageState::Free; geometry.total_pages() as usize],
            blocks: vec![BlockInfo::new(); geometry.total_blocks() as usize],
            victim_index: VictimIndex::new(&geometry),
            counters: OpCounters::default(),
            oob: vec![None; geometry.total_pages() as usize],
            torn: vec![false; geometry.total_pages() as usize],
            needs_erase: vec![false; geometry.total_blocks() as usize],
            inflight_programs: Vec::new(),
            inflight_erases: Vec::new(),
            prune_at: PRUNE_FLOOR,
            fault: None,
        }
    }

    /// Install a media-fault model (replacing any prior one). Sized from
    /// the array's geometry and cell type; all sampling is seeded by
    /// `cfg.seed`, so a fixed seed faults identically across runs.
    pub fn install_fault_model(&mut self, cfg: FaultConfig) {
        self.fault = Some(FaultModel::new(cfg, &self.geometry, self.timing.cell));
    }

    /// The installed fault model, if any (scrub policy reads its
    /// read-disturb / retention state; stats read its counters).
    pub fn fault(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    pub fn timing(&self) -> &TimingSpec {
        &self.timing
    }

    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    fn lun_slot(&self, channel: u32, lun: u32) -> usize {
        self.geometry.lun_index(channel, lun) as usize
    }

    /// When the channel is next free.
    pub fn channel_free_at(&self, channel: u32) -> SimTime {
        self.channels[channel as usize]
    }

    /// When the LUN is next free (ignores a held data register).
    pub fn lun_free_at(&self, channel: u32, lun: u32) -> SimTime {
        self.luns[self.lun_slot(channel, lun)].busy_until
    }

    /// The address whose data sits in the LUN register, if any.
    pub fn lun_holding(&self, channel: u32, lun: u32) -> Option<PhysicalAddr> {
        match self.luns[self.lun_slot(channel, lun)].status {
            LunStatus::HoldingData(a) => Some(a),
            LunStatus::Idle => None,
        }
    }

    /// What the LUN with linear index `lun` ([`Geometry::lun_index`]) could
    /// accept at `now`, without naming a command, and the first instant
    /// that answer may change unless a command goes to the LUN's channel
    /// first ([`SimTime::MAX`]: only such a command changes it). A
    /// scheduler that tracks which LUNs are ready asks this once per LUN
    /// whose answer has run out instead of [`Self::can_issue`] once per
    /// queued operation.
    pub fn lun_ready(&self, lun: u32, now: SimTime) -> (LunReady, SimTime) {
        let state = &self.luns[lun as usize];
        let channel_free_at = self.channels[(lun / self.geometry.luns_per_channel) as usize];
        if channel_free_at > now {
            (LunReady::Busy, channel_free_at)
        } else if state.status != LunStatus::Idle {
            (LunReady::Busy, SimTime::MAX)
        } else if state.busy_until <= now {
            (LunReady::ArrayOp, SimTime::MAX)
        } else if self.timing.cached_program && state.programming.is_some() {
            (LunReady::CachedProgram, state.busy_until)
        } else {
            (LunReady::Busy, state.busy_until)
        }
    }

    /// Whether `cmd`'s channel and LUN are both free at `now`.
    ///
    /// This is the resource test only; state validity (sequential program,
    /// live-erase, …) is checked at issue time.
    pub fn can_issue(&self, cmd: &FlashCommand, now: SimTime) -> bool {
        let ch = cmd.channel() as usize;
        if ch >= self.channels.len() || self.channels[ch] > now {
            return false;
        }
        let slot = self.lun_slot(cmd.channel(), cmd.lun());
        let lun = &self.luns[slot];
        if lun.busy_until > now {
            // Only a cached program may join a busy LUN.
            return match cmd {
                FlashCommand::Program(a) => self.can_pipeline(*a, now),
                FlashCommand::ReadStart(_)
                | FlashCommand::TransferOut(_)
                | FlashCommand::Erase(_)
                | FlashCommand::CopyBack { .. } => false,
            };
        }
        match (lun.status, cmd) {
            // A LUN holding data accepts only the matching transfer.
            (LunStatus::HoldingData(held), FlashCommand::TransferOut(a)) => held == *a,
            (LunStatus::HoldingData(_), _) => false,
            (LunStatus::Idle, FlashCommand::TransferOut(_)) => false,
            (LunStatus::Idle, _) => true,
        }
    }

    /// Whether a program of `addr` may *pipeline* behind the LUN's current
    /// array-program (cached programming): chip support, channel free, and
    /// the LUN busy programming the same block.
    pub fn can_pipeline(&self, addr: PhysicalAddr, now: SimTime) -> bool {
        if !self.timing.cached_program {
            return false;
        }
        if self.channels[addr.channel as usize] > now {
            return false;
        }
        let lun = &self.luns[self.lun_slot(addr.channel, addr.lun)];
        lun.busy_until > now
            && lun.status == LunStatus::Idle
            && lun.programming == Some(addr.block_addr())
    }

    /// Issue a command whose resources are free at `now`.
    pub fn issue(
        &mut self,
        cmd: FlashCommand,
        now: SimTime,
    ) -> Result<IssueOutcome, FlashError> {
        self.check_range(&cmd)?;
        // Completed operations can no longer be destroyed by a power cut,
        // which skips them by their `done` anyway: drop them once the lists
        // have doubled since the last prune, so each entry is walked O(1)
        // times instead of once per command issued while it is listed. The
        // power cut comes no earlier than the last issue (the clock does
        // not run backwards), so what it reports is the same either way.
        if self.inflight_programs.len() + self.inflight_erases.len() >= self.prune_at {
            self.inflight_programs.retain(|&(_, done)| done > now);
            self.inflight_erases.retain(|&(_, done)| done > now);
            let left = self.inflight_programs.len() + self.inflight_erases.len();
            self.prune_at = (2 * left).max(PRUNE_FLOOR);
        }
        let ch = cmd.channel() as usize;
        if self.channels[ch] > now {
            return Err(FlashError::ChannelBusy {
                channel: cmd.channel(),
            });
        }
        let slot = self.lun_slot(cmd.channel(), cmd.lun());
        if self.luns[slot].busy_until > now {
            let pipelined = matches!(cmd, FlashCommand::Program(a) if self.can_pipeline(a, now));
            if !pipelined {
                return Err(FlashError::LunBusy {
                    channel: cmd.channel(),
                    lun: cmd.lun(),
                });
            }
        }
        match (self.luns[slot].status, &cmd) {
            (LunStatus::HoldingData(held), FlashCommand::TransferOut(a)) if held == *a => {}
            (LunStatus::HoldingData(_), _) => {
                return Err(FlashError::LunBusy {
                    channel: cmd.channel(),
                    lun: cmd.lun(),
                })
            }
            (LunStatus::Idle, FlashCommand::TransferOut(_)) => {
                return Err(FlashError::NoPendingData {
                    channel: cmd.channel(),
                    lun: cmd.lun(),
                })
            }
            (LunStatus::Idle, _) => {}
        }

        let t = self.timing;
        match cmd {
            FlashCommand::ReadStart(addr) => {
                if self.page_state(addr) == PageState::Free {
                    return Err(FlashError::ReadUnwritten(addr));
                }
                if self.is_torn(addr) {
                    return Err(FlashError::TornPage(addr));
                }
                // ECC path: each retry tier re-issues the array read, so
                // retries surface as real scheduler-visible latency.
                let mut fault = None;
                let mut attempts = 1u64;
                if let Some(fm) = self.fault.as_mut() {
                    let pi = self.geometry.page_index(addr);
                    let bi = self.geometry.block_index(addr.block_addr());
                    let pe = self.blocks[bi as usize].erase_count;
                    let out = fm.sample_read(pi, bi, pe, now);
                    attempts += out.retries as u64;
                    fault = Some(FaultEvent::Read(out));
                }
                let channel_free = now + t.read_channel_time() * attempts;
                let data_ready = now + t.read_lun_time() * attempts;
                self.occupy(ch, slot, channel_free, data_ready);
                self.luns[slot].programming = None;
                self.luns[slot].status = LunStatus::HoldingData(addr);
                self.counters.reads += 1;
                Ok(IssueOutcome {
                    done_at: data_ready,
                    channel_free_at: channel_free,
                    lun_free_at: data_ready,
                    fault,
                })
            }
            FlashCommand::TransferOut(_) => {
                let done = now + t.t_xfer;
                self.occupy(ch, slot, done, done);
                self.luns[slot].programming = None;
                self.luns[slot].status = LunStatus::Idle;
                self.counters.transfers += 1;
                Ok(IssueOutcome {
                    done_at: done,
                    channel_free_at: done,
                    lun_free_at: done,
                    fault: None,
                })
            }
            FlashCommand::Program(addr) => {
                self.check_programmable(addr)?;
                // Program-status failure is advisory: the page is burned
                // either way (the write pointer advances and the cells
                // took the pulse), so the array applies the normal state
                // transition and the controller decides remap-vs-absorb.
                let fault = self.sample_program_fault(addr, now);
                let channel_free = now + t.program_channel_time();
                // Cached programming: the array phase starts once both the
                // data transfer finishes and the previous program (if any)
                // completes — transfers hide behind array time.
                let array_start = self.luns[slot].busy_until.max(channel_free);
                let done = array_start + t.t_prog;
                self.occupy(ch, slot, channel_free, done);
                self.luns[slot].programming = Some(addr.block_addr());
                self.mark_programmed(addr);
                self.inflight_programs.push((addr, done));
                self.counters.programs += 1;
                Ok(IssueOutcome {
                    done_at: done,
                    channel_free_at: channel_free,
                    lun_free_at: done,
                    fault,
                })
            }
            FlashCommand::Erase(block) => {
                let info = self.block_info(block);
                if info.live_pages > 0 {
                    return Err(FlashError::EraseLiveBlock {
                        block,
                        live: info.live_pages,
                    });
                }
                let channel_free = now + t.erase_channel_time();
                let done = now + t.erase_lun_time();
                self.occupy(ch, slot, channel_free, done);
                self.luns[slot].programming = None;
                // An erase failure leaves the block un-reset (the full
                // erase pulse was still spent discovering that). A streak
                // of failures retires the block as grown bad.
                let fault = self.sample_erase_fault(block);
                if !matches!(fault, Some(FaultEvent::EraseFailed { .. })) {
                    self.reset_block(block, done);
                }
                self.inflight_erases.push((block, done));
                self.counters.erases += 1;
                Ok(IssueOutcome {
                    done_at: done,
                    channel_free_at: channel_free,
                    lun_free_at: done,
                    fault,
                })
            }
            FlashCommand::CopyBack { from, to } => {
                if !t.copyback {
                    return Err(FlashError::InvalidCopyBack(
                        "chip does not support copy-back".into(),
                    ));
                }
                if !from.same_plane(to) {
                    return Err(FlashError::InvalidCopyBack(format!(
                        "{from:?} and {to:?} are in different planes"
                    )));
                }
                if self.page_state(from) == PageState::Free {
                    return Err(FlashError::ReadUnwritten(from));
                }
                if self.is_torn(from) {
                    return Err(FlashError::TornPage(from));
                }
                self.check_programmable(to)?;
                // Copy-back reads through the same ECC path (an on-die
                // move cannot scrub what ECC cannot correct), then
                // programs: an uncorrectable source outranks a program
                // failure — the destination holds garbage either way.
                let mut fault = None;
                let mut attempts = 1u64;
                if self.fault.is_some() {
                    let pi = self.geometry.page_index(from);
                    let bi = self.geometry.block_index(from.block_addr());
                    let pe = self.blocks[bi as usize].erase_count;
                    let out = self
                        .fault
                        .as_mut()
                        .expect("checked above")
                        .sample_read(pi, bi, pe, now);
                    attempts += out.retries as u64;
                    let prog = self.sample_program_fault(to, now);
                    fault = if out.uncorrectable || prog.is_none() {
                        Some(FaultEvent::Read(out))
                    } else {
                        prog
                    };
                }
                let channel_free = now + t.copyback_channel_time();
                let done = now + t.copyback_lun_time() + t.read_lun_time() * (attempts - 1);
                self.occupy(ch, slot, channel_free, done);
                self.luns[slot].programming = None;
                self.mark_programmed(to);
                self.inflight_programs.push((to, done));
                self.counters.copybacks += 1;
                Ok(IssueOutcome {
                    done_at: done,
                    channel_free_at: channel_free,
                    lun_free_at: done,
                    fault,
                })
            }
        }
    }

    /// Sample a program-status failure for `addr` (no-op without a fault
    /// model) and record the page's program time for retention aging.
    fn sample_program_fault(&mut self, addr: PhysicalAddr, now: SimTime) -> Option<FaultEvent> {
        let fm = self.fault.as_mut()?;
        let pi = self.geometry.page_index(addr);
        let bi = self.geometry.block_index(addr.block_addr());
        let info = &self.blocks[bi as usize];
        let failed = fm.sample_program(pi, bi, info.erase_count);
        fm.on_program(pi, bi, now, info.write_ptr == 0);
        failed.then_some(FaultEvent::ProgramFailed)
    }

    /// Sample an erase failure for `block` (no-op without a fault model).
    /// A terminal failure (streak exhausted) masks the block bad here, so
    /// the controller's existing bad-block retirement paths apply
    /// unchanged.
    fn sample_erase_fault(&mut self, block: BlockAddr) -> Option<FaultEvent> {
        let fm = self.fault.as_mut()?;
        let bi = self.geometry.block_index(block);
        let retired = fm.sample_erase(bi, self.blocks[bi as usize].erase_count)?;
        if retired {
            self.blocks[bi as usize].bad = true;
            if self.victim_index.contains(bi as u32) {
                self.victim_index.unlink(bi as u32);
            }
        }
        Some(FaultEvent::EraseFailed { retired })
    }

    /// Extend the channel's and the LUN's busy windows.
    fn occupy(&mut self, ch: usize, lun_slot: usize, channel_until: SimTime, lun_until: SimTime) {
        self.channels[ch] = channel_until;
        self.luns[lun_slot].busy_until = lun_until;
    }

    fn check_range(&self, cmd: &FlashCommand) -> Result<(), FlashError> {
        let g = &self.geometry;
        let (b, page) = match cmd {
            FlashCommand::ReadStart(a)
            | FlashCommand::TransferOut(a)
            | FlashCommand::Program(a) => (a.block_addr(), Some(a.page)),
            FlashCommand::Erase(b) => (*b, None),
            FlashCommand::CopyBack { from, to } => {
                self.check_range(&FlashCommand::ReadStart(*from))?;
                (to.block_addr(), Some(to.page))
            }
        };
        if b.channel >= g.channels
            || b.lun >= g.luns_per_channel
            || b.plane >= g.planes_per_lun
            || b.block >= g.blocks_per_plane
            || page.is_some_and(|p| p >= g.pages_per_block)
        {
            return Err(FlashError::OutOfRange(format!("{cmd:?}")));
        }
        Ok(())
    }

    fn check_programmable(&self, addr: PhysicalAddr) -> Result<(), FlashError> {
        let info = self.block_info(addr.block_addr());
        if info.bad {
            return Err(FlashError::BadBlock(addr.block_addr()));
        }
        if self.needs_erase[self.geometry.block_index(addr.block_addr()) as usize] {
            return Err(FlashError::NeedsErase(addr.block_addr()));
        }
        if info.write_ptr != addr.page {
            return Err(FlashError::NonSequentialProgram {
                addr,
                expected_page: info.write_ptr,
            });
        }
        debug_assert_eq!(self.page_state(addr), PageState::Free);
        Ok(())
    }

    fn mark_programmed(&mut self, addr: PhysicalAddr) {
        let pi = self.geometry.page_index(addr) as usize;
        self.page_state[pi] = PageState::Valid;
        let bi = self.geometry.block_index(addr.block_addr()) as usize;
        self.blocks[bi].write_ptr += 1;
        self.blocks[bi].live_pages += 1;
        let live = self.blocks[bi].live_pages;
        if self.blocks[bi].write_ptr == 1 {
            // First program since erase: the block enters the index.
            self.victim_index.link(bi as u32, live);
        } else {
            self.victim_index.move_to(bi as u32, live - 1, live);
        }
    }

    fn reset_block(&mut self, block: BlockAddr, when: SimTime) {
        let bi = self.geometry.block_index(block) as usize;
        // Erased (or never-programmed) blocks hold nothing reclaimable.
        if self.victim_index.contains(bi as u32) {
            self.victim_index.unlink(bi as u32);
        }
        // A pending grown-bad mark (program-status failure) converts to a
        // hard mask at the block's next erase; the erase also resets the
        // model's read-disturb and retention state.
        let grown_bad = match self.fault.as_mut() {
            Some(fm) => {
                let g = fm.is_grown_bad(bi as u64);
                fm.on_erase(bi as u64);
                g
            }
            None => false,
        };
        let endurance = self.timing.endurance;
        let info = &mut self.blocks[bi];
        info.erase_count += 1;
        info.last_erase = when;
        info.write_ptr = 0;
        info.live_pages = 0;
        // Endurance exhausted: the block wears out with this erase. The
        // erase itself still succeeds (the controller learns from the
        // status afterwards), but the block must be masked from further
        // use — the "mask bad blocks" duty the paper assigns to WL.
        if info.erase_count >= endurance || grown_bad {
            info.bad = true;
        }
        self.needs_erase[bi] = false;
        let base = bi * self.geometry.pages_per_block as usize;
        let end = base + self.geometry.pages_per_block as usize;
        for s in &mut self.page_state[base..end] {
            *s = PageState::Free;
        }
        for o in &mut self.oob[base..end] {
            *o = None;
        }
        for t in &mut self.torn[base..end] {
            *t = false;
        }
    }

    // ----- OOB metadata & power-failure injection -------------------------

    /// Record the OOB spare-area entry of a page the controller just
    /// programmed. The controller calls this alongside every `Program` /
    /// `CopyBack` issue; the entry persists until the block is erased.
    pub fn set_oob(&mut self, addr: PhysicalAddr, entry: OobEntry) {
        let pi = self.geometry.page_index(addr) as usize;
        debug_assert_ne!(
            self.page_state[pi],
            PageState::Free,
            "OOB write to unprogrammed page {addr:?}"
        );
        self.oob[pi] = Some(entry);
    }

    /// The OOB entry of a page: `None` for unwritten or torn pages (a torn
    /// page's spare area is as unreadable as its payload).
    pub fn oob(&self, addr: PhysicalAddr) -> Option<OobEntry> {
        let pi = self.geometry.page_index(addr) as usize;
        if self.torn[pi] {
            return None;
        }
        self.oob[pi]
    }

    /// The OOB entry of a page through the media-fault model: recovery's
    /// view of the spare area. `Err(Uncorrectable)` when the installed
    /// fault model deems the spare area unreadable at `now` (recovery must
    /// skip-and-reconstruct); otherwise identical to [`FlashArray::oob`].
    /// Pure and deterministic — probing the same page twice agrees.
    pub fn oob_checked(
        &self,
        addr: PhysicalAddr,
        now: SimTime,
    ) -> Result<Option<OobEntry>, FlashError> {
        let entry = self.oob(addr);
        if entry.is_some() {
            if let Some(fm) = &self.fault {
                let pi = self.geometry.page_index(addr);
                let bi = self.geometry.block_index(addr.block_addr());
                let pe = self.blocks[bi as usize].erase_count;
                if fm.oob_uncorrectable(pi, bi, pe, now) {
                    return Err(FlashError::Uncorrectable(addr));
                }
            }
        }
        Ok(entry)
    }

    /// Whether a page was left partially programmed by a power cut.
    pub fn is_torn(&self, addr: PhysicalAddr) -> bool {
        self.torn[self.geometry.page_index(addr) as usize]
    }

    /// Whether a power cut interrupted this block's erase: it must be
    /// erased again before any page of it can be programmed.
    pub fn block_needs_erase(&self, block: BlockAddr) -> bool {
        self.needs_erase[self.geometry.block_index(block) as usize]
    }

    /// Cut power at virtual instant `at`: every program still in flight
    /// leaves its page partially programmed (torn — unreadable payload and
    /// OOB), every erase still in flight leaves its block in an undefined
    /// state (unusable until erased again), and all transient controller
    /// ↔ array state (busy windows, held page registers, program
    /// pipelines) is lost. Completed operations are durable.
    ///
    /// The array afterwards models the dead medium a remount starts from;
    /// wear state (erase counts, bad-block masks) survives.
    pub fn power_cut(&mut self, at: SimTime) -> PowerCutReport {
        let mut report = PowerCutReport {
            at,
            ..PowerCutReport::default()
        };
        let inflight: Vec<(PhysicalAddr, SimTime)> = std::mem::take(&mut self.inflight_programs);
        for (addr, done) in inflight {
            if done <= at {
                continue;
            }
            let pi = self.geometry.page_index(addr) as usize;
            self.torn[pi] = true;
            self.oob[pi] = None;
            if self.page_state[pi] == PageState::Valid {
                // The partial program holds nothing readable: it is garbage
                // from birth (live-page accounting and the victim index
                // follow, exactly as for an invalidation).
                self.page_state[pi] = PageState::Invalid;
                let bi = self.geometry.block_index(addr.block_addr()) as usize;
                debug_assert!(self.blocks[bi].live_pages > 0);
                self.blocks[bi].live_pages -= 1;
                let live = self.blocks[bi].live_pages;
                self.victim_index.move_to(bi as u32, live + 1, live);
            }
            report.torn_pages += 1;
        }
        let inflight: Vec<(BlockAddr, SimTime)> = std::mem::take(&mut self.inflight_erases);
        for (block, done) in inflight {
            if done <= at {
                continue;
            }
            self.needs_erase[self.geometry.block_index(block) as usize] = true;
            report.interrupted_erases += 1;
        }
        // Power off: every channel and LUN is idle, registers are empty.
        for ch in &mut self.channels {
            *ch = SimTime::ZERO;
        }
        for lun in &mut self.luns {
            lun.busy_until = SimTime::ZERO;
            lun.status = LunStatus::Idle;
            lun.programming = None;
        }
        report
    }

    /// Mount-time erase, outside the scheduler: reset `block` immediately.
    /// Used by recovery for interrupted-erase blocks and blocks holding no
    /// live data; the erase's virtual-time cost is accounted by the
    /// recovery report, not by array occupancy. Requires a block with no
    /// valid pages.
    pub fn recovery_erase(&mut self, block: BlockAddr) {
        let info = self.block_info(block);
        assert_eq!(info.live_pages, 0, "recovery erase of a live block {block:?}");
        self.reset_block(block, SimTime::ZERO);
        self.counters.erases += 1;
    }

    /// Mount-time reconciliation: recovery determined that this (written,
    /// non-torn) page holds the live copy of its logical content, but the
    /// pre-crash controller had marked it superseded. Validity is
    /// controller RAM state, not medium state — the rebuilt controller's
    /// view wins. Live-page accounting and the victim index follow.
    pub fn recovery_set_valid(&mut self, addr: PhysicalAddr) {
        let pi = self.geometry.page_index(addr) as usize;
        assert!(!self.torn[pi], "torn page {addr:?} cannot be revalidated");
        assert_ne!(
            self.page_state[pi],
            PageState::Free,
            "unwritten page {addr:?} cannot be revalidated"
        );
        if self.page_state[pi] == PageState::Valid {
            return;
        }
        self.page_state[pi] = PageState::Valid;
        let bi = self.geometry.block_index(addr.block_addr()) as usize;
        self.blocks[bi].live_pages += 1;
        let live = self.blocks[bi].live_pages;
        self.victim_index.move_to(bi as u32, live - 1, live);
    }

    /// State of one physical page.
    pub fn page_state(&self, addr: PhysicalAddr) -> PageState {
        self.page_state[self.geometry.page_index(addr) as usize]
    }

    /// Bookkeeping for one block.
    pub fn block_info(&self, block: BlockAddr) -> BlockInfo {
        self.blocks[self.geometry.block_index(block) as usize]
    }

    /// Mark a valid page invalid (the FTL superseded its contents).
    ///
    /// Panics if the page was not valid: double-invalidation means the FTL
    /// lost track of the mapping.
    pub fn invalidate(&mut self, addr: PhysicalAddr) {
        let pi = self.geometry.page_index(addr) as usize;
        assert_eq!(
            self.page_state[pi],
            PageState::Valid,
            "invalidate of non-valid page {addr:?}"
        );
        self.page_state[pi] = PageState::Invalid;
        let bi = self.geometry.block_index(addr.block_addr()) as usize;
        debug_assert!(self.blocks[bi].live_pages > 0);
        self.blocks[bi].live_pages -= 1;
        let live = self.blocks[bi].live_pages;
        self.victim_index.move_to(bi as u32, live + 1, live);
    }

    /// Blocks on linear LUN `lun` currently holding exactly `live` valid
    /// pages, drawn from the incremental victim index. Only blocks that
    /// have been programmed since their last erase (and are not masked
    /// bad) are indexed. Iteration order within a bucket is unspecified
    /// but deterministic.
    pub fn blocks_with_live(&self, lun: u32, live: u32) -> impl Iterator<Item = BlockAddr> + '_ {
        debug_assert!(lun < self.geometry.total_luns());
        debug_assert!(live <= self.geometry.pages_per_block);
        let mut cur = self.victim_index.bucket_head(lun, live);
        std::iter::from_fn(move || {
            if cur == NO_BLOCK {
                return None;
            }
            let b = self.geometry.block_at(cur as u64);
            cur = self.victim_index.nodes[cur as usize].next;
            Some(b)
        })
    }

    /// Number of blocks on linear LUN `lun` for which
    /// [`FlashArray::is_reclaimable`] holds. Zero: no victim policy can
    /// find anything there.
    pub fn reclaimable_on(&self, lun: u32) -> u32 {
        self.victim_index.reclaimable[lun as usize]
    }

    /// Whether reclaiming `block` could gain space right now: programmed
    /// since its last erase, not masked bad, and not fully valid. O(1)
    /// via the victim index plus one live-page check.
    pub fn is_reclaimable(&self, block: BlockAddr) -> bool {
        let bi = self.geometry.block_index(block);
        self.victim_index.contains(bi as u32)
            && self.blocks[bi as usize].live_pages < self.geometry.pages_per_block
    }

    /// Valid pages in a block (the pages GC must migrate).
    pub fn valid_pages_in(&self, block: BlockAddr) -> Vec<PhysicalAddr> {
        let ppb = self.geometry.pages_per_block;
        (0..ppb)
            .map(|p| block.page(p))
            .filter(|&a| self.page_state(a) == PageState::Valid)
            .collect()
    }

    /// Erase-count distribution over all blocks (wear histogram input).
    pub fn erase_counts(&self) -> Vec<u32> {
        self.blocks.iter().map(|b| b.erase_count).collect()
    }

    /// Number of blocks masked as bad (endurance exhausted).
    pub fn bad_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.bad).count() as u64
    }

    /// Sum of all erase counts.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_core::SimDuration;

    fn array() -> FlashArray {
        FlashArray::new(Geometry::tiny(), TimingSpec::slc())
    }

    fn addr(block: u32, page: u32) -> PhysicalAddr {
        PhysicalAddr {
            channel: 0,
            lun: 0,
            plane: 0,
            block,
            page,
        }
    }

    #[test]
    fn fresh_array_is_idle_and_free() {
        let a = array();
        assert_eq!(a.channel_free_at(0), SimTime::ZERO);
        assert_eq!(a.lun_free_at(0, 0), SimTime::ZERO);
        assert_eq!(a.page_state(addr(0, 0)), PageState::Free);
        assert_eq!(a.counters(), OpCounters::default());
    }

    #[test]
    fn program_then_read_then_transfer() {
        let mut a = array();
        let t = *a.timing();
        let w = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert_eq!(w.lun_free_at, SimTime::ZERO + t.program_lun_time());
        assert_eq!(w.channel_free_at, SimTime::ZERO + t.program_channel_time());
        assert_eq!(a.page_state(addr(0, 0)), PageState::Valid);

        let now = w.lun_free_at;
        let r = a.issue(FlashCommand::ReadStart(addr(0, 0)), now).unwrap();
        assert_eq!(r.done_at, now + t.read_lun_time());
        // LUN now holds data: only the matching transfer may issue.
        assert_eq!(a.lun_holding(0, 0), Some(addr(0, 0)));
        assert!(!a.can_issue(&FlashCommand::Program(addr(0, 1)), r.done_at));
        assert!(a.can_issue(&FlashCommand::TransferOut(addr(0, 0)), r.done_at));

        let x = a.issue(FlashCommand::TransferOut(addr(0, 0)), r.done_at).unwrap();
        assert_eq!(x.done_at, r.done_at + t.t_xfer);
        assert_eq!(a.lun_holding(0, 0), None);
        assert_eq!(a.counters().reads, 1);
        assert_eq!(a.counters().transfers, 1);
        assert_eq!(a.counters().programs, 1);
    }

    #[test]
    fn programs_must_be_sequential_within_block() {
        let mut a = array();
        let err = a.issue(FlashCommand::Program(addr(0, 1)), SimTime::ZERO);
        assert!(matches!(
            err,
            Err(FlashError::NonSequentialProgram {
                expected_page: 0,
                ..
            })
        ));
    }

    #[test]
    fn channel_frees_before_lun_on_program() {
        let mut a = array();
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert!(out.channel_free_at < out.lun_free_at);
        // Another LUN on the same channel can start once the channel frees.
        let other = PhysicalAddr {
            channel: 0,
            lun: 1,
            plane: 0,
            block: 0,
            page: 0,
        };
        assert!(!a.can_issue(&FlashCommand::Program(other), SimTime::ZERO));
        assert!(a.can_issue(&FlashCommand::Program(other), out.channel_free_at));
    }

    #[test]
    fn interleaving_two_luns_beats_serial() {
        // Two programs on different LUNs of one channel overlap their
        // array-program phases; two on the same LUN cannot.
        let mut a = array();
        let t = *a.timing();
        let p0 = addr(0, 0);
        let p1 = PhysicalAddr {
            channel: 0,
            lun: 1,
            plane: 0,
            block: 0,
            page: 0,
        };
        let o0 = a.issue(FlashCommand::Program(p0), SimTime::ZERO).unwrap();
        let o1 = a.issue(FlashCommand::Program(p1), o0.channel_free_at).unwrap();
        let interleaved_makespan = o1.done_at;
        let serial_makespan = SimTime::ZERO + t.program_lun_time() * 2;
        assert!(
            interleaved_makespan < serial_makespan,
            "interleaving gained nothing: {interleaved_makespan:?} vs {serial_makespan:?}"
        );
    }

    #[test]
    fn erase_requires_dead_block_and_resets_it() {
        let mut a = array();
        let mut now = SimTime::ZERO;
        for p in 0..4 {
            let out = a.issue(FlashCommand::Program(addr(0, p)), now).unwrap();
            now = out.lun_free_at;
        }
        let block = addr(0, 0).block_addr();
        assert_eq!(a.block_info(block).live_pages, 4);
        assert!(matches!(
            a.issue(FlashCommand::Erase(block), now),
            Err(FlashError::EraseLiveBlock { live: 4, .. })
        ));
        for p in 0..4 {
            a.invalidate(addr(0, p));
        }
        let out = a.issue(FlashCommand::Erase(block), now).unwrap();
        let info = a.block_info(block);
        assert_eq!(info.erase_count, 1);
        assert_eq!(info.write_ptr, 0);
        assert_eq!(info.live_pages, 0);
        assert_eq!(info.last_erase, out.done_at);
        assert_eq!(a.page_state(addr(0, 0)), PageState::Free);
        // Programming restarts from page 0.
        a.issue(FlashCommand::Program(addr(0, 0)), out.done_at).unwrap();
    }

    #[test]
    fn read_of_unwritten_page_fails() {
        let mut a = array();
        assert!(matches!(
            a.issue(FlashCommand::ReadStart(addr(0, 0)), SimTime::ZERO),
            Err(FlashError::ReadUnwritten(_))
        ));
    }

    #[test]
    fn transfer_without_read_fails() {
        let mut a = array();
        assert!(matches!(
            a.issue(FlashCommand::TransferOut(addr(0, 0)), SimTime::ZERO),
            Err(FlashError::NoPendingData { .. })
        ));
    }

    #[test]
    fn busy_resources_reject_and_can_issue_agrees() {
        let mut a = array();
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        // A read cannot join the busy LUN at any point before it frees.
        let read = FlashCommand::ReadStart(addr(0, 0));
        assert!(!a.can_issue(&read, SimTime::ZERO));
        assert!(matches!(
            a.issue(read, SimTime::ZERO),
            Err(FlashError::ChannelBusy { .. })
        ));
        assert!(matches!(
            a.issue(read, out.channel_free_at),
            Err(FlashError::LunBusy { .. })
        ));
        assert!(a.can_issue(&read, out.lun_free_at));
        a.issue(read, out.lun_free_at).unwrap();
    }

    #[test]
    fn cached_program_pipelines_within_block() {
        let mut a = array();
        let t = *a.timing();
        let o0 = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        let next = FlashCommand::Program(addr(0, 1));
        // Same block, channel free: pipelined issue allowed mid-program.
        assert!(a.can_issue(&next, o0.channel_free_at));
        let o1 = a.issue(next, o0.channel_free_at).unwrap();
        // The second program's array phase starts when the first ends:
        // back-to-back completions are t_prog apart, not a full cycle.
        assert_eq!(o1.done_at, o0.done_at + t.t_prog);
        assert!(o1.done_at < o0.done_at + t.program_lun_time());
        // A different block may not pipeline.
        let other = FlashCommand::Program(addr(1, 0));
        assert!(!a.can_issue(&other, o1.channel_free_at));
        assert!(matches!(
            a.issue(other, o1.channel_free_at),
            Err(FlashError::LunBusy { .. })
        ));
    }

    /// `lun_ready` is `can_issue` asked of the LUN: `ArrayOp` exactly when
    /// a read, a program of a fresh block and an erase would be accepted,
    /// `CachedProgram` exactly when only the pipelined program would — and
    /// the answer holds up to the instant it names.
    #[test]
    fn lun_ready_agrees_with_can_issue() {
        let mut a = array();
        let t = *a.timing();
        let agree = |a: &FlashArray, now: SimTime, next_page: u32| {
            let (ready, until) = a.lun_ready(0, now);
            assert!(until > now);
            if until != SimTime::MAX {
                let just_before = SimTime::from_nanos(until.as_nanos() - 1);
                assert_eq!(a.lun_ready(0, just_before).0, ready, "changed before {until:?}");
                assert_ne!(a.lun_ready(0, until), (ready, until), "nothing changed at {until:?}");
            } else {
                assert_eq!(a.lun_ready(0, now + t.t_erase * 100), (ready, until));
            }
            let array_ops = [
                FlashCommand::ReadStart(addr(0, 0)),
                FlashCommand::Program(addr(1, 0)),
                FlashCommand::Erase(addr(2, 0).block_addr()),
            ];
            for cmd in array_ops {
                let can = a.can_issue(&cmd, now);
                assert_eq!(can, ready == LunReady::ArrayOp, "{cmd:?} at {now:?}");
            }
            let pipelined = FlashCommand::Program(addr(0, next_page));
            assert_eq!(a.can_issue(&pipelined, now), ready != LunReady::Busy, "{now:?}");
            ready
        };
        assert_eq!(agree(&a, SimTime::ZERO, 0), LunReady::ArrayOp);
        let o0 = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert_eq!(agree(&a, SimTime::ZERO, 1), LunReady::Busy, "channel busy");
        assert_eq!(agree(&a, o0.channel_free_at, 1), LunReady::CachedProgram);
        // The sibling LUN shares the channel, not the program.
        assert_eq!(a.lun_ready(1, SimTime::ZERO), (LunReady::Busy, o0.channel_free_at));
        assert_eq!(a.lun_ready(1, o0.channel_free_at).0, LunReady::ArrayOp);
        assert_eq!(a.lun_ready(2, SimTime::ZERO).0, LunReady::ArrayOp, "another channel");
        let o1 = a.issue(FlashCommand::Program(addr(0, 1)), o0.channel_free_at).unwrap();
        assert_eq!(agree(&a, o1.channel_free_at, 2), LunReady::CachedProgram);
        assert_eq!(agree(&a, o1.lun_free_at, 2), LunReady::ArrayOp);
        // A read ends the pipeline and then holds the register.
        let r = a.issue(FlashCommand::ReadStart(addr(0, 0)), o1.lun_free_at).unwrap();
        assert_eq!(agree(&a, r.channel_free_at, 2), LunReady::Busy);
        assert_eq!(agree(&a, r.done_at + t.t_prog, 2), LunReady::Busy, "holding data");
        let x = a.issue(FlashCommand::TransferOut(addr(0, 0)), r.done_at).unwrap();
        assert_eq!(agree(&a, x.done_at, 2), LunReady::ArrayOp);
        // An erase in flight takes no cached program.
        let e = a.issue(FlashCommand::Erase(addr(2, 0).block_addr()), x.done_at).unwrap();
        assert_eq!(agree(&a, e.channel_free_at.max(x.done_at), 2), LunReady::Busy);

        let mut spec = TimingSpec::slc();
        spec.cached_program = false;
        let mut plain = FlashArray::new(Geometry::tiny(), spec);
        let o = plain.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert_eq!(agree(&plain, o.channel_free_at, 1), LunReady::Busy);
        assert_eq!(agree(&plain, o.lun_free_at, 1), LunReady::ArrayOp);
    }

    #[test]
    fn pipelining_disabled_without_chip_support() {
        let mut spec = TimingSpec::slc();
        spec.cached_program = false;
        let mut a = FlashArray::new(Geometry::tiny(), spec);
        let o0 = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        let next = FlashCommand::Program(addr(0, 1));
        assert!(!a.can_issue(&next, o0.channel_free_at));
        assert!(a.can_issue(&next, o0.lun_free_at));
    }

    #[test]
    fn reads_break_the_program_pipeline() {
        let mut a = array();
        let o0 = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        let r = a
            .issue(FlashCommand::ReadStart(addr(0, 0)), o0.lun_free_at)
            .unwrap();
        let x = a
            .issue(FlashCommand::TransferOut(addr(0, 0)), r.done_at)
            .unwrap();
        // After the read, a new program cannot pipeline (no program in
        // flight) — it needs the LUN idle, which it is.
        let next = FlashCommand::Program(addr(0, 1));
        assert!(!a.can_pipeline(addr(0, 1), x.done_at));
        assert!(a.can_issue(&next, x.done_at));
    }

    #[test]
    fn copyback_moves_within_plane_without_channel_data() {
        let mut a = array();
        let t = *a.timing();
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        let now = out.lun_free_at;
        let dst = addr(1, 0);
        let cb = a
            .issue(FlashCommand::CopyBack { from: addr(0, 0), to: dst }, now)
            .unwrap();
        assert_eq!(cb.channel_free_at, now + t.copyback_channel_time());
        assert!(cb.channel_free_at < cb.done_at);
        assert_eq!(a.page_state(dst), PageState::Valid);
        assert_eq!(a.counters().copybacks, 1);
        // Source keeps its state; the FTL invalidates it after remapping.
        assert_eq!(a.page_state(addr(0, 0)), PageState::Valid);
    }

    #[test]
    fn copyback_rejects_cross_plane_and_unsupported_chips() {
        let g = Geometry {
            planes_per_lun: 2,
            ..Geometry::tiny()
        };
        let mut a = FlashArray::new(g, TimingSpec::slc());
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        let cross = PhysicalAddr {
            channel: 0,
            lun: 0,
            plane: 1,
            block: 0,
            page: 0,
        };
        assert!(matches!(
            a.issue(
                FlashCommand::CopyBack { from: addr(0, 0), to: cross },
                out.lun_free_at
            ),
            Err(FlashError::InvalidCopyBack(_))
        ));

        let mut spec = TimingSpec::slc();
        spec.copyback = false;
        let mut b = FlashArray::new(Geometry::tiny(), spec);
        let out = b.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert!(matches!(
            b.issue(
                FlashCommand::CopyBack { from: addr(0, 0), to: addr(1, 0) },
                out.lun_free_at
            ),
            Err(FlashError::InvalidCopyBack(_))
        ));
    }

    #[test]
    fn out_of_range_commands_rejected() {
        let mut a = array();
        let bad = PhysicalAddr {
            channel: 0,
            lun: 0,
            plane: 0,
            block: 999,
            page: 0,
        };
        assert!(matches!(
            a.issue(FlashCommand::Program(bad), SimTime::ZERO),
            Err(FlashError::OutOfRange(_))
        ));
        let bad_page = addr(0, 999);
        assert!(matches!(
            a.issue(FlashCommand::Program(bad_page), SimTime::ZERO),
            Err(FlashError::OutOfRange(_))
        ));
    }

    #[test]
    fn invalidate_tracks_live_counts() {
        let mut a = array();
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.issue(FlashCommand::Program(addr(0, 1)), out.lun_free_at).unwrap();
        assert_eq!(a.block_info(addr(0, 0).block_addr()).live_pages, 2);
        a.invalidate(addr(0, 0));
        assert_eq!(a.block_info(addr(0, 0).block_addr()).live_pages, 1);
        assert_eq!(a.page_state(addr(0, 0)), PageState::Invalid);
        assert_eq!(a.valid_pages_in(addr(0, 0).block_addr()), vec![addr(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "invalidate of non-valid page")]
    fn double_invalidate_panics() {
        let mut a = array();
        a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.invalidate(addr(0, 0));
        a.invalidate(addr(0, 0));
    }

    #[test]
    fn reads_of_invalid_pages_are_allowed() {
        // GC may still be moving a page that the FTL invalidated after
        // remapping a newer write; the bits remain readable.
        let mut a = array();
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.invalidate(addr(0, 0));
        assert!(a
            .issue(FlashCommand::ReadStart(addr(0, 0)), out.lun_free_at)
            .is_ok());
    }

    #[test]
    fn erase_counts_and_totals() {
        let mut a = array();
        assert_eq!(a.total_erases(), 0);
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.invalidate(addr(0, 0));
        a.issue(FlashCommand::Erase(addr(0, 0).block_addr()), out.lun_free_at)
            .unwrap();
        assert_eq!(a.total_erases(), 1);
        let counts = a.erase_counts();
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 1);
        assert_eq!(counts.len() as u64, a.geometry().total_blocks());
    }

    #[test]
    fn power_cut_tears_inflight_program_only() {
        use crate::oob::{OobEntry, OobTag};
        let mut a = array();
        let o0 = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.set_oob(addr(0, 0), OobEntry { tag: OobTag::Data { lpn: 1 }, seq: 1, stamp: 1 });
        // Second program issued after the first completes; cut mid-flight.
        let o1 = a.issue(FlashCommand::Program(addr(0, 1)), o0.lun_free_at).unwrap();
        a.set_oob(addr(0, 1), OobEntry { tag: OobTag::Data { lpn: 2 }, seq: 2, stamp: 2 });
        let cut = o0.lun_free_at; // before o1.done_at
        assert!(cut < o1.done_at);
        let report = a.power_cut(cut);
        assert_eq!(report.torn_pages, 1);
        assert_eq!(report.interrupted_erases, 0);
        // The completed page survives with its OOB; the torn one is gone.
        assert!(!a.is_torn(addr(0, 0)));
        assert_eq!(a.oob(addr(0, 0)).unwrap().seq, 1);
        assert!(a.is_torn(addr(0, 1)));
        assert_eq!(a.oob(addr(0, 1)), None);
        assert_eq!(a.page_state(addr(0, 1)), PageState::Invalid);
        assert_eq!(a.block_info(addr(0, 0).block_addr()).live_pages, 1);
        // Reads of the torn page fail; the medium is otherwise idle.
        assert!(matches!(
            a.issue(FlashCommand::ReadStart(addr(0, 1)), SimTime::ZERO),
            Err(FlashError::TornPage(_))
        ));
        a.issue(FlashCommand::ReadStart(addr(0, 0)), SimTime::ZERO).unwrap();
    }

    #[test]
    fn power_cut_interrupts_inflight_erase() {
        let mut a = array();
        let mut now = SimTime::ZERO;
        let out = a.issue(FlashCommand::Program(addr(0, 0)), now).unwrap();
        now = out.lun_free_at;
        a.invalidate(addr(0, 0));
        let block = addr(0, 0).block_addr();
        let e = a.issue(FlashCommand::Erase(block), now).unwrap();
        let report = a.power_cut(now); // before e.done_at
        assert!(now < e.done_at);
        assert_eq!(report.interrupted_erases, 1);
        assert!(a.block_needs_erase(block));
        // Programs are refused until the block is erased again.
        assert!(matches!(
            a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO),
            Err(FlashError::NeedsErase(_))
        ));
        a.issue(FlashCommand::Erase(block), SimTime::ZERO).unwrap();
        assert!(!a.block_needs_erase(block));
        assert_eq!(a.block_info(block).erase_count, 2, "interrupted erase costs wear");
    }

    #[test]
    fn erase_clears_oob_and_torn_state() {
        use crate::oob::{OobEntry, OobTag};
        let mut a = array();
        let o0 = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.set_oob(addr(0, 0), OobEntry { tag: OobTag::Data { lpn: 3 }, seq: 1, stamp: 1 });
        let o1 = a.issue(FlashCommand::Program(addr(0, 1)), o0.lun_free_at).unwrap();
        a.power_cut(o0.lun_free_at);
        a.invalidate(addr(0, 0));
        let block = addr(0, 0).block_addr();
        let out = a.issue(FlashCommand::Erase(block), o1.done_at).unwrap();
        assert_eq!(a.oob(addr(0, 0)), None);
        assert!(!a.is_torn(addr(0, 1)));
        // Fully usable again.
        a.issue(FlashCommand::Program(addr(0, 0)), out.done_at).unwrap();
    }

    #[test]
    fn recovery_helpers_reconcile_state() {
        use crate::oob::{OobEntry, OobTag};
        let mut a = array();
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.set_oob(addr(0, 0), OobEntry { tag: OobTag::Data { lpn: 9 }, seq: 4, stamp: 4 });
        a.invalidate(addr(0, 0));
        // Recovery decides the page is the live copy after all.
        a.recovery_set_valid(addr(0, 0));
        assert_eq!(a.page_state(addr(0, 0)), PageState::Valid);
        assert_eq!(a.block_info(addr(0, 0).block_addr()).live_pages, 1);
        // Revalidating a valid page is a no-op.
        a.recovery_set_valid(addr(0, 0));
        assert_eq!(a.block_info(addr(0, 0).block_addr()).live_pages, 1);
        // Recovery erase resets a dead block without scheduling.
        a.invalidate(addr(0, 0));
        a.recovery_erase(addr(0, 0).block_addr());
        assert_eq!(a.block_info(addr(0, 0).block_addr()).erase_count, 1);
        assert_eq!(a.page_state(addr(0, 0)), PageState::Free);
        let _ = out;
    }

    #[test]
    fn fault_model_off_by_default_and_reports_none() {
        let mut a = array();
        assert!(a.fault().is_none());
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert_eq!(out.fault, None);
        let r = a.issue(FlashCommand::ReadStart(addr(0, 0)), out.lun_free_at).unwrap();
        assert_eq!(r.fault, None);
        assert!(a.oob_checked(addr(0, 0), SimTime::ZERO).is_ok());
    }

    #[test]
    fn clean_fault_model_changes_no_timing() {
        use crate::fault::FaultConfig;
        // A fault model with all rates zeroed must issue with timings
        // identical to no model at all.
        let mut plain = array();
        let mut faulted = array();
        faulted.install_fault_model(FaultConfig {
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            raw_bits_base: 0.0,
            raw_bits_per_pe: 0.0,
            raw_bits_per_retention_s: 0.0,
            raw_bits_per_disturb: 0.0,
            ..FaultConfig::default()
        });
        for (cmd, at) in [
            (FlashCommand::Program(addr(0, 0)), SimTime::ZERO),
            (FlashCommand::ReadStart(addr(0, 0)), SimTime::ZERO + SimDuration::from_millis(1)),
            (FlashCommand::TransferOut(addr(0, 0)), SimTime::ZERO + SimDuration::from_millis(2)),
        ] {
            let p = plain.issue(cmd, at).unwrap();
            let f = faulted.issue(cmd, at).unwrap();
            assert_eq!((p.done_at, p.channel_free_at, p.lun_free_at),
                       (f.done_at, f.channel_free_at, f.lun_free_at));
        }
    }

    #[test]
    fn read_retries_charge_visible_latency() {
        use crate::fault::{FaultConfig, FaultEvent};
        let mut a = array();
        let t = *a.timing();
        // Error rate above ECC on tier 0, collapsing on retries.
        a.install_fault_model(FaultConfig {
            raw_bits_base: 30.0,
            ecc_bits: 8,
            read_retries: 4,
            retry_error_scale: 0.1,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            ..FaultConfig::default()
        });
        let w = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        let r = a.issue(FlashCommand::ReadStart(addr(0, 0)), w.lun_free_at).unwrap();
        let Some(FaultEvent::Read(out)) = r.fault else {
            panic!("expected a read outcome, got {:?}", r.fault)
        };
        assert!(out.retries > 0, "λ=30 ≫ ecc=8 must retry");
        assert_eq!(
            r.done_at,
            w.lun_free_at + t.read_lun_time() * (1 + out.retries as u64),
            "each retry tier costs a full array read"
        );
        assert_eq!(a.fault().unwrap().counters().read_retries, out.retries as u64);
    }

    #[test]
    fn program_failure_is_advisory_and_marks_grown_bad() {
        use crate::fault::{FaultConfig, FaultEvent};
        let mut a = array();
        a.install_fault_model(FaultConfig {
            program_fail_base: 1.0,
            erase_fail_base: 0.0,
            raw_bits_base: 0.0,
            ..FaultConfig::default()
        });
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        assert_eq!(out.fault, Some(FaultEvent::ProgramFailed));
        // The page burned: write pointer advanced, state Valid until the
        // controller invalidates it.
        assert_eq!(a.block_info(addr(0, 0).block_addr()).write_ptr, 1);
        assert!(a.fault().unwrap().is_grown_bad(0));
        // The mark converts to a hard mask at the next erase.
        a.invalidate(addr(0, 0));
        a.issue(FlashCommand::Erase(addr(0, 0).block_addr()), out.lun_free_at).unwrap();
        assert!(a.block_info(addr(0, 0).block_addr()).bad);
        assert_eq!(a.bad_blocks(), 1);
    }

    #[test]
    fn erase_failure_streak_retires_block() {
        use crate::fault::{FaultConfig, FaultEvent};
        let mut a = array();
        a.install_fault_model(FaultConfig {
            erase_fail_base: 1.0,
            erase_retire_after: 2,
            program_fail_base: 0.0,
            raw_bits_base: 0.0,
            ..FaultConfig::default()
        });
        let block = addr(0, 0).block_addr();
        let mut now = SimTime::ZERO;
        let o1 = a.issue(FlashCommand::Erase(block), now).unwrap();
        assert_eq!(o1.fault, Some(FaultEvent::EraseFailed { retired: false }));
        assert_eq!(a.block_info(block).erase_count, 0, "failed erase does not reset");
        now = o1.lun_free_at;
        let o2 = a.issue(FlashCommand::Erase(block), now).unwrap();
        assert_eq!(o2.fault, Some(FaultEvent::EraseFailed { retired: true }));
        assert!(a.block_info(block).bad);
        assert_eq!(a.fault().unwrap().counters().erase_fails, 2);
    }

    #[test]
    fn oob_checked_reports_uncorrectable_spare_area() {
        use crate::fault::FaultConfig;
        use crate::oob::{OobEntry, OobTag};
        let mut a = array();
        a.install_fault_model(FaultConfig {
            raw_bits_base: 500.0,
            ecc_bits: 2,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            ..FaultConfig::default()
        });
        let out = a.issue(FlashCommand::Program(addr(0, 0)), SimTime::ZERO).unwrap();
        a.set_oob(addr(0, 0), OobEntry { tag: OobTag::Data { lpn: 1 }, seq: 1, stamp: 1 });
        let probe = a.oob_checked(addr(0, 0), out.done_at);
        assert!(matches!(probe, Err(FlashError::Uncorrectable(_))));
        // Unwritten pages are never uncorrectable — there is nothing to read.
        assert_eq!(a.oob_checked(addr(1, 0), out.done_at), Ok(None));
    }

    #[test]
    fn different_channels_fully_parallel() {
        let mut a = array();
        let p0 = addr(0, 0);
        let p1 = PhysicalAddr {
            channel: 1,
            lun: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        let o0 = a.issue(FlashCommand::Program(p0), SimTime::ZERO).unwrap();
        let o1 = a.issue(FlashCommand::Program(p1), SimTime::ZERO).unwrap();
        assert_eq!(o0.done_at, o1.done_at);
        assert!(o1.done_at.as_nanos() > 0);
        let _ = SimDuration::ZERO;
    }

    /// Cut `a`'s clone at `at` and a clone pruned the way `issue` once
    /// pruned at every command (nothing listed done by `now`, the instant
    /// of the last issue): both cuts destroy the same operations.
    fn cut_agrees_with_pre_pruned(a: &FlashArray, now: SimTime, at: SimTime) {
        let torn = |a: &FlashArray| -> Vec<u64> {
            (0..a.geometry.total_pages()).filter(|&p| a.torn[p as usize]).collect()
        };
        let (mut lazy, mut eager) = (a.clone(), a.clone());
        eager.inflight_programs.retain(|&(_, done)| done > now);
        eager.inflight_erases.retain(|&(_, done)| done > now);
        assert_eq!(lazy.power_cut(at), eager.power_cut(at), "cut at {at:?}");
        assert_eq!(torn(&lazy), torn(&eager), "torn pages of the cut at {at:?}");
        assert_eq!(lazy.needs_erase, eager.needs_erase, "interrupted erases at {at:?}");
    }

    /// The in-flight lists are pruned only when they have doubled, so they
    /// hold completed entries: a power cut skips those by their `done`,
    /// and reports exactly what it would with every completed entry gone
    /// (here at the last issue, and exactly at the completion of a listed
    /// program, and of a listed erase). The lists stay within twice the
    /// commands in flight at their peak plus the floor.
    #[test]
    fn amortized_pruning_is_invisible_to_a_power_cut_and_bounded() {
        let mut a = array();
        assert!(a.timing().cached_program);
        let g = *a.geometry();
        let luns = g.total_luns();
        // Per LUN: the block being filled (4 per LUN, reused) and its next
        // page; a full block is invalidated and erased, then refilled.
        let mut fill = vec![(0u32, 0u32); luns as usize];
        let mut now = SimTime::ZERO;
        // Most commands in flight, most completed entries listed, longest
        // program list.
        let (mut peak, mut stale, mut longest) = (0, 0, 0);
        for step in 0..2_000u32 {
            let lun = step % luns;
            let (block, page) = fill[lun as usize];
            let at = |page| PhysicalAddr {
                channel: lun / g.luns_per_channel,
                lun: lun % g.luns_per_channel,
                plane: 0,
                block,
                page,
            };
            let erase = page == g.pages_per_block;
            let cmd = if erase {
                FlashCommand::Erase(at(0).block_addr())
            } else {
                FlashCommand::Program(at(page))
            };
            if !a.can_issue(&cmd, now) {
                // Wait for the channel, then (unless the program can
                // pipeline) for the LUN.
                let (ch, l) = (cmd.channel(), cmd.lun());
                let t = now.max(a.channel_free_at(ch));
                now = if a.can_issue(&cmd, t) { t } else { t.max(a.lun_free_at(ch, l)) };
            }
            if erase {
                for p in 0..g.pages_per_block {
                    if a.page_state(at(p)) == PageState::Valid {
                        a.invalidate(at(p));
                    }
                }
            }
            a.issue(cmd, now).unwrap();
            fill[lun as usize] = if erase { ((block + 1) % 4, 0) } else { (block, page + 1) };
            let live = a.inflight_programs.iter().filter(|&&(_, d)| d > now).count()
                + a.inflight_erases.iter().filter(|&&(_, d)| d > now).count();
            peak = peak.max(live);
            stale = stale.max(a.inflight_programs.len() + a.inflight_erases.len() - live);
            longest = longest.max(a.inflight_programs.len());
            assert!(
                a.inflight_programs.len() <= 2 * peak + PRUNE_FLOOR,
                "{} programs listed, {peak} commands in flight at most",
                a.inflight_programs.len()
            );
            if step % 97 == 0 {
                cut_agrees_with_pre_pruned(&a, now, now);
                let programs = a.inflight_programs.iter().map(|&(_, d)| d);
                let erases = a.inflight_erases.iter().map(|&(_, d)| d);
                for done in [programs.filter(|&d| d > now).min(), erases.filter(|&d| d > now).max()]
                    .into_iter()
                    .flatten()
                {
                    cut_agrees_with_pre_pruned(&a, now, done);
                }
            }
        }
        assert!(peak > 8, "a shallow pipeline: {peak} commands in flight at most");
        assert!(stale > PRUNE_FLOOR / 2, "at most {stale} completed entries listed: not lazy");
        assert!(longest > PRUNE_FLOOR, "the program list never outgrew the floor");
    }
}
