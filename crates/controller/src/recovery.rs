//! Crash recovery: rebuild the mapping from the flash medium after a
//! power cut.
//!
//! The durable record of an SSD's mapping is the per-page OOB metadata the
//! controller persists with every program (`eagletree_flash::oob`): the
//! logical page, a content-version `seq`, and a monotone program `stamp`.
//! After [`crate::Controller::power_cut`] freezes the medium into a
//! [`CrashImage`], [`crate::Controller::remount`] rebuilds a fresh
//! controller from it in one of two modes:
//!
//! * [`RecoveryMode::FullScan`] — read the OOB of every written page on
//!   the device and keep, per logical page, the copy with the highest
//!   `(seq, stamp)`. Always possible; mount time scales with device fill.
//! * [`RecoveryMode::Checkpoint`] — start from the last *committed*
//!   mapping checkpoint (a snapshot written to reserved blocks during
//!   normal operation), probe each block's newest stamp, and re-scan only
//!   blocks holding entries newer than the checkpoint's watermark. Falls
//!   back to a full scan when no checkpoint committed before the cut.
//!
//! Guarantees (the crash-recovery property suite drives these):
//!
//! * **No acknowledged write is lost.** A write is acknowledged only after
//!   its program completed, and completed programs survive a cut; its OOB
//!   `(seq, stamp)` outranks every older copy.
//! * **GC / merge relocation is crash-atomic.** Copies carry the source's
//!   `seq` with a fresh `stamp`, and a victim is erased only after every
//!   live copy's program completed — so at any cut point either the
//!   original or a sequence-stamped copy (or a newer host write) wins the
//!   scan, never neither.
//! * **No double mapping.** The scan keeps exactly one winner per logical
//!   page and reconciles every other copy to invalid.
//! * **Checkpointed trims stay dead.** Trims are journaled into the
//!   periodic checkpoint: a committed [`CheckpointRecord`] carries each
//!   trimmed-and-still-unmapped page with the content version (`seq`) of
//!   the copy the trim discarded, and replay rejects scanned copies at or
//!   below that barrier — so under [`RecoveryMode::Checkpoint`] a page
//!   trimmed before the last committed checkpoint is not resurrected by
//!   a re-scanned block. Post-trim writes carry newer seqs and still win.
//!
//! Remaining semantic edge, shared with real FTLs that journal
//! deallocations lazily: trims issued *after* the last committed
//! checkpoint — and every trim under [`RecoveryMode::FullScan`], which
//! has no checkpoint to consult — are RAM-only and may be *resurrected*
//! by recovery.

use std::collections::BTreeMap;

use eagletree_core::{SimDuration, SimTime};
use eagletree_flash::{BlockAddr, FlashArray, Geometry, OobTag, PageState, PowerCutReport};

use crate::controller::PageContent;
use crate::types::{Lpn, Ppn};

/// How a remount rebuilds the mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Scan the OOB of every written page.
    FullScan,
    /// Replay from the last committed checkpoint; re-scan only blocks
    /// whose newest stamp exceeds the checkpoint watermark. Falls back to
    /// a full scan when the image holds no committed checkpoint.
    Checkpoint,
}

impl RecoveryMode {
    /// Short label for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::FullScan => "full_scan",
            RecoveryMode::Checkpoint => "checkpoint",
        }
    }
}

/// A committed mapping checkpoint: the snapshot a crash survives.
///
/// During normal operation the controller serializes this into page
/// programs on the reserved `blocks` (double-buffered across two slots);
/// the in-RAM copy here models the snapshot's *content*, while the flash
/// programs model its cost and its durability window — a checkpoint whose
/// programs had not all completed at the cut is discarded with its torn
/// pages, and the previous committed one stands.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Program stamps `<= watermark` are fully reflected in the snapshot;
    /// recovery re-scans exactly the blocks holding newer stamps.
    pub watermark: u64,
    /// lpn → ppn at snapshot time.
    pub data: Vec<Option<Ppn>>,
    /// tvpn → flash location of each translation page at snapshot time
    /// (empty outside DFTL).
    pub trans: Vec<Option<Ppn>>,
    /// Which reserved slot holds it.
    pub slot: u8,
    /// The reserved blocks the snapshot was programmed into.
    pub blocks: Vec<BlockAddr>,
    /// Journaled trims: logical pages trimmed and still unmapped at
    /// snapshot time, each with the content version (`seq`) of the copy
    /// the trim discarded. Replay rejects any scanned copy of these
    /// pages with `seq <=` the barrier — the trimmed content and its GC
    /// relocations — while post-trim writes (newer seqs) still win.
    pub trims: Vec<(Lpn, u64)>,
}

/// The dead medium a power cut leaves behind: everything that survives
/// into a remount. Cloneable so one captured crash can be remounted under
/// several recovery modes.
#[derive(Clone)]
pub struct CrashImage {
    /// The flash array (page payloads, OOB, wear state, torn pages).
    pub(crate) flash: FlashArray,
    /// The last committed mapping checkpoint, if any.
    pub(crate) checkpoint: Option<CheckpointRecord>,
    /// Logical pages resident in the battery-backed write buffer (the
    /// battery is the point: these acknowledged writes survive the cut).
    pub(crate) buffered: Vec<Lpn>,
    /// What the cut destroyed.
    pub(crate) cut: PowerCutReport,
}

impl CrashImage {
    /// Whether a committed checkpoint survived the cut.
    pub fn has_checkpoint(&self) -> bool {
        self.checkpoint.is_some()
    }
}

/// What a remount did and what it cost, in modeled mount time.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The requested mode.
    pub mode: RecoveryMode,
    /// Whether a committed checkpoint was actually replayed (false for
    /// `Checkpoint` mode falling back to a full scan).
    pub used_checkpoint: bool,
    /// OOB reads performed (block probes included).
    pub oob_scanned: u64,
    /// Blocks probed for their newest stamp (checkpoint replay only).
    pub blocks_probed: u64,
    /// Pages found torn (partially programmed at the cut).
    pub torn_pages: u64,
    /// Blocks whose erase the cut interrupted (re-erased during mount).
    pub interrupted_erases: u64,
    /// OOB reads the scan could not correct (fault model installed and
    /// the spare area's raw errors outgrew the ECC): the page is skipped
    /// and its content reconstructed from another copy when one exists.
    pub oob_uncorrectable: u64,
    /// Blocks erased during mount (interrupted erases, retired checkpoint
    /// blocks, and — under the hybrid scheme — blocks left with no live
    /// pages).
    pub blocks_erased: u64,
    /// Live data mappings recovered.
    pub data_entries: u64,
    /// Translation-page locations recovered (DFTL).
    pub translation_entries: u64,
    /// Modeled mount time: per-LUN parallel OOB scanning plus mount-time
    /// erases (the metric E21 sweeps against checkpoint interval).
    pub mount_time: SimDuration,
}

/// Winner candidate: `(ppn, seq, stamp)`; higher `(seq, stamp)` wins.
type Winner = (Ppn, u64, u64);

fn fold(slot: &mut Option<Winner>, cand: Winner) {
    let better = slot.is_none_or(|(_, s, t)| (cand.1, cand.2) > (s, t));
    if better {
        *slot = Some(cand);
    }
}

/// Everything the scan-and-reconcile pass rebuilds.
pub(crate) struct Recovered {
    pub data_map: Vec<Option<Ppn>>,
    pub trans_map: Vec<Option<Ppn>>,
    pub reverse: Vec<Option<PageContent>>,
    /// Highest stamp observed anywhere; the remounted controller's stamp
    /// counter resumes above it.
    pub max_stamp: u64,
    pub used_checkpoint: bool,
    pub oob_scanned: u64,
    pub oob_uncorrectable: u64,
    pub blocks_probed: u64,
    pub blocks_erased: u64,
    pub mount_time: SimDuration,
}

impl Recovered {
    /// The state of a factory-fresh medium: nothing mapped, nothing
    /// stamped, nothing scanned. Mounting it is what `Controller::new`
    /// does.
    pub(crate) fn fresh(geometry: &Geometry, logical_pages: u64, tvpns: u64) -> Self {
        Recovered {
            data_map: vec![None; logical_pages as usize],
            trans_map: vec![None; tvpns as usize],
            reverse: vec![None; geometry.total_pages() as usize],
            max_stamp: 0,
            used_checkpoint: false,
            oob_scanned: 0,
            oob_uncorrectable: 0,
            blocks_probed: 0,
            blocks_erased: 0,
            mount_time: SimDuration::ZERO,
        }
    }
}

/// Scan the medium, decide winners, and reconcile page validity to match:
/// winners become valid, every other written page becomes invalid, blocks
/// with nothing live left (checkpoint remnants always; all dead blocks
/// when `erase_dead_blocks`) and interrupted-erase blocks are erased.
///
/// `record` enables checkpoint replay; `keep_translation` keeps recovered
/// translation-page locations (remounting under a scheme without
/// translation pages reclaims them as garbage instead).
pub(crate) fn recover_medium(
    flash: &mut FlashArray,
    record: Option<&CheckpointRecord>,
    logical_pages: u64,
    tvpns: u64,
    keep_translation: bool,
    erase_dead_blocks: bool,
    now: SimTime,
) -> Recovered {
    let g = *flash.geometry();
    let luns = g.total_luns() as usize;
    let mut per_lun_reads = vec![0u64; luns];
    let mut per_lun_erases = vec![0u64; luns];
    let mut data: Vec<Option<Winner>> = vec![None; logical_pages as usize];
    let mut trans: Vec<Option<Winner>> = vec![None; tvpns as usize];
    let mut max_stamp = 0u64;
    let mut oob_scanned = 0u64;
    let mut oob_uncorrectable = 0u64;
    let mut blocks_probed = 0u64;
    // Journaled trims: copies of these logical pages with seq at or below
    // the barrier were dead at snapshot time and must not be resurrected
    // when their block gets re-scanned.
    let trim_barriers: BTreeMap<Lpn, u64> = record
        .map(|r| r.trims.iter().copied().collect())
        .unwrap_or_default();
    let trimmed = |lpn: u64, seq: u64| trim_barriers.get(&lpn).is_some_and(|&b| seq <= b);

    // Seed from the checkpoint snapshot. Reading the snapshot itself costs
    // its flash pages (charged here); the per-entry validation below —
    // dropping entries whose page was erased or reprogrammed since the
    // snapshot, e.g. after an unjournaled trim — is RAM-side
    // reconstruction against medium state and is not priced (a real FTL
    // avoids it by journaling trims or validating lazily on first read).
    // A dropped entry is safe to drop: any still-live version of that
    // logical page necessarily carries a post-watermark stamp and is
    // found by the block scan below.
    if let Some(r) = record {
        for block in &r.blocks {
            let written = flash.block_info(*block).write_ptr as u64;
            oob_scanned += written;
            per_lun_reads[g.lun_index(block.channel, block.lun) as usize] += written;
        }
        for (lpn, slot) in r.data.iter().enumerate() {
            let Some(ppn) = *slot else { continue };
            match flash.oob_checked(g.page_at(ppn), now) {
                Err(_) => oob_uncorrectable += 1,
                Ok(Some(e)) => {
                    if e.tag == (OobTag::Data { lpn: lpn as u64 })
                        && flash.page_state(g.page_at(ppn)) != PageState::Free
                        && !trimmed(lpn as u64, e.seq)
                    {
                        fold(&mut data[lpn], (ppn, e.seq, e.stamp));
                    }
                }
                Ok(None) => {}
            }
        }
        for (tvpn, slot) in r.trans.iter().enumerate() {
            let Some(ppn) = *slot else { continue };
            if tvpn as u64 >= tvpns {
                continue;
            }
            match flash.oob_checked(g.page_at(ppn), now) {
                Err(_) => oob_uncorrectable += 1,
                Ok(Some(e)) => {
                    if e.tag == (OobTag::Translation { tvpn: tvpn as u64 })
                        && flash.page_state(g.page_at(ppn)) != PageState::Free
                    {
                        fold(&mut trans[tvpn], (ppn, e.seq, e.stamp));
                    }
                }
                Ok(None) => {}
            }
        }
    }

    // The scan. Stamps are fresh per program, so within one block they
    // grow with page number: the newest readable page's stamp is the
    // block's maximum, and one probe decides whether a checkpointed
    // remount must re-scan the block at all.
    for block in g.blocks() {
        let info = flash.block_info(block);
        if info.write_ptr == 0 {
            continue;
        }
        let lun = g.lun_index(block.channel, block.lun) as usize;
        let scan_all = match record {
            None => true,
            Some(r) => {
                blocks_probed += 1;
                oob_scanned += 1;
                per_lun_reads[lun] += 1;
                let newest = (0..info.write_ptr)
                    .rev()
                    .find_map(|p| match flash.oob_checked(block.page(p), now) {
                        // Unreadable spare area: probe the next-older page.
                        Err(_) => {
                            oob_uncorrectable += 1;
                            None
                        }
                        Ok(o) => o,
                    })
                    .map(|e| e.stamp);
                if let Some(m) = newest {
                    max_stamp = max_stamp.max(m);
                }
                newest.is_some_and(|m| m > r.watermark)
            }
        };
        if !scan_all {
            continue;
        }
        for p in 0..info.write_ptr {
            oob_scanned += 1;
            per_lun_reads[lun] += 1;
            let addr = block.page(p);
            let e = match flash.oob_checked(addr, now) {
                Err(_) => {
                    // ECC gave up on the spare area: skip the page; any
                    // other copy of its content wins the fold instead.
                    oob_uncorrectable += 1;
                    continue;
                }
                Ok(None) => continue, // torn: spare area never completed
                Ok(Some(e)) => e,
            };
            max_stamp = max_stamp.max(e.stamp);
            let ppn = g.page_index(addr);
            match e.tag {
                OobTag::Data { lpn } if lpn < logical_pages && !trimmed(lpn, e.seq) => {
                    fold(&mut data[lpn as usize], (ppn, e.seq, e.stamp));
                }
                OobTag::Translation { tvpn } if tvpn < tvpns => {
                    fold(&mut trans[tvpn as usize], (ppn, e.seq, e.stamp));
                }
                // fillers, checkpoint pages, out-of-range leftovers
                OobTag::Data { .. }
                | OobTag::Translation { .. }
                | OobTag::Filler
                | OobTag::Checkpoint { .. } => {}
            }
        }
    }

    // Reconcile: validity is controller RAM state — the rebuilt view wins.
    let mut reverse: Vec<Option<PageContent>> = vec![None; g.total_pages() as usize];
    let mut data_map: Vec<Option<Ppn>> = vec![None; logical_pages as usize];
    for (lpn, w) in data.iter().enumerate() {
        let Some((ppn, _, _)) = *w else { continue };
        data_map[lpn] = Some(ppn);
        reverse[ppn as usize] = Some(PageContent::Data(lpn as u64));
        flash.recovery_set_valid(g.page_at(ppn));
    }
    let mut trans_map: Vec<Option<Ppn>> = vec![None; tvpns as usize];
    if keep_translation {
        for (tvpn, w) in trans.iter().enumerate() {
            let Some((ppn, _, _)) = *w else { continue };
            trans_map[tvpn] = Some(ppn);
            reverse[ppn as usize] = Some(PageContent::Translation(tvpn as u64));
            flash.recovery_set_valid(g.page_at(ppn));
        }
    }
    for pi in 0..g.total_pages() {
        let addr = g.page_at(pi);
        if flash.page_state(addr) == PageState::Valid && reverse[pi as usize].is_none() {
            flash.invalidate(addr);
        }
    }

    // Mount-time erases: blocks an interrupted erase left undefined, the
    // (now superseded) checkpoint remnants, and — when the scheme has no
    // lazy reclamation for them — blocks with nothing live left.
    let mut blocks_erased = 0u64;
    for block in g.blocks() {
        let info = flash.block_info(block);
        if info.bad {
            continue;
        }
        let lun = g.lun_index(block.channel, block.lun) as usize;
        if flash.block_needs_erase(block) {
            flash.recovery_erase(block);
            per_lun_erases[lun] += 1;
            blocks_erased += 1;
            continue;
        }
        if info.write_ptr == 0 || info.live_pages > 0 {
            continue;
        }
        let holds_checkpoint = (0..info.write_ptr).any(|p| {
            matches!(
                flash.oob(block.page(p)),
                Some(e) if matches!(e.tag, OobTag::Checkpoint { .. })
            )
        });
        if erase_dead_blocks || holds_checkpoint {
            flash.recovery_erase(block);
            per_lun_erases[lun] += 1;
            blocks_erased += 1;
        }
    }

    // Mount time: LUNs scan their own blocks in parallel; the slowest LUN
    // bounds the mount.
    let t = *flash.timing();
    let read_ns = t.read_lun_time().as_nanos();
    let erase_ns = t.erase_lun_time().as_nanos();
    let mount_ns = per_lun_reads
        .iter()
        .zip(&per_lun_erases)
        .map(|(&r, &e)| r * read_ns + e * erase_ns)
        .max()
        .unwrap_or(0);

    Recovered {
        data_map,
        trans_map,
        reverse,
        max_stamp,
        used_checkpoint: record.is_some(),
        oob_scanned,
        oob_uncorrectable,
        blocks_probed,
        blocks_erased,
        mount_time: SimDuration::from_nanos(mount_ns),
    }
}

/// The hybrid scheme's recovered physical layout.
pub(crate) struct HybridLayout {
    /// lbn → data-block base, for blocks whose live pages all sit at their
    /// logical offsets of one logical block.
    pub dir: Vec<Option<Ppn>>,
    /// Every other block still holding live pages, re-registered as a
    /// random log block: `(base, per-offset OOB lpns)`.
    pub logs: Vec<(Ppn, Vec<Lpn>)>,
}

/// Classify recovered blocks into the hybrid scheme's structures. Runs
/// after [`recover_medium`], so a block's valid pages are exactly the scan
/// winners.
pub(crate) fn classify_hybrid(
    flash: &FlashArray,
    reverse: &[Option<PageContent>],
    logical_pages: u64,
) -> HybridLayout {
    let g = *flash.geometry();
    let ppb = g.pages_per_block as u64;
    let lbns = logical_pages.div_ceil(ppb).max(1);
    // lbn → best aligned candidate (most live pages, ties to lowest base).
    let mut candidates: BTreeMap<u64, (Ppn, u32)> = BTreeMap::new();
    let mut aligned: Vec<(Ppn, u64, u32)> = Vec::new(); // (base, lbn, live)
    let mut logs: Vec<(Ppn, Vec<Lpn>)> = Vec::new();
    for block in g.blocks() {
        let info = flash.block_info(block);
        if info.write_ptr == 0 || info.live_pages == 0 {
            continue;
        }
        let base = g.page_index(block.page(0));
        let mut lbn: Option<u64> = None;
        let mut is_aligned = true;
        let mut live = 0u32;
        for o in 0..info.write_ptr as u64 {
            match reverse[(base + o) as usize] {
                Some(PageContent::Data(lpn)) => {
                    live += 1;
                    let ok = lpn % ppb == o && lbn.is_none_or(|l| l == lpn / ppb);
                    if ok {
                        lbn = Some(lpn / ppb);
                    } else {
                        is_aligned = false;
                    }
                }
                Some(_) => is_aligned = false,
                None => {}
            }
        }
        match lbn {
            Some(l) if is_aligned => aligned.push((base, l, live)),
            _ => logs.push((base, log_entries(flash, block, info.write_ptr))),
        }
    }
    aligned.sort_unstable();
    for &(base, lbn, live) in &aligned {
        let better = candidates
            .get(&lbn)
            .is_none_or(|&(_, best)| live > best);
        if better {
            candidates.insert(lbn, (base, live));
        }
    }
    let mut dir: Vec<Option<Ppn>> = vec![None; lbns as usize];
    for (&lbn, &(base, _)) in &candidates {
        dir[lbn as usize] = Some(base);
    }
    // Aligned blocks that lost the data-block election join the log pool.
    for &(base, lbn, _) in &aligned {
        if dir[lbn as usize] != Some(base) {
            let block = g.page_at(base).block_addr();
            let fill = flash.block_info(block).write_ptr;
            logs.push((base, log_entries(flash, block, fill)));
        }
    }
    logs.sort_unstable_by_key(|&(base, _)| base);
    HybridLayout { dir, logs }
}

/// Rebuild a log block's per-offset lpn table from OOB. Torn or filler
/// pages get lpn 0 as a placeholder: a placeholder offset can never test
/// live (lpn 0's live copy, if any, is a winner page carrying a real
/// `Data {{ lpn: 0 }}` OOB tag — never a torn or filler page).
fn log_entries(flash: &FlashArray, block: BlockAddr, fill: u32) -> Vec<Lpn> {
    (0..fill)
        .map(|p| match flash.oob(block.page(p)) {
            Some(e) => match e.tag {
                OobTag::Data { lpn } => lpn,
                OobTag::Translation { .. } | OobTag::Filler | OobTag::Checkpoint { .. } => 0,
            },
            None => 0,
        })
        .collect()
}
