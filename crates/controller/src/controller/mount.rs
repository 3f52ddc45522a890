//! Mounting: the one assembly path behind `new`, `remount` and
//! `power_cut`.
//!
//! Owns no run-time state. A factory-fresh device is the degenerate mount
//! — an empty recovered map over an erased medium — so
//! [`Controller::new`] and [`Controller::remount`] differ only in where
//! the medium and the [`Recovered`] maps come from; [`Controller::assemble`]
//! builds every sub-state from them and holds the crate's only
//! `Controller { .. }` literal.

use std::collections::BTreeMap;

use eagletree_core::{Obs, SimTime};
use eagletree_flash::{FlashArray, Geometry, MemoryKind, MemoryManager, TimingSpec};

use super::checkpoint::CkptState;
use super::dispatch::Dispatch;
use super::host::HostIo;
use super::mapio::MapIo;
use super::merge::Merges;
use super::reclaim::{gc_floor, Reclaim};
use super::stamps::Stamps;
use super::stats::CtrlStats;
use super::Controller;
use crate::alloc::Allocator;
use crate::config::{ControllerConfig, MappingKind};
use crate::ftl::{Dftl, FtlKind, Hybrid, PageMap};
use crate::recovery::{self, CrashImage, Recovered, RecoveryMode, RecoveryReport};
use crate::types::Lpn;

/// What a crashed device carries into its next mount besides the medium
/// (all empty for a factory-fresh one).
#[derive(Default)]
struct Resumed {
    /// Journaled trim barriers that still guard an unmapped page.
    trims: BTreeMap<Lpn, u64>,
    /// Acknowledged-but-unflushed writes the battery held.
    buffered: Vec<Lpn>,
    /// Stamp the first checkpoint interval counts from: a fresh interval
    /// starts at a remount, so the first new checkpoint comes after
    /// `interval` further programs.
    ckpt_epoch: u64,
}

/// Translation pages the mapping spans (the DFTL directory size).
fn tvpn_span(geometry: &Geometry, logical_pages: u64) -> (u64, u64) {
    let entries_per_tp = (geometry.page_size as u64 / 8).max(1);
    (entries_per_tp, logical_pages.div_ceil(entries_per_tp).max(1))
}

impl Controller {
    /// Build a controller over a fresh flash array.
    pub fn new(
        geometry: Geometry,
        timing: TimingSpec,
        cfg: ControllerConfig,
    ) -> Result<Self, String> {
        geometry.validate()?;
        timing.validate()?;
        let mut array = FlashArray::new(geometry, timing);
        let logical_pages = Self::prepare(&mut array, &cfg)?;
        let (_, tvpns) = tvpn_span(&geometry, logical_pages);
        let rec = Recovered::fresh(&geometry, logical_pages, tvpns);
        Self::assemble(array, cfg, logical_pages, rec, Resumed::default())
    }

    /// Checks and medium preparation every mount starts with: validate the
    /// config, make sure a configured fault model is installed, and size
    /// the exported logical space.
    fn prepare(flash: &mut FlashArray, cfg: &ControllerConfig) -> Result<u64, String> {
        cfg.validate()?;
        // A crashed medium carries its fault model (and its accumulated
        // disturb/retention/grown-bad state) across the remount; a config
        // that newly enables faults installs a fresh model instead.
        if let Some(fc) = cfg.fault {
            if flash.fault().is_none() {
                flash.install_fault_model(fc);
            }
        }
        let logical_pages = cfg.logical_pages(flash.geometry());
        if logical_pages == 0 {
            return Err("logical capacity rounds to zero pages".into());
        }
        Ok(logical_pages)
    }

    /// Assemble a controller on `array` around the mapping state `rec`
    /// (empty for a factory-fresh device).
    fn assemble(
        array: FlashArray,
        cfg: ControllerConfig,
        logical_pages: u64,
        rec: Recovered,
        resumed: Resumed,
    ) -> Result<Self, String> {
        let geometry = *array.geometry();
        let (entries_per_tp, tvpns) = tvpn_span(&geometry, logical_pages);
        let ftl = match cfg.mapping {
            MappingKind::PageMap => FtlKind::PageMap(PageMap::restore(rec.data_map)),
            MappingKind::Dftl { cmt_entries } => FtlKind::Dftl(Box::new(Dftl::restore(
                logical_pages,
                cmt_entries,
                entries_per_tp,
                rec.data_map,
                rec.trans_map,
            ))),
            MappingKind::Hybrid { log_blocks, merge } => {
                let lbns = logical_pages.div_ceil(geometry.pages_per_block as u64);
                let spare = geometry.total_blocks() as i64 - lbns as i64;
                // SW log block + one merge destination + slack for
                // erase-pending blocks.
                let need = log_blocks as i64 + 3;
                if spare < need {
                    return Err(format!(
                        "hybrid log budget {log_blocks} does not fit: {spare} spare \
                         blocks ({} total − {lbns} data), need ≥ {need}",
                        geometry.total_blocks()
                    ));
                }
                let layout = recovery::classify_hybrid(&array, &rec.reverse, logical_pages);
                FtlKind::Hybrid(Box::new(Hybrid::restore(
                    logical_pages,
                    geometry.pages_per_block,
                    log_blocks,
                    merge,
                    rec.data_map,
                    layout.dir,
                    layout.logs,
                )))
            }
        };
        let mut mem = MemoryManager::new(cfg.ram_bytes, cfg.battery_ram_bytes);
        mem.reserve(MemoryKind::Ram, "mapping", ftl.ram_bytes())?;
        // The battery held: re-install every buffered (acknowledged but
        // unflushed) write.
        let host = HostIo::new(&cfg, &geometry, logical_pages, &mut mem, resumed.buffered)?;
        // Free pool: exactly the blocks the medium reports erased, with
        // their surviving wear counts.
        let mut alloc = Allocator::empty(geometry, cfg.write_alloc, cfg.wl.dynamic_enabled)
            .with_gc_floor(gc_floor(&cfg.gc));
        for block in geometry.blocks() {
            let info = array.block_info(block);
            if info.write_ptr == 0 && !info.bad && !array.block_needs_erase(block) {
                alloc.block_freed(block, info.erase_count);
            }
        }
        let stamps = Stamps::resume(rec.max_stamp);
        // Only DFTL persists translation pages worth snapshotting.
        let ckpt_entries = match cfg.mapping {
            MappingKind::Dftl { .. } => logical_pages + tvpns,
            MappingKind::PageMap | MappingKind::Hybrid { .. } => logical_pages,
        };
        let ckpt = CkptState::reserve(
            &cfg,
            &geometry,
            ckpt_entries,
            &mut mem,
            &mut alloc,
            resumed.ckpt_epoch,
            resumed.trims,
        )?;
        let obs = cfg
            .obs
            .spans_enabled()
            .then(|| Box::new(Obs::new(cfg.obs.span_capacity)));
        let mut c = Controller {
            disp: Dispatch::new(&geometry),
            reclaim: Reclaim::new(&geometry, cfg.seed),
            merge: Merges::default(),
            mapio: MapIo::new(tvpns),
            reverse: rec.reverse,
            stats: CtrlStats::new(),
            lost_lpns: Default::default(),
            array,
            ftl,
            alloc,
            cfg,
            mem,
            logical_pages,
            obs,
            host,
            ckpt,
            stamps,
        };
        // Kick background flushes for a re-installed buffer already at
        // capacity; they issue once the simulation starts advancing.
        c.maybe_flush(SimTime::ZERO);
        Ok(c)
    }

    /// Pull the plug at virtual instant `at`. Everything volatile dies with
    /// the controller — pending operations, the event agenda, the RAM
    /// mapping state, unacknowledged requests — and the flash array loses
    /// exactly the operations still in flight (partially-programmed pages
    /// become torn, interrupted erases leave their block unusable; see
    /// [`FlashArray::power_cut`]). What survives is the returned
    /// [`CrashImage`]: the dead medium, the last *committed* mapping
    /// checkpoint, and the battery-backed write buffer's contents.
    ///
    /// Pass the image to [`Controller::remount`] to rebuild a controller.
    pub fn power_cut(mut self, at: SimTime) -> CrashImage {
        let cut = self.array.power_cut(at);
        CrashImage {
            buffered: self
                .host
                .buffer
                .as_ref()
                .map(|b| b.resident_lpns())
                .unwrap_or_default(),
            checkpoint: self.ckpt.and_then(|c| c.committed),
            flash: self.array,
            cut,
        }
    }

    /// Mount a controller on a crashed medium, rebuilding the mapping per
    /// `mode` (full OOB scan, or checkpoint replay when the image holds a
    /// committed checkpoint). See [`crate::recovery`] for the algorithm
    /// and guarantees. The returned [`RecoveryReport`] carries the modeled
    /// mount time and scan counts.
    ///
    /// `cfg` need not match the pre-crash configuration: OOB records are
    /// scheme-independent, so a device written under one mapping scheme
    /// can remount under another (the new scheme's structures are rebuilt
    /// around the recovered map).
    pub fn remount(
        image: CrashImage,
        cfg: ControllerConfig,
        mode: RecoveryMode,
    ) -> Result<(Self, RecoveryReport), String> {
        let CrashImage {
            mut flash,
            checkpoint,
            buffered,
            cut,
        } = image;
        let logical_pages = Self::prepare(&mut flash, &cfg)?;
        let (_, tvpns) = tvpn_span(flash.geometry(), logical_pages);
        let keep_translation = matches!(cfg.mapping, MappingKind::Dftl { .. });
        let is_hybrid = matches!(cfg.mapping, MappingKind::Hybrid { .. });
        let record = match mode {
            RecoveryMode::Checkpoint => checkpoint.as_ref(),
            RecoveryMode::FullScan => None,
        };
        let rec = recovery::recover_medium(
            &mut flash,
            record,
            logical_pages,
            tvpns,
            keep_translation,
            is_hybrid,
            cut.at,
        );
        // Carry forward the journaled trim barriers that still guard an
        // unmapped page: until the stale copies are erased, the next
        // checkpoint written on this mount must keep filtering them.
        let trims: BTreeMap<Lpn, u64> = if rec.used_checkpoint {
            record
                .map(|r| {
                    r.trims
                        .iter()
                        .copied()
                        .filter(|&(lpn, _)| {
                            lpn < logical_pages && rec.data_map[lpn as usize].is_none()
                        })
                        .collect()
                })
                .unwrap_or_default()
        } else {
            BTreeMap::new()
        };
        let report = RecoveryReport {
            mode,
            used_checkpoint: rec.used_checkpoint,
            oob_scanned: rec.oob_scanned,
            oob_uncorrectable: rec.oob_uncorrectable,
            blocks_probed: rec.blocks_probed,
            torn_pages: cut.torn_pages,
            interrupted_erases: cut.interrupted_erases,
            blocks_erased: rec.blocks_erased,
            data_entries: rec.data_map.iter().filter(|e| e.is_some()).count() as u64,
            translation_entries: rec.trans_map.iter().filter(|e| e.is_some()).count() as u64,
            mount_time: rec.mount_time,
        };
        let resumed = Resumed {
            trims,
            buffered,
            ckpt_epoch: rec.max_stamp + 1,
        };
        let c = Self::assemble(flash, cfg, logical_pages, rec, resumed)?;
        Ok((c, report))
    }
}
