//! Controller counters and the read-only views derived from them.
//!
//! Owns no run-time state of its own: [`CtrlStats`] lives on the
//! [`Controller`] and every subsystem bumps its fields; this module
//! defines the counter structs and the derived reports (reliability,
//! merge counters, write amplification).

use std::fmt;

use eagletree_core::OnlineStats;

use super::Controller;
use crate::sched::{class_index, ClassTable};
use crate::types::{IoSource, OpClass};

/// Merge observability: scheme-level merge kinds (from the hybrid FTL)
/// plus flash-level merge traffic (from the controller).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounters {
    pub switch_merges: u64,
    pub partial_merges: u64,
    pub full_merges: u64,
    pub refresh_merges: u64,
    pub moves: u64,
    pub stale: u64,
    pub fillers: u64,
    pub erases: u64,
}

/// Controller counters.
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    /// Flash operations issued, per class.
    pub issued: ClassTable,
    /// Per-class queue waiting time (µs).
    pub wait_us: Vec<OnlineStats>,
    pub app_reads_completed: u64,
    pub app_writes_completed: u64,
    pub trims_completed: u64,
    /// GC page migrations finished.
    pub gc_moves: u64,
    /// Copies dropped because their page was superseded mid-flight: GC
    /// migrations, and host or translation programs that landed behind a
    /// newer copy (a higher `seq`).
    pub gc_stale: u64,
    /// Victim pages already invalid at move time (free reclamation).
    pub gc_skipped: u64,
    pub gc_erases: u64,
    pub wl_erases: u64,
    pub wl_moves: u64,
    pub mapping_fetches: u64,
    pub mapping_writebacks: u64,
    /// Hybrid-FTL merge copies committed (page landed and was still live).
    pub merge_moves: u64,
    /// Merge copies superseded mid-flight (programmed then invalidated).
    pub merge_stale: u64,
    /// Filler programs keeping merge destinations in NAND page order
    /// across unmapped holes.
    pub merge_fillers: u64,
    /// Erases of merge-retired blocks (log victims and old data blocks).
    pub merge_erases: u64,
    /// Blocks retired after exhausting erase endurance.
    pub bad_blocks_retired: u64,
    /// Mapping checkpoints committed (crash-recovery anchors).
    pub checkpoints_committed: u64,
    /// Snapshot pages programmed into the reserved checkpoint slots.
    pub checkpoint_pages: u64,
    /// Program-status failures remapped to a fresh allocation (the failed
    /// program's block is retired as grown bad).
    pub program_remaps: u64,
    /// Transient erase failures retried in place.
    pub erase_retries: u64,
    /// Scrub refresh jobs started (block evacuations driven by the
    /// read-disturb / retention thresholds).
    pub scrub_refreshes: u64,
    /// Erases completing scrub refreshes.
    pub scrub_erases: u64,
}

/// Media-reliability observables, assembled from the fault model's
/// counters and the controller's fault-handling paths. Only meaningful —
/// and only reported — when a fault model is configured
/// (`ControllerConfig::fault`); without one every field would be zero and
/// the harness omits the columns entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityStats {
    /// Reads sampled through the ECC path.
    pub reads_sampled: u64,
    /// Raw bit errors corrected across all reads.
    pub corrected_bits: u64,
    /// Read-retry tiers consumed (each cost a full extra array read).
    pub read_retries: u64,
    /// Reads left uncorrectable after the final retry tier.
    pub uncorrectable_reads: u64,
    /// Program-status failures reported by the medium.
    pub program_fails: u64,
    /// Erase failures reported by the medium (transient and terminal).
    pub erase_fails: u64,
    /// Blocks retired as grown bad (program-fail marks and erase-failure
    /// streaks; endurance wear-out is counted in `bad_blocks_retired`).
    pub grown_bad_blocks: u64,
    /// Failed programs the controller remapped to a fresh allocation.
    pub program_remaps: u64,
    /// Transient erase failures the controller retried.
    pub erase_retries: u64,
    /// ScrubRead operations issued through the scheduler.
    pub scrub_reads: u64,
    /// ScrubWrite operations issued through the scheduler.
    pub scrub_writes: u64,
    /// Scrub refresh jobs started.
    pub scrub_refreshes: u64,
    /// Distinct logical pages whose content hit uncorrectable bit errors
    /// (the lost-data ledger).
    pub lost_lpns: u64,
    /// Uncorrectable bit error rate: uncorrectable reads over total bits
    /// read through the ECC path.
    pub uber: f64,
}

/// Work the device holds and can never issue: see [`Controller::liveness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stuck {
    /// Queued, unissued flash ops per class, in [`OpClass::ALL`] order;
    /// classes with none are left out.
    pub pending: Vec<(OpClass, u64)>,
    /// Wholly-free blocks per LUN, in linear LUN order.
    pub free_blocks: Vec<usize>,
    /// Live reclaim jobs: `(lun, source, page moves outstanding)`, by LUN.
    pub jobs: Vec<(u32, IoSource, u32)>,
}

impl Stuck {
    /// Total ops that can never issue.
    pub fn pending_ops(&self) -> u64 {
        self.pending.iter().map(|&(_, n)| n).sum()
    }
}

impl fmt::Display for Stuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let classes: Vec<String> =
            self.pending.iter().map(|(c, n)| format!("{n} {}", c.name())).collect();
        write!(
            f,
            "device stuck, agenda empty: {} pending ops can never issue ({}); \
             free blocks per LUN {:?}; reclaim jobs (lun, source, moves left) {:?}",
            self.pending_ops(),
            classes.join(", "),
            self.free_blocks,
            self.jobs
        )
    }
}

impl CtrlStats {
    pub(super) fn new() -> Self {
        CtrlStats {
            wait_us: vec![OnlineStats::new(); OpClass::ALL.len()],
            ..Default::default()
        }
    }
}

impl Controller {
    /// Media-reliability counters, or `None` when no fault model is
    /// installed (the default — reliability reporting is strictly opt-in,
    /// so fault-free runs stay byte-identical to builds without it).
    pub fn reliability(&self) -> Option<ReliabilityStats> {
        let fm = self.array.fault()?;
        let c = fm.counters();
        let bits_read = c.reads * self.array.geometry().page_size as u64 * 8;
        Some(ReliabilityStats {
            reads_sampled: c.reads,
            corrected_bits: c.corrected_bits,
            read_retries: c.read_retries,
            uncorrectable_reads: c.uncorrectable_reads,
            program_fails: c.program_fails,
            erase_fails: c.erase_fails,
            grown_bad_blocks: c.grown_bad_blocks,
            program_remaps: self.stats.program_remaps,
            erase_retries: self.stats.erase_retries,
            scrub_reads: self.stats.issued[class_index(OpClass::ScrubRead)],
            scrub_writes: self.stats.issued[class_index(OpClass::ScrubWrite)],
            scrub_refreshes: self.stats.scrub_refreshes,
            lost_lpns: self.lost_lpns.len() as u64,
            uber: if bits_read == 0 {
                0.0
            } else {
                c.uncorrectable_reads as f64 / bits_read as f64
            },
        })
    }

    /// The one definition of a device that stopped with work left: `Err`
    /// exactly when the agenda is empty and the device is not
    /// [quiescent](Controller::is_quiescent). No completion or wake-up will
    /// ever run the scheduler again, so without a new submission what it
    /// holds — pending ops, and the host requests and reclaim jobs waiting
    /// on them — never finishes. The `Err` names what is left; it is what
    /// [`Driver::run`](crate::Driver::run) and `Os::run` return.
    pub fn liveness(&self) -> Result<(), Stuck> {
        if !self.disp.events.is_empty() || self.is_quiescent() {
            return Ok(());
        }
        let count = |c| self.disp.pending.iter().filter(|op| op.class == c).count() as u64;
        let luns = self.array.geometry().total_luns();
        let mut jobs: Vec<_> =
            self.reclaim.jobs.iter().map(|j| (j.lun, j.source, j.moves_left)).collect();
        jobs.sort_by_key(|j| j.0);
        Err(Stuck {
            pending: OpClass::ALL.into_iter().map(|c| (c, count(c))).filter(|p| p.1 > 0).collect(),
            free_blocks: (0..luns).map(|l| self.alloc.free_blocks(l)).collect(),
            jobs,
        })
    }

    /// Combined merge counters: scheme-level merge kinds plus the
    /// controller's flash-level merge traffic. All zero outside the hybrid
    /// mapping.
    pub fn merge_counters(&self) -> MergeCounters {
        let h = self.hybrid_stats().unwrap_or_default();
        MergeCounters {
            switch_merges: h.switch_merges,
            partial_merges: h.partial_merges,
            full_merges: h.full_merges,
            refresh_merges: h.refresh_merges,
            moves: self.stats.merge_moves,
            stale: self.stats.merge_stale,
            fillers: self.stats.merge_fillers,
            erases: self.stats.merge_erases,
        }
    }

    /// Write amplification: flash programs (including copy-backs and
    /// translation traffic) per completed application write.
    pub fn write_amplification(&self) -> f64 {
        let c = self.array.counters();
        if self.stats.app_writes_completed == 0 {
            return 0.0;
        }
        (c.programs + c.copybacks) as f64 / self.stats.app_writes_completed as f64
    }
}
