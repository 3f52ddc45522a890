//! Controller configuration: every §2.2 policy knob in one place.

use crate::sched::SchedPolicy;
use crate::types::OpClass;
use eagletree_core::{ObsConfig, QueueKind};
use eagletree_flash::{FaultConfig, Geometry};

/// Which mapping scheme the FTL uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Full page-level map held in controller RAM.
    PageMap,
    /// DFTL: demand-cached page map with flash-resident translation pages.
    /// `cmt_entries` bounds the cached mapping table.
    Dftl { cmt_entries: usize },
    /// FAST-style hybrid log-block mapping: block-mapped data blocks plus
    /// `log_blocks` page-mapped random log blocks (and one dedicated
    /// sequential log block). Log exhaustion triggers switch / partial /
    /// full merges whose traffic flows through the controller scheduler.
    Hybrid {
        /// Random (RW) log-block budget; the sequential log block is extra.
        log_blocks: usize,
    },
}

/// GC victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Fewest valid pages (min-effort).
    Greedy,
    /// Uniformly random among non-free, non-active blocks.
    Random,
    /// Classic cost-benefit: maximize `age · (1-u) / 2u`.
    CostBenefit,
}

/// Garbage-collection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// "GC Greediness": keep at least this many blocks free on each LUN
    /// (§2.2). Higher = earlier GC = smoother latency but more migration.
    pub greediness: u32,
    /// Victim selection policy.
    pub victim: VictimPolicy,
    /// Use copy-back for intra-plane migration when the chip supports it.
    pub use_copyback: bool,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            greediness: 2,
            victim: VictimPolicy::Greedy,
            use_copyback: true,
        }
    }
}

/// Wear-leveling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WlConfig {
    /// Enable static wear leveling (migrate cold data off young blocks).
    pub static_enabled: bool,
    /// Evaluate static WL every this many erases.
    pub check_every_erases: u32,
    /// A block is "young" if its erase count trails the maximum by at
    /// least this much.
    pub young_delta: u32,
    /// … and it has not been erased for `idle_factor ×` the fleet-average
    /// inter-erase gap.
    pub idle_factor: f64,
    /// Enable dynamic wear leveling: allocate young blocks to hot data and
    /// old blocks to cold data.
    pub dynamic_enabled: bool,
}

impl Default for WlConfig {
    fn default() -> Self {
        WlConfig {
            static_enabled: true,
            check_every_erases: 64,
            young_delta: 8,
            idle_factor: 4.0,
            dynamic_enabled: false,
        }
    }
}

/// Where unbound application writes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAllocPolicy {
    /// Rotate across LUNs per write.
    RoundRobin,
    /// Pick the free LUN with the most free pages.
    LeastUtilized,
    /// Bind LUN statically by `lpn % luns` (RAID-0-like striping).
    Striping,
}

/// Temperature-detection source for dynamic WL and hot/cold separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemperatureMode {
    /// No detection; everything is one stream.
    Off,
    /// On-device multi-bloom-filter detector (Park & Du, MSST'11).
    Detector,
    /// Trust open-interface temperature tags; fall back to the detector
    /// for untagged writes.
    Hints,
}

/// Background-scrub configuration: when and how aggressively the
/// controller refreshes blocks whose accumulated read disturb or
/// retention age puts their pages at risk of outgrowing ECC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubConfig {
    /// Evaluate scrub candidates every this many completed flash ops.
    /// Lower = more aggressive (more scan points, more refresh traffic).
    pub check_every_ops: u64,
    /// Refresh a block once reads-since-erase reach this count.
    pub read_disturb_threshold: u32,
    /// Refresh a block once its oldest data has sat this many sim-seconds.
    pub retention_threshold_s: f64,
    /// At most this many scrub refreshes may be in flight at once (each
    /// is a whole-block relocation competing with app IO).
    pub max_inflight: usize,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            check_every_ops: 256,
            read_disturb_threshold: 10_000,
            retention_threshold_s: 600.0,
            max_inflight: 1,
        }
    }
}

/// Complete controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Mapping scheme.
    pub mapping: MappingKind,
    /// Fraction of physical pages exported as logical space (the rest is
    /// over-provisioning headroom for GC).
    pub logical_capacity: f64,
    /// GC knobs.
    pub gc: GcConfig,
    /// Wear-leveling knobs.
    pub wl: WlConfig,
    /// Controller IO scheduling policy.
    pub sched: SchedPolicy,
    /// Write-allocation policy for unbound application writes.
    pub write_alloc: WriteAllocPolicy,
    /// Temperature detection mode.
    pub temperature: TemperatureMode,
    /// Honor update-locality tags with per-group active blocks.
    pub honor_locality: bool,
    /// Allow channel interleaving across LUNs. When `false` the controller
    /// serializes each channel (at most one LUN in flight per channel),
    /// modelling a naive non-interleaving controller.
    pub interleaving: bool,
    /// Exploit cached (pipelined) programming when the chip supports it:
    /// stream the next page's data into a LUN that is still programming
    /// the previous page of the same block.
    pub use_cached_program: bool,
    /// Battery-backed write buffer size in pages (0 disables buffering).
    /// Buffered writes complete on arrival; overwrites are absorbed in
    /// RAM; dirty pages flush to flash in the background.
    pub write_buffer_pages: u64,
    /// Controller DRAM budget in bytes (mapping tables must fit).
    pub ram_bytes: u64,
    /// Battery-backed RAM budget in bytes (write buffer).
    pub battery_ram_bytes: u64,
    /// Write a mapping checkpoint to reserved blocks every this many page
    /// programs (0 disables checkpointing). A committed checkpoint lets
    /// mount-time recovery replay only the OOB entries written after it,
    /// instead of scanning the whole device; the trade-off is periodic
    /// checkpoint write traffic and two reserved block groups. Crash-safe:
    /// a checkpoint interrupted by a power cut is discarded and the
    /// previous committed one (or a full scan) is used instead.
    pub checkpoint_interval_programs: u64,
    /// RNG seed for randomized policies (victim selection).
    pub seed: u64,
    // named by `benchmark/src/trace.rs`; delete with ROADMAP 1(b)
    #[doc(hidden)]
    pub queue: QueueKind,
    /// Media-fault model installed into the flash array. `None` (the
    /// default) simulates perfect media — byte-identical to pre-fault
    /// builds. `Some` enables program/erase failures, ECC read-retry and
    /// uncorrectable errors, all seeded deterministically.
    pub fault: Option<FaultConfig>,
    /// Background scrubbing. Only meaningful with a fault model (the
    /// disturb/retention state it reads lives there); `None` disables.
    pub scrub: Option<ScrubConfig>,
    /// Observability: lifecycle spans, stage-attributed latency and
    /// time-sliced telemetry (see `eagletree_core::obs`). The default
    /// disables everything; enabling it only *records* — control flow,
    /// RNG draws and event ordering are untouched, so results stay
    /// byte-identical with observability on or off.
    pub obs: ObsConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            mapping: MappingKind::PageMap,
            logical_capacity: 0.85,
            gc: GcConfig::default(),
            wl: WlConfig::default(),
            sched: SchedPolicy::Fifo,
            write_alloc: WriteAllocPolicy::RoundRobin,
            temperature: TemperatureMode::Off,
            honor_locality: false,
            interleaving: true,
            use_cached_program: true,
            write_buffer_pages: 0,
            checkpoint_interval_programs: 0,
            ram_bytes: 64 << 20,
            battery_ram_bytes: 1 << 20,
            seed: 0xEA61E,
            queue: QueueKind,
            fault: None,
            scrub: None,
            obs: ObsConfig::default(),
        }
    }
}

impl ControllerConfig {
    /// Validate invariants that would otherwise wedge a simulation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.logical_capacity && self.logical_capacity < 1.0) {
            return Err(format!(
                "logical_capacity must be in (0,1), got {}",
                self.logical_capacity
            ));
        }
        if self.gc.greediness == 0 {
            return Err("gc.greediness must be at least 1".into());
        }
        match self.mapping {
            MappingKind::Dftl { cmt_entries: 0 } => {
                return Err("DFTL cmt_entries must be non-zero".into());
            }
            MappingKind::Hybrid { log_blocks: 0 } => {
                return Err("hybrid log_blocks must be non-zero".into());
            }
            MappingKind::PageMap | MappingKind::Dftl { .. } | MappingKind::Hybrid { .. } => {}
        }
        if self.wl.static_enabled {
            if self.wl.check_every_erases == 0 {
                return Err("wl.check_every_erases must be non-zero".into());
            }
            // NaN or negative makes the idle floor 0 ns: every young block
            // counts as idle and static WL migrates without pause.
            if self.wl.idle_factor.is_nan() || self.wl.idle_factor < 0.0 {
                return Err(format!(
                    "wl.idle_factor must be a number >= 0, got {}",
                    self.wl.idle_factor
                ));
            }
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        if let Some(scrub) = &self.scrub {
            if self.fault.is_none() {
                return Err("scrub requires a fault model (disturb/retention state)".into());
            }
            if scrub.check_every_ops == 0 {
                return Err("scrub.check_every_ops must be non-zero".into());
            }
            if scrub.max_inflight == 0 {
                return Err("scrub.max_inflight must be non-zero".into());
            }
            // NaN is never due; zero or less makes every programmed block
            // always due.
            if scrub.retention_threshold_s.is_nan() || scrub.retention_threshold_s <= 0.0 {
                return Err(format!(
                    "scrub.retention_threshold_s must be a number > 0, got {}",
                    scrub.retention_threshold_s
                ));
            }
        }
        Ok(())
    }

    /// Logical pages a device of `geometry` exports under this config: the
    /// `logical_capacity` share of its physical pages, rounded down. The
    /// one definition every layer sizes namespaces and workloads from.
    #[expect(
        clippy::cast_sign_loss,
        reason = "a page count, not a time; validate() keeps logical_capacity in (0, 1)"
    )]
    pub fn logical_pages(&self, geometry: &Geometry) -> u64 {
        ((geometry.total_pages() as f64) * self.logical_capacity).floor() as u64
    }

    /// Deadline class table used by the EDF scheduler when enabled.
    pub fn default_deadlines_us() -> [(OpClass, u64); OpClass::COUNT] {
        [
            (OpClass::AppRead, 500),
            (OpClass::AppWrite, 2_000),
            (OpClass::MappingRead, 400),
            (OpClass::MappingWrite, 3_000),
            (OpClass::GcRead, 5_000),
            (OpClass::GcWrite, 5_000),
            (OpClass::MergeRead, 5_000),
            (OpClass::MergeWrite, 5_000),
            (OpClass::WlRead, 20_000),
            (OpClass::WlWrite, 20_000),
            (OpClass::Erase, 10_000),
            (OpClass::ScrubRead, 50_000),
            (OpClass::ScrubWrite, 50_000),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ControllerConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = ControllerConfig {
            logical_capacity: 1.0,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = ControllerConfig::default();
        c.gc.greediness = 0;
        assert!(c.validate().is_err());

        let c = ControllerConfig {
            mapping: MappingKind::Dftl { cmt_entries: 0 },
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ControllerConfig {
            mapping: MappingKind::Hybrid { log_blocks: 0 },
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = ControllerConfig::default();
        c.wl.check_every_erases = 0;
        assert!(c.validate().is_err());

        // A NaN or negative idle factor would cast to an idle floor of 0.
        for bad in [f64::NAN, -0.5] {
            let mut c = ControllerConfig::default();
            c.wl.idle_factor = bad;
            assert!(c.validate().is_err(), "idle_factor {bad}");
            c.wl.static_enabled = false; // unread: not this check's business
            assert!(c.validate().is_ok(), "idle_factor {bad}, static WL off");
        }

        // Scrubbing without a fault model has no disturb state to read.
        let c = ControllerConfig {
            scrub: Some(ScrubConfig::default()),
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ControllerConfig {
            fault: Some(FaultConfig::default()),
            scrub: Some(ScrubConfig::default()),
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_ok());
        // NaN retention is never due; zero or less is always due.
        for bad in [f64::NAN, 0.0, -1.0] {
            let c = ControllerConfig {
                fault: Some(FaultConfig::default()),
                scrub: Some(ScrubConfig {
                    retention_threshold_s: bad,
                    ..ScrubConfig::default()
                }),
                ..ControllerConfig::default()
            };
            assert!(c.validate().is_err(), "retention_threshold_s {bad}");
        }
        let c = ControllerConfig {
            fault: Some(FaultConfig {
                retry_error_scale: 2.0,
                ..FaultConfig::default()
            }),
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn deadline_table_covers_all_classes() {
        let table = ControllerConfig::default_deadlines_us();
        for class in OpClass::ALL {
            assert!(table.iter().any(|(c, _)| *c == class));
        }
    }
}
