//! # eagletree-controller
//!
//! The SSD-controller layer of EagleTree: everything behind the device
//! interface. "The SSD controller is responsible for orchestrating mapping,
//! garbage-collection, wear leveling modules and scheduling" (§2.2).
//!
//! * [`ftl`] — mapping schemes: full in-RAM [`ftl::PageMap`], demand-cached
//!   [`ftl::Dftl`] with translation-page flash traffic, and the FAST-style
//!   [`ftl::Hybrid`] log-block scheme with switch/partial/full merges.
//! * [`alloc`] — write allocation: per-LUN free-block lists, per-stream
//!   active blocks (hot/cold, GC, translation, update-locality groups).
//! * [`gc`] — garbage collection: greediness trigger, greedy / random /
//!   cost-benefit victim selection, migration via copy-back or
//!   read+program; merge-job bookkeeping for the hybrid FTL.
//! * [`wear`] — static wear leveling (young-idle-block detection); dynamic
//!   wear leveling lives in the allocator's age-aware block selection.
//! * [`temperature`] — multi-bloom-filter hot-data identification.
//! * [`sched`] — the pluggable IO scheduling policies.
//! * [`recovery`] — crash consistency: OOB-stamped programs, periodic
//!   mapping checkpoints to reserved blocks, and mount-time recovery
//!   (full OOB scan or checkpoint replay) after a power cut.
//! * [`scrub`] — background media scrubbing: threshold-driven refresh of
//!   read-disturbed / retention-aged blocks before their raw bit errors
//!   outgrow the ECC (pairs with `eagletree_flash::fault`).
//! * [`Controller`] — the orchestrator tying it all to the flash array.
//! * [`Driver`] / [`Ledger`] — the minimal host of a bare controller (ids,
//!   clock, agenda stepping) and the acknowledged-write reference model.

pub mod alloc;
mod bits;
pub mod buffer;
pub mod config;
pub mod controller;
mod driver;
pub mod ftl;
pub mod gc;
mod pend;
pub mod recovery;
pub mod sched;
pub mod scrub;
pub mod temperature;
pub mod types;
pub mod wear;

pub use alloc::{Allocator, Stream};
pub use buffer::WriteBuffer;
pub use config::{
    ControllerConfig, GcConfig, MappingKind, MergePolicy, ScrubConfig, TemperatureMode,
    VictimPolicy, WlConfig, WriteAllocPolicy,
};
pub use controller::{
    Controller, CtrlStats, MergeCounters, PageContent, ReliabilityStats, Stuck,
};
pub use driver::{Driver, Ledger};
pub use ftl::HybridStats;
pub use recovery::{CheckpointRecord, CrashImage, RecoveryMode, RecoveryReport};
pub use sched::{class_index, class_table, ClassTable, SchedPolicy};
pub use temperature::MultiBloomDetector;
pub use types::{
    Completion, IoSource, IoTags, Lpn, OpClass, Ppn, RequestId, RequestKind, SsdRequest,
    Temperature,
};
pub use wear::{wear_summary, WearSummary};
