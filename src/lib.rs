//! # EagleTree
//!
//! A discrete-event SSD simulation framework for exploring the design
//! space of SSD-based algorithms — a from-scratch Rust reproduction of
//! *"EagleTree: Exploring the Design Space of SSD-Based Algorithms"*
//! (Dayan, Svendsen, Bjørling, Bonnet, Bouganim — PVLDB 6(12), 2013).
//!
//! EagleTree simulates the **whole IO stack in virtual time**, four layers
//! bottom-up:
//!
//! 1. **Hardware** ([`flash`]) — a flash array of channels × LUNs with
//!    ONFI-style command timing (read / program / erase / copy-back),
//!    SLC/MLC presets, page-state tracking and a controller memory manager.
//! 2. **SSD controller** ([`controller`]) — page-mapped FTLs (full RAM map
//!    and DFTL), garbage collection with a greediness trigger and pluggable
//!    victim selection, static + dynamic wear leveling with multi-bloom-
//!    filter hot-data detection, and a pluggable IO scheduler that
//!    arbitrates application, GC, WL and mapping traffic.
//! 3. **Operating system** ([`os`]) — per-thread IO queues, dispatch
//!    policies (FIFO / round-robin / priorities), a bounded device queue,
//!    and the *open interface*: optional priority / temperature /
//!    update-locality tags that cross the block-device boundary when
//!    unlocked. Threads belong to *tenants* with NVMe-style
//!    namespaces and a QoS layer (weighted fair queuing, token-bucket
//!    rate caps, strict tiers) for multi-tenant isolation studies.
//! 4. **Applications** ([`workloads`]) — the thread framework
//!    (`init`/`call_back`) with generators, preconditioning threads,
//!    a file-system thread, a Grace hash join, LSM-tree insertions, and
//!    trace replay.
//!
//! The [`experiments`] module is the experimental suite: templates that
//! sweep one parameter over a workload and report throughput, latency,
//! latency variability, write amplification and wear — including the
//! predefined series E1–E27 and the G1 scheduling game from the paper's
//! demonstration scenario (`experiments::suite::all()` is the index;
//! `harness --help` prints it).
//!
//! ## Quickstart
//!
//! ```
//! use eagletree::prelude::*;
//!
//! // A 4-channel × 4-LUN SLC SSD with default policies.
//! let setup = Setup::demo();
//! let mut os = setup.build();
//!
//! // One thread: 2000 random writes, 32 in flight.
//! let t = os.add_thread(Box::new(
//!     Pumped::new(RandWriteGen::new(Region::whole(), 2000), 32, 42).named("writer"),
//! ));
//! // `Err` would name a thread that never finished or work the device
//! // holds and can never issue.
//! os.run().expect("every thread finished");
//!
//! let stats = os.thread_stats(t);
//! assert_eq!(stats.writes_completed, 2000);
//! println!("{:.0} IOPS", stats.throughput_iops());
//! ```

pub use eagletree_controller as controller;
pub use eagletree_core as core;
pub use eagletree_experiments as experiments;
pub use eagletree_flash as flash;
pub use eagletree_os as os;
pub use eagletree_workloads as workloads;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use eagletree_controller::{
        ControllerConfig, GcConfig, IoTags, MappingKind, RequestKind, SchedPolicy,
        TemperatureMode, Temperature, VictimPolicy, WlConfig, WriteAllocPolicy,
    };
    pub use eagletree_core::{Cause, ObsConfig, SimDuration, SimRng, SimTime, Stage, Zipf};
    pub use eagletree_experiments::{
        downsample, measure, measure_since, snapshot, sparkline, Scale, Setup, Table,
    };
    pub use eagletree_flash::{CellType, Geometry, TimingSpec};
    pub use eagletree_os::{
        CompletedIo, Os, OsConfig, OsIo, OsSchedPolicy, QosParams, QosPolicy,
        TenantConfig, TenantId, ThreadCtx, Workload,
    };
    pub use eagletree_workloads::{
        precondition, FileSystemThread, GraceHashJoin, LsmTreeThread, MixedGen, Pumped,
        RandReadGen, RandWriteGen, Region, SeqReadGen, SeqWriteGen, TenantProfile, ZipfGen,
        ZipfKind,
    };
}

/// The README's Rust blocks, compiled and run as doctests so the snippets
/// a reader copies keep building.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
