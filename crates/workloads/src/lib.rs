//! # eagletree-workloads
//!
//! Workload threads for EagleTree: implementations of the OS layer's
//! [`Workload`](eagletree_os::Workload) trait covering the paper's
//! application scenarios.
//!
//! * [`gen`] — composable IO generators ([`Pumped`] drives any [`IoGen`]
//!   with a bounded per-thread window): sequential/random reads and
//!   writes, mixed ratios, Zipf hot/cold patterns, tagged variants for
//!   open-interface experiments.
//! * [`precondition`] — bring the SSD to a well-defined state before
//!   measuring (sequential and random full-space fills, per uFLIP
//!   methodology and §2.3).
//! * [`grace_join`] — "a thread that follows the IO pattern of Grace hash
//!   join" (§2.2): partition fan-out writes, then per-partition probe
//!   reads.
//! * [`fs`] — "threads simulating the behavior of a file system" (§2.2):
//!   create/append/delete over extents with metadata updates.
//! * [`lsm`] — LSM-tree insertions (the paper's motivating example §1):
//!   memtable flushes plus leveled compactions.
//! * [`blktrace`] — the block-trace frontend: streaming MSR-Cambridge CSV
//!   parsing behind the [`TraceSource`] trait, chunked bounded-memory
//!   prefetch, LBA remapping into a namespace, a trace characterizer
//!   (footprint / mix / Zipf skew / burstiness) and matched synthesis.
//! * [`trace`] — replay: [`ReplayThread`] (open-loop at recorded
//!   timestamps with time-warp, or closed-loop preserving think times).
//! * [`tenant`] — the tenant-profile builder: declare a tenant's
//!   namespace, QoS parameters and member threads, then install the whole
//!   profile onto an [`Os`](eagletree_os::Os) in one call (the
//!   multi-tenant experiments' setup vocabulary).

pub mod blktrace;
pub mod fs;
pub mod gen;
pub mod grace_join;
pub mod lsm;
pub mod precondition;
pub mod tenant;
pub mod trace;

pub use blktrace::{
    characterize, to_msr_csv_line, ChunkedSource, MsrCsvSource, Remap, SynthCsv, SynthShape,
    SyntheticTrace, TraceProfile, TraceSource,
};
pub use fs::FileSystemThread;
pub use gen::{
    IoGen, MixedGen, Pumped, RandReadGen, RandWriteGen, Region, SeqReadGen, SeqWriteGen,
    ZipfGen, ZipfKind,
};
pub use grace_join::GraceHashJoin;
pub use lsm::LsmTreeThread;
pub use precondition::{random_fill, sequential_fill};
pub use tenant::TenantProfile;
pub use trace::{ReplayMode, ReplayThread};
