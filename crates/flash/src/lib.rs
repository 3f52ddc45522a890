//! # eagletree-flash
//!
//! The hardware layer of the EagleTree SSD simulator: an ONFI-style flash
//! memory array wired to the controller through parallel channels.
//!
//! The model follows the paper's hardware design space (§2.2 "Hardware"):
//!
//! * **Geometry** ([`Geometry`]) — channels × LUNs/channel × planes ×
//!   blocks × pages, with configurable page size. The LUN is the minimum
//!   granularity of parallelism, per the ONFI standard.
//! * **Timing** ([`TimingSpec`]) — basic flash chip timings: command latency,
//!   per-page channel transfer time, read, program and erase array times,
//!   with SLC and MLC presets derived from datasheet-typical values.
//! * **Occupancy** ([`FlashArray`]) — channels and LUNs are independent
//!   resources. A read occupies the channel for the command, the LUN for the
//!   array read, and the channel again for the data transfer out; while a
//!   LUN is busy its channel is free for *interleaved* operations on sibling
//!   LUNs. Copy-back moves a page inside a LUN without occupying the channel
//!   for data, trading channel time for pinning the LUN.
//! * **State** — per-page Free/Valid/Invalid tracking with sequential
//!   program enforcement inside each block, per-block erase counts and
//!   last-erase timestamps (consumed by wear leveling), and raw op counters.
//! * **Memory manager** ([`MemoryManager`]) — tracks controller RAM and
//!   battery-backed RAM budgets for mapping tables and write buffers.
//! * **OOB & power failure** ([`oob`], [`FlashArray::power_cut`]) — every
//!   program persists an [`OobEntry`] in the page's spare area (logical
//!   page + version stamps), the durable record mount-time recovery
//!   rebuilds the mapping from; a power cut destroys exactly the
//!   operations in flight (torn pages, interrupted erases).

pub mod address;
pub mod array;
pub mod command;
pub mod error;
pub mod fault;
pub mod memory;
pub mod oob;
pub mod timing;

pub use address::{BlockAddr, Geometry, PhysicalAddr};
pub use array::{BlockInfo, FlashArray, IssueOutcome, LunReady, PageState, PowerCutReport};
pub use command::FlashCommand;
pub use error::FlashError;
pub use fault::{FaultConfig, FaultCounters, FaultEvent, FaultModel, ReadOutcome};
pub use memory::{MemoryKind, MemoryManager};
pub use oob::{OobEntry, OobTag};
pub use timing::{CellType, TimingSpec};
