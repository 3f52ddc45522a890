//! # eagletree-core
//!
//! The discrete-event simulation kernel underpinning EagleTree.
//!
//! EagleTree simulates the whole SSD IO stack *in virtual time*: every layer
//! (flash array, SSD controller, OS, application threads) advances by
//! scheduling events on a single global [`EventQueue`]. This crate provides
//! the domain-independent pieces:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events,
//! * [`SimRng`] — a reproducible, platform-independent PRNG plus the
//!   distributions the workload generators need (uniform, [`Zipf`]),
//! * [`Slab`] — values under small stable slot numbers that later inserts
//!   reuse: the O(1), deterministic stand-in for a tree keyed by dense ids,
//! * [`IdTable`] / [`IdWindow`] — the same for ids somebody else hands out
//!   in increasing order (request ids, span ids, program stamps): a slab
//!   found through a sliding window over the ids still live,
//! * [`digest`] — the one FNV-1a hasher every fixed-seed fingerprint uses,
//! * [`stats`] — streaming statistics (mean/variance, log-bucketed latency
//!   histograms with quantiles, time-series samplers) used by the
//!   experimental suite.
//!
//! Determinism is a design goal: two simulations built from the same
//! configuration and seed produce byte-identical results. The event queue
//! breaks timestamp ties by insertion sequence number and the RNG is a
//! self-contained SplitMix64, so no platform or `HashMap`-iteration-order
//! effects can leak into results.

pub mod blkio;
pub mod digest;
pub mod event;
pub mod idtable;
pub mod obs;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use blkio::{BlkOp, BlkRecord};
pub use idtable::{IdTable, IdWindow};
pub use event::{thread_events_popped, EventQueue, QueueKind, ScheduledEvent};
pub use obs::{
    json_str, Cause, Obs, ObsConfig, Span, Stage, StageBreakdown, StageNs, Timeline, NO_SPAN,
};
pub use rng::{SimRng, Zipf};
pub use slab::Slab;
pub use stats::{Histogram, OnlineStats, Tail};
pub use time::{SimDuration, SimTime};
