//! # eagletree-os
//!
//! The operating-system layer of EagleTree. "The Operating System manages
//! IO requests incoming from multiple simulated concurrent threads. It
//! maintains a pool of pending IOs from each thread and decides, based on a
//! customizable scheduling policy, which IOs to issue next to the SSD"
//! (§2.2). On completion the SSD interrupts the OS, which activates the
//! dispatching thread's callback; the thread may respond with further IOs.
//!
//! Beyond the paper's flat thread pool, this layer models the *serving*
//! side of a consolidated system: threads belong to **tenants**, each with
//! an NVMe-style namespace and QoS parameters, so one simulated SSD can
//! carry many mutually isolated clients.
//!
//! * [`Workload`] — the thread programming framework (`init` /
//!   `call_back`), with inter-thread dependencies for preconditioning.
//! * [`OsSchedPolicy`] — FIFO, fair round-robin and thread priorities
//!   (stage 2: which *thread queue* to serve).
//! * [`QosPolicy`] / [`QosParams`] — tenant arbitration above the thread
//!   scheduler (stage 1: which *tenant* gets the slot): weighted fair
//!   queuing, token-bucket rate limiting, strict priority tiers with a
//!   starvation guard.
//! * [`tenant`] — namespaces (tenant-relative LBAs translated and
//!   bounds-checked at the OS boundary) and the per-tenant bitmap of
//!   valid namespace pages.
//! * [`Os`] — the dispatcher: bounded outstanding-IO window
//!   (`queue_depth`), per-thread queues and statistics ([`ThreadStats`],
//!   one record per host completion; a tenant's is the merge of its
//!   threads'), tenant-aware two-stage dispatch, and the main simulation
//!   loop. Hints travel with each IO as the controller's
//!   [`eagletree_controller::IoTags`] ([`OsIo::tagged`]); the OS strips
//!   them while the block-device boundary is locked
//!   ([`OsConfig::open_interface`] = false).

pub mod os;
pub mod qos;
pub mod sched;
pub mod tenant;
pub mod thread;

pub use os::{Os, OsConfig, Stalled, ThreadStats};
pub use qos::{QosParams, QosPolicy};
pub use sched::OsSchedPolicy;
pub use tenant::{Namespace, TenantConfig, TenantId};
pub use thread::{CompletedIo, OsIo, ThreadCtx, ThreadId, Workload};
