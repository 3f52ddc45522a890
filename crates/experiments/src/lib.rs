//! # eagletree-experiments
//!
//! The experimental suite (§2.3): "an experiment template takes (1) an SSD
//! parameter or policy, (2) a strategy for how to vary it in an experiment,
//! and (3) a workload definition. It runs an experiment and produces a
//! comprehensive amount of … statistical output."
//!
//! * [`setup`] — the [`setup::Setup`] bundle (geometry + timing +
//!   controller + OS config) and simulation construction.
//! * [`metrics`] — per-run measurement extraction ([`metrics::Measured`])
//!   and tabular output ([`metrics::Table`], aligned text and CSV).
//! * [`experiment`] — the [`Experiment`] handle and [`Scale`].
//! * `point` — one `Point` of a sweep (label, setup, fill-first flag,
//!   actors) and `run_point`, the only place a device is built, aged,
//!   run and measured.
//! * `columns` — the column vocabulary: each metric-derived column name
//!   bound to its source once.
//! * [`suite`] — the predefined experiments E1–E27 and the G1 "game" as
//!   point lists + column sets ([`suite::all`] is the index; `harness
//!   --help` prints it).
//! * [`capture`] — the instrumented observability run behind the bench
//!   harness `--trace` / `--timeline` flags (Perfetto + timeline export).

pub mod capture;
mod columns;
pub mod experiment;
pub mod metrics;
mod point;
pub mod setup;
pub mod suite;

pub use capture::{obs_capture, ObsArtifacts};
pub use experiment::{Experiment, Scale};
pub use metrics::{
    downsample, measure, measure_since, snapshot, sparkline, CounterSnapshot, Measured, Row, Table,
};
pub use setup::Setup;
