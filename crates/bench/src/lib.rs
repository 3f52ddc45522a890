//! # eagletree-bench
//!
//! Benchmark harness for EagleTree.
//!
//! * `harness` binary — regenerates every experiment series (E1–E27, G1;
//!   `harness --help` lists them): `cargo run --release -p eagletree-bench
//!   --bin harness -- all --scale full`.
//! * `compare` binary — gates a harness `--json` file against a baseline:
//!   any deterministic result that moved, or a lost events/sec factor.
//! * `benches/experiments.rs` — Criterion benches running each experiment
//!   at smoke scale, so `cargo bench` exercises the whole suite.
//! * `benches/micro.rs` — microbenchmarks of the simulator's hot paths
//!   (event queue, flash command issue, Zipf sampling, end-to-end small
//!   simulations).

#![forbid(unsafe_code)]

/// Re-exported so benches and the harness share one entry point.
pub use eagletree_experiments::{suite, Scale, Table};

/// Run one experiment by id at `scale`, returning its table.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Table> {
    suite::by_id(id).map(|e| e.run(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_experiment_resolves_ids() {
        assert!(run_experiment("E12", Scale::Smoke).is_some());
        assert!(run_experiment("nope", Scale::Smoke).is_none());
    }
}
