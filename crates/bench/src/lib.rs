//! # eagletree-bench
//!
//! Experiment harness for EagleTree. Nothing here reads the host clock:
//! a harness result is a pure function of the code, and host-time
//! measurement (throughput, per-layer budgets) is the `benchmark/`
//! package's job alone.
//!
//! * `harness` binary — regenerates every experiment series (E1–E27, G1;
//!   `harness --help` lists them): `cargo run --release -p eagletree-bench
//!   --bin harness -- all --scale full`.
//! * `compare` binary — gates a harness `--json` file against a baseline:
//!   any result that moved exits 1.
//! * this library — running one experiment with its event count, and the
//!   `--json` serialisation both binaries agree on.

use eagletree_core::json_str;
use eagletree_experiments::{Experiment, Scale, Table};

/// One experiment's outcome: its result table plus the simulation events
/// it took, measured per thread so parallel runs report the same count as
/// sequential ones.
pub struct ExperimentResult {
    pub table: Table,
    pub events_simulated: u64,
}

/// Run one experiment, attributing exactly its own simulation events via
/// the per-thread event counter — correct in both sequential and parallel
/// modes (each experiment runs wholly on one worker thread).
pub fn run_one(e: &Experiment, scale: Scale) -> ExperimentResult {
    let events_before = eagletree_core::thread_events_popped();
    let table = e.run(scale);
    ExperimentResult {
        table,
        events_simulated: eagletree_core::thread_events_popped() - events_before,
    }
}

/// Hand-rolled JSON (no serde in the offline build container): one
/// object per experiment with its event count and the full result rows.
/// `compare` scrapes this exact line layout.
pub fn to_json(scale: Scale, results: &[ExperimentResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, r) in results.iter().enumerate() {
        let t = &r.table;
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": {},\n", json_str(&t.id)));
        out.push_str(&format!("      \"title\": {},\n", json_str(&t.title)));
        out.push_str(&format!("      \"param\": {},\n", json_str(&t.param)));
        let events = r.events_simulated;
        out.push_str(&format!("      \"events_simulated\": {events},\n"));
        out.push_str("      \"rows\": [\n");
        for (j, r) in t.rows.iter().enumerate() {
            let fields: Vec<String> = std::iter::once(format!("\"label\": {}", json_str(&r.label)))
                .chain(
                    r.values
                        .iter()
                        .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v))),
                )
                .collect();
            out.push_str(&format!("        {{{}}}", fields.join(", ")));
            if j + 1 < t.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("      ]\n    }");
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_experiments::suite;

    #[test]
    fn a_result_file_is_a_pure_function_of_the_code() {
        let e19 = suite::by_id("E19").expect("E19 is in the suite");
        let doc = || to_json(Scale::Smoke, &[run_one(&e19, Scale::Smoke)]);
        let first = doc();
        // The second run is on another thread, as under `--jobs N`.
        let second = std::thread::scope(|s| s.spawn(doc).join().expect("experiment panicked"));
        assert_eq!(first, second);
        assert!(first.contains("\"events_simulated\": "), "{first}");
        for host_key in ["wall", "per_sec", "jobs"] {
            assert!(!first.contains(host_key), "host-clock key {host_key}: {first}");
        }
    }
}
