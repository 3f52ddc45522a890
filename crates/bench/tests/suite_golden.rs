//! Golden result rows for the whole suite: every experiment, run at
//! `Scale::Smoke`, must reproduce the committed `BENCH_pr22.json` line for
//! line — same labels, same columns, same order, same digits, same event
//! counts. It is the file `compare` and CI's release-mode gate read, so
//! there is one result baseline, and a failure shows the cell that moved.
//!
//! Every cell of every experiment is a deterministic function of the
//! code. A mismatch therefore means the simulation, a sweep or a column
//! binding changed; a refactor must leave the file alone.
//!
//! The same run is the suite's liveness ratchet: the points that end with
//! ops the device can never issue (`Table::stuck`) are pinned too.

use std::sync::OnceLock;

use eagletree_bench::{run_one, to_json, ExperimentResult};
use eagletree_experiments::{suite, Scale};

/// One smoke-scale run of the whole suite, in suite order, shared by both
/// tests.
fn suite_run() -> &'static [ExperimentResult] {
    static RUN: OnceLock<Vec<ExperimentResult>> = OnceLock::new();
    RUN.get_or_init(|| {
        // Each experiment is a self-contained simulation, so they run on
        // one scoped thread each; `scope` joins them and re-raises a panic.
        let all = suite::all();
        std::thread::scope(|s| {
            let handles: Vec<_> = all
                .iter()
                .map(|e| s.spawn(move || run_one(e, Scale::Smoke)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment panicked"))
                .collect()
        })
    })
}

/// Recorded by one `harness all --scale smoke --json` run at PR 15 and
/// never regenerated to make a refactor pass.
const BASELINE: &str = include_str!("../../../BENCH_pr22.json");

/// The first line on which `got` leaves `want`, both sides quoted under
/// the last `"id":` line they still agreed on.
fn first_difference(got: &str, want: &str) -> Option<String> {
    let mut id = "the file header";
    let (mut got, mut want) = (got.lines(), want.lines());
    loop {
        match (got.next(), want.next()) {
            (None, None) => return None,
            (Some(g), Some(w)) if g == w => {
                if g.trim_start().starts_with("\"id\":") {
                    id = g.trim();
                }
            }
            (g, w) => {
                let (g, w) = (g.unwrap_or("<end of file>"), w.unwrap_or("<end of file>"));
                return Some(format!("under {id}\n  BENCH_pr22.json: {w}\n  this run:        {g}"));
            }
        }
    }
}

#[test]
fn every_experiment_reproduces_its_golden_rows() {
    let got = to_json(Scale::Smoke, suite_run());
    if let Some(moved) = first_difference(&got, BASELINE) {
        panic!("results moved since BENCH_pr22.json was recorded: first difference {moved}");
    }
}

/// The liveness ratchet. These points end in ROADMAP item 2's stall (a
/// relocation write bound to a LUN that can no longer allocate for it);
/// a new entry is a new way to stop silently and fails tier-1, a fix
/// shrinks the list.
const STUCK: [&str; 2] = ["E25 dftl/pe5000/noscrub", "E25 dftl/pe5000/scrub"];

#[test]
fn only_the_pinned_points_end_stuck() {
    let stuck: Vec<String> = suite_run()
        .iter()
        .flat_map(|r| r.table.stuck.iter().map(|(label, _)| format!("{} {label}", r.table.id)))
        .collect();
    assert_eq!(stuck, STUCK);
}

#[test]
fn a_moved_line_is_quoted_under_its_experiment() {
    let want = "{\n  \"id\": \"E1\",\n  a\n  \"id\": \"E2\",\n  b\n}\n";
    assert_eq!(first_difference(want, want), None);
    let moved = first_difference(&want.replace("  b", "  c"), want).unwrap();
    assert_eq!(moved, "under \"id\": \"E2\",\n  BENCH_pr22.json:   b\n  this run:          c");
    let cut = first_difference("{\n  \"id\": \"E1\",\n", want).unwrap();
    assert_eq!(cut, "under \"id\": \"E1\",\n  BENCH_pr22.json:   a\n  this run:        <end of file>");
}
