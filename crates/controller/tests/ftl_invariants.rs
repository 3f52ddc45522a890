//! FTL-invariant property tests: for every mapping scheme — page map,
//! DFTL, and the hybrid log-block FTL — random write/trim/read sequences
//! must pass the driver's live check (`Driver::check_promises`) at the
//! quiescent point:
//!
//! 1. **No lost writes** — a written (and not-trimmed) logical page is
//!    kept; a trimmed or never-written page is unmapped (zero-fill read).
//! 2. **Consistency** — `Controller::check_invariants`: each mapping
//!    points at a valid page whose OOB names its logical page, so no two
//!    logical pages share one.
//!
//! Every submitted request must also complete. The same generator drives
//! all three schemes, so a regression in any scheme's
//! bookkeeping — easy to introduce with multi-step merge machinery — fails
//! here first. One property queues a burst of reads ahead of every window
//! under a reads-last policy, so that dozens of reads wait in their LUN's
//! lane while the window's overwrites and trims, and the GC or merges they
//! trigger, move the pages under them (debug builds check after every
//! scheduling round that each queued read sits in the lane of the LUN its
//! page is on now).

use std::collections::BTreeSet;

use eagletree_controller::{
    class_index, class_table, ControllerConfig, Driver, MappingKind, OpClass, RequestKind,
    SchedPolicy, WlConfig,
};
use proptest::prelude::*;

/// One step of the generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

/// The three mapping schemes under the same generator.
fn schemes() -> Vec<(&'static str, MappingKind)> {
    vec![
        ("page_map", MappingKind::PageMap),
        ("dftl", MappingKind::Dftl { cmt_entries: 24 }),
        ("hybrid", MappingKind::Hybrid { log_blocks: 3 }),
    ]
}

fn build(mapping: MappingKind, sched: SchedPolicy) -> Driver {
    let cfg = ControllerConfig {
        mapping,
        sched,
        // Keep static WL on for the hybrid refresh-merge path; it is
        // deterministic and exercises more machinery.
        wl: WlConfig {
            check_every_erases: 16,
            young_delta: 4,
            idle_factor: 0.5,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    Driver::tiny(cfg)
}

/// Drive `ops` in windows; then run the driver's live check at the
/// quiescent point.
fn check_scheme(name: &str, mapping: MappingKind, ops: &[Op], qd: usize) -> Result<(), TestCaseError> {
    check_scheme_with(name, build(mapping, SchedPolicy::Fifo), ops, qd, 0)
}

/// `check_scheme` on a prepared device, with `read_burst` reads of the
/// pages each window is about to touch queued ahead of it.
fn check_scheme_with(
    name: &str,
    mut d: Driver,
    ops: &[Op],
    qd: usize,
    read_burst: usize,
) -> Result<(), TestCaseError> {
    let logical = d.c.logical_pages();
    // A prepared device arrives run dry: everything submitted is done.
    let prepared = d.done.len();
    let mut read_ids: Vec<u64> = Vec::new();
    let luns = d.c.array().geometry().total_luns();
    let mut most_waiting = 0;
    for chunk in ops.chunks(qd) {
        // A LUN reads one page at a time, so of a burst's reads of mapped
        // pages all but one per LUN wait in the pending set.
        let mut mapped = 0;
        for op in chunk.iter().cycle().take(read_burst) {
            let (Op::Write(l) | Op::Trim(l) | Op::Read(l)) = *op;
            mapped += d.c.peek_mapping(l % logical).is_some() as u32;
            read_ids.push(d.submit(RequestKind::Read, l % logical));
        }
        most_waiting = most_waiting.max(mapped.saturating_sub(luns));
        for op in chunk {
            match *op {
                Op::Write(l) => {
                    d.submit(RequestKind::Write, l % logical);
                }
                Op::Trim(l) => {
                    d.submit(RequestKind::Trim, l % logical);
                }
                Op::Read(l) => {
                    read_ids.push(d.submit(RequestKind::Read, l % logical));
                }
            }
        }
        // Window boundary: quiesce, so the next burst knows what is mapped.
        d.run().unwrap();
    }
    d.run().unwrap();
    prop_assert!(
        read_burst == 0 || most_waiting >= 32,
        "{}: at most {} reads waited at once",
        name,
        most_waiting
    );

    // Every submitted request completed.
    let done_ids: BTreeSet<u64> = d.done.iter().map(|c| c.id).collect();
    let writes_and_trims = ops.iter().filter(|op| !matches!(op, Op::Read(_))).count();
    prop_assert_eq!(
        done_ids.len(),
        prepared + read_ids.len() + writes_and_trims,
        "{}: lost completions",
        name
    );
    for id in &read_ids {
        prop_assert!(done_ids.contains(id), "{}: read {} never completed", name, id);
    }

    // The driver's live check: invariants, no lost write, and no page
    // mapped that was trimmed or never written.
    d.check_promises().map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Uniformly random ops over the whole space.
    #[test]
    fn random_ops_preserve_invariants(
        ops in prop::collection::vec(
            prop_oneof![
                5 => (0u64..4096).prop_map(Op::Write),
                1 => (0u64..4096).prop_map(Op::Trim),
                2 => (0u64..4096).prop_map(Op::Read),
            ],
            200..600,
        ),
        qd in 1usize..32,
    ) {
        for (name, mapping) in schemes() {
            check_scheme(name, mapping, &ops, qd)?;
        }
    }

    /// Clustered ops (small hot range) — drives overwrites, GC and merges
    /// much harder than uniform traffic.
    #[test]
    fn clustered_overwrites_preserve_invariants(
        ops in prop::collection::vec(
            prop_oneof![
                8 => (0u64..96).prop_map(Op::Write),
                1 => (0u64..96).prop_map(Op::Trim),
                2 => (0u64..96).prop_map(Op::Read),
            ],
            400..800,
        ),
        qd in 1usize..24,
    ) {
        for (name, mapping) in schemes() {
            check_scheme(name, mapping, &ops, qd)?;
        }
    }

    /// A burst of reads of the hot range waits (reads rank last) while each
    /// window's overwrites and trims land on the pages they read, on a full
    /// device where every few writes trigger GC or a merge.
    #[test]
    fn queued_reads_follow_their_pages(
        ops in prop::collection::vec(
            prop_oneof![
                6 => (0u64..96).prop_map(Op::Write),
                1 => (0u64..96).prop_map(Op::Trim),
            ],
            300..500,
        ),
        qd in 8usize..24,
    ) {
        let mut rank = class_table(0);
        rank[class_index(OpClass::AppRead)] = 1;
        rank[class_index(OpClass::MappingRead)] = 1;
        for (name, mapping) in schemes() {
            let mut d = build(mapping, SchedPolicy::ClassPriority(rank));
            for lpn in 0..d.c.logical_pages() {
                d.submit(RequestKind::Write, lpn);
                if lpn % 32 == 31 {
                    d.run().unwrap();
                }
            }
            d.run().unwrap();
            check_scheme_with(name, d, &ops, qd, 48)?;
        }
    }

    /// Sequential runs with random restarts — the hybrid switch/partial
    /// merge paths live here.
    #[test]
    fn sequential_runs_preserve_invariants(
        seeds in prop::collection::vec(0u64..(128 * 40), 6..20),
        qd in 1usize..32,
    ) {
        // Each seed encodes a (start, len) run; the shim has no tuple
        // strategies.
        let ops: Vec<Op> = seeds
            .iter()
            .flat_map(|&s| {
                let start = s % 128;
                let len = 1 + s / 128;
                (start..start + len).map(Op::Write)
            })
            .collect();
        for (name, mapping) in schemes() {
            check_scheme(name, mapping, &ops, qd)?;
        }
    }
}
