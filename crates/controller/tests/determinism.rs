//! Determinism regression: a fixed-seed mixed workload must produce
//! byte-identical completions, counters and lifecycle-span stream across
//! runs — and across commits: the fingerprints are pinned to golden hashes.
//! Event-ordering bugs — easy to introduce with multi-step merge machinery
//! or with the slab/ready-queue dispatch structures — fail loudly here
//! instead of as flaky experiment numbers.
//!
//! Coverage is the cross product that exercises every ordering decision:
//! all three mapping schemes and all five `SchedPolicy` variants (the
//! workload carries priority tags so `TagPriority` actually discriminates).

use eagletree_controller::{
    ControllerConfig, Driver, IoTags, MappingKind, MergePolicy, RequestKind, SchedPolicy, WlConfig,
};
use eagletree_core::{ObsConfig, SimRng};

/// Run a fixed-seed mixed write/trim/read workload (every fifth request
/// priority-tagged) and render everything observable into one string:
/// completion stream, controller counters, per-class issue counts, merge
/// counters, array counters and every lifecycle span in close order (the
/// order-sensitive part: a reordered issue moves a span's stamps or slot).
fn run_fingerprint(mapping: MappingKind, sched: SchedPolicy) -> String {
    run_fingerprint_obs(mapping, sched, SPANS_ON)
}

/// Span collection on, sized so the 2000-op run drops nothing.
const SPANS_ON: ObsConfig = ObsConfig {
    span_capacity: 1 << 16,
    timeline_interval_us: 0,
};

fn run_fingerprint_obs(mapping: MappingKind, sched: SchedPolicy, obs: ObsConfig) -> String {
    let cfg = ControllerConfig {
        mapping,
        sched,
        obs,
        wl: WlConfig {
            check_every_erases: 16,
            young_delta: 4,
            idle_factor: 0.5,
            ..WlConfig::default()
        },
        ..ControllerConfig::default()
    };
    let mut d = Driver::tiny(cfg);
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0xD17E_2B11);
    let ops: Vec<(RequestKind, u64, IoTags)> = (0..2000u32)
        .map(|i| {
            let lpn = rng.gen_range(logical);
            let tags = if i % 5 == 0 {
                IoTags::none().with_priority((i % 3) as u8)
            } else {
                IoTags::none()
            };
            match i % 10 {
                0..=5 => (RequestKind::Write, lpn, tags),
                6 => (RequestKind::Trim, lpn, tags),
                _ => (RequestKind::Read, lpn, tags),
            }
        })
        .collect();
    // Burst size trades run time against queue contention; 96 keeps every
    // scheduling policy's decisions observable (deep enough queues that
    // rankings disagree) while the whole suite stays fast.
    for chunk in ops.chunks(96) {
        for &(kind, lpn, tags) in chunk {
            d.submit_tagged(kind, lpn, tags);
        }
        d.run();
    }
    d.run();

    let mut out = String::new();
    for c in &d.done {
        out.push_str(&format!("{}@{}\n", c.id, c.at.as_nanos()));
    }
    out.push_str(&format!("{:?}\n", d.c.stats()));
    out.push_str(&format!("{:?}\n", d.c.merge_counters()));
    out.push_str(&format!("{:?}\n", d.c.array().counters()));
    if let Some(obs) = d.c.obs() {
        for span in obs.spans() {
            out.push_str(&format!("{span:?}\n"));
        }
        out.push_str(&format!("dropped={} open={}\n", obs.dropped(), obs.open_count()));
    }
    out
}

/// FNV-1a (64-bit) of a fingerprint string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden fingerprint hashes, generated from the simulator as it stood
/// before the controller decomposition (PR 12's parent) and never
/// regenerated since: a refactor that changes any completion time,
/// counter or span fails here, not just a same-build nondeterminism.
/// Rows: the three mapping schemes of `golden_mappings`; columns: the
/// five policies of `all_policies`, in order.
const GOLDEN: [[u64; 5]; 3] = [
    [0xfb1b_655f_b319_7ce4, 0x262b_e2e3_4a17_141a, 0x262b_e2e3_4a17_141a,
     0x262b_e2e3_4a17_141a, 0x11a7_1ab7_ac5e_4928],
    [0xc066_4ad1_d960_043b, 0x2ae8_94ff_c8c1_0c68, 0x17a6_ddb1_f76d_5667,
     0x2720_8451_2a7b_d756, 0xca0a_cb76_81a1_227b],
    [0x2f9b_36cf_4007_8fd3, 0x8561_38bd_8835_8346, 0x7080_7406_906c_4971,
     0x26ea_1c90_81f4_695f, 0xb6e8_abcf_f1c5_c43d],
];

fn golden_mappings() -> [MappingKind; 3] {
    [
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid {
            log_blocks: 3,
            merge: MergePolicy::Fifo,
        },
    ]
}

#[test]
fn fingerprints_match_committed_goldens() {
    let got: Vec<Vec<u64>> = golden_mappings()
        .into_iter()
        .map(|mapping| {
            all_policies()
                .into_iter()
                .map(|(_, policy)| fnv1a(&run_fingerprint(mapping, policy)))
                .collect()
        })
        .collect();
    let want: Vec<Vec<u64>> = GOLDEN.iter().map(|row| row.to_vec()).collect();
    assert!(
        got == want,
        "fixed-seed behaviour changed since the goldens were committed; got\n{got:#018x?}"
    );
}

fn all_policies() -> Vec<(&'static str, SchedPolicy)> {
    vec![
        ("fifo", SchedPolicy::Fifo),
        ("class_priority", SchedPolicy::reads_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
        ("tag_priority", SchedPolicy::TagPriority),
    ]
}

#[test]
fn hybrid_runs_are_byte_identical() {
    let mapping = MappingKind::Hybrid {
        log_blocks: 3,
        merge: MergePolicy::Fifo,
    };
    let a = run_fingerprint(mapping, SchedPolicy::Fifo);
    let b = run_fingerprint(mapping, SchedPolicy::Fifo);
    assert!(a == b, "hybrid run fingerprints diverged");
    assert!(a.contains("merge"), "fingerprint should include counters");
}

#[test]
fn all_schemes_run_deterministically() {
    for mapping in [
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid {
            log_blocks: 4,
            merge: MergePolicy::MinValid,
        },
    ] {
        let a = run_fingerprint(mapping, SchedPolicy::Fifo);
        let b = run_fingerprint(mapping, SchedPolicy::Fifo);
        assert!(a == b, "{mapping:?} fingerprints diverged");
    }
}

#[test]
fn all_sched_policies_run_deterministically() {
    // Every policy, against the mapping with the most ordering hazards
    // (hybrid: merges, fillers, erases compete with app IO) and the page
    // map (GC + WL). A silent reorder in the ready-queue dispatch shows
    // up as a fingerprint mismatch between repeated runs.
    for mapping in [
        MappingKind::PageMap,
        MappingKind::Hybrid {
            log_blocks: 3,
            merge: MergePolicy::Fifo,
        },
    ] {
        for (name, policy) in all_policies() {
            let a = run_fingerprint(mapping, policy.clone());
            let b = run_fingerprint(mapping, policy.clone());
            assert!(a == b, "{mapping:?}/{name} fingerprints diverged");
        }
    }
}

#[test]
fn observability_never_perturbs_the_schedule() {
    // The span collector is a pure recorder: it schedules no events,
    // consults no RNG and steers no control flow, so the fixed-seed
    // fingerprint (completions, counters) of an instrumented run must be
    // byte-identical to the uninstrumented one — across every mapping
    // scheme. The instrumented fingerprint only appends its span stream.
    let on = ObsConfig {
        span_capacity: 1 << 16,
        timeline_interval_us: 100,
    };
    for mapping in [
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid {
            log_blocks: 3,
            merge: MergePolicy::Fifo,
        },
    ] {
        let off = run_fingerprint_obs(mapping, SchedPolicy::Fifo, ObsConfig::default());
        let with = run_fingerprint_obs(mapping, SchedPolicy::Fifo, on);
        assert!(
            with.starts_with(&off) && with.len() > off.len(),
            "{mapping:?}: enabling observability changed the simulation"
        );
    }
}

#[test]
fn sched_policies_actually_differ() {
    // Sanity for the test itself: if every policy produced the same
    // fingerprint the cross-product above would be vacuous (e.g. tags
    // stripped, or ready-queues collapsing policy distinctions).
    let prints: Vec<String> = all_policies()
        .into_iter()
        .map(|(_, p)| run_fingerprint(MappingKind::PageMap, p))
        .collect();
    let distinct: std::collections::BTreeSet<&String> = prints.iter().collect();
    // On this mix reads are the minority class, so reads-first,
    // EDF-with-default-deadlines and Fair legitimately converge on the
    // same schedule; FIFO and TagPriority must still disagree with them
    // and each other.
    assert!(
        distinct.len() >= 3,
        "expected scheduling policies to produce distinct schedules, got {} distinct of {}",
        distinct.len(),
        prints.len()
    );
}
