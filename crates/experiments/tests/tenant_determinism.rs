//! Determinism regression for the multi-tenant subsystem: a fixed-seed
//! 3-tenant namespaced run must produce byte-identical fingerprints across
//! repeated runs under every `QosPolicy`. Ordering bugs in the two-stage
//! dispatcher (tenant selection × thread selection), the token-refill
//! wake-ups or the WFQ virtual clock would show up here as flaky
//! experiment numbers; instead they fail loudly.

use eagletree_controller::OpClass;
use eagletree_experiments::Setup;
use eagletree_os::{Os, QosPolicy};
use eagletree_workloads::{
    sequential_fill, MixedGen, Pumped, RandReadGen, Region, TenantProfile, ZipfGen, ZipfKind,
};

/// Build and run one fixed 3-tenant scenario under `qos`; fingerprint
/// everything observable (virtual clock, per-tenant counts and tails,
/// namespace utilization, controller counters).
fn run_fingerprint(qos: QosPolicy) -> String {
    run_fingerprint_obs(qos, eagletree_core::ObsConfig::default())
}

fn run_fingerprint_obs(qos: QosPolicy, obs: eagletree_core::ObsConfig) -> String {
    let mut setup = Setup::small();
    setup.os.qos = qos;
    setup.os.queue_depth = 16;
    setup.ctrl.wl.static_enabled = false;
    setup.ctrl.obs = obs;
    let mut os = setup.build();
    os.add_thread(sequential_fill(32));
    os.run();
    // Three tenants with distinct shapes: a weighted Zipf reader, a mixed
    // read/write tenant, and a rate-capped random reader.
    let (t0, _) = TenantProfile::new("zipf-reader", 1024)
        .weight(4)
        .tier(0)
        .thread(Pumped::new(
            ZipfGen::new(Region::whole(), 600, 0.99, ZipfKind::Reads),
            4,
            0xA0,
        ))
        .install(&mut os);
    let (t1, _) = TenantProfile::new("mixed", 2048)
        .weight(2)
        .tier(1)
        .thread(Pumped::new(MixedGen::new(Region::whole(), 900, 0.5), 16, 0xA1))
        .install(&mut os);
    let (t2, _) = TenantProfile::new("capped", 512)
        .weight(1)
        .tier(2)
        .iops_limit(8_000.0)
        .page_bw_limit(8_000.0)
        .burst(4.0)
        .thread(Pumped::new(RandReadGen::new(Region::whole(), 400), 8, 0xA2))
        .install(&mut os);
    os.run();
    fingerprint(&os, &[t0, t1, t2])
}

fn fingerprint(os: &Os, tenants: &[usize]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "now={} events={}", os.now().as_nanos(), os.events_simulated()).unwrap();
    for &t in tenants {
        let s = os.tenant_stats(t);
        let (r, w) = (s.tail(OpClass::AppRead), s.tail(OpClass::AppWrite));
        writeln!(
            out,
            "tenant={} ns={:?} r={} w={} trim={} valid={} util={} \
             rp=[{},{},{},{}] wp=[{},{},{},{}] wait={}",
            os.tenant_name(t),
            os.namespace(t),
            s.reads_completed,
            s.writes_completed,
            s.trims_completed,
            s.valid_pages(),
            os.namespace_utilization(t).to_bits(),
            r.p50.as_nanos(),
            r.p95.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            w.p50.as_nanos(),
            w.p95.as_nanos(),
            w.p99.as_nanos(),
            w.p999.as_nanos(),
            s.queue_wait_us.mean().to_bits(),
        )
        .unwrap();
    }
    let c = os.controller();
    let a = c.array().counters();
    writeln!(
        out,
        "ctrl reads={} programs={} erases={} wa={}",
        a.reads,
        a.programs,
        a.erases,
        c.write_amplification().to_bits()
    )
    .unwrap();
    out
}

/// FNV-1a (64-bit) of a fingerprint string.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden hashes of the 3-tenant fingerprint under each of `policies()`,
/// in order — generated from the simulator as it stood before the
/// controller decomposition (PR 12's parent) and never regenerated since,
/// so a behaviour change anywhere under the OS layer fails here even when
/// it is perfectly repeatable within one build.
const GOLDEN: [u64; 4] = [
    0x7df0_7d97_1fad_07ec,
    0x0cdd_b15e_bcaf_1db8,
    0x5111_2767_f9a2_c155,
    0x4fe4_ba1b_b6ce_e08f,
];

fn policies() -> Vec<QosPolicy> {
    vec![
        QosPolicy::None,
        QosPolicy::Wfq,
        QosPolicy::TokenBucket,
        QosPolicy::StrictTiers { starvation_us: 20_000 },
    ]
}

#[test]
fn three_tenant_run_is_byte_identical_under_every_qos_policy() {
    for qos in policies() {
        let a = run_fingerprint(qos.clone());
        let b = run_fingerprint(qos.clone());
        assert_eq!(a, b, "fingerprint drift under {qos:?}");
        assert!(a.contains("tenant=zipf-reader"));
    }
}

#[test]
fn tenant_fingerprints_match_committed_goldens() {
    let got: Vec<u64> = policies()
        .into_iter()
        .map(|qos| fnv1a(&run_fingerprint(qos)))
        .collect();
    assert!(
        got == GOLDEN,
        "fixed-seed tenant behaviour changed since the goldens were committed; got\n{got:#018x?}"
    );
}

#[test]
fn observability_does_not_perturb_tenant_runs() {
    // The whole OS-side instrumentation path — span opening per submitted
    // IO, QoS-hold marking, stage accounting on completion, timeline
    // sampling — must be invisible to the simulation itself: the
    // fingerprint of an instrumented run matches the plain run byte for
    // byte under every QoS policy.
    let on = eagletree_core::ObsConfig {
        span_capacity: 1 << 16,
        timeline_interval_us: 200,
    };
    for qos in policies() {
        let off = run_fingerprint(qos.clone());
        let with = run_fingerprint_obs(qos.clone(), on);
        assert_eq!(off, with, "observability changed the simulation under {qos:?}");
    }
}

#[test]
fn qos_policies_are_behaviorally_distinct() {
    // Sanity that the policies actually schedule differently on the same
    // scenario: the flat dispatcher, WFQ and the token bucket must not
    // all collapse to one fingerprint.
    let prints: Vec<String> = policies().into_iter().map(run_fingerprint).collect();
    assert_ne!(prints[0], prints[1], "wfq behaves like flat dispatch");
    assert_ne!(prints[0], prints[2], "token bucket behaves like flat dispatch");
}
