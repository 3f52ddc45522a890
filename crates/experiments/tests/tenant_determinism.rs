//! Determinism regression for the multi-tenant subsystem: a fixed-seed
//! 3-tenant namespaced run must produce the committed fingerprint under
//! every `QosPolicy`, in every run. Ordering bugs in the two-stage
//! dispatcher (tenant selection × thread selection), the token-refill
//! wake-ups or the WFQ virtual clock would show up here as flaky
//! experiment numbers; instead they fail loudly.

use eagletree_controller::OpClass;
use eagletree_core::digest::{Fingerprint, Golden};
use eagletree_core::{SimRng, Tail};
use eagletree_experiments::Setup;
use eagletree_os::{Os, OsIo, QosPolicy};
use eagletree_workloads::{
    sequential_fill, IoGen, MixedGen, Pumped, RandReadGen, RandWriteGen, Region, TenantProfile,
    ZipfGen, ZipfKind,
};

/// Build and run one fixed 3-tenant scenario under `qos`; fingerprint
/// everything observable (virtual clock, per-tenant counts and tails,
/// namespace utilization, controller counters).
fn run_fingerprint(qos: QosPolicy) -> Fingerprint {
    run_fingerprint_obs(qos, eagletree_core::ObsConfig::default())
}

/// The device every scenario here runs on, under `qos`.
fn build(qos: QosPolicy, obs: eagletree_core::ObsConfig) -> Os {
    let mut setup = Setup::small();
    setup.os.qos = qos;
    setup.os.queue_depth = 16;
    setup.ctrl.wl.static_enabled = false;
    setup.ctrl.obs = obs;
    setup.build()
}

fn run_fingerprint_obs(qos: QosPolicy, obs: eagletree_core::ObsConfig) -> Fingerprint {
    let mut os = build(qos, obs);
    os.add_thread(sequential_fill(32));
    os.run().unwrap();
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
        .burst(4.0)
        .thread(Pumped::new(RandReadGen::new(Region::whole(), 400), 8, 0xA2))
        .install(&mut os);
    os.run().unwrap();
    fingerprint(&os, &[t0, t1, t2])
}

/// The run's clock and event count (`header`), one `tenant[<name>]` section
/// per tenant, and the controller's counters (`ctrl`).
fn fingerprint(os: &Os, tenants: &[usize]) -> Fingerprint {
    use std::fmt::Write;
    let (mut fp, now, events) = (Fingerprint::default(), os.now(), os.events_simulated());
    *fp.section("header") += &format!("now={} events={events}\n", now.as_nanos());
    for &t in tenants {
        let s = os.tenant_stats(t);
        let (r, w) = (s.tail(OpClass::AppRead), s.tail(OpClass::AppWrite));
        writeln!(
            fp.section(format!("tenant[{}]", os.tenant_name(t))),
            "tenant={} ns={:?} r={} w={} trim={} valid={} util={} \
             rp=[{},{},{},{}] wp=[{},{},{},{}] wait={}",
            os.tenant_name(t),
            os.namespace(t),
            s.reads_completed,
            s.writes_completed,
            s.trims_completed,
            os.valid_pages(t),
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
        fp.section("ctrl"),
        "ctrl reads={} programs={} erases={} wa={}",
        a.reads,
        a.programs,
        a.erases,
        c.write_amplification().to_bits()
    )
    .unwrap();
    fp
}


/// Trims every third page of the namespace, `count` in all.
struct EveryThirdTrim {
    count: u64,
    issued: u64,
}

impl IoGen for EveryThirdTrim {
    fn next_io(&mut self, _rng: &mut SimRng, logical_pages: u64) -> Option<OsIo> {
        if self.issued >= self.count {
            return None;
        }
        self.issued += 1;
        Some(OsIo::trim((self.issued * 3) % logical_pages))
    }
}

/// One fixed run with multi-thread tenants under `qos`: the default
/// tenant's fill thread, then a 2-thread tenant and a 3-thread tenant
/// whose threads read, write and trim the same namespace. Fingerprints
/// each tenant's counts, full read and write tails and valid pages, and
/// each thread's queue-wait mean.
fn run_multi_thread_fingerprint(qos: QosPolicy) -> Fingerprint {
    use std::fmt::Write;
    let mut os = build(qos, eagletree_core::ObsConfig::default());
    let fill = os.add_thread(sequential_fill(32));
    os.run().unwrap();
    let (pair, pair_threads) = TenantProfile::new("pair", 1024)
        .weight(3)
        .tier(0)
        .thread(Pumped::new(
            ZipfGen::new(Region::whole(), 400, 0.99, ZipfKind::Reads),
            4,
            0xB0,
        ))
        .thread(Pumped::new(MixedGen::new(Region::whole(), 300, 0.5), 8, 0xB1))
        .install(&mut os);
    let (trio, trio_threads) = TenantProfile::new("trio", 1536)
        .weight(1)
        .tier(1)
        .iops_limit(20_000.0)
        .burst(8.0)
        .thread(Pumped::new(RandReadGen::new(Region::whole(), 300), 4, 0xB2))
        .thread(Pumped::new(RandWriteGen::new(Region::whole(), 300), 8, 0xB3))
        .thread(Pumped::new(EveryThirdTrim { count: 120, issued: 0 }, 2, 0xB4))
        .install(&mut os);
    os.run().unwrap();
    let tail = |t: Tail| {
        let ns = [t.mean, t.p50, t.p95, t.p99, t.p999].map(|d| d.as_nanos());
        format!("{}:{ns:?}", t.count)
    };
    let (mut fp, now, events) = (Fingerprint::default(), os.now(), os.events_simulated());
    *fp.section("header") += &format!("now={} events={events}\n", now.as_nanos());
    // The fill thread created the default tenant, id 0.
    for t in [0, pair, trio] {
        let s = os.tenant_stats(t);
        writeln!(
            fp.section(format!("tenant[{}]", os.tenant_name(t))),
            "tenant={} r={} w={} trim={} valid={} util={} rt={} wt={}",
            os.tenant_name(t),
            s.reads_completed,
            s.writes_completed,
            s.trims_completed,
            os.valid_pages(t),
            os.namespace_utilization(t).to_bits(),
            tail(s.tail(OpClass::AppRead)),
            tail(s.tail(OpClass::AppWrite)),
        )
        .unwrap();
    }
    for th in [fill].into_iter().chain(pair_threads).chain(trio_threads) {
        let wait = os.thread_stats(th).queue_wait_us.mean().to_bits();
        *fp.section(format!("thread[{th}]")) += &format!("thread={th} wait={wait}\n");
    }
    fp
}

/// The golden columns: the QoS policies, by name.
fn policies() -> [(&'static str, QosPolicy); 4] {
    [
        ("none", QosPolicy::None),
        ("wfq", QosPolicy::Wfq),
        ("token_bucket", QosPolicy::TokenBucket),
        ("strict_tiers", QosPolicy::StrictTiers { starvation_us: 20_000 }),
    ]
}

/// Each QoS policy's multi-thread run against
/// `goldens/multi_thread_tenants.txt`.
#[test]
fn multi_thread_tenants_match_committed_goldens() {
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "multi_thread_tenants");
    for (col, qos) in policies() {
        golden.record("multi_thread", col, run_multi_thread_fingerprint(qos));
    }
    golden.check(include_str!("goldens/multi_thread_tenants.txt"));
}

/// Each QoS policy's 3-tenant run against `goldens/tenants.txt`.
#[test]
fn tenant_fingerprints_match_committed_goldens() {
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "tenants");
    for (col, qos) in policies() {
        golden.record("three_tenants", col, run_fingerprint(qos));
    }
    golden.check(include_str!("goldens/tenants.txt"));
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
    for (_, qos) in policies() {
        let off = run_fingerprint(qos.clone()).text();
        let with = run_fingerprint_obs(qos.clone(), on).text();
        assert_eq!(off, with, "observability changed the simulation under {qos:?}");
    }
}

#[test]
fn qos_policies_are_behaviorally_distinct() {
    // Sanity that the policies actually schedule differently on the same
    // scenario: the flat dispatcher, WFQ and the token bucket must not
    // all collapse to one fingerprint.
    let prints = policies().map(|(_, qos)| run_fingerprint(qos).text());
    assert_ne!(prints[0], prints[1], "wfq behaves like flat dispatch");
    assert_ne!(prints[0], prints[2], "token bucket behaves like flat dispatch");
}
