//! Property-based tests: the full controller against a simple model.
//!
//! The model is the driver's own acknowledgment ledger: after any op
//! sequence the controller's authoritative mapping must agree with it on
//! *which* pages are mapped, all invariants must hold, and no IO may be
//! lost.

use proptest::prelude::*;

use eagletree::controller::Driver;
use eagletree::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Read(u64),
    Trim(u64),
    Drain,
}

fn op_strategy(logical: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..logical).prop_map(Op::Write),
        2 => (0..logical).prop_map(Op::Read),
        1 => (0..logical).prop_map(Op::Trim),
        1 => Just(Op::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs a full simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn controller_agrees_with_model(
        ops in prop::collection::vec(op_strategy(512), 1..400),
        dftl in any::<bool>(),
    ) {
        let cfg = ControllerConfig {
            mapping: if dftl {
                MappingKind::Dftl { cmt_entries: 16 }
            } else {
                MappingKind::PageMap
            },
            wl: WlConfig { static_enabled: false, ..WlConfig::default() },
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let mut submitted = 0;
        let mut in_window = 0u32;
        for op in &ops {
            let (kind, lpn) = match op {
                Op::Write(lpn) => (RequestKind::Write, lpn),
                Op::Read(lpn) => (RequestKind::Read, lpn),
                Op::Trim(lpn) => (RequestKind::Trim, lpn),
                Op::Drain => {
                    d.run().unwrap();
                    in_window = 0;
                    continue;
                }
            };
            d.submit(kind, lpn % logical);
            submitted += 1;
            in_window += 1;
            // Keep a bounded device queue like a real OS would.
            if in_window >= 16 {
                d.run().unwrap();
                in_window = 0;
            }
        }
        d.run().unwrap();

        // No IO lost.
        prop_assert_eq!(d.done.len(), submitted);
        // Mapped set as the ledger binds it: a write and a trim of one
        // lpn in one window resolve by acknowledgment order — the trim
        // acks at once, the write after its flash latency — and that
        // order is what the ledger recorded.
        d.check_promises().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn random_overwrites_preserve_capacity_invariants(
        seed in any::<u64>(),
        greediness in 1u32..5,
    ) {
        let cfg = ControllerConfig {
            gc: GcConfig { greediness, ..GcConfig::default() },
            wl: WlConfig { static_enabled: false, ..WlConfig::default() },
            ..ControllerConfig::default()
        };
        let mut d = Driver::tiny(cfg);
        let logical = d.c.logical_pages();
        let mut rng = SimRng::new(seed);
        let writes: Vec<_> =
            (0..logical * 2).map(|_| (RequestKind::Write, rng.gen_range(logical))).collect();
        d.submit_windowed(&writes, 16).unwrap();
        prop_assert_eq!(d.done.len(), writes.len());
        d.c.check_invariants();
    }
}
