//! The GC trigger's victim guard against the search it stands in for:
//! random write/trim histories on `Geometry::tiny()` under every victim
//! policy, page map and DFTL, with and without the checkpoint's reserved
//! blocks — after every agenda step, on every LUN with no reclaim job,
//! [`Controller::gc_victim_possible`] answers what the policy's search
//! finds (drawing from a copy of the reclaim RNG). Debug rounds recount the
//! trigger's sets themselves (`check_gc_sets`).

use proptest::prelude::*;

use crate::config::{ControllerConfig, GcConfig, MappingKind, VictimPolicy};
use crate::driver::Driver;
use crate::types::RequestKind;

/// The guard and the search agree on every LUN with no reclaim job.
fn guard_agrees(d: &Driver, step: usize) -> Result<(), TestCaseError> {
    for (lun, found) in d.c.gc_victims_on_clone(d.now) {
        prop_assert_eq!(
            d.c.gc_victim_possible(lun),
            found.is_some(),
            "LUN {} at step {}: the search found {:?}",
            lun,
            step,
            found
        );
    }
    Ok(())
}

/// Fill the first `fill` pages in order, then write (and now and then
/// trim) `ops` over a hot range, `qd` requests in flight, checking the
/// guard after every submission and every agenda step.
fn check(cfg: ControllerConfig, fill: u64, ops: &[u64], qd: usize) -> Result<(), TestCaseError> {
    let mut d = Driver::tiny(cfg);
    let n = d.c.logical_pages();
    let hot = (n / 8).max(1);
    let reqs = (0..fill.min(n)).map(|lpn| (RequestKind::Write, lpn)).chain(ops.iter().map(|&s| {
        let kind = if s % 7 == 0 { RequestKind::Trim } else { RequestKind::Write };
        (kind, (s >> 3) % hot)
    }));
    let (mut submitted, mut step) = (0, 0);
    for (kind, lpn) in reqs {
        d.submit(kind, lpn);
        submitted += 1;
        guard_agrees(&d, step)?;
        while submitted - d.done.len() >= qd && d.step().is_some() {
            step += 1;
            guard_agrees(&d, step)?;
        }
    }
    while d.step().is_some() {
        step += 1;
        guard_agrees(&d, step)?;
    }
    d.c.check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn the_victim_guard_answers_what_the_search_finds(
        ops in prop::collection::vec(0u64..u64::MAX, 300..700),
        fill in 0u64..1_740,
        greediness in 2u32..6,
        qd in 1usize..24,
    ) {
        for victim in [VictimPolicy::Greedy, VictimPolicy::Random, VictimPolicy::CostBenefit] {
            for mapping in [MappingKind::PageMap, MappingKind::Dftl { cmt_entries: 24 }] {
                for checkpoint_interval_programs in [0, 48] {
                    let cfg = ControllerConfig {
                        mapping,
                        checkpoint_interval_programs,
                        gc: GcConfig { greediness, victim, ..GcConfig::default() },
                        ..ControllerConfig::default()
                    };
                    check(cfg, fill, &ops, qd)?;
                }
            }
        }
    }
}
