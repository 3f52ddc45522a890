//! Victim-index oracle: the incremental per-LUN live-page bucket index
//! (maintained inside `FlashArray` from program/invalidate/erase deltas)
//! must agree with a from-scratch full-device scan, for every
//! `VictimPolicy`, after arbitrary operation sequences.
//!
//! The oracle below is the pre-index implementation of `pick_victim`
//! verbatim: build the candidate list by scanning every block of the LUN,
//! then select. Any divergence — a stale bucket, a missed unlink, a
//! changed tie-break — fails here with the generating seed. The per-LUN
//! reclaimable count that lets `pick_victim` return `None` without
//! looking is recounted from the blocks after every step.

use eagletree_controller::{gc::pick_victim, VictimPolicy};
use eagletree_core::{SimRng, SimTime};
use eagletree_flash::{BlockAddr, FlashArray, FlashCommand, Geometry, PhysicalAddr, TimingSpec};
use proptest::prelude::*;

/// The historical full-scan victim picker.
fn oracle_pick(
    array: &FlashArray,
    lun: u32,
    policy: VictimPolicy,
    skip: impl Fn(BlockAddr) -> bool,
    rng: &mut SimRng,
    now: SimTime,
) -> Option<BlockAddr> {
    let g = *array.geometry();
    let channel = lun / g.luns_per_channel;
    let lun_in_ch = lun % g.luns_per_channel;
    let ppb = g.pages_per_block;
    let candidates: Vec<(BlockAddr, u32)> = (0..g.planes_per_lun)
        .flat_map(|plane| {
            (0..g.blocks_per_plane).map(move |block| BlockAddr {
                channel,
                lun: lun_in_ch,
                plane,
                block,
            })
        })
        .filter(|&b| !skip(b))
        .filter_map(|b| {
            let info = array.block_info(b);
            if !info.bad && info.write_ptr > 0 && info.live_pages < ppb {
                Some((b, info.live_pages))
            } else {
                None
            }
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    match policy {
        VictimPolicy::Greedy => candidates
            .into_iter()
            .min_by_key(|&(b, live)| (live, b))
            .map(|(b, _)| b),
        VictimPolicy::Random => {
            let i = rng.gen_range(candidates.len() as u64) as usize;
            Some(candidates[i].0)
        }
        VictimPolicy::CostBenefit => candidates
            .into_iter()
            .map(|(b, live)| {
                let u = live as f64 / ppb as f64;
                let age =
                    now.saturating_since(array.block_info(b).last_erase).as_nanos() as f64;
                let score = if u == 0.0 {
                    f64::INFINITY
                } else {
                    age * (1.0 - u) / (2.0 * u)
                };
                (b, score)
            })
            .max_by(|&(ba, sa), &(bb, sb)| {
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| bb.cmp(&ba))
            })
            .map(|(b, _)| b),
    }
}

fn geometry() -> Geometry {
    Geometry {
        channels: 2,
        luns_per_channel: 1,
        planes_per_lun: 2,
        blocks_per_plane: 8,
        pages_per_block: 4,
        page_size: 4096,
    }
}

/// Drive `array` with `ops` random-but-valid program / invalidate / erase
/// steps; returns the final virtual time.
fn random_history(array: &mut FlashArray, steps: &[u64]) -> SimTime {
    let g = *array.geometry();
    let mut now = SimTime::ZERO;
    for &step in steps {
        // Advance past every resource so any command can issue.
        for ch in 0..g.channels {
            now = now.max(array.channel_free_at(ch));
            for l in 0..g.luns_per_channel {
                now = now.max(array.lun_free_at(ch, l));
            }
        }
        let choice = step % 3;
        let mut rng = SimRng::new(step ^ 0xA5A5);
        match choice {
            0 => {
                // Program the next page of some non-full, non-bad block.
                let open: Vec<BlockAddr> = g
                    .blocks()
                    .filter(|&b| {
                        let i = array.block_info(b);
                        !i.bad && i.write_ptr < g.pages_per_block
                    })
                    .collect();
                if let Some(&b) = pick(&open, &mut rng) {
                    let page = array.block_info(b).write_ptr;
                    array.issue(FlashCommand::Program(b.page(page)), now).unwrap();
                }
            }
            1 => {
                // Invalidate some valid page.
                let valid: Vec<PhysicalAddr> = g
                    .blocks()
                    .flat_map(|b| array.valid_pages_in(b))
                    .collect();
                if let Some(&p) = pick(&valid, &mut rng) {
                    array.invalidate(p);
                }
            }
            _ => {
                // Erase some dead, previously-programmed block.
                let dead: Vec<BlockAddr> = g
                    .blocks()
                    .filter(|&b| {
                        let i = array.block_info(b);
                        !i.bad && i.write_ptr > 0 && i.live_pages == 0
                    })
                    .collect();
                if let Some(&b) = pick(&dead, &mut rng) {
                    array.issue(FlashCommand::Erase(b), now).unwrap();
                }
            }
        }
        check_reclaimable_counts(array);
    }
    for ch in 0..g.channels {
        now = now.max(array.channel_free_at(ch));
        for l in 0..g.luns_per_channel {
            now = now.max(array.lun_free_at(ch, l));
        }
    }
    now
}

/// `reclaimable_on` against a recount over every block of every LUN.
fn check_reclaimable_counts(array: &FlashArray) {
    let g = *array.geometry();
    let mut recount = vec![0u32; g.total_luns() as usize];
    for b in g.blocks() {
        let info = array.block_info(b);
        if !info.bad && info.write_ptr > 0 && info.live_pages < g.pages_per_block {
            recount[g.lun_index(b.channel, b.lun) as usize] += 1;
        }
    }
    for lun in 0..g.total_luns() {
        assert_eq!(
            array.reclaimable_on(lun),
            recount[lun as usize],
            "reclaimable count of lun {lun} drifted from the blocks"
        );
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut SimRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(items.len() as u64) as usize])
    }
}

const POLICIES: [VictimPolicy; 3] = [
    VictimPolicy::Greedy,
    VictimPolicy::Random,
    VictimPolicy::CostBenefit,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn index_agrees_with_full_scan_oracle(
        steps in prop::collection::vec(0u64..u64::MAX, 1..160),
        seed in 0u64..u64::MAX,
    ) {
        let g = geometry();
        let mut array = FlashArray::new(g, TimingSpec::slc());
        let now = random_history(&mut array, &steps);
        for policy in POLICIES {
            for lun in 0..g.total_luns() {
                // No skips: the pure index-vs-scan comparison.
                let mut rng_a = SimRng::new(seed);
                let mut rng_b = SimRng::new(seed);
                let via_index =
                    pick_victim(&array, lun, policy, |_| false, &mut rng_a, now);
                let via_scan =
                    oracle_pick(&array, lun, policy, |_| false, &mut rng_b, now);
                prop_assert_eq!(
                    via_index, via_scan,
                    "policy {:?} lun {} diverged without skips", policy, lun
                );

                // With a skip set (as the controller applies for active /
                // in-flight blocks): exclude a pseudo-random third of blocks.
                let skip =
                    |b: BlockAddr| (g.block_index(b).wrapping_mul(seed | 1)).is_multiple_of(3);
                let mut rng_a = SimRng::new(seed ^ 0xF00D);
                let mut rng_b = SimRng::new(seed ^ 0xF00D);
                let via_index = pick_victim(&array, lun, policy, skip, &mut rng_a, now);
                let via_scan = oracle_pick(&array, lun, policy, skip, &mut rng_b, now);
                prop_assert_eq!(
                    via_index, via_scan,
                    "policy {:?} lun {} diverged with skips", policy, lun
                );
                // Both sides must consume the RNG identically (Random draws
                // once from the same candidate count) or victim sequences
                // would drift over a run even with equal single picks.
                prop_assert_eq!(rng_a.gen_range(1 << 30), rng_b.gen_range(1 << 30));
            }
        }
    }

    #[test]
    fn wear_out_removes_blocks_from_index(cycles in 1u64..12) {
        // A block erased to death must never be offered again.
        let g = geometry();
        let spec = TimingSpec { endurance: cycles as u32, ..TimingSpec::slc() };
        let mut array = FlashArray::new(g, spec);
        let b = BlockAddr { channel: 0, lun: 0, plane: 0, block: 0 };
        let mut now = SimTime::ZERO;
        for _ in 0..cycles {
            let out = array.issue(FlashCommand::Program(b.page(0)), now).unwrap();
            array.invalidate(b.page(0));
            let out2 = array.issue(FlashCommand::Erase(b), out.lun_free_at).unwrap();
            now = out2.lun_free_at;
        }
        prop_assert!(array.block_info(b).bad);
        prop_assert!(!array.is_reclaimable(b));
        check_reclaimable_counts(&array);
        let mut rng = SimRng::new(1);
        for policy in POLICIES {
            prop_assert_eq!(
                pick_victim(&array, 0, policy, |_| false, &mut rng, now),
                None
            );
        }
    }
}
