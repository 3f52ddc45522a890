//! Property tests: the flash array under random (but protocol-respecting)
//! command sequences maintains its bookkeeping invariants.

use proptest::prelude::*;

use eagletree_core::digest::{Fingerprint, Golden};
use eagletree_core::{SimDuration, SimRng, SimTime};
use eagletree_flash::{
    BlockAddr, FaultConfig, FlashArray, FlashCommand, FlashError, Geometry, OobEntry, OobTag,
    PageState, PhysicalAddr, TimingSpec,
};

/// Model of one block: how many pages programmed / invalidated.
#[derive(Clone, Copy, Default)]
struct BlockModel {
    programmed: u32,
    invalidated: u32,
    erases: u32,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Drive random program/invalidate/erase traffic against one LUN,
    /// always at legal instants, and check page-state bookkeeping agrees
    /// with an independent model.
    #[test]
    fn array_state_matches_model(seed in any::<u64>(), steps in 50usize..400) {
        let g = Geometry::tiny();
        let mut a = FlashArray::new(g, TimingSpec::slc());
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        let nblocks = g.blocks_per_plane;
        let mut model = vec![BlockModel::default(); nblocks as usize];

        let addr = |block: u32, page: u32| PhysicalAddr {
            channel: 0,
            lun: 0,
            plane: 0,
            block,
            page,
        };

        for _ in 0..steps {
            let b = rng.gen_range(nblocks as u64) as u32;
            let m = model[b as usize];
            match rng.gen_range(3) {
                0 => {
                    // Program the next page if the block has room.
                    if m.programmed < g.pages_per_block {
                        let out = a.issue(FlashCommand::Program(addr(b, m.programmed)), now)
                            .unwrap();
                        now = out.lun_free_at.max(out.channel_free_at);
                        model[b as usize].programmed += 1;
                    }
                }
                1 => {
                    // Invalidate a random still-valid page.
                    if m.invalidated < m.programmed {
                        // Find a valid page in the block.
                        let candidates: Vec<u32> = (0..m.programmed)
                            .filter(|&p| a.page_state(addr(b, p)) == PageState::Valid)
                            .collect();
                        if let Some(&p) = candidates.first() {
                            a.invalidate(addr(b, p));
                            model[b as usize].invalidated += 1;
                        }
                    }
                }
                _ => {
                    // Erase when fully invalidated.
                    if m.programmed > 0 && m.invalidated == m.programmed {
                        let out = a.issue(FlashCommand::Erase(addr(b, 0).block_addr()), now)
                            .unwrap();
                        now = out.lun_free_at;
                        model[b as usize] = BlockModel {
                            erases: m.erases + 1,
                            ..BlockModel::default()
                        };
                    }
                }
            }
        }

        // Model and array agree on every block.
        for b in 0..nblocks {
            let info = a.block_info(addr(b, 0).block_addr());
            let m = model[b as usize];
            prop_assert_eq!(info.write_ptr, m.programmed);
            prop_assert_eq!(info.live_pages, m.programmed - m.invalidated);
            prop_assert_eq!(info.erase_count, m.erases);
            // Page-state census agrees.
            let valid = (0..g.pages_per_block)
                .filter(|&p| a.page_state(addr(b, p)) == PageState::Valid)
                .count() as u32;
            prop_assert_eq!(valid, info.live_pages);
        }
        prop_assert_eq!(
            a.total_erases(),
            model.iter().map(|m| m.erases as u64).sum::<u64>()
        );
    }

    /// The page-index entry points and the `PhysicalAddr` ones are one
    /// rule reached two ways. Two clones of an array on a geometry whose
    /// every dimension is odd or not a power of two take the same random
    /// program / OOB / invalidate / erase / power-cut traffic, one through
    /// the index-keyed methods and one through the address-keyed ones.
    /// After it: each index accessor answers as its address wrapper, the
    /// clones hold the same page states, live counts and victim-index
    /// buckets, and each block's valid-page listing is the per-page filter.
    #[test]
    fn index_and_address_entry_points_agree(seed in any::<u64>(), steps in 100usize..600) {
        let g = Geometry {
            channels: 3,
            luns_per_channel: 3,
            planes_per_lun: 2,
            blocks_per_plane: 5,
            pages_per_block: 7,
            page_size: 4096,
        };
        let mut by_index = FlashArray::new(g, TimingSpec::slc());
        let mut by_addr = by_index.clone();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        let blocks: Vec<BlockAddr> = g.blocks().collect();
        for step in 0..steps {
            let b = blocks[rng.gen_range(blocks.len() as u64) as usize];
            let info = by_addr.block_info(b);
            match rng.gen_range(8) {
                0..=3 if info.write_ptr < g.pages_per_block && !info.bad => {
                    let addr = b.page(info.write_ptr);
                    let page = g.page_index(addr);
                    let cmd = FlashCommand::Program(addr);
                    let out = by_index.issue(cmd, now).unwrap();
                    prop_assert_eq!(by_addr.issue(cmd, now).unwrap(), out);
                    let tag = OobTag::Data { lpn: step as u64 };
                    let entry = OobEntry { tag, seq: 1, stamp: 1 };
                    by_index.set_oob_at(page, entry);
                    by_addr.set_oob(addr, entry);
                    if rng.gen_range(16) == 0 {
                        // Cut mid-program: the page is torn.
                        prop_assert_eq!(by_index.power_cut(now), by_addr.power_cut(now));
                    } else {
                        now = out.lun_free_at;
                    }
                }
                0..=5 => {
                    let valid = by_addr.valid_pages_in(b);
                    if !valid.is_empty() {
                        let addr = valid[rng.gen_range(valid.len() as u64) as usize];
                        by_index.invalidate_at(g.page_index(addr));
                        by_addr.invalidate(addr);
                    }
                }
                _ if info.write_ptr > 0 && info.live_pages == 0 => {
                    let cmd = FlashCommand::Erase(b);
                    let out = by_index.issue(cmd, now).unwrap();
                    prop_assert_eq!(by_addr.issue(cmd, now).unwrap(), out);
                    now = out.lun_free_at;
                }
                _ => {}
            }
        }
        for page in 0..g.total_pages() {
            let addr = g.page_at(page);
            for a in [&by_index, &by_addr] {
                prop_assert_eq!(a.page_state_at(page), a.page_state(addr));
                prop_assert_eq!(a.oob_at(page), a.oob(addr));
                prop_assert_eq!(a.is_torn_at(page), a.is_torn(addr));
            }
            prop_assert_eq!(by_index.page_state_at(page), by_addr.page_state(addr));
            prop_assert_eq!(by_index.oob_at(page), by_addr.oob(addr));
        }
        for &b in &blocks {
            let (i, a) = (by_index.block_info(b), by_addr.block_info(b));
            prop_assert_eq!((i.live_pages, i.write_ptr), (a.live_pages, a.write_ptr));
            let filtered: Vec<PhysicalAddr> = (0..g.pages_per_block)
                .map(|p| b.page(p))
                .filter(|&a| by_index.page_state(a) == PageState::Valid)
                .collect();
            prop_assert_eq!(by_index.valid_pages_in(b), filtered);
        }
        for lun in 0..g.total_luns() {
            for live in 0..=g.pages_per_block {
                let bucket = |a: &FlashArray| a.blocks_with_live(lun, live).collect::<Vec<_>>();
                prop_assert_eq!(bucket(&by_index), bucket(&by_addr));
            }
            prop_assert_eq!(by_index.reclaimable_on(lun), by_addr.reclaimable_on(lun));
        }
    }
}

/// One run of [`can_issue_agrees_with_issue`]: `steps` attempts of a random
/// verb at a random instant on a two-plane device. Each attempt targets
/// what the array holds often enough to reach every outcome: a written
/// page, the held register, the next page, a block emptied first — and
/// otherwise whatever is at hand. Writes every result to `out`.
fn admission_run(seed: u64, faults: bool, steps: usize, out: &mut String) {
    let g = Geometry { planes_per_lun: 2, ..Geometry::tiny() };
    let mut a = FlashArray::new(g, TimingSpec::slc());
    if faults {
        // Reads above ECC on the first tier, so most retry.
        a.install_fault_model(FaultConfig {
            seed,
            raw_bits_base: 12.0,
            retry_error_scale: 0.3,
            program_fail_base: 0.02,
            erase_fail_base: 0.05,
            ..FaultConfig::default()
        });
    }
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut pick = |bound: u32| rng.gen_range(bound.into()) as u32;
    for _ in 0..steps {
        // A quarter of the attempts land at the instant of the last one.
        if pick(4) > 0 {
            now += SimDuration::from_nanos(pick(400_000).into());
        }
        let lun = pick(g.total_luns());
        let (channel, lun) = (lun / g.luns_per_channel, lun % g.luns_per_channel);
        let block = |plane, block| BlockAddr { channel, lun, plane, block };
        let (plane, b) = (pick(g.planes_per_lun), pick(4));
        let written = a.block_info(block(plane, b)).write_ptr;
        let next = |a: &FlashArray, b: BlockAddr| match a.block_info(b).write_ptr {
            wp if wp < g.pages_per_block => wp,
            _ => 0,
        };
        let cmd = match pick(5) {
            0 => FlashCommand::ReadStart(block(plane, b).page(pick(written.max(1)))),
            1 => match a.lun_holding(channel, lun) {
                Some(held) if pick(4) > 0 => FlashCommand::TransferOut(held),
                _ => FlashCommand::TransferOut(block(plane, b).page(pick(written.max(1)))),
            },
            2 => {
                let page = match pick(8) {
                    0 => pick(g.pages_per_block),
                    _ => next(&a, block(plane, b)),
                };
                FlashCommand::Program(block(plane, b).page(page))
            }
            3 => {
                if pick(4) > 0 {
                    for addr in a.valid_pages_in(block(plane, b)) {
                        a.invalidate(addr);
                    }
                }
                FlashCommand::Erase(block(plane, b))
            }
            _ => {
                let to = block(pick(g.planes_per_lun), (b + 1 + pick(3)) % 4);
                FlashCommand::CopyBack {
                    from: block(plane, b).page(pick(written.max(1))),
                    to: to.page(next(&a, to)),
                }
            }
        };
        let can = a.can_issue(&cmd, now);
        let result = a.issue(cmd, now);
        let resource = matches!(
            result,
            Err(FlashError::ChannelBusy { .. }
                | FlashError::LunBusy { .. }
                | FlashError::NoPendingData { .. })
        );
        assert_eq!(resource, !can, "{cmd:?} at {now:?}: can_issue {can}, issue {result:?}");
        if let Ok(out) = &result {
            assert!(out.channel_free_at >= now && out.channel_free_at <= out.done_at, "{out:?}");
            assert_eq!(out.lun_free_at, out.done_at, "{cmd:?}");
        }
        *out += &format!("{result:?};");
    }
}

/// `can_issue` is `issue`'s resource test, for every verb at random
/// instants with and without a fault model: `issue` fails for a busy
/// channel, a busy LUN or an empty register exactly when `can_issue` says
/// no, and succeeds or fails on state grounds exactly when it says yes.
/// The outcomes themselves are pinned by `goldens/admission.txt`, one
/// section per run.
#[test]
fn can_issue_agrees_with_issue() {
    let mut fp = Fingerprint::default();
    for case in 0..32u64 {
        for (faults, name) in [(false, "clean"), (true, "faulty")] {
            admission_run(0xAD_0000 + case, faults, 300, fp.section(format!("case{case}_{name}")));
        }
    }
    let mut golden = Golden::new(env!("CARGO_TARGET_TMPDIR"), "admission");
    golden.record("tiny_2plane", "random_verbs", fp);
    golden.check(include_str!("goldens/admission.txt"));
}
