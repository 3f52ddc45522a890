//! Static wear leveling.
//!
//! Per §2.2, the default WL module tracks "(1) the ages of all blocks, (2) a
//! timestamp for each block marking the time in which it was last erased,
//! (3) the average length of time it takes a block to be erased, and (4)
//! the current time", and uses them to "identify particularly young blocks
//! that have not been erased for a very long time" — blocks pinning cold
//! data — and migrate that data away so the block can absorb hot writes.
//! (Dynamic wear leveling — age-aware free-block allocation — lives in the
//! allocator.)
//!
//! The victim picker is mapping-agnostic: page-mapped schemes relocate the
//! victim's pages via a generic reclaim job, while the hybrid log-block
//! FTL — whose data blocks must keep pages at their logical offsets —
//! refreshes the victim with a *merge* (fold the logical block to a fresh
//! destination, then erase), driven by the controller with the same
//! `WlRead`/`WlWrite` op classes. Callers select eligible blocks through
//! the `skip` closure: the hybrid controller, for instance, excludes log
//! blocks and anything that is not a registered data block.

use eagletree_core::{SimDuration, SimTime};
use eagletree_flash::{BlockAddr, FlashArray};

use crate::config::WlConfig;

/// Summary of wear across the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    pub min_erases: u32,
    pub max_erases: u32,
    pub mean_erases: f64,
    pub stddev_erases: f64,
}

/// Compute the erase-count distribution summary.
///
/// A degenerate array with zero blocks yields the all-zero summary (a
/// fresh-array lookalike), never NaN — downstream reports feed these
/// fields straight into JSON, where NaN is unrepresentable.
pub fn wear_summary(array: &FlashArray) -> WearSummary {
    summarize(&array.erase_counts())
}

fn summarize(counts: &[u32]) -> WearSummary {
    if counts.is_empty() {
        return WearSummary {
            min_erases: 0,
            max_erases: 0,
            mean_erases: 0.0,
            stddev_erases: 0.0,
        };
    }
    let n = counts.len() as f64;
    let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    WearSummary {
        min_erases: counts.iter().copied().min().unwrap_or(0),
        max_erases: counts.iter().copied().max().unwrap_or(0),
        mean_erases: mean,
        stddev_erases: var.sqrt(),
    }
}

/// Identify a static-WL victim: a block whose erase count trails the
/// maximum by at least `young_delta` and which has not been erased for
/// `idle_factor ×` the fleet-average inter-erase gap.
///
/// Returns the most deserving victim (youngest, then longest idle), or
/// `None` when wear is balanced. `skip` excludes free blocks, active
/// allocation targets, and blocks already being reclaimed.
pub fn pick_wl_victim(
    array: &FlashArray,
    now: SimTime,
    cfg: &WlConfig,
    skip: impl Fn(BlockAddr) -> bool,
) -> Option<BlockAddr> {
    let total_erases = array.total_erases();
    if total_erases == 0 {
        return None;
    }
    let g = *array.geometry();
    let max_erases = array.erase_counts().into_iter().max().unwrap_or(0);
    // Average time between erases of a single block, fleet-wide: elapsed
    // time divided by erases-per-block. Clamped to at least one erase per
    // block so that sparse early erase activity does not push the idle
    // floor beyond any reachable horizon.
    let erases_per_block = (total_erases as f64 / g.total_blocks() as f64).max(1.0);
    let avg_gap_ns = now.as_nanos() as f64 / erases_per_block;
    let idle_floor_ns = SimDuration::from_nanos_f64(cfg.idle_factor * avg_gap_ns).as_nanos();

    g.blocks()
        .filter(|&b| !skip(b))
        .filter_map(|b| {
            let info = array.block_info(b);
            // Must be serviceable and hold data worth migrating.
            if info.bad || info.write_ptr == 0 {
                return None;
            }
            let young = max_erases.saturating_sub(info.erase_count) >= cfg.young_delta;
            let idle_ns = now.saturating_since(info.last_erase).as_nanos();
            if young && idle_ns >= idle_floor_ns {
                Some((b, info.erase_count, idle_ns))
            } else {
                None
            }
        })
        // Most deserving: fewest erases, then longest idle; address breaks
        // ties deterministically.
        .min_by_key(|&(b, erases, idle)| (erases, std::cmp::Reverse(idle), b))
        .map(|(b, _, _)| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_core::SimDuration;
    use eagletree_flash::{FlashCommand, Geometry, PhysicalAddr, TimingSpec};

    fn addr(block: u32, page: u32) -> PhysicalAddr {
        PhysicalAddr {
            channel: 0,
            lun: 0,
            plane: 0,
            block,
            page,
        }
    }

    /// Program one page into `block` then cycle (invalidate + erase) it
    /// `cycles` times to inflate its erase count.
    fn cycle_block(a: &mut FlashArray, block: u32, cycles: u32) {
        for _ in 0..cycles {
            let now = a.lun_free_at(0, 0).max(a.channel_free_at(0));
            let out = a.issue(FlashCommand::Program(addr(block, 0)), now).unwrap();
            a.invalidate(addr(block, 0));
            a.issue(FlashCommand::Erase(addr(block, 0).block_addr()), out.lun_free_at)
                .unwrap();
        }
    }

    #[test]
    fn wear_summary_of_fresh_array_is_zero() {
        let a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        let s = wear_summary(&a);
        assert_eq!(s.min_erases, 0);
        assert_eq!(s.max_erases, 0);
        assert_eq!(s.mean_erases, 0.0);
        assert_eq!(s.stddev_erases, 0.0);
    }

    #[test]
    fn summary_of_no_blocks_is_zeroed_not_nan() {
        let s = summarize(&[]);
        assert_eq!(s.min_erases, 0);
        assert_eq!(s.max_erases, 0);
        assert_eq!(s.mean_erases, 0.0);
        assert_eq!(s.stddev_erases, 0.0);
        assert!(s.mean_erases.is_finite() && s.stddev_erases.is_finite());
    }

    #[test]
    fn summary_tracks_skewed_wear() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        cycle_block(&mut a, 0, 10);
        let s = wear_summary(&a);
        assert_eq!(s.max_erases, 10);
        assert_eq!(s.min_erases, 0);
        assert!(s.stddev_erases > 0.0);
    }

    #[test]
    fn no_victim_before_any_erase() {
        let a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        let cfg = WlConfig::default();
        assert_eq!(
            pick_wl_victim(&a, SimTime::from_nanos(1_000_000), &cfg, |_| false),
            None
        );
    }

    #[test]
    fn young_idle_block_with_data_is_victim() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        // Block 1 holds cold data written once, long ago.
        let out = a
            .issue(FlashCommand::Program(addr(1, 0)), SimTime::ZERO)
            .unwrap();
        let _ = out;
        // Block 0 churns: its erase count races ahead.
        cycle_block(&mut a, 0, 12);
        let cfg = WlConfig {
            young_delta: 8,
            idle_factor: 0.5,
            ..WlConfig::default()
        };
        let far_future = SimTime::ZERO + SimDuration::from_secs(100);
        let v = pick_wl_victim(&a, far_future, &cfg, |_| false).unwrap();
        assert_eq!(v.block, 1);
    }

    #[test]
    fn balanced_wear_produces_no_victim() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        cycle_block(&mut a, 0, 3);
        cycle_block(&mut a, 1, 3);
        // Leave data in block 1 so it would qualify if young.
        let now = a.lun_free_at(0, 0);
        a.issue(FlashCommand::Program(addr(1, 0)), now).unwrap();
        let cfg = WlConfig {
            young_delta: 8,
            ..WlConfig::default()
        };
        let far = SimTime::ZERO + SimDuration::from_secs(100);
        assert_eq!(pick_wl_victim(&a, far, &cfg, |_| false), None);
    }

    #[test]
    fn skip_is_respected() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        a.issue(FlashCommand::Program(addr(1, 0)), SimTime::ZERO).unwrap();
        cycle_block(&mut a, 0, 12);
        let cfg = WlConfig {
            young_delta: 8,
            idle_factor: 0.5,
            ..WlConfig::default()
        };
        let far = SimTime::ZERO + SimDuration::from_secs(100);
        assert_eq!(
            pick_wl_victim(&a, far, &cfg, |b| b.block == 1 && b.channel == 0 && b.lun == 0),
            None
        );
    }

    #[test]
    fn empty_blocks_are_not_victims() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        cycle_block(&mut a, 0, 12);
        // All other blocks are empty (write_ptr = 0) → nothing to migrate.
        let cfg = WlConfig {
            young_delta: 8,
            idle_factor: 0.1,
            ..WlConfig::default()
        };
        let far = SimTime::ZERO + SimDuration::from_secs(100);
        assert_eq!(pick_wl_victim(&a, far, &cfg, |_| false), None);
    }
}
