//! Garbage-collection victim selection and job bookkeeping.
//!
//! The trigger policy lives in the controller ("keep `greediness` blocks
//! free on each LUN", §2.2); this module answers *which block* to reclaim
//! once triggered, under three classic policies, and tracks the per-victim
//! migration state machine. Under the hybrid log-block FTL, generic
//! reclamation is replaced by merges; [`MergeJob`] tracks that multi-fold
//! state machine here, next to its reclaim sibling.

use eagletree_core::{SimRng, SimTime};
use eagletree_flash::{BlockAddr, FlashArray};

use crate::config::VictimPolicy;
use crate::types::IoSource;

/// Pick a GC victim on `lun` (linear index), or `None` if no block is
/// reclaimable. `skip` excludes free blocks, active allocation targets and
/// blocks already being collected.
///
/// Selection runs against the flash array's incremental victim index
/// (live-page bucket lists maintained from program/invalidate/erase
/// deltas) and allocates nothing:
///
/// * `Greedy` (the default) pops the lowest non-empty bucket — O(bucket)
///   instead of O(blocks-per-LUN);
/// * `Random` still walks the LUN's blocks — twice, in address order, to
///   preserve the pre-index candidate numbering so fixed-seed victim
///   sequences are unchanged — but each probe is an O(1) index-membership
///   test instead of a `BlockInfo` fetch, and no candidate `Vec` is built;
/// * `CostBenefit` walks the LUN once, scoring each candidate exactly
///   once (`block_info` fetched only for blocks that pass the index
///   test).
///
/// Tie-breaks are identical to the historical full-scan implementation:
/// Greedy minimizes `(live, address)`, CostBenefit maximizes score with
/// ties to the smallest address.
pub fn pick_victim(
    array: &FlashArray,
    lun: u32,
    policy: VictimPolicy,
    skip: impl Fn(BlockAddr) -> bool,
    rng: &mut SimRng,
    now: SimTime,
) -> Option<BlockAddr> {
    // Nothing reclaimable (a freshly filled LUN: every block fully live):
    // no policy finds a victim, and none draws from `rng` before knowing.
    if array.reclaimable_on(lun) == 0 {
        return None;
    }
    let g = *array.geometry();
    let channel = lun / g.luns_per_channel;
    let lun_in_ch = lun % g.luns_per_channel;
    let ppb = g.pages_per_block;
    // Candidates in the historical scan order: (plane, block) ascending,
    // i.e. address order within the LUN.
    let lun_blocks = move || {
        (0..g.planes_per_lun).flat_map(move |plane| {
            (0..g.blocks_per_plane).map(move |block| BlockAddr {
                channel,
                lun: lun_in_ch,
                plane,
                block,
            })
        })
    };

    match policy {
        VictimPolicy::Greedy => {
            // Lowest non-empty bucket wins; ties break to the smallest
            // address. Buckets are unordered, so scan the winning bucket
            // for its minimum — still O(bucket), not O(LUN).
            for live in 0..ppb {
                let best = array
                    .blocks_with_live(lun, live)
                    .filter(|&b| !skip(b))
                    .min();
                if best.is_some() {
                    return best;
                }
            }
            None
        }
        VictimPolicy::Random => {
            let count = lun_blocks()
                .filter(|&b| array.is_reclaimable(b) && !skip(b))
                .count();
            if count == 0 {
                return None;
            }
            let i = rng.gen_range(count as u64) as usize;
            lun_blocks()
                .filter(|&b| array.is_reclaimable(b) && !skip(b))
                .nth(i)
        }
        VictimPolicy::CostBenefit => {
            let mut best: Option<(BlockAddr, f64)> = None;
            for b in lun_blocks() {
                if !array.is_reclaimable(b) || skip(b) {
                    continue;
                }
                let info = array.block_info(b);
                let u = info.live_pages as f64 / ppb as f64;
                let age = now.saturating_since(info.last_erase).as_nanos() as f64;
                let score = if u == 0.0 {
                    f64::INFINITY
                } else {
                    age * (1.0 - u) / (2.0 * u)
                };
                // Strictly-greater keeps the first (smallest-address)
                // candidate among equal scores.
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((b, score));
                }
            }
            best.map(|(b, _)| b)
        }
    }
}

/// A reclamation job: migrate a victim's live pages, then erase it.
///
/// Shared by garbage collection and static wear leveling (which differ only
/// in trigger and [`IoSource`]).
#[derive(Debug, Clone)]
pub struct ReclaimJob {
    /// Block being reclaimed.
    pub victim: BlockAddr,
    /// Linear LUN index of the victim.
    pub lun: u32,
    /// GC or WL (controls the op classes of its flash traffic).
    pub source: IoSource,
    /// Page moves still outstanding (issued or queued).
    pub moves_left: u32,
    /// Set once the erase op has been enqueued.
    pub erase_enqueued: bool,
}

impl ReclaimJob {
    pub fn new(victim: BlockAddr, lun: u32, source: IoSource, moves: u32) -> Self {
        ReclaimJob {
            victim,
            lun,
            source,
            moves_left: moves,
            erase_enqueued: false,
        }
    }

    /// Record a finished (or skipped) page move; true when the victim is
    /// ready to erase.
    pub fn move_done(&mut self) -> bool {
        debug_assert!(self.moves_left > 0, "more moves completed than planned");
        self.moves_left -= 1;
        self.moves_left == 0
    }
}

/// One fold of a hybrid merge: rebuild logical block `lbn` at a
/// destination block, page by page in offset order.
#[derive(Debug, Clone, Copy)]
pub struct FoldPlan {
    /// Logical block to fold.
    pub lbn: u64,
    /// Reuse this block (the SW log block) as the destination, programming
    /// from `start` on. `None`: fold into a fresh block from offset 0.
    pub reuse: Option<crate::types::Ppn>,
    /// First offset the fold must program (the log block's fill pointer
    /// when reusing, 0 otherwise).
    pub start: u32,
}

/// The in-progress fold of a [`MergeJob`]: one copy step in flight at a
/// time so destination programs stay in NAND page order.
#[derive(Debug, Clone, Copy)]
pub struct FoldState {
    /// Logical block being folded.
    pub lbn: u64,
    /// Base PPN of the destination block.
    pub dest: crate::types::Ppn,
    /// Next offset to copy (or fill) into the destination.
    pub next: u32,
    /// One past the last offset to process.
    pub end: u32,
}

/// A hybrid-FTL merge: a sequence of folds, then the victim log block's
/// erase. Each copy flows through the controller scheduler as
/// `MergeRead`/`MergeWrite` (or `WlRead`/`WlWrite` for wear-leveling
/// refresh merges) operations, so merges compete with application IO.
#[derive(Debug, Clone)]
pub struct MergeJob {
    /// GC-driven merge or WL-driven refresh (controls op classes and
    /// which erase counter the job's erases land in).
    pub source: IoSource,
    /// Log block erased once every fold has finished.
    pub victim: Option<crate::types::Ppn>,
    /// Folds still to run, in order (front first).
    pub folds: std::collections::VecDeque<FoldPlan>,
    /// The fold currently executing.
    pub cur: Option<FoldState>,
    /// Set once the victim's erase op has been enqueued.
    pub victim_erase_enqueued: bool,
    /// The job found no free destination block and is parked until an
    /// erase returns one (checked by the controller's maintenance pass).
    pub waiting_for_block: bool,
}

impl MergeJob {
    /// A merge reclaiming `victim` via the given folds.
    pub fn new(
        source: IoSource,
        victim: Option<crate::types::Ppn>,
        folds: Vec<FoldPlan>,
    ) -> Self {
        MergeJob {
            source,
            victim,
            folds: folds.into(),
            cur: None,
            victim_erase_enqueued: false,
            waiting_for_block: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_core::SimTime;
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

    /// Fill `block` with `ppb` programs, then invalidate `kill` of them.
    fn fill_block(a: &mut FlashArray, block: u32, kill: u32) -> SimTime {
        let ppb = a.geometry().pages_per_block;
        let mut now = a.lun_free_at(0, 0).max(a.channel_free_at(0));
        for p in 0..ppb {
            let out = a.issue(FlashCommand::Program(addr(block, p)), now).unwrap();
            now = out.lun_free_at;
        }
        for p in 0..kill {
            a.invalidate(addr(block, p));
        }
        now
    }

    #[test]
    fn greedy_picks_fewest_live() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        fill_block(&mut a, 0, 2);
        fill_block(&mut a, 1, 10);
        let now = fill_block(&mut a, 2, 5);
        let mut rng = SimRng::new(1);
        let v = pick_victim(&a, 0, VictimPolicy::Greedy, |_| false, &mut rng, now).unwrap();
        assert_eq!(v.block, 1);
    }

    #[test]
    fn skip_excludes_blocks() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        fill_block(&mut a, 0, 2);
        let now = fill_block(&mut a, 1, 10);
        let mut rng = SimRng::new(1);
        let v = pick_victim(
            &a,
            0,
            VictimPolicy::Greedy,
            |b| b.block == 1,
            &mut rng,
            now,
        )
        .unwrap();
        assert_eq!(v.block, 0);
    }

    #[test]
    fn no_candidates_returns_none() {
        let a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        let mut rng = SimRng::new(1);
        assert_eq!(
            pick_victim(
                &a,
                0,
                VictimPolicy::Greedy,
                |_| false,
                &mut rng,
                SimTime::ZERO
            ),
            None
        );
    }

    #[test]
    fn fully_valid_blocks_are_not_victims() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        let now = fill_block(&mut a, 0, 0); // all 16 pages valid
        let mut rng = SimRng::new(1);
        assert_eq!(
            pick_victim(&a, 0, VictimPolicy::Greedy, |_| false, &mut rng, now),
            None
        );
    }

    #[test]
    fn random_always_picks_a_candidate() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        fill_block(&mut a, 0, 3);
        let now = fill_block(&mut a, 1, 3);
        let mut rng = SimRng::new(42);
        for _ in 0..20 {
            let v =
                pick_victim(&a, 0, VictimPolicy::Random, |_| false, &mut rng, now).unwrap();
            assert!(v.block == 0 || v.block == 1);
        }
    }

    #[test]
    fn cost_benefit_prefers_empty_then_age() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
        let ppb = a.geometry().pages_per_block;
        fill_block(&mut a, 0, ppb); // fully invalid → u = 0 → infinite score
        let now = fill_block(&mut a, 1, 2);
        let mut rng = SimRng::new(7);
        let v =
            pick_victim(&a, 0, VictimPolicy::CostBenefit, |_| false, &mut rng, now).unwrap();
        assert_eq!(v.block, 0);
    }

    #[test]
    fn reclaim_job_counts_down() {
        let victim = BlockAddr {
            channel: 0,
            lun: 0,
            plane: 0,
            block: 0,
        };
        let mut j = ReclaimJob::new(victim, 0, IoSource::GarbageCollection, 3);
        assert!(!j.move_done());
        assert!(!j.move_done());
        assert!(j.move_done());
    }
}
