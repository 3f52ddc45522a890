//! Deterministic media-fault model: probabilistic NAND failure modes.
//!
//! The array's baseline wear model is terminal only — a block dies when its
//! erase count hits the chip's endurance. Real NAND degrades long before
//! that: programs and erases fail transiently with probabilities that grow
//! with P/E cycles, and the raw bit-error rate of reads climbs with wear,
//! retention age (time since the page was programmed) and read disturb
//! (reads anywhere in a block stress its neighbours). The controller hides
//! most of this behind ECC and read-retry; what leaks through is extra
//! read latency, grown bad blocks, and — past the ECC strength — data loss.
//!
//! [`FaultModel`] injects all of these *deterministically*: every sample is
//! drawn from a [`SimRng`] seeded by hashing the model seed with the op's
//! physical address and the state that physically drives the failure mode
//! (erase count, read-disturb count, sim time). Two runs with the same
//! seed fault identically; a model that is not installed costs nothing
//! and changes nothing.
//!
//! The model is *advisory* for programs: the array applies the normal
//! state transition and reports [`FaultEvent::ProgramFailed`] alongside,
//! leaving the remap-vs-absorb policy to the controller (which knows
//! whether the program was allocator-backed or structure-owned). Erase
//! failures are applied by the array itself (the block is simply not
//! reset), because "did the erase happen" is medium state.

use eagletree_core::{SimRng, SimTime};

use crate::address::Geometry;
use crate::timing::CellType;

/// Knobs of the media-fault model. All probabilities are per-operation.
///
/// The defaults model a moderately worn MLC-class part: a handful of raw
/// bit errors per read at age zero (fully absorbed by ECC), failure rates
/// that only become visible after thousands of P/E cycles, and a 4-tier
/// read-retry ladder. Experiments age the device via [`FaultConfig::baseline_pe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the per-op hash; independent of the controller seed.
    pub seed: u64,
    /// Program-status failure probability at zero wear.
    pub program_fail_base: f64,
    /// Additional program-failure probability per P/E cycle.
    pub program_fail_per_pe: f64,
    /// Erase failure probability at zero wear.
    pub erase_fail_base: f64,
    /// Additional erase-failure probability per P/E cycle.
    pub erase_fail_per_pe: f64,
    /// Consecutive erase failures after which the block is retired
    /// (masked bad) instead of retried.
    pub erase_retire_after: u32,
    /// Expected raw bit errors per read at zero wear/retention/disturb.
    pub raw_bits_base: f64,
    /// Extra expected raw bit errors per P/E cycle of the block.
    pub raw_bits_per_pe: f64,
    /// Extra expected raw bit errors per second of retention age.
    pub raw_bits_per_retention_s: f64,
    /// Extra expected raw bit errors per read-disturb count on the block.
    pub raw_bits_per_disturb: f64,
    /// ECC strength: bits correctable per read attempt.
    pub ecc_bits: u32,
    /// Read-retry tiers after the initial attempt. Each retry charges a
    /// full extra array read (`t_cmd + t_read`) of latency.
    pub read_retries: u32,
    /// Each retry tier re-samples at this fraction of the error rate
    /// (shifted read thresholds recover most marginal pages).
    pub retry_error_scale: f64,
    /// Pre-aging: baseline P/E cycles added to every block's erase count
    /// in the error curves (device-age sweeps without simulating years).
    pub baseline_pe: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA_017,
            program_fail_base: 1e-4,
            program_fail_per_pe: 2e-7,
            erase_fail_base: 1e-4,
            erase_fail_per_pe: 2e-7,
            erase_retire_after: 3,
            raw_bits_base: 2.0,
            raw_bits_per_pe: 2e-3,
            raw_bits_per_retention_s: 0.05,
            raw_bits_per_disturb: 0.01,
            ecc_bits: 8,
            read_retries: 4,
            retry_error_scale: 0.5,
            baseline_pe: 0,
        }
    }
}

impl FaultConfig {
    /// A deliberately hostile profile for fault-path tests: failures every
    /// few hundred ops instead of every few million.
    pub fn aggressive() -> Self {
        FaultConfig {
            program_fail_base: 0.02,
            erase_fail_base: 0.05,
            raw_bits_base: 5.0,
            raw_bits_per_retention_s: 0.5,
            raw_bits_per_disturb: 0.05,
            ecc_bits: 6,
            read_retries: 2,
            ..FaultConfig::default()
        }
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("program_fail_base", self.program_fail_base),
            ("erase_fail_base", self.erase_fail_base),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        if self.retry_error_scale <= 0.0 || self.retry_error_scale >= 1.0 {
            return Err(format!(
                "retry_error_scale must be in (0,1), got {}",
                self.retry_error_scale
            ));
        }
        if self.erase_retire_after == 0 {
            return Err("erase_retire_after must be non-zero".into());
        }
        Ok(())
    }
}

/// ECC-path result of one read: how many raw bit errors were corrected,
/// how many retry tiers it took, and whether the page stayed unreadable
/// after the final tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadOutcome {
    /// Raw bit errors corrected on the successful attempt.
    pub corrected_bits: u32,
    /// Retry tiers consumed (0 = first attempt succeeded). Each tier adds
    /// a full array read of latency.
    pub retries: u32,
    /// Errors exceeded the ECC strength on every tier: the payload is lost.
    pub uncorrectable: bool,
}

/// A media fault that accompanied an otherwise-issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The read went through the ECC/retry path (possibly cleanly).
    Read(ReadOutcome),
    /// Program-status failure: the page burned without taking the data.
    /// Advisory — the controller decides remap-vs-absorb.
    ProgramFailed,
    /// The erase failed; the block was not reset. `retired` is set when
    /// the failure streak exhausted `erase_retire_after` and the array
    /// masked the block bad.
    EraseFailed { retired: bool },
}

/// Running totals of injected faults and their ECC-path outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Reads sampled through the ECC path.
    pub reads: u64,
    /// Raw bit errors corrected across all reads.
    pub corrected_bits: u64,
    /// Retry tiers consumed across all reads.
    pub read_retries: u64,
    /// Reads left uncorrectable after the final retry tier.
    pub uncorrectable_reads: u64,
    /// Program-status failures reported.
    pub program_fails: u64,
    /// Erase failures (transient and terminal).
    pub erase_fails: u64,
    /// Blocks retired as grown bad (program-fail marks and erase-failure
    /// streaks; endurance wear-out is counted separately by the array).
    pub grown_bad_blocks: u64,
}

/// Deterministic per-array fault injector. Lives inside the `FlashArray`
/// (cloned with it, so a `CrashImage` carries its fault state across a
/// remount) and is consulted from the array's single `issue()` choke point.
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    /// Cell-technology multiplier on the raw-bit-error curve.
    cell_factor: f64,
    /// When each page was programmed (retention-age input). Meaningful
    /// only while the page is written.
    programmed_at: Vec<SimTime>,
    /// When each block first took a program since its last erase (block
    /// retention age for the scrubber).
    block_programmed_at: Vec<SimTime>,
    /// Reads against each block since its last erase.
    read_disturb: Vec<u32>,
    /// Consecutive erase failures per block.
    erase_streak: Vec<u32>,
    /// Blocks marked for grown-bad retirement (program-status failure);
    /// the mark converts to a hard `bad` mask at the block's next erase.
    grown_bad: Vec<bool>,
    counters: FaultCounters,
}

/// Salts separating the per-op hash domains.
const SALT_READ: u64 = 0x52_45_41_44;
const SALT_PROG: u64 = 0x50_52_4F_47;
const SALT_ERASE: u64 = 0x45_52_41_53;
const SALT_OOB: u64 = 0x4F_4F_42;

/// Mix the model seed with op-specific state into a per-op RNG seed.
fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut h = seed ^ salt.rotate_left(17);
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a.rotate_left(29);
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ b.rotate_left(43);
    h
}

/// Knuth Poisson sampler, capped (λ far past the cap is saturated — the
/// read is uncorrectable regardless of the exact count).
fn poisson(rng: &mut SimRng, lambda: f64, cap: u32) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda >= cap as f64 {
        return cap;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_f64();
        if p <= l || k >= cap {
            return k;
        }
        k += 1;
    }
}

impl FaultModel {
    /// A model over `geometry` with `cfg`, for `cell`-type NAND.
    pub fn new(cfg: FaultConfig, geometry: &Geometry, cell: CellType) -> Self {
        cfg.validate().expect("invalid fault config");
        let blocks = geometry.total_blocks() as usize;
        FaultModel {
            cfg,
            cell_factor: match cell {
                CellType::Slc => 1.0,
                // MLC cells hold tighter voltage margins: markedly worse
                // raw-bit-error growth for the same stress.
                CellType::Mlc => 4.0,
            },
            programmed_at: vec![SimTime::ZERO; geometry.total_pages() as usize],
            block_programmed_at: vec![SimTime::ZERO; blocks],
            read_disturb: vec![0; blocks],
            erase_streak: vec![0; blocks],
            grown_bad: vec![false; blocks],
            counters: FaultCounters::default(),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Reads against `block` (linear index) since its last erase.
    pub fn read_disturb(&self, block: u64) -> u32 {
        self.read_disturb[block as usize]
    }

    /// When `block` (linear index) first took a program since its last
    /// erase; `SimTime::ZERO` for never-programmed blocks.
    pub fn block_programmed_at(&self, block: u64) -> SimTime {
        self.block_programmed_at[block as usize]
    }

    /// Whether `block` (linear index) carries a grown-bad mark awaiting
    /// retirement at its next erase.
    pub fn is_grown_bad(&self, block: u64) -> bool {
        self.grown_bad[block as usize]
    }

    /// Expected raw bit errors for a read of `page` in `block` at `now`.
    fn read_lambda(&self, page: u64, block: u64, pe: u32, now: SimTime) -> f64 {
        let c = &self.cfg;
        let pe = (pe + c.baseline_pe) as f64;
        let age_s = now
            .saturating_since(self.programmed_at[page as usize])
            .as_secs_f64();
        let disturb = self.read_disturb[block as usize] as f64;
        self.cell_factor
            * (c.raw_bits_base
                + c.raw_bits_per_pe * pe
                + c.raw_bits_per_retention_s * age_s
                + c.raw_bits_per_disturb * disturb)
    }

    /// Sample the ECC path of a read of `page` in `block` (both linear
    /// indices) with `pe` erases on the block, at sim time `now`. Bumps
    /// the block's read-disturb counter and the fault counters.
    pub fn sample_read(&mut self, page: u64, block: u64, pe: u32, now: SimTime) -> ReadOutcome {
        let lambda = self.read_lambda(page, block, pe, now);
        self.read_disturb[block as usize] += 1;
        let mut rng = SimRng::new(mix(
            self.cfg.seed,
            SALT_READ,
            page,
            now.as_nanos() ^ ((self.read_disturb[block as usize] as u64) << 40),
        ));
        let cap = self.cfg.ecc_bits.saturating_mul(4).saturating_add(16);
        let mut out = ReadOutcome::default();
        let mut tier_lambda = lambda;
        for tier in 0..=self.cfg.read_retries {
            let raw = poisson(&mut rng, tier_lambda, cap);
            if raw <= self.cfg.ecc_bits {
                out.corrected_bits = raw;
                out.retries = tier;
                self.counters.reads += 1;
                self.counters.corrected_bits += raw as u64;
                self.counters.read_retries += tier as u64;
                return out;
            }
            tier_lambda *= self.cfg.retry_error_scale;
        }
        out.retries = self.cfg.read_retries;
        out.uncorrectable = true;
        self.counters.reads += 1;
        self.counters.read_retries += self.cfg.read_retries as u64;
        self.counters.uncorrectable_reads += 1;
        out
    }

    /// Whether the spare area of `page` is unreadable at mount time.
    /// Pure (no counter updates): recovery may probe pages repeatedly.
    /// Spare areas carry their own (weaker) ECC, so this reuses the read
    /// curve in a separate hash domain without the retry ladder.
    pub fn oob_uncorrectable(&self, page: u64, block: u64, pe: u32, now: SimTime) -> bool {
        let lambda = self.read_lambda(page, block, pe, now);
        let mut rng = SimRng::new(mix(self.cfg.seed, SALT_OOB, page, now.as_nanos()));
        poisson(&mut rng, lambda, self.cfg.ecc_bits.saturating_mul(4).saturating_add(16))
            > self.cfg.ecc_bits
    }

    /// Sample a program-status failure for a program of `page` (linear
    /// index) into a block with `pe` erases. On failure the block is
    /// marked grown bad (retired at its next erase).
    pub fn sample_program(&mut self, page: u64, block: u64, pe: u32) -> bool {
        let c = &self.cfg;
        let p = c.program_fail_base + c.program_fail_per_pe * (pe + c.baseline_pe) as f64;
        let mut rng = SimRng::new(mix(self.cfg.seed, SALT_PROG, page, pe as u64));
        let failed = rng.gen_bool(p.min(1.0));
        if failed {
            self.counters.program_fails += 1;
            self.mark_grown_bad(block);
        }
        failed
    }

    /// Sample an erase failure for `block` (linear index) with `pe`
    /// erases. Returns `Some(retired)` on failure; the caller (the array)
    /// skips the reset and, when `retired`, masks the block bad.
    pub fn sample_erase(&mut self, block: u64, pe: u32) -> Option<bool> {
        let c = &self.cfg;
        let p = c.erase_fail_base + c.erase_fail_per_pe * (pe + c.baseline_pe) as f64;
        let streak = self.erase_streak[block as usize];
        let mut rng = SimRng::new(mix(
            self.cfg.seed,
            SALT_ERASE,
            block,
            ((pe as u64) << 16) ^ streak as u64,
        ));
        if !rng.gen_bool(p.min(1.0)) {
            self.erase_streak[block as usize] = 0;
            return None;
        }
        self.counters.erase_fails += 1;
        self.erase_streak[block as usize] = streak + 1;
        if streak + 1 >= c.erase_retire_after {
            self.mark_grown_bad(block);
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Mark `block` (linear index) for grown-bad retirement.
    pub fn mark_grown_bad(&mut self, block: u64) {
        if !self.grown_bad[block as usize] {
            self.grown_bad[block as usize] = true;
            self.counters.grown_bad_blocks += 1;
        }
    }

    /// A page of `block` was programmed at `now`.
    pub(crate) fn on_program(&mut self, page: u64, block: u64, now: SimTime, first_in_block: bool) {
        self.programmed_at[page as usize] = now;
        if first_in_block {
            self.block_programmed_at[block as usize] = now;
        }
    }

    /// `block` was successfully erased: disturb/retention state resets and
    /// any grown-bad mark has been consumed by the caller.
    pub(crate) fn on_erase(&mut self, block: u64) {
        self.read_disturb[block as usize] = 0;
        self.erase_streak[block as usize] = 0;
        self.grown_bad[block as usize] = false;
        self.block_programmed_at[block as usize] = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_core::SimDuration;

    fn model(cfg: FaultConfig) -> FaultModel {
        FaultModel::new(cfg, &Geometry::tiny(), CellType::Slc)
    }

    #[test]
    fn default_config_validates() {
        FaultConfig::default().validate().unwrap();
        FaultConfig::aggressive().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let c = FaultConfig {
            program_fail_base: 1.5,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            retry_error_scale: 1.0,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FaultConfig {
            erase_retire_after: 0,
            ..FaultConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn sampling_is_deterministic() {
        let mut a = model(FaultConfig::aggressive());
        let mut b = model(FaultConfig::aggressive());
        for i in 0..200 {
            let now = SimTime::ZERO + SimDuration::from_micros(i * 37);
            assert_eq!(
                a.sample_read(i % 64, i % 8, i as u32, now),
                b.sample_read(i % 64, i % 8, i as u32, now)
            );
            assert_eq!(
                a.sample_program(i % 64, i % 8, i as u32),
                b.sample_program(i % 64, i % 8, i as u32)
            );
            assert_eq!(a.sample_erase(i % 8, i as u32), b.sample_erase(i % 8, i as u32));
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn error_rate_grows_with_age_and_wear() {
        let m = model(FaultConfig::default());
        let fresh = m.read_lambda(0, 0, 0, SimTime::ZERO);
        let worn = m.read_lambda(0, 0, 5_000, SimTime::ZERO);
        assert!(worn > fresh * 2.0, "wear should dominate: {fresh} vs {worn}");
        let aged = m.read_lambda(0, 0, 0, SimTime::ZERO + SimDuration::from_secs(600));
        assert!(aged > fresh, "retention should grow errors");
    }

    #[test]
    fn read_disturb_accumulates_and_resets() {
        let mut m = model(FaultConfig::aggressive());
        for _ in 0..100 {
            m.sample_read(0, 0, 0, SimTime::ZERO);
        }
        assert_eq!(m.read_disturb(0), 100);
        m.on_erase(0);
        assert_eq!(m.read_disturb(0), 0);
    }

    #[test]
    fn uncorrectable_appears_under_hostile_rates() {
        let mut cfg = FaultConfig::aggressive();
        cfg.raw_bits_base = 20.0;
        cfg.ecc_bits = 4;
        cfg.read_retries = 1;
        cfg.retry_error_scale = 0.9;
        let mut m = model(cfg);
        let mut unc = 0;
        for i in 0..500 {
            let now = SimTime::ZERO + SimDuration::from_micros(i);
            if m.sample_read(i % 64, 0, 0, now).uncorrectable {
                unc += 1;
            }
        }
        assert!(unc > 400, "λ≫ECC should be mostly uncorrectable, got {unc}");
        assert_eq!(m.counters().uncorrectable_reads, unc);
    }

    #[test]
    fn clean_reads_at_zero_rates() {
        let cfg = FaultConfig {
            raw_bits_base: 0.0,
            raw_bits_per_pe: 0.0,
            raw_bits_per_retention_s: 0.0,
            raw_bits_per_disturb: 0.0,
            ..FaultConfig::default()
        };
        let mut m = model(cfg);
        let out = m.sample_read(0, 0, 0, SimTime::ZERO);
        assert_eq!(out, ReadOutcome::default());
    }

    #[test]
    fn erase_streak_retires_block() {
        let cfg = FaultConfig {
            erase_fail_base: 1.0, // always fail
            erase_retire_after: 3,
            ..FaultConfig::default()
        };
        let mut m = model(cfg);
        assert_eq!(m.sample_erase(5, 0), Some(false));
        assert_eq!(m.sample_erase(5, 0), Some(false));
        assert_eq!(m.sample_erase(5, 0), Some(true));
        assert!(m.is_grown_bad(5));
        assert_eq!(m.counters().erase_fails, 3);
        assert_eq!(m.counters().grown_bad_blocks, 1);
    }

    #[test]
    fn program_fail_marks_grown_bad_once() {
        let cfg = FaultConfig {
            program_fail_base: 1.0,
            ..FaultConfig::default()
        };
        let mut m = model(cfg);
        assert!(m.sample_program(0, 0, 0));
        assert!(m.sample_program(1, 0, 0));
        assert!(m.is_grown_bad(0));
        assert_eq!(m.counters().grown_bad_blocks, 1, "mark counted once");
        assert_eq!(m.counters().program_fails, 2);
    }

    #[test]
    fn retries_consume_tiers_before_uncorrectable() {
        // λ just past ECC: first tier usually fails, halved tiers recover.
        let cfg = FaultConfig {
            raw_bits_base: 12.0,
            ecc_bits: 8,
            read_retries: 4,
            ..FaultConfig::default()
        };
        let mut m = model(cfg);
        let mut retried = 0;
        for i in 0..300 {
            let out = m.sample_read(i % 64, 0, 0, SimTime::ZERO + SimDuration::from_micros(i));
            if out.retries > 0 && !out.uncorrectable {
                retried += 1;
            }
        }
        assert!(retried > 50, "expected frequent successful retries, got {retried}");
        assert!(m.counters().read_retries > 0);
    }

    #[test]
    fn mlc_worse_than_slc() {
        let mut slc = model(FaultConfig::default());
        let mlc = FaultModel::new(FaultConfig::default(), &Geometry::tiny(), CellType::Mlc);
        assert!(mlc.read_lambda(0, 0, 100, SimTime::ZERO) > slc.read_lambda(0, 0, 100, SimTime::ZERO));
        let _ = slc.sample_read(0, 0, 0, SimTime::ZERO);
    }

    #[test]
    fn oob_check_is_pure_and_deterministic() {
        let m = model(FaultConfig::aggressive());
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        let a = m.oob_uncorrectable(3, 0, 50, now);
        let b = m.oob_uncorrectable(3, 0, 50, now);
        assert_eq!(a, b);
        assert_eq!(m.counters(), FaultCounters::default());
    }
}
