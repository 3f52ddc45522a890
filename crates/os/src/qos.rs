//! Tenant-level QoS scheduling: the layer above [`crate::OsSchedPolicy`].
//!
//! Dispatch is two-stage once more than one tenant exists: a [`QosPolicy`]
//! first picks *which tenant* gets the freed device-queue slot, then the
//! per-thread [`crate::OsSchedPolicy`] picks among that tenant's thread
//! queues. The three mechanisms are the classic server-consolidation
//! arsenal:
//!
//! * [`QosPolicy::Wfq`] — start-time weighted fair queuing: each tenant
//!   carries a virtual time advanced by `1/weight` per dispatched IO;
//!   the backlogged tenant with the smallest virtual time is served, so
//!   long-run dispatch shares converge to the weight ratio regardless of
//!   how greedily any tenant floods its queues.
//! * [`QosPolicy::TokenBucket`] — per-tenant rate caps (IOPS and
//!   page-bandwidth buckets with burst credits) refilled in virtual time;
//!   a tenant without a full token is ineligible and the OS sleeps until
//!   the earliest refill when nothing else is runnable.
//! * [`QosPolicy::StrictTiers`] — strict priority by tenant tier with
//!   starvation-freedom: a lower-tier tenant whose head-of-queue has
//!   waited longer than `starvation_us` is aged up to the top tier for
//!   that decision, so no backlog waits forever.
//!
//! All state lives in fixed per-tenant slots ([`QosSlot`]) owned by the
//! OS; selection walks the tenant candidates gathered into a reused
//! scratch buffer — no allocation on the dispatch path, following the
//! controller's `pend.rs` discipline.

use eagletree_core::{SimDuration, SimTime};

use crate::tenant::TenantId;

/// Tenant-selection policy (the layer above the per-thread OS scheduler).
#[derive(Debug, Clone, PartialEq)]
pub enum QosPolicy {
    /// No tenant arbitration: all thread queues compete flat, exactly as
    /// before tenants existed (the single-tenant/back-compat mode).
    None,
    /// Start-time weighted fair queuing over [`QosParams::weight`].
    Wfq,
    /// Token-bucket rate limiting per [`QosParams`] caps; among eligible
    /// tenants, global FIFO (oldest head-of-queue first).
    TokenBucket,
    /// Strict priority by [`QosParams::tier`] (0 = highest), FIFO within a
    /// tier; heads older than `starvation_us` age up to tier 0.
    StrictTiers {
        /// Waiting time after which any tenant's head IO is treated as
        /// top-tier (starvation guard).
        starvation_us: u64,
    },
}

impl QosPolicy {
    /// Short label for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            QosPolicy::None => "none",
            QosPolicy::Wfq => "wfq",
            QosPolicy::TokenBucket => "token_bucket",
            QosPolicy::StrictTiers { .. } => "strict_tiers",
        }
    }
}

/// Per-tenant QoS parameters, set at tenant creation.
#[derive(Debug, Clone, PartialEq)]
pub struct QosParams {
    /// WFQ weight: long-run dispatch share is proportional to this.
    pub weight: u32,
    /// Strict-tier priority, 0 = most important.
    pub tier: u8,
    /// IOPS cap (tokens/virtual-second); `None` = unlimited.
    pub iops_limit: Option<f64>,
    /// Page-bandwidth cap (pages/virtual-second); `None` = unlimited.
    pub page_bw_limit: Option<f64>,
    /// Burst credits: how many IOs (and pages) may be dispatched
    /// back-to-back from a full bucket before the rate caps bite.
    pub burst: f64,
}

impl Default for QosParams {
    fn default() -> Self {
        QosParams {
            weight: 1,
            tier: 0,
            iops_limit: None,
            page_bw_limit: None,
            burst: 8.0,
        }
    }
}

/// Mutable per-tenant QoS state (one fixed slot per tenant).
#[derive(Debug, Clone)]
pub(crate) struct QosSlot {
    pub params: QosParams,
    /// WFQ virtual time (units of 1/weight per IO).
    vtime: f64,
    /// IOPS-bucket fill.
    tok_ios: f64,
    /// Bandwidth-bucket fill (pages).
    tok_pages: f64,
    last_refill: SimTime,
}

impl QosSlot {
    pub(crate) fn new(params: QosParams) -> Self {
        assert!(params.weight > 0, "WFQ weight must be positive");
        assert!(
            params.iops_limit.is_none_or(|l| l > 0.0),
            "iops_limit must be positive"
        );
        assert!(
            params.page_bw_limit.is_none_or(|l| l > 0.0),
            "page_bw_limit must be positive"
        );
        assert!(params.burst >= 1.0, "burst must allow at least one IO");
        let burst = params.burst;
        QosSlot {
            params,
            vtime: 0.0,
            tok_ios: burst,
            tok_pages: burst,
            last_refill: SimTime::ZERO,
        }
    }

    /// Bring both buckets up to date at `now`.
    fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        let dt = now.since(self.last_refill).as_secs_f64();
        if let Some(rate) = self.params.iops_limit {
            self.tok_ios = (self.tok_ios + dt * rate).min(self.params.burst);
        }
        if let Some(rate) = self.params.page_bw_limit {
            self.tok_pages = (self.tok_pages + dt * rate).min(self.params.burst);
        }
        self.last_refill = now;
    }

    /// Whether a one-page IO may be dispatched at `now`.
    fn eligible(&mut self, now: SimTime) -> bool {
        self.refill(now);
        (self.params.iops_limit.is_none() || self.tok_ios >= 1.0)
            && (self.params.page_bw_limit.is_none() || self.tok_pages >= 1.0)
    }

    /// Wait, in whole nanoseconds, until a bucket refills `deficit` tokens
    /// at `rate` tokens per virtual second — rounded up, with explicit
    /// guards: a zero/negative/non-finite rate never refills, and
    /// overflowing waits saturate to [`QosSlot::NEVER_NS`] instead of
    /// wrapping through the `f64 → u64` cast.
    fn refill_wait_ns(deficit: f64, rate: f64) -> u64 {
        if deficit <= 0.0 {
            return 0;
        }
        if rate.is_nan() || rate <= 0.0 {
            return Self::NEVER_NS;
        }
        let ns = (deficit * 1e9 / rate).ceil();
        if !ns.is_finite() || ns >= Self::NEVER_NS as f64 {
            Self::NEVER_NS
        } else {
            // Rates are f64 config knobs; ready_at's verification loop
            // below guarantees the rounded wakeup is never early.
            SimDuration::from_nanos_f64(ns).as_nanos()
        }
    }

    /// "Effectively never" in integer nanoseconds: far beyond any
    /// simulated horizon, yet safely addable to a `SimTime` without
    /// overflow.
    const NEVER_NS: u64 = u64::MAX / 4;

    /// Earliest instant at which a one-page IO becomes dispatchable, for a
    /// slot currently ineligible at `now`.
    fn ready_at(&self, now: SimTime) -> SimTime {
        let mut wait_ns = 0u64;
        if let Some(rate) = self.params.iops_limit {
            wait_ns = wait_ns.max(Self::refill_wait_ns(1.0 - self.tok_ios, rate));
        }
        if let Some(rate) = self.params.page_bw_limit {
            wait_ns = wait_ns.max(Self::refill_wait_ns(1.0 - self.tok_pages, rate));
        }
        // Floating-point rounding in the division must never yield a
        // wakeup at which the bucket is still short — the main loop would
        // spin on a zero-progress wake time. Verify with the exact
        // arithmetic `refill` uses and nudge forward (exponentially, so
        // this terminates in a handful of rounds) until truly eligible.
        let mut step = 1u64;
        loop {
            let t = now + SimDuration::from_nanos(wait_ns);
            if wait_ns >= Self::NEVER_NS || self.clone().eligible(t) {
                return t;
            }
            wait_ns = wait_ns.saturating_add(step).min(Self::NEVER_NS);
            step = step.saturating_mul(2);
        }
    }

    /// Sync the WFQ virtual time when this tenant transitions from idle to
    /// backlogged, so long-idle tenants cannot bank unbounded credit.
    pub(crate) fn on_backlogged(&mut self, vclock: f64) {
        self.vtime = self.vtime.max(vclock);
    }
}

/// One backlogged tenant presented to [`select`]: its oldest queued IO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TenantCand {
    pub tenant: TenantId,
    /// Global arrival sequence of the tenant's oldest head-of-queue IO.
    pub head_seq: u64,
    /// Enqueue instant of that IO (starvation aging).
    pub head_enqueued_at: SimTime,
}

/// Pick which backlogged tenant gets the next device-queue slot. Returns
/// an index into `cands`, or `None` when no tenant is eligible (rate caps
/// exhausted). `vclock` is the WFQ virtual clock (virtual start time of
/// the last dispatched IO).
pub(crate) fn select(
    policy: &QosPolicy,
    cands: &[TenantCand],
    slots: &mut [QosSlot],
    now: SimTime,
    vclock: f64,
) -> Option<usize> {
    match policy {
        QosPolicy::None => cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.head_seq)
            .map(|(i, _)| i),
        QosPolicy::Wfq => {
            let mut best: Option<(f64, TenantId, usize)> = None;
            for (i, c) in cands.iter().enumerate() {
                let v = slots[c.tenant].vtime.max(vclock);
                if best.is_none_or(|(bv, bt, _)| (v, c.tenant) < (bv, bt)) {
                    best = Some((v, c.tenant, i));
                }
            }
            best.map(|(_, _, i)| i)
        }
        QosPolicy::TokenBucket => cands
            .iter()
            .enumerate()
            .filter(|(_, c)| slots[c.tenant].eligible(now))
            .min_by_key(|(_, c)| c.head_seq)
            .map(|(i, _)| i),
        QosPolicy::StrictTiers { starvation_us } => {
            let aged = SimDuration::from_nanos(starvation_us * 1_000);
            cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    let starved = now.saturating_since(c.head_enqueued_at) >= aged;
                    let tier = if starved { 0 } else { slots[c.tenant].params.tier };
                    (tier, c.head_seq)
                })
                .map(|(i, _)| i)
        }
    }
}

/// Account one dispatched one-page IO to `tenant`: consume tokens and
/// advance the WFQ virtual clock. Returns the updated `vclock`.
pub(crate) fn charge(
    policy: &QosPolicy,
    slots: &mut [QosSlot],
    tenant: TenantId,
    now: SimTime,
    vclock: f64,
) -> f64 {
    let slot = &mut slots[tenant];
    match policy {
        QosPolicy::Wfq => {
            let start = slot.vtime.max(vclock);
            slot.vtime = start + 1.0 / slot.params.weight as f64;
            start
        }
        QosPolicy::TokenBucket => {
            slot.refill(now);
            if slot.params.iops_limit.is_some() {
                slot.tok_ios -= 1.0;
            }
            if slot.params.page_bw_limit.is_some() {
                slot.tok_pages -= 1.0;
            }
            vclock
        }
        QosPolicy::None | QosPolicy::StrictTiers { .. } => vclock,
    }
}

/// Earliest instant at which any currently rate-blocked backlogged tenant
/// becomes eligible — the token-refill wake-up the main loop must not
/// sleep past. `None` when nothing is blocked on tokens.
pub(crate) fn next_ready_time(
    policy: &QosPolicy,
    cands: &[TenantCand],
    slots: &mut [QosSlot],
    now: SimTime,
) -> Option<SimTime> {
    if *policy != QosPolicy::TokenBucket {
        return None;
    }
    let mut earliest: Option<SimTime> = None;
    for c in cands {
        if !slots[c.tenant].eligible(now) {
            let t = slots[c.tenant].ready_at(now);
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        }
    }
    earliest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(tenant: TenantId, head_seq: u64, enq_ns: u64) -> TenantCand {
        TenantCand {
            tenant,
            head_seq,
            head_enqueued_at: SimTime::from_nanos(enq_ns),
        }
    }

    fn slots(params: Vec<QosParams>) -> Vec<QosSlot> {
        params.into_iter().map(QosSlot::new).collect()
    }

    #[test]
    fn wfq_shares_follow_weights() {
        // Tenant 0 weight 3, tenant 1 weight 1, both always backlogged:
        // over 400 dispatches tenant 0 must get ~300.
        let mut s = slots(vec![
            QosParams {
                weight: 3,
                ..QosParams::default()
            },
            QosParams::default(),
        ]);
        let cands = [cand(0, 0, 0), cand(1, 1, 0)];
        let mut vclock = 0.0;
        let mut served = [0u32; 2];
        for _ in 0..400 {
            let i = select(&QosPolicy::Wfq, &cands, &mut s, SimTime::ZERO, vclock).unwrap();
            let t = cands[i].tenant;
            served[t] += 1;
            vclock = charge(&QosPolicy::Wfq, &mut s, t, SimTime::ZERO, vclock);
        }
        assert_eq!(served[0] + served[1], 400);
        assert!(
            (295..=305).contains(&served[0]),
            "weight-3 tenant got {} of 400",
            served[0]
        );
    }

    #[test]
    fn wfq_idle_tenant_does_not_bank_credit() {
        let mut s = slots(vec![QosParams::default(), QosParams::default()]);
        let mut vclock = 0.0;
        // Tenant 0 runs alone for a while.
        for _ in 0..100 {
            vclock = charge(&QosPolicy::Wfq, &mut s, 0, SimTime::ZERO, vclock);
        }
        // Tenant 1 wakes up: synced to the clock, it must not monopolize.
        s[1].on_backlogged(vclock);
        let cands = [cand(0, 0, 0), cand(1, 1, 0)];
        let mut served = [0u32; 2];
        for _ in 0..100 {
            let i = select(&QosPolicy::Wfq, &cands, &mut s, SimTime::ZERO, vclock).unwrap();
            served[cands[i].tenant] += 1;
            vclock = charge(&QosPolicy::Wfq, &mut s, cands[i].tenant, SimTime::ZERO, vclock);
        }
        assert!(
            (45..=55).contains(&served[1]),
            "woken tenant should get ~half, got {}",
            served[1]
        );
    }

    #[test]
    fn token_bucket_caps_and_refills() {
        let mut s = slots(vec![QosParams {
            iops_limit: Some(1000.0), // 1 IO per virtual ms
            burst: 2.0,
            ..QosParams::default()
        }]);
        let cands = [cand(0, 0, 0)];
        let pol = QosPolicy::TokenBucket;
        let mut vclock = 0.0;
        // Burst of 2 goes through at t=0, then the bucket is dry.
        for _ in 0..2 {
            assert!(select(&pol, &cands, &mut s, SimTime::ZERO, vclock).is_some());
            vclock = charge(&pol, &mut s, 0, SimTime::ZERO, vclock);
        }
        assert!(select(&pol, &cands, &mut s, SimTime::ZERO, vclock).is_none());
        let ready =
            next_ready_time(&pol, &cands, &mut s, SimTime::ZERO).expect("blocked on tokens");
        assert_eq!(ready.as_nanos(), 1_000_000, "one token takes 1ms at 1k IOPS");
        // After the refill instant the tenant is eligible again.
        assert!(select(&pol, &cands, &mut s, ready, vclock).is_some());
        assert!(next_ready_time(&pol, &cands, &mut s, ready).is_none());
    }

    #[test]
    fn refill_wakeup_is_never_early() {
        // The wake instant the slot reports must make it eligible under
        // the exact same arithmetic `refill` uses — a wakeup rounded one
        // nanosecond early would spin the main loop on zero progress.
        let now = SimTime::from_nanos(987_654_321);
        for rate in [3.0, 7.0, 1e-3, 0.333_333_333_3, 999_999.0, 1e9, 1e15] {
            let mut s = QosSlot::new(QosParams {
                iops_limit: Some(rate),
                burst: 1.0,
                ..QosParams::default()
            });
            s.tok_ios = 0.25;
            s.last_refill = now;
            let ready = s.ready_at(now);
            assert!(
                s.clone().eligible(ready),
                "rate {rate}: slot not eligible at its own ready_at"
            );
            assert!(ready >= now);
        }
    }

    #[test]
    fn refill_wait_guards_zero_and_overflowing_rates() {
        // Zero / negative / NaN rates never refill; sub-nano waits round
        // up; astronomically slow rates saturate instead of wrapping.
        assert_eq!(QosSlot::refill_wait_ns(1.0, 0.0), QosSlot::NEVER_NS);
        assert_eq!(QosSlot::refill_wait_ns(1.0, -5.0), QosSlot::NEVER_NS);
        assert_eq!(QosSlot::refill_wait_ns(1.0, f64::NAN), QosSlot::NEVER_NS);
        assert_eq!(QosSlot::refill_wait_ns(0.0, 1000.0), 0);
        assert_eq!(QosSlot::refill_wait_ns(1.0, 1e18), 1, "sub-ns waits round up");
        assert_eq!(QosSlot::refill_wait_ns(1.0, 1e-12), QosSlot::NEVER_NS);
    }

    #[test]
    fn strict_tiers_prefer_low_tier_until_starvation() {
        let mut s = slots(vec![
            QosParams {
                tier: 0,
                ..QosParams::default()
            },
            QosParams {
                tier: 1,
                ..QosParams::default()
            },
        ]);
        let pol = QosPolicy::StrictTiers { starvation_us: 100 };
        // Fresh heads: tier 0 wins even though tenant 1 arrived first.
        let cands = [cand(0, 5, 0), cand(1, 1, 0)];
        let i = select(&pol, &cands, &mut s, SimTime::ZERO, 0.0).unwrap();
        assert_eq!(cands[i].tenant, 0);
        // Once tenant 1's head has waited past the guard, it ages to the
        // top tier and its older seq breaks the tie.
        let late = SimTime::from_nanos(200_000);
        let i = select(&pol, &cands, &mut s, late, 0.0).unwrap();
        assert_eq!(cands[i].tenant, 1, "starved tenant must be served");
    }

    #[test]
    fn none_policy_is_global_fifo_over_tenants() {
        let mut s = slots(vec![QosParams::default(), QosParams::default()]);
        let cands = [cand(0, 9, 0), cand(1, 2, 0)];
        let i = select(&QosPolicy::None, &cands, &mut s, SimTime::ZERO, 0.0).unwrap();
        assert_eq!(cands[i].tenant, 1);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(QosPolicy::None.name(), "none");
        assert_eq!(QosPolicy::Wfq.name(), "wfq");
        assert_eq!(QosPolicy::TokenBucket.name(), "token_bucket");
        assert_eq!(QosPolicy::StrictTiers { starvation_us: 1 }.name(), "strict_tiers");
    }
}
