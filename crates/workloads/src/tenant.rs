//! Tenant-profile builder: describe a tenant declaratively — its
//! namespace size, its QoS parameters (WFQ weight, strict tier, one IOPS
//! cap and its burst) and its member workload threads — and install it
//! onto an [`Os`] in one call.
//!
//! ```
//! use eagletree_workloads::{TenantProfile, Pumped, RandReadGen, Region};
//! # use eagletree_controller::{Controller, ControllerConfig};
//! # use eagletree_flash::{Geometry, TimingSpec};
//! # use eagletree_os::{Os, OsConfig};
//! # let ctrl = Controller::new(Geometry::tiny(), TimingSpec::slc(),
//! #     ControllerConfig::default()).unwrap();
//! # let mut os = Os::new(ctrl, OsConfig::default());
//! let (tenant, threads) = TenantProfile::new("frontend", 512)
//!     .weight(4)
//!     .tier(0)
//!     .thread(Pumped::new(RandReadGen::new(Region::whole(), 100), 4, 7))
//!     .install(&mut os);
//! os.run().expect("every thread finished");
//! assert_eq!(os.tenant_stats(tenant).reads_completed, 100);
//! # let _ = threads;
//! ```

use eagletree_os::{Os, TenantConfig, TenantId, ThreadId, Workload};

/// A declarative tenant description: namespace + QoS + workloads.
pub struct TenantProfile {
    cfg: TenantConfig,
    threads: Vec<Box<dyn Workload>>,
}

impl TenantProfile {
    /// A tenant with a namespace of `pages` logical pages and default QoS
    /// parameters (weight 1, tier 0, no rate caps).
    pub fn new(name: impl Into<String>, pages: u64) -> Self {
        TenantProfile {
            cfg: TenantConfig::new(name, pages),
            threads: Vec::new(),
        }
    }

    /// WFQ weight (dispatch share under [`eagletree_os::QosPolicy::Wfq`]).
    pub fn weight(mut self, w: u32) -> Self {
        self.cfg.qos.weight = w;
        self
    }

    /// Strict-tier priority, 0 = most important.
    pub fn tier(mut self, t: u8) -> Self {
        self.cfg.qos.tier = t;
        self
    }

    /// IOPS cap (token bucket). Every IO is one page, so this caps the
    /// tenant's page bandwidth too.
    pub fn iops_limit(mut self, limit: f64) -> Self {
        self.cfg.qos.iops_limit = Some(limit);
        self
    }

    /// Burst credits for the token bucket.
    pub fn burst(mut self, credits: f64) -> Self {
        self.cfg.qos.burst = credits;
        self
    }

    /// Add a workload thread. Its IOs address the tenant's namespace
    /// (`ThreadCtx::logical_pages` reports the namespace size, so
    /// [`crate::Region::whole`] resolves to exactly the namespace).
    pub fn thread(mut self, w: impl Workload + 'static) -> Self {
        self.threads.push(Box::new(w));
        self
    }

    /// Create the tenant on `os` and register its threads. Returns the
    /// tenant id and the thread ids in the order they were added.
    pub fn install(self, os: &mut Os) -> (TenantId, Vec<ThreadId>) {
        let tenant = os.add_tenant(self.cfg);
        let tids = self
            .threads
            .into_iter()
            .map(|w| os.add_tenant_thread(tenant, w))
            .collect();
        (tenant, tids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pumped, RandWriteGen, Region};
    use eagletree_controller::{Controller, ControllerConfig};
    use eagletree_flash::{Geometry, TimingSpec};
    use eagletree_os::{Os, OsConfig, QosPolicy};

    fn os(qos: QosPolicy) -> Os {
        let ctrl = Controller::new(
            Geometry::tiny(),
            TimingSpec::slc(),
            ControllerConfig::default(),
        )
        .unwrap();
        Os::new(ctrl, OsConfig { qos, ..OsConfig::default() })
    }

    #[test]
    fn profile_installs_tenant_and_threads() {
        let mut os = os(QosPolicy::Wfq);
        let (a, a_tids) = TenantProfile::new("a", 128)
            .weight(3)
            .thread(Pumped::new(RandWriteGen::new(Region::whole(), 64), 8, 1).named("w1"))
            .thread(Pumped::new(RandWriteGen::new(Region::whole(), 32), 8, 2).named("w2"))
            .install(&mut os);
        let (b, _) = TenantProfile::new("b", 64)
            .thread(Pumped::new(RandWriteGen::new(Region::whole(), 16), 4, 3))
            .install(&mut os);
        assert_eq!(a_tids.len(), 2);
        os.run().unwrap();
        assert_eq!(os.tenant_stats(a).writes_completed, 96);
        assert_eq!(os.tenant_stats(b).writes_completed, 16);
        assert_eq!(os.namespace(b).base, 128);
        // Region::whole() resolved to the namespace: every write stayed in
        // the tenant window.
        assert!(os.valid_pages(b) <= 64);
    }

    #[test]
    fn rate_caps_flow_into_qos_params() {
        let mut os = os(QosPolicy::TokenBucket);
        let (t, _) = TenantProfile::new("capped", 64)
            .iops_limit(5_000.0)
            .burst(2.0)
            .thread(Pumped::new(RandWriteGen::new(Region::whole(), 20), 8, 9))
            .install(&mut os);
        os.run().unwrap();
        assert_eq!(os.tenant_stats(t).writes_completed, 20);
        // 20 IOs at 5k IOPS (burst 2) need ≥ ~3.6ms of virtual time.
        assert!(os.now().as_nanos() >= 3_600_000);
    }
}
