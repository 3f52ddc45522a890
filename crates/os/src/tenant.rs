//! Tenants and NVMe-style namespaces.
//!
//! A *tenant* models one isolated client of the device under server
//! consolidation: it owns a **namespace** — a contiguous partition of the
//! exported logical space — plus a set of threads, QoS parameters
//! ([`crate::QosParams`]) and its own tail-latency accounting. Tenant
//! threads address *tenant-relative* LBAs: `ThreadCtx::logical_pages`
//! reports the namespace size, and the OS bounds-checks and translates
//! every submission at the boundary, so no tenant can read or write
//! another's pages no matter how buggy or hostile its workload.
//!
//! Namespaces are created at setup time, carved from logical page 0
//! upward. The OS also keeps one implicit *default* tenant
//! whose namespace is the whole device (identity translation) for
//! preconditioning threads and single-tenant experiments — it overlays the
//! carved namespaces by design, like an admin view.

use eagletree_controller::{OpClass, RequestKind};
use eagletree_core::{Histogram, OnlineStats, StageBreakdown, StageNs, Tail};

/// Identifier of a tenant (index into the OS tenant table).
pub type TenantId = usize;

/// Setup-time description of one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Name for reports.
    pub name: String,
    /// Namespace size in logical pages.
    pub namespace_pages: u64,
    /// QoS parameters consumed by the configured [`crate::QosPolicy`].
    pub qos: crate::QosParams,
}

impl TenantConfig {
    /// A tenant with default QoS parameters (weight 1, tier 0, no caps).
    pub fn new(name: impl Into<String>, namespace_pages: u64) -> Self {
        TenantConfig {
            name: name.into(),
            namespace_pages,
            qos: crate::QosParams::default(),
        }
    }
}

/// A contiguous namespace: the tenant's window onto the logical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespace {
    /// First device-absolute logical page.
    pub base: u64,
    /// Size in pages; tenant-relative LBAs are `0..len`.
    pub len: u64,
}

impl Namespace {
    /// Translate a tenant-relative LBA to a device-absolute one.
    /// Panics when out of bounds — the OS-boundary check.
    pub fn translate(&self, rel_lpn: u64, tenant: &str) -> u64 {
        assert!(
            rel_lpn < self.len,
            "tenant `{tenant}`: LBA {rel_lpn} outside its {}-page namespace",
            self.len
        );
        self.base + rel_lpn
    }
}

/// Per-tenant measurement: completion counts, per-class tail-latency
/// histograms (fixed-memory, log-bucketed) and namespace utilization.
#[derive(Debug, Clone)]
pub struct TenantStats {
    pub reads_completed: u64,
    pub writes_completed: u64,
    pub trims_completed: u64,
    /// End-to-end (enqueue → completion) read latencies.
    pub read_latency: Histogram,
    /// End-to-end write latencies.
    pub write_latency: Histogram,
    /// Time spent in the OS queue before dispatch (µs) — where QoS
    /// throttling and neighbor interference show up.
    pub queue_wait_us: OnlineStats,
    /// Distinct namespace pages currently holding data (written and not
    /// since trimmed), maintained as a bitmap popcount.
    valid_pages: u64,
    /// One bit per namespace page.
    valid: Vec<u64>,
    /// Stage-attributed latency (index 0 reads, 1 writes), allocated on
    /// the first completion carrying a span breakdown — `None` unless
    /// observability was enabled.
    stages: Option<Box<[StageBreakdown; 2]>>,
}

impl TenantStats {
    pub(crate) fn new(namespace_pages: u64) -> Self {
        TenantStats {
            reads_completed: 0,
            writes_completed: 0,
            trims_completed: 0,
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            queue_wait_us: OnlineStats::new(),
            valid_pages: 0,
            valid: vec![0; namespace_pages.div_ceil(64) as usize],
            stages: None,
        }
    }

    /// Total completions.
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed + self.trims_completed
    }

    /// Tail summary (p50/p95/p99/p99.9) for an application op class.
    /// Tenants only generate application traffic, so only
    /// [`OpClass::AppRead`] and [`OpClass::AppWrite`] carry latencies.
    pub fn tail(&self, class: OpClass) -> Tail {
        match class {
            OpClass::AppRead => self.read_latency.tail(),
            OpClass::AppWrite => self.write_latency.tail(),
            OpClass::GcRead
            | OpClass::GcWrite
            | OpClass::WlRead
            | OpClass::WlWrite
            | OpClass::MergeRead
            | OpClass::MergeWrite
            | OpClass::MappingRead
            | OpClass::MappingWrite
            | OpClass::Erase
            | OpClass::ScrubRead
            | OpClass::ScrubWrite => Tail::default(),
        }
    }

    /// Stage-attributed latency breakdown for reads or writes: where this
    /// tenant's end-to-end latency went (OS queue, QoS hold, scheduler
    /// pending, media, ECC retry). `None` unless observability was on and
    /// IOs of that kind completed; always `None` for trims (instant).
    pub fn stage_breakdown(&self, kind: RequestKind) -> Option<&StageBreakdown> {
        let idx = match kind {
            RequestKind::Read => 0,
            RequestKind::Write => 1,
            RequestKind::Trim => return None,
        };
        self.stages.as_deref().map(|s| &s[idx])
    }

    pub(crate) fn record_stages(&mut self, kind: RequestKind, st: StageNs) {
        let idx = match kind {
            RequestKind::Read => 0,
            RequestKind::Write => 1,
            RequestKind::Trim => return,
        };
        self.stages.get_or_insert_with(Default::default)[idx].record(st);
    }

    /// Distinct valid (written, untrimmed) pages in the namespace.
    pub fn valid_pages(&self) -> u64 {
        self.valid_pages
    }

    /// Valid fraction of the namespace, `0.0..=1.0`.
    pub fn utilization(&self, namespace_pages: u64) -> f64 {
        if namespace_pages == 0 {
            0.0
        } else {
            self.valid_pages as f64 / namespace_pages as f64
        }
    }

    pub(crate) fn record_completion(
        &mut self,
        kind: RequestKind,
        rel_lpn: u64,
        latency: eagletree_core::SimDuration,
    ) {
        let (word, bit) = ((rel_lpn / 64) as usize, rel_lpn % 64);
        match kind {
            RequestKind::Read => {
                self.reads_completed += 1;
                self.read_latency.record(latency);
            }
            RequestKind::Write => {
                self.writes_completed += 1;
                self.write_latency.record(latency);
                if self.valid[word] & (1 << bit) == 0 {
                    self.valid[word] |= 1 << bit;
                    self.valid_pages += 1;
                }
            }
            RequestKind::Trim => {
                self.trims_completed += 1;
                if self.valid[word] & (1 << bit) != 0 {
                    self.valid[word] &= !(1 << bit);
                    self.valid_pages -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagletree_core::SimDuration;

    #[test]
    fn namespace_translates_and_bounds_checks() {
        let ns = Namespace { base: 100, len: 50 };
        assert_eq!(ns.translate(0, "t"), 100);
        assert_eq!(ns.translate(49, "t"), 149);
    }

    #[test]
    #[should_panic(expected = "outside its 50-page namespace")]
    fn namespace_rejects_out_of_bounds() {
        Namespace { base: 100, len: 50 }.translate(50, "t");
    }

    #[test]
    fn utilization_tracks_distinct_writes_and_trims() {
        let mut s = TenantStats::new(100);
        let d = SimDuration::from_micros(10);
        s.record_completion(RequestKind::Write, 3, d);
        s.record_completion(RequestKind::Write, 3, d); // overwrite, not new
        s.record_completion(RequestKind::Write, 64, d);
        assert_eq!(s.valid_pages(), 2);
        assert!((s.utilization(100) - 0.02).abs() < 1e-12);
        s.record_completion(RequestKind::Trim, 3, d);
        s.record_completion(RequestKind::Trim, 3, d); // double trim is a no-op
        assert_eq!(s.valid_pages(), 1);
        assert_eq!(s.writes_completed, 3);
        assert_eq!(s.trims_completed, 2);
    }

    #[test]
    fn tail_reports_only_app_classes() {
        let mut s = TenantStats::new(10);
        s.record_completion(RequestKind::Read, 0, SimDuration::from_micros(100));
        assert_eq!(s.tail(OpClass::AppRead).count, 1);
        assert!(s.tail(OpClass::AppRead).p99 > SimDuration::ZERO);
        assert_eq!(s.tail(OpClass::AppWrite).count, 0);
        assert_eq!(s.tail(OpClass::GcRead), Tail::default());
    }
}
