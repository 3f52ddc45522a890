//! Tenants and NVMe-style namespaces.
//!
//! A *tenant* models one isolated client of the device under server
//! consolidation: it owns a **namespace** — a contiguous partition of the
//! exported logical space — plus a set of threads, QoS parameters
//! ([`crate::QosParams`]) and a bitmap of the namespace pages that hold
//! data. Its counts and tails are the merge of its threads' records
//! ([`crate::Os::tenant_stats`]). Tenant threads address
//! *tenant-relative* LBAs: `ThreadCtx::logical_pages` reports the
//! namespace size, and the OS bounds-checks and translates every
//! submission at the boundary, so no tenant can read or write another's
//! pages no matter how buggy or hostile its workload.
//!
//! Namespaces are created at setup time, carved from logical page 0
//! upward. The OS also keeps one implicit *default* tenant
//! whose namespace is the whole device (identity translation) for
//! preconditioning threads and single-tenant experiments — it overlays the
//! carved namespaces by design, like an admin view.

use eagletree_controller::RequestKind;

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

/// Which namespace pages hold data (written and not since trimmed): one
/// bit a page, and their count.
#[derive(Debug, Clone)]
pub(crate) struct ValidPages {
    bits: Vec<u64>,
    count: u64,
}

impl ValidPages {
    pub(crate) fn new(namespace_pages: u64) -> Self {
        ValidPages {
            bits: vec![0; namespace_pages.div_ceil(64) as usize],
            count: 0,
        }
    }

    /// Distinct valid pages.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// A completed `kind` at `rel_lpn`: a write sets the page, a trim
    /// clears it, a read leaves it.
    pub(crate) fn note(&mut self, kind: RequestKind, rel_lpn: u64) {
        let (word, bit) = ((rel_lpn / 64) as usize, 1u64 << (rel_lpn % 64));
        let set = self.bits[word] & bit != 0;
        match kind {
            RequestKind::Write if !set => {
                self.bits[word] |= bit;
                self.count += 1;
            }
            RequestKind::Trim if set => {
                self.bits[word] &= !bit;
                self.count -= 1;
            }
            RequestKind::Read | RequestKind::Write | RequestKind::Trim => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut v = ValidPages::new(100);
        v.note(RequestKind::Write, 3);
        v.note(RequestKind::Write, 3); // overwrite, not new
        v.note(RequestKind::Write, 64);
        v.note(RequestKind::Read, 99);
        assert_eq!(v.count(), 2);
        v.note(RequestKind::Trim, 3);
        assert_eq!(v.count(), 1);
        v.note(RequestKind::Trim, 3); // a second trim of the page is a no-op
        assert_eq!(v.count(), 1);
        v.note(RequestKind::Write, 3); // a trimmed page written again is valid again
        assert_eq!(v.count(), 2);
    }
}
