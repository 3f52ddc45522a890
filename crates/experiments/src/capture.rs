//! Observability artifact capture: one instrumented contention run whose
//! span and timeline output feeds the bench harness `--trace` /
//! `--timeline` flags and the CI artifact check.
//!
//! The workload is deliberately the suite's "interesting" shape — a
//! latency-sensitive Zipf reader sharing an aged, preconditioned device
//! with a flooding sequential writer — so the exported Perfetto trace
//! shows application IO interleaved with GC, erases and ECC retries
//! rather than an idle device.

use eagletree_os::QosPolicy;

use crate::experiment::Scale;
use crate::point::{run_point, Point};
use crate::suite::{flooder_tenant, reader_tenant, seq_flooder, shared};

/// Everything one instrumented run exports.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// Chrome-trace / Perfetto JSON (one track per channel/LUN lane plus
    /// one per tenant) — load in `ui.perfetto.dev` or `chrome://tracing`.
    pub perfetto: String,
    /// Time-sliced telemetry as CSV (`t_us,iops,wa,...`).
    pub timeline_csv: String,
    /// The same telemetry as JSON.
    pub timeline_json: String,
    /// Closed spans retained in the ring.
    pub spans: usize,
    /// Spans evicted from the ring (oldest-first) during the run.
    pub dropped: u64,
}

/// Run the capture workload at `scale` with spans + timeline enabled and
/// export the artifacts.
pub fn obs_capture(scale: Scale) -> ObsArtifacts {
    let mut setup = shared(QosPolicy::None);
    setup.ctrl.obs.span_capacity = 1 << 18;
    setup.ctrl.obs.timeline_interval_us = 500;
    let logical = setup.logical_pages();
    let os = run_point(Point::filled(
        "capture",
        setup,
        vec![
            reader_tenant(scale.ios(logical / 2), 4, 0xCA97),
            flooder_tenant(4096, seq_flooder(scale.ios(logical * 2), 128, 0x97CA)),
        ],
    ))
    .os;
    let lanes = os.controller().obs_lane_names();
    let tenants = os.tenant_names();
    let obs = os.obs().expect("capture runs with spans enabled");
    let tl = os.timeline().expect("capture runs with the timeline enabled");
    ObsArtifacts {
        perfetto: obs.to_perfetto(&lanes, &tenants),
        timeline_csv: tl.to_csv(),
        timeline_json: tl.to_json(),
        spans: obs.closed_count(),
        dropped: obs.dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_exports_nonempty_artifacts() {
        let a = obs_capture(Scale::Smoke);
        assert!(a.spans > 0);
        // Perfetto JSON: an object with a traceEvents array holding
        // complete ("ph":"X") events.
        assert!(a.perfetto.starts_with('{'));
        assert!(a.perfetto.contains("\"traceEvents\""));
        assert!(a.perfetto.contains("\"ph\":\"X\""));
        // Timeline: a CSV header plus at least one sampled interval, and
        // the JSON mirror carries the same column names.
        assert!(a.timeline_csv.starts_with("t_us,iops,wa,"));
        assert!(a.timeline_csv.lines().count() > 1);
        assert!(a.timeline_json.contains("\"columns\""));
        assert!(a.timeline_json.contains("\"iops\""));
    }
}
