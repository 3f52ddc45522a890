//! IO-trace replay.
//!
//! [`ReplayThread`] replays any streaming [`TraceSource`] (see
//! [`crate::blktrace`]) open-loop: IOs dispatch at their recorded arrival
//! timestamps via the OS timer machinery — load is what the trace says,
//! regardless of device latency, so queues can actually build — with a
//! time-warp factor to accelerate (or stretch) the recorded clock.

use eagletree_core::{BlkOp, BlkRecord, SimTime};
use eagletree_os::{CompletedIo, OsIo, ThreadCtx, Workload};

use crate::blktrace::TraceSource;

/// Fixed-point denominator for the integer time-warp division:
/// ~1e-6 relative precision, a power of two so integer and dyadic
/// warp factors (1, 2, 4, 100.0, …) divide exactly.
const WARP_SCALE: u64 = 1 << 20;

/// Replays a streaming [`TraceSource`] against the OS, dispatching each
/// record at `recorded_arrival / warp`, independent of completions.
///
/// Records are pulled one at a time (memory stays bounded by the source —
/// wrap it in a [`crate::blktrace::ChunkedSource`] for chunked prefetch),
/// split into per-page IOs, and folded into the thread's address space
/// (`page % logical_pages`), which for a tenant thread is its namespace.
pub struct ReplayThread<S> {
    src: S,
    /// `warp * WARP_SCALE`, rounded once at construction.
    warp_fp: u64,
    pending: Option<BlkRecord>,
    outstanding: u64,
    submitted: u64,
    drained: bool,
    finished: bool,
    name: String,
}

impl<S: TraceSource> ReplayThread<S> {
    /// Open-loop replay with a time-warp factor (`warp > 1` accelerates).
    pub fn open_loop(src: S, warp: f64) -> Self {
        assert!(
            warp.is_finite() && warp > 0.0,
            "time-warp factor must be positive"
        );
        // One-time quantization of the configured warp factor; every
        // per-record arrival below is computed in integer nanoseconds
        // against this fixed-point value, so the replayed timeline is
        // exact and platform-independent.
        #[expect(
            clippy::cast_sign_loss,
            reason = "a dimensionless fixed-point scale, not a time; warp is asserted finite and positive above"
        )]
        let warp_fp = ((warp * WARP_SCALE as f64).round() as u64).max(1);
        ReplayThread {
            src,
            warp_fp,
            pending: None,
            outstanding: 0,
            submitted: 0,
            drained: false,
            finished: false,
            name: "replay".to_string(),
        }
    }

    /// Override the reported thread name.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Per-page IOs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// `ns / warp` in integer arithmetic: round-to-nearest against the
    /// fixed-point factor, saturating instead of wrapping when a
    /// slow-down warp (< 1) would push past the `u64` horizon.
    fn warp_ns(&self, ns: u64) -> u64 {
        let num = ns as u128 * WARP_SCALE as u128 + self.warp_fp as u128 / 2;
        (num / self.warp_fp as u128).min(u64::MAX as u128) as u64
    }

    fn warped_instant(&self, at: SimTime) -> SimTime {
        SimTime::from_nanos(self.warp_ns(at.as_nanos()))
    }

    fn submit_record(&mut self, ctx: &mut ThreadCtx, rec: BlkRecord) {
        let space = ctx.logical_pages().max(1);
        for i in 0..rec.pages as u64 {
            let lpn = (rec.page + i) % space;
            let io = match rec.op {
                BlkOp::Read => OsIo::read(lpn),
                BlkOp::Write => OsIo::write(lpn),
                BlkOp::Trim => OsIo::trim(lpn),
            };
            ctx.submit(io);
            self.outstanding += 1;
            self.submitted += 1;
        }
    }

    fn maybe_finish(&mut self, ctx: &mut ThreadCtx) {
        if self.drained && self.pending.is_none() && self.outstanding == 0 && !self.finished {
            self.finished = true;
            ctx.finish();
        }
    }

    fn pull(&mut self) -> Option<BlkRecord> {
        if let Some(rec) = self.pending.take() {
            return Some(rec);
        }
        let rec = self.src.next_record();
        if rec.is_none() {
            self.drained = true;
        }
        rec
    }

    /// Submit everything due at `now`, then arm one timer for the next
    /// record's (warped) arrival instant.
    fn pump(&mut self, ctx: &mut ThreadCtx) {
        while let Some(rec) = self.pull() {
            let due = self.warped_instant(rec.at);
            if due <= ctx.now() {
                self.submit_record(ctx, rec);
            } else {
                self.pending = Some(rec);
                ctx.set_timer_at(due);
                break;
            }
        }
        self.maybe_finish(ctx);
    }
}

impl<S: TraceSource> Workload for ReplayThread<S> {
    fn init(&mut self, ctx: &mut ThreadCtx) {
        self.pump(ctx);
    }

    fn call_back(&mut self, ctx: &mut ThreadCtx, _done: CompletedIo) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.maybe_finish(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ThreadCtx) {
        self.pump(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_warp_scales_the_recorded_clock() {
        struct Empty;
        impl TraceSource for Empty {
            fn next_record(&mut self) -> Option<BlkRecord> {
                None
            }
        }
        let t = ReplayThread::open_loop(Empty, 4.0);
        assert_eq!(
            t.warped_instant(SimTime::from_nanos(1_000)).as_nanos(),
            250
        );
    }

    #[test]
    #[should_panic(expected = "time-warp factor must be positive")]
    fn replay_rejects_nonpositive_warp() {
        struct Empty;
        impl TraceSource for Empty {
            fn next_record(&mut self) -> Option<BlkRecord> {
                None
            }
        }
        let _ = ReplayThread::open_loop(Empty, 0.0);
    }
}
