//! IO-trace replay.
//!
//! [`ReplayThread`] replays any streaming [`TraceSource`] (see
//! [`crate::blktrace`]). In **open-loop** mode IOs dispatch at their
//! recorded arrival timestamps via the OS timer machinery — load is what
//! the trace says, regardless of device latency, so queues can actually
//! build — with a time-warp factor to accelerate (or stretch) the recorded
//! clock. In **closed-loop** mode the recorded inter-arrival gaps are
//! preserved as think times after each record's completions, the classic
//! feedback-limited replay.

use eagletree_core::{BlkOp, BlkRecord, SimDuration, SimTime};
use eagletree_os::{CompletedIo, OsIo, ThreadCtx, Workload};

use crate::blktrace::TraceSource;

/// How a [`ReplayThread`] paces the trace.
#[derive(Debug, Clone, Copy)]
pub enum ReplayMode {
    /// Dispatch each record at `recorded_arrival / warp`, independent of
    /// completions. `warp > 1` accelerates the recorded clock.
    OpenLoop { warp: f64 },
    /// Dispatch each record after the previous record's completions plus
    /// the (warped) recorded inter-arrival gap — think times preserved.
    ClosedLoop { warp: f64 },
}

/// Replays a streaming [`TraceSource`] against the OS.
///
/// Records are pulled one at a time (memory stays bounded by the source —
/// wrap it in a [`crate::blktrace::ChunkedSource`] for chunked prefetch),
/// split into per-page IOs, and folded into the thread's address space
/// (`page % logical_pages`), which for a tenant thread is its namespace.
/// Fixed-point denominator for the integer time-warp division:
/// ~1e-6 relative precision, a power of two so integer and dyadic
/// warp factors (1, 2, 4, 100.0, …) divide exactly.
const WARP_SCALE: u64 = 1 << 20;

pub struct ReplayThread<S> {
    src: S,
    mode: ReplayMode,
    /// `warp * WARP_SCALE`, rounded once at construction.
    warp_fp: u64,
    pending: Option<BlkRecord>,
    outstanding: u64,
    submitted: u64,
    last_at: SimTime,
    drained: bool,
    finished: bool,
    name: String,
}

impl<S: TraceSource> ReplayThread<S> {
    /// Open-loop replay with a time-warp factor (`warp > 1` accelerates).
    pub fn open_loop(src: S, warp: f64) -> Self {
        Self::new(src, ReplayMode::OpenLoop { warp })
    }

    /// Closed-loop replay preserving (warped) recorded think times.
    pub fn closed_loop(src: S, warp: f64) -> Self {
        Self::new(src, ReplayMode::ClosedLoop { warp })
    }

    pub fn new(src: S, mode: ReplayMode) -> Self {
        let warp = match mode {
            ReplayMode::OpenLoop { warp } | ReplayMode::ClosedLoop { warp } => warp,
        };
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
            mode,
            warp_fp,
            pending: None,
            outstanding: 0,
            submitted: 0,
            last_at: SimTime::ZERO,
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

    fn warped_gap(&self, gap: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.warp_ns(gap.as_nanos()))
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

    /// Open loop: submit everything due at `now`, then arm one timer for
    /// the next record's (warped) arrival instant.
    fn pump_open(&mut self, ctx: &mut ThreadCtx) {
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

    /// Closed loop: once the previous record fully completed, wait out the
    /// recorded gap (as a think time), then submit the next record.
    fn advance_closed(&mut self, ctx: &mut ThreadCtx) {
        match self.pull() {
            None => self.maybe_finish(ctx),
            Some(rec) => {
                let gap = self.warped_gap(rec.at.saturating_since(self.last_at));
                self.last_at = rec.at;
                if gap == SimDuration::ZERO {
                    self.submit_record(ctx, rec);
                } else {
                    self.pending = Some(rec);
                    ctx.set_timer(gap);
                }
            }
        }
    }
}

impl<S: TraceSource> Workload for ReplayThread<S> {
    fn init(&mut self, ctx: &mut ThreadCtx) {
        match self.mode {
            ReplayMode::OpenLoop { .. } => self.pump_open(ctx),
            ReplayMode::ClosedLoop { .. } => self.advance_closed(ctx),
        }
    }

    fn call_back(&mut self, ctx: &mut ThreadCtx, _done: CompletedIo) {
        self.outstanding = self.outstanding.saturating_sub(1);
        match self.mode {
            ReplayMode::OpenLoop { .. } => self.maybe_finish(ctx),
            ReplayMode::ClosedLoop { .. } => {
                if self.outstanding == 0 && self.pending.is_none() {
                    self.advance_closed(ctx);
                } else {
                    self.maybe_finish(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ThreadCtx) {
        match self.mode {
            ReplayMode::OpenLoop { .. } => self.pump_open(ctx),
            ReplayMode::ClosedLoop { .. } => {
                if let Some(rec) = self.pending.take() {
                    self.submit_record(ctx, rec);
                }
            }
        }
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
        assert_eq!(t.warped_gap(SimDuration::from_nanos(1_000)).as_nanos(), 250);
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
