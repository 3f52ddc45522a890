//! The thread programming framework.
//!
//! "The Thread layer is a programming framework that gives users absolute
//! control over the workload. Users are able to extend an abstract thread
//! class by providing a definition for two methods: init() and call_back()"
//! (§2.2). Here the abstract class is the [`Workload`] trait; the OS calls
//! [`Workload::init`] when the thread starts (once its dependencies have
//! finished) and [`Workload::call_back`] each time one of its IOs
//! completes. Both receive a [`ThreadCtx`] through which any number of IOs
//! (or timers) may be issued.

use eagletree_controller::{IoTags, RequestKind};
use eagletree_core::{SimDuration, SimTime};

/// Identifier of a simulated thread.
pub type ThreadId = usize;

/// An IO a thread hands to the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsIo {
    /// Read, write or trim.
    pub kind: RequestKind,
    /// Target logical page.
    pub lpn: u64,
    /// Open-interface hints (stripped by the OS when the interface is
    /// locked).
    pub tags: IoTags,
}

impl OsIo {
    /// An untagged read.
    pub fn read(lpn: u64) -> Self {
        OsIo {
            kind: RequestKind::Read,
            lpn,
            tags: IoTags::none(),
        }
    }

    /// An untagged write.
    pub fn write(lpn: u64) -> Self {
        OsIo {
            kind: RequestKind::Write,
            lpn,
            tags: IoTags::none(),
        }
    }

    /// An untagged trim.
    pub fn trim(lpn: u64) -> Self {
        OsIo {
            kind: RequestKind::Trim,
            lpn,
            tags: IoTags::none(),
        }
    }

    /// Attach open-interface tags.
    pub fn tagged(mut self, tags: IoTags) -> Self {
        self.tags = tags;
        self
    }
}

/// Completion details delivered to [`Workload::call_back`].
#[derive(Debug, Clone, Copy)]
pub struct CompletedIo {
    /// The IO as submitted.
    pub io: OsIo,
    /// When the thread enqueued it at the OS.
    pub enqueued_at: SimTime,
    /// When the OS dispatched it to the SSD.
    pub dispatched_at: SimTime,
    /// When the SSD completed it.
    pub completed_at: SimTime,
}

impl CompletedIo {
    /// End-to-end latency (enqueue → completion).
    pub fn latency(&self) -> SimDuration {
        self.completed_at.since(self.enqueued_at)
    }
}

/// Actions a thread can take from its callbacks. Handed to the workload by
/// the OS; submissions are buffered into the thread's OS queue.
pub struct ThreadCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) logical_pages: u64,
    pub(crate) submissions: &'a mut Vec<OsIo>,
    pub(crate) timers: &'a mut Vec<SimDuration>,
    pub(crate) finished: &'a mut bool,
}

impl ThreadCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Logical pages exported by the device (the workload address space).
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Enqueue an IO with the OS (dispatched per OS policy/queue depth).
    pub fn submit(&mut self, io: OsIo) {
        self.submissions.push(io);
    }

    /// Request a [`Workload::on_timer`] callback after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration) {
        self.timers.push(delay);
    }

    /// Request a [`Workload::on_timer`] callback at the absolute virtual
    /// instant `at`. Instants at or before [`ThreadCtx::now`] fire on the
    /// next scheduling pass. This is the open-loop replay primitive: a
    /// trace's recorded arrival timestamps can be scheduled directly
    /// without converting to relative delays at each call site.
    pub fn set_timer_at(&mut self, at: SimTime) {
        self.timers.push(at.saturating_since(self.now));
    }

    /// Declare this thread finished. Threads depending on it may start;
    /// its remaining in-flight IOs still complete (with callbacks).
    pub fn finish(&mut self) {
        *self.finished = true;
    }
}

/// A simulated application thread.
///
/// Implementations drive arbitrary IO patterns: issue any number of IOs
/// from `init`, then react to each completion in `call_back`.
pub trait Workload {
    /// Called once when the OS starts the thread (dependencies satisfied).
    fn init(&mut self, ctx: &mut ThreadCtx);

    /// Called on each completion of one of this thread's IOs.
    fn call_back(&mut self, ctx: &mut ThreadCtx, done: CompletedIo);

    /// Called when a timer set via [`ThreadCtx::set_timer`] expires.
    fn on_timer(&mut self, _ctx: &mut ThreadCtx) {}

    /// Short name for reports.
    fn name(&self) -> &str {
        "thread"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_io_constructors() {
        assert_eq!(OsIo::read(5).kind, RequestKind::Read);
        assert_eq!(OsIo::write(5).kind, RequestKind::Write);
        assert_eq!(OsIo::trim(5).kind, RequestKind::Trim);
        let t = OsIo::write(1).tagged(IoTags::none().with_priority(2));
        assert_eq!(t.tags.priority, Some(2));
    }

    #[test]
    fn completed_io_latencies() {
        let c = CompletedIo {
            io: OsIo::read(0),
            enqueued_at: SimTime::from_nanos(100),
            dispatched_at: SimTime::from_nanos(150),
            completed_at: SimTime::from_nanos(500),
        };
        assert_eq!(c.latency().as_nanos(), 400);
    }

    #[test]
    fn ctx_buffers_submissions_and_state() {
        let mut subs = Vec::new();
        let mut timers = Vec::new();
        let mut fin = false;
        let mut ctx = ThreadCtx {
            now: SimTime::from_nanos(9),
            logical_pages: 64,
            submissions: &mut subs,
            timers: &mut timers,
            finished: &mut fin,
        };
        assert_eq!(ctx.now().as_nanos(), 9);
        assert_eq!(ctx.logical_pages(), 64);
        ctx.submit(OsIo::read(1));
        ctx.set_timer(SimDuration::from_micros(5));
        ctx.finish();
        assert_eq!(subs.len(), 1);
        assert_eq!(timers.len(), 1);
        assert!(fin);
    }

    #[test]
    fn absolute_timers_become_relative_delays() {
        let mut subs = Vec::new();
        let mut timers = Vec::new();
        let mut fin = false;
        let mut ctx = ThreadCtx {
            now: SimTime::from_nanos(1_000),
            logical_pages: 64,
            submissions: &mut subs,
            timers: &mut timers,
            finished: &mut fin,
        };
        ctx.set_timer_at(SimTime::from_nanos(1_750));
        // An instant already in the past clamps to an immediate timer
        // rather than panicking or wrapping.
        ctx.set_timer_at(SimTime::from_nanos(400));
        assert_eq!(timers[0].as_nanos(), 750);
        assert_eq!(timers[1], SimDuration::ZERO);
    }
}
