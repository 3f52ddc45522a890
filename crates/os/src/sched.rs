//! OS-level IO dispatch policies.
//!
//! "What is the best scheduling strategy (e.g., FIFO, CFQ, priorities)?
//! How many outstanding IOs should be submitted to the SSD?" (§2.1). The
//! policy chooses which thread's queue to serve next whenever a slot in the
//! bounded device queue frees up; the queue-depth knob lives in
//! [`crate::OsConfig`].

use eagletree_controller::RequestKind;
use eagletree_core::SimTime;

use crate::thread::ThreadId;

/// Which thread's head-of-queue IO to dispatch next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsSchedPolicy {
    /// Global arrival order across all threads (the paper's default).
    Fifo,
    /// Fair round-robin over threads with pending IOs (CFQ-like: each
    /// thread gets an equal share of dispatch slots).
    RoundRobin,
    /// Per-thread priorities, lower value first; FIFO within a priority.
    /// Threads beyond the vector get priority 128.
    ThreadPriority(Vec<u8>),
    /// Earliest-deadline-first by request kind: reads get `read_us`,
    /// writes/trims get `write_us` relative deadlines (µs).
    Deadline { read_us: u64, write_us: u64 },
}

/// A dispatch candidate: the head of one thread's queue.
#[derive(Debug, Clone, Copy)]
pub struct DispatchCandidate {
    pub thread: ThreadId,
    pub kind: RequestKind,
    pub enqueued_at: SimTime,
    /// Global arrival sequence number.
    pub seq: u64,
}

impl OsSchedPolicy {
    /// Pick the index into `heads` to dispatch next. `last_served` is the
    /// previously served thread (round-robin state). Returns `None` when
    /// `heads` is empty.
    pub fn select(&self, heads: &[DispatchCandidate], last_served: ThreadId) -> Option<usize> {
        if heads.is_empty() {
            return None;
        }
        match self {
            OsSchedPolicy::Fifo => heads
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.seq)
                .map(|(i, _)| i),
            OsSchedPolicy::RoundRobin => {
                // The next thread strictly after `last_served` (cyclically)
                // that has a pending IO.
                heads
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| {
                        let dist = c.thread.wrapping_sub(last_served + 1);
                        (dist, c.seq)
                    })
                    .map(|(i, _)| i)
            }
            OsSchedPolicy::ThreadPriority(prio) => heads
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    let p = prio.get(c.thread).copied().unwrap_or(128);
                    (p, c.seq)
                })
                .map(|(i, _)| i),
            OsSchedPolicy::Deadline { read_us, write_us } => heads
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    let rel = match c.kind {
                        RequestKind::Read => *read_us,
                        RequestKind::Write | RequestKind::Trim => *write_us,
                    };
                    (c.enqueued_at.as_nanos() + rel * 1_000, c.seq)
                })
                .map(|(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(thread: ThreadId, kind: RequestKind, enq_ns: u64, seq: u64) -> DispatchCandidate {
        DispatchCandidate {
            thread,
            kind,
            enqueued_at: SimTime::from_nanos(enq_ns),
            seq,
        }
    }

    #[test]
    fn fifo_is_global_arrival_order() {
        let heads = vec![
            cand(0, RequestKind::Write, 10, 3),
            cand(1, RequestKind::Read, 5, 1),
        ];
        assert_eq!(OsSchedPolicy::Fifo.select(&heads, 0), Some(1));
    }

    #[test]
    fn round_robin_cycles_threads() {
        let heads = vec![
            cand(0, RequestKind::Read, 0, 0),
            cand(1, RequestKind::Read, 0, 1),
            cand(2, RequestKind::Read, 0, 2),
        ];
        let p = OsSchedPolicy::RoundRobin;
        assert_eq!(p.select(&heads, 0), Some(1)); // after 0 comes 1
        assert_eq!(p.select(&heads, 1), Some(2));
        assert_eq!(p.select(&heads, 2), Some(0)); // wraps
        // Skips threads without pending IOs.
        let heads = vec![cand(0, RequestKind::Read, 0, 0), cand(2, RequestKind::Read, 0, 1)];
        assert_eq!(p.select(&heads, 0), Some(1)); // thread 2 is next present
    }

    #[test]
    fn thread_priority_orders_threads() {
        let p = OsSchedPolicy::ThreadPriority(vec![5, 0, 3]);
        let heads = vec![
            cand(0, RequestKind::Read, 0, 0),
            cand(1, RequestKind::Read, 0, 1),
            cand(2, RequestKind::Read, 0, 2),
        ];
        assert_eq!(p.select(&heads, 0), Some(1));
        // Unlisted thread defaults to 128 (last).
        let heads = vec![cand(7, RequestKind::Read, 0, 0), cand(2, RequestKind::Read, 0, 1)];
        assert_eq!(p.select(&heads, 0), Some(1));
    }

    #[test]
    fn deadline_prefers_tight_reads() {
        let p = OsSchedPolicy::Deadline {
            read_us: 100,
            write_us: 1_000,
        };
        // Write enqueued slightly earlier, read has a tighter deadline.
        let heads = vec![
            cand(0, RequestKind::Write, 0, 0),
            cand(1, RequestKind::Read, 50_000, 1),
        ];
        assert_eq!(p.select(&heads, 0), Some(1));
        // A very old write eventually wins.
        let heads = vec![
            cand(0, RequestKind::Write, 0, 0),
            cand(1, RequestKind::Read, 2_000_000, 1),
        ];
        assert_eq!(p.select(&heads, 0), Some(0));
    }

    #[test]
    fn empty_heads_yield_none() {
        assert_eq!(OsSchedPolicy::Fifo.select(&[], 0), None);
        assert_eq!(OsSchedPolicy::RoundRobin.select(&[], 3), None);
    }
}
