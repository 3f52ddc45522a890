//! Deterministic event queue.
//!
//! The whole simulator is driven by [`EventQueue`]s: components schedule
//! payloads at future instants and the main loop pops them in order.
//! Timestamp ties are broken by insertion sequence number, which makes event
//! delivery order — and therefore every simulation result — fully
//! deterministic for a given configuration and seed.
//!
//! The queue is the standard library's binary heap keyed on `(time, seq)`:
//! O(log n) per op, simple and obviously correct.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

std::thread_local! {
    /// Per-thread count of events popped. Each simulation runs wholly on
    /// one thread, so deltas of this attribute events to the *experiment*
    /// even when the harness runs several experiments on parallel worker
    /// threads.
    static THREAD_EVENTS_POPPED: Cell<u64> = const { Cell::new(0) };
}

/// Events popped by queues on the *calling thread* since it started.
/// Deltas around a simulation give its exact event count regardless of
/// what other worker threads run concurrently.
pub fn thread_events_popped() -> u64 {
    THREAD_EVENTS_POPPED.with(Cell::get)
}

// named by `benchmark/src/trace.rs`; delete with ROADMAP 1(b)
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueKind;

/// An event that has been scheduled on the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// The instant at which the event fires.
    pub time: SimTime,
    /// Monotonic insertion number; the tie-breaker for equal timestamps.
    pub seq: u64,
    /// The caller-supplied payload.
    pub payload: E,
}

/// Internal heap entry ordered for a *min*-heap on `(time, seq)`.
struct Entry<E>(ScheduledEvent<E>);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest event first.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events with equal timestamps pop in insertion order (FIFO), so the
/// simulation is reproducible regardless of heap internals.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    scheduled: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            scheduled: 0,
            now: SimTime::ZERO,
        }
    }

    // named by `benchmark/src/trace.rs`; delete with ROADMAP 1(b)
    #[doc(hidden)]
    pub fn with_kind(_: QueueKind) -> Self {
        Self::new()
    }

    /// Events popped from this queue so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Events scheduled on this queue so far.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// The current virtual time: the timestamp of the last popped event
    /// (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at `time`.
    ///
    /// The simulator never rewinds: scheduling in the past is a caller bug
    /// that panics in debug builds. Release builds *clamp* `time` to `now`
    /// instead — the event fires immediately, in scheduling order after
    /// events already pending at `now` — rather than silently rewinding
    /// the clock and reordering deliveries as a raw heap push would.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(
            time >= self.now,
            "scheduled an event in the past: {time:?} < {:?}",
            self.now
        );
        let time = time.max(self.now);
        self.scheduled += 1;
        self.heap.push(Entry(ScheduledEvent { time, seq, payload }));
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?.0;
        self.now = ev.time;
        self.popped += 1;
        THREAD_EVENTS_POPPED.with(|c| c.set(c.get() + 1));
        Some(ev)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// `(time, seq)` of the next event without popping it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.0.time, e.0.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_timestamps_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_nanos(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.payload, 1);
        // Scheduling relative to now is typical usage.
        q.schedule(q.now() + SimDuration::from_nanos(5), 2);
        q.schedule(q.now() + SimDuration::from_nanos(1), 3);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn counts_scheduled_and_popped() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_nanos(i), ());
        }
        q.pop();
        q.pop();
        assert_eq!(q.scheduled(), 5);
        assert_eq!(q.popped(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn thread_counter_tracks_pops() {
        let before = thread_events_popped();
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), ());
        q.pop();
        assert_eq!(thread_events_popped(), before + 1);
    }

    #[test]
    #[should_panic(expected = "scheduled an event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_clamps_past_timestamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 0);
        q.pop();
        // A buggy past-scheduled event fires at `now`, after events
        // already pending there — the clock never rewinds.
        q.schedule(q.now(), 1);
        q.schedule(SimTime::from_nanos(3), 2);
        let a = q.pop().unwrap();
        assert_eq!((a.time, a.payload), (SimTime::from_nanos(10), 1));
        let b = q.pop().unwrap();
        assert_eq!((b.time, b.payload), (SimTime::from_nanos(10), 2));
        assert_eq!(q.now(), SimTime::from_nanos(10));
    }
}
