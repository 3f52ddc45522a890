//! Two-tier calendar (ladder) queue over the discrete ns timeline.
//!
//! Flash op latencies are a small set of nanosecond constants, so the
//! simulator's event timeline is dense and discrete — the textbook case
//! for a calendar queue: a ring of fixed-width time buckets covers the
//! *near horizon* (where almost every event lands), and a conventional
//! binary heap holds the *overflow tier* of far-future outliers
//! (checkpoint timers, QoS refills, multi-ms erases). Scheduling appends
//! to a bucket in O(1); popping sorts one bucket at a time lazily, so the
//! amortized cost per event is O(1) plus an O(b log b) share for its
//! bucket of size `b`.
//!
//! Determinism is non-negotiable: [`Calendar`] pops events in exactly
//! ascending `(time, seq)` order — the same total order the heap oracle
//! in [`crate::event`] produces — *by construction*, independent of
//! bucket width or ring size. Tuning (see [`Calendar::retune`]) only
//! moves work between the two tiers; it can never reorder events.
//!
//! Internal layout:
//!
//! * `cur` — the *active* bucket (index `cursor`), sorted **descending**
//!   by `(time, seq)` so the next event pops from the `Vec` tail without
//!   shifting.
//! * `buckets` — the ring; slot `g & (nbuckets-1)` holds the unsorted
//!   events of global bucket `g` for `cursor < g < cursor + nbuckets`.
//! * `occ` — an occupancy bitmap over ring slots, so advancing the
//!   cursor skips runs of empty buckets with a couple of word scans
//!   instead of walking them one by one.
//! * `overflow` — min-heap of events at or beyond the near horizon;
//!   they migrate into the ring as the cursor advances past their
//!   admission point.

use std::collections::BinaryHeap;

use crate::event::{Entry, ScheduledEvent};
use crate::time::{SimDuration, SimTime};

/// Default ring size. Must be a power of two and at least 64.
const DEFAULT_NBUCKETS: usize = 1024;

/// Default bucket width of `1 << 12` ns ≈ 4.1 µs: with 1024 buckets the
/// near horizon spans ~4.2 ms, covering every flash op latency except the
/// slowest erases (which ride the overflow tier until the cursor nears).
const DEFAULT_SHIFT: u32 = 12;

pub(crate) struct Calendar<E> {
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Occupancy bitmap over ring slots (`nbuckets / 64` words).
    occ: Vec<u64>,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Global index of the active bucket; equals `bucket(now)` after any
    /// pop, so future schedules (clamped to `now`) never land behind it.
    cursor: u64,
    /// Active bucket, sorted descending by `(time, seq)`; pops from tail.
    cur: Vec<ScheduledEvent<E>>,
    /// Far-future tier: events with `bucket >= cursor + nbuckets`.
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    /// Eagerly maintained `(time, seq)` of the earliest pending event.
    min_key: Option<(SimTime, u64)>,
}

impl<E> Calendar<E> {
    pub(crate) fn new() -> Self {
        Self::with_params(DEFAULT_NBUCKETS, DEFAULT_SHIFT)
    }

    pub(crate) fn with_params(nbuckets: usize, shift: u32) -> Self {
        assert!(
            nbuckets >= 64 && nbuckets.is_power_of_two(),
            "calendar ring must be a power of two >= 64"
        );
        Calendar {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            occ: vec![0u64; nbuckets / 64],
            shift,
            cursor: 0,
            cur: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            min_key: None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.min_key
    }

    fn mask(&self) -> u64 {
        (self.buckets.len() - 1) as u64
    }

    fn bucket_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    pub(crate) fn push(&mut self, ev: ScheduledEvent<E>) {
        let key = (ev.time, ev.seq);
        let g = self.bucket_of(ev.time);
        if g <= self.cursor {
            // Active bucket: sorted-insert to keep the descending order.
            // Common for "fire immediately" events scheduled at `now`.
            let i = self.cur.partition_point(|e| (e.time, e.seq) > key);
            self.cur.insert(i, ev);
        } else if g < self.cursor + self.buckets.len() as u64 {
            self.place_near(g, ev);
        } else {
            self.overflow.push(Entry(ev));
        }
        self.len += 1;
        if self.min_key.is_none_or(|m| key < m) {
            self.min_key = Some(key);
        }
    }

    fn place_near(&mut self, g: u64, ev: ScheduledEvent<E>) {
        let s = (g & self.mask()) as usize;
        self.buckets[s].push(ev);
        self.occ[s >> 6] |= 1u64 << (s & 63);
    }

    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            let g = match self.next_near_bucket() {
                Some(g) => g,
                // Everything pending is far-future: re-anchor the ring at
                // the overflow minimum and migrate the new window in.
                None => self.bucket_of(self.overflow.peek().expect("len > 0").0.time),
            };
            self.advance_to(g);
            debug_assert!(!self.cur.is_empty());
        }
        let ev = self.cur.pop().expect("active bucket non-empty");
        self.len -= 1;
        self.recompute_min();
        Some(ev)
    }

    /// Global index of the nearest ring bucket holding events, if any.
    fn next_near_bucket(&self) -> Option<u64> {
        if self.len == self.overflow.len() + self.cur.len() {
            return None;
        }
        let n = self.buckets.len();
        let from = self.cursor + 1;
        let start = (from & self.mask()) as usize;
        let pos = self.next_set(start).expect("ring events but empty bitmap");
        let dist = (pos + n - start) & (n - 1);
        Some(from + dist as u64)
    }

    /// First set occupancy bit at ring position >= `start` (circular).
    fn next_set(&self, start: usize) -> Option<usize> {
        let nwords = self.occ.len();
        let (sw, sb) = (start >> 6, start & 63);
        let first = self.occ[sw] & (!0u64 << sb);
        if first != 0 {
            return Some((sw << 6) + first.trailing_zeros() as usize);
        }
        for k in 1..nwords {
            let i = (sw + k) & (nwords - 1);
            let w = self.occ[i];
            if w != 0 {
                return Some((i << 6) + w.trailing_zeros() as usize);
            }
        }
        let wrapped = self.occ[sw] & !(!0u64 << sb);
        if wrapped != 0 {
            return Some((sw << 6) + wrapped.trailing_zeros() as usize);
        }
        None
    }

    /// Move the cursor to bucket `g`, migrate overflow events that the
    /// advance brought inside the near horizon, then activate the bucket.
    ///
    /// Migration must precede activation: a migrated event may belong to
    /// bucket `g` itself (always so when re-anchoring from overflow).
    fn advance_to(&mut self, g: u64) {
        self.cursor = g;
        let horizon = g + self.buckets.len() as u64;
        while let Some(e) = self.overflow.peek() {
            if self.bucket_of(e.0.time) >= horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked overflow").0;
            let gb = self.bucket_of(ev.time);
            self.place_near(gb, ev);
        }
        let s = (g & self.mask()) as usize;
        self.occ[s >> 6] &= !(1u64 << (s & 63));
        // Swap the slot's Vec in as the active bucket and recycle the old
        // (drained) active Vec's allocation into the now-empty slot.
        let old = std::mem::replace(&mut self.cur, std::mem::take(&mut self.buckets[s]));
        debug_assert!(old.is_empty());
        self.buckets[s] = old;
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
    }

    fn recompute_min(&mut self) {
        self.min_key = if let Some(e) = self.cur.last() {
            Some((e.time, e.seq))
        } else if self.len > self.overflow.len() {
            let g = self.next_near_bucket().expect("ring holds events");
            let s = (g & self.mask()) as usize;
            self.buckets[s].iter().map(|e| (e.time, e.seq)).min()
        } else {
            self.overflow.peek().map(|e| (e.0.time, e.0.seq))
        };
    }

    /// Re-tune the bucket width so `horizon` spans about half the ring,
    /// then re-bucket all pending events around `now`.
    ///
    /// Callers pass the largest gap they expect between now and the events
    /// they schedule (max flash-op latency, timer period, QoS refill gap);
    /// sizing the ring to cover it keeps those events out of the overflow
    /// heap without inflating the empty-bucket scan distance. A no-op when
    /// the width is already right; rebucketing cannot reorder pops.
    pub(crate) fn retune(&mut self, now: SimTime, horizon: SimDuration) {
        let per = horizon
            .as_nanos()
            .max(1)
            .div_ceil(self.buckets.len() as u64 / 2)
            .max(1);
        let shift = ceil_log2(per).clamp(4, 36);
        if shift == self.shift {
            return;
        }
        let mut all: Vec<ScheduledEvent<E>> = Vec::with_capacity(self.len);
        all.append(&mut self.cur);
        for s in 0..self.buckets.len() {
            if !self.buckets[s].is_empty() {
                all.append(&mut self.buckets[s]);
            }
        }
        self.occ.fill(0);
        while let Some(Entry(e)) = self.overflow.pop() {
            all.push(e);
        }
        self.shift = shift;
        self.cursor = now.as_nanos() >> shift;
        self.len = 0;
        self.min_key = None;
        for ev in all {
            self.push(ev);
        }
    }
}

fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, seq: u64) -> ScheduledEvent<u64> {
        ScheduledEvent {
            time: SimTime::from_nanos(ns),
            seq,
            payload: seq,
        }
    }

    #[test]
    fn pops_ascending_across_tiers() {
        let mut c = Calendar::with_params(64, 4); // 16 ns buckets, 1 µs window
        // Far-future outlier straight to overflow, then near events.
        c.push(ev(1_000_000, 0));
        c.push(ev(40, 1));
        c.push(ev(40, 2));
        c.push(ev(7, 3));
        assert_eq!(c.peek_key(), Some((SimTime::from_nanos(7), 3)));
        let order: Vec<u64> = std::iter::from_fn(|| c.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn retune_preserves_order() {
        let mut c = Calendar::with_params(64, 0);
        for i in 0..100u64 {
            c.push(ev(i * 37 % 1000, i));
        }
        c.retune(SimTime::ZERO, SimDuration::from_micros(100));
        let mut last = None;
        let mut n = 0;
        while let Some(e) = c.pop() {
            let key = (e.time, e.seq);
            assert!(last.is_none_or(|l| l < key));
            last = Some(key);
            n += 1;
        }
        assert_eq!(n, 100);
    }
}
