//! Battery-backed RAM write buffer.
//!
//! §2.2: "other modules can be added to the SSD controller, e.g., a
//! write-buffering module that uses battery-backed RAM to temporarily
//! store data before it is written on flash pages." Because the RAM is
//! battery-backed, a buffered write is durable and completes immediately;
//! repeated writes to the same logical page are *absorbed* (only the last
//! version ever reaches flash), and reads of buffered pages are served
//! from RAM.
//!
//! Entries carry a version so an in-flight flush can detect that its page
//! was re-dirtied (or trimmed) while the program was in flight and discard
//! the stale flash copy instead of publishing it.

use std::collections::VecDeque;

use crate::types::Lpn;

/// FIFO write buffer with per-entry versions.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    /// The version of every buffered page, by LPN; 0 when the page is not
    /// buffered (versions start at 1).
    entries: Vec<u64>,
    /// Every buffered page once, oldest first, except that a batch handed
    /// out for flushing went to the back. A page leaves it where it
    /// leaves `entries`, so a rewrite queues it anew, never twice.
    order: VecDeque<Lpn>,
    next_version: u64,
    /// Overwrites absorbed in RAM (writes that never cost a flash program).
    pub absorbed: u64,
    /// Reads served from the buffer.
    pub read_hits: u64,
    /// Flush programs started.
    pub flushes_started: u64,
}

impl WriteBuffer {
    /// A buffer holding up to `capacity` pages (> 0) of a device that
    /// exports `logical_pages`.
    pub fn new(capacity: usize, logical_pages: u64) -> Self {
        assert!(capacity > 0, "write buffer capacity must be positive");
        WriteBuffer {
            capacity,
            entries: vec![0; logical_pages as usize],
            order: VecDeque::new(),
            next_version: 0,
            absorbed: 0,
            read_hits: 0,
            flushes_started: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn contains(&self, lpn: Lpn) -> bool {
        self.entries.get(lpn as usize).is_some_and(|&v| v != 0)
    }

    /// Buffer a write. Returns `true` when it absorbed an existing entry
    /// (no growth), `false` when a new entry was added.
    pub fn write(&mut self, lpn: Lpn) -> bool {
        self.next_version += 1;
        let absorbed = std::mem::replace(&mut self.entries[lpn as usize], self.next_version) != 0;
        if absorbed {
            self.absorbed += 1;
        } else {
            self.order.push_back(lpn);
        }
        absorbed
    }

    /// Note a read served from the buffer.
    pub fn note_read_hit(&mut self) {
        self.read_hits += 1;
    }

    /// Drop an entry (trim).
    pub fn remove(&mut self, lpn: Lpn) {
        if self.contains(lpn) {
            self.evict(lpn);
        }
    }

    /// Take buffered `lpn` out of `entries` and `order`.
    fn evict(&mut self, lpn: Lpn) {
        self.entries[lpn as usize] = 0;
        let at = self
            .order
            .iter()
            .position(|&l| l == lpn)
            .expect("a buffered page is queued");
        self.order.remove(at);
    }

    /// The buffered logical pages, oldest first. Battery-backed RAM
    /// survives a power cut; remount re-installs exactly this list.
    pub fn resident_lpns(&self) -> Vec<Lpn> {
        self.order.iter().copied().collect()
    }

    /// Whether the buffer is at/over capacity and should flush.
    pub fn needs_flush(&self) -> bool {
        self.order.len() >= self.capacity
    }

    /// Oldest entries to flush, with their captured versions. Takes up to
    /// `max(1, capacity/4)` entries (they stay buffered until the flush
    /// completes; callers must not re-request while flushes are pending).
    pub fn next_flush_candidates(&mut self) -> Vec<(Lpn, u64)> {
        let want = (self.capacity / 4).max(1).min(self.len());
        let out: Vec<(Lpn, u64)> = self
            .order
            .drain(..want)
            .map(|lpn| (lpn, self.entries[lpn as usize]))
            .collect();
        // Flushing entries go to the back so a second flush round picks
        // other pages first.
        self.order.extend(out.iter().map(|&(lpn, _)| lpn));
        self.flushes_started += out.len() as u64;
        out
    }

    /// Finish a flush: remove the entry if its version is unchanged.
    /// Returns `true` when the flushed copy is current (publish it) and
    /// `false` when it was superseded or trimmed mid-flight (discard).
    pub fn flush_done(&mut self, lpn: Lpn, version: u64) -> bool {
        let current = self.contains(lpn) && self.entries[lpn as usize] == version;
        if current {
            self.evict(lpn);
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_absorb_duplicates() {
        let mut b = WriteBuffer::new(4, 16);
        assert!(!b.write(1));
        assert!(b.write(1));
        assert_eq!(b.len(), 1);
        assert_eq!(b.absorbed, 1);
    }

    #[test]
    fn needs_flush_at_capacity() {
        let mut b = WriteBuffer::new(2, 16);
        b.write(1);
        assert!(!b.needs_flush());
        b.write(2);
        assert!(b.needs_flush());
    }

    #[test]
    fn flush_candidates_are_oldest_first() {
        let mut b = WriteBuffer::new(8, 16);
        for lpn in 0..8 {
            b.write(lpn);
        }
        let c = b.next_flush_candidates();
        assert_eq!(c.len(), 2); // capacity/4
        assert_eq!(c[0].0, 0);
        assert_eq!(c[1].0, 1);
        assert_eq!(b.flushes_started, 2);
    }

    #[test]
    fn flush_done_checks_version() {
        let mut b = WriteBuffer::new(4, 16);
        b.write(5);
        let c = b.next_flush_candidates();
        let (lpn, v) = c[0];
        // Re-dirty before the flush lands.
        b.write(5);
        assert!(!b.flush_done(lpn, v), "stale flush must be discarded");
        assert!(b.contains(5), "re-dirtied entry must stay");
        // Second flush with the fresh version succeeds.
        let c = b.next_flush_candidates();
        assert!(b.flush_done(c[0].0, c[0].1));
        assert!(!b.contains(5));
    }

    #[test]
    fn trimmed_entries_never_flush() {
        let mut b = WriteBuffer::new(4, 16);
        b.write(1);
        b.write(2);
        b.remove(1);
        let c = b.next_flush_candidates();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, 2);
    }

    #[test]
    fn flush_done_after_trim_is_stale() {
        let mut b = WriteBuffer::new(4, 16);
        b.write(9);
        let c = b.next_flush_candidates();
        b.remove(9);
        assert!(!b.flush_done(c[0].0, c[0].1));
    }
}
