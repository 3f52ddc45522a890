//! A small intrusive-list LRU cache used by DFTL's cached mapping table.
//!
//! Keys are `u64` (logical page numbers). Entries carry a dirty flag and a
//! pin count; pinned entries are skipped by eviction so mapping entries of
//! in-flight IOs cannot disappear under them.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    dirty: bool,
    pins: u32,
    prev: usize,
    next: usize,
}

/// LRU cache with dirty flags and pinning.
#[derive(Debug, Clone)]
pub struct LruCache {
    map: BTreeMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruCache {
    /// A cache bounded to `capacity` entries (> 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: BTreeMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// True if the entry exists and is dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.map.get(&key).is_some_and(|&i| self.nodes[i].dirty)
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Touch `key` (move to MRU). Returns true if present.
    pub fn touch(&mut self, key: u64) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.unlink(i);
            self.push_front(i);
            true
        } else {
            false
        }
    }

    /// Insert `key` (or touch it if present), setting `dirty` by OR.
    ///
    /// If the cache is over capacity afterwards, evicts the least recently
    /// used *unpinned* entry and returns `Some((key, was_dirty))`. Returns
    /// `None` when nothing was evicted (capacity available, or every entry
    /// pinned — the cache then temporarily exceeds capacity rather than
    /// deadlock).
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].dirty |= dirty;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let i = if let Some(i) = self.free.pop() {
            self.nodes[i] = Node {
                key,
                dirty,
                pins: 0,
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.nodes.push(Node {
                key,
                dirty,
                pins: 0,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
        if self.map.len() > self.capacity {
            self.evict_lru()
        } else {
            None
        }
    }

    fn evict_lru(&mut self) -> Option<(u64, bool)> {
        let mut i = self.tail;
        // Never evict the head: that is the entry whose insertion caused
        // the overflow, and evicting it would make insert a no-op.
        while i != NIL && i != self.head {
            if self.nodes[i].pins == 0 {
                let key = self.nodes[i].key;
                let dirty = self.nodes[i].dirty;
                self.remove(key);
                return Some((key, dirty));
            }
            i = self.nodes[i].prev;
        }
        None
    }

    /// Remove `key` outright. Returns its dirty flag if it was present.
    pub fn remove(&mut self, key: u64) -> Option<bool> {
        let i = self.map.remove(&key)?;
        self.unlink(i);
        let dirty = self.nodes[i].dirty;
        self.free.push(i);
        Some(dirty)
    }

    /// Pin an entry against eviction (must be present).
    pub fn pin(&mut self, key: u64) {
        let i = *self.map.get(&key).expect("pin of absent LRU entry");
        self.nodes[i].pins += 1;
    }

    /// Release one pin.
    pub fn unpin(&mut self, key: u64) {
        if let Some(&i) = self.map.get(&key) {
            debug_assert!(self.nodes[i].pins > 0, "unpin without pin");
            self.nodes[i].pins = self.nodes[i].pins.saturating_sub(1);
        }
    }

    /// Set the dirty flag of a present entry.
    pub fn set_dirty(&mut self, key: u64, dirty: bool) {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].dirty = dirty;
        }
    }

    /// The keys present within `range`, ascending.
    pub fn keys_in(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = u64> + '_ {
        self.map.range(range).map(|(&key, _)| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_lru_on_overflow() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert(1, false), None);
        assert_eq!(c.insert(2, false), None);
        assert_eq!(c.insert(3, false), Some((1, false)));
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.touch(1));
        assert_eq!(c.insert(3, false), Some((2, false)));
        assert!(c.contains(1));
    }

    #[test]
    fn dirty_flag_survives_and_reports_on_eviction() {
        let mut c = LruCache::new(1);
        c.insert(1, true);
        assert!(c.is_dirty(1));
        assert_eq!(c.insert(2, false), Some((1, true)));
    }

    #[test]
    fn insert_existing_ors_dirty_and_touches() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.insert(2, false);
        c.insert(1, true); // touch + dirty
        assert!(c.is_dirty(1));
        assert_eq!(c.insert(3, false), Some((2, false)));
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, false);
        c.pin(1);
        c.insert(2, false);
        // 1 is LRU but pinned; 2 gets evicted instead.
        assert_eq!(c.insert(3, false), Some((2, false)));
        assert!(c.contains(1));
        c.unpin(1);
        assert_eq!(c.insert(4, false), Some((1, false)));
    }

    #[test]
    fn all_pinned_overflows_gracefully() {
        let mut c = LruCache::new(1);
        c.insert(1, false);
        c.pin(1);
        assert_eq!(c.insert(2, false), None);
        assert_eq!(c.len(), 2); // temporarily over capacity
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(3);
        c.insert(1, true);
        c.insert(2, false);
        assert_eq!(c.remove(1), Some(true));
        assert_eq!(c.remove(1), None);
        c.insert(3, false);
        c.insert(4, false);
        assert_eq!(c.len(), 3);
        assert_eq!(c.keys_in(..).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(c.keys_in(3..4).collect::<Vec<_>>(), [3]);
        assert_eq!(c.keys_in(5..).count(), 0);
    }

    #[test]
    fn long_sequence_is_consistent() {
        let mut c = LruCache::new(8);
        for k in 0..1000u64 {
            c.insert(k, k % 3 == 0);
            assert!(c.len() <= 8);
        }
        for k in 992..1000 {
            assert!(c.contains(k));
        }
    }
}
