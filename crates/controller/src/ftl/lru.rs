//! A small intrusive-list LRU cache used by DFTL's cached mapping table.
//!
//! Keys are `u64` (logical page numbers) below a bound fixed at
//! construction, so finding an entry is one load from a per-key index.
//! Entries carry a dirty flag and a pin count; pinned entries are skipped
//! by eviction so mapping entries of in-flight IOs cannot disappear under
//! them.

use std::ops::Range;

const NIL: usize = usize::MAX;
/// [`LruCache::index`] entry of a key that is not cached.
const ABSENT: u32 = u32::MAX;

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
    /// Per key: its node, or [`ABSENT`].
    index: Vec<u32>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruCache {
    /// A cache bounded to `capacity` entries (> 0) over the keys
    /// `0..keys`.
    pub fn new(capacity: usize, keys: u64) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            index: vec![ABSENT; keys as usize],
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The node of `key`, when it is cached.
    #[inline]
    fn node(&self, key: u64) -> Option<usize> {
        let &i = self.index.get(usize::try_from(key).ok()?)?;
        (i != ABSENT).then_some(i as usize)
    }

    pub fn contains(&self, key: u64) -> bool {
        self.node(key).is_some()
    }

    /// True if the entry exists and is dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.node(key).is_some_and(|i| self.nodes[i].dirty)
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
        if let Some(i) = self.node(key) {
            self.unlink(i);
            self.push_front(i);
            true
        } else {
            false
        }
    }

    /// Insert `key` (or touch it if present), setting `dirty` by OR.
    ///
    /// Panics on a key outside the cache's key space. If the cache is over
    /// capacity afterwards, evicts the least recently
    /// used *unpinned* entry and returns `Some((key, was_dirty))`. Returns
    /// `None` when nothing was evicted (capacity available, or every entry
    /// pinned — the cache then temporarily exceeds capacity rather than
    /// deadlock).
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        if let Some(i) = self.node(key) {
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
        self.index[key as usize] = u32::try_from(i).expect("cached entries fit a u32");
        self.push_front(i);
        if self.len() > self.capacity {
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
        let i = self.node(key)?;
        self.index[key as usize] = ABSENT;
        self.unlink(i);
        let dirty = self.nodes[i].dirty;
        self.free.push(i);
        Some(dirty)
    }

    /// Pin an entry against eviction (must be present).
    pub fn pin(&mut self, key: u64) {
        let i = self.node(key).expect("pin of absent LRU entry");
        self.nodes[i].pins += 1;
    }

    /// Release one pin.
    pub fn unpin(&mut self, key: u64) {
        if let Some(i) = self.node(key) {
            debug_assert!(self.nodes[i].pins > 0, "unpin without pin");
            self.nodes[i].pins = self.nodes[i].pins.saturating_sub(1);
        }
    }

    /// Set the dirty flag of a present entry.
    pub fn set_dirty(&mut self, key: u64, dirty: bool) {
        if let Some(i) = self.node(key) {
            self.nodes[i].dirty = dirty;
        }
    }

    /// The keys present within `range`, ascending.
    pub fn keys_in(&self, range: Range<u64>) -> impl Iterator<Item = u64> + '_ {
        let keys = self.index.len() as u64;
        (range.start..range.end.min(keys)).filter(|&key| self.index[key as usize] != ABSENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_lru_on_overflow() {
        let mut c = LruCache::new(2, 1000);
        assert_eq!(c.insert(1, false), None);
        assert_eq!(c.insert(2, false), None);
        assert_eq!(c.insert(3, false), Some((1, false)));
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCache::new(2, 1000);
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.touch(1));
        assert_eq!(c.insert(3, false), Some((2, false)));
        assert!(c.contains(1));
    }

    #[test]
    fn dirty_flag_survives_and_reports_on_eviction() {
        let mut c = LruCache::new(1, 1000);
        c.insert(1, true);
        assert!(c.is_dirty(1));
        assert_eq!(c.insert(2, false), Some((1, true)));
    }

    #[test]
    fn insert_existing_ors_dirty_and_touches() {
        let mut c = LruCache::new(2, 1000);
        c.insert(1, false);
        c.insert(2, false);
        c.insert(1, true); // touch + dirty
        assert!(c.is_dirty(1));
        assert_eq!(c.insert(3, false), Some((2, false)));
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut c = LruCache::new(2, 1000);
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
        let mut c = LruCache::new(1, 1000);
        c.insert(1, false);
        c.pin(1);
        assert_eq!(c.insert(2, false), None);
        assert_eq!(c.len(), 2); // temporarily over capacity
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(3, 1000);
        c.insert(1, true);
        c.insert(2, false);
        assert_eq!(c.remove(1), Some(true));
        assert_eq!(c.remove(1), None);
        c.insert(3, false);
        c.insert(4, false);
        assert_eq!(c.len(), 3);
        assert_eq!(c.keys_in(0..1000).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(c.keys_in(3..4).collect::<Vec<_>>(), [3]);
        assert_eq!(c.keys_in(5..u64::MAX).count(), 0);
    }

    #[test]
    fn long_sequence_is_consistent() {
        let mut c = LruCache::new(8, 1000);
        for k in 0..1000u64 {
            c.insert(k, k % 3 == 0);
            assert!(c.len() <= 8);
        }
        for k in 992..1000 {
            assert!(c.contains(k));
        }
    }

    /// The cache as a plain list, most recently used first: every
    /// operation is a scan.
    #[derive(Default)]
    struct ScanLru {
        /// `(key, dirty, pins)`.
        entries: Vec<(u64, bool, u32)>,
    }

    impl ScanLru {
        fn at(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn touch(&mut self, key: u64) -> bool {
            let Some(i) = self.at(key) else { return false };
            let e = self.entries.remove(i);
            self.entries.insert(0, e);
            true
        }

        fn insert(&mut self, key: u64, dirty: bool, capacity: usize) -> Option<(u64, bool)> {
            if self.touch(key) {
                self.entries[0].1 |= dirty;
                return None;
            }
            self.entries.insert(0, (key, dirty, 0));
            if self.entries.len() <= capacity {
                return None;
            }
            // The least recently used unpinned entry, never the newcomer.
            let i = self.entries.iter().rposition(|e| e.2 == 0).filter(|&i| i > 0)?;
            let (key, dirty, _) = self.entries.remove(i);
            Some((key, dirty))
        }
    }

    proptest::proptest! {
        #[test]
        fn the_indexed_cache_is_the_scanned_one(
            seed in proptest::prelude::any::<u64>(),
            capacity in 1usize..12,
            keys in 1u64..40,
            steps in 100usize..1500,
        ) {
            use proptest::prop_assert_eq;
            let mut rng = eagletree_core::SimRng::new(seed);
            let mut c = LruCache::new(capacity, keys);
            let mut m = ScanLru::default();
            for _ in 0..steps {
                // Now and then a key the cache has no room to index.
                let key = rng.gen_range(keys + 2);
                let flag = rng.gen_bool(0.5);
                match (rng.gen_range(7), m.at(key)) {
                    (0 | 1, _) if key < keys => {
                        prop_assert_eq!(c.insert(key, flag), m.insert(key, flag, capacity));
                    }
                    (2, _) => prop_assert_eq!(c.touch(key), m.touch(key)),
                    (3, Some(i)) => {
                        c.pin(key);
                        m.entries[i].2 += 1;
                    }
                    (4, Some(i)) if m.entries[i].2 > 0 => {
                        c.unpin(key);
                        m.entries[i].2 -= 1;
                    }
                    (5, at) => {
                        let gone = at.map(|i| m.entries.remove(i).1);
                        prop_assert_eq!(c.remove(key), gone);
                    }
                    (6, at) => {
                        c.set_dirty(key, flag);
                        if let Some(i) = at {
                            m.entries[i].1 = flag;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(c.len(), m.entries.len());
                prop_assert_eq!(c.contains(key), m.at(key).is_some());
                prop_assert_eq!(c.is_dirty(key), m.at(key).is_some_and(|i| m.entries[i].1));
                let (from, to) = (rng.gen_range(keys + 2), rng.gen_range(keys + 2));
                let mut within: Vec<u64> = m.entries.iter().map(|e| e.0).collect();
                within.retain(|k| (from..to).contains(k));
                within.sort_unstable();
                prop_assert_eq!(c.keys_in(from..to).collect::<Vec<_>>(), within);
                prop_assert_eq!(c.keys_in(0..keys).count(), m.entries.len());
            }
            // Pin everything: the next newcomers overflow, evicting nothing.
            let held: Vec<u64> = c.keys_in(0..keys).collect();
            for &k in &held {
                c.pin(k);
            }
            if let Some(newcomer) = (0..keys).find(|k| !held.contains(k)) {
                if held.len() >= capacity {
                    prop_assert_eq!(c.insert(newcomer, false), None);
                    prop_assert_eq!(c.len(), held.len() + 1);
                }
            }
        }
    }
}
