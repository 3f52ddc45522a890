//! Hot-data identification.
//!
//! Implements the multiple-bloom-filter scheme of Park & Du (MSST 2011),
//! which the paper cites as its page-temperature mechanism (§2.2): V bloom
//! filters capture write recency/frequency in successive time windows. A
//! write inserts its LPN into the current filter; every `window` writes the
//! oldest filter is cleared and becomes current (decay). An LPN is *hot*
//! when it appears in at least `threshold` filters — i.e., it was written
//! in several recent windows.

use crate::bits::BitSet;
use crate::types::{Lpn, Temperature};

/// A fixed-size bloom filter over LPNs.
#[derive(Debug, Clone)]
struct Bloom {
    bits: BitSet,
    mask: u64,
    hashes: u32,
}

impl Bloom {
    fn new(bits_pow2: u32, hashes: u32) -> Self {
        let nbits = 1u64 << bits_pow2;
        Bloom {
            bits: BitSet::new(nbits),
            mask: nbits - 1,
            hashes,
        }
    }

    fn positions(&self, lpn: Lpn) -> impl Iterator<Item = u64> {
        // Double hashing with two splitmix-derived values.
        let h1 = splitmix(lpn ^ 0x9E37_79B9_7F4A_7C15);
        let h2 = splitmix(lpn.wrapping_mul(0xBF58_476D_1CE4_E5B9)) | 1;
        let mask = self.mask;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) & mask)
    }

    fn insert(&mut self, lpn: Lpn) {
        for p in self.positions(lpn) {
            self.bits.set(p);
        }
    }

    fn contains(&self, lpn: Lpn) -> bool {
        self.positions(lpn).all(|p| self.bits.get(p))
    }

    fn clear(&mut self) {
        self.bits.clear_all();
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multi-bloom-filter hot data detector.
#[derive(Debug, Clone)]
pub struct MultiBloomDetector {
    filters: Vec<Bloom>,
    current: usize,
    writes_in_window: u64,
    window: u64,
    threshold: u32,
}

impl MultiBloomDetector {
    /// Detector with `num_filters` filters of `2^bits_pow2` bits each,
    /// `hashes` hash functions, rotating every `window` writes, declaring
    /// hot at `threshold` filter hits.
    pub fn new(num_filters: usize, bits_pow2: u32, hashes: u32, window: u64, threshold: u32) -> Self {
        assert!(num_filters >= 2, "need at least two filters for decay");
        assert!(window > 0, "window must be positive");
        assert!(
            (threshold as usize) <= num_filters,
            "threshold cannot exceed filter count"
        );
        MultiBloomDetector {
            filters: (0..num_filters).map(|_| Bloom::new(bits_pow2, hashes)).collect(),
            current: 0,
            writes_in_window: 0,
            window,
            threshold,
        }
    }

    /// A sensible default: 4 filters × 4096 bits, 2 hashes, 1024-write
    /// windows, hot at 2 hits.
    pub fn default_detector() -> Self {
        Self::new(4, 12, 2, 1024, 2)
    }

    /// Record a write to `lpn`.
    pub fn record_write(&mut self, lpn: Lpn) {
        self.filters[self.current].insert(lpn);
        self.writes_in_window += 1;
        if self.writes_in_window >= self.window {
            self.writes_in_window = 0;
            self.current = (self.current + 1) % self.filters.len();
            // The slot we rotate into holds the oldest window; clear it.
            self.filters[self.current].clear();
        }
    }

    /// How many filters currently contain `lpn` (0..=num_filters).
    pub fn hits(&self, lpn: Lpn) -> u32 {
        self.filters.iter().filter(|f| f.contains(lpn)).count() as u32
    }

    /// Classify `lpn`.
    pub fn classify(&self, lpn: Lpn) -> Temperature {
        if self.hits(lpn) >= self.threshold {
            Temperature::Hot
        } else {
            Temperature::Cold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_writes_become_hot() {
        let mut d = MultiBloomDetector::new(4, 12, 2, 10, 2);
        // lpn 5 written in several windows; others once.
        for w in 0..4 {
            for i in 0..10u64 {
                let lpn = if i % 2 == 0 { 5 } else { 1000 + w * 10 + i };
                d.record_write(lpn);
            }
        }
        assert_eq!(d.classify(5), Temperature::Hot);
        assert_eq!(d.classify(999_999), Temperature::Cold);
    }

    #[test]
    fn one_time_writes_stay_cold_after_decay() {
        let mut d = MultiBloomDetector::new(2, 12, 2, 4, 2);
        d.record_write(42);
        // 42 is in one filter only → below threshold 2.
        assert_eq!(d.classify(42), Temperature::Cold);
        // Push enough writes to rotate both windows away.
        for i in 0..8u64 {
            d.record_write(1_000 + i);
        }
        assert_eq!(d.hits(42), 0);
    }

    #[test]
    fn hits_monotone_with_windows_written() {
        let mut d = MultiBloomDetector::new(4, 12, 2, 2, 2);
        d.record_write(7);
        let h1 = d.hits(7);
        d.record_write(99); // completes window 0
        d.record_write(7); // lands in window 1
        let h2 = d.hits(7);
        assert!(h2 >= h1);
        assert!(h2 >= 2);
    }

    #[test]
    fn bloom_no_false_negatives() {
        let mut b = Bloom::new(10, 3);
        for lpn in 0..100u64 {
            b.insert(lpn);
        }
        for lpn in 0..100u64 {
            assert!(b.contains(lpn));
        }
    }

    #[test]
    fn bloom_clear_empties() {
        let mut b = Bloom::new(10, 3);
        b.insert(1);
        assert!(b.contains(1));
        b.clear();
        assert!(!b.contains(1));
    }

    #[test]
    #[should_panic(expected = "at least two filters")]
    fn rejects_single_filter() {
        MultiBloomDetector::new(1, 10, 2, 10, 1);
    }
}
