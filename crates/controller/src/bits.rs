//! The crate's one bitset: a fixed-length bit vector over `u64` words.
//!
//! Serves the per-page marks of the dispatch bookkeeping, the bloom filters
//! of the temperature detector and — the reason its words are exposed — the
//! per-LUN sets of ready-set dispatch, which are combined a word at a time
//! (`waiting & (idle | superseded)`) and enumerated with [`ones`]. Sets are
//! sized at construction and never grow; nothing assumes a set fits one
//! word.

/// A fixed-length set of small integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// The empty set over `0..len`.
    pub(crate) fn new(len: u64) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64) as usize],
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: impl Into<u64>) -> bool {
        let i = i.into();
        self.words[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    #[inline]
    pub(crate) fn set(&mut self, i: impl Into<u64>) {
        let i = i.into();
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: impl Into<u64>) {
        let i = i.into();
        self.words[(i / 64) as usize] &= !(1 << (i % 64));
    }

    /// Make `i` a member exactly when `on`.
    #[inline]
    pub(crate) fn assign(&mut self, i: impl Into<u64>, on: bool) {
        if on {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Remove every member.
    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// The backing words, bit `i % 64` of word `i / 64` standing for `i`;
    /// bits at and beyond the set's length are zero.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The members, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        ones(self.words.iter().copied())
    }
}

/// Indices of the set bits of a word sequence laid out like
/// [`BitSet::words`], ascending. Combine sets by zipping their words:
/// `ones(zip(a.words(), b.words()).map(|(a, b)| a & b))` enumerates an
/// intersection without materialising it.
#[inline]
pub(crate) fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = u32> {
    words.into_iter().enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_survive_the_word_boundary() {
        let mut s = BitSet::new(130);
        assert_eq!(s.words().len(), 3);
        for i in [0u32, 63, 64, 65, 127, 128, 129] {
            assert!(!s.get(i));
            s.set(i);
            assert!(s.get(i));
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), [0, 63, 64, 65, 127, 128, 129]);
        s.clear(64u32);
        s.assign(63u32, false);
        s.assign(1u32, true);
        assert_eq!(s.ones().collect::<Vec<_>>(), [0, 1, 65, 127, 128, 129]);
        s.clear_all();
        assert_eq!(s.ones().count(), 0);
    }

    #[test]
    fn ones_of_combined_words_is_the_combined_set() {
        let (mut a, mut b, mut c) = (BitSet::new(72), BitSet::new(72), BitSet::new(72));
        for i in [1u32, 5, 63, 64, 70, 71] {
            a.set(i);
        }
        for i in [5u32, 64, 71] {
            b.set(i);
        }
        c.set(70u32);
        let both = a.words().iter().zip(b.words()).zip(c.words());
        let got: Vec<u32> = ones(both.map(|((a, b), c)| a & (b | c))).collect();
        assert_eq!(got, [5, 64, 70, 71]);
    }
}
