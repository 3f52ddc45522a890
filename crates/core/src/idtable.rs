//! Tables keyed by ids that only increase: a sliding window over the ids
//! from the oldest live one on.
//!
//! A request id, a span id, a program stamp: each is handed out once, in
//! increasing order, lives a short while and is never seen again. A tree
//! or a hash map pays a search per access for an order nobody reads.
//! Here an id is found by subtraction — `id − oldest live id` indexes a
//! deque of slot numbers — so insert, look-up and remove are O(1),
//! deterministic, and allocate nothing once the window and the slab have
//! reached their working size. The window costs 4 B per id between the
//! oldest live id and the newest, the payload only per *live* value: one
//! lingering id stretches the window, not the storage.

use std::collections::VecDeque;

use crate::slab::Slab;

/// [`IdWindow`] entry of an id that was closed, or skipped.
const CLOSED: u32 = u32::MAX;

/// A slot number per open id. Ids are opened in increasing order (gaps
/// are fine) and closed in any order; an id that is not open — closed,
/// skipped, below the oldest open one or never opened — has no slot.
#[derive(Debug, Default)]
pub struct IdWindow {
    /// One past the newest id ever opened.
    end: u64,
    /// `slots[i]` is the slot of id `end - slots.len() + i`, [`CLOSED`]
    /// when that id is not open. The front is always an open id, so the
    /// window is empty whenever nothing is open.
    slots: VecDeque<u32>,
}

impl IdWindow {
    /// Open `id` with `slot`. Panics unless `id` is above every id opened
    /// before it.
    pub fn open(&mut self, id: u64, slot: u32) {
        assert!(
            id >= self.end,
            "id {id} does not follow id {}: ids only increase",
            self.end.wrapping_sub(1)
        );
        assert!(slot != CLOSED, "slot numbers stay below u32::MAX");
        if !self.slots.is_empty() {
            for _ in self.end..id {
                self.slots.push_back(CLOSED);
            }
        }
        self.slots.push_back(slot);
        self.end = id + 1;
    }

    /// Where `id` sits in the window, if the window reaches it.
    fn index(&self, id: u64) -> Option<usize> {
        let oldest = self.end - self.slots.len() as u64;
        usize::try_from(id.checked_sub(oldest)?).ok()
    }

    /// The slot of `id` while it is open.
    #[inline]
    pub fn slot(&self, id: u64) -> Option<u32> {
        let slot = *self.slots.get(self.index(id)?)?;
        (slot != CLOSED).then_some(slot)
    }

    /// Close `id`, returning the slot it held; `None` when it is not open.
    #[inline]
    pub fn close(&mut self, id: u64) -> Option<u32> {
        let entry = self.slots.get_mut(self.index(id)?)?;
        let slot = std::mem::replace(entry, CLOSED);
        while self.slots.front() == Some(&CLOSED) {
            self.slots.pop_front();
        }
        (slot != CLOSED).then_some(slot)
    }

    /// The oldest open id.
    pub fn oldest(&self) -> Option<u64> {
        (!self.slots.is_empty()).then(|| self.end - self.slots.len() as u64)
    }

    /// Ids the window spans: from the oldest open one to the newest opened.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no id is open.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Values keyed by ids that only increase: the values in a [`Slab`], found
/// through an [`IdWindow`]. The stand-in for a `BTreeMap<id, T>` that is
/// never iterated.
#[derive(Debug)]
pub struct IdTable<T> {
    window: IdWindow,
    values: Slab<T>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            window: IdWindow::default(),
            values: Slab::default(),
        }
    }
}

impl<T> IdTable<T> {
    /// Store `value` under `id`. Panics unless `id` is above every id
    /// inserted before it, live or removed.
    pub fn insert(&mut self, id: u64, value: T) {
        let slot = self.values.insert(value);
        let slot = u32::try_from(slot).expect("live values fit a u32");
        self.window.open(id, slot);
    }

    /// The value under `id` while it is live.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        Some(&self.values[self.window.slot(id)? as usize])
    }

    /// The value under `id` while it is live.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        Some(&mut self.values[self.window.slot(id)? as usize])
    }

    /// Take the value out from under `id`; `None` when it is not live.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<T> {
        Some(self.values.remove(self.window.close(id)? as usize))
    }

    /// The oldest live id.
    pub fn oldest(&self) -> Option<u64> {
        self.window.oldest()
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Ids the window spans: from the oldest live one to the newest
    /// inserted.
    #[cfg(test)]
    pub(crate) fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Slots ever allocated: the high-water mark of live values.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.values.slots()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn a_lingering_id_stretches_the_window_not_the_storage() {
        let mut t = IdTable::default();
        t.insert(7, 7u64);
        for id in 8..10_007 {
            t.insert(id, id);
            assert_eq!(t.remove(id), Some(id));
            assert_eq!((t.len(), t.slots()), (1, 2));
        }
        // The window still reaches back to the lingering id …
        assert_eq!((t.oldest(), t.window_len()), (Some(7), 10_000));
        assert_eq!(t.get(7), Some(&7));
        // … and lets go of everything behind it when it leaves.
        assert_eq!(t.remove(7), Some(7));
        assert!(t.is_empty() && t.window_len() == 0);
        assert_eq!(t.oldest(), None);
    }

    #[test]
    fn skipped_ids_are_not_live() {
        let mut w = IdWindow::default();
        w.open(5, 0);
        w.open(9, 1);
        assert_eq!(w.len(), 5);
        assert_eq!([4, 5, 6, 8, 9, 10].map(|id| w.slot(id)), [None, Some(0), None, None, Some(1), None]);
        assert_eq!(w.close(7), None);
        assert_eq!(w.close(5), Some(0));
        // The skipped ids went with the front.
        assert_eq!((w.oldest(), w.len()), (Some(9), 1));
        assert_eq!(w.close(9), Some(1));
        // An empty window pads nothing.
        w.open(1 << 40, 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "id 3 does not follow id 5")]
    fn an_id_below_the_newest_is_refused() {
        let mut t = IdTable::default();
        t.insert(5, ());
        t.remove(5);
        t.insert(3, ());
    }

    proptest::proptest! {
        #[test]
        fn the_id_table_is_a_map_keyed_by_increasing_ids(
            seed in proptest::prelude::any::<u64>(),
            first in 0u64..3,
            steps in 100usize..2000,
        ) {
            use proptest::prop_assert_eq;
            let mut rng = crate::SimRng::new(seed);
            let mut t: IdTable<u64> = IdTable::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next = first;
            for _ in 0..steps {
                // An id to aim at: mostly a live one, else any id up to a
                // little beyond the newest, else far out.
                let aim = match rng.gen_range(10) {
                    0 => u64::MAX - rng.gen_range(2),
                    1 | 2 => rng.gen_range(next + 3),
                    _ => match model.len() as u64 {
                        0 => next,
                        n => *model.keys().nth(rng.gen_range(n) as usize).unwrap(),
                    },
                };
                match rng.gen_range(8) {
                    0..=2 => {
                        // Ids increase; now and then one is skipped.
                        next += rng.gen_bool(0.2) as u64 * rng.gen_range(4);
                        let value = rng.next_u64();
                        t.insert(next, value);
                        model.insert(next, value);
                        next += 1;
                    }
                    3 | 4 => prop_assert_eq!(t.remove(aim), model.remove(&aim)),
                    5 => {
                        if let Some(v) = t.get_mut(aim) {
                            *v ^= 1;
                        }
                        if let Some(v) = model.get_mut(&aim) {
                            *v ^= 1;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(t.get(aim), model.get(&aim));
                prop_assert_eq!(t.get_mut(aim).map(|v| *v), model.get(&aim).copied());
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(t.is_empty(), model.is_empty());
                let oldest = model.keys().next().copied();
                prop_assert_eq!(t.oldest(), oldest);
                // 4 B per id from the oldest live one to the newest
                // inserted, nothing for what came before.
                let span = oldest.map_or(0, |o| next - o);
                prop_assert_eq!(t.window_len() as u64, span);
            }
        }
    }
}
