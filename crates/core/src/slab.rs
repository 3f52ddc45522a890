//! A slab: values addressed by small stable slot numbers.

use std::ops::{Index, IndexMut};

/// Values keyed by the slot [`Slab::insert`] hands out, which the caller
/// carries until [`Slab::remove`]. A removed value's slot goes to a later
/// insert, so the slab is as long as the most values ever live at once —
/// not one slot per value for the life of the run. Insert, look-up and
/// remove are O(1) and, once the slab has reached that length, allocate
/// nothing.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    /// The vacant slots, most recently vacated last.
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Store `value` in a vacant slot (the most recently vacated one, a
    /// new one when none is) and return the slot.
    pub fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Take the value out of live slot `slot`, vacating it.
    pub fn remove(&mut self, slot: usize) -> T {
        let value = self.slots[slot].take().expect("live slot");
        self.free.push(slot);
        value
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no slot is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever allocated: the high-water mark of live values.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The live values, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

impl<T> Index<usize> for Slab<T> {
    type Output = T;
    fn index(&self, slot: usize) -> &T {
        self.slots[slot].as_ref().expect("live slot")
    }
}

impl<T> IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        self.slots[slot].as_mut().expect("live slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vacated_slot_goes_to_the_next_insert() {
        let mut s = Slab::default();
        let (a, b, c) = (s.insert('a'), s.insert('b'), s.insert('c'));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(a), 'a');
        assert_eq!(s.remove(c), 'c');
        assert_eq!((s.len(), s.slots()), (1, 3));
        // Most recently vacated first; never a fourth slot.
        assert_eq!(s.insert('d'), c);
        assert_eq!(s.insert('e'), a);
        assert_eq!((s[a], s[b], s[c]), ('e', 'b', 'd'));
        assert_eq!(s.iter().collect::<String>(), "ebd");
        s[b] = 'B';
        assert_eq!(s[b], 'B');
        for slot in [a, b, c] {
            s.remove(slot);
        }
        assert!(s.is_empty());
        assert_eq!(s.slots(), 3);
    }

    #[test]
    #[should_panic(expected = "live slot")]
    fn a_vacant_slot_cannot_be_read() {
        let mut s = Slab::default();
        let a = s.insert(1);
        s.remove(a);
        let _ = s[a];
    }
}
