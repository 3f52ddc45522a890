//! Pending-operation storage for the controller scheduler: a slab with
//! intrusive FIFO queues, organized into per-(class, tag) *groups* that
//! split further into issuability lanes.
//!
//! The dispatch hot path must not depend on queue depth. Pending ops live
//! in slab slots threaded onto doubly-linked FIFO queues; each `(OpClass,
//! priority-tag)` pair owns a *group* of queues (plus a dedicated group
//! for register transfers, the hardware-necessity fast path):
//!
//! * the group's **scan queue** holds ops whose issuability is op-specific
//!   (reads resolve their target at probe time, hybrid appends depend on
//!   log-block state); finding its first issuable op probes the blocked
//!   prefix in FIFO order, O(position of the first issuable op);
//! * **lanes** hold ops whose issuability is decided by their
//!   [`LaneKey`]: page writes, one lane per `(LUN, stream)`, and
//!   relocation reads, one lane per source LUN. The lane contract: the
//!   issuability predicate is a function of the lane key, plus at most an
//!   explicitly tracked per-op exception. So the lane *head* decides for
//!   the whole lane — a blocked head proves every non-excepted op behind
//!   it blocked, and one probe replaces an O(lane length) walk. Writes
//!   have no exception. A relocation read has one: its source page may be
//!   superseded while it waits, which makes it consumable regardless of
//!   the LUN; the owner counts those per LUN and walks a blocked lane only
//!   while its count is non-zero (`Controller::first_issuable`). This is
//!   what keeps deep write backlogs (queue depth 512 and beyond) and the
//!   GC backlog of an aged device (every live page of every victim) out of
//!   the scheduler's inner loop.
//!
//! A group's first issuable op is the min-seq candidate over the scan
//! queue's first issuable op and each lane's first issuable op — exactly
//! the op a single merged FIFO would have yielded, so scheduling decisions
//! (and therefore simulation results) are byte-identical to the pre-lane
//! layout. Within a group both seq and enqueue time are monotonic per
//! queue, so policies only ever compare group candidates (O(live
//! groups), typically ≤ `OpClass::COUNT`). Insertion and removal are
//! O(1) and never allocate after warm-up (slots and queues are recycled).
//!
//! Determinism: groups and lanes are discovered in first-use order and
//! slots are recycled LIFO, but selection never depends on either —
//! candidates are compared by `(class, tag, enqueue-time, seq)` keys, and
//! callers sort head candidates by `seq` before handing them to a policy.

use std::collections::BTreeMap;

use crate::alloc::Stream;
use crate::types::OpClass;

/// Sentinel slot / queue / group id.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Which group a pending op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum QueueKey {
    /// Register transfers: issued before anything else whenever their
    /// channel frees, since a LUN holding data blocks all other commands.
    Transfer,
    /// Everything else, segregated by scheduling class and priority tag
    /// so FIFO order within a group equals policy-preference order.
    Class(OpClass, Option<u8>),
}

/// Issuability lane of an op within its group (`None` at
/// [`PendingSet::insert`] routes to the scan queue instead). All ops
/// sharing a lane key share their issuability predicate, up to the tracked
/// per-op exception the module doc names — that is the contract that lets
/// a lane's head speak for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LaneKey {
    /// Page writes of `stream` bound to `lun` (`None`: any LUN).
    Write { lun: Option<u32>, stream: Stream },
    /// Relocation reads whose source page sits on `lun` (linear index).
    MoveFrom { lun: u32 },
}

#[derive(Debug)]
struct Slot<T> {
    item: Option<T>,
    prev: u32,
    next: u32,
}

#[derive(Debug)]
struct Queue {
    head: u32,
    tail: u32,
}

#[derive(Debug)]
struct Group {
    /// Queue id of the order-scan queue.
    scan: u32,
    /// Lane keys and their queue ids, in first-use order. Small
    /// (≤ LUNs × streams in play); linear search beats hashing here.
    lane_keys: Vec<LaneKey>,
    lane_queues: Vec<u32>,
}

/// Slab + intrusive FIFO queues of pending items, grouped per `QueueKey`.
#[derive(Debug)]
pub(crate) struct PendingSet<T> {
    slots: Vec<Slot<T>>,
    /// Owning queue per slot (`NO_SLOT` for freed slots).
    slot_queue: Vec<u32>,
    free: Vec<u32>,
    queues: Vec<Queue>,
    groups: Vec<Group>,
    by_key: BTreeMap<QueueKey, u32>,
    live: usize,
}

impl<T> PendingSet<T> {
    /// Group id of the transfer fast-path group (always present).
    pub(crate) const TRANSFER_GROUP: u32 = 0;

    pub(crate) fn new() -> Self {
        let mut by_key = BTreeMap::new();
        by_key.insert(QueueKey::Transfer, Self::TRANSFER_GROUP);
        PendingSet {
            slots: Vec::new(),
            slot_queue: Vec::new(),
            free: Vec::new(),
            queues: vec![Queue {
                head: NO_SLOT,
                tail: NO_SLOT,
            }],
            groups: vec![Group {
                scan: 0,
                lane_keys: Vec::new(),
                lane_queues: Vec::new(),
            }],
            by_key,
            live: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of groups ever created (ids `0..group_count`); emptied
    /// groups are kept for reuse, so ids are stable for a set's lifetime.
    pub(crate) fn group_count(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Head slot of a group's scan queue (`NO_SLOT` when empty).
    pub(crate) fn scan_head(&self, group: u32) -> u32 {
        self.queues[self.groups[group as usize].scan as usize].head
    }

    /// Number of lanes a group has accumulated.
    pub(crate) fn lane_count(&self, group: u32) -> usize {
        self.groups[group as usize].lane_queues.len()
    }

    /// Head slot of a group's `idx`-th lane (`NO_SLOT` when empty).
    pub(crate) fn lane_head(&self, group: u32, idx: usize) -> u32 {
        let q = self.groups[group as usize].lane_queues[idx];
        self.queues[q as usize].head
    }

    /// Key of a group's `idx`-th lane.
    pub(crate) fn lane_key(&self, group: u32, idx: usize) -> LaneKey {
        self.groups[group as usize].lane_keys[idx]
    }

    /// Successor of `slot` within its queue (`NO_SLOT` at the tail).
    pub(crate) fn next(&self, slot: u32) -> u32 {
        self.slots[slot as usize].next
    }

    /// The item in `slot`. Panics on a freed slot.
    pub(crate) fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .item
            .as_ref()
            .expect("read of freed pending slot")
    }

    fn new_queue(queues: &mut Vec<Queue>) -> u32 {
        let q = queues.len() as u32;
        queues.push(Queue {
            head: NO_SLOT,
            tail: NO_SLOT,
        });
        q
    }

    /// Append `item` to the FIFO for `key`/`lane`; returns its slot id.
    pub(crate) fn insert(&mut self, key: QueueKey, lane: Option<LaneKey>, item: T) -> u32 {
        let g = match self.by_key.get(&key) {
            Some(&g) => g,
            None => {
                let g = self.groups.len() as u32;
                let scan = Self::new_queue(&mut self.queues);
                self.groups.push(Group {
                    scan,
                    lane_keys: Vec::new(),
                    lane_queues: Vec::new(),
                });
                self.by_key.insert(key, g);
                g
            }
        };
        let q = match lane {
            None => self.groups[g as usize].scan,
            Some(lk) => {
                let group = &self.groups[g as usize];
                match group.lane_keys.iter().position(|&k| k == lk) {
                    Some(i) => group.lane_queues[i],
                    None => {
                        let q = Self::new_queue(&mut self.queues);
                        let group = &mut self.groups[g as usize];
                        group.lane_keys.push(lk);
                        group.lane_queues.push(q);
                        q
                    }
                }
            }
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].item = Some(item);
                s
            }
            None => {
                self.slots.push(Slot {
                    item: Some(item),
                    prev: NO_SLOT,
                    next: NO_SLOT,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let queue = &mut self.queues[q as usize];
        let tail = queue.tail;
        self.slots[slot as usize].prev = tail;
        self.slots[slot as usize].next = NO_SLOT;
        if tail == NO_SLOT {
            queue.head = slot;
        } else {
            self.slots[tail as usize].next = slot;
        }
        queue.tail = slot;
        self.slot_queue.resize(self.slots.len(), NO_SLOT);
        self.slot_queue[slot as usize] = q;
        self.live += 1;
        slot
    }

    /// Detach `slot` from its queue and free it, returning the item.
    pub(crate) fn remove(&mut self, slot: u32) -> T {
        let q = self.slot_queue[slot as usize];
        debug_assert_ne!(q, NO_SLOT, "remove of freed pending slot");
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        let queue = &mut self.queues[q as usize];
        if prev == NO_SLOT {
            queue.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NO_SLOT {
            queue.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.slot_queue[slot as usize] = NO_SLOT;
        self.free.push(slot);
        self.live -= 1;
        self.slots[slot as usize]
            .item
            .take()
            .expect("double-remove of pending slot")
    }

    /// Iterate live items in slab order (NOT scheduling order). For
    /// maintenance passes that inspect every pending op.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.item.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_scan(set: &mut PendingSet<u64>, group: u32) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            let head = set.scan_head(group);
            if head == NO_SLOT {
                return out;
            }
            out.push(set.remove(head));
        }
    }

    #[test]
    fn scan_queues_are_fifo_and_isolated() {
        let mut set = PendingSet::new();
        let ka = QueueKey::Class(OpClass::AppRead, None);
        let kb = QueueKey::Class(OpClass::AppWrite, Some(1));
        for i in 0..4 {
            set.insert(ka, None, 10 + i);
            set.insert(kb, None, 20 + i);
        }
        assert_eq!(set.len(), 8);
        assert_eq!(set.group_count(), 3); // transfer + two class groups
        assert_eq!(drain_scan(&mut set, 1), vec![10, 11, 12, 13]);
        assert_eq!(drain_scan(&mut set, 2), vec![20, 21, 22, 23]);
        assert!(set.is_empty());
    }

    #[test]
    fn write_lanes_split_by_key_and_keep_fifo() {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::AppWrite, None);
        let lane = |lun| LaneKey::Write { lun: Some(lun), stream: Stream::Hot };
        set.insert(k, Some(lane(7)), 1);
        set.insert(k, Some(lane(9)), 2);
        set.insert(k, Some(lane(7)), 3);
        set.insert(k, None, 4); // order-scan op in the same group
        let g = 1;
        assert_eq!(set.lane_count(g), 2);
        assert_eq!(set.lane_key(g, 0), lane(7));
        assert_eq!(set.lane_key(g, 1), lane(9));
        assert_eq!(*set.get(set.lane_head(g, 0)), 1);
        assert_eq!(*set.get(set.lane_head(g, 1)), 2);
        assert_eq!(*set.get(set.scan_head(g)), 4);
        // Lane FIFO: removing lane 0's head exposes the next same-key op.
        set.remove(set.lane_head(g, 0));
        assert_eq!(*set.get(set.lane_head(g, 0)), 3);
        set.remove(set.lane_head(g, 0));
        assert_eq!(set.lane_head(g, 0), NO_SLOT, "drained lane stays");
        assert_eq!(set.lane_count(g), 2, "lane ids are stable");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn removal_from_middle_keeps_links() {
        let mut set = PendingSet::new();
        let k = QueueKey::Transfer;
        let slots: Vec<u32> = (0..5).map(|i| set.insert(k, None, i)).collect();
        assert_eq!(set.remove(slots[2]), 2);
        assert_eq!(set.remove(slots[0]), 0);
        assert_eq!(set.remove(slots[4]), 4);
        assert_eq!(
            drain_scan(&mut set, PendingSet::<u64>::TRANSFER_GROUP),
            vec![1, 3]
        );
    }

    #[test]
    fn slots_and_groups_are_recycled() {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::Erase, None);
        let a = set.insert(k, None, 1);
        set.remove(a);
        let b = set.insert(k, None, 2);
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(set.group_count(), 2, "group id should be stable");
        assert_eq!(*set.get(b), 2);
        assert_eq!(set.next(b), NO_SLOT);
    }

    #[test]
    fn iter_sees_exactly_the_live_items() {
        let mut set = PendingSet::new();
        let k = QueueKey::Class(OpClass::GcRead, None);
        let s0 = set.insert(k, None, 7);
        set.insert(QueueKey::Transfer, None, 8);
        set.remove(s0);
        let live: Vec<u64> = set.iter().copied().collect();
        assert_eq!(live, vec![8]);
    }
}
