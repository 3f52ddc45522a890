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
//!   and rare enough not to earn a lane: register transfers (in their own
//!   group), erases, `WbRead` (its source dies at an erase, not at an
//!   invalidation), `HybridWrite` (log-block state), `MergeRead` /
//!   `MergeProgram` (one in flight) and `CkptWrite`; finding its first
//!   issuable op probes the blocked prefix in FIFO order, O(position of
//!   the first issuable op);
//! * **lanes** hold ops whose issuability is decided by their
//!   [`LaneKey`]: page writes, one lane per `(LUN, stream)`; relocation
//!   reads, one lane per source LUN; and mapped reads (`AppRead`,
//!   `MapFetchRead`), one lane per LUN their source resolves to. The lane
//!   contract: the issuability predicate is a function of the lane key,
//!   plus at most an explicitly tracked per-op exception; an op whose key
//!   changes while it waits is moved, in seq order, at the one site that
//!   changes it ([`PendingSet::move_to_lane`]). So the lane *head* — the
//!   min seq of its key — decides for the whole lane: a blocked head
//!   proves every non-excepted op behind it blocked, and one probe
//!   replaces an O(lane length) walk. Writes and mapped reads have no
//!   exception (a mapped read whose page moves follows it to the lane of
//!   its new LUN when the old page dies). A relocation read has one: its
//!   source page may be superseded while it waits, which makes it
//!   consumable regardless of the LUN; the owner counts those per LUN and
//!   walks a blocked lane only while its count is non-zero
//!   (`Controller::first_issuable`). This is what keeps deep write
//!   backlogs (queue depth 512 and beyond), the GC backlog of an aged
//!   device (every live page of every victim) and the read backlog of a
//!   read-heavy host out of the scheduler's inner loop.
//!
//! A lane is addressed by `(family, LUN)`, and its group knows which LUNs
//! have one non-empty. A [`Family`] is a lane key without its LUN — the
//! writes of one stream, the relocation reads, the mapped reads; a group
//! that meets a family lays out one lane per LUN plus an unbound one
//! ([`Lanes`]), so reaching a lane is an index, not a search, and keeps per
//! family the set of LUNs whose lane holds an op ([`Lanes::waiting`],
//! maintained where ops are linked and unlinked, so `insert`, `remove` and
//! `move_to_lane` all keep it). The scheduler intersects that set with the
//! LUNs that can take the family's command now and touches only those
//! lanes: what a round costs follows the candidates it finds, not the
//! lanes that exist.
//!
//! A group's first issuable op is the min-seq candidate over the scan
//! queue's first issuable op and each lane's first issuable op — exactly
//! the op a single merged FIFO would have yielded, so scheduling decisions
//! (and therefore simulation results) are byte-identical to the pre-lane
//! layout. Within a group both seq and enqueue time are monotonic per
//! queue, so policies only ever compare group candidates (O(live
//! groups), typically ≤ `OpClass::COUNT`). Insertion and removal are
//! O(1) and never allocate after warm-up (slots are recycled; a family's
//! lanes are laid out once, when its group first meets it).
//!
//! Determinism: groups and families are discovered in first-use order and
//! slots are recycled LIFO, but selection never depends on either —
//! candidates are compared by `(class, tag, enqueue-time, seq)` keys, and
//! callers sort head candidates by `seq` before handing them to a policy.

use crate::alloc::Stream;
use crate::bits::BitSet;
use crate::types::OpClass;

/// Sentinel slot / queue / group id.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Which group a pending op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Mapped reads whose source currently resolves to a page on `lun`
    /// (`None`: nothing left to read, consumable at once).
    ReadFrom { lun: Option<u32> },
}

/// A lane key without its LUN: the lanes that share one kind of
/// issuability test, differing only in the LUN it is asked of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    Write(Stream),
    MoveFrom,
    ReadFrom,
}

impl LaneKey {
    fn split(self) -> (Family, Option<u32>) {
        match self {
            LaneKey::Write { lun, stream } => (Family::Write(stream), lun),
            LaneKey::MoveFrom { lun } => (Family::MoveFrom, Some(lun)),
            LaneKey::ReadFrom { lun } => (Family::ReadFrom, lun),
        }
    }

    fn join(family: Family, lun: Option<u32>) -> Option<LaneKey> {
        Some(match family {
            Family::Write(stream) => LaneKey::Write { lun, stream },
            Family::MoveFrom => LaneKey::MoveFrom { lun: lun? },
            Family::ReadFrom => LaneKey::ReadFrom { lun },
        })
    }
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
    /// Owning group.
    group: u32,
    /// For a LUN's lane: the family (index within the group) and the LUN
    /// whose `waiting` bit follows this queue's emptiness. `NO_SLOT` twice
    /// for scan queues and unbound lanes, which no set tracks.
    family: u32,
    lun: u32,
}

/// The lanes of one family within one group.
#[derive(Debug)]
pub(crate) struct Lanes {
    family: Family,
    /// Queue id of LUN 0's lane; LUN `l`'s is `base + l`, the unbound
    /// lane's `base + luns`.
    base: u32,
    waiting: BitSet,
}

impl Lanes {
    pub(crate) fn family(&self) -> Family {
        self.family
    }

    /// The LUNs whose lane holds at least one op.
    pub(crate) fn waiting(&self) -> &BitSet {
        &self.waiting
    }
}

#[derive(Debug)]
struct Group {
    /// Queue id of the order-scan queue.
    scan: u32,
    /// In first-use order. Few (the streams in play, or one).
    families: Vec<Lanes>,
    /// Live items over all of the group's queues.
    len: u32,
}

/// Slab + intrusive FIFO queues of pending items, grouped per `QueueKey`.
#[derive(Debug)]
pub(crate) struct PendingSet<T> {
    /// LUNs a lane can be keyed by: `0..luns`.
    luns: u32,
    slots: Vec<Slot<T>>,
    /// Owning queue per slot (`NO_SLOT` for freed slots).
    slot_queue: Vec<u32>,
    free: Vec<u32>,
    queues: Vec<Queue>,
    groups: Vec<Group>,
    /// Group id per class and tag — `by_class[class][0]` for no tag,
    /// `[1 + tag]` otherwise; `NO_SLOT`, or beyond the end, where no op
    /// has used the key yet. The transfer group needs no entry.
    by_class: [Vec<u32>; OpClass::COUNT],
    live: usize,
}

impl<T> PendingSet<T> {
    /// Group id of the transfer fast-path group (always present).
    pub(crate) const TRANSFER_GROUP: u32 = 0;

    /// An empty set whose lanes are keyed by the LUNs `0..luns`.
    pub(crate) fn new(luns: u32) -> Self {
        let mut set = PendingSet {
            luns,
            slots: Vec::new(),
            slot_queue: Vec::new(),
            free: Vec::new(),
            queues: Vec::new(),
            groups: Vec::new(),
            by_class: Default::default(),
            live: 0,
        };
        let transfers = set.new_group();
        debug_assert_eq!(transfers, Self::TRANSFER_GROUP);
        set
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

    /// Live items in `group`, over its scan queue and every lane.
    pub(crate) fn group_len(&self, group: u32) -> u32 {
        self.groups[group as usize].len
    }

    /// Head slot of a group's scan queue (`NO_SLOT` when empty).
    pub(crate) fn scan_head(&self, group: u32) -> u32 {
        self.queues[self.groups[group as usize].scan as usize].head
    }

    /// The families a group has met, in first-use order.
    pub(crate) fn families(&self, group: u32) -> &[Lanes] {
        &self.groups[group as usize].families
    }

    /// Head slot of the lane of `lanes` for `lun` (`None`: the unbound
    /// lane); `NO_SLOT` when empty.
    #[inline]
    pub(crate) fn head(&self, lanes: &Lanes, lun: Option<u32>) -> u32 {
        debug_assert!(lun.is_none_or(|l| l < self.luns), "lane of LUN {lun:?} of {}", self.luns);
        self.queues[(lanes.base + lun.unwrap_or(self.luns)) as usize].head
    }

    /// Head slot of `group`'s lane for `key` (`NO_SLOT` when empty or when
    /// the group never met the key's family).
    pub(crate) fn lane_head(&self, group: u32, key: LaneKey) -> u32 {
        let (family, lun) = key.split();
        let lanes = self.families(group).iter().find(|l| l.family == family);
        lanes.map_or(NO_SLOT, |l| self.head(l, lun))
    }

    /// Every lane `group` has laid out — one per LUN of each family it
    /// met, plus the unbound one where the family has such a key — with
    /// its head slot, empty lanes included. For checks and the reference
    /// scan, which must not depend on the `waiting` sets.
    pub(crate) fn lanes(&self, group: u32) -> impl Iterator<Item = (LaneKey, u32)> + '_ {
        self.families(group).iter().flat_map(move |lanes| {
            let luns = (0..self.luns).map(Some).chain([None]);
            luns.filter_map(move |lun| {
                Some((LaneKey::join(lanes.family, lun)?, self.head(lanes, lun)))
            })
        })
    }

    /// Successor of `slot` within its queue (`NO_SLOT` at the tail).
    pub(crate) fn next(&self, slot: u32) -> u32 {
        self.slots[slot as usize].next
    }

    /// The slots of a queue from `head` (a scan or lane head) to its tail.
    /// For maintenance walks and checks; the scheduler's own probes stop
    /// early and follow `next` themselves.
    pub(crate) fn walk(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((head != NO_SLOT).then_some(head), |&s| {
            Some(self.next(s)).filter(|&n| n != NO_SLOT)
        })
    }

    /// The item in `slot`. Panics on a freed slot.
    pub(crate) fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .item
            .as_ref()
            .expect("read of freed pending slot")
    }

    /// Every family's `waiting` set is what a recount of its lanes gives.
    /// Allocation-free.
    pub(crate) fn check_waiting(&self) {
        for group in &self.groups {
            for lanes in &group.families {
                for lun in 0..self.luns {
                    assert_eq!(
                        lanes.waiting.get(lun),
                        self.head(lanes, Some(lun)) != NO_SLOT,
                        "waiting set of {:?} drifted from its lanes at LUN {lun}",
                        lanes.family
                    );
                }
            }
        }
    }

    fn new_queue(&mut self, group: u32, family: u32, lun: u32) -> u32 {
        self.queues.push(Queue {
            head: NO_SLOT,
            tail: NO_SLOT,
            group,
            family,
            lun,
        });
        (self.queues.len() - 1) as u32
    }

    /// Group id for `key`, created on first use.
    fn group_of(&mut self, key: QueueKey) -> u32 {
        let QueueKey::Class(class, tag) = key else {
            return Self::TRANSFER_GROUP;
        };
        let tag = tag.map_or(0, |t| 1 + t as usize);
        if let Some(&g) = self.by_class[class as usize].get(tag) {
            if g != NO_SLOT {
                return g;
            }
        }
        let g = self.new_group();
        let by_tag = &mut self.by_class[class as usize];
        if by_tag.len() <= tag {
            by_tag.resize(tag + 1, NO_SLOT);
        }
        by_tag[tag] = g;
        g
    }

    /// A fresh, empty group: the next id in first-use order.
    fn new_group(&mut self) -> u32 {
        let g = self.groups.len() as u32;
        let scan = self.new_queue(g, NO_SLOT, NO_SLOT);
        self.groups.push(Group {
            scan,
            families: Vec::new(),
            len: 0,
        });
        g
    }

    /// Queue id of `group`'s lane for `key`; the family's lanes are laid
    /// out when the group first meets it.
    fn lane_queue(&mut self, group: u32, key: LaneKey) -> u32 {
        let (family, lun) = key.split();
        debug_assert!(lun.is_none_or(|l| l < self.luns), "{key:?} beyond {} LUNs", self.luns);
        let families = &self.groups[group as usize].families;
        let base = match families.iter().find(|l| l.family == family) {
            Some(lanes) => lanes.base,
            None => {
                let fi = families.len() as u32;
                let base = self.queues.len() as u32;
                for l in 0..self.luns {
                    self.new_queue(group, fi, l);
                }
                self.new_queue(group, NO_SLOT, NO_SLOT);
                self.groups[group as usize].families.push(Lanes {
                    family,
                    base,
                    waiting: BitSet::new(self.luns.into()),
                });
                base
            }
        };
        base + lun.unwrap_or(self.luns)
    }

    /// Queue `q` went from empty to non-empty or back: its `waiting` bit,
    /// if a set tracks it, follows.
    fn emptiness_changed(&mut self, q: u32) {
        let Queue { head, group, family, lun, .. } = self.queues[q as usize];
        if lun != NO_SLOT {
            let lanes = &mut self.groups[group as usize].families[family as usize];
            lanes.waiting.assign(lun, head != NO_SLOT);
        }
    }

    /// Link `slot` into queue `q` between `prev` and `next` (either may be
    /// `NO_SLOT`: the queue's ends).
    fn link(&mut self, q: u32, slot: u32, prev: u32, next: u32) {
        let was_empty = self.queues[q as usize].head == NO_SLOT;
        self.slots[slot as usize].prev = prev;
        self.slots[slot as usize].next = next;
        if prev == NO_SLOT {
            self.queues[q as usize].head = slot;
        } else {
            self.slots[prev as usize].next = slot;
        }
        if next == NO_SLOT {
            self.queues[q as usize].tail = slot;
        } else {
            self.slots[next as usize].prev = slot;
        }
        self.slot_queue[slot as usize] = q;
        if was_empty {
            self.emptiness_changed(q);
        }
    }

    /// Detach `slot` from its queue, which is returned.
    fn unlink(&mut self, slot: u32) -> u32 {
        let q = self.slot_queue[slot as usize];
        debug_assert_ne!(q, NO_SLOT, "unlink of freed pending slot");
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
        if self.queues[q as usize].head == NO_SLOT {
            self.emptiness_changed(q);
        }
        q
    }

    /// Append `item` to the FIFO for `key`/`lane`; returns its slot id.
    pub(crate) fn insert(&mut self, key: QueueKey, lane: Option<LaneKey>, item: T) -> u32 {
        let g = self.group_of(key);
        let q = match lane {
            None => self.groups[g as usize].scan,
            Some(lk) => self.lane_queue(g, lk),
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
        self.slot_queue.resize(self.slots.len(), NO_SLOT);
        self.link(q, slot, self.queues[q as usize].tail, NO_SLOT);
        self.groups[g as usize].len += 1;
        self.live += 1;
        slot
    }

    /// Move `slot` to its group's lane for `key`, keeping that lane sorted
    /// by `seq` — its head stays the min seq of its key, which is the lane
    /// contract. For the one site that changes a queued op's lane key.
    pub(crate) fn move_to_lane(&mut self, slot: u32, key: LaneKey, seq: impl Fn(&T) -> u64) {
        let from = self.unlink(slot);
        let q = self.lane_queue(self.queues[from as usize].group, key);
        let at = seq(self.get(slot));
        let mut next = NO_SLOT;
        let mut prev = self.queues[q as usize].tail;
        while prev != NO_SLOT && seq(self.get(prev)) > at {
            next = prev;
            prev = self.slots[prev as usize].prev;
        }
        self.link(q, slot, prev, next);
    }

    /// Detach `slot` from its queue and free it, returning the item.
    pub(crate) fn remove(&mut self, slot: u32) -> T {
        let q = self.unlink(slot);
        self.groups[self.queues[q as usize].group as usize].len -= 1;
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
        let mut set = PendingSet::new(16);
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
        let mut set = PendingSet::new(16);
        let k = QueueKey::Class(OpClass::AppWrite, None);
        let lane = |lun| LaneKey::Write { lun: Some(lun), stream: Stream::Hot };
        set.insert(k, Some(lane(7)), 1);
        set.insert(k, Some(lane(9)), 2);
        set.insert(k, Some(lane(7)), 3);
        set.insert(k, None, 4); // order-scan op in the same group
        let g = 1;
        let waiting =
            |set: &PendingSet<u64>| set.families(g)[0].waiting().ones().collect::<Vec<_>>();
        assert_eq!(set.families(g).len(), 1, "one stream, one family");
        assert_eq!(set.families(g)[0].family(), Family::Write(Stream::Hot));
        assert_eq!(waiting(&set), [7, 9]);
        assert_eq!(*set.get(set.lane_head(g, lane(7))), 1);
        assert_eq!(*set.get(set.lane_head(g, lane(9))), 2);
        assert_eq!(*set.get(set.scan_head(g)), 4);
        assert_eq!(set.lane_head(g, lane(8)), NO_SLOT, "laid out, never used");
        assert_eq!(set.lane_head(g, LaneKey::MoveFrom { lun: 7 }), NO_SLOT, "no such family");
        // Lane FIFO: removing LUN 7's head exposes the next same-key op.
        set.remove(set.lane_head(g, lane(7)));
        assert_eq!(*set.get(set.lane_head(g, lane(7))), 3);
        assert_eq!(waiting(&set), [7, 9]);
        set.remove(set.lane_head(g, lane(7)));
        assert_eq!(set.lane_head(g, lane(7)), NO_SLOT, "drained lane stays");
        assert_eq!(waiting(&set), [9], "and leaves the waiting set");
        assert_eq!(set.lanes(g).count(), 17, "a lane per LUN and the unbound one");
        assert_eq!(set.len(), 2);
        set.check_waiting();
    }

    /// Items of a group's read lane for `lun`, head first, then checked
    /// tail first through the back links — and the waiting sets recounted.
    fn lane(set: &PendingSet<u64>, group: u32, lun: Option<u32>) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut cur, mut last) = (set.lane_head(group, LaneKey::ReadFrom { lun }), NO_SLOT);
        while cur != NO_SLOT {
            assert_eq!(set.slots[cur as usize].prev, last, "back link");
            out.push(*set.get(cur));
            last = cur;
            cur = set.next(cur);
        }
        let q = set.families(group)[0].base + lun.unwrap_or(set.luns);
        assert_eq!(set.queues[q as usize].tail, last, "tail");
        set.check_waiting();
        out
    }

    #[test]
    fn move_to_lane_inserts_in_seq_order_and_keeps_links() {
        let mut set = PendingSet::new(16);
        let k = QueueKey::Class(OpClass::AppRead, None);
        let from = |lun| LaneKey::ReadFrom { lun: Some(lun) };
        // Items are their own seq. Lane 0: 1 3 5 7 9; lane 1: 2 6.
        let a: Vec<u32> = [1, 3, 5, 7, 9].iter().map(|&i| set.insert(k, Some(from(0)), i)).collect();
        set.insert(k, Some(from(1)), 2);
        set.insert(k, Some(from(1)), 6);
        let other = set.insert(QueueKey::Class(OpClass::AppWrite, None), None, 4);
        let g = 1;
        let seq = |i: &u64| *i;

        // Middle of its lane, into the middle of a populated lane.
        set.move_to_lane(a[2], from(1), seq);
        assert_eq!(lane(&set, g, Some(0)), vec![1, 3, 7, 9]);
        assert_eq!(lane(&set, g, Some(1)), vec![2, 5, 6]);
        // Head of its lane, to the head of a populated lane: the source
        // lane's head moves on.
        set.move_to_lane(a[0], from(1), seq);
        assert_eq!(lane(&set, g, Some(0)), vec![3, 7, 9]);
        assert_eq!(lane(&set, g, Some(1)), vec![1, 2, 5, 6]);
        // Tail of its lane, to the tail of a populated lane.
        set.move_to_lane(a[4], from(1), seq);
        assert_eq!(lane(&set, g, Some(0)), vec![3, 7]);
        assert_eq!(lane(&set, g, Some(1)), vec![1, 2, 5, 6, 9]);
        // Into a lane never used yet: the unbound one.
        set.move_to_lane(a[3], LaneKey::ReadFrom { lun: None }, seq);
        assert_eq!(set.families(g).len(), 1);
        assert_eq!(lane(&set, g, None), vec![7]);
        // The last op of a lane, into a drained lane and back.
        assert_eq!(set.remove(a[3]), 7);
        set.move_to_lane(a[1], LaneKey::ReadFrom { lun: None }, seq);
        assert_eq!(lane(&set, g, Some(0)), Vec::<u64>::new());
        assert_eq!(lane(&set, g, None), vec![3]);
        set.move_to_lane(a[1], from(0), seq);
        assert_eq!(lane(&set, g, Some(0)), vec![3]);

        // Moves change neither the counts nor another group.
        assert_eq!(set.len(), 7);
        assert_eq!(set.group_len(g), 6);
        assert_eq!(set.group_len(2), 1);
        assert_eq!(*set.get(set.scan_head(2)), 4);
        set.remove(other);
        assert_eq!(set.group_len(2), 0);
        // A moved op leaves through its new lane.
        assert_eq!(set.remove(set.lane_head(g, from(1))), 1);
        assert_eq!(lane(&set, g, Some(1)), vec![2, 5, 6, 9]);
        assert_eq!(set.group_len(g), 5);
    }

    #[test]
    fn removal_from_middle_keeps_links() {
        let mut set = PendingSet::new(16);
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
        let mut set = PendingSet::new(16);
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
        let mut set = PendingSet::new(16);
        let k = QueueKey::Class(OpClass::GcRead, None);
        let s0 = set.insert(k, None, 7);
        set.insert(QueueKey::Transfer, None, 8);
        set.remove(s0);
        let live: Vec<u64> = set.iter().copied().collect();
        assert_eq!(live, vec![8]);
    }
}
