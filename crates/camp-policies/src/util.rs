//! Small shared internals for the policy implementations.

use std::collections::VecDeque;

use camp_core::arena::EntryId;
use camp_core::hash::FoldHashMap;
use camp_core::lru_list::{Linked, Links, LruList};

use crate::keyed::Slots;
use crate::policy::CacheKey;

/// Which of its two lists a resident of ARC (`T1`/`T2`) or 2Q (`A1in`/`Am`)
/// is on. As a number (0 or 1) it is the `queue` of the pair's trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Region {
    /// ARC's recency list `T1`; 2Q's probation FIFO `A1in`.
    #[default]
    First,
    /// ARC's frequency list `T2`; 2Q's main LRU `Am`.
    Second,
}

/// The per-pair state of ARC and 2Q: the pair's list node, and which list.
#[derive(Debug, Default)]
pub struct Listed {
    links: Links,
    pub(crate) region: Region,
}

impl Linked for Listed {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// The two intrusive lists ARC and 2Q keep their residents on, LRU at each
/// front, with the bytes on each.
#[derive(Debug, Default)]
pub(crate) struct TwoLists {
    lists: [LruList; 2],
    bytes: [u64; 2],
}

impl TwoLists {
    /// Resident bytes on `region`'s list.
    pub(crate) fn bytes(&self, region: Region) -> u64 {
        self.bytes[region as usize]
    }

    pub(crate) fn is_empty(&self, region: Region) -> bool {
        self.lists[region as usize].is_empty()
    }

    /// The least recently linked pair on `region`'s list.
    pub(crate) fn front(&self, region: Region) -> Option<EntryId> {
        self.lists[region as usize].front()
    }

    /// Links `id` at the back (MRU end) of `region`'s list.
    pub(crate) fn push<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId, region: Region) {
        let slot = slots.get_mut(id).expect("live entry");
        slot.node.region = region;
        self.bytes[region as usize] += slot.size;
        self.lists[region as usize].push_back(slots, id);
    }

    /// Unlinks `id` from whichever list it is on.
    pub(crate) fn unlink<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        let slot = slots.get(id).expect("live entry");
        let region = slot.node.region;
        self.bytes[region as usize] -= slot.size;
        self.lists[region as usize].unlink(slots, id);
    }

    /// Moves `id` to the back of `region`'s list, from whichever it is on.
    pub(crate) fn requeue<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId, region: Region) {
        if slots.get(id).expect("live entry").node.region == region {
            self.lists[region as usize].move_to_back(slots, id);
        } else {
            self.unlink(slots, id);
            self.push(slots, id, region);
        }
    }
}

/// Keys of recently evicted pairs, oldest first, each with a weight and a
/// payload: ARC's `B1`/`B2` and 2Q's `A1out` weigh a key by its bytes and
/// carry nothing; LRU-K's retained histories weigh 1 each and carry the
/// history; `Admission`'s `SecondMiss` window holds keys missed once,
/// weighing 1 each. Membership, removal and dropping the oldest are O(1)
/// (amortized). A removed key's entry keeps its place, emptied, until it
/// reaches the front or emptied entries become the majority and the list
/// compacts.
#[derive(Debug)]
pub(crate) struct GhostList<K, T = ()> {
    /// Each remembered key's sequence number: its place in `order`.
    map: FoldHashMap<K, u64>,
    order: VecDeque<Ghost<K, T>>,
    /// The sequence number of `order`'s front.
    head: u64,
    weight: u64,
}

#[derive(Debug)]
struct Ghost<K, T> {
    key: K,
    weight: u64,
    /// `None` once the key is removed.
    payload: Option<T>,
}

impl<K, T> Default for GhostList<K, T> {
    fn default() -> Self {
        GhostList {
            map: FoldHashMap::default(),
            order: VecDeque::new(),
            head: 0,
            weight: 0,
        }
    }
}

impl<K: CacheKey, T> GhostList<K, T> {
    #[cfg(test)]
    pub(crate) fn holds(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// The summed weight of the remembered keys.
    pub(crate) fn weight(&self) -> u64 {
        self.weight
    }

    /// Number of remembered keys.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Number of entries held, emptied ones included.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.order.len()
    }

    /// Remembers `key`, which it does not hold, as the newest ghost.
    pub(crate) fn push(&mut self, key: K, weight: u64, payload: T) {
        let seq = self.head + self.order.len() as u64;
        let older = self.map.insert(key.clone(), seq);
        debug_assert!(older.is_none(), "a key is remembered once");
        self.order.push_back(Ghost {
            key,
            weight,
            payload: Some(payload),
        });
        self.weight += weight;
    }

    /// Forgets `key`, handing back its payload.
    pub(crate) fn remove(&mut self, key: &K) -> Option<T> {
        let seq = self.map.remove(key)?;
        let ghost = &mut self.order[(seq - self.head) as usize];
        self.weight -= ghost.weight;
        let payload = ghost.payload.take().expect("mapped ghost is live");
        self.drop_emptied_front();
        if self.order.len() > 2 * self.map.len() + 1 {
            self.compact();
        }
        Some(payload)
    }

    /// Forgets the oldest keys until the weight is at most `limit`.
    pub(crate) fn trim_to(&mut self, limit: u64) {
        while self.weight > limit {
            let ghost = self.order.pop_front().expect("weight counts live ghosts");
            self.head += 1;
            self.map.remove(&ghost.key);
            self.weight -= ghost.weight;
            self.drop_emptied_front();
        }
    }

    /// Keeps the front entry a live one, so trimming never meets an
    /// emptied entry.
    fn drop_emptied_front(&mut self) {
        while self
            .order
            .front()
            .is_some_and(|ghost| ghost.payload.is_none())
        {
            self.order.pop_front();
            self.head += 1;
        }
    }

    /// Drops every emptied entry and renumbers the rest from the front.
    fn compact(&mut self) {
        self.order.retain(|ghost| ghost.payload.is_some());
        for (place, ghost) in self.order.iter().enumerate() {
            *self.map.get_mut(&ghost.key).expect("live ghost is mapped") = self.head + place as u64;
        }
    }
}

/// Allocates dense `u32` ids with recycling, for use as heap ids.
#[derive(Debug, Default)]
pub(crate) struct IdAllocator {
    next: u32,
    free: Vec<u32>,
}

impl IdAllocator {
    pub(crate) fn allocate(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            id
        } else {
            let id = self.next;
            self.next = self.next.checked_add(1).expect("id space exhausted");
            id
        }
    }

    pub(crate) fn release(&mut self, id: u32) {
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghosts_are_forgotten_oldest_first_across_removals() {
        let mut ghosts: GhostList<u64, u64> = GhostList::default();
        for key in 0..10 {
            ghosts.push(key, 1, key * 100);
        }
        // Emptied entries in the middle pile up until the list compacts.
        for key in [1, 3, 5, 7] {
            assert_eq!(ghosts.remove(&key), Some(key * 100));
        }
        assert_eq!(ghosts.remove(&1), None);
        assert_eq!((ghosts.len(), ghosts.weight()), (6, 6));
        assert!(ghosts.entries() <= 2 * ghosts.len() + 1);
        // A key pushed again after leaving is the newest.
        assert_eq!(ghosts.remove(&4), Some(400));
        ghosts.push(4, 1, 404);
        ghosts.trim_to(3);
        let held: Vec<u64> = (0..10).filter(|key| ghosts.holds(key)).collect();
        assert_eq!(held, [4, 8, 9]);
        assert_eq!(ghosts.remove(&4), Some(404));
        assert_eq!(ghosts.weight(), 2);
    }

    #[test]
    fn allocates_dense_and_recycles() {
        let mut alloc = IdAllocator::default();
        assert_eq!(alloc.allocate(), 0);
        assert_eq!(alloc.allocate(), 1);
        assert_eq!(alloc.allocate(), 2);
        alloc.release(1);
        assert_eq!(alloc.allocate(), 1);
        assert_eq!(alloc.allocate(), 3);
    }
}
