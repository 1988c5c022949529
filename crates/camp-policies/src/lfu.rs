//! LFU — least-frequently-used eviction, with LRU tie-breaking.
//!
//! A classic frequency-only baseline: evict the resident pair with the
//! fewest recorded accesses, breaking ties toward the least recently used.
//! Like LRU it is cost- and size-blind beyond byte accounting; unlike the
//! adaptive schemes (LRU-K, 2Q, ARC) it never forgets, so stale-but-once-
//! hot pairs can squat — exactly the failure mode CAMP's non-decreasing `L`
//! was designed to rule out, which makes LFU a useful contrast in the
//! extension experiments.

use camp_core::arena::EntryId;
use camp_core::heap::OctonaryHeap;

use crate::keyed::{Keyed, Ordering, Slots};
use crate::policy::PolicyStats;

/// Frequency order: a heap keyed `frequency ‖ last-use clock`, one node per
/// pair (heap ids are arena slot indices). The per-pair state is the
/// frequency; cost is ignored.
#[derive(Debug, Default)]
pub struct Frequency {
    heap: OctonaryHeap<u128>,
    /// Ticks once per admission and hit, so equal frequencies order by
    /// recency and no two heap keys are equal.
    clock: u64,
}

impl Frequency {
    fn tick(&mut self, frequency: u64) -> u128 {
        self.clock += 1;
        (u128::from(frequency) << 64) | u128::from(self.clock)
    }
}

impl<K> Ordering<K> for Frequency {
    type Node = u64;

    fn name(&self) -> String {
        "lfu".to_owned()
    }

    fn admit<P>(&mut self, slots: &mut Slots<P, u64>, id: EntryId) {
        slots.get_mut(id).expect("live entry").node = 1;
        let key = self.tick(1);
        self.heap.insert(id.index(), key);
    }

    fn hit<P>(&mut self, slots: &mut Slots<P, u64>, id: EntryId) {
        let frequency = &mut slots.get_mut(id).expect("live entry").node;
        *frequency = frequency.saturating_add(1);
        let key = self.tick(*frequency);
        self.heap.update(id.index(), key);
    }

    fn victim<P>(&self, slots: &Slots<P, u64>) -> Option<EntryId> {
        let (idx, _) = self.heap.peek()?;
        slots.id_at(idx)
    }

    fn forget<P>(&mut self, _slots: &mut Slots<P, u64>, id: EntryId) {
        self.heap.remove(id.index());
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    fn reset_instrumentation(&mut self) {
        self.heap.reset_counters();
    }

    fn extend_stats<P>(&self, _slots: &Slots<P, u64>, stats: &mut PolicyStats) {
        stats.push("heap_visits", self.heap.node_visits());
    }
}

/// The LFU replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, Lfu};
///
/// let mut cache = Lfu::new(30);
/// let mut evicted = Vec::new();
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted); // freq 2
/// cache.reference(CacheRequest::new(2, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(3, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(4, 10, 0), &mut evicted);
/// // 2 was the least-frequently, least-recently used.
/// assert_eq!(evicted, vec![2]);
/// assert!(cache.contains(&1));
/// ```
pub type Lfu<K = u64> = Keyed<K, Frequency>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

    fn touch(c: &mut Lfu, key: u64) -> (AccessOutcome, Vec<u64>) {
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(key, 10, 0), &mut ev);
        (out, ev)
    }

    #[test]
    fn evicts_least_frequent_first() {
        let mut c = Lfu::new(30);
        touch(&mut c, 1);
        touch(&mut c, 1);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 2);
        touch(&mut c, 3);
        let (_, ev) = touch(&mut c, 4);
        assert_eq!(ev, vec![3]);
        let (_, ev) = touch(&mut c, 5); // 4 has freq 1, evicted next
        assert_eq!(ev, vec![4]);
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn ties_break_lru() {
        let mut c = Lfu::new(30);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 3);
        touch(&mut c, 1); // 1 now freq 2; 2 and 3 tied at 1, 2 older
        let (_, ev) = touch(&mut c, 4);
        assert_eq!(ev, vec![2]);
    }

    #[test]
    fn once_hot_pairs_squat() {
        // The known LFU pathology: a formerly hot key outlives the new
        // working set. (CAMP avoids this via the rising L.)
        let mut c = Lfu::new(30);
        for _ in 0..100 {
            touch(&mut c, 1);
        }
        for k in 10..100 {
            touch(&mut c, k);
        }
        assert!(
            c.contains(&1),
            "LFU keeps the stale-hot key (expected pathology)"
        );
    }

    #[test]
    fn frequency_counts_and_capacity() {
        let mut c = Lfu::new(40);
        for _ in 0..5 {
            touch(&mut c, 7);
        }
        for k in 0..20 {
            touch(&mut c, k);
            assert!(c.used_bytes() <= 40);
        }
        assert!(c.contains(&7), "five references outrank every newcomer");
    }

    #[test]
    fn touch_and_victim() {
        let mut c = Lfu::new(30);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 3);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        // 2 is now the least-frequent, least-recent resident.
        assert_eq!(c.victim(), Some(&2));
    }

    #[test]
    fn remove_and_bypass() {
        let mut c = Lfu::new(30);
        touch(&mut c, 1);
        assert!(EvictionPolicy::remove(&mut c, &1));
        assert!(!EvictionPolicy::remove(&mut c, &1));
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(2, 31, 0), &mut ev);
        assert_eq!(out, AccessOutcome::MissBypassed);
    }
}
