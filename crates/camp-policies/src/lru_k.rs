//! LRU-K (O'Neil, O'Neil & Weikum, SIGMOD'93).
//!
//! One of the recency/frequency-adaptive policies the CAMP paper surveys in
//! §5. LRU-K evicts the resident pair with the largest *backward
//! K-distance* — the pair whose K-th most recent reference is oldest. Pairs
//! referenced fewer than K times have infinite backward K-distance and go
//! first, ordered among themselves by LRU. A bounded ghost history retains
//! reference times for recently evicted keys, which is what lets a second
//! reference shortly after eviction count toward the K-distance.
//!
//! Like LRU (and unlike CAMP), LRU-K is blind to sizes and costs beyond byte
//! accounting, which is exactly why the paper contrasts it with CAMP. It is
//! an [`Ordering`] on the [`Keyed`] front; each pair's slot holds its
//! reference history.

use std::collections::VecDeque;

use camp_core::arena::EntryId;
use camp_core::heap::OctonaryHeap;

use crate::keyed::{Budget, Keyed, Ordering, Slots};
use crate::policy::{CacheKey, PolicyStats};
use crate::util::GhostList;

/// Backward K-distance order: a heap keyed `K-th reference ‖ last
/// reference`, one node per pair (heap ids are arena slot indices), and
/// the retained histories of evicted keys. The per-pair state is the
/// pair's last `K` reference times.
#[derive(Debug)]
pub struct KDistance<K> {
    k: usize,
    /// Stamps every hit and every admission, in order.
    clock: u64,
    heap: OctonaryHeap<u128>,
    /// Retained reference histories of evicted keys, at most
    /// [`KDistance::GHOSTS`], the oldest evictions forgotten first.
    ghosts: GhostList<K, VecDeque<u64>>,
}

impl<K: CacheKey> KDistance<K> {
    /// Number of retained ghost histories.
    const GHOSTS: u64 = 4096;

    /// Appends a reference at the next tick to the pair `id`'s history,
    /// keeping the last `k`, and returns its eviction-heap priority: pairs
    /// with an older (smaller) K-th reference time evict first; fewer than
    /// K references means K-time 0. The last reference time breaks ties
    /// LRU-first.
    fn reference<P>(&mut self, slots: &mut Slots<P, VecDeque<u64>>, id: EntryId) -> u128 {
        self.clock += 1;
        let history = &mut slots.get_mut(id).expect("live entry").node;
        history.push_back(self.clock);
        while history.len() > self.k {
            history.pop_front();
        }
        let kth = if history.len() >= self.k {
            history[history.len() - self.k]
        } else {
            0
        };
        (u128::from(kth) << 64) | u128::from(self.clock)
    }
}

impl<K: CacheKey> Ordering<K> for KDistance<K> {
    type Node = VecDeque<u64>;

    fn name(&self) -> String {
        format!("lru-{}", self.k)
    }

    /// Resumes the ghost history, if retained.
    fn admitting<P>(
        &mut self,
        slots: &mut Slots<P, VecDeque<u64>>,
        id: EntryId,
        key: &K,
        _budget: Budget,
    ) {
        if let Some(history) = self.ghosts.remove(key) {
            slots.get_mut(id).expect("live entry").node = history;
        }
    }

    fn admit<P>(&mut self, slots: &mut Slots<P, VecDeque<u64>>, id: EntryId) {
        let priority = self.reference(slots, id);
        self.heap.insert(id.index(), priority);
    }

    fn hit<P>(&mut self, slots: &mut Slots<P, VecDeque<u64>>, id: EntryId) {
        let priority = self.reference(slots, id);
        self.heap.update(id.index(), priority);
    }

    fn victim<P>(&self, slots: &Slots<P, VecDeque<u64>>) -> Option<EntryId> {
        let (idx, _) = self.heap.peek()?;
        slots.id_at(idx)
    }

    fn forget<P>(&mut self, _slots: &mut Slots<P, VecDeque<u64>>, id: EntryId) {
        self.heap.remove(id.index());
    }

    fn evict<P>(&mut self, slots: &mut Slots<P, VecDeque<u64>>) -> Option<EntryId> {
        let (idx, _) = self.heap.pop()?;
        slots.id_at(idx)
    }

    fn evicted(&mut self, key: &K, _size: u64, history: VecDeque<u64>) {
        self.ghosts.push(key.clone(), 1, history);
        self.ghosts.trim_to(Self::GHOSTS);
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    fn reset_instrumentation(&mut self) {
        self.heap.reset_counters();
    }

    fn extend_stats<P>(&self, _slots: &Slots<P, VecDeque<u64>>, stats: &mut PolicyStats) {
        stats.push("heap_visits", self.heap.node_visits());
    }
}

/// The LRU-K replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, LruK, LruKCache};
///
/// let mut cache: LruK = LruK::new(30, 2);
/// let mut evicted = Vec::new();
/// // Key 1 is referenced twice, keys 2 and 3 once each.
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(2, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(3, 10, 0), &mut evicted);
/// // 2 and 3 have infinite backward 2-distance; 2 is older, so it goes.
/// cache.reference(CacheRequest::new(4, 10, 0), &mut evicted);
/// assert_eq!(evicted, vec![2]);
/// assert!(cache.contains(&1));
/// ```
pub type LruK<K = u64, V = ()> = Keyed<K, KDistance<K>, V>;

/// `LruK::new` and `LruK::k`. A trait because [`Keyed`] is `camp-core`'s
/// type: its aliases cannot carry inherent functions in this crate.
pub trait LruKCache {
    /// Creates an LRU-K cache with byte capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    fn new(capacity: u64, k: usize) -> Self;

    /// The configured `K`.
    #[must_use]
    fn k(&self) -> usize;
}

impl<K: CacheKey, V> LruKCache for LruK<K, V> {
    fn new(capacity: u64, k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        Keyed::with_ordering(
            capacity,
            KDistance {
                k,
                clock: 0,
                heap: OctonaryHeap::new(),
                ghosts: GhostList::default(),
            },
        )
    }

    fn k(&self) -> usize {
        self.ordering().k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

    fn touch(c: &mut LruK, key: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = c.reference(CacheRequest::new(key, 10, 0), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn k1_degenerates_to_lru() {
        let mut c = LruK::new(30, 1);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 3);
        touch(&mut c, 1); // refresh
        let (_, ev) = touch(&mut c, 4);
        assert_eq!(ev, vec![2]);
    }

    #[test]
    fn twice_referenced_keys_beat_one_timers() {
        let mut c = LruK::new(30, 2);
        touch(&mut c, 1);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 3);
        // 2 and 3 are one-timers; they leave before the doubly-referenced 1.
        let (_, ev) = touch(&mut c, 4);
        assert_eq!(ev, vec![2]);
        let (_, ev) = touch(&mut c, 5);
        assert_eq!(ev, vec![3]);
        assert!(c.contains(&1));
    }

    #[test]
    fn ghost_history_survives_eviction() {
        let mut c = LruK::new(20, 2);
        touch(&mut c, 1);
        touch(&mut c, 2);
        let (_, ev) = touch(&mut c, 3); // evicts 1 (oldest one-timer)
        assert_eq!(ev, vec![1]);
        // 1 comes back: its old reference is retained, so it now has two
        // references and outranks the one-timers 2 and 3.
        let (_, ev) = touch(&mut c, 1); // readmission evicts one-timer 2
        assert_eq!(ev, vec![2]);
        let (_, ev) = touch(&mut c, 4); // next one-timer displaces 3, not 1
        assert_eq!(ev, vec![3]);
        assert!(c.contains(&1));
    }

    #[test]
    fn scan_resistance() {
        // A long scan of one-timers must not displace the hot set once the
        // hot keys have K references.
        let mut c = LruK::new(40, 2);
        for _ in 0..3 {
            touch(&mut c, 100);
            touch(&mut c, 101);
        }
        for k in 0..50 {
            touch(&mut c, k);
        }
        assert!(c.contains(&100), "hot key 100 displaced by scan");
        assert!(c.contains(&101), "hot key 101 displaced by scan");
    }

    #[test]
    fn touch_and_evict_next() {
        let mut c = LruK::new(30, 2);
        touch(&mut c, 1);
        touch(&mut c, 2);
        touch(&mut c, 3);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        // 1 now has two references and outranks the one-timers; the oldest
        // of those goes, and its history is kept as a ghost.
        assert_eq!(c.evict_next(), Some(2));
        assert!(c.ordering().ghosts.holds(&2) && !c.contains(&2));
        // So 2 comes back with two references: after the one-timer 3, the
        // older K-th reference (1's) goes before 2's.
        touch(&mut c, 2);
        assert_eq!(c.evict_next(), Some(3));
        assert_eq!(c.evict_next(), Some(1));
    }

    /// A ghost hit leaves nothing behind in the retained histories: cycling
    /// three keys through a two-pair cache, every admission a ghost hit,
    /// keeps at most the three keys' histories.
    #[test]
    fn ghost_bookkeeping_stays_within_the_live_histories() {
        let mut c = LruK::new(20, 2);
        for i in 0..300_000 {
            touch(&mut c, i % 3);
        }
        let ghosts = &c.ordering().ghosts;
        assert!(
            ghosts.entries() <= ghosts.len() && ghosts.len() <= 3,
            "{} ghost entries for {} histories of 3 keys",
            ghosts.entries(),
            ghosts.len()
        );
    }

    #[test]
    fn remove_and_reject() {
        let mut c = LruK::new(30, 2);
        touch(&mut c, 1);
        assert!(EvictionPolicy::remove(&mut c, &1));
        assert!(!EvictionPolicy::remove(&mut c, &1));
        assert_eq!(c.used_bytes(), 0);
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(9, 31, 0), &mut ev);
        assert_eq!(out, AccessOutcome::MissBypassed);
    }

    #[test]
    fn heap_id_recycling_is_safe() {
        let mut c = LruK::new(20, 2);
        for round in 0..100u64 {
            touch(&mut c, round % 7);
            assert!(c.used_bytes() <= 20);
            assert_eq!(c.len(), (c.used_bytes() / 10) as usize);
        }
    }
}
