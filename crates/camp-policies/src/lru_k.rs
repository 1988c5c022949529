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
//! accounting, which is exactly why the paper contrasts it with CAMP.

use std::collections::VecDeque;

use camp_core::hash::FoldHashMap;
use camp_core::heap::OctonaryHeap;

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};
use crate::util::IdAllocator;

#[derive(Debug)]
struct Resident {
    heap_id: u32,
    size: u64,
    /// Retained for trace events only; LRU-K ignores cost when evicting.
    cost: u64,
    history: VecDeque<u64>,
}

/// The LRU-K replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, LruK};
///
/// let mut cache = LruK::new(30, 2);
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
#[derive(Debug)]
pub struct LruK<K = u64> {
    k: usize,
    capacity: u64,
    used: u64,
    clock: u64,
    residents: FoldHashMap<K, Resident>,
    by_heap_id: FoldHashMap<u32, K>,
    heap: OctonaryHeap<u128>,
    ids: IdAllocator,
    /// Retained reference history for evicted keys, bounded FIFO.
    ghosts: FoldHashMap<K, VecDeque<u64>>,
    ghost_order: VecDeque<K>,
    ghost_capacity: usize,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> LruK<K> {
    /// Default number of retained ghost histories.
    const DEFAULT_GHOSTS: usize = 4096;

    /// Creates an LRU-K cache with byte capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn new(capacity: u64, k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        LruK {
            k,
            capacity,
            used: 0,
            clock: 0,
            residents: FoldHashMap::default(),
            by_heap_id: FoldHashMap::default(),
            heap: OctonaryHeap::new(),
            ids: IdAllocator::default(),
            ghosts: FoldHashMap::default(),
            ghost_order: VecDeque::new(),
            ghost_capacity: Self::DEFAULT_GHOSTS,
            sink: None,
        }
    }

    /// The configured `K`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Priority key for the eviction heap: pairs with an older (smaller)
    /// K-th reference time evict first; fewer than K references means
    /// K-time 0. The last reference time breaks ties LRU-first.
    fn heap_key(k: usize, history: &VecDeque<u64>) -> u128 {
        let kth = if history.len() >= k {
            history[history.len() - k]
        } else {
            0
        };
        let last = history.back().copied().unwrap_or(0);
        (u128::from(kth) << 64) | u128::from(last)
    }

    fn record_ghost(&mut self, key: K, history: VecDeque<u64>) {
        if self.ghost_capacity == 0 {
            return;
        }
        if self.ghosts.insert(key.clone(), history).is_none() {
            self.ghost_order.push_back(key);
        }
        while self.ghosts.len() > self.ghost_capacity {
            // Lazy trim: entries may have been re-admitted since queued.
            if let Some(old) = self.ghost_order.pop_front() {
                self.ghosts.remove(&old);
            } else {
                break;
            }
        }
    }

    fn on_hit(&mut self, key: &K) -> bool {
        self.clock += 1;
        let now = self.clock;
        let k = self.k;
        let Some(resident) = self.residents.get_mut(key) else {
            return false;
        };
        resident.history.push_back(now);
        while resident.history.len() > k {
            resident.history.pop_front();
        }
        let heap_key = Self::heap_key(k, &resident.history);
        let heap_id = resident.heap_id;
        self.heap.update(heap_id, heap_key);
        true
    }

    fn evict_one(&mut self) -> Option<K> {
        let (heap_id, _) = self.heap.pop()?;
        let key = self
            .by_heap_id
            .remove(&heap_id)
            .expect("heap id maps to a resident");
        let resident = self.residents.remove(&key).expect("resident entry");
        self.used -= resident.size;
        self.ids.release(heap_id);
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Evict,
                key_hash(&key),
                resident.size,
                resident.cost,
            ));
        }
        self.record_ghost(key.clone(), resident.history);
        Some(key)
    }
}

impl<K: CacheKey> EvictionPolicy<K> for LruK<K> {
    fn name(&self) -> String {
        format!("lru-{}", self.k)
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.residents.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.residents.contains_key(key)
    }

    fn reference(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) -> AccessOutcome {
        assert!(req.size > 0, "key-value pairs have positive size");
        if self.on_hit(&req.key) {
            return AccessOutcome::Hit;
        }
        if req.size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        let now = self.clock;
        while self.used + req.size > self.capacity {
            evicted.push(self.evict_one().expect("byte accounting out of sync"));
        }
        // Resume the ghost history, if retained.
        let mut history = self.ghosts.remove(&req.key).unwrap_or_default();
        history.push_back(now);
        while history.len() > self.k {
            history.pop_front();
        }
        let heap_id = self.ids.allocate();
        let key = Self::heap_key(self.k, &history);
        self.heap.insert(heap_id, key);
        self.by_heap_id.insert(heap_id, req.key.clone());
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Admit,
                key_hash(&req.key),
                req.size,
                req.cost,
            ));
        }
        self.residents.insert(
            req.key,
            Resident {
                heap_id,
                size: req.size,
                cost: req.cost,
                history,
            },
        );
        self.used += req.size;
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        self.on_hit(key)
    }

    fn evict_next(&mut self) -> Option<K> {
        self.evict_one()
    }

    fn remove(&mut self, key: &K) -> bool {
        let Some(resident) = self.residents.remove(key) else {
            return false;
        };
        self.heap.remove(resident.heap_id);
        self.by_heap_id.remove(&resident.heap_id);
        self.ids.release(resident.heap_id);
        self.used -= resident.size;
        true
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    fn heap_node_visits(&self) -> Option<u64> {
        Some(self.heap.node_visits())
    }

    fn reset_instrumentation(&mut self) {
        self.heap.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(c.ghosts.contains_key(&2) && !c.contains(&2));
        // So 2 comes back with two references: after the one-timer 3, the
        // older K-th reference (1's) goes before 2's.
        touch(&mut c, 2);
        assert_eq!(c.evict_next(), Some(3));
        assert_eq!(c.evict_next(), Some(1));
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
