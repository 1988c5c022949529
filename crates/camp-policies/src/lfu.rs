//! LFU — least-frequently-used eviction, with LRU tie-breaking.
//!
//! A classic frequency-only baseline: evict the resident pair with the
//! fewest recorded accesses, breaking ties toward the least recently used.
//! Like LRU it is cost- and size-blind beyond byte accounting; unlike the
//! adaptive schemes (LRU-K, 2Q, ARC) it never forgets, so stale-but-once-
//! hot pairs can squat — exactly the failure mode CAMP's non-decreasing `L`
//! was designed to rule out, which makes LFU a useful contrast in the
//! extension experiments.

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
    /// Retained for trace events only; LFU ignores cost when evicting.
    cost: u64,
    frequency: u64,
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
#[derive(Debug)]
pub struct Lfu<K = u64> {
    capacity: u64,
    used: u64,
    clock: u64,
    residents: FoldHashMap<K, Resident>,
    by_heap_id: FoldHashMap<u32, K>,
    heap: OctonaryHeap<u128>,
    ids: IdAllocator,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> Lfu<K> {
    /// Creates an LFU cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Lfu {
            capacity,
            used: 0,
            clock: 0,
            residents: FoldHashMap::default(),
            by_heap_id: FoldHashMap::default(),
            heap: OctonaryHeap::new(),
            ids: IdAllocator::default(),
            sink: None,
        }
    }

    /// The recorded frequency of a resident key.
    #[must_use]
    pub fn frequency_of(&self, key: &K) -> Option<u64> {
        self.residents.get(key).map(|r| r.frequency)
    }

    fn heap_key(frequency: u64, last_used: u64) -> u128 {
        (u128::from(frequency) << 64) | u128::from(last_used)
    }

    fn on_hit(&mut self, key: &K) -> bool {
        self.clock += 1;
        let now = self.clock;
        let Some(resident) = self.residents.get_mut(key) else {
            return false;
        };
        resident.frequency = resident.frequency.saturating_add(1);
        let heap_key = Self::heap_key(resident.frequency, now);
        let heap_id = resident.heap_id;
        self.heap.update(heap_id, heap_key);
        true
    }

    fn evict_one(&mut self, evicted: &mut Vec<K>) -> bool {
        let Some((heap_id, _)) = self.heap.pop() else {
            return false;
        };
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
        evicted.push(key);
        true
    }
}

impl<K: CacheKey> EvictionPolicy<K> for Lfu<K> {
    fn name(&self) -> String {
        "lfu".to_owned()
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
            let ok = self.evict_one(evicted);
            debug_assert!(ok, "byte accounting out of sync");
        }
        let heap_id = self.ids.allocate();
        self.heap.insert(heap_id, Self::heap_key(1, now));
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
                frequency: 1,
            },
        );
        self.used += req.size;
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        self.on_hit(key)
    }

    fn victim(&self) -> Option<K> {
        let (heap_id, _) = self.heap.peek()?;
        self.by_heap_id.get(&heap_id).cloned()
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

    fn trace_sink(&self) -> Option<&SharedTraceSink> {
        self.sink.as_ref()
    }

    fn eviction_event(&self, key: &K) -> Option<PolicyEvent> {
        let resident = self.residents.get(key)?;
        Some(PolicyEvent::basic(
            PolicyEventKind::Evict,
            key_hash(key),
            resident.size,
            resident.cost,
        ))
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
        assert_eq!(c.frequency_of(&7), Some(5));
        for k in 0..20 {
            touch(&mut c, k);
            assert!(c.used_bytes() <= 40);
        }
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
        assert_eq!(EvictionPolicy::victim(&c), Some(2));
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
