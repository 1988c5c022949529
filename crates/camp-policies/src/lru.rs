//! Size-aware LRU: the paper's primary baseline.
//!
//! Classic least-recently-used eviction with byte accounting: a miss inserts
//! at the MRU end; when space runs out, entries are evicted from the LRU end
//! regardless of cost or size. Built on the same arena + intrusive list as
//! CAMP's queues, so per-operation costs are directly comparable.

use camp_core::arena::{Arena, EntryId};
use camp_core::hash::FoldHashMap;
use camp_core::lru_list::{Linked, Links, LruList};

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};

#[derive(Debug)]
struct Entry<K> {
    key: K,
    size: u64,
    /// Retained for trace events only; LRU ignores cost when evicting.
    cost: u64,
    links: Links,
}

impl<K> Linked for Entry<K> {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// A byte-capacity LRU cache.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, Lru};
///
/// let mut lru = Lru::new(100);
/// let mut evicted = Vec::new();
/// lru.reference(CacheRequest::new(1, 60, 0), &mut evicted);
/// lru.reference(CacheRequest::new(2, 40, 0), &mut evicted);
/// // Referencing key 1 refreshes it, so key 2 is the LRU victim.
/// lru.reference(CacheRequest::new(1, 60, 0), &mut evicted);
/// lru.reference(CacheRequest::new(3, 40, 0), &mut evicted);
/// assert_eq!(evicted, vec![2]);
/// ```
#[derive(Debug)]
pub struct Lru<K = u64> {
    map: FoldHashMap<K, EntryId>,
    arena: Arena<Entry<K>>,
    list: LruList,
    capacity: u64,
    used: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> Lru<K> {
    /// Creates an LRU cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Lru {
            map: FoldHashMap::default(),
            arena: Arena::new(),
            list: LruList::new(),
            capacity,
            used: 0,
            sink: None,
        }
    }

    /// The key next in line for eviction, if any.
    #[must_use]
    pub fn victim(&self) -> Option<K> {
        self.list
            .front()
            .and_then(|id| self.arena.get(id))
            .map(|e| e.key.clone())
    }

    /// Iterates over resident keys from LRU to MRU.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.list
            .iter(&self.arena)
            .filter_map(|id| self.arena.get(id).map(|e| e.key.clone()))
    }

    fn evict_one(&mut self, evicted: &mut Vec<K>) -> bool {
        let Some(id) = self.list.pop_front(&mut self.arena) else {
            return false;
        };
        let entry = self.arena.remove(id).expect("live LRU head");
        self.map.remove(&entry.key);
        self.used -= entry.size;
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Evict,
                key_hash(&entry.key),
                entry.size,
                entry.cost,
            ));
        }
        evicted.push(entry.key);
        true
    }

    fn detach(&mut self, key: &K) -> Option<Entry<K>> {
        let id = self.map.remove(key)?;
        self.list.unlink(&mut self.arena, id);
        let entry = self.arena.remove(id).expect("live entry");
        self.used -= entry.size;
        Some(entry)
    }
}

impl<K: CacheKey> EvictionPolicy<K> for Lru<K> {
    fn name(&self) -> String {
        "lru".to_owned()
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn reference(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) -> AccessOutcome {
        assert!(req.size > 0, "key-value pairs have positive size");
        if let Some(&id) = self.map.get(&req.key) {
            self.list.move_to_back(&mut self.arena, id);
            return AccessOutcome::Hit;
        }
        if req.size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        while self.used + req.size > self.capacity {
            let ok = self.evict_one(evicted);
            debug_assert!(ok, "byte accounting out of sync");
        }
        let id = self.arena.insert(Entry {
            key: req.key.clone(),
            size: req.size,
            cost: req.cost,
            links: Links::new(),
        });
        self.list.push_back(&mut self.arena, id);
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Admit,
                key_hash(&req.key),
                req.size,
                req.cost,
            ));
        }
        self.map.insert(req.key, id);
        self.used += req.size;
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        let Some(&id) = self.map.get(key) else {
            return false;
        };
        self.list.move_to_back(&mut self.arena, id);
        true
    }

    fn victim(&self) -> Option<K> {
        Lru::victim(self)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.detach(key).is_some()
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    fn trace_sink(&self) -> Option<&SharedTraceSink> {
        self.sink.as_ref()
    }

    fn evict(&mut self, key: &K) -> bool {
        let Some(entry) = self.detach(key) else {
            return false;
        };
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Evict,
                key_hash(key),
                entry.size,
                entry.cost,
            ));
        }
        true
    }

    fn eviction_event(&self, key: &K) -> Option<PolicyEvent> {
        let entry = self.arena.get(*self.map.get(key)?)?;
        Some(PolicyEvent::basic(
            PolicyEventKind::Evict,
            key_hash(key),
            entry.size,
            entry.cost,
        ))
    }

    fn queue_count(&self) -> Option<usize> {
        Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(lru: &mut Lru, key: u64, size: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = lru.reference(CacheRequest::new(key, size, 0), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn evicts_in_recency_order() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        touch(&mut lru, 2, 10);
        touch(&mut lru, 3, 10);
        let (_, ev) = touch(&mut lru, 4, 10);
        assert_eq!(ev, vec![1]);
        let (_, ev) = touch(&mut lru, 5, 10);
        assert_eq!(ev, vec![2]);
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        touch(&mut lru, 2, 10);
        touch(&mut lru, 3, 10);
        let (out, _) = touch(&mut lru, 1, 10);
        assert_eq!(out, AccessOutcome::Hit);
        let (_, ev) = touch(&mut lru, 4, 10);
        assert_eq!(ev, vec![2]);
        assert!(lru.contains(&1));
    }

    #[test]
    fn large_insert_evicts_several() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        touch(&mut lru, 2, 10);
        touch(&mut lru, 3, 10);
        let (out, ev) = touch(&mut lru, 4, 25);
        assert_eq!(out, AccessOutcome::MissInserted);
        assert_eq!(ev, vec![1, 2, 3]);
        assert_eq!(lru.used_bytes(), 25);
    }

    #[test]
    fn oversized_request_bypasses() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        let (out, ev) = touch(&mut lru, 2, 31);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert!(ev.is_empty());
        assert!(lru.contains(&1));
    }

    #[test]
    fn remove_frees_space() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        touch(&mut lru, 2, 20);
        assert!(EvictionPolicy::remove(&mut lru, &1));
        assert!(!EvictionPolicy::remove(&mut lru, &1));
        assert_eq!(lru.used_bytes(), 20);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn iter_and_victim_follow_lru_order() {
        let mut lru = Lru::new(100);
        for k in 1..=4 {
            touch(&mut lru, k, 10);
        }
        touch(&mut lru, 2, 10); // refresh 2
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![1, 3, 4, 2]);
        assert_eq!(lru.victim(), Some(1));
    }

    #[test]
    fn touch_refreshes_without_insert() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        touch(&mut lru, 2, 10);
        assert!(EvictionPolicy::touch(&mut lru, &1));
        assert!(!EvictionPolicy::touch(&mut lru, &9));
        assert_eq!(EvictionPolicy::victim(&lru), Some(2));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn byte_keys_work() {
        let mut lru: Lru<Box<[u8]>> = Lru::new(30);
        let a: Box<[u8]> = Box::from(&b"a"[..]);
        let b: Box<[u8]> = Box::from(&b"b"[..]);
        let mut evicted = Vec::new();
        lru.reference(CacheRequest::new(a.clone(), 20, 0), &mut evicted);
        lru.reference(CacheRequest::new(b.clone(), 20, 0), &mut evicted);
        assert_eq!(evicted, vec![a]);
        assert!(lru.contains(&b));
    }

    #[test]
    fn ignores_cost_entirely() {
        // LRU's defining weakness in the paper: it evicts the expensive pair
        // as readily as a cheap one.
        let mut lru = Lru::new(30);
        let mut evicted = Vec::new();
        lru.reference(CacheRequest::new(1, 10, 1_000_000), &mut evicted);
        lru.reference(CacheRequest::new(2, 10, 1), &mut evicted);
        lru.reference(CacheRequest::new(3, 10, 1), &mut evicted);
        lru.reference(CacheRequest::new(4, 10, 1), &mut evicted);
        assert_eq!(evicted, vec![1]);
    }
}
