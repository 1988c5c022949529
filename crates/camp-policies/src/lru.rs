//! Size-aware LRU: the paper's primary baseline.
//!
//! Classic least-recently-used eviction with byte accounting: a miss inserts
//! at the MRU end; when space runs out, entries are evicted from the LRU end
//! regardless of cost or size. Built on the same arena + intrusive list as
//! CAMP's queues, so per-operation costs are directly comparable.

use camp_core::arena::EntryId;
use camp_core::lru_list::{Links, LruList};

use crate::keyed::{Keyed, Ordering, Slots};

/// Recency order: one intrusive list, LRU at the front. Cost is ignored.
#[derive(Debug, Default)]
pub struct Recency {
    list: LruList,
}

impl Ordering for Recency {
    type Node = Links;

    fn name(&self) -> String {
        "lru".to_owned()
    }

    fn admit<K>(&mut self, slots: &mut Slots<K, Links>, id: EntryId) {
        self.list.push_back(slots, id);
    }

    fn hit<K>(&mut self, slots: &mut Slots<K, Links>, id: EntryId) {
        self.list.move_to_back(slots, id);
    }

    fn victim<K>(&self, _slots: &Slots<K, Links>) -> Option<EntryId> {
        self.list.front()
    }

    fn forget<K>(&mut self, slots: &mut Slots<K, Links>, id: EntryId) {
        self.list.unlink(slots, id);
    }

    fn clear(&mut self) {
        self.list = LruList::new();
    }

    fn queue_count(&self) -> Option<usize> {
        Some(1)
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
pub type Lru<K = u64> = Keyed<K, Recency>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

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
    fn victims_follow_lru_order() {
        let mut lru = Lru::new(100);
        for k in 1..=4 {
            touch(&mut lru, k, 10);
        }
        touch(&mut lru, 2, 10); // refresh 2
        let mut order = Vec::new();
        while let Some(&key) = lru.victim() {
            order.push(key);
            assert!(EvictionPolicy::remove(&mut lru, &key));
        }
        assert_eq!(order, vec![1, 3, 4, 2]);
    }

    #[test]
    fn touch_refreshes_without_insert() {
        let mut lru = Lru::new(30);
        touch(&mut lru, 1, 10);
        touch(&mut lru, 2, 10);
        assert!(EvictionPolicy::touch(&mut lru, &1));
        assert!(!EvictionPolicy::touch(&mut lru, &9));
        assert_eq!(lru.victim(), Some(&2));
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
