//! ARC — the Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//!
//! The self-tuning recency/frequency policy from the paper's related work
//! (§5). ARC splits residents into a recency list `T1` (seen once recently)
//! and a frequency list `T2` (seen at least twice), shadowed by ghost lists
//! `B1`/`B2` that remember recently evicted keys. Hits on the ghosts move
//! the adaptation target `p` — the byte budget of `T1` — toward whichever
//! list is proving valuable.
//!
//! The original operates on fixed-size pages; the CAMP setting has
//! variable-size values, so this implementation generalizes all list budgets
//! and the parameter `p` to bytes. The adaptation deltas scale with the
//! request's size, the byte analogue of the original's `max(1, |B2|/|B1|)`
//! page deltas. Like LRU and LRU-K — and unlike CAMP — ARC is cost-blind,
//! which is why the paper positions it as complementary rather than
//! competing.

use std::collections::VecDeque;

use camp_core::arena::{Arena, EntryId};
use camp_core::hash::FoldHashMap;
use camp_core::lru_list::{Linked, Links, LruList};

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    T1,
    T2,
}

impl Region {
    /// Queue index reported in trace events: 0 = recency (T1), 1 = frequency (T2).
    fn queue_index(self) -> u32 {
        match self {
            Region::T1 => 0,
            Region::T2 => 1,
        }
    }
}

#[derive(Debug)]
struct Resident {
    size: u64,
    /// Retained for trace events only; ARC ignores cost when evicting.
    cost: u64,
    region: Region,
    id: EntryId,
}

#[derive(Debug)]
struct Node<K> {
    key: K,
    links: Links,
}

impl<K> Linked for Node<K> {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// A ghost list: remembers keys and sizes of recently evicted entries in
/// LRU order, with O(1) membership and lazy mid-list deletion.
#[derive(Debug)]
struct GhostList<K> {
    map: FoldHashMap<K, (u64, u64)>, // key -> (size, stamp)
    order: VecDeque<(K, u64)>,       // (key, stamp)
    bytes: u64,
    next_stamp: u64,
}

impl<K: CacheKey> Default for GhostList<K> {
    fn default() -> Self {
        GhostList {
            map: FoldHashMap::default(),
            order: VecDeque::new(),
            bytes: 0,
            next_stamp: 0,
        }
    }
}

impl<K: CacheKey> GhostList<K> {
    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn push_mru(&mut self, key: K, size: u64) {
        self.remove(&key);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(key.clone(), (size, stamp));
        self.order.push_back((key, stamp));
        self.bytes += size;
    }

    fn remove(&mut self, key: &K) -> Option<u64> {
        let (size, _) = self.map.remove(key)?;
        self.bytes -= size;
        Some(size)
    }

    fn pop_lru(&mut self) -> Option<K> {
        while let Some((key, stamp)) = self.order.pop_front() {
            if let Some(&(size, live_stamp)) = self.map.get(&key) {
                if live_stamp == stamp {
                    self.map.remove(&key);
                    self.bytes -= size;
                    return Some(key);
                }
            }
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The ARC replacement policy, generalized to byte sizes.
///
/// # Examples
///
/// ```
/// use camp_policies::{Arc, CacheRequest, EvictionPolicy};
///
/// let mut cache = Arc::new(100);
/// let mut evicted = Vec::new();
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted); // promotes to T2
/// assert!(cache.contains(&1));
/// ```
#[derive(Debug)]
pub struct Arc<K = u64> {
    capacity: u64,
    p: u64,
    used: u64,
    t1_bytes: u64,
    t2_bytes: u64,
    residents: FoldHashMap<K, Resident>,
    t1: LruList,
    t2: LruList,
    arena: Arena<Node<K>>,
    b1: GhostList<K>,
    b2: GhostList<K>,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> Arc<K> {
    /// Creates an ARC cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Arc {
            capacity,
            p: 0,
            used: 0,
            t1_bytes: 0,
            t2_bytes: 0,
            residents: FoldHashMap::default(),
            t1: LruList::new(),
            t2: LruList::new(),
            arena: Arena::new(),
            b1: GhostList::default(),
            b2: GhostList::default(),
            sink: None,
        }
    }

    /// Builds the trace event for a resident (queue 0 = T1, 1 = T2).
    fn event_for(kind: PolicyEventKind, key: &K, resident: &Resident) -> PolicyEvent {
        PolicyEvent {
            kind,
            key_hash: key_hash(key),
            size: resident.size,
            cost: resident.cost,
            ratio: 0,
            queue: resident.region.queue_index(),
            l_value: 0,
        }
    }

    /// The current adaptation target: the byte budget ARC aims to give the
    /// recency list `T1`.
    #[must_use]
    pub fn p_target(&self) -> u64 {
        self.p
    }

    /// Resident bytes in `T1` and `T2` respectively.
    #[must_use]
    pub fn region_bytes(&self) -> (u64, u64) {
        (self.t1_bytes, self.t2_bytes)
    }

    fn push_node(arena: &mut Arena<Node<K>>, list: &mut LruList, key: K) -> EntryId {
        let id = arena.insert(Node {
            key,
            links: Links::new(),
        });
        list.push_back(arena, id);
        id
    }

    /// The ARC `REPLACE` subroutine, generalized to bytes: evict one entry
    /// from `T1` if it is over target, else from `T2`, recording it in the
    /// matching ghost list.
    fn replace(&mut self) -> Option<K> {
        let list = if (!self.t1.is_empty() && self.t1_bytes > self.p) || self.t2.is_empty() {
            &mut self.t1
        } else {
            &mut self.t2
        };
        let id = list.pop_front(&mut self.arena)?;
        let node = self.arena.remove(id).expect("live list node");
        let resident = self
            .residents
            .remove(&node.key)
            .expect("listed key is resident");
        self.used -= resident.size;
        if let Some(sink) = &self.sink {
            sink.record(&Self::event_for(
                PolicyEventKind::Evict,
                &node.key,
                &resident,
            ));
        }
        match resident.region {
            Region::T1 => {
                self.t1_bytes -= resident.size;
                self.b1.push_mru(node.key.clone(), resident.size);
            }
            Region::T2 => {
                self.t2_bytes -= resident.size;
                self.b2.push_mru(node.key.clone(), resident.size);
            }
        }
        Some(node.key)
    }

    /// Keeps the ghost directories within the classic ARC bounds:
    /// `t1 + b1 <= c` and `t1 + t2 + b1 + b2 <= 2c` (in bytes).
    fn trim_ghosts(&mut self) {
        while self.t1_bytes + self.b1.bytes() > self.capacity && !self.b1.is_empty() {
            self.b1.pop_lru();
        }
        while self.used + self.b1.bytes() + self.b2.bytes() > 2 * self.capacity {
            if self.b2.pop_lru().is_none() && self.b1.pop_lru().is_none() {
                break;
            }
        }
    }

    fn admit_to_t2(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) {
        while self.used + req.size > self.capacity {
            evicted.push(self.replace().expect("byte accounting out of sync"));
        }
        let id = Self::push_node(&mut self.arena, &mut self.t2, req.key.clone());
        let resident = Resident {
            size: req.size,
            cost: req.cost,
            region: Region::T2,
            id,
        };
        if let Some(sink) = &self.sink {
            sink.record(&Self::event_for(
                PolicyEventKind::Admit,
                &req.key,
                &resident,
            ));
        }
        self.residents.insert(req.key, resident);
        self.used += req.size;
        self.t2_bytes += req.size;
    }

    fn on_hit(&mut self, key: &K) -> bool {
        // Case I: hit in T1 or T2 — promote to T2 MRU.
        let Some(resident) = self.residents.get_mut(key) else {
            return false;
        };
        let id = resident.id;
        match resident.region {
            Region::T1 => {
                resident.region = Region::T2;
                let size = resident.size;
                self.t1.unlink(&mut self.arena, id);
                self.t2.push_back(&mut self.arena, id);
                self.t1_bytes -= size;
                self.t2_bytes += size;
            }
            Region::T2 => {
                self.t2.move_to_back(&mut self.arena, id);
            }
        }
        true
    }
}

impl<K: CacheKey> EvictionPolicy<K> for Arc<K> {
    fn name(&self) -> String {
        "arc".to_owned()
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
        // Case II: ghost hit in B1 — recency is winning, grow p.
        if self.b1.contains(&req.key) {
            let delta = if self.b1.bytes() > 0 {
                (u128::from(req.size) * u128::from(self.b2.bytes().max(1))
                    / u128::from(self.b1.bytes())) as u64
            } else {
                req.size
            };
            self.p = (self.p + delta.max(req.size)).min(self.capacity);
            self.b1.remove(&req.key);
            self.admit_to_t2(req, evicted);
            self.trim_ghosts();
            return AccessOutcome::MissInserted;
        }
        // Case III: ghost hit in B2 — frequency is winning, shrink p.
        if self.b2.contains(&req.key) {
            let delta = if self.b2.bytes() > 0 {
                (u128::from(req.size) * u128::from(self.b1.bytes().max(1))
                    / u128::from(self.b2.bytes())) as u64
            } else {
                req.size
            };
            self.p = self.p.saturating_sub(delta.max(req.size));
            self.b2.remove(&req.key);
            self.admit_to_t2(req, evicted);
            self.trim_ghosts();
            return AccessOutcome::MissInserted;
        }
        // Case IV: brand new key — admit into T1.
        while self.used + req.size > self.capacity {
            evicted.push(self.replace().expect("byte accounting out of sync"));
        }
        let id = Self::push_node(&mut self.arena, &mut self.t1, req.key.clone());
        let resident = Resident {
            size: req.size,
            cost: req.cost,
            region: Region::T1,
            id,
        };
        if let Some(sink) = &self.sink {
            sink.record(&Self::event_for(
                PolicyEventKind::Admit,
                &req.key,
                &resident,
            ));
        }
        self.residents.insert(req.key, resident);
        self.used += req.size;
        self.t1_bytes += req.size;
        self.trim_ghosts();
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        self.on_hit(key)
    }

    fn evict_next(&mut self) -> Option<K> {
        self.replace()
    }

    fn remove(&mut self, key: &K) -> bool {
        let Some(resident) = self.residents.remove(key) else {
            return false;
        };
        self.used -= resident.size;
        match resident.region {
            Region::T1 => {
                self.t1_bytes -= resident.size;
                self.t1.unlink(&mut self.arena, resident.id);
            }
            Region::T2 => {
                self.t2_bytes -= resident.size;
                self.t2.unlink(&mut self.arena, resident.id);
            }
        }
        self.arena.remove(resident.id);
        true
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    fn queue_count(&self) -> Option<usize> {
        Some(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(c: &mut Arc, key: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = c.reference(CacheRequest::new(key, 10, 0), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn second_reference_promotes_to_t2() {
        let mut c = Arc::new(100);
        touch(&mut c, 1);
        assert_eq!(c.region_bytes(), (10, 0));
        touch(&mut c, 1);
        assert_eq!(c.region_bytes(), (0, 10));
    }

    #[test]
    fn capacity_respected_under_churn() {
        let mut c = Arc::new(55);
        let mut state = 1u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            touch(&mut c, state % 30);
            assert!(c.used_bytes() <= 55);
            let (t1, t2) = c.region_bytes();
            assert_eq!(t1 + t2, c.used_bytes());
        }
    }

    #[test]
    fn scan_does_not_flush_frequent_set() {
        let mut c = Arc::new(100);
        // Build a frequent set in T2.
        for _ in 0..5 {
            for k in 0..5 {
                touch(&mut c, k);
            }
        }
        // Scan 100 one-timers.
        for k in 1000..1100 {
            touch(&mut c, k);
        }
        let survivors = (0..5).filter(|&k| c.contains(&k)).count();
        assert!(survivors >= 3, "scan displaced the hot set: {survivors}/5");
    }

    #[test]
    fn b1_ghost_hit_grows_p() {
        let mut c = Arc::new(50);
        // Fill T1 and push keys into B1.
        for k in 0..10 {
            touch(&mut c, k);
        }
        let p_before = c.p_target();
        // Key 0 is long gone from T1 but remembered in B1.
        assert!(!c.contains(&0));
        touch(&mut c, 0);
        assert!(c.p_target() >= p_before, "B1 hit must not shrink p");
        assert!(c.contains(&0));
    }

    #[test]
    fn touch_promotes_and_evict_next_remembers_like_replace() {
        let mut c = Arc::new(100);
        touch(&mut c, 1);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert_eq!(c.region_bytes(), (0, 10));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        touch(&mut c, 2);
        // REPLACE takes T1's LRU (T1 is over its zero target) into B1, then
        // T2's into B2: the ghosts a reference-driven eviction leaves.
        assert_eq!(c.evict_next(), Some(2));
        assert!(c.b1.contains(&2) && !c.contains(&2));
        assert_eq!(c.evict_next(), Some(1));
        assert!(c.b2.contains(&1) && !c.contains(&1));
        assert_eq!((c.evict_next(), c.used_bytes()), (None, 0));
        // The B1 ghost comes back straight into T2.
        touch(&mut c, 2);
        assert_eq!(c.region_bytes(), (0, 10));
    }

    #[test]
    fn remove_from_both_regions() {
        let mut c = Arc::new(100);
        touch(&mut c, 1); // T1
        touch(&mut c, 2);
        touch(&mut c, 2); // T2
        assert!(EvictionPolicy::remove(&mut c, &1));
        assert!(EvictionPolicy::remove(&mut c, &2));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.region_bytes(), (0, 0));
        assert!(!EvictionPolicy::remove(&mut c, &1));
    }

    #[test]
    fn ghost_lists_stay_bounded() {
        let mut c = Arc::new(50);
        for k in 0..10_000 {
            touch(&mut c, k);
        }
        assert!(c.b1.bytes() + c.used_bytes() <= 50);
        assert!(c.b1.bytes() + c.b2.bytes() + c.used_bytes() <= 100);
    }

    #[test]
    fn oversized_bypasses() {
        let mut c = Arc::new(50);
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(1, 51, 0), &mut ev);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert!(c.is_empty());
    }
}
