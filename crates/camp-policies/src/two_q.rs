//! 2Q (Johnson & Shasha, VLDB'94).
//!
//! The low-overhead scan-resistant policy from the paper's related work
//! (§5). 2Q admits first-time keys into a small FIFO probation queue
//! (`A1in`); only keys re-referenced *after* leaving probation — their key
//! is remembered in the ghost queue `A1out` — graduate into the main LRU
//! region (`Am`). One-timer scans therefore wash through `A1in` without
//! disturbing `Am`.
//!
//! This implementation generalizes the page-based original to byte
//! accounting: `A1in` is capped at `KIN` (default 25%) of the capacity and
//! `A1out` remembers up to `KOUT` (default 50%) of the capacity's worth of
//! evicted bytes, as recommended in the original paper.

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
    A1In,
    Am,
}

impl Region {
    /// Queue index reported in trace events: 0 = probation, 1 = main.
    fn queue_index(self) -> u32 {
        match self {
            Region::A1In => 0,
            Region::Am => 1,
        }
    }
}

#[derive(Debug)]
struct Resident {
    size: u64,
    /// Retained for trace events only; 2Q ignores cost when evicting.
    cost: u64,
    region: Region,
    /// Arena handle of the Am list node, when region is Am.
    am_id: Option<EntryId>,
}

#[derive(Debug)]
struct AmNode<K> {
    key: K,
    links: Links,
}

impl<K> Linked for AmNode<K> {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// The 2Q replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, TwoQ};
///
/// let mut cache = TwoQ::new(100);
/// let mut evicted = Vec::new();
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// assert!(cache.contains(&1)); // in probation (A1in)
/// ```
#[derive(Debug)]
pub struct TwoQ<K = u64> {
    capacity: u64,
    kin: u64,
    kout: u64,
    used: u64,
    a1in_bytes: u64,
    residents: FoldHashMap<K, Resident>,
    a1in: VecDeque<K>,
    am: LruList,
    am_arena: Arena<AmNode<K>>,
    a1out: VecDeque<(K, u64)>, // (key, size)
    a1out_set: FoldHashMap<K, u64>,
    a1out_bytes: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> TwoQ<K> {
    /// Creates a 2Q cache with the recommended 25%/50% `Kin`/`Kout` split.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        TwoQ::with_thresholds(capacity, capacity / 4, capacity / 2)
    }

    /// Creates a 2Q cache with explicit probation (`kin`) and ghost
    /// (`kout`) byte thresholds.
    #[must_use]
    pub fn with_thresholds(capacity: u64, kin: u64, kout: u64) -> Self {
        TwoQ {
            capacity,
            kin,
            kout,
            used: 0,
            a1in_bytes: 0,
            residents: FoldHashMap::default(),
            a1in: VecDeque::new(),
            am: LruList::new(),
            am_arena: Arena::new(),
            a1out: VecDeque::new(),
            a1out_set: FoldHashMap::default(),
            a1out_bytes: 0,
            sink: None,
        }
    }

    /// Builds the trace event for a resident (queue 0 = A1in, 1 = Am).
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

    /// Bytes currently in the probation queue.
    #[must_use]
    pub fn a1in_bytes(&self) -> u64 {
        self.a1in_bytes
    }

    /// Number of keys remembered in the ghost queue.
    #[must_use]
    pub fn a1out_len(&self) -> usize {
        self.a1out_set.len()
    }

    fn push_ghost(&mut self, key: K, size: u64) {
        if self.a1out_set.insert(key.clone(), size).is_none() {
            self.a1out.push_back((key, size));
            self.a1out_bytes += size;
        }
        while self.a1out_bytes > self.kout {
            let Some((old, old_size)) = self.a1out.pop_front() else {
                break;
            };
            // Lazy deletion: only count entries still in the set.
            if self.a1out_set.remove(&old).is_some() {
                self.a1out_bytes -= old_size;
            }
        }
    }

    /// Whether the next reclaim drains the probation FIFO (the 2Q
    /// `reclaimfor` choice).
    fn reclaim_from_a1in(&self) -> bool {
        self.a1in_bytes > self.kin || self.am.is_empty()
    }

    /// Frees one resident entry, preferring the probation FIFO when it is
    /// over its threshold (the 2Q `reclaimfor` routine).
    fn reclaim_one(&mut self, evicted: &mut Vec<K>) -> bool {
        let key = if self.reclaim_from_a1in() {
            self.a1in.pop_front()
        } else {
            self.am
                .pop_front(&mut self.am_arena)
                .and_then(|id| self.am_arena.remove(id))
                .map(|node| node.key)
        };
        let Some(key) = key else { return false };
        let resident = self.residents.remove(&key).expect("queued key is resident");
        self.used -= resident.size;
        if let Some(sink) = &self.sink {
            sink.record(&Self::event_for(PolicyEventKind::Evict, &key, &resident));
        }
        if resident.region == Region::A1In {
            self.a1in_bytes -= resident.size;
            // Only probation evictions are remembered: a re-reference soon
            // after proves the key deserves Am.
            self.push_ghost(key.clone(), resident.size);
        }
        evicted.push(key);
        true
    }

    fn push_am(&mut self, key: K) -> EntryId {
        let id = self.am_arena.insert(AmNode {
            key,
            links: Links::new(),
        });
        self.am.push_back(&mut self.am_arena, id);
        id
    }

    fn on_hit(&mut self, key: &K) -> bool {
        let Some(resident) = self.residents.get(key) else {
            return false;
        };
        match resident.region {
            Region::Am => {
                // LRU refresh within Am, O(1) on the intrusive list.
                let id = resident.am_id.expect("Am resident has a node");
                self.am.move_to_back(&mut self.am_arena, id);
            }
            Region::A1In => {
                // The original 2Q leaves A1in references in place (FIFO).
            }
        }
        true
    }
}

impl<K: CacheKey> EvictionPolicy<K> for TwoQ<K> {
    fn name(&self) -> String {
        "2q".to_owned()
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
        let remembered = self.a1out_set.remove(&req.key).is_some();
        while self.used + req.size > self.capacity {
            let ok = self.reclaim_one(evicted);
            debug_assert!(ok, "byte accounting out of sync");
        }
        let region = if remembered { Region::Am } else { Region::A1In };
        let am_id = match region {
            Region::Am => Some(self.push_am(req.key.clone())),
            Region::A1In => {
                self.a1in.push_back(req.key.clone());
                self.a1in_bytes += req.size;
                None
            }
        };
        let resident = Resident {
            size: req.size,
            cost: req.cost,
            region,
            am_id,
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
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        self.on_hit(key)
    }

    fn victim(&self) -> Option<K> {
        if self.reclaim_from_a1in() {
            if let Some(key) = self.a1in.front() {
                return Some(key.clone());
            }
        }
        self.am
            .front()
            .and_then(|id| self.am_arena.get(id))
            .map(|node| node.key.clone())
            .or_else(|| self.a1in.front().cloned())
    }

    fn remove(&mut self, key: &K) -> bool {
        let Some(resident) = self.residents.remove(key) else {
            return false;
        };
        self.used -= resident.size;
        match resident.region {
            Region::Am => {
                let id = resident.am_id.expect("Am resident has a node");
                self.am.unlink(&mut self.am_arena, id);
                self.am_arena.remove(id);
            }
            Region::A1In => {
                if let Some(pos) = self.a1in.iter().position(|k| k == key) {
                    self.a1in.remove(pos);
                }
                self.a1in_bytes -= resident.size;
            }
        }
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
        Some(Self::event_for(PolicyEventKind::Evict, key, resident))
    }

    fn queue_count(&self) -> Option<usize> {
        Some(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(c: &mut TwoQ, key: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = c.reference(CacheRequest::new(key, 10, 0), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn first_timers_enter_probation() {
        let mut c = TwoQ::new(100);
        touch(&mut c, 1);
        assert!(c.contains(&1));
        assert_eq!(c.a1in_bytes(), 10);
    }

    #[test]
    fn ghost_re_reference_promotes_to_am() {
        let mut c = TwoQ::with_thresholds(40, 10, 40);
        touch(&mut c, 1);
        // Push 1 out of the small probation region.
        touch(&mut c, 2);
        touch(&mut c, 3);
        touch(&mut c, 4);
        touch(&mut c, 5);
        assert!(!c.contains(&1), "1 should have left probation");
        assert!(c.a1out_len() > 0);
        // Re-reference: 1 is remembered and admitted straight into Am.
        let (out, _) = touch(&mut c, 1);
        assert_eq!(out, AccessOutcome::MissInserted);
        // A following scan of one-timers cannot push 1 out while probation
        // is over threshold.
        for k in 10..14 {
            touch(&mut c, k);
        }
        assert!(c.contains(&1), "Am member displaced by scan");
    }

    #[test]
    fn scans_wash_through_probation() {
        let mut c = TwoQ::with_thresholds(100, 25, 50);
        // Build a hot Am set.
        for k in [1u64, 2] {
            touch(&mut c, k);
        }
        for _ in 0..3 {
            for k in 0..10u64 {
                touch(&mut c, 100 + k);
            }
        }
        // Promote 1 and 2 via ghost hits.
        touch(&mut c, 1);
        touch(&mut c, 2);
        // Long one-timer scan.
        for k in 0..40u64 {
            touch(&mut c, 1000 + k);
        }
        assert!(
            c.contains(&1) && c.contains(&2),
            "scan displaced the hot set"
        );
    }

    #[test]
    fn capacity_respected() {
        let mut c = TwoQ::new(55);
        for k in 0..50 {
            touch(&mut c, k);
            assert!(c.used_bytes() <= 55);
        }
    }

    #[test]
    fn victim_matches_next_reclaim() {
        let mut c = TwoQ::with_thresholds(40, 10, 40);
        for k in 1..=4 {
            touch(&mut c, k);
        }
        // The cache is full and probation is over its 10-byte threshold;
        // the probation FIFO head is the advertised and actual victim.
        let expected = EvictionPolicy::victim(&c);
        assert_eq!(expected, Some(1));
        let (_, ev) = touch(&mut c, 5);
        assert_eq!(expected, ev.first().copied());
    }

    #[test]
    fn remove_from_both_regions() {
        let mut c = TwoQ::with_thresholds(60, 20, 40);
        touch(&mut c, 1);
        assert!(EvictionPolicy::remove(&mut c, &1));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.a1in_bytes(), 0);
        assert!(!EvictionPolicy::remove(&mut c, &1));
    }

    #[test]
    fn oversized_bypasses() {
        let mut c = TwoQ::new(50);
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(1, 51, 0), &mut ev);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert!(c.is_empty());
    }
}
