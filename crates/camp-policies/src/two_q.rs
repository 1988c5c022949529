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
use camp_core::lru_list::LruList;

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};
use crate::util::{push_key, KeyNode};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    A1In,
    Am,
}

#[derive(Debug)]
struct Resident<V> {
    size: u64,
    /// Retained for trace events only; 2Q ignores cost when evicting.
    cost: u64,
    region: Region,
    /// The key's node on its region's list.
    id: EntryId,
    value: V,
}

impl<V> Resident<V> {
    /// The trace event for this resident (queue 0 = A1in, 1 = Am).
    fn event(&self, kind: PolicyEventKind, key: &impl CacheKey) -> PolicyEvent {
        PolicyEvent {
            queue: match self.region {
                Region::A1In => 0,
                Region::Am => 1,
            },
            ..PolicyEvent::basic(kind, key_hash(key), self.size, self.cost)
        }
    }
}

/// The 2Q replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, TwoQ};
///
/// let mut cache: TwoQ = TwoQ::new(100);
/// let mut evicted = Vec::new();
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// assert!(cache.contains(&1)); // in probation (A1in)
/// ```
#[derive(Debug)]
pub struct TwoQ<K = u64, V = ()> {
    capacity: u64,
    kin: u64,
    kout: u64,
    used: u64,
    a1in_bytes: u64,
    residents: FoldHashMap<K, Resident<V>>,
    /// Probation, a FIFO: admitted at the back, reclaimed from the front,
    /// never moved by a hit — and, being a list, unlinked in O(1).
    a1in: LruList,
    am: LruList,
    arena: Arena<KeyNode<K>>,
    a1out: VecDeque<(K, u64)>, // (key, size)
    a1out_set: FoldHashMap<K, u64>,
    a1out_bytes: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey, V> TwoQ<K, V> {
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
            a1in: LruList::new(),
            am: LruList::new(),
            arena: Arena::new(),
            a1out: VecDeque::new(),
            a1out_set: FoldHashMap::default(),
            a1out_bytes: 0,
            sink: None,
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
}

impl<K: CacheKey, V> EvictionPolicy<K, V> for TwoQ<K, V> {
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

    fn get(&mut self, key: &K) -> Option<&V> {
        let resident = self.residents.get(key)?;
        // An Am hit is an LRU refresh; the original 2Q leaves A1in
        // references in place (FIFO).
        if resident.region == Region::Am {
            self.am.move_to_back(&mut self.arena, resident.id);
        }
        Some(&resident.value)
    }

    fn peek(&self, key: &K) -> Option<&V> {
        self.residents.get(key).map(|resident| &resident.value)
    }

    fn admit(
        &mut self,
        key: K,
        value: V,
        size: u64,
        cost: u64,
        evicted: &mut dyn FnMut(K, V),
    ) -> AccessOutcome {
        if size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        let remembered = self.a1out_set.remove(&key).is_some();
        while self.used + size > self.capacity {
            let (gone, value) = self.evict().expect("byte accounting out of sync");
            evicted(gone, value);
        }
        let (region, list) = if remembered {
            (Region::Am, &mut self.am)
        } else {
            self.a1in_bytes += size;
            (Region::A1In, &mut self.a1in)
        };
        let id = push_key(&mut self.arena, list, key.clone());
        let resident = Resident {
            size,
            cost,
            region,
            id,
            value,
        };
        if let Some(sink) = &self.sink {
            sink.record(&resident.event(PolicyEventKind::Admit, &key));
        }
        self.residents.insert(key, resident);
        self.used += size;
        AccessOutcome::MissInserted
    }

    fn take(&mut self, key: &K) -> Option<V> {
        let resident = self.residents.remove(key)?;
        self.used -= resident.size;
        let list = match resident.region {
            Region::Am => &mut self.am,
            Region::A1In => {
                self.a1in_bytes -= resident.size;
                &mut self.a1in
            }
        };
        list.unlink(&mut self.arena, resident.id);
        self.arena.remove(resident.id);
        Some(resident.value)
    }

    /// Frees one resident entry, preferring the probation FIFO when it is
    /// over its threshold (the 2Q `reclaimfor` routine).
    fn evict(&mut self) -> Option<(K, V)> {
        let list = if self.a1in_bytes > self.kin || self.am.is_empty() {
            &mut self.a1in
        } else {
            &mut self.am
        };
        let id = list.pop_front(&mut self.arena)?;
        let key = self.arena.remove(id).expect("live list node").key;
        let resident = self.residents.remove(&key).expect("queued key is resident");
        self.used -= resident.size;
        if let Some(sink) = &self.sink {
            sink.record(&resident.event(PolicyEventKind::Evict, &key));
        }
        if resident.region == Region::A1In {
            self.a1in_bytes -= resident.size;
            // Only probation evictions are remembered: a re-reference soon
            // after proves the key deserves Am.
            self.push_ghost(key.clone(), resident.size);
        }
        Some((key, resident.value))
    }

    fn for_each(&self, f: &mut dyn FnMut(&K, &V)) {
        for (key, resident) in &self.residents {
            f(key, &resident.value);
        }
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
    use crate::policy::CacheRequest;

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
    fn evict_next_remembers_probation_victims_like_a_reclaim() {
        let mut c = TwoQ::with_thresholds(40, 10, 40);
        for k in 1..=4 {
            touch(&mut c, k);
        }
        // Probation is over its 10-byte threshold: its FIFO head goes, and
        // A1out remembers it as after a reference-driven reclaim.
        assert_eq!(c.evict_next(), Some(1));
        assert!(!c.contains(&1));
        assert_eq!(c.a1out_len(), 1);
        // So the next reference admits 1 straight into Am.
        touch(&mut c, 1);
        assert_eq!(c.residents.get(&1).map(|r| r.region), Some(Region::Am));
        assert_eq!(c.a1in_bytes(), 30);
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
        let mut c: TwoQ = TwoQ::new(50);
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(1, 51, 0), &mut ev);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert!(c.is_empty());
    }
}
