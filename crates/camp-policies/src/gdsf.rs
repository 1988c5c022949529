//! GDSF — Greedy Dual Size *Frequency* (Cherkasova), the GDS variant
//! deployed in the Squid web proxy.
//!
//! GDSF extends GDS's priority with an access-frequency factor:
//! `H(p) = L + freq(p) · cost(p) / size(p)`. Frequently re-referenced pairs
//! climb faster, which protects hot small objects beyond what recency alone
//! gives. The CAMP paper's lineage (Greedy Dual → GDS → CAMP) makes GDSF
//! the natural "what if we also track frequency" comparison point, so it is
//! provided as an extension baseline.
//!
//! Implementation notes: same instrumented 8-ary heap and integerization
//! machinery as [`crate::gds::Gds`]; frequencies are capped to keep the
//! priority arithmetic exact.

use camp_core::arena::{Arena, EntryId};
use camp_core::hash::FoldHashMap;
use camp_core::heap::OctonaryHeap;
use camp_core::rounding::{Precision, RatioRounder};

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};

/// Frequencies beyond this no longer raise the priority (overflow guard;
/// in practice hit counts this high mean the pair is effectively pinned
/// until `L` catches up).
const MAX_FREQUENCY: u64 = 1 << 20;

#[derive(Debug)]
struct Entry<K> {
    key: K,
    size: u64,
    cost: u64,
    ratio: u64,
    frequency: u64,
}

/// The GDSF cache.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, Gdsf};
///
/// let mut gdsf = Gdsf::new(100);
/// let mut evicted = Vec::new();
/// // Two equal-cost pairs; one is hit repeatedly.
/// gdsf.reference(CacheRequest::new(1, 40, 10), &mut evicted);
/// gdsf.reference(CacheRequest::new(2, 40, 10), &mut evicted);
/// for _ in 0..5 {
///     gdsf.reference(CacheRequest::new(1, 40, 10), &mut evicted);
/// }
/// // The in-frequent pair goes first.
/// gdsf.reference(CacheRequest::new(3, 40, 10), &mut evicted);
/// assert_eq!(evicted, vec![2]);
/// assert!(gdsf.contains(&1));
/// ```
#[derive(Debug)]
pub struct Gdsf<K = u64> {
    map: FoldHashMap<K, EntryId>,
    arena: Arena<Entry<K>>,
    by_slot: Vec<Option<EntryId>>,
    heap: OctonaryHeap<u128>,
    rounder: RatioRounder,
    l: u128,
    capacity: u64,
    used: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> Gdsf<K> {
    /// Creates a GDSF cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Gdsf {
            map: FoldHashMap::default(),
            arena: Arena::new(),
            by_slot: Vec::new(),
            heap: OctonaryHeap::new(),
            rounder: RatioRounder::new(Precision::Infinite),
            l: 0,
            capacity,
            used: 0,
            sink: None,
        }
    }

    /// Builds the trace event for `entry` at the current `L`.
    fn event_for(&self, kind: PolicyEventKind, entry: &Entry<K>) -> PolicyEvent {
        PolicyEvent {
            kind,
            key_hash: key_hash(&entry.key),
            size: entry.size,
            cost: entry.cost,
            ratio: entry.ratio,
            queue: 0,
            l_value: u64::try_from(self.l).unwrap_or(u64::MAX),
        }
    }

    /// The global inflation term `L` (non-decreasing).
    #[must_use]
    pub fn l_value(&self) -> u128 {
        self.l
    }

    /// The access frequency GDSF has recorded for a resident key.
    #[must_use]
    pub fn frequency_of(&self, key: &K) -> Option<u64> {
        let id = *self.map.get(key)?;
        self.arena.get(id).map(|e| e.frequency)
    }

    /// The key with the minimum priority (the next victim), if any.
    #[must_use]
    pub fn victim(&self) -> Option<K> {
        let (idx, _) = self.heap.peek()?;
        let id = (*self.by_slot.get(idx as usize)?)?;
        self.arena.get(id).map(|e| e.key.clone())
    }

    fn priority(&self, ratio: u64, frequency: u64) -> u128 {
        self.l + u128::from(ratio) * u128::from(frequency.min(MAX_FREQUENCY))
    }

    fn track_slot(&mut self, id: EntryId) {
        let idx = id.index() as usize;
        if self.by_slot.len() <= idx {
            self.by_slot.resize(idx + 1, None);
        }
        self.by_slot[idx] = Some(id);
    }

    fn on_hit(&mut self, id: EntryId) {
        let idx = id.index();
        self.heap.remove(idx).expect("resident key has a heap node");
        if let Some((_, &min)) = self.heap.peek() {
            debug_assert!(min >= self.l);
            self.l = min;
        }
        let (ratio, frequency) = {
            let entry = self.arena.get_mut(id).expect("live entry");
            entry.frequency = entry.frequency.saturating_add(1);
            (entry.ratio, entry.frequency)
        };
        let priority = self.priority(ratio, frequency);
        self.heap.insert(idx, priority);
    }

    fn evict_one(&mut self, evicted: &mut Vec<K>) -> bool {
        let Some((idx, h)) = self.heap.pop() else {
            return false;
        };
        let id = self.by_slot[idx as usize]
            .take()
            .expect("heap id maps to a live entry");
        let entry = self.arena.remove(id).expect("live entry");
        self.map.remove(&entry.key);
        self.used -= entry.size;
        let new_l = match self.heap.peek() {
            Some((_, &min)) => min,
            None => h,
        };
        debug_assert!(new_l >= self.l);
        self.l = new_l;
        if let Some(sink) = &self.sink {
            sink.record(&self.event_for(PolicyEventKind::Evict, &entry));
        }
        evicted.push(entry.key);
        true
    }
}

impl<K: CacheKey> EvictionPolicy<K> for Gdsf<K> {
    fn name(&self) -> String {
        "gdsf".to_owned()
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
            self.on_hit(id);
            return AccessOutcome::Hit;
        }
        if req.size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        while self.used + req.size > self.capacity {
            let ok = self.evict_one(evicted);
            debug_assert!(ok, "byte accounting out of sync");
        }
        let ratio = self.rounder.rounded_ratio(req.cost, req.size);
        let h = self.priority(ratio, 1);
        let id = self.arena.insert(Entry {
            key: req.key.clone(),
            size: req.size,
            cost: req.cost,
            ratio,
            frequency: 1,
        });
        self.track_slot(id);
        self.heap.insert(id.index(), h);
        if let Some(sink) = &self.sink {
            let entry = self.arena.get(id).expect("just inserted");
            sink.record(&self.event_for(PolicyEventKind::Admit, entry));
        }
        self.map.insert(req.key, id);
        self.used += req.size;
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        let Some(&id) = self.map.get(key) else {
            return false;
        };
        self.on_hit(id);
        true
    }

    fn victim(&self) -> Option<K> {
        Gdsf::victim(self)
    }

    fn remove(&mut self, key: &K) -> bool {
        let Some(id) = self.map.remove(key) else {
            return false;
        };
        self.heap.remove(id.index());
        self.by_slot[id.index() as usize] = None;
        let entry = self.arena.remove(id).expect("live entry");
        self.used -= entry.size;
        true
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    fn trace_sink(&self) -> Option<&SharedTraceSink> {
        self.sink.as_ref()
    }

    fn eviction_event(&self, key: &K) -> Option<PolicyEvent> {
        let entry = self.arena.get(*self.map.get(key)?)?;
        Some(self.event_for(PolicyEventKind::Evict, entry))
    }

    fn heap_node_visits(&self) -> Option<u64> {
        Some(self.heap.node_visits())
    }

    fn heap_update_ops(&self) -> Option<u64> {
        Some(self.heap.update_ops())
    }

    fn reset_instrumentation(&mut self) {
        self.heap.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(c: &mut Gdsf, key: u64, size: u64, cost: u64) -> (AccessOutcome, Vec<u64>) {
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(key, size, cost), &mut ev);
        (out, ev)
    }

    #[test]
    fn frequency_raises_priority() {
        let mut c = Gdsf::new(120);
        touch(&mut c, 1, 40, 10);
        touch(&mut c, 2, 40, 10);
        touch(&mut c, 3, 40, 10);
        for _ in 0..4 {
            touch(&mut c, 1, 40, 10);
        }
        assert_eq!(c.frequency_of(&1), Some(5));
        // 2 and 3 are single-hit: one of them (LRU-arbitrary under ties)
        // goes before 1 does.
        let (_, ev) = touch(&mut c, 4, 40, 10);
        assert_eq!(ev.len(), 1);
        assert_ne!(ev[0], 1, "the frequent pair must survive");
    }

    #[test]
    fn still_respects_cost() {
        let mut c = Gdsf::new(120);
        touch(&mut c, 1, 40, 10_000); // expensive, referenced once
        touch(&mut c, 2, 40, 1);
        touch(&mut c, 3, 40, 1);
        let (_, ev) = touch(&mut c, 4, 40, 1);
        assert_eq!(ev, vec![2], "cheap unreferenced pair goes first");
        assert!(c.contains(&1));
    }

    #[test]
    fn l_is_non_decreasing() {
        let mut c = Gdsf::new(200);
        let mut last = 0u128;
        let mut state = 3u64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            touch(&mut c, state % 40, 10 + state % 20, 1 + state % 500);
            assert!(c.l_value() >= last);
            last = c.l_value();
        }
    }

    #[test]
    fn capacity_respected_and_remove_works() {
        let mut c = Gdsf::new(100);
        for k in 0..50 {
            touch(&mut c, k, 10, 5);
            assert!(c.used_bytes() <= 100);
        }
        let resident: Vec<u64> = (0..50).filter(|&k| c.contains(&k)).collect();
        assert_eq!(resident.len(), 10);
        assert!(EvictionPolicy::remove(&mut c, &resident[0]));
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn touch_bumps_frequency() {
        let mut c = Gdsf::new(120);
        touch(&mut c, 1, 40, 10);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        assert_eq!(c.frequency_of(&1), Some(3));
    }

    #[test]
    fn victim_is_minimum_priority() {
        let mut c = Gdsf::new(120);
        touch(&mut c, 1, 40, 100);
        touch(&mut c, 2, 40, 1);
        touch(&mut c, 3, 40, 50);
        assert_eq!(c.victim(), Some(2));
    }

    #[test]
    fn oversized_bypasses() {
        let mut c = Gdsf::new(100);
        let (out, _) = touch(&mut c, 1, 101, 5);
        assert_eq!(out, AccessOutcome::MissBypassed);
    }
}
