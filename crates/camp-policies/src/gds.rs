//! Exact Greedy Dual Size (GDS): the algorithm CAMP approximates.
//!
//! GDS (Cao & Irani) keeps one priority-queue node *per cached pair* and
//! updates the heap on every hit, so each operation costs `O(log n)` in the
//! number of resident pairs (paper Algorithm 1 and Figure 1a). This
//! implementation uses the same instrumented 8-ary heap as CAMP, keyed by
//! entry instead of by queue, which makes the Figure 4 comparison of visited
//! heap nodes a controlled experiment: the only variable is *what the heap
//! indexes*.
//!
//! Cost-to-size ratios are integerized with the same adaptive multiplier as
//! CAMP. By default no rounding is applied ([`Precision::Infinite`]) — the
//! paper's "∞" configuration — but a precision can be supplied to study the
//! rounding in isolation from CAMP's queue structure.

use camp_core::arena::{Arena, EntryId};
use camp_core::hash::FoldHashMap;
use camp_core::heap::OctonaryHeap;
use camp_core::rounding::{Precision, RatioRounder};

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};

#[derive(Debug)]
struct Entry<K> {
    key: K,
    size: u64,
    cost: u64,
    ratio: u64,
}

/// The Greedy Dual Size cache.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, Gds};
///
/// let mut gds = Gds::new(100);
/// let mut evicted = Vec::new();
/// gds.reference(CacheRequest::new(1, 50, 10_000), &mut evicted); // expensive
/// gds.reference(CacheRequest::new(2, 50, 1), &mut evicted);      // cheap
/// gds.reference(CacheRequest::new(3, 50, 1), &mut evicted);
/// // The cheap pair went first.
/// assert_eq!(evicted, vec![2]);
/// assert!(gds.contains(&1));
/// ```
#[derive(Debug)]
pub struct Gds<K = u64> {
    map: FoldHashMap<K, EntryId>,
    arena: Arena<Entry<K>>,
    /// Heap ids are arena slot indices; this table resolves them back to
    /// generation-checked handles in O(1).
    by_slot: Vec<Option<EntryId>>,
    heap: OctonaryHeap<u128>,
    rounder: RatioRounder,
    l: u128,
    capacity: u64,
    used: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> Gds<K> {
    /// Creates a GDS cache with exact (unrounded) integerized ratios.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Gds::with_precision(capacity, Precision::Infinite)
    }

    /// Creates a GDS cache that rounds ratios to `precision` — useful for
    /// isolating the effect of rounding from CAMP's queue structure.
    #[must_use]
    pub fn with_precision(capacity: u64, precision: Precision) -> Self {
        Gds {
            map: FoldHashMap::default(),
            arena: Arena::new(),
            by_slot: Vec::new(),
            heap: OctonaryHeap::new(),
            rounder: RatioRounder::new(precision),
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

    /// The key with the minimum priority (the next victim), if any.
    #[must_use]
    pub fn victim(&self) -> Option<K> {
        let (idx, _) = self.heap.peek()?;
        self.entry_by_heap_id(idx).map(|e| e.key.clone())
    }

    /// The current priority of a resident key.
    #[must_use]
    pub fn priority_of(&self, key: &K) -> Option<u128> {
        let id = *self.map.get(key)?;
        self.heap.key_of(id.index()).copied()
    }

    fn entry_by_heap_id(&self, idx: u32) -> Option<&Entry<K>> {
        let id = (*self.by_slot.get(idx as usize)?)?;
        self.arena.get(id)
    }

    fn track_slot(&mut self, id: EntryId) {
        let idx = id.index() as usize;
        if self.by_slot.len() <= idx {
            self.by_slot.resize(idx + 1, None);
        }
        self.by_slot[idx] = Some(id);
    }

    fn on_hit(&mut self, id: EntryId) {
        // Hit: Algorithm 1 line 2 — L <- min_{q in M \ {p}} H(q), then
        // H(p) <- L + ratio(p). Removing p first makes the heap minimum
        // exactly that excluded minimum.
        let idx = id.index();
        self.heap.remove(idx).expect("resident key has a heap node");
        if let Some((_, &min)) = self.heap.peek() {
            debug_assert!(min >= self.l);
            self.l = min;
        }
        let ratio = self.arena.get(id).expect("live entry").ratio;
        self.heap.insert(idx, self.l + u128::from(ratio));
    }

    /// Removes `key` from every structure, handing back its entry.
    fn detach(&mut self, key: &K) -> Option<Entry<K>> {
        let id = self.map.remove(key)?;
        self.heap.remove(id.index());
        self.by_slot[id.index() as usize] = None;
        let entry = self.arena.remove(id).expect("live entry");
        self.used -= entry.size;
        Some(entry)
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
        // Algorithm 1 line 6: L <- min over the remaining pairs.
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

impl<K: CacheKey> EvictionPolicy<K> for Gds<K> {
    fn name(&self) -> String {
        match self.rounder.precision() {
            Precision::Infinite => "gds".to_owned(),
            p => format!("gds(p={p})"),
        }
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
        let h = self.l + u128::from(ratio);
        let id = self.arena.insert(Entry {
            key: req.key.clone(),
            size: req.size,
            cost: req.cost,
            ratio,
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
        Gds::victim(self)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.detach(key).is_some()
    }

    fn evict(&mut self, key: &K) -> bool {
        let Some(entry) = self.detach(key) else {
            return false;
        };
        if let Some(sink) = &self.sink {
            sink.record(&self.event_for(PolicyEventKind::Evict, &entry));
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
        let entry = self.arena.get(*self.map.get(key)?)?;
        Some(self.event_for(PolicyEventKind::Evict, entry))
    }

    fn queue_count(&self) -> Option<usize> {
        // GDS has no queues; its heap has one node per resident pair.
        None
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

    fn touch(gds: &mut Gds, key: u64, size: u64, cost: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = gds.reference(CacheRequest::new(key, size, cost), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn prefers_to_keep_high_ratio_pairs() {
        let mut gds = Gds::new(100);
        touch(&mut gds, 1, 10, 10_000);
        for k in 2..=30 {
            touch(&mut gds, k, 10, 1);
        }
        assert!(gds.contains(&1));
    }

    #[test]
    fn aged_expensive_pairs_fall_to_l_inflation() {
        let mut gds = Gds::new(100);
        touch(&mut gds, 999, 10, 500);
        let mut key = 1000;
        for _ in 0..10_000 {
            key += 1;
            touch(&mut gds, key, 10, 1);
            if !gds.contains(&999) {
                return;
            }
        }
        panic!("expensive pair never aged out under GDS");
    }

    #[test]
    fn hit_raises_priority() {
        let mut gds = Gds::new(100);
        touch(&mut gds, 1, 10, 100);
        touch(&mut gds, 2, 10, 100);
        let p1_before = gds.priority_of(&1).unwrap();
        // Advance L by churning evictions.
        for k in 10..40 {
            touch(&mut gds, k, 10, 1);
        }
        let (out, _) = touch(&mut gds, 1, 10, 100);
        assert_eq!(out, AccessOutcome::Hit);
        assert!(gds.priority_of(&1).unwrap() >= p1_before);
    }

    #[test]
    fn l_is_non_decreasing() {
        let mut gds = Gds::new(200);
        let mut last = 0u128;
        let mut state = 99u64;
        for _ in 0..5000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 60;
            let cost = [1u64, 100, 10_000][(state % 3) as usize];
            touch(&mut gds, key, 10 + state % 20, cost);
            assert!(gds.l_value() >= last);
            last = gds.l_value();
        }
    }

    #[test]
    fn victim_is_minimum_priority() {
        let mut gds = Gds::new(30);
        touch(&mut gds, 1, 10, 100);
        touch(&mut gds, 2, 10, 1);
        touch(&mut gds, 3, 10, 50);
        assert_eq!(gds.victim(), Some(2));
        let (_, ev) = touch(&mut gds, 4, 10, 200);
        assert_eq!(ev, vec![2]);
    }

    #[test]
    fn policy_touch_matches_hit_path() {
        let mut gds = Gds::new(30);
        touch(&mut gds, 1, 10, 1);
        touch(&mut gds, 2, 10, 100);
        touch(&mut gds, 3, 10, 50);
        // Touching the cheapest raises its priority past key 3's.
        assert!(EvictionPolicy::touch(&mut gds, &1));
        assert!(!EvictionPolicy::touch(&mut gds, &9));
        let (_, ev) = touch(&mut gds, 4, 10, 200);
        assert_eq!(ev, vec![3]);
    }

    #[test]
    fn remove_and_reject() {
        let mut gds = Gds::new(30);
        touch(&mut gds, 1, 10, 1);
        assert!(EvictionPolicy::remove(&mut gds, &1));
        assert!(!EvictionPolicy::remove(&mut gds, &1));
        assert_eq!(gds.used_bytes(), 0);
        let (out, _) = touch(&mut gds, 2, 31, 1);
        assert_eq!(out, AccessOutcome::MissBypassed);
    }

    #[test]
    fn heap_visits_are_instrumented() {
        let mut gds = Gds::new(1000);
        for k in 0..100 {
            touch(&mut gds, k, 10, k + 1);
        }
        assert!(gds.heap_node_visits().unwrap() > 0);
        gds.reset_instrumentation();
        assert_eq!(gds.heap_node_visits(), Some(0));
    }
}
