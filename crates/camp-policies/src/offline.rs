//! Clairvoyant offline replacement: Belady's MIN, size-aware.
//!
//! Not part of the paper's evaluation, but invaluable for harness
//! validation: MIN knows the entire request sequence in advance and evicts
//! the resident pair whose next reference is farthest in the future. Its
//! miss rate lower-bounds every online policy on uniform-cost workloads, so
//! the simulator's integration tests assert `MIN <= {CAMP, LRU, GDS, …}`.
//!
//! For variable sizes this greedy next-use rule is no longer strictly
//! optimal (optimal variable-size caching is NP-hard), but it remains the
//! standard reference bound.

use camp_core::hash::FoldHashMap;
use camp_core::heap::OctonaryHeap;

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};
use crate::util::IdAllocator;

/// The MIN policy. Construct it from the exact key sequence it will be
/// driven with; [`EvictionPolicy::reference`] must then be called once per
/// trace row, in order. Each `get` (so each `reference` or `touch`)
/// consumes one row.
///
/// # Examples
///
/// ```
/// use camp_policies::{BeladyMin, CacheRequest, EvictionPolicy};
///
/// let keys = [1u64, 2, 3, 1, 2, 3];
/// let mut min = BeladyMin::from_keys(20, &keys);
/// let mut evicted = Vec::new();
/// for &k in &keys {
///     min.reference(CacheRequest::new(k, 10, 0), &mut evicted);
/// }
/// // With room for 2 of 3 keys and a cyclic pattern, MIN still hits:
/// // it always keeps the sooner-referenced key.
/// assert!(min.len() <= 2);
/// ```
#[derive(Debug)]
pub struct BeladyMin<K = u64> {
    capacity: u64,
    used: u64,
    clock: usize,
    /// `next_use[i]` = index of the next reference of the key referenced at
    /// trace position `i` (usize::MAX when never referenced again).
    next_use: Vec<usize>,
    expected: Vec<K>,
    residents: FoldHashMap<K, (u32, u64, u64)>, // key -> (heap id, size, cost)
    by_heap_id: FoldHashMap<u32, K>,
    /// Max-heap on next use, expressed as a min-heap on the complement.
    heap: OctonaryHeap<u64>,
    ids: IdAllocator,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> BeladyMin<K> {
    /// Builds MIN for the given capacity and key sequence.
    #[must_use]
    pub fn from_keys(capacity: u64, keys: &[K]) -> Self {
        let mut next_use = vec![usize::MAX; keys.len()];
        let mut last_seen: FoldHashMap<&K, usize> = FoldHashMap::default();
        for (i, key) in keys.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(key) {
                next_use[i] = later;
            }
            last_seen.insert(key, i);
        }
        BeladyMin {
            capacity,
            used: 0,
            clock: 0,
            next_use,
            expected: keys.to_vec(),
            residents: FoldHashMap::default(),
            by_heap_id: FoldHashMap::default(),
            heap: OctonaryHeap::new(),
            ids: IdAllocator::default(),
            sink: None,
        }
    }

    /// How many trace rows have been consumed so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.clock
    }

    fn heap_key(next: usize) -> u64 {
        // Farthest next use = smallest heap key.
        u64::MAX - next as u64
    }
}

impl<K: CacheKey> EvictionPolicy<K> for BeladyMin<K> {
    fn name(&self) -> String {
        "belady-min".to_owned()
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

    /// Consumes the next trace row, which must reference `key`, and
    /// re-prices a resident `key` by its next use: MIN is driven by trace
    /// position, so each lookup — [`EvictionPolicy::reference`]'s hit path
    /// — is one row.
    ///
    /// # Panics
    ///
    /// Panics if called more times than the trace has rows, or with a key
    /// that differs from the trace row at this position.
    fn get(&mut self, key: &K) -> Option<&()> {
        assert!(
            self.clock < self.expected.len(),
            "BeladyMin driven past the end of its trace"
        );
        assert_eq!(
            self.expected[self.clock], *key,
            "BeladyMin must be driven with its construction trace, in order"
        );
        let next = self.next_use[self.clock];
        self.clock += 1;
        let &(heap_id, _, _) = self.residents.get(key)?;
        self.heap.update(heap_id, Self::heap_key(next));
        Some(&())
    }

    fn peek(&self, key: &K) -> Option<&()> {
        self.residents.contains_key(key).then_some(&())
    }

    /// Admits `key` as the miss of the trace row consumed last: its next
    /// use is that row's, and a pair never referenced again is bypassed.
    fn admit(
        &mut self,
        key: K,
        (): (),
        size: u64,
        cost: u64,
        evicted: &mut dyn FnMut(K, ()),
    ) -> AccessOutcome {
        let next = self
            .clock
            .checked_sub(1)
            .map_or(usize::MAX, |row| self.next_use[row]);
        // A pair that does not fit, or is never referenced again (inserting
        // it can only cause damage), stays out.
        if size > self.capacity || next == usize::MAX {
            return AccessOutcome::MissBypassed;
        }
        while self.used + size > self.capacity {
            let (gone, ()) = self.evict().expect("byte accounting out of sync");
            evicted(gone, ());
        }
        let heap_id = self.ids.allocate();
        self.heap.insert(heap_id, Self::heap_key(next));
        self.by_heap_id.insert(heap_id, key.clone());
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Admit,
                key_hash(&key),
                size,
                cost,
            ));
        }
        self.residents.insert(key, (heap_id, size, cost));
        self.used += size;
        AccessOutcome::MissInserted
    }

    fn take(&mut self, key: &K) -> Option<()> {
        let (heap_id, size, _) = self.residents.remove(key)?;
        self.heap.remove(heap_id);
        self.by_heap_id.remove(&heap_id);
        self.ids.release(heap_id);
        self.used -= size;
        Some(())
    }

    fn evict(&mut self) -> Option<(K, ())> {
        let (heap_id, _) = self.heap.pop()?;
        let key = self
            .by_heap_id
            .remove(&heap_id)
            .expect("heap id maps to a resident");
        let (_, size, cost) = self.residents.remove(&key).expect("resident entry");
        self.used -= size;
        self.ids.release(heap_id);
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent::basic(
                PolicyEventKind::Evict,
                key_hash(&key),
                size,
                cost,
            ));
        }
        Some((key, ()))
    }

    fn for_each(&self, f: &mut dyn FnMut(&K, &())) {
        for key in self.residents.keys() {
            f(key, &());
        }
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CacheRequest;

    fn run(capacity: u64, keys: &[u64]) -> (usize, usize) {
        let mut min = BeladyMin::from_keys(capacity, keys);
        let mut evicted = Vec::new();
        let mut hits = 0;
        let mut misses = 0;
        for &k in keys {
            match min.reference(CacheRequest::new(k, 10, 0), &mut evicted) {
                AccessOutcome::Hit => hits += 1,
                _ => misses += 1,
            }
        }
        (hits, misses)
    }

    #[test]
    fn textbook_belady_example() {
        // Room for 2 items; MIN keeps the one referenced sooner.
        let keys = [1u64, 2, 3, 1, 2, 1, 2];
        let (hits, misses) = run(20, &keys);
        // 1,2 miss; 3 misses (bypassed: never used again after pos 2? no,
        // 3 is never referenced again, so it is bypassed); 1,2,1,2 all hit.
        assert_eq!(hits, 4);
        assert_eq!(misses, 3);
    }

    #[test]
    fn min_beats_lru_on_looping_pattern() {
        use crate::lru::Lru;
        // A loop of N+1 keys over a cache of N is LRU's worst case.
        let keys: Vec<u64> = (0..4u64).cycle().take(100).collect();
        let (min_hits, _) = run(30, &keys);
        let mut lru = Lru::new(30);
        let mut lru_hits = 0;
        let mut ev = Vec::new();
        for &k in &keys {
            if lru.reference(CacheRequest::new(k, 10, 0), &mut ev) == AccessOutcome::Hit {
                lru_hits += 1;
            }
        }
        assert_eq!(lru_hits, 0, "LRU must thrash on the loop");
        assert!(min_hits > 50, "MIN should hit most of the loop: {min_hits}");
    }

    #[test]
    fn never_again_keys_are_bypassed() {
        let keys = [1u64, 2, 3, 4, 5];
        let mut min = BeladyMin::from_keys(30, &keys);
        let mut ev = Vec::new();
        for &k in &keys {
            let out = min.reference(CacheRequest::new(k, 10, 0), &mut ev);
            assert_eq!(out, AccessOutcome::MissBypassed);
        }
        assert!(min.is_empty());
    }

    #[test]
    #[should_panic(expected = "construction trace")]
    fn wrong_key_order_panics() {
        let mut min = BeladyMin::from_keys(30, &[1, 2]);
        let mut ev = Vec::new();
        min.reference(CacheRequest::new(2, 10, 0), &mut ev);
    }

    #[test]
    fn capacity_respected() {
        let keys: Vec<u64> = (0..10u64).cycle().take(200).collect();
        let mut min = BeladyMin::from_keys(45, &keys);
        let mut ev = Vec::new();
        for &k in &keys {
            min.reference(CacheRequest::new(k, 10, 0), &mut ev);
            assert!(min.used_bytes() <= 45);
        }
    }
}
