//! CAMP: Cost Adaptive Multi-queue eviction Policy.
//!
//! CAMP approximates Greedy Dual Size (GDS) with LRU-grade constant-factor
//! overheads (paper §2). Every cached key-value pair `p` has a priority
//! `H(p) = L + ratio(p)`, where `L` is a global, non-decreasing inflation
//! term and `ratio(p)` is `cost(p)/size(p)` integerized by the adaptive
//! multiplier and rounded to the configured number of significant bits.
//! Pairs with equal rounded ratios share one LRU queue: because `L` only
//! grows, the entries of a queue are automatically ordered by `H`, so each
//! queue's *head* is its internal minimum. An 8-ary heap over the queue heads
//! then yields the global minimum in `O(log #queues)` — and the heap is only
//! touched when a queue's head actually changes, which is what makes CAMP so
//! much cheaper than GDS (Figure 4).
//!
//! That structure is all this module holds: [`MultiQueue`] is an
//! [`Ordering`], and the cache around it — key map, byte budget, eviction
//! loop, trace events — is the [`Keyed`] front every ordering shares.
//! [`Camp`] names the pairing.
//!
//! ## Delta from Algorithm 1
//!
//! On a hit, GDS sets `L ← min_{q ∈ M\{p}} H(q)` (excluding the requested
//! pair). CAMP, following the paper's Figure 3 walkthrough, uses the heap
//! root *including* `p`. Both keep `L` non-decreasing; the difference is at
//! most one queue-width of priority and vanishes under rounding.

use std::borrow::Borrow;
use std::hash::Hash;

use crate::arena::EntryId;
use crate::hash::FoldHashMap;
use crate::heap::OctonaryHeap;
use crate::keyed::{Keyed, Ordering, Slot, Slots};
use crate::lru_list::{Linked, Links, LruList};
use crate::policy::PolicyStats;
use crate::rounding::{Precision, RatioRounder};

/// Metadata describing one resident entry, as seen through CAMP's eyes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EntryMeta {
    /// Size in bytes, as given at insert time.
    pub size: u64,
    /// Cost, as given at insert time.
    pub cost: u64,
    /// The rounded, integerized cost-to-size ratio (the queue label).
    pub rounded_ratio: u64,
    /// The current priority `H = L_at_last_reference + rounded_ratio`.
    pub h: u128,
    /// Index of the LRU queue currently holding the entry.
    pub queue: u32,
}

/// A snapshot of one non-empty LRU queue, for introspection (Figures 5b, 8c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct QueueInfo {
    /// The rounded cost-to-size ratio shared by all entries in this queue.
    pub ratio: u64,
    /// Number of resident entries in the queue.
    pub len: usize,
    /// Priority of the queue head (the queue's eviction candidate).
    pub head_h: u128,
}

/// Per pair: its rounded ratio, its priority, and its place in the queue
/// that ratio labels.
#[derive(Debug, Default)]
pub struct Queued {
    ratio: u64,
    h: Priority,
    queue: u32,
    links: Links,
}

/// A priority `H`, held at 8-byte alignment: a bare `u128` would align the
/// node — and with it every slot — to 16 and pad the arena slot of a
/// `u64`-keyed pair from 88 to 112 bytes, which costs the hit path ~15 % in
/// cache footprint (EXPERIMENTS.md, "CAMP on the keyed front").
#[derive(Debug, Default, Clone, Copy)]
#[repr(Rust, packed(8))]
struct Priority(u128);

impl Linked for Queued {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

#[derive(Debug)]
struct Queue {
    ratio: u64,
    list: LruList,
}

/// CAMP's order: one LRU queue per rounded ratio, an octonary heap over the
/// queue heads (heap ids are queue indices, reused LIFO) and the inflation
/// term `L`.
#[derive(Debug)]
pub struct MultiQueue {
    /// Indexed by queue index; an index on `free_queues` holds a retired,
    /// empty queue.
    queues: Vec<Queue>,
    free_queues: Vec<u32>,
    queue_by_ratio: FoldHashMap<u64, u32>,
    heap: OctonaryHeap<u128>,
    rounder: RatioRounder,
    /// `L` advances lazily, exactly as in Algorithm 1: to the post-eviction
    /// heap minimum on every eviction (line 6) and to the heap root on every
    /// hit (line 2, with the paper's Figure 3 refinement of including the
    /// requested pair). It is *not* advanced by insertions that fit without
    /// eviction, so `L <= H(q)` holds for every resident pair but `L` may
    /// lag arbitrarily far behind the minimum.
    l: u128,
}

impl MultiQueue {
    fn new(rounder: RatioRounder) -> Self {
        MultiQueue {
            queues: Vec::new(),
            free_queues: Vec::new(),
            queue_by_ratio: FoldHashMap::default(),
            heap: OctonaryHeap::new(),
            rounder,
            l: 0,
        }
    }

    /// `L` as trace events and gauges carry it. It is `u128` internally;
    /// saturate for exposition (it only nears `u64::MAX` after ~584k years
    /// of microsecond-cost churn).
    fn l_saturated(&self) -> u64 {
        u64::try_from(self.l).unwrap_or(u64::MAX)
    }

    /// Priority of the head of queue `queue`, if it has one.
    fn head_h<P>(&self, slots: &Slots<P, Queued>, queue: u32) -> Option<u128> {
        let head = self.queues[queue as usize].list.front()?;
        Some(slots.get(head).expect("live head").node.h.0)
    }

    /// After a queue's head was removed: delete the queue if it emptied,
    /// otherwise re-key its heap node to the new head.
    fn retire_or_update_queue<P>(&mut self, slots: &Slots<P, Queued>, queue: u32) {
        if let Some(head_h) = self.head_h(slots, queue) {
            self.heap.update(queue, head_h);
        } else {
            self.heap.remove(queue);
            self.queue_by_ratio
                .remove(&self.queues[queue as usize].ratio);
            self.free_queues.push(queue);
        }
    }

    /// Returns the index of the queue for `ratio`, creating it if needed
    /// (without a heap node; the caller adds one when the first entry lands).
    fn ensure_queue(&mut self, ratio: u64) -> u32 {
        if let Some(&idx) = self.queue_by_ratio.get(&ratio) {
            return idx;
        }
        let queue = Queue {
            ratio,
            list: LruList::new(),
        };
        let idx = if let Some(idx) = self.free_queues.pop() {
            self.queues[idx as usize] = queue;
            idx
        } else {
            let idx = u32::try_from(self.queues.len()).expect("more than u32::MAX distinct queues");
            self.queues.push(queue);
            idx
        };
        self.queue_by_ratio.insert(ratio, idx);
        idx
    }

    /// Snapshots every non-empty queue, sorted by ratio.
    fn census<P>(&self, slots: &Slots<P, Queued>) -> Vec<QueueInfo> {
        let mut out: Vec<QueueInfo> = self
            .queue_by_ratio
            .iter()
            .filter_map(|(&ratio, &idx)| {
                Some(QueueInfo {
                    ratio,
                    len: self.queues[idx as usize].list.len(),
                    head_h: self.head_h(slots, idx)?,
                })
            })
            .collect();
        out.sort_by_key(|q| q.ratio);
        out
    }
}

impl Ordering for MultiQueue {
    type Node = Queued;

    fn name(&self) -> String {
        format!("camp(p={})", self.rounder.precision())
    }

    fn admit<P>(&mut self, slots: &mut Slots<P, Queued>, id: EntryId) {
        let entry = slots.get_mut(id).expect("live entry");
        let ratio = self.rounder.rounded_ratio(entry.cost, entry.size);
        let h = self.l + u128::from(ratio);
        let queue = self.ensure_queue(ratio);
        entry.node = Queued {
            ratio,
            h: Priority(h),
            queue,
            links: Links::new(),
        };
        let list = &mut self.queues[queue as usize].list;
        let was_empty = list.is_empty();
        list.push_back(slots, id);
        if was_empty {
            // The new entry is the queue head: give the queue a heap node.
            self.heap.insert(queue, h);
        }
    }

    /// The paper's Figure 3 motion: move to queue tail, set `H = L + ratio`,
    /// and update the heap only if the queue head changed.
    fn hit<P>(&mut self, slots: &mut Slots<P, Queued>, id: EntryId) {
        // Algorithm 1 line 2: L jumps to the minimum resident priority,
        // which for CAMP is the heap root (paper Figure 3c uses the root
        // including the requested pair itself).
        if let Some((_, &h)) = self.heap.peek() {
            debug_assert!(h >= self.l, "heap minimum regressed below L");
            self.l = h;
        }
        let node = &mut slots.get_mut(id).expect("live entry").node;
        node.h = Priority(self.l + u128::from(node.ratio));
        let queue = node.queue;
        let list = &mut self.queues[queue as usize].list;
        let was_head = list.front() == Some(id);
        list.move_to_back(slots, id);
        if was_head {
            // The head changed (or, for a singleton queue, its priority did):
            // this is the only case where CAMP touches the heap on a hit.
            let head_h = self.head_h(slots, queue).expect("non-empty queue");
            self.heap.update(queue, head_h);
        }
    }

    /// Smallest priority `H`, LRU within its queue.
    fn victim<P>(&self, _slots: &Slots<P, Queued>) -> Option<EntryId> {
        let (queue, _) = self.heap.peek()?;
        self.queues[queue as usize].list.front()
    }

    fn forget<P>(&mut self, slots: &mut Slots<P, Queued>, id: EntryId) {
        let queue = slots.get(id).expect("live entry").node.queue;
        let list = &mut self.queues[queue as usize].list;
        let was_head = list.front() == Some(id);
        list.unlink(slots, id);
        if was_head {
            self.retire_or_update_queue(slots, queue);
        }
    }

    fn evict<P>(&mut self, slots: &mut Slots<P, Queued>) -> Option<EntryId> {
        let (queue, _) = self.heap.peek()?;
        let head = self.queues[queue as usize]
            .list
            .pop_front(slots)
            .expect("heap never references an empty queue");
        self.retire_or_update_queue(slots, queue);
        // Algorithm 1 line 6: after the eviction, L becomes the minimum
        // priority among the remaining pairs (the victim's priority if the
        // cache emptied out).
        let new_l = match self.heap.peek() {
            Some((_, &h)) => h,
            None => slots.get(head).expect("live head").node.h.0,
        };
        debug_assert!(new_l >= self.l, "L must be non-decreasing");
        self.l = new_l;
        Some(head)
    }

    fn clear(&mut self) {
        self.queues.clear();
        self.free_queues.clear();
        self.queue_by_ratio.clear();
        self.heap.clear();
    }

    fn event_fields(&self, node: &Queued) -> (u64, u32, u64) {
        (node.ratio, node.queue, self.l_saturated())
    }

    fn queue_count(&self) -> Option<usize> {
        Some(self.queue_by_ratio.len())
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

    fn extend_stats<P>(&self, slots: &Slots<P, Queued>, stats: &mut PolicyStats) {
        stats.push("l_value", self.l_saturated());
        stats.push("ratio_multiplier", self.rounder.multiplier());
        for queue in self.census(slots) {
            stats.push_labelled(
                "queue_len",
                "ratio",
                queue.ratio.to_string(),
                queue.len as u64,
            );
        }
    }
}

/// Builder for [`Camp`] caches.
///
/// # Examples
///
/// ```
/// use camp_core::{Camp, Precision};
///
/// let cache: Camp<u64, ()> = Camp::<u64, ()>::builder(1 << 20)
///     .precision(Precision::Bits(5))
///     .build();
/// assert_eq!(cache.capacity(), 1 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct CampBuilder {
    capacity: u64,
    precision: Precision,
    fixed_multiplier: Option<u64>,
}

impl CampBuilder {
    /// Sets the rounding precision (default: the paper's `p = 5`).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Uses a fixed integerization multiplier instead of the adaptive
    /// maximum-observed-size scheme. Used for the multiplier ablation.
    #[must_use]
    pub fn fixed_multiplier(mut self, multiplier: u64) -> Self {
        self.fixed_multiplier = Some(multiplier);
        self
    }

    /// Builds the cache.
    #[must_use]
    pub fn build<K: Eq + Hash + Clone, V>(self) -> Camp<K, V> {
        let rounder = match self.fixed_multiplier {
            Some(m) => RatioRounder::with_fixed_multiplier(self.precision, m),
            None => RatioRounder::new(self.precision),
        };
        Keyed::with_ordering(self.capacity, MultiQueue::new(rounder))
    }
}

/// A CAMP cache mapping keys to values with explicit sizes and costs: the
/// [`Keyed`] front around a [`MultiQueue`].
///
/// `Camp` enforces a byte capacity: inserting a pair that does not fit
/// evicts the pair(s) with the globally smallest priority `H`, breaking ties
/// by LRU order within a queue. Use `V = ()` when only the eviction decisions
/// matter (e.g. trace-driven simulation); `Camp<K, ()>` is an
/// [`EvictionPolicy`](crate::policy::EvictionPolicy).
///
/// # Examples
///
/// ```
/// use camp_core::{Camp, Precision};
///
/// let mut cache = Camp::new(100, Precision::Bits(5));
/// // An expensive pair and several cheap ones of equal size.
/// cache.insert("ml-model", "advertisement model", 40, 10_000);
/// cache.insert("profile-1", "alice", 40, 1);
/// // The cache is full; the next cheap pair evicts a cheap pair, not the
/// // expensive one.
/// cache.insert("profile-2", "bob", 40, 1);
/// assert!(cache.contains("ml-model"));
/// assert!(!cache.contains("profile-1"));
/// ```
///
/// ```
/// use camp_core::policy::{CacheRequest, EvictionPolicy};
/// use camp_core::{Camp, Precision};
///
/// let mut camp: Camp<u64, ()> = Camp::new(1000, Precision::Bits(5));
/// let mut evicted = Vec::new();
/// let outcome = camp.reference(CacheRequest::new(1, 100, 5), &mut evicted);
/// assert!(outcome.is_miss());
/// assert!(EvictionPolicy::contains(&camp, &1));
/// ```
pub type Camp<K, V = ()> = Keyed<K, MultiQueue, V>;

impl<K: Eq + Hash + Clone, V> Camp<K, V> {
    /// Starts building a cache with the given byte capacity.
    #[must_use]
    pub fn builder(capacity: u64) -> CampBuilder {
        CampBuilder {
            capacity,
            precision: Precision::default(),
            fixed_multiplier: None,
        }
    }

    /// Creates a cache holding at most `capacity` bytes with the given
    /// rounding precision.
    #[must_use]
    pub fn new(capacity: u64, precision: Precision) -> Self {
        Camp::<K, V>::builder(capacity).precision(precision).build()
    }

    /// The configured rounding precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.ordering.rounder.precision()
    }

    /// The current integerization multiplier (largest observed size, unless
    /// fixed at construction).
    #[must_use]
    pub fn multiplier(&self) -> u64 {
        self.ordering.rounder.multiplier()
    }

    /// The global inflation term `L` (Proposition 1: non-decreasing).
    #[must_use]
    pub fn l_value(&self) -> u128 {
        self.ordering.l
    }

    /// Number of non-empty LRU queues (the node count of CAMP's heap; the
    /// quantity of Figures 5b and 8c).
    #[must_use]
    pub fn queue_count(&self) -> usize {
        self.ordering.queue_by_ratio.len()
    }

    /// Heap nodes visited by sift operations so far (the Figure 4 quantity).
    #[must_use]
    pub fn heap_node_visits(&self) -> u64 {
        self.ordering.heap.node_visits()
    }

    /// Number of structural heap operations performed so far.
    #[must_use]
    pub fn heap_update_ops(&self) -> u64 {
        self.ordering.heap.update_ops()
    }

    /// CAMP's view of a resident entry: size, cost, rounded ratio, priority.
    #[must_use]
    pub fn entry_meta<Q>(&self, key: &Q) -> Option<EntryMeta>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Slot {
            size, cost, node, ..
        } = self.slot(key)?;
        Some(EntryMeta {
            size: *size,
            cost: *cost,
            rounded_ratio: node.ratio,
            h: node.h.0,
            queue: node.queue,
        })
    }

    /// Snapshots every non-empty queue, sorted by ratio.
    #[must_use]
    pub fn queue_census(&self) -> Vec<QueueInfo> {
        self.ordering.census(&self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CacheRequest, EvictionPolicy};
    use crate::trace::{key_hash, PolicyEvent};
    use crate::InsertOutcome;

    fn cache(capacity: u64) -> Camp<u64, u64> {
        Camp::new(capacity, Precision::Bits(5))
    }

    /// `c.check_invariants()` for the tests below.
    trait CheckInvariants {
        fn check_invariants(&self);
    }

    impl<K: Eq + Hash + Clone, V> CheckInvariants for Camp<K, V> {
        fn check_invariants(&self) {
            // The front's byte accounting.
            let total: u64 = self.iter().map(|(_, _, slot)| slot.size).sum();
            assert_eq!(total, self.used_bytes());
            assert!(self.used_bytes() <= self.capacity() || self.is_empty());
            assert_eq!(self.len(), self.slots.len());
            // Every queue is sorted by H (front = smallest) and consistent
            // with the heap.
            let order = &self.ordering;
            assert_eq!(order.queue_by_ratio.len(), order.heap.len());
            let mut queued = 0;
            for (&ratio, &idx) in &order.queue_by_ratio {
                let queue = &order.queues[idx as usize];
                assert_eq!(queue.ratio, ratio);
                assert!(!queue.list.is_empty(), "registered queue must be non-empty");
                assert!(!order.free_queues.contains(&idx));
                queued += queue.list.len();
                let mut prev_h = None;
                for id in queue.list.iter(&self.slots) {
                    let node = &self.slots.get(id).unwrap().node;
                    assert_eq!(node.ratio, ratio);
                    assert_eq!(node.queue, idx);
                    if let Some(p) = prev_h {
                        assert!(node.h.0 >= p, "queue not ordered by H");
                    }
                    prev_h = Some(node.h.0);
                }
                let head_h = order.head_h(&self.slots, idx).unwrap();
                assert_eq!(order.heap.key_of(idx), Some(&head_h));
                // Proposition 1 claim 2: L <= H <= L + ratio for current L.
                assert!(head_h >= order.l);
            }
            assert_eq!(queued, self.len(), "every pair is in exactly one queue");
        }
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut c = cache(100);
        assert_eq!(c.insert(1, 10, 10, 5), InsertOutcome::Inserted);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10);
        c.check_invariants();
    }

    #[test]
    fn evicts_when_full_and_respects_capacity() {
        let mut c = cache(100);
        for k in 0..20 {
            c.insert(k, k, 10, 1);
            c.check_invariants();
            assert!(c.used_bytes() <= 100);
        }
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn equal_cost_equal_size_degenerates_to_lru() {
        // With one ratio there is a single queue and CAMP must behave as LRU.
        let mut c = cache(30);
        c.insert(1, 0, 10, 7);
        c.insert(2, 0, 10, 7);
        c.insert(3, 0, 10, 7);
        c.get(&1); // 1 becomes MRU; 2 is now LRU
        let mut evicted = Vec::new();
        c.insert_with_evictions(4, 0, 10, 7, &mut evicted);
        assert_eq!(evicted, vec![(2, 0)]);
        assert!(c.contains(&1));
        assert_eq!(c.queue_count(), 1);
        c.check_invariants();
    }

    #[test]
    fn expensive_pairs_survive_cheap_churn() {
        let mut c = cache(100);
        c.insert(999, 0, 10, 10_000); // expensive
        for k in 0..200 {
            c.insert(k, 0, 10, 1);
            c.check_invariants();
        }
        assert!(
            c.contains(&999),
            "the expensive pair should outlive cheap churn"
        );
    }

    #[test]
    fn expensive_pairs_eventually_age_out() {
        // CAMP must not let an aged expensive pair squat forever: as L rises
        // past its H, it becomes the minimum and is evicted.
        let mut c = cache(100);
        c.insert(999, 0, 10, 1_000); // cost-to-size 100x the churn
        let mut churn_key = 1_000_000;
        // Keep hitting a working set of cheap keys so their H keeps rising.
        for round in 0..5_000 {
            for k in 0..9 {
                if c.get(&k).is_none() {
                    c.insert(k, 0, 10, 1);
                }
            }
            // Occasionally insert a brand new cheap key to force evictions.
            if round % 2 == 0 {
                churn_key += 1;
                c.insert(churn_key, 0, 10, 1);
            }
            if !c.contains(&999) {
                return; // aged out, as required
            }
        }
        panic!("expensive pair was never evicted despite heavy competition");
    }

    #[test]
    fn smaller_pairs_win_at_equal_cost() {
        // cost identical, sizes differ: small pairs have higher ratio.
        let mut c = cache(100);
        c.insert(1, 0, 50, 10); // ratio ~ cost/size small
        c.insert(2, 0, 10, 10); // 5x the ratio of key 1
        c.insert(3, 0, 10, 10);
        c.insert(4, 0, 40, 10); // forces eviction; key 1 is the worst deal
        assert!(!c.contains(&1));
        assert!(c.contains(&2) && c.contains(&3) && c.contains(&4));
        c.check_invariants();
    }

    #[test]
    fn update_existing_key_changes_size_and_cost() {
        let mut c = cache(100);
        c.insert(1, 10, 40, 1);
        assert_eq!(c.insert(1, 20, 60, 100), InsertOutcome::Updated);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 60);
        assert_eq!(c.peek(&1), Some(&20));
        let meta = c.entry_meta(&1).unwrap();
        assert_eq!((meta.size, meta.cost), (60, 100));
        c.check_invariants();
    }

    #[test]
    fn update_shrinking_does_not_evict() {
        let mut c = cache(100);
        c.insert(1, 0, 60, 1);
        c.insert(2, 0, 40, 1);
        // Replacing key 1 with a smaller pair must not evict key 2.
        c.insert(1, 0, 10, 1);
        assert!(c.contains(&2));
        assert_eq!(c.used_bytes(), 50);
        c.check_invariants();
    }

    #[test]
    fn oversized_pair_is_rejected() {
        let mut c = cache(100);
        c.insert(1, 0, 10, 1);
        assert_eq!(c.insert(2, 0, 101, 1), InsertOutcome::RejectedTooLarge);
        assert!(c.contains(&1), "rejection must not disturb residents");
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_panics() {
        cache(100).insert(1, 0, 0, 1);
    }

    #[test]
    fn remove_returns_value_and_frees_space() {
        let mut c = cache(100);
        c.insert(1, 11, 30, 1);
        c.insert(2, 22, 30, 100);
        assert_eq!(c.remove(&1), Some(11));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.len(), 1);
        c.check_invariants();
        // Removing the last member of a queue retires the queue.
        assert_eq!(c.remove(&2), Some(22));
        assert_eq!(c.queue_count(), 0);
        assert!(c.is_empty());
        c.check_invariants();
    }

    #[test]
    fn l_is_non_decreasing_under_churn() {
        // Proposition 1 claim 1, observed through the public API.
        let mut c = cache(200);
        let mut last_l = 0u128;
        let mut state = 12345u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let key = rng() % 100;
            if c.get(&key).is_none() {
                let size = 5 + rng() % 20;
                let cost = [1u64, 100, 10_000][(rng() % 3) as usize];
                c.insert(key, 0, size, cost);
            }
            let l = c.l_value();
            assert!(l >= last_l, "L regressed: {l} < {last_l}");
            last_l = l;
        }
        c.check_invariants();
    }

    #[test]
    fn h_is_bounded_by_l_plus_ratio() {
        // Proposition 1 claim 2 for every resident entry.
        let mut c = cache(500);
        let mut state = 777u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5_000 {
            let key = rng() % 200;
            if c.get(&key).is_none() {
                c.insert(key, 0, 5 + rng() % 30, 1 + rng() % 1000);
            }
        }
        let l = c.l_value();
        for (_, _, slot) in c.iter() {
            let (h, ratio) = (slot.node.h.0, u128::from(slot.node.ratio));
            assert!(h <= l + ratio + ratio);
            // (allow one extra ratio of slack: L here is the *current* min,
            // which may exceed the L at the entry's last reference)
            assert!(h + ratio >= l || h >= l);
        }
        c.check_invariants();
    }

    #[test]
    fn victim_matches_next_eviction() {
        let mut c = cache(100);
        for k in 0..10 {
            c.insert(k, k, 10, if k % 2 == 0 { 1 } else { 100 });
        }
        let victim = *c.victim().unwrap();
        let mut evicted = Vec::new();
        c.insert_with_evictions(100, 100, 10, 50, &mut evicted);
        assert_eq!(evicted[0].0, victim);
        c.check_invariants();
    }

    #[test]
    fn queue_census_reflects_distinct_ratios() {
        let mut c: Camp<u64, ()> = Camp::new(10_000, Precision::Infinite);
        // Three distinct cost classes at equal size: three queues.
        for k in 0..30u64 {
            let cost = [1u64, 100, 10_000][(k % 3) as usize];
            c.insert(k, (), 10, cost);
        }
        let census = c.queue_census();
        assert_eq!(census.len(), 3);
        assert_eq!(c.queue_count(), 3);
        assert_eq!(census.iter().map(|q| q.len).sum::<usize>(), 30);
        assert!(census.windows(2).all(|w| w[0].ratio < w[1].ratio));
        c.check_invariants();
    }

    #[test]
    fn lower_precision_merges_queues() {
        let census_at = |precision: Precision| {
            let mut c: Camp<u64, ()> = Camp::new(1 << 20, precision);
            let mut state = 42u64;
            for k in 0..500u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let cost = 1 + state % 10_000;
                c.insert(k, (), 100, cost);
            }
            c.queue_count()
        };
        let fine = census_at(Precision::Infinite);
        let mid = census_at(Precision::Bits(5));
        let coarse = census_at(Precision::Bits(1));
        assert!(coarse <= mid && mid <= fine, "{coarse} <= {mid} <= {fine}");
        assert!(coarse < fine);
    }

    #[test]
    fn heap_is_touched_less_than_once_per_hit() {
        // CAMP's headline efficiency claim: hits on non-head entries do not
        // touch the heap at all.
        let mut c = cache(1000);
        for k in 0..50 {
            c.insert(k, 0, 10, 1);
        }
        c.reset_instrumentation();
        // Hit the MRU tail over and over: head never changes.
        for _ in 0..1000 {
            c.get(&49);
        }
        assert_eq!(c.heap_update_ops(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = cache(100);
        for k in 0..15 {
            c.insert(k, k, 10, k + 1);
        }
        // Emptying is not heap work (the Fig 4 counters) and `L` only grows.
        let before = (c.heap_update_ops(), c.heap_node_visits(), c.l_value());
        assert!(before.2 > 0, "evictions advanced L");
        c.clear();
        assert_eq!(
            (c.heap_update_ops(), c.heap_node_visits(), c.l_value()),
            before
        );
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.queue_count(), 0);
        assert_eq!(c.victim(), None);
        assert_eq!(c.get(&1), None);
        c.insert(1, 1, 10, 1);
        assert!(c.contains(&1));
        c.check_invariants();
    }

    #[test]
    fn evict_lowest_pops_the_victim() {
        let mut c = cache(100);
        for k in 0..10 {
            c.insert(k, k, 10, if k == 5 { 10_000 } else { 1 });
        }
        let victim = *c.victim().unwrap();
        let (k, v) = c.evict_lowest().unwrap();
        assert_eq!(k, victim);
        assert_eq!(v, victim);
        assert_eq!(c.len(), 9);
        c.check_invariants();
        // Draining empties the cache.
        while c.evict_lowest().is_some() {}
        assert!(c.is_empty());
        assert_eq!(c.evict_lowest(), None);
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut c = cache(100);
        for k in 0..10 {
            c.insert(k, k, 10, k + 1);
        }
        let mut evicted = Vec::new();
        c.resize(45, &mut evicted);
        assert_eq!(c.capacity(), 45);
        assert_eq!(c.len(), 4);
        assert_eq!(evicted.len(), 6);
        assert!(c.used_bytes() <= 45);
        c.check_invariants();
        // Growing evicts nothing and admits more.
        evicted.clear();
        c.resize(200, &mut evicted);
        assert!(evicted.is_empty());
        for k in 100..110 {
            c.insert(k, k, 10, 1);
        }
        assert_eq!(c.len(), 14);
        c.check_invariants();
    }

    #[test]
    fn trace_sink_sees_admissions_and_evictions() {
        use crate::trace::{CollectingSink, PolicyEventKind};
        let mut c = cache(30);
        let sink = std::sync::Arc::new(CollectingSink::default());
        c.set_trace_sink(Some(sink.clone()));
        c.insert(1, 0, 10, 4); // ratio rounds using multiplier = max size
        c.insert(2, 0, 10, 4);
        c.insert(3, 0, 10, 4);
        c.insert(4, 0, 10, 4); // evicts key 1
        let events = sink.snapshot();
        assert_eq!(events.len(), 5, "4 admits + 1 evict: {events:?}");
        let evicts: Vec<_> = events
            .iter()
            .filter(|e| e.kind == PolicyEventKind::Evict)
            .collect();
        assert_eq!(evicts.len(), 1);
        let evict = evicts[0];
        assert_eq!(evict.key_hash, key_hash(&1u64));
        assert_eq!((evict.size, evict.cost), (10, 4));
        let admit = &events[0];
        assert_eq!(admit.kind, PolicyEventKind::Admit);
        assert_eq!(admit.ratio, evict.ratio, "same queue, same rounded ratio");
        // L advanced on the eviction and the event observed it.
        assert!(evict.l_value >= admit.l_value);
        // Detaching the sink stops emission.
        c.set_trace_sink(None);
        c.insert(5, 0, 10, 4);
        assert_eq!(sink.snapshot().len(), 5);
        c.check_invariants();
    }

    #[test]
    fn evict_lowest_reports_the_victim_at_the_advanced_l() {
        use crate::trace::{CollectingSink, PolicyEventKind};
        let mut c = cache(100);
        let sink = std::sync::Arc::new(CollectingSink::default());
        for k in 0..6u64 {
            c.insert(k, k, 10, 1 + k * 7);
        }
        c.get(&3);
        c.set_trace_sink(Some(sink.clone()));
        let victim = *c.victim().unwrap();
        let meta = c.entry_meta(&victim).unwrap();
        let l_before = c.l_value();
        let used = c.used_bytes();
        assert_eq!(c.evict_lowest(), Some((victim, victim)));
        // Algorithm 1 line 6: L rises to the new minimum, and the event
        // reports the L the eviction left.
        assert!(c.l_value() > l_before);
        let l = u64::try_from(c.l_value()).unwrap();
        assert_eq!(
            sink.snapshot(),
            vec![PolicyEvent {
                kind: PolicyEventKind::Evict,
                key_hash: key_hash(&victim),
                size: meta.size,
                cost: meta.cost,
                ratio: meta.rounded_ratio,
                queue: meta.queue,
                l_value: l,
            }]
        );
        assert!(!c.contains(&victim));
        assert_eq!(c.used_bytes(), used - meta.size);
        // An explicit remove stays out of the trace.
        assert_eq!(c.remove(&3), Some(3));
        assert_eq!(sink.snapshot().len(), 1);
        c.check_invariants();
    }

    /// `get` + `insert_with_evictions` and `reference` are two surfaces of
    /// one body: the same stream makes the same decisions through either.
    #[test]
    fn value_api_and_reference_are_one_body() {
        let mut by_value: Camp<u64, ()> = Camp::new(2_000, Precision::Bits(5));
        let mut by_reference: Camp<u64, ()> = Camp::new(2_000, Precision::Bits(5));
        let mut rng = crate::rng::Rng64::seed_from_u64(0xCA3B);
        let (mut pairs, mut keys) = (Vec::new(), Vec::new());
        for _ in 0..10_000 {
            let key = rng.range_u64(0, 400);
            let (size, cost) = (1 + key % 60, [1, 30, 900, 25_000][(key % 4) as usize]);
            pairs.clear();
            keys.clear();
            if by_value.get(&key).is_none() {
                by_value.insert_with_evictions(key, (), size, cost, &mut pairs);
            }
            by_reference.reference(CacheRequest::new(key, size, cost), &mut keys);
            assert!(
                pairs.iter().map(|(k, ())| k).eq(&keys),
                "{pairs:?} {keys:?}"
            );
            assert_eq!(by_value.l_value(), by_reference.l_value());
            by_value.check_invariants();
        }
        assert!(by_value.l_value() > 0 && by_value.queue_count() > 1);
        assert_eq!(by_value.queue_census(), by_reference.queue_census());
    }

    #[test]
    fn ties_broken_by_lru_within_queue() {
        let mut c = cache(30);
        c.insert(1, 0, 10, 5);
        c.insert(2, 0, 10, 5);
        c.insert(3, 0, 10, 5);
        // All share a queue; 1 is LRU and must be the victim.
        assert_eq!(c.victim(), Some(&1));
        c.get(&1);
        assert_eq!(c.victim(), Some(&2));
    }
}
