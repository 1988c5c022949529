//! The CAMP cache: Cost Adaptive Multi-queue eviction Policy.
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
//! ## Delta from Algorithm 1
//!
//! On a hit, GDS sets `L ← min_{q ∈ M\{p}} H(q)` (excluding the requested
//! pair). CAMP, following the paper's Figure 3 walkthrough, uses the heap
//! root *including* `p`. Both keep `L` non-decreasing; the difference is at
//! most one queue-width of priority and vanishes under rounding.

use std::borrow::Borrow;
use std::fmt;
use std::hash::Hash;

use crate::arena::{Arena, EntryId};
use crate::hash::FoldHashMap;
use crate::heap::OctonaryHeap;
use crate::lru_list::{Linked, Links, LruList};
use crate::rounding::{Precision, RatioRounder};
use crate::trace::{key_hash, PolicyEvent, PolicyEventKind, SharedTraceSink};

/// Counters maintained by a [`Camp`] cache.
///
/// All counters are cumulative since construction (they are not reset by
/// [`Camp::reset_instrumentation`], which only clears heap visit counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CampStats {
    /// `get` calls that found the key resident.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Fresh keys admitted by `insert`.
    pub insertions: u64,
    /// `insert` calls that replaced an already-resident key.
    pub updates: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// `insert` calls rejected because the pair exceeds the cache capacity.
    pub rejected: u64,
}

/// What an [`Camp::insert`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertOutcome {
    /// The key was new and is now resident.
    Inserted,
    /// The key was already resident; its value, size and cost were replaced.
    Updated,
    /// The pair is larger than the whole cache and was not admitted.
    RejectedTooLarge,
}

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

struct Entry<K, V> {
    key: K,
    value: V,
    size: u64,
    cost: u64,
    ratio: u64,
    h: u128,
    queue: u32,
    links: Links,
}

impl<K, V> Linked for Entry<K, V> {
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
    initial_entries: usize,
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

    /// Pre-allocates room for this many entries.
    #[must_use]
    pub fn initial_entries(mut self, entries: usize) -> Self {
        self.initial_entries = entries;
        self
    }

    /// Builds the cache.
    #[must_use]
    pub fn build<K: Eq + Hash + Clone, V>(self) -> Camp<K, V> {
        let rounder = match self.fixed_multiplier {
            Some(m) => RatioRounder::with_fixed_multiplier(self.precision, m),
            None => RatioRounder::new(self.precision),
        };
        Camp {
            map: FoldHashMap::with_capacity_and_hasher(self.initial_entries, Default::default()),
            arena: Arena::with_capacity(self.initial_entries),
            queues: Vec::new(),
            free_queues: Vec::new(),
            queue_by_ratio: FoldHashMap::default(),
            heap: OctonaryHeap::new(),
            rounder,
            l: 0,
            capacity: self.capacity,
            used: 0,
            stats: CampStats::default(),
            sink: None,
        }
    }
}

/// A CAMP cache mapping keys to values with explicit sizes and costs.
///
/// `Camp` enforces a byte capacity: inserting a pair that does not fit
/// evicts the pair(s) with the globally smallest priority `H`, breaking ties
/// by LRU order within a queue. Use `V = ()` when only the eviction decisions
/// matter (e.g. trace-driven simulation).
///
/// The key map is hashed by the unseeded [`crate::hash::FoldHasher`], not
/// by the standard library's randomly keyed SipHash: it is fast, and it
/// gives no protection against keys chosen to collide. Feed it keys an
/// adversary cannot pick — trace ids, or a seeded hash of the external key
/// (the KVS server passes its per-process key fingerprint).
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
pub struct Camp<K, V = ()> {
    map: FoldHashMap<K, EntryId>,
    arena: Arena<Entry<K, V>>,
    queues: Vec<Option<Queue>>,
    free_queues: Vec<u32>,
    queue_by_ratio: FoldHashMap<u64, u32>,
    heap: OctonaryHeap<u128>,
    rounder: RatioRounder,
    l: u128,
    capacity: u64,
    used: u64,
    stats: CampStats,
    sink: Option<SharedTraceSink>,
}

impl<K, V> Camp<K, V> {
    /// Starts building a cache with the given byte capacity.
    #[must_use]
    pub fn builder(capacity: u64) -> CampBuilder {
        CampBuilder {
            capacity,
            precision: Precision::default(),
            fixed_multiplier: None,
            initial_entries: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V> Camp<K, V> {
    /// Creates a cache holding at most `capacity` bytes with the given
    /// rounding precision.
    #[must_use]
    pub fn new(capacity: u64, precision: Precision) -> Self {
        Camp::<K, V>::builder(capacity).precision(precision).build()
    }

    /// The byte capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied by resident pairs.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of resident pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured rounding precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.rounder.precision()
    }

    /// The current integerization multiplier (largest observed size, unless
    /// fixed at construction).
    #[must_use]
    pub fn multiplier(&self) -> u64 {
        self.rounder.multiplier()
    }

    /// The global inflation term `L` (Proposition 1: non-decreasing).
    #[must_use]
    pub fn l_value(&self) -> u128 {
        self.current_l()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> CampStats {
        self.stats
    }

    /// Number of non-empty LRU queues (the node count of CAMP's heap; the
    /// quantity of Figures 5b and 8c).
    #[must_use]
    pub fn queue_count(&self) -> usize {
        self.queue_by_ratio.len()
    }

    /// Heap nodes visited by sift operations so far (the Figure 4 quantity).
    #[must_use]
    pub fn heap_node_visits(&self) -> u64 {
        self.heap.node_visits()
    }

    /// Number of structural heap operations performed so far.
    #[must_use]
    pub fn heap_update_ops(&self) -> u64 {
        self.heap.update_ops()
    }

    /// Resets the heap visit/operation counters (not the hit/miss counters).
    pub fn reset_instrumentation(&mut self) {
        self.heap.reset_counters();
    }

    /// Attaches (or detaches, with `None`) a [`TraceSink`] that will
    /// receive one [`PolicyEvent`] per admission and eviction. The sink is
    /// invoked inline, so it must be cheap; without one, tracing costs a
    /// single branch per decision.
    ///
    /// [`TraceSink`]: crate::trace::TraceSink
    pub fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    /// The saturated-to-`u64` `L` value trace events carry.
    fn l_for_trace(&self) -> u64 {
        u64::try_from(self.l).unwrap_or(u64::MAX)
    }

    /// Whether `key` is resident. Does not update recency.
    #[must_use]
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Reads `key` without updating recency or priority.
    #[must_use]
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = *self.map.get(key)?;
        self.arena.get(id).map(|e| &e.value)
    }

    /// CAMP's view of a resident entry: size, cost, rounded ratio, priority.
    #[must_use]
    pub fn entry_meta<Q>(&self, key: &Q) -> Option<EntryMeta>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = *self.map.get(key)?;
        self.arena.get(id).map(|e| EntryMeta {
            size: e.size,
            cost: e.cost,
            rounded_ratio: e.ratio,
            h: e.h,
            queue: e.queue,
        })
    }

    /// The attached trace sink, if any (see [`Camp::set_trace_sink`]).
    #[must_use]
    pub fn trace_sink(&self) -> Option<&SharedTraceSink> {
        self.sink.as_ref()
    }

    /// Looks `key` up, updating recency and priority on a hit (the paper's
    /// Figure 3 motion: move to queue tail, set `H = L + ratio`, and update
    /// the heap only if the queue head changed).
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = match self.map.get(key) {
            Some(&id) => id,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        self.stats.hits += 1;
        self.touch(id);
        self.arena.get(id).map(|e| &e.value)
    }

    /// Like [`Camp::get`] but returns a mutable reference to the value.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = match self.map.get(key) {
            Some(&id) => id,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        self.stats.hits += 1;
        self.touch(id);
        self.arena.get_mut(id).map(|e| &mut e.value)
    }

    /// Inserts `key` with the given value, byte size and cost, evicting
    /// lowest-priority pairs as needed. Evicted pairs are dropped; use
    /// [`Camp::insert_with_evictions`] to observe them.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn insert(&mut self, key: K, value: V, size: u64, cost: u64) -> InsertOutcome {
        let mut evicted = Vec::new();
        self.insert_with_evictions(key, value, size, cost, &mut evicted)
    }

    /// Inserts `key`, appending every evicted `(key, value)` pair to
    /// `evicted`. See [`Camp::insert`].
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn insert_with_evictions(
        &mut self,
        key: K,
        value: V,
        size: u64,
        cost: u64,
        evicted: &mut Vec<(K, V)>,
    ) -> InsertOutcome {
        assert!(size > 0, "key-value pairs have positive size");
        if size > self.capacity {
            self.stats.rejected += 1;
            return InsertOutcome::RejectedTooLarge;
        }
        let updating = if let Some(old_id) = self.map.remove(&key) {
            self.detach(old_id);
            true
        } else {
            false
        };
        while self.used + size > self.capacity {
            let evicted_one = self.evict_one(evicted);
            debug_assert!(evicted_one, "capacity accounting out of sync");
        }
        let ratio = self.rounder.rounded_ratio(cost, size);
        let h = self.current_l() + u128::from(ratio);
        let queue_idx = self.ensure_queue(ratio);
        let id = self.arena.insert(Entry {
            key: key.clone(),
            value,
            size,
            cost,
            ratio,
            h,
            queue: queue_idx,
            links: Links::new(),
        });
        let queue = self.queues[queue_idx as usize]
            .as_mut()
            .expect("ensure_queue returned a live queue");
        let was_empty = queue.list.is_empty();
        queue.list.push_back(&mut self.arena, id);
        if was_empty {
            // The new entry is the queue head: give the queue a heap node.
            self.heap.insert(queue_idx, h);
        }
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent {
                kind: PolicyEventKind::Admit,
                key_hash: key_hash(&key),
                size,
                cost,
                ratio,
                queue: queue_idx,
                l_value: self.l_for_trace(),
            });
        }
        self.map.insert(key, id);
        self.used += size;
        if updating {
            self.stats.updates += 1;
            InsertOutcome::Updated
        } else {
            self.stats.insertions += 1;
            InsertOutcome::Inserted
        }
    }

    /// Evicts the pair CAMP considers least valuable (smallest priority,
    /// LRU within its queue), returning it. Useful for demoting into a
    /// lower cache tier or draining under external memory pressure.
    pub fn evict_lowest(&mut self) -> Option<(K, V)> {
        let mut evicted = Vec::with_capacity(1);
        if self.evict_one(&mut evicted) {
            evicted.pop()
        } else {
            None
        }
    }

    /// Changes the byte capacity. Shrinking evicts lowest-priority pairs
    /// until the resident set fits, appending them to `evicted`.
    pub fn resize(&mut self, capacity: u64, evicted: &mut Vec<(K, V)>) {
        self.capacity = capacity;
        while self.used > self.capacity {
            let ok = self.evict_one(evicted);
            debug_assert!(ok, "capacity accounting out of sync");
        }
    }

    /// Removes `key`, returning its value if it was resident.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = self.map.remove(key)?;
        Some(self.detach(id).value)
    }

    /// Removes resident `key` *as an eviction* the caller decided on (a
    /// store out of memory evicting [`Camp::victim`]): [`Camp::remove`],
    /// reported to the trace sink as an eviction at the current `L`. The
    /// one map probe yields the entry the event is built from.
    pub fn evict<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = self.map.remove(key)?;
        let entry = self.detach(id);
        self.trace_eviction(&entry);
        Some(entry.value)
    }

    /// The pair CAMP would evict next (smallest priority `H`, LRU within its
    /// queue), if the cache is non-empty.
    #[must_use]
    pub fn victim(&self) -> Option<&K> {
        let (queue_idx, _) = self.heap.peek()?;
        let queue = self.queues[queue_idx as usize].as_ref()?;
        let head = queue.list.front()?;
        self.arena.get(head).map(|e| &e.key)
    }

    /// Snapshots every non-empty queue, sorted by ratio.
    #[must_use]
    pub fn queue_census(&self) -> Vec<QueueInfo> {
        let mut out: Vec<QueueInfo> = self
            .queue_by_ratio
            .values()
            .filter_map(|&idx| {
                let queue = self.queues[idx as usize].as_ref()?;
                let head = queue.list.front()?;
                let head_h = self.arena.get(head)?.h;
                Some(QueueInfo {
                    ratio: queue.ratio,
                    len: queue.list.len(),
                    head_h,
                })
            })
            .collect();
        out.sort_by_key(|q| q.ratio);
        out
    }

    /// Iterates over `(key, value, meta)` for every resident pair, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, EntryMeta)> + '_ {
        self.arena.iter().map(|(_, e)| {
            (
                &e.key,
                &e.value,
                EntryMeta {
                    size: e.size,
                    cost: e.cost,
                    rounded_ratio: e.ratio,
                    h: e.h,
                    queue: e.queue,
                },
            )
        })
    }

    /// Removes every pair without touching `L` or the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.arena.clear();
        self.queues.clear();
        self.free_queues.clear();
        self.queue_by_ratio.clear();
        while self.heap.pop().is_some() {}
        self.used = 0;
    }

    /// The current value of `L`.
    ///
    /// `L` advances lazily, exactly as in Algorithm 1: to the post-eviction
    /// heap minimum on every eviction (line 6) and to the heap root on every
    /// hit (line 2, with the paper's Figure 3 refinement of including the
    /// requested pair). It is *not* advanced by insertions that fit without
    /// eviction, so `L <= H(q)` holds for every resident pair but `L` may
    /// lag arbitrarily far behind the minimum.
    fn current_l(&self) -> u128 {
        self.l
    }

    /// Processes a hit on `id`.
    fn touch(&mut self, id: EntryId) {
        // Algorithm 1 line 2: L jumps to the minimum resident priority,
        // which for CAMP is the heap root (paper Figure 3c uses the root
        // including the requested pair itself).
        let l = match self.heap.peek() {
            Some((_, &h)) => {
                debug_assert!(h >= self.l, "heap minimum regressed below L");
                h
            }
            None => self.l,
        };
        self.l = l;
        let (queue_idx, ratio) = {
            let entry = self.arena.get(id).expect("touch: stale entry");
            (entry.queue, entry.ratio)
        };
        let new_h = l + u128::from(ratio);
        let queue = self.queues[queue_idx as usize]
            .as_mut()
            .expect("touch: entry points at a dead queue");
        let was_head = queue.list.front() == Some(id);
        queue.list.move_to_back(&mut self.arena, id);
        self.arena.get_mut(id).expect("touch: stale entry").h = new_h;
        if was_head {
            // The head changed (or, for a singleton queue, its priority did):
            // this is the only case where CAMP touches the heap on a hit.
            let queue = self.queues[queue_idx as usize]
                .as_ref()
                .expect("touch: entry points at a live queue");
            let head = queue.list.front().expect("non-empty queue has a head");
            let head_h = self.arena.get(head).expect("live head").h;
            self.heap.update(queue_idx, head_h);
        }
    }

    /// Evicts the globally minimum-priority pair. Returns false when empty.
    fn evict_one(&mut self, evicted: &mut Vec<(K, V)>) -> bool {
        let Some((queue_idx, _)) = self.heap.peek() else {
            return false;
        };
        let queue = self.queues[queue_idx as usize]
            .as_mut()
            .expect("heap points at a dead queue");
        let head = queue
            .list
            .pop_front(&mut self.arena)
            .expect("heap never references an empty queue");
        let entry = self.arena.remove(head).expect("live head");
        self.map.remove(&entry.key);
        self.used -= entry.size;
        self.stats.evictions += 1;
        self.retire_or_update_queue(queue_idx);
        // Algorithm 1 line 6: after the eviction, L becomes the minimum
        // priority among the remaining pairs (the victim's priority if the
        // cache emptied out).
        let new_l = match self.heap.peek() {
            Some((_, &h)) => h,
            None => entry.h,
        };
        debug_assert!(new_l >= self.l, "L must be non-decreasing");
        self.l = new_l;
        self.trace_eviction(&entry);
        evicted.push((entry.key, entry.value));
        true
    }

    /// Reports `entry` (just removed) to the trace sink as an eviction at
    /// the current `L`.
    fn trace_eviction(&self, entry: &Entry<K, V>) {
        if let Some(sink) = &self.sink {
            sink.record(&PolicyEvent {
                kind: PolicyEventKind::Evict,
                key_hash: key_hash(&entry.key),
                size: entry.size,
                cost: entry.cost,
                ratio: entry.ratio,
                queue: entry.queue,
                l_value: self.l_for_trace(),
            });
        }
    }

    /// Unlinks `id` (already out of the key map) from its queue and hands
    /// back the entry.
    fn detach(&mut self, id: EntryId) -> Entry<K, V> {
        let queue_idx = self.arena.get(id).expect("detach: stale entry").queue;
        let queue = self.queues[queue_idx as usize]
            .as_mut()
            .expect("detach: dead queue");
        let was_head = queue.list.front() == Some(id);
        queue.list.unlink(&mut self.arena, id);
        let entry = self.arena.remove(id).expect("detach: stale entry");
        self.used -= entry.size;
        if was_head {
            self.retire_or_update_queue(queue_idx);
        }
        entry
    }

    /// After a queue's head was removed: delete the queue if it emptied,
    /// otherwise re-key its heap node to the new head.
    fn retire_or_update_queue(&mut self, queue_idx: u32) {
        let queue = self.queues[queue_idx as usize]
            .as_ref()
            .expect("retire: dead queue");
        if let Some(head) = queue.list.front() {
            let head_h = self.arena.get(head).expect("live head").h;
            self.heap.update(queue_idx, head_h);
        } else {
            let ratio = queue.ratio;
            self.heap.remove(queue_idx);
            self.queue_by_ratio.remove(&ratio);
            self.queues[queue_idx as usize] = None;
            self.free_queues.push(queue_idx);
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
            self.queues[idx as usize] = Some(queue);
            idx
        } else {
            let idx = u32::try_from(self.queues.len()).expect("more than u32::MAX distinct queues");
            self.queues.push(Some(queue));
            idx
        };
        self.queue_by_ratio.insert(ratio, idx);
        idx
    }

    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        // Byte accounting.
        let total: u64 = self.arena.iter().map(|(_, e)| e.size).sum();
        assert_eq!(total, self.used);
        assert!(self.used <= self.capacity || self.map.is_empty());
        assert_eq!(self.map.len(), self.arena.len());
        // Every queue is sorted by H (front = smallest) and consistent with
        // the heap.
        assert_eq!(self.queue_by_ratio.len(), self.heap.len());
        for (&ratio, &idx) in &self.queue_by_ratio {
            let queue = self.queues[idx as usize]
                .as_ref()
                .expect("census queue is live");
            assert_eq!(queue.ratio, ratio);
            assert!(!queue.list.is_empty(), "registered queue must be non-empty");
            let mut prev_h = None;
            for id in queue.list.iter(&self.arena) {
                let entry = self.arena.get(id).unwrap();
                assert_eq!(entry.ratio, ratio);
                assert_eq!(entry.queue, idx);
                if let Some(p) = prev_h {
                    assert!(entry.h >= p, "queue not ordered by H");
                }
                prev_h = Some(entry.h);
            }
            let head = queue.list.front().unwrap();
            let head_h = self.arena.get(head).unwrap().h;
            assert_eq!(self.heap.key_of(idx), Some(&head_h));
            // Proposition 1 claim 2: L <= H <= L + ratio for current L.
            assert!(head_h >= self.l);
        }
    }
}

impl<K: Eq + Hash + Clone + fmt::Debug, V> fmt::Debug for Camp<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Camp")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("entries", &self.map.len())
            .field("queues", &self.queue_count())
            .field("precision", &self.precision())
            .field("l", &self.current_l())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: u64) -> Camp<u64, u64> {
        Camp::new(capacity, Precision::Bits(5))
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut c = cache(100);
        assert_eq!(c.insert(1, 10, 10, 5), InsertOutcome::Inserted);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
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
        assert_eq!(c.stats().evictions, 10);
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
        assert_eq!(c.stats().rejected, 1);
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
        for (_, _, meta) in c.iter() {
            assert!(meta.h <= l + u128::from(meta.rounded_ratio) + u128::from(meta.rounded_ratio));
            // (allow one extra ratio of slack: L here is the *current* min,
            // which may exceed the L at the entry's last reference)
            assert!(meta.h + u128::from(meta.rounded_ratio) >= l || meta.h >= l);
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
        for k in 0..5 {
            c.insert(k, k, 10, k + 1);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.queue_count(), 0);
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
    fn evict_reports_what_entry_meta_would_and_removes_like_remove() {
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
        let l = u64::try_from(c.l_value()).unwrap();
        let used = c.used_bytes();
        assert_eq!(c.evict(&victim), Some(victim));
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
        assert_eq!(c.evict(&victim), None, "absent: nothing to report");
        assert_eq!(sink.snapshot().len(), 1);
        // An explicit remove stays out of the trace.
        assert_eq!(c.remove(&3), Some(3));
        assert_eq!(sink.snapshot().len(), 1);
        c.check_invariants();
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
