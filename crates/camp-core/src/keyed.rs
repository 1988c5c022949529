//! The keyed front: the one cache body shared by every policy whose only
//! difference is the *order* it evicts in.
//!
//! The paper's evaluation is a controlled experiment — the same cache around
//! a different priority structure (§2–§3, Fig 4). [`Keyed`] is that cache,
//! written once: key map, arena of resident pairs, byte budget, oversize
//! bypass, evict-until-it-fits loop, trace events, the value-carrying API
//! (`get`/`insert`/…) and the whole [`EvictionPolicy`] surface. What varies
//! is an [`Ordering`]: CAMP's multi-queue ([`crate::Camp`]) here, and in
//! `camp-policies` recency (`Lru`), greedy-dual priority (`Gds`, `Gdsf`),
//! frequency (`Lfu`) and cost wheels (`GdWheel`).
//!
//! Orderings are handle-native: they are told which [`EntryId`] was
//! admitted, hit or forgotten, answer with the `EntryId` to evict, keep
//! their per-pair state in the pair's own slot, and never see a key or a
//! value — so a caller holding the `EntryId` could drive one with no key
//! lookup at all.

use std::borrow::Borrow;
use std::fmt;
use std::hash::Hash;

use crate::arena::{Arena, EntryId};
use crate::hash::FoldHashMap;
use crate::lru_list::{Linked, Links};
use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    PolicyStats, SharedTraceSink,
};

/// One resident pair: what the front accounts and reports, plus the
/// ordering's own per-pair state. The payload `P` (the key and its value)
/// is the front's alone.
#[derive(Debug)]
pub struct Slot<P, N> {
    payload: P,
    /// Size in bytes.
    pub size: u64,
    /// Reported in trace events; only cost-aware orderings read it.
    pub cost: u64,
    /// The ordering's per-pair state.
    pub node: N,
}

/// The arena an ordering's handles point into.
pub type Slots<P, N> = Arena<Slot<P, N>>;

/// A slot can be threaded on an intrusive list when its node can.
impl<P, N: Linked> Linked for Slot<P, N> {
    fn links(&self) -> &Links {
        self.node.links()
    }
    fn links_mut(&mut self) -> &mut Links {
        self.node.links_mut()
    }
}

/// An eviction order over the pairs resident in a [`Keyed`] cache. Methods
/// name a pair by its [`EntryId`]; the payload `P` is a type parameter they
/// cannot look inside.
pub trait Ordering: fmt::Debug {
    /// Per-pair state, stored in the pair's slot.
    type Node: fmt::Debug + Default;

    /// The policy name this ordering gives its cache.
    fn name(&self) -> String;

    /// A pair was just inserted (with a default node): fill the node in from
    /// the slot's size and cost and link it into the order.
    fn admit<P>(&mut self, slots: &mut Slots<P, Self::Node>, id: EntryId);

    /// A resident pair was referenced.
    fn hit<P>(&mut self, slots: &mut Slots<P, Self::Node>, id: EntryId);

    /// The pair that would be evicted next, without changing anything.
    fn victim<P>(&self, slots: &Slots<P, Self::Node>) -> Option<EntryId>;

    /// Unlinks a pair that is leaving for any reason other than this
    /// ordering's own choice (an explicit delete, or an update).
    fn forget<P>(&mut self, slots: &mut Slots<P, Self::Node>, id: EntryId);

    /// Chooses the next victim and unlinks it. Orderings with a clock (`L`)
    /// override this to advance it; for the rest an eviction is just
    /// forgetting the victim.
    fn evict<P>(&mut self, slots: &mut Slots<P, Self::Node>) -> Option<EntryId> {
        let id = self.victim(slots)?;
        self.forget(slots, id);
        Some(id)
    }

    /// Every pair is leaving at once: drop all links. Clocks and
    /// instrumentation counters stay as they are.
    fn clear(&mut self);

    /// What a trace event about `node` carries beyond size and cost:
    /// `(ratio, queue, l_value)`.
    fn event_fields(&self, _node: &Self::Node) -> (u64, u32, u64) {
        (0, 0, 0)
    }

    /// See [`EvictionPolicy::queue_count`].
    fn queue_count(&self) -> Option<usize> {
        None
    }
    /// See [`EvictionPolicy::heap_node_visits`].
    fn heap_node_visits(&self) -> Option<u64> {
        None
    }
    /// See [`EvictionPolicy::heap_update_ops`].
    fn heap_update_ops(&self) -> Option<u64> {
        None
    }
    /// See [`EvictionPolicy::reset_instrumentation`].
    fn reset_instrumentation(&mut self) {}

    /// Appends the ordering's own gauges to [`EvictionPolicy::policy_stats`],
    /// after the universal ones.
    fn extend_stats<P>(&self, _slots: &Slots<P, Self::Node>, _stats: &mut PolicyStats) {}
}

/// The slot of a pair in a [`Keyed<K, O, V>`].
type Pair<K, V, O> = Slot<(K, V), <O as Ordering>::Node>;

/// What a [`Keyed::insert`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertOutcome {
    /// The key was new and is now resident.
    Inserted,
    /// The key was already resident; its value, size and cost were replaced.
    Updated,
    /// The pair is larger than the whole cache and was not admitted.
    RejectedTooLarge,
}

/// A byte-budgeted cache mapping keys `K` to values `V`, evicting in the
/// order `O` keeps. Used (and shown) through its aliases: [`crate::Camp`],
/// and `camp-policies`' `Lru`, `Gds`, `Gdsf`, `Lfu`, `GdWheel`. With
/// `V = ()` — when only the eviction decisions matter — it is an
/// [`EvictionPolicy`].
///
/// The key map is hashed by the unseeded [`crate::hash::FoldHasher`], not
/// by the standard library's randomly keyed SipHash: it is fast, and it
/// gives no protection against keys chosen to collide. Feed it keys an
/// adversary cannot pick — trace ids, or a seeded hash of the external key
/// (the KVS server passes its per-process key fingerprint).
#[derive(Debug)]
pub struct Keyed<K, O: Ordering, V = ()> {
    map: FoldHashMap<K, EntryId>,
    pub(crate) slots: Arena<Pair<K, V, O>>,
    pub(crate) ordering: O,
    capacity: u64,
    used: u64,
    sink: Option<SharedTraceSink>,
}

// Its own impl: CAMP's ordering is built from a precision, has no default,
// and so keeps `new` free for [`crate::Camp::new`].
impl<K: Eq + Hash + Clone, O: Ordering + Default, V> Keyed<K, O, V> {
    /// Creates an empty cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Keyed::with_ordering(capacity, O::default())
    }
}

impl<K: Eq + Hash + Clone, O: Ordering, V> Keyed<K, O, V> {
    /// Creates an empty cache with the given byte capacity around an
    /// ordering built by the caller.
    #[must_use]
    pub fn with_ordering(capacity: u64, ordering: O) -> Self {
        Keyed {
            map: FoldHashMap::default(),
            slots: Arena::new(),
            ordering,
            capacity,
            used: 0,
            sink: None,
        }
    }

    /// The ordering, for its own readings (`L`, migrations, …).
    #[must_use]
    pub fn ordering(&self) -> &O {
        &self.ordering
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

    /// Resets the ordering's instrumentation counters (not the contents).
    pub fn reset_instrumentation(&mut self) {
        self.ordering.reset_instrumentation();
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

    /// Whether `key` is resident. Does not update recency.
    #[must_use]
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// The slot of resident `key`, as it stands.
    pub(crate) fn slot<Q>(&self, key: &Q) -> Option<&Pair<K, V, O>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.slots.get(*self.map.get(key)?)
    }

    /// Reads `key` without updating recency or priority.
    #[must_use]
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.slot(key).map(|slot| &slot.payload.1)
    }

    /// The hit path: tells the ordering resident `key` was referenced.
    fn hit<Q>(&mut self, key: &Q) -> Option<EntryId>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = *self.map.get(key)?;
        self.ordering.hit(&mut self.slots, id);
        Some(id)
    }

    /// Looks `key` up, updating recency and priority on a hit.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = self.hit(key)?;
        self.slots.get(id).map(|slot| &slot.payload.1)
    }

    /// Like [`Keyed::get`] but returns a mutable reference to the value.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = self.hit(key)?;
        self.slots.get_mut(id).map(|slot| &mut slot.payload.1)
    }

    /// Inserts `key` with the given value, byte size and cost, evicting
    /// pairs in the ordering's order as needed; a resident `key` is
    /// replaced. Evicted pairs are dropped; use
    /// [`Keyed::insert_with_evictions`] to observe them.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn insert(&mut self, key: K, value: V, size: u64, cost: u64) -> InsertOutcome {
        self.insert_with_evictions(key, value, size, cost, &mut Vec::new())
    }

    /// Inserts `key`, appending every evicted `(key, value)` pair to
    /// `evicted`. See [`Keyed::insert`].
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
        self.store(key, value, size, cost, true, |pair| evicted.push(pair))
    }

    /// Makes `key` resident with the given value, size and cost: the
    /// oversize test, then (where the caller has not already seen a miss)
    /// dropping the resident pair, then evicting until it fits, then
    /// admission — in that order.
    fn store(
        &mut self,
        key: K,
        value: V,
        size: u64,
        cost: u64,
        may_be_resident: bool,
        mut evicted: impl FnMut((K, V)),
    ) -> InsertOutcome {
        if size > self.capacity {
            return InsertOutcome::RejectedTooLarge;
        }
        let updating = may_be_resident && self.detach(&key).is_some();
        while self.used + size > self.capacity {
            evicted(self.evict_lowest().expect("byte accounting out of sync"));
        }
        let id = self.slots.insert(Slot {
            payload: (key.clone(), value),
            size,
            cost,
            node: O::Node::default(),
        });
        self.ordering.admit(&mut self.slots, id);
        if let Some(sink) = &self.sink {
            let entry = self.slots.get(id).expect("just inserted");
            sink.record(&self.event(PolicyEventKind::Admit, entry));
        }
        self.map.insert(key, id);
        self.used += size;
        if updating {
            InsertOutcome::Updated
        } else {
            InsertOutcome::Inserted
        }
    }

    /// Evicts the pair the ordering considers least valuable, returning it.
    /// Useful for demoting into a lower cache tier or draining under
    /// external memory pressure.
    pub fn evict_lowest(&mut self) -> Option<(K, V)> {
        let id = self.ordering.evict(&mut self.slots)?;
        let entry = self.slots.remove(id).expect("orderings name live entries");
        self.map.remove(&entry.payload.0);
        self.used -= entry.size;
        if let Some(sink) = &self.sink {
            sink.record(&self.event(PolicyEventKind::Evict, &entry));
        }
        Some(entry.payload)
    }

    /// Changes the byte capacity. Shrinking evicts until the resident set
    /// fits, appending the evicted pairs to `evicted`.
    pub fn resize(&mut self, capacity: u64, evicted: &mut Vec<(K, V)>) {
        self.capacity = capacity;
        while self.used > self.capacity {
            evicted.push(self.evict_lowest().expect("byte accounting out of sync"));
        }
    }

    /// Removes `key` from every structure, handing back its entry.
    fn detach<Q>(&mut self, key: &Q) -> Option<Pair<K, V, O>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let id = self.map.remove(key)?;
        self.ordering.forget(&mut self.slots, id);
        let entry = self.slots.remove(id).expect("live entry");
        self.used -= entry.size;
        Some(entry)
    }

    /// Removes `key`, returning its value if it was resident.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.detach(key).map(|entry| entry.payload.1)
    }

    /// The key next in line for eviction, if any.
    #[must_use]
    pub fn victim(&self) -> Option<&K> {
        let id = self.ordering.victim(&self.slots)?;
        self.slots.get(id).map(|entry| &entry.payload.0)
    }

    /// Iterates over `(key, value, slot)` for every resident pair, in
    /// unspecified order; the slot carries size, cost and the ordering's
    /// per-pair state.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, &Pair<K, V, O>)> + '_ {
        self.slots
            .iter()
            .map(|(_, slot)| (&slot.payload.0, &slot.payload.1, slot))
    }

    /// Removes every pair. The ordering's clock (`L`), its instrumentation
    /// counters and the trace sink stay as they are.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.ordering.clear();
        self.used = 0;
    }

    /// The trace event for `entry` as the ordering stands now.
    fn event(&self, kind: PolicyEventKind, entry: &Pair<K, V, O>) -> PolicyEvent {
        let (ratio, queue, l_value) = self.ordering.event_fields(&entry.node);
        PolicyEvent {
            kind,
            key_hash: key_hash(&entry.payload.0),
            size: entry.size,
            cost: entry.cost,
            ratio,
            queue,
            l_value,
        }
    }
}

impl<K: CacheKey, O: Ordering> EvictionPolicy<K> for Keyed<K, O> {
    fn name(&self) -> String {
        self.ordering.name()
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
        if self.touch(&req.key) {
            return AccessOutcome::Hit;
        }
        let CacheRequest { key, size, cost } = req;
        match self.store(key, (), size, cost, false, |(key, ())| evicted.push(key)) {
            InsertOutcome::RejectedTooLarge => AccessOutcome::MissBypassed,
            _ => AccessOutcome::MissInserted,
        }
    }

    fn touch(&mut self, key: &K) -> bool {
        self.hit(key).is_some()
    }

    fn evict_next(&mut self) -> Option<K> {
        self.evict_lowest().map(|(key, ())| key)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.detach(key).is_some()
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    fn queue_count(&self) -> Option<usize> {
        self.ordering.queue_count()
    }

    fn heap_node_visits(&self) -> Option<u64> {
        self.ordering.heap_node_visits()
    }

    fn heap_update_ops(&self) -> Option<u64> {
        self.ordering.heap_update_ops()
    }

    fn reset_instrumentation(&mut self) {
        self.ordering.reset_instrumentation();
    }

    fn policy_stats(&self) -> PolicyStats {
        let mut stats = PolicyStats::universal(self);
        self.ordering.extend_stats(&self.slots, &mut stats);
        stats
    }
}
