//! The keyed front: the one cache body shared by every policy whose only
//! difference is the *order* it evicts in.
//!
//! The paper's evaluation is a controlled experiment — the same cache around
//! a different priority structure (§2–§3, Fig 4). [`Keyed`] is that cache,
//! written once: key map, arena of resident pairs, byte budget, oversize
//! bypass, evict-until-it-fits loop, trace events and the whole
//! [`EvictionPolicy`] surface. What varies is an `Ordering` (crate-private;
//! the set is closed): recency ([`crate::Lru`]), greedy-dual priority
//! ([`crate::Gds`], [`crate::Gdsf`]), frequency ([`crate::Lfu`]) or cost
//! wheels ([`crate::GdWheel`]).
//!
//! Orderings are handle-native: they are told which [`EntryId`] was
//! admitted, hit or forgotten, answer with the `EntryId` to evict, keep
//! their per-pair state in the pair's own slot, and never see a key — so a
//! caller holding the `EntryId` could drive one with no key lookup at all.

// `Keyed` is public and its ordering parameter is sealed: the bounds name a
// crate-private trait on purpose.
#![allow(private_bounds)]

use std::fmt::Debug;

use camp_core::arena::{Arena, EntryId};
use camp_core::hash::FoldHashMap;

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};

/// One resident pair: what the front accounts and reports, plus the
/// ordering's own per-pair state.
#[derive(Debug)]
pub(crate) struct Slot<K, N> {
    key: K,
    pub(crate) size: u64,
    /// Reported in trace events; only cost-aware orderings read it.
    pub(crate) cost: u64,
    pub(crate) node: N,
}

/// The arena an ordering's handles point into.
pub(crate) type Slots<K, N> = Arena<Slot<K, N>>;

/// An eviction order over the pairs resident in a [`Keyed`] cache. Methods
/// name a pair by its [`EntryId`]; `K` is a type parameter they cannot look
/// inside.
pub(crate) trait Ordering: Debug + Default {
    /// Per-pair state, stored in the pair's slot.
    type Node: Debug + Default;

    /// The policy name this ordering gives its cache.
    fn name(&self) -> String;

    /// A pair was just inserted (with a default node): fill the node in from
    /// the slot's size and cost and link it into the order.
    fn admit<K>(&mut self, slots: &mut Slots<K, Self::Node>, id: EntryId);

    /// A resident pair was referenced.
    fn hit<K>(&mut self, slots: &mut Slots<K, Self::Node>, id: EntryId);

    /// The pair that would be evicted next, without changing anything.
    fn victim<K>(&self, slots: &Slots<K, Self::Node>) -> Option<EntryId>;

    /// Unlinks a pair that is leaving for any reason other than this
    /// ordering's own choice (explicit delete, eviction picked by the caller).
    fn forget<K>(&mut self, slots: &mut Slots<K, Self::Node>, id: EntryId);

    /// Chooses the next victim and unlinks it. Orderings with a clock (`L`)
    /// override this to advance it; for the rest an eviction is just
    /// forgetting the victim.
    fn evict<K>(&mut self, slots: &mut Slots<K, Self::Node>) -> Option<EntryId> {
        let id = self.victim(slots)?;
        self.forget(slots, id);
        Some(id)
    }

    /// What a trace event about `node` carries beyond size and cost:
    /// `(ratio, queue, l_value)`.
    fn event_fields(&self, _node: &Self::Node) -> (u64, u32, u64) {
        (0, 0, 0)
    }

    // `EvictionPolicy`'s instrumentation hooks, answered by the ordering.
    fn queue_count(&self) -> Option<usize> {
        None
    }
    fn heap_node_visits(&self) -> Option<u64> {
        None
    }
    fn heap_update_ops(&self) -> Option<u64> {
        None
    }
    fn reset_instrumentation(&mut self) {}
}

/// A byte-budgeted cache keyed by `K`, evicting in the order `O` keeps. Used
/// (and shown) through its aliases: [`crate::Lru`], [`crate::Gds`],
/// [`crate::Gdsf`], [`crate::Lfu`], [`crate::GdWheel`].
#[derive(Debug)]
pub struct Keyed<K, O: Ordering> {
    map: FoldHashMap<K, EntryId>,
    slots: Slots<K, O::Node>,
    pub(crate) ordering: O,
    capacity: u64,
    used: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey, O: Ordering> Keyed<K, O> {
    /// Creates an empty cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Keyed {
            map: FoldHashMap::default(),
            slots: Arena::new(),
            ordering: O::default(),
            capacity,
            used: 0,
            sink: None,
        }
    }

    /// The key next in line for eviction, if any.
    #[must_use]
    pub fn victim(&self) -> Option<K> {
        let id = self.ordering.victim(&self.slots)?;
        self.slots.get(id).map(|entry| entry.key.clone())
    }

    /// The trace event for `entry` as the ordering stands now.
    fn event(&self, kind: PolicyEventKind, entry: &Slot<K, O::Node>) -> PolicyEvent {
        let (ratio, queue, l_value) = self.ordering.event_fields(&entry.node);
        PolicyEvent {
            kind,
            key_hash: key_hash(&entry.key),
            size: entry.size,
            cost: entry.cost,
            ratio,
            queue,
            l_value,
        }
    }

    fn evict_one(&mut self, evicted: &mut Vec<K>) -> bool {
        let Some(id) = self.ordering.evict(&mut self.slots) else {
            return false;
        };
        let entry = self.slots.remove(id).expect("orderings name live entries");
        self.map.remove(&entry.key);
        self.used -= entry.size;
        if let Some(sink) = &self.sink {
            sink.record(&self.event(PolicyEventKind::Evict, &entry));
        }
        evicted.push(entry.key);
        true
    }

    /// Removes `key` from every structure, handing back its entry.
    fn detach(&mut self, key: &K) -> Option<Slot<K, O::Node>> {
        let id = self.map.remove(key)?;
        self.ordering.forget(&mut self.slots, id);
        let entry = self.slots.remove(id).expect("live entry");
        self.used -= entry.size;
        Some(entry)
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
        if req.size > self.capacity {
            return AccessOutcome::MissBypassed;
        }
        while self.used + req.size > self.capacity {
            let ok = self.evict_one(evicted);
            debug_assert!(ok, "byte accounting out of sync");
        }
        let id = self.slots.insert(Slot {
            key: req.key.clone(),
            size: req.size,
            cost: req.cost,
            node: O::Node::default(),
        });
        self.ordering.admit(&mut self.slots, id);
        if let Some(sink) = &self.sink {
            let entry = self.slots.get(id).expect("just inserted");
            sink.record(&self.event(PolicyEventKind::Admit, entry));
        }
        self.map.insert(req.key, id);
        self.used += req.size;
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        let Some(&id) = self.map.get(key) else {
            return false;
        };
        self.ordering.hit(&mut self.slots, id);
        true
    }

    fn victim(&self) -> Option<K> {
        Keyed::victim(self)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.detach(key).is_some()
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink;
    }

    fn trace_sink(&self) -> Option<&SharedTraceSink> {
        self.sink.as_ref()
    }

    fn eviction_event(&self, key: &K) -> Option<PolicyEvent> {
        let entry = self.slots.get(*self.map.get(key)?)?;
        Some(self.event(PolicyEventKind::Evict, entry))
    }

    /// One probe: the event is built from the entry the lookup removed.
    fn evict(&mut self, key: &K) -> bool {
        let Some(entry) = self.detach(key) else {
            return false;
        };
        if let Some(sink) = &self.sink {
            sink.record(&self.event(PolicyEventKind::Evict, &entry));
        }
        true
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
}

#[cfg(test)]
mod tests {
    use camp_core::Precision;

    use crate::{EvictionMode, EvictionPolicy, Gds};

    /// `STAT policy:<i>:*` lines and `camp_policy_*` samples are rendered
    /// from these names in this order: they are published vocabulary.
    #[test]
    fn names_and_gauge_order_are_the_published_ones() {
        const BASE: [&str; 3] = ["items", "used_bytes", "capacity_bytes"];
        let published: [(&str, &str, &[&str]); 5] = [
            ("lru", "lru", &["queue_count"]),
            ("gds", "gds", &["heap_visits", "heap_updates"]),
            ("gdsf", "gdsf", &["heap_visits", "heap_updates"]),
            ("lfu", "lfu", &["heap_visits"]),
            ("gd-wheel", "gd-wheel", &[]),
        ];
        for (mode, name, extra) in published {
            let policy = mode.parse::<EvictionMode>().unwrap().build::<u64>(1 << 10);
            assert_eq!(policy.name(), name);
            let gauges: Vec<&str> = policy
                .policy_stats()
                .gauges
                .iter()
                .map(|g| g.name)
                .collect();
            assert_eq!(gauges, [&BASE[..], extra].concat(), "{mode}");
        }
        let rounded: Gds = Gds::with_precision(1 << 10, Precision::Bits(5));
        assert_eq!(rounded.name(), "gds(p=5)");
    }
}
