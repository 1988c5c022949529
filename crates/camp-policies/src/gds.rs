//! Exact Greedy Dual Size (GDS), the algorithm CAMP approximates, and its
//! frequency-aware variant GDSF.
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

use camp_core::arena::EntryId;
use camp_core::heap::OctonaryHeap;
use camp_core::rounding::{Precision, RatioRounder};

use crate::keyed::{Keyed, Ordering, Slots};
use crate::policy::{CacheKey, PolicyStats};

/// Frequencies beyond this no longer raise the priority (overflow guard;
/// in practice hit counts this high mean the pair is effectively pinned
/// until `L` catches up).
const MAX_FREQUENCY: u64 = 1 << 20;

/// Per pair: its integerized ratio and, for GDSF, its reference count.
#[derive(Debug, Default)]
pub struct Priced {
    ratio: u64,
    /// References so far; counted (and used) only under `FREQUENCY`.
    frequency: u64,
}

/// Greedy-dual order: a heap of `H(p) = L + ratio(p)` with one node per
/// pair (heap ids are arena slot indices) and the inflation term `L`. With
/// `FREQUENCY` the ratio is weighted by the pair's reference count — the
/// one thing that separates GDSF from GDS.
#[derive(Debug)]
pub struct GreedyDual<const FREQUENCY: bool> {
    heap: OctonaryHeap<u128>,
    rounder: RatioRounder,
    l: u128,
}

impl<const FREQUENCY: bool> GreedyDual<FREQUENCY> {
    fn rounding_to(precision: Precision) -> Self {
        GreedyDual {
            heap: OctonaryHeap::new(),
            rounder: RatioRounder::new(precision),
            l: 0,
        }
    }

    /// The global inflation term `L` (non-decreasing).
    #[must_use]
    pub fn l_value(&self) -> u128 {
        self.l
    }

    fn priority(&self, node: &Priced) -> u128 {
        let weight = if FREQUENCY {
            node.frequency.min(MAX_FREQUENCY)
        } else {
            1
        };
        self.l + u128::from(node.ratio) * u128::from(weight)
    }
}

impl<const FREQUENCY: bool> Default for GreedyDual<FREQUENCY> {
    fn default() -> Self {
        GreedyDual::rounding_to(Precision::Infinite)
    }
}

impl<const FREQUENCY: bool> Ordering for GreedyDual<FREQUENCY> {
    type Node = Priced;

    fn name(&self) -> String {
        match (FREQUENCY, self.rounder.precision()) {
            (true, _) => "gdsf".to_owned(),
            (false, Precision::Infinite) => "gds".to_owned(),
            (false, p) => format!("gds(p={p})"),
        }
    }

    fn admit<K>(&mut self, slots: &mut Slots<K, Priced>, id: EntryId) {
        let entry = slots.get_mut(id).expect("live entry");
        entry.node = Priced {
            ratio: self.rounder.rounded_ratio(entry.cost, entry.size),
            frequency: 1,
        };
        let priority = self.priority(&entry.node);
        self.heap.insert(id.index(), priority);
    }

    fn hit<K>(&mut self, slots: &mut Slots<K, Priced>, id: EntryId) {
        // Hit: Algorithm 1 line 2 — L <- min_{q in M \ {p}} H(q), then
        // H(p) <- L + ratio(p). Removing p first makes the heap minimum
        // exactly that excluded minimum.
        let idx = id.index();
        self.heap.remove(idx).expect("resident key has a heap node");
        if let Some((_, &min)) = self.heap.peek() {
            debug_assert!(min >= self.l);
            self.l = min;
        }
        let node = &mut slots.get_mut(id).expect("live entry").node;
        if FREQUENCY {
            node.frequency = node.frequency.saturating_add(1);
        }
        let priority = self.priority(node);
        self.heap.insert(idx, priority);
    }

    fn victim<K>(&self, slots: &Slots<K, Priced>) -> Option<EntryId> {
        let (idx, _) = self.heap.peek()?;
        slots.id_at(idx)
    }

    fn forget<K>(&mut self, _slots: &mut Slots<K, Priced>, id: EntryId) {
        self.heap.remove(id.index());
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    fn evict<K>(&mut self, slots: &mut Slots<K, Priced>) -> Option<EntryId> {
        let (idx, h) = self.heap.pop()?;
        // Algorithm 1 line 6: L <- min over the remaining pairs.
        let new_l = self.heap.peek().map_or(h, |(_, &min)| min);
        debug_assert!(new_l >= self.l);
        self.l = new_l;
        slots.id_at(idx)
    }

    fn event_fields(&self, node: &Priced) -> (u64, u32, u64) {
        (node.ratio, 0, u64::try_from(self.l).unwrap_or(u64::MAX))
    }

    // No `queue_count`: a greedy-dual cache has no queues; its heap has one
    // node per resident pair.

    fn heap_node_visits(&self) -> Option<u64> {
        Some(self.heap.node_visits())
    }

    fn heap_update_ops(&self) -> Option<u64> {
        Some(self.heap.update_ops())
    }

    fn reset_instrumentation(&mut self) {
        self.heap.reset_counters();
    }

    fn extend_stats<K>(&self, _slots: &Slots<K, Priced>, stats: &mut PolicyStats) {
        stats.push("l_value", u64::try_from(self.l).unwrap_or(u64::MAX));
    }
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
pub type Gds<K = u64> = Keyed<K, GreedyDual<false>>;

/// GDSF — Greedy Dual Size *Frequency* (Cherkasova), the GDS variant
/// deployed in the Squid web proxy.
///
/// GDSF extends GDS's priority with an access-frequency factor:
/// `H(p) = L + freq(p) · cost(p) / size(p)`. Frequently re-referenced pairs
/// climb faster, which protects hot small objects beyond what recency alone
/// gives. The CAMP paper's lineage (Greedy Dual → GDS → CAMP) makes GDSF
/// the natural "what if we also track frequency" comparison point, so it is
/// provided as an extension baseline. Frequencies are capped to keep the
/// priority arithmetic exact.
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
pub type Gdsf<K = u64> = Keyed<K, GreedyDual<true>>;

/// `Gds::with_precision`. A trait because [`Keyed`] is `camp-core`'s type:
/// its aliases cannot carry inherent functions in this crate.
pub trait WithPrecision {
    /// Creates a GDS cache that rounds ratios to `precision` — useful for
    /// isolating the effect of rounding from CAMP's queue structure.
    /// ([`Gds::new`] is exact: [`Precision::Infinite`].)
    #[must_use]
    fn with_precision(capacity: u64, precision: Precision) -> Self;
}

impl<K: CacheKey> WithPrecision for Gds<K> {
    fn with_precision(capacity: u64, precision: Precision) -> Self {
        Keyed::with_ordering(capacity, GreedyDual::rounding_to(precision))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

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
            assert!(gds.ordering().l_value() >= last);
            last = gds.ordering().l_value();
        }
    }

    #[test]
    fn victim_is_minimum_priority() {
        let mut gds = Gds::new(30);
        touch(&mut gds, 1, 10, 100);
        touch(&mut gds, 2, 10, 1);
        touch(&mut gds, 3, 10, 50);
        assert_eq!(gds.victim(), Some(&2));
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

#[cfg(test)]
mod gdsf_tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

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
            assert!(c.ordering().l_value() >= last);
            last = c.ordering().l_value();
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
        touch(&mut c, 2, 40, 10);
        touch(&mut c, 3, 40, 10);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        // 1 now sits at L + 3 * ratio. At frequency 1 (plain GDS) it would
        // tie with key 4 and be gone by the fourth of these admissions.
        for k in 4..=7 {
            touch(&mut c, k, 40, 10);
        }
        assert!(c.contains(&1));
    }

    #[test]
    fn victim_is_minimum_priority() {
        let mut c = Gdsf::new(120);
        touch(&mut c, 1, 40, 100);
        touch(&mut c, 2, 40, 1);
        touch(&mut c, 3, 40, 50);
        assert_eq!(c.victim(), Some(&2));
    }

    #[test]
    fn oversized_bypasses() {
        let mut c = Gdsf::new(100);
        let (out, _) = touch(&mut c, 1, 101, 5);
        assert_eq!(out, AccessOutcome::MissBypassed);
    }
}
