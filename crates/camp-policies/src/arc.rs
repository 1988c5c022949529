//! ARC — the Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//!
//! The self-tuning recency/frequency policy from the paper's related work
//! (§5). ARC splits residents into a recency list `T1` (seen once recently)
//! and a frequency list `T2` (seen at least twice), shadowed by ghost lists
//! `B1`/`B2` that remember recently evicted keys. Hits on the ghosts move
//! the adaptation target `p` — the byte budget of `T1` — toward whichever
//! list is proving valuable.
//!
//! The original operates on fixed-size pages; the CAMP setting has
//! variable-size values, so this implementation generalizes all list budgets
//! and the parameter `p` to bytes. The adaptation deltas scale with the
//! request's size, the byte analogue of the original's `max(1, |B2|/|B1|)`
//! page deltas. Like LRU and LRU-K — and unlike CAMP — ARC is cost-blind,
//! which is why the paper positions it as complementary rather than
//! competing.
//!
//! ARC is an [`Ordering`] on the [`Keyed`] front: the front holds the
//! residents and the byte budget, [`Adaptive`] the lists, the ghosts and `p`.

use camp_core::arena::EntryId;

use crate::keyed::{Budget, Keyed, Ordering, Slots};
use crate::policy::{CacheKey, PolicyStats};
use crate::util::Region::{self, First as T1, Second as T2};
use crate::util::{GhostList, Listed, TwoLists};

/// ARC's order: the lists `T1` and `T2`, the ghosts `B1` and `B2`, and the
/// adaptation target `p`. Trace events carry the list as `queue` (0 = T1,
/// 1 = T2).
#[derive(Debug)]
pub struct Adaptive<K> {
    p: u64,
    lists: TwoLists,
    b1: GhostList<K>,
    b2: GhostList<K>,
    /// The list the arriving pair joins, chosen from the ghosts on arrival.
    joining: Region,
}

impl<K: CacheKey> Default for Adaptive<K> {
    fn default() -> Self {
        Adaptive {
            p: 0,
            lists: TwoLists::default(),
            b1: GhostList::default(),
            b2: GhostList::default(),
            joining: T1,
        }
    }
}

impl<K> Adaptive<K> {
    /// How far a ghost hit of `size` bytes in a ghost list of `hit` bytes
    /// (its own included) moves `p`, the other ghost list holding `other`:
    /// `size · max(1, other) / hit`, and at least `size`.
    fn delta(size: u64, hit: u64, other: u64) -> u64 {
        let delta = u128::from(size) * u128::from(other.max(1)) / u128::from(hit);
        (delta as u64).max(size)
    }

    /// The list the ARC `REPLACE` subroutine, generalized to bytes, evicts
    /// from: `T1` if it is over target, else `T2`.
    fn replace_from(&self) -> Region {
        if (!self.lists.is_empty(T1) && self.lists.bytes(T1) > self.p) || self.lists.is_empty(T2) {
            T1
        } else {
            T2
        }
    }
}

impl<K: CacheKey> Ordering<K> for Adaptive<K> {
    type Node = Listed;

    fn name(&self) -> String {
        "arc".to_owned()
    }

    fn arrive(&mut self, key: &K, size: u64, budget: Budget) {
        let (b1, b2) = (self.b1.weight(), self.b2.weight());
        self.joining = if self.b1.remove(key).is_some() {
            // Case II: ghost hit in B1 — recency is winning, grow p.
            self.p = (self.p + Self::delta(size, b1, b2)).min(budget.capacity);
            T2
        } else if self.b2.remove(key).is_some() {
            // Case III: ghost hit in B2 — frequency is winning, shrink p.
            self.p = self.p.saturating_sub(Self::delta(size, b2, b1));
            T2
        } else {
            // Case IV: brand new key — admit into T1.
            T1
        };
    }

    /// Keeps the ghost directories within the classic ARC bounds,
    /// `t1 + b1 <= c` and `t1 + t2 + b1 + b2 <= 2c` (in bytes), as they
    /// stand once `admit` has put the pair on its list.
    fn admitting<P>(
        &mut self,
        slots: &mut Slots<P, Listed>,
        id: EntryId,
        _key: &K,
        budget: Budget,
    ) {
        let size = slots.get(id).expect("live entry").size;
        let t1 = self.lists.bytes(T1) + if self.joining == T1 { size } else { 0 };
        self.b1.trim_to(budget.capacity.saturating_sub(t1));
        // Over the directory bound, B2's oldest go before B1's.
        let room = (2 * budget.capacity).saturating_sub(budget.used);
        self.b2.trim_to(room.saturating_sub(self.b1.weight()));
        self.b1.trim_to(room.saturating_sub(self.b2.weight()));
    }

    fn admit<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        self.lists.push(slots, id, self.joining);
    }

    /// Case I: a hit in T1 or T2 moves the pair to T2's MRU end.
    fn hit<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        self.lists.requeue(slots, id, T2);
    }

    fn victim<P>(&self, _slots: &Slots<P, Listed>) -> Option<EntryId> {
        self.lists.front(self.replace_from())
    }

    fn forget<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        self.lists.unlink(slots, id);
    }

    /// `REPLACE` records its victim in the ghost list matching its list.
    fn evicted(&mut self, key: &K, size: u64, node: Listed) {
        match node.region {
            T1 => self.b1.push(key.clone(), size, ()),
            T2 => self.b2.push(key.clone(), size, ()),
        }
    }

    fn clear(&mut self) {
        self.lists = TwoLists::default();
    }

    fn event_fields(&self, node: &Listed) -> (u64, u32, u64) {
        (0, node.region as u32, 0)
    }

    fn extend_stats<P>(&self, _slots: &Slots<P, Listed>, stats: &mut PolicyStats) {
        stats.push("queue_count", 2);
    }
}

/// The ARC replacement policy, generalized to byte sizes.
///
/// # Examples
///
/// ```
/// use camp_policies::{Arc, CacheRequest, EvictionPolicy};
///
/// let mut cache: Arc = Arc::new(100);
/// let mut evicted = Vec::new();
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted); // promotes to T2
/// assert!(cache.contains(&1));
/// ```
pub type Arc<K = u64, V = ()> = Keyed<K, Adaptive<K>, V>;

/// `Arc::p_target` and `Arc::region_bytes`. A trait because [`Keyed`] is
/// `camp-core`'s type: its aliases cannot carry inherent methods in this
/// crate.
pub trait ArcCache {
    /// The current adaptation target: the byte budget ARC aims to give the
    /// recency list `T1`.
    #[must_use]
    fn p_target(&self) -> u64;

    /// Resident bytes in `T1` and `T2` respectively.
    #[must_use]
    fn region_bytes(&self) -> (u64, u64);
}

impl<K: CacheKey, V> ArcCache for Arc<K, V> {
    fn p_target(&self) -> u64 {
        self.ordering().p
    }

    fn region_bytes(&self) -> (u64, u64) {
        let lists = &self.ordering().lists;
        (lists.bytes(T1), lists.bytes(T2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

    fn touch(c: &mut Arc, key: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = c.reference(CacheRequest::new(key, 10, 0), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn second_reference_promotes_to_t2() {
        let mut c = Arc::new(100);
        touch(&mut c, 1);
        assert_eq!(c.region_bytes(), (10, 0));
        touch(&mut c, 1);
        assert_eq!(c.region_bytes(), (0, 10));
    }

    #[test]
    fn capacity_respected_under_churn() {
        let mut c = Arc::new(55);
        let mut state = 1u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            touch(&mut c, state % 30);
            assert!(c.used_bytes() <= 55);
            let (t1, t2) = c.region_bytes();
            assert_eq!(t1 + t2, c.used_bytes());
        }
    }

    #[test]
    fn scan_does_not_flush_frequent_set() {
        let mut c = Arc::new(100);
        // Build a frequent set in T2.
        for _ in 0..5 {
            for k in 0..5 {
                touch(&mut c, k);
            }
        }
        // Scan 100 one-timers.
        for k in 1000..1100 {
            touch(&mut c, k);
        }
        let survivors = (0..5).filter(|&k| c.contains(&k)).count();
        assert!(survivors >= 3, "scan displaced the hot set: {survivors}/5");
    }

    #[test]
    fn b1_ghost_hit_grows_p() {
        let mut c = Arc::new(50);
        // Fill T1 and push keys into B1.
        for k in 0..10 {
            touch(&mut c, k);
        }
        let p_before = c.p_target();
        // Key 0 is long gone from T1 but remembered in B1.
        assert!(!c.contains(&0));
        touch(&mut c, 0);
        assert!(c.p_target() >= p_before, "B1 hit must not shrink p");
        assert!(c.contains(&0));
    }

    #[test]
    fn touch_promotes_and_evict_next_remembers_like_replace() {
        let mut c = Arc::new(100);
        touch(&mut c, 1);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert_eq!(c.region_bytes(), (0, 10));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        touch(&mut c, 2);
        // REPLACE takes T1's LRU (T1 is over its zero target) into B1, then
        // T2's into B2: the ghosts a reference-driven eviction leaves.
        assert_eq!(c.evict_next(), Some(2));
        assert!(c.ordering().b1.holds(&2) && !c.contains(&2));
        assert_eq!(c.evict_next(), Some(1));
        assert!(c.ordering().b2.holds(&1) && !c.contains(&1));
        assert_eq!((c.evict_next(), c.used_bytes()), (None, 0));
        // The B1 ghost comes back straight into T2.
        touch(&mut c, 2);
        assert_eq!(c.region_bytes(), (0, 10));
    }

    #[test]
    fn remove_from_both_regions() {
        let mut c = Arc::new(100);
        touch(&mut c, 1); // T1
        touch(&mut c, 2);
        touch(&mut c, 2); // T2
        assert!(EvictionPolicy::remove(&mut c, &1));
        assert!(EvictionPolicy::remove(&mut c, &2));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.region_bytes(), (0, 0));
        assert!(!EvictionPolicy::remove(&mut c, &1));
    }

    #[test]
    fn ghost_lists_stay_bounded() {
        let mut c = Arc::new(50);
        for k in 0..10_000 {
            touch(&mut c, k);
        }
        let arc = c.ordering();
        assert!(arc.b1.weight() + c.used_bytes() <= 50);
        assert!(arc.b1.weight() + arc.b2.weight() + c.used_bytes() <= 100);
    }

    #[test]
    fn oversized_bypasses() {
        let mut c: Arc = Arc::new(50);
        let mut ev = Vec::new();
        let out = c.reference(CacheRequest::new(1, 51, 0), &mut ev);
        assert_eq!(out, AccessOutcome::MissBypassed);
        assert!(c.is_empty());
    }
}
