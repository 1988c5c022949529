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
//! evicted bytes, as recommended in the original paper. 2Q is an
//! [`Ordering`] on the [`Keyed`] front, which holds the residents and the
//! byte budget.

use camp_core::arena::EntryId;

use crate::keyed::{Budget, Keyed, Ordering, Slots};
use crate::policy::{CacheKey, PolicyStats};
use crate::util::Region::{self, First as A1IN, Second as AM};
use crate::util::{GhostList, Listed, TwoLists};

/// 2Q's order: probation `A1in` — a FIFO: admitted at the back, reclaimed
/// from the front, never moved by a hit — the main LRU `Am`, and the ghost
/// queue `A1out`. Trace events carry the list as `queue` (0 = A1in,
/// 1 = Am).
#[derive(Debug)]
pub struct Probation<K> {
    kin: u64,
    kout: u64,
    lists: TwoLists,
    /// Keys evicted from `A1in`, weighed by their bytes, at most `kout`.
    a1out: GhostList<K>,
    /// The list the arriving pair joins: `Am` if `A1out` remembered it.
    joining: Region,
}

impl<K: CacheKey> Ordering<K> for Probation<K> {
    type Node = Listed;

    fn name(&self) -> String {
        "2q".to_owned()
    }

    fn arrive(&mut self, key: &K, _size: u64, _budget: Budget) {
        self.joining = if self.a1out.remove(key).is_some() {
            AM
        } else {
            A1IN
        };
    }

    fn admit<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        self.lists.push(slots, id, self.joining);
    }

    fn hit<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        // An Am hit is an LRU refresh; the original 2Q leaves A1in
        // references in place (FIFO).
        if slots.get(id).expect("live entry").node.region == AM {
            self.lists.requeue(slots, id, AM);
        }
    }

    /// Prefers the probation FIFO when it is over its threshold (the 2Q
    /// `reclaimfor` routine).
    fn victim<P>(&self, _slots: &Slots<P, Listed>) -> Option<EntryId> {
        let region = if self.lists.bytes(A1IN) > self.kin || self.lists.is_empty(AM) {
            A1IN
        } else {
            AM
        };
        self.lists.front(region)
    }

    fn forget<P>(&mut self, slots: &mut Slots<P, Listed>, id: EntryId) {
        self.lists.unlink(slots, id);
    }

    /// Only probation evictions are remembered: a re-reference soon after
    /// proves the key deserves Am.
    fn evicted(&mut self, key: &K, size: u64, node: Listed) {
        if node.region == A1IN {
            self.a1out.push(key.clone(), size, ());
            self.a1out.trim_to(self.kout);
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

/// The 2Q replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, TwoQ, TwoQCache};
///
/// let mut cache: TwoQ = TwoQ::new(100);
/// let mut evicted = Vec::new();
/// cache.reference(CacheRequest::new(1, 10, 0), &mut evicted);
/// assert!(cache.contains(&1)); // in probation (A1in)
/// ```
pub type TwoQ<K = u64, V = ()> = Keyed<K, Probation<K>, V>;

/// `TwoQ`'s constructors and readers. A trait because [`Keyed`] is
/// `camp-core`'s type: its aliases cannot carry inherent functions in this
/// crate.
pub trait TwoQCache: Sized {
    /// Creates a 2Q cache with the recommended 25%/50% `Kin`/`Kout` split.
    #[must_use]
    fn new(capacity: u64) -> Self {
        Self::with_thresholds(capacity, capacity / 4, capacity / 2)
    }

    /// Creates a 2Q cache with explicit probation (`kin`) and ghost
    /// (`kout`) byte thresholds.
    #[must_use]
    fn with_thresholds(capacity: u64, kin: u64, kout: u64) -> Self;

    /// Bytes currently in the probation queue.
    #[must_use]
    fn a1in_bytes(&self) -> u64;

    /// Number of keys remembered in the ghost queue.
    #[must_use]
    fn a1out_len(&self) -> usize;
}

impl<K: CacheKey, V> TwoQCache for TwoQ<K, V> {
    fn with_thresholds(capacity: u64, kin: u64, kout: u64) -> Self {
        Keyed::with_ordering(
            capacity,
            Probation {
                kin,
                kout,
                lists: TwoLists::default(),
                a1out: GhostList::default(),
                joining: A1IN,
            },
        )
    }

    fn a1in_bytes(&self) -> u64 {
        self.ordering().lists.bytes(A1IN)
    }

    fn a1out_len(&self) -> usize {
        self.ordering().a1out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

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
        let region = c
            .iter()
            .find(|(key, ..)| **key == 1)
            .map(|(.., slot)| slot.node.region);
        assert_eq!(region, Some(AM));
        assert_eq!(c.a1in_bytes(), 30);
    }

    /// A ghost hit hands the key's bytes back to `A1out`, so round after
    /// round the newest probation victim is still remembered.
    #[test]
    fn ghost_hits_leave_a1out_its_full_budget() {
        let mut c = TwoQ::new(100); // Kin 25, Kout 50: five 10-byte ghosts.
        let mut next = 0;
        for round in 1..=6 {
            // Fresh keys until probation has evicted five of them.
            let mut victims = Vec::new();
            while victims.len() < 5 {
                let (_, evicted) = touch(&mut c, next);
                next += 1;
                victims.extend(evicted);
            }
            // Then the newest victim again: remembered, so it joins Am.
            let newest = *victims.last().unwrap();
            touch(&mut c, newest);
            let region = c
                .iter()
                .find(|(key, ..)| **key == newest)
                .map(|(.., slot)| slot.node.region);
            assert_eq!(region, Some(AM), "round {round}: {newest} missed A1out");
            assert_eq!(c.a1out_len(), 5, "after round {round}");
        }
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
