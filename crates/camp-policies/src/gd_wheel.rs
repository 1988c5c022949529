//! GD-Wheel (Li & Cox, LADIS'13): the other GDS approximation.
//!
//! The paper's §5 contrasts CAMP with GD-Wheel, which rounds the *overall
//! priority* of each pair and stores pairs in hierarchical cost wheels —
//! timing-wheel-like arrays of queues. Finding the minimum costs O(1)
//! amortized, but when a lower wheel completes a rotation the entries of the
//! next higher-wheel slot must be *migrated* down and re-bucketed, a
//! procedure CAMP avoids entirely (CAMP's rounded cost-to-size ratio never
//! changes while a pair is resident). This implementation exists so that the
//! migration overhead and the approximation behaviour can be measured
//! against CAMP — see [`Migrations::migrations`].
//!
//! Structure: `LEVELS` wheels of `W = 256` slots. A pair with priority
//! (deadline) `d` lives on the wheel whose base-256 digit is the highest one
//! in which `d` differs from the global clock `L`; within the wheel it sits
//! in the slot indexed by that digit. Eviction scans wheel 0 from the hand
//! forward; when every low slot is empty, the next non-empty higher-wheel
//! slot is migrated down, advancing `L`.

use camp_core::arena::EntryId;
use camp_core::lru_list::{Linked, Links, LruList};
use camp_core::rounding::{Precision, RatioRounder};

use crate::keyed::{Keyed, Ordering, Slots};
use crate::policy::{CacheKey, PolicyStats};

const WHEEL_BITS: u32 = 8;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS; // 256
/// 8 levels x 8 bits: the full `u64` priority space, so the clock can never
/// saturate within a feasible trace (saturation would degenerate the wheel
/// into near-LRU, a failure mode long high-cost traces would otherwise hit).
const LEVELS: usize = 8;

/// Per pair: its priority and where it is bucketed.
#[derive(Debug, Default)]
pub struct Spoke {
    ratio: u64,
    deadline: u64,
    level: u8,
    slot: u16,
    links: Links,
}

impl Linked for Spoke {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// GD-Wheel's order: hierarchical cost wheels around the clock `L`.
#[derive(Debug)]
pub struct Wheels {
    /// `LEVELS * WHEEL_SLOTS` LRU queues, row-major by level.
    buckets: Vec<LruList>,
    rounder: RatioRounder,
    l: u64,
    migrations: u64,
}

impl Default for Wheels {
    fn default() -> Self {
        Wheels {
            buckets: vec![LruList::new(); LEVELS * WHEEL_SLOTS],
            rounder: RatioRounder::new(Precision::Infinite),
            l: 0,
            migrations: 0,
        }
    }
}

impl Wheels {
    /// The global clock (non-decreasing).
    #[must_use]
    pub fn l_value(&self) -> u64 {
        self.l
    }

    fn digit(value: u64, level: usize) -> usize {
        ((value >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize
    }

    /// The wheel level for a deadline: the highest base-256 digit in which
    /// it differs from the clock (stale deadlines map to level 0).
    #[inline] // not generic, but called from code instantiated downstream
    fn level_for(&self, deadline: u64) -> usize {
        let diff = deadline ^ self.l;
        if diff == 0 || deadline <= self.l {
            return 0;
        }
        let high_bit = 63 - diff.leading_zeros();
        ((high_bit / WHEEL_BITS) as usize).min(LEVELS - 1)
    }

    fn place<P>(&mut self, slots: &mut Slots<P, Spoke>, id: EntryId) {
        let node = &mut slots.get_mut(id).expect("live entry").node;
        let level = self.level_for(node.deadline);
        let slot = if node.deadline <= self.l {
            // Stale entry: first in line at the current hand.
            Self::digit(self.l, 0)
        } else {
            Self::digit(node.deadline, level)
        };
        node.level = level as u8;
        node.slot = slot as u16;
        self.buckets[level * WHEEL_SLOTS + slot].push_back(slots, id);
    }

    /// The first non-empty bucket in clock order, if any: `(level, index)`.
    fn next_bucket(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let hand = Self::digit(self.l, level);
            for off in 0..WHEEL_SLOTS {
                let index = level * WHEEL_SLOTS + (hand + off) % WHEEL_SLOTS;
                if !self.buckets[index].is_empty() {
                    return Some((level, index));
                }
            }
        }
        None
    }
}

impl<K> Ordering<K> for Wheels {
    type Node = Spoke;

    fn name(&self) -> String {
        "gd-wheel".to_owned()
    }

    fn admit<P>(&mut self, slots: &mut Slots<P, Spoke>, id: EntryId) {
        let entry = slots.get_mut(id).expect("live entry");
        entry.node.ratio = self.rounder.rounded_ratio(entry.cost, entry.size);
        entry.node.deadline = self.l.saturating_add(entry.node.ratio);
        self.place(slots, id);
    }

    fn hit<P>(&mut self, slots: &mut Slots<P, Spoke>, id: EntryId) {
        // Hit: refresh the deadline and re-bucket (O(1), no migration).
        Ordering::<K>::forget(self, slots, id);
        let node = &mut slots.get_mut(id).expect("live entry").node;
        node.deadline = self.l.saturating_add(node.ratio);
        self.place(slots, id);
    }

    fn victim<P>(&self, slots: &Slots<P, Spoke>) -> Option<EntryId> {
        let (level, index) = self.next_bucket()?;
        let bucket = &self.buckets[index];
        if level == 0 {
            return bucket.front();
        }
        // A higher-level slot would be migrated first; its earliest-deadline
        // entry is the one the clock advances to.
        bucket
            .iter(slots)
            .min_by_key(|&id| slots.get(id).map(|e| e.node.deadline))
    }

    fn forget<P>(&mut self, slots: &mut Slots<P, Spoke>, id: EntryId) {
        let node = &slots.get(id).expect("live entry").node;
        let index = node.level as usize * WHEEL_SLOTS + node.slot as usize;
        self.buckets[index].unlink(slots, id);
    }

    fn evict<P>(&mut self, slots: &mut Slots<P, Spoke>) -> Option<EntryId> {
        loop {
            let (level, index) = self.next_bucket()?;
            if level == 0 {
                let id = self.buckets[index].pop_front(slots)?;
                self.l = self.l.max(slots.get(id)?.node.deadline);
                return Some(id);
            }
            // Migration: advance the clock to the earliest deadline in the
            // slot, then re-bucket every entry one level down.
            let ids: Vec<EntryId> = self.buckets[index].iter(slots).collect();
            let min_deadline = ids
                .iter()
                .filter_map(|&id| slots.get(id).map(|e| e.node.deadline))
                .min()
                .expect("non-empty slot");
            self.l = self.l.max(min_deadline);
            self.migrations += ids.len() as u64;
            for id in ids {
                self.buckets[index].unlink(slots, id);
                self.place(slots, id);
            }
        }
    }

    fn clear(&mut self) {
        self.buckets.fill(LruList::new());
    }

    /// The trace `queue` field carries the entry's wheel level.
    fn event_fields(&self, node: &Spoke) -> (u64, u32, u64) {
        (node.ratio, u32::from(node.level), self.l)
    }

    fn extend_stats<P>(&self, _slots: &Slots<P, Spoke>, stats: &mut PolicyStats) {
        stats.push("l_value", self.l);
    }
}

/// The GD-Wheel replacement policy.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, GdWheel};
///
/// let mut wheel = GdWheel::new(100);
/// let mut evicted = Vec::new();
/// wheel.reference(CacheRequest::new(1, 50, 10_000), &mut evicted); // expensive
/// wheel.reference(CacheRequest::new(2, 50, 1), &mut evicted);      // cheap
/// wheel.reference(CacheRequest::new(3, 50, 1), &mut evicted);
/// assert_eq!(evicted, vec![2]); // the cheap pair went first
/// ```
pub type GdWheel<K = u64> = Keyed<K, Wheels>;

/// `GdWheel::migrations`. A trait because [`Keyed`] is `camp-core`'s type:
/// its aliases cannot carry inherent methods in this crate.
pub trait Migrations {
    /// Total entries migrated between wheels so far — the overhead CAMP's
    /// design eliminates (§5).
    #[must_use]
    fn migrations(&self) -> u64;
}

impl<K: CacheKey> Migrations for GdWheel<K> {
    fn migrations(&self) -> u64 {
        self.ordering().migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AccessOutcome, CacheRequest, EvictionPolicy};

    fn touch(c: &mut GdWheel, key: u64, size: u64, cost: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = c.reference(CacheRequest::new(key, size, cost), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn cheap_pairs_evict_before_expensive() {
        let mut c = GdWheel::new(100);
        touch(&mut c, 1, 10, 10_000);
        for k in 2..40 {
            touch(&mut c, k, 10, 1);
        }
        assert!(c.contains(&1));
    }

    #[test]
    fn expensive_pairs_age_out_eventually() {
        let mut c = GdWheel::new(100);
        touch(&mut c, 999, 10, 2_000);
        let mut key = 1000;
        for _ in 0..100_000 {
            key += 1;
            touch(&mut c, key, 10, 1);
            if !c.contains(&999) {
                return;
            }
        }
        panic!("expensive pair never aged out under GD-Wheel");
    }

    #[test]
    fn migrations_happen_for_spread_priorities() {
        let mut c = GdWheel::new(200);
        // Priorities spanning several wheel levels force migrations as the
        // clock catches up.
        let mut key = 0u64;
        for round in 0..5_000u64 {
            key += 1;
            let cost = match round % 4 {
                0 => 1,
                1 => 300,
                2 => 70_000,
                _ => 20,
            };
            touch(&mut c, key, 10, cost);
        }
        assert!(c.migrations() > 0, "expected wheel migrations");
    }

    #[test]
    fn clock_is_non_decreasing() {
        let mut c = GdWheel::new(100);
        let mut last = 0;
        let mut state = 5u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            touch(&mut c, state % 50, 5 + state % 10, 1 + state % 1000);
            assert!(c.ordering().l_value() >= last);
            last = c.ordering().l_value();
        }
    }

    #[test]
    fn capacity_respected() {
        let mut c = GdWheel::new(73);
        let mut state = 5u64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            touch(&mut c, state % 40, 1 + state % 20, 1 + state % 100);
            assert!(c.used_bytes() <= 73);
        }
    }

    #[test]
    fn hit_refreshes_deadline() {
        let mut c = GdWheel::new(30);
        touch(&mut c, 1, 10, 5);
        touch(&mut c, 2, 10, 5);
        touch(&mut c, 3, 10, 5);
        // Refresh 1: it should now outlive 2.
        let (out, _) = touch(&mut c, 1, 10, 5);
        assert_eq!(out, AccessOutcome::Hit);
        let (_, ev) = touch(&mut c, 4, 10, 5);
        assert_eq!(ev, vec![2]);
        assert!(c.contains(&1));
    }

    #[test]
    fn touch_and_victim() {
        let mut c = GdWheel::new(30);
        touch(&mut c, 1, 10, 5);
        touch(&mut c, 2, 10, 5);
        touch(&mut c, 3, 10, 5);
        assert!(EvictionPolicy::touch(&mut c, &1));
        assert!(!EvictionPolicy::touch(&mut c, &9));
        // The victim matches the next actual eviction.
        let expected = c.victim().copied();
        let (_, ev) = touch(&mut c, 4, 10, 5);
        assert_eq!(expected, ev.first().copied());
    }

    #[test]
    fn clock_does_not_saturate_on_long_high_cost_traces() {
        // Regression: with 32-bit wheels the clock saturated after a few
        // hundred expensive evictions, collapsing every priority into one
        // slot. With the full u64 space the wheel must keep discriminating
        // costs arbitrarily deep into the trace.
        let mut c = GdWheel::new(100);
        let mut key = 0u64;
        for _ in 0..20_000 {
            key += 1;
            touch(&mut c, key, 10, 10_000_000); // very expensive churn
        }
        assert!(
            c.ordering().l_value() < u64::MAX / 2,
            "clock saturating: {}",
            c.ordering().l_value()
        );
        // Cost discrimination still works at this point.
        key += 1;
        let expensive = key;
        touch(&mut c, expensive, 10, 100_000_000_000);
        for _ in 0..50 {
            key += 1;
            touch(&mut c, key, 10, 1);
        }
        assert!(c.contains(&expensive), "late-trace cost blindness");
    }

    #[test]
    fn remove_works() {
        let mut c = GdWheel::new(30);
        touch(&mut c, 1, 10, 5);
        assert!(EvictionPolicy::remove(&mut c, &1));
        assert!(!EvictionPolicy::remove(&mut c, &1));
        assert_eq!(c.used_bytes(), 0);
    }
}
