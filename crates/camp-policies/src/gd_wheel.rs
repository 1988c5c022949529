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
//! against CAMP — see [`GdWheel::migrations`].
//!
//! Structure: `LEVELS` wheels of `W = 256` slots. A pair with priority
//! (deadline) `d` lives on the wheel whose base-256 digit is the highest one
//! in which `d` differs from the global clock `L`; within the wheel it sits
//! in the slot indexed by that digit. Eviction scans wheel 0 from the hand
//! forward; when every low slot is empty, the next non-empty higher-wheel
//! slot is migrated down, advancing `L`.

use camp_core::arena::{Arena, EntryId};
use camp_core::hash::FoldHashMap;
use camp_core::lru_list::{Linked, Links, LruList};
use camp_core::rounding::{Precision, RatioRounder};

use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    SharedTraceSink,
};

const WHEEL_BITS: u32 = 8;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS; // 256
const LEVELS: usize = 8; // 8 levels x 8 bits: the full u64 priority space

#[derive(Debug)]
struct Entry<K> {
    key: K,
    size: u64,
    cost: u64,
    ratio: u64,
    deadline: u64,
    level: u8,
    slot: u16,
    links: Links,
}

impl<K> Linked for Entry<K> {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
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
#[derive(Debug)]
pub struct GdWheel<K = u64> {
    map: FoldHashMap<K, EntryId>,
    arena: Arena<Entry<K>>,
    /// `LEVELS * WHEEL_SLOTS` LRU queues, row-major by level.
    slots: Vec<LruList>,
    rounder: RatioRounder,
    l: u64,
    capacity: u64,
    used: u64,
    migrations: u64,
    sink: Option<SharedTraceSink>,
}

impl<K: CacheKey> GdWheel<K> {
    /// The largest priority the wheels can represent. With eight 8-bit
    /// levels this is the whole `u64` space, so the clock can never
    /// saturate within a feasible trace (saturation would degenerate the
    /// wheel into near-LRU, a failure mode long high-cost traces would
    /// otherwise hit).
    pub const MAX_PRIORITY: u64 = u64::MAX;

    /// Creates a GD-Wheel cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        GdWheel {
            map: FoldHashMap::default(),
            arena: Arena::new(),
            slots: vec![LruList::new(); LEVELS * WHEEL_SLOTS],
            rounder: RatioRounder::new(Precision::Infinite),
            l: 0,
            capacity,
            used: 0,
            migrations: 0,
            sink: None,
        }
    }

    /// Builds the trace event for `entry` at the current clock (the trace
    /// `queue` field carries the entry's wheel level).
    fn event_for(&self, kind: PolicyEventKind, entry: &Entry<K>) -> PolicyEvent {
        PolicyEvent {
            kind,
            key_hash: key_hash(&entry.key),
            size: entry.size,
            cost: entry.cost,
            ratio: entry.ratio,
            queue: u32::from(entry.level),
            l_value: self.l,
        }
    }

    /// Total entries migrated between wheels so far — the overhead CAMP's
    /// design eliminates (§5).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

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
    fn level_for(&self, deadline: u64) -> usize {
        let diff = deadline ^ self.l;
        if diff == 0 || deadline <= self.l {
            return 0;
        }
        let high_bit = 63 - diff.leading_zeros();
        ((high_bit / WHEEL_BITS) as usize).min(LEVELS - 1)
    }

    fn place(&mut self, id: EntryId) {
        let deadline = self.arena.get(id).expect("live entry").deadline;
        let level = self.level_for(deadline);
        let slot = if deadline <= self.l {
            // Stale entry: first in line at the current hand.
            Self::digit(self.l, 0)
        } else {
            Self::digit(deadline, level)
        };
        {
            let entry = self.arena.get_mut(id).expect("live entry");
            entry.level = level as u8;
            entry.slot = slot as u16;
        }
        self.slots[level * WHEEL_SLOTS + slot].push_back(&mut self.arena, id);
    }

    fn unplace(&mut self, id: EntryId) {
        let (level, slot) = {
            let entry = self.arena.get(id).expect("live entry");
            (entry.level as usize, entry.slot as usize)
        };
        self.slots[level * WHEEL_SLOTS + slot].unlink(&mut self.arena, id);
    }

    /// The first non-empty slot in clock order, if any.
    fn next_slot(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let hand = Self::digit(self.l, level);
            for off in 0..WHEEL_SLOTS {
                let slot = (hand + off) % WHEEL_SLOTS;
                if !self.slots[level * WHEEL_SLOTS + slot].is_empty() {
                    return Some((level, slot));
                }
            }
        }
        None
    }

    fn on_hit(&mut self, key: &K) -> bool {
        let Some(&id) = self.map.get(key) else {
            return false;
        };
        // Hit: refresh the deadline and re-bucket (O(1), no migration).
        self.unplace(id);
        let ratio = self.arena.get(id).expect("live entry").ratio;
        let deadline = self.l.saturating_add(ratio);
        self.arena.get_mut(id).expect("live entry").deadline = deadline;
        self.place(id);
        true
    }

    fn evict_one(&mut self, evicted: &mut Vec<K>) -> bool {
        loop {
            let Some((level, slot)) = self.next_slot() else {
                return false;
            };
            if level == 0 {
                let list = &mut self.slots[slot];
                let id = list.pop_front(&mut self.arena).expect("non-empty slot");
                let entry = self.arena.remove(id).expect("live entry");
                self.map.remove(&entry.key);
                self.used -= entry.size;
                self.l = self.l.max(entry.deadline);
                if let Some(sink) = &self.sink {
                    sink.record(&self.event_for(PolicyEventKind::Evict, &entry));
                }
                evicted.push(entry.key);
                return true;
            }
            // Migration: advance the clock to the earliest deadline in the
            // slot, then re-bucket every entry one level down.
            let index = level * WHEEL_SLOTS + slot;
            let ids: Vec<EntryId> = self.slots[index].iter(&self.arena).collect();
            let min_deadline = ids
                .iter()
                .filter_map(|&id| self.arena.get(id).map(|e| e.deadline))
                .min()
                .expect("non-empty slot");
            self.l = self.l.max(min_deadline);
            self.migrations += ids.len() as u64;
            for id in ids {
                self.slots[index].unlink(&mut self.arena, id);
                self.place(id);
            }
        }
    }
}

impl<K: CacheKey> EvictionPolicy<K> for GdWheel<K> {
    fn name(&self) -> String {
        "gd-wheel".to_owned()
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
        if self.on_hit(&req.key) {
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
        let deadline = self.l.saturating_add(ratio);
        let id = self.arena.insert(Entry {
            key: req.key.clone(),
            size: req.size,
            cost: req.cost,
            ratio,
            deadline,
            level: 0,
            slot: 0,
            links: Links::new(),
        });
        self.place(id);
        if let Some(sink) = &self.sink {
            let entry = self.arena.get(id).expect("just inserted");
            sink.record(&self.event_for(PolicyEventKind::Admit, entry));
        }
        self.map.insert(req.key, id);
        self.used += req.size;
        AccessOutcome::MissInserted
    }

    fn touch(&mut self, key: &K) -> bool {
        self.on_hit(key)
    }

    fn victim(&self) -> Option<K> {
        let (level, slot) = self.next_slot()?;
        let list = &self.slots[level * WHEEL_SLOTS + slot];
        if level == 0 {
            return list
                .front()
                .and_then(|id| self.arena.get(id))
                .map(|e| e.key.clone());
        }
        // A higher-level slot would be migrated first; its earliest-deadline
        // entry is the one the clock advances to.
        list.iter(&self.arena)
            .filter_map(|id| self.arena.get(id))
            .min_by_key(|e| e.deadline)
            .map(|e| e.key.clone())
    }

    fn remove(&mut self, key: &K) -> bool {
        let Some(id) = self.map.remove(key) else {
            return false;
        };
        self.unplace(id);
        let entry = self.arena.remove(id).expect("live entry");
        self.used -= entry.size;
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(c.l_value() >= last);
            last = c.l_value();
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
        let expected = EvictionPolicy::victim(&c);
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
            c.l_value() < GdWheel::<u64>::MAX_PRIORITY / 2,
            "clock saturating: {}",
            c.l_value()
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
