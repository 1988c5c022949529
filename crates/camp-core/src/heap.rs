//! An indexed d-ary implicit min-heap with visit instrumentation.
//!
//! CAMP keeps one heap node per *non-empty LRU queue* (paper Figure 1b) and
//! uses an 8-ary implicit heap, following the empirical recommendation of
//! Larkin, Sen and Tarjan cited by the paper. The same structure, keyed by
//! entry rather than queue, also backs our exact GDS baseline, which is what
//! makes the Figure 4 comparison (heap-node visits of GDS vs CAMP) apples to
//! apples.
//!
//! The heap is *indexed*: every element carries a caller-chosen dense `u32`
//! id, and the heap maintains an id → position map so that the key of any
//! element can be increased, decreased, or removed in O(d·log_d n). Visits to
//! heap nodes during sifting are counted (see [`DaryHeap::node_visits`]),
//! because the paper's Figure 4 reports exactly that quantity.

use std::fmt;

const ABSENT: u32 = u32::MAX;

/// An indexed min-heap with branching factor `D`.
///
/// Elements are `(id, key)` pairs ordered by `key` (ties broken
/// arbitrarily, as in GDS). Ids must be dense small integers chosen by the
/// caller; the position map grows to the largest id seen.
///
/// # Examples
///
/// ```
/// use camp_core::heap::OctonaryHeap;
///
/// let mut heap = OctonaryHeap::new();
/// heap.insert(0, 30u64);
/// heap.insert(1, 10);
/// heap.insert(2, 20);
/// assert_eq!(heap.peek(), Some((1, &10)));
/// heap.update(1, 40); // the queue head got a larger priority
/// assert_eq!(heap.pop(), Some((2, 20)));
/// ```
#[derive(Clone)]
pub struct DaryHeap<K, const D: usize = 8> {
    items: Vec<(u32, K)>,
    positions: Vec<u32>,
    visits: u64,
    update_ops: u64,
}

/// The 8-ary heap configuration used by CAMP (paper §2).
pub type OctonaryHeap<K> = DaryHeap<K, 8>;

/// A binary heap configuration, for the arity ablation.
pub type BinaryHeap2<K> = DaryHeap<K, 2>;

impl<K: Ord, const D: usize> DaryHeap<K, D> {
    /// Creates an empty heap.
    ///
    /// # Panics
    ///
    /// Panics if `D < 2`.
    #[must_use]
    pub fn new() -> Self {
        assert!(D >= 2, "heap branching factor must be at least 2");
        DaryHeap {
            items: Vec::new(),
            positions: Vec::new(),
            visits: 0,
            update_ops: 0,
        }
    }

    /// Creates an empty heap with room for `capacity` elements.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(D >= 2, "heap branching factor must be at least 2");
        DaryHeap {
            items: Vec::with_capacity(capacity),
            positions: Vec::with_capacity(capacity),
            visits: 0,
            update_ops: 0,
        }
    }

    /// Number of elements in the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the heap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether an element with this id is present.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.positions
            .get(id as usize)
            .is_some_and(|&p| p != ABSENT)
    }

    /// The key currently associated with `id`, if present.
    #[must_use]
    pub fn key_of(&self, id: u32) -> Option<&K> {
        let pos = *self.positions.get(id as usize)?;
        if pos == ABSENT {
            None
        } else {
            Some(&self.items[pos as usize].1)
        }
    }

    /// The minimum element, if any: `(id, key)`.
    #[must_use]
    pub fn peek(&self) -> Option<(u32, &K)> {
        self.items.first().map(|(id, k)| (*id, k))
    }

    /// Inserts a new element.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in the heap or equals `u32::MAX`.
    pub fn insert(&mut self, id: u32, key: K) {
        assert_ne!(id, ABSENT, "id u32::MAX is reserved");
        assert!(!self.contains(id), "id {id} already in heap");
        if self.positions.len() <= id as usize {
            self.positions.resize(id as usize + 1, ABSENT);
        }
        let pos = self.items.len();
        self.items.push((id, key));
        self.positions[id as usize] = pos as u32;
        self.update_ops += 1;
        self.sift_up(pos);
    }

    /// Replaces the key of `id`, restoring heap order in either direction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the heap.
    pub fn update(&mut self, id: u32, key: K) {
        let pos = self.position_of(id).expect("update: id not in heap");
        self.update_ops += 1;
        let old = std::mem::replace(&mut self.items[pos].1, key);
        match self.items[pos].1.cmp(&old) {
            std::cmp::Ordering::Less => {
                self.sift_up(pos);
            }
            std::cmp::Ordering::Greater => {
                self.sift_down(pos);
            }
            std::cmp::Ordering::Equal => {
                self.visits += 1;
            }
        }
    }

    /// Removes the element with this id, returning its key.
    pub fn remove(&mut self, id: u32) -> Option<K> {
        let pos = self.position_of(id)?;
        self.update_ops += 1;
        Some(self.remove_at(pos).1)
    }

    /// Removes and returns the minimum element.
    pub fn pop(&mut self) -> Option<(u32, K)> {
        if self.items.is_empty() {
            None
        } else {
            self.update_ops += 1;
            Some(self.remove_at(0))
        }
    }

    /// Removes every element at once. No sift runs, so the visit and
    /// operation counters are untouched.
    pub fn clear(&mut self) {
        self.items.clear();
        self.positions.clear();
    }

    /// Total heap nodes visited by sift operations since construction (or the
    /// last [`DaryHeap::reset_counters`]).
    ///
    /// A "visit" is one examination of a heap slot during a sift: each child
    /// scanned while sifting down, each parent compared while sifting up, and
    /// the slot where the moving element finally lands. This is the quantity
    /// the paper plots in Figure 4.
    #[must_use]
    pub fn node_visits(&self) -> u64 {
        self.visits
    }

    /// Number of structural heap operations (insert/update/remove/pop)
    /// performed since construction or the last counter reset.
    #[must_use]
    pub fn update_ops(&self) -> u64 {
        self.update_ops
    }

    /// Resets the visit and operation counters to zero.
    pub fn reset_counters(&mut self) {
        self.visits = 0;
        self.update_ops = 0;
    }

    /// Iterates over `(id, &key)` in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &K)> + '_ {
        self.items.iter().map(|(id, k)| (*id, k))
    }

    fn position_of(&self, id: u32) -> Option<usize> {
        let pos = *self.positions.get(id as usize)?;
        if pos == ABSENT {
            None
        } else {
            Some(pos as usize)
        }
    }

    fn remove_at(&mut self, pos: usize) -> (u32, K) {
        let last = self.items.len() - 1;
        self.items.swap(pos, last);
        let (id, key) = self.items.pop().expect("remove_at: non-empty");
        self.positions[id as usize] = ABSENT;
        if pos <= last && pos < self.items.len() {
            self.positions[self.items[pos].0 as usize] = pos as u32;
            // The swapped-in element may need to move either way.
            let moved_up = self.sift_up(pos);
            if !moved_up {
                self.sift_down(pos);
            }
        }
        (id, key)
    }

    /// Returns whether the element moved.
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let start = pos;
        self.visits += 1; // the slot we start from
        while pos > 0 {
            let parent = (pos - 1) / D;
            self.visits += 1;
            if self.items[pos].1 < self.items[parent].1 {
                self.items.swap(pos, parent);
                self.positions[self.items[pos].0 as usize] = pos as u32;
                self.positions[self.items[parent].0 as usize] = parent as u32;
                pos = parent;
            } else {
                break;
            }
        }
        pos != start
    }

    fn sift_down(&mut self, mut pos: usize) -> bool {
        let start = pos;
        let len = self.items.len();
        self.visits += 1;
        loop {
            let first_child = pos * D + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + D).min(len);
            let mut best = first_child;
            self.visits += (last_child - first_child) as u64;
            for child in (first_child + 1)..last_child {
                if self.items[child].1 < self.items[best].1 {
                    best = child;
                }
            }
            if self.items[best].1 < self.items[pos].1 {
                self.items.swap(pos, best);
                self.positions[self.items[pos].0 as usize] = pos as u32;
                self.positions[self.items[best].0 as usize] = best as u32;
                pos = best;
            } else {
                break;
            }
        }
        pos != start
    }

    /// Checks every structural invariant of the heap: the d-ary heap order
    /// between each element and its parent, the id → position map agreeing
    /// with the element array in both directions, and the live-handle count
    /// matching the element count.
    ///
    /// Compiles to a no-op in release builds, so callers (and property
    /// tests) can leave it on hot paths unconditionally.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any invariant is violated.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            for (pos, (id, key)) in self.items.iter().enumerate() {
                let mapped = self.positions.get(*id as usize).copied();
                assert_eq!(
                    mapped,
                    Some(pos as u32),
                    "position map for id {id} disagrees with slot {pos}"
                );
                if pos > 0 {
                    let parent = (pos - 1) / D;
                    assert!(
                        self.items[parent].1 <= *key,
                        "heap order violated at pos {pos} (parent {parent})"
                    );
                }
            }
            for (id, &pos) in self.positions.iter().enumerate() {
                if pos != ABSENT {
                    let slot = self.items.get(pos as usize);
                    assert_eq!(
                        slot.map(|(slot_id, _)| *slot_id),
                        Some(id as u32),
                        "position map points id {id} at slot {pos}, which holds another id"
                    );
                }
            }
            let live = self.positions.iter().filter(|&&p| p != ABSENT).count();
            assert_eq!(
                live,
                self.items.len(),
                "live position count disagrees with element count"
            );
        }
    }
}

impl<K: Ord, const D: usize> Default for DaryHeap<K, D> {
    fn default() -> Self {
        DaryHeap::new()
    }
}

impl<K: fmt::Debug, const D: usize> fmt::Debug for DaryHeap<K, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaryHeap")
            .field("arity", &D)
            .field("len", &self.items.len())
            .field("visits", &self.visits)
            .field("items", &self.items)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_pop_sorted_order() {
        let mut heap = OctonaryHeap::new();
        let keys = [50u64, 20, 80, 10, 30, 70, 60, 40, 90, 0];
        for (i, &k) in keys.iter().enumerate() {
            heap.insert(i as u32, k);
            heap.validate();
        }
        let mut out = Vec::new();
        while let Some((_, k)) = heap.pop() {
            heap.validate();
            out.push(k);
        }
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(out, want);
    }

    #[test]
    fn update_increase_and_decrease() {
        let mut heap = OctonaryHeap::new();
        for i in 0..10u32 {
            heap.insert(i, u64::from(i) * 10);
        }
        heap.update(0, 1000); // 0 was the min, push it to the back
        heap.validate();
        assert_eq!(heap.peek(), Some((1, &10)));
        heap.update(9, 0); // 9 becomes the min
        heap.validate();
        assert_eq!(heap.peek(), Some((9, &0)));
        assert_eq!(heap.key_of(0), Some(&1000));
    }

    #[test]
    fn update_equal_key_is_a_noop_in_order() {
        let mut heap = OctonaryHeap::new();
        heap.insert(0, 5u64);
        heap.insert(1, 7);
        heap.update(1, 7);
        heap.validate();
        assert_eq!(heap.peek(), Some((0, &5)));
    }

    #[test]
    fn remove_arbitrary_elements() {
        let mut heap = OctonaryHeap::new();
        for i in 0..20u32 {
            heap.insert(i, u64::from((i * 7) % 20));
        }
        assert_eq!(heap.remove(3), Some(1)); // 3*7 % 20 = 1
        heap.validate();
        assert_eq!(heap.remove(3), None);
        assert!(!heap.contains(3));
        assert_eq!(heap.len(), 19);
        let mut seen = Vec::new();
        while let Some((_, k)) = heap.pop() {
            heap.validate();
            seen.push(k);
        }
        assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(seen.len(), 19);
    }

    #[test]
    fn ids_are_reusable_after_removal() {
        let mut heap = OctonaryHeap::new();
        heap.insert(5, 1u64);
        assert_eq!(heap.remove(5), Some(1));
        heap.insert(5, 2);
        assert_eq!(heap.key_of(5), Some(&2));
    }

    #[test]
    #[should_panic(expected = "already in heap")]
    fn duplicate_id_panics() {
        let mut heap = OctonaryHeap::new();
        heap.insert(1, 1u64);
        heap.insert(1, 2);
    }

    #[test]
    fn visits_grow_with_heap_size() {
        // A sanity check of the Figure 4 instrumentation: sifting through a
        // larger heap must visit more nodes than a tiny one.
        fn churn(n: u32) -> u64 {
            let mut heap = BinaryHeap2::new();
            for i in 0..n {
                heap.insert(i, u64::from(n - i));
            }
            heap.reset_counters();
            for round in 0..1000u64 {
                let (id, _) = heap.pop().unwrap();
                heap.insert(id, round + 1_000_000);
            }
            heap.node_visits()
        }
        let small = churn(8);
        let big = churn(65_536);
        assert!(
            big > small * 2,
            "expected log-scaled visits: small={small} big={big}"
        );
    }

    #[test]
    fn update_ops_counter_counts_operations() {
        let mut heap = OctonaryHeap::new();
        heap.insert(0, 1u64);
        heap.insert(1, 2);
        heap.update(0, 3);
        heap.pop();
        heap.remove(0);
        assert_eq!(heap.update_ops(), 5);
        // `clear` is not a heap operation: no op counted, no node visited.
        heap.insert(0, 4);
        let counters = (heap.update_ops(), heap.node_visits());
        heap.clear();
        assert!(heap.is_empty() && !heap.contains(0));
        assert_eq!((heap.update_ops(), heap.node_visits()), counters);
        heap.insert(0, 5); // ids are free again
        heap.validate();
        heap.reset_counters();
        assert_eq!(heap.update_ops(), 0);
        assert_eq!(heap.node_visits(), 0);
    }

    #[test]
    fn validate_holds_through_mixed_op_churn() {
        // Exhaustive validator sweep: drive every mutating operation in a
        // seeded random interleaving and re-check the full invariant set
        // after each one.
        use crate::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0xCA3F_2014);
        let mut heap = DaryHeap::<u64, 8>::new();
        for _ in 0..20_000 {
            let id = rng.range_u64(0, 96) as u32;
            match rng.range_u64(0, 6) {
                0 | 1 => {
                    if !heap.contains(id) {
                        heap.insert(id, rng.range_u64(0, 1_000));
                    }
                }
                2 => {
                    if heap.contains(id) {
                        heap.update(id, rng.range_u64(0, 1_000));
                    }
                }
                3 => {
                    heap.remove(id);
                }
                4 => {
                    heap.pop();
                }
                _ => {
                    if let Some((min_id, &min_key)) = heap.peek() {
                        assert!(heap.iter().all(|(_, k)| *k >= min_key));
                        assert!(heap.contains(min_id));
                    }
                }
            }
            heap.validate();
        }
    }

    #[test]
    fn randomized_model_check_against_btreemap() {
        // Drive the heap with a deterministic pseudo-random op sequence and
        // mirror it in a model; the min must always agree on key value.
        use std::collections::BTreeMap;
        let mut heap = DaryHeap::<u64, 4>::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5000 {
            let op = rng() % 4;
            let id = (rng() % 64) as u32;
            match op {
                0 => {
                    model.entry(id).or_insert_with(|| {
                        let key = rng() % 1000;
                        heap.insert(id, key);
                        key
                    });
                }
                1 => {
                    if model.contains_key(&id) {
                        let key = rng() % 1000;
                        heap.update(id, key);
                        model.insert(id, key);
                    }
                }
                2 => {
                    assert_eq!(heap.remove(id), model.remove(&id));
                }
                _ => {
                    let heap_min = heap.pop();
                    let model_min = model.iter().min_by_key(|&(_, v)| *v).map(|(&k, &v)| (k, v));
                    match (heap_min, model_min) {
                        (None, None) => {}
                        (Some((_, hk)), Some((_, mv))) => {
                            assert_eq!(hk, mv, "min key mismatch");
                            // Ties are broken arbitrarily, so remove by the
                            // heap's choice.
                            let (hid, _) = heap_min.unwrap();
                            model.remove(&hid);
                        }
                        other => panic!("emptiness mismatch: {other:?}"),
                    }
                }
            }
            heap.validate();
            assert_eq!(heap.len(), model.len());
        }
    }
}
