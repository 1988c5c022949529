//! A generational slab arena backing CAMP's intrusive LRU queues.
//!
//! Entries in a CAMP cache are linked into doubly-linked queues. Rather than
//! reference-counted cells or raw pointers, entries live in a `Vec`-backed
//! arena and link to each other through [`EntryId`]s — a (slot index,
//! generation) pair. Freed slots are recycled through a free list; the
//! generation counter is bumped on every removal so a stale `EntryId` can
//! never silently alias a recycled slot.

use std::fmt;

/// A handle to an entry stored in an [`Arena`].
///
/// Handles are `Copy` and cheap to pass around. A handle obtained from
/// [`Arena::insert`] stays valid until the entry is removed; after that,
/// looking it up returns `None` even if the slot has been reused.
///
/// # Examples
///
/// ```
/// use camp_core::arena::Arena;
///
/// let mut arena = Arena::new();
/// let id = arena.insert("hello");
/// assert_eq!(arena.get(id), Some(&"hello"));
/// arena.remove(id);
/// assert_eq!(arena.get(id), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId {
    index: u32,
    generation: u32,
}

impl EntryId {
    /// The slot index within the arena: dense, recycled, and unique among
    /// live entries ([`Arena::id_at`] maps it back to the handle).
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation the handle was minted at. Only meaningful for
    /// diagnostics.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Debug for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EntryId({}v{})", self.index, self.generation)
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab arena with generational handles.
///
/// Insertions return an [`EntryId`]; removals recycle the slot but invalidate
/// every outstanding handle to it. All operations are O(1).
///
/// # Examples
///
/// ```
/// use camp_core::arena::Arena;
///
/// let mut arena = Arena::new();
/// let a = arena.insert(1);
/// let b = arena.insert(2);
/// assert_eq!(arena.len(), 2);
/// assert_eq!(arena.remove(a), Some(1));
/// // The slot is recycled, but `a` no longer resolves.
/// let c = arena.insert(3);
/// assert_eq!(arena.get(a), None);
/// assert_eq!(arena.get(c), Some(&3));
/// assert_eq!(arena.get(b), Some(&2));
/// ```
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots allocated (live + recyclable).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a value, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> EntryId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            EntryId {
                index,
                generation: slot.generation,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena exceeded u32::MAX slots");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            EntryId {
                index,
                generation: 0,
            }
        }
    }

    /// Removes the entry behind `id`, returning it, or `None` if the handle
    /// is stale or was never valid.
    pub fn remove(&mut self, id: EntryId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }

    /// Returns a reference to the entry behind `id`, or `None` if stale.
    #[must_use]
    pub fn get(&self, id: EntryId) -> Option<&T> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Returns a mutable reference to the entry behind `id`, or `None` if
    /// stale.
    pub fn get_mut(&mut self, id: EntryId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Whether `id` still resolves to a live entry.
    #[must_use]
    pub fn contains(&self, id: EntryId) -> bool {
        self.get(id).is_some()
    }

    /// The handle of the live entry in slot `index`, if that slot holds one
    /// — the way back from a dense `u32` name (a heap id, say) taken with
    /// [`EntryId::index`] to the generation-checked handle.
    #[must_use]
    pub fn id_at(&self, index: u32) -> Option<EntryId> {
        let slot = self.slots.get(index as usize)?;
        slot.value.as_ref().map(|_| EntryId {
            index,
            generation: slot.generation,
        })
    }

    /// Returns references to two *distinct* entries at once.
    ///
    /// Useful when re-linking list neighbours. Returns `None` if either
    /// handle is stale.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` refer to the same slot.
    pub fn get2_mut(&mut self, a: EntryId, b: EntryId) -> Option<(&mut T, &mut T)> {
        assert_ne!(a.index, b.index, "get2_mut requires distinct entries");
        let (ai, bi) = (a.index as usize, b.index as usize);
        let (low, high, swapped) = if ai < bi {
            (ai, bi, false)
        } else {
            (bi, ai, true)
        };
        if high >= self.slots.len() {
            return None;
        }
        let (head, tail) = self.slots.split_at_mut(high);
        let low_slot = &mut head[low];
        let high_slot = &mut tail[0];
        let (a_slot, b_slot) = if swapped {
            (high_slot, low_slot)
        } else {
            (low_slot, high_slot)
        };
        if a_slot.generation != a.generation || b_slot.generation != b.generation {
            return None;
        }
        match (a_slot.value.as_mut(), b_slot.value.as_mut()) {
            (Some(x), Some(y)) => Some((x, y)),
            _ => None,
        }
    }

    /// Iterates over `(EntryId, &T)` for every live entry, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &T)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.value.as_ref().map(|v| {
                (
                    EntryId {
                        index: i as u32,
                        generation: slot.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Checks every structural invariant of the arena: the live count
    /// matches the occupied slots, the free list covers exactly the vacant
    /// slots with no index repeated or out of bounds, and no free-list entry
    /// points at a slot that still holds a value (which would let a future
    /// insert clobber a live entry).
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
            let occupied = self.slots.iter().filter(|s| s.value.is_some()).count();
            assert_eq!(occupied, self.len, "len disagrees with occupied slots");
            assert_eq!(
                self.free.len() + self.len,
                self.slots.len(),
                "free list does not cover every vacant slot"
            );
            let mut seen = vec![false; self.slots.len()];
            for &index in &self.free {
                let slot = self
                    .slots
                    .get(index as usize)
                    .unwrap_or_else(|| panic!("free-list index {index} out of bounds"));
                assert!(
                    slot.value.is_none(),
                    "free-list index {index} points at a live slot"
                );
                assert!(
                    !std::mem::replace(&mut seen[index as usize], true),
                    "free-list index {index} appears twice"
                );
            }
        }
    }

    /// Removes every entry, invalidating all handles.
    pub fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.value.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.len = 0;
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert(10);
        let b = arena.insert(20);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&10));
        assert_eq!(arena.get(b), Some(&20));
        assert_eq!(arena.remove(a), Some(10));
        assert_eq!(arena.remove(a), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn stale_handle_does_not_alias_recycled_slot() {
        let mut arena = Arena::new();
        let a = arena.insert("old");
        arena.remove(a);
        let b = arena.insert("new");
        assert_eq!(b.index(), a.index(), "slot should be recycled");
        assert_ne!(b.generation(), a.generation());
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get_mut(a), None);
        assert!(!arena.contains(a));
        assert_eq!(arena.remove(a), None);
        assert_eq!(arena.get(b), Some(&"new"));
    }

    #[test]
    fn id_at_resolves_live_slots_to_their_current_handle() {
        let mut arena = Arena::new();
        let a = arena.insert("old");
        assert_eq!(arena.id_at(a.index()), Some(a));
        arena.remove(a);
        assert_eq!(arena.id_at(a.index()), None, "vacant slot");
        let b = arena.insert("new");
        assert_eq!(arena.id_at(a.index()), Some(b), "recycled: new generation");
        assert_eq!(arena.id_at(7), None, "never allocated");
    }

    #[test]
    fn get2_mut_returns_both_in_order() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        let b = arena.insert(2);
        {
            let (x, y) = arena.get2_mut(a, b).unwrap();
            assert_eq!((*x, *y), (1, 2));
            *x = 100;
            *y = 200;
        }
        let (y, x) = arena.get2_mut(b, a).unwrap();
        assert_eq!((*y, *x), (200, 100));
    }

    #[test]
    #[should_panic(expected = "distinct entries")]
    fn get2_mut_same_slot_panics() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        let _ = arena.get2_mut(a, a);
    }

    #[test]
    fn get2_mut_stale_returns_none() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        let b = arena.insert(2);
        arena.remove(a);
        assert!(arena.get2_mut(a, b).is_none());
    }

    #[test]
    fn iter_visits_only_live_entries() {
        let mut arena = Arena::new();
        let ids: Vec<_> = (0..5).map(|i| arena.insert(i)).collect();
        arena.remove(ids[1]);
        arena.remove(ids[3]);
        let seen: Vec<i32> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 2, 4]);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut arena = Arena::new();
        let ids: Vec<_> = (0..4).map(|i| arena.insert(i)).collect();
        arena.clear();
        assert!(arena.is_empty());
        for id in ids {
            assert_eq!(arena.get(id), None);
        }
        // Slots are reusable after a clear.
        let id = arena.insert(9);
        assert_eq!(arena.get(id), Some(&9));
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut arena = Arena::new();
        assert!(arena.is_empty());
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(arena.insert(i));
        }
        assert_eq!(arena.len(), 100);
        arena.validate();
        for id in ids.drain(..50) {
            arena.remove(id);
        }
        assert_eq!(arena.len(), 50);
        arena.validate();
        // Reuse recycled slots; slot_count should not grow.
        let before = arena.slot_count();
        for i in 0..50 {
            arena.insert(i);
        }
        assert_eq!(arena.slot_count(), before);
        assert_eq!(arena.len(), 100);
        arena.validate();
    }

    #[test]
    fn validate_holds_through_mixed_op_churn() {
        // Exhaustive validator sweep: inserts, removes (live and stale),
        // clears, and lookups in a seeded random interleaving, mirrored in a
        // model map; the full invariant set is re-checked after every
        // operation.
        use crate::rng::Rng64;
        use std::collections::HashMap;
        let mut rng = Rng64::seed_from_u64(0xA7E4_2014);
        let mut arena: Arena<u64> = Arena::new();
        let mut model: HashMap<EntryId, u64> = HashMap::new();
        let mut retired: Vec<EntryId> = Vec::new();
        for _ in 0..10_000 {
            match rng.range_u64(0, 8) {
                0..=2 => {
                    let value = rng.next_u64();
                    let id = arena.insert(value);
                    assert!(model.insert(id, value).is_none(), "handle reused: {id:?}");
                    assert!(!retired.contains(&id), "stale handle re-minted: {id:?}");
                }
                3 | 4 => {
                    if let Some(&id) = model.keys().next() {
                        assert_eq!(arena.remove(id), model.remove(&id));
                        retired.push(id);
                    }
                }
                5 => {
                    // Removing through a stale handle must be a no-op.
                    if !retired.is_empty() {
                        let pick = rng.range_usize(0, retired.len());
                        assert_eq!(arena.remove(retired[pick]), None);
                    }
                }
                6 => {
                    for (&id, &value) in &model {
                        assert_eq!(arena.get(id), Some(&value));
                    }
                    for &id in &retired {
                        assert_eq!(arena.get(id), None);
                    }
                }
                _ => {
                    if rng.chance(0.05) {
                        arena.clear();
                        retired.extend(model.drain().map(|(id, _)| id));
                    }
                }
            }
            assert_eq!(arena.len(), model.len());
            arena.validate();
        }
    }
}
