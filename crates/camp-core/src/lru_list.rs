//! Intrusive doubly-linked LRU queues over an [`Arena`].
//!
//! Each CAMP queue (Figure 2 of the paper) is an [`LruList`]: a head/tail
//! pair of [`EntryId`]s whose `prev`/`next` links live *inside* the arena
//! entries, via the [`Linked`] trait. Many lists can share one arena, which
//! is exactly how CAMP stores one LRU queue per rounded cost-to-size ratio
//! without per-queue allocations. All operations are O(1).

use crate::arena::{Arena, EntryId};

/// The intrusive `prev`/`next` links embedded in each list node.
///
/// # Examples
///
/// ```
/// use camp_core::lru_list::{Linked, Links};
///
/// struct Node {
///     payload: u32,
///     links: Links,
/// }
///
/// impl Linked for Node {
///     fn links(&self) -> &Links { &self.links }
///     fn links_mut(&mut self) -> &mut Links { &mut self.links }
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Links {
    prev: Option<EntryId>,
    next: Option<EntryId>,
}

impl Links {
    /// Fresh, unlinked links.
    #[must_use]
    pub fn new() -> Self {
        Links::default()
    }

    /// The predecessor (towards the LRU end), if any.
    #[must_use]
    pub fn prev(&self) -> Option<EntryId> {
        self.prev
    }

    /// The successor (towards the MRU end), if any.
    #[must_use]
    pub fn next(&self) -> Option<EntryId> {
        self.next
    }
}

/// Implemented by arena entries that participate in an [`LruList`].
pub trait Linked {
    /// Shared access to the embedded links.
    fn links(&self) -> &Links;
    /// Mutable access to the embedded links.
    fn links_mut(&mut self) -> &mut Links;
}

/// Bare links are their own node: an entry that is nothing but its links.
impl Linked for Links {
    fn links(&self) -> &Links {
        self
    }
    fn links_mut(&mut self) -> &mut Links {
        self
    }
}

/// A doubly-linked queue of arena entries, LRU at the front.
///
/// The list stores only head/tail/len; the links live inside the entries, so
/// every operation takes the arena as an explicit argument. An entry must be
/// in at most one list at a time — the caller (CAMP) guarantees this by
/// tracking each entry's queue.
///
/// # Examples
///
/// ```
/// use camp_core::arena::Arena;
/// use camp_core::lru_list::{Linked, Links, LruList};
///
/// struct Node { name: &'static str, links: Links }
/// impl Linked for Node {
///     fn links(&self) -> &Links { &self.links }
///     fn links_mut(&mut self) -> &mut Links { &mut self.links }
/// }
///
/// let mut arena = Arena::new();
/// let mut list = LruList::new();
/// let a = arena.insert(Node { name: "a", links: Links::new() });
/// let b = arena.insert(Node { name: "b", links: Links::new() });
/// list.push_back(&mut arena, a);
/// list.push_back(&mut arena, b);
/// assert_eq!(list.front(), Some(a)); // least recently used
/// list.move_to_back(&mut arena, a);  // a was referenced again
/// assert_eq!(list.front(), Some(b));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruList {
    head: Option<EntryId>,
    tail: Option<EntryId>,
    len: usize,
}

impl LruList {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        LruList::default()
    }

    /// Number of entries in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The least-recently-used entry (the eviction candidate), if any.
    #[must_use]
    pub fn front(&self) -> Option<EntryId> {
        self.head
    }

    /// The most-recently-used entry, if any.
    #[must_use]
    pub fn back(&self) -> Option<EntryId> {
        self.tail
    }

    /// Appends `id` at the MRU end.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale. In debug builds, also panics if `id` already
    /// carries links (i.e. is still a member of some list).
    pub fn push_back<T: Linked>(&mut self, arena: &mut Arena<T>, id: EntryId) {
        let old_tail = self.tail;
        {
            let entry = arena.get_mut(id).expect("push_back: stale entry id");
            debug_assert_eq!(
                *entry.links(),
                Links::default(),
                "entry is already linked into a list"
            );
            entry.links_mut().prev = old_tail;
            entry.links_mut().next = None;
        }
        if let Some(tail) = old_tail {
            arena
                .get_mut(tail)
                .expect("push_back: stale tail")
                .links_mut()
                .next = Some(id);
        } else {
            self.head = Some(id);
        }
        self.tail = Some(id);
        self.len += 1;
    }

    /// Unlinks `id` from the list (it may be anywhere in the list).
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or not a member of this list (detected via
    /// head/tail bookkeeping in the boundary cases).
    pub fn unlink<T: Linked>(&mut self, arena: &mut Arena<T>, id: EntryId) {
        let (prev, next) = {
            let entry = arena.get_mut(id).expect("unlink: stale entry id");
            let links = entry.links_mut();
            let pair = (links.prev, links.next);
            *links = Links::default();
            pair
        };
        match prev {
            Some(p) => {
                arena
                    .get_mut(p)
                    .expect("unlink: stale prev link")
                    .links_mut()
                    .next = next;
            }
            None => {
                assert_eq!(self.head, Some(id), "unlink: entry not in this list");
                self.head = next;
            }
        }
        match next {
            Some(n) => {
                arena
                    .get_mut(n)
                    .expect("unlink: stale next link")
                    .links_mut()
                    .prev = prev;
            }
            None => {
                assert_eq!(self.tail, Some(id), "unlink: entry not in this list");
                self.tail = prev;
            }
        }
        self.len -= 1;
    }

    /// Removes and returns the LRU entry, if any.
    pub fn pop_front<T: Linked>(&mut self, arena: &mut Arena<T>) -> Option<EntryId> {
        let id = self.head?;
        self.unlink(arena, id);
        Some(id)
    }

    /// Moves `id` to the MRU end — the "KVS hit" motion of the paper's
    /// Figure 3b.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale or not a member of this list.
    pub fn move_to_back<T: Linked>(&mut self, arena: &mut Arena<T>, id: EntryId) {
        if self.tail == Some(id) {
            return;
        }
        self.unlink(arena, id);
        self.push_back(arena, id);
    }

    /// Checks every structural invariant of the list against the arena the
    /// links live in: the forward and backward walks visit the same entries
    /// in opposite order, every `prev`/`next` pair agrees, the walk length
    /// matches [`LruList::len`], the boundary links are `None`, and the walk
    /// terminates (no cycle can hide, because it is bounded by `len`).
    ///
    /// Compiles to a no-op in release builds, so callers (and property
    /// tests) can leave it on hot paths unconditionally.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any invariant is violated, including when a
    /// linked entry no longer resolves in `arena`.
    pub fn validate<T: Linked>(&self, arena: &Arena<T>) {
        #[cfg(not(debug_assertions))]
        let _ = arena;
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.head.is_none(),
                self.len == 0,
                "head/len disagree about emptiness"
            );
            assert_eq!(
                self.tail.is_none(),
                self.len == 0,
                "tail/len disagree about emptiness"
            );
            let mut forward = Vec::with_capacity(self.len);
            let mut cursor = self.head;
            let mut prev: Option<EntryId> = None;
            while let Some(id) = cursor {
                assert!(
                    forward.len() < self.len,
                    "forward walk exceeds len {}: cycle or stray link at {id:?}",
                    self.len
                );
                let entry = arena
                    .get(id)
                    .unwrap_or_else(|| panic!("linked entry {id:?} is stale in the arena"));
                assert_eq!(
                    entry.links().prev(),
                    prev,
                    "prev link of {id:?} disagrees with the forward walk"
                );
                forward.push(id);
                prev = Some(id);
                cursor = entry.links().next();
            }
            assert_eq!(forward.len(), self.len, "forward walk shorter than len");
            assert_eq!(
                forward.last().copied(),
                self.tail,
                "tail is not the last entry"
            );
            let mut backward = Vec::with_capacity(self.len);
            let mut cursor = self.tail;
            while let Some(id) = cursor {
                assert!(
                    backward.len() < self.len,
                    "backward walk exceeds len {}: cycle or stray link at {id:?}",
                    self.len
                );
                backward.push(id);
                cursor = arena
                    .get(id)
                    .unwrap_or_else(|| panic!("linked entry {id:?} is stale in the arena"))
                    .links()
                    .prev();
            }
            backward.reverse();
            assert_eq!(forward, backward, "forward and backward walks disagree");
        }
    }

    /// Iterates LRU→MRU over the entry ids.
    pub fn iter<'a, T: Linked>(&self, arena: &'a Arena<T>) -> Iter<'a, T> {
        Iter {
            arena,
            next: self.head,
            remaining: self.len,
        }
    }
}

/// Iterator over an [`LruList`], front (LRU) to back (MRU).
#[derive(Debug)]
pub struct Iter<'a, T> {
    arena: &'a Arena<T>,
    next: Option<EntryId>,
    remaining: usize,
}

impl<'a, T: Linked> Iterator for Iter<'a, T> {
    type Item = EntryId;

    fn next(&mut self) -> Option<EntryId> {
        let id = self.next?;
        let entry = self.arena.get(id)?;
        self.next = entry.links().next();
        self.remaining -= 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Node {
        value: u32,
        links: Links,
    }

    impl Linked for Node {
        fn links(&self) -> &Links {
            &self.links
        }
        fn links_mut(&mut self) -> &mut Links {
            &mut self.links
        }
    }

    fn node(value: u32) -> Node {
        Node {
            value,
            links: Links::new(),
        }
    }

    fn contents(list: &LruList, arena: &Arena<Node>) -> Vec<u32> {
        list.validate(arena);
        list.iter(arena)
            .map(|id| arena.get(id).unwrap().value)
            .collect()
    }

    #[test]
    fn push_back_preserves_order() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        for v in 1..=4 {
            let id = arena.insert(node(v));
            list.push_back(&mut arena, id);
        }
        assert_eq!(contents(&list, &arena), vec![1, 2, 3, 4]);
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn pop_front_is_fifo() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        let ids: Vec<_> = (1..=3)
            .map(|v| {
                let id = arena.insert(node(v));
                list.push_back(&mut arena, id);
                id
            })
            .collect();
        assert_eq!(list.pop_front(&mut arena), Some(ids[0]));
        assert_eq!(list.pop_front(&mut arena), Some(ids[1]));
        assert_eq!(list.pop_front(&mut arena), Some(ids[2]));
        assert_eq!(list.pop_front(&mut arena), None);
        assert!(list.is_empty());
    }

    #[test]
    fn unlink_middle_front_back() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        let ids: Vec<_> = (1..=5)
            .map(|v| {
                let id = arena.insert(node(v));
                list.push_back(&mut arena, id);
                id
            })
            .collect();
        list.unlink(&mut arena, ids[2]); // middle
        assert_eq!(contents(&list, &arena), vec![1, 2, 4, 5]);
        list.unlink(&mut arena, ids[0]); // front
        assert_eq!(contents(&list, &arena), vec![2, 4, 5]);
        assert_eq!(list.front(), Some(ids[1]));
        list.unlink(&mut arena, ids[4]); // back
        assert_eq!(contents(&list, &arena), vec![2, 4]);
        assert_eq!(list.back(), Some(ids[3]));
    }

    #[test]
    fn move_to_back_models_a_hit() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        let ids: Vec<_> = (1..=3)
            .map(|v| {
                let id = arena.insert(node(v));
                list.push_back(&mut arena, id);
                id
            })
            .collect();
        list.move_to_back(&mut arena, ids[0]);
        assert_eq!(contents(&list, &arena), vec![2, 3, 1]);
        // Moving the tail is a no-op.
        list.move_to_back(&mut arena, ids[0]);
        assert_eq!(contents(&list, &arena), vec![2, 3, 1]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn singleton_list_edge_cases() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        let id = arena.insert(node(7));
        list.push_back(&mut arena, id);
        assert_eq!(list.front(), Some(id));
        assert_eq!(list.back(), Some(id));
        list.move_to_back(&mut arena, id);
        assert_eq!(list.front(), Some(id));
        assert_eq!(list.pop_front(&mut arena), Some(id));
        assert_eq!(list.front(), None);
        assert_eq!(list.back(), None);
    }

    #[test]
    fn entries_can_migrate_between_lists() {
        let mut arena = Arena::new();
        let mut a = LruList::new();
        let mut b = LruList::new();
        let id = arena.insert(node(1));
        a.push_back(&mut arena, id);
        a.unlink(&mut arena, id);
        b.push_back(&mut arena, id);
        assert!(a.is_empty());
        assert_eq!(b.front(), Some(id));
    }

    #[test]
    fn many_lists_share_one_arena() {
        let mut arena = Arena::new();
        let mut lists = [LruList::new(); 4];
        let mut expect: Vec<Vec<u32>> = vec![Vec::new(); 4];
        for v in 0..100u32 {
            let q = (v % 4) as usize;
            let id = arena.insert(node(v));
            lists[q].push_back(&mut arena, id);
            expect[q].push(v);
        }
        for q in 0..4 {
            assert_eq!(contents(&lists[q], &arena), expect[q]);
        }
    }

    #[test]
    fn validate_holds_through_mixed_op_churn() {
        // Exhaustive validator sweep: several lists share one arena (as
        // CAMP's per-ratio queues do) while entries are pushed, touched,
        // migrated, and evicted in a seeded random interleaving; the full
        // invariant set is re-checked after every operation.
        use crate::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x10C4_2014);
        let mut arena: Arena<Node> = Arena::new();
        let mut lists = [LruList::new(); 3];
        let mut members: Vec<Vec<EntryId>> = vec![Vec::new(); 3];
        for step in 0..8_000u32 {
            let q = rng.range_usize(0, 3);
            match rng.range_u64(0, 5) {
                0 | 1 => {
                    let id = arena.insert(node(step));
                    lists[q].push_back(&mut arena, id);
                    members[q].push(id);
                }
                2 => {
                    if !members[q].is_empty() {
                        let pick = rng.range_usize(0, members[q].len());
                        lists[q].move_to_back(&mut arena, members[q][pick]);
                    }
                }
                3 => {
                    if let Some(id) = lists[q].pop_front(&mut arena) {
                        members[q].retain(|&m| m != id);
                        arena.remove(id);
                    }
                }
                _ => {
                    // Migrate a random member to another queue, the CAMP
                    // "cost changed" motion.
                    if !members[q].is_empty() {
                        let pick = rng.range_usize(0, members[q].len());
                        let id = members[q].swap_remove(pick);
                        let to = rng.range_usize(0, 3);
                        lists[q].unlink(&mut arena, id);
                        lists[to].push_back(&mut arena, id);
                        members[to].push(id);
                    }
                }
            }
            for (list, expected) in lists.iter().zip(&members) {
                list.validate(&arena);
                assert_eq!(list.len(), expected.len());
            }
            arena.validate();
        }
        let linked: usize = members.iter().map(Vec::len).sum();
        assert_eq!(
            arena.len(),
            linked,
            "arena holds exactly the linked entries"
        );
    }

    #[test]
    #[should_panic(expected = "stale entry id")]
    fn push_back_stale_panics() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        let id = arena.insert(node(1));
        arena.remove(id);
        list.push_back(&mut arena, id);
    }

    #[test]
    fn iter_size_hint_is_exact() {
        let mut arena = Arena::new();
        let mut list = LruList::new();
        for v in 0..10 {
            let id = arena.insert(node(v));
            list.push_back(&mut arena, id);
        }
        let iter = list.iter(&arena);
        assert_eq!(iter.size_hint(), (10, Some(10)));
        assert_eq!(iter.count(), 10);
    }
}
