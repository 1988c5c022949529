//! Small shared internals for the policy implementations.

use camp_core::arena::{Arena, EntryId};
use camp_core::lru_list::{Linked, Links, LruList};

/// A key threaded on an intrusive [`LruList`]: the node ARC's and 2Q's
/// regions are made of.
#[derive(Debug)]
pub(crate) struct KeyNode<K> {
    pub(crate) key: K,
    links: Links,
}

impl<K> Linked for KeyNode<K> {
    fn links(&self) -> &Links {
        &self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// Appends `key` at the back (MRU end) of `list`, returning its handle.
pub(crate) fn push_key<K>(arena: &mut Arena<KeyNode<K>>, list: &mut LruList, key: K) -> EntryId {
    let id = arena.insert(KeyNode {
        key,
        links: Links::new(),
    });
    list.push_back(arena, id);
    id
}

/// Allocates dense `u32` ids with recycling, for use as heap ids.
#[derive(Debug, Default)]
pub(crate) struct IdAllocator {
    next: u32,
    free: Vec<u32>,
}

impl IdAllocator {
    pub(crate) fn allocate(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            id
        } else {
            let id = self.next;
            self.next = self.next.checked_add(1).expect("id space exhausted");
            id
        }
    }

    pub(crate) fn release(&mut self, id: u32) {
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_dense_and_recycles() {
        let mut alloc = IdAllocator::default();
        assert_eq!(alloc.allocate(), 0);
        assert_eq!(alloc.allocate(), 1);
        assert_eq!(alloc.allocate(), 2);
        alloc.release(1);
        assert_eq!(alloc.allocate(), 1);
        assert_eq!(alloc.allocate(), 3);
    }
}
