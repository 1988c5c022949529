//! Twemcache's slab memory allocator, reproduced from the paper's §5.
//!
//! Memory is divided into fixed-size *slabs* (1 MiB by default). Each slab
//! is assigned to a *slab class* and subdivided into equal chunks; class 1
//! has 120-byte chunks and every subsequent class grows the chunk size by a
//! factor of ~1.25, up to a whole-slab chunk. An item is stored in the
//! smallest class whose chunk fits it.
//!
//! Once assigned, a slab keeps its class — the *calcification* problem the
//! paper describes. The allocator exposes exactly the hooks the store needs
//! to reproduce Twemcache's mitigation: when allocation fails for a class,
//! the store may evict items and retry, or force a *random slab eviction*
//! ([`SlabAllocator::reassign_random_slab`]) that empties a random slab of
//! another class and re-labels it.
//!
//! The store's eviction loop asks for an empty slab of another class
//! ([`SlabAllocator::find_empty_slab_not_of`]) before every eviction step,
//! and under steady pressure there almost never is one. The allocator keeps
//! a count of empty slabs, changed only where a slab's live-chunk count
//! crosses zero (an allocation or a free), so that question costs O(1)
//! whenever the answer is "none"; only a non-zero count walks the slabs.
//! With the class the store already computed, `allocate_in_class` skips
//! the size-to-class search, so the slab layer's share of an evicting set
//! no longer grows with the slab count.

#[cfg(test)]
use std::cell::Cell;
use std::fmt;

use camp_core::rng::Rng64;

/// Configuration of the slab geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabConfig {
    /// Bytes per slab (Twemcache default: 1 MiB).
    pub slab_size: u32,
    /// Chunk size of the smallest class (Twemcache default: 120 bytes).
    pub min_chunk: u32,
    /// Chunk growth factor between classes, in percent (125 = 1.25x).
    pub growth_percent: u32,
    /// Total memory budget, in slabs.
    pub max_slabs: u32,
}

impl SlabConfig {
    /// Twemcache's defaults with the given total memory budget in bytes
    /// (rounded down to whole slabs, minimum one).
    #[must_use]
    pub fn with_memory(bytes: u64) -> Self {
        let slab_size = 1 << 20;
        SlabConfig {
            slab_size,
            min_chunk: 120,
            growth_percent: 125,
            max_slabs: u32::try_from((bytes / u64::from(slab_size)).max(1)).unwrap_or(u32::MAX),
        }
    }

    /// A scaled-down geometry for tests and small experiments.
    #[must_use]
    pub fn small(slab_size: u32, max_slabs: u32) -> Self {
        SlabConfig {
            slab_size,
            min_chunk: 120,
            growth_percent: 125,
            max_slabs,
        }
    }

    /// Computes the chunk sizes of every class under this geometry.
    #[must_use]
    pub fn class_sizes(&self) -> Vec<u32> {
        let mut sizes = Vec::new();
        let mut size = self.min_chunk.max(8);
        while size < self.slab_size {
            sizes.push(size);
            // Grow by the factor, aligned up to 8 bytes like Twemcache.
            let grown = (u64::from(size) * u64::from(self.growth_percent) / 100) as u32;
            size = (grown.max(size + 8) + 7) & !7;
        }
        sizes.push(self.slab_size); // the whole-slab class
        sizes
    }
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig::with_memory(64 << 20)
    }
}

/// A handle to one allocated chunk: `(class, slab, chunk)` coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    class: u8,
    slab: u32,
    chunk: u32,
}

impl ChunkRef {
    /// The slab class this chunk belongs to.
    #[must_use]
    pub fn class(self) -> u8 {
        self.class
    }

    /// The slab index within the allocator.
    #[must_use]
    pub fn slab(self) -> u32 {
        self.slab
    }

    /// The chunk index within its slab.
    #[must_use]
    pub fn chunk(self) -> u32 {
        self.chunk
    }
}

/// Why an allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The item is larger than a whole slab: unstorable under this geometry.
    ItemTooLarge {
        /// The requested item size.
        requested: u32,
        /// The largest storable size.
        max: u32,
    },
    /// No free chunk in the class and the slab budget is exhausted —
    /// the caller should evict (or reassign a slab) and retry.
    NoMemory {
        /// The class that could not be served.
        class: u8,
    },
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SlabError::ItemTooLarge { requested, max } => {
                write!(f, "item of {requested} bytes exceeds the slab size {max}")
            }
            SlabError::NoMemory { class } => {
                write!(
                    f,
                    "no free chunks for slab class {class} and no unassigned slabs"
                )
            }
        }
    }
}

impl std::error::Error for SlabError {}

#[derive(Debug)]
struct Slab {
    class: u8,
    data: Box<[u8]>,
    /// Chunk occupancy; length = chunks per slab for the class.
    used: Vec<bool>,
    used_count: u32,
}

#[derive(Debug, Default)]
struct SlabClass {
    chunk_size: u32,
    slabs: Vec<u32>,
    free: Vec<ChunkRef>,
    items: u64,
}

/// The slab allocator: real backing memory, Twemcache geometry.
///
/// # Examples
///
/// ```
/// use camp_kvs::slab::{SlabAllocator, SlabConfig};
///
/// let mut slabs = SlabAllocator::new(SlabConfig::small(4096, 4));
/// let chunk = slabs.allocate(100)?;
/// slabs.chunk_mut(chunk)[..5].copy_from_slice(b"hello");
/// assert_eq!(&slabs.read(chunk)[..5], b"hello");
/// slabs.free(chunk);
/// # Ok::<(), camp_kvs::slab::SlabError>(())
/// ```
#[derive(Debug)]
pub struct SlabAllocator {
    config: SlabConfig,
    class_sizes: Vec<u32>,
    classes: Vec<SlabClass>,
    slabs: Vec<Slab>,
    /// Slabs whose `used_count` is zero, of any class.
    empty_slabs: u32,
    rng: Rng64,
    slab_evictions: u64,
    /// Slab entries [`SlabAllocator::find_empty_slab_not_of`] has looked
    /// at: the tests' measure of what the lookup costs.
    #[cfg(test)]
    empty_scan_visits: Cell<u64>,
}

impl SlabAllocator {
    /// Creates an allocator with the given geometry.
    #[must_use]
    pub fn new(config: SlabConfig) -> Self {
        let class_sizes = config.class_sizes();
        let classes = class_sizes
            .iter()
            .map(|&chunk_size| SlabClass {
                chunk_size,
                ..SlabClass::default()
            })
            .collect();
        SlabAllocator {
            config,
            class_sizes,
            classes,
            slabs: Vec::new(),
            empty_slabs: 0,
            rng: Rng64::seed_from_u64(0x517AB),
            slab_evictions: 0,
            #[cfg(test)]
            empty_scan_visits: Cell::new(0),
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &SlabConfig {
        &self.config
    }

    /// Number of slab classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_sizes.len()
    }

    /// The smallest class whose chunks fit `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SlabError::ItemTooLarge`] when nothing fits.
    pub fn class_for(&self, size: u32) -> Result<u8, SlabError> {
        match self.class_sizes.iter().position(|&c| c >= size) {
            Some(idx) => Ok(idx as u8),
            None => Err(SlabError::ItemTooLarge {
                requested: size,
                max: self.config.slab_size,
            }),
        }
    }

    /// The chunk size of a class.
    #[must_use]
    pub fn chunk_size(&self, class: u8) -> u32 {
        self.class_sizes[class as usize]
    }

    /// Number of slabs currently allocated.
    #[must_use]
    pub fn slab_count(&self) -> usize {
        self.slabs.len()
    }

    /// How many random slab evictions have been forced so far.
    #[must_use]
    pub fn slab_eviction_count(&self) -> u64 {
        self.slab_evictions
    }

    /// Whether a slab has no live chunks (and can be reassigned).
    #[must_use]
    pub fn slab_is_empty(&self, slab: u32) -> bool {
        self.slabs[slab as usize].used_count == 0
    }

    /// Live items per class (diagnostic, mirrors `stats slabs`).
    #[must_use]
    pub fn class_census(&self) -> Vec<(u32, usize, u64)> {
        self.classes
            .iter()
            .map(|c| (c.chunk_size, c.slabs.len(), c.items))
            .collect()
    }

    /// Allocates a chunk for an item of `size` bytes.
    ///
    /// Follows the paper's protocol: reuse a free chunk of the class, else
    /// assign a fresh slab to the class. Fails with
    /// [`SlabError::NoMemory`] when the budget is exhausted — the caller
    /// evicts and retries, or calls
    /// [`SlabAllocator::reassign_random_slab`].
    ///
    /// # Errors
    ///
    /// [`SlabError::ItemTooLarge`] or [`SlabError::NoMemory`].
    pub fn allocate(&mut self, size: u32) -> Result<ChunkRef, SlabError> {
        let class = self.class_for(size)?;
        self.allocate_in_class(class)
    }

    /// [`SlabAllocator::allocate`] for a class the caller already looked
    /// up with [`SlabAllocator::class_for`].
    ///
    /// # Errors
    ///
    /// [`SlabError::NoMemory`].
    pub(crate) fn allocate_in_class(&mut self, class: u8) -> Result<ChunkRef, SlabError> {
        if self.classes[class as usize].free.is_empty() {
            self.grow_class(class);
        }
        let class_state = &mut self.classes[class as usize];
        let Some(chunk) = class_state.free.pop() else {
            return Err(SlabError::NoMemory { class });
        };
        class_state.items += 1;
        let slab = &mut self.slabs[chunk.slab as usize];
        debug_assert!(!slab.used[chunk.chunk as usize]);
        slab.used[chunk.chunk as usize] = true;
        if slab.used_count == 0 {
            self.empty_slabs -= 1;
        }
        slab.used_count += 1;
        Ok(chunk)
    }

    /// Assigns a brand-new, empty slab to `class` if the budget has room.
    /// Returns whether it did.
    fn grow_class(&mut self, class: u8) -> bool {
        if self.slabs.len() >= self.config.max_slabs as usize {
            return false;
        }
        // The budget is a u32, so an index below it always fits.
        let Ok(slab_index) = u32::try_from(self.slabs.len()) else {
            return false;
        };
        let chunk_size = self.class_sizes[class as usize];
        let chunks = self.config.slab_size / chunk_size;
        self.slabs.push(Slab {
            class,
            data: vec![0u8; self.config.slab_size as usize].into_boxed_slice(),
            used: vec![false; chunks as usize],
            used_count: 0,
        });
        self.empty_slabs += 1;
        let class_state = &mut self.classes[class as usize];
        class_state.slabs.push(slab_index);
        for chunk in (0..chunks).rev() {
            class_state.free.push(ChunkRef {
                class,
                slab: slab_index,
                chunk,
            });
        }
        true
    }

    /// Returns a chunk to its class's free list.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not currently allocated (double free).
    pub fn free(&mut self, chunk: ChunkRef) {
        let slab = &mut self.slabs[chunk.slab as usize];
        assert_eq!(slab.class, chunk.class, "chunk/slab class mismatch");
        assert!(slab.used[chunk.chunk as usize], "double free");
        slab.used[chunk.chunk as usize] = false;
        slab.used_count -= 1;
        if slab.used_count == 0 {
            self.empty_slabs += 1;
        }
        let class = &mut self.classes[chunk.class as usize];
        class.items -= 1;
        class.free.push(chunk);
    }

    /// A chunk's full contents, writable in place: the store encodes an
    /// item straight into it, and rewrites a header field through it.
    pub fn chunk_mut(&mut self, chunk: ChunkRef) -> &mut [u8] {
        let chunk_size = self.class_sizes[chunk.class as usize] as usize;
        let offset = chunk.chunk as usize * chunk_size;
        &mut self.slabs[chunk.slab as usize].data[offset..offset + chunk_size]
    }

    /// Read a chunk's full contents.
    #[must_use]
    pub fn read(&self, chunk: ChunkRef) -> &[u8] {
        let chunk_size = self.class_sizes[chunk.class as usize] as usize;
        let offset = chunk.chunk as usize * chunk_size;
        &self.slabs[chunk.slab as usize].data[offset..offset + chunk_size]
    }

    /// Finds a fully empty slab that belongs to a different class — a free
    /// candidate for reassignment that costs no evictions. It is the
    /// lowest-index such slab.
    ///
    /// With no empty slab at all (the usual case under memory pressure) it
    /// answers from the empty-slab count without looking at any slab.
    /// Otherwise it walks the slabs in index order, so the slab chosen is
    /// the one a full walk would choose. After [`SlabError::NoMemory`] for
    /// `needed_class`, no empty slab can be of that class (its chunks would
    /// be on the class's free list), so a non-zero count always finds one.
    #[must_use]
    pub fn find_empty_slab_not_of(&self, needed_class: u8) -> Option<u32> {
        if self.empty_slabs == 0 {
            return None;
        }
        (0..).zip(&self.slabs).find_map(|(i, slab)| {
            #[cfg(test)]
            self.empty_scan_visits.set(self.empty_scan_visits.get() + 1);
            (slab.class != needed_class && slab.used_count == 0).then_some(i)
        })
    }

    /// How many slab entries [`SlabAllocator::find_empty_slab_not_of`] has
    /// looked at so far.
    #[cfg(test)]
    pub(crate) fn empty_scan_visits(&self) -> u64 {
        self.empty_scan_visits.get()
    }

    /// Picks a random slab *not* belonging to `needed_class`, returning its
    /// index and the currently occupied chunks (which the caller must
    /// evict from the store before calling
    /// [`SlabAllocator::complete_reassign`]). Returns `None` when every
    /// slab already belongs to the needed class.
    pub fn reassign_random_slab(&mut self, needed_class: u8) -> Option<(u32, Vec<ChunkRef>)> {
        let candidates: Vec<u32> = (0..self.slabs.len() as u32)
            .filter(|&i| self.slabs[i as usize].class != needed_class)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let slab_index = candidates[self.rng.range_usize(0, candidates.len())];
        let slab = &self.slabs[slab_index as usize];
        let class = slab.class;
        let victims: Vec<ChunkRef> = slab
            .used
            .iter()
            .enumerate()
            .filter(|&(_, &used)| used)
            .map(|(chunk, _)| ChunkRef {
                class,
                slab: slab_index,
                chunk: chunk as u32,
            })
            .collect();
        Some((slab_index, victims))
    }

    /// Completes a random slab eviction: the slab (now empty of live items)
    /// is stripped from its old class and reassigned to `new_class` with a
    /// fresh free list.
    ///
    /// # Panics
    ///
    /// Panics if the slab still has live chunks.
    pub fn complete_reassign(&mut self, slab_index: u32, new_class: u8) {
        let old_class = self.slabs[slab_index as usize].class;
        assert_eq!(
            self.slabs[slab_index as usize].used_count, 0,
            "slab must be emptied before reassignment"
        );
        // Strip the slab from the old class.
        let old = &mut self.classes[old_class as usize];
        old.slabs.retain(|&s| s != slab_index);
        old.free.retain(|c| c.slab != slab_index);
        // Rebuild it under the new class. It was empty and stays empty, so
        // the empty-slab count does not change.
        let chunk_size = self.class_sizes[new_class as usize];
        let chunks = self.config.slab_size / chunk_size;
        {
            let slab = &mut self.slabs[slab_index as usize];
            slab.class = new_class;
            slab.used = vec![false; chunks as usize];
            slab.used_count = 0;
        }
        let class_state = &mut self.classes[new_class as usize];
        class_state.slabs.push(slab_index);
        for chunk in (0..chunks).rev() {
            class_state.free.push(ChunkRef {
                class: new_class,
                slab: slab_index,
                chunk,
            });
        }
        self.slab_evictions += 1;
    }

    /// Checks every structural invariant of the allocator: the empty-slab
    /// count equals a recount; each slab's `used_count` equals its used
    /// chunks; each class lists exactly the slabs labelled with it; each
    /// class's free list is exactly the unused chunks of its slabs, with no
    /// chunk repeated; and each class's `items` equals its used chunks.
    ///
    /// Compiles to a no-op in release builds, so callers can leave it on
    /// hot paths unconditionally.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any invariant is violated.
    pub fn validate(&self) {
        #[cfg(debug_assertions)]
        {
            let empty = self.slabs.iter().filter(|s| s.used_count == 0).count();
            assert_eq!(empty, self.empty_slabs as usize, "empty-slab count");
            let mut seen: Vec<Vec<bool>> = Vec::with_capacity(self.slabs.len());
            for (i, slab) in self.slabs.iter().enumerate() {
                let used = slab.used.iter().filter(|&&u| u).count();
                assert_eq!(used, slab.used_count as usize, "slab {i}: used_count");
                seen.push(vec![false; slab.used.len()]);
            }
            for (class, state) in self.classes.iter().enumerate() {
                let mut labelled: Vec<u32> = (0..)
                    .zip(&self.slabs)
                    .filter(|(_, s)| s.class as usize == class)
                    .map(|(i, _)| i)
                    .collect();
                let mut listed = state.slabs.clone();
                labelled.sort_unstable();
                listed.sort_unstable();
                assert_eq!(listed, labelled, "class {class}: slab list");
                for chunk in &state.free {
                    let slab = &self.slabs[chunk.slab as usize];
                    assert_eq!(chunk.class as usize, class, "class {class}: {chunk:?}");
                    assert_eq!(slab.class as usize, class, "class {class}: {chunk:?} slab");
                    let index = chunk.chunk as usize;
                    assert!(
                        !slab.used[index],
                        "class {class}: free list holds used {chunk:?}"
                    );
                    assert!(
                        !std::mem::replace(&mut seen[chunk.slab as usize][index], true),
                        "class {class}: {chunk:?} is free twice"
                    );
                }
                let (used, unused) = listed.iter().fold((0u64, 0usize), |(u, f), &i| {
                    let slab = &self.slabs[i as usize];
                    let live = slab.used_count as usize;
                    (u + live as u64, f + slab.used.len() - live)
                });
                assert_eq!(state.free.len(), unused, "class {class}: free list length");
                assert_eq!(state.items, used, "class {class}: items");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_grow_by_factor() {
        let config = SlabConfig::default();
        let sizes = config.class_sizes();
        assert_eq!(sizes[0], 120);
        assert_eq!(*sizes.last().unwrap(), 1 << 20);
        for w in sizes.windows(2) {
            assert!(w[1] > w[0]);
            // Growth is roughly 1.25x (8-byte alignment allowed).
            assert!(w[1] <= w[0] * 2, "{} -> {}", w[0], w[1]);
        }
        // The paper's example: class 2 stores pairs of 120..=152 bytes.
        assert_eq!(sizes[1], 152);
    }

    #[test]
    fn paper_chunk_counts() {
        // "a single slab of class 1 can fit 8737 (1 MB / 120 byte) chunks"
        let config = SlabConfig::default();
        assert_eq!(config.slab_size / 120, 8738); // integer division
                                                  // (The paper says 8737 — off-by-one in the paper's rounding; we
                                                  // follow exact integer division.)
    }

    #[test]
    fn allocate_write_read_free_roundtrip() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(4096, 2));
        let a = slabs.allocate(100).unwrap();
        let b = slabs.allocate(100).unwrap();
        slabs.chunk_mut(a)[..4].copy_from_slice(b"aaaa");
        slabs.chunk_mut(b)[..4].copy_from_slice(b"bbbb");
        assert_eq!(&slabs.read(a)[..4], b"aaaa");
        assert_eq!(&slabs.read(b)[..4], b"bbbb");
        slabs.free(a);
        let c = slabs.allocate(100).unwrap();
        assert_eq!(c, a, "freed chunk is reused");
    }

    #[test]
    fn allocation_fails_when_budget_exhausted() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1024, 1));
        // 1024/120-class: chunk 120 -> 8 chunks in the single slab.
        let mut chunks = Vec::new();
        loop {
            match slabs.allocate(100) {
                Ok(c) => chunks.push(c),
                Err(SlabError::NoMemory { class }) => {
                    assert_eq!(class, 0);
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(chunks.len(), 8);
        assert_eq!(slabs.slab_count(), 1);
    }

    #[test]
    fn item_too_large_is_reported() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1024, 4));
        let err = slabs.allocate(2000).unwrap_err();
        assert!(matches!(err, SlabError::ItemTooLarge { .. }));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn calcification_and_random_reassignment() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1024, 2));
        // Fill both slabs with class-0 items: memory is calcified.
        let mut small = Vec::new();
        while let Ok(c) = slabs.allocate(100) {
            small.push(c);
        }
        assert_eq!(slabs.slab_count(), 2);
        // A large item's class has no slab and no budget remains.
        let large_class = slabs.class_for(900).unwrap();
        assert!(matches!(
            slabs.allocate(900),
            Err(SlabError::NoMemory { .. })
        ));
        // Random slab eviction: empty a random class-0 slab, reassign.
        let (slab_index, victims) = slabs.reassign_random_slab(large_class).unwrap();
        assert!(!victims.is_empty());
        for v in &victims {
            slabs.free(*v);
        }
        slabs.complete_reassign(slab_index, large_class);
        assert_eq!(slabs.slab_eviction_count(), 1);
        let big = slabs.allocate(900).unwrap();
        assert_eq!(big.class(), large_class);
    }

    #[test]
    fn reassign_none_when_all_slabs_match() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1024, 1));
        let _ = slabs.allocate(100).unwrap();
        assert!(slabs.reassign_random_slab(0).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1024, 1));
        let c = slabs.allocate(100).unwrap();
        slabs.free(c);
        slabs.free(c);
    }

    #[test]
    fn census_tracks_items() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(4096, 4));
        let _a = slabs.allocate(100).unwrap();
        let _b = slabs.allocate(100).unwrap();
        let _c = slabs.allocate(1000).unwrap();
        let census = slabs.class_census();
        let total_items: u64 = census.iter().map(|&(_, _, items)| items).sum();
        assert_eq!(total_items, 3);
        let total_slabs: usize = census.iter().map(|&(_, slabs, _)| slabs).sum();
        assert_eq!(total_slabs, 2);
    }

    /// The lowest-index empty slab of another class, by a full walk.
    fn first_empty_not_of(slabs: &SlabAllocator, needed_class: u8) -> Option<u32> {
        (0..)
            .zip(&slabs.slabs)
            .find(|(_, s)| s.class != needed_class && s.used_count == 0)
            .map(|(i, _)| i)
    }

    #[test]
    fn validate_holds_through_mixed_op_churn() {
        // Allocations of four sizes, frees, bare slab growth, empty-slab
        // reclaims and random slab evictions in a seeded interleaving; the
        // full invariant set is re-checked after every step, and the
        // empty-slab lookup must choose what a full walk would.
        let mut rng = Rng64::seed_from_u64(0x51AB_2014);
        let mut slabs = SlabAllocator::new(SlabConfig::small(4096, 24));
        let sizes = [100, 300, 1_000, 3_000];
        let mut live: Vec<ChunkRef> = Vec::new();
        let (mut reclaims, mut reassigns, mut grown) = (0u32, 0u32, 0u32);
        for step in 0..20_000 {
            let class = slabs
                .class_for(sizes[rng.range_usize(0, sizes.len())])
                .unwrap();
            match rng.range_u64(0, 16) {
                0..=7 => match slabs.allocate_in_class(class) {
                    Ok(chunk) => live.push(chunk),
                    Err(SlabError::NoMemory { .. }) => {
                        assert!(
                            slabs
                                .slabs
                                .iter()
                                .all(|s| s.class != class || s.used_count > 0),
                            "step {step}: an empty slab of the class that ran dry"
                        );
                        let found = slabs.find_empty_slab_not_of(class);
                        assert_eq!(found, first_empty_not_of(&slabs, class), "step {step}");
                        if let Some(slab) = found {
                            slabs.complete_reassign(slab, class);
                            reclaims += 1;
                        }
                    }
                    Err(e) => panic!("step {step}: {e}"),
                },
                8..=13 => {
                    if !live.is_empty() {
                        slabs.free(live.swap_remove(rng.range_usize(0, live.len())));
                    }
                }
                14 => grown += u32::from(slabs.grow_class(class)),
                _ => {
                    if let Some((slab, victims)) = slabs.reassign_random_slab(class) {
                        live.retain(|c| !victims.contains(c));
                        for chunk in victims {
                            slabs.free(chunk);
                        }
                        slabs.complete_reassign(slab, class);
                        reassigns += 1;
                    }
                }
            }
            slabs.validate();
            let live_items: u64 = slabs.class_census().iter().map(|c| c.2).sum();
            assert_eq!(live_items, live.len() as u64, "step {step}");
        }
        assert!(
            reclaims > 0 && reassigns > 0 && grown > 0,
            "{reclaims} {reassigns} {grown}"
        );
        assert_eq!(slabs.slab_count(), 24);
    }

    #[test]
    fn no_empty_slab_means_no_walk() {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1024, 64));
        while slabs.allocate(100).is_ok() {}
        assert_eq!(slabs.find_empty_slab_not_of(1), None);
        assert_eq!(
            slabs.empty_scan_visits(),
            0,
            "a full allocator is not walked"
        );
        // Emptying slab 5 makes it the answer, found by a walk up to it.
        let slab_five: Vec<ChunkRef> = (0..8)
            .map(|chunk| ChunkRef {
                class: 0,
                slab: 5,
                chunk,
            })
            .collect();
        for chunk in slab_five {
            slabs.free(chunk);
        }
        assert_eq!(slabs.find_empty_slab_not_of(1), Some(5));
        assert_eq!(slabs.empty_scan_visits(), 6);
        slabs.validate();
    }
}
