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
/// slabs.write(chunk, b"hello");
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
    rng: Rng64,
    slab_evictions: u64,
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
            rng: Rng64::seed_from_u64(0x517AB),
            slab_evictions: 0,
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

    fn allocate_in_class(&mut self, class: u8) -> Result<ChunkRef, SlabError> {
        if let Some(chunk) = self.classes[class as usize].free.pop() {
            let slab = &mut self.slabs[chunk.slab as usize];
            debug_assert!(!slab.used[chunk.chunk as usize]);
            slab.used[chunk.chunk as usize] = true;
            slab.used_count += 1;
            self.classes[class as usize].items += 1;
            return Ok(chunk);
        }
        if self.slabs.len() < self.config.max_slabs as usize {
            let slab_index = self.grow_class(class);
            let chunk = self.classes[class as usize]
                .free
                .pop()
                // lint:allow(unwrap-in-lib) — grow_class just pushed a full
                // slab of free chunks for this class.
                .expect("fresh slab has free chunks");
            let slab = &mut self.slabs[slab_index as usize];
            slab.used[chunk.chunk as usize] = true;
            slab.used_count += 1;
            self.classes[class as usize].items += 1;
            return Ok(chunk);
        }
        Err(SlabError::NoMemory { class })
    }

    /// Assigns a brand-new slab to `class`, returning its index.
    fn grow_class(&mut self, class: u8) -> u32 {
        let chunk_size = self.class_sizes[class as usize];
        let chunks = self.config.slab_size / chunk_size;
        // lint:allow(unwrap-in-lib) — callers check slabs.len() < max_slabs
        // (a u32) before growing, so the index always fits.
        let slab_index = u32::try_from(self.slabs.len()).expect("slab budget fits u32");
        self.slabs.push(Slab {
            class,
            data: vec![0u8; self.config.slab_size as usize].into_boxed_slice(),
            used: vec![false; chunks as usize],
            used_count: 0,
        });
        let class_state = &mut self.classes[class as usize];
        class_state.slabs.push(slab_index);
        for chunk in (0..chunks).rev() {
            class_state.free.push(ChunkRef {
                class,
                slab: slab_index,
                chunk,
            });
        }
        slab_index
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
        let class = &mut self.classes[chunk.class as usize];
        class.items -= 1;
        class.free.push(chunk);
    }

    /// Write `bytes` into a chunk (must fit the chunk size).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the chunk size.
    pub fn write(&mut self, chunk: ChunkRef, bytes: &[u8]) {
        let chunk_size = self.class_sizes[chunk.class as usize] as usize;
        assert!(bytes.len() <= chunk_size, "write exceeds chunk size");
        let offset = chunk.chunk as usize * chunk_size;
        let slab = &mut self.slabs[chunk.slab as usize];
        slab.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Write `bytes` into a chunk starting at `offset` (for in-place header
    /// updates such as `touch`).
    ///
    /// # Panics
    ///
    /// Panics if the write would cross the chunk boundary.
    pub fn write_at(&mut self, chunk: ChunkRef, offset: usize, bytes: &[u8]) {
        let chunk_size = self.class_sizes[chunk.class as usize] as usize;
        assert!(
            offset + bytes.len() <= chunk_size,
            "write_at exceeds chunk size"
        );
        let base = chunk.chunk as usize * chunk_size + offset;
        let slab = &mut self.slabs[chunk.slab as usize];
        slab.data[base..base + bytes.len()].copy_from_slice(bytes);
    }

    /// Read a chunk's full contents.
    #[must_use]
    pub fn read(&self, chunk: ChunkRef) -> &[u8] {
        let chunk_size = self.class_sizes[chunk.class as usize] as usize;
        let offset = chunk.chunk as usize * chunk_size;
        &self.slabs[chunk.slab as usize].data[offset..offset + chunk_size]
    }

    /// Finds a fully empty slab that belongs to a different class — a free
    /// candidate for reassignment that costs no evictions.
    #[must_use]
    pub fn find_empty_slab_not_of(&self, needed_class: u8) -> Option<u32> {
        (0..self.slabs.len() as u32).find(|&i| {
            let slab = &self.slabs[i as usize];
            slab.class != needed_class && slab.used_count == 0
        })
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
        // Rebuild it under the new class.
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
        slabs.write(a, b"aaaa");
        slabs.write(b, b"bbbb");
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
}
