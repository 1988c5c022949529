//! Hash-partitioned store sharding — the paper's §4.1 vertical-scaling
//! recipe.
//!
//! "CAMP may represent each LRU queue as multiple physical queues and hash
//! partition keys across these physical queues to further enhance
//! concurrent access." [`ShardedStore`] applies that idea one level up:
//! keys are hash-partitioned across `N` independent [`Store`]s, each with
//! its own slab arena, CAMP instance and lock, so threads operating on
//! different shards never contend. Each shard runs the full eviction
//! policy over its partition; with a uniform hash, the per-shard `L` terms
//! advance in lockstep and global eviction quality is preserved to within
//! partition noise (measured by the `extension-policies` experiments and
//! the concurrency tests).
//!
//! The sharded store owns the one fingerprint seed: a key is hashed once,
//! *before* any lock is taken, the shard is picked from the fingerprint's
//! high half, and the same fingerprint then keys that shard's index (whose
//! table uses the low bits) and policy — so every shard is built with a
//! copy of this store's fingerprinter and none hashes the key again.

use std::sync::{Mutex, MutexGuard};

use camp_policies::{PolicyStats, ShadowEstimate, ShadowProfiler, SharedTraceSink};

use crate::fingerprint::{Fingerprinter, Hashed};
use crate::slab::SlabConfig;
use crate::store::{
    unix_now, EvictionTotals, GetResult, Store, StoreConfig, StoreError, StoreStats,
};
use crate::sync::lock;

/// One shard's telemetry snapshot (see [`ShardedStore::per_shard`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ShardSnapshot {
    /// The shard's cumulative counters.
    pub stats: StoreStats,
    /// Live items in the shard.
    pub items: usize,
    /// Logical bytes resident in the shard.
    pub used_bytes: u64,
    /// The shard's policy name.
    pub policy: String,
    /// The shard policy's internal gauges.
    pub policy_stats: PolicyStats,
}

/// A store partitioned over independent, individually locked shards.
///
/// # Examples
///
/// ```
/// use camp_kvs::shard::ShardedStore;
/// use camp_kvs::store::StoreConfig;
///
/// let store = ShardedStore::new(StoreConfig::camp_with_memory(8 << 20), 4);
/// store.set(b"k", b"v", 0, 0, 10)?;
/// assert_eq!(store.get(b"k").expect("resident").value, b"v");
/// # Ok::<(), camp_kvs::store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<Store>>,
    fingerprinter: Fingerprinter,
}

impl ShardedStore {
    /// Creates `shards` independent stores, dividing the slab budget of
    /// `config` evenly. The division remainder is spread over the first
    /// shards (one extra slab each) so no memory is silently dropped; every
    /// shard receives at least one slab.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(config: StoreConfig, shards: usize) -> Self {
        ShardedStore::with_fingerprinter(config, shards, Fingerprinter::random())
    }

    /// Test seam: like [`ShardedStore::new`] with fingerprints truncated
    /// to `bits` bits under a fixed seed (see
    /// [`Store::with_fingerprint_bits`]); every key lands in shard 0.
    #[cfg(test)]
    pub(crate) fn with_fingerprint_bits(config: StoreConfig, shards: usize, bits: u32) -> Self {
        ShardedStore::with_fingerprinter(config, shards, Fingerprinter::truncated(bits))
    }

    fn with_fingerprinter(
        config: StoreConfig,
        shards: usize,
        fingerprinter: Fingerprinter,
    ) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let shards_u32 = shards as u32;
        let base = config.slab.max_slabs / shards_u32;
        let remainder = config.slab.max_slabs % shards_u32;
        ShardedStore {
            shards: (0..shards_u32)
                .map(|i| {
                    let extra = u32::from(i < remainder);
                    let shard_config = StoreConfig {
                        slab: SlabConfig {
                            max_slabs: (base + extra).max(1),
                            ..config.slab
                        },
                        eviction: config.eviction.clone(),
                    };
                    Mutex::new(Store::with_fingerprinter(shard_config, fingerprinter))
                })
                .collect(),
            fingerprinter,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The 64-bit fingerprint every structure of this store files `key`
    /// under: stable for this instance's lifetime, different in every
    /// process (the seed is random). Eviction-trace events identify keys
    /// as `key_hash(&fingerprint)`; this is the map from a wire key to
    /// that identity.
    #[must_use]
    pub fn fingerprint(&self, key: &[u8]) -> u64 {
        self.fingerprinter.fingerprint(key)
    }

    /// The shard index `key` hashes to (stable for this store instance).
    #[must_use]
    pub fn shard_index(&self, key: &[u8]) -> usize {
        self.shard_of(self.hash(key))
    }

    /// `key` with its fingerprint: the server hashes once per command, then
    /// calls the shard's `*_hashed` entry points through
    /// [`ShardedStore::shard`].
    #[inline]
    pub(crate) fn hash<'a>(&self, key: &'a [u8]) -> Hashed<'a> {
        self.fingerprinter.hash(key)
    }

    /// The shard (and IQ-registry stripe) of a hashed key: taken from the
    /// fingerprint's high half, since the shard's own table indexes
    /// buckets with the low bits.
    #[inline]
    pub(crate) fn shard_of(&self, h: Hashed<'_>) -> usize {
        ((h.fp >> 32) % self.shards.len() as u64) as usize
    }

    /// Locks the shard a hashed key lives in.
    pub(crate) fn shard(&self, h: Hashed<'_>) -> MutexGuard<'_, Store> {
        lock(&self.shards[self.shard_of(h)])
    }

    /// The active policy name of each shard, in shard order.
    #[must_use]
    pub fn policy_names(&self) -> Vec<String> {
        self.shards.iter().map(|s| lock(s).policy_name()).collect()
    }

    /// Looks up `key` in its shard (recency updated there).
    pub fn get(&self, key: &[u8]) -> Option<GetResult> {
        self.get_with(key, |item| GetResult {
            value: item.value.to_vec(),
            flags: item.flags,
            cost: item.cost,
        })
    }

    /// Copy-free lookup: applies `f` to the item inside its slab chunk
    /// while the shard lock is held (see [`Store::get_with`]). The server's
    /// get path uses this to serialize the wire response without copying
    /// the value out of the arena first.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&crate::item::Item<'_>) -> R,
    ) -> Option<R> {
        let (h, now) = (self.hash(key), unix_now());
        self.shard(h).get_with_at_hashed(h, now, f)
    }

    /// Stores a pair in its shard.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`StoreError`].
    pub fn set(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<(), StoreError> {
        let h = self.hash(key);
        self.shard(h).set_hashed(h, value, flags, expires_at, cost)
    }

    /// Deletes `key` from its shard.
    pub fn delete(&self, key: &[u8]) -> bool {
        let h = self.hash(key);
        self.shard(h).delete_hashed(h)
    }

    /// Stores only if absent (`add`), atomically within the shard.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`StoreError`].
    pub fn add(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<bool, StoreError> {
        let h = self.hash(key);
        self.shard(h).add_hashed(h, value, flags, expires_at, cost)
    }

    /// Stores only if present (`replace`), atomically within the shard.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`StoreError`].
    pub fn replace(
        &self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<bool, StoreError> {
        let h = self.hash(key);
        self.shard(h)
            .replace_hashed(h, value, flags, expires_at, cost)
    }

    /// Atomic numeric increment within the shard.
    pub fn incr(&self, key: &[u8], delta: u64) -> Option<u64> {
        let h = self.hash(key);
        let rewritten = self.shard(h).add_signed(h, delta, true);
        rewritten.map(|(next, _)| next)
    }

    /// Atomic numeric decrement within the shard (floored at zero).
    pub fn decr(&self, key: &[u8], delta: u64) -> Option<u64> {
        let h = self.hash(key);
        let rewritten = self.shard(h).add_signed(h, delta, false);
        rewritten.map(|(next, _)| next)
    }

    /// Updates a resident key's expiry.
    pub fn touch(&self, key: &[u8], expires_at: u64) -> bool {
        let h = self.hash(key);
        self.shard(h).touch_hashed(h, expires_at)
    }

    /// Drops every item from every shard.
    pub fn flush_all(&self) {
        for shard in &self.shards {
            lock(shard).flush_all();
        }
    }

    /// Whether `key` is resident.
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        let h = self.hash(key);
        self.shard(h).contains_hashed(h)
    }

    /// Visits every resident item across shards (see
    /// [`Store::for_each_item`]). Shards are locked one at a time, so the
    /// visit is per-shard consistent — exactly the guarantee the
    /// persistence snapshot needs (writes racing into already-visited
    /// shards are re-logged by their own append hooks).
    pub fn for_each_item(&self, mut f: impl FnMut(&crate::item::Item<'_>)) {
        for shard in &self.shards {
            lock(shard).for_each_item(&mut f);
        }
    }

    /// A resident key's `(flags, expires_at, cost)` without recency or
    /// stats side effects (see [`Store::peek_meta`]).
    #[must_use]
    pub fn peek_meta(&self, key: &[u8]) -> Option<(u32, u64, u64)> {
        let h = self.hash(key);
        self.shard(h).peek_meta_hashed(h)
    }

    /// Total live items across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across shards.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = lock(shard).stats();
            total.get_hits += s.get_hits;
            total.get_misses += s.get_misses;
            total.sets += s.sets;
            total.deletes += s.deletes;
            total.evictions += s.evictions;
            total.slab_evictions += s.slab_evictions;
            total.slab_reassignments += s.slab_reassignments;
            total.slab_reclaims += s.slab_reclaims;
            total.expired += s.expired;
            total.fingerprint_collisions += s.fingerprint_collisions;
        }
        total
    }

    /// Traced-decision totals summed across shards (see
    /// [`Store::eviction_totals`]).
    #[must_use]
    pub fn eviction_totals(&self) -> EvictionTotals {
        let mut total = EvictionTotals::default();
        for shard in &self.shards {
            total.merge(&lock(shard).eviction_totals());
        }
        total
    }

    /// Per-shard telemetry snapshots, in shard order. Each shard is locked
    /// briefly in turn, so the rows are per-shard consistent (not a global
    /// atomic cut — fine for observability).
    #[must_use]
    pub fn per_shard(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .map(|shard| {
                let guard = lock(shard);
                ShardSnapshot {
                    stats: guard.stats(),
                    items: guard.len(),
                    used_bytes: guard.used_bytes(),
                    policy: guard.policy_name(),
                    policy_stats: guard.policy_stats(),
                }
            })
            .collect()
    }

    /// Zeroes every shard's counters and policy instrumentation (the
    /// `stats reset` command). Each shard resets atomically under its own
    /// lock; shards are visited in order.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            lock(shard).reset_stats();
        }
    }

    /// Attaches (or detaches) the eviction-trace sink on every shard's
    /// policy. Each shard keeps its own clone; the sink itself is shared.
    pub fn set_trace_sink(&self, sink: Option<SharedTraceSink>) {
        for shard in &self.shards {
            lock(shard).set_trace_sink(sink.clone());
        }
    }

    /// Cross-shard shadow-profiler estimates: every shard's profiler is
    /// merged per scale (capacities and sampled counters sum; hit ratios
    /// recompute over the merged totals). All shard locks are held briefly
    /// at once so the rows describe one cut — acceptable on this cold path.
    #[must_use]
    pub fn shadow_estimates(&self) -> Vec<ShadowEstimate> {
        let guards: Vec<_> = self.shards.iter().map(|s| lock(s)).collect();
        let profilers: Vec<&ShadowProfiler> = guards.iter().map(|g| g.profiler()).collect();
        ShadowProfiler::merged_estimates(&profilers)
    }

    /// The shadow profilers' spatial sampling modulus (uniform across
    /// shards).
    #[must_use]
    pub fn shadow_sample_modulus(&self) -> u64 {
        lock(&self.shards[0]).profiler().modulus()
    }

    /// Aggregated slab census `(chunk_size, slabs, items)` across shards.
    #[must_use]
    pub fn slab_census(&self) -> Vec<(u32, usize, u64)> {
        let mut merged: std::collections::BTreeMap<u32, (usize, u64)> = Default::default();
        for shard in &self.shards {
            for (chunk_size, slabs, items) in lock(shard).slab_census() {
                let entry = merged.entry(chunk_size).or_default();
                entry.0 += slabs;
                entry.1 += items;
            }
        }
        merged
            .into_iter()
            .map(|(chunk, (slabs, items))| (chunk, slabs, items))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EvictionMode;
    use camp_core::Precision;
    use std::sync::Arc;

    fn sharded(shards: usize) -> ShardedStore {
        ShardedStore::new(
            StoreConfig {
                slab: SlabConfig::small(16 * 1024, 16),
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            },
            shards,
        )
    }

    #[test]
    fn basic_roundtrip_across_shards() {
        let store = sharded(4);
        for i in 0..100u32 {
            let key = format!("key-{i}");
            store
                .set(key.as_bytes(), format!("v{i}").as_bytes(), 0, 0, 1)
                .unwrap();
        }
        assert_eq!(store.len(), 100);
        for i in 0..100u32 {
            let key = format!("key-{i}");
            assert_eq!(
                store.get(key.as_bytes()).unwrap().value,
                format!("v{i}").as_bytes()
            );
        }
        assert!(store.delete(b"key-50"));
        assert!(!store.contains(b"key-50"));
        assert_eq!(store.len(), 99);
        let stats = store.stats();
        assert_eq!(stats.sets, 100);
        assert_eq!(stats.get_hits, 100);
    }

    #[test]
    fn get_with_serializes_under_the_shard_lock() {
        let store = sharded(4);
        store.set(b"k", b"vv", 5, 0, 1).unwrap();
        let mut out = Vec::new();
        let flags = store.get_with(b"k", |item| {
            out.extend_from_slice(item.value);
            item.flags
        });
        assert_eq!(flags, Some(5));
        assert_eq!(out, b"vv");
        assert!(store.get_with(b"nope", |_| ()).is_none());
    }

    #[test]
    fn shards_partition_the_keyspace_reasonably() {
        let store = sharded(8);
        for i in 0..800u32 {
            let key = format!("key-{i}");
            store.set(key.as_bytes(), b"x", 0, 0, 1).unwrap();
        }
        // No shard should be empty with 800 uniform keys over 8 shards.
        for shard in &store.shards {
            let len = lock(shard).len();
            assert!(len > 30, "suspiciously unbalanced shard: {len}");
        }
    }

    #[test]
    fn concurrent_mixed_workload_is_safe_and_consistent() {
        let store = Arc::new(sharded(4));
        let threads: Vec<_> = (0..8)
            .map(|worker: u64| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut state = worker + 1;
                    for _ in 0..2_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let key = format!("k{}", state % 500);
                        match state % 4 {
                            0 => {
                                store
                                    .set(key.as_bytes(), &[0u8; 64], 0, 0, state % 1000)
                                    .unwrap();
                            }
                            1 => {
                                store.delete(key.as_bytes());
                            }
                            _ => {
                                let _ = store.get(key.as_bytes());
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The aggregate remains coherent.
        let stats = store.stats();
        assert!(stats.sets > 0);
        assert_eq!(
            store.len() as u64,
            store
                .slab_census()
                .iter()
                .map(|&(_, _, items)| items)
                .sum::<u64>()
        );
    }

    #[test]
    fn single_shard_matches_plain_store_semantics() {
        let store = sharded(1);
        store.set(b"a", b"1", 0, 0, 10).unwrap();
        store.set(b"a", b"2", 0, 0, 10).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b"a").unwrap().value, b"2");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedStore::new(StoreConfig::camp_with_memory(1 << 20), 0);
    }

    #[test]
    fn slab_remainder_is_distributed_not_dropped() {
        // 10 slabs over 4 shards: 3 + 3 + 2 + 2, not 2 * 4 = 8.
        let store = ShardedStore::new(
            StoreConfig {
                slab: SlabConfig::small(4096, 10),
                eviction: EvictionMode::Lru,
            },
            4,
        );
        let budgets: Vec<u32> = store
            .shards
            .iter()
            .map(|s| lock(s).slab_config().max_slabs)
            .collect();
        assert_eq!(budgets, vec![3, 3, 2, 2]);
        assert_eq!(budgets.iter().sum::<u32>(), 10);
    }

    #[test]
    fn shadow_estimates_merge_across_shards() {
        let store = sharded(4);
        for i in 0..2000u32 {
            let key = format!("key-{i}");
            store.set(key.as_bytes(), &[0u8; 40], 0, 0, 1).unwrap();
            let _ = store.get(key.as_bytes());
        }
        let merged = store.shadow_estimates();
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().any(|e| e.sampled_gets > 0));
        // Merged capacity at 1x covers (roughly) the whole sampled budget.
        let one_x = merged.iter().find(|e| e.scale == (1, 1)).unwrap();
        assert!(one_x.capacity > 0);
        assert!(store.shadow_sample_modulus() > 1);
    }

    #[test]
    fn shard_index_routes_consistently_and_names_policies() {
        let store = sharded(4);
        assert_eq!(store.policy_names(), vec!["camp(p=5)"; 4]);
        for i in 0..50u32 {
            let key = format!("key-{i}");
            let idx = store.shard_index(key.as_bytes());
            assert!(idx < store.shard_count());
            assert_eq!(idx, store.shard_index(key.as_bytes()), "index is stable");
            store.set(key.as_bytes(), b"v", 0, 0, 1).unwrap();
            assert!(lock(&store.shards[idx]).contains(key.as_bytes()));
        }
    }
}
