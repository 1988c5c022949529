//! The cache store: slab-backed item storage with pluggable eviction.
//!
//! This is the heart of the Twemcache-like server of the paper's §4: items
//! stored in slab chunks, indexed and evicted by any [`EvictionPolicy`]
//! from the shared policy layer — stock Twemcache LRU,
//! the paper's CAMP, or any of the surveyed baselines (GDS, GDSF, LRU-K,
//! 2Q, ARC, GD-Wheel, pooled LRU), selected by [`EvictionMode`]. Unlike
//! the simulator — where capacity is a logical byte budget — eviction here
//! is driven by *slab memory exhaustion*, faithfully reproducing the
//! allocation protocol of §5:
//!
//! 1. reuse a free chunk of the item's slab class;
//! 2. assign a fresh slab to the class while the budget lasts;
//! 3. reassign an empty slab of another class if there is one (the
//!    allocator answers "none" from a count, without walking the slabs),
//!    else ask the replacement policy to evict, reclaiming any slab that
//!    empties for the needed class;
//! 4. if the memory is calcified (evictions never free the right class),
//!    force a *random slab eviction* and reassign the slab.
//!
//! The policy tracks logical item bytes against the physical slab budget.
//! Because chunk rounding makes physical usage exceed logical usage, slab
//! exhaustion fires first: the store decides *when* to evict, and the
//! policy evicts exactly as it would on its own budget
//! ([`EvictionPolicy::evict`]) — CAMP's `L` rises, ARC remembers the
//! ghost — as in the paper's IQ Twemcache, which evicts through CAMP's heap.
//!
//! ## One key copy, one hash, one index
//!
//! As in Twemcache, the key lives once — in the slab item — and one hash
//! table points at items. A wire key is hashed once into a seeded 64-bit
//! *fingerprint* (see `fingerprint.rs`). The policy — the same
//! [`EvictionPolicy`] the simulator and the shadow profiler run, built by
//! the same [`EvictionMode`] — is keyed by the fingerprint and holds each
//! item's [`ChunkRef`] as its value: it is the store's only index, so
//! residency cannot disagree between two maps. A read is `policy.get(&fp)`
//! followed by the key-bytes and expiry checks on the chunk it returns:
//! one probe, on a hit reading the chunk it must serialize anyway. A set
//! is `take` (the old item), the allocation (each policy eviction hands
//! back its `(fp, chunk)`), then `admit`: two probes, plus one per victim
//! — no key box, no clone, no byte hashing. Per resident item that is 8 B
//! of key and a 12 B chunk handle in the policy's entry.
//!
//! `get` refreshes the resident's recency before those checks run, so the
//! two reads a fingerprint's resident turns away — a colliding key's, and
//! its own once expired (which `take` then removes) — still count as a
//! reference to it.
//!
//! Every verb — the read, `delete`, `touch`, `add`, `replace`, `incr`,
//! `decr` — finds its item through that one residency check, at the clock
//! the caller hands in: an item expired by then is absent, as in
//! memcached, and the check removes it on the spot (counted in
//! [`StoreStats::expired`]). A set is written once, encoded straight into
//! its slab chunk.
//!
//! The store also keeps the IQ framework's cost timers for its keys: an
//! `iqget` miss starts one (`Store::record_iq_miss`) and the paired
//! `iqset` stops it (`Store::take_iq_miss`), its elapsed microseconds
//! becoming the pair's cost (§4). In a sharded store each shard times its
//! own keys, so both commands of the pair take only the lock of the shard
//! they read or write anyway.
//!
//! Two distinct keys share a fingerprint about once in 2⁶⁴ pairs (n²/2⁶⁵
//! for n residents: 3·10⁻⁶ at ten million items). The store handles that
//! as a cache may: the fingerprint's slot holds one key at a time. Reading
//! (`get`, `delete`, `touch`, `incr`, `decr`, `replace`) key A while B
//! holds the slot is a miss; writing (`set`, `add`) A replaces B as an
//! overwrite would — no policy decision, so not traced and not an
//! eviction, but counted in [`StoreStats::fingerprint_collisions`]. No
//! operation ever returns another key's value.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use camp_policies::EvictionMode;
use camp_policies::{
    AccessOutcome, EvictionPolicy, PolicyEvent, PolicyEventKind, PolicyStats, ShadowProfiler,
    SharedTraceSink, TraceSink,
};
use camp_telemetry::{HistogramSnapshot, LocalHistogram};

use crate::fingerprint::{FingerprintMap, Fingerprinter, Hashed};
use crate::item::{Item, EXPIRY_OFFSET, HEADER_LEN};
use crate::slab::{ChunkRef, SlabAllocator, SlabConfig, SlabError};

/// How long an unmatched `iqget` miss is timed. A client that never issues
/// the paired `iqset` (crashed, gave up) would otherwise leak its timer
/// forever; the sweep drops timers past this age.
pub(crate) const IQ_MISS_TTL: Duration = Duration::from_secs(120);

/// Most unmatched misses one store times (~2 MiB of fixed-size entries).
/// Past it, new misses go untimed — their `iqset` falls back to its hint
/// or cost 0, as for an expired timer — so an `iqget`-only client walking
/// unique keys cannot grow the timers without limit inside one TTL period.
pub(crate) const IQ_SHARD_CAP: usize = 1 << 16;

/// Shortest gap between sweeps of a *full* set of timers: a full store
/// sweeps ahead of the TTL schedule, but not on every miss (a sweep is
/// O(cap)).
const IQ_FULL_SWEEP_GAP: Duration = Duration::from_secs(1);

/// Store configuration.
///
/// Not `Copy`: [`EvictionMode`] can carry non-`Copy` parameters (pooled-LRU
/// boundaries). Clone it where a copy used to be taken.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Slab geometry and memory budget.
    pub slab: SlabConfig,
    /// Replacement policy.
    pub eviction: EvictionMode,
}

impl StoreConfig {
    /// A store with the given memory and policy.
    #[must_use]
    pub fn with_memory(bytes: u64, eviction: EvictionMode) -> Self {
        StoreConfig {
            slab: SlabConfig::with_memory(bytes),
            eviction,
        }
    }

    /// A CAMP store with the paper's default precision and the given memory.
    #[must_use]
    pub fn camp_with_memory(bytes: u64) -> Self {
        StoreConfig::with_memory(bytes, EvictionMode::default())
    }

    /// An LRU store with the given memory.
    #[must_use]
    pub fn lru_with_memory(bytes: u64) -> Self {
        StoreConfig::with_memory(bytes, EvictionMode::Lru)
    }
}

/// Cumulative store counters (`stats` command).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreStats {
    /// `get`/`iqget` requests that found a live item.
    pub get_hits: u64,
    /// `get`/`iqget` requests that missed.
    pub get_misses: u64,
    /// Successful `set`/`iqset` commands.
    pub sets: u64,
    /// Successful deletes.
    pub deletes: u64,
    /// Items evicted by the replacement policy (cause: capacity).
    pub evictions: u64,
    /// Items evicted as collateral of a forced random slab reassignment
    /// (cause: slab reassignment) — counted separately from `evictions` so
    /// the two causes sum, not overlap.
    pub slab_evictions: u64,
    /// Random slab evictions forced by calcification.
    pub slab_reassignments: u64,
    /// Slabs reclaimed for another class after emptying naturally.
    pub slab_reclaims: u64,
    /// Items dropped because they had expired.
    pub expired: u64,
    /// Residents replaced because a different key with the same 64-bit
    /// fingerprint was stored (an overwrite, not an eviction). Zero in
    /// normal operation: expect one per ~2⁶⁴ resident key pairs.
    pub fingerprint_collisions: u64,
    /// IQ cost timers dropped by the TTL sweep: clients that armed the
    /// timer with an `iqget` miss and never sent the `iqset`.
    pub iq_sweep_reclaimed: u64,
    /// `iqget` misses left untimed because the store already timed as
    /// many unmatched misses as it keeps.
    pub iq_misses_dropped: u64,
}

/// Totals and distributions over the decisions a store's policy reported
/// while a trace sink was attached: `trace:admits`, `trace:evictions`, the
/// eviction-cost summary and the `L` trajectory of the telemetry surface.
/// An eviction is tallied here exactly when it is traced — every policy
/// eviction is; items lost to a slab reassignment, to expiry or to a
/// fingerprint collision are not — so with a sink attached from the start
/// `evictions` equals [`StoreStats::evictions`] and `admits` equals
/// [`StoreStats::sets`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EvictionTotals {
    /// Admission decisions.
    pub admits: u64,
    /// Eviction decisions.
    pub evictions: u64,
    /// Miss cost of every evicted pair.
    pub eviction_costs: HistogramSnapshot,
    /// The policy's `L` at every decision that had one (`L > 0`).
    pub l_values: HistogramSnapshot,
}

impl EvictionTotals {
    /// Adds `other` (another shard's totals) into `self`.
    pub fn merge(&mut self, other: &EvictionTotals) {
        self.admits += other.admits;
        self.evictions += other.evictions;
        self.eviction_costs.merge(&other.eviction_costs);
        self.l_values.merge(&other.l_values);
    }
}

/// The live form of [`EvictionTotals`]: plain counters and histograms one
/// store owns, written only through `&mut Store` (so, in a sharded store,
/// under the shard lock that every policy call already holds).
#[derive(Debug, Default)]
struct EvictionTally {
    admits: u64,
    evictions: u64,
    eviction_costs: LocalHistogram,
    l_values: LocalHistogram,
}

impl EvictionTally {
    fn record(&mut self, event: &PolicyEvent) {
        match event.kind {
            PolicyEventKind::Admit => self.admits += 1,
            PolicyEventKind::Evict => {
                self.evictions += 1;
                self.eviction_costs.record(event.cost);
            }
        }
        if event.l_value > 0 {
            self.l_values.record(event.l_value);
        }
    }
}

thread_local! {
    /// Decisions reported on this thread that their store has not tallied
    /// yet. A policy reports through `&self` from inside the store call
    /// that drives it, so the events cannot reach the store's plain tally
    /// by reference; they wait here — thread-local, so still no shared
    /// write — until that same call collects them before it returns.
    static TAPPED: RefCell<Vec<PolicyEvent>> = const { RefCell::new(Vec::new()) };
}

/// What a store hands its policy as the trace sink: every decision goes
/// straight on to the sink the store's owner attached, and a copy is left
/// in [`TAPPED`] for the store's own tally.
#[derive(Debug)]
struct Tap {
    attached: SharedTraceSink,
}

impl TraceSink for Tap {
    fn record(&self, event: &PolicyEvent) {
        self.attached.record(event);
        TAPPED.with_borrow_mut(|events| events.push(*event));
    }
}

/// Errors a store operation can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The encoded item exceeds the slab size: unstorable.
    ValueTooLarge {
        /// Encoded item size.
        requested: u32,
        /// Largest storable size.
        max: u32,
    },
    /// Eviction could not free a chunk (cache smaller than one item).
    OutOfMemory,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StoreError::ValueTooLarge { requested, max } => {
                write!(f, "item of {requested} bytes exceeds the slab size {max}")
            }
            StoreError::OutOfMemory => f.write_str("eviction could not free memory"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The slab-backed cache store.
///
/// # Examples
///
/// ```
/// use camp_kvs::store::{Store, StoreConfig};
///
/// let mut store = Store::new(StoreConfig::camp_with_memory(4 << 20));
/// store.set(b"user:1", b"alice", 0, 0, 1_000)?;
/// let hit = store.get_with(b"user:1", |item| (item.value.to_vec(), item.cost));
/// assert_eq!(hit, Some((b"alice".to_vec(), 1_000)));
/// assert_eq!(store.policy_name(), "camp(p=5)");
/// # Ok::<(), camp_kvs::store::StoreError>(())
/// ```
pub struct Store {
    slabs: SlabAllocator,
    /// The store's one index: the policy, keyed by key fingerprint, holds
    /// each resident item's chunk (and the chunk holds the key bytes).
    policy: Box<dyn EvictionPolicy<u64, ChunkRef> + Send>,
    fingerprinter: Fingerprinter,
    mode: EvictionMode,
    stats: StoreStats,
    /// IQ cost timers: fingerprint → when its `iqget` missed. Two keys
    /// sharing a fingerprint share a timer: the later `iqset` measures from
    /// the later miss, a cost error no larger than the gap between them.
    iq_misses: FingerprintMap<Instant>,
    /// When `iq_misses` was last swept of expired timers.
    iq_last_sweep: Instant,
    /// Online miss-ratio/cost-miss profiler: spatially sampled shadow
    /// caches at 0.5×/1×/2× capacity, fed from the get/set/delete paths.
    profiler: ShadowProfiler,
    /// The eviction-trace sink attached to the policy (wrapped in a
    /// [`Tap`]), kept so policy rebuilds (`flush_all`) can re-attach it.
    sink: Option<SharedTraceSink>,
    /// Tallies over the decisions the policy reported through that sink.
    trace: EvictionTally,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("policy", &self.policy.name())
            .field("mode", &self.mode)
            .field("len", &self.policy.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// How many policy evictions to attempt before declaring the memory
    /// calcified and forcing a random slab eviction.
    const MAX_EVICTIONS_PER_ALLOC: usize = 1024;

    /// Creates a store with its own random fingerprint seed.
    #[must_use]
    pub fn new(config: StoreConfig) -> Self {
        Store::with_fingerprinter(config, Fingerprinter::random())
    }

    /// Test seam: a store whose fingerprints keep only `bits` bits (under
    /// a fixed seed), so distinct keys collide often and the collision
    /// semantics can be exercised.
    #[cfg(test)]
    pub(crate) fn with_fingerprint_bits(config: StoreConfig, bits: u32) -> Self {
        Store::with_fingerprinter(config, Fingerprinter::truncated(bits))
    }

    /// Creates a store that fingerprints keys like its siblings: a
    /// [`crate::shard::ShardedStore`] hands every shard its one seed.
    pub(crate) fn with_fingerprinter(config: StoreConfig, fingerprinter: Fingerprinter) -> Self {
        Store {
            slabs: SlabAllocator::new(config.slab),
            fingerprinter,
            policy: config.eviction.build_valued(policy_budget(&config.slab)),
            profiler: ShadowProfiler::new(&config.eviction, policy_budget(&config.slab)),
            mode: config.eviction,
            stats: StoreStats::default(),
            iq_misses: FingerprintMap::default(),
            iq_last_sweep: Instant::now(),
            sink: None,
            trace: EvictionTally::default(),
        }
    }

    /// Attaches (or detaches) the eviction-trace sink. The sink survives
    /// `flush_all`'s policy rebuild. While one is attached the store also
    /// tallies what it is told ([`Store::eviction_totals`]).
    pub fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.sink = sink.map(|attached| Arc::new(Tap { attached }) as SharedTraceSink);
        self.policy.set_trace_sink(self.sink.clone());
    }

    /// Totals over the policy decisions traced so far (since the last
    /// [`Store::reset_stats`]).
    #[must_use]
    pub fn eviction_totals(&self) -> EvictionTotals {
        EvictionTotals {
            admits: self.trace.admits,
            evictions: self.trace.evictions,
            eviction_costs: self.trace.eviction_costs.snapshot(),
            l_values: self.trace.l_values.snapshot(),
        }
    }

    /// Moves the decisions the policy reported during the current call
    /// from [`TAPPED`] into this store's tally. Every path that can make
    /// the policy report ends here before it returns, so the buffer only
    /// ever holds the calling store's own events.
    fn tally_tapped(&mut self) {
        if self.sink.is_some() {
            TAPPED.with_borrow_mut(|events| {
                for event in events.drain(..) {
                    self.trace.record(&event);
                }
            });
        }
    }

    /// The online shadow profiler (hit-ratio and cost-miss estimates at
    /// fractional capacities).
    #[must_use]
    pub fn profiler(&self) -> &ShadowProfiler {
        &self.profiler
    }

    /// The eviction policy in use.
    #[must_use]
    pub fn eviction_mode(&self) -> &EvictionMode {
        &self.mode
    }

    /// The active policy's self-reported name (e.g. `camp(p=5)`).
    #[must_use]
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Number of live items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.policy.len()
    }

    /// Whether the store holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.policy.is_empty()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Logical bytes resident, as accounted by the eviction policy.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.policy.used_bytes()
    }

    /// The active policy's internal gauges (CAMP: `L`, queue lengths, heap
    /// visits; others: whatever they can answer).
    #[must_use]
    pub fn policy_stats(&self) -> PolicyStats {
        self.policy.policy_stats()
    }

    /// Zeroes the cumulative counters and the policy's instrumentation
    /// (heap-visit counters). Cache contents are untouched — this
    /// re-baselines measurement, `flush_all` empties the cache.
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
        self.trace = EvictionTally::default();
        self.policy.reset_instrumentation();
        // Re-baseline the profiler's counters but keep its shadow caches
        // warm — estimates stay meaningful right after a reset.
        self.profiler.reset_counters();
    }

    /// Slab diagnostics: `(chunk_size, slabs, items)` per class.
    #[must_use]
    pub fn slab_census(&self) -> Vec<(u32, usize, u64)> {
        self.slabs.class_census()
    }

    /// The slab geometry this store was built with.
    #[must_use]
    pub fn slab_config(&self) -> &SlabConfig {
        self.slabs.config()
    }

    /// The item stored for exactly `h.key`, expired or not; no recency
    /// update. A different key under the same fingerprint is not this key.
    fn resident(&self, h: Hashed<'_>) -> Option<Item<'_>> {
        let item = Item::decode(self.slabs.read(*self.policy.peek(&h.fp)?));
        (item.key == h.key).then_some(item)
    }

    /// The one residency check every verb makes: the chunk holding exactly
    /// `h.key`, if that item is live at `now`. A read (`reference`) probes
    /// with `policy.get`, refreshing the slot's recency before the checks
    /// (see the module docs); the other verbs only peek. An item expired
    /// by `now` is removed here and is not resident.
    // Forced inline: as its own call, the check cost a read miss about
    // 10 % (`store/get_miss`).
    #[inline(always)]
    fn live(&mut self, h: Hashed<'_>, now: u64, reference: bool) -> Option<ChunkRef> {
        self.debug_check(h);
        let slot = if reference {
            self.policy.get(&h.fp)
        } else {
            self.policy.peek(&h.fp)
        };
        let chunk = *slot?;
        let item = Item::decode(self.slabs.read(chunk));
        if item.key != h.key {
            return None;
        }
        if !item.expired(now) {
            return Some(chunk);
        }
        self.expire(h.fp, chunk);
        None
    }

    /// Drops an expired item: lazily, when a verb finds it, or in
    /// recovery's sweep.
    fn expire(&mut self, fp: u64, chunk: ChunkRef) {
        self.policy.take(&fp);
        self.slabs.free(chunk);
        self.stats.expired += 1;
        self.profiler.record_delete(&fp);
    }

    /// Removes every item expired by `now`, as the residency check would
    /// on first use. Recovery replays the journal with the clock stopped,
    /// then calls this once, at boot time.
    pub(crate) fn drop_expired(&mut self, now: u64) {
        let mut expired = Vec::new();
        self.policy.for_each(&mut |&fp, &chunk| {
            if Item::decode(self.slabs.read(chunk)).expired(now) {
                expired.push((fp, chunk));
            }
        });
        for (fp, chunk) in expired {
            self.expire(fp, chunk);
        }
    }

    /// Copy-free lookup: on a live hit, applies `f` to the [`Item`] while
    /// it still resides in its slab chunk and returns the result. Recency
    /// is updated and an expired item is dropped; no bytes are copied out
    /// of the arena — the server serializes the wire reply from inside the
    /// visitor. This path is allocation-free.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(&Item<'_>) -> R) -> Option<R> {
        self.get_hashed(self.fingerprinter.hash(key), unix_now(), f)
    }

    /// [`Store::get_with`] for a key fingerprinted by the caller, at the
    /// caller's clock: the server's read, which reads the clock once per
    /// reactor wakeup rather than once per lookup.
    pub(crate) fn get_hashed<R>(
        &mut self,
        h: Hashed<'_>,
        now: u64,
        f: impl FnOnce(&Item<'_>) -> R,
    ) -> Option<R> {
        let Some(chunk) = self.live(h, now, true) else {
            self.stats.get_misses += 1;
            // The miss cost is unknown until the pair is set; charging zero
            // undercounts est_miss_cost equally at every scale, so the
            // cross-scale deltas the profiler exists for are unaffected.
            self.profiler.record_get(&h.fp, 0, 0);
            return None;
        };
        let item = Item::decode(self.slabs.read(chunk));
        self.stats.get_hits += 1;
        let size = Item::encoded_len(h.key.len(), item.value.len()) as u64;
        self.profiler.record_get(&h.fp, size, item.cost);
        Some(f(&item))
    }

    /// Starts the IQ cost timer of an `iqget` that missed at `now`. The
    /// timers are swept of expired entries once per TTL period, or sooner
    /// (at most once per `IQ_FULL_SWEEP_GAP`) while the store times as
    /// many misses as it keeps; if it still does after the sweep, the miss
    /// goes untimed (amortized O(1) per miss either way).
    pub(crate) fn record_iq_miss(&mut self, fp: u64, now: Instant) {
        // Saturating: `now` is the caller's stamp, which another worker's
        // later-stamped sweep may already have passed.
        let since_sweep = now.saturating_duration_since(self.iq_last_sweep);
        let full = self.iq_misses.len() >= IQ_SHARD_CAP;
        if since_sweep >= IQ_MISS_TTL || (full && since_sweep >= IQ_FULL_SWEEP_GAP) {
            let before = self.iq_misses.len();
            self.iq_misses
                .retain(|_, started| now.saturating_duration_since(*started) < IQ_MISS_TTL);
            self.stats.iq_sweep_reclaimed += (before - self.iq_misses.len()) as u64;
            self.iq_last_sweep = now;
        }
        if self.iq_misses.len() >= IQ_SHARD_CAP && !self.iq_misses.contains_key(&fp) {
            self.stats.iq_misses_dropped += 1;
            return;
        }
        self.iq_misses.insert(fp, now);
    }

    /// Stops the IQ cost timer for `fp`, returning how long it ran if it
    /// was running and had not expired by `now`.
    pub(crate) fn take_iq_miss(&mut self, fp: u64, now: Instant) -> Option<Duration> {
        let started = self.iq_misses.remove(&fp)?;
        Some(now.saturating_duration_since(started)).filter(|&age| age < IQ_MISS_TTL)
    }

    /// Unmatched `iqget` misses whose timers are running.
    pub(crate) fn iq_misses_pending(&self) -> usize {
        self.iq_misses.len()
    }

    /// Whether `key` is resident (no recency update, no expiry check).
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.contains_hashed(self.fingerprinter.hash(key))
    }

    pub(crate) fn contains_hashed(&self, h: Hashed<'_>) -> bool {
        self.resident(h).is_some()
    }

    /// A caller-made [`Hashed`] must come from this store's fingerprinter
    /// (a sharded store shares one with its shards).
    #[inline]
    fn debug_check(&self, h: Hashed<'_>) {
        debug_assert_eq!(
            h.fp,
            self.fingerprinter.fingerprint(h.key),
            "key hashed under another store's seed"
        );
    }

    /// Visits every resident item in place (no recency update, no expiry
    /// filtering, no stats). The persistence layer's compaction snapshot
    /// walks the store through this, in the order the policy's
    /// [`EvictionPolicy::for_each`] visits its pairs.
    pub fn for_each_item(&self, mut f: impl FnMut(&Item<'_>)) {
        self.policy
            .for_each(&mut |_, &chunk| f(&Item::decode(self.slabs.read(chunk))));
    }

    /// A resident key's `(flags, expires_at, cost)` without touching
    /// recency, stats or the profiler — the one read of an item's expiry
    /// (recovery tests check a journaled `touch` with it).
    #[must_use]
    pub fn peek_meta(&self, key: &[u8]) -> Option<(u32, u64, u64)> {
        self.peek_meta_hashed(self.fingerprinter.hash(key))
    }

    pub(crate) fn peek_meta_hashed(&self, h: Hashed<'_>) -> Option<(u32, u64, u64)> {
        let item = self.resident(h)?;
        Some((item.flags, item.expires_at, item.cost))
    }

    /// Stores a key-value pair with the given flags, absolute expiry (unix
    /// seconds, 0 = never) and cost.
    ///
    /// # Errors
    ///
    /// [`StoreError::ValueTooLarge`] if the encoded item exceeds a slab;
    /// [`StoreError::OutOfMemory`] if eviction cannot free a chunk.
    pub fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<(), StoreError> {
        self.set_hashed(self.fingerprinter.hash(key), value, flags, expires_at, cost)
    }

    /// [`Store::set`] for a key fingerprinted by the caller.
    pub(crate) fn set_hashed(
        &mut self,
        h: Hashed<'_>,
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<(), StoreError> {
        // Storing is the one path on which the policy admits and evicts.
        let stored = self.store_item(h, value, flags, expires_at, cost);
        self.tally_tapped();
        stored
    }

    fn store_item(
        &mut self,
        h: Hashed<'_>,
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<(), StoreError> {
        self.debug_check(h);
        let key = h.key;
        let total = Item::encoded_len(key.len(), value.len());
        let total = u32::try_from(total).map_err(|_| StoreError::ValueTooLarge {
            requested: u32::MAX,
            max: self.slabs.config().slab_size,
        })?;
        let class = match self.slabs.class_for(total) {
            Ok(class) => class,
            Err(SlabError::ItemTooLarge { requested, max }) => {
                return Err(StoreError::ValueTooLarge { requested, max })
            }
            Err(SlabError::NoMemory { .. }) => unreachable!("class_for never reports memory"),
        };
        // Whatever holds the fingerprint's slot leaves first: this key's
        // old item (replace semantics), or — once in ~2⁶⁴ pairs — another
        // key's, replaced the same way so the slot never holds two keys.
        if let Some(old_chunk) = self.policy.take(&h.fp) {
            if Item::decode(self.slabs.read(old_chunk)).key != key {
                self.stats.fingerprint_collisions += 1;
            }
            self.free_chunk(old_chunk, class);
        }
        let chunk = self.allocate_with_eviction(class)?;
        let item = Item {
            key,
            value,
            flags,
            cost,
            expires_at,
        };
        item.encode_into(self.slabs.chunk_mut(chunk));
        // Admit the chunk into the policy, which may evict on its own
        // logical budget (rare — slab exhaustion normally fires first,
        // above — so the list seldom allocates).
        let mut evicted = Vec::new();
        let outcome = self
            .policy
            .admit(h.fp, chunk, u64::from(total), cost, &mut |_, gone| {
                evicted.push(gone);
            });
        for victim in evicted {
            self.free_chunk(victim, class);
            self.stats.evictions += 1;
        }
        if outcome == AccessOutcome::MissBypassed {
            // The policy refused the item (can only happen when the whole
            // budget is smaller than one item): undo the allocation.
            self.slabs.free(chunk);
            return Err(StoreError::OutOfMemory);
        }
        self.stats.sets += 1;
        self.profiler.record_set(&h.fp, u64::from(total), cost);
        Ok(())
    }

    /// Stores the pair only if `key` is absent (memcached `add`). Returns
    /// whether it was stored.
    ///
    /// # Errors
    ///
    /// Same as [`Store::set`].
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<bool, StoreError> {
        let h = self.fingerprinter.hash(key);
        self.add_hashed(h, value, flags, expires_at, cost, unix_now())
    }

    /// [`Store::add`] for a key fingerprinted by the caller, at its clock.
    pub(crate) fn add_hashed(
        &mut self,
        h: Hashed<'_>,
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
        now: u64,
    ) -> Result<bool, StoreError> {
        if self.live(h, now, false).is_some() {
            return Ok(false);
        }
        self.set_hashed(h, value, flags, expires_at, cost)
            .map(|()| true)
    }

    /// Stores the pair only if `key` is already resident (memcached
    /// `replace`). Returns whether it was stored.
    ///
    /// # Errors
    ///
    /// Same as [`Store::set`].
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) -> Result<bool, StoreError> {
        let h = self.fingerprinter.hash(key);
        self.replace_hashed(h, value, flags, expires_at, cost, unix_now())
    }

    /// [`Store::replace`] for a key fingerprinted by the caller, at its
    /// clock.
    pub(crate) fn replace_hashed(
        &mut self,
        h: Hashed<'_>,
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
        now: u64,
    ) -> Result<bool, StoreError> {
        if self.live(h, now, false).is_none() {
            return Ok(false);
        }
        self.set_hashed(h, value, flags, expires_at, cost)
            .map(|()| true)
    }

    /// Atomically adds `delta` to a numeric ASCII value (memcached `incr`).
    /// Returns the new value, or `None` if the key is absent or the value
    /// is not an unsigned decimal number. Flags, expiry and cost are
    /// preserved.
    pub fn incr(&mut self, key: &[u8], delta: u64) -> Option<u64> {
        self.add_signed(self.fingerprinter.hash(key), delta, true, unix_now())
            .map(|(next, _)| next)
    }

    /// Memcached `decr`: like [`Store::incr`] but subtracting, floored at
    /// zero (memcached semantics).
    pub fn decr(&mut self, key: &[u8], delta: u64) -> Option<u64> {
        self.add_signed(self.fingerprinter.hash(key), delta, false, unix_now())
            .map(|(next, _)| next)
    }

    /// `incr` (`up`) or `decr` for a key fingerprinted by the caller, at
    /// its clock. Beside the new value it hands back the
    /// `(flags, expires_at, cost)` the rewrite kept, so the server can
    /// journal the rewrite without taking the shard lock a second time.
    pub(crate) fn add_signed(
        &mut self,
        h: Hashed<'_>,
        delta: u64,
        up: bool,
        now: u64,
    ) -> Option<(u64, (u32, u64, u64))> {
        let chunk = self.live(h, now, false)?;
        let (current, flags, cost, expires_at) = {
            let item = Item::decode(self.slabs.read(chunk));
            let text = std::str::from_utf8(item.value).ok()?;
            let current: u64 = text.trim().parse().ok()?;
            (current, item.flags, item.cost, item.expires_at)
        };
        let next = if up {
            current.wrapping_add(delta)
        } else {
            current.saturating_sub(delta)
        };
        let mut digits = [0u8; 20];
        let rendered = crate::resp::u64_digits(next, &mut digits);
        self.set_hashed(h, rendered, flags, expires_at, cost).ok()?;
        Some((next, (flags, expires_at, cost)))
    }

    /// Updates the expiry of a resident key in place (memcached `touch`).
    /// Returns whether the key was resident.
    pub fn touch(&mut self, key: &[u8], expires_at: u64) -> bool {
        self.touch_hashed(self.fingerprinter.hash(key), expires_at, unix_now())
    }

    /// [`Store::touch`] for a key fingerprinted by the caller, at its clock.
    pub(crate) fn touch_hashed(&mut self, h: Hashed<'_>, expires_at: u64, now: u64) -> bool {
        let Some(chunk) = self.live(h, now, false) else {
            return false;
        };
        self.slabs.chunk_mut(chunk)[EXPIRY_OFFSET..HEADER_LEN]
            .copy_from_slice(&expires_at.to_be_bytes());
        true
    }

    /// Drops every item and every running IQ cost timer (memcached
    /// `flush_all`).
    pub fn flush_all(&mut self) {
        self.iq_misses.clear();
        self.policy
            .for_each(&mut |_, &chunk| self.slabs.free(chunk));
        // A fresh policy instance is cheaper and simpler than removing every
        // key from the old one. The trace sink survives the rebuild, and the
        // shadow caches restart cold to mirror the emptied store.
        self.policy = self.mode.build_valued(policy_budget(self.slabs.config()));
        self.policy.set_trace_sink(self.sink.clone());
        self.profiler = ShadowProfiler::new(&self.mode, policy_budget(self.slabs.config()));
    }

    /// Deletes `key`. Returns whether it was resident.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        self.delete_hashed(self.fingerprinter.hash(key), unix_now())
    }

    /// [`Store::delete`] for a key fingerprinted by the caller, at its
    /// clock.
    pub(crate) fn delete_hashed(&mut self, h: Hashed<'_>, now: u64) -> bool {
        let Some(chunk) = self.live(h, now, false) else {
            return false;
        };
        self.policy.take(&h.fp);
        self.free_chunk(chunk, chunk.class());
        self.stats.deletes += 1;
        self.profiler.record_delete(&h.fp);
        true
    }

    /// Frees a chunk; if its slab empties and a different class needs
    /// memory, the slab is reclaimed for `needed_class`.
    fn free_chunk(&mut self, chunk: ChunkRef, needed_class: u8) {
        let slab = chunk.slab();
        let old_class = chunk.class();
        self.slabs.free(chunk);
        if old_class != needed_class && self.slabs.slab_is_empty(slab) {
            self.slabs.complete_reassign(slab, needed_class);
            self.stats.slab_reclaims += 1;
        }
    }

    /// The §5 allocation protocol, for a chunk of `class`.
    fn allocate_with_eviction(&mut self, class: u8) -> Result<ChunkRef, StoreError> {
        for _ in 0..Self::MAX_EVICTIONS_PER_ALLOC {
            if let Ok(chunk) = self.slabs.allocate_in_class(class) {
                return Ok(chunk);
            }
            // A fully empty slab of another class is free memory: reassign
            // it without evicting anything. With none (the steady state
            // under pressure) the lookup costs O(1).
            if let Some(slab) = self.slabs.find_empty_slab_not_of(class) {
                self.slabs.complete_reassign(slab, class);
                self.stats.slab_reclaims += 1;
                continue;
            }
            // Step 3: the policy takes one step of its own eviction.
            let Some((_, chunk)) = self.policy.evict() else {
                // Nothing left to evict and no reusable slab: the item
                // cannot fit.
                return Err(StoreError::OutOfMemory);
            };
            self.free_chunk(chunk, class);
            self.stats.evictions += 1;
        }
        // Calcified: force a random slab eviction (Twemcache's mitigation).
        let Some((slab_index, victims)) = self.slabs.reassign_random_slab(class) else {
            return Err(StoreError::OutOfMemory);
        };
        for chunk in victims {
            // The one place a stored key is fingerprinted again.
            let fp = self
                .fingerprinter
                .fingerprint(Item::decode(self.slabs.read(chunk)).key);
            // lint:allow(unwrap-in-lib) — every live chunk was written by
            // `set`, which admitted it under its key's fingerprint.
            let held = self.policy.take(&fp).expect("slab item is resident");
            debug_assert_eq!(held, chunk, "fingerprint slot holds another chunk");
            self.slabs.free(chunk);
            self.stats.slab_evictions += 1;
        }
        self.slabs.complete_reassign(slab_index, class);
        self.stats.slab_reassignments += 1;
        self.slabs
            .allocate_in_class(class)
            .map_err(|_| StoreError::OutOfMemory)
    }
}

/// The logical byte budget handed to the policy: the full slab memory.
fn policy_budget(slab: &SlabConfig) -> u64 {
    u64::from(slab.slab_size) * u64::from(slab.max_slabs)
}

/// The wall clock in whole seconds since the epoch (item expiry's unit).
pub(crate) fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::rng::Rng64;
    use camp_core::Precision;

    fn small_store(mode: EvictionMode) -> Store {
        Store::new(StoreConfig {
            slab: SlabConfig::small(4096, 4),
            eviction: mode,
        })
    }

    /// `key`'s value, flags and cost, read as the server reads, at `now`.
    fn read_at(store: &mut Store, key: &[u8], now: u64) -> Option<(Vec<u8>, u32, u64)> {
        let h = store.fingerprinter.hash(key);
        store.get_hashed(h, now, |item| (item.value.to_vec(), item.flags, item.cost))
    }

    fn read(store: &mut Store, key: &[u8]) -> Option<(Vec<u8>, u32, u64)> {
        read_at(store, key, unix_now())
    }

    fn all_modes() -> Vec<EvictionMode> {
        EvictionMode::all_names()
            .into_iter()
            .map(|n| n.parse().unwrap())
            .collect()
    }

    #[test]
    fn set_get_delete_roundtrip_all_modes() {
        for mode in all_modes() {
            let mut store = small_store(mode.clone());
            store.set(b"alpha", b"1111", 3, 0, 50).unwrap();
            store.set(b"beta", b"2222", 0, 0, 60).unwrap();
            let got = read(&mut store, b"alpha");
            assert_eq!(got, Some((b"1111".to_vec(), 3, 50)), "{mode}");
            assert!(store.delete(b"alpha"));
            assert!(!store.delete(b"alpha"));
            assert!(read(&mut store, b"alpha").is_none());
            assert_eq!(store.len(), 1);
            let stats = store.stats();
            assert_eq!(stats.sets, 2);
            assert_eq!(stats.get_hits, 1);
            assert_eq!(stats.get_misses, 1);
            assert_eq!(stats.deletes, 1);
            assert!(!store.policy_name().is_empty());
        }
    }

    #[test]
    fn replace_updates_value_in_place() {
        let mut store = small_store(EvictionMode::Camp(Precision::Bits(5)));
        store.set(b"k", b"old", 0, 0, 1).unwrap();
        store.set(b"k", b"new-and-longer", 0, 0, 2).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(read(&mut store, b"k").unwrap().0, b"new-and-longer");
    }

    #[test]
    fn eviction_kicks_in_when_slabs_fill() {
        let mut store = small_store(EvictionMode::Lru);
        // Value ~60 bytes -> with header+key roughly one 120-byte chunk.
        // 4 slabs x 4096 -> 4 * 34 chunks of 120 bytes.
        for i in 0..400u32 {
            let key = format!("key-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        assert!(store.stats().evictions > 0);
        assert!(store.len() < 400);
        // The most recent key must still be there under LRU.
        assert!(store.contains(b"key-0399"));
    }

    #[test]
    fn every_mode_survives_slab_pressure() {
        for mode in all_modes() {
            let mut store = small_store(mode.clone());
            for i in 0..400u32 {
                let key = format!("key-{i:04}");
                let cost = 1 + u64::from(i % 7) * 100;
                store.set(key.as_bytes(), &[0u8; 60], 0, 0, cost).unwrap();
                assert_layers_agree(&store, &mode.to_string());
            }
            assert!(store.stats().evictions > 0, "{mode}: no evictions");
            assert!(store.len() < 400, "{mode}");
        }
    }

    #[test]
    fn camp_store_protects_expensive_items() {
        let mut store = small_store(EvictionMode::Camp(Precision::Bits(5)));
        store
            .set(b"expensive", &[7u8; 60], 0, 0, 1_000_000)
            .unwrap();
        for i in 0..600u32 {
            let key = format!("cheap-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        assert!(
            store.contains(b"expensive"),
            "CAMP must keep the expensive item under cheap churn"
        );
        let mut lru_store = small_store(EvictionMode::Lru);
        lru_store
            .set(b"expensive", &[7u8; 60], 0, 0, 1_000_000)
            .unwrap();
        for i in 0..600u32 {
            let key = format!("cheap-{i:04}");
            lru_store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        assert!(
            !lru_store.contains(b"expensive"),
            "LRU is cost-blind and must have evicted it"
        );
    }

    #[test]
    fn gds_store_also_protects_expensive_items() {
        let mut store = small_store(EvictionMode::Gds);
        store
            .set(b"expensive", &[7u8; 60], 0, 0, 1_000_000)
            .unwrap();
        for i in 0..600u32 {
            let key = format!("cheap-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        assert!(
            store.contains(b"expensive"),
            "GDS must keep the expensive item under cheap churn"
        );
    }

    #[test]
    fn get_with_visits_the_resident_item() {
        let mut store = small_store(EvictionMode::Lru);
        store.set(b"k", b"value-bytes", 9, 0, 33).unwrap();
        let mut out = Vec::new();
        let seen = store.get_with(b"k", |item| {
            out.extend_from_slice(item.value);
            (item.flags, item.cost)
        });
        assert_eq!(seen, Some((9, 33)));
        assert_eq!(out, b"value-bytes");
        assert!(store.get_with(b"missing", |_| ()).is_none());
        let stats = store.stats();
        assert_eq!(stats.get_hits, 1);
        assert_eq!(stats.get_misses, 1);
    }

    #[test]
    fn get_with_updates_recency() {
        let mut store = small_store(EvictionMode::Lru);
        store.set(b"pinned", &[0u8; 60], 0, 0, 1).unwrap();
        for i in 0..300u32 {
            // Keep touching the pinned key through the visitor API while
            // churning enough cheap keys to force evictions.
            store.get_with(b"pinned", |_| ()).unwrap();
            let key = format!("churn-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        assert!(store.stats().evictions > 0);
        assert!(store.contains(b"pinned"), "touched key must survive LRU");
    }

    #[test]
    fn expired_items_are_dropped_lazily() {
        let mut store = small_store(EvictionMode::Lru);
        store.set(b"ttl", b"v", 0, 100, 1).unwrap(); // expires at t=100
        assert!(read_at(&mut store, b"ttl", 99).is_some());
        assert!(read_at(&mut store, b"ttl", 100).is_none());
        assert_eq!(store.stats().expired, 1);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn oversized_item_is_rejected() {
        let mut store = small_store(EvictionMode::Lru);
        let err = store.set(b"big", &[0u8; 8192], 0, 0, 1).unwrap_err();
        assert!(matches!(err, StoreError::ValueTooLarge { .. }));
    }

    #[test]
    fn calcification_is_resolved_by_slab_reassignment() {
        let mut store = small_store(EvictionMode::Lru);
        // Fill every slab with small items.
        for i in 0..400u32 {
            let key = format!("small-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        // Now store large items that need a different class. Policy
        // evictions (LRU order) free small-class chunks; only slab
        // reclaim/reassignment can serve the big class.
        for i in 0..8u32 {
            let key = format!("large-{i}");
            store.set(key.as_bytes(), &[1u8; 2000], 0, 0, 1).unwrap();
        }
        let stats = store.stats();
        assert!(
            stats.slab_reassignments + stats.slab_reclaims > 0,
            "expected a slab to change class: {stats:?}"
        );
        assert!(store.contains(b"large-7"));
    }

    #[test]
    fn add_and_replace_respect_presence() {
        let mut store = small_store(EvictionMode::Lru);
        assert!(store.add(b"k", b"v1", 0, 0, 1).unwrap());
        assert!(!store.add(b"k", b"v2", 0, 0, 1).unwrap(), "add on resident");
        assert_eq!(read(&mut store, b"k").unwrap().0, b"v1");
        assert!(store.replace(b"k", b"v3", 0, 0, 1).unwrap());
        assert_eq!(read(&mut store, b"k").unwrap().0, b"v3");
        assert!(!store.replace(b"absent", b"x", 0, 0, 1).unwrap());
        assert!(!store.contains(b"absent"));
    }

    #[test]
    fn incr_decr_numeric_semantics() {
        let mut store = small_store(EvictionMode::Lru);
        store.set(b"n", b"10", 7, 0, 42).unwrap();
        assert_eq!(store.incr(b"n", 5), Some(15));
        assert_eq!(store.decr(b"n", 20), Some(0), "decr floors at zero");
        assert_eq!(read(&mut store, b"n").unwrap().0, b"0");
        // Flags and cost are preserved across the rewrite.
        let (_, flags, cost) = read(&mut store, b"n").unwrap();
        assert_eq!((flags, cost), (7, 42));
        // Non-numeric and absent keys fail.
        store.set(b"s", b"hello", 0, 0, 1).unwrap();
        assert_eq!(store.incr(b"s", 1), None);
        assert_eq!(store.incr(b"missing", 1), None);
    }

    #[test]
    fn incr_decr_rewrite_the_stored_digits() {
        let mut store = small_store(EvictionMode::Lru);
        let max = u64::MAX.to_string();
        let below_max = (u64::MAX - 1).to_string();
        let mut check = |before: &[u8], up: bool, delta: u64, next: u64, after: &[u8]| {
            store.set(b"n", before, 3, 0, 8).unwrap();
            let reply = if up {
                store.incr(b"n", delta)
            } else {
                store.decr(b"n", delta)
            };
            let context = format!("{} {}", String::from_utf8_lossy(before), delta);
            assert_eq!(reply, Some(next), "{context}");
            assert_eq!(
                read(&mut store, b"n"),
                Some((after.to_vec(), 3, 8)),
                "{context}"
            );
        };
        check(b"0", true, 0, 0, b"0");
        check(b"0", false, 1, 0, b"0");
        check(b"9", true, 1, 10, b"10");
        check(b"999999999", true, 1, 1_000_000_000, b"1000000000");
        check(b"10", false, 1, 9, b"9");
        check(below_max.as_bytes(), true, 1, u64::MAX, max.as_bytes());
        check(max.as_bytes(), true, 2, 1, b"1");
        check(b"5", false, 7, 0, b"0");
    }

    #[test]
    fn evicting_sets_never_walk_the_slabs_when_none_is_empty() {
        // 1 024 slabs of 1 KiB, two size classes, mixed costs.
        let mut store = Store::new(StoreConfig {
            slab: SlabConfig::small(1024, 1024),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        let set = |store: &mut Store, i: u32| {
            let (key, value) = if i.is_multiple_of(3) {
                (format!("large-{i}"), &[1u8; 400][..])
            } else {
                (format!("small-{i}"), &[0u8; 60][..])
            };
            let cost = 1 + u64::from(i % 7) * 100;
            store.set(key.as_bytes(), value, 0, 0, cost).unwrap();
        };
        let mut i = 0;
        while store.stats().evictions == 0 {
            set(&mut store, i);
            i += 1;
        }
        assert_eq!(store.slabs.slab_count(), 1024);
        // Steady pressure: about one eviction per set, and no slab empty.
        let visits = store.slabs.empty_scan_visits();
        let evictions = store.stats().evictions;
        for _ in 0..20_000 {
            set(&mut store, i);
            i += 1;
            if i.is_multiple_of(1_000) {
                assert_layers_agree(&store, "steady");
            }
        }
        let evicted = store.stats().evictions - evictions;
        assert!(evicted > 15_000, "{evicted} evictions");
        assert_eq!(
            store.slabs.empty_scan_visits() - visits,
            0,
            "slab entries visited"
        );
        // Deleting every large item empties their slabs; small sets then
        // reclaim those slabs through the walk instead of evicting.
        let (evictions, reclaims) = (store.stats().evictions, store.stats().slab_reclaims);
        for j in (0..i).filter(|j| j.is_multiple_of(3)) {
            store.delete(format!("large-{j}").as_bytes());
        }
        while store.stats().slab_reclaims == reclaims {
            i += u32::from(i.is_multiple_of(3));
            set(&mut store, i);
            i += 1;
            assert_eq!(store.stats().evictions, evictions, "reclaimed, not evicted");
        }
        assert_layers_agree(&store, "after deletes");
        assert!(store.slabs.empty_scan_visits() > visits);
    }

    #[test]
    fn touch_updates_expiry_in_place() {
        let mut store = small_store(EvictionMode::Lru);
        store.set(b"t", b"v", 0, 100, 1).unwrap();
        let h = store.fingerprinter.hash(b"t");
        assert!(store.touch_hashed(h, 500, 99));
        assert!(
            read_at(&mut store, b"t", 300).is_some(),
            "touched key must live on"
        );
        assert!(read_at(&mut store, b"t", 500).is_none());
        assert!(!store.touch(b"missing", 1));
    }

    #[test]
    fn iq_timers_are_capped_and_keep_their_start_times() {
        let mut store = small_store(EvictionMode::Lru);
        // An early miss whose `iqset` comes back after the flood.
        let t0 = Instant::now();
        store.record_iq_miss(u64::MAX, t0);
        for fp in 0..4 * IQ_SHARD_CAP as u64 {
            store.record_iq_miss(fp, t0);
        }
        let pending = store.iq_misses_pending();
        assert!(pending <= IQ_SHARD_CAP, "{pending} timers");
        let dropped = store.stats().iq_misses_dropped;
        assert_eq!(dropped, 3 * IQ_SHARD_CAP as u64 + 1);
        // Re-recording a key the full store already times is not a drop.
        store.record_iq_miss(7, t0);
        assert_eq!(store.stats().iq_misses_dropped, dropped);
        // The timed miss still prices its pair, from the clock the caller
        // hands in; a dropped one costs 0, and so does one whose pair comes
        // back after the TTL.
        let later = t0 + Duration::from_millis(2);
        assert_eq!(
            store.take_iq_miss(u64::MAX, later),
            Some(Duration::from_millis(2))
        );
        assert!(store
            .take_iq_miss(4 * IQ_SHARD_CAP as u64 - 1, later)
            .is_none());
        assert!(store.take_iq_miss(7, t0 + IQ_MISS_TTL).is_none());
        store.record_iq_miss(7, t0);
        assert_eq!(store.iq_misses_pending(), IQ_SHARD_CAP - 1);
    }

    #[test]
    fn full_iq_timers_sweep_ahead_of_the_ttl_schedule() {
        let now = Instant::now();
        let (Some(expired), Some(swept_recently)) = (
            now.checked_sub(IQ_MISS_TTL + Duration::from_secs(1)),
            now.checked_sub(IQ_FULL_SWEEP_GAP * 2),
        ) else {
            return; // the monotonic clock is younger than the TTL
        };
        let mut store = small_store(EvictionMode::Lru);
        store.iq_misses = (0..IQ_SHARD_CAP as u64).map(|fp| (fp, expired)).collect();
        store.iq_last_sweep = swept_recently;
        store.record_iq_miss(u64::MAX, now);
        assert_eq!(
            store.iq_misses_pending(),
            1,
            "the abandoned timers were swept"
        );
        assert_eq!(store.stats().iq_sweep_reclaimed, IQ_SHARD_CAP as u64);
        assert_eq!(store.stats().iq_misses_dropped, 0);
        assert!(store.take_iq_miss(u64::MAX, now).is_some());
    }

    #[test]
    fn flush_all_empties_the_store() {
        for mode in all_modes() {
            let mut store = small_store(mode.clone());
            for i in 0..20u32 {
                store
                    .set(format!("k{i}").as_bytes(), b"v", 0, 0, 1)
                    .unwrap();
            }
            store.flush_all();
            assert!(store.is_empty(), "{mode}");
            // Memory is reusable afterwards.
            store.set(b"fresh", b"v", 0, 0, 1).unwrap();
            assert!(store.contains(b"fresh"));
        }
    }

    #[derive(Debug, Default)]
    struct CountingSink {
        admits: std::sync::atomic::AtomicU64,
        evicts: std::sync::atomic::AtomicU64,
    }

    impl camp_policies::TraceSink for CountingSink {
        fn record(&self, event: &camp_policies::PolicyEvent) {
            use std::sync::atomic::Ordering;
            match event.kind {
                camp_policies::PolicyEventKind::Admit => {
                    self.admits.fetch_add(1, Ordering::Relaxed)
                }
                camp_policies::PolicyEventKind::Evict => {
                    self.evicts.fetch_add(1, Ordering::Relaxed)
                }
            };
        }
    }

    #[test]
    fn trace_sink_sees_pressure_evictions_and_survives_flush() {
        use std::sync::atomic::Ordering;
        let sink = std::sync::Arc::new(CountingSink::default());
        let mut store = small_store(EvictionMode::Camp(Precision::Bits(5)));
        store.set_trace_sink(Some(sink.clone()));
        for i in 0..400u32 {
            let key = format!("key-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
        }
        assert!(store.stats().evictions > 0);
        assert!(sink.admits.load(Ordering::Relaxed) >= 400);
        assert!(
            sink.evicts.load(Ordering::Relaxed) >= store.stats().evictions,
            "every capacity eviction must be traced"
        );
        // The sink survives flush_all's policy rebuild.
        store.flush_all();
        let admits_before = sink.admits.load(Ordering::Relaxed);
        store.set(b"fresh", b"v", 0, 0, 1).unwrap();
        assert!(sink.admits.load(Ordering::Relaxed) > admits_before);
    }

    #[test]
    fn traced_decisions_are_tallied_per_store_and_reset_with_the_stats() {
        use std::sync::atomic::Ordering;
        let sink = std::sync::Arc::new(CountingSink::default());
        let mut traced = small_store(EvictionMode::Camp(Precision::Bits(5)));
        let mut other = small_store(EvictionMode::Lru);
        let mut untraced = small_store(EvictionMode::Lru);
        traced.set_trace_sink(Some(sink.clone()));
        other.set_trace_sink(Some(sink.clone()));
        // Interleaved on one thread: each store tallies its own decisions.
        for i in 0..400u32 {
            let key = format!("key-{i:04}");
            let cost = 1 + u64::from(i % 5) * 100;
            traced.set(key.as_bytes(), &[0u8; 60], 0, 0, cost).unwrap();
            other.set(key.as_bytes(), &[0u8; 200], 0, 0, cost).unwrap();
            untraced
                .set(key.as_bytes(), &[0u8; 60], 0, 0, cost)
                .unwrap();
            let _ = read(&mut traced, key.as_bytes());
        }
        assert!(traced.delete(b"key-0399"));
        // An oversized item fails after evicting: still tallied.
        assert!(other.set(b"big", &[0u8; 8192], 0, 0, 1).is_err());
        let mut sum = EvictionTotals::default();
        for store in [&traced, &other] {
            let (totals, stats) = (store.eviction_totals(), store.stats());
            assert!(stats.evictions > 0);
            assert_eq!(totals.admits, stats.sets);
            assert_eq!(totals.evictions, stats.evictions);
            assert_eq!(totals.eviction_costs.count, totals.evictions);
            assert!(totals.eviction_costs.max <= 401);
            sum.merge(&totals);
        }
        assert_eq!(sum.admits, sink.admits.load(Ordering::Relaxed));
        assert_eq!(sum.evictions, sink.evicts.load(Ordering::Relaxed));
        // CAMP reports its L with every decision once it has left zero;
        // LRU has none to report.
        let camp = traced.eviction_totals();
        assert!(camp.l_values.count > 0 && camp.l_values.count <= camp.admits + camp.evictions);
        assert_eq!(other.eviction_totals().l_values.count, 0);
        assert_eq!(untraced.eviction_totals(), EvictionTotals::default());
        traced.reset_stats();
        assert_eq!(traced.eviction_totals(), EvictionTotals::default());
    }

    #[test]
    fn explicit_deletes_emit_no_eviction_trace() {
        use std::sync::atomic::Ordering;
        let sink = std::sync::Arc::new(CountingSink::default());
        let mut store = small_store(EvictionMode::Lru);
        store.set_trace_sink(Some(sink.clone()));
        store.set(b"k", b"v", 0, 0, 1).unwrap();
        assert!(store.delete(b"k"));
        assert_eq!(sink.evicts.load(Ordering::Relaxed), 0);
    }

    /// Slab pressure evicts through each clocked ordering's own step, so
    /// `L` (GD-Wheel's clock) moves as it does in the simulator: the
    /// `l_value` of the `Evict` events never falls, and ends above zero.
    #[test]
    fn slab_pressure_advances_the_clock_of_every_clocked_ordering() {
        #[derive(Debug, Default)]
        struct EvictionLs(std::sync::Mutex<Vec<u64>>);
        impl TraceSink for EvictionLs {
            fn record(&self, event: &PolicyEvent) {
                if event.kind == PolicyEventKind::Evict {
                    crate::sync::lock(&self.0).push(event.l_value);
                }
            }
        }
        for mode in ["camp", "camp:inf", "gds", "gdsf", "gd-wheel"] {
            let sink = std::sync::Arc::new(EvictionLs::default());
            let mut store = Store::new(StoreConfig {
                slab: SlabConfig::small(4096, 8),
                eviction: mode.parse().unwrap(),
            });
            store.set_trace_sink(Some(sink.clone()));
            for i in 0..5_000u64 {
                let key = format!("key-{i}");
                let cost = 1 + i % 7 * 100;
                store.set(key.as_bytes(), &[0u8; 60], 0, 0, cost).unwrap();
            }
            let ls = crate::sync::lock(&sink.0);
            assert!(ls.len() > 4_000, "{mode}: {} evictions", ls.len());
            assert_eq!(ls.len() as u64, store.stats().evictions, "{mode}");
            assert!(ls.windows(2).all(|w| w[0] <= w[1]), "{mode}: L fell");
            assert!(ls.last() > Some(&0), "{mode}: L never left zero");
        }
    }

    /// A store whose fingerprints keep 4 bits: 16 slots, collisions galore.
    fn colliding_store(mode: EvictionMode) -> Store {
        Store::with_fingerprint_bits(
            StoreConfig {
                slab: SlabConfig::small(4096, 4),
                eviction: mode,
            },
            4,
        )
    }

    /// Two distinct keys the store files under one fingerprint.
    fn colliding_pair(store: &Store) -> (Vec<u8>, Vec<u8>) {
        let a = b"key-0".to_vec();
        let b = (1..)
            .map(|i| format!("key-{i}").into_bytes())
            .find(|k| store.fingerprinter.fingerprint(k) == store.fingerprinter.fingerprint(&a))
            .unwrap();
        (a, b)
    }

    /// Policy and slab must agree on what is resident: as many pairs as
    /// live chunks, each chunk filed under its own key's fingerprint.
    fn assert_layers_agree(store: &Store, context: &str) {
        store.slabs.validate();
        let slab_items: u64 = store.slab_census().iter().map(|&(_, _, n)| n).sum();
        assert_eq!(store.policy.len() as u64, slab_items, "{context}: slab");
        store.policy.for_each(&mut |&fp, &chunk| {
            let key = Item::decode(store.slabs.read(chunk)).key;
            assert_eq!(store.fingerprinter.fingerprint(key), fp, "{context}: chunk");
        });
    }

    #[test]
    fn a_colliding_absent_key_is_a_miss_for_every_reading_verb() {
        for mode in all_modes() {
            let mut store = colliding_store(mode.clone());
            let (a, b) = colliding_pair(&store);
            store.set(&b, b"41", 5, 0, 9).unwrap();
            assert!(!store.contains(&a), "{mode}");
            assert!(read(&mut store, &a).is_none(), "{mode}: get");
            assert!(store.peek_meta(&a).is_none(), "{mode}: peek_meta");
            assert!(!store.delete(&a), "{mode}: delete");
            assert!(!store.touch(&a, 77), "{mode}: touch");
            assert_eq!(store.incr(&a, 1), None, "{mode}: incr");
            assert_eq!(store.decr(&a, 1), None, "{mode}: decr");
            assert!(
                !store.replace(&a, b"x", 0, 0, 1).unwrap(),
                "{mode}: replace"
            );
            // None of that disturbed the resident.
            assert_eq!(read(&mut store, &b), Some((b"41".to_vec(), 5, 9)));
            assert_eq!(store.incr(&b, 1), Some(42), "{mode}");
            let stats = store.stats();
            assert_eq!((stats.evictions, stats.fingerprint_collisions), (0, 0));
            assert_eq!(stats.deletes, 0);
            assert_layers_agree(&store, &mode.to_string());
        }
    }

    #[test]
    fn storing_a_colliding_key_replaces_the_resident_untraced() {
        use std::sync::atomic::Ordering;
        for mode in all_modes() {
            let sink = std::sync::Arc::new(CountingSink::default());
            let mut store = colliding_store(mode.clone());
            store.set_trace_sink(Some(sink.clone()));
            let (a, b) = colliding_pair(&store);
            store.set(&b, b"bee", 0, 0, 1).unwrap();
            // `add` sees no A, so it stores — and B has to go, as an
            // overwrite of the slot would take it: no policy decision.
            assert!(store.add(&a, b"ay", 0, 0, 1).unwrap(), "{mode}");
            assert!(!store.contains(&b), "{mode}: B replaced");
            assert_eq!(read(&mut store, &a).unwrap().0, b"ay", "{mode}");
            assert!(read(&mut store, &b).is_none(), "{mode}");
            assert_eq!(store.len(), 1, "{mode}");
            assert_layers_agree(&store, &mode.to_string());
            let stats = store.stats();
            assert_eq!(stats.evictions, 0, "{mode}");
            assert_eq!(stats.fingerprint_collisions, 1, "{mode}");
            assert_eq!(sink.evicts.load(Ordering::Relaxed), 0, "{mode}: untraced");
            // A plain replace of A itself is not a collision.
            store.set(&a, b"ay2", 0, 0, 1).unwrap();
            assert_eq!(store.stats().fingerprint_collisions, 1, "{mode}");
            // And `set` of B takes the slot back.
            store.set(&b, b"bee2", 0, 0, 1).unwrap();
            assert_eq!(read(&mut store, &b).unwrap().0, b"bee2", "{mode}");
            assert!(read(&mut store, &a).is_none(), "{mode}");
            assert_eq!(store.stats().fingerprint_collisions, 2, "{mode}");
            assert_eq!(store.stats().evictions, 0, "{mode}");
            assert_eq!(sink.evicts.load(Ordering::Relaxed), 0, "{mode}");
            assert_layers_agree(&store, &mode.to_string());
        }
    }

    #[test]
    fn sixteen_slots_never_serve_another_keys_value() {
        for mode in all_modes() {
            let mut store = colliding_store(mode.clone());
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for step in 0..4_000u32 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let k = state % 200;
                let key = format!("key-{k}");
                if state & (1 << 40) == 0 {
                    // The value names its key, and is large enough that the
                    // four slabs hold fewer than 16 items: slab pressure
                    // evicts alongside the collisions.
                    let value = format!("{key}:{}", "v".repeat(1000));
                    store
                        .set(key.as_bytes(), value.as_bytes(), 0, 0, k)
                        .unwrap();
                } else if let Some((value, ..)) = read(&mut store, key.as_bytes()) {
                    assert!(
                        value.starts_with(format!("{key}:").as_bytes()),
                        "{mode}: get({key}) returned {:?}",
                        String::from_utf8_lossy(&value)
                    );
                }
                assert!(store.len() <= 16, "{mode}: one key per fingerprint");
                if step % 64 == 0 {
                    assert_layers_agree(&store, &mode.to_string());
                }
            }
            let stats = store.stats();
            assert!(stats.fingerprint_collisions > 0, "{mode}");
            assert!(stats.evictions > 0, "{mode}");
            assert_layers_agree(&store, &mode.to_string());
        }
    }

    // --------------------------------------------- reply-for-reply differential

    /// One verb of the store API with its arguments. Expiries are absolute
    /// ticks of the test's clock (0 = never).
    #[derive(Debug, Clone)]
    enum Call {
        Get,
        Set(Vec<u8>, u32, u64),
        Add(Vec<u8>, u32, u64),
        Replace(Vec<u8>, u32, u64),
        Delete,
        Incr(u64),
        Decr(u64),
        Touch(u64),
    }

    /// What the caller of a verb sees.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Reply {
        Value(Option<(Vec<u8>, u32)>),
        Stored(bool),
        Found(bool),
        Number(Option<u64>),
    }

    /// Key → value, flags and expiry.
    type Model = std::collections::HashMap<Vec<u8>, (Vec<u8>, u32, u64)>;

    /// The reference semantics: what `call` on `key` at `now` replies and
    /// leaves behind. An item expired by `now` is absent for every verb.
    fn model_apply(model: &mut Model, key: &[u8], call: &Call, now: u64) -> Reply {
        if model
            .get(key)
            .is_some_and(|&(_, _, at)| at != 0 && at <= now)
        {
            model.remove(key);
        }
        let present = model.contains_key(key);
        match call {
            Call::Get => Reply::Value(
                model
                    .get(key)
                    .map(|(value, flags, _)| (value.clone(), *flags)),
            ),
            Call::Set(value, flags, at) => {
                model.insert(key.to_vec(), (value.clone(), *flags, *at));
                Reply::Stored(true)
            }
            Call::Add(value, flags, at) => {
                if !present {
                    model.insert(key.to_vec(), (value.clone(), *flags, *at));
                }
                Reply::Stored(!present)
            }
            Call::Replace(value, flags, at) => {
                if present {
                    model.insert(key.to_vec(), (value.clone(), *flags, *at));
                }
                Reply::Stored(present)
            }
            Call::Delete => Reply::Found(model.remove(key).is_some()),
            Call::Touch(at) => {
                if let Some(entry) = model.get_mut(key) {
                    entry.2 = *at;
                }
                Reply::Found(present)
            }
            Call::Incr(delta) | Call::Decr(delta) => {
                let number = model.get_mut(key).and_then(|(value, ..)| {
                    let current: u64 = std::str::from_utf8(value).ok()?.parse().ok()?;
                    let next = match call {
                        Call::Incr(_) => current.wrapping_add(*delta),
                        _ => current.saturating_sub(*delta),
                    };
                    *value = next.to_string().into_bytes();
                    Some(next)
                });
                Reply::Number(number)
            }
        }
    }

    /// `call` on `key` through the store's verbs, at the clock `now`.
    fn store_apply(store: &mut Store, key: &[u8], call: &Call, now: u64) -> Reply {
        let h = store.fingerprinter.hash(key);
        match call {
            Call::Get => {
                Reply::Value(store.get_hashed(h, now, |item| (item.value.to_vec(), item.flags)))
            }
            Call::Set(value, flags, at) => {
                store
                    .set_hashed(h, value, *flags, *at, 1)
                    .expect("set fits");
                Reply::Stored(true)
            }
            Call::Add(value, flags, at) => Reply::Stored(
                store
                    .add_hashed(h, value, *flags, *at, 1, now)
                    .expect("fits"),
            ),
            Call::Replace(value, flags, at) => Reply::Stored(
                store
                    .replace_hashed(h, value, *flags, *at, 1, now)
                    .expect("fits"),
            ),
            Call::Delete => Reply::Found(store.delete_hashed(h, now)),
            Call::Touch(at) => Reply::Found(store.touch_hashed(h, *at, now)),
            Call::Incr(delta) | Call::Decr(delta) => {
                let up = matches!(call, Call::Incr(_));
                Reply::Number(store.add_signed(h, *delta, up, now).map(|(next, _)| next))
            }
        }
    }

    fn random_call(rng: &mut Rng64, key: &[u8], now: u64) -> Call {
        // Numbers (for incr/decr) or text that names its key, in two size
        // classes only, so 64 keys never press on the slabs.
        let value = |rng: &mut Rng64| match rng.range_u64(0, 3) {
            0 => rng.range_u64(0, 1_000).to_string().into_bytes(),
            1 => [key, b"="].concat(),
            _ => [key, &[b'='; 90][..]].concat(),
        };
        // Never, or a few ticks ahead: a key comes round about every four.
        let expiry = |rng: &mut Rng64| match rng.range_u64(0, 2) {
            0 => 0,
            _ => now + rng.range_u64(1, 8),
        };
        let flags = rng.next_u64() as u32;
        match rng.range_u64(0, 16) {
            0..=4 => Call::Get,
            5..=7 => Call::Set(value(rng), flags, expiry(rng)),
            8..=9 => Call::Add(value(rng), flags, expiry(rng)),
            10 => Call::Replace(value(rng), flags, expiry(rng)),
            11..=12 => Call::Delete,
            13 => Call::Incr(rng.range_u64(0, 50)),
            14 => Call::Decr(rng.range_u64(0, 50)),
            _ => Call::Touch(expiry(rng)),
        }
    }

    /// Random verbs over 64 keys, reply for reply against a `HashMap` model,
    /// on a virtual clock that ticks every sixteen steps or so while items
    /// expire a few ticks out. With full fingerprints nothing is ever
    /// evicted here, so every reply
    /// must equal the model's. With fingerprints cut to 4 bits the 64 keys
    /// fight over 16 slots: a reply may then also be the one the verb gives
    /// for an absent key (a cache may forget), but never anything else — in
    /// particular never another key's value.
    #[test]
    fn every_reply_matches_the_model_or_is_a_legal_miss() {
        let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("k{i}").into_bytes()).collect();
        let names = EvictionMode::all_names().into_iter().chain(["camp:inf"]);
        for mode in names {
            for truncated in [false, true] {
                for seed in 0..6u64 {
                    let config = StoreConfig {
                        slab: SlabConfig::small(8 * 1024, 8),
                        eviction: mode.parse().expect("policy name"),
                    };
                    let mut store = if truncated {
                        Store::with_fingerprint_bits(config, 4)
                    } else {
                        Store::new(config)
                    };
                    let mut model = Model::new();
                    let mut forgotten = 0u32;
                    let mut rng = Rng64::seed_from_u64(0xF1_69E2 ^ seed);
                    let mut now = 1_000;
                    for step in 0..3_000 {
                        now += u64::from(rng.range_u64(0, 16) == 0);
                        let key = &keys[rng.range_usize(0, keys.len())];
                        let call = random_call(&mut rng, key, now);
                        let got = store_apply(&mut store, key, &call, now);
                        let mut as_if_present = model.clone();
                        if got == model_apply(&mut as_if_present, key, &call, now) {
                            model = as_if_present;
                            continue;
                        }
                        let context = format!(
                            "{mode} truncated={truncated} seed={seed} step={step} now={now}: \
                             {call:?} on {}",
                            String::from_utf8_lossy(key)
                        );
                        assert!(truncated, "{context}: {got:?} is not the model's reply");
                        forgotten += 1;
                        model.remove(key);
                        assert_eq!(
                            got,
                            model_apply(&mut model, key, &call, now),
                            "{context}: neither the model's reply nor a miss"
                        );
                    }
                    let stats = store.stats();
                    assert!(stats.expired > 0, "{mode}: nothing expired");
                    if truncated {
                        assert!(forgotten > 0 && stats.fingerprint_collisions > 0);
                        assert!(store.len() <= 16);
                    } else {
                        assert_eq!(stats.evictions + stats.slab_evictions, 0);
                        assert_eq!(stats.fingerprint_collisions, 0);
                        assert_eq!(store.len(), model.len());
                    }
                    for key in &keys {
                        if store.contains(key) {
                            assert!(model.contains_key(key), "{mode}: resident unknown to model");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shadow_profiler_tracks_traffic() {
        let mut store = small_store(EvictionMode::Camp(Precision::Bits(5)));
        for i in 0..1000u32 {
            let key = format!("key-{i:04}");
            store.set(key.as_bytes(), &[0u8; 60], 0, 0, 1).unwrap();
            read(&mut store, key.as_bytes());
        }
        let estimates = store.profiler().estimates();
        assert_eq!(estimates.len(), 3, "0.5x/1x/2x scales");
        let sampled: u64 = estimates.iter().map(|e| e.sampled_gets).sum();
        assert!(sampled > 0, "1000 keys must land some 1-in-64 samples");
        // reset_stats keeps shadows but re-baselines counters.
        store.reset_stats();
        assert_eq!(store.profiler().estimates()[0].sampled_gets, 0);
        // flush_all restarts the shadows cold.
        store.flush_all();
        assert_eq!(store.profiler().estimates().len(), 3);
    }

    #[test]
    fn stats_census_reports_classes() {
        let mut store = small_store(EvictionMode::Lru);
        store.set(b"small", &[0u8; 30], 0, 0, 1).unwrap();
        store.set(b"large", &[0u8; 1500], 0, 0, 1).unwrap();
        let census = store.slab_census();
        let live: u64 = census.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(live, 2);
    }
}
