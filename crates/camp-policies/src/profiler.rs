//! Online miss-ratio and cost-miss profiling via spatially sampled shadow
//! caches (the SHARDS technique: Waldspurger et al., FAST'15).
//!
//! A [`ShadowProfiler`] answers "what would the hit rate and miss cost be
//! if this cache were half / the same / twice its size?" while the real
//! cache serves traffic. It keeps one *shadow policy* per hypothetical
//! scale, driven only by a deterministic spatial sample of the request
//! stream: a key is sampled iff `hash(key) mod M < T` (the workspace's
//! [`FoldHasher`] — the gate runs on *every* lookup of every shard, so it
//! must cost nanoseconds, not a full SipHash; an even spread of
//! `hash mod M` is all it needs), giving sampling rate `R = T / M`. Each shadow cache is sized to `capacity × scale × R`,
//! so a sample that fits it behaves (in expectation) like the full stream
//! against a `capacity × scale` cache. Estimated totals scale back by
//! `1/R`.
//!
//! The profiler is plain deterministic state — no clocks, no atomics — so
//! it lives in this crate and serves both the KVS server (one profiler per
//! shard, summed at report time) and the offline simulator (exact same
//! estimates against ground truth).
//!
//! Feeding convention, matching the slab store's split cycle:
//!
//! * every lookup calls [`ShadowProfiler::record_get`] — a shadow hit
//!   counts a hit, a shadow miss charges the pair's fill cost;
//! * every store calls [`ShadowProfiler::record_set`], which admits the
//!   pair into the shadow policies (their own eviction logic then decides
//!   what a smaller or larger cache would have kept).

use camp_core::hash::FoldHasher;

use crate::policy::{CacheRequest, EvictionPolicy};
use crate::spec::EvictionMode;

/// Default sampling modulus: keys are sampled at rate 1/64.
pub const DEFAULT_SAMPLE_MODULUS: u64 = 64;

/// The hypothetical capacity scales a profiler tracks, as `(num, den)`
/// multiplier pairs: half, same, and double the real capacity.
pub const SCALES: [(u64, u64); 3] = [(1, 2), (1, 1), (2, 1)];

/// One shadow cache: a policy instance at a scaled-down capacity plus the
/// counters its sampled stream has accumulated.
struct ShadowCache {
    /// Capacity multiplier for display (`num`/`den` of the real capacity).
    scale: (u64, u64),
    policy: Box<dyn EvictionPolicy<u64> + Send>,
    gets: u64,
    hits: u64,
    /// Sum of fill costs charged on sampled shadow misses.
    miss_cost: u64,
    /// Scratch eviction buffer, reused across calls.
    scratch: Vec<u64>,
}

impl std::fmt::Debug for ShadowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowCache")
            .field("scale", &self.scale)
            .field("policy", &self.policy.name())
            .field("gets", &self.gets)
            .field("hits", &self.hits)
            .field("miss_cost", &self.miss_cost)
            .finish()
    }
}

/// Estimates for one hypothetical capacity, scaled back to the full
/// stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowEstimate {
    /// Capacity multiplier as a `(num, den)` pair (e.g. `(1, 2)` = half).
    pub scale: (u64, u64),
    /// The hypothetical cache's byte capacity.
    pub capacity: u64,
    /// Sampled lookups observed.
    pub sampled_gets: u64,
    /// Sampled lookups that hit the shadow cache.
    pub sampled_hits: u64,
    /// Estimated hit ratio at this capacity (0 when nothing sampled).
    pub hit_ratio: f64,
    /// Estimated total miss cost over the full stream (sampled miss cost
    /// scaled by the inverse sampling rate).
    pub est_miss_cost: u64,
}

impl ShadowEstimate {
    /// `scale` as a display string (`0.5x`, `1x`, `2x`).
    #[must_use]
    pub fn scale_label(&self) -> String {
        let (num, den) = self.scale;
        if den == 1 {
            format!("{num}x")
        } else {
            format!("{}x", num as f64 / den as f64)
        }
    }
}

/// A set of spatially sampled shadow caches profiling one real cache.
///
/// # Examples
///
/// ```
/// use camp_policies::{EvictionMode, ShadowProfiler};
///
/// let mode: EvictionMode = "camp".parse().unwrap();
/// // Sample every key (modulus 1) so the doctest is deterministic.
/// let mut profiler = ShadowProfiler::with_modulus(&mode, 1 << 20, 1);
/// for key in 0..100u64 {
///     let k = key.to_le_bytes();
///     if !profiler.record_get(&k[..], 4096, 10) {
///         profiler.record_set(&k[..], 4096, 10);
///     }
/// }
/// let estimates = profiler.estimates();
/// assert_eq!(estimates.len(), 3);
/// assert!(estimates[0].capacity < estimates[2].capacity);
/// ```
#[derive(Debug)]
pub struct ShadowProfiler {
    shadows: Vec<ShadowCache>,
    modulus: u64,
    /// Real capacity being profiled, for reporting.
    capacity: u64,
    /// Total (unsampled) lookups seen, for coverage reporting.
    total_gets: u64,
}

impl ShadowProfiler {
    /// Creates a profiler for a cache of `capacity` bytes running `mode`,
    /// at the default 1/64 sampling rate.
    #[must_use]
    pub fn new(mode: &EvictionMode, capacity: u64) -> Self {
        Self::with_modulus(mode, capacity, DEFAULT_SAMPLE_MODULUS)
    }

    /// Creates a profiler sampling at rate `1/modulus` (`modulus == 1`
    /// samples everything; useful for tests and offline analysis).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    #[must_use]
    pub fn with_modulus(mode: &EvictionMode, capacity: u64, modulus: u64) -> Self {
        assert!(modulus > 0, "sampling modulus must be positive");
        let shadows = SCALES
            .iter()
            .map(|&scale| {
                let (num, den) = scale;
                // capacity × scale × rate, floored but never zero: an empty
                // shadow would report a 0% hit rate forever.
                let scaled = (capacity * num / den / modulus).max(1);
                ShadowCache {
                    scale,
                    policy: mode.build(scaled),
                    gets: 0,
                    hits: 0,
                    miss_cost: 0,
                    scratch: Vec::new(),
                }
            })
            .collect();
        ShadowProfiler {
            shadows,
            modulus,
            capacity,
            total_gets: 0,
        }
    }

    /// The sampling rate denominator (`1/modulus` of keys are sampled).
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Total lookups observed (sampled or not).
    #[must_use]
    pub fn total_gets(&self) -> u64 {
        self.total_gets
    }

    /// Whether `key` falls in the spatial sample.
    fn sampled<K: std::hash::Hash + ?Sized>(&self, key: &K) -> Option<u64> {
        use std::hash::Hasher as _;
        let mut hasher = FoldHasher::default();
        key.hash(&mut hasher);
        let h = hasher.finish();
        (h % self.modulus == 0).then_some(h)
    }

    /// Observes a lookup of `key` whose value (present or recomputed) has
    /// the given size and miss cost. Returns whether the key was sampled.
    pub fn record_get<K: std::hash::Hash + ?Sized>(
        &mut self,
        key: &K,
        size: u64,
        cost: u64,
    ) -> bool {
        self.total_gets += 1;
        let Some(h) = self.sampled(key) else {
            return false;
        };
        let _ = size;
        for shadow in &mut self.shadows {
            shadow.gets += 1;
            if shadow.policy.touch(&h) {
                shadow.hits += 1;
            } else {
                shadow.miss_cost += cost;
            }
        }
        true
    }

    /// Observes a store of `key`: admits the pair into each shadow cache
    /// (their eviction policies decide what the hypothetical capacities
    /// would retain). Returns whether the key was sampled.
    pub fn record_set<K: std::hash::Hash + ?Sized>(
        &mut self,
        key: &K,
        size: u64,
        cost: u64,
    ) -> bool {
        debug_assert!(size > 0, "key-value pairs have positive size");
        let Some(h) = self.sampled(key) else {
            return false;
        };
        for shadow in &mut self.shadows {
            shadow.scratch.clear();
            let mut scratch = std::mem::take(&mut shadow.scratch);
            shadow
                .policy
                .reference(CacheRequest::new(h, size, cost), &mut scratch);
            shadow.scratch = scratch;
        }
        true
    }

    /// Observes a delete of `key`, keeping the shadows residency-accurate.
    pub fn record_delete<K: std::hash::Hash + ?Sized>(&mut self, key: &K) {
        let Some(h) = self.sampled(key) else {
            return;
        };
        for shadow in &mut self.shadows {
            shadow.policy.remove(&h);
        }
    }

    /// The current estimates, one per scale in ascending capacity order.
    #[must_use]
    pub fn estimates(&self) -> Vec<ShadowEstimate> {
        self.shadows
            .iter()
            .map(|shadow| {
                let (num, den) = shadow.scale;
                ShadowEstimate {
                    scale: shadow.scale,
                    capacity: self.capacity * num / den,
                    sampled_gets: shadow.gets,
                    sampled_hits: shadow.hits,
                    hit_ratio: if shadow.gets == 0 {
                        0.0
                    } else {
                        shadow.hits as f64 / shadow.gets as f64
                    },
                    est_miss_cost: shadow.miss_cost.saturating_mul(self.modulus),
                }
            })
            .collect()
    }

    /// Zeroes the accumulated counters, keeping shadow residency (so a
    /// `stats reset` does not have to re-warm the shadows).
    pub fn reset_counters(&mut self) {
        self.total_gets = 0;
        for shadow in &mut self.shadows {
            shadow.gets = 0;
            shadow.hits = 0;
            shadow.miss_cost = 0;
        }
    }

    /// Merges another profiler's counters into a combined estimate set —
    /// the cross-shard aggregation the server's `stats profile` performs.
    /// Both profilers must have the same modulus and scales.
    #[must_use]
    pub fn merged_estimates(profilers: &[&ShadowProfiler]) -> Vec<ShadowEstimate> {
        let Some(first) = profilers.first() else {
            return Vec::new();
        };
        let mut merged = first.estimates();
        for profiler in &profilers[1..] {
            for (into, from) in merged.iter_mut().zip(profiler.estimates()) {
                debug_assert_eq!(into.scale, from.scale, "mismatched profiler scales");
                into.capacity += from.capacity;
                into.sampled_gets += from.sampled_gets;
                into.sampled_hits += from.sampled_hits;
                into.est_miss_cost = into.est_miss_cost.saturating_add(from.est_miss_cost);
            }
        }
        for estimate in &mut merged {
            estimate.hit_ratio = if estimate.sampled_gets == 0 {
                0.0
            } else {
                estimate.sampled_hits as f64 / estimate.sampled_gets as f64
            };
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler(capacity: u64, modulus: u64) -> ShadowProfiler {
        let mode: EvictionMode = "lru".parse().unwrap();
        ShadowProfiler::with_modulus(&mode, capacity, modulus)
    }

    /// Drives a get-then-fill cycle for `key`.
    fn access(p: &mut ShadowProfiler, key: u64, size: u64, cost: u64) {
        let k = key.to_le_bytes();
        p.record_get(&k[..], size, cost);
        p.record_set(&k[..], size, cost);
    }

    #[test]
    fn larger_shadow_capacity_hits_at_least_as_often() {
        let mut p = profiler(1 << 12, 1);
        // Working set of 32 x 256B = 8 KiB: fits 2x (16 KiB scaled), not 0.5x.
        for round in 0..10 {
            for key in 0..32u64 {
                let _ = round;
                access(&mut p, key, 256, 5);
            }
        }
        let est = p.estimates();
        assert_eq!(est.len(), 3);
        assert!(est[0].capacity < est[1].capacity && est[1].capacity < est[2].capacity);
        assert!(
            est[2].hit_ratio >= est[1].hit_ratio && est[1].hit_ratio >= est[0].hit_ratio,
            "hit ratio must be monotone in capacity: {est:?}"
        );
        assert!(est[2].hit_ratio > 0.8, "2x shadow should hold the set");
        assert!(
            est[0].est_miss_cost >= est[2].est_miss_cost,
            "smaller cache misses cost more"
        );
    }

    #[test]
    fn sampling_rate_thins_the_stream() {
        let mut full = profiler(1 << 16, 1);
        let mut sampled = profiler(1 << 16, 8);
        for key in 0..4096u64 {
            access(&mut full, key, 64, 1);
            access(&mut sampled, key, 64, 1);
        }
        assert_eq!(full.estimates()[1].sampled_gets, 4096);
        let got = sampled.estimates()[1].sampled_gets;
        // 1/8 expected rate; the hash sample is deterministic but uneven.
        assert!(
            (200..900).contains(&got),
            "about 1/8 of 4096 keys should sample: {got}"
        );
        assert_eq!(sampled.total_gets(), 4096);
    }

    #[test]
    fn miss_cost_scales_by_inverse_rate() {
        let mut p = profiler(1 << 16, 4);
        // Find a sampled key.
        let gate = |bytes: &[u8]| {
            use std::hash::{Hash, Hasher};
            let mut hasher = FoldHasher::default();
            bytes.hash(&mut hasher);
            hasher.finish()
        };
        let mut key = 0u64;
        let sampled_key = loop {
            let bytes = key.to_le_bytes();
            if gate(&bytes[..]) % 4 == 0 {
                break key;
            }
            key += 1;
        };
        let bytes = sampled_key.to_le_bytes();
        assert!(p.record_get(&bytes[..], 100, 7)); // miss: cost 7 sampled
        assert_eq!(p.estimates()[1].est_miss_cost, 28, "7 x modulus 4");
    }

    #[test]
    fn deletes_evict_from_shadows() {
        let mut p = profiler(1 << 12, 1);
        access(&mut p, 42, 100, 1);
        let k = 42u64.to_le_bytes();
        p.record_get(&k[..], 100, 1);
        let hits_before = p.estimates()[1].sampled_hits;
        assert!(hits_before > 0, "resident key must hit");
        p.record_delete(&k[..]);
        p.record_get(&k[..], 100, 1);
        assert_eq!(
            p.estimates()[1].sampled_hits,
            hits_before,
            "deleted key must miss"
        );
    }

    #[test]
    fn reset_keeps_residency() {
        let mut p = profiler(1 << 12, 1);
        access(&mut p, 7, 100, 1);
        p.reset_counters();
        assert_eq!(p.estimates()[1].sampled_gets, 0);
        let k = 7u64.to_le_bytes();
        p.record_get(&k[..], 100, 1);
        assert_eq!(p.estimates()[1].sampled_hits, 1, "shadow stayed warm");
    }

    #[test]
    fn merged_estimates_aggregate_counters() {
        let mut a = profiler(1 << 12, 1);
        let mut b = profiler(1 << 12, 1);
        access(&mut a, 1, 100, 1);
        access(&mut b, 2, 100, 1);
        let k = 1u64.to_le_bytes();
        a.record_get(&k[..], 100, 1); // hit in a
        let merged = ShadowProfiler::merged_estimates(&[&a, &b]);
        assert_eq!(merged[1].sampled_gets, 3);
        assert_eq!(merged[1].sampled_hits, 1);
        assert_eq!(merged[1].capacity, 2 << 12);
        assert!(ShadowProfiler::merged_estimates(&[]).is_empty());
    }

    #[test]
    fn scale_labels_render() {
        let p = profiler(1 << 12, 1);
        let labels: Vec<String> = p
            .estimates()
            .iter()
            .map(ShadowEstimate::scale_label)
            .collect();
        assert_eq!(labels, vec!["0.5x", "1x", "2x"]);
    }
}
