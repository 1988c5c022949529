//! Eviction-decision events: the [`PolicyEvent`]s a cache policy logs for
//! its caller to drain.
//!
//! A policy keeps a decision log only while asked to
//! ([`crate::policy::EvictionPolicy::log_decisions`]); its caller empties it
//! by `&mut` ([`crate::policy::EvictionPolicy::drain_decisions`]) after the
//! call that decided. The events are plain data with no clocks, so policy
//! crates stay deterministic and dependency-free while the server turns
//! them into its flight recorder's ring and its eviction tallies. A policy
//! that is not logging pays one branch per decision.
//!
//! Events carry a *hash* of the key rather than the key itself: trace
//! consumers need identity (to correlate admissions with later evictions)
//! but must not exfiltrate cached payload keys into logs or metrics.
//!
//! What "the key" is depends on who drives the policy. The simulator's keys
//! are the trace's `u64` ids, so its events carry `key_hash(&id)`. The KVS
//! server keys its policies by a seeded 64-bit fingerprint of the wire key
//! (`camp_kvs::shard::ShardedStore::fingerprint`), so there
//! [`PolicyEvent::key_hash`] is `key_hash(&fingerprint)`: stable for the
//! life of the process, different in the next one (the seed is random).
//! To follow a wire key through a server's events, or to line a server's
//! decisions up against a simulator run, map the key through that method
//! first.

use std::hash::{Hash, Hasher};

/// Which decision a [`PolicyEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyEventKind {
    /// A pair was admitted into the cache.
    Admit,
    /// A pair was evicted to make room (not an explicit delete).
    Evict,
}

/// One eviction-policy decision, as a policy logs it.
///
/// Fields a policy does not model are zero: `ratio` and `l_value` come
/// from the cost-aware orderings (CAMP, GDS, GDSF, GD-Wheel), `queue` from
/// those with queues, levels or regions (CAMP, GD-Wheel, ARC, 2Q).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEvent {
    /// Admission or eviction.
    pub kind: PolicyEventKind,
    /// Stable hash of the affected key (see [`key_hash`]).
    pub key_hash: u64,
    /// The pair's size in bytes.
    pub size: u64,
    /// The pair's miss cost.
    pub cost: u64,
    /// The rounded, integerized cost/size ratio (CAMP's queue label).
    pub ratio: u64,
    /// Index of the internal queue the decision touched.
    pub queue: u32,
    /// The policy's global `L` term at decision time, saturated to `u64`.
    pub l_value: u64,
}

/// A stable, process-deterministic hash for trace events. Uses the
/// standard library's default hasher with its fixed initial state, so the
/// same key always maps to the same hash within (and across) runs. (On the
/// KVS server the key handed in is itself a per-process fingerprint; see
/// the module docs.)
#[must_use]
pub fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = std::hash::DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_stable_and_discriminating() {
        assert_eq!(key_hash(&42u64), key_hash(&42u64));
        assert_ne!(key_hash(&42u64), key_hash(&43u64));
        assert_eq!(key_hash(b"k".as_slice()), key_hash(b"k".as_slice()));
    }
}
