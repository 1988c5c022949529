//! Eviction-decision tracing: the [`TraceSink`] a cache policy reports
//! admission and eviction decisions through.
//!
//! The sink is deliberately minimal — one callback, plain-data events, no
//! clocks — so policy crates stay deterministic and dependency-free while
//! the server layer adapts events into its flight recorder (ring buffers,
//! histograms, Prometheus series). A policy without a sink attached pays
//! one branch per decision.
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

/// One eviction-policy decision, as reported to a [`TraceSink`].
///
/// Fields a policy does not model are zero: only CAMP-family policies
/// populate `ratio`, `queue` and `l_value`.
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

impl PolicyEvent {
    /// An event with every policy-specific field zeroed — the starting
    /// point for policies without ratios, queues, or an `L` term.
    #[must_use]
    pub fn basic(kind: PolicyEventKind, key_hash: u64, size: u64, cost: u64) -> PolicyEvent {
        PolicyEvent {
            kind,
            key_hash,
            size,
            cost,
            ratio: 0,
            queue: 0,
            l_value: 0,
        }
    }
}

/// Receives policy decisions. Implementations must be cheap and wait-free:
/// sinks are invoked inline on the cache hot path, under whatever lock the
/// caller already holds. (`Debug` is required so policies holding a sink
/// can keep deriving their own `Debug`.)
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one decision.
    fn record(&self, event: &PolicyEvent);
}

/// The shareable sink handle policies store.
pub type SharedTraceSink = std::sync::Arc<dyn TraceSink>;

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

/// A sink that appends every event to a mutex-guarded vector. Test-only.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CollectingSink {
    events: std::sync::Mutex<Vec<PolicyEvent>>,
}

#[cfg(test)]
impl CollectingSink {
    /// Snapshot of every event recorded so far.
    pub(crate) fn snapshot(&self) -> Vec<PolicyEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
impl TraceSink for CollectingSink {
    fn record(&self, event: &PolicyEvent) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn key_hash_is_stable_and_discriminating() {
        assert_eq!(key_hash(&42u64), key_hash(&42u64));
        assert_ne!(key_hash(&42u64), key_hash(&43u64));
        assert_eq!(key_hash(b"k".as_slice()), key_hash(b"k".as_slice()));
    }

    #[test]
    fn basic_event_zeroes_policy_fields() {
        let event = PolicyEvent::basic(PolicyEventKind::Evict, 7, 100, 3);
        assert_eq!(event.kind, PolicyEventKind::Evict);
        assert_eq!((event.ratio, event.queue, event.l_value), (0, 0, 0));
    }

    #[test]
    fn sink_objects_are_shareable() {
        let sink = Arc::new(CollectingSink::default());
        let shared: SharedTraceSink = sink.clone();
        shared.record(&PolicyEvent::basic(PolicyEventKind::Admit, 1, 2, 3));
        assert_eq!(sink.snapshot().len(), 1);
    }
}
