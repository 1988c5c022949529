//! The common interface every eviction policy in this workspace implements.
//!
//! The paper's simulator (§3) drives each algorithm the same way: a request
//! generator references a key; on a miss it inserts the missing pair, which
//! may evict residents. [`EvictionPolicy::reference`] captures exactly that
//! interaction, so every policy is interchangeable inside the simulator, the
//! KVS server, the tests, and the benchmark harness. Two extra methods serve
//! the server's slab store, where memory pressure (not the policy's byte
//! budget) decides *when* to evict: [`EvictionPolicy::victim`] exposes the
//! next candidate without mutating, and [`EvictionPolicy::touch`] applies
//! the hit path of `reference` on its own (the store's `get`).
//!
//! Implementations: CAMP (the adapter below); the keyed front
//! ([`crate::Keyed`]: LRU, GDS, GDSF, LFU, GD-Wheel — one cache, five
//! orderings); and LRU-K, 2Q, ARC, pooled LRU, admission and Belady, whose
//! state (ghost lists, pools, the future) the front does not model.
//!
//! The trait is generic over the key type. The simulator uses `u64` trace
//! keys and so does the KVS server, over a 64-bit fingerprint of each wire
//! key (byte keys such as `Box<[u8]>` still work — the benchmark's ledger
//! times that instantiation).

use camp_core::{Camp, InsertOutcome};

pub use camp_core::trace::{key_hash, PolicyEvent, PolicyEventKind, SharedTraceSink, TraceSink};

/// Keys an eviction policy can manage: hashable, clonable (for eviction
/// reporting), and debuggable. Blanket-implemented; `u64` trace keys, the
/// server's `u64` key fingerprints and `Box<[u8]>` byte keys all qualify.
pub trait CacheKey: Eq + std::hash::Hash + Clone + std::fmt::Debug {}

impl<T: Eq + std::hash::Hash + Clone + std::fmt::Debug> CacheKey for T {}

/// One key reference as it appears in a trace row: the key, the byte size of
/// its value, and the cost to (re)compute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheRequest<K = u64> {
    /// The referenced key.
    pub key: K,
    /// Value size in bytes (positive).
    pub size: u64,
    /// Cost of computing the pair (non-negative integer, as in the paper).
    pub cost: u64,
}

impl<K> CacheRequest<K> {
    /// Convenience constructor.
    #[must_use]
    pub fn new(key: K, size: u64, cost: u64) -> Self {
        CacheRequest { key, size, cost }
    }
}

/// One named policy-internal gauge, optionally carrying a sub-dimension
/// label (e.g. CAMP's per-queue lengths, labelled by rounded ratio).
///
/// Names are short snake_case identifiers; renderers prefix them with
/// `policy:` (the `stats detail` protocol command) or `camp_policy_` (the
/// Prometheus exposition), so the same gauge vocabulary serves both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyGauge {
    /// Gauge name (`l_value`, `queue_count`, `heap_visits`, ...).
    pub name: &'static str,
    /// Optional sub-dimension as a `(label_key, label_value)` pair.
    pub label: Option<(&'static str, String)>,
    /// Current value.
    pub value: u64,
}

/// A snapshot of a policy's internal gauges — the
/// [`EvictionPolicy::policy_stats`] hook's return value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// The gauges, in the policy's preferred display order.
    pub gauges: Vec<PolicyGauge>,
}

impl PolicyStats {
    /// Appends an unlabelled gauge.
    pub fn push(&mut self, name: &'static str, value: u64) {
        self.gauges.push(PolicyGauge {
            name,
            label: None,
            value,
        });
    }

    /// Appends a gauge with a sub-dimension label.
    pub fn push_labelled(
        &mut self,
        name: &'static str,
        label_key: &'static str,
        label_value: impl Into<String>,
        value: u64,
    ) {
        self.gauges.push(PolicyGauge {
            name,
            label: Some((label_key, label_value.into())),
            value,
        });
    }

    /// The value of the first gauge called `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }
}

/// What a [`EvictionPolicy::reference`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The key was resident: a cache hit.
    Hit,
    /// The key was absent and has been inserted (possibly evicting others).
    MissInserted,
    /// The key was absent and was *not* admitted (too large, or declined by
    /// an admission policy).
    MissBypassed,
}

impl AccessOutcome {
    /// Whether this outcome is a miss (inserted or bypassed).
    #[must_use]
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// A cache eviction policy driven by a stream of key references.
///
/// Implementations manage a fixed byte budget. `reference` performs the
/// paper's get-then-insert-on-miss cycle in one call and reports evicted
/// keys through the caller-supplied buffer (so hot loops can reuse one
/// allocation). `touch` and `victim` split that cycle apart for callers —
/// like the slab store — that decide admission and eviction timing
/// themselves.
///
/// Every policy in this crate keeps its keys in a
/// [`camp_core::hash::FoldHashMap`]: unseeded, so not resistant to keys
/// chosen to collide. Callers holding externally chosen byte or string
/// keys should hand the policy a seeded hash of them, as the KVS server
/// does with its key fingerprint.
pub trait EvictionPolicy<K: CacheKey = u64> {
    /// Short, stable, human-readable policy name (e.g. `"camp(p=5)"`).
    fn name(&self) -> String;

    /// The byte capacity this policy manages.
    fn capacity(&self) -> u64;

    /// Bytes currently occupied.
    fn used_bytes(&self) -> u64;

    /// Number of resident keys.
    fn len(&self) -> usize;

    /// Whether no keys are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident, without updating recency.
    fn contains(&self, key: &K) -> bool;

    /// References `req.key`: a hit updates recency metadata; a miss inserts
    /// the pair, appending any evicted keys to `evicted`.
    fn reference(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) -> AccessOutcome;

    /// Applies the hit path of [`EvictionPolicy::reference`] alone: updates
    /// recency/frequency metadata for a resident `key`. Returns whether the
    /// key was resident (a miss records nothing).
    fn touch(&mut self, key: &K) -> bool;

    /// The key this policy would evict next, without evicting it. `None`
    /// when empty.
    fn victim(&self) -> Option<K>;

    /// Removes `key` if resident. Returns whether it was.
    fn remove(&mut self, key: &K) -> bool;

    /// Attaches (or detaches, with `None`) a [`TraceSink`] that receives
    /// one [`PolicyEvent`] per admission and eviction. The default drops
    /// the sink: a policy opts into tracing by storing it and emitting.
    fn set_trace_sink(&mut self, _sink: Option<SharedTraceSink>) {}

    /// The attached trace sink, if any.
    fn trace_sink(&self) -> Option<&SharedTraceSink> {
        None
    }

    /// How evicting resident `key` would be reported: its metadata as a
    /// [`PolicyEvent`]. `None` when the key is absent or the policy does
    /// not model per-entry metadata.
    fn eviction_event(&self, _key: &K) -> Option<PolicyEvent> {
        None
    }

    /// Removes `key` *as an eviction*: like [`EvictionPolicy::remove`],
    /// but reports the decision to the trace sink first (while the entry's
    /// metadata is still resident). Callers evicting under external
    /// pressure — the slab store's allocation loop — use this; explicit
    /// deletes use `remove` and stay out of the eviction telemetry.
    ///
    /// The default looks the key up twice (once for the event, once to
    /// remove it); CAMP and the keyed front override it to build the event
    /// from the entry one lookup removes.
    fn evict(&mut self, key: &K) -> bool {
        if let Some(event) = self.eviction_event(key) {
            if let Some(sink) = self.trace_sink() {
                sink.record(&event);
            }
        }
        self.remove(key)
    }

    /// Number of internal queues/pools, for policies where that is a
    /// meaningful quantity (CAMP: non-empty LRU queues; Pooled-LRU: pools).
    fn queue_count(&self) -> Option<usize> {
        None
    }

    /// Heap nodes visited so far, for heap-based policies (the Figure 4
    /// metric).
    fn heap_node_visits(&self) -> Option<u64> {
        None
    }

    /// Structural heap operations performed so far.
    fn heap_update_ops(&self) -> Option<u64> {
        None
    }

    /// Resets instrumentation counters (not the cache contents).
    fn reset_instrumentation(&mut self) {}

    /// Snapshot of this policy's internal gauges, for the telemetry layer.
    ///
    /// The default assembles the universal gauges every policy can answer
    /// (items, bytes, capacity) plus whichever optional hooks the policy
    /// implements; policies with richer internals (CAMP's `L`, per-queue
    /// lengths) override and extend it.
    fn policy_stats(&self) -> PolicyStats {
        let mut stats = PolicyStats::default();
        stats.push("items", self.len() as u64);
        stats.push("used_bytes", self.used_bytes());
        stats.push("capacity_bytes", self.capacity());
        if let Some(queues) = self.queue_count() {
            stats.push("queue_count", queues as u64);
        }
        if let Some(visits) = self.heap_node_visits() {
            stats.push("heap_visits", visits);
        }
        if let Some(updates) = self.heap_update_ops() {
            stats.push("heap_updates", updates);
        }
        stats
    }
}

/// [`EvictionPolicy`] for the real thing: a [`Camp`] cache over any key
/// type.
///
/// # Examples
///
/// ```
/// use camp_core::{Camp, Precision};
/// use camp_policies::{CacheRequest, EvictionPolicy};
///
/// let mut camp: Camp<u64, ()> = Camp::new(1000, Precision::Bits(5));
/// let mut evicted = Vec::new();
/// let outcome = camp.reference(CacheRequest::new(1, 100, 5), &mut evicted);
/// assert!(outcome.is_miss());
/// assert!(EvictionPolicy::contains(&camp, &1));
/// ```
impl<K: CacheKey> EvictionPolicy<K> for Camp<K, ()> {
    fn name(&self) -> String {
        format!("camp(p={})", self.precision())
    }

    fn capacity(&self) -> u64 {
        Camp::capacity(self)
    }

    fn used_bytes(&self) -> u64 {
        Camp::used_bytes(self)
    }

    fn len(&self) -> usize {
        Camp::len(self)
    }

    fn contains(&self, key: &K) -> bool {
        Camp::contains(self, key)
    }

    fn reference(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) -> AccessOutcome {
        if self.get(&req.key).is_some() {
            return AccessOutcome::Hit;
        }
        let mut pairs = Vec::new();
        let outcome = self.insert_with_evictions(req.key, (), req.size, req.cost, &mut pairs);
        evicted.extend(pairs.into_iter().map(|(k, ())| k));
        match outcome {
            InsertOutcome::RejectedTooLarge => AccessOutcome::MissBypassed,
            _ => AccessOutcome::MissInserted,
        }
    }

    fn touch(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    fn victim(&self) -> Option<K> {
        Camp::victim(self).cloned()
    }

    fn remove(&mut self, key: &K) -> bool {
        Camp::remove(self, key).is_some()
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        Camp::set_trace_sink(self, sink);
    }

    fn trace_sink(&self) -> Option<&SharedTraceSink> {
        Camp::trace_sink(self)
    }

    fn evict(&mut self, key: &K) -> bool {
        Camp::evict(self, key).is_some()
    }

    fn eviction_event(&self, key: &K) -> Option<PolicyEvent> {
        let meta = self.entry_meta(key)?;
        Some(PolicyEvent {
            kind: PolicyEventKind::Evict,
            key_hash: key_hash(key),
            size: meta.size,
            cost: meta.cost,
            ratio: meta.rounded_ratio,
            queue: meta.queue,
            l_value: u64::try_from(self.l_value()).unwrap_or(u64::MAX),
        })
    }

    fn queue_count(&self) -> Option<usize> {
        Some(Camp::queue_count(self))
    }

    fn heap_node_visits(&self) -> Option<u64> {
        Some(Camp::heap_node_visits(self))
    }

    fn heap_update_ops(&self) -> Option<u64> {
        Some(Camp::heap_update_ops(self))
    }

    fn reset_instrumentation(&mut self) {
        Camp::reset_instrumentation(self);
    }

    fn policy_stats(&self) -> PolicyStats {
        let mut stats = PolicyStats::default();
        stats.push("items", Camp::len(self) as u64);
        stats.push("used_bytes", Camp::used_bytes(self));
        stats.push("capacity_bytes", Camp::capacity(self));
        stats.push("queue_count", Camp::queue_count(self) as u64);
        stats.push("heap_visits", Camp::heap_node_visits(self));
        stats.push("heap_updates", Camp::heap_update_ops(self));
        // L is u128 internally; saturate for exposition (it only nears
        // u64::MAX after ~584k years of microsecond-cost churn).
        stats.push("l_value", u64::try_from(self.l_value()).unwrap_or(u64::MAX));
        stats.push("ratio_multiplier", self.multiplier());
        for queue in self.queue_census() {
            stats.push_labelled(
                "queue_len",
                "ratio",
                queue.ratio.to_string(),
                queue.len as u64,
            );
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::Precision;

    #[test]
    fn camp_implements_the_trait() {
        let mut camp: Camp<u64, ()> = Camp::new(100, Precision::Bits(5));
        let mut evicted = Vec::new();
        assert_eq!(
            camp.reference(CacheRequest::new(1, 60, 10), &mut evicted),
            AccessOutcome::MissInserted
        );
        assert_eq!(
            camp.reference(CacheRequest::new(1, 60, 10), &mut evicted),
            AccessOutcome::Hit
        );
        assert_eq!(
            camp.reference(CacheRequest::new(2, 60, 10), &mut evicted),
            AccessOutcome::MissInserted
        );
        assert_eq!(evicted, vec![1]);
        assert_eq!(
            camp.reference(CacheRequest::new(3, 101, 10), &mut evicted),
            AccessOutcome::MissBypassed
        );
        assert!(EvictionPolicy::remove(&mut camp, &2));
        assert!(!EvictionPolicy::remove(&mut camp, &2));
        assert_eq!(EvictionPolicy::len(&camp), 0);
        assert!(EvictionPolicy::name(&camp).starts_with("camp"));
    }

    #[test]
    fn camp_over_byte_keys_implements_the_trait() {
        let mut camp: Camp<Box<[u8]>, ()> = Camp::new(100, Precision::Bits(5));
        let key: Box<[u8]> = Box::from(&b"user:1"[..]);
        let mut evicted: Vec<Box<[u8]>> = Vec::new();
        assert_eq!(
            camp.reference(CacheRequest::new(key.clone(), 60, 10), &mut evicted),
            AccessOutcome::MissInserted
        );
        assert!(EvictionPolicy::contains(&camp, &key));
        assert!(EvictionPolicy::touch(&mut camp, &key));
        assert_eq!(EvictionPolicy::victim(&camp), Some(key.clone()));
        assert!(EvictionPolicy::remove(&mut camp, &key));
        assert!(EvictionPolicy::is_empty(&camp));
    }

    #[test]
    fn touch_and_victim_follow_recency() {
        let mut camp: Camp<u64, ()> = Camp::new(1000, Precision::Bits(5));
        let mut evicted = Vec::new();
        camp.reference(CacheRequest::new(1, 10, 5), &mut evicted);
        camp.reference(CacheRequest::new(2, 10, 5), &mut evicted);
        // Same queue (same ratio); 1 is the LRU victim until touched.
        assert_eq!(EvictionPolicy::victim(&camp), Some(1));
        assert!(EvictionPolicy::touch(&mut camp, &1));
        assert_eq!(EvictionPolicy::victim(&camp), Some(2));
        assert!(!EvictionPolicy::touch(&mut camp, &99));
    }

    #[test]
    fn every_policy_reports_universal_gauges() {
        use crate::spec::EvictionMode;
        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy> = mode.build(1 << 16);
            let mut evicted = Vec::new();
            for key in 0..20u64 {
                policy.reference(CacheRequest::new(key, 256, 1 + key % 5), &mut evicted);
                policy.reference(CacheRequest::new(key, 256, 1 + key % 5), &mut evicted);
            }
            let stats = policy.policy_stats();
            assert!(stats.get("items").unwrap() > 0, "{name}");
            assert!(stats.get("used_bytes").unwrap() > 0, "{name}");
            assert_eq!(stats.get("capacity_bytes"), Some(1 << 16), "{name}");
            assert_eq!(stats.get("missing"), None);
        }
    }

    #[test]
    fn camp_stats_expose_policy_internals() {
        let mut camp: Camp<u64, ()> = Camp::new(10_000, Precision::Bits(5));
        let mut evicted = Vec::new();
        for key in 0..30u64 {
            // Three distinct cost/size ratios -> three queues.
            camp.reference(
                CacheRequest::new(key, 100, 1 + (key % 3) * 400),
                &mut evicted,
            );
        }
        let stats = EvictionPolicy::<u64>::policy_stats(&camp);
        assert_eq!(stats.get("queue_count"), Some(3));
        assert!(stats.get("l_value").is_some());
        assert!(stats.get("ratio_multiplier").unwrap() >= 1);
        assert!(stats.get("heap_visits").unwrap() > 0);
        let queue_lens: Vec<&PolicyGauge> = stats
            .gauges
            .iter()
            .filter(|g| g.name == "queue_len")
            .collect();
        assert_eq!(queue_lens.len(), 3, "one labelled gauge per queue");
        assert!(queue_lens
            .iter()
            .all(|g| { matches!(&g.label, Some(("ratio", value)) if !value.is_empty()) }));
        assert_eq!(
            queue_lens.iter().map(|g| g.value).sum::<u64>(),
            stats.get("items").unwrap(),
            "queue lengths must sum to the resident count"
        );
    }

    #[test]
    fn outcome_helpers() {
        assert!(!AccessOutcome::Hit.is_miss());
        assert!(AccessOutcome::MissInserted.is_miss());
        assert!(AccessOutcome::MissBypassed.is_miss());
    }

    #[derive(Debug, Default)]
    struct CountingSink {
        admits: std::sync::atomic::AtomicU64,
        evicts: std::sync::atomic::AtomicU64,
    }

    impl TraceSink for CountingSink {
        fn record(&self, event: &PolicyEvent) {
            use std::sync::atomic::Ordering;
            assert!(event.size > 0, "trace events carry the entry size");
            match event.kind {
                PolicyEventKind::Admit => self.admits.fetch_add(1, Ordering::Relaxed),
                PolicyEventKind::Evict => self.evicts.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    /// Whether `evict` is the trait default or a policy's own single-lookup
    /// override, the sink sees exactly the event `eviction_event` describes
    /// and the key is gone afterwards.
    #[test]
    fn evict_reports_exactly_the_eviction_event() {
        use crate::spec::EvictionMode;

        #[derive(Debug, Default)]
        struct Collecting(std::sync::Mutex<Vec<PolicyEvent>>);
        impl Collecting {
            fn events(&self) -> std::sync::MutexGuard<'_, Vec<PolicyEvent>> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        }
        impl TraceSink for Collecting {
            fn record(&self, event: &PolicyEvent) {
                self.events().push(*event);
            }
        }

        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy> = mode.build(1 << 16);
            let mut evicted = Vec::new();
            for key in 0..40u64 {
                policy.reference(CacheRequest::new(key, 200, 1 + key % 9 * 50), &mut evicted);
                policy.touch(&(key / 2));
            }
            let sink = std::sync::Arc::new(Collecting::default());
            policy.set_trace_sink(Some(sink.clone()));
            for _ in 0..5 {
                let victim = policy.victim().expect("resident keys remain");
                let expected = policy.eviction_event(&victim);
                let (len, used) = (policy.len(), policy.used_bytes());
                assert!(policy.evict(&victim), "{name}");
                assert_eq!(sink.events().pop(), expected, "{name}");
                assert!(!policy.contains(&victim), "{name}");
                assert_eq!(policy.len(), len - 1, "{name}");
                assert!(policy.used_bytes() < used, "{name}");
                assert!(!policy.evict(&victim), "{name}: absent key");
                assert!(sink.events().is_empty(), "{name}");
            }
        }
    }

    #[test]
    fn every_policy_emits_trace_events() {
        use std::sync::atomic::Ordering;

        use crate::spec::EvictionMode;
        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy> = mode.build(4 << 10);
            let sink = std::sync::Arc::new(CountingSink::default());
            policy.set_trace_sink(Some(sink.clone()));
            assert!(policy.trace_sink().is_some(), "{name}");
            let mut evicted = Vec::new();
            // Churn well past capacity: 64 keys x 256 bytes = 4x the budget.
            for key in 0..64u64 {
                policy.reference(CacheRequest::new(key, 256, 1 + key % 7), &mut evicted);
                policy.reference(CacheRequest::new(key, 256, 1 + key % 7), &mut evicted);
            }
            let admits = sink.admits.load(Ordering::Relaxed);
            assert!(admits > 0, "{name}: no admissions traced");
            assert_eq!(
                sink.evicts.load(Ordering::Relaxed),
                evicted.len() as u64,
                "{name}: one Evict event per reference-driven eviction"
            );
            // Store-pressure eviction: `evict` reports before removing.
            if let Some(victim) = policy.victim() {
                let before = sink.evicts.load(Ordering::Relaxed);
                assert!(policy.evict(&victim), "{name}");
                assert_eq!(
                    sink.evicts.load(Ordering::Relaxed),
                    before + 1,
                    "{name}: evict() must report to the sink"
                );
            }
            // Explicit delete stays out of the eviction telemetry.
            if let Some(victim) = policy.victim() {
                let before = sink.evicts.load(Ordering::Relaxed);
                assert!(policy.remove(&victim), "{name}");
                assert_eq!(
                    sink.evicts.load(Ordering::Relaxed),
                    before,
                    "{name}: remove() must not emit"
                );
            }
            // Detaching the sink stops emission.
            policy.set_trace_sink(None);
            let before = sink.admits.load(Ordering::Relaxed);
            policy.reference(CacheRequest::new(1_000, 256, 3), &mut evicted);
            policy.reference(CacheRequest::new(1_000, 256, 3), &mut evicted);
            assert_eq!(sink.admits.load(Ordering::Relaxed), before, "{name}");
        }
    }
}
