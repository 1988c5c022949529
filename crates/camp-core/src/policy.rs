//! The common interface every eviction policy in this workspace implements.
//!
//! The paper's simulator (§3) drives each algorithm the same way: a request
//! generator references a key; on a miss it inserts the missing pair, which
//! may evict residents. [`EvictionPolicy::reference`] captures exactly that
//! interaction, so every policy is interchangeable inside the simulator, the
//! KVS server, the tests, and the benchmark harness.
//!
//! A policy is also a map, holding a value `V` per resident key: `()` in
//! the simulator, each item's chunk in the KVS server's slab store, whose
//! one index it is. Implementations write the value methods — `get` and
//! `admit` (the hit and miss halves of `reference`), `peek`, `take`,
//! `evict` (one step of the policy's own eviction) and `for_each`;
//! `reference`, `touch`, `remove`, `evict_next` and `contains` are written
//! once, here, over them.
//!
//! A policy reports in two ways, one path each: its decisions go into a
//! log its caller turns on ([`EvictionPolicy::log_decisions`]) and empties
//! ([`EvictionPolicy::drain_decisions`]), and its gauges are the rows of
//! [`EvictionPolicy::policy_stats`].
//!
//! Implementations: the keyed front ([`crate::Keyed`] — one cache, nine
//! orderings: CAMP here, LRU, GDS, GDSF, LFU, GD-Wheel, ARC, 2Q and LRU-K
//! in `camp-policies`); and, also in `camp-policies`, pooled LRU,
//! admission and Belady, whose state (pools, a wrapped policy, the future)
//! the front does not model.
//!
//! The trait is generic over the key type. The simulator uses `u64` trace
//! keys and so does the KVS server, over a 64-bit fingerprint of each wire
//! key (byte keys such as `Box<[u8]>` still work — the benchmark's ledger
//! times that instantiation).

pub use crate::trace::{key_hash, PolicyEvent, PolicyEventKind};

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

    /// The gauges every policy can answer: items, bytes, capacity. A
    /// policy with more to say (queues, heap work, `L`) appends it.
    #[must_use]
    pub fn universal<K: CacheKey, V>(policy: &(impl EvictionPolicy<K, V> + ?Sized)) -> Self {
        let mut stats = PolicyStats::default();
        stats.push("items", policy.len() as u64);
        stats.push("used_bytes", policy.used_bytes());
        stats.push("capacity_bytes", policy.capacity());
        stats
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

/// A cache eviction policy driven by a stream of key references, holding a
/// value `V` for each resident key.
///
/// Implementations manage a fixed byte budget. `reference` performs the
/// paper's get-then-insert-on-miss cycle in one call and reports evicted
/// keys through the caller-supplied buffer (so hot loops can reuse one
/// allocation). `get`, `admit`, `take` and `evict` split that cycle apart
/// for callers — like the slab store — that decide *when* to evict
/// themselves; *what* to evict stays the policy's own decision.
///
/// Every policy in this workspace keeps its keys in a
/// [`crate::hash::FoldHashMap`]: unseeded, so not resistant to keys
/// chosen to collide. Callers holding externally chosen byte or string
/// keys should hand the policy a seeded hash of them, as the KVS server
/// does with its key fingerprint.
pub trait EvictionPolicy<K: CacheKey = u64, V = ()> {
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

    /// The hit path of [`EvictionPolicy::reference`]: the value of a
    /// resident `key`, after updating its recency/frequency metadata. A
    /// miss records nothing.
    fn get(&mut self, key: &K) -> Option<&V>;

    /// The value of a resident `key`, without updating recency.
    fn peek(&self, key: &K) -> Option<&V>;

    /// The miss path of [`EvictionPolicy::reference`]: makes the absent
    /// `key` resident with `value`, handing every pair evicted to make room
    /// to `evicted`. `MissBypassed` (with `value` dropped) when the pair is
    /// not admitted. The key must not be resident.
    fn admit(
        &mut self,
        key: K,
        value: V,
        size: u64,
        cost: u64,
        evicted: &mut dyn FnMut(K, V),
    ) -> AccessOutcome;

    /// Removes `key` if resident (an explicit delete: not traced), handing
    /// back its value.
    fn take(&mut self, key: &K) -> Option<V>;

    /// Evicts the pair this policy's own eviction would take next and hands
    /// it back: exactly the step [`EvictionPolicy::reference`] takes while
    /// over budget, with its bookkeeping (the clock `L`, ghost lists,
    /// reference histories) and its one eviction trace event. `None` when
    /// empty.
    fn evict(&mut self) -> Option<(K, V)>;

    /// Visits every resident pair once, in an unspecified order.
    fn for_each(&self, f: &mut dyn FnMut(&K, &V));

    /// Whether `key` is resident, without updating recency.
    fn contains(&self, key: &K) -> bool {
        self.peek(key).is_some()
    }

    /// References `req.key`: a hit updates recency metadata; a miss inserts
    /// the pair (with the default value), appending any evicted keys to
    /// `evicted`.
    fn reference(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) -> AccessOutcome
    where
        V: Default,
    {
        assert!(req.size > 0, "key-value pairs have positive size");
        if self.get(&req.key).is_some() {
            return AccessOutcome::Hit;
        }
        let CacheRequest { key, size, cost } = req;
        self.admit(key, V::default(), size, cost, &mut |key, _| {
            evicted.push(key)
        })
    }

    /// [`EvictionPolicy::get`] for its side effect: returns whether `key`
    /// was resident.
    fn touch(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// [`EvictionPolicy::evict`], keeping only the key.
    fn evict_next(&mut self) -> Option<K> {
        self.evict().map(|(key, _)| key)
    }

    /// [`EvictionPolicy::take`], keeping only whether `key` was resident.
    fn remove(&mut self, key: &K) -> bool {
        self.take(key).is_some()
    }

    /// Starts (`true`) or stops keeping a log of this policy's decisions:
    /// one [`PolicyEvent`] per admission and eviction, held until
    /// [`EvictionPolicy::drain_decisions`]. Stopping drops what the log
    /// held. The default keeps no log: a policy opts in by logging.
    fn log_decisions(&mut self, _on: bool) {}

    /// Hands every logged decision to `f`, oldest first, and empties the
    /// log (keeping its buffer). A caller that turned the log on drains it
    /// after each call that may decide.
    fn drain_decisions(&mut self, _f: &mut dyn FnMut(PolicyEvent)) {}

    /// Resets instrumentation counters (not the cache contents).
    fn reset_instrumentation(&mut self) {}

    /// Snapshot of this policy's internal gauges, for the telemetry layer.
    ///
    /// The one way a policy's gauges are read. The default is
    /// [`PolicyStats::universal`]; policies with richer internals extend
    /// it: queue or pool count (`queue_count`), heap work (`heap_visits`,
    /// the Figure 4 metric, and `heap_updates`), CAMP's `L` and per-queue
    /// lengths.
    fn policy_stats(&self) -> PolicyStats {
        PolicyStats::universal(self)
    }
}
