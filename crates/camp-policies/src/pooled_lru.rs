//! Pooled LRU: the statically partitioned baseline of the paper's §3.
//!
//! Following Facebook's memcache pools (Nishtala et al., NSDI'13), a human
//! expert partitions the available memory into disjoint pools, groups
//! key-value pairs by cost, assigns each group to a pool, and each pool runs
//! plain LRU. The paper evaluates two splits for the `{1, 100, 10K}` cost
//! trace — uniform, and proportional to the total cost of the requests in
//! each pool — and a "proportional to the lowest cost in range" split for
//! the continuous-cost trace (Figure 8). All three are expressible here.
//!
//! Unlike CAMP, the partition is frozen: a pool under pressure cannot borrow
//! from an idle one, which is exactly the weakness Figures 5d and 8a expose.

use camp_core::Keyed;

use crate::lru::Recency;
use crate::policy::{AccessOutcome, CacheKey, EvictionPolicy, SharedTraceSink};

/// How the available memory is divided among the pools.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolSplit {
    /// Every pool receives the same share.
    Uniform,
    /// Pool `i` receives a share proportional to `weights[i]`.
    Weighted(Vec<f64>),
    /// Pool `i` receives a share proportional to the lower cost bound of its
    /// range — the paper's Figure 8 configuration.
    ProportionalToLowerBound,
}

/// The statically partitioned multi-pool LRU cache.
///
/// Pools are defined by ascending cost boundaries: with boundaries
/// `[b0, b1, …, bn]`, pool `i` holds pairs whose cost lies in
/// `[b_i, b_{i+1})`, and the last pool is unbounded above.
///
/// # Examples
///
/// ```
/// use camp_policies::{CacheRequest, EvictionPolicy, PooledLru, PoolSplit};
///
/// // The paper's three-pool configuration for costs {1, 100, 10K}, with the
/// // memory split proportional to the pool's cost value.
/// let mut pooled: PooledLru = PooledLru::new(
///     10_000,
///     &[1, 100, 10_000],
///     PoolSplit::ProportionalToLowerBound,
/// );
/// assert_eq!(pooled.queue_count(), Some(3));
///
/// let mut evicted = Vec::new();
/// pooled.reference(CacheRequest::new(1, 10, 10_000), &mut evicted);
/// assert!(pooled.contains(&1));
/// ```
#[derive(Debug)]
pub struct PooledLru<K = u64, V = ()> {
    /// One LRU cache per cost range.
    pools: Vec<Keyed<K, Recency, V>>,
    boundaries: Vec<u64>,
    capacity: u64,
}

impl<K: CacheKey, V> PooledLru<K, V> {
    /// Creates a pooled cache over the given cost boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is empty or not strictly ascending, or if a
    /// `PoolSplit::Weighted` weight vector has the wrong length or a
    /// non-positive total.
    #[must_use]
    pub fn new(capacity: u64, boundaries: &[u64], split: PoolSplit) -> Self {
        assert!(!boundaries.is_empty(), "at least one pool is required");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly ascending"
        );
        let weights: Vec<f64> = match split {
            PoolSplit::Uniform => vec![1.0; boundaries.len()],
            PoolSplit::ProportionalToLowerBound => {
                boundaries.iter().map(|&b| b.max(1) as f64).collect()
            }
            PoolSplit::Weighted(w) => {
                assert_eq!(w.len(), boundaries.len(), "one weight per pool is required");
                assert!(w.iter().all(|&x| x >= 0.0), "weights must be non-negative");
                w
            }
        };
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let pools = weights
            .iter()
            .map(|&w| Keyed::<K, Recency, V>::new((capacity as f64 * w / total).floor() as u64))
            .collect();
        PooledLru {
            pools,
            boundaries: boundaries.to_vec(),
            capacity,
        }
    }

    /// The pool index a request of this cost is routed to.
    #[must_use]
    pub fn pool_of(&self, cost: u64) -> usize {
        // partition_point gives the count of boundaries <= cost; costs below
        // the first boundary are clamped into pool 0.
        self.boundaries
            .partition_point(|&b| b <= cost)
            .saturating_sub(1)
    }

    /// The byte capacity assigned to each pool.
    #[must_use]
    pub fn pool_capacities(&self) -> Vec<u64> {
        self.pools.iter().map(Keyed::capacity).collect()
    }

    /// Per-pool resident byte counts.
    #[must_use]
    pub fn pool_used_bytes(&self) -> Vec<u64> {
        self.pools.iter().map(Keyed::used_bytes).collect()
    }
}

impl<K: CacheKey, V> EvictionPolicy<K, V> for PooledLru<K, V> {
    fn name(&self) -> String {
        format!("pooled-lru({} pools)", self.pools.len())
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.pools.iter().map(Keyed::used_bytes).sum()
    }

    fn len(&self) -> usize {
        self.pools.iter().map(Keyed::len).sum()
    }

    fn get(&mut self, key: &K) -> Option<&V> {
        self.pools.iter_mut().find_map(|pool| pool.get(key))
    }

    fn peek(&self, key: &K) -> Option<&V> {
        self.pools.iter().find_map(|pool| pool.peek(key))
    }

    fn admit(
        &mut self,
        key: K,
        value: V,
        size: u64,
        cost: u64,
        evicted: &mut dyn FnMut(K, V),
    ) -> AccessOutcome {
        let pool = self.pool_of(cost);
        self.pools[pool].admit(key, value, size, cost, evicted)
    }

    fn take(&mut self, key: &K) -> Option<V> {
        self.pools.iter_mut().find_map(|pool| pool.remove(key))
    }

    fn evict(&mut self) -> Option<(K, V)> {
        // The frozen partition has no global eviction order: the fullest
        // pool (by fill fraction) gives up its LRU pair.
        self.pools
            .iter_mut()
            .filter(|p| !p.is_empty())
            .max_by(|a, b| {
                let fa = a.used_bytes() as f64 / (a.capacity().max(1)) as f64;
                let fb = b.used_bytes() as f64 / (b.capacity().max(1)) as f64;
                fa.total_cmp(&fb)
            })
            .and_then(Keyed::evict_lowest)
    }

    fn for_each(&self, f: &mut dyn FnMut(&K, &V)) {
        for pool in &self.pools {
            pool.for_each(f);
        }
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        // Each pool emits its own events; the wrapper just fans the sink out.
        for pool in &mut self.pools {
            pool.set_trace_sink(sink.clone());
        }
    }

    fn queue_count(&self) -> Option<usize> {
        Some(self.pools.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CacheRequest;

    fn touch(p: &mut PooledLru, key: u64, size: u64, cost: u64) -> (AccessOutcome, Vec<u64>) {
        let mut evicted = Vec::new();
        let out = p.reference(CacheRequest::new(key, size, cost), &mut evicted);
        (out, evicted)
    }

    #[test]
    fn routes_by_cost_range() {
        let p: PooledLru = PooledLru::new(3000, &[1, 100, 10_000], PoolSplit::Uniform);
        assert_eq!(p.pool_of(1), 0);
        assert_eq!(p.pool_of(99), 0);
        assert_eq!(p.pool_of(100), 1);
        assert_eq!(p.pool_of(9_999), 1);
        assert_eq!(p.pool_of(10_000), 2);
        assert_eq!(p.pool_of(u64::MAX), 2);
        // Costs below the first boundary clamp into pool 0.
        assert_eq!(p.pool_of(0), 0);
    }

    #[test]
    fn uniform_split_divides_evenly() {
        let p: PooledLru = PooledLru::new(3000, &[1, 100, 10_000], PoolSplit::Uniform);
        assert_eq!(p.pool_capacities(), vec![1000, 1000, 1000]);
    }

    #[test]
    fn lower_bound_split_gives_almost_everything_to_the_expensive_pool() {
        // The paper: "99% of the cache is dedicated to the pool of expensive
        // key-value pairs."
        let p: PooledLru = PooledLru::new(
            1_000_000,
            &[1, 100, 10_000],
            PoolSplit::ProportionalToLowerBound,
        );
        let caps = p.pool_capacities();
        assert!(caps[2] as f64 / 1_000_000.0 > 0.98, "{caps:?}");
        assert!(caps[0] < caps[1] && caps[1] < caps[2]);
    }

    #[test]
    fn weighted_split_follows_weights() {
        let p: PooledLru = PooledLru::new(1000, &[1, 100], PoolSplit::Weighted(vec![3.0, 1.0]));
        assert_eq!(p.pool_capacities(), vec![750, 250]);
    }

    #[test]
    fn pools_do_not_interfere() {
        let mut p = PooledLru::new(60, &[1, 100], PoolSplit::Uniform);
        // Fill the cheap pool (30 bytes).
        touch(&mut p, 1, 10, 1);
        touch(&mut p, 2, 10, 1);
        touch(&mut p, 3, 10, 1);
        // The expensive pool is untouched; a cheap insert evicts only cheap.
        touch(&mut p, 100, 10, 500);
        let (_, ev) = touch(&mut p, 4, 10, 1);
        assert_eq!(ev, vec![1]);
        assert!(p.contains(&100));
    }

    #[test]
    fn rigid_partition_wastes_idle_pool_space() {
        // The calcification-style weakness CAMP fixes: the cheap pool
        // thrashes while the expensive pool sits empty.
        let mut p = PooledLru::new(100, &[1, 100], PoolSplit::Uniform);
        let mut misses = 0;
        for round in 0..10 {
            for key in 0..8 {
                let (out, _) = touch(&mut p, key, 10, 1);
                if round > 0 && out.is_miss() {
                    misses += 1;
                }
            }
        }
        // 8 keys x 10 bytes = 80 bytes working set, 50-byte cheap pool:
        // steady-state misses even though half the cache is idle.
        assert!(misses > 0);
        assert_eq!(p.pool_used_bytes()[1], 0);
    }

    #[test]
    fn remove_and_contains_search_all_pools() {
        let mut p = PooledLru::new(60, &[1, 100], PoolSplit::Uniform);
        touch(&mut p, 1, 10, 1);
        touch(&mut p, 2, 10, 500);
        assert!(p.contains(&1) && p.contains(&2));
        assert!(EvictionPolicy::remove(&mut p, &2));
        assert!(!p.contains(&2));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn touch_and_evict_next_cross_pools() {
        let mut p = PooledLru::new(60, &[1, 100], PoolSplit::Uniform);
        touch(&mut p, 1, 10, 1);
        touch(&mut p, 2, 10, 500);
        assert!(EvictionPolicy::touch(&mut p, &1));
        assert!(EvictionPolicy::touch(&mut p, &2));
        assert!(!EvictionPolicy::touch(&mut p, &9));
        // Both pools are equally full; one of them gives up its key.
        let v = p.evict_next().unwrap();
        assert!(!p.contains(&v) && (v == 1 || v == 2));
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_boundaries_panic() {
        let _: PooledLru = PooledLru::new(100, &[100, 1], PoolSplit::Uniform);
    }

    #[test]
    fn single_pool_behaves_like_lru() {
        let mut p = PooledLru::new(30, &[1], PoolSplit::Uniform);
        touch(&mut p, 1, 10, 1);
        touch(&mut p, 2, 10, 77);
        touch(&mut p, 3, 10, 10_000);
        let (_, ev) = touch(&mut p, 4, 10, 5);
        assert_eq!(ev, vec![1]);
    }
}
