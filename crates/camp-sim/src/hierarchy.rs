//! A two-level (memory + SSD-model) hierarchical cache — the paper's §6
//! future-work direction, built so its benefit can be measured.
//!
//! "More longer term, we are extending CAMP for use with a hierarchical
//! cache (using SSD, hard disk, or both) which may persist costly data
//! items." The second level here is a *model* of such a device: it holds
//! pairs evicted from memory, and serving a request from it costs a fixed
//! fraction of the pair's recomputation cost (an SSD read instead of an
//! RDBMS query). Any two eviction policies can be composed.

use camp_policies::{AccessOutcome, CacheRequest, EvictionPolicy};
use camp_workload::Trace;

use crate::metrics::SimMetrics;

/// Outcome of one hierarchical reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelHit {
    /// Served from the first (memory) level at zero cost.
    L1,
    /// Served from the second (SSD) level at the discounted cost.
    L2,
    /// Missed both levels: full recomputation cost.
    Miss,
}

/// A two-level cache: L1 (memory) in front of L2 (SSD model).
///
/// On an L1 miss the L2 is consulted; an L2 hit promotes the pair back into
/// L1. Pairs evicted from L1 demote into L2 (victim caching). The
/// `l2_cost_permille` parameter sets how expensive an L2 read is relative
/// to full recomputation, in thousandths (e.g. 50 = 5%).
///
/// # Examples
///
/// ```
/// use camp_policies::Lru;
/// use camp_sim::hierarchy::TwoLevelCache;
///
/// let mut cache = TwoLevelCache::new(
///     Box::new(Lru::new(100)),
///     Box::new(Lru::new(1000)),
///     50, // an SSD read costs 5% of recomputation
/// );
/// assert_eq!(cache.l2_cost_permille(), 50);
/// ```
pub struct TwoLevelCache {
    l1: Box<dyn EvictionPolicy>,
    l2: Box<dyn EvictionPolicy>,
    l2_cost_permille: u64,
    sizes: std::collections::HashMap<u64, (u64, u64)>, // key -> (size, cost)
}

impl std::fmt::Debug for TwoLevelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoLevelCache")
            .field("l1", &self.l1.name())
            .field("l2", &self.l2.name())
            .field("l2_cost_permille", &self.l2_cost_permille)
            .finish()
    }
}

impl TwoLevelCache {
    /// Composes two policies into a hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `l2_cost_permille` exceeds 1000 (an L2 read must not cost
    /// more than recomputation).
    #[must_use]
    pub fn new(
        l1: Box<dyn EvictionPolicy>,
        l2: Box<dyn EvictionPolicy>,
        l2_cost_permille: u64,
    ) -> Self {
        assert!(l2_cost_permille <= 1000, "L2 reads cannot exceed full cost");
        TwoLevelCache {
            l1,
            l2,
            l2_cost_permille,
            sizes: std::collections::HashMap::new(),
        }
    }

    /// The relative L2 read cost, in thousandths of the recomputation cost.
    #[must_use]
    pub fn l2_cost_permille(&self) -> u64 {
        self.l2_cost_permille
    }

    /// The first-level policy.
    #[must_use]
    pub fn l1(&self) -> &dyn EvictionPolicy {
        self.l1.as_ref()
    }

    /// The second-level policy.
    #[must_use]
    pub fn l2(&self) -> &dyn EvictionPolicy {
        self.l2.as_ref()
    }

    /// References a key through the hierarchy. L1 evictions demote into L2;
    /// L2 hits promote back into L1.
    pub fn reference(&mut self, req: CacheRequest) -> LevelHit {
        self.access(req).0
    }

    /// [`TwoLevelCache::reference`], also returning what L1 did with the
    /// key: a hit exactly when the hierarchy served it from L1.
    fn access(&mut self, req: CacheRequest) -> (LevelHit, AccessOutcome) {
        let mut l1_evicted = Vec::new();
        let outcome = self.l1.reference(req, &mut l1_evicted);
        let hit = match outcome {
            AccessOutcome::Hit => LevelHit::L1,
            AccessOutcome::MissInserted | AccessOutcome::MissBypassed => {
                // Consult L2 (the data may be on the device); a hit there
                // is consumed — the pair just moved (back) into L1.
                if self.l2.remove(&req.key) {
                    LevelHit::L2
                } else {
                    LevelHit::Miss
                }
            }
        };
        if outcome == AccessOutcome::MissInserted {
            self.sizes.insert(req.key, (req.size, req.cost));
        }
        // Demote L1 victims into L2.
        let mut l2_evicted = Vec::new();
        for key in l1_evicted {
            if let Some(&(size, cost)) = self.sizes.get(&key) {
                l2_evicted.clear();
                self.l2
                    .reference(CacheRequest::new(key, size, cost), &mut l2_evicted);
                for gone in &l2_evicted {
                    if !self.l1.contains(gone) {
                        self.sizes.remove(gone);
                    }
                }
            }
        }
        (hit, outcome)
    }

    /// The incurred cost of a reference given its [`LevelHit`].
    #[must_use]
    pub fn incurred_cost(&self, cost: u64, hit: LevelHit) -> u64 {
        match hit {
            LevelHit::L1 => 0,
            LevelHit::L2 => cost * self.l2_cost_permille / 1000,
            LevelHit::Miss => cost,
        }
    }
}

/// Metrics from a hierarchical run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct HierarchyMetrics {
    /// Flat (single-level-equivalent) metrics, where an L2 hit counts as a
    /// miss for the miss-rate but at discounted cost.
    pub base: SimMetrics,
    /// Non-cold L1 hits.
    pub l1_hits: u64,
    /// Non-cold L2 hits.
    pub l2_hits: u64,
    /// Summed *incurred* cost over non-cold requests (L2 hits discounted).
    pub incurred_cost: u64,
}

impl HierarchyMetrics {
    /// Incurred cost over total cost — the hierarchy's analogue of the
    /// cost-miss ratio.
    #[must_use]
    pub fn incurred_cost_ratio(&self) -> f64 {
        if self.base.total_cost == 0 {
            0.0
        } else {
            self.incurred_cost as f64 / self.base.total_cost as f64
        }
    }
}

/// Drives a [`TwoLevelCache`] through a trace, with the paper's cold-request
/// exclusion.
pub fn simulate_hierarchy(cache: &mut TwoLevelCache, trace: &Trace) -> HierarchyMetrics {
    let mut metrics = HierarchyMetrics::default();
    let mut seen: std::collections::HashSet<u64> = Default::default();
    for record in trace {
        let req = CacheRequest::new(record.key, record.size, record.cost);
        let (hit, outcome) = cache.access(req);
        let cold = seen.insert(record.key);
        // An L2 hit is an L1 miss: a miss for the flat rates.
        metrics.base.record(cold, outcome, record.cost);
        if cold {
            continue;
        }
        let incurred = cache.incurred_cost(record.cost, hit);
        metrics.incurred_cost = metrics.incurred_cost.saturating_add(incurred);
        match hit {
            LevelHit::L1 => metrics.l1_hits += 1,
            LevelHit::L2 => metrics.l2_hits += 1,
            LevelHit::Miss => {}
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::{Camp, Precision};
    use camp_policies::Lru;
    use camp_workload::BgConfig;

    fn two_level(l1: u64, l2: u64) -> TwoLevelCache {
        TwoLevelCache::new(Box::new(Lru::new(l1)), Box::new(Lru::new(l2)), 50)
    }

    #[test]
    fn l2_catches_l1_victims() {
        let mut cache = two_level(20, 200);
        // Fill L1 (two 10-byte pairs), then push 1 out.
        cache.reference(CacheRequest::new(1, 10, 100));
        cache.reference(CacheRequest::new(2, 10, 100));
        cache.reference(CacheRequest::new(3, 10, 100)); // evicts 1 into L2
        assert_eq!(cache.reference(CacheRequest::new(1, 10, 100)), LevelHit::L2);
    }

    #[test]
    fn incurred_cost_is_discounted_for_l2() {
        let cache = two_level(10, 100);
        assert_eq!(cache.incurred_cost(1000, LevelHit::L1), 0);
        assert_eq!(cache.incurred_cost(1000, LevelHit::L2), 50);
        assert_eq!(cache.incurred_cost(1000, LevelHit::Miss), 1000);
    }

    #[test]
    fn hierarchy_beats_single_level_on_cost() {
        let trace = BgConfig::paper_scaled(300, 20_000, 4).generate();
        let unique = trace.stats().unique_bytes;
        let l1_size = unique / 10;

        // Single level CAMP.
        let mut flat: Camp<u64, ()> = Camp::new(l1_size, Precision::Bits(5));
        let flat_report = crate::simulator::simulate(&mut flat, &trace);

        // Same memory + a 4x SSD behind it.
        let mut hier = TwoLevelCache::new(
            Box::new(Camp::<u64, ()>::new(l1_size, Precision::Bits(5))),
            Box::new(Camp::<u64, ()>::new(unique * 4 / 10, Precision::Bits(5))),
            50,
        );
        let hier_metrics = simulate_hierarchy(&mut hier, &trace);

        assert!(
            hier_metrics.incurred_cost_ratio() < flat_report.metrics.cost_miss_ratio(),
            "hierarchy {:.4} should beat flat {:.4}",
            hier_metrics.incurred_cost_ratio(),
            flat_report.metrics.cost_miss_ratio()
        );
        assert!(hier_metrics.l2_hits > 0);
    }

    #[test]
    fn l1_and_l2_counts_partition_the_hits() {
        let trace = BgConfig::paper_scaled(100, 5_000, 6).generate();
        let mut cache = two_level(
            trace.stats().unique_bytes / 10,
            trace.stats().unique_bytes / 2,
        );
        let m = simulate_hierarchy(&mut cache, &trace);
        assert_eq!(m.base.hits, m.l1_hits);
        assert!(m.base.misses >= m.l2_hits);
        assert!(m.incurred_cost <= m.base.missed_cost);
    }

    #[test]
    #[should_panic(expected = "exceed full cost")]
    fn absurd_l2_cost_rejected() {
        let _ = TwoLevelCache::new(Box::new(Lru::new(1)), Box::new(Lru::new(1)), 1001);
    }
}
