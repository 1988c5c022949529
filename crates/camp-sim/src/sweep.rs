//! Parameter sweeps over cache-size ratios.
//!
//! Every figure in the paper's evaluation plots a metric against either the
//! *cache size ratio* — "the size of the KVS memory divided by the total
//! size of the unique objects in the trace file" — or CAMP's precision.
//! [`sweep_ratios_parallel`] is the one loop the `repro` harness builds
//! each of those figures from: it runs a set of policies at every ratio of
//! a grid and hands back their [`SimReport`]s.

use camp_policies::EvictionPolicy;
use camp_workload::Trace;

use crate::simulator::{simulate, SimReport};

/// The paper's default grid of cache-size ratios: the sweeps' and the
/// ratio axis of every `repro` figure that has one.
pub const DEFAULT_RATIOS: [f64; 8] = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0];

/// Converts a cache-size ratio into a byte capacity: `ratio` times the
/// `basis` bytes, rounded, and at least one byte. The basis is usually
/// the trace's unique bytes ([`camp_workload::TraceStats::unique_bytes`]);
/// the §3.1 evolving experiments use a single trace file's.
///
/// # Examples
///
/// ```
/// use camp_sim::sweep::capacity_for_ratio;
/// use camp_workload::{Trace, TraceRecord};
///
/// let trace = Trace::from_records(vec![
///     TraceRecord::new(1, 600, 1),
///     TraceRecord::new(2, 400, 1),
/// ]);
/// assert_eq!(capacity_for_ratio(trace.stats().unique_bytes, 0.5), 500);
/// ```
///
/// # Panics
///
/// Panics if `ratio` is not positive.
#[must_use]
pub fn capacity_for_ratio(basis: u64, ratio: f64) -> u64 {
    assert!(ratio > 0.0, "cache size ratio must be positive");
    ((basis as f64 * ratio).round() as u64).max(1)
}

/// One point of a cache-size sweep.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepPoint {
    /// The cache-size ratio of this point.
    pub ratio: f64,
    /// The byte capacity it mapped to.
    pub capacity: u64,
    /// One full simulation report per policy, in the order the factory
    /// built them.
    pub reports: Vec<SimReport>,
}

/// Runs the policies `make_policies(capacity)` builds over `trace` at each
/// cache-size ratio of `basis` bytes (see [`capacity_for_ratio`]).
///
/// Each ratio gets a thread of its own, which builds its policies and
/// simulates them one after another — the points are independent, so
/// paper-scale sweeps (4M rows × 8 ratios) parallelize embarrassingly.
/// The points come back in the order of `ratios`.
///
/// # Examples
///
/// ```
/// use camp_policies::{Gds, Lru};
/// use camp_sim::sweep::sweep_ratios_parallel;
/// use camp_workload::BgConfig;
///
/// let trace = BgConfig::paper_scaled(200, 3_000, 1).generate();
/// let basis = trace.stats().unique_bytes;
/// let points = sweep_ratios_parallel(&trace, basis, &[0.1, 0.5], |capacity| {
///     vec![Box::new(Lru::new(capacity)), Box::new(Gds::new(capacity))]
/// });
/// assert_eq!(points.len(), 2);
/// let lru_miss = |i: usize| points[i].reports[0].metrics.miss_rate();
/// assert!(lru_miss(0) >= lru_miss(1));
/// ```
pub fn sweep_ratios_parallel<F>(
    trace: &Trace,
    basis: u64,
    ratios: &[f64],
    make_policies: F,
) -> Vec<SweepPoint>
where
    F: Fn(u64) -> Vec<Box<dyn EvictionPolicy>> + Sync,
{
    let mut points: Vec<Option<SweepPoint>> = Vec::new();
    points.resize_with(ratios.len(), || None);
    std::thread::scope(|scope| {
        for (slot, &ratio) in points.iter_mut().zip(ratios) {
            let make_policies = &make_policies;
            scope.spawn(move || {
                let capacity = capacity_for_ratio(basis, ratio);
                let reports = make_policies(capacity)
                    .into_iter()
                    .map(|mut policy| simulate(policy.as_mut(), trace))
                    .collect();
                *slot = Some(SweepPoint {
                    ratio,
                    capacity,
                    reports,
                });
            });
        }
    });
    points
        .into_iter()
        .map(|p| p.expect("every sweep worker fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::{Camp, Precision};
    use camp_policies::Lru;
    use camp_workload::BgConfig;

    #[test]
    fn capacity_for_ratio_rounds_and_clamps() {
        let basis = BgConfig::paper_scaled(100, 1_000, 1)
            .generate()
            .stats()
            .unique_bytes;
        assert_eq!(capacity_for_ratio(basis, 1.0), basis);
        assert!(capacity_for_ratio(basis, 1e-9) >= 1);
        assert_eq!(capacity_for_ratio(0, 0.5), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_panics() {
        let _ = capacity_for_ratio(1_000, 0.0);
    }

    #[test]
    fn sweep_covers_all_ratios_in_order() {
        let trace = BgConfig::paper_scaled(200, 5_000, 2).generate();
        let basis = trace.stats().unique_bytes;
        let points = sweep_ratios_parallel(&trace, basis, &DEFAULT_RATIOS, |c| {
            vec![Box::new(Lru::new(c)), Box::new(Lru::new(c))]
        });
        assert_eq!(points.len(), DEFAULT_RATIOS.len());
        for (p, r) in points.iter().zip(DEFAULT_RATIOS) {
            assert_eq!(p.ratio, r);
            assert_eq!(p.capacity, capacity_for_ratio(basis, r));
            assert_eq!(p.reports.len(), 2);
            for report in &p.reports {
                assert_eq!(report.capacity, p.capacity);
            }
            assert_eq!(p.reports[0].metrics, p.reports[1].metrics);
        }
    }

    #[test]
    fn sweep_matches_a_plain_simulation_at_each_point() {
        let trace = BgConfig::paper_scaled(300, 10_000, 4).generate();
        let ratios = [0.05, 0.1, 0.25, 0.5];
        let basis = trace.stats().unique_bytes / 3;
        let points = sweep_ratios_parallel(&trace, basis, &ratios, |c| {
            vec![Box::new(Camp::<u64, ()>::new(c, Precision::Bits(5)))]
        });
        for (point, ratio) in points.iter().zip(ratios) {
            let capacity = capacity_for_ratio(basis, ratio);
            let mut camp = Camp::<u64, ()>::new(capacity, Precision::Bits(5));
            let alone = simulate(&mut camp, &trace);
            assert_eq!(point.capacity, capacity);
            assert_eq!(point.reports[0].metrics, alone.metrics);
            assert_eq!(point.reports[0].queue_count, alone.queue_count);
        }
    }

    #[test]
    fn camp_sweep_cost_improves_with_size() {
        let trace = BgConfig::paper_scaled(300, 20_000, 3).generate();
        let points = sweep_ratios_parallel(&trace, trace.stats().unique_bytes, &[0.05, 0.5], |c| {
            vec![Box::new(Camp::<u64, ()>::new(c, Precision::Bits(5)))]
        });
        assert!(
            points[0].reports[0].metrics.cost_miss_ratio()
                >= points[1].reports[0].metrics.cost_miss_ratio()
        );
    }
}
