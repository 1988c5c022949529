//! Parameter sweeps over cache-size ratios and precisions.
//!
//! Every figure in the paper's evaluation plots a metric against either the
//! *cache size ratio* — "the size of the KVS memory divided by the total
//! size of the unique objects in the trace file" — or CAMP's precision.
//! This module provides the shared sweep machinery the `repro` harness
//! builds each figure from.

use camp_policies::EvictionPolicy;
use camp_workload::{Trace, TraceStats};

use crate::simulator::{simulate, SimReport};

/// The paper's default grid of cache-size ratios: the sweeps' and the
/// ratio axis of every `repro` figure that has one.
pub const DEFAULT_RATIOS: [f64; 8] = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0];

/// Converts a cache-size ratio into a byte capacity for a given trace.
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
/// let stats = trace.stats();
/// assert_eq!(capacity_for_ratio(&stats, 0.5), 500);
/// ```
#[must_use]
pub fn capacity_for_ratio(stats: &TraceStats, ratio: f64) -> u64 {
    assert!(ratio > 0.0, "cache size ratio must be positive");
    ((stats.unique_bytes as f64 * ratio).round() as u64).max(1)
}

/// One point of a cache-size sweep.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepPoint {
    /// The cache-size ratio of this point.
    pub ratio: f64,
    /// The byte capacity it mapped to.
    pub capacity: u64,
    /// The full simulation report at this point.
    pub report: SimReport,
}

/// Runs `make_policy(capacity)` over `trace` at each cache-size ratio.
///
/// # Examples
///
/// ```
/// use camp_policies::Lru;
/// use camp_sim::sweep::sweep_ratios;
/// use camp_workload::BgConfig;
///
/// let trace = BgConfig::paper_scaled(200, 3_000, 1).generate();
/// let points = sweep_ratios(&trace, &[0.1, 0.5], |capacity| {
///     Box::new(Lru::new(capacity))
/// });
/// assert_eq!(points.len(), 2);
/// assert!(points[0].report.metrics.miss_rate() >= points[1].report.metrics.miss_rate());
/// ```
pub fn sweep_ratios<F>(trace: &Trace, ratios: &[f64], mut make_policy: F) -> Vec<SweepPoint>
where
    F: FnMut(u64) -> Box<dyn EvictionPolicy>,
{
    let stats = trace.stats();
    ratios
        .iter()
        .map(|&ratio| {
            let capacity = capacity_for_ratio(&stats, ratio);
            let mut policy = make_policy(capacity);
            let report = simulate(policy.as_mut(), trace);
            SweepPoint {
                ratio,
                capacity,
                report,
            }
        })
        .collect()
}

/// Like [`sweep_ratios`], but runs the grid points on parallel threads —
/// each point is independent, so paper-scale sweeps (4M rows × 8 ratios)
/// parallelize embarrassingly.
///
/// The factory must be callable from any thread; policies themselves are
/// created and driven entirely within their worker.
pub fn sweep_ratios_parallel<F>(trace: &Trace, ratios: &[f64], make_policy: F) -> Vec<SweepPoint>
where
    F: Fn(u64) -> Box<dyn EvictionPolicy> + Sync,
{
    let stats = trace.stats();
    let mut points: Vec<Option<SweepPoint>> = Vec::new();
    points.resize_with(ratios.len(), || None);
    std::thread::scope(|scope| {
        for (slot, &ratio) in points.iter_mut().zip(ratios) {
            let make_policy = &make_policy;
            scope.spawn(move || {
                let capacity = capacity_for_ratio(&stats, ratio);
                let mut policy = make_policy(capacity);
                let report = simulate(policy.as_mut(), trace);
                *slot = Some(SweepPoint {
                    ratio,
                    capacity,
                    report,
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
        let trace = BgConfig::paper_scaled(100, 1_000, 1).generate();
        let stats = trace.stats();
        assert_eq!(capacity_for_ratio(&stats, 1.0), stats.unique_bytes);
        assert!(capacity_for_ratio(&stats, 1e-9) >= 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_panics() {
        let stats = Trace::default().stats();
        let _ = capacity_for_ratio(&stats, 0.0);
    }

    #[test]
    fn sweep_covers_all_ratios_in_order() {
        let trace = BgConfig::paper_scaled(200, 5_000, 2).generate();
        let points = sweep_ratios(&trace, &DEFAULT_RATIOS, |c| Box::new(Lru::new(c)));
        assert_eq!(points.len(), DEFAULT_RATIOS.len());
        for (p, r) in points.iter().zip(DEFAULT_RATIOS) {
            assert_eq!(p.ratio, r);
            assert_eq!(p.report.capacity, p.capacity);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let trace = BgConfig::paper_scaled(300, 10_000, 4).generate();
        let ratios = [0.05, 0.1, 0.25, 0.5];
        let factory = |c: u64| -> Box<dyn EvictionPolicy> {
            Box::new(Camp::<u64, ()>::new(c, Precision::Bits(5)))
        };
        let serial = sweep_ratios(&trace, &ratios, factory);
        let parallel = sweep_ratios_parallel(&trace, &ratios, factory);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.ratio, p.ratio);
            assert_eq!(s.capacity, p.capacity);
            assert_eq!(s.report.metrics, p.report.metrics);
        }
    }

    #[test]
    fn camp_sweep_cost_improves_with_size() {
        let trace = BgConfig::paper_scaled(300, 20_000, 3).generate();
        let points = sweep_ratios(&trace, &[0.05, 0.5], |c| {
            Box::new(Camp::<u64, ()>::new(c, Precision::Bits(5)))
        });
        assert!(
            points[0].report.metrics.cost_miss_ratio()
                >= points[1].report.metrics.cost_miss_ratio()
        );
    }
}
