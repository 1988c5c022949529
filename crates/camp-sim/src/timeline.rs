//! Windowed metrics over time: how the cost-miss ratio and miss rate
//! *evolve* during a run.
//!
//! The paper's §3.1 narrates adaptation dynamics ("CAMP adapts across the
//! different trace files…") from occupancy plots; a per-window metric
//! timeline makes the same dynamics visible in the rates themselves — the
//! spike at every trace-file boundary and how quickly each policy recovers
//! from it.

use camp_policies::{CacheRequest, EvictionPolicy};
use camp_workload::Trace;

use crate::metrics::SimMetrics;

/// Metrics accumulated over one window of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct WindowPoint {
    /// Index of the first request in the window.
    pub start: usize,
    /// Requests in the window (the last window may be short).
    pub len: usize,
    /// Window-local counters (cold exclusion applies trace-globally: a
    /// key's first-ever reference is cold even if its window is late).
    pub metrics: SimMetrics,
}

/// Drives `policy` through `trace`, reporting metrics per window of
/// `window` requests.
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Examples
///
/// ```
/// use camp_policies::Lru;
/// use camp_sim::timeline::windowed_metrics;
/// use camp_workload::BgConfig;
///
/// let trace = BgConfig::paper_scaled(500, 10_000, 1).generate();
/// let mut lru = Lru::new(trace.stats().unique_bytes / 4);
/// let windows = windowed_metrics(&mut lru, &trace, 2_000);
/// assert_eq!(windows.len(), 5);
/// // Warm-up: the first window is the coldest.
/// assert!(windows[0].metrics.cold_requests >= windows[4].metrics.cold_requests);
/// ```
pub fn windowed_metrics(
    policy: &mut dyn EvictionPolicy,
    trace: &Trace,
    window: usize,
) -> Vec<WindowPoint> {
    assert!(window > 0, "window must be non-empty");
    let mut seen: std::collections::HashSet<u64> = Default::default();
    let mut evicted = Vec::new();
    let mut windows = Vec::new();
    let mut current = WindowPoint {
        start: 0,
        len: 0,
        metrics: SimMetrics::default(),
    };
    for (index, record) in trace.iter().enumerate() {
        if current.len == window {
            windows.push(current);
            current = WindowPoint {
                start: index,
                len: 0,
                metrics: SimMetrics::default(),
            };
        }
        evicted.clear();
        let outcome = policy.reference(
            CacheRequest::new(record.key, record.size, record.cost),
            &mut evicted,
        );
        current.len += 1;
        current
            .metrics
            .record(seen.insert(record.key), outcome, record.cost);
    }
    if current.len > 0 {
        windows.push(current);
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::{Camp, Precision};
    use camp_policies::{Admission, AdmissionRule, Lru};
    use camp_workload::{evolving_workload, BgConfig, Trace};

    #[test]
    fn windows_partition_the_trace() {
        let trace = BgConfig::paper_scaled(200, 10_500, 2).generate();
        let mut lru = Lru::new(trace.stats().unique_bytes / 4);
        let windows = windowed_metrics(&mut lru, &trace, 1_000);
        assert_eq!(windows.len(), 11);
        assert_eq!(windows.iter().map(|w| w.len).sum::<usize>(), 10_500);
        assert_eq!(windows.last().unwrap().len, 500);
        for pair in windows.windows(2) {
            assert_eq!(pair[0].start + pair[0].len, pair[1].start);
        }
    }

    #[test]
    fn window_totals_match_global_simulation() {
        let trace = BgConfig::paper_scaled(300, 20_000, 9).generate();
        let capacity = trace.stats().unique_bytes / 5;
        let mut a: Camp<u64, ()> = Camp::new(capacity, Precision::Bits(5));
        let windows = windowed_metrics(&mut a, &trace, 3_000);
        let mut b: Camp<u64, ()> = Camp::new(capacity, Precision::Bits(5));
        let report = crate::simulator::simulate(&mut b, &trace);
        let total_misses: u64 = windows.iter().map(|w| w.metrics.misses).sum();
        let total_missed_cost: u64 = windows.iter().map(|w| w.metrics.missed_cost).sum();
        assert_eq!(total_misses, report.metrics.misses);
        assert_eq!(total_missed_cost, report.metrics.missed_cost);
    }

    /// Every field of the windows adds up to the whole run's, bypasses
    /// included, under a policy that declines first misses.
    #[test]
    fn window_fields_sum_to_the_simulation_under_a_bypassing_policy() {
        let fields = |m: &SimMetrics| {
            let requests = [m.requests, m.cold_requests].map(|n| n as u64);
            let rest = [m.hits, m.misses, m.bypassed, m.missed_cost, m.total_cost];
            [requests.as_slice(), rest.as_slice()].concat()
        };
        let trace = BgConfig::paper_scaled(300, 20_000, 11).generate();
        let capacity = trace.stats().unique_bytes / 5;
        let rule = AdmissionRule::SecondMiss { window: 512 };
        let mut a = Admission::new(Lru::new(capacity), rule.clone());
        let windows = windowed_metrics(&mut a, &trace, 3_000);
        let mut b = Admission::new(Lru::new(capacity), rule);
        let report = crate::simulator::simulate(&mut b, &trace);
        let mut sum = vec![0; 7];
        for window in &windows {
            for (total, field) in sum.iter_mut().zip(fields(&window.metrics)) {
                *total += field;
            }
        }
        assert_eq!(sum, fields(&report.metrics));
        assert!(report.metrics.bypassed > 0, "the policy bypassed nothing");
    }

    #[test]
    fn boundary_spikes_show_in_the_timeline() {
        // Evolving workload: the window covering a trace-file boundary must
        // show a cold/miss spike relative to the settled window before it.
        let base = BgConfig::paper_scaled(1_000, 20_000, 5);
        let trace = evolving_workload(&base, 2);
        let mut lru = Lru::new(trace.stats().unique_bytes / 4);
        let windows = windowed_metrics(&mut lru, &trace, 2_000);
        // Windows 0..10 are TF1, 10..20 are TF2. The first TF2 window is
        // cold-heavy; the last TF1 window is settled.
        let settled = &windows[9];
        let boundary = &windows[10];
        assert!(
            boundary.metrics.cold_requests > settled.metrics.cold_requests * 2,
            "no cold spike at the boundary: {} vs {}",
            boundary.metrics.cold_requests,
            settled.metrics.cold_requests
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_panics() {
        let trace = Trace::default();
        let mut lru = Lru::new(10);
        let _ = windowed_metrics(&mut lru, &trace, 0);
    }
}
