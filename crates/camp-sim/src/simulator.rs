//! The trace-driven KVS simulator of the paper's §3.
//!
//! "We implemented a simulator that consists of a KVS and a request
//! generator to read a trace file and issue requests to the KVS. […] Every
//! time the request generator references a key and the KVS reports a miss
//! for its value, the request generator inserts the missing key-value pair
//! in the KVS." [`Simulation`] reproduces that loop for any
//! [`EvictionPolicy`], accumulating the paper's metrics and, optionally,
//! the per-trace-file cache-occupancy series behind Figures 6c/6d.

use std::collections::HashMap;

use camp_policies::{CacheRequest, EvictionPolicy};
use camp_workload::{Trace, TraceRecord};

use crate::metrics::SimMetrics;

/// Configuration for per-trace-file occupancy tracking (Figures 6c/6d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyConfig {
    /// Sample the occupancy every this many requests.
    pub sample_every: usize,
    /// The trace id whose occupancy is reported (the paper tracks TF1 = 0).
    pub tracked_trace: u32,
}

impl Default for OccupancyConfig {
    fn default() -> Self {
        OccupancyConfig {
            sample_every: 10_000,
            tracked_trace: 0,
        }
    }
}

/// One occupancy sample.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct OccupancySample {
    /// Request index at which the sample was taken (0-based).
    pub request_index: usize,
    /// Bytes of the tracked trace's pairs resident in the cache.
    pub tracked_bytes: u64,
    /// Total resident bytes.
    pub used_bytes: u64,
    /// `tracked_bytes / capacity` — the paper's y-axis.
    pub fraction_of_capacity: f64,
}

/// The occupancy time series plus the eviction-completion landmark the
/// paper calls out ("LRU … evicting all key-value pairs of TF1 after 21,000
/// references of TF2").
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct OccupancySeries {
    /// Samples in request order.
    pub samples: Vec<OccupancySample>,
    /// Request index at which the *last* pair of the tracked trace left the
    /// cache for good (None if some survived to the end).
    pub fully_evicted_at: Option<usize>,
}

/// Everything one simulation run produces.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimReport {
    /// The policy's self-reported name.
    pub policy: String,
    /// The byte capacity the policy managed.
    pub capacity: u64,
    /// Hit/miss/cost counters.
    pub metrics: SimMetrics,
    /// The `queue_count` gauge (queues or pools) at the end of the run.
    pub queue_count: Option<usize>,
    /// The `heap_visits` gauge: heap nodes visited during the run.
    pub heap_node_visits: Option<u64>,
    /// The `heap_updates` gauge: structural heap operations in the run.
    pub heap_update_ops: Option<u64>,
    /// Occupancy series, when requested.
    pub occupancy: Option<OccupancySeries>,
    /// Wall-clock nanoseconds spent inside policy calls.
    pub policy_nanos: u128,
}

/// A configurable simulation run. The plain entry point is [`simulate`];
/// use the builder for occupancy tracking.
///
/// # Examples
///
/// ```
/// use camp_policies::Lru;
/// use camp_sim::{simulate, Simulation};
/// use camp_workload::BgConfig;
///
/// let trace = BgConfig::paper_scaled(500, 5_000, 1).generate();
/// let mut lru = Lru::new(trace.stats().unique_bytes / 4);
/// let report = simulate(&mut lru, &trace);
/// assert!(report.metrics.miss_rate() > 0.0);
///
/// // With occupancy tracking:
/// let mut lru2 = Lru::new(trace.stats().unique_bytes / 4);
/// let report = Simulation::new(&trace)
///     .track_occupancy(Default::default())
///     .run(&mut lru2);
/// assert!(report.occupancy.is_some());
/// ```
#[derive(Debug)]
pub struct Simulation<'a> {
    trace: &'a Trace,
    occupancy: Option<OccupancyConfig>,
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation over `trace`.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        Simulation {
            trace,
            occupancy: None,
        }
    }

    /// Enables per-trace-file occupancy tracking.
    #[must_use]
    pub fn track_occupancy(mut self, config: OccupancyConfig) -> Self {
        self.occupancy = Some(config);
        self
    }

    /// Drives `policy` through the whole trace.
    pub fn run(&self, policy: &mut dyn EvictionPolicy) -> SimReport {
        policy.reset_instrumentation();
        let mut metrics = SimMetrics::default();
        let mut seen: std::collections::HashSet<u64> = Default::default();
        let mut evicted: Vec<u64> = Vec::new();

        // Occupancy state (only maintained when requested).
        let track = self.occupancy;
        let mut resident_meta: HashMap<u64, (u64, u32)> = HashMap::new();
        let mut tracked_bytes = 0u64;
        let mut series = OccupancySeries::default();
        let mut last_nonzero_at: Option<usize> = None;

        // lint:allow(wall-clock-in-core) — measures only the report's
        // elapsed wall time; no simulation decision ever reads it.
        let started = std::time::Instant::now();
        for (index, record) in self.trace.iter().enumerate() {
            let &TraceRecord {
                key,
                size,
                cost,
                trace_id,
            } = record;
            evicted.clear();
            let outcome = policy.reference(CacheRequest::new(key, size, cost), &mut evicted);

            metrics.record(seen.insert(key), outcome, cost);

            if let Some(config) = track {
                for k in &evicted {
                    if let Some((sz, tid)) = resident_meta.remove(k) {
                        if tid == config.tracked_trace {
                            tracked_bytes -= sz;
                        }
                    }
                }
                if outcome == camp_policies::AccessOutcome::MissInserted {
                    resident_meta.insert(key, (size, trace_id));
                    if trace_id == config.tracked_trace {
                        tracked_bytes += size;
                    }
                }
                if tracked_bytes > 0 {
                    last_nonzero_at = Some(index);
                }
                if config.sample_every > 0 && index % config.sample_every == 0 {
                    series.samples.push(OccupancySample {
                        request_index: index,
                        tracked_bytes,
                        used_bytes: policy.used_bytes(),
                        fraction_of_capacity: tracked_bytes as f64
                            / policy.capacity().max(1) as f64,
                    });
                }
            }
        }
        let policy_nanos = started.elapsed().as_nanos();

        let occupancy = track.map(|_| {
            series.fully_evicted_at = match last_nonzero_at {
                Some(i) if i + 1 < self.trace.len() => Some(i + 1),
                _ => None, // survived to the end (or never present)
            };
            series
        });

        let gauges = policy.policy_stats();
        SimReport {
            policy: policy.name(),
            capacity: policy.capacity(),
            metrics,
            queue_count: gauges.get("queue_count").map(|n| n as usize),
            heap_node_visits: gauges.get("heap_visits"),
            heap_update_ops: gauges.get("heap_updates"),
            occupancy,
            policy_nanos,
        }
    }
}

/// Runs `policy` over `trace` with default settings — the paper's §3 loop.
pub fn simulate(policy: &mut dyn EvictionPolicy, trace: &Trace) -> SimReport {
    Simulation::new(trace).run(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::{Camp, Precision};
    use camp_policies::Lru;
    use camp_workload::multi::evolving_workload;
    use camp_workload::BgConfig;

    #[test]
    fn cold_requests_are_excluded() {
        // Every key referenced exactly once: all requests are cold, so the
        // rates are zero regardless of cache size.
        let trace: Trace = (0..100).map(|k| TraceRecord::new(k, 10, 100)).collect();
        let mut lru = Lru::new(50);
        let report = simulate(&mut lru, &trace);
        assert_eq!(report.metrics.cold_requests, 100);
        assert_eq!(report.metrics.counted_requests(), 0);
        assert_eq!(report.metrics.miss_rate(), 0.0);
        assert_eq!(report.metrics.cost_miss_ratio(), 0.0);
    }

    #[test]
    fn infinite_cache_has_zero_miss_rate() {
        let trace = BgConfig::paper_scaled(200, 5_000, 5).generate();
        let mut lru = Lru::new(u64::MAX);
        let report = simulate(&mut lru, &trace);
        assert_eq!(report.metrics.miss_rate(), 0.0);
        assert_eq!(report.metrics.misses, 0);
    }

    #[test]
    fn tiny_cache_has_high_miss_rate() {
        let trace = BgConfig::paper_scaled(500, 10_000, 5).generate();
        let mut lru = Lru::new(trace.stats().max_size + 1);
        let report = simulate(&mut lru, &trace);
        assert!(report.metrics.miss_rate() > 0.9);
    }

    #[test]
    fn miss_rate_is_monotone_in_cache_size_for_lru() {
        // LRU has the inclusion property, so bigger caches can only help.
        let trace = BgConfig::paper_scaled(300, 20_000, 8).generate();
        let unique = trace.stats().unique_bytes;
        let mut last = f64::INFINITY;
        for denom in [20u64, 10, 4, 2, 1] {
            let mut lru = Lru::new(unique / denom);
            let rate = simulate(&mut lru, &trace).metrics.miss_rate();
            assert!(
                rate <= last + 1e-9,
                "miss rate rose with cache size: {rate} > {last}"
            );
            last = rate;
        }
    }

    #[test]
    fn camp_report_includes_instrumentation() {
        let trace = BgConfig::paper_scaled(300, 10_000, 2).generate();
        let mut camp: Camp<u64, ()> = Camp::new(trace.stats().unique_bytes / 4, Precision::Bits(5));
        let report = simulate(&mut camp, &trace);
        assert!(report.queue_count.is_some());
        assert!(report.heap_node_visits.unwrap() > 0);
        assert!(report.policy.starts_with("camp"));
    }

    #[test]
    fn occupancy_tracks_the_working_set_shift() {
        let base = BgConfig::paper_scaled(200, 5_000, 3);
        let trace = evolving_workload(&base, 3);
        let capacity = trace.stats().unique_bytes / 8;
        let mut lru = Lru::new(capacity);
        let report = Simulation::new(&trace)
            .track_occupancy(OccupancyConfig {
                sample_every: 500,
                tracked_trace: 0,
            })
            .run(&mut lru);
        let occupancy = report.occupancy.unwrap();
        assert!(!occupancy.samples.is_empty());
        // TF1 bytes rise during TF1 and fall to zero under LRU afterwards.
        let first_third_max = occupancy
            .samples
            .iter()
            .filter(|s| s.request_index < 5_000)
            .map(|s| s.tracked_bytes)
            .max()
            .unwrap();
        assert!(first_third_max > 0);
        let end = occupancy.samples.last().unwrap();
        assert_eq!(end.tracked_bytes, 0, "LRU must flush TF1 entirely");
        let at = occupancy.fully_evicted_at.expect("TF1 fully evicted");
        assert!(at >= 5_000, "TF1 cannot be gone before TF2 starts");
        assert!(at < 10_000, "LRU flushes TF1 within TF2");
    }

    #[test]
    fn occupancy_fraction_is_bounded() {
        let base = BgConfig::paper_scaled(100, 2_000, 9);
        let trace = evolving_workload(&base, 2);
        let mut lru = Lru::new(trace.stats().unique_bytes / 4);
        let report = Simulation::new(&trace)
            .track_occupancy(OccupancyConfig {
                sample_every: 100,
                tracked_trace: 0,
            })
            .run(&mut lru);
        for s in &report.occupancy.unwrap().samples {
            assert!((0.0..=1.0).contains(&s.fraction_of_capacity));
            assert!(s.tracked_bytes <= s.used_bytes);
        }
    }

    #[test]
    fn bypassed_requests_are_counted() {
        let trace: Trace = vec![
            TraceRecord::new(1, 10, 5),
            TraceRecord::new(2, 1_000, 5), // too large for the cache
            TraceRecord::new(2, 1_000, 5),
        ]
        .into_iter()
        .collect();
        let mut lru = Lru::new(100);
        let report = simulate(&mut lru, &trace);
        assert_eq!(report.metrics.bypassed, 2);
        assert_eq!(report.metrics.misses, 1); // the non-cold rerequest of key 2
    }
}
