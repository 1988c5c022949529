//! Workspace-level integration tests: the full pipeline from workload
//! generation through simulation to the paper's headline comparisons.

use camp::core::{Camp, Precision};
use camp::policies::{EvictionPolicy, Gds, Lru, PoolSplit, PooledLru};
use camp::sim::{simulate, sweep_ratios_parallel, OccupancyConfig, Simulation};
use camp::workload::{evolving_workload, BgConfig};

#[test]
fn headline_result_camp_beats_lru_and_pooled_on_cost() {
    // The paper's central claim, end to end: on the BG-like trace with
    // {1, 100, 10K} costs, CAMP's cost-miss ratio beats both LRU and the
    // expert-partitioned Pooled-LRU across cache sizes.
    let trace = BgConfig::paper_scaled(10_000, 200_000, 11).generate();
    let stats = trace.stats();
    for ratio in [0.05, 0.1, 0.25, 0.5] {
        let cap = camp::sim::capacity_for_ratio(stats.unique_bytes, ratio);
        let mut camp_policy: Camp<u64, ()> = Camp::new(cap, Precision::Bits(5));
        let mut lru = Lru::new(cap);
        let mut pooled =
            PooledLru::new(cap, &[1, 100, 10_000], PoolSplit::ProportionalToLowerBound);
        let camp_cost = simulate(&mut camp_policy, &trace).metrics.cost_miss_ratio();
        let lru_cost = simulate(&mut lru, &trace).metrics.cost_miss_ratio();
        let pooled_cost = simulate(&mut pooled, &trace).metrics.cost_miss_ratio();
        assert!(
            camp_cost < lru_cost,
            "ratio {ratio}: camp {camp_cost:.4} !< lru {lru_cost:.4}"
        );
        assert!(
            camp_cost <= pooled_cost + 1e-9,
            "ratio {ratio}: camp {camp_cost:.4} !<= pooled {pooled_cost:.4}"
        );
    }
}

#[test]
fn camp_matches_gds_decisions_at_any_precision() {
    // Figure 5a end to end: the cost-miss ratio is flat across precision
    // and indistinguishable from exact GDS.
    let trace = BgConfig::paper_scaled(5_000, 150_000, 5).generate();
    let cap = camp::sim::capacity_for_ratio(trace.stats().unique_bytes, 0.25);
    let mut gds = Gds::new(cap);
    let gds_cost = simulate(&mut gds, &trace).metrics.cost_miss_ratio();
    for p in [1u8, 3, 5, 8] {
        let mut camp_policy: Camp<u64, ()> = Camp::new(cap, Precision::Bits(p));
        let camp_cost = simulate(&mut camp_policy, &trace).metrics.cost_miss_ratio();
        assert!(
            (camp_cost - gds_cost).abs() / gds_cost.max(1e-9) < 0.10,
            "p={p}: camp {camp_cost:.4} vs gds {gds_cost:.4}"
        );
    }
    // And CAMP(∞) is essentially exactly GDS.
    let mut exact: Camp<u64, ()> = Camp::new(cap, Precision::Infinite);
    let exact_cost = simulate(&mut exact, &trace).metrics.cost_miss_ratio();
    assert!(
        (exact_cost - gds_cost).abs() / gds_cost.max(1e-9) < 0.01,
        "camp(inf) {exact_cost:.4} vs gds {gds_cost:.4}"
    );
}

#[test]
fn camp_heap_work_is_a_fraction_of_gds_heap_work() {
    // Figure 4 end to end: same trace, same capacity, same heap structure —
    // CAMP must visit far fewer heap nodes, and the gap must widen with
    // the cache size.
    let trace = BgConfig::paper_scaled(5_000, 150_000, 8).generate();
    let stats = trace.stats();
    let mut factors = Vec::new();
    for ratio in [0.1, 0.5, 0.9] {
        let cap = camp::sim::capacity_for_ratio(stats.unique_bytes, ratio);
        let mut gds = Gds::new(cap);
        let gds_visits = simulate(&mut gds, &trace).heap_node_visits.unwrap();
        let mut camp_policy: Camp<u64, ()> = Camp::new(cap, Precision::Bits(5));
        let camp_visits = simulate(&mut camp_policy, &trace).heap_node_visits.unwrap();
        assert!(
            camp_visits < gds_visits,
            "ratio {ratio}: camp visited {camp_visits} >= gds {gds_visits}"
        );
        factors.push(gds_visits as f64 / camp_visits.max(1) as f64);
    }
    assert!(
        factors.windows(2).all(|w| w[0] <= w[1] * 1.05),
        "advantage should grow (or hold) with cache size: {factors:?}"
    );
    assert!(factors.last().unwrap() > &3.0, "{factors:?}");
}

#[test]
fn evolving_patterns_are_adapted_to() {
    // §3.1 end to end: after the working set shifts, every policy must
    // eventually evict (nearly) all of TF1; LRU must be the fastest.
    let base = BgConfig::paper_scaled(2_000, 50_000, 17);
    let trace = evolving_workload(&base, 3);
    let tf_bytes: u64 = {
        let mut sizes = std::collections::HashMap::new();
        for r in trace.iter().filter(|r| r.trace_id == 0) {
            sizes.insert(r.key, r.size);
        }
        sizes.values().sum()
    };
    let cap = tf_bytes / 4;
    let config = OccupancyConfig {
        sample_every: 1_000,
        tracked_trace: 0,
    };

    let mut lru = Lru::new(cap);
    let lru_occ = Simulation::new(&trace)
        .track_occupancy(config)
        .run(&mut lru)
        .occupancy
        .unwrap();
    let mut camp_policy: Camp<u64, ()> = Camp::new(cap, Precision::Bits(5));
    let camp_occ = Simulation::new(&trace)
        .track_occupancy(config)
        .run(&mut camp_policy)
        .occupancy
        .unwrap();

    let lru_gone = lru_occ.fully_evicted_at.expect("LRU flushes TF1");
    if let Some(camp_gone) = camp_occ.fully_evicted_at {
        assert!(
            lru_gone <= camp_gone,
            "LRU ({lru_gone}) must flush TF1 no later than CAMP ({camp_gone})"
        );
    } else {
        // CAMP kept a tail of expensive TF1 pairs — the paper's Figure 6d
        // behaviour — but it must be tiny.
        let end = camp_occ.samples.last().unwrap();
        assert!(
            end.fraction_of_capacity < 0.05,
            "CAMP's TF1 tail too large: {:.4}",
            end.fraction_of_capacity
        );
    }
}

#[test]
fn sweep_api_composes_with_boxed_policies() {
    let trace = BgConfig::paper_scaled(2_000, 40_000, 3).generate();
    let basis = trace.stats().unique_bytes;
    let points = sweep_ratios_parallel(&trace, basis, &[0.1, 0.3, 0.6], |cap| {
        vec![Box::new(Camp::<u64, ()>::new(cap, Precision::Bits(5)))]
    });
    assert_eq!(points.len(), 3);
    // Cost-miss must be non-increasing in capacity.
    let costs: Vec<f64> = points
        .iter()
        .map(|p| p.reports[0].metrics.cost_miss_ratio())
        .collect();
    assert!(costs.windows(2).all(|w| w[0] >= w[1] - 1e-9), "{costs:?}");
}

#[test]
fn trace_files_roundtrip_through_the_simulator() {
    // Write a trace to disk, read it back, and get identical simulation
    // results — the reproducibility path users of trace files rely on.
    let trace = BgConfig::paper_scaled(1_000, 20_000, 9).generate();
    let dir = std::env::temp_dir().join("camp-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.trace");
    trace.save(&path).unwrap();
    let reloaded = camp::workload::Trace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cap = camp::sim::capacity_for_ratio(trace.stats().unique_bytes, 0.2);
    let mut a: Camp<u64, ()> = Camp::new(cap, Precision::Bits(5));
    let mut b: Camp<u64, ()> = Camp::new(cap, Precision::Bits(5));
    let ra = simulate(&mut a, &trace);
    let rb = simulate(&mut b, &reloaded);
    assert_eq!(ra.metrics, rb.metrics);
}

#[test]
fn boxed_policy_collection_is_usable_generically() {
    // The trait-object workflow the examples use.
    let trace = BgConfig::paper_scaled(1_000, 30_000, 4).generate();
    let cap = camp::sim::capacity_for_ratio(trace.stats().unique_bytes, 0.25);
    let mut policies: Vec<Box<dyn EvictionPolicy>> = vec![
        Box::new(Camp::<u64, ()>::new(cap, Precision::Bits(5))),
        Box::new(Lru::new(cap)),
        Box::new(Gds::new(cap)),
    ];
    for policy in &mut policies {
        let report = simulate(policy.as_mut(), &trace);
        assert!(report.metrics.requests == trace.len());
        assert!(policy.used_bytes() <= policy.capacity());
    }
}
