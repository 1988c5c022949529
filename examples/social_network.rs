//! The paper's evaluation in miniature: a BG-like social-network trace
//! driven through CAMP, LRU, GDS and Pooled-LRU at several cache sizes.
//!
//! Run with `cargo run --release --example social_network`.

use camp::core::{Camp, Precision};
use camp::policies::{EvictionPolicy, Gds, Lru, PoolSplit, PooledLru};
use camp::sim::{simulate, sweep::capacity_for_ratio};
use camp::workload::BgConfig;

fn main() {
    // A scaled-down version of the paper's 4M-row BG trace: 70% of requests
    // to 20% of members, per-key stable sizes, synthetic {1, 100, 10K}
    // costs.
    let trace = BgConfig::paper_scaled(20_000, 400_000, 42).generate();
    let stats = trace.stats();
    println!(
        "trace: {} requests, {} unique keys, {:.1} MiB unique bytes, costs {{1,100,10K}}",
        stats.requests,
        stats.unique_keys,
        stats.unique_bytes as f64 / (1 << 20) as f64
    );
    println!();
    println!(
        "{:<10} {:<22} {:>12} {:>10} {:>10}",
        "cache", "policy", "cost-miss", "miss-rate", "queues"
    );

    for ratio in [0.05, 0.25, 0.5] {
        let capacity = capacity_for_ratio(stats.unique_bytes, ratio);
        let mut policies: Vec<Box<dyn EvictionPolicy>> = vec![
            Box::new(Camp::<u64, ()>::new(capacity, Precision::Bits(5))),
            Box::new(Lru::new(capacity)),
            Box::new(Gds::new(capacity)),
            Box::new(PooledLru::new(
                capacity,
                &[1, 100, 10_000],
                PoolSplit::ProportionalToLowerBound,
            )),
        ];
        for policy in &mut policies {
            let report = simulate(policy.as_mut(), &trace);
            println!(
                "{:<10} {:<22} {:>12.4} {:>10.4} {:>10}",
                format!("{ratio:.2}x"),
                report.policy,
                report.metrics.cost_miss_ratio(),
                report.metrics.miss_rate(),
                report
                    .queue_count
                    .map_or_else(|| "-".into(), |q| q.to_string()),
            );
        }
        println!();
    }

    println!("Expected shape (paper Figures 5c/5d): CAMP ~ GDS < Pooled-LRU < LRU");
    println!("on cost-miss ratio, while CAMP's miss rate stays close to LRU's.");
}
