//! The paper's §4 experiment in miniature: boot the Twemcache-like server
//! twice (LRU, then CAMP), replay the same trace over real TCP, and compare
//! cost-miss ratio, miss rate and wall-clock run time (Figures 9a–9c).
//!
//! Run with `cargo run --release --example server_replay`.

use camp::core::Precision;
use camp::kvs::client::Client;
use camp::kvs::replay::replay_trace;
use camp::kvs::server::Server;
use camp::kvs::slab::SlabConfig;
use camp::kvs::store::{EvictionMode, StoreConfig};
use camp::workload::BgConfig;

fn main() -> std::io::Result<()> {
    let trace = BgConfig::paper_scaled(5_000, 100_000, 2014).generate();
    let stats = trace.stats();
    println!(
        "trace: {} requests, {} keys, {:.1} MiB unique",
        stats.requests,
        stats.unique_keys,
        stats.unique_bytes as f64 / (1 << 20) as f64
    );

    // Give the server roughly a quarter of the working set. Twemcache's
    // default 1 MiB slabs are too coarse for a megabyte-scale experiment,
    // so scale the slab size down with the memory (64 KiB slabs here).
    let memory = stats.unique_bytes / 4;
    let slab_size = 64 * 1024;
    let slab = SlabConfig::small(
        slab_size,
        u32::try_from(memory / u64::from(slab_size))
            .unwrap_or(1)
            .max(1),
    );
    println!(
        "server memory: {:.1} MiB ({} slabs of {} KiB)",
        memory as f64 / (1 << 20) as f64,
        slab.max_slabs,
        slab_size / 1024,
    );
    println!();
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12}",
        "policy", "cost-miss", "miss-rate", "run-time", "evictions"
    );

    for (name, eviction) in [
        ("lru", EvictionMode::Lru),
        ("camp(p=5)", EvictionMode::Camp(Precision::Bits(5))),
    ] {
        let server = Server::start("127.0.0.1:0", StoreConfig { slab, eviction })?;
        let mut client = Client::connect(server.local_addr())?;
        let report = replay_trace(&mut client, &trace)?;
        let stats = server.stats();
        println!(
            "{:<10} {:>12.4} {:>10.4} {:>9.2}s {:>12}",
            name,
            report.metrics.cost_miss_ratio(),
            report.metrics.miss_rate(),
            report.wall_time.as_secs_f64(),
            stats.evictions,
        );
        client.quit()?;
        server.shutdown();
    }

    println!();
    println!("Expected shape (paper Figure 9): CAMP's cost-miss ratio is well below");
    println!("LRU's at this cache size, at comparable run time.");
    Ok(())
}
