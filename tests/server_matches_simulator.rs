//! Cross-checks the §4 server implementation against the §3 simulator: the
//! same trace, the same eviction policy family, comparable outcomes.

use camp::core::{Camp, Precision};
use camp::kvs::client::Client;
use camp::kvs::replay::replay_trace;
use camp::kvs::server::Server;
use camp::kvs::slab::SlabConfig;
use camp::kvs::store::{EvictionMode, StoreConfig};
use camp::policies::Lru;
use camp::sim::simulate;
use camp::workload::BgConfig;

fn run_server(trace: &camp::workload::Trace, memory: u64, eviction: EvictionMode) -> f64 {
    let slab_size: u32 = 32 * 1024;
    let slab = SlabConfig::small(
        slab_size,
        u32::try_from(memory / u64::from(slab_size))
            .unwrap_or(1)
            .max(1),
    );
    let server = Server::start("127.0.0.1:0", StoreConfig { slab, eviction }).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let report = replay_trace(&mut client, trace).expect("replay");
    let _ = client.quit();
    server.shutdown();
    report.metrics.cost_miss_ratio()
}

#[test]
fn server_and_simulator_agree_on_the_policy_ordering() {
    let trace = BgConfig::paper_scaled(1_500, 40_000, 23).generate();
    let memory = trace.stats().unique_bytes / 4;

    // Simulator verdict.
    let mut sim_camp: Camp<u64, ()> = Camp::new(memory, Precision::Bits(5));
    let sim_camp_cost = simulate(&mut sim_camp, &trace).metrics.cost_miss_ratio();
    let mut sim_lru = Lru::new(memory);
    let sim_lru_cost = simulate(&mut sim_lru, &trace).metrics.cost_miss_ratio();
    assert!(sim_camp_cost < sim_lru_cost);

    // Server verdict (slab overheads shift the absolute numbers, but the
    // ordering and the rough magnitude of the win must agree).
    let srv_camp_cost = run_server(&trace, memory, EvictionMode::Camp(Precision::Bits(5)));
    let srv_lru_cost = run_server(&trace, memory, EvictionMode::Lru);
    assert!(
        srv_camp_cost < srv_lru_cost,
        "server: camp {srv_camp_cost:.4} !< lru {srv_lru_cost:.4}"
    );

    let sim_win = sim_lru_cost / sim_camp_cost.max(1e-6);
    let srv_win = srv_lru_cost / srv_camp_cost.max(1e-6);
    assert!(
        sim_win > 1.2 && srv_win > 1.2,
        "both stacks must show a real win: sim {sim_win:.2}x, server {srv_win:.2}x"
    );
}

#[test]
fn server_replay_is_deterministic_in_hit_accounting() {
    // Two identical replays against fresh servers must agree exactly on
    // hit/miss accounting (wall time of course differs).
    let trace = BgConfig::paper_scaled(800, 15_000, 31).generate();
    let memory = trace.stats().unique_bytes / 3;
    let run = || {
        let slab = SlabConfig::small(
            32 * 1024,
            u32::try_from(memory / (32 * 1024)).unwrap().max(1),
        );
        let server = Server::start(
            "127.0.0.1:0",
            StoreConfig {
                slab,
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let m = replay_trace(&mut client, &trace).unwrap().metrics;
        let _ = client.quit();
        server.shutdown();
        (m.hits, m.misses, m.missed_cost)
    };
    assert_eq!(run(), run());
}

#[test]
fn iq_timing_cost_orders_items_like_hints_do() {
    // Drive the IQ timestamp path (no hints): a key whose recomputation
    // takes visibly longer must be protected over fast cheap keys.
    let server = Server::start(
        "127.0.0.1:0",
        StoreConfig {
            slab: SlabConfig::small(4096, 2),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Expensive key: 30 ms of "recomputation" between iqget and iqset.
    assert!(client.iqget(b"slow").unwrap().is_none());
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert!(client.iqset(b"slow", &[1u8; 40], 0, 0, None).unwrap());

    // Churn cheap keys (instant recompute) to force evictions.
    for i in 0..200u32 {
        let key = format!("fast-{i}");
        if client.iqget(key.as_bytes()).unwrap().is_none() {
            client
                .iqset(key.as_bytes(), &[0u8; 40], 0, 0, None)
                .unwrap();
        }
    }
    assert!(
        client.iqget(b"slow").unwrap().is_some(),
        "the slow-to-compute key should survive cheap churn"
    );
    client.quit().unwrap();
    server.shutdown();
}
