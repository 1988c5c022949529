//! The pluggable-policy matrix: the same TCP server booted under each
//! eviction mode, exercised over the wire, with the stats surface checked
//! for the per-shard policy names. Plus the per-shard IQ cost timers under
//! concurrent `iqget`/`iqset` traffic across many shards.

use std::sync::Arc;

use camp_core::Precision;
use camp_kvs::client::Client;
use camp_kvs::server::Server;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

fn start(eviction: EvictionMode, shards: usize) -> Server {
    Server::start_sharded(
        "127.0.0.1:0",
        StoreConfig {
            slab: SlabConfig::small(16 * 1024, 8),
            eviction,
        },
        shards,
    )
    .expect("bind matrix test server")
}

/// Boots the server under every mode the spec layer can build — LRU, CAMP,
/// GDS, GDSF, LFU, LRU-2, 2Q, ARC, GD-Wheel, Pooled-LRU — and runs the
/// same wire-protocol workload with stats invariants against each.
#[test]
fn every_policy_serves_the_text_protocol() {
    for (name, shards) in EvictionMode::all_names()
        .iter()
        .zip([1, 2, 3, 4].iter().cycle())
    {
        let mode: EvictionMode = name.parse().expect("documented name parses");
        let expected_policy = mode.build::<u64>(1).name();
        let server = start(mode, *shards);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        // Storage + retrieval round-trip.
        for i in 0..50u32 {
            let key = format!("{name}-key-{i}");
            assert!(
                client
                    .set(key.as_bytes(), format!("value-{i}").as_bytes(), 7, 0)
                    .unwrap(),
                "{name}: set not STORED"
            );
        }
        let mut hits = 0u32;
        for i in 0..50u32 {
            let key = format!("{name}-key-{i}");
            if let Some(value) = client.get(key.as_bytes()).unwrap() {
                assert_eq!(value.data, format!("value-{i}").into_bytes(), "{name}");
                assert_eq!(value.flags, 7, "{name}");
                hits += 1;
            }
        }
        assert!(hits > 0, "{name}: everything evicted from a roomy cache");

        // Delete + miss.
        let victim = format!("{name}-key-0");
        let existed = client.get(victim.as_bytes()).unwrap().is_some();
        assert_eq!(client.delete(victim.as_bytes()).unwrap(), existed, "{name}");
        assert!(client.get(victim.as_bytes()).unwrap().is_none(), "{name}");

        // The IQ path works under every policy.
        assert!(client.iqget(b"iq-key").unwrap().is_none(), "{name}");
        assert!(
            client
                .iqset(b"iq-key", b"iq-value", 0, 0, Some(1234))
                .unwrap(),
            "{name}"
        );
        assert_eq!(
            client.iqget(b"iq-key").unwrap().expect("resident").data,
            b"iq-value",
            "{name}"
        );

        // Stats invariants: the active policy is reported globally and per
        // shard, and the counters reflect the traffic above.
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("policy"),
            Some(&expected_policy),
            "{name}: wrong policy name in stats"
        );
        assert_eq!(stats.get("shards"), Some(&shards.to_string()), "{name}");
        for shard in 0..*shards {
            assert_eq!(
                stats.get(&format!("shard:{shard}:policy")),
                Some(&expected_policy),
                "{name}: shard {shard} missing its policy line"
            );
        }
        let parse = |k: &str| -> u64 { stats.get(k).map_or(0, |v| v.parse().unwrap()) };
        assert!(parse("cmd_set") >= 51, "{name}: {stats:?}");
        assert!(parse("get_hits") >= u64::from(hits), "{name}: {stats:?}");
        assert!(parse("get_misses") >= 2, "{name}: {stats:?}");
        assert_eq!(
            parse("curr_items"),
            server.len() as u64,
            "{name}: curr_items drifted from the store"
        );

        client.quit().unwrap();
        server.shutdown();
    }
}

/// The focused ≥4-mode matrix from the issue: LRU, CAMP, GDS and 2Q under
/// slab pressure, where the policy actually has to pick victims.
#[test]
fn matrix_modes_survive_pressure_over_tcp() {
    for mode in [
        EvictionMode::Lru,
        EvictionMode::Camp(Precision::Bits(5)),
        EvictionMode::Gds,
        EvictionMode::TwoQ,
    ] {
        let name = mode.to_string();
        let server = Server::start_sharded(
            "127.0.0.1:0",
            StoreConfig {
                slab: SlabConfig::small(4096, 2),
                eviction: mode,
            },
            2,
        )
        .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let value = vec![0x5Au8; 512];
        for i in 0..200u32 {
            let key = format!("pressure-{i}");
            client.set(key.as_bytes(), &value, 0, 0).unwrap();
        }
        let stats = client.stats().unwrap();
        let evictions: u64 = stats.get("evictions").unwrap().parse().unwrap();
        assert!(evictions > 0, "{name}: 100KB into 8KB must evict");
        // The store survived and still serves.
        assert!(client.set(b"after", b"ok", 0, 0).unwrap(), "{name}");
        assert_eq!(
            client.get(b"after").unwrap().expect("resident").data,
            b"ok",
            "{name}"
        );
        client.quit().unwrap();
        server.shutdown();
    }
}

/// Satellite (a)'s acceptance check: concurrent `iqget`/`iqset` cycles over
/// a 4-shard server. With the registry striped per shard this completes
/// quickly and every cost lands; the timestamps recorded by one worker's
/// stripe are never clobbered by traffic on other stripes.
#[test]
fn concurrent_iq_traffic_across_shards() {
    let server = Arc::new(start(EvictionMode::Camp(Precision::Bits(5)), 4));
    let addr = server.local_addr();
    let workers: Vec<_> = (0..8u32)
        .map(|worker| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..100u32 {
                    let key = format!("iq-{worker}-{i}");
                    // Miss registers the timestamp in the key's stripe…
                    assert!(client.iqget(key.as_bytes()).unwrap().is_none());
                    // …and the paired iqset consumes it as the cost.
                    assert!(client
                        .iqset(key.as_bytes(), b"backfilled", 0, 0, None)
                        .unwrap());
                    assert!(client.iqget(key.as_bytes()).unwrap().is_some());
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("iq worker");
    }
    let stats = server.stats();
    assert_eq!(stats.sets, 800);
    assert!(stats.get_hits >= 800);
    Arc::try_unwrap(server)
        .expect("all clones joined")
        .shutdown();
}
