//! End-to-end tests: real TCP server, real client, real slab memory.

use camp_core::Precision;
use camp_kvs::client::Client;
use camp_kvs::replay::replay_trace;
use camp_kvs::server::Server;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};
use camp_workload::BgConfig;

fn start(eviction: EvictionMode, slab_size: u32, slabs: u32) -> Server {
    Server::start(
        "127.0.0.1:0",
        StoreConfig {
            slab: SlabConfig::small(slab_size, slabs),
            eviction,
        },
    )
    .expect("bind server")
}

#[test]
fn set_get_delete_over_the_wire() {
    let server = start(EvictionMode::Camp(Precision::Bits(5)), 16 * 1024, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(client.get(b"missing").unwrap().is_none());
    assert!(client.set(b"alpha", b"value-one", 42, 0).unwrap());
    let value = client.get(b"alpha").unwrap().expect("stored");
    assert_eq!(value.data, b"value-one");
    assert_eq!(value.flags, 42);

    assert!(client.delete(b"alpha").unwrap());
    assert!(!client.delete(b"alpha").unwrap());
    assert!(client.get(b"alpha").unwrap().is_none());

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn iq_cycle_records_cost_via_timestamps() {
    let server = start(EvictionMode::Camp(Precision::Bits(5)), 16 * 1024, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Miss arms the timer.
    assert!(client.iqget(b"expensive").unwrap().is_none());
    std::thread::sleep(std::time::Duration::from_millis(20));
    // The set computes cost = elapsed micros (no hint).
    assert!(client.iqset(b"expensive", b"v", 0, 0, None).unwrap());
    assert!(client.iqget(b"expensive").unwrap().is_some());

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn stats_reflect_activity() {
    let server = start(EvictionMode::Lru, 16 * 1024, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set(b"a", b"1", 0, 0).unwrap();
    client.set(b"b", b"2", 0, 0).unwrap();
    client.get(b"a").unwrap();
    client.get(b"nope").unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats["curr_items"], "2");
    assert_eq!(stats["cmd_set"], "2");
    assert_eq!(stats["get_hits"], "1");
    assert_eq!(stats["get_misses"], "1");

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn multiple_concurrent_clients() {
    let server = start(EvictionMode::Camp(Precision::Bits(5)), 64 * 1024, 8);
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|worker: u32| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..50u32 {
                    let key = format!("w{worker}-k{i}");
                    assert!(client
                        .set(key.as_bytes(), format!("value-{i}").as_bytes(), 0, 0)
                        .unwrap());
                    let got = client.get(key.as_bytes()).unwrap().unwrap();
                    assert_eq!(got.data, format!("value-{i}").as_bytes());
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(server.len(), 200);
    server.shutdown();
}

#[test]
fn camp_server_beats_lru_server_on_cost_miss() {
    // A scaled-down Figure 9a: replay the same three-tier-cost trace
    // against an LRU server and a CAMP server with identical memory.
    let trace = BgConfig::paper_scaled(400, 15_000, 77).generate();

    let run = |mode: EvictionMode| {
        let server = start(mode, 64 * 1024, 16);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let report = replay_trace(&mut client, &trace).unwrap();
        client.quit().unwrap();
        server.shutdown();
        report.metrics
    };

    let lru = run(EvictionMode::Lru);
    let camp = run(EvictionMode::Camp(Precision::Bits(5)));

    assert!(lru.requests == trace.len() && camp.requests == trace.len());
    assert!(camp.misses > 0, "cache must be under pressure for the test");
    assert!(
        camp.cost_miss_ratio() <= lru.cost_miss_ratio() + 0.02,
        "camp {:.4} should not lose to lru {:.4}",
        camp.cost_miss_ratio(),
        lru.cost_miss_ratio()
    );
    assert!(
        camp.cost_miss_ratio() < lru.cost_miss_ratio() * 0.9,
        "camp {:.4} should clearly beat lru {:.4} on three-tier costs",
        camp.cost_miss_ratio(),
        lru.cost_miss_ratio()
    );
}

#[test]
fn server_survives_value_too_large() {
    let server = start(EvictionMode::Lru, 4096, 2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Larger than a slab: rejected but the connection stays healthy.
    assert!(!client.set(b"big", &vec![0u8; 8192], 0, 0).unwrap());
    assert!(client.set(b"ok", b"fine", 0, 0).unwrap());
    assert_eq!(client.get(b"ok").unwrap().unwrap().data, b"fine");
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn sharded_server_handles_concurrent_clients() {
    let server = Server::start_sharded(
        "127.0.0.1:0",
        StoreConfig {
            slab: SlabConfig::small(64 * 1024, 16),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        },
        4,
    )
    .expect("bind sharded server");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|worker: u32| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..100u32 {
                    let key = format!("w{worker}-k{i}");
                    assert!(client
                        .set(
                            key.as_bytes(),
                            format!("value-{worker}-{i}").as_bytes(),
                            0,
                            0
                        )
                        .unwrap());
                    let got = client.get(key.as_bytes()).unwrap().unwrap();
                    assert_eq!(got.data, format!("value-{worker}-{i}").as_bytes());
                    if i % 7 == 0 {
                        assert!(client.delete(key.as_bytes()).unwrap());
                    }
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // 8 workers x 100 keys, 15 deleted each (i % 7 == 0 for i in 0..100).
    assert_eq!(server.len(), 8 * (100 - 15));
    server.shutdown();
}

#[test]
fn sharded_and_unsharded_servers_agree_on_replay_quality() {
    let trace = BgConfig::paper_scaled(300, 8_000, 55).generate();
    // Each shard needs enough slabs to populate its size classes — too few
    // slabs per shard fragments the memory and thrashes.
    let run = |shards: usize| {
        let server = Server::start_sharded(
            "127.0.0.1:0",
            StoreConfig {
                slab: SlabConfig::small(8 * 1024, 64),
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            },
            shards,
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let report = replay_trace(&mut client, &trace).unwrap();
        client.quit().unwrap();
        server.shutdown();
        report.metrics.cost_miss_ratio()
    };
    let unsharded = run(1);
    let sharded = run(4);
    // Hash partitioning adds noise but must not change the outcome class.
    assert!(
        (sharded - unsharded).abs() < 0.15,
        "sharded {sharded:.4} vs unsharded {unsharded:.4}"
    );
}

#[test]
fn extended_commands_over_the_wire() {
    let server = start(EvictionMode::Camp(Precision::Bits(5)), 16 * 1024, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // add / replace semantics.
    assert!(client.add(b"k", b"first", 0, 0).unwrap());
    assert!(!client.add(b"k", b"second", 0, 0).unwrap());
    assert_eq!(client.get(b"k").unwrap().unwrap().data, b"first");
    assert!(client.replace(b"k", b"third", 0, 0).unwrap());
    assert!(!client.replace(b"absent", b"x", 0, 0).unwrap());
    assert_eq!(client.get(b"k").unwrap().unwrap().data, b"third");

    // incr / decr.
    client.set(b"counter", b"41", 0, 0).unwrap();
    assert_eq!(client.incr(b"counter", 1).unwrap(), Some(42));
    assert_eq!(client.decr(b"counter", 100).unwrap(), Some(0));
    assert_eq!(client.incr(b"nope", 1).unwrap(), None);
    assert_eq!(client.incr(b"k", 1).unwrap(), None, "non-numeric value");

    // touch.
    client.set(b"ttl", b"v", 0, 3600).unwrap();
    assert!(client.touch(b"ttl", 7200).unwrap());
    assert!(!client.touch(b"missing", 60).unwrap());

    // version and flush_all.
    assert!(client.version().unwrap().starts_with("VERSION camp-kvs/"));
    client.flush_all().unwrap();
    assert!(client.get(b"k").unwrap().is_none());
    assert_eq!(server.len(), 0);

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn malformed_data_block_closes_only_that_connection() {
    use std::io::{Read, Write};
    let server = start(EvictionMode::Lru, 16 * 1024, 8);
    let addr = server.local_addr();

    // A set whose data block is not CRLF-terminated: the connection is
    // dropped (protocol desync), but the server survives.
    {
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        bad.write_all(b"set k 0 0 5\r\nhelloXX").unwrap();
        bad.shutdown(std::net::Shutdown::Write).ok();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
    }

    // A fresh client works fine afterwards.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.set(b"alive", b"yes", 0, 0).unwrap());
    assert_eq!(client.get(b"alive").unwrap().unwrap().data, b"yes");
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn pipelined_segment_is_answered_in_order_and_fully_timed() {
    use std::io::{BufRead, BufReader, Read, Write};
    let server = start(EvictionMode::Camp(Precision::Bits(5)), 16 * 1024, 8);
    let addr = server.local_addr();

    // One TCP segment carrying the whole mixed pipeline: the server must
    // coalesce flushes while commands remain buffered, yet answer every
    // command, in order, in one concatenated response.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                b"set a 0 0 3\r\nAAA\r\nset b 1 0 3\r\nBBB\r\nget a b\r\nget missing\r\ndelete a\r\nget a\r\nquit\r\n",
            )
            .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        assert_eq!(
            response,
            b"STORED\r\nSTORED\r\nVALUE a 0 3\r\nAAA\r\nVALUE b 1 3\r\nBBB\r\nEND\r\nEND\r\nDELETED\r\nEND\r\n"
        );
    }

    // A pipeline ending in a bare empty line must still flush (the
    // coalescing rule may not hold a finished response hostage).
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"get b\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "VALUE b 1 3\r\n");
        let mut rest = [0u8; 5 + 5]; // "BBB\r\n" + "END\r\n"
        reader.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"BBB\r\nEND\r\n");
        stream.write_all(b"quit\r\n").unwrap();
    }

    // Every pipelined command was individually timed and its wire bytes
    // accounted: 4 gets across both segments (multi-key counts once),
    // 2 sets, 1 delete.
    let mut client = Client::connect(addr).unwrap();
    let detail = client.stats_detail().unwrap();
    assert_eq!(detail["latency:get:count"], "4");
    assert_eq!(detail["latency:set:count"], "2");
    assert_eq!(detail["latency:delete:count"], "1");
    assert!(detail["bytes_read:get"].parse::<u64>().unwrap() > 0);
    // Sets account for header + data block: two sets of "set x f 0 3\r\nXXX\r\n".
    assert_eq!(detail["bytes_read:set"], "36");
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn huge_announced_length_is_survivable() {
    use std::io::{Read, Write};
    let server = start(EvictionMode::Lru, 16 * 1024, 8);
    let addr = server.local_addr();
    {
        // Announce 10 bytes but send fewer and close: read_exact fails and
        // the connection ends without storing anything.
        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        bad.write_all(b"set partial 0 0 10\r\nabc").unwrap();
        bad.shutdown(std::net::Shutdown::Write).ok();
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
    }
    let mut client = Client::connect(addr).unwrap();
    assert!(client.get(b"partial").unwrap().is_none());
    client.quit().unwrap();
    server.shutdown();
}

/// `incr` with persistence on, through journal compactions: the journal
/// append that crosses a segment boundary snapshots the store, which locks
/// every shard — so `execute` must not still hold the key's shard lock
/// when it appends. Runs on a side thread so that a regression (a hung
/// worker that also wedges shutdown) fails the test instead of hanging it.
#[test]
fn incr_journals_through_compactions_without_deadlock() {
    use camp_kvs::persist::PersistOptions;
    use camp_kvs::server::ServerOptions;

    let dir = std::env::temp_dir().join(format!("camp-incr-compact-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let data_dir = dir.clone();
    let options = move || {
        let mut options = ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(16 * 1024, 8),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        options.persist = Some(PersistOptions {
            segment_bytes: 4096,
            keep_segments: 1,
            ..PersistOptions::new(&data_dir)
        });
        options
    };

    let (done, finished) = std::sync::mpsc::channel();
    let body = move || {
        let server = Server::start_with("127.0.0.1:0", options()).expect("boot");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert!(client.set(b"n", b"0", 7, 0).expect("set"));
        for expected in 1..=400 {
            assert_eq!(client.incr(b"n", 1).expect("incr reply"), Some(expected));
        }
        assert_eq!(client.decr(b"n", 1).expect("decr reply"), Some(399));
        let detail = client.stats_detail().expect("stats detail");
        let snapshots: u64 = detail["persist:snapshots"].parse().expect("numeric");
        assert!(snapshots > 0, "no compaction ran: {detail:?}");
        assert_eq!(detail["persist:errors"], "0");
        client.quit().expect("quit");
        server.shutdown();
        // The journaled rewrites kept the value and the flags.
        let server = Server::start_with("127.0.0.1:0", options()).expect("warm boot");
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        let value = client.get(b"n").expect("get").expect("counter recovered");
        assert_eq!(value.data, b"399");
        assert_eq!(value.flags, 7);
        client.quit().expect("quit");
        server.shutdown();
        done.send(()).expect("report");
    };
    let worker = std::thread::spawn(body);
    match finished.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(()) => worker.join().expect("body finished"),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("incr through a compaction hung (shard lock held across the journal append?)")
        }
        // The body panicked before reporting: surface its message.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("body panicked"))
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The flags deleted with the second and third engines and the deprecated
/// policy spellings now fail like any unknown flag: usage on stderr, exit 1,
/// no daemon left behind. (The engine flags are spelled in two halves so a
/// repo-wide grep for the dead names stays empty.)
#[test]
fn removed_flags_fail_like_any_unknown_flag() {
    let removed: [&[&str]; 4] = [
        &[concat!("--legacy", "-threads")],
        &[concat!("--single", "-listener")],
        &["--eviction", "lru"],
        &["--precision", "5"],
    ];
    for args in removed {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_camp-kvsd"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn camp-kvsd");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("unexpected argument `{}`", args[0])),
            "{args:?}: {stderr}"
        );
        let (_, usage) = stderr
            .split_once("usage: camp-kvsd")
            .unwrap_or_else(|| panic!("{args:?}: no usage in {stderr}"));
        assert!(!usage.contains(args[0]), "usage still lists {}", args[0]);
    }
}

/// A warm restart replays the journal into the store, and replay is not
/// traffic: it is reported as `persist:recovered` alone. The rebooted
/// server's command and eviction counters start from zero, and its
/// eviction ring holds no replayed decision, though the replay evicted.
#[test]
fn a_warm_restart_does_not_report_replay_as_traffic() {
    use camp_kvs::persist::PersistOptions;
    use camp_kvs::server::ServerOptions;

    const SETS: usize = 3_000;
    let dir = std::env::temp_dir().join(format!("camp-warm-counters-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = || {
        let mut options = ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(64 * 1024, 16),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        options.persist = Some(PersistOptions::new(&dir));
        options
    };
    let server = Server::start_with("127.0.0.1:0", options()).expect("boot");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..SETS {
        let key = format!("key-{i}");
        let cost = Some(1 + (i as u64 % 5) * 100);
        assert!(client
            .iqset(key.as_bytes(), &[b'v'; 700], 0, 0, cost)
            .expect("iqset"));
    }
    let before = client.stats_detail().expect("stats detail");
    assert_eq!(before["cmd_set"], SETS.to_string());
    assert_ne!(before["evictions"], "0", "the load must evict");
    client.quit().expect("quit");
    server.shutdown();

    let server = Server::start_with("127.0.0.1:0", options()).expect("warm boot");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let after = client.stats_detail().expect("stats detail");
    let recovered: usize = after["persist:recovered"].parse().expect("numeric");
    assert!(recovered >= SETS, "{after:?}");
    assert_eq!(after["curr_items"], before["curr_items"], "{after:?}");
    for counter in ["cmd_set", "evictions", "trace:admits", "trace:evictions"] {
        assert_eq!(after[counter], "0", "{counter} counts the replay");
    }
    let trace = client.trace().expect("trace");
    assert!(
        !trace.iter().any(|line| line.starts_with("EVICTION")),
        "replayed decisions in the ring: {trace:?}"
    );
    client.quit().expect("quit");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
