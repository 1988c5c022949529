//! Chaos and lifecycle integration tests: the server under deterministic
//! fault injection with resilient clients, graceful drain semantics,
//! overload rejection, slowloris eviction, and the oversize-value guard —
//! each asserting the matching `conn_rejected` / `faults_injected`
//! counters so the failure telemetry is tested, not just the failures.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use camp_core::Precision;
use camp_kvs::client::{Client, ClientConfig};
use camp_kvs::fault::FaultPlan;
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

fn base_options() -> ServerOptions {
    ServerOptions::new(StoreConfig {
        // Roomy enough that the chaos workload never evicts: store
        // invariants below assume every confirmed set stays resident.
        slab: SlabConfig::small(64 * 1024, 64),
        eviction: EvictionMode::Camp(Precision::Bits(5)),
    })
}

fn start(options: ServerOptions) -> Server {
    Server::start_with("127.0.0.1:0", options).expect("bind test server")
}

fn resilient(retries: u32) -> ClientConfig {
    ClientConfig {
        retry_sets: true,
        ..ClientConfig::resilient(retries)
    }
}

fn stat_table(client: &mut Client) -> BTreeMap<String, String> {
    client.stats_detail().expect("stats detail")
}

fn stat_u64(table: &BTreeMap<String, String>, key: &str) -> u64 {
    table
        .get(key)
        .unwrap_or_else(|| panic!("missing STAT {key} in {table:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("STAT {key} is not a number"))
}

/// The acceptance scenario: a chaos plan drops connections, delays and
/// forces errors, while resilient clients hammer the store from several
/// threads. The run must complete with a bounded client-visible error
/// rate, every confirmed write must read back intact, the injected-fault
/// counters must show the chaos actually fired, and the final drain must
/// be clean.
#[test]
fn chaos_workload_survives_with_bounded_errors_and_clean_drain() {
    let plan: FaultPlan = "drop=0.03,delay=200us@0.1,err=0.03,seed=7"
        .parse()
        .expect("valid chaos spec");
    let server = start(ServerOptions {
        fault_plan: Some(plan),
        ..base_options()
    });
    let addr = server.local_addr();

    const THREADS: u64 = 4;
    const OPS: u64 = 200;
    let failures = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with(addr, resilient(6)).expect("chaos client connects");
                for i in 0..OPS {
                    let key = format!("t{tid}-k{i}");
                    let value = format!("value-{tid}-{i}");
                    // An injected error reply surfaces as Ok(false);
                    // insist on a confirmed store before moving on.
                    let mut stored = false;
                    for _ in 0..10 {
                        if let Ok(true) = client.set(key.as_bytes(), value.as_bytes(), 0, 0) {
                            stored = true;
                            break;
                        }
                    }
                    if !stored {
                        failures.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    match client.get(key.as_bytes()) {
                        Ok(Some(got)) => assert_eq!(
                            got.data,
                            value.as_bytes(),
                            "stored value must read back intact"
                        ),
                        Ok(None) => panic!("{key} was confirmed stored but is gone"),
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let counters = client.counters();
                let _ = client.quit();
                counters
            })
        })
        .collect();
    let mut total_reconnects = 0;
    for handle in handles {
        total_reconnects += handle.join().expect("no worker panicked").reconnects;
    }

    let total_ops = THREADS * OPS * 2;
    let failed = failures.load(Ordering::Relaxed);
    assert!(
        (failed as f64) < (total_ops as f64) * 0.05,
        "error rate too high: {failed}/{total_ops}"
    );
    // With a 3% drop rate over ~1600 commands, the clients must have
    // reconnected; the fault counters must agree the chaos fired.
    assert!(total_reconnects > 0, "drops never forced a reconnect");
    let mut probe = Client::connect_with(addr, resilient(10)).expect("probe connects");
    let detail = stat_table(&mut probe);
    assert!(stat_u64(&detail, "faults_injected:drop") > 0, "{detail:?}");
    assert!(stat_u64(&detail, "faults_injected:error") > 0, "{detail:?}");
    assert!(stat_u64(&detail, "faults_injected:delay") > 0, "{detail:?}");
    let _ = probe.quit();

    // Every client is gone: the drain must complete without severing.
    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain severed connections: {report:?}");
}

/// A connection stuck mid-command (an announced data block that never
/// arrives) cannot drain; the deadline must sever it and say so.
#[test]
fn drain_severs_a_stuck_connection_at_the_deadline() {
    let server = start(base_options());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce 5 bytes, deliver 3, then stall forever.
    stream.write_all(b"set stuck 0 0 5\r\nwor").unwrap();
    // Give the server time to accept and start reading the block.
    std::thread::sleep(Duration::from_millis(100));
    let report = server.shutdown_with_drain(Duration::from_millis(300));
    assert_eq!(report.connections_at_drain, 1, "{report:?}");
    assert_eq!(report.severed, 1, "{report:?}");
    assert_eq!(report.drained, 0, "{report:?}");
    // The severed client observes the connection ending.
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
}

/// A slowloris client trickling bytes without ever completing a command
/// is evicted at the idle deadline with an explicit error, and the
/// eviction lands in the `conn_rejected` counter.
#[test]
fn slowloris_client_is_evicted_at_the_idle_deadline() {
    let server = start(ServerOptions {
        idle_timeout: Duration::from_millis(300),
        ..base_options()
    });
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = stream;
    let mut received = Vec::new();
    // Trickle one byte per 50 ms — always inside the read-timeout tick,
    // never completing a command. Eviction is keyed to the last
    // *completed* command, so the trickle must not save the connection.
    for _ in 0..40 {
        let _ = writer.write_all(b"g");
        let mut buf = [0u8; 256];
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(_) => {} // read timeout: keep trickling
        }
        if received.ends_with(b"\r\n") {
            break;
        }
    }
    // Never early: the deadline is 300 ms after the accept, which
    // followed the connect.
    let evicted_after = connected.elapsed();
    let text = String::from_utf8_lossy(&received);
    assert!(
        text.contains("SERVER_ERROR idle timeout"),
        "expected an explicit idle-timeout error, got: {text:?}"
    );
    assert!(
        evicted_after >= Duration::from_millis(300),
        "evicted {evicted_after:?} after connect, before the 300 ms deadline"
    );
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let detail = stat_table(&mut probe);
    assert_eq!(stat_u64(&detail, "conn_rejected:idle_timeout"), 1);
    let _ = probe.quit();
    server.shutdown();
}

/// A connection that completes a command every 100 ms outlives a 300 ms
/// idle timeout many times over: each idle timer that fires finds a later
/// completed command and re-arms at the true deadline instead of evicting.
#[test]
fn a_connection_that_keeps_completing_commands_is_never_idle_evicted() {
    let server = start(ServerOptions {
        idle_timeout: Duration::from_millis(300),
        ..base_options()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(1_500) {
        client.version().expect("answered while active");
        std::thread::sleep(Duration::from_millis(100));
    }
    client.version().expect("still answered after 1.5 s");
    let detail = stat_table(&mut client);
    assert_eq!(stat_u64(&detail, "conn_rejected:idle_timeout"), 0);
    // The idle timer fired, was re-armed, and fired again.
    let fires: u64 = detail
        .iter()
        .filter(|(key, _)| key.starts_with("reactor:worker"))
        .flat_map(|(_, row)| row.split(' '))
        .filter_map(|field| field.strip_prefix("timer_fires="))
        .map(|n| n.parse::<u64>().expect("timer_fires is a number"))
        .sum();
    assert!(fires >= 2, "{fires} timer fires in {detail:?}");
    let _ = client.quit();
    server.shutdown();
}

/// A 100-connection burst against an 8-connection cap: every connection
/// past the cap gets an explicit `SERVER_ERROR` (never a silent stall)
/// and the rejection counter matches exactly. Two reactor workers, each
/// with its own SO_REUSEPORT listener: the cap is one shared counter, so
/// the 8/92 split must hold exactly no matter which listener the kernel
/// routes each connection to.
#[test]
fn connection_burst_past_max_conns_is_rejected_explicitly() {
    let server = start(ServerOptions {
        max_conns: 8,
        workers: 2,
        ..base_options()
    });
    let addr = server.local_addr();
    let mut streams = Vec::new();
    for _ in 0..100 {
        let mut stream = TcpStream::connect(addr).expect("TCP connect always succeeds");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"version\r\n").unwrap();
        streams.push(stream);
    }
    let mut accepted = 0;
    let mut rejected = 0;
    let mut held = Vec::new();
    for mut stream in streams {
        let mut response = Vec::new();
        let mut buf = [0u8; 256];
        // One line is enough to classify; rejected connections also close.
        while !response.contains(&b'\n') {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(&buf[..n]),
                Err(err) => panic!("burst connection stalled: {err}"),
            }
        }
        let text = String::from_utf8_lossy(&response);
        if text.starts_with("VERSION") {
            accepted += 1;
            held.push(stream); // keep accepted connections open
        } else {
            assert!(
                text.starts_with("SERVER_ERROR too many connections"),
                "unexpected reply: {text:?}"
            );
            rejected += 1;
        }
    }
    assert_eq!(accepted, 8);
    assert_eq!(rejected, 92);
    // The counter agrees, queried over one of the live connections.
    let mut conn = held.pop().unwrap();
    conn.write_all(b"stats detail\r\n").unwrap();
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    while !response.ends_with(b"END\r\n") {
        let n = conn.read(&mut buf).unwrap();
        assert!(n > 0, "stats detail truncated");
        response.extend_from_slice(&buf[..n]);
    }
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.contains("STAT conn_rejected:max_conns 92"),
        "missing rejection counter in:\n{text}"
    );
    drop(held);
    drop(conn);
    server.shutdown();
}

/// Once a drain begins, the per-worker listeners close before anything
/// else happens: a connection arriving mid-drain is either refused
/// outright or, if it sneaks into the kernel backlog, never served.
#[test]
fn no_connection_is_accepted_after_the_drain_begins() {
    let server = start(ServerOptions {
        workers: 2,
        ..base_options()
    });
    let addr = server.local_addr();
    // A stuck connection (announced data block, missing bytes) holds the
    // drain open until the deadline severs it.
    let mut stuck = TcpStream::connect(addr).unwrap();
    stuck.write_all(b"set stuck 0 0 5\r\nwor").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let handle = std::thread::spawn(move || server.shutdown_with_drain(Duration::from_millis(600)));
    // Well inside the drain window: every worker has observed the drain
    // flag and closed its listener.
    std::thread::sleep(Duration::from_millis(200));
    match TcpStream::connect(addr) {
        // Refused: the listening sockets are gone — the strong outcome.
        Err(_) => {}
        // A race with lingering kernel state can still complete the TCP
        // handshake; the server must then never speak to the socket.
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = late.write_all(b"version\r\n");
            let mut response = Vec::new();
            let mut buf = [0u8; 256];
            loop {
                match late.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => response.extend_from_slice(&buf[..n]),
                    Err(_) => break, // timeout: nothing ever arrived
                }
            }
            let text = String::from_utf8_lossy(&response);
            assert!(
                !text.contains("VERSION"),
                "a connection was served after the drain began: {text:?}"
            );
        }
    }
    let report = handle.join().expect("drain thread");
    assert_eq!(report.severed, 1, "{report:?}");
    // The severed client observes the connection ending.
    let mut buf = [0u8; 16];
    assert_eq!(stuck.read(&mut buf).unwrap_or(0), 0);
}

/// A `set` announcing a data block over the value cap is refused with an
/// explicit `SERVER_ERROR` *before* any data byte is read, the connection
/// closes (the refused block would desync the stream), and the rejection
/// is counted.
#[test]
fn oversize_set_gets_explicit_error_and_closes_the_connection() {
    let server = start(ServerOptions {
        max_value_len: 4096,
        ..base_options()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The header alone must trigger the refusal — no data follows.
    stream.write_all(b"set big 0 0 5000\r\n").unwrap();
    let mut response = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break, // the server must close after the error
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(err) => panic!("oversize set stalled: {err}"),
        }
    }
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("SERVER_ERROR object too large for cache"),
        "unexpected reply: {text:?}"
    );

    // A value inside the cap still stores, and the counter recorded the
    // rejection.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.set(b"ok", &[b'x'; 1024], 0, 0).unwrap());
    let detail = stat_table(&mut client);
    assert_eq!(stat_u64(&detail, "conn_rejected:value_too_large"), 1);
    let _ = client.quit();
    server.shutdown();
}

/// The resilient client heals around a high drop rate: every command
/// eventually succeeds and the reconnect counter shows the healing
/// happened.
#[test]
fn resilient_client_reconnects_through_drops() {
    let plan: FaultPlan = "drop=0.3,seed=11".parse().unwrap();
    let server = start(ServerOptions {
        fault_plan: Some(plan),
        ..base_options()
    });
    let mut client =
        Client::connect_with(server.local_addr(), resilient(8)).expect("client connects");
    for i in 0..50u32 {
        let key = format!("drop-k{i}");
        let value = b"payload";
        let mut stored = false;
        for _ in 0..10 {
            if client.set(key.as_bytes(), value, 0, 0).unwrap_or(false) {
                stored = true;
                break;
            }
        }
        assert!(stored, "set {key} never succeeded");
        let got = client.get(key.as_bytes()).expect("get heals via retries");
        assert_eq!(got.expect("resident").data, value);
    }
    let counters = client.counters();
    assert!(counters.reconnects > 0, "{counters:?}");
    assert!(counters.retries > 0, "{counters:?}");
    let _ = client.quit();
    server.shutdown();
}
