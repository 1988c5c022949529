//! Scale coverage for the epoll reactor.
//!
//! The headline test holds ten thousand concurrent connections against a
//! two-worker reactor by driving the client side from a separate
//! `camp-loadgen` process (each side needs one fd per connection, and the
//! two processes split the per-process RLIMIT_NOFILE budget). The test is
//! gated on that rlimit and skips, loudly, where the limit is too low.
//!
//! The other test pins down a behavior the big soak would mask: an
//! explicit multi-worker reactor spreads connections without mixing up
//! replies.

use std::time::Duration;

use camp_core::Precision;
use camp_kvs::client::{Client, ClientConfig, Reply};
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

const SOAK_CONNS: usize = 10_000;

fn base_options() -> ServerOptions {
    ServerOptions::new(StoreConfig {
        slab: SlabConfig::small(64 * 1024, 64),
        eviction: EvictionMode::Camp(Precision::Bits(5)),
    })
}

fn start(options: ServerOptions) -> Server {
    Server::start_with("127.0.0.1:0", options).expect("bind test server")
}

/// The soft RLIMIT_NOFILE for this process, read from `/proc/self/limits`
/// (no syscall shim needed). `None` off Linux or if the file is absent —
/// callers treat that as "cannot verify, skip".
fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    // "Max open files            20000                20000                files"
    line.split_whitespace().nth(3)?.parse().ok()
}

/// A client that gives up on a reply after five seconds.
fn connect(addr: std::net::SocketAddr) -> Client {
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    Client::connect_with(addr, config).expect("connect")
}

/// Ten thousand concurrent connections through the reactor: a separate
/// `camp-loadgen` process multiplexes 10k connections over 8 threads
/// (`--threads`), the run completes with at most a sliver of dial-storm
/// casualties, and the server accounts for every accept. Skips where
/// RLIMIT_NOFILE cannot hold one fd per connection plus headroom in each
/// process. Each of the two workers accepts from its own SO_REUSEPORT
/// listener.
#[test]
fn ten_thousand_connection_soak_over_the_reactor() {
    let needed = SOAK_CONNS as u64 + 512;
    match max_open_files() {
        Some(limit) if limit >= needed => {}
        Some(limit) => {
            eprintln!(
                "skipping 10k-connection soak: RLIMIT_NOFILE soft limit {limit} < {needed} needed"
            );
            return;
        }
        None => {
            eprintln!("skipping 10k-connection soak: cannot read /proc/self/limits");
            return;
        }
    }

    let server = start(ServerOptions {
        max_conns: 0, // unlimited: the soak itself is the cap test's opposite
        workers: 2,
        ..base_options()
    });
    let addr = server.local_addr();

    let out = std::env::temp_dir().join(format!("camp-soak-{}.json", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_camp-loadgen"))
        .args([
            "--addr",
            &addr.to_string(),
            "--connections",
            &SOAK_CONNS.to_string(),
            "--threads",
            "8",
            "--pipeline",
            "4",
            "--keys",
            "500",
            "--value-bytes",
            "64",
            "--duration-secs",
            "5",
            "--warmup-secs",
            "2",
            "--retries",
            "3",
            "--out",
            out.to_str().expect("temp path is utf-8"),
        ])
        .status()
        .expect("spawn camp-loadgen");
    assert!(status.success(), "camp-loadgen failed: {status}");

    let report = std::fs::read_to_string(&out).expect("loadgen report");
    let _ = std::fs::remove_file(&out);
    // The report is this repo's own fixed JSON shape; substring checks are
    // enough to pin the soak's health without a JSON parser.
    assert!(
        report.contains("\"connections\": 10000"),
        "report lost the connection count:\n{report}"
    );
    let field = |name: &str| -> u64 {
        report
            .split(&format!("\"{name}\": "))
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("report missing {name}:\n{report}"))
    };
    let total_ops = field("total_ops");
    let errors = field("errors");
    assert!(total_ops > 0, "soak completed zero ops:\n{report}");
    // A dial storm of 10k SYNs against a 128-deep accept backlog on one
    // core loses a few handshakes to kernel retransmit backoff; what the
    // reactor owes is that essentially everything that connects is
    // served. Bound the casualty rate instead of demanding zero.
    assert!(
        (errors as f64) < (total_ops as f64) * 0.005,
        "soak error rate too high: {errors} errors / {total_ops} ops:\n{report}"
    );

    // Every connection the soak held was accepted and accounted: 10k
    // workload connections, the prefill connection, the stats probe
    // itself (counted at accept, before the snapshot renders), plus the
    // storm re-dials the loadgen itself reports (one per retried batch,
    // one more per batch that exhausted its retries) and a fixed slack.
    let opened: u64 = connect(addr).stats_detail().expect("stats detail")["connections_opened"]
        .parse()
        .expect("numeric stat");
    let floor = SOAK_CONNS as u64 + 2;
    let ceiling = floor + 200 + field("batch_retries") + errors / 4;
    assert!(
        (floor..ceiling).contains(&opened),
        "connections_opened {opened} outside [{floor}, {ceiling})"
    );

    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain not clean: {report:?}");
}

/// An explicit two-worker reactor pins each connection to the worker
/// whose listener accepted it; concurrent conversations on many
/// connections never cross streams, and all of them drain cleanly.
#[test]
fn multi_worker_reactor_keeps_conversations_isolated() {
    let server = start(ServerOptions {
        workers: 2,
        ..base_options()
    });
    let addr = server.local_addr();

    let mut clients: Vec<Client> = (0..16).map(|_| connect(addr)).collect();

    // Interleave: send every connection's set first, then collect all the
    // replies, then the same for gets — forcing both workers to hold many
    // in-flight conversations at once.
    for (i, client) in clients.iter_mut().enumerate() {
        client.push_set(
            format!("key-{i}").as_bytes(),
            format!("value-{i}").as_bytes(),
            0,
            0,
        );
        client.send().expect("send set");
    }
    for client in &mut clients {
        client
            .collect(|_, reply| {
                assert_eq!(reply, Reply::Line(b"STORED"));
                Ok(())
            })
            .expect("set reply");
    }
    for (i, client) in clients.iter_mut().enumerate() {
        client.push_get(format!("key-{i}").as_bytes());
        client.send().expect("send get");
    }
    for (i, client) in clients.iter_mut().enumerate() {
        let value = format!("value-{i}");
        client
            .collect(|_, reply| {
                let hit = Reply::Hit {
                    data: value.as_bytes(),
                    flags: 0,
                };
                assert_eq!(reply, hit);
                Ok(())
            })
            .expect("get reply");
    }
    drop(clients);

    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain not clean: {report:?}");
}
