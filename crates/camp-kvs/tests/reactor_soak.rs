//! Scale coverage for the epoll reactor.
//!
//! The headline test holds ten thousand concurrent connections against a
//! two-worker reactor by driving the client side from a separate
//! `camp-loadgen` process (each side needs one fd per connection, and the
//! two processes split the per-process RLIMIT_NOFILE budget). The test is
//! gated on that rlimit and skips, loudly, where the limit is too low.
//!
//! The other tests pin down behaviors the big soak would mask: an
//! explicit multi-worker reactor spreads connections without mixing up
//! replies, and a client that stops reading is paused, then served in
//! full.

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

/// The worker counter `field` of `reactor:worker0`, read from another
/// connection's `stats detail`.
fn worker0(addr: std::net::SocketAddr, field: &str) -> u64 {
    let detail = connect(addr).stats_detail().expect("stats detail");
    let row = &detail["reactor:worker0"];
    row.split_whitespace()
        .find_map(|pair| pair.strip_prefix(&format!("{field}=")))
        .unwrap_or_else(|| panic!("no {field} in {row}"))
        .parse()
        .expect("numeric field")
}

/// A client that pipelines gets of a 64 KiB value and reads nothing
/// queues far more than the 1 MiB write high-water mark of replies: the
/// worker stops reading it (`write_pauses`) and keeps serving others.
/// Once the client reads, every reply arrives in order and byte-exact,
/// and the connection still answers.
#[test]
fn a_client_that_stops_reading_is_paused_then_served_in_full() {
    // 256 replies of 64 KiB: 16 MiB, more than loopback's socket buffers
    // hold on top of the high-water mark.
    const GETS: usize = 256;
    let server = start(ServerOptions {
        workers: 1,
        ..ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(1 << 20, 8),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        })
    });
    let addr = server.local_addr();
    let value: Vec<u8> = (0..64 * 1024).map(|i| b'a' + (i % 26) as u8).collect();
    let mut client = connect(addr);
    assert!(client.set(b"big", &value, 7, 0).expect("set"));
    let pauses_before = worker0(addr, "write_pauses");

    for _ in 0..GETS {
        client.push_get(b"big");
    }
    client.send().expect("send the gets");
    let mut paused = false;
    for _ in 0..500 {
        if worker0(addr, "write_pauses") > pauses_before {
            paused = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(paused, "the unread replies never paused the connection");

    let mut replies = 0;
    client
        .collect(|i, reply| {
            let hit = Reply::Hit {
                data: &value,
                flags: 7,
            };
            assert_eq!(reply, hit, "reply {i}");
            replies += 1;
            Ok(())
        })
        .expect("read every reply");
    assert_eq!(replies, GETS);
    let version = client.version().expect("version after the backlog");
    assert!(version.starts_with("VERSION"), "{version:?}");
    drop(client);

    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain not clean: {report:?}");
}

/// A `camp-kvsd` child process serving on an ephemeral port, and the
/// thread that drains its log.
struct Daemon {
    child: std::process::Child,
    addr: std::net::SocketAddr,
    log: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The daemon is gone, so its log has ended.
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

impl Daemon {
    /// Boots the daemon with `args` and waits for the address its
    /// `camp_kvsd_ready` banner names.
    fn spawn(args: &[&str]) -> Daemon {
        use std::io::BufRead;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_camp-kvsd"))
            .args(["--listen", "127.0.0.1:0", "--log-level", "info"])
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn camp-kvsd");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let addr = lines
            .by_ref()
            .map_while(Result::ok)
            .find(|line| line.contains("event=camp_kvsd_ready"))
            .and_then(|line| {
                line.split_whitespace()
                    .find_map(|token| token.strip_prefix("addr="))?
                    .parse()
                    .ok()
            });
        // Keep draining the log so the daemon never blocks on the pipe.
        let log = Some(std::thread::spawn(move || lines.for_each(drop)));
        Daemon {
            child,
            addr: addr.expect("camp-kvsd exited without a ready banner"),
            log,
        }
    }

    /// The daemon's resident set size in bytes, from `/proc/<pid>/status`.
    fn vm_rss(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read the daemon's /proc status");
        let kib: u64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmRSS:"))
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .expect("VmRSS line");
        kib * 1024
    }
}

/// Two thousand `get`s of a 64 KiB value pipelined in one write, with
/// nothing read: the server takes commands only until its unsent output
/// passes the 1 MiB high-water mark, so it grows by well under the 128 MiB
/// the gets ask for. Once the client reads, the rest are answered, every
/// reply in order and byte-exact. The server is a daemon of its own, so
/// the other tests of this binary, running in parallel threads, cannot
/// move the memory measured; the test skips where `idle_memory.rs` does.
#[test]
fn an_unread_pipeline_queues_a_bounded_backlog() {
    const GETS: usize = 2_000;
    const GROWTH_LIMIT: u64 = 16 << 20;
    let needed = 8_512;
    match max_open_files() {
        Some(limit) if limit >= needed => {}
        Some(limit) => {
            eprintln!("skipping backlog test: RLIMIT_NOFILE soft limit {limit} < {needed}");
            return;
        }
        None => {
            eprintln!("skipping backlog test: cannot read /proc/self/limits");
            return;
        }
    }
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let value: Vec<u8> = (0..64 * 1024).map(|i| b'a' + (i % 26) as u8).collect();
    let mut client = connect(daemon.addr);
    assert!(client.set(b"big", &value, 7, 0).expect("set"));
    let warm = client.get(b"big").expect("get").map(|hit| hit.data);
    assert_eq!(warm.as_deref(), Some(&value[..]));
    let before = daemon.vm_rss();
    let pauses_before = worker0(daemon.addr, "write_pauses");

    for _ in 0..GETS {
        client.push_get(b"big");
    }
    client.send().expect("send the gets");
    let mut paused = false;
    for _ in 0..500 {
        if worker0(daemon.addr, "write_pauses") > pauses_before {
            paused = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(paused, "the unread replies never paused the connection");
    let grown = daemon.vm_rss().saturating_sub(before);
    eprintln!("{GETS} unread gets grew the server by {} KiB", grown / 1024);
    assert!(
        grown < GROWTH_LIMIT,
        "{GETS} unread gets grew the server by {grown} bytes"
    );

    let mut replies = 0;
    client
        .collect(|i, reply| {
            let hit = Reply::Hit {
                data: &value,
                flags: 7,
            };
            assert_eq!(reply, hit, "reply {i}");
            replies += 1;
            Ok(())
        })
        .expect("read every reply");
    assert_eq!(replies, GETS);
    let version = client.version().expect("version after the backlog");
    assert!(version.starts_with("VERSION"), "{version:?}");
}

/// A backlog behind the ack barrier: under a data dir, a pipeline that
/// interleaves sets with gets of a 64 KiB value runs past the high-water
/// mark again and again, each stretch of it parking for its commit before
/// its replies leave. Read as it arrives, every reply comes back, in
/// order.
#[test]
fn a_backlog_resumes_through_the_commit_barrier() {
    const ROUNDS: usize = 300;
    let dir = std::env::temp_dir().join(format!("camp-soak-backlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start(ServerOptions {
        workers: 1,
        persist: Some(camp_kvs::persist::PersistOptions {
            fsync: camp_kvs::persist::FsyncMode::Always,
            ..camp_kvs::persist::PersistOptions::new(&dir)
        }),
        ..ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(1 << 20, 16),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        })
    });
    let value: Vec<u8> = (0..64 * 1024).map(|i| b'a' + (i % 26) as u8).collect();
    let mut client = connect(server.local_addr());
    assert!(client.set(b"big", &value, 7, 0).expect("set"));

    for i in 0..ROUNDS {
        client.push_get(b"big");
        client.push_set(format!("k{i}").as_bytes(), b"v", 0, 0);
    }
    client.send().expect("send the pipeline");
    let mut replies = 0;
    client
        .collect(|i, reply| {
            if i % 2 == 0 {
                let hit = Reply::Hit {
                    data: &value,
                    flags: 7,
                };
                assert_eq!(reply, hit, "reply {i}");
            } else {
                assert_eq!(reply, Reply::Line(b"STORED"), "reply {i}");
            }
            replies += 1;
            Ok(())
        })
        .expect("read every reply");
    assert_eq!(replies, 2 * ROUNDS);
    drop(client);

    let report = server.shutdown_with_drain(Duration::from_secs(5));
    assert!(report.is_clean(), "drain not clean: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
