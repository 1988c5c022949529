//! What an idle connection costs the server.
//!
//! A connection borrows its read and output buffers from its worker only
//! while they hold bytes, so one that has finished its command holds
//! neither. This test opens thousands of such connections against an
//! in-process server and bounds the growth of the process's resident
//! memory. It is a binary of its own so that no other test allocates in
//! the process while it measures.

use std::io::{Read, Write};
use std::net::TcpStream;

use camp_core::Precision;
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

const IDLE_CONNS: usize = 4_000;
/// 2 KiB per connection. A connection that kept a 16 KiB read buffer
/// would cost eight times that.
const GROWTH_LIMIT: u64 = 8 << 20;

/// The soft RLIMIT_NOFILE of this process, read from `/proc/self/limits`
/// (`None` if the file or the line is absent).
fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// This process's resident set size in bytes, from `/proc/self/status`.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .expect("VmRSS value");
    kib * 1024
}

/// Connects, asks for the version and reads the one-line reply, leaving
/// the connection open and idle.
fn idle_connection(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"version\r\n").expect("send version");
    let mut reply = Vec::new();
    let mut chunk = [0u8; 64];
    while !reply.ends_with(b"\r\n") {
        let n = stream.read(&mut chunk).expect("read the reply");
        assert!(n > 0, "closed before the reply");
        reply.extend_from_slice(&chunk[..n]);
    }
    assert!(reply.starts_with(b"VERSION "), "{reply:?}");
    stream
}

/// Four thousand connections, each idle after one `version`, grow the
/// server by less than [`GROWTH_LIMIT`]. Each holds two fds here (client
/// and server side), so the test skips where RLIMIT_NOFILE is too low.
#[test]
fn idle_connections_hold_no_buffers() {
    let needed = 2 * IDLE_CONNS as u64 + 512;
    match max_open_files() {
        Some(limit) if limit >= needed => {}
        Some(limit) => {
            eprintln!("skipping idle-memory test: RLIMIT_NOFILE soft limit {limit} < {needed}");
            return;
        }
        None => {
            eprintln!("skipping idle-memory test: cannot read /proc/self/limits");
            return;
        }
    }
    let server = Server::start_with(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 0,
            workers: 1,
            ..ServerOptions::new(StoreConfig {
                slab: SlabConfig::small(64 * 1024, 16),
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            })
        },
    )
    .expect("bind test server");
    let addr = server.local_addr();
    // Warm up what every connection shares (the worker's pool, the
    // connection table's first pages) before the baseline.
    drop((0..64).map(|_| idle_connection(addr)).collect::<Vec<_>>());
    let before = vm_rss();

    let conns: Vec<TcpStream> = (0..IDLE_CONNS).map(|_| idle_connection(addr)).collect();
    let grown = vm_rss().saturating_sub(before);
    eprintln!(
        "{IDLE_CONNS} idle connections grew the process by {} KiB ({} B each)",
        grown / 1024,
        grown / IDLE_CONNS as u64
    );
    assert!(
        grown < GROWTH_LIMIT,
        "{IDLE_CONNS} idle connections grew the process by {grown} bytes"
    );
    drop(conns);
    server.shutdown();
}
