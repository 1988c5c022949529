//! `camp-loadgen` — a closed-loop load generator for `camp-kvsd`.
//!
//! ```text
//! camp-loadgen [--addr ADDR] [--connections N] [--threads N]
//!              [--pipeline DEPTH]
//!              [--duration-secs S] [--warmup-secs S] [--get-ratio R]
//!              [--keys N] [--value-bytes N] [--seed N]
//!              [--retries N] [--expect-errors] [--verify]
//!              [--out FILE] [--label TEXT]
//! ```
//!
//! Each connection runs a closed loop: it assembles a pipeline of `DEPTH`
//! commands (GET/SET mixed by `--get-ratio`, keys drawn uniformly from
//! `--keys` via the in-repo `Rng64`), writes the whole batch in one
//! segment, then reads all `DEPTH` responses — exactly the traffic shape
//! the server's flush coalescing is built for. Client-side latency is
//! recorded per command class into `camp-telemetry` histograms (each op in
//! a batch is charged the batch round-trip, the closed-loop convention).
//!
//! `--threads` decouples connection count from thread count: each thread
//! multiplexes its share of connections by writing one batch to every
//! connection before collecting any replies, so `--connections 10000
//! --threads 8` keeps ten thousand server connections busy from eight
//! OS threads — the shape the server's epoll reactor is built for. The
//! default (`--threads 0`) runs one thread per connection, the historical
//! behavior. With multiplexing, a batch's recorded round-trip includes
//! time the thread spends servicing its sibling connections; that is the
//! closed-loop convention extended per-thread, and it is why latency
//! comparisons should hold `--threads` fixed.
//!
//! `--retries N` makes the run resilient for chaos testing: a worker whose
//! connection dies mid-batch reconnects and re-issues the whole batch
//! (sets and gets are idempotent, so a replay is safe) up to N times
//! before charging the batch's ops as errors and moving on; the prefill
//! retries per batch the same way. `--expect-errors` declares that errors
//! are part of the experiment (a `--chaos` server is on the other side):
//! the error/retry/reconnect counts land in the report's `resilience`
//! object and the process still exits 0 — only a run that completes zero
//! ops fails.
//!
//! `--verify` adds a read-back pass after the measured phase: a
//! deterministic sample of the keyspace (up to 2000 keys, spread evenly)
//! is fetched over a fresh connection and every returned value is
//! byte-compared against the canonical payload. Misses are reported
//! separately from mismatches — after a crash under `--fsync interval` a
//! *missing* recent key is bounded loss, but a *mismatched* value is
//! corruption and fails the run. With `--duration-secs 0` the loadgen
//! skips prefill and measurement entirely and runs verification alone:
//! the read-your-crashed-writes check a recovery harness wants.
//!
//! The report is written to `--out` (default `loadgen-report.json`):
//! ops/sec, p50/p90/p99/max per command class, hit ratio, error and
//! resilience counters, plus the full config so before/after runs are
//! comparable. The repo's benchmark is
//! `campbench` (`bench/`); this is the many-connection load tool the soak,
//! chaos and crash harnesses drive.

#![forbid(unsafe_code)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use camp_core::rng::Rng64;
use camp_telemetry::{Histogram, HistogramSnapshot};

#[derive(Debug, Clone)]
struct Config {
    addr: String,
    connections: usize,
    threads: usize,
    pipeline: usize,
    duration_secs: f64,
    warmup_secs: f64,
    get_ratio: f64,
    keys: u64,
    value_bytes: usize,
    seed: u64,
    retries: u32,
    expect_errors: bool,
    verify: bool,
    out: String,
    label: String,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:11311".to_owned(),
            connections: 4,
            threads: 0,
            pipeline: 16,
            duration_secs: 5.0,
            warmup_secs: 0.5,
            get_ratio: 0.9,
            keys: 10_000,
            value_bytes: 100,
            seed: 42,
            retries: 0,
            expect_errors: false,
            verify: false,
            out: "loadgen-report.json".to_owned(),
            label: String::new(),
        }
    }
}

fn usage() -> &'static str {
    "usage: camp-loadgen [--addr ADDR] [--connections N] [--threads N]\n                    [--pipeline DEPTH]\n                    [--duration-secs S] [--warmup-secs S] [--get-ratio R]\n                    [--keys N] [--value-bytes N] [--seed N]\n                    [--retries N] [--expect-errors] [--verify]\n                    [--out FILE] [--label TEXT]\n\ndefaults: --addr 127.0.0.1:11311 --connections 4 --threads 0 --pipeline 16\n          --duration-secs 5 --warmup-secs 0.5 --get-ratio 0.9\n          --keys 10000 --value-bytes 100 --seed 42 --retries 0\n          --out loadgen-report.json\n\n--threads N multiplexes the connections over N threads (0 = one thread per\n  connection); lets one machine hold thousands of server connections open\n--retries N re-issues a failed batch up to N times over a fresh connection\n--expect-errors records errors/retries/reconnects in the report instead of\n  treating them as suspicious (for runs against a --chaos server); the exit\n  code stays 0 unless zero ops completed\n--verify reads back a deterministic keyspace sample after the run and\n  byte-compares every returned value; any mismatch fails the run. With\n  --duration-secs 0 the verification pass runs alone (no prefill, no\n  measurement) — the read-back check for crash-recovery harnesses\n"
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--connections" => {
                config.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "bad --connections".to_owned())?;
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_owned())?;
            }
            "--pipeline" => {
                config.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|_| "bad --pipeline".to_owned())?;
            }
            "--duration-secs" => {
                config.duration_secs = value("--duration-secs")?
                    .parse()
                    .map_err(|_| "bad --duration-secs".to_owned())?;
            }
            "--warmup-secs" => {
                config.warmup_secs = value("--warmup-secs")?
                    .parse()
                    .map_err(|_| "bad --warmup-secs".to_owned())?;
            }
            "--get-ratio" => {
                config.get_ratio = value("--get-ratio")?
                    .parse()
                    .map_err(|_| "bad --get-ratio".to_owned())?;
            }
            "--keys" => {
                config.keys = value("--keys")?
                    .parse()
                    .map_err(|_| "bad --keys".to_owned())?;
            }
            "--value-bytes" => {
                config.value_bytes = value("--value-bytes")?
                    .parse()
                    .map_err(|_| "bad --value-bytes".to_owned())?;
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_owned())?;
            }
            "--retries" => {
                config.retries = value("--retries")?
                    .parse()
                    .map_err(|_| "bad --retries".to_owned())?;
            }
            "--expect-errors" => config.expect_errors = true,
            "--verify" => config.verify = true,
            "--out" => config.out = value("--out")?,
            "--label" => config.label = value("--label")?,
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if config.connections == 0 || config.pipeline == 0 || config.keys == 0 {
        return Err("--connections, --pipeline and --keys must be positive".to_owned());
    }
    if !(0.0..=1.0).contains(&config.get_ratio) {
        return Err("--get-ratio must be in [0, 1]".to_owned());
    }
    Ok(config)
}

/// Counters and histograms shared by every worker.
struct Totals {
    stop: AtomicBool,
    /// Completed ops (every class).
    ops: AtomicU64,
    gets: AtomicU64,
    sets: AtomicU64,
    hits: AtomicU64,
    errors: AtomicU64,
    /// Whole batches re-issued after a connection failure.
    batch_retries: AtomicU64,
    /// Successful re-dials after a connection died.
    reconnects: AtomicU64,
    get_latency: Histogram,
    set_latency: Histogram,
}

impl Totals {
    fn new() -> Totals {
        Totals {
            stop: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            sets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batch_retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            get_latency: Histogram::new(),
            set_latency: Histogram::new(),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Get,
    Set,
}

/// One worker connection (socket halves).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: &str) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(Conn {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
    })
}

fn push_key(buf: &mut Vec<u8>, id: u64) {
    // Fixed-width keys: "key-00001234".
    let _ = write!(buf, "key-{id:08}");
}

/// Writes one pipelined batch of sets and reads the replies. Any reply
/// other than STORED is an error (the batch is already on the wire, so
/// the remaining replies are still consumed).
fn prefill_batch(
    conn: &mut Conn,
    request: &[u8],
    pending: usize,
    line: &mut Vec<u8>,
) -> io::Result<()> {
    conn.writer.write_all(request)?;
    let mut bad = 0usize;
    for _ in 0..pending {
        read_line(&mut conn.reader, line)?;
        if line != b"STORED" {
            bad += 1;
        }
    }
    if bad > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("prefill: {bad} of {pending} sets not stored"),
        ));
    }
    Ok(())
}

/// Pre-stores every key so the measured phase runs mostly hits. With
/// `--retries 0` a single connection pipelines batches of 128 and any
/// failure is fatal; with retries, batches shrink to 32 (a dropped batch
/// forfeits less) and each failed batch is re-issued over a fresh
/// connection up to the retry budget — sets are idempotent, so the replay
/// is safe. A batch that exhausts its budget is skipped: the keys it
/// covered just miss during the measured phase.
fn prefill(config: &Config, value: &[u8]) -> io::Result<()> {
    let batch_size: u64 = if config.retries > 0 { 32 } else { 128 };
    let mut conn: Option<Conn> = Some(connect(&config.addr)?);
    let mut request = Vec::new();
    let mut line = Vec::new();
    let mut pending = 0usize;
    let mut skipped = 0u64;
    for id in 0..config.keys {
        request.extend_from_slice(b"set ");
        push_key(&mut request, id);
        let _ = write!(request, " 0 0 {}\r\n", value.len());
        request.extend_from_slice(value);
        request.extend_from_slice(b"\r\n");
        pending += 1;
        if pending as u64 == batch_size || id + 1 == config.keys {
            let mut attempt = 0u32;
            loop {
                let ready = match conn.as_mut() {
                    Some(c) => Ok(c),
                    None => connect(&config.addr).map(|c| conn.insert(c)),
                };
                let result = ready.and_then(|c| prefill_batch(c, &request, pending, &mut line));
                match result {
                    Ok(()) => break,
                    Err(err) if attempt < config.retries => {
                        conn = None;
                        attempt += 1;
                        let _ = err;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(err) if config.retries > 0 => {
                        eprintln!("camp-loadgen: prefill batch skipped: {err}");
                        skipped += pending as u64;
                        conn = None;
                        break;
                    }
                    Err(err) => return Err(err),
                }
            }
            request.clear();
            pending = 0;
        }
    }
    if skipped > 0 {
        eprintln!("camp-loadgen: prefill skipped {skipped} keys after retries");
    }
    if let Some(mut c) = conn {
        let _ = c.writer.write_all(b"quit\r\n");
    }
    Ok(())
}

fn read_line(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>) -> io::Result<()> {
    line.clear();
    let read = reader.read_until(b'\n', line)?;
    if read == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    Ok(())
}

/// Consumes one GET response (VALUE blocks until END); returns whether the
/// key was a hit, or `None` on a protocol error.
fn read_get_response(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    skip: &mut Vec<u8>,
) -> io::Result<Option<bool>> {
    let mut hit = false;
    loop {
        read_line(reader, line)?;
        if line == b"END" {
            return Ok(Some(hit));
        }
        if !line.starts_with(b"VALUE ") {
            return Ok(None);
        }
        // Data-block length is the last space-separated token.
        let len: usize = line
            .rsplit(|&b| b == b' ')
            .next()
            .and_then(|t| std::str::from_utf8(t).ok())
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad VALUE header"))?;
        if skip.len() < len + 2 {
            skip.resize(len + 2, 0);
        }
        reader.read_exact(&mut skip[..len + 2])?;
        hit = true;
    }
}

/// Reads the replies for one batch already on the wire; returns (hits,
/// soft errors). A soft error is an error *reply* (e.g. an injected
/// SERVER_ERROR) — the connection stays usable; an `Err` means the
/// connection is dead.
fn read_batch(
    conn: &mut Conn,
    ops: &[Op],
    line: &mut Vec<u8>,
    skip: &mut Vec<u8>,
) -> io::Result<(u64, u64)> {
    let mut hits = 0u64;
    let mut soft_errors = 0u64;
    for &op in ops {
        match op {
            Op::Get => match read_get_response(&mut conn.reader, line, skip)? {
                Some(true) => hits += 1,
                Some(false) => {}
                None => soft_errors += 1,
            },
            Op::Set => {
                read_line(&mut conn.reader, line)?;
                if line != b"STORED" {
                    soft_errors += 1;
                }
            }
        }
    }
    Ok((hits, soft_errors))
}

/// Writes one batch and reads all its replies.
fn run_batch(
    conn: &mut Conn,
    request: &[u8],
    ops: &[Op],
    line: &mut Vec<u8>,
    skip: &mut Vec<u8>,
) -> io::Result<(u64, u64)> {
    conn.writer.write_all(request)?;
    read_batch(conn, ops, line, skip)
}

/// What the `--verify` read-back pass found.
#[derive(Debug, Clone, Copy, Default)]
struct VerifyStats {
    /// Keys fetched and compared.
    checked: u64,
    /// Values returned with the wrong bytes (corruption — always fatal).
    mismatched: u64,
    /// Keys the server no longer has (bounded loss after a crash under
    /// `--fsync interval`; not an error).
    missing: u64,
}

/// Fetches a deterministic, evenly-spread sample of the keyspace (up to
/// 2000 keys) over one fresh connection and byte-compares each returned
/// value against the canonical payload. The VALUE header is parsed
/// strictly — an unexpected key, a bad length, or wrong data bytes all
/// count as a mismatch.
fn verify(config: &Config, value: &[u8]) -> io::Result<VerifyStats> {
    let mut conn = connect(&config.addr)?;
    let sample = config.keys.min(2000);
    let mut stats = VerifyStats::default();
    let mut request = Vec::new();
    let mut expected_key = Vec::new();
    let mut line = Vec::new();
    let mut data = vec![0u8; value.len() + 2];
    for i in 0..sample {
        let id = i * config.keys / sample;
        request.clear();
        request.extend_from_slice(b"get ");
        push_key(&mut request, id);
        request.extend_from_slice(b"\r\n");
        conn.writer.write_all(&request)?;
        expected_key.clear();
        push_key(&mut expected_key, id);
        stats.checked += 1;

        read_line(&mut conn.reader, &mut line)?;
        if line == b"END" {
            stats.missing += 1;
            continue;
        }
        // Strict header: VALUE <key> <flags> <len>, our key, our length.
        let mut tokens = line.split(|&b| b == b' ');
        let well_formed = tokens.next() == Some(b"VALUE")
            && tokens.next() == Some(expected_key.as_slice())
            && tokens.next().is_some()
            && tokens.next().and_then(|t| {
                std::str::from_utf8(t)
                    .ok()
                    .and_then(|t| t.parse::<usize>().ok())
            }) == Some(value.len())
            && tokens.next().is_none();
        if !well_formed {
            stats.mismatched += 1;
            // The reply is in an unknown shape; re-dial rather than guess
            // at how many bytes to skip.
            conn = connect(&config.addr)?;
            continue;
        }
        conn.reader.read_exact(&mut data)?;
        let matches = &data[..value.len()] == value && &data[value.len()..] == b"\r\n";
        read_line(&mut conn.reader, &mut line)?;
        if !matches || line != b"END" {
            stats.mismatched += 1;
        }
    }
    let _ = conn.writer.write_all(b"quit\r\n");
    Ok(stats)
}

/// One multiplexed connection: the socket plus the batch it has in
/// flight. A worker thread owns several of these and keeps a batch on
/// the wire on every one of them at all times.
struct Slot {
    conn: Option<Conn>,
    ever_connected: bool,
    request: Vec<u8>,
    ops: Vec<Op>,
    started: Instant,
    /// The batch was written successfully and its replies are pending.
    wrote: bool,
}

/// Returns the slot's live connection, dialing one if needed and
/// counting the re-dial once the slot has ever been connected.
fn ensure_conn<'a>(
    conn: &'a mut Option<Conn>,
    ever_connected: &mut bool,
    addr: &str,
    totals: &Totals,
) -> io::Result<&'a mut Conn> {
    match conn {
        Some(ready) => Ok(ready),
        None => {
            let dialed = connect(addr)?;
            if *ever_connected {
                // ordering: Relaxed — statistics counter.
                totals.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            *ever_connected = true;
            Ok(conn.insert(dialed))
        }
    }
}

fn worker(config: Config, totals: Arc<Totals>, worker_id: u64, value: Arc<Vec<u8>>, conns: usize) {
    let mut rng = Rng64::seed_from_u64(config.seed ^ (worker_id.wrapping_mul(0x9E37_79B9)));
    let mut slots: Vec<Slot> = (0..conns)
        .map(|_| Slot {
            conn: None,
            ever_connected: false,
            request: Vec::new(),
            ops: Vec::with_capacity(config.pipeline),
            started: Instant::now(),
            wrote: false,
        })
        .collect();
    let mut line = Vec::new();
    let mut skip = Vec::new();
    // ordering: Relaxed — best-effort stop flag: a worker finishing one
    // extra batch after the deadline is fine, and the final counts are
    // ordered by the join below anyway.
    while !totals.stop.load(Ordering::Relaxed) {
        // Issue phase: put one batch on the wire per connection before
        // reading anything back, so every connection this thread owns has
        // work in flight at once.
        for slot in &mut slots {
            slot.request.clear();
            slot.ops.clear();
            slot.wrote = false;
            for _ in 0..config.pipeline {
                let id = rng.range_u64(0, config.keys);
                if rng.chance(config.get_ratio) {
                    slot.request.extend_from_slice(b"get ");
                    push_key(&mut slot.request, id);
                    slot.request.extend_from_slice(b"\r\n");
                    slot.ops.push(Op::Get);
                } else {
                    slot.request.extend_from_slice(b"set ");
                    push_key(&mut slot.request, id);
                    let _ = write!(slot.request, " 0 0 {}\r\n", value.len());
                    slot.request.extend_from_slice(&value);
                    slot.request.extend_from_slice(b"\r\n");
                    slot.ops.push(Op::Set);
                }
            }
            slot.started = Instant::now();
            let issued = ensure_conn(
                &mut slot.conn,
                &mut slot.ever_connected,
                &config.addr,
                &totals,
            )
            .and_then(|c| c.writer.write_all(&slot.request));
            match issued {
                Ok(()) => slot.wrote = true,
                Err(err) => {
                    slot.conn = None;
                    if config.retries == 0 {
                        // Without retries a dead connection ends the
                        // worker (the others keep going).
                        eprintln!("camp-loadgen: worker {worker_id}: {err}");
                        // ordering: Relaxed — statistics counter.
                        totals.errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // The collect phase below replays the batch over a
                    // fresh connection.
                }
            }
        }
        // Collect phase: read every slot's replies, re-dialing and
        // replaying a slot's batch on connection failure up to the retry
        // budget. Sets and gets are idempotent, so a replay is safe.
        for slot in &mut slots {
            let mut attempt = 0u32;
            let outcome = loop {
                let result = if slot.wrote {
                    // Replies for the already-written batch.
                    slot.wrote = false;
                    match slot.conn.as_mut() {
                        Some(c) => read_batch(c, &slot.ops, &mut line, &mut skip),
                        None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
                    }
                } else {
                    ensure_conn(
                        &mut slot.conn,
                        &mut slot.ever_connected,
                        &config.addr,
                        &totals,
                    )
                    .and_then(|c| run_batch(c, &slot.request, &slot.ops, &mut line, &mut skip))
                };
                match result {
                    Ok(counts) => break Ok(counts),
                    Err(err) => {
                        slot.conn = None;
                        // ordering: Relaxed(x2) — stop flag (see the
                        // worker loop) and a statistics counter.
                        if attempt >= config.retries || totals.stop.load(Ordering::Relaxed) {
                            break Err(err);
                        }
                        totals.batch_retries.fetch_add(1, Ordering::Relaxed);
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            };
            let (hits, soft_errors) = match outcome {
                Ok(counts) => counts,
                Err(err) => {
                    if config.retries == 0 {
                        eprintln!("camp-loadgen: worker {worker_id}: {err}");
                        // ordering: Relaxed — statistics counter.
                        totals.errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Budget exhausted: the batch's ops are errors; move on.
                    totals
                        .errors
                        // ordering: Relaxed — statistics counter.
                        .fetch_add(slot.ops.len() as u64, Ordering::Relaxed);
                    continue;
                }
            };
            let micros = u64::try_from(slot.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut gets = 0u64;
            let mut sets = 0u64;
            for &op in &slot.ops {
                match op {
                    Op::Get => {
                        totals.get_latency.record(micros);
                        gets += 1;
                    }
                    Op::Set => {
                        totals.set_latency.record(micros);
                        sets += 1;
                    }
                }
            }
            // ordering: Relaxed(x5) — statistics counters; the final
            // report reads them after joining every worker.
            totals.ops.fetch_add(gets + sets, Ordering::Relaxed);
            totals.gets.fetch_add(gets, Ordering::Relaxed);
            totals.sets.fetch_add(sets, Ordering::Relaxed);
            totals.hits.fetch_add(hits, Ordering::Relaxed);
            if soft_errors > 0 {
                totals.errors.fetch_add(soft_errors, Ordering::Relaxed);
            }
        }
    }
    for slot in &mut slots {
        if let Some(conn) = slot.conn.as_mut() {
            let _ = conn.writer.write_all(b"quit\r\n");
        }
    }
}

/// Everything one measured run produces (warmup excluded).
struct RunStats {
    elapsed_secs: f64,
    total_ops: u64,
    hit_ratio: f64,
    errors: u64,
    batch_retries: u64,
    reconnects: u64,
    get_snap: HistogramSnapshot,
    set_snap: HistogramSnapshot,
}

impl RunStats {
    fn ops_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.total_ops as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// The all-zero stats a pure-verify run (`--verify --duration-secs 0`)
    /// reports in place of a measured phase.
    fn empty() -> RunStats {
        RunStats {
            elapsed_secs: 0.0,
            total_ops: 0,
            hit_ratio: 0.0,
            errors: 0,
            batch_retries: 0,
            reconnects: 0,
            get_snap: Histogram::new().snapshot(),
            set_snap: Histogram::new().snapshot(),
        }
    }
}

/// Runs the full measured phase against `config.addr`: spawns the worker
/// threads, warms up, re-baselines, runs for the duration, stops and
/// joins. The server must already be prefilled.
fn measure(config: &Config, value: &Arc<Vec<u8>>) -> RunStats {
    let totals = Arc::new(Totals::new());
    // `--threads 0` keeps the historical one-thread-per-connection shape;
    // otherwise spread the connections over the threads as evenly as
    // possible (the first `connections % threads` threads take one extra).
    let threads = if config.threads == 0 {
        config.connections
    } else {
        config.threads.min(config.connections)
    };
    let base = config.connections / threads;
    let extra = config.connections % threads;
    let workers: Vec<_> = (0..threads)
        .map(|i| {
            let config = config.clone();
            let totals = Arc::clone(&totals);
            let value = Arc::clone(value);
            let conns = base + usize::from(i < extra);
            std::thread::Builder::new()
                .name(format!("loadgen-{i}"))
                .spawn(move || worker(config, totals, i as u64, value, conns))
                .expect("spawn worker")
        })
        .collect();

    // Warm up, then re-baseline every counter and histogram so the report
    // reflects steady state only.
    std::thread::sleep(Duration::from_secs_f64(config.warmup_secs.max(0.0)));
    totals.get_latency.reset();
    totals.set_latency.reset();
    // ordering: Relaxed(x4) — statistics baselines; warmup tolerances
    // dwarf any cross-thread skew.
    let ops_base = totals.ops.load(Ordering::Relaxed);
    let gets_base = totals.gets.load(Ordering::Relaxed);
    let hits_base = totals.hits.load(Ordering::Relaxed);
    let errors_base = totals.errors.load(Ordering::Relaxed);
    let started = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(config.duration_secs.max(0.0)));
    // ordering: Relaxed(x2) — stop flag (see the worker loop) and a
    // statistics read; the authoritative counts come after the joins.
    totals.stop.store(true, Ordering::Relaxed);
    let elapsed_secs = started.elapsed().as_secs_f64();
    let total_ops = totals.ops.load(Ordering::Relaxed) - ops_base;
    for handle in workers {
        let _ = handle.join();
    }

    // ordering: Relaxed(x3) — statistics counters, read after every
    // worker has been joined.
    let gets = totals.gets.load(Ordering::Relaxed) - gets_base;
    let hits = totals.hits.load(Ordering::Relaxed) - hits_base;
    let errors = totals.errors.load(Ordering::Relaxed) - errors_base;
    let hit_ratio = if gets > 0 {
        hits as f64 / gets as f64
    } else {
        0.0
    };
    RunStats {
        elapsed_secs,
        total_ops,
        hit_ratio,
        errors,
        // ordering: Relaxed(x2) — statistics counters, post-join.
        batch_retries: totals.batch_retries.load(Ordering::Relaxed),
        reconnects: totals.reconnects.load(Ordering::Relaxed),
        get_snap: totals.get_latency.snapshot(),
        set_snap: totals.set_latency.snapshot(),
    }
}

fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn command_json(name: &str, snap: &HistogramSnapshot) -> String {
    format!(
        "\"{name}\": {{\"ops\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"mean_us\": {:.1}}}",
        snap.count,
        snap.quantile(0.5),
        snap.quantile(0.9),
        snap.quantile(0.99),
        snap.max,
        snap.mean(),
    )
}

fn render_report(config: &Config, stats: &RunStats, verify: Option<VerifyStats>) -> String {
    let RunStats {
        elapsed_secs,
        total_ops,
        hit_ratio,
        errors,
        batch_retries,
        reconnects,
        ..
    } = *stats;
    let ops_per_sec = stats.ops_per_sec();
    let v = verify.unwrap_or_default();
    let verify_json = format!(
        "{{\"enabled\": {}, \"checked\": {}, \"mismatched\": {}, \"missing\": {}}}",
        verify.is_some(),
        v.checked,
        v.mismatched,
        v.missing,
    );
    format!(
        "{{\n  \"bench\": \"camp-loadgen\",\n  \"label\": \"{}\",\n  \"addr\": \"{}\",\n  \"config\": {{\"connections\": {}, \"threads\": {}, \"pipeline\": {}, \"get_ratio\": {}, \"keys\": {}, \"value_bytes\": {}, \"duration_secs\": {}, \"warmup_secs\": {}, \"seed\": {}, \"retries\": {}, \"expect_errors\": {}}},\n  \"elapsed_secs\": {elapsed_secs:.3},\n  \"total_ops\": {total_ops},\n  \"ops_per_sec\": {ops_per_sec:.1},\n  \"hit_ratio\": {hit_ratio:.4},\n  \"errors\": {errors},\n  \"resilience\": {{\"batch_retries\": {batch_retries}, \"reconnects\": {reconnects}}},\n  \"verify\": {verify_json},\n  \"commands\": {{{}, {}}}\n}}\n",
        escape_json(&config.label),
        escape_json(&config.addr),
        config.connections,
        config.threads,
        config.pipeline,
        config.get_ratio,
        config.keys,
        config.value_bytes,
        config.duration_secs,
        config.warmup_secs,
        config.seed,
        config.retries,
        config.expect_errors,
        command_json("get", &stats.get_snap),
        command_json("set", &stats.set_snap),
    )
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let value = Arc::new(vec![b'x'; config.value_bytes]);
    // `--verify --duration-secs 0` is a pure read-back pass: nothing is
    // written, so a recovery harness can check exactly what survived.
    let pure_verify = config.verify && config.duration_secs <= 0.0;
    let stats = if pure_verify {
        RunStats::empty()
    } else {
        if let Err(err) = prefill(&config, &value) {
            eprintln!(
                "camp-loadgen: prefill against {} failed: {err}",
                config.addr
            );
            return ExitCode::FAILURE;
        }
        measure(&config, &value)
    };
    let verify_stats = if config.verify {
        match verify(&config, &value) {
            Ok(found) => Some(found),
            Err(err) => {
                eprintln!(
                    "camp-loadgen: verify pass against {} failed: {err}",
                    config.addr
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let report = render_report(&config, &stats, verify_stats);
    if let Err(err) = std::fs::write(&config.out, &report) {
        eprintln!("camp-loadgen: writing {} failed: {err}", config.out);
        return ExitCode::FAILURE;
    }
    println!(
        "camp-loadgen: {:.0} ops/sec over {:.2}s ({} ops, hit ratio {:.3}, {} errors)",
        stats.ops_per_sec(),
        stats.elapsed_secs,
        stats.total_ops,
        stats.hit_ratio,
        stats.errors,
    );
    println!(
        "  get: {} ops, p50 {}us p99 {}us | set: {} ops, p50 {}us p99 {}us",
        stats.get_snap.count,
        stats.get_snap.quantile(0.5),
        stats.get_snap.quantile(0.99),
        stats.set_snap.count,
        stats.set_snap.quantile(0.5),
        stats.set_snap.quantile(0.99),
    );
    if config.retries > 0 || config.expect_errors {
        println!(
            "  resilience: {} batch retries, {} reconnects",
            stats.batch_retries, stats.reconnects
        );
    }
    if let Some(v) = verify_stats {
        println!(
            "  verify: {} checked, {} mismatched, {} missing",
            v.checked, v.mismatched, v.missing
        );
    }
    println!("  report written to {}", config.out);
    if let Some(v) = verify_stats {
        if v.mismatched > 0 {
            eprintln!(
                "camp-loadgen: verify found {} mismatched values",
                v.mismatched
            );
            return ExitCode::FAILURE;
        }
        if pure_verify && v.checked == 0 {
            eprintln!("camp-loadgen: verify-only run checked no keys");
            return ExitCode::FAILURE;
        }
    }
    if !pure_verify && stats.total_ops == 0 {
        eprintln!("camp-loadgen: no operations completed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
