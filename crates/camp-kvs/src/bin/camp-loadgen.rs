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
//! the server's flush coalescing is built for. Every connection is a
//! [`camp_kvs::client::Client`]: its batch primitive writes and reads the
//! wire, and its strict reply reader parses the replies. Client-side
//! latency is recorded per command class into `camp-telemetry` histograms
//! (each op in a batch is charged the batch round-trip, the closed-loop
//! convention).
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
//! `--retries N` makes the run resilient for chaos testing: it is the
//! client's retry budget, with `retry_sets` on (sets and gets are
//! idempotent, so a replay is safe). A connection that dies mid-batch is
//! re-dialed and the whole batch re-issued, with the client's backoff, up
//! to N times before the batch's ops are charged as errors; the prefill
//! retries per batch the same way. The clients' retry and reconnect
//! counters are the report's `batch_retries` and `reconnects`.
//! `--expect-errors` declares that errors are part of the experiment (a
//! `--chaos` server is on the other side): the error/retry/reconnect
//! counts land in the report's `resilience` object and the process still
//! exits 0 — only a run that completes zero ops fails.
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

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use camp_core::rng::Rng64;
use camp_kvs::client::{Client, ClientConfig, Reply};
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
#[derive(Default)]
struct Totals {
    stop: AtomicBool,
    /// Completed ops (every class).
    ops: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    errors: AtomicU64,
    /// The clients' retried attempts: batches re-issued after a
    /// connection failure, and re-tried dials.
    batch_retries: AtomicU64,
    /// Successful re-dials after a connection died.
    reconnects: AtomicU64,
    get_latency: Histogram,
    set_latency: Histogram,
}

/// The client every connection speaks through: no timeouts, `--retries`
/// re-issues of a whole batch (sets included — a replayed set stores the
/// same bytes again) with the client's backoff.
fn client_config(config: &Config, seed: u64) -> ClientConfig {
    ClientConfig {
        retries: config.retries,
        retry_sets: true,
        seed,
        ..ClientConfig::default()
    }
}

fn push_key(buf: &mut Vec<u8>, id: u64) {
    // Fixed-width keys: "key-00001234".
    buf.clear();
    let _ = write!(buf, "key-{id:08}");
}

/// Pre-stores every key so the measured phase runs mostly hits. With
/// `--retries 0` a single connection pipelines batches of 128 and any
/// failure, a set not stored included, is fatal; with retries, batches
/// shrink to 32 (a dropped batch forfeits less) and the client re-issues
/// a failed batch over a fresh connection up to the retry budget. A batch
/// that exhausts its budget is skipped: the keys it covered just miss
/// during the measured phase.
fn prefill(config: &Config, value: &[u8]) -> io::Result<()> {
    let batch_size: u64 = if config.retries > 0 { 32 } else { 128 };
    let mut client = Client::connect_with(&config.addr, client_config(config, config.seed))?;
    let mut key = Vec::new();
    let mut skipped = 0u64;
    for first in (0..config.keys).step_by(batch_size as usize) {
        let last = config.keys.min(first + batch_size);
        for id in first..last {
            push_key(&mut key, id);
            client.push_set(&key, value, 0, 0);
        }
        let stored = client.collect(|_, reply| match reply {
            Reply::Line(b"STORED") => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "prefill: a set was not stored",
            )),
        });
        match stored {
            Ok(()) => {}
            Err(err) if config.retries > 0 => {
                eprintln!("camp-loadgen: prefill batch skipped: {err}");
                skipped += last - first;
            }
            Err(err) => return Err(err),
        }
    }
    if skipped > 0 {
        eprintln!("camp-loadgen: prefill skipped {skipped} keys after retries");
    }
    let _ = client.quit();
    Ok(())
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
/// value against the canonical payload. A reply the client's strict
/// reader refuses (another key, a malformed header or data block) counts
/// as a mismatch, and the client re-dials for the next key.
fn verify(config: &Config, value: &[u8]) -> io::Result<VerifyStats> {
    let mut client = Client::connect(&config.addr)?;
    let sample = config.keys.min(2000);
    let mut stats = VerifyStats::default();
    let mut key = Vec::new();
    for i in 0..sample {
        push_key(&mut key, i * config.keys / sample);
        stats.checked += 1;
        match client.get(&key) {
            Ok(None) => stats.missing += 1,
            Ok(Some(found)) if found.data == value => {}
            Ok(Some(_)) => stats.mismatched += 1,
            Err(err) if err.kind() == io::ErrorKind::InvalidData => stats.mismatched += 1,
            Err(err) => return Err(err),
        }
    }
    let _ = client.quit();
    Ok(stats)
}

/// One multiplexed connection: its client (dialed on first use) and the
/// shape of the batch it has in flight. A worker thread owns several of
/// these and keeps a batch on the wire on every one of them at all times.
struct Slot {
    client: Option<Client>,
    gets: u64,
    started: Instant,
}

fn worker(config: Config, totals: Arc<Totals>, worker_id: u64, value: Arc<Vec<u8>>, conns: usize) {
    let mut slots: Vec<Slot> = (0..conns)
        .map(|_| Slot {
            client: None,
            gets: 0,
            started: Instant::now(),
        })
        .collect();
    if let Err(err) = drive(&config, &totals, worker_id, &value, &mut slots) {
        // Without retries a dead connection ends the worker (the others
        // keep going).
        eprintln!("camp-loadgen: worker {worker_id}: {err}");
        // ordering: Relaxed — statistics counter.
        totals.errors.fetch_add(1, Ordering::Relaxed);
    }
    for client in slots.into_iter().filter_map(|slot| slot.client) {
        let counters = client.counters();
        // ordering: Relaxed(x2) — statistics counters; the final report
        // reads them after joining every worker.
        totals
            .batch_retries
            .fetch_add(counters.retries, Ordering::Relaxed);
        totals
            .reconnects
            .fetch_add(counters.reconnects, Ordering::Relaxed);
        let _ = client.quit();
    }
}

/// The worker's closed loop. Returns only when the run stops, or with the
/// error that ended it under `--retries 0`; with retries, a batch whose
/// budget ran out is charged to the error count and the loop goes on.
fn drive(
    config: &Config,
    totals: &Totals,
    worker_id: u64,
    value: &[u8],
    slots: &mut [Slot],
) -> io::Result<()> {
    let mut rng = Rng64::seed_from_u64(config.seed ^ (worker_id.wrapping_mul(0x9E37_79B9)));
    let mut key = Vec::new();
    let failed = |err: io::Error| {
        if config.retries == 0 {
            return Err(err);
        }
        // ordering: Relaxed — statistics counter.
        totals
            .errors
            .fetch_add(config.pipeline as u64, Ordering::Relaxed);
        Ok(())
    };
    // ordering: Relaxed — best-effort stop flag: a worker finishing one
    // extra batch after the deadline is fine, and the final counts are
    // ordered by the join in `measure` anyway.
    while !totals.stop.load(Ordering::Relaxed) {
        // Issue phase: put one batch on the wire per connection before
        // reading anything back, so every connection this thread owns has
        // work in flight at once.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.client.is_none() {
                let seed = config.seed ^ (worker_id << 32) ^ i as u64;
                match Client::connect_with(&config.addr, client_config(config, seed)) {
                    Ok(client) => slot.client = Some(client),
                    Err(err) => {
                        failed(err)?;
                        continue;
                    }
                }
            }
            let Some(client) = slot.client.as_mut() else {
                continue;
            };
            slot.gets = 0;
            for _ in 0..config.pipeline {
                let id = rng.range_u64(0, config.keys);
                push_key(&mut key, id);
                if rng.chance(config.get_ratio) {
                    client.push_get(&key);
                    slot.gets += 1;
                } else {
                    client.push_set(&key, value, 0, 0);
                }
            }
            slot.started = Instant::now();
            // A batch that failed to leave is re-issued by `collect`.
            if let Err(err) = client.send() {
                if config.retries == 0 {
                    return Err(err);
                }
            }
        }
        // Collect phase: read every slot's replies; the client re-dials
        // and re-issues a slot's batch on connection failure up to the
        // retry budget.
        for slot in slots.iter_mut() {
            let Some(client) = slot.client.as_mut() else {
                continue;
            };
            let (mut hits, mut soft_errors) = (0u64, 0u64);
            let collected = client.collect(|i, reply| {
                if i == 0 {
                    (hits, soft_errors) = (0, 0);
                }
                match reply {
                    Reply::Hit { .. } => hits += 1,
                    Reply::Miss | Reply::Line(b"STORED") => {}
                    // An error *reply* (e.g. an injected SERVER_ERROR):
                    // the connection stays usable.
                    Reply::Line(_) => soft_errors += 1,
                }
                Ok(())
            });
            if let Err(err) = collected {
                failed(err)?;
                continue;
            }
            let micros = u64::try_from(slot.started.elapsed().as_micros()).unwrap_or(u64::MAX);
            let gets = slot.gets;
            let sets = config.pipeline as u64 - gets;
            for _ in 0..gets {
                totals.get_latency.record(micros);
            }
            for _ in 0..sets {
                totals.set_latency.record(micros);
            }
            // ordering: Relaxed(x4) — statistics counters; the final
            // report reads them after joining every worker.
            totals.ops.fetch_add(gets + sets, Ordering::Relaxed);
            totals.gets.fetch_add(gets, Ordering::Relaxed);
            totals.hits.fetch_add(hits, Ordering::Relaxed);
            if soft_errors > 0 {
                totals.errors.fetch_add(soft_errors, Ordering::Relaxed);
            }
        }
    }
    Ok(())
}

/// Everything one measured run produces (warmup excluded); all zeros for
/// a pure-verify run (`--verify --duration-secs 0`).
#[derive(Default)]
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
}

/// Runs the full measured phase against `config.addr`: spawns the worker
/// threads, warms up, re-baselines, runs for the duration, stops and
/// joins. The server must already be prefilled.
fn measure(config: &Config, value: &Arc<Vec<u8>>) -> RunStats {
    let totals = Arc::new(Totals::default());
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
        RunStats::default()
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
