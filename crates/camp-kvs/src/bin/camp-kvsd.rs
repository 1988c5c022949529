//! `camp-kvsd` — the Twemcache-like key-value server as a daemon.
//!
//! ```text
//! camp-kvsd [--listen ADDR] [--memory-mb N] [--policy SPEC]
//!           [--shards N] [--slab-kb N] [--metrics-addr ADDR]
//!           [--log-level LEVEL] [--max-conns N] [--max-value-bytes N]
//!           [--idle-secs N] [--drain-secs N] [--chaos SPEC]
//!           [--workers N] [--slow-log MICROS] [--data-dir PATH]
//!           [--fsync always|interval|never] [--segment-bytes N]
//! ```
//!
//! Connections are served by an in-process epoll reactor: `--workers`
//! event-loop threads (0 = one per core, capped at 8), each owning its
//! own `SO_REUSEPORT` listener and multiplexing its share of connections
//! — tens of thousands of concurrent clients on a handful of threads,
//! with connection intake load-balanced across cores by the kernel.
//!
//! `--policy` accepts any spec understood by
//! [`camp_kvs::store::EvictionMode`] — `lru`, `camp`,
//! `camp:BITS`, `camp:inf`, `gds`, `gdsf`, `lfu`, `lru-k:K`, `2q`, `arc`,
//! `gd-wheel`, `pooled-lru[:B1,B2,..]` — so the daemon runs the same
//! pluggable policy layer as the simulator. Speaks the memcached-style text
//! protocol with the IQ framework's `iqget`/`iqset` extensions; see the
//! `camp-kvs` crate documentation.
//!
//! `--metrics-addr` additionally serves a Prometheus text exposition over
//! HTTP (scrape any path; `GET /trace` dumps the flight recorder); `stats
//! detail` reports the same telemetry over the cache protocol itself.
//! `--log-level` gates the structured `key=value` log lines written to
//! stderr (default `info`).
//!
//! The flight recorder is always on: recent request spans and eviction
//! decisions sit in fixed-size rings, dumped by the `trace` command.
//! `--slow-log MICROS` additionally retains requests whose end-to-end
//! latency reaches the threshold in a separate slow ring that fast
//! traffic cannot overwrite (`--slow-log 0` retains everything).
//!
//! `--data-dir` turns on crash-safe durability: every acknowledged
//! mutation is appended to a checksummed log under PATH, and a restart
//! pointed at the same directory replays the log — values, flags, TTLs
//! and CAMP costs intact — before the listeners open. `--fsync` picks
//! the durability level (`always` = every acknowledged write survives
//! SIGKILL; `interval` = bounded loss, the default; `never` = page
//! cache decides) and `--segment-bytes` the rotation/compaction
//! granularity. Without `--data-dir` the server is a pure cache and the
//! request path is byte-identical to previous releases.
//!
//! The daemon exits gracefully on SIGTERM/SIGINT: the listener closes
//! immediately, in-flight commands complete, and connections still busy
//! after `--drain-secs` are severed. A clean drain (and even a forced
//! sever) exits 0; the drain report is logged. `--chaos` injects
//! deterministic faults for resilience testing (see
//! [`camp_kvs::fault`]).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use camp_core::Precision;
use camp_kvs::fault::FaultPlan;
use camp_kvs::persist::{FsyncMode, PersistOptions, MIN_SEGMENT_BYTES};
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::signals::SignalWatcher;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};
use camp_telemetry::{kvlog, LogLevel};

fn usage() -> String {
    format!(
        "usage: camp-kvsd [--listen ADDR] [--memory-mb N] [--policy SPEC]\n                 [--shards N] [--slab-kb N] [--metrics-addr ADDR]\n                 [--log-level LEVEL] [--max-conns N] [--max-value-bytes N]\n                 [--idle-secs N] [--drain-secs N] [--chaos SPEC]\n                 [--workers N] [--slow-log MICROS] [--data-dir PATH]\n                 [--fsync always|interval|never] [--segment-bytes N]\n\ndefaults: --listen 127.0.0.1:11311 --memory-mb 64 --policy camp:5\n          --shards 1 --slab-kb 1024 --log-level info --max-conns 1024\n          --max-value-bytes 1048576 --idle-secs 60 --drain-secs 5\n          --workers 0 (auto: one per core, capped at 8)\n          --fsync interval --segment-bytes 67108864\n\n--metrics-addr serves a Prometheus text exposition over HTTP (off unless given;\n  GET /trace dumps the flight recorder)\n--max-conns caps simultaneous connections (0 = unlimited); excess accepts get\n  an explicit SERVER_ERROR and are closed\n--idle-secs evicts connections idle past N seconds (0 disables)\n--drain-secs bounds the graceful drain after SIGTERM/SIGINT\n--chaos injects deterministic faults, e.g. drop=0.02,delay=1ms@0.5,err=0.01,seed=7\n  (iowrite=P, fsync=P, enospc=P add disk faults when --data-dir is set)\n--workers sets the epoll reactor's event-loop thread count (0 = auto)\n--slow-log retains requests at least MICROS us end-to-end in the slow ring\n  (0 retains everything; omit to disable the slow log)\n--data-dir appends every acknowledged mutation to a checksummed log under PATH\n  and replays it on restart (omit for a pure in-memory cache)\n--fsync picks the durability level for --data-dir (always|interval|never)\n--segment-bytes rotates the append log at N bytes (min 4096)\n--log-level is one of {}\n\n{}\n",
        LogLevel::HELP,
        EvictionMode::HELP
    )
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:11311".to_owned();
    let mut memory_mb: u64 = 64;
    let mut eviction = EvictionMode::Camp(Precision::PAPER_DEFAULT);
    let mut shards: usize = 1;
    let mut slab_kb: u32 = 1024;
    let mut metrics_addr: Option<String> = None;
    let mut max_conns: usize = 1024;
    let mut max_value_bytes: usize = camp_kvs::protocol::DEFAULT_MAX_VALUE_LEN;
    let mut idle_secs: u64 = 60;
    let mut drain_secs: u64 = 5;
    let mut chaos: Option<FaultPlan> = None;
    let mut workers: usize = 0;
    let mut slow_log_us: Option<u64> = None;
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncMode::default();
    let mut segment_bytes: u64 = 64 << 20;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--listen" => listen = value("--listen")?,
                "--memory-mb" => {
                    memory_mb = value("--memory-mb")?
                        .parse()
                        .map_err(|_| "bad --memory-mb".to_owned())?;
                }
                "--policy" => {
                    eviction = value("--policy")?
                        .parse()
                        .map_err(|e| format!("bad --policy: {e}"))?;
                }
                "--shards" => {
                    shards = value("--shards")?
                        .parse()
                        .map_err(|_| "bad --shards".to_owned())?;
                }
                "--slab-kb" => {
                    slab_kb = value("--slab-kb")?
                        .parse()
                        .map_err(|_| "bad --slab-kb".to_owned())?;
                }
                "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
                "--max-conns" => {
                    max_conns = value("--max-conns")?
                        .parse()
                        .map_err(|_| "bad --max-conns".to_owned())?;
                }
                "--max-value-bytes" => {
                    max_value_bytes = value("--max-value-bytes")?
                        .parse()
                        .map_err(|_| "bad --max-value-bytes".to_owned())?;
                }
                "--idle-secs" => {
                    idle_secs = value("--idle-secs")?
                        .parse()
                        .map_err(|_| "bad --idle-secs".to_owned())?;
                }
                "--drain-secs" => {
                    drain_secs = value("--drain-secs")?
                        .parse()
                        .map_err(|_| "bad --drain-secs".to_owned())?;
                }
                "--chaos" => {
                    chaos = Some(
                        value("--chaos")?
                            .parse()
                            .map_err(|e| format!("bad --chaos: {e}"))?,
                    );
                }
                "--workers" => {
                    workers = value("--workers")?
                        .parse()
                        .map_err(|_| "bad --workers".to_owned())?;
                }
                "--slow-log" => {
                    slow_log_us = Some(
                        value("--slow-log")?
                            .parse()
                            .map_err(|_| "bad --slow-log".to_owned())?,
                    );
                }
                "--data-dir" => data_dir = Some(value("--data-dir")?),
                "--fsync" => {
                    fsync = value("--fsync")?
                        .parse()
                        .map_err(|e| format!("bad --fsync: {e}"))?;
                }
                "--segment-bytes" => {
                    segment_bytes = value("--segment-bytes")?
                        .parse()
                        .map_err(|_| "bad --segment-bytes".to_owned())?;
                    if segment_bytes < MIN_SEGMENT_BYTES {
                        return Err(format!(
                            "--segment-bytes must be at least {MIN_SEGMENT_BYTES}"
                        ));
                    }
                }
                "--log-level" => {
                    let level: LogLevel = value("--log-level")?
                        .parse()
                        .map_err(|e| format!("bad --log-level: {e}"))?;
                    camp_telemetry::set_level(level);
                }
                "--help" | "-h" => {
                    print!("{}", usage());
                    std::process::exit(0);
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            eprintln!("{message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    let slab_size = slab_kb.saturating_mul(1024).max(4096);
    let max_slabs =
        u32::try_from((memory_mb * 1024 * 1024) / u64::from(slab_size)).unwrap_or(u32::MAX);
    let config = StoreConfig {
        slab: SlabConfig::small(slab_size, max_slabs.max(1)),
        eviction: eviction.clone(),
    };

    // Install the handlers before the server starts accepting, so a
    // signal delivered at any point after bind is never fatal.
    let signals = match SignalWatcher::install() {
        Ok(watcher) => watcher,
        Err(error) => {
            kvlog!(LogLevel::Error, "signal_install_failed", error = error);
            return ExitCode::FAILURE;
        }
    };

    let chaos_banner = chaos.as_ref().map(ToString::to_string);
    let persist = data_dir.as_ref().map(|dir| {
        let mut popts = PersistOptions::new(dir);
        popts.fsync = fsync;
        popts.segment_bytes = segment_bytes;
        popts
    });
    let persist_banner = persist
        .as_ref()
        .map_or_else(|| "disabled".to_owned(), |p| p.fsync.to_string());
    let options = ServerOptions {
        config,
        shards: shards.max(1),
        metrics_addr,
        max_conns,
        max_value_len: max_value_bytes.max(1),
        idle_timeout: Duration::from_secs(idle_secs),
        fault_plan: chaos,
        workers,
        slow_log_us,
        persist,
    };
    let server = match Server::start_with(&listen, options) {
        Ok(server) => server,
        Err(error) => {
            kvlog!(LogLevel::Error, "bind_failed", addr = listen, error = error);
            return ExitCode::FAILURE;
        }
    };
    kvlog!(
        LogLevel::Info,
        "camp_kvsd_ready",
        addr = server.local_addr(),
        memory_mb = memory_mb,
        policy = eviction,
        shards = shards.max(1),
        slab_kb = slab_size / 1024,
        max_conns = max_conns,
        max_value_bytes = max_value_bytes,
        idle_secs = idle_secs,
        drain_secs = drain_secs,
        persist = persist_banner,
    );
    if let Some(addr) = server.metrics_addr() {
        kvlog!(LogLevel::Info, "metrics_exposition", addr = addr);
    }
    if let Some(spec) = chaos_banner {
        kvlog!(LogLevel::Warn, "chaos_enabled", plan = spec);
    }

    // Block until SIGTERM/SIGINT, then drain gracefully.
    let signal = signals.wait();
    kvlog!(LogLevel::Info, "signal_received", signal = signal);
    let report = server.shutdown_with_drain(Duration::from_secs(drain_secs));
    kvlog!(
        LogLevel::Info,
        "camp_kvsd_exit",
        drained = report.drained,
        severed = report.severed,
        requests_completed = report.requests_completed,
        elapsed_ms = report.elapsed_ms,
    );
    ExitCode::SUCCESS
}
