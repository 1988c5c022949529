//! End-to-end telemetry tests over real TCP: the `stats detail` table, the
//! `stats reset` command, and the Prometheus exposition listener, exercised
//! against every eviction mode.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use camp_core::Precision;
use camp_kvs::client::Client;
use camp_kvs::persist::{FsyncMode, PersistOptions};
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

fn options(mode: EvictionMode, shards: usize) -> ServerOptions {
    ServerOptions {
        shards,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(16 * 1024, 8),
            eviction: mode,
        })
    }
}

fn scrape(server: &Server) -> String {
    let addr = server.metrics_addr().expect("metrics listener bound");
    let mut stream = TcpStream::connect(addr).expect("connect to metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "content type: {head}"
    );
    body.to_owned()
}

fn parse_u64(table: &BTreeMap<String, String>, key: &str) -> u64 {
    table
        .get(key)
        .unwrap_or_else(|| panic!("missing STAT {key} in {table:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("STAT {key} is not a number"))
}

/// The acceptance scenario: under `--policy camp:5`, `stats detail` and the
/// exposition both report per-command latency quantiles and the policy's
/// internal gauges.
#[test]
fn stats_detail_reports_quantiles_and_camp_internals() {
    let server = Server::start_with(
        "127.0.0.1:0",
        options(EvictionMode::Camp(Precision::Bits(5)), 1),
    )
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Drive traffic with distinct costs so CAMP builds several queues, and
    // enough volume to fill every latency histogram we assert on.
    for i in 0..120u32 {
        let key = format!("key-{i:03}");
        let cost = 1 + u64::from(i % 4) * 1000;
        assert!(client
            .iqset(key.as_bytes(), &[0u8; 64], 0, 0, Some(cost))
            .unwrap());
    }
    for i in 0..20u32 {
        let key = format!("plain-{i:02}");
        assert!(client.set(key.as_bytes(), &[0u8; 32], 0, 0).unwrap());
    }
    for i in 0..120u32 {
        let key = format!("key-{i:03}");
        let _ = client.get(key.as_bytes()).unwrap();
        let _ = client.iqget(key.as_bytes()).unwrap();
    }
    client.delete(b"key-000").unwrap();
    // An unmatched iqget miss arms the registry gauge.
    assert!(client.iqget(b"never-set").unwrap().is_none());

    let detail = client.stats_detail().expect("stats detail");

    // Latency quantiles, per command.
    for command in ["get", "iqget", "set", "iqset", "delete"] {
        let count = parse_u64(&detail, &format!("latency:{command}:count"));
        assert!(count > 0, "{command} histogram is empty: {detail:?}");
        let p50 = parse_u64(&detail, &format!("latency:{command}:p50_us"));
        let p99 = parse_u64(&detail, &format!("latency:{command}:p99_us"));
        let max = parse_u64(&detail, &format!("latency:{command}:max_us"));
        assert!(p50 <= p99, "{command}: p50 {p50} > p99 {p99}");
        assert!(p99 <= max.max(1), "{command}: p99 {p99} > max {max}");
    }

    // At least four policy-internal gauges: L, queue count, heap visits,
    // and the eviction-cause split.
    assert!(detail.contains_key("policy:0:l_value"), "{detail:?}");
    assert!(parse_u64(&detail, "policy:0:queue_count") >= 2);
    assert!(parse_u64(&detail, "policy:0:heap_visits") > 0);
    assert!(detail.contains_key("evictions:capacity"));
    assert!(detail.contains_key("evictions:slab_reassign"));
    assert!(detail.contains_key("evictions:expired"));
    // Per-ratio queue lengths ride along as labelled gauges.
    assert!(
        detail.keys().any(|k| k.starts_with("policy:0:queue_len:")),
        "{detail:?}"
    );
    // IQ registry gauges.
    assert!(parse_u64(&detail, "iq_miss_registry_size") >= 1);
    assert!(detail.contains_key("iq_sweep_reclaimed"));

    // The exposition agrees: same counters, same internals.
    let body = scrape(&server);
    for needle in [
        "# TYPE camp_get_latency_us summary",
        "camp_get_latency_us{quantile=\"0.5\"}",
        "camp_get_latency_us{quantile=\"0.99\"}",
        "camp_iqset_latency_us_count",
        "camp_policy_l_value{shard=\"0\"}",
        "camp_policy_queue_count{shard=\"0\"}",
        "camp_policy_heap_visits{shard=\"0\"}",
        "camp_policy_queue_len{shard=\"0\",ratio=",
        "camp_evictions_total{cause=\"capacity\"}",
        "camp_evictions_total{cause=\"slab_reassign\"}",
        "camp_evictions_total{cause=\"expired\"}",
        "camp_iq_miss_registry_size 1",
    ] {
        assert!(body.contains(needle), "missing {needle} in:\n{body}");
    }
    let hits = parse_u64(&detail, "get_hits");
    assert!(
        body.contains(&format!("camp_get_hits_total {hits}")),
        "protocol and exposition disagree on get_hits"
    );

    client.quit().unwrap();
    server.shutdown();
}

/// Every eviction mode serves a scrapeable exposition with the universal
/// families present — the schema does not depend on the policy.
#[test]
fn every_mode_exposes_the_universal_families() {
    for name in EvictionMode::all_names() {
        let mode: EvictionMode = name.parse().expect("valid mode name");
        let server = Server::start_with("127.0.0.1:0", options(mode, 2)).expect("start server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for i in 0..40u32 {
            let key = format!("k{i}");
            assert!(client.set(key.as_bytes(), &[0u8; 32], 0, 0).unwrap());
            let _ = client.get(key.as_bytes()).unwrap();
        }
        let body = scrape(&server);
        for needle in [
            "# TYPE camp_get_latency_us summary",
            "# TYPE camp_set_latency_us summary",
            "# TYPE camp_delete_latency_us summary",
            "# TYPE camp_iqget_latency_us summary",
            "# TYPE camp_iqset_latency_us summary",
            "camp_get_hits_total 40",
            "camp_cmd_set_total 40",
            "camp_evictions_total{cause=\"capacity\"}",
            "camp_policy_items{shard=\"0\"}",
            "camp_policy_items{shard=\"1\"}",
            "camp_policy_used_bytes{shard=\"0\"}",
            "camp_shard_items{shard=\"0\"}",
            "camp_iq_miss_registry_size 0",
            "camp_build_info{",
            // The durability families keep their all-zero "disabled" row.
            "camp_persist_state 0",
            "camp_persist_commits_total 0",
            "camp_persist_commit_records_total 0",
            "camp_persist_writes_total 0",
            "camp_persist_reserves_total 0",
            "camp_persist_sync_us_count 0",
        ] {
            assert!(
                body.contains(needle),
                "{name}: missing {needle} in:\n{body}"
            );
        }
        client.quit().unwrap();
        server.shutdown();
    }
}

/// `stats reset` zeroes counters and histograms without touching contents.
#[test]
fn stats_reset_zeroes_counters_but_keeps_items() {
    let server = Server::start_with(
        "127.0.0.1:0",
        options(EvictionMode::Camp(Precision::Bits(5)), 2),
    )
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..30u32 {
        let key = format!("k{i}");
        assert!(client.set(key.as_bytes(), &[0u8; 32], 0, 0).unwrap());
        let _ = client.get(key.as_bytes()).unwrap();
    }
    let before = client.stats_detail().unwrap();
    assert_eq!(parse_u64(&before, "get_hits"), 30);
    assert!(parse_u64(&before, "latency:set:count") >= 30);
    assert!(parse_u64(&before, "policy:0:heap_visits") > 0);

    client.stats_reset().expect("stats reset");

    let after = client.stats_detail().unwrap();
    assert_eq!(parse_u64(&after, "get_hits"), 0);
    assert_eq!(parse_u64(&after, "cmd_set"), 0);
    // The reset and this stats query themselves land in the fresh "other"
    // histogram, but the data-path histograms restart from zero...
    assert_eq!(parse_u64(&after, "latency:set:count"), 0);
    assert_eq!(parse_u64(&after, "latency:get:count"), 0);
    // ...heap instrumentation re-baselines...
    assert_eq!(parse_u64(&after, "policy:0:heap_visits"), 0);
    // ...and the cache contents survive.
    assert_eq!(parse_u64(&after, "curr_items"), 30);
    assert!(client.get(b"k0").unwrap().is_some());

    client.quit().unwrap();
    server.shutdown();
}

/// Pulls one numeric `name=value` field out of a trace dump line.
fn span_field(line: &str, name: &str) -> u64 {
    line.split(' ')
        .find_map(|f| f.strip_prefix(name))
        .unwrap_or_else(|| panic!("missing {name} in `{line}`"))
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not numeric in `{line}`"))
}

/// The flight recorder end to end over real TCP: `--slow-log 0` promotes
/// every request to the slow ring, `trace` dumps spans whose phases are
/// monotonic, eviction decisions carry CAMP's internals, `stats profile`
/// reports the shadow estimates, and the metrics listener serves both the
/// `/trace` page and the new Prometheus families.
#[test]
fn trace_dump_is_monotonic_and_profiler_reports() {
    let mut opts = options(EvictionMode::Camp(Precision::Bits(5)), 2);
    opts.slow_log_us = Some(0);
    let server = Server::start_with("127.0.0.1:0", opts).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Enough volume to overflow the 128 KiB of slab budget and force
    // capacity evictions, with distinct costs for the cost histogram.
    for i in 0..1000u32 {
        let key = format!("trace-key-{i:04}");
        let cost = 1 + u64::from(i % 8) * 500;
        assert!(client
            .iqset(key.as_bytes(), &[0u8; 200], 0, 0, Some(cost))
            .unwrap());
    }
    for i in 0..200u32 {
        let key = format!("trace-key-{i:04}");
        let _ = client.get(key.as_bytes()).unwrap();
    }

    let lines = client.trace().expect("trace");
    assert!(
        lines.iter().any(|l| l == "TRACE slow_threshold_us 0"),
        "{lines:?}"
    );
    let spans_recorded = lines
        .iter()
        .find_map(|l| l.strip_prefix("TRACE spans_recorded "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("spans_recorded header");
    assert!(
        spans_recorded >= 1200,
        "all commands span: {spans_recorded}"
    );

    // Every dumped span (fast ring and slow ring alike) reconstructs:
    // monotonic phases mean the deltas sum exactly to the total.
    let mut dumped = 0;
    for line in &lines {
        if !line.starts_with("SPAN ") && !line.starts_with("SLOW ") {
            continue;
        }
        dumped += 1;
        let parse_us = span_field(line, "parse_us=");
        let exec_us = span_field(line, "exec_us=");
        let flush_us = span_field(line, "flush_us=");
        let total_us = span_field(line, "total_us=");
        assert_eq!(
            total_us,
            parse_us + exec_us + flush_us,
            "non-monotonic phases in `{line}`"
        );
        assert!(span_field(line, "wire=") > 0, "{line}");
    }
    assert!(dumped > 0, "no spans dumped: {lines:?}");
    assert!(
        lines.iter().any(|l| l.starts_with("SLOW ")),
        "threshold 0 must promote spans to the slow ring: {lines:?}"
    );

    // Eviction decisions: admissions from the sets, capacity evictions
    // from the overflow, and CAMP's ratio/L internals on the records.
    assert!(
        lines.iter().any(|l| l.starts_with("EVICTION kind=admit")),
        "{lines:?}"
    );
    let evict_line = lines
        .iter()
        .find(|l| l.starts_with("EVICTION kind=evict"))
        .expect("capacity evictions traced");
    assert!(span_field(evict_line, "size=") > 0, "{evict_line}");
    assert!(evict_line.contains(" ratio="), "{evict_line}");
    assert!(evict_line.contains(" l="), "{evict_line}");

    // The shadow profiler's what-if table.
    let profile = client.stats_profile().expect("stats profile");
    assert_eq!(parse_u64(&profile, "profile:sample_modulus"), 64);
    for scale in ["0.5x", "1x", "2x"] {
        assert!(
            profile.contains_key(&format!("profile:{scale}:hit_ratio")),
            "{profile:?}"
        );
        assert!(parse_u64(&profile, &format!("profile:{scale}:capacity")) > 0);
    }
    let half = parse_u64(&profile, "profile:0.5x:capacity");
    let double = parse_u64(&profile, "profile:2x:capacity");
    assert!(half < double, "{profile:?}");

    // `stats detail` carries the trace and reactor sections too.
    let detail = client.stats_detail().expect("stats detail");
    assert!(parse_u64(&detail, "trace:spans_recorded") >= spans_recorded);
    assert!(parse_u64(&detail, "trace:admits") >= 1000);
    assert!(detail.contains_key("reactor:worker0"), "{detail:?}");

    // The metrics listener serves the `/trace` page...
    let addr = server.metrics_addr().expect("metrics listener bound");
    let mut stream = TcpStream::connect(addr).expect("connect to metrics");
    stream
        .write_all(b"GET /trace HTTP/1.0\r\n\r\n")
        .expect("send trace request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read trace");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("TRACE spans_recorded"), "{body}");
    assert!(body.contains("SPAN "), "{body}");

    // ...and the Prometheus families the flight recorder derives.
    let metrics_body = scrape(&server);
    for needle in [
        "camp_trace_spans_total",
        "camp_trace_slow_total",
        "camp_trace_admits_total",
        "camp_trace_evictions_total",
        "# TYPE camp_eviction_cost summary",
        "camp_eviction_cost_count",
        "camp_l_value{quantile=\"0.5\"}",
        "camp_shadow_hit_ratio{scale=\"1x\"}",
        "camp_shadow_est_miss_cost_total{scale=\"0.5x\"}",
        "camp_shadow_sampled_gets_total{scale=\"2x\"}",
        "camp_reactor_live_connections{worker=\"0\"}",
        "camp_reactor_epoll_wakeups_total{worker=\"0\"}",
    ] {
        assert!(
            metrics_body.contains(needle),
            "missing {needle} in:\n{metrics_body}"
        );
    }

    client.quit().unwrap();
    server.shutdown();
}

/// The `stats` summary carries the per-shard breakdown, and the shard rows
/// sum to the aggregate.
#[test]
fn summary_breaks_down_per_shard() {
    let server =
        Server::start_with("127.0.0.1:0", options(EvictionMode::Lru, 4)).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..80u32 {
        let key = format!("key-{i}");
        assert!(client.set(key.as_bytes(), &[0u8; 32], 0, 0).unwrap());
    }
    let stats = client.stats().expect("stats");
    let mut shard_items = 0u64;
    let mut rows = 0;
    for shard in 0..4 {
        let row = stats
            .get(&format!("shard:{shard}"))
            .unwrap_or_else(|| panic!("missing shard {shard} row in {stats:?}"));
        // Row format: `items=N bytes=N hits=N misses=N evictions=N`.
        let items_field = row
            .split(' ')
            .find_map(|f| f.strip_prefix("items="))
            .expect("items field");
        shard_items += items_field.parse::<u64>().expect("numeric items");
        rows += 1;
    }
    assert_eq!(rows, 4);
    assert_eq!(shard_items, parse_u64(&stats, "curr_items"));
    client.quit().unwrap();
    server.shutdown();
}

/// The value of an unlabelled Prometheus sample.
fn sample(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("missing sample {name} in:\n{body}"))
        .parse()
        .unwrap_or_else(|_| panic!("sample {name} is not an integer"))
}

/// Commit accounting under `--fsync always`: once every reply has been
/// read, every mutation record the log holds has been covered by exactly
/// one commit (rotations included; no compaction snapshot in this run, so
/// there are no snapshot records to subtract), the syncs were shared and no
/// commit needed a second `write`, every fsync is in the `sync_us` histogram,
/// and `stats detail` agrees with the exposition.
#[test]
fn commit_accounting_is_self_consistent_under_fsync_always() {
    let dir = std::env::temp_dir().join(format!("camp-telemetry-commit-{}", std::process::id()));
    let mut opts = options(EvictionMode::Camp(Precision::Bits(5)), 2);
    opts.workers = 2;
    opts.persist = Some(PersistOptions {
        fsync: FsyncMode::Always,
        // Small segments, generous retention: rotations, never a snapshot.
        segment_bytes: 8 * 1024,
        keep_segments: 1024,
        ..PersistOptions::new(&dir)
    });
    let server = Server::start_with("127.0.0.1:0", opts).expect("start server");

    // Three connections, each pipelining a mix of every mutating verb.
    let mut mutations = 0u64;
    let streams: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    for round in 0..20u32 {
        for (conn, stream) in streams.iter().enumerate() {
            let mut batch = Vec::new();
            for i in 0..8u32 {
                write!(batch, "set c{conn}-k{i} 0 0 4\r\n{round:04}\r\n").unwrap();
            }
            write!(batch, "incr c{conn}-k0 1\r\n").unwrap();
            write!(batch, "touch c{conn}-k1 0\r\n").unwrap();
            write!(batch, "delete c{conn}-k2\r\n").unwrap();
            write!(batch, "get c{conn}-k3\r\n").unwrap();
            (&*stream).write_all(&batch).expect("send batch");
            mutations += 11;
        }
        for stream in &streams {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            // 8 STORED, incr value, TOUCHED, DELETED, then VALUE/data/END.
            for _ in 0..14 {
                line.clear();
                assert!(reader.read_line(&mut line).expect("reply") > 0);
            }
            assert_eq!(line.trim_end(), "END");
        }
    }
    drop(streams);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let detail = client.stats_detail().expect("stats detail");
    let records = parse_u64(&detail, "persist:records");
    let commits = parse_u64(&detail, "persist:commits");
    let fsyncs = parse_u64(&detail, "persist:fsyncs");
    assert_eq!(parse_u64(&detail, "persist:errors"), 0);
    assert_eq!(parse_u64(&detail, "persist:snapshots"), 0);
    assert!(parse_u64(&detail, "persist:segments") >= 3, "{detail:?}");
    assert_eq!(records, mutations, "one record per acknowledged mutation");
    assert_eq!(
        parse_u64(&detail, "persist:commit_records"),
        records,
        "every record was covered by exactly one commit"
    );
    assert_eq!(commits, fsyncs, "no snapshot, no seal: every fsync commits");
    assert!(
        commits < records / 2,
        "{commits} commits for {records} records: no group formed"
    );
    // No snapshot flushes here, so every record-carrying write is a commit's.
    let writes = parse_u64(&detail, "persist:writes");
    assert!(
        0 < writes && writes <= commits,
        "{writes} writes for {commits} commits"
    );
    let segments = parse_u64(&detail, "persist:segments");
    assert_eq!(parse_u64(&detail, "persist:reserves"), segments);
    assert_eq!(
        parse_u64(&detail, "persist:reserved_bytes"),
        segments * (8 + 8) * 1024,
        "each segment's size plus the slack, in one reservation"
    );
    let p50 = parse_u64(&detail, "persist:sync_us:p50");
    let p99 = parse_u64(&detail, "persist:sync_us:p99");
    let max = parse_u64(&detail, "persist:sync_us:max");
    assert!(p50 <= p99 && p99 <= max, "{p50} {p99} {max}");

    let body = scrape(&server);
    assert_eq!(sample(&body, "camp_persist_records_total"), records);
    assert_eq!(sample(&body, "camp_persist_commits_total"), commits);
    assert_eq!(sample(&body, "camp_persist_commit_records_total"), records);
    assert_eq!(sample(&body, "camp_persist_fsyncs_total"), fsyncs);
    assert_eq!(sample(&body, "camp_persist_writes_total"), writes);
    assert_eq!(sample(&body, "camp_persist_reserves_total"), segments);
    assert_eq!(sample(&body, "camp_persist_sync_us_count"), fsyncs);

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One raw connection that counts what it writes: a batch goes out in one
/// `write`, closed by a `version` sentinel, and every reply line up to the
/// sentinel's comes back.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    commands: u64,
    bytes: u64,
}

impl RawConn {
    fn connect(server: &Server) -> RawConn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();
        RawConn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
            commands: 0,
            bytes: 0,
        }
    }

    /// Sends `batch` (`commands` complete commands) plus the sentinel and
    /// returns the reply lines ahead of the sentinel's.
    fn roundtrip(&mut self, mut batch: Vec<u8>, commands: u64) -> Vec<String> {
        batch.extend_from_slice(b"version\r\n");
        self.stream.write_all(&batch).expect("send batch");
        self.commands += commands + 1;
        self.bytes += batch.len() as u64;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).expect("reply") > 0, "EOF");
            let line = line.trim_end().to_owned();
            if line.starts_with("VERSION ") {
                return lines;
            }
            lines.push(line);
        }
    }

    /// `stats detail` as a table (shard rows keep their `k=v` text).
    fn stats_detail(&mut self) -> BTreeMap<String, String> {
        stat_table(&self.roundtrip(b"stats detail\r\n".to_vec(), 1))
    }

    /// Half-closes and waits for the server's close: past it, everything
    /// this connection's commands counted — their spans included, which
    /// are recorded after the flush — is visible.
    fn finish(mut self) -> (u64, u64) {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).expect("drain to EOF");
        assert!(rest.is_empty(), "unread replies: {rest:?}");
        (self.commands, self.bytes)
    }
}

fn stat_table(lines: &[String]) -> BTreeMap<String, String> {
    lines
        .iter()
        .filter_map(|l| l.strip_prefix("STAT "))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

/// Sums field `name=` over the `shard:<i>` rows of a `stats` table.
fn shard_sum(table: &BTreeMap<String, String>, shards: usize, name: &str) -> u64 {
    (0..shards)
        .map(|i| {
            let row = &table[&format!("shard:{i}")];
            span_field(row, name)
        })
        .sum()
}

const DATA_COMMANDS: [&str; 5] = ["get", "iqget", "set", "iqset", "delete"];

fn latency_total(table: &BTreeMap<String, String>) -> u64 {
    DATA_COMMANDS
        .iter()
        .chain(&["other"])
        .map(|c| parse_u64(table, &format!("latency:{c}:count")))
        .sum()
}

/// Every identity the metrics imply, on two workers and four shards, with
/// the worker-local tallies, the per-shard eviction histograms and the
/// batched span recording all in play. Checked at quiescence: every load
/// connection has been closed by the server (so its spans are recorded)
/// and the reporting connection works strictly one reply at a time.
///
/// Which evictions are traced: every policy eviction, under slab pressure
/// or the policy's own byte budget, emits one event and counts in
/// `evictions`; items lost to a slab reassignment (`slab_evictions`), to
/// expiry or to a fingerprint collision emit none. So `trace:evictions`
/// equals `evictions`, and `trace:admits` equals `cmd_set`.
#[test]
fn metric_identities_hold_at_quiescence() {
    const SHARDS: usize = 4;
    let mut opts = options(EvictionMode::Camp(Precision::Bits(5)), SHARDS);
    opts.workers = 2;
    let server = Server::start_with("127.0.0.1:0", opts).expect("start server");

    // Three connections x pipeline 32: iqget (miss or hit), iqset with a
    // cost hint, get, delete, over far more keys than 128 KiB holds, in
    // two value sizes so slabs change class as well. One round carries a
    // `stats detail` and a `trace` in the middle of the pipeline.
    let mut conns: Vec<RawConn> = (0..3).map(|_| RawConn::connect(&server)).collect();
    let mut mid_pipeline_seen = 0;
    for round in 0..24u32 {
        for (c, conn) in conns.iter_mut().enumerate() {
            let mut batch = Vec::new();
            let len = if round < 12 { 40 } else { 700 };
            for i in 0..8u32 {
                let key = format!("k{c}-{}", (round * 8 + i) % 150);
                let cost = 1 + u64::from(i % 4) * 300;
                write!(batch, "iqget {key}\r\n").unwrap();
                write!(batch, "iqset {key} 0 0 {len} {cost}\r\n").unwrap();
                batch.extend(std::iter::repeat_n(b'x', len));
                batch.extend_from_slice(b"\r\n");
                write!(batch, "get k{c}-{}\r\n", (round * 5 + i) % 150).unwrap();
                if i % 2 == 0 {
                    write!(batch, "delete k{c}-{}\r\n", (round * 3 + i) % 150).unwrap();
                } else {
                    write!(batch, "get k{}-{i}\r\n", (c + 1) % 3).unwrap();
                }
                if round == 7 && i == 3 {
                    batch.extend_from_slice(b"stats detail\r\n");
                }
                if round == 7 && i == 5 {
                    batch.extend_from_slice(b"trace\r\n");
                }
            }
            let commands = if round == 7 { 34 } else { 32 };
            let lines = conn.roundtrip(batch, commands);
            if round == 7 {
                // Both dumps arrived whole, between ordinary replies.
                assert!(lines
                    .iter()
                    .any(|l| l.starts_with("STAT latency:iqset:count ")));
                assert!(lines.iter().any(|l| l.starts_with("TRACE spans_recorded ")));
                mid_pipeline_seen += 1;
            }
        }
    }
    assert_eq!(mid_pipeline_seen, 3);

    // Far more pipelined commands in one write than a connection may hold
    // spans for: the excess must be counted, not lost.
    let burst = b"get absent\r\n".repeat(12_000);
    conns[0].roundtrip(burst, 12_000);

    let mut sent_commands = 0;
    let mut sent_bytes = 0;
    for conn in conns {
        let (commands, bytes) = conn.finish();
        sent_commands += commands;
        sent_bytes += bytes;
    }

    // A `stats` pipelined behind 31 gets in the same write counts all 31.
    let mut reporter = RawConn::connect(&server);
    let before = reporter.stats_detail();
    let mut batch = b"get absent\r\n".repeat(31);
    batch.extend_from_slice(b"stats detail\r\n");
    let behind = stat_table(&reporter.roundtrip(batch, 32));
    assert_eq!(
        parse_u64(&behind, "latency:get:count"),
        parse_u64(&before, "latency:get:count") + 31
    );
    assert_eq!(
        parse_u64(&behind, "get_misses"),
        parse_u64(&before, "get_misses") + 31
    );

    let detail = reporter.stats_detail();
    // Everything sent so far but the `stats detail` that is reporting.
    let completed = sent_commands + reporter.commands - 2;
    let completed_bytes = sent_bytes + reporter.bytes - "stats detail\r\nversion\r\n".len() as u64;

    // Every command was timed once and spanned once (recorded or dropped).
    assert_eq!(latency_total(&detail), completed);
    let recorded = parse_u64(&detail, "trace:spans_recorded");
    let dropped = parse_u64(&detail, "trace:spans_dropped");
    assert_eq!(recorded + dropped, completed);
    assert!(dropped > 0, "the 12 000-deep burst dropped no span");
    // Every byte the clients wrote was attributed to a command class.
    let bytes_read: u64 = DATA_COMMANDS
        .iter()
        .chain(&["other"])
        .map(|c| parse_u64(&detail, &format!("bytes_read:{c}")))
        .sum();
    assert_eq!(bytes_read, completed_bytes);
    // Single-key lookups: each one is a hit or a miss.
    let (hits, misses) = (
        parse_u64(&detail, "get_hits"),
        parse_u64(&detail, "get_misses"),
    );
    assert_eq!(
        parse_u64(&detail, "latency:get:count") + parse_u64(&detail, "latency:iqget:count"),
        hits + misses
    );
    assert!(hits > 0 && misses > 0);
    assert_eq!(
        parse_u64(&detail, "latency:iqset:count"),
        parse_u64(&detail, "cmd_set")
    );
    // The per-shard eviction tallies against the per-shard store counters.
    let evictions = parse_u64(&detail, "evictions");
    assert!(evictions > 0, "no eviction pressure: {detail:?}");
    assert_eq!(parse_u64(&detail, "trace:evictions"), evictions);
    assert_eq!(
        parse_u64(&detail, "trace:admits"),
        parse_u64(&detail, "cmd_set")
    );
    assert_eq!(
        parse_u64(&detail, "evictions:capacity"),
        evictions,
        "one name, one value"
    );
    // Shard rows sum to the totals.
    assert_eq!(shard_sum(&detail, SHARDS, "hits="), hits);
    assert_eq!(shard_sum(&detail, SHARDS, "misses="), misses);
    assert_eq!(
        shard_sum(&detail, SHARDS, "evictions="),
        evictions + parse_u64(&detail, "slab_evictions")
    );
    assert_eq!(
        shard_sum(&detail, SHARDS, "items="),
        parse_u64(&detail, "curr_items")
    );

    // STAT and Prometheus agree value for value. Since `detail` only that
    // one `stats detail` + sentinel completed (2 commands, 23 bytes).
    let mut body = scrape(&server);
    for _ in 0..200 {
        // Its two spans are recorded just after its reply was flushed.
        if sample(&body, "camp_trace_spans_total") == recorded + 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        body = scrape(&server);
    }
    assert_eq!(sample(&body, "camp_trace_spans_total"), recorded + 2);
    assert_eq!(sample(&body, "camp_trace_spans_dropped_total"), dropped);
    for command in DATA_COMMANDS {
        assert_eq!(
            sample(&body, &format!("camp_{command}_latency_us_count")),
            parse_u64(&detail, &format!("latency:{command}:count"))
        );
        assert_eq!(
            sample(
                &body,
                &format!("camp_bytes_read_total{{cmd=\"{command}\"}}")
            ),
            parse_u64(&detail, &format!("bytes_read:{command}"))
        );
    }
    assert_eq!(
        sample(&body, "camp_other_latency_us_count"),
        parse_u64(&detail, "latency:other:count") + 2
    );
    assert_eq!(
        sample(&body, "camp_bytes_read_total{cmd=\"other\"}"),
        parse_u64(&detail, "bytes_read:other") + 23
    );
    for (family, stat) in [
        ("camp_get_hits_total", "get_hits"),
        ("camp_get_misses_total", "get_misses"),
        ("camp_cmd_set_total", "cmd_set"),
        ("camp_deletes_total", "deletes"),
        ("camp_evictions_total{cause=\"capacity\"}", "evictions"),
        (
            "camp_evictions_total{cause=\"slab_reassign\"}",
            "slab_evictions",
        ),
        ("camp_evictions_total{cause=\"expired\"}", "expired"),
        ("camp_trace_admits_total", "trace:admits"),
        ("camp_trace_evictions_total", "trace:evictions"),
        ("camp_items", "curr_items"),
        (
            "camp_reactor_flush_writev_segments_count",
            "reactor:flush_segments:count",
        ),
    ] {
        // The flush histogram moved by the one flush since `detail`.
        let moved = u64::from(stat == "reactor:flush_segments:count");
        assert_eq!(
            sample(&body, family),
            parse_u64(&detail, stat) + moved,
            "{family}"
        );
    }
    // No `--data-dir`: the barrier has nothing to write (`persist:writes <=
    // persist:commits + snapshot flushes` reads 0 <= 0; the run with a data
    // dir is `commit_accounting_is_self_consistent_under_fsync_always`).
    assert_eq!(sample(&body, "camp_persist_writes_total"), 0);
    assert_eq!(sample(&body, "camp_persist_commits_total"), 0);
    // The histograms over the traced decisions: one cost per eviction,
    // one L per decision made after L left zero.
    assert_eq!(sample(&body, "camp_eviction_cost_count"), evictions);
    let l_count = sample(&body, "camp_l_value_count");
    assert!(l_count > 0 && l_count <= evictions + parse_u64(&detail, "cmd_set"));
    for shard in 0..SHARDS {
        let row = &detail[&format!("shard:{shard}")];
        assert_eq!(
            sample(
                &body,
                &format!("camp_shard_hits_total{{shard=\"{shard}\"}}")
            ),
            span_field(row, "hits=")
        );
        assert_eq!(
            sample(
                &body,
                &format!("camp_shard_evictions_total{{shard=\"{shard}\"}}")
            ),
            span_field(row, "evictions=")
        );
    }

    // `stats reset` leaves nothing behind to surface later: the only
    // things counted afterwards are the reset and its sentinel.
    assert_eq!(
        reporter.roundtrip(b"stats reset\r\n".to_vec(), 1),
        ["RESET"]
    );
    let after = reporter.stats_detail();
    for command in DATA_COMMANDS {
        assert_eq!(parse_u64(&after, &format!("latency:{command}:count")), 0);
        assert_eq!(parse_u64(&after, &format!("bytes_read:{command}")), 0);
    }
    assert_eq!(parse_u64(&after, "latency:other:count"), 2);
    assert_eq!(parse_u64(&after, "bytes_read:other"), 22);
    for stat in [
        "trace:admits",
        "trace:evictions",
        "trace:spans_dropped",
        "evictions",
        "get_misses",
        "cmd_set",
    ] {
        assert_eq!(parse_u64(&after, stat), 0, "{stat}");
    }
    assert!(parse_u64(&after, "curr_items") > 0, "contents survive");

    reporter.finish();
    server.shutdown();
}

/// Sums field `name=` over the `reactor:worker<i>` rows of a `stats` table.
fn worker_sum(table: &BTreeMap<String, String>, workers: usize, name: &str) -> u64 {
    (0..workers)
        .map(|i| span_field(&table[&format!("reactor:worker{i}")], name))
        .sum()
}

/// Across two workers, every socket a worker accepted was either opened
/// or refused at the `max_conns` cap, and once the probe is the only
/// connection left, the live gauges and the opened/closed counts agree
/// that one connection remains.
#[test]
fn accepts_split_into_opened_and_refused_across_workers() {
    const WORKERS: usize = 2;
    const MAX_CONNS: usize = 4;
    const DIALS: usize = 12;
    let mut opts = options(EvictionMode::Lru, 1);
    opts.workers = WORKERS;
    opts.max_conns = MAX_CONNS;
    let server = Server::start_with("127.0.0.1:0", opts).expect("start server");
    let mut probe = RawConn::connect(&server);
    assert!(probe.roundtrip(Vec::new(), 0).is_empty());

    // All dials held open at once: the cap admits three beside the probe.
    let dials: Vec<(TcpStream, String)> = (0..DIALS)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("dial");
            stream.write_all(b"version\r\n").expect("send version");
            let mut line = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("first reply");
            (stream, line)
        })
        .collect();
    let refused = dials
        .iter()
        .filter(|(_, line)| line.starts_with("SERVER_ERROR too many connections"))
        .count();
    assert_eq!(refused, DIALS - (MAX_CONNS - 1), "{dials:?}");
    drop(dials);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let detail = loop {
        let detail = probe.stats_detail();
        let opened = parse_u64(&detail, "connections_opened");
        let closed = parse_u64(&detail, "connections_closed");
        if worker_sum(&detail, WORKERS, "live=") == 1 && opened == closed + 1 {
            break detail;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the closed dials never left the counts: {detail:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let opened = parse_u64(&detail, "connections_opened");
    let rejected = parse_u64(&detail, "conn_rejected:max_conns");
    assert_eq!((opened, rejected), (MAX_CONNS as u64, refused as u64));
    assert_eq!(worker_sum(&detail, WORKERS, "accepts="), opened + rejected);

    probe.finish();
    server.shutdown();
}
