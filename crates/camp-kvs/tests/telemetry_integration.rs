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
/// there are no snapshot records to subtract), the syncs were shared, every
/// fsync is in the `sync_us` histogram, and `stats detail` agrees with the
/// exposition.
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
    let p50 = parse_u64(&detail, "persist:sync_us:p50");
    let p99 = parse_u64(&detail, "persist:sync_us:p99");
    let max = parse_u64(&detail, "persist:sync_us:max");
    assert!(p50 <= p99 && p99 <= max, "{p50} {p99} {max}");

    let body = scrape(&server);
    assert_eq!(sample(&body, "camp_persist_records_total"), records);
    assert_eq!(sample(&body, "camp_persist_commits_total"), commits);
    assert_eq!(sample(&body, "camp_persist_commit_records_total"), records);
    assert_eq!(sample(&body, "camp_persist_fsyncs_total"), fsyncs);
    assert_eq!(sample(&body, "camp_persist_sync_us_count"), fsyncs);

    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
