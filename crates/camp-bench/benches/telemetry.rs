//! Telemetry overhead: the cost of one histogram record — shared
//! (`record`: three relaxed `fetch_add`s and one `fetch_max`) and
//! worker-local (`local_record`: four plain adds through `&mut`) — of
//! publishing a local tally (`absorb`), and the store get path with and
//! without a timing wrapper around it.
//!
//! The server's per-command path uses `local_record` plus one clock read
//! and pays `absorb` once per connection cycle; `record` is what it paid
//! per command before, and what the cold paths (fsync timing) still use.
//!
//! Run with `cargo bench -p camp-bench --bench telemetry`.

use std::hint::black_box;
use std::time::Instant;

use camp_bench::micro::Group;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, Store, StoreConfig};
use camp_telemetry::{Histogram, LocalHistogram};

const OPS: u64 = 1_000_000;

fn histogram_record_cost() {
    let group = Group::new("histogram", OPS, 20);
    let histogram = Histogram::new();
    group.case("record", || {
        for i in 0..OPS {
            histogram.record(i & 0xFFFF);
        }
        histogram.count()
    });
    let mut local = LocalHistogram::new();
    group.case("local_record", || {
        for i in 0..OPS {
            local.record(i & 0xFFFF);
        }
        local.count()
    });
    let mut local = LocalHistogram::new();
    group.case("absorb", || {
        // One publish per 32 observations (a pipelined connection cycle),
        // latencies spread over a handful of buckets as real ones are;
        // the time is per observation, publish included.
        for cycle in 0..OPS / 32 {
            for i in 0..32 {
                local.record((cycle + i) & 0x7);
            }
            histogram.absorb(&mut local);
        }
        histogram.count()
    });
    group.case("record+clock", || {
        // A shared record around a timed region: two clock reads and the
        // four RMWs.
        let mut acc = 0u64;
        for _ in 0..OPS {
            let started = Instant::now();
            acc = acc.wrapping_add(1);
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            histogram.record(micros);
        }
        acc
    });
    group.case("snapshot+quantiles", || {
        let snap = histogram.snapshot();
        (snap.quantile(0.5), snap.quantile(0.99))
    });
}

fn store_get_path() {
    const KEYS: u64 = 10_000;
    let mut store = Store::new(StoreConfig {
        slab: SlabConfig::small(64 * 1024, 64),
        eviction: EvictionMode::default(),
    });
    for i in 0..KEYS {
        let key = format!("key-{i:05}");
        store
            .set(key.as_bytes(), &[0u8; 64], 0, 0, i % 1000)
            .unwrap();
    }
    let keys: Vec<String> = (0..KEYS).map(|i| format!("key-{i:05}")).collect();

    let group = Group::new("get-path", KEYS * 20, 10);
    group.case("bare", || {
        let mut hits = 0u64;
        for _ in 0..20 {
            for key in &keys {
                if store.get(black_box(key.as_bytes())).is_some() {
                    hits += 1;
                }
            }
        }
        hits
    });
    let histogram = Histogram::new();
    group.case("timed+recorded", || {
        let mut hits = 0u64;
        for _ in 0..20 {
            for key in &keys {
                let started = Instant::now();
                if store.get(black_box(key.as_bytes())).is_some() {
                    hits += 1;
                }
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                histogram.record(micros);
            }
        }
        hits
    });
}

fn main() {
    histogram_record_cost();
    store_get_path();
}
