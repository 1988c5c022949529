//! Server hot-path benchmarks: command parsing and get-response
//! serialization — the per-request work between the socket and the store.
//!
//! The `get_serialize` group contrasts the two response paths the server
//! has had: the copying one (`Store::get` hands back an owned value, the
//! caller formats a `VALUE` block around it) and the visitor one
//! (`Store::get_with` + `resp::append_value` serialize straight from the
//! arena chunk into a reusable buffer). The second is the live hot path.
//!
//! The `store` group times what surrounds the policy decision on the
//! benchmark's evicting workloads — fingerprint, index probe, key compare,
//! slab write, eviction hand-off — on a BG-sized keyspace four times the
//! store's memory: `get_hit`, `get_miss`, and `set_evicting` (a cyclic
//! scan, so every set misses and evicts).
//!
//! The `conn` group times everything a reactor worker does with a
//! connection's bytes except the syscalls: `process_pipeline32` feeds a
//! [`Loopback`] connection 32 pipelined `iqget`/`iqset` commands per cycle
//! — line framing, parse, execute against an evicting store, per-command
//! timing and tallying, the publish, reply serialization into the output
//! rope, the flush into a `Vec`, span recording. Against the `store` and
//! `parse` rows it shows the per-command fixed cost no other row does.

use std::hint::black_box;
use std::io::Write;

use camp_bench::micro::Group;
use camp_kvs::net::Loopback;
use camp_kvs::protocol::{parse_command, Command};
use camp_kvs::resp;
use camp_kvs::server::ServerOptions;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, Store, StoreConfig};
use camp_workload::BgConfig;

const PARSE_LINES: u64 = 100_000;
const GET_OPS: u64 = 100_000;
const STORE_OPS: u64 = 100_000;
const CONN_CYCLES: u64 = 4_000;
const PIPELINE: u64 = 32;

/// The `store` group: one distinct key per BG trace key, with the trace's
/// sizes and costs, against a store a quarter the keyspace's size.
fn store_group() {
    let trace = BgConfig::paper_scaled(20_000, 100_000, 7).generate();
    let mut pairs: Vec<(Vec<u8>, usize, u64)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for record in trace.iter() {
        if seen.insert(record.key) {
            pairs.push((
                record.key.to_string().into_bytes(),
                record.size as usize,
                record.cost,
            ));
        }
    }
    let slab_size: u32 = 64 * 1024;
    let memory = trace.stats().unique_bytes / 4;
    let value = vec![0xCDu8; pairs.iter().map(|p| p.1).max().unwrap_or(1)];
    let mut store = Store::new(StoreConfig {
        slab: SlabConfig::small(slab_size, (memory / u64::from(slab_size)).max(4) as u32),
        eviction: "camp:5".parse().expect("policy name"),
    });
    let mut next = 0usize;
    let mut set_next = |store: &mut Store| {
        let (key, size, cost) = &pairs[next % pairs.len()];
        next += 1;
        store.set(key, &value[..*size], 0, 0, *cost).is_ok()
    };
    // One full cycle: the store is full and every further set evicts.
    for _ in 0..pairs.len() {
        set_next(&mut store);
    }

    let group = Group::new("store", STORE_OPS, 10);
    group.case("set_evicting", || {
        let evictions = store.stats().evictions;
        let mut stored = 0u64;
        for _ in 0..STORE_OPS {
            stored += u64::from(set_next(&mut store));
        }
        assert!(store.stats().evictions - evictions > STORE_OPS / 2);
        stored
    });
    let resident: Vec<&[u8]> = pairs
        .iter()
        .map(|p| &p.0[..])
        .filter(|key| store.contains(key))
        .collect();
    group.case("get_hit", || {
        let mut bytes = 0u64;
        for i in 0..STORE_OPS as usize {
            let key = resident[i % resident.len()];
            bytes += store
                .get_with(black_box(key), |item| item.value.len() as u64)
                .expect("resident");
        }
        bytes
    });
    let absent: Vec<Vec<u8>> = (0..4096)
        .map(|i| format!("absent-{i}").into_bytes())
        .collect();
    group.case("get_miss", || {
        let mut hits = 0u64;
        for i in 0..STORE_OPS as usize {
            let key = &absent[i % absent.len()];
            hits += u64::from(store.get_with(black_box(key), |_| ()).is_some());
        }
        hits
    });
}

/// The `conn` group: one connection, 32 commands per cycle, on a keyspace
/// four times the store's memory so every `iqset` evicts.
fn conn_group() {
    const KEYS: u64 = 40_000;
    const VALUE: usize = 100;
    let mut options = ServerOptions::new(StoreConfig {
        slab: SlabConfig::small(64 * 1024, 16),
        eviction: "camp:5".parse().expect("policy name"),
    });
    options.workers = 1;
    let mut conn = Loopback::new(&options).expect("no data dir, nothing to open");
    // One wire batch per cycle: 16 x (iqget k, iqset k) on a sliding window
    // of keys, costs from a small set so CAMP keeps several queues.
    let batches: Vec<Vec<u8>> = (0..CONN_CYCLES)
        .map(|cycle| {
            let mut wire = Vec::new();
            for i in 0..PIPELINE / 2 {
                let key = (cycle * (PIPELINE / 2) + i) % KEYS;
                let cost = 1 + (key % 5) * 400;
                let _ = write!(wire, "iqget key-{key:08}\r\n");
                let _ = write!(wire, "iqset key-{key:08} 0 0 {VALUE} {cost}\r\n");
                wire.extend_from_slice(&[0xEF; VALUE]);
                wire.extend_from_slice(b"\r\n");
            }
            wire
        })
        .collect();
    let mut replies = Vec::new();
    let group = Group::new("conn", CONN_CYCLES * PIPELINE, 10);
    group.case("process_pipeline32", || {
        let mut bytes = 0u64;
        for wire in &batches {
            replies.clear();
            conn.exchange(black_box(wire), &mut replies)
                .expect("vec sink");
            bytes += replies.len() as u64;
        }
        bytes
    });
}

fn main() {
    let group = Group::new("parse", PARSE_LINES, 20);
    group.case("get_single_key", || {
        let line: &[u8] = b"get key-00001234";
        let mut gets = 0u64;
        for _ in 0..PARSE_LINES {
            match parse_command(black_box(line)) {
                Ok(Command::Get { ref keys }) => gets += keys.len() as u64,
                _ => unreachable!("line is a valid get"),
            }
        }
        gets
    });
    group.case("get_eight_keys", || {
        let line: &[u8] = b"get k0 k1 k2 k3 k4 k5 k6 k7";
        let mut keys_seen = 0u64;
        for _ in 0..PARSE_LINES {
            match parse_command(black_box(line)) {
                Ok(Command::Get { ref keys }) => keys_seen += keys.len() as u64,
                _ => unreachable!("line is a valid get"),
            }
        }
        keys_seen
    });
    group.case("set_header", || {
        let line: &[u8] = b"set key-00001234 7 0 100";
        let mut bytes = 0u64;
        for _ in 0..PARSE_LINES {
            match parse_command(black_box(line)) {
                Ok(Command::Set { ref header }) => bytes += header.bytes as u64,
                _ => unreachable!("line is a valid set"),
            }
        }
        bytes
    });
    group.case("iqset_cost_hint", || {
        let line: &[u8] = b"iqset key-00001234 7 0 100 2500";
        let mut cost = 0u64;
        for _ in 0..PARSE_LINES {
            match parse_command(black_box(line)) {
                Ok(Command::Set { ref header }) => cost += header.cost_hint.unwrap_or(0),
                _ => unreachable!("line is a valid iqset"),
            }
        }
        cost
    });

    // A resident working set the gets always hit, so both cases measure
    // pure serialize cost rather than miss handling.
    let mut store = Store::new(StoreConfig {
        slab: SlabConfig::small(8 << 20, 8),
        eviction: EvictionMode::Lru,
    });
    let value = vec![0xABu8; 100];
    let keys: Vec<Vec<u8>> = (0..1024)
        .map(|i| format!("key-{i:08}").into_bytes())
        .collect();
    for key in &keys {
        store.set(key, &value, 0, 0, 1).expect("prefill set");
    }

    let group = Group::new("get_serialize", GET_OPS, 10);
    group.case("copying_get_plus_format", || {
        let mut response = Vec::new();
        let mut bytes = 0u64;
        for i in 0..GET_OPS {
            let key = &keys[(i % 1024) as usize];
            response.clear();
            let hit = store.get(key).expect("key is resident");
            let _ = write!(
                response,
                "VALUE {} {} {}\r\n",
                String::from_utf8_lossy(key),
                hit.flags,
                hit.value.len()
            );
            response.extend_from_slice(&hit.value);
            response.extend_from_slice(b"\r\nEND\r\n");
            bytes += black_box(&response).len() as u64;
        }
        bytes
    });
    group.case("get_with_append_value", || {
        let mut response = Vec::new();
        let mut bytes = 0u64;
        for i in 0..GET_OPS {
            let key = &keys[(i % 1024) as usize];
            response.clear();
            store
                .get_with(key, |item| {
                    resp::append_value(&mut response, key, item.flags, item.value);
                })
                .expect("key is resident");
            response.extend_from_slice(b"END\r\n");
            bytes += black_box(&response).len() as u64;
        }
        bytes
    });

    store_group();
    conn_group();
}
