//! The traced run's in-process half: each layer's public functions,
//! timed from outside on the workload's own request stream.
//!
//! Nothing inside `camp-kvsd` is instrumented. Instead the fixed prefix
//! of the stream is replayed, single-threaded, through one layer at a
//! time, and a span `{name, start_ns, end_ns, parent}` is recorded around
//! every batch of calls. Within a batch of 1024 requests the calls are
//! grouped by outcome (resident keys first, then absent ones) so that a
//! span holds calls of one kind and `hit` and `miss` costs come apart
//! without a clock read per call. A layer's *self* time is its span time
//! minus that of the layer it calls into (`store` minus `policy`, `shard`
//! minus `store`, `persist` minus its `IoBackend`), measured on the same
//! stream.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use camp_kvs::fault::FaultPlan;
use camp_kvs::persist::{FsyncMode, IoBackend, Persist, PersistOptions, RealFs};
use camp_kvs::protocol::parse_command;
use camp_kvs::shard::ShardedStore;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, Store, StoreConfig};
use camp_policies::{CacheRequest, EvictionPolicy};
use camp_telemetry::{FlightRecorder, Histogram, RequestSpan};

use crate::spec::{push_key, Generator, Kind, Op, Pattern, Request, Spec};
use crate::stats::quantile;

/// Requests per batch; a span covers the calls of one kind in a batch.
const BATCH: usize = 1024;

/// Journal appends timed one span each (every one waits for the disk).
const PERSIST_APPENDS: usize = 2_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the ledger's span list.
    pub parent: Option<usize>,
    /// Calls the span covers.
    pub calls: u64,
}

#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with `end`.
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            calls: 0,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records `f`, which makes `calls` calls into a layer, as one span.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        calls: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let result = std::hint::black_box(f());
        let end_ns = self.now();
        if calls > 0 {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                calls: calls as u64,
            });
        }
        result
    }

    /// Mean nanoseconds per call over every span called `name`.
    fn mean(&self, name: &str) -> f64 {
        let (ns, calls) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, calls), s| {
                (ns + (s.end_ns - s.start_ns), calls + s.calls)
            });
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }
}

/// The ledger's numbers and the spans they were computed from.
#[derive(Debug)]
pub struct Ledger {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Ledger {
    /// One JSON object per span, one per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                span.name, span.start_ns, span.end_ns, span.calls
            );
        }
        out
    }
}

/// A batch of requests with their wire keys and value bytes.
struct Batch {
    requests: Vec<Request>,
    keys: Vec<Vec<u8>>,
}

impl Batch {
    fn draw(generator: &mut Generator, n: usize) -> Batch {
        let requests: Vec<Request> = (0..n)
            .map(|i| generator.next(i % crate::spec::CONNECTIONS))
            .collect();
        let keys = requests
            .iter()
            .map(|r| {
                let mut key = Vec::with_capacity(8);
                push_key(&mut key, r.key);
                key
            })
            .collect();
        Batch { requests, keys }
    }

    /// Indices split into (reads of resident keys, reads of absent keys,
    /// plain writes), by asking `resident` before anything runs.
    fn classify(
        &self,
        mut resident: impl FnMut(&[u8]) -> bool,
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let (mut hits, mut misses, mut writes) = (Vec::new(), Vec::new(), Vec::new());
        for (i, request) in self.requests.iter().enumerate() {
            if !request.op.is_read() {
                writes.push(i);
            } else if resident(&self.keys[i]) {
                hits.push(i);
            } else {
                misses.push(i);
            }
        }
        (hits, misses, writes)
    }
}

fn store_config(spec: &Spec) -> StoreConfig {
    // The same geometry `camp-kvsd --memory-mb N --slab-kb K` builds.
    let slab_size = spec.slab_kb * 1024;
    let max_slabs = (spec.memory_mb << 20) / u64::from(slab_size);
    StoreConfig {
        slab: SlabConfig::small(slab_size, max_slabs as u32),
        eviction: spec
            .policy
            .parse::<EvictionMode>()
            .expect("workload policies are valid specs"),
    }
}

/// The resident workloads start from a full store.
fn prefill(spec: &Spec, pattern: &Pattern, mut set: impl FnMut(&[u8], &[u8])) {
    if let Kind::Uniform {
        keys, value_len, ..
    } = spec.kind
    {
        let mut key = Vec::new();
        for k in 0..keys {
            key.clear();
            push_key(&mut key, k);
            set(&key, pattern.value(k, 0, value_len as usize));
        }
    }
}

/// An `IoBackend` that reports how long the device took.
#[derive(Debug)]
struct TimingFs {
    inner: RealFs,
    epoch: Instant,
    /// `(is_sync, start_ns, end_ns)` per device call.
    calls: mpsc::Sender<(bool, u64, u64)>,
}

impl TimingFs {
    fn timed<R>(&mut self, sync: bool, f: impl FnOnce(&mut RealFs) -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = f(&mut self.inner);
        let end = self.epoch.elapsed().as_nanos() as u64;
        // The receiver outlives the backend; a send cannot fail.
        let _ = self.calls.send((sync, start, end));
        result
    }
}

impl IoBackend for TimingFs {
    fn create(&mut self, path: &Path) -> io::Result<()> {
        self.inner.create(path)
    }
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.timed(false, |fs| fs.append(buf))
    }
    fn sync(&mut self) -> io::Result<()> {
        self.timed(true, RealFs::sync)
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}

/// Replays the first `requests` requests of `spec`'s stream through each
/// layer. `journal` is the data dir a killed durable-set server left
/// behind; `scratch` is where the ledger may write its own.
/// `resident_bytes` is what the live server held once warm: the byte
/// budget the simulator gets, because the slab allocator keeps less
/// resident than `--memory-mb` (see `store.mem_util`).
pub fn run(
    spec: &Spec,
    seed: u64,
    requests: usize,
    scratch: &Path,
    journal: Option<&Path>,
    resident_bytes: u64,
) -> io::Result<Ledger> {
    // The layers log through `kvlog!`; recovery banners are not results.
    camp_telemetry::set_level(camp_telemetry::LogLevel::Warn);
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let pattern = Pattern::new(64 * 1024);
    let root = tracer.begin("ledger", None);
    let batches = requests.div_ceil(BATCH);
    let value_of = |r: &Request| pattern.value(r.key, 0, r.value_len as usize);

    // store: Store::get_with / Store::set. Also fixes the command mix.
    let pass = tracer.begin("store", Some(root));
    let mut store = Store::new(store_config(spec));
    prefill(spec, &pattern, |key, value| {
        store.set(key, value, 0, 0, 1).expect("prefill fits");
    });
    let evictions_before = store.stats().evictions + store.stats().slab_evictions;
    let mut generator = Generator::new(spec, seed);
    for _ in 0..batches {
        let batch = Batch::draw(&mut generator, BATCH);
        let (hits, misses, writes) = batch.classify(|key| store.contains(key));
        tracer.timed("store.get_hit", pass, hits.len(), || {
            for &i in &hits {
                store.get_with(&batch.keys[i], |item| item.value.len());
            }
        });
        tracer.timed("store.get_miss", pass, misses.len(), || {
            for &i in &misses {
                store.get_with(&batch.keys[i], |item| item.value.len());
            }
        });
        // Read-through: every miss is followed by its set.
        let sets: Vec<usize> = misses.iter().chain(&writes).copied().collect();
        tracer.timed("store.set", pass, sets.len(), || {
            for &i in &sets {
                let r = &batch.requests[i];
                let _ = store.set(&batch.keys[i], value_of(r), 0, 0, r.cost);
            }
        });
    }
    let store_evictions = store.stats().evictions + store.stats().slab_evictions - evictions_before;
    drop(store);
    tracer.end(pass);

    // policy: EvictionMode::build::<Box<[u8]>> + touch / reference, on its
    // own byte budget (no slab allocator above it).
    let pass = tracer.begin("policy", Some(root));
    let config = store_config(spec);
    let budget = u64::from(config.slab.slab_size) * u64::from(config.slab.max_slabs);
    let mut policy: Box<dyn EvictionPolicy<Box<[u8]>> + Send> = config.eviction.build(budget);
    let mut evicted: Vec<Box<[u8]>> = Vec::new();
    let item_size = |key: &[u8], r: &Request| {
        camp_kvs::item::Item::encoded_len(key.len(), r.value_len as usize) as u64
    };
    prefill(spec, &pattern, |key, value| {
        let size = camp_kvs::item::Item::encoded_len(key.len(), value.len()) as u64;
        policy.reference(CacheRequest::new(Box::from(key), size, 1), &mut evicted);
    });
    let (mut policy_inserts, mut policy_evictions) = (0u64, 0u64);
    let mut generator = Generator::new(spec, seed);
    for _ in 0..batches {
        let batch = Batch::draw(&mut generator, BATCH);
        let boxed: Vec<Box<[u8]>> = batch.keys.iter().map(|k| Box::from(&k[..])).collect();
        let (hits, misses, writes) = batch.classify(|key| policy.contains(&Box::from(key)));
        tracer.timed("policy.hit", pass, hits.len(), || {
            for &i in &hits {
                policy.touch(&boxed[i]);
            }
        });
        // A plain write replaces: `Store::set` removes, then references.
        for &i in &writes {
            policy.remove(&boxed[i]);
        }
        let inserts: Vec<usize> = misses.iter().chain(&writes).copied().collect();
        let requests: Vec<CacheRequest<Box<[u8]>>> = inserts
            .iter()
            .map(|&i| {
                let r = &batch.requests[i];
                CacheRequest::new(boxed[i].clone(), item_size(&batch.keys[i], r), r.cost)
            })
            .collect();
        policy_inserts += inserts.len() as u64;
        policy_evictions += tracer.timed("policy.miss", pass, inserts.len(), || {
            let mut count = 0;
            for request in requests {
                evicted.clear();
                policy.reference(request, &mut evicted);
                count += evicted.len() as u64;
            }
            count
        });
    }
    drop(policy);
    tracer.end(pass);

    // shard: ShardedStore::get_with on resident keys, against store.get_hit.
    let pass = tracer.begin("shard", Some(root));
    let sharded = ShardedStore::new(store_config(spec), 1);
    prefill(spec, &pattern, |key, value| {
        sharded.set(key, value, 0, 0, 1).expect("prefill fits");
    });
    let mut generator = Generator::new(spec, seed);
    for _ in 0..batches {
        let batch = Batch::draw(&mut generator, BATCH);
        let (hits, misses, writes) = batch.classify(|key| sharded.contains(key));
        tracer.timed("shard.get_hit", pass, hits.len(), || {
            for &i in &hits {
                sharded.get_with(&batch.keys[i], |item| item.value.len());
            }
        });
        for &i in misses.iter().chain(&writes) {
            let r = &batch.requests[i];
            let _ = sharded.set(&batch.keys[i], value_of(r), 0, 0, r.cost);
        }
    }
    drop(sharded);
    tracer.end(pass);

    // protocol, resp, telemetry, the generator itself, and the cost of an
    // empty span. The command lines are what the client puts on the wire.
    let pass = tracer.begin("edges", Some(root));
    let histogram = Histogram::new();
    let recorder = FlightRecorder::new(1, None);
    let mut generator = Generator::new(spec, seed);
    let mut response = Vec::with_capacity(256 * 1024);
    for batch_index in 0..batches {
        let batch = tracer.timed("client.gen", pass, BATCH, || {
            Batch::draw(&mut generator, BATCH)
        });
        let lines: Vec<Vec<u8>> = batch
            .requests
            .iter()
            .zip(&batch.keys)
            .map(|(r, key)| command_line(r, key))
            .collect();
        tracer.timed("protocol.parse", pass, lines.len(), || {
            for line in &lines {
                let _ = std::hint::black_box(parse_command(line));
            }
        });
        tracer.timed("resp.serialize", pass, BATCH, || {
            response.clear();
            for (r, key) in batch.requests.iter().zip(&batch.keys) {
                camp_kvs::resp::append_value(&mut response, key, 0, value_of(r));
            }
        });
        tracer.timed("telemetry.histogram_record", pass, BATCH, || {
            for i in 0..BATCH as u64 {
                histogram.record(i % 64);
            }
        });
        tracer.timed("telemetry.span_record", pass, BATCH, || {
            let base = (batch_index * BATCH) as u64;
            for i in 0..BATCH as u64 {
                recorder.record_span(
                    0,
                    &RequestSpan {
                        conn_id: 1,
                        cmd: 0,
                        wire_bytes: 16,
                        buffered_us: base + i,
                        parsed_us: base + i,
                        executed_us: base + i + 1,
                        flushed_us: base + i + 2,
                    },
                );
            }
        });
        tracer.timed("ledger.span_overhead", pass, 1, || {});
    }
    tracer.end(pass);

    let mut metrics = BTreeMap::new();
    let (hits, misses) = (
        tracer.calls("store.get_hit") as f64,
        tracer.calls("store.get_miss") as f64,
    );
    let sets = tracer.calls("store.set") as f64;
    let commands = hits + misses + sets;
    metrics.insert("client.gen_ns_per_req", tracer.mean("client.gen"));
    metrics.insert("protocol.parse_ns_per_cmd", tracer.mean("protocol.parse"));
    metrics.insert("resp.serialize_ns_per_hit", tracer.mean("resp.serialize"));
    metrics.insert("policy.hit_ns", tracer.mean("policy.hit"));
    metrics.insert("policy.miss_ns", tracer.mean("policy.miss"));
    metrics.insert(
        "policy.evictions_per_insert",
        policy_evictions as f64 / (policy_inserts as f64).max(1.0),
    );
    metrics.insert("store.get_hit_ns", tracer.mean("store.get_hit"));
    metrics.insert("store.get_miss_ns", tracer.mean("store.get_miss"));
    metrics.insert("store.set_ns", tracer.mean("store.set"));
    // Not published (the live `store.evictions_per_set` is): the unit test
    // below holds the store pass to a stream that evicts.
    metrics.insert(
        "ledger.store_evictions_per_set",
        store_evictions as f64 / sets.max(1.0),
    );
    metrics.insert(
        "shard.dispatch_ns",
        tracer.mean("shard.get_hit") - tracer.mean("store.get_hit"),
    );
    metrics.insert(
        "telemetry.histogram_record_ns",
        tracer.mean("telemetry.histogram_record"),
    );
    metrics.insert(
        "telemetry.span_record_ns",
        tracer.mean("telemetry.span_record"),
    );
    metrics.insert(
        "ledger.span_overhead_ns",
        tracer.mean("ledger.span_overhead"),
    );

    // persist: Persist::append_set over a timing backend, one span each.
    let mut persist_self = 0.0;
    for name in [
        "persist.append_self_ns",
        "persist.device_sync_us_p50",
        "persist.device_sync_us_p99",
        "persist.recover_ns_per_record",
    ] {
        metrics.insert(name, 0.0);
    }
    if let (Some(segment_bytes), Kind::Uniform { value_len, .. }) = (spec.segment_bytes, spec.kind)
    {
        let pass = tracer.begin("persist", Some(root));
        let dir = scratch.join("ledger-journal");
        let _ = std::fs::remove_dir_all(&dir);
        let (calls, device_calls) = mpsc::channel();
        let backend = TimingFs {
            inner: RealFs::new(),
            epoch: tracer.epoch,
            calls,
        };
        let mut options = PersistOptions::new(&dir);
        options.fsync = FsyncMode::Always;
        options.segment_bytes = segment_bytes;
        let sharded = ShardedStore::new(store_config(spec), 1);
        let persist = Persist::open_with_backend(options, Box::new(backend), &sharded)?;
        let mut generator = Generator::new(spec, seed);
        let mut key = Vec::new();
        for _ in 0..PERSIST_APPENDS {
            let r = generator.next(0);
            key.clear();
            push_key(&mut key, r.key);
            let value = pattern.value(r.key, 0, value_len as usize);
            let append = tracer.begin("persist.append", Some(pass));
            persist.append_set(&sharded, &key, value, 0, 0, 1);
            tracer.end(append);
            tracer.spans[append].calls = 1;
            for (sync, start_ns, end_ns) in device_calls.try_iter() {
                tracer.spans.push(Span {
                    name: if sync {
                        "persist.device_sync"
                    } else {
                        "persist.device_write"
                    },
                    start_ns,
                    end_ns,
                    parent: Some(append),
                    calls: 1,
                });
            }
        }
        drop(persist);
        tracer.end(pass);
        std::fs::remove_dir_all(&dir)?;

        let appends = tracer.calls("persist.append") as f64;
        let device_ns = (tracer.mean("persist.device_sync")
            * tracer.calls("persist.device_sync") as f64
            + tracer.mean("persist.device_write") * tracer.calls("persist.device_write") as f64)
            / appends;
        persist_self = tracer.mean("persist.append") - device_ns;
        metrics.insert("persist.append_self_ns", persist_self);
        let mut syncs: Vec<u64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == "persist.device_sync")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        syncs.sort_unstable();
        metrics.insert(
            "persist.device_sync_us_p50",
            quantile(&syncs, 0.5) as f64 / 1e3,
        );
        metrics.insert(
            "persist.device_sync_us_p99",
            quantile(&syncs, 0.99) as f64 / 1e3,
        );

        // Recovery: Persist::open on the journal the killed server left.
        if let Some(journal) = journal {
            let recover = tracer.begin("persist.recover", Some(root));
            let sharded = ShardedStore::new(store_config(spec), 1);
            let persist = Persist::open(
                PersistOptions::new(journal),
                &FaultPlan::default(),
                &sharded,
            )?;
            tracer.end(recover);
            let records = persist.snapshot().recovered;
            tracer.spans[recover].calls = records;
            metrics.insert(
                "persist.recover_ns_per_record",
                tracer.mean("persist.recover"),
            );
        }
    }

    // One command's path through the layers, weighted by the stream's own
    // mix of hits, misses and writes.
    let per_command = tracer.mean("protocol.parse")
        + metrics["shard.dispatch_ns"].max(0.0)
        + tracer.mean("telemetry.histogram_record")
        + tracer.mean("telemetry.span_record");
    let by_kind = hits * (tracer.mean("store.get_hit") + tracer.mean("resp.serialize"))
        + misses * tracer.mean("store.get_miss")
        + sets * (tracer.mean("store.set") + persist_self);
    metrics.insert(
        "ledger.sum_ns_per_op",
        per_command + by_kind / commands.max(1.0),
    );

    // sim: the simulator on the same prefix, holding as many bytes as the
    // live server did.
    for name in ["sim.cost_miss_ratio", "sim.miss_ratio", "sim.ns_per_req"] {
        metrics.insert(name, 0.0);
    }
    if matches!(spec.kind, Kind::Bg { .. }) {
        let trace = Generator::bg_trace(spec, seed, requests);
        let mut policy: Box<dyn EvictionPolicy<u64> + Send> = config.eviction.build(resident_bytes);
        let sim = tracer.begin("sim", Some(root));
        let report = camp_sim::simulate(&mut *policy, &trace);
        tracer.end(sim);
        tracer.spans[sim].calls = requests as u64;
        metrics.insert("sim.cost_miss_ratio", report.metrics.cost_miss_ratio());
        metrics.insert("sim.miss_ratio", report.metrics.miss_rate());
        metrics.insert("sim.ns_per_req", tracer.mean("sim"));
    }
    tracer.end(root);
    Ok(Ledger {
        metrics,
        spans: tracer.spans,
    })
}

/// The command line (without CRLF) the client sends for `request`.
fn command_line(request: &Request, key: &[u8]) -> Vec<u8> {
    let mut line = Vec::with_capacity(40);
    line.extend_from_slice(match request.op {
        Op::Get => b"get ",
        Op::IqGet => b"iqget ",
        Op::Set => b"set ",
        Op::IqSet => b"iqset ",
    });
    line.extend_from_slice(key);
    if !request.op.is_read() {
        line.extend_from_slice(b" 0 0 ");
        camp_kvs::resp::push_u64(&mut line, u64::from(request.value_len));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SPECS;

    #[test]
    fn mean_is_span_time_over_calls() {
        let mut tracer = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        let root = tracer.begin("root", None);
        tracer.spans.push(Span {
            name: "x",
            start_ns: 100,
            end_ns: 1_100,
            parent: Some(root),
            calls: 10,
        });
        tracer.spans.push(Span {
            name: "x",
            start_ns: 2_000,
            end_ns: 2_500,
            parent: Some(root),
            calls: 5,
        });
        assert_eq!(tracer.mean("x"), 100.0);
        assert_eq!(tracer.calls("x"), 15);
        assert_eq!(tracer.mean("absent"), 0.0);
        // A batch with no calls of a kind leaves no span behind.
        tracer.timed("y", root, 0, || {});
        assert_eq!(tracer.calls("y"), 0);
    }

    #[test]
    fn small_bg_ledger_evicts_and_reconciles_with_the_simulator() {
        let spec = Spec {
            kind: Kind::Bg { members: 20_000 },
            memory_mb: 4,
            ..SPECS[0]
        };
        let dir = std::env::temp_dir();
        let ledger = run(&spec, 42, 60_000, &dir, None, 3 << 20).unwrap();
        let m = &ledger.metrics;
        assert!(m["ledger.store_evictions_per_set"] > 0.5);
        assert!(m["policy.evictions_per_insert"] > 0.5);
        assert!(m["store.get_hit_ns"] > 0.0 && m["store.set_ns"] > m["policy.miss_ns"]);
        assert!(m["sim.miss_ratio"] > 0.05 && m["sim.miss_ratio"] < 0.95);
        assert!(m["ledger.sum_ns_per_op"] > m["protocol.parse_ns_per_cmd"]);
        // Every span but the root names an earlier span as its parent.
        for (id, span) in ledger.spans.iter().enumerate().skip(1) {
            assert!(span.parent.is_some_and(|p| p < id), "{span:?}");
            assert!(span.end_ns >= span.start_ns);
        }
        let jsonl = ledger.spans_jsonl();
        assert_eq!(jsonl.lines().count(), ledger.spans.len());
        assert!(jsonl.starts_with("{\"id\":0,\"name\":\"ledger\""));
    }
}
