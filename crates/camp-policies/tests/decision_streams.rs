//! Decision streams, pinned: every `EvictionMode` replays one seeded BG
//! trace in the two shapes its callers drive it in, and everything it
//! decides — each row's outcome, each evicted key, each [`PolicyEvent`] a
//! sink sees, field for field — folds into one 64-bit FNV-1a that must equal
//! a constant recorded from the code *before* the refactor under test. A
//! policy rewrite that changes one victim, one tie-break or one trace field
//! anywhere in 200 k rows changes the hash.
//!
//! * **simulator shape** — `reference` per row at a 0.25 cache ratio, the
//!   way `camp-sim` drives a policy;
//! * **store shape** — the way `camp-kvs::Store` does: `touch` on a hit,
//!   `remove` + `reference` on an overwrite, `victim` + `evict` while an
//!   outside memory budget (tighter than the policy's own, in alternating
//!   epochs) is over, explicit `remove`s mixed in.
//!
//! The constants are data, not expectations to be re-derived: if a change is
//! *meant* to alter decisions, say so in the PR and regenerate them (a
//! failing run prints the table it measured).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use camp_core::rng::Rng64;
use camp_policies::{
    AccessOutcome, CacheKey, CacheRequest, EvictionMode, EvictionPolicy, PolicyEvent,
    PolicyEventKind, TraceSink,
};
use camp_workload::{BgConfig, Trace};

/// The ten `EvictionMode::all_names()` spellings plus CAMP's second
/// configuration (no rounding), which takes a different path through
/// `camp-core`.
const MODES: [&str; 11] = [
    "lru",
    "camp",
    "camp:inf",
    "gds",
    "gdsf",
    "lfu",
    "lru-2",
    "2q",
    "arc",
    "gd-wheel",
    "pooled-lru",
];

const ROWS: usize = 200_000;
/// The byte-key instantiation runs the same drivers over the trace's head.
const BYTE_KEY_ROWS: usize = 50_000;
const CACHE_RATIO: f64 = 0.25;

/// What one `(mode, shape, key type)` replay came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pinned {
    mode: &'static str,
    hash: u64,
    hits: u64,
    misses: u64,
    missed_cost: u64,
    len: usize,
    used_bytes: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fold_event(&mut self, event: &PolicyEvent) {
        self.fold(match event.kind {
            PolicyEventKind::Admit => 1,
            PolicyEventKind::Evict => 2,
        });
        self.fold(event.key_hash);
        self.fold(event.size);
        self.fold(event.cost);
        self.fold(event.ratio);
        self.fold(u64::from(event.queue));
        self.fold(event.l_value);
    }
}

#[derive(Debug, Default)]
struct Collecting(Mutex<Vec<PolicyEvent>>);

impl Collecting {
    /// Folds (and forgets) everything recorded since the last call.
    fn drain_into(&self, fnv: &mut Fnv) {
        let mut events = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        for event in events.drain(..) {
            fnv.fold_event(&event);
        }
    }
}

impl TraceSink for Collecting {
    fn record(&self, event: &PolicyEvent) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(*event);
    }
}

/// The two key types the policies are instantiated with.
trait StreamKey: CacheKey + Send + 'static {
    fn from_id(id: u64) -> Self;
    fn id(&self) -> u64;
}

impl StreamKey for u64 {
    fn from_id(id: u64) -> Self {
        id
    }
    fn id(&self) -> u64 {
        *self
    }
}

impl StreamKey for Box<[u8]> {
    fn from_id(id: u64) -> Self {
        Box::from(id.to_le_bytes())
    }
    fn id(&self) -> u64 {
        u64::from_le_bytes((**self).try_into().expect("eight-byte key"))
    }
}

fn trace(rows: usize) -> Trace {
    BgConfig::paper_scaled(20_000, ROWS, 20_141_208)
        .generate()
        .head(rows)
}

fn capacity(trace: &Trace) -> u64 {
    (trace.stats().unique_bytes as f64 * CACHE_RATIO) as u64
}

fn outcome_code(outcome: AccessOutcome) -> u64 {
    match outcome {
        AccessOutcome::Hit => 1,
        AccessOutcome::MissInserted => 2,
        AccessOutcome::MissBypassed => 3,
    }
}

struct Replay<K: StreamKey> {
    mode: &'static str,
    policy: Box<dyn EvictionPolicy<K> + Send>,
    sink: Arc<Collecting>,
    fnv: Fnv,
    evicted: Vec<K>,
    hits: u64,
    misses: u64,
    missed_cost: u64,
}

impl<K: StreamKey> Replay<K> {
    fn new(mode: &'static str, capacity: u64) -> Self {
        let parsed: EvictionMode = mode.parse().expect("known mode");
        let mut policy = parsed.build::<K>(capacity);
        let sink = Arc::new(Collecting::default());
        policy.set_trace_sink(Some(sink.clone()));
        Replay {
            mode,
            policy,
            sink,
            fnv: Fnv::new(),
            evicted: Vec::new(),
            hits: 0,
            misses: 0,
            missed_cost: 0,
        }
    }

    /// `reference`, with the outcome, the evicted keys and the events folded.
    fn reference(&mut self, id: u64, size: u64, cost: u64) -> AccessOutcome {
        self.evicted.clear();
        let outcome = self.policy.reference(
            CacheRequest::new(K::from_id(id), size, cost),
            &mut self.evicted,
        );
        self.fnv.fold(outcome_code(outcome));
        for key in &self.evicted {
            self.fnv.fold(key.id());
        }
        self.sink.drain_into(&mut self.fnv);
        outcome
    }

    fn finish(mut self) -> Pinned {
        self.fnv.fold(self.policy.len() as u64);
        self.fnv.fold(self.policy.used_bytes());
        Pinned {
            mode: self.mode,
            hash: self.fnv.0,
            hits: self.hits,
            misses: self.misses,
            missed_cost: self.missed_cost,
            len: self.policy.len(),
            used_bytes: self.policy.used_bytes(),
        }
    }
}

/// The simulator's shape: one `reference` per row.
fn simulator_shape<K: StreamKey>(mode: &'static str, trace: &Trace) -> Pinned {
    let mut replay = Replay::<K>::new(mode, capacity(trace));
    for (row, rec) in trace.iter().enumerate() {
        replay.fnv.fold(row as u64);
        if replay.reference(rec.key, rec.size, rec.cost).is_miss() {
            replay.misses += 1;
            replay.missed_cost += rec.cost;
        } else {
            replay.hits += 1;
        }
    }
    replay.finish()
}

/// The slab store's shape. `resident` plays the store's index (key → size)
/// and `budget` its memory: in even epochs it is tighter than the policy's
/// own capacity, so `victim` + `evict` make the room; in odd epochs there is
/// no outside pressure and `reference` evicts on the policy's budget.
fn store_shape<K: StreamKey>(mode: &'static str, trace: &Trace) -> Pinned {
    const EPOCH: usize = 4096;
    let capacity = capacity(trace);
    let mut replay = Replay::<K>::new(mode, capacity);
    let mut resident: HashMap<u64, u64> = HashMap::new();
    let mut resident_bytes = 0u64;
    let mut rng = Rng64::seed_from_u64(0x5707_e5ba_9e00_0001);
    for (row, rec) in trace.iter().enumerate() {
        replay.fnv.fold(row as u64);
        let budget = if (row / EPOCH).is_multiple_of(2) {
            capacity / 8 * 7
        } else {
            u64::MAX
        };
        let dice = rng.range_u64(0, 100);
        if dice < 4 {
            // delete
            let was = resident.remove(&rec.key);
            resident_bytes -= was.unwrap_or(0);
            let removed = replay.policy.remove(&K::from_id(rec.key));
            assert_eq!(removed, was.is_some(), "{mode}: row {row} delete");
            replay.fnv.fold(u64::from(removed));
            replay.sink.drain_into(&mut replay.fnv);
            continue;
        }
        let overwrite = dice < 12;
        if !overwrite && resident.contains_key(&rec.key) {
            // get, hit
            assert!(
                replay.policy.touch(&K::from_id(rec.key)),
                "{mode}: row {row}"
            );
            replay.sink.drain_into(&mut replay.fnv);
            replay.hits += 1;
            continue;
        }
        if !overwrite {
            // get, miss: the client recomputes the pair and sets it
            replay.misses += 1;
            replay.missed_cost += rec.cost;
        }
        // An overwrite stores a new version: other size, other cost.
        let (size, cost) = if overwrite {
            (rec.size / 2 + 1 + dice, rec.cost + dice)
        } else {
            (rec.size, rec.cost)
        };
        if let Some(old) = resident.remove(&rec.key) {
            resident_bytes -= old;
            assert!(
                replay.policy.remove(&K::from_id(rec.key)),
                "{mode}: row {row}"
            );
        }
        while resident_bytes + size > budget {
            let victim = replay.policy.victim().expect("bytes resident");
            replay.fnv.fold(victim.id());
            assert!(replay.policy.evict(&victim), "{mode}: row {row}");
            resident_bytes -= resident.remove(&victim.id()).expect("victim is resident");
            replay.sink.drain_into(&mut replay.fnv);
        }
        let outcome = replay.reference(rec.key, size, cost);
        for key in &replay.evicted {
            resident_bytes -= resident
                .remove(&key.id())
                .expect("evicted key was resident");
        }
        assert_eq!(outcome, AccessOutcome::MissInserted, "{mode}: row {row}");
        resident.insert(rec.key, size);
        resident_bytes += size;
    }
    assert_eq!(replay.policy.len(), resident.len(), "{mode}");
    assert_eq!(replay.policy.used_bytes(), resident_bytes, "{mode}");
    replay.finish()
}

fn check(context: &str, expected: &[Pinned], run: impl Fn(&'static str) -> Pinned) {
    let measured: Vec<Pinned> = MODES.iter().map(|&mode| run(mode)).collect();
    if measured != expected {
        let mut table = String::new();
        for p in &measured {
            table.push_str(&format!(
                "    {:?} {:#018x} {} {} {} {} {};\n",
                p.mode, p.hash, p.hits, p.misses, p.missed_cost, p.len, p.used_bytes
            ));
        }
        let changed: Vec<&str> = measured
            .iter()
            .zip(expected)
            .filter(|(m, e)| m != e)
            .map(|(m, _)| m.mode)
            .collect();
        panic!("{context}: decisions changed for {changed:?}; measured:\n{table}");
    }
}

#[test]
fn simulator_shape_u64_keys() {
    let trace = trace(ROWS);
    check("simulator shape, u64 keys", SIMULATOR_U64, |mode| {
        simulator_shape::<u64>(mode, &trace)
    });
}

#[test]
fn simulator_shape_byte_keys() {
    let trace = trace(BYTE_KEY_ROWS);
    check("simulator shape, byte keys", SIMULATOR_BYTES, |mode| {
        simulator_shape::<Box<[u8]>>(mode, &trace)
    });
}

#[test]
fn store_shape_u64_keys() {
    let trace = trace(ROWS);
    check("store shape, u64 keys", STORE_U64, |mode| {
        store_shape::<u64>(mode, &trace)
    });
}

#[test]
fn store_shape_byte_keys() {
    let trace = trace(BYTE_KEY_ROWS);
    check("store shape, byte keys", STORE_BYTES, |mode| {
        store_shape::<Box<[u8]>>(mode, &trace)
    });
}

// Recorded from the tree at commit f14dbee (PR 19), before the keyed front.
// Columns: mode, hash, hits, misses, missed cost, len, used bytes.

macro_rules! pinned {
    ($name:ident: $($mode:literal $hash:literal $hits:literal $misses:literal
                    $missed_cost:literal $len:literal $used_bytes:literal;)*) => {
        const $name: &[Pinned] = &[$(Pinned {
            mode: $mode,
            hash: $hash,
            hits: $hits,
            misses: $misses,
            missed_cost: $missed_cost,
            len: $len,
            used_bytes: $used_bytes,
        }),*];
    };
}

pinned! { SIMULATOR_U64:
    "lru" 0x8f5f47bcb50f79e4 107928 92072 306554393 4998 6769004;
    "camp" 0xf7c0ce71ef20aeb3 74874 125126 91096820 5982 6767342;
    "camp:inf" 0xa7c59481b38fa243 74869 125131 91016932 5982 6767114;
    "gds" 0xbaa34733bce80de4 74870 125130 91016535 5984 6769255;
    "gdsf" 0x87de1662e2f2a912 78273 121727 88638023 6018 6768917;
    "lfu" 0xd97088180f30b237 135759 64241 216389042 5038 6768188;
    "lru-2" 0x8579a351641e07db 132473 67527 226834749 5013 6769699;
    "2q" 0x25a14b243d6b7282 112169 87831 291554325 4980 6769016;
    "arc" 0xb274857384b5b4d0 125034 74966 250468142 4968 6767512;
    "gd-wheel" 0x88c74280ef42eb4c 74851 125149 91007644 5981 6766440;
    "pooled-lru" 0xe742e23f17c7a584 107788 92212 306431377 4998 6766886;
}

pinned! { SIMULATOR_BYTES:
    "lru" 0x3d7c595fcff65a7c 19521 30479 101794460 3471 4733979;
    "camp" 0xfcb2c300bf24c1ef 16015 33985 49673278 4199 4731760;
    "camp:inf" 0x5110c9e8e55ade19 16008 33992 49713380 4192 4733324;
    "gds" 0x739cf0a9e8df55a6 16006 33994 49723282 4191 4731777;
    "gdsf" 0x109d8943fc2d043f 16406 33594 48623289 4157 4732320;
    "lfu" 0x19d3c830734c0496 24014 25986 86875122 3528 4733844;
    "lru-2" 0x83df2cdbfe3cc1d2 24514 25486 85520500 3542 4732675;
    "2q" 0xf51c7c067dc2c962 20177 29823 99710943 3484 4733216;
    "arc" 0x61eadf728ca7afbc 24019 25981 87190927 3496 4733428;
    "gd-wheel" 0xdef0fc3bc304b82e 16002 33998 49713683 4191 4732445;
    "pooled-lru" 0x19258c4dd3a42cf5 19533 30467 101192033 3465 4729200;
}

pinned! { STORE_U64:
    "lru" 0xa1d835441e146b2e 94959 81201 270123105 4836 5922643;
    "camp" 0x281d978d78de34cb 70194 105966 92795904 6130 5921028;
    "camp:inf" 0xa733be841248b4d3 70180 105980 92807006 6123 5921767;
    "gds" 0x99074accff52885c 70184 105976 92806903 6124 5922562;
    "gdsf" 0xf0964bd30308a1e3 72325 103835 92167895 6139 5922904;
    "lfu" 0xc15169c8d789f2f6 101684 74476 250644367 4879 5918876;
    "lru-2" 0xe9c3ddbe8ca2847b 98413 77747 261485762 4652 5922729;
    "2q" 0xc7b9d34649a4cb9b 85978 90182 300191654 4723 5923222;
    "arc" 0x67981868a3535cf5 102481 73679 246375482 4900 5923426;
    "gd-wheel" 0x1b0451d6341d7fa5 65039 111121 89737603 6004 5922537;
    "pooled-lru" 0x9d4b80ce0eed66a5 94907 81253 268661521 4832 5923117;
}

pinned! { STORE_BYTES:
    "lru" 0xf4e6cdd96035727c 17041 26931 90232860 3258 4141259;
    "camp" 0x3508b7d168dc8e5c 14601 29371 47006851 4085 4140159;
    "camp:inf" 0x731e77e1378b7a98 14596 29376 47036952 4088 4141813;
    "gds" 0xfecd39644c4e4f2e 14596 29376 47037051 4089 4141152;
    "gdsf" 0xc77c3fb20d4c823b 14956 29016 46516446 4092 4142095;
    "lfu" 0xa197aad9eababeab 19785 24187 81289624 3352 4142320;
    "lru-2" 0x876057a0e8a4a54e 20066 23906 80921855 3263 4142015;
    "2q" 0xfaccaaf4db927dd5 17089 26883 89818893 3203 4139444;
    "arc" 0x3d570775e1d0dcf7 19395 24577 82720663 3334 4138648;
    "gd-wheel" 0xd76022d14b3c3404 14143 29829 47006022 4086 4141706;
    "pooled-lru" 0x64038191bbbd2325 17019 26953 89631259 3256 4141985;
}
