//! The four workloads and their seeded request generators.
//!
//! A workload is a server configuration plus a request stream. The
//! stream is a pure function of `--seed`; the server only ever sees the
//! generated commands.

use camp_core::rng::Rng64;
use camp_workload::zipf::{HotCold, Permutation};
use camp_workload::{CostModel, SizeModel, Trace, TraceRecord};

/// How much of each traced size is item overhead rather than value
/// payload — the same allowance `camp_kvs::replay::replay_trace` makes.
const VALUE_OVERHEAD: u64 = 64;

/// What the request stream looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `BgConfig::paper_scaled(members, ..)`: 70/20 skew, BG sizes,
    /// `{1, 100, 10K}` costs; read-through `iqget` then `iqset` on miss.
    Bg { members: u64 },
    /// Uniform keys over a resident data set; `set_share` of the
    /// commands are `set`, the rest `get`.
    Uniform {
        keys: u64,
        value_len: u32,
        set_share: f64,
    },
}

/// One workload: server flags, client shape and request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub policy: &'static str,
    pub memory_mb: u64,
    /// `--slab-kb`. The evicting workloads use 128 KiB slabs: 32 slabs of
    /// the default 1 MiB, spread over ~30 size classes, keep under half
    /// of `--memory-mb` resident and reassign slabs constantly, and the
    /// server then cannot track the simulator (see `bench/README.md`).
    pub slab_kb: u32,
    /// Pipelined commands per connection in the closed loop.
    pub pipeline: usize,
    /// Open-loop logical requests per second, fixed here once: what the
    /// one client thread issues on schedule (see `bench/README.md`).
    pub rate: u64,
    /// Logical requests replayed before timing starts (`Bg`); resident
    /// workloads prefill every key instead.
    pub warm_requests: u64,
    /// `--fsync always --segment-bytes N` on a real data dir.
    pub segment_bytes: Option<u64>,
}

/// Load connections per workload (a third, idle one carries `stats`).
pub const CONNECTIONS: usize = 2;

const BG_MEMBERS: u64 = 100_000;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "bg-evict-camp",
        kind: Kind::Bg {
            members: BG_MEMBERS,
        },
        policy: "camp:5",
        memory_mb: 32,
        slab_kb: 128,
        pipeline: 32,
        rate: 12_000,
        warm_requests: 400_000,
        segment_bytes: None,
    },
    Spec {
        name: "bg-evict-lru",
        kind: Kind::Bg {
            members: BG_MEMBERS,
        },
        policy: "lru",
        memory_mb: 32,
        slab_kb: 128,
        pipeline: 32,
        rate: 12_000,
        warm_requests: 400_000,
        segment_bytes: None,
    },
    Spec {
        name: "hot-get-p1",
        kind: Kind::Uniform {
            keys: 10_000,
            value_len: 64,
            set_share: 0.0,
        },
        policy: "camp:5",
        memory_mb: 64,
        slab_kb: 1024,
        pipeline: 1,
        rate: 12_000,
        warm_requests: 0,
        segment_bytes: None,
    },
    Spec {
        name: "durable-set",
        kind: Kind::Uniform {
            keys: 1_000,
            value_len: 512,
            set_share: 0.5,
        },
        policy: "camp:5",
        memory_mb: 64,
        slab_kb: 1024,
        pipeline: 16,
        rate: 400,
        warm_requests: 0,
        // Sized so that a run of fsync-bound sets crosses four rotations,
        // and so one compaction snapshot, every ~2.6 MB of journal.
        segment_bytes: Some(3 << 18),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn durable(&self) -> bool {
        self.segment_bytes.is_some()
    }

    /// Number of distinct keys the stream can name.
    pub fn key_space(&self) -> u64 {
        match self.kind {
            Kind::Bg { members } => members,
            Kind::Uniform { keys, .. } => keys,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    IqGet,
    Set,
    IqSet,
}

impl Op {
    pub fn is_read(self) -> bool {
        matches!(self, Op::Get | Op::IqGet)
    }
}

/// One generated command. `value_len` is the length a hit must return
/// (reads) or the length to store (writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub op: Op,
    pub key: u64,
    pub value_len: u32,
    pub cost: u64,
}

/// The seeded request stream of one workload.
#[derive(Debug)]
pub enum Generator {
    Bg {
        rng: Rng64,
        hot_cold: HotCold,
        permutation: Permutation,
        /// Per-member traced size and cost (stable per key, as the paper
        /// requires), looked up instead of re-sampled per request.
        sizes: Vec<u32>,
        costs: Vec<u64>,
    },
    Uniform {
        /// One stream per connection: a key belongs to the connection
        /// `key % connections`, so every key has a single writer and the
        /// value a read must see is known from that connection's order.
        rngs: Vec<Rng64>,
        keys: u64,
        value_len: u32,
        set_share: f64,
    },
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        match spec.kind {
            Kind::Bg { members } => {
                let size_model = SizeModel::bg_default();
                let cost_model = CostModel::paper_three_tier();
                // Mirrors `BgConfig::paper_scaled(..).generate()` draw for
                // draw (a unit test holds the two together) without
                // materialising a trace as long as the run.
                Generator::Bg {
                    rng: Rng64::seed_from_u64(seed),
                    hot_cold: HotCold::paper_default(members),
                    permutation: Permutation::new(members, seed ^ 0xA5A5_A5A5),
                    sizes: (0..members)
                        .map(|key| {
                            u32::try_from(size_model.size_of(seed, key))
                                .expect("BG sizes are capped at 64 KiB")
                        })
                        .collect(),
                    costs: (0..members)
                        .map(|key| cost_model.cost_of(seed, key))
                        .collect(),
                }
            }
            Kind::Uniform {
                keys,
                value_len,
                set_share,
            } => Generator::Uniform {
                rngs: (0..CONNECTIONS as u64)
                    .map(|conn| Rng64::seed_from_u64(seed ^ (conn + 1).wrapping_mul(0x9E37_79B9)))
                    .collect(),
                keys,
                value_len,
                set_share,
            },
        }
    }

    /// The next traced row of a `Bg` stream: `(member, size, cost)`.
    fn next_bg_row(&mut self) -> TraceRecord {
        let Generator::Bg {
            rng,
            hot_cold,
            permutation,
            sizes,
            costs,
        } = self
        else {
            unreachable!("only Bg streams have traced rows");
        };
        let member = permutation.apply(hot_cold.sample(rng));
        // `BgConfig::generate` draws the action here; one action, so the
        // value is unused, but the draw keeps the streams aligned.
        let _action = rng.next_f64();
        let index = member as usize;
        TraceRecord::new(member, u64::from(sizes[index]), costs[index])
    }

    /// The next command for connection `conn`.
    pub fn next(&mut self, conn: usize) -> Request {
        match self {
            Generator::Bg { .. } => {
                let row = self.next_bg_row();
                Request {
                    op: Op::IqGet,
                    key: row.key,
                    value_len: value_len_of(row.size),
                    cost: row.cost,
                }
            }
            Generator::Uniform {
                rngs,
                keys,
                value_len,
                set_share,
            } => {
                let rng = &mut rngs[conn];
                let owned = *keys / CONNECTIONS as u64;
                let key = rng.range_u64(0, owned) * CONNECTIONS as u64 + conn as u64;
                let op = if *set_share > 0.0 && rng.chance(*set_share) {
                    Op::Set
                } else {
                    Op::Get
                };
                Request {
                    op,
                    key,
                    value_len: *value_len,
                    cost: 1,
                }
            }
        }
    }

    /// The first `rows` traced rows of a fresh `Bg` stream, for the
    /// simulator cross-check and the in-process ledger.
    pub fn bg_trace(spec: &Spec, seed: u64, rows: usize) -> Trace {
        let mut generator = Generator::new(spec, seed);
        Trace::from_records((0..rows).map(|_| generator.next_bg_row()).collect())
    }
}

/// Stored value length for a traced size.
pub fn value_len_of(size: u64) -> u32 {
    u32::try_from(size.saturating_sub(VALUE_OVERHEAD).max(1)).expect("BG sizes fit u32")
}

/// Appends the wire key `k<n>`.
pub fn push_key(out: &mut Vec<u8>, key: u64) {
    out.push(b'k');
    camp_kvs::resp::push_u64(out, key);
}

/// Key-derived value bytes: a window into one fixed pseudo-random
/// buffer whose offset depends on the key, so a reply carrying another
/// key's value or a shifted one fails verification at `memcmp` cost.
#[derive(Debug)]
pub struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    const OFFSETS: u64 = 251;

    pub fn new(max_value_len: usize) -> Pattern {
        let mut rng = Rng64::seed_from_u64(0xCA3B_E7C4);
        let mut bytes = Vec::with_capacity(max_value_len + Self::OFFSETS as usize + 8);
        while bytes.len() < max_value_len + Self::OFFSETS as usize {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Pattern { bytes }
    }

    /// The `len` value bytes of `key`. `version` (durable-set: the
    /// per-key write counter, else 0) shifts the window too.
    pub fn value(&self, key: u64, version: u64, len: usize) -> &[u8] {
        let mixed = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(version.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let offset = ((mixed >> 32) % Self::OFFSETS) as usize;
        &self.bytes[offset..offset + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_workload::BgConfig;

    fn bg_spec() -> Spec {
        Spec {
            kind: Kind::Bg { members: 2_000 },
            ..SPECS[0]
        }
    }

    #[test]
    fn bg_stream_is_the_camp_workload_trace() {
        let ours = Generator::bg_trace(&bg_spec(), 42, 20_000);
        let theirs = BgConfig::paper_scaled(2_000, 20_000, 42).generate();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn streams_repeat_per_seed_and_diverge_across_seeds() {
        for spec in [bg_spec(), SPECS[2], SPECS[3]] {
            let draw = |seed: u64| -> Vec<Request> {
                let mut generator = Generator::new(&spec, seed);
                (0..4_000)
                    .map(|i| generator.next(i % CONNECTIONS))
                    .collect()
            };
            assert_eq!(draw(42), draw(42), "{}", spec.name);
            assert_ne!(draw(42), draw(7), "{}", spec.name);
        }
    }

    #[test]
    fn uniform_keys_have_one_owning_connection_and_the_stated_mix() {
        let spec = SPECS[3];
        let mut generator = Generator::new(&spec, 1);
        let mut sets = 0;
        for i in 0..20_000 {
            let conn = i % CONNECTIONS;
            let request = generator.next(conn);
            assert_eq!(request.key as usize % CONNECTIONS, conn);
            assert!(request.key < spec.key_space());
            sets += usize::from(request.op == Op::Set);
        }
        assert!((9_000..11_000).contains(&sets), "sets = {sets}");
    }

    #[test]
    fn pattern_depends_on_key_and_version() {
        let pattern = Pattern::new(1024);
        assert_eq!(pattern.value(5, 0, 64), pattern.value(5, 0, 64));
        assert_eq!(pattern.value(5, 0, 64).len(), 64);
        let distinct = (0..200u64)
            .filter(|&k| pattern.value(k, 0, 64) != pattern.value(k + 1, 0, 64))
            .count();
        assert!(distinct > 190);
        assert_ne!(pattern.value(5, 1, 64), pattern.value(5, 2, 64));
        let _ = pattern.value(u64::MAX, u64::MAX, 1024);
    }
}
