//! Property tests for the KVS substrate: the protocol parser never panics,
//! the store matches a reference model under arbitrary operation sequences
//! (for every pluggable eviction policy), and the slab allocator conserves
//! memory. Seeded random exploration via `camp_core::rng::Rng64`.

use camp_core::rng::Rng64;
use camp_kvs::protocol::{parse_command, parse_command_limited};
use camp_kvs::slab::{SlabAllocator, SlabConfig};
use camp_kvs::store::{EvictionMode, Store, StoreConfig, StoreError};

// ---------------------------------------------------------------- protocol

/// Arbitrary byte lines never panic the parser — they parse or they
/// produce a protocol error.
#[test]
fn parser_never_panics() {
    let mut rng = Rng64::seed_from_u64(0x9a75e5);
    for _ in 0..4_000 {
        let len = rng.range_usize(0, 300);
        let line: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = parse_command(&line);
    }
}

/// Well-formed storage commands round-trip through the grammar: every
/// successfully parsed `set` header reports the key, flags, expiry and
/// byte count it was given.
#[test]
fn parsed_set_headers_are_sane() {
    const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:_-";
    let mut rng = Rng64::seed_from_u64(0x5e7);
    for _ in 0..2_000 {
        let key: String = (0..rng.range_usize(1, 65))
            .map(|_| KEY_CHARS[rng.range_usize(0, KEY_CHARS.len())] as char)
            .collect();
        let flags = rng.next_u64() as u32;
        let exptime = rng.next_u64() as u32;
        let bytes = rng.range_usize(0, 100_000);
        let line = format!("set {key} {flags} {exptime} {bytes}");
        match parse_command(line.as_bytes()).expect("well-formed set must parse") {
            camp_kvs::protocol::Command::Set { header } => {
                assert_eq!(header.key, key.into_bytes());
                assert_eq!(header.flags, flags);
                assert_eq!(header.exptime, u64::from(exptime));
                assert_eq!(header.bytes, bytes);
                assert_eq!(header.cost_hint, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }
}

/// Fuzz by mutation: take a corpus of *valid* command lines and mangle
/// them with seeded byte flips, truncations, splices and duplications.
/// Mutated near-valid input exercises far deeper parser paths than pure
/// random bytes (which die at the verb). The parser must never panic, and
/// any `set` it does accept must respect the declared length limit.
#[test]
fn mangled_valid_commands_never_panic_and_respect_limits() {
    const LIMIT: usize = 4096;
    let corpus: &[&[u8]] = &[
        b"get alpha",
        b"get alpha beta gamma delta epsilon zeta eta theta",
        b"iqget profile:42",
        b"set alpha 7 300 120",
        b"set alpha 4294967295 18446744073709551615 4095",
        b"add beta 0 0 0",
        b"replace gamma 1 1 1",
        b"iqset delta 0 0 64 123456",
        b"delete epsilon",
        b"incr counter 9",
        b"decr counter 18446744073709551615",
        b"touch zeta 86400",
        b"stats detail",
        b"stats reset",
        b"flush_all",
        b"version",
        b"quit",
    ];
    let mut rng = Rng64::seed_from_u64(0xF0_22ED);
    let mut line = Vec::new();
    for round in 0..20_000 {
        line.clear();
        line.extend_from_slice(corpus[rng.range_usize(0, corpus.len())]);
        // 1–4 mutations per round.
        for _ in 0..rng.range_usize(1, 5) {
            if line.is_empty() {
                line.push(rng.next_u64() as u8);
                continue;
            }
            match rng.range_u64(0, 5) {
                // Flip one byte anywhere.
                0 => {
                    let at = rng.range_usize(0, line.len());
                    line[at] = rng.next_u64() as u8;
                }
                // Truncate.
                1 => line.truncate(rng.range_usize(0, line.len() + 1)),
                // Insert a random byte.
                2 => {
                    let at = rng.range_usize(0, line.len() + 1);
                    line.insert(at, rng.next_u64() as u8);
                }
                // Duplicate a chunk (often doubles a numeric field).
                3 => {
                    let from = rng.range_usize(0, line.len());
                    let to = rng.range_usize(from, line.len() + 1);
                    let chunk: Vec<u8> = line[from..to].to_vec();
                    let at = rng.range_usize(0, line.len() + 1);
                    line.splice(at..at, chunk);
                }
                // Splice in a fragment of another corpus entry.
                _ => {
                    let donor = corpus[rng.range_usize(0, corpus.len())];
                    let from = rng.range_usize(0, donor.len());
                    let at = rng.range_usize(0, line.len() + 1);
                    line.splice(at..at, donor[from..].iter().copied());
                }
            }
        }
        if let Ok(camp_kvs::protocol::Command::Set { header }) = parse_command_limited(&line, LIMIT)
        {
            assert!(
                header.bytes <= LIMIT,
                "round {round}: accepted an oversize set ({} > {LIMIT}) from {:?}",
                header.bytes,
                String::from_utf8_lossy(&line)
            );
        }
    }
}

// ------------------------------------------------------------------- store

#[derive(Debug, Clone)]
enum StoreOp {
    Set { key: u8, value_len: u16, cost: u64 },
    Get(u8),
    Delete(u8),
    Incr(u8),
    Add { key: u8, value_len: u16 },
    FlushAll,
}

fn random_ops(rng: &mut Rng64) -> Vec<StoreOp> {
    let count = rng.range_usize(0, 200);
    (0..count)
        .map(|_| {
            let key = rng.next_u64() as u8;
            match rng.range_u64(0, 14) {
                0..=4 => StoreOp::Set {
                    key,
                    value_len: rng.range_u64(0, 2_000) as u16,
                    cost: rng.range_u64(0, 10_000),
                },
                5..=8 => StoreOp::Get(key),
                9..=10 => StoreOp::Delete(key),
                11 => StoreOp::Incr(key),
                12 => StoreOp::Add {
                    key,
                    value_len: rng.range_u64(0, 500) as u16,
                },
                _ => StoreOp::FlushAll,
            }
        })
        .collect()
}

/// The store agrees with a HashMap model on membership and values, for
/// **every** eviction mode the spec layer can build, under arbitrary op
/// sequences — with the model pruned by whatever the store evicted
/// (evictions are policy choices, not correctness violations).
#[test]
fn store_matches_model_under_every_policy() {
    let modes: Vec<EvictionMode> = EvictionMode::all_names()
        .iter()
        .map(|name| name.parse().expect("documented name parses"))
        .collect();
    for mode in &modes {
        for seed in 0..12u64 {
            let mut rng = Rng64::seed_from_u64(0xC0DE ^ seed);
            let ops = random_ops(&mut rng);
            check_store_against_model(mode.clone(), &ops);
        }
    }
}

fn check_store_against_model(eviction: EvictionMode, ops: &[StoreOp]) {
    let mut store = Store::new(StoreConfig {
        slab: SlabConfig::small(8 * 1024, 8),
        eviction,
    });
    let mut model: std::collections::HashMap<u8, Vec<u8>> = Default::default();
    for op in ops {
        match *op {
            StoreOp::Set {
                key,
                value_len,
                cost,
            } => {
                let value = vec![key; value_len as usize];
                match store.set(&[key], &value, 0, 0, cost) {
                    Ok(()) => {
                        model.insert(key, value);
                    }
                    Err(StoreError::ValueTooLarge { .. }) => {
                        // Unstorable: model unchanged, store unchanged.
                    }
                    Err(StoreError::OutOfMemory) => {
                        panic!("8 slabs cannot OOM on 2KB values");
                    }
                }
            }
            StoreOp::Add { key, value_len } => {
                let value = vec![key; value_len as usize];
                let was_resident = store.contains(&[key]);
                if let Ok(stored) = store.add(&[key], &value, 0, 0, 1) {
                    assert_eq!(
                        stored, !was_resident,
                        "add must store exactly when the key was absent"
                    );
                    if stored {
                        model.insert(key, value);
                    }
                }
            }
            StoreOp::Get(key) => {
                let got = store.get_with(&[key], |item| item.value.to_vec());
                if let Some(value) = &got {
                    let want = model.get(&key);
                    assert_eq!(
                        Some(value),
                        want,
                        "store returned a value the model disagrees with"
                    );
                }
                // A model hit with a store miss means the store evicted
                // the key: prune the model.
                if got.is_none() {
                    model.remove(&key);
                }
            }
            StoreOp::Delete(key) => {
                store.delete(&[key]);
                model.remove(&key);
            }
            StoreOp::Incr(key) => {
                if let Some(next) = store.incr(&[key], 1) {
                    model.insert(key, next.to_string().into_bytes());
                }
            }
            StoreOp::FlushAll => {
                store.flush_all();
                model.clear();
                assert!(store.is_empty());
            }
        }
        // Evictions may have removed model keys; len is bounded by it.
        assert!(store.len() <= u8::MAX as usize + 1);
    }
    // Every store resident must be model-known (the converse can fail
    // through evictions, which only shrink the store).
    for key in 0..=u8::MAX {
        if store.contains(&[key]) {
            // Residents the model evicted are impossible: only store
            // evictions prune the model, and those also remove residency.
            assert!(
                model.contains_key(&key),
                "store holds {key} which the model does not ({})",
                store.policy_name()
            );
        }
    }
}

// -------------------------------------------------------------- allocators

/// The slab allocator conserves chunks: every allocated chunk is distinct,
/// frees recycle, and item counts match.
#[test]
fn slab_allocator_conserves_chunks() {
    for seed in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(0x51ab ^ seed);
        let sizes: Vec<u32> = (0..rng.range_usize(1, 200))
            .map(|_| rng.range_u64(1, 3_000) as u32)
            .collect();
        let mut slabs = SlabAllocator::new(SlabConfig::small(16 * 1024, 4));
        let mut live = std::collections::HashSet::new();
        for (i, &size) in sizes.iter().enumerate() {
            match slabs.allocate(size) {
                Ok(chunk) => {
                    assert!(live.insert(chunk), "chunk handed out twice");
                }
                Err(_) => {
                    // Free half the live chunks and continue.
                    if i % 2 == 0 {
                        let drain: Vec<_> = live.iter().copied().take(5).collect();
                        for chunk in drain {
                            live.remove(&chunk);
                            slabs.free(chunk);
                        }
                    }
                }
            }
            let census_items: u64 = slabs.class_census().iter().map(|&(_, _, n)| n).sum();
            assert_eq!(census_items as usize, live.len());
        }
    }
}
