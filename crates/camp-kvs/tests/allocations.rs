//! Steady-state commands allocate nothing.
//!
//! A counting global allocator counts each thread's own allocations, and
//! `net::Loopback` runs every command through the path a reactor worker
//! runs — parse, execute against a real store, tally, publish, journal,
//! flush. Once warmed up, `get`, `set`, `iqget`, `iqset`, `incr`, `touch`
//! and `delete` must each go 20 000 commands without one allocation, under
//! CAMP and under LRU, memory-only and journaled under `--fsync always`
//! (with segments too long to roll, so the count is the append's, not a
//! rotation's). Each cell is a test of its own, so the four run side by
//! side and none counts another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use camp_core::Precision;
use camp_kvs::net::Loopback;
use camp_kvs::persist::{FsyncMode, PersistOptions};
use camp_kvs::server::ServerOptions;
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting into [`ALLOCATIONS`]. `alloc_zeroed`
/// and `realloc` keep their default bodies, which allocate through
/// `alloc`, so every new block is counted once.
struct Counting;

// lint:allow(unsafe-outside-signals) — a global allocator can only be
// written as an `unsafe impl`; it forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe-outside-signals) — the trait's own signature.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // lint:allow(unsafe-outside-signals) — the trait's own signature.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The verbs measured, in the order one round sends them.
const VERBS: [&str; 7] = ["delete", "iqget", "iqset", "get", "touch", "incr", "set"];
/// Keys the rounds cycle through.
const KEYS: usize = 64;
/// Rounds before counting begins.
const WARMUP: usize = 2_000;
/// Rounds counted: one command of each verb per round.
const ROUNDS: usize = 20_000;

/// One round's commands on key `k`, one per verb, and the reply each
/// expects: `k` is present when the round begins and when it ends.
fn round(k: usize) -> [(String, &'static [u8]); 7] {
    let key = format!("key-{k:02}");
    [
        (format!("delete {key}\r\n"), b"DELETED\r\n"),
        (format!("iqget {key}\r\n"), b"END\r\n"),
        (
            format!("iqset {key} 0 0 16\r\nvalue-0123456789\r\n"),
            b"STORED\r\n",
        ),
        (format!("get {key}\r\n"), b"VALUE"),
        (format!("touch {key} 0\r\n"), b"TOUCHED\r\n"),
        ("incr counter 1\r\n".to_string(), b""),
        (
            format!("set {key} 0 0 16\r\nvalue-9876543210\r\n"),
            b"STORED\r\n",
        ),
    ]
}

/// Sends `command` and checks that the reply begins with `expect`.
fn exchange(loopback: &mut Loopback, replies: &mut Vec<u8>, command: &[u8], expect: &[u8]) {
    replies.clear();
    loopback.exchange(command, replies).expect("vec sink");
    assert!(
        replies.starts_with(expect),
        "{:?} -> {:?}",
        String::from_utf8_lossy(command),
        String::from_utf8_lossy(replies)
    );
}

/// Warms `eviction` up, then counts each verb's allocations over
/// [`ROUNDS`] rounds; journaled under `--fsync always` in `data_dir` if
/// given one. Every count must be zero.
fn assert_steady_state_allocates_nothing(eviction: EvictionMode, data_dir: Option<PathBuf>) {
    let mut options = ServerOptions::new(StoreConfig {
        slab: SlabConfig::small(64 * 1024, 64),
        eviction,
    });
    options.persist = data_dir.as_ref().map(|dir| PersistOptions {
        fsync: FsyncMode::Always,
        segment_bytes: 1 << 30,
        ..PersistOptions::new(dir)
    });
    let mut loopback = Loopback::new(&options).expect("open the server state");
    let mut replies = Vec::with_capacity(4096);
    exchange(
        &mut loopback,
        &mut replies,
        b"set counter 0 0 1\r\n0\r\n",
        b"STORED\r\n",
    );
    let rounds: Vec<_> = (0..KEYS).map(round).collect();
    for commands in &rounds {
        let (set, expect) = &commands[6];
        exchange(&mut loopback, &mut replies, set.as_bytes(), expect);
    }
    let mut counted = [0u64; VERBS.len()];
    for i in 0..WARMUP + ROUNDS {
        for (verb, (command, expect)) in rounds[i % KEYS].iter().enumerate() {
            let before = allocations();
            exchange(&mut loopback, &mut replies, command.as_bytes(), expect);
            if i >= WARMUP {
                counted[verb] += allocations() - before;
            }
        }
    }
    let table: Vec<_> = VERBS.iter().zip(counted).collect();
    assert!(
        counted.iter().all(|&n| n == 0),
        "allocations over {ROUNDS} commands per verb: {table:?}"
    );
    drop(loopback);
    if let Some(dir) = data_dir {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camp-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn camp_commands_allocate_nothing() {
    assert_steady_state_allocates_nothing(EvictionMode::Camp(Precision::Bits(5)), None);
}

#[test]
fn lru_commands_allocate_nothing() {
    assert_steady_state_allocates_nothing(EvictionMode::Lru, None);
}

#[test]
fn journaled_camp_commands_allocate_nothing() {
    let dir = temp_dir("camp");
    assert_steady_state_allocates_nothing(EvictionMode::Camp(Precision::Bits(5)), Some(dir));
}

#[test]
fn journaled_lru_commands_allocate_nothing() {
    let dir = temp_dir("lru");
    assert_steady_state_allocates_nothing(EvictionMode::Lru, Some(dir));
}
