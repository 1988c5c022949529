//! Power-loss tests for the `--fsync always` ack barrier.
//!
//! `kill -9` keeps the page cache, so neither `tests/crash_recovery.rs`
//! nor the benchmark's read-back can see a missing fsync: everything the
//! process ever `write`-ed is still there after the restart. [`PowerLossFs`]
//! can: it wraps [`RealFs`], remembers each segment's last-synced length
//! and how far its runway of synced zeros reaches, and
//! [`PowerHandle::power_loss`] materialises what the disk would hold if the
//! machine lost power now — every segment's synced prefix, then zeros to the
//! end of its runway (the worst case for a write that was overwriting them:
//! none of it landed). It also decodes what it is asked to write, however
//! many records one write carries, so a test can ask at any instant whether
//! a given versioned set is already covered by a completed sync.
//!
//! The tests drive a real reactor over it. The mutation test flips the
//! reactor's test-only `flush_before_commit` switch and holds the first
//! sync at a gate, so the early ack is observed deterministically. The
//! gather test holds a rotation's sync the same way, so a second
//! connection's batch arrives while the worker is mid-cycle.

#![cfg(test)]

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use camp_core::Precision;

use super::{
    record, FsyncMode, IoBackend, Persist, PersistOptions, RealFs, Record, MIN_SEGMENT_BYTES,
};
use crate::client::{Client, ClientConfig, Reply};
use crate::fault::FaultPlan;
use crate::server::{Server, ServerOptions, Shared};
use crate::shard::ShardedStore;
use crate::slab::SlabConfig;
use crate::store::{EvictionMode, StoreConfig};
use crate::sync::lock;

/// Connections × pipeline depth × rounds of versioned sets.
const CONNS: usize = 3;
const PIPELINE: usize = 16;
const ROUNDS: u64 = 40;
/// How long a gated sync (mutation test only) waits to be released.
const GATE_TIMEOUT: Duration = Duration::from_secs(10);

/// One segment file as the disk sees it.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    len: u64,
    /// Bytes a completed `sync` covers; the rest dies with the power.
    synced_len: u64,
    /// Where the reserved zeros end: synced when they were written, so
    /// they survive — as zeros — whatever was being written over them.
    reserved_to: u64,
}

#[derive(Debug, Default)]
struct Disk {
    /// Live segments, the active one last.
    segments: Vec<Segment>,
    /// Versioned sets written to the active segment since its last sync.
    unsynced: Vec<(Vec<u8>, u64)>,
    /// Highest version of each key that a completed sync covers.
    durable: HashMap<Vec<u8>, u64>,
}

/// The test's view of the disk behind a [`PowerLossFs`].
#[derive(Debug, Clone)]
struct PowerHandle(Arc<Mutex<Disk>>);

impl PowerHandle {
    /// The highest version of `key` that would survive a power loss now.
    fn durable_version(&self, key: &[u8]) -> u64 {
        lock(&self.0).durable.get(key).copied().unwrap_or(0)
    }

    /// Writes into `dest` what the disk would hold if power failed now:
    /// every segment's last-synced prefix, then its reserved zeros. The
    /// running server is not disturbed (it never rewrites a synced byte).
    fn power_loss(&self, dest: &Path) {
        fs::create_dir_all(dest).expect("create power-loss image dir");
        // Held across the copies so a concurrent compaction cannot remove
        // a segment between reading its length and copying it.
        let disk = lock(&self.0);
        for segment in &disk.segments {
            let synced = segment.synced_len as usize;
            let mut survived = vec![0u8; synced.max(segment.reserved_to as usize)];
            File::open(&segment.path)
                .and_then(|mut file| file.read_exact(&mut survived[..synced]))
                .expect("read a segment's synced prefix");
            let name = segment.path.file_name().expect("segment file name");
            fs::write(dest.join(name), survived).expect("write power-loss image");
        }
    }
}

/// `v<version>` (8 digits) — what [`PowerLossFs`] parses back out of the
/// records it is asked to write.
fn versioned_value(version: u64) -> String {
    format!("v{version:08}-payload")
}

fn version_of(value: &[u8]) -> Option<u64> {
    std::str::from_utf8(value.get(1..9)?).ok()?.parse().ok()
}

/// [`RealFs`] plus the bookkeeping a power cut needs.
#[derive(Debug)]
struct PowerLossFs {
    inner: RealFs,
    disk: Arc<Mutex<Disk>>,
    /// Mutation test only: each sync first waits for a message, the
    /// sender's drop, or [`GATE_TIMEOUT`].
    gate: Option<Receiver<()>>,
}

impl PowerLossFs {
    fn new(gate: Option<Receiver<()>>) -> (PowerLossFs, PowerHandle) {
        let disk = Arc::new(Mutex::new(Disk::default()));
        let fs = PowerLossFs {
            inner: RealFs::new(),
            disk: Arc::clone(&disk),
            gate,
        };
        (fs, PowerHandle(disk))
    }
}

impl IoBackend for PowerLossFs {
    fn create(&mut self, path: &Path) -> io::Result<()> {
        self.inner.create(path)?;
        let mut disk = lock(&self.disk);
        // The segment left behind can never be synced again: whatever it
        // still owed is lost to a power cut for good.
        disk.unsynced.clear();
        disk.segments.push(Segment {
            path: path.to_path_buf(),
            len: 0,
            synced_len: 0,
            reserved_to: 0,
        });
        Ok(())
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.append(buf)?;
        let mut disk = lock(&self.disk);
        record::scan(buf, |rec| {
            if let Record::Set { key, value, .. } = rec {
                if let Some(version) = version_of(value) {
                    disk.unsynced.push((key.to_vec(), version));
                }
            }
        });
        let active = disk.segments.last_mut().expect("append before create");
        active.len += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(gate) = &self.gate {
            let _ = gate.recv_timeout(GATE_TIMEOUT);
        }
        // The disk lock is not held across the sync: a test thread asking
        // "is this durable yet?" meanwhile must get the honest "no".
        self.inner.sync()?;
        let mut disk = lock(&self.disk);
        let Disk {
            segments,
            unsynced,
            durable,
        } = &mut *disk;
        let active = segments.last_mut().expect("sync before create");
        active.synced_len = active.len;
        for (key, version) in unsynced.drain(..) {
            let entry = durable.entry(key).or_insert(0);
            *entry = (*entry).max(version);
        }
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)?;
        let mut disk = lock(&self.disk);
        let active = disk.segments.last_mut().expect("truncate before create");
        active.len = len;
        active.synced_len = active.synced_len.min(len);
        active.reserved_to = active.reserved_to.min(len);
        Ok(())
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        let mut disk = lock(&self.disk);
        disk.segments.retain(|segment| segment.path != path);
        self.inner.remove(path)
    }

    fn reserve(&mut self, bytes: u64) -> io::Result<u64> {
        // (The sync inside also covers any records written before it; the
        // model does not count on that.)
        let end = self.inner.reserve(bytes)?;
        let mut disk = lock(&self.disk);
        disk.segments
            .last_mut()
            .expect("reserve before create")
            .reserved_to = end;
        Ok(end)
    }
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    // ordering: Relaxed — unique-id counter.
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("camp-power-{tag}-{}-{seq}", std::process::id()))
}

fn store_config() -> StoreConfig {
    StoreConfig {
        slab: SlabConfig::small(64 * 1024, 16),
        eviction: EvictionMode::Camp(Precision::Bits(5)),
    }
}

/// A two-worker reactor with `--fsync always` over `backend`. Segments
/// are small enough that the run crosses rotations and a compaction.
fn start_server(dir: &Path, backend: PowerLossFs, mutate: bool) -> (Server, Arc<Shared>) {
    start_server_with(dir, 2, 16 * 1024, backend, mutate)
}

fn start_server_with(
    dir: &Path,
    workers: usize,
    segment_bytes: u64,
    backend: PowerLossFs,
    mutate: bool,
) -> (Server, Arc<Shared>) {
    let mut options = ServerOptions::new(store_config());
    options.shards = 4;
    options.workers = workers;
    options.persist = Some(PersistOptions {
        fsync: FsyncMode::Always,
        segment_bytes,
        ..PersistOptions::new(dir)
    });
    let shared =
        Arc::new(Shared::with_backend(&options, Some(Box::new(backend))).expect("build shared"));
    // ordering: Relaxed — set before the server (and any traffic) starts.
    shared.flush_before_commit.store(mutate, Ordering::Relaxed);
    let server = Server::start_shared("127.0.0.1:0", &options, Arc::clone(&shared))
        .expect("start reactor over the power-loss backend");
    (server, shared)
}

fn key_name(conn: usize, slot: usize) -> String {
    format!("c{conn}-k{slot:02}")
}

/// Sends one pipelined batch of `PIPELINE` sets (every slot of `conn`) at
/// `version`, then reads the replies one by one; all must be `STORED`.
/// Returns the keys whose record no completed sync covered *at the moment
/// the `STORED` was read*.
fn pipelined_round(
    client: &mut Client,
    conn: usize,
    version: u64,
    disk: &PowerHandle,
) -> io::Result<Vec<String>> {
    let value = versioned_value(version);
    for slot in 0..PIPELINE {
        client.push_set(key_name(conn, slot).as_bytes(), value.as_bytes(), 0, 0);
    }
    let mut early = Vec::new();
    client.collect(|slot, reply| {
        assert_eq!(reply, Reply::Line(b"STORED"), "set refused");
        let key = key_name(conn, slot);
        if disk.durable_version(key.as_bytes()) < version {
            early.push(key);
        }
        Ok(())
    })?;
    Ok(early)
}

/// A client that gives up on a reply only well after a gated sync would
/// have been released.
fn connect(server: &Server) -> Client {
    let config = ClientConfig {
        read_timeout: Some(GATE_TIMEOUT * 2),
        ..ClientConfig::default()
    };
    Client::connect_with(server.local_addr(), config).expect("connect")
}

/// Collects `client`'s batch; every reply must be `STORED`.
fn expect_stored(client: &mut Client) {
    client
        .collect(|i, reply| {
            assert_eq!(reply, Reply::Line(b"STORED"), "reply {i}");
            Ok(())
        })
        .expect("read the replies");
}

/// One multi-record write is decoded record by record, and the image a
/// power cut leaves is the synced prefix followed by the reserved zeros —
/// not the unsynced batch that was overwriting them.
#[test]
fn power_loss_image_is_the_synced_prefix_then_the_reserved_zeros() {
    let dir = temp_dir("model");
    let image = temp_dir("model-image");
    fs::create_dir_all(&dir).expect("mkdir");
    let (mut backend, disk) = PowerLossFs::new(None);
    backend
        .create(&dir.join("seg-00000000.camplog"))
        .expect("create");
    assert_eq!(backend.reserve(4096).expect("reserve"), 4096);
    let batch = |keys: &[&str], version: u64| {
        let value = versioned_value(version);
        let mut buf = Vec::new();
        for key in keys {
            let rec = Record::Set {
                key: key.as_bytes(),
                value: value.as_bytes(),
                flags: 0,
                cost: 1,
                expires_at: 0,
            };
            record::encode_into(&rec, &mut buf);
        }
        buf
    };
    let first = batch(&["a", "b", "c"], 1);
    backend.append(&first).expect("append");
    assert_eq!(disk.durable_version(b"c"), 0, "written is not yet durable");
    backend.sync().expect("sync");
    for key in [b"a", b"b", b"c"] {
        assert_eq!(disk.durable_version(key), 1, "every record of the write");
    }
    backend.append(&batch(&["a", "d"], 2)).expect("append");

    disk.power_loss(&image);
    let survived = fs::read(image.join("seg-00000000.camplog")).expect("read image");
    assert_eq!(survived.len(), 4096);
    assert_eq!(survived[..first.len()], first[..]);
    assert!(survived[first.len()..].iter().all(|&b| b == 0));

    let recovered = ShardedStore::new(store_config(), 1);
    let reopened = Persist::open(
        PersistOptions::new(&image),
        &FaultPlan::default(),
        &recovered,
    )
    .expect("recover from the image");
    let snap = reopened.snapshot();
    assert_eq!(
        (snap.recovered, snap.quarantined, snap.torn_bytes),
        (3, 0, 0)
    );
    assert_eq!(
        recovered
            .get_with(b"a", |item| version_of(item.value))
            .expect("a"),
        Some(1),
        "the unsynced rewrite died with the power"
    );
    assert!(!recovered.contains(b"d"));
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&image).ok();
}

/// Three connections × pipeline 16 of versioned sets against a reactor
/// whose disk can lose power: (a) every `STORED` the client reads is
/// already covered by a completed sync, (b) a power cut in mid-run loses
/// no write acknowledged before it, (c) the syncs were shared.
#[test]
fn acked_writes_survive_power_loss_and_syncs_are_shared() {
    let dir = temp_dir("live");
    let image = temp_dir("image");
    let (backend, disk) = PowerLossFs::new(None);
    let (server, shared) = start_server(&dir, backend, false);
    // Every ack any client has read so far: key → version.
    let acks: Arc<Mutex<HashMap<String, u64>>> = Arc::default();

    let acked_before_cut = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|conn| {
                let mut client = connect(&server);
                let disk = disk.clone();
                let acks = Arc::clone(&acks);
                scope.spawn(move || {
                    let mut early = Vec::new();
                    for version in 1..=ROUNDS {
                        let round_early = pipelined_round(&mut client, conn, version, &disk)
                            .expect("pipelined round");
                        early.extend(round_early.into_iter().map(|key| (key, version)));
                        let mut acks = lock(&acks);
                        for slot in 0..PIPELINE {
                            acks.insert(key_name(conn, slot), version);
                        }
                    }
                    early
                })
            })
            .collect();

        // Cut the power in mid-run: first fix the set of acks the cut must
        // honour, then take the disk's image — anything acked before the
        // first step was synced before it, so the image has it.
        // (A key's version goes up by one per ack, so the versions sum to
        // the number of acks read so far.)
        let halfway = (CONNS * PIPELINE) as u64 * ROUNDS / 2;
        let acked_before_cut = loop {
            let acks = lock(&acks);
            if acks.values().sum::<u64>() >= halfway {
                break acks.clone();
            }
            drop(acks);
            std::thread::sleep(Duration::from_millis(1));
        };
        disk.power_loss(&image);

        for client in clients {
            let early = client.join().expect("client thread");
            assert!(
                early.is_empty(),
                "(a) STORED read before the sync covering it: {early:?}"
            );
        }
        acked_before_cut
    });

    // (b) Recover from the image as a fresh boot would.
    let recovered = ShardedStore::new(store_config(), 4);
    let reopened = Persist::open(
        PersistOptions::new(&image),
        &FaultPlan::default(),
        &recovered,
    )
    .expect("recover from the power-loss image");
    assert_eq!(reopened.snapshot().quarantined, 0);
    assert!(!acked_before_cut.is_empty());
    for (key, &version) in &acked_before_cut {
        let got = recovered
            .get_with(key.as_bytes(), |item| version_of(item.value))
            .unwrap_or_else(|| panic!("(b) acked key {key} lost at v{version}"))
            .expect("recovered value parses");
        assert!(
            got >= version,
            "(b) {key} recovered at v{got}, acked at v{version}"
        );
    }

    // (c) The group actually formed.
    let snap = shared.persist.as_ref().expect("persist on").snapshot();
    assert_eq!(snap.errors, 0);
    assert!(
        snap.records >= (CONNS * PIPELINE) as u64 * ROUNDS,
        "{snap:?}"
    );
    assert!(
        snap.fsyncs < snap.records / 2,
        "(c) {} fsyncs for {} records: no group formed",
        snap.fsyncs,
        snap.records
    );
    assert!(snap.snapshots >= 1, "the run should cross a compaction");

    server.shutdown();
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&image).ok();
}

/// Mutation: a reactor that flushes parked replies *before* committing
/// must fail check (a). The first sync is held at a gate, so the client
/// reads its `STORED` lines while no sync has covered them; with the
/// shipped order the replies would sit behind the gated sync instead.
#[test]
fn flush_before_commit_mutation_is_caught() {
    let dir = temp_dir("mutant");
    let (release, gate): (Sender<()>, Receiver<()>) = mpsc::channel();
    let (backend, disk) = PowerLossFs::new(Some(gate));
    let (server, _shared) = start_server(&dir, backend, true);
    let mut client = connect(&server);
    // One round trip first, so the sets arrive on an established
    // connection; they park either way, as every cycle's replies do.
    let version = client.version().expect("version");
    assert!(version.starts_with("VERSION"), "{version:?}");
    let early = pipelined_round(&mut client, 0, 1, &disk).expect("pipelined round");
    // Open the gate for good: every later sync passes at once.
    drop(release);
    assert!(
        !early.is_empty(),
        "flush-before-commit went unnoticed: every STORED was already durable"
    );
    drop(client);
    server.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// A batch that reaches its socket while the worker is still busy with an
/// earlier connection's batch joins that batch's commit instead of paying
/// for a write and a sync of its own. One worker, two connections: A's
/// second set trips a segment rotation, whose sync is held at the gate
/// until B's whole batch sits in B's socket buffer. The rotation is one
/// commit; A's last set and all of B's sets are the other.
#[test]
fn a_batch_that_arrives_before_the_barrier_joins_its_commit() {
    let dir = temp_dir("gather");
    let (release, gate): (Sender<()>, Receiver<()>) = mpsc::channel();
    let (backend, disk) = PowerLossFs::new(Some(gate));
    let (server, shared) = start_server_with(&dir, 1, MIN_SEGMENT_BYTES, backend, false);
    let persist = shared.persist.as_ref().expect("persist on");
    let mut a = connect(&server);
    let mut b = connect(&server);
    // One round trip each, so both registration cycles are over.
    for client in [&mut a, &mut b] {
        let version = client.version().expect("version");
        assert!(version.starts_with("VERSION"), "{version:?}");
    }
    let before = persist.snapshot();

    // Two sets that overflow the 4 KiB segment, then one for the next.
    let big = "x".repeat(3000);
    for key in ["a-big-1", "a-big-2"] {
        a.push_set(key.as_bytes(), big.as_bytes(), 0, 0);
    }
    a.push_set(b"a-tail", b"x", 0, 0);
    a.send().expect("send A's batch");
    // The rotation's write has landed: until the gate opens, the worker
    // is inside A's cycle, past the wait that returned A's event.
    let written = || lock(&disk.0).segments.first().map_or(0, |s| s.len);
    for _ in 0..GATE_TIMEOUT.as_millis() {
        if written() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(written() > 0, "A's sets never reached the disk");
    for slot in 0..PIPELINE {
        b.push_set(key_name(1, slot).as_bytes(), b"x", 0, 0);
    }
    b.send().expect("send B's batch");
    drop(release);
    expect_stored(&mut a);
    expect_stored(&mut b);

    let after = persist.snapshot();
    assert_eq!(after.errors, 0);
    assert_eq!(
        after.commits - before.commits,
        2,
        "the rotation, then one commit for A's tail and B's batch"
    );
    drop((a, b));
    server.shutdown();
    fs::remove_dir_all(&dir).ok();
}
