//! The one test disk of the persistence log, and the power-loss tests of
//! the `--fsync always` ack barrier.
//!
//! `kill -9` keeps the page cache, so neither `tests/crash_recovery.rs`
//! nor the benchmark's read-back can see a missing fsync: everything the
//! process ever `write`-ed is still there after the restart. [`PowerLossFs`]
//! can: it wraps [`RealFs`], remembers each file's last-synced length, how
//! far its runway of synced zeros reaches, what a recycled file's earlier
//! life left in it, and the name each file has since the last directory
//! sync (a created file has none until one covers it), and
//! [`PowerHandle::power_loss`] materialises what the disk would hold if the
//! machine lost power now — every file that has such a name, under it, its
//! synced prefix, then its earlier life's bytes or zeros to the end of its
//! runway (the worst case for a write that was overwriting them: none of it
//! landed); [`PowerHandle::kill_image`], what a kill leaves: every byte
//! written. It decodes what it is asked to write, so a test can ask at any
//! instant whether a versioned set is covered by a completed sync. Every
//! persistence test runs over it, alone or under [`super::FaultFs`].
//!
//! Most tests here drive a real reactor over it. The mutation test flips the
//! reactor's test-only `flush_before_commit` switch and holds the first
//! sync at a gate, so the early ack is observed deterministically. The
//! gather test holds a rotation's sync the same way, so a second
//! connection's batch arrives while the worker is mid-cycle. The recycling
//! tests drive the writer directly, one acknowledged set at a time, and
//! cut the power at every record of a recycled segment; their mutant is a
//! disk whose renames never reach a directory sync.

#![cfg(test)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use camp_core::Precision;

use super::{
    record, recover_into, FsyncMode, IoBackend, Persist, PersistOptions, RealFs, Record,
    RecoverySummary, MIN_SEGMENT_BYTES,
};
use crate::client::{Client, ClientConfig, Reply};
use crate::fault::FaultPlan;
use crate::item::Item;
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

/// Each kind of call an [`IoBackend`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Call {
    Create,
    Append,
    Sync,
    Truncate,
    Remove,
    Rename,
    Reserve,
    Retire,
    Recycle,
}

type Hook = Box<dyn FnMut(&PowerHandle, Call, usize) + Send>;

/// One file as the disk sees it: a segment, a spare or a snapshot in the
/// making.
#[derive(Debug, Default)]
struct Segment {
    path: PathBuf,
    /// The name a power cut finds the file under: none for a created file
    /// until a directory sync (any `rename`'s) covers it, which sets it for
    /// every file. A `retire` or a `recycle` renames without one.
    durable_path: Option<PathBuf>,
    len: u64,
    /// Bytes a completed `sync` covers; the rest dies with the power.
    synced_len: u64,
    /// Where the reserved zeros end: synced when they were written, so
    /// they survive — as zeros — whatever was being written over them.
    reserved_to: u64,
    /// What a recycled file's earlier life left on the disk: past the
    /// synced prefix it survives whatever was being written over it.
    previous: Vec<u8>,
    /// The active file was removed: it takes writes, but no image has it.
    unlinked: bool,
    /// Versioned sets a completed sync covers while the file's name is not
    /// yet [`Segment::durable_path`]: they become durable with the directory
    /// sync that makes it so.
    unnamed: Vec<(Vec<u8>, u64)>,
}

impl Segment {
    fn new(path: &Path, durable_path: Option<PathBuf>, previous: Vec<u8>) -> Segment {
        Segment {
            path: path.to_path_buf(),
            durable_path,
            previous,
            ..Segment::default()
        }
    }

    /// The file's bytes after a power cut now: the synced prefix over the
    /// earlier life's bytes, then zeros to the end of the runway.
    fn image(&self) -> Vec<u8> {
        let synced = self.synced_len as usize;
        let mut survived = self.previous.clone();
        let len = survived.len().max(synced).max(self.reserved_to as usize);
        survived.resize(len, 0);
        File::open(&self.path)
            .and_then(|mut file| file.read_exact(&mut survived[..synced]))
            .expect("read a file's synced prefix");
        survived
    }
}

#[derive(Default)]
struct Disk {
    /// Segment, spare and snapshot files, the active one last.
    segments: Vec<Segment>,
    /// Versioned sets written to the active segment since its last sync.
    unsynced: Vec<(Vec<u8>, u64)>,
    /// Highest version of each key that a completed sync covers, in a file
    /// whose name a directory sync has covered too.
    durable: HashMap<Vec<u8>, u64>,
    /// Calls taken so far, by [`Call`] kind.
    calls: [u64; 9],
    /// Scripted faults, `(call, nth, landed)`: the `nth` call of that kind
    /// fails before it reaches the disk, or (`landed`) after it took effect,
    /// as a rename whose directory sync fails does (an append: half of it).
    faults: Vec<(Call, u64, bool)>,
    /// Runs before every call, with the disk, the call's kind and an
    /// append's length: a test parks the call there, or images the disk.
    hook: Option<Hook>,
}

impl fmt::Debug for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.segments).finish()
    }
}

/// The test's view of the disk behind a [`PowerLossFs`].
#[derive(Debug, Clone)]
pub(super) struct PowerHandle(Arc<Mutex<Disk>>);

impl PowerHandle {
    /// The highest version of `key` that would survive a power loss now.
    fn durable_version(&self, key: &[u8]) -> u64 {
        lock(&self.0).durable.get(key).copied().unwrap_or(0)
    }

    /// What the disk would hold if power failed now: each file with a
    /// durable name, under it, and its [`Segment::image`]. The running
    /// server is not disturbed (it never rewrites a synced byte).
    pub(super) fn image(&self) -> Vec<(PathBuf, Vec<u8>)> {
        // Held across the reads so a concurrent compaction cannot remove
        // a file between reading its length and copying it.
        let disk = lock(&self.0);
        let files = disk.segments.iter().filter(|file| !file.unlinked);
        let named = files.filter_map(|f| Some((name(f.durable_path.as_ref()?), f.image())));
        named.collect()
    }

    /// What a process killed now leaves: every file under the name it has,
    /// with every byte written to it.
    pub(super) fn kill_image(&self) -> Vec<(PathBuf, Vec<u8>)> {
        let disk = lock(&self.0);
        let files = disk.segments.iter().filter(|file| !file.unlinked);
        files
            .map(|file| (name(&file.path), fs::read(&file.path).expect("read")))
            .collect()
    }

    /// Writes [`PowerHandle::image`] into `dest`.
    fn power_loss(&self, dest: &Path) {
        write_image(dest, &self.image());
    }

    /// The active file's name after a power cut (empty if it has none), its
    /// synced length, and whether it is recycled.
    fn active(&self) -> (PathBuf, u64, bool) {
        let disk = lock(&self.0);
        let file = disk.segments.last().expect("an active file");
        let recycled = !file.previous.is_empty();
        let durable = file.durable_path.as_deref().map_or_else(PathBuf::new, name);
        (durable, file.synced_len, recycled)
    }

    /// How many calls of kind `call` the disk has taken.
    pub(super) fn calls(&self, call: Call) -> u64 {
        lock(&self.0).calls[call as usize]
    }

    /// Scripts the `nth` call of kind `call`, counted from the first, to
    /// fail ([`Disk::faults`]).
    pub(super) fn fail(&self, call: Call, nth: u64, landed: bool) {
        lock(&self.0).faults.push((call, nth, landed));
    }

    /// Runs `hook` before every later call.
    pub(super) fn on_call(&self, hook: impl FnMut(&PowerHandle, Call, usize) + Send + 'static) {
        lock(&self.0).hook = Some(Box::new(hook));
    }
}

fn name(path: &Path) -> PathBuf {
    PathBuf::from(path.file_name().expect("file name"))
}

/// Moves `synced` versioned sets, whose file has its durable name, into
/// `durable`.
fn make_durable(durable: &mut HashMap<Vec<u8>, u64>, synced: &mut Vec<(Vec<u8>, u64)>) {
    for (key, version) in synced.drain(..) {
        let entry = durable.entry(key).or_insert(0);
        *entry = (*entry).max(version);
    }
}

/// Writes a power-loss image's files into `dest`.
pub(super) fn write_image(dest: &Path, files: &[(PathBuf, Vec<u8>)]) {
    fs::create_dir_all(dest).expect("create power-loss image dir");
    for (name, bytes) in files {
        fs::write(dest.join(name), bytes).expect("write power-loss image");
    }
}

/// The index a segment file's name carries, under its temporary name too.
fn index_of(path: &Path) -> u64 {
    let name = path.file_name().and_then(|name| name.to_str());
    name.and_then(|name| name.strip_prefix("seg-"))
        .and_then(|name| name.split('.').next())
        .and_then(|index| index.parse().ok())
        .expect("a segment file name")
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
pub(super) struct PowerLossFs {
    inner: RealFs,
    disk: Arc<Mutex<Disk>>,
    /// Whether a `rename` makes the directory durable; the mutation test
    /// clears it.
    dir_sync: bool,
}

impl PowerLossFs {
    pub(super) fn new() -> (PowerLossFs, PowerHandle) {
        let disk = Arc::new(Mutex::new(Disk::default()));
        let fs = PowerLossFs {
            inner: RealFs::new(),
            disk: Arc::clone(&disk),
            dir_sync: true,
        };
        (fs, PowerHandle(disk))
    }

    /// Where every call starts: runs the hook, counts the call, and fails
    /// it if a scripted fault does; `Ok(true)` if one lands after it.
    fn begin(&self, call: Call, bytes: usize) -> io::Result<bool> {
        let hook = lock(&self.disk).hook.take();
        // Not under the disk lock: the hook may park, or take an image.
        if let Some(mut hook) = hook {
            hook(&PowerHandle(Arc::clone(&self.disk)), call, bytes);
            lock(&self.disk).hook.get_or_insert(hook);
        }
        let mut disk = lock(&self.disk);
        disk.calls[call as usize] += 1;
        let nth = disk.calls[call as usize];
        match disk.faults.iter().position(|f| (f.0, f.1) == (call, nth)) {
            Some(at) if disk.faults.swap_remove(at).2 => Ok(true),
            Some(_) => Err(io::Error::other("scripted disk fault")),
            None => Ok(false),
        }
    }
}

/// A call's `done`, unless a scripted fault `landed` after it.
fn landed<T>(landed: bool, done: T) -> io::Result<T> {
    (!landed)
        .then_some(done)
        .ok_or_else(|| io::Error::other("scripted disk fault"))
}

impl IoBackend for PowerLossFs {
    fn create(&mut self, path: &Path) -> io::Result<()> {
        let fault = self.begin(Call::Create, 0)?;
        self.inner.create(path)?;
        let mut disk = lock(&self.disk);
        // The file left behind is never synced again: what it owed is lost.
        disk.unsynced.clear();
        disk.segments.retain(|f| f.path != path && !f.unlinked);
        disk.segments.push(Segment::new(path, None, Vec::new()));
        landed(fault, ())
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let fault = self.begin(Call::Append, buf.len())?;
        let buf = if fault { &buf[..buf.len() / 2] } else { buf };
        self.inner.append(buf)?;
        let mut disk = lock(&self.disk);
        let index = index_of(&disk.segments.last().expect("append before create").path);
        record::scan_segment(buf, index, |rec| {
            if let Record::Set(item) = rec {
                if let Some(version) = version_of(item.value) {
                    disk.unsynced.push((item.key.to_vec(), version));
                }
            }
        });
        let active = disk.segments.last_mut().expect("append before create");
        active.len += buf.len() as u64;
        landed(fault, ())
    }

    fn sync(&mut self) -> io::Result<()> {
        let fault = self.begin(Call::Sync, 0)?;
        // The disk lock is not held across the sync: a test thread asking
        // "is this durable yet?" meanwhile must get the honest "no".
        self.inner.sync()?;
        let mut disk = lock(&self.disk);
        let Disk {
            segments,
            unsynced,
            durable,
            ..
        } = &mut *disk;
        let active = segments.last_mut().expect("sync before create");
        active.synced_len = active.len;
        active.unnamed.append(unsynced);
        if active.durable_path.as_ref() == Some(&active.path) {
            make_durable(durable, &mut active.unnamed);
        }
        landed(fault, ())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let fault = self.begin(Call::Truncate, 0)?;
        self.inner.truncate(len)?;
        let mut disk = lock(&self.disk);
        let active = disk.segments.last_mut().expect("truncate before create");
        active.len = len;
        active.synced_len = active.synced_len.min(len);
        active.reserved_to = active.reserved_to.min(len);
        active.previous.truncate(len as usize);
        landed(fault, ())
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        let fault = self.begin(Call::Remove, 0)?;
        let mut disk = lock(&self.disk);
        self.inner.remove(path)?;
        // The active file keeps taking writes until another replaces it.
        let files = disk.segments.iter_mut().filter(|file| file.path == path);
        files.for_each(|file| file.unlinked = true);
        landed(fault, ())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let fault = self.begin(Call::Rename, 0)?;
        // Held across the rename, so a power cut copies the file under
        // the name it has on disk.
        let mut disk = lock(&self.disk);
        self.inner.rename(from, to)?;
        // A file a half-landed attempt left under `to` is replaced.
        disk.segments.retain(|file| file.path != to);
        let active = disk.segments.last_mut().expect("rename before create");
        active.path = to.to_path_buf();
        if self.dir_sync {
            let Disk {
                segments, durable, ..
            } = &mut *disk;
            for file in segments {
                file.durable_path = Some(file.path.clone());
                make_durable(durable, &mut file.unnamed);
            }
        }
        landed(fault, ())
    }

    fn retire(&mut self, path: &Path, spare: &Path) -> io::Result<bool> {
        let fault = self.begin(Call::Retire, 0)?;
        let mut disk = lock(&self.disk);
        let pooled = self.inner.retire(path, spare)?;
        let file = disk.segments.iter_mut().find(|file| file.path == path);
        file.expect("retire a known segment").path = spare.to_path_buf();
        landed(fault, pooled)
    }

    fn recycle(&mut self, spare: &Path, path: &Path) -> io::Result<u64> {
        let fault = self.begin(Call::Recycle, 0)?;
        let mut disk = lock(&self.disk);
        let at = disk.segments.iter().position(|file| file.path == spare);
        let at = at.expect("recycle a known spare");
        let previous = disk.segments[at].image();
        let len = self.inner.recycle(spare, path)?;
        let spare = disk.segments.remove(at);
        // As at `create`: the file left behind is never synced again.
        disk.unsynced.clear();
        disk.segments.retain(|file| !file.unlinked);
        disk.segments
            .push(Segment::new(path, spare.durable_path, previous));
        landed(fault, len)
    }

    fn reserve(&mut self, bytes: u64) -> io::Result<u64> {
        let fault = self.begin(Call::Reserve, 0)?;
        // (The sync inside also covers any records written before it; the
        // model does not count on that.)
        let end = self.inner.reserve(bytes)?;
        let mut disk = lock(&self.disk);
        disk.segments
            .last_mut()
            .expect("reserve before create")
            .reserved_to = end;
        landed(fault, end)
    }
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

pub(super) fn temp_dir(tag: &str) -> PathBuf {
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
    let (mut backend, disk) = PowerLossFs::new();
    // A created file's name survives a power cut once a directory sync
    // covers it: the rename's.
    let temp = dir.join("seg-00000000.camplog.tmp");
    backend.create(&temp).expect("create");
    backend
        .rename(&temp, &dir.join("seg-00000000.camplog"))
        .expect("rename");
    assert_eq!(backend.reserve(4096).expect("reserve"), 4096);
    let batch = |keys: &[&str], version: u64| {
        let value = versioned_value(version);
        let mut buf = Vec::new();
        for key in keys {
            let rec = Record::Set(Item {
                key: key.as_bytes(),
                value: value.as_bytes(),
                flags: 0,
                cost: 1,
                expires_at: 0,
            });
            record::encode_frame(&rec, 0, &mut buf);
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
    let (backend, disk) = PowerLossFs::new();
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
    let (backend, disk) = PowerLossFs::new();
    // Each sync first waits for a message, the sender's drop, or the timeout.
    disk.on_call(move |_, call, _| {
        let _ = (call == Call::Sync).then(|| gate.recv_timeout(GATE_TIMEOUT));
    });
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
    let (backend, disk) = PowerLossFs::new();
    // Each sync first waits for a message, the sender's drop, or the timeout.
    disk.on_call(move |_, call, _| {
        let _ = (call == Call::Sync).then(|| gate.recv_timeout(GATE_TIMEOUT));
    });
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

/// Keys the recycling tests cycle through: every segment's earlier life
/// holds older versions of the keys its new life writes.
const RECYCLE_KEYS: u64 = 8;

/// A writer over a [`PowerLossFs`] whose every append is its own
/// `--fsync always` commit — acknowledged once it returns — in segments
/// small enough that the spare pool fills within a few hundred sets.
struct Recycling {
    store: ShardedStore,
    persist: Persist,
    disk: PowerHandle,
    dir: PathBuf,
    /// Every key's last acknowledged version.
    acked: HashMap<Vec<u8>, u64>,
    version: u64,
}

impl Recycling {
    fn new(tag: &str, dir_sync: bool) -> Recycling {
        let dir = temp_dir(tag);
        let (mut backend, disk) = PowerLossFs::new();
        backend.dir_sync = dir_sync;
        let store = ShardedStore::new(store_config(), 1);
        let options = PersistOptions {
            fsync: FsyncMode::Always,
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: 2,
            ..PersistOptions::new(&dir)
        };
        let persist = Persist::open_with_backend(options, Box::new(backend), &store)
            .expect("open over the power-loss backend");
        Recycling {
            store,
            persist,
            disk,
            dir,
            acked: HashMap::new(),
            version: 0,
        }
    }

    /// One acknowledged set of the next version; returns its key.
    fn set(&mut self) -> Vec<u8> {
        self.version += 1;
        let key = format!("k{}", self.version % RECYCLE_KEYS).into_bytes();
        let value = versioned_value(self.version);
        self.store
            .set(&key, value.as_bytes(), 0, 0, 1)
            .expect("set");
        self.persist
            .append_set(&self.store, &key, value.as_bytes(), 0, 0, 1);
        self.acked.insert(key.clone(), self.version);
        key
    }
}

/// Boots recovery on a power-loss image written into `dest`.
fn recover_image(files: &[(PathBuf, Vec<u8>)], dest: &Path) -> (ShardedStore, RecoverySummary) {
    let _ = fs::remove_dir_all(dest);
    write_image(dest, files);
    let store = ShardedStore::new(store_config(), 1);
    let summary = recover_into(dest, &store).expect("recover").summary;
    (store, summary)
}

/// Keys of `acked` that `store` does not serve at exactly their
/// acknowledged version: lost, or rolled back by a stale frame.
fn lost_or_stale(store: &ShardedStore, acked: &HashMap<Vec<u8>, u64>) -> Vec<String> {
    let mut wrong: Vec<String> = acked
        .iter()
        .filter(|&(key, &version)| {
            store.get_with(key, |item| version_of(item.value)) != Some(Some(version))
        })
        .map(|(key, version)| format!("{}@v{version}", String::from_utf8_lossy(key)))
        .collect();
    wrong.sort();
    wrong
}

/// A power cut after every acknowledged set in boot's segment and in the
/// roll taken while the spare pool is still empty, up to the first
/// compaction. Both files were created, so only the directory sync behind
/// the rename that named them lets them survive the cut: recovery must serve
/// every acknowledged write at exactly its version after each cut.
#[test]
fn a_power_cut_after_any_ack_in_a_created_segment_keeps_it() {
    let mut run = Recycling::new("created", true);
    let image = temp_dir("created-image");
    let (mut acks, mut rolled) = (0, false);
    // Per cut that lost or rolled back an acknowledged write: how many keys.
    let mut lost = Vec::new();
    while run.persist.snapshot().snapshots == 0 {
        run.set();
        acks += 1;
        rolled |= lock(&run.persist.writer).seg_index == 1;
        let (store, _) = recover_image(&run.disk.image(), &image);
        let wrong = lost_or_stale(&store, &run.acked);
        if !wrong.is_empty() {
            lost.push(wrong.len());
        }
    }
    assert!(rolled, "no roll before the first compaction");
    assert!(
        lost.is_empty(),
        "{} of {acks} power cuts lost acknowledged writes, of up to {} keys",
        lost.len(),
        lost.iter().max().copied().unwrap_or(0)
    );
    fs::remove_dir_all(&run.dir).ok();
    fs::remove_dir_all(&image).ok();
}

/// A power cut at every record boundary inside three recycled segments
/// (rolled and snapshot ones), and at every byte of every fourth write
/// there, over files whose earlier lives hold older versions of the same
/// keys: recovery serves every acknowledged write at exactly its version,
/// so no stale frame is replayed, and counts nothing torn or quarantined
/// at a boundary.
#[test]
fn a_power_cut_inside_a_recycled_segment_keeps_every_acked_write() {
    let mut run = Recycling::new("recycled", true);
    let image = temp_dir("recycled-image");
    let mut recycled = HashSet::new();
    let mut torn_writes = 0;
    while recycled.len() < 3 {
        let before = run.disk.image();
        let (name, synced, _) = run.disk.active();
        let acked_before = run.acked.clone();
        let key = run.set();
        let (name_after, synced_after, is_recycled) = run.disk.active();
        if !is_recycled {
            continue;
        }
        recycled.insert(name_after.clone());
        let after = run.disk.image();
        let (store, summary) = recover_image(&after, &image);
        assert_eq!(lost_or_stale(&store, &run.acked), Vec::<String>::new());
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));

        if name != name_after || !run.version.is_multiple_of(4) {
            continue;
        }
        // The same write cut at every byte: its frame, then the end marker.
        let active = |files: &[(PathBuf, Vec<u8>)]| {
            let file = files.iter().find(|(file, _)| *file == name);
            file.expect("the active file is in the image").1.clone()
        };
        let (from, to) = (synced as usize, synced_after as usize);
        let write = active(&after)[from..to].to_vec();
        let frame_len = write.len() - record::END_MARKER.len();
        let mut others = acked_before.clone();
        let earlier = others.remove(&key);
        for cut in 1..write.len() {
            let mut files = before.clone();
            let file = &mut files
                .iter_mut()
                .find(|(file, _)| *file == name)
                .expect("active")
                .1;
            if file.len() < from + cut {
                file.resize(from + cut, 0);
            }
            // What the earlier life held there may leave its own frame
            // whole (another segment's: a clean end), or complete the new
            // one.
            let changed = file[from..from + cut] != write[..cut];
            file[from..from + cut].copy_from_slice(&write[..cut]);
            let whole = file[from..].starts_with(&write[..frame_len]);
            let (store, summary) = recover_image(&files, &image);
            assert_eq!(
                lost_or_stale(&store, &others),
                Vec::<String>::new(),
                "cut {cut}"
            );
            assert_eq!(summary.quarantined, 0, "cut {cut}");
            let got = store
                .get_with(&key, |item| version_of(item.value))
                .flatten();
            if whole {
                assert_eq!(got, Some(run.version), "cut {cut}: a whole frame lost");
            } else {
                assert_eq!(got, earlier, "cut {cut}: a torn frame replayed");
                // Past the previous write's end marker, a frame shows as
                // begun once its magic has landed.
                let begun = cut >= 4 && changed;
                assert!(summary.torn_bytes > 0 || !begun, "cut {cut}: {summary:?}");
            }
        }
        torn_writes += 1;
    }
    assert!(torn_writes >= 3, "only {torn_writes} writes cut");
    let snap = run.persist.snapshot();
    assert!(snap.snapshots >= 1 && snap.recycled >= 3, "{snap:?}");
    fs::remove_dir_all(&run.dir).ok();
    fs::remove_dir_all(&image).ok();
}

/// Mutation: on a disk whose renames never reach a directory sync, a
/// recycled segment keeps its earlier name through a power cut, and the
/// acknowledged writes in it are lost — the check above must say so.
#[test]
fn a_rename_left_unsynced_is_caught() {
    let mut run = Recycling::new("unsynced-rename", false);
    let image = temp_dir("unsynced-rename-image");
    while !matches!(run.disk.active(), (_, synced, true) if synced > 0) {
        run.set();
    }
    let (store, _) = recover_image(&run.disk.image(), &image);
    assert!(
        !lost_or_stale(&store, &run.acked).is_empty(),
        "a recycled name that never became durable went unnoticed"
    );
    fs::remove_dir_all(&run.dir).ok();
    fs::remove_dir_all(&image).ok();
}
