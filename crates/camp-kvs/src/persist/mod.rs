//! Crash-safe durability: an append-only, checksummed mutation log with
//! warm restarts.
//!
//! Layout mirrors `net/`: [`record`] is the on-disk codec and recovery
//! scanner, [`io`] is the write-side backend seam (real disk or the
//! deterministic [`FaultFs`] injector), and this module owns the
//! [`Persist`] engine: rotating segment files under `--data-dir`,
//! `--fsync always|interval|never`, compaction-by-snapshot, and a
//! degraded-state machine that keeps the cache serving from memory when
//! the disk is sick.
//!
//! # Log discipline
//!
//! Every successful mutation (`set`/`add`/`replace`/`incr`/`decr`/
//! `delete`/`touch`/`flush_all`) appends one checksummed record to the
//! active segment *after* the shard lock is released, in the order the
//! writer mutex admits the appenders — the log is a journal of effects
//! the client is about to be told of, not a write-ahead log, so the hot
//! path with persistence disabled is byte-identical. On boot,
//! [`Persist::open`] replays every segment in index order through the
//! scanner, truncates the torn tail a crash left behind, quarantines
//! corrupt mid-log records, and rebuilds both the sharded store and the
//! per-item CAMP costs before any listener opens.
//!
//! # The commit path and the ack barrier
//!
//! An `append_*` only *encodes*: the frame joins the writer's `pending`
//! buffer under the writer mutex. A **commit** is what reaches the
//! kernel — one `write` carrying every pending frame of every worker,
//! then, under `--fsync always`, one `fdatasync` — so a commit costs two
//! calls however many records it carries. `always` promises that an
//! *acknowledged* write survives a crash, the other modes that it
//! survives the process (it has been `write`-n), and a write is
//! acknowledged when its reply reaches the socket, not when the append
//! returns; so the commit only has to precede the flush. A caller that
//! holds its replies back (the reactor) says so once with
//! `Persist::defer_to_commit` and calls [`Persist::commit`] before it
//! flushes: take the writer lock, return at once if nothing is owed,
//! otherwise write and sync for everything appended so far by any
//! worker. The mutex is the queue — a second worker whose records the
//! first worker's commit carried finds the writer clean and returns
//! without a syscall — and [`Persist::needs_commit`] is the lock-free
//! "did I append anything a commit still owes?" (see `state`'s
//! `UnsyncedFlag` for which way that read can be stale, and its
//! camp-check harness). A caller that never made the promise (direct
//! `append_*` callers: tests, the benchmark ledger) gets the same commit
//! at once, inside the append. Rotation, the seal, a snapshot and the
//! interval tick commit whatever is pending first; rotation syncs the
//! segment it leaves before creating the next, in every mode, because
//! the backend can only sync its active file.
//!
//! # Segment life cycle
//!
//! *Create* opens an empty file; *reserve* asks the backend for a runway
//! of written-and-synced zeros ahead of the records
//! ([`IoBackend::reserve`]: the whole segment plus a record of slack
//! when that is under 1 MiB, else 1 MiB at a time as the records near
//! its end); commits *overwrite* the runway in place, so the `fdatasync`
//! behind each finds no new block and no new file size to journal;
//! *rotate* commits, cuts the unused zeros off and moves on. A failed
//! write cuts the file back to the last good byte — runway included, so
//! no frame of the failed batch can outlive it — and the segment grows
//! the plain way until the next rotation. Recovery reads a zero tail as
//! the clean end of the log ([`record::scan`]).
//!
//! # Degraded state
//!
//! After `trip_after` consecutive I/O errors the engine trips to
//! `degraded`: appends are counted and dropped, the cache keeps
//! serving, and the background thread retries with jittered exponential
//! backoff. Re-arming never replays a gap — it starts a fresh segment
//! with a full snapshot (a [`Record::Clear`] followed by one set per
//! live item), so the log matches the live store the moment it heals.

pub mod io;
mod powerloss;
pub mod record;
mod state;

pub use io::{FaultFs, IoBackend, RealFs};
pub use record::{Record, ScanSummary};

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io as stdio;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use camp_core::rng::Rng64;
use camp_telemetry::{kvlog, Histogram, HistogramSnapshot, LogLevel};

use crate::fault::FaultPlan;
use crate::shard::ShardedStore;
use crate::sync::lock;

use self::state::{EngineState, UnsyncedFlag};

/// Segment file extension (files are named `seg-<index>.camplog`).
const SEGMENT_SUFFIX: &str = ".camplog";

/// Floor for `--segment-bytes`: below this, rotation overhead dominates.
pub const MIN_SEGMENT_BYTES: u64 = 4096;

/// The most runway one `reserve` asks for: boot, a rotation and the
/// reactor stall for a write-and-sync of this many zeros, never of a
/// whole 64 MiB segment.
const RUNWAY_CHUNK: u64 = 1 << 20;
/// Runway past `segment_bytes`: the record that trips the rotation ends
/// beyond it.
const RUNWAY_SLACK: u64 = 8 * 1024;
/// Extend the runway once the records come this close to its end.
const RUNWAY_LOW_WATER: u64 = RUNWAY_CHUNK / 4;

/// When to fsync the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// fsync before any reply that depends on it is sent: an
    /// acknowledged write survives a crash (see the module docs for how
    /// many records one sync covers).
    Always,
    /// fsync on a background interval (default 100 ms): bounded loss.
    #[default]
    Interval,
    /// No fsync on behalf of a write: the OS page cache decides.
    /// (Rotation and compaction still sync what they leave behind.)
    Never,
}

impl FromStr for FsyncMode {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text {
            "always" => Ok(FsyncMode::Always),
            "interval" => Ok(FsyncMode::Interval),
            "never" => Ok(FsyncMode::Never),
            other => Err(format!(
                "unknown fsync mode '{other}' (expected always|interval|never)"
            )),
        }
    }
}

impl fmt::Display for FsyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncMode::Always => "always",
            FsyncMode::Interval => "interval",
            FsyncMode::Never => "never",
        })
    }
}

/// Configuration for the persistence engine.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding the segment files (created if absent).
    pub data_dir: PathBuf,
    /// Durability level for appends.
    pub fsync: FsyncMode,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Compact (snapshot) once this many segments accumulate.
    pub keep_segments: usize,
    /// Consecutive I/O errors before tripping to `degraded`.
    pub trip_after: u32,
    /// Background fsync cadence for [`FsyncMode::Interval`].
    pub fsync_interval: Duration,
}

impl PersistOptions {
    /// Defaults: 64 MiB segments, compaction at 4 segments, degraded
    /// after 5 consecutive errors, 100 ms interval fsync.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            data_dir: data_dir.into(),
            fsync: FsyncMode::default(),
            segment_bytes: 64 << 20,
            keep_segments: 4,
            trip_after: 5,
            fsync_interval: Duration::from_millis(100),
        }
    }
}

/// What boot-time recovery found across all segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoverySummary {
    /// Segment files scanned.
    pub segments: u64,
    /// Checksum-verified records replayed into the store.
    pub records: u64,
    /// Corrupt records (or corrupt spans) skipped mid-log.
    pub quarantined: u64,
    /// Torn-tail bytes truncated or skipped.
    pub torn_bytes: u64,
    /// Whether the newest segment ended in a clean-shutdown seal.
    pub sealed: bool,
}

/// One point-in-time read of the persistence counters, for `stats` and
/// the Prometheus exporter. [`PersistSnapshot::default`] is the all-zero
/// `"disabled"` row the exporter emits when persistence is off, keeping
/// the Prometheus schema stable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct PersistSnapshot {
    /// `"active"` or `"degraded"` (a server without `--data-dir`
    /// reports `"disabled"` by having no snapshot at all).
    pub state: &'static str,
    /// I/O errors observed (append, fsync, repair).
    pub errors: u64,
    /// Record bytes successfully written.
    pub bytes: u64,
    /// Successful fsyncs.
    pub fsyncs: u64,
    /// Records successfully written.
    pub records: u64,
    /// Records dropped while degraded.
    pub dropped: u64,
    /// Records replayed by boot-time recovery.
    pub recovered: u64,
    /// Corrupt records quarantined by boot-time recovery.
    pub quarantined: u64,
    /// Torn-tail bytes found by boot-time recovery.
    pub torn_bytes: u64,
    /// Compaction snapshots taken (including re-arms).
    pub snapshots: u64,
    /// Active-to-degraded transitions (trips) since boot.
    pub trips: u64,
    /// Successful degraded-to-active recoveries.
    pub rearms: u64,
    /// Segment files currently in the log (including the active one).
    pub segments: u64,
    /// Syncs that made appended records durable (an inline or group
    /// `always` sync, an interval tick, the sync before a rotation, the
    /// seal) — every successful fsync but a snapshot's.
    pub commits: u64,
    /// Records those syncs covered — every record but a snapshot's;
    /// `commit_records / commits` is the mean group size.
    pub commit_records: u64,
    /// `write` calls that carried records: one per commit that had any
    /// pending, plus a snapshot's flushes.
    pub writes: u64,
    /// Runway reservations (each a write of zeros and a sync of its own,
    /// not counted in `fsyncs`).
    pub reserves: u64,
    /// Zero bytes those reservations wrote.
    pub reserved_bytes: u64,
    /// Wall time of every `fsync` the engine issued, in microseconds —
    /// where the time the `set` handler histogram no longer contains went.
    pub sync_us: HistogramSnapshot,
}

impl Default for PersistSnapshot {
    fn default() -> Self {
        PersistSnapshot {
            state: "disabled",
            errors: 0,
            bytes: 0,
            fsyncs: 0,
            records: 0,
            dropped: 0,
            recovered: 0,
            quarantined: 0,
            torn_bytes: 0,
            snapshots: 0,
            trips: 0,
            rearms: 0,
            segments: 0,
            commits: 0,
            commit_records: 0,
            writes: 0,
            reserves: 0,
            reserved_bytes: 0,
            sync_us: HistogramSnapshot::empty(),
        }
    }
}

/// The mutable write-side state, held under one mutex.
#[derive(Debug)]
struct LogWriter {
    backend: Box<dyn IoBackend>,
    dir: PathBuf,
    /// Index of the active segment.
    seg_index: u64,
    /// Bytes a `write` has landed in the active segment: where the next
    /// one goes, and the repair target after a failed (possibly short)
    /// one.
    committed: u64,
    consecutive_errors: u32,
    /// All live segments in index order; the active one is last.
    segments: Vec<(u64, PathBuf)>,
    /// Encoded frames no `write` has carried yet: everything appended
    /// since the last commit (and a snapshot's flush buffer).
    pending: Vec<u8>,
    /// Records in `pending`.
    pending_records: u64,
    /// Records written to the active segment since the last successful
    /// fsync.
    unsynced_records: u64,
    /// Where the active segment's runway ends; 0 when it has none (the
    /// backend does not reserve, or a failed write cut it off).
    runway_end: u64,
    /// `write` calls that carried records.
    writes: u64,
    /// Runway reservations, and the zero bytes they wrote.
    reserves: u64,
    reserved_bytes: u64,
}

impl LogWriter {
    /// Makes segment `index` the active one: create it and reset what is
    /// accounted per segment.
    fn start_segment(&mut self, index: u64) -> stdio::Result<()> {
        let path = segment_path(&self.dir, index);
        self.backend.create(&path)?;
        self.seg_index = index;
        self.committed = 0;
        self.unsynced_records = 0;
        self.runway_end = 0;
        self.segments.push((index, path));
        Ok(())
    }

    /// The one place record bytes reach the backend: a single `append`
    /// of everything pending, which is dropped either way.
    fn write_pending(&mut self) -> stdio::Result<()> {
        let result = self.backend.append(&self.pending);
        self.pending.clear();
        self.writes += u64::from(result.is_ok());
        result
    }

    /// Forgets what is pending without writing it.
    fn discard_pending(&mut self) {
        self.pending.clear();
        self.pending_records = 0;
    }

    /// Cuts the active segment back to `len` bytes of records. Whatever
    /// runway lay past them goes with the cut (even a failed one: the
    /// segment then grows the plain way, which is always correct).
    fn truncate(&mut self, len: u64) -> stdio::Result<()> {
        self.committed = len;
        self.runway_end = 0;
        self.backend.truncate(len)
    }

    /// Extends the active segment's runway by up to [`RUNWAY_CHUNK`],
    /// never past `segment_bytes` plus [`RUNWAY_SLACK`]. After a failure
    /// the segment goes on without one.
    fn extend_runway(&mut self, segment_bytes: u64) -> stdio::Result<()> {
        let goal = segment_bytes.saturating_add(RUNWAY_SLACK);
        let from = self.runway_end.max(self.committed);
        if from >= goal {
            return Ok(());
        }
        let want = RUNWAY_CHUNK.min(goal - from);
        // Stays 0 behind a failure, and for a backend that does not reserve.
        self.runway_end = 0;
        self.runway_end = self.backend.reserve(want)?;
        if self.runway_end != 0 {
            self.reserves += 1;
            self.reserved_bytes += want;
        }
        Ok(())
    }
}

/// The append-only persistence engine. One per server; shared between
/// request workers (appends), the background thread (interval fsync and
/// degraded retry) and the drain path (seal).
#[derive(Debug)]
pub struct Persist {
    writer: Mutex<LogWriter>,
    options: PersistOptions,
    engine: EngineState,
    /// The caller promised to [`Persist::commit`] before it
    /// acknowledges, so appends do not commit inline.
    deferred: bool,
    /// Lock-free mirror of "a commit owes something": frames are
    /// pending, or (`--fsync always`) written records are unsynced.
    unsynced: UnsyncedFlag,
    errors: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    records: AtomicU64,
    commits: AtomicU64,
    commit_records: AtomicU64,
    sync_us: Histogram,
    recovered: AtomicU64,
    quarantined: AtomicU64,
    torn_bytes: AtomicU64,
    snapshots: AtomicU64,
    stop: AtomicBool,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}{SEGMENT_SUFFIX}"))
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Lists `dir`'s segment files in ascending index order.
fn list_segments(dir: &Path) -> stdio::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        if let Ok(index) = stem.parse::<u64>() {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(index, _)| index);
    Ok(segments)
}

/// What boot-time replay hands back to [`Persist::open`]: the scan
/// summary, the surviving segment list, and the index the new active
/// segment should use.
struct Recovered {
    summary: RecoverySummary,
    segments: Vec<(u64, PathBuf)>,
    next_index: u64,
}

/// Replays every segment into `store`, cutting the newest segment back
/// to where its log ends (a torn tail, unused reserved zeros, or both).
fn recover_into(dir: &Path, store: &ShardedStore) -> stdio::Result<Recovered> {
    let segments = list_segments(dir)?;
    let mut summary = RecoverySummary {
        segments: segments.len() as u64,
        ..RecoverySummary::default()
    };
    let now = unix_now();
    let last_index = segments.len().checked_sub(1);
    for (pos, (_, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        let scan = record::scan(&bytes, |rec| match rec {
            Record::Set {
                key,
                value,
                flags,
                cost,
                expires_at,
            } => {
                if expires_at == 0 || expires_at > now {
                    // Eviction during replay is legal (smaller memory
                    // budget than the log's working set): best effort.
                    let _ = store.set(key, value, flags, expires_at, cost);
                } else {
                    // Expired while the server was down.
                    store.delete(key);
                }
            }
            Record::Delete { key } => {
                store.delete(key);
            }
            Record::Clear => store.flush_all(),
            Record::Touch { key, expires_at } => {
                store.touch(key, expires_at);
            }
            Record::Seal => {}
        });
        summary.records += scan.applied;
        summary.quarantined += scan.quarantined;
        summary.torn_bytes += scan.torn_bytes;
        if Some(pos) == last_index {
            summary.sealed = scan.sealed;
            if scan.valid_len < bytes.len() as u64 {
                // Physically cut the torn tail (and the zeros reserved
                // past it) so the crash leaves no trace for the next scan.
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(scan.valid_len)?;
            }
        }
    }
    let next_index = segments.last().map_or(0, |&(index, _)| index + 1);
    Ok(Recovered {
        summary,
        segments,
        next_index,
    })
}

impl Persist {
    /// Opens (or creates) the log under `options.data_dir`, replays it
    /// into `store`, truncates the torn tail, and arms a fresh active
    /// segment. The backend is [`FaultFs`] when the chaos plan carries
    /// disk-fault rates, [`RealFs`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation, segment reads,
    /// torn-tail truncation, or creating the new active segment — boot
    /// must not proceed on a data dir it cannot use.
    pub fn open(
        options: PersistOptions,
        fault_plan: &FaultPlan,
        store: &ShardedStore,
    ) -> stdio::Result<Persist> {
        let backend: Box<dyn IoBackend> = if fault_plan.has_disk_faults() {
            Box::new(FaultFs::new(Box::new(RealFs::new()), fault_plan))
        } else {
            Box::new(RealFs::new())
        };
        Persist::open_with_backend(options, backend, store)
    }

    /// [`Persist::open`] with an explicit backend (fault-injection tests
    /// construct arbitrary backends through this).
    ///
    /// # Errors
    ///
    /// Same as [`Persist::open`].
    pub fn open_with_backend(
        options: PersistOptions,
        backend: Box<dyn IoBackend>,
        store: &ShardedStore,
    ) -> stdio::Result<Persist> {
        fs::create_dir_all(&options.data_dir)?;
        let Recovered {
            summary,
            segments,
            next_index,
        } = recover_into(&options.data_dir, store)?;
        kvlog!(
            LogLevel::Info,
            "persist_recovered",
            segments = summary.segments,
            records = summary.records,
            quarantined = summary.quarantined,
            torn_bytes = summary.torn_bytes,
            sealed = summary.sealed,
            items = store.len() as u64,
        );
        let mut writer = LogWriter {
            backend,
            dir: options.data_dir.clone(),
            seg_index: next_index,
            committed: 0,
            consecutive_errors: 0,
            segments,
            pending: Vec::new(),
            pending_records: 0,
            unsynced_records: 0,
            runway_end: 0,
            writes: 0,
            reserves: 0,
            reserved_bytes: 0,
        };
        // Always start a fresh segment: recovered segments are immutable
        // history, never appended to again. A disk that cannot take its
        // runway is counted, not fatal: appends will say the rest.
        writer.start_segment(next_index)?;
        let reserve_failed = writer.extend_runway(options.segment_bytes).is_err();
        Ok(Persist {
            writer: Mutex::new(writer),
            options,
            engine: EngineState::new(),
            deferred: false,
            unsynced: UnsyncedFlag::new(),
            errors: AtomicU64::new(u64::from(reserve_failed)),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            records: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            commit_records: AtomicU64::new(0),
            sync_us: Histogram::new(),
            recovered: AtomicU64::new(summary.records),
            quarantined: AtomicU64::new(summary.quarantined),
            torn_bytes: AtomicU64::new(summary.torn_bytes),
            snapshots: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        })
    }

    /// Whether the engine has tripped to `degraded`.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// The caller promises to call [`Persist::commit`] before it
    /// acknowledges any mutation, so appends stop committing inline.
    /// The server always makes the promise; direct `append_*` callers
    /// (tests, the benchmark ledger) do not, and every append of theirs
    /// is its own commit.
    pub(crate) fn defer_to_commit(&mut self) {
        self.deferred = true;
    }

    /// Lock-free: whether a reply about to be sent may depend on records
    /// no commit has carried. Only ever true for a caller that deferred;
    /// never false for the caller's own uncommitted record.
    #[must_use]
    pub fn needs_commit(&self) -> bool {
        self.deferred && self.unsynced.get()
    }

    /// The ack barrier: returns once every record appended before the
    /// call has been written and — under `--fsync always` — is on stable
    /// storage (or the failure has been counted: the reply is still
    /// sent). One `write` and one sync cover all workers' records; a
    /// caller whose records an earlier `commit` carried returns without
    /// a syscall.
    pub fn commit(&self) {
        let w = &mut *lock(&self.writer);
        self.commit_locked(w, self.options.fsync == FsyncMode::Always);
    }

    /// Logs a successful store (`set`/`add`/`replace`/arith rewrite).
    pub fn append_set(
        &self,
        store: &ShardedStore,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) {
        self.append_record(
            store,
            &Record::Set {
                key,
                value,
                flags,
                cost,
                expires_at,
            },
        );
    }

    /// Logs a successful delete.
    pub fn append_delete(&self, store: &ShardedStore, key: &[u8]) {
        self.append_record(store, &Record::Delete { key });
    }

    /// Logs a successful touch.
    pub fn append_touch(&self, store: &ShardedStore, key: &[u8], expires_at: u64) {
        self.append_record(store, &Record::Touch { key, expires_at });
    }

    /// Logs a `flush_all`.
    pub fn append_clear(&self, store: &ShardedStore) {
        self.append_record(store, &Record::Clear);
    }

    fn append_record(&self, store: &ShardedStore, rec: &Record<'_>) {
        if self.is_degraded() {
            self.engine.note_dropped();
            return;
        }
        let writer = &mut *lock(&self.writer);
        self.append_locked(writer, store, rec);
    }

    fn append_locked(&self, w: &mut LogWriter, store: &ShardedStore, rec: &Record<'_>) {
        record::encode_into(rec, &mut w.pending);
        w.pending_records += 1;
        self.unsynced.mark();
        if w.committed + w.pending.len() as u64 >= self.options.segment_bytes {
            self.rotate_locked(w, store);
        } else if !self.deferred {
            self.commit_locked(w, self.options.fsync == FsyncMode::Always);
        }
    }

    /// One commit: write what is pending, then — if `sync` — sync what
    /// is written, then settle what the barrier still owes.
    fn commit_locked(&self, w: &mut LogWriter, sync: bool) {
        if !w.pending.is_empty() {
            let len = w.pending.len() as u64;
            let records = std::mem::take(&mut w.pending_records);
            match w.write_pending() {
                Ok(()) => {
                    w.committed += len;
                    w.unsynced_records += records;
                    w.consecutive_errors = 0;
                    // ordering: Relaxed(x2) — statistics counters;
                    // durability state travels through the writer lock.
                    self.bytes.fetch_add(len, Ordering::Relaxed);
                    self.records.fetch_add(records, Ordering::Relaxed);
                }
                Err(_) => {
                    // A short write may have left whole frames of the
                    // batch behind: cut the file back to the last good
                    // byte. That takes the runway with it, so nothing of
                    // this batch can sit past a later, shorter one.
                    let repaired = w.truncate(w.committed).is_ok();
                    self.note_io_error_locked(w);
                    if !repaired {
                        self.trip_locked(w);
                    }
                }
            }
        }
        if sync && w.unsynced_records > 0 {
            self.sync_locked(w);
        }
        if w.unsynced_records == 0 || self.options.fsync != FsyncMode::Always {
            self.unsynced.clear();
        }
        if w.runway_end != 0 && w.runway_end.saturating_sub(w.committed) < RUNWAY_LOW_WATER {
            self.reserve_locked(w);
        }
    }

    /// Tops the active segment's runway up; a failure is counted.
    fn reserve_locked(&self, w: &mut LogWriter) {
        if w.extend_runway(self.options.segment_bytes).is_err() {
            self.note_io_error_locked(w);
        }
    }

    /// One timed `fsync` of the active segment; every sync the engine
    /// issues goes through here so `persist:sync_us` sees them all.
    fn timed_sync(&self, backend: &mut dyn IoBackend) -> stdio::Result<()> {
        let started = Instant::now();
        let result = backend.sync();
        self.sync_us
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        if result.is_ok() {
            // ordering: Relaxed — statistics counter.
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Syncs the active segment's written records: on success they count
    /// as one commit and the writer is clean; on failure the error is
    /// counted and they stay unsynced for the next attempt.
    fn sync_locked(&self, w: &mut LogWriter) {
        match self.timed_sync(w.backend.as_mut()) {
            Ok(()) => {
                // ordering: Relaxed(x2) — statistics counters.
                self.commits.fetch_add(1, Ordering::Relaxed);
                self.commit_records
                    .fetch_add(w.unsynced_records, Ordering::Relaxed);
                self.mark_clean_locked(w);
            }
            Err(_) => self.note_io_error_locked(w),
        }
    }

    /// Nothing is waiting for a commit any more: the active segment was
    /// synced with nothing pending, or it is fresh, or it was given up on.
    fn mark_clean_locked(&self, w: &mut LogWriter) {
        debug_assert!(w.pending.is_empty());
        w.unsynced_records = 0;
        self.unsynced.clear();
    }

    fn note_io_error_locked(&self, w: &mut LogWriter) {
        // ordering: Relaxed — statistics counter.
        self.errors.fetch_add(1, Ordering::Relaxed);
        w.consecutive_errors = w.consecutive_errors.saturating_add(1);
        if w.consecutive_errors >= self.options.trip_after {
            self.trip_locked(w);
        }
    }

    fn trip_locked(&self, w: &mut LogWriter) {
        // Re-arm rebuilds the log from the live store, so nothing pending
        // or in the abandoned segment is worth a commit (or a parked
        // reply) any more.
        w.discard_pending();
        self.mark_clean_locked(w);
        if self.engine.trip() {
            kvlog!(
                LogLevel::Warn,
                "persist_degraded",
                consecutive_errors = u64::from(w.consecutive_errors),
                // ordering: Relaxed — log-line statistic.
                errors = self.errors.load(Ordering::Relaxed),
                hint = "cache keeps serving from memory; background retry will re-arm the log",
            );
        }
    }

    /// Rotates the active segment: a plain roll while few segments are
    /// live, a compaction snapshot once `keep_segments` accumulate.
    fn rotate_locked(&self, w: &mut LogWriter, store: &ShardedStore) {
        let result = if w.segments.len() >= self.options.keep_segments {
            self.compact_locked(w, store)
        } else {
            self.roll_locked(w)
        };
        if result.is_err() {
            self.note_io_error_locked(w);
        }
    }

    fn roll_locked(&self, w: &mut LogWriter) -> stdio::Result<()> {
        // The backend can only write and sync its active file: whatever
        // the outgoing segment still owes (the batch the rotation landed
        // in, an interval tail) is committed now or never. A failure is
        // counted and the roll goes on — the next segment must still
        // open.
        self.commit_locked(w, true);
        if w.runway_end > w.committed {
            // Best effort: the unused zeros are only disk space, and the
            // scanner reads them as the end of the log anyway.
            let _ = w.truncate(w.committed);
        }
        self.start_segment_locked(w, w.seg_index + 1)
    }

    /// Moves on to segment `index` — nothing is owed to the one left
    /// behind any more — and reserves its first stretch of runway.
    fn start_segment_locked(&self, w: &mut LogWriter, index: u64) -> stdio::Result<()> {
        w.start_segment(index)?;
        self.mark_clean_locked(w);
        self.reserve_locked(w);
        Ok(())
    }

    /// Compaction-by-snapshot: roll to a fresh segment, write a
    /// [`Record::Clear`] followed by one set per live item, fsync, and
    /// only then delete the older segments. Because the snapshot *leads*
    /// with `Clear`, a failed deletion is harmless — replay applies the
    /// stale history and then wipes it. A failed snapshot truncates the
    /// aborted segment to zero (removing the dangerous `Clear`) and
    /// keeps the old segments; if even that repair fails the engine
    /// trips to degraded so the next re-arm rebuilds from the live
    /// store.
    fn compact_locked(&self, w: &mut LogWriter, store: &ShardedStore) -> stdio::Result<()> {
        self.roll_locked(w)?;
        match self.snapshot_locked(w, store) {
            Ok(()) => {
                let active = w.seg_index;
                let stale: Vec<PathBuf> = w
                    .segments
                    .iter()
                    .filter(|&&(index, _)| index != active)
                    .map(|(_, path)| path.clone())
                    .collect();
                w.segments.retain(|&(index, _)| index == active);
                for path in &stale {
                    let _ = w.backend.remove(path);
                }
                // ordering: Relaxed — statistics counter.
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(err) => {
                if w.truncate(0).is_err() {
                    self.trip_locked(w);
                }
                Err(err)
            }
        }
    }

    /// Writes `Clear` + one `Set` per live item into the (fresh) active
    /// segment and fsyncs it. On success `w.committed` reflects the
    /// snapshot size.
    fn snapshot_locked(&self, w: &mut LogWriter, store: &ShardedStore) -> stdio::Result<()> {
        const FLUSH_BYTES: usize = 256 * 1024;
        debug_assert!(w.pending.is_empty());
        record::encode_into(&Record::Clear, &mut w.pending);
        let mut written = 0u64;
        let mut records = 1u64;
        let mut failed: Option<stdio::Error> = None;
        store.for_each_item(|item| {
            if failed.is_some() {
                return;
            }
            record::encode_into(
                &Record::Set {
                    key: item.key,
                    value: item.value,
                    flags: item.flags,
                    cost: item.cost,
                    expires_at: item.expires_at,
                },
                &mut w.pending,
            );
            records += 1;
            if w.pending.len() >= FLUSH_BYTES {
                let len = w.pending.len() as u64;
                match w.write_pending() {
                    Ok(()) => written += len,
                    Err(err) => failed = Some(err),
                }
            }
        });
        if let Some(err) = failed {
            return Err(err);
        }
        if !w.pending.is_empty() {
            let len = w.pending.len() as u64;
            w.write_pending()?;
            written += len;
        }
        self.timed_sync(w.backend.as_mut())?;
        w.committed = written;
        // ordering: Relaxed(x2) — statistics counters.
        self.bytes.fetch_add(written, Ordering::Relaxed);
        self.records.fetch_add(records, Ordering::Relaxed);
        Ok(())
    }

    /// One degraded-recovery attempt: start a fresh segment and write a
    /// full snapshot of the live store into it. On success the log
    /// exactly mirrors the cache (no silent gap from the records dropped
    /// while degraded), older segments are deleted, and the engine
    /// re-arms. Returns `true` when the engine is active afterwards.
    pub fn try_rearm(&self, store: &ShardedStore) -> bool {
        if !self.is_degraded() {
            return true;
        }
        let w = &mut *lock(&self.writer);
        // What an appender that raced the trip left pending is in the
        // live store, so the snapshot carries it.
        w.discard_pending();
        let index = w.seg_index + 1;
        if self.start_segment_locked(w, index).is_err() {
            // ordering: Relaxed — statistics counter.
            self.errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let path = segment_path(&w.dir, index);
        match self.snapshot_locked(w, store) {
            Ok(()) => {
                let stale: Vec<PathBuf> = w
                    .segments
                    .iter()
                    .filter(|&&(i, _)| i != index)
                    .map(|(_, p)| p.clone())
                    .collect();
                w.segments.retain(|&(i, _)| i == index);
                for p in &stale {
                    let _ = w.backend.remove(p);
                }
                w.consecutive_errors = 0;
                // ordering: Relaxed — statistics counter.
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                self.engine.rearm();
                kvlog!(
                    LogLevel::Info,
                    "persist_rearmed",
                    items = store.len() as u64,
                    // ordering: Relaxed — log-line statistic.
                    errors = self.errors.load(Ordering::Relaxed),
                );
                true
            }
            Err(_) => {
                // ordering: Relaxed — statistics counter.
                self.errors.fetch_add(1, Ordering::Relaxed);
                // Scrap the aborted attempt entirely; the next retry
                // starts clean.
                let _ = w.truncate(0);
                let _ = w.backend.remove(&path);
                w.segments.retain(|&(i, _)| i != index);
                false
            }
        }
    }

    /// Appends a [`Record::Seal`] and commits it with a sync in every
    /// mode: the drain path's clean shutdown marker. Recovery reports
    /// `sealed = true` when the newest segment ends with one.
    pub fn seal(&self) {
        if self.is_degraded() {
            return;
        }
        let w = &mut *lock(&self.writer);
        record::encode_into(&Record::Seal, &mut w.pending);
        w.pending_records += 1;
        self.commit_locked(w, true);
    }

    /// Asks the background loop to exit at its next tick.
    pub fn request_stop(&self) {
        // ordering: Release — pairs with the loop's Acquire load so work
        // done before the stop request is visible to the loop's last tick.
        self.stop.store(true, Ordering::Release);
    }

    /// The background maintenance loop (run on a dedicated thread):
    /// interval fsync while active, jittered-exponential-backoff re-arm
    /// attempts while degraded. Returns when [`Persist::request_stop`]
    /// is called.
    pub fn background_loop(&self, store: &ShardedStore) {
        const TICK: Duration = Duration::from_millis(20);
        const BACKOFF_BASE_MS: u64 = 50;
        const BACKOFF_CAP_MS: u64 = 2_000;
        let mut rng = Rng64::seed_from_u64(0xBAC0_FF5E);
        let mut last_fsync = Instant::now();
        let mut next_retry = Instant::now();
        let mut attempts: u32 = 0;
        // ordering: Acquire — pairs with `request_stop`'s Release store.
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(TICK);
            if self.is_degraded() {
                if Instant::now() < next_retry {
                    continue;
                }
                if self.try_rearm(store) {
                    attempts = 0;
                } else {
                    attempts = attempts.saturating_add(1);
                    let base = (BACKOFF_BASE_MS << attempts.min(5)).min(BACKOFF_CAP_MS);
                    let jitter = rng.range_u64(0, base / 2 + 1);
                    next_retry = Instant::now() + Duration::from_millis(base + jitter);
                }
            } else if self.options.fsync == FsyncMode::Interval
                && last_fsync.elapsed() >= self.options.fsync_interval
            {
                self.commit_locked(&mut lock(&self.writer), true);
                last_fsync = Instant::now();
            }
        }
    }

    /// The telemetry counters, read without blocking appends for long
    /// (one brief lock for what the writer counts itself).
    #[must_use]
    pub fn snapshot(&self) -> PersistSnapshot {
        let sync_us = self.sync_us.snapshot();
        let (segments, writes, reserves, reserved_bytes) = {
            let w = lock(&self.writer);
            (
                w.segments.len() as u64,
                w.writes,
                w.reserves,
                w.reserved_bytes,
            )
        };
        PersistSnapshot {
            state: if self.is_degraded() {
                "degraded"
            } else {
                "active"
            },
            // ordering: Relaxed(x10) — statistics counters; the snapshot
            // is advisory and never gates an operation.
            errors: self.errors.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            dropped: self.engine.dropped(),
            recovered: self.recovered.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            torn_bytes: self.torn_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            trips: self.engine.trips(),
            rearms: self.engine.rearms(),
            segments,
            commits: self.commits.load(Ordering::Relaxed),
            commit_records: self.commit_records.load(Ordering::Relaxed),
            writes,
            reserves,
            reserved_bytes,
            sync_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::SlabConfig;
    use crate::store::{EvictionMode, StoreConfig};
    use camp_core::Precision;
    use std::os::unix::fs::FileExt;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("camp-persist-{tag}-{}-{seq}", std::process::id()))
    }

    fn sharded() -> ShardedStore {
        ShardedStore::new(
            StoreConfig {
                slab: SlabConfig::small(16 * 1024, 64),
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            },
            4,
        )
    }

    fn options(dir: &Path) -> PersistOptions {
        PersistOptions {
            fsync: FsyncMode::Never,
            ..PersistOptions::new(dir)
        }
    }

    fn open_plain(opts: PersistOptions, store: &ShardedStore) -> Persist {
        Persist::open(opts, &FaultPlan::default(), store).expect("open persist")
    }

    #[test]
    fn fsync_mode_parses_and_displays() {
        for mode in [FsyncMode::Always, FsyncMode::Interval, FsyncMode::Never] {
            assert_eq!(mode.to_string().parse::<FsyncMode>(), Ok(mode));
        }
        assert!("sometimes".parse::<FsyncMode>().is_err());
    }

    #[test]
    fn warm_restart_round_trips_values_flags_ttls_and_costs() {
        let dir = temp_dir("roundtrip");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        let far = unix_now() + 10_000;
        for i in 0..50u32 {
            let key = format!("key-{i}");
            let value = format!("value-{i}");
            store
                .set(key.as_bytes(), value.as_bytes(), i, 0, u64::from(i) * 7)
                .expect("set");
            persist.append_set(
                &store,
                key.as_bytes(),
                value.as_bytes(),
                i,
                0,
                u64::from(i) * 7,
            );
        }
        store.touch(b"key-3", far);
        persist.append_touch(&store, b"key-3", far);
        store.delete(b"key-7");
        persist.append_delete(&store, b"key-7");
        persist.seal();
        drop(persist);

        let recovered = sharded();
        let reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), 49);
        assert!(!recovered.contains(b"key-7"));
        for i in 0..50u32 {
            if i == 7 {
                continue;
            }
            let key = format!("key-{i}");
            let hit = recovered.get(key.as_bytes()).expect("recovered key");
            assert_eq!(hit.value, format!("value-{i}").as_bytes());
            assert_eq!(hit.flags, i, "flags survive restart");
            assert_eq!(hit.cost, u64::from(i) * 7, "CAMP cost survives restart");
        }
        assert_eq!(
            recovered.peek_meta(b"key-3").expect("touched key").1,
            far,
            "touched expiry survives restart"
        );
        let snap = reopened.snapshot();
        assert_eq!(snap.state, "active");
        assert_eq!(snap.recovered, 53, "50 sets + touch + delete + seal");
        assert_eq!(snap.quarantined, 0);
        assert_eq!(snap.torn_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_of_colliding_sets_rebuilds_the_last_writer_state() {
        // 4-bit fingerprints: 64 keys fight over 16 slots, so most sets
        // evict a colliding resident. The journal records the sets, not the
        // evictions; replaying it through the same store logic must end
        // where the live store did — last writer per slot.
        let colliding = || {
            ShardedStore::with_fingerprint_bits(
                StoreConfig {
                    slab: SlabConfig::small(16 * 1024, 64),
                    eviction: EvictionMode::Camp(Precision::Bits(5)),
                },
                1,
                4,
            )
        };
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
        let state = |store: &ShardedStore| -> Vec<Option<Vec<u8>>> {
            keys.iter()
                .map(|key| store.get(key.as_bytes()).map(|hit| hit.value))
                .collect()
        };
        let dir = temp_dir("colliding");
        let store = colliding();
        let persist = open_plain(options(&dir), &store);
        for round in 0..3 {
            for (i, key) in keys.iter().enumerate() {
                let value = format!("{key}@{round}");
                store
                    .set(key.as_bytes(), value.as_bytes(), 0, 0, i as u64)
                    .expect("set");
                persist.append_set(&store, key.as_bytes(), value.as_bytes(), 0, 0, i as u64);
            }
        }
        assert!(store.stats().fingerprint_collisions > 100);
        let live = state(&store);
        assert_eq!(live.iter().flatten().count(), store.len());
        assert!(store.len() <= 16);
        for (key, value) in keys.iter().zip(&live) {
            if let Some(value) = value {
                assert_eq!(value, format!("{key}@2").as_bytes(), "never another key's");
            }
        }
        persist.seal();
        drop(persist);

        let recovered = colliding();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(state(&recovered), live);
        assert_eq!(
            recovered.stats().fingerprint_collisions,
            store.stats().fingerprint_collisions
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// One framed set, as the writer encodes it.
    fn encoded_set(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        record::encode_into(
            &Record::Set {
                key,
                value,
                flags: 0,
                cost: 1,
                expires_at: 0,
            },
            &mut frame,
        );
        frame
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        store.set(b"good", b"value", 0, 0, 1).expect("set");
        persist.append_set(&store, b"good", b"value", 0, 0, 1);
        drop(persist);
        // Simulate a crash mid-write: a frame header promising more
        // bytes than were written, where the next record would have gone —
        // at the cursor, over the head of the reserved zeros.
        let seg = segment_path(&dir, 0);
        let mut torn = record::MAGIC.to_be_bytes().to_vec();
        torn.extend_from_slice(&100u32.to_be_bytes());
        torn.extend_from_slice(&0u32.to_be_bytes());
        torn.extend_from_slice(&[0xAA; 10]);
        let before = encoded_set(b"good", b"value").len();
        assert!(
            fs::read(&seg).expect("read segment").len() > before + torn.len(),
            "the killed writer left its runway behind"
        );
        let file = OpenOptions::new().write(true).open(&seg).expect("open");
        file.write_all_at(&torn, before as u64).expect("tear");
        drop(file);

        let recovered = sharded();
        let reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.get(b"good").expect("survives").value, b"value");
        let snap = reopened.snapshot();
        assert_eq!(snap.torn_bytes, torn.len() as u64);
        assert_eq!(snap.quarantined, 0);
        assert_eq!(
            fs::read(&seg).expect("reread").len(),
            before,
            "torn tail (and the zeros past it) physically truncated"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_log_records_are_quarantined_not_served() {
        let dir = temp_dir("quarantine");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        let mut written = 0;
        for i in 0..10u32 {
            let key = format!("k{i}");
            persist.append_set(&store, key.as_bytes(), b"payload-bytes", 0, 0, 1);
            written += encoded_set(key.as_bytes(), b"payload-bytes").len();
        }
        drop(persist);
        // Flip one byte in the middle of the records (not of the file:
        // most of that is reserved zeros).
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("read");
        bytes[written / 2] ^= 0x40;
        fs::write(&seg, &bytes).expect("rewrite");

        let recovered = sharded();
        let reopened = open_plain(options(&dir), &recovered);
        let snap = reopened.snapshot();
        assert!(snap.quarantined >= 1, "corruption must be counted");
        assert_eq!(snap.torn_bytes, 0, "mid-log is not a torn tail");
        assert!(snap.recovered >= 8, "untouched records still replay");
        for i in 0..10u32 {
            let key = format!("k{i}");
            if let Some(hit) = recovered.get(key.as_bytes()) {
                assert_eq!(hit.value, b"payload-bytes", "no corrupt value served");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// What replaying `dir` applies, and what it reports.
    fn replay(dir: &Path) -> (ShardedStore, RecoverySummary) {
        let store = sharded();
        let summary = recover_into(dir, &store).expect("recover").summary;
        (store, summary)
    }

    #[test]
    fn a_parent_format_segment_with_no_zero_tail_recovers_as_before() {
        // What a build before the runway wrote: frames back to back, the
        // file ending with the last one.
        let dir = temp_dir("parent-format");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut segment = Vec::new();
        for i in 0..20u32 {
            segment.extend(encoded_set(format!("key-{i}").as_bytes(), b"old-format"));
        }
        record::encode_into(&Record::Delete { key: b"key-3" }, &mut segment);
        record::encode_into(&Record::Seal, &mut segment);
        let seg = segment_path(&dir, 0);
        fs::write(&seg, &segment).expect("write fixture");

        let (store, summary) = replay(&dir);
        assert_eq!(
            summary,
            RecoverySummary {
                segments: 1,
                records: 22,
                quarantined: 0,
                torn_bytes: 0,
                sealed: true,
            }
        );
        assert_eq!(store.len(), 19);
        assert_eq!(store.get(b"key-19").expect("hit").value, b"old-format");
        assert_eq!(fs::read(&seg).expect("reread"), segment, "left untouched");

        // The same journal killed mid-record: the old torn tail.
        fs::write(&seg, &segment[..segment.len() - 20]).expect("tear");
        let (store, summary) = replay(&dir);
        assert_eq!((summary.records, summary.quarantined), (20, 0));
        assert!(summary.torn_bytes > 0 && !summary.sealed);
        assert_eq!(store.len(), 20, "the delete was the torn record");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_cut_at_any_byte_replays_exactly_the_whole_frames_before_the_cut() {
        // A seeded stream: two committed batches, then a last batch that a
        // power cut tears at byte `cut` — the disk holds its prefix and,
        // from there on, the zeros reserved (and synced) beforehand.
        let mut rng = Rng64::seed_from_u64(0x0C07_BA7C);
        let mut frame = |i: u32| {
            let value: Vec<u8> = (0..rng.range_usize(1, 40))
                .map(|_| (rng.next_u64() & 0xFF) as u8)
                .collect();
            encoded_set(format!("key-{i:02}").as_bytes(), &value)
        };
        let committed: Vec<u8> = (0..12).flat_map(&mut frame).collect();
        let last: Vec<Vec<u8>> = (12..20).map(&mut frame).collect();
        let batch: Vec<u8> = last.concat();
        let runway = committed.len() + batch.len() + 4096;

        let dir = temp_dir("cut");
        fs::create_dir_all(&dir).expect("mkdir");
        let seg = segment_path(&dir, 0);
        for cut in 0..=batch.len() {
            let mut image = committed.clone();
            image.extend_from_slice(&batch[..cut]);
            image.resize(runway, 0);
            fs::write(&seg, &image).expect("write image");

            // Whole frames before the cut, and where the last one ends.
            let mut whole = 0;
            let mut whole_end = 0;
            for frame in &last {
                if whole_end + frame.len() > cut {
                    break;
                }
                whole += 1;
                whole_end += frame.len();
            }
            // A torn frame's own trailing zeros cannot be told from the
            // runway's.
            let torn = batch[whole_end..cut]
                .iter()
                .rposition(|&b| b != 0)
                .map_or(0, |last| last + 1);

            let (store, summary) = replay(&dir);
            assert_eq!(summary.records, 12 + whole, "cut {cut}");
            assert_eq!(summary.quarantined, 0, "cut {cut}");
            assert_eq!(summary.torn_bytes, torn as u64, "cut {cut}");
            assert_eq!(store.len() as u64, 12 + whole, "cut {cut}");
            assert_eq!(
                fs::read(&seg).expect("reread").len(),
                committed.len() + whole_end,
                "cut {cut}: the segment ends with its last whole frame"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_compacts_and_bounds_segment_count() {
        let dir = temp_dir("compact");
        let store = sharded();
        let opts = PersistOptions {
            segment_bytes: 2048,
            keep_segments: 3,
            ..options(&dir)
        };
        let persist = open_plain(opts, &store);
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            let value = [b'v'; 48];
            store.set(key.as_bytes(), &value, 0, 0, 9).expect("set");
            persist.append_set(&store, key.as_bytes(), &value, 0, 0, 9);
        }
        let snap = persist.snapshot();
        assert!(snap.snapshots >= 1, "compaction must have run");
        assert!(
            snap.segments <= 4,
            "segment count stays bounded, got {}",
            snap.segments
        );
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), 200, "compaction preserves every key");
        assert_eq!(
            recovered.get(b"key-0123").expect("hit").cost,
            9,
            "costs survive compaction"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// Appends `n` small sets (`key-<i>`), mirroring them into `store`.
    fn append_sets(persist: &Persist, store: &ShardedStore, n: u32) {
        for i in 0..n {
            let key = format!("key-{i:04}");
            store.set(key.as_bytes(), b"value", 0, 0, 3).expect("set");
            persist.append_set(store, key.as_bytes(), b"value", 0, 0, 3);
        }
    }

    #[test]
    fn always_syncs_every_record_unless_the_caller_defers_to_commit() {
        let dir = temp_dir("inline");
        let store = sharded();
        let opts = PersistOptions {
            fsync: FsyncMode::Always,
            ..PersistOptions::new(&dir)
        };
        let persist = open_plain(opts.clone(), &store);
        append_sets(&persist, &store, 10);
        assert!(
            !persist.needs_commit(),
            "inline sync leaves nothing to commit"
        );
        let snap = persist.snapshot();
        assert_eq!((snap.records, snap.fsyncs), (10, 10));
        assert_eq!((snap.commits, snap.commit_records), (10, 10));
        assert_eq!(snap.writes, 10, "an undeferred append is its own commit");
        assert_eq!(snap.sync_us.count, 10);
        drop(persist);
        fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("deferred");
        let store = sharded();
        let mut persist = open_plain(
            PersistOptions {
                data_dir: dir.clone(),
                ..opts
            },
            &store,
        );
        persist.defer_to_commit();
        assert!(!persist.needs_commit());
        append_sets(&persist, &store, 10);
        assert!(persist.needs_commit());
        let snap = persist.snapshot();
        assert_eq!(
            (snap.writes, snap.fsyncs, snap.records),
            (0, 0, 0),
            "a deferred append only encodes"
        );
        persist.commit();
        assert!(!persist.needs_commit());
        // A second barrier with nothing new appended costs no syscall.
        persist.commit();
        let snap = persist.snapshot();
        assert_eq!((snap.records, snap.fsyncs), (10, 1));
        assert_eq!((snap.commits, snap.commit_records), (1, 10));
        assert_eq!(snap.writes, 1, "one write carried the whole batch");
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), 10);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_mode_parks_replies_behind_the_write_and_only_always_behind_a_sync() {
        for fsync in [FsyncMode::Interval, FsyncMode::Never] {
            let dir = temp_dir("defer-write");
            let store = sharded();
            let mut persist = open_plain(
                PersistOptions {
                    fsync,
                    ..PersistOptions::new(&dir)
                },
                &store,
            );
            persist.defer_to_commit();
            append_sets(&persist, &store, 3);
            assert!(
                persist.needs_commit(),
                "{fsync}: no reply may precede its record's write"
            );
            assert_eq!(persist.snapshot().writes, 0);
            persist.commit();
            assert!(!persist.needs_commit());
            let snap = persist.snapshot();
            assert_eq!(
                (snap.writes, snap.records, snap.fsyncs),
                (1, 3, 0),
                "{fsync}"
            );
            // Written means a SIGKILL cannot take it: the file has it now.
            let (recovered, summary) = replay(&dir);
            assert_eq!((recovered.len(), summary.records), (3, 3), "{fsync}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn rotation_syncs_the_segment_it_leaves() {
        // Interval mode with no background thread: the only fsyncs are the
        // ones rotation issues for the outgoing segment's unsynced tail.
        let dir = temp_dir("roll-sync");
        let store = sharded();
        let opts = PersistOptions {
            fsync: FsyncMode::Interval,
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: 64,
            ..PersistOptions::new(&dir)
        };
        let persist = open_plain(opts, &store);
        append_sets(&persist, &store, 400);
        let snap = persist.snapshot();
        assert!(snap.segments >= 3, "expected rotations, got {snap:?}");
        assert_eq!(snap.snapshots, 0);
        assert_eq!(
            snap.fsyncs,
            snap.segments - 1,
            "one sync per segment left behind"
        );
        assert_eq!(snap.commits, snap.fsyncs);
        // Everything but the active segment's tail has been committed.
        assert!(snap.commit_records < snap.records);
        // The interval tick.
        persist.commit_locked(&mut lock(&persist.writer), true);
        let snap = persist.snapshot();
        assert_eq!(snap.commit_records, snap.records);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_sync_at_rotation_is_counted_and_the_next_segment_still_opens() {
        let dir = temp_dir("roll-sync-fault");
        let store = sharded();
        let plan = FaultPlan {
            fsync_fail_rate: 1.0,
            seed: 7,
            ..FaultPlan::default()
        };
        let opts = PersistOptions {
            fsync: FsyncMode::Interval,
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: 64,
            ..PersistOptions::new(&dir)
        };
        let persist = Persist::open(opts, &plan, &store).expect("open");
        append_sets(&persist, &store, 400);
        let snap = persist.snapshot();
        assert!(snap.segments >= 3, "rotation must go on: {snap:?}");
        assert_eq!(snap.state, "active", "an append resets the error streak");
        assert_eq!(
            snap.errors,
            snap.segments - 1,
            "each failed rotation sync is one counted error"
        );
        assert_eq!((snap.fsyncs, snap.commits), (0, 0));
        assert_eq!(snap.records, 400, "appends kept landing in new segments");
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), 400);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_mid_batch_commits_the_deferred_records_it_strands() {
        let dir = temp_dir("roll-deferred");
        let store = sharded();
        let mut persist = open_plain(
            PersistOptions {
                fsync: FsyncMode::Always,
                segment_bytes: MIN_SEGMENT_BYTES,
                keep_segments: 64,
                ..PersistOptions::new(&dir)
            },
            &store,
        );
        persist.defer_to_commit();
        append_sets(&persist, &store, 400);
        persist.commit();
        let snap = persist.snapshot();
        assert!(snap.segments >= 3);
        assert_eq!(snap.fsyncs, snap.segments, "one per rotation, one commit");
        assert_eq!(snap.commit_records, 400, "no record escaped a sync");
        assert_eq!(snap.writes, snap.segments, "nor did one need its own write");
        assert_eq!(snap.reserves, snap.segments, "each segment got its runway");
        drop(persist);
        let (recovered, summary) = replay(&dir);
        assert_eq!((recovered.len(), summary.records), (400, 400));
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        fs::remove_dir_all(&dir).ok();
    }

    /// A plan that short-writes every other append or so, on the first
    /// seed whose schedule fails the first append and passes the second.
    fn plan_failing_only_the_first_write() -> FaultPlan {
        (0..)
            .map(|seed| FaultPlan {
                iowrite_rate: 0.5,
                seed,
                ..FaultPlan::default()
            })
            .find(|plan| {
                let mut fs = FaultFs::new(Box::<io::tests::MemFs>::default(), plan);
                fs.append(&[0; 64]).is_err() && fs.append(&[0; 64]).is_ok()
            })
            .expect("some seed fails one and passes the next")
    }

    #[test]
    fn no_frame_of_a_short_written_batch_replays_behind_a_later_shorter_one() {
        let dir = temp_dir("stale-batch");
        let store = sharded();
        let backend = FaultFs::new(
            Box::new(RealFs::new()),
            &plan_failing_only_the_first_write(),
        );
        let mut persist =
            Persist::open_with_backend(options(&dir), Box::new(backend), &store).expect("open");
        persist.defer_to_commit();
        // Ten records in one write, half of which lands: five whole
        // frames sit in the file when the write reports failure.
        for i in 0..10u32 {
            persist.append_set(
                &store,
                format!("lost-{i}").as_bytes(),
                b"0123456789",
                0,
                0,
                1,
            );
        }
        persist.commit();
        let snap = persist.snapshot();
        assert_eq!((snap.errors, snap.records, snap.writes), (1, 0, 0));
        assert!(!persist.needs_commit(), "nothing left to wait for");
        // Two records: shorter than what the failed batch left behind.
        persist.append_set(&store, b"kept-0", b"v", 0, 0, 1);
        persist.append_set(&store, b"kept-1", b"v", 0, 0, 1);
        persist.commit();
        let snap = persist.snapshot();
        assert_eq!((snap.errors, snap.records, snap.writes), (1, 2, 1));
        drop(persist); // the crash

        let (recovered, summary) = replay(&dir);
        assert_eq!(summary.records, 2, "only the batch whose write succeeded");
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        assert!(recovered.contains(b"kept-0") && recovered.contains(b"kept-1"));
        assert_eq!(recovered.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_seal_is_counted_repaired_and_leaves_the_log_unsealed() {
        let dir = temp_dir("seal-fault");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        append_sets(&persist, &store, 5);
        drop(persist);

        let plan = FaultPlan {
            iowrite_rate: 1.0,
            seed: 3,
            ..FaultPlan::default()
        };
        let opts = PersistOptions {
            trip_after: 1,
            ..options(&dir)
        };
        let persist = Persist::open(opts, &plan, &sharded()).expect("open");
        persist.seal(); // half the frame lands, then EIO
        let snap = persist.snapshot();
        assert_eq!(
            (snap.errors, snap.records),
            (1, 0),
            "the failure is counted"
        );
        assert_eq!(snap.state, "degraded", "and advances the error streak");
        drop(persist);

        let (recovered, summary) = replay(&dir);
        assert!(!summary.sealed);
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        assert_eq!((recovered.len(), summary.records), (5, 5));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_record_that_outgrows_the_runway_lands_by_plain_growth() {
        let dir = temp_dir("outgrow");
        let store = sharded();
        let opts = PersistOptions {
            segment_bytes: 8 << 20,
            ..options(&dir)
        };
        let persist = open_plain(opts, &store);
        let big = vec![0xB1u8; (RUNWAY_CHUNK + RUNWAY_CHUNK / 2) as usize];
        persist.append_set(&store, b"before", b"small", 0, 0, 1);
        persist.append_set(&store, b"big", &big, 0, 0, 1);
        persist.append_set(&store, b"after", b"small", 0, 0, 1);
        let snap = persist.snapshot();
        assert_eq!((snap.errors, snap.records, snap.segments), (0, 3, 1));
        assert_eq!(snap.reserves, 2, "the runway resumes past the big record");
        assert_eq!(snap.reserved_bytes, 2 * RUNWAY_CHUNK);
        drop(persist);

        let bytes = fs::read(segment_path(&dir, 0)).expect("read segment");
        let mut seen = Vec::new();
        let scan = record::scan(&bytes, |rec| {
            if let Record::Set { key, value, .. } = rec {
                seen.push((key.to_vec(), value.len(), value.iter().all(|&b| b == 0xB1)));
            }
        });
        assert_eq!((scan.applied, scan.quarantined, scan.torn_bytes), (3, 0, 0));
        assert_eq!(
            seen,
            vec![
                (b"before".to_vec(), 5, false),
                (b"big".to_vec(), big.len(), true),
                (b"after".to_vec(), 5, false),
            ]
        );
        assert!(
            scan.valid_len < bytes.len() as u64,
            "zeros past the records"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_replays_as_flush() {
        let dir = temp_dir("clear");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        store.set(b"before", b"x", 0, 0, 1).expect("set");
        persist.append_set(&store, b"before", b"x", 0, 0, 1);
        store.flush_all();
        persist.append_clear(&store);
        store.set(b"after", b"y", 0, 0, 1).expect("set");
        persist.append_set(&store, b"after", b"y", 0, 0, 1);
        drop(persist);

        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert!(!recovered.contains(b"before"));
        assert_eq!(recovered.get(b"after").expect("hit").value, b"y");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_records_are_not_resurrected() {
        let dir = temp_dir("expired");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        persist.append_set(&store, b"stale", b"x", 0, 1, 1); // expired long ago
        persist.append_set(&store, b"fresh", b"y", 0, unix_now() + 3600, 1);
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert!(!recovered.contains(b"stale"));
        assert!(recovered.contains(b"fresh"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_faults_trip_degraded_and_rearm_restores_the_log() {
        let dir = temp_dir("degraded");
        let store = sharded();
        let plan = FaultPlan {
            enospc_rate: 0.4,
            seed: 1234,
            ..FaultPlan::default()
        };
        let opts = PersistOptions {
            trip_after: 2,
            ..options(&dir)
        };
        let persist = Persist::open(opts, &plan, &store).expect("open");
        for i in 0..400u32 {
            let key = format!("key-{i}");
            store.set(key.as_bytes(), b"value", 0, 0, 5).expect("set");
            persist.append_set(&store, key.as_bytes(), b"value", 0, 0, 5);
            if persist.is_degraded() {
                break;
            }
        }
        assert!(
            persist.is_degraded(),
            "a 40% fault rate must trip trip_after=2 within 400 appends"
        );
        // Appends while degraded are dropped, not blocked — the cache
        // itself keeps accepting the write.
        store.set(b"while-down", b"value", 0, 0, 5).expect("set");
        persist.append_set(&store, b"while-down", b"value", 0, 0, 5);
        let snap = persist.snapshot();
        assert_eq!(snap.state, "degraded");
        assert!(snap.errors >= 2);
        assert!(snap.dropped >= 1);
        // The seeded fault stream is deterministic, so re-arm retries
        // eventually land a full snapshot.
        let mut rearmed = false;
        for _ in 0..500 {
            if persist.try_rearm(&store) {
                rearmed = true;
                break;
            }
        }
        assert!(rearmed, "re-arm must eventually succeed at 40% fault rate");
        let snap = persist.snapshot();
        assert_eq!(snap.state, "active");
        assert!(snap.rearms >= 1);
        drop(persist);
        // The re-armed log is a full snapshot of the live store: every
        // key present at re-arm time recovers, including the ones whose
        // appends were dropped while degraded.
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), store.len());
        assert!(recovered.contains(b"while-down"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_loop_interval_fsyncs_and_stops() {
        let dir = temp_dir("bg");
        let store = Arc::new(sharded());
        let opts = PersistOptions {
            fsync: FsyncMode::Interval,
            fsync_interval: Duration::from_millis(30),
            ..PersistOptions::new(&dir)
        };
        let persist = Arc::new(open_plain(opts, &store));
        let bg = {
            let persist = Arc::clone(&persist);
            let store = Arc::clone(&store);
            std::thread::spawn(move || persist.background_loop(&store))
        };
        persist.append_set(&store, b"k", b"v", 0, 0, 1);
        std::thread::sleep(Duration::from_millis(250));
        persist.request_stop();
        bg.join().expect("background thread joins");
        assert!(
            persist.snapshot().fsyncs >= 1,
            "interval mode must fsync dirty bytes in the background"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_flag_reflects_clean_shutdown() {
        let dir = temp_dir("seal");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        persist.append_set(&store, b"k", b"v", 0, 0, 1);
        persist.seal();
        drop(persist);
        let recovered = recover_into(&dir, &sharded()).expect("recover");
        assert!(
            recovered.summary.sealed,
            "seal record marks a clean shutdown"
        );
        // A reboot arms a fresh (empty) active segment; scanning after
        // it reports unsealed, because the new segment has no seal.
        drop(open_plain(options(&dir), &sharded()));
        let recovered = recover_into(&dir, &sharded()).expect("recover again");
        assert!(!recovered.summary.sealed);
        fs::remove_dir_all(&dir).ok();
    }
}
