//! Crash-safe durability: an append-only, checksummed mutation log with
//! warm restarts.
//!
//! Layout mirrors `net/`: [`record`] is the on-disk codec and recovery
//! scanner (its CRC32C, in a hardware and a table kernel, is `crc`),
//! [`io`] is the write-side backend seam (real disk or the
//! deterministic [`FaultFs`] injector), and this module owns the
//! [`Persist`] engine: rotating segment files under `--data-dir`,
//! `--fsync always|interval|never`, compaction-by-snapshot, and a
//! degraded state that keeps the cache serving from memory when the disk
//! is sick.
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
//! scanner (with the clock stopped, then dropping what has expired by boot
//! time), truncates the torn tail a crash left behind, quarantines
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
//! worker. The reactor calls it when it runs out of ready connections,
//! so one commit carries every batch that reached a worker's sockets
//! before the barrier. The mutex is the queue — a second worker whose records the
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
//! *rotate* commits, cuts a fresh segment's unused zeros off and moves
//! on. A failed write cuts the file back to the last good byte — runway
//! included, so no frame of the failed batch can outlive it — and the
//! segment grows the plain way until the next rotation. Recovery reads a
//! zero tail as the clean end of the log ([`record::scan_segment`]).
//!
//! Once `keep_segments` segments are live, a rotation *compacts*: the
//! next segment is a snapshot of the live store (a [`Record::Clear`] and
//! one set per item), written and synced under a `.tmp` name that
//! recovery does not read, then renamed into place with the directory
//! synced behind it; only then are the older segments *retired*. A
//! process killed mid-snapshot restarts from the older segments, and boot
//! deletes the half-written file.
//!
//! Retired segments join a pool of at most `keep_segments` spares
//! (`spare-<index>.camplog`); boot deletes the segments it recovered
//! instead, and the spares and snapshots a previous process left. While
//! the pool has one, a roll or a snapshot *recycles* a spare instead of
//! creating a file: under the segment's `.tmp` name, overwritten from
//! offset 0, its length its runway — no zeros written, nothing unlinked.
//! Every frame names its segment, so the earlier life's frames end the log
//! instead of replaying, and every write to a recycled file ends with an
//! [`record::END_MARKER`]. The file takes its segment name by a rename with
//! the directory synced behind it (one per rotation) before any record in
//! it is acknowledged. If the recycle, the rename or its directory sync
//! fails, the rotation goes on in a fresh file cut to nothing — `create`
//! opens a spare a rename left under that name — or trips: no record lands
//! in a removed file, nor behind an earlier life. A failed retire removes
//! its file, a failed recycle its spare under both names. So only the first
//! `keep_segments` rotations after boot or a trip create and reserve. A
//! fresh file is at most `segment_bytes` plus 8 KiB of runway; the pool
//! keeps at most one longer file, a snapshot of a store larger than a
//! segment, for the next snapshot, and a recycled file left longer is cut
//! back to its records. The spares cost up to `keep_segments ×
//! (segment_bytes + 8 KiB)` beside the live segments, one of them a
//! snapshot's length once the store outgrows a segment.
//!
//! # Degraded state
//!
//! After `trip_after` consecutive I/O errors the engine trips to
//! `degraded`: appends are counted and dropped, the cache keeps
//! serving, and the background thread retries with jittered exponential
//! backoff. Re-arming never replays a gap — it starts a fresh segment
//! with a full snapshot (a [`Record::Clear`] followed by one set per
//! live item), so the log matches the live store the moment it heals.
//!
//! # One owner
//!
//! The writer mutex owns every fact of the journal: the active segment,
//! what is pending, the armed/degraded state with its trip and re-arm
//! counts, and every counter, `dropped` included — all fields of one
//! `LogWriter`, whose methods take `&mut self`. Every append decides
//! under that lock whether it is logged or dropped, so none can slip
//! between a re-arm's snapshot and the moment the engine re-arms: it
//! waits for the re-arm and lands in the healed log. One lock-free fact
//! remains, the ack barrier's `UnsyncedFlag`.

mod crc;
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use camp_core::rng::Rng64;
use camp_telemetry::{kvlog, HistogramSnapshot, LocalHistogram, LogLevel};

use crate::fault::FaultPlan;
use crate::shard::ShardedStore;
use crate::store::unix_now;
use crate::sync::lock;

use self::state::UnsyncedFlag;

/// Segment file extension (files are named `seg-<index>.camplog`).
const SEGMENT_SUFFIX: &str = ".camplog";
/// Appended to a segment's name while its snapshot is being written.
const TEMP_SUFFIX: &str = ".tmp";

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
    /// Journal bytes successfully written: records, and a recycled
    /// file's end markers.
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
    /// not counted in `fsyncs`). Only fresh files reserve: a recycled one
    /// has its length as its runway.
    pub reserves: u64,
    /// Zero bytes those reservations wrote.
    pub reserved_bytes: u64,
    /// Segments opened on a recycled spare file rather than a fresh one.
    pub recycled: u64,
    /// Wall time of the engine's segment `fsync`s (every commit's and
    /// every snapshot's), in microseconds — where the time the `set` handler
    /// histogram no longer contains went. Not in it: the sync behind each
    /// runway reservation and the directory sync behind a snapshot's
    /// rename, which the backend issues itself.
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
            recycled: 0,
            sync_us: HistogramSnapshot::empty(),
        }
    }
}

/// Everything the journal counts, kept by the writer under its lock;
/// each field means what [`PersistSnapshot`]'s field of that name does.
#[derive(Debug, Default)]
struct Counts {
    errors: u64,
    dropped: u64,
    bytes: u64,
    fsyncs: u64,
    records: u64,
    commits: u64,
    commit_records: u64,
    writes: u64,
    reserves: u64,
    reserved_bytes: u64,
    recycled: u64,
    snapshots: u64,
    trips: u64,
    rearms: u64,
    sync_us: LocalHistogram,
}

/// The write side: the active segment, what is pending, whether the
/// engine is degraded and every count it keeps — all of it held under
/// the writer mutex, so each method's `&mut self` is the proof that the
/// lock is held.
#[derive(Debug)]
struct LogWriter {
    backend: Box<dyn IoBackend>,
    options: PersistOptions,
    /// "A commit owes something": frames are pending, or (`--fsync
    /// always`) written records are unsynced. Shared with [`Persist`],
    /// which reads it without the lock.
    unsynced: Arc<UnsyncedFlag>,
    /// Index of the active segment.
    seg_index: u64,
    /// Bytes a `write` has landed in the active segment: where the next
    /// one goes, and the repair target after a failed (possibly short)
    /// one.
    committed: u64,
    consecutive_errors: u32,
    /// All live segments in index order, each with its file's length
    /// once the writer left it: `None` before that, and for the segments
    /// recovered at boot, which are never recycled. The active one is
    /// last.
    segments: Vec<(u64, PathBuf, Option<u64>)>,
    /// Encoded frames no `write` has carried yet: everything appended
    /// since the last commit (and a snapshot's flush buffer). Empty while
    /// degraded.
    pending: Vec<u8>,
    /// Records in `pending`.
    pending_records: u64,
    /// Records written to the active segment since the last successful
    /// fsync.
    unsynced_records: u64,
    /// Where the active segment's runway ends; 0 when it has none (the
    /// backend does not reserve, or a failed write cut it off).
    runway_end: u64,
    /// The active segment is a recycled file: its runway is the earlier
    /// life's bytes past the records — never topped up, cut off at
    /// rotation only past [`LogWriter::spare_cap`], and ended after every
    /// write by an [`record::END_MARKER`].
    recycled: bool,
    /// Retired segment files waiting to serve again, with their lengths:
    /// at most `keep_segments`, and at most one of them longer than
    /// [`LogWriter::spare_cap`] (kept for the next snapshot). The next
    /// roll takes the last one that is not.
    spares: Vec<(PathBuf, u64)>,
    /// Tripped after `trip_after` consecutive I/O errors: appends are
    /// dropped until a re-arm rebuilds the log.
    degraded: bool,
    counts: Counts,
}

impl LogWriter {
    /// Makes segment `index` the active one: create it and reset what is
    /// accounted per segment.
    fn start_segment(&mut self, index: u64) -> stdio::Result<()> {
        let path = segment_path(&self.options.data_dir, index);
        self.backend.create(&path)?;
        self.opened(index, 0, false);
        self.segments.push((index, path, None));
        Ok(())
    }

    /// [`LogWriter::start_segment`], then the fresh file's first stretch
    /// of runway.
    fn fresh_segment(&mut self, index: u64) -> stdio::Result<()> {
        self.start_segment(index)?;
        self.mark_clean();
        self.reserve();
        Ok(())
    }

    /// After a failed attempt to open segment `index`, which may have left
    /// the active file one the writer removed, or a spare under `index`'s
    /// name: a fresh file as segment `index`, cut to nothing, or a trip.
    fn fresh_segment_or_trip(&mut self, index: u64) {
        let emptied = self.start_segment(index).and_then(|()| self.truncate(0));
        if emptied.is_err() {
            return self.trip();
        }
        self.mark_clean();
        self.reserve();
    }

    /// Takes the spare a new segment recycles out of the pool: for a
    /// snapshot the long one if the pool has it, else the last spare no
    /// longer than [`LogWriter::spare_cap`]. A roll never takes a long
    /// one, so a rolled segment is read at boot no longer than a fresh one.
    fn take_spare(&mut self, snapshot: bool) -> Option<PathBuf> {
        let cap = self.spare_cap();
        let long = self.spares.iter().position(|&(_, len)| len > cap);
        let at = match long {
            Some(at) if snapshot => Some(at),
            _ => self.spares.iter().rposition(|&(_, len)| len <= cap),
        };
        at.map(|at| self.spares.remove(at).0)
    }

    /// Opens the file the active segment `index` is written to under
    /// `path`, which is not its segment name yet: `spare`, recycled, or —
    /// none given, or the recycle failed (counted) — a fresh file.
    fn open_segment(
        &mut self,
        index: u64,
        path: &Path,
        spare: Option<PathBuf>,
    ) -> stdio::Result<()> {
        if let Some(spare) = spare {
            match self.backend.recycle(&spare, path) {
                Ok(len) => {
                    self.opened(index, len, true);
                    self.counts.recycled += 1;
                    return Ok(());
                }
                Err(_) => {
                    // Out of the pool, and under either name: `create` would
                    // append past its earlier life.
                    self.note_io_error();
                    let _ = self.backend.remove(&spare);
                    let _ = self.backend.remove(path);
                }
            }
        }
        self.backend.create(path)?;
        self.opened(index, 0, false);
        Ok(())
    }

    /// Resets what is accounted per segment for the newly opened segment
    /// `index`, whose runway ends at `runway_end`.
    fn opened(&mut self, index: u64, runway_end: u64, recycled: bool) {
        debug_assert!(self.pending.is_empty(), "frames of another segment");
        self.seg_index = index;
        self.committed = 0;
        self.unsynced_records = 0;
        self.runway_end = runway_end;
        self.recycled = recycled;
    }

    /// The one place record bytes reach the backend: a single `append`
    /// of everything pending — ended, in a recycled file, by an
    /// [`record::END_MARKER`] — which is dropped either way. Returns the
    /// bytes written.
    fn write_pending(&mut self) -> stdio::Result<u64> {
        if self.recycled {
            self.pending.extend_from_slice(&record::END_MARKER);
        }
        let len = self.pending.len() as u64;
        let result = self.backend.append(&self.pending);
        self.pending.clear();
        self.counts.writes += u64::from(result.is_ok());
        result.map(|()| len)
    }

    /// Forgets what is pending without writing it.
    fn discard_pending(&mut self) {
        self.pending.clear();
        self.pending_records = 0;
    }

    /// Cuts the active segment back to `len` bytes of records. Whatever
    /// runway lay past them goes with the cut, a recycled file's earlier
    /// life included (even a failed one: the segment then grows the plain
    /// way, which is always correct).
    fn truncate(&mut self, len: u64) -> stdio::Result<()> {
        self.committed = len;
        self.runway_end = 0;
        self.recycled = false;
        self.backend.truncate(len)
    }

    /// Extends the active segment's runway by up to [`RUNWAY_CHUNK`],
    /// never past `segment_bytes` plus [`RUNWAY_SLACK`]. After a failure
    /// the segment goes on without one.
    fn extend_runway(&mut self) -> stdio::Result<()> {
        let goal = self.options.segment_bytes.saturating_add(RUNWAY_SLACK);
        let from = self.runway_end.max(self.committed);
        if self.recycled || from >= goal {
            return Ok(());
        }
        let want = RUNWAY_CHUNK.min(goal - from);
        // Stays 0 behind a failure, and for a backend that does not reserve.
        self.runway_end = 0;
        self.runway_end = self.backend.reserve(want)?;
        if self.runway_end != 0 {
            self.counts.reserves += 1;
            self.counts.reserved_bytes += want;
        }
        Ok(())
    }

    /// Encodes `rec` into `pending` (a degraded writer counts it dropped
    /// instead) and commits what the segment can no longer hold, or — if
    /// `inline` — at once.
    fn append(&mut self, store: &ShardedStore, rec: &Record<'_>, inline: bool) {
        if self.degraded {
            self.counts.dropped += 1;
            return;
        }
        record::encode_frame(rec, self.seg_index, &mut self.pending);
        self.pending_records += 1;
        self.unsynced.mark();
        if self.committed + self.pending.len() as u64 >= self.options.segment_bytes {
            self.rotate(store);
        } else if inline {
            self.ack_commit();
        }
    }

    /// The commit a reply waits for: a write, and under `--fsync always`
    /// a sync.
    fn ack_commit(&mut self) {
        self.commit(self.options.fsync == FsyncMode::Always);
    }

    /// One commit: write what is pending, then — if `sync` — sync what
    /// is written, then settle what the barrier still owes.
    fn commit(&mut self, sync: bool) {
        if !self.pending.is_empty() {
            let records = std::mem::take(&mut self.pending_records);
            match self.write_pending() {
                Ok(len) => {
                    self.committed += len;
                    self.unsynced_records += records;
                    self.consecutive_errors = 0;
                    self.counts.bytes += len;
                    self.counts.records += records;
                }
                Err(_) => {
                    // A short write may have left whole frames of the
                    // batch behind: cut the file back to the last good
                    // byte. That takes the runway with it, so nothing of
                    // this batch can sit past a later, shorter one.
                    let repaired = self.truncate(self.committed).is_ok();
                    self.note_io_error();
                    if !repaired {
                        self.trip();
                    }
                }
            }
        }
        if sync && self.unsynced_records > 0 {
            self.sync_written();
        }
        if self.unsynced_records == 0 || self.options.fsync != FsyncMode::Always {
            self.unsynced.clear();
        }
        if self.runway_end != 0 && self.runway_end.saturating_sub(self.committed) < RUNWAY_LOW_WATER
        {
            self.reserve();
        }
    }

    /// Tops the active segment's runway up; a failure is counted.
    fn reserve(&mut self) {
        if self.extend_runway().is_err() {
            self.note_io_error();
        }
    }

    /// One timed `fsync` of the active segment: the sync of every commit
    /// (a rotation's and the seal's included) and of every snapshot goes
    /// through here, so `persist:sync_us` sees them.
    /// Two syncs do not: the backend's own `sync_data` behind each runway
    /// reservation ([`IoBackend::reserve`], counted in `reserves`) and the
    /// directory `sync_all` behind a snapshot's rename
    /// ([`IoBackend::rename`]).
    fn timed_sync(&mut self) -> stdio::Result<()> {
        let started = Instant::now();
        let result = self.backend.sync();
        self.counts
            .sync_us
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        self.counts.fsyncs += u64::from(result.is_ok());
        result
    }

    /// Syncs the active segment's written records: on success they count
    /// as one commit and the writer is clean; on failure the error is
    /// counted and they stay unsynced for the next attempt.
    fn sync_written(&mut self) {
        match self.timed_sync() {
            Ok(()) => {
                self.counts.commits += 1;
                self.counts.commit_records += self.unsynced_records;
                self.mark_clean();
            }
            Err(_) => self.note_io_error(),
        }
    }

    /// Nothing is waiting for a commit any more: the active segment was
    /// synced with nothing pending, or it is fresh, or it was given up on.
    fn mark_clean(&mut self) {
        debug_assert!(self.pending.is_empty());
        self.unsynced_records = 0;
        self.unsynced.clear();
    }

    fn note_io_error(&mut self) {
        self.counts.errors += 1;
        self.consecutive_errors = self.consecutive_errors.saturating_add(1);
        if self.consecutive_errors >= self.options.trip_after {
            self.trip();
        }
    }

    fn trip(&mut self) {
        // Re-arm rebuilds the log from the live store, so nothing pending
        // or in the abandoned segment is worth a commit (or a parked
        // reply) any more.
        self.discard_pending();
        self.mark_clean();
        if self.degraded {
            return;
        }
        self.degraded = true;
        self.counts.trips += 1;
        // The re-arm starts from fresh files, as boot does.
        for (spare, _) in std::mem::take(&mut self.spares) {
            let _ = self.backend.remove(&spare);
        }
        kvlog!(
            LogLevel::Warn,
            "persist_degraded",
            consecutive_errors = u64::from(self.consecutive_errors),
            errors = self.counts.errors,
            hint = "cache keeps serving from memory; background retry will re-arm the log",
        );
    }

    /// Rotates the active segment: a plain roll while few segments are
    /// live, a compaction snapshot once `keep_segments` accumulate.
    fn rotate(&mut self, store: &ShardedStore) {
        let result = if self.segments.len() >= self.options.keep_segments {
            self.compact(store)
        } else {
            self.roll()
        };
        if result.is_err() {
            self.note_io_error();
        }
    }

    /// Moves on to the next segment: a spare recycled under the segment's
    /// temporary name and renamed into place ([`LogWriter::name_segment`]),
    /// or, with no spare a roll may take ([`LogWriter::take_spare`]), a
    /// fresh file with its first stretch of runway.
    /// A failed fresh file leaves the writer in the segment it was in; a
    /// failed recycle falls back to a fresh file.
    fn roll(&mut self) -> stdio::Result<()> {
        self.leave_segment();
        let index = self.seg_index + 1;
        let Some(spare) = self.take_spare(false) else {
            return self.fresh_segment(index);
        };
        let named = self.name_segment(index, Some(spare), None);
        if named.is_err() {
            self.fresh_segment_or_trip(index);
        }
        named
    }

    /// Finishes the active segment before another is opened. The backend
    /// can only write and sync its active file: whatever the outgoing
    /// segment still owes (the batch the rotation landed in, an interval
    /// tail) is committed now or never. A failure is counted and the
    /// rotation goes on — the next segment must still open. Notes the
    /// file's length, which decides whether it may serve again as a spare.
    fn leave_segment(&mut self) {
        self.commit(true);
        let mut len = self.runway_end.max(self.committed);
        // Best effort: the unused zeros, or a recycled file's earlier life
        // past what a fresh segment holds, are only disk space, and the
        // scanner reads them as the end of the log anyway.
        let cut = !self.recycled || self.runway_end > self.spare_cap();
        if cut && self.runway_end > self.committed && self.truncate(self.committed).is_ok() {
            len = self.committed;
        }
        let active = self.seg_index;
        if let Some(segment) = self.segments.iter_mut().find(|s| s.0 == active) {
            segment.2 = Some(len);
        }
    }

    /// Compaction: finish the active segment, then move on to a snapshot
    /// segment ([`LogWriter::snapshot_segment`]). A failed snapshot keeps
    /// the old segments and moves on to a fresh plain segment at the same
    /// index; if even that cannot be opened the engine trips to degraded
    /// so the next re-arm rebuilds from the live store.
    fn compact(&mut self, store: &ShardedStore) -> stdio::Result<()> {
        self.leave_segment();
        let index = self.seg_index + 1;
        let snapshot = self.snapshot_segment(store, index);
        if snapshot.is_err() {
            self.fresh_segment_or_trip(index);
        }
        snapshot
    }

    /// Makes segment `index` a snapshot of the live store and the active
    /// segment: a [`Record::Clear`] followed by one set per live item,
    /// written and synced under a temporary name, renamed to the segment's
    /// own name ([`LogWriter::name_segment`]), and only then are the older
    /// segments retired. Until the rename a crash finds the old segments
    /// intact and the temporary file ignored, so a snapshot is all or
    /// nothing. Because it *leads* with `Clear`, a retired segment that
    /// comes back is harmless — replay applies the stale history and then
    /// wipes it. Appends go on in the same file. On failure the caller
    /// must open another segment.
    fn snapshot_segment(&mut self, store: &ShardedStore, index: u64) -> stdio::Result<()> {
        let spare = self.take_spare(true);
        self.name_segment(index, spare, Some(store))?;
        self.retire_older_segments();
        Ok(())
    }

    /// Opens segment `index`'s file under its temporary name
    /// ([`LogWriter::open_segment`]: `spare` recycled, if given), writes
    /// the snapshot of `snapshot_of` into it if given a store
    /// ([`LogWriter::write_snapshot`]), then renames it to the segment's
    /// own name with the directory synced behind it — the one directory
    /// sync a rotation spends — and makes it the active segment; a fresh
    /// file then gets its runway. No record is acknowledged from the file before that
    /// sync: a crash that undid the rename would leave the file under a
    /// name boot deletes, or under its earlier segment's name, whose index
    /// its records do not carry. On failure the temporary file is removed,
    /// and it may have been the backend's active file: the caller must
    /// open another segment before anything is appended.
    fn name_segment(
        &mut self,
        index: u64,
        spare: Option<PathBuf>,
        snapshot_of: Option<&ShardedStore>,
    ) -> stdio::Result<()> {
        let temp = temp_segment_path(&self.options.data_dir, index);
        let path = segment_path(&self.options.data_dir, index);
        self.open_segment(index, &temp, spare)?;
        let filled = snapshot_of.map_or(Ok(()), |store| self.write_snapshot(store));
        let named = filled.and_then(|()| self.backend.rename(&temp, &path));
        if let Err(err) = named {
            let _ = self.backend.remove(&temp);
            return Err(err);
        }
        self.segments.push((index, path, None));
        self.mark_clean();
        self.reserve();
        Ok(())
    }

    /// The length of a fresh segment's file: its records plus the slack
    /// its runway has. A file longer than this — a snapshot of a store
    /// larger than a segment, or a segment a large record pushed past its
    /// end — is a *long* one: the pool keeps at most one, for the next
    /// snapshot, and a recycled file left longer than this is cut back to
    /// its records.
    fn spare_cap(&self) -> u64 {
        self.options.segment_bytes.saturating_add(RUNWAY_SLACK)
    }

    /// After a snapshot landed in the active segment: forgets every older
    /// segment and counts the snapshot. Each one the writer left joins the
    /// spare pool while it has room — a long one only if the pool has
    /// none; the rest are deleted, and so is every segment recovered at
    /// boot or given up by a trip, and so is one whose retirement failed
    /// (a failed deletion is harmless: the snapshot leads with `Clear`).
    fn retire_older_segments(&mut self) {
        let active = self.seg_index;
        let cap = self.spare_cap();
        let (kept, stale): (Vec<_>, Vec<_>) = std::mem::take(&mut self.segments)
            .into_iter()
            .partition(|&(index, _, _)| index == active);
        self.segments = kept;
        for (index, path, left_at) in stale {
            let long_pooled = self.spares.iter().any(|&(_, len)| len > cap);
            let poolable = left_at.filter(|&len| len <= cap || !long_pooled);
            if let (Some(len), true) = (poolable, self.spares.len() < self.options.keep_segments) {
                let spare = spare_path(&self.options.data_dir, index);
                match self.backend.retire(&path, &spare) {
                    Ok(true) => self.spares.push((spare, len)),
                    Ok(false) => {}
                    Err(_) => {
                        let _ = self.backend.remove(&path);
                    }
                }
            } else {
                let _ = self.backend.remove(&path);
            }
        }
        self.counts.snapshots += 1;
    }

    /// Writes `Clear` + one `Set` per live item into the newly opened
    /// active file and fsyncs it. On success `committed` reflects the
    /// snapshot size.
    fn write_snapshot(&mut self, store: &ShardedStore) -> stdio::Result<()> {
        const FLUSH_BYTES: usize = 256 * 1024;
        debug_assert!(self.pending.is_empty());
        let segment = self.seg_index;
        record::encode_frame(&Record::Clear, segment, &mut self.pending);
        let mut written = 0u64;
        let mut records = 1u64;
        let mut failed: Option<stdio::Error> = None;
        store.for_each_item(|item| {
            if failed.is_some() {
                return;
            }
            record::encode_frame(
                &Record::Set {
                    key: item.key,
                    value: item.value,
                    flags: item.flags,
                    cost: item.cost,
                    expires_at: item.expires_at,
                },
                segment,
                &mut self.pending,
            );
            records += 1;
            if self.pending.len() >= FLUSH_BYTES {
                match self.write_pending() {
                    Ok(len) => written += len,
                    Err(err) => failed = Some(err),
                }
            }
        });
        if let Some(err) = failed {
            return Err(err);
        }
        if !self.pending.is_empty() {
            written += self.write_pending()?;
        }
        self.timed_sync()?;
        self.committed = written;
        self.counts.bytes += written;
        self.counts.records += records;
        Ok(())
    }

    /// One re-arm attempt on a degraded writer: a fresh segment holding a
    /// full snapshot of the live store, written the way compaction writes
    /// one. Returns whether the engine is active afterwards.
    fn rearm(&mut self, store: &ShardedStore) -> bool {
        if !self.degraded {
            return true;
        }
        let index = self.seg_index + 1;
        match self.snapshot_segment(store, index) {
            Ok(()) => {
                self.consecutive_errors = 0;
                self.degraded = false;
                self.counts.rearms += 1;
                kvlog!(
                    LogLevel::Info,
                    "persist_rearmed",
                    items = store.len() as u64,
                    errors = self.counts.errors,
                );
                true
            }
            Err(_) => {
                // The next retry starts clean: appends are dropped while
                // degraded.
                self.counts.errors += 1;
                false
            }
        }
    }
}

/// The append-only persistence engine. One per server; shared between
/// request workers (appends), the background thread (interval fsync and
/// degraded retry) and the drain path (seal).
#[derive(Debug)]
pub struct Persist {
    writer: Mutex<LogWriter>,
    /// The writer's ack barrier flag, read without the lock.
    unsynced: Arc<UnsyncedFlag>,
    /// What boot-time recovery found (fixed once `open` returns).
    recovery: RecoverySummary,
    /// The caller promised to [`Persist::commit`] before it
    /// acknowledges, so appends do not commit inline.
    deferred: bool,
    /// The background loop's fsync cadence, under `--fsync interval`.
    fsync_interval: Option<Duration>,
    stop: AtomicBool,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}{SEGMENT_SUFFIX}"))
}

/// Where a snapshot is written before it becomes a segment: a name
/// [`list_segments`] does not match, so a process that dies mid-snapshot
/// leaves the older segments as the whole log.
fn temp_segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}{SEGMENT_SUFFIX}{TEMP_SUFFIX}"))
}

/// Where a retired segment waits to be recycled: a name
/// [`list_segments`] does not match either.
fn spare_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("spare-{index:08}{SEGMENT_SUFFIX}"))
}

/// Deletes the snapshots a killed process left half-written, and the
/// spares it left: the pool holds only files this process wrote.
fn remove_leftovers(dir: &Path) -> stdio::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let temp = name.starts_with("seg-") && name.ends_with(TEMP_SUFFIX);
        if temp || (name.starts_with("spare-") && name.ends_with(SEGMENT_SUFFIX)) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
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
///
/// Every record replays its effect with the clock stopped (the store's
/// verbs at time 0, where nothing has expired), so a `touch` that extended
/// a key finds the key its own `set` made, however short that set's TTL
/// was. What has expired by boot time is then dropped in one pass.
fn recover_into(dir: &Path, store: &ShardedStore) -> stdio::Result<Recovered> {
    const STOPPED: u64 = 0;
    remove_leftovers(dir)?;
    let segments = list_segments(dir)?;
    let mut summary = RecoverySummary {
        segments: segments.len() as u64,
        ..RecoverySummary::default()
    };
    let last_index = segments.len().checked_sub(1);
    for (pos, &(index, ref path)) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        let scan = record::scan_segment(&bytes, index, |rec| match rec {
            Record::Set {
                key,
                value,
                flags,
                cost,
                expires_at,
            } => {
                // Eviction during replay is legal (smaller memory budget
                // than the log's working set): best effort.
                let _ = store.set(key, value, flags, expires_at, cost);
            }
            Record::Delete { key } => {
                let h = store.hash(key);
                store.shard(h).delete_hashed(h, STOPPED);
            }
            Record::Clear => store.flush_all(),
            Record::Touch { key, expires_at } => {
                let h = store.hash(key);
                store.shard(h).touch_hashed(h, expires_at, STOPPED);
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
    store.drop_expired(unix_now());
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
        let fsync_interval =
            (options.fsync == FsyncMode::Interval).then_some(options.fsync_interval);
        let unsynced = Arc::new(UnsyncedFlag::new());
        let mut writer = LogWriter {
            backend,
            options,
            unsynced: Arc::clone(&unsynced),
            seg_index: next_index,
            committed: 0,
            consecutive_errors: 0,
            segments: segments
                .into_iter()
                .map(|(index, path)| (index, path, None))
                .collect(),
            pending: Vec::new(),
            pending_records: 0,
            unsynced_records: 0,
            runway_end: 0,
            recycled: false,
            spares: Vec::new(),
            degraded: false,
            counts: Counts::default(),
        };
        // Always start a fresh segment: recovered segments are immutable
        // history, never appended to again. A disk that cannot take its
        // runway is counted, not fatal: appends will say the rest.
        writer.start_segment(next_index)?;
        if writer.extend_runway().is_err() {
            writer.counts.errors += 1;
        }
        Ok(Persist {
            writer: Mutex::new(writer),
            unsynced,
            recovery: summary,
            deferred: false,
            fsync_interval,
            stop: AtomicBool::new(false),
        })
    }

    /// Whether the engine has tripped to `degraded` (read under the
    /// writer lock).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        lock(&self.writer).degraded
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
        lock(&self.writer).ack_commit();
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
        lock(&self.writer).append(store, rec, !self.deferred);
    }

    /// One degraded-recovery attempt: a fresh segment holding a full
    /// snapshot of the live store, written the way compaction writes one.
    /// On success the log exactly mirrors the cache (no silent gap from
    /// the records dropped while degraded), older segments are deleted,
    /// and the engine re-arms. Returns `true` when the engine is active
    /// afterwards.
    pub fn try_rearm(&self, store: &ShardedStore) -> bool {
        lock(&self.writer).rearm(store)
    }

    /// Appends a [`Record::Seal`] and commits it with a sync in every
    /// mode: the drain path's clean shutdown marker. Recovery reports
    /// `sealed = true` when the newest segment ends with one.
    pub fn seal(&self) {
        let w = &mut *lock(&self.writer);
        if w.degraded {
            return;
        }
        let segment = w.seg_index;
        record::encode_frame(&Record::Seal, segment, &mut w.pending);
        w.pending_records += 1;
        w.commit(true);
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
            } else if self
                .fsync_interval
                .is_some_and(|interval| last_fsync.elapsed() >= interval)
            {
                lock(&self.writer).commit(true);
                last_fsync = Instant::now();
            }
        }
    }

    /// The telemetry counters, read under one brief lock of the writer
    /// beside the boot-time summary.
    #[must_use]
    pub fn snapshot(&self) -> PersistSnapshot {
        let w = lock(&self.writer);
        let c = &w.counts;
        PersistSnapshot {
            state: if w.degraded { "degraded" } else { "active" },
            errors: c.errors,
            bytes: c.bytes,
            fsyncs: c.fsyncs,
            records: c.records,
            dropped: c.dropped,
            recovered: self.recovery.records,
            quarantined: self.recovery.quarantined,
            torn_bytes: self.recovery.torn_bytes,
            snapshots: c.snapshots,
            trips: c.trips,
            rearms: c.rearms,
            segments: w.segments.len() as u64,
            commits: c.commits,
            commit_records: c.commit_records,
            writes: c.writes,
            reserves: c.reserves,
            reserved_bytes: c.reserved_bytes,
            recycled: c.recycled,
            sync_us: c.sync_us.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::powerloss::{write_image, Call, PowerHandle, PowerLossFs};
    use super::*;
    use crate::slab::SlabConfig;
    use crate::store::{EvictionMode, StoreConfig};
    use camp_core::Precision;
    use std::collections::BTreeSet;
    use std::os::unix::fs::FileExt;
    use std::sync::atomic::{AtomicU32, AtomicUsize};
    use std::sync::mpsc;

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

    /// Opens over the test disk, faulted by `plan` ([`FaultFs`]) if it
    /// carries disk faults.
    fn open_on_disk(
        opts: PersistOptions,
        plan: &FaultPlan,
        store: &ShardedStore,
    ) -> (Persist, PowerHandle) {
        let (disk, handle) = PowerLossFs::new();
        let backend: Box<dyn IoBackend> = if plan.has_disk_faults() {
            Box::new(FaultFs::new(Box::new(disk), plan))
        } else {
            Box::new(disk)
        };
        let persist = Persist::open_with_backend(opts, backend, store).expect("open");
        (persist, handle)
    }

    /// What these tests read back from a recovered store: a live item's
    /// value, flags and cost.
    struct Hit {
        value: Vec<u8>,
        flags: u32,
        cost: u64,
    }

    trait ReadBack {
        fn get(&self, key: &[u8]) -> Option<Hit>;
    }

    impl ReadBack for ShardedStore {
        fn get(&self, key: &[u8]) -> Option<Hit> {
            self.get_with(key, |item| Hit {
                value: item.value.to_vec(),
                flags: item.flags,
                cost: item.cost,
            })
        }
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
        // replace a colliding resident. The journal records the sets, not
        // the replacements; replaying it through the same store logic must
        // end where the live store did — last writer per slot.
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

    /// One framed set of segment 0, as the writer encodes it.
    fn written_set(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        let set = Record::Set {
            key,
            value,
            flags: 0,
            cost: 1,
            expires_at: 0,
        };
        record::encode_frame(&set, 0, &mut frame);
        frame
    }

    /// One framed set in the parent format.
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
        let before = written_set(b"good", b"value").len();
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
            written += written_set(key.as_bytes(), b"payload-bytes").len();
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

    /// A process killed while a compaction writes its snapshot loses no
    /// acknowledged write. 2 000 keys of 300 bytes overflow two 256 KiB
    /// segments, so the third rotation compacts, and its snapshot needs
    /// three writes; the kill lands before the second. The snapshot's
    /// `Clear` is on disk by then, followed by a third of the items: were
    /// that file a segment, recovery would wipe the older history and
    /// rebuild only that third.
    #[test]
    fn a_kill_mid_snapshot_loses_no_acknowledged_write() {
        const KEYS: u32 = 2_000;
        const BIG: usize = 256 * 1024;
        let dir = temp_dir("kill-snapshot");
        let image = temp_dir("kill-snapshot-image");
        let config = StoreConfig {
            slab: SlabConfig::small(64 * 1024, 256),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        };
        let store = ShardedStore::new(config.clone(), 4);
        let opts = PersistOptions {
            segment_bytes: BIG as u64,
            keep_segments: 2,
            ..options(&dir)
        };
        let (persist, disk) = open_on_disk(opts, &FaultPlan::default(), &store);
        // The process is killed just before its second write of a
        // snapshot's size: every byte written so far is on disk.
        let mut big_writes = 0;
        let kill_image = image.clone();
        disk.on_call(move |disk, call, bytes| {
            big_writes += u32::from(call == Call::Append && bytes >= BIG);
            if big_writes == 2 && !kill_image.exists() {
                write_image(&kill_image, &disk.kill_image());
            }
        });
        let value = [b'v'; 300];
        // Keys `0..acked` are the ones whose append returned before the
        // kill: acknowledged.
        let mut acked = 0;
        while acked < KEYS {
            let key = format!("key-{acked:05}");
            store.set(key.as_bytes(), &value, 0, 0, 1).expect("set");
            persist.append_set(&store, key.as_bytes(), &value, 0, 0, 1);
            if image.exists() {
                break;
            }
            acked += 1;
        }
        assert!(image.exists(), "no snapshot took a second big write");
        assert_eq!(store.len(), acked as usize + 1, "the live store evicted");
        drop(persist);

        let recovered = ShardedStore::new(config, 4);
        let _reopened = open_plain(options(&image), &recovered);
        let lost: Vec<u32> = (0..acked)
            .filter(|i| !recovered.contains(format!("key-{i:05}").as_bytes()))
            .collect();
        assert!(
            lost.is_empty(),
            "{} of {acked} acknowledged keys lost, the first {:?}",
            lost.len(),
            lost.first()
        );
        // Boot deleted the half-written snapshot.
        let names: Vec<String> = fs::read_dir(&image)
            .expect("read the image")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(SEGMENT_SUFFIX)),
            "{names:?}"
        );
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&image).ok();
    }

    /// Twenty rotations over real files: the first `KEEP` create and
    /// reserve (the last of them is the first compaction), after which
    /// the pool holds the segments that compaction retired and every
    /// rotation recycles one — no create, no reservation, no unlink.
    #[test]
    fn once_the_pool_has_spares_a_rotation_creates_reserves_and_unlinks_nothing() {
        const KEEP: usize = 3;
        const KEYS: u32 = 20;
        let dir = temp_dir("recycle");
        let store = sharded();
        let opts = PersistOptions {
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: KEEP,
            ..options(&dir)
        };
        let (persist, disk) = open_on_disk(opts, &FaultPlan::default(), &store);
        // The calls that make or unmake a file's blocks.
        let calls = || [Call::Create, Call::Reserve, Call::Remove].map(|call| disk.calls(call));
        let mut rotations = 0u64;
        let mut version = 0u32;
        while rotations < 20 {
            let (index, pooled) = {
                let w = lock(&persist.writer);
                (w.seg_index, !w.spares.is_empty())
            };
            let (calls_before, recycled_before) = (calls(), persist.snapshot().recycled);
            let key = format!("key-{}", version % KEYS);
            let value = format!("value-{version}");
            version += 1;
            store
                .set(key.as_bytes(), value.as_bytes(), 0, 0, 3)
                .expect("set");
            persist.append_set(&store, key.as_bytes(), value.as_bytes(), 0, 0, 3);
            if lock(&persist.writer).seg_index == index {
                continue;
            }
            rotations += 1;
            let recycled = persist.snapshot().recycled;
            if pooled {
                assert_eq!(calls(), calls_before, "rotation {rotations}");
                assert_eq!(recycled, recycled_before + 1, "rotation {rotations}");
            }
            let files = fs::read_dir(&dir).expect("read the data dir").count();
            assert!(files <= 2 * KEEP + 1, "rotation {rotations}: {files} files");
        }
        let snap = persist.snapshot();
        assert!(snap.snapshots >= 4, "{snap:?}");
        assert_eq!(snap.reserves, KEEP as u64 + 1, "{snap:?}");
        assert_eq!(snap.recycled, rotations - KEEP as u64, "{snap:?}");
        assert_eq!(disk.calls(Call::Remove), 0);
        drop(persist);

        let (recovered, summary) = replay(&dir);
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        assert_eq!(recovered.len(), KEYS as usize);
        for i in version - KEYS..version {
            let key = format!("key-{}", i % KEYS);
            let hit = recovered.get(key.as_bytes()).expect("recovered key");
            assert_eq!(hit.value, format!("value-{i}").as_bytes(), "{key}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A roll recycles a spare, and the rename to the segment's name
    /// fails, after the spare already became the backend's active file
    /// (and was removed). The roll falls back to a fresh segment, so the
    /// writes acknowledged after it land in the log, not in a file that
    /// is not in it.
    #[test]
    fn a_roll_that_cannot_name_its_recycled_spare_goes_on_in_a_fresh_segment() {
        roll_past_a_failed_rename("rename-fault", false);
    }

    /// As above, but the rename lands and the directory sync behind it
    /// fails: the spare sits under the segment's own name, earlier life
    /// and all. The fresh segment the roll falls back to must start empty:
    /// appended past that life, its records would come after frames of
    /// another segment, which end it at boot.
    #[test]
    fn a_roll_whose_directory_sync_fails_goes_on_in_an_empty_segment() {
        roll_past_a_failed_rename("dir-sync-fault", true);
    }

    /// The first rename once a segment has joined the spare pool — a roll
    /// naming its recycled spare — fails (after it took effect if
    /// `landed`); then 20 acknowledged sets, and a kill and a power cut.
    fn roll_past_a_failed_rename(tag: &str, landed: bool) {
        let dir = temp_dir(tag);
        let store = sharded();
        let opts = PersistOptions {
            fsync: FsyncMode::Always,
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: 2,
            ..options(&dir)
        };
        let (persist, disk) = open_on_disk(opts, &FaultPlan::default(), &store);
        let append = |i: u32| {
            let key = format!("key-{i:05}");
            store.set(key.as_bytes(), b"value", 0, 0, 3).expect("set");
            persist.append_set(&store, key.as_bytes(), b"value", 0, 0, 3);
        };
        let mut acked = 0u32;
        let mut armed = false;
        while persist.snapshot().errors == 0 {
            append(acked);
            acked += 1;
            assert!(acked < 10_000, "no rename ever failed");
            if !armed && !lock(&persist.writer).spares.is_empty() {
                disk.fail(Call::Rename, disk.calls(Call::Rename) + 1, landed);
                armed = true;
            }
        }
        let snap = persist.snapshot();
        assert_eq!(
            (snap.errors, snap.trips, snap.recycled),
            (1, 0, 1),
            "{snap:?}"
        );
        {
            let w = lock(&persist.writer);
            let (index, path, _) = w.segments.last().expect("a live segment");
            assert_eq!(*index, w.seg_index, "the active segment is in the log");
            assert!(path.exists(), "{path:?}");
        }
        // Acknowledged after the failed roll, fewer than fill a segment.
        for i in acked..acked + 20 {
            append(i);
        }
        acked += 20;
        assert_eq!(persist.snapshot().dropped, 0);
        let image = temp_dir(&format!("{tag}-image"));
        write_image(&image, &disk.image());
        drop(persist);

        for dir in [&dir, &image] {
            let (recovered, summary) = replay(dir);
            assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
            let lost: Vec<u32> = (0..acked)
                .filter(|i| !recovered.contains(format!("key-{i:05}").as_bytes()))
                .collect();
            assert!(lost.is_empty(), "acknowledged keys lost: {lost:?}");
            fs::remove_dir_all(dir).ok();
        }
    }

    /// The data dir's file names.
    fn names_in(dir: &Path) -> BTreeSet<String> {
        fs::read_dir(dir)
            .expect("read the data dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// Retires and recycles that fail — a recycle before it touches the
    /// file or after it renamed it — leave no file that is in neither the
    /// log nor the spare pool: after every append the data dir holds
    /// exactly those.
    #[test]
    fn a_failed_recycle_or_retire_leaves_no_file_outside_the_log_and_the_pool() {
        let dir = temp_dir("leak");
        let store = sharded();
        let opts = PersistOptions {
            fsync: FsyncMode::Always,
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: 2,
            ..options(&dir)
        };
        let (persist, disk) = open_on_disk(opts, &FaultPlan::default(), &store);
        for (call, nth, landed) in [
            (Call::Retire, 1, false),
            (Call::Retire, 4, false),
            (Call::Recycle, 1, false),
            (Call::Recycle, 3, true),
        ] {
            disk.fail(call, nth, landed);
        }
        for i in 0..600u32 {
            let key = format!("key-{:03}", i % 40);
            store.set(key.as_bytes(), b"value", 0, 0, 3).expect("set");
            persist.append_set(&store, key.as_bytes(), b"value", 0, 0, 3);
            let w = lock(&persist.writer);
            let live = w.segments.iter().map(|(_, path, _)| path);
            let expected = live
                .chain(w.spares.iter().map(|(path, _)| path))
                .map(|path| {
                    path.file_name()
                        .expect("name")
                        .to_string_lossy()
                        .into_owned()
                })
                .collect();
            assert_eq!(names_in(&dir), expected, "append {i}");
        }
        let snap = persist.snapshot();
        assert!(disk.calls(Call::Recycle) > 3 && disk.calls(Call::Retire) > 4);
        assert_eq!((snap.errors, snap.trips), (2, 0), "the failed recycles");
        drop(persist);
        let (recovered, summary) = replay(&dir);
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        assert_eq!(recovered.len(), 40);
        fs::remove_dir_all(&dir).ok();
    }

    /// Seeds of the sweep below: each is a fresh data dir with traffic, a
    /// fault plan and cut points of its own.
    const SWEEP_SEEDS: u64 = 40;
    /// Steps per seed: each a write, or a re-arm tried while degraded.
    const SWEEP_STEPS: usize = 240;
    /// Cuts are drawn among a seed's first calls: fewer than any seed makes.
    const SWEEP_CALLS: u64 = 400;
    /// Calls per seed, drawn at random, before which a kill or a power cut
    /// is imaged.
    const CUTS: u64 = 8;
    /// Calls in a row, from a random call on, before each of which both
    /// are.
    const CUT_RUN: u64 = 12;

    /// Room for every key the sweep writes: its live store never evicts.
    fn sweep_store() -> ShardedStore {
        let config = StoreConfig {
            slab: SlabConfig::small(64 * 1024, 128),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        };
        ShardedStore::new(config, 2)
    }

    /// One write the live store took: the key it touched (`None`: a
    /// `flush_all`, every key), the value it left (`None`: no item), and
    /// whether it was acknowledged while the engine was armed — its append
    /// returned with no error counted, nothing dropped, the engine active.
    struct Write {
        key: Option<Vec<u8>>,
        value: Option<Vec<u8>>,
        acked: bool,
    }

    /// The disk before one call: how many writes had begun and how many
    /// had returned, and what a kill or a power cut would leave.
    struct Cut {
        begun: usize,
        returned: usize,
        kind: &'static str,
        files: Vec<(PathBuf, Vec<u8>)>,
    }

    /// Keys that `store` does not hold at the value of their last
    /// acknowledged write or of a write begun after it.
    fn regressed(store: &ShardedStore, writes: &[Write], cut: &Cut) -> Vec<String> {
        let keys: BTreeSet<&[u8]> = writes.iter().filter_map(|w| w.key.as_deref()).collect();
        let mut wrong = Vec::new();
        for key in keys {
            let touches = |w: &&Write| w.key.as_deref().is_none_or(|k| k == key);
            let acked = writes[..cut.returned]
                .iter()
                .rposition(|w| w.acked && touches(&w));
            let Some(floor) = acked else { continue };
            let got = store.get_with(key, |item| item.value.to_vec());
            if !writes[floor..cut.begun]
                .iter()
                .filter(touches)
                .any(|w| w.value == got)
            {
                wrong.push(String::from_utf8_lossy(key).into_owned());
            }
        }
        wrong
    }

    /// One seed of the sweep, at `MIN_SEGMENT_BYTES` and `keep_segments` 2
    /// or 3. Traffic: sets of numeric keys and of values up to 1.3 KB,
    /// incrs, deletes and rare `flush_all`s; in a third of the seeds first
    /// 40 ballast items of 8 KiB, so that a snapshot takes two writes. A
    /// re-arm is tried at half the steps while degraded. Faults: a plan of
    /// `iowrite`, `fsync` and `enospc` rates of 0–10 %, which can fail any
    /// call. Cuts: [`CUTS`], [`CUT_RUN`], and both images after the last
    /// write; each is recovered and checked. Returns the engine's counts,
    /// or what a recovery lost.
    fn sweep_seed(seed: u64) -> Result<PersistSnapshot, String> {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut rate = || [0.0, 0.02, 0.05, 0.1][rng.range_usize(0, 4)];
        let plan = FaultPlan {
            iowrite_rate: rate(),
            fsync_fail_rate: rate(),
            enospc_rate: rate(),
            seed,
            ..FaultPlan::default()
        };
        let dir = temp_dir("sweep");
        let opts = PersistOptions {
            fsync: FsyncMode::Always,
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: rng.range_usize(2, 4),
            trip_after: [2, 5][rng.range_usize(0, 2)],
            ..PersistOptions::new(&dir)
        };
        let (disk, handle) = PowerLossFs::new();
        let cuts: Arc<Mutex<Vec<Cut>>> = Arc::default();
        let progress: Arc<[AtomicUsize; 2]> = Arc::default();
        let at: Vec<u64> = (0..CUTS).map(|_| rng.range_u64(1, SWEEP_CALLS)).collect();
        let run = rng.range_u64(SWEEP_CALLS / 4, SWEEP_CALLS);
        let (hook_cuts, hook_progress) = (Arc::clone(&cuts), Arc::clone(&progress));
        let (mut calls, mut kinds) = (0, Rng64::seed_from_u64(!seed));
        handle.on_call(move |disk, _, _| {
            calls += 1;
            let in_run = (run..run + CUT_RUN).contains(&calls);
            let kill = in_run || at.contains(&calls) && kinds.chance(0.5);
            let power = in_run || at.contains(&calls) && !kill;
            let begun = hook_progress[0].load(Ordering::Relaxed);
            let returned = hook_progress[1].load(Ordering::Relaxed);
            for (cut, kind) in [(kill, "kill"), (power, "power cut")] {
                if cut {
                    let files = if kind == "kill" {
                        disk.kill_image()
                    } else {
                        disk.image()
                    };
                    lock(&hook_cuts).push(Cut {
                        begun,
                        returned,
                        kind,
                        files,
                    });
                }
            }
        });
        let store = sweep_store();
        let backend = Box::new(FaultFs::new(Box::new(disk), &plan));
        let Ok(persist) = Persist::open_with_backend(opts, backend, &store) else {
            // The plan refused the boot its segment, as a full disk does.
            return Ok(PersistSnapshot::default());
        };
        let mut writes: Vec<Write> = Vec::new();
        let ballast = rng.chance(0.33);
        for step in 0..SWEEP_STEPS {
            if persist.is_degraded() && rng.chance(0.5) {
                persist.try_rearm(&store);
                continue;
            }
            let n = writes.len();
            let pick = |rng: &mut Rng64, family: &str, keys: usize| {
                format!("{family}{:02}", rng.range_usize(0, keys)).into_bytes()
            };
            let set = |key: Vec<u8>, value: Vec<u8>| {
                store.set(&key, &value, 0, 0, 1).expect("set");
                (Some(key), Some(value))
            };
            let (key, value) = match rng.range_u64(0, 200) {
                _ if ballast && step < 40 => {
                    set(format!("b{step:02}").into_bytes(), vec![b'b'; 8192])
                }
                0 => {
                    store.flush_all();
                    (None, None)
                }
                1..=60 => set(pick(&mut rng, "n", 8), (n * 1000).to_string().into_bytes()),
                61..=90 => {
                    let key = pick(&mut rng, "n", 8);
                    let Some(next) = store.incr(&key, 7) else {
                        continue;
                    };
                    (Some(key), Some(next.to_string().into_bytes()))
                }
                91..=120 => {
                    let (family, keys) = if rng.chance(0.5) { ("n", 8) } else { ("v", 16) };
                    let key = pick(&mut rng, family, keys);
                    if !store.delete(&key) {
                        continue;
                    }
                    (Some(key), None)
                }
                _ => {
                    let mut value = format!("{n}-").into_bytes();
                    value.resize(value.len() + rng.range_usize(100, 1200), b'x');
                    set(pick(&mut rng, "v", 16), value)
                }
            };
            writes.push(Write {
                key: key.clone(),
                value: value.clone(),
                acked: false,
            });
            progress[0].store(writes.len(), Ordering::Relaxed);
            let before = persist.snapshot();
            match (&key, &value) {
                (None, _) => persist.append_clear(&store),
                (Some(key), None) => persist.append_delete(&store, key),
                (Some(key), Some(value)) => persist.append_set(&store, key, value, 0, 0, 1),
            }
            let after = persist.snapshot();
            progress[1].store(writes.len(), Ordering::Relaxed);
            writes.last_mut().expect("pushed").acked = after.errors == before.errors
                && after.dropped == before.dropped
                && after.state == "active";
        }
        let stats = store.stats();
        assert_eq!((stats.evictions, stats.fingerprint_collisions), (0, 0));
        let done = writes.len();
        for (kind, files) in [("kill", handle.kill_image()), ("power cut", handle.image())] {
            let (begun, returned) = (done, done);
            lock(&cuts).push(Cut {
                begun,
                returned,
                kind,
                files,
            });
        }
        let counts = persist.snapshot();
        drop(persist);
        fs::remove_dir_all(&dir).ok();
        let image = temp_dir("sweep-image");
        for cut in lock(&cuts).iter() {
            fs::remove_dir_all(&image).ok();
            write_image(&image, &cut.files);
            let recovered = sweep_store();
            recover_into(&image, &recovered).expect("recover");
            let wrong = regressed(&recovered, &writes, cut);
            if !wrong.is_empty() {
                let (kind, returned) = (cut.kind, cut.returned);
                return Err(format!(
                    "seed {seed}: a {kind} after {returned} of {done} writes lost {wrong:?} \
                     ({plan:?}, {counts:?})"
                ));
            }
        }
        fs::remove_dir_all(&image).ok();
        Ok(counts)
    }

    /// Every write acknowledged while the engine was armed survives a
    /// kill or a power cut at any call, under faults that can fail any
    /// call: [`sweep_seed`] over a fixed set of seeds.
    #[test]
    fn a_seeded_sweep_of_disk_faults_kills_and_power_cuts_keeps_every_acked_write() {
        let mut total = PersistSnapshot::default();
        for seed in 0..SWEEP_SEEDS {
            let counts = sweep_seed(seed).unwrap_or_else(|lost| panic!("{lost}"));
            total.errors += counts.errors;
            total.recycled += counts.recycled;
            total.snapshots += counts.snapshots;
            total.rearms += counts.rearms;
        }
        // The sweep reached what it is for.
        assert!(
            total.errors > 0 && total.recycled > 0 && total.snapshots > 0 && total.rearms > 0,
            "{total:?}"
        );
    }

    /// Files in `dir` longer than `cap` bytes, as `(name, length)`.
    fn files_longer_than(dir: &Path, cap: u64) -> Vec<(String, u64)> {
        fs::read_dir(dir)
            .expect("read the data dir")
            .map(|entry| {
                let entry = entry.expect("entry");
                let len = entry.metadata().expect("metadata").len();
                (entry.file_name().to_string_lossy().into_owned(), len)
            })
            .filter(|&(_, len)| len > cap)
            .collect()
    }

    /// A store larger than a segment makes every snapshot longer than a
    /// fresh segment. The pool keeps one such file, which only the next
    /// snapshot recycles: rolls stay as short as fresh segments, and no
    /// compaction has to create a file. Once the store shrinks, the long
    /// file is cut back to its records when the writer leaves it.
    #[test]
    fn a_store_larger_than_a_segment_keeps_one_long_spare_for_its_snapshots() {
        const KEEP: usize = 2;
        let dir = temp_dir("long-snapshot");
        let store = sharded();
        let opts = PersistOptions {
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: KEEP,
            ..options(&dir)
        };
        let cap = MIN_SEGMENT_BYTES + RUNWAY_SLACK;
        let persist = open_plain(opts, &store);
        let value = [b'v'; 200];
        // Every snapshot holds the 100 live items: 20 000 bytes of values.
        assert!(100 * value.len() as u64 > cap);
        for i in 0..2_000u32 {
            let key = format!("key-{:03}", i % 100);
            store.set(key.as_bytes(), &value, 0, 0, 3).expect("set");
            persist.append_set(&store, key.as_bytes(), &value, 0, 0, 3);
            // The active snapshot segment and the one long spare.
            let long = files_longer_than(&dir, cap);
            assert!(long.len() <= 2, "append {i}: {long:?}");
            // Only a snapshot, the one live segment right after its
            // compaction, recycles a long file.
            let w = lock(&persist.writer);
            assert!(!w.recycled || w.runway_end <= cap || w.segments.len() == 1);
        }
        let snap = persist.snapshot();
        assert!(snap.snapshots >= 10 && snap.recycled > 0, "{snap:?}");
        assert!(snap.reserves <= KEEP as u64 + 1, "{snap:?}");
        // Shrink the store to ten small items: within a few compactions
        // no file is longer than a fresh segment.
        for i in 10..100u32 {
            let key = format!("key-{i:03}");
            store.delete(key.as_bytes());
            persist.append_delete(&store, key.as_bytes());
        }
        for i in 0..400u32 {
            let key = format!("key-{:03}", i % 10);
            store.set(key.as_bytes(), b"small", 0, 0, 3).expect("set");
            persist.append_set(&store, key.as_bytes(), b"small", 0, 0, 3);
        }
        assert_eq!(files_longer_than(&dir, cap), []);
        drop(persist);
        let (recovered, summary) = replay(&dir);
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        assert_eq!(recovered.len(), 10);
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
        lock(&persist.writer).commit(true);
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
        let (persist, _disk) = open_on_disk(opts, &plan, &store);
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

    #[test]
    fn no_frame_of_a_short_written_batch_replays_behind_a_later_shorter_one() {
        let dir = temp_dir("stale-batch");
        let store = sharded();
        let (mut persist, disk) = open_on_disk(options(&dir), &FaultPlan::default(), &store);
        // The first write is a short one, and fails.
        disk.fail(Call::Append, 1, true);
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

        let opts = PersistOptions {
            trip_after: 1,
            ..options(&dir)
        };
        let (persist, disk) = open_on_disk(opts, &FaultPlan::default(), &sharded());
        disk.fail(Call::Append, 1, true);
        persist.seal(); // half the frame lands, then the write fails
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
        let scan = record::scan_segment(&bytes, 0, |rec| {
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
    fn a_touch_that_extended_an_expired_set_survives_recovery() {
        // A set with a 2 s TTL, touched to an hour, and a restart 3 s
        // later: the live store would still serve the key, so recovery
        // must too.
        let dir = temp_dir("touched");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        let (set_at, extended) = (unix_now() - 3, unix_now() + 3600);
        persist.append_set(&store, b"k", b"v", 0, set_at + 2, 1);
        persist.append_touch(&store, b"k", extended);
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        let expiry = recovered
            .peek_meta(b"k")
            .map(|(_, expires_at, _)| expires_at);
        assert_eq!(expiry, Some(extended));
        fs::remove_dir_all(&dir).ok();
    }

    /// Two trip → re-arm cycles under seeded disk faults. After every
    /// step the transition counts agree with the state, every append made
    /// while degraded is counted dropped, and no commit claims a sync or a
    /// record that was not there.
    #[test]
    fn disk_faults_trip_degraded_and_rearm_restores_the_log() {
        let dir = temp_dir("degraded");
        let store = sharded();
        let plan = FaultPlan {
            enospc_rate: 0.4,
            // (Seed 1234 draws an ENOSPC for the boot's own `create`, which
            // refuses the boot, as a full disk does.)
            seed: 1235,
            ..FaultPlan::default()
        };
        let opts = PersistOptions {
            trip_after: 2,
            ..options(&dir)
        };
        let (persist, _disk) = open_on_disk(opts, &plan, &store);
        let check = |dropped: u64| {
            let snap = persist.snapshot();
            let degraded = snap.state == "degraded";
            assert_eq!(snap.trips - snap.rearms, u64::from(degraded), "{snap:?}");
            assert_eq!(snap.dropped, dropped, "{snap:?}");
            assert!(snap.fsyncs >= snap.commits, "{snap:?}");
            assert!(snap.records >= snap.commit_records, "{snap:?}");
            snap
        };
        let mut dropped = 0;
        let mut next = 0u32;
        for cycle in 1..=2u64 {
            for _ in 0..400 {
                let key = format!("key-{next}");
                next += 1;
                store.set(key.as_bytes(), b"value", 0, 0, 5).expect("set");
                persist.append_set(&store, key.as_bytes(), b"value", 0, 0, 5);
                check(dropped);
                if persist.is_degraded() {
                    break;
                }
            }
            assert!(
                persist.is_degraded(),
                "cycle {cycle}: a 40% fault rate must trip trip_after=2 within 400 appends"
            );
            // Appends while degraded are dropped, not blocked — the cache
            // itself keeps accepting the write.
            for i in 0..3 {
                let key = format!("while-down-{cycle}-{i}");
                store.set(key.as_bytes(), b"value", 0, 0, 5).expect("set");
                persist.append_set(&store, key.as_bytes(), b"value", 0, 0, 5);
                dropped += 1;
                check(dropped);
            }
            let snap = check(dropped);
            assert_eq!(snap.state, "degraded");
            assert_eq!((snap.trips, snap.rearms), (cycle, cycle - 1));
            assert!(snap.errors >= 2 * cycle);
            // The seeded fault stream is deterministic, so re-arm retries
            // eventually land a full snapshot.
            let rearmed = (0..500).any(|_| {
                let active = persist.try_rearm(&store);
                check(dropped);
                active
            });
            assert!(
                rearmed,
                "cycle {cycle}: re-arm must eventually succeed at 40% fault rate"
            );
            let snap = check(dropped);
            assert_eq!(snap.state, "active");
            assert_eq!((snap.trips, snap.rearms), (cycle, cycle));
        }
        drop(persist);
        // The re-armed log is a full snapshot of the live store: every
        // key present at re-arm time recovers, including the ones whose
        // appends were dropped while degraded.
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), store.len());
        assert!(recovered.contains(b"while-down-1-0"));
        assert!(recovered.contains(b"while-down-2-2"));
        fs::remove_dir_all(&dir).ok();
    }

    /// An appender that reaches the writer just after another thread
    /// tripped the engine has its record counted dropped, and nothing is
    /// left pending for a commit to write into the abandoned segment or
    /// for a reply to wait on.
    #[test]
    fn an_append_that_races_a_trip_is_counted_dropped() {
        let dir = temp_dir("raced-trip");
        let store = sharded();
        let plan = FaultPlan {
            iowrite_rate: 1.0,
            seed: 3,
            ..FaultPlan::default()
        };
        let opts = PersistOptions {
            trip_after: 1,
            ..options(&dir)
        };
        let (mut persist, _disk) = open_on_disk(opts, &plan, &store);
        persist.defer_to_commit();
        persist.append_set(&store, b"first", b"value", 0, 0, 1);
        persist.commit(); // the write fails, and one error trips the engine
        assert!(persist.is_degraded());
        assert!(!persist.needs_commit());
        let before = persist.snapshot().dropped;
        persist.append_set(&store, b"late", b"value", 0, 0, 1);
        assert_eq!(persist.snapshot().dropped, before + 1, "counted dropped");
        let w = lock(&persist.writer);
        assert!(w.pending.is_empty(), "the record was left pending");
        assert_eq!(w.pending_records, 0);
        drop(w);
        assert!(!persist.needs_commit(), "a reply would park behind it");
        drop(persist);
        fs::remove_dir_all(&dir).ok();
    }

    /// A write applied to the live store after a re-arm's snapshot has
    /// walked it, while the re-arm still holds the writer, is not lost:
    /// its append waits for the re-arm and lands in the healed log, so
    /// the log again matches the live store.
    #[test]
    fn a_write_during_a_rearm_lands_in_the_healed_log() {
        let dir = temp_dir("rearm-window");
        let store = sharded();
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let opts = PersistOptions {
            trip_after: 1,
            ..options(&dir)
        };
        let (persist, disk) = open_on_disk(opts, &FaultPlan::default(), &store);
        for key in [&b"early"[..], b"tripping"] {
            if key == b"tripping" {
                disk.fail(Call::Append, disk.calls(Call::Append) + 1, false);
            }
            store.set(key, b"value", 0, 0, 1).expect("set");
            persist.append_set(&store, key, b"value", 0, 0, 1);
        }
        assert!(persist.is_degraded(), "one failed write trips trip_after=1");
        // The rename — the last step of the re-arm's snapshot, after it has
        // walked the store — says so on `parked` and waits for `release`.
        disk.on_call(move |_, call, _| {
            if call == Call::Rename {
                parked_tx.send(()).ok();
                release_rx.recv().ok();
            }
        });
        let (store, persist) = (&store, &persist);
        std::thread::scope(|scope| {
            let rearm = scope.spawn(|| persist.try_rearm(store));
            parked.recv().expect("the re-arm reaches its rename");
            let (done_tx, done) = mpsc::channel();
            scope.spawn(move || {
                store.set(b"late", b"value", 0, 0, 1).expect("set");
                persist.append_set(store, b"late", b"value", 0, 0, 1);
                done_tx.send(()).ok();
            });
            // Give an append that does not wait for the writer the time
            // to return before the re-arm finishes.
            let returned = done.recv_timeout(Duration::from_millis(200)).is_ok();
            release.send(()).expect("release the rename");
            assert!(rearm.join().expect("re-arm thread"), "the re-arm succeeds");
            if !returned {
                done.recv().expect("the append returns after the re-arm");
            }
        });
        let snap = persist.snapshot();
        let counts = (snap.trips, snap.rearms, snap.dropped);
        assert_eq!(counts, (1, 1, 0), "trips, re-arms, dropped");
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert!(
            recovered.contains(b"late"),
            "the healed log lacks a write the live store holds"
        );
        assert_eq!(recovered.len(), store.len());
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
        // Segments small enough that the shutdown leaves spares beside them.
        let opts = PersistOptions {
            segment_bytes: MIN_SEGMENT_BYTES,
            keep_segments: 2,
            ..options(&dir)
        };
        let persist = open_plain(opts, &store);
        append_sets(&persist, &store, 300);
        persist.seal();
        drop(persist);
        let spares = fs::read_dir(&dir)
            .expect("read the data dir")
            .filter(|e| {
                e.as_ref()
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .starts_with("spare-")
            })
            .count();
        assert!(spares > 0, "no spare on disk");
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
