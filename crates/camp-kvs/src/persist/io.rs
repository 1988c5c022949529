//! The write-side I/O seam for the persistence log.
//!
//! The log writer talks to disk only through [`IoBackend`], so the
//! fault-injection backend ([`FaultFs`]) can fail any of its calls
//! deterministically, with the same seeded-`Rng64` recipe as
//! [`crate::fault::FaultPlan`] uses for network chaos. Recovery *reads*
//! segments through plain `std::fs`: corrupt bytes, not failed reads, are
//! its fault surface, and the scanner handles those.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

use camp_core::rng::Rng64;

use crate::fault::FaultPlan;

/// Seed whitener so the disk-fault stream is independent of the
/// network-fault streams derived from the same `--chaos` seed.
const DISK_STREAM_SALT: u64 = 0xD15C_FA17;
/// Whitens the stream every call but `append` and `sync` draws from.
const OTHER_CALLS_SALT: u64 = 0x07E5_CA11;

/// Everything the log writer does to the filesystem.
///
/// One file is "active" at a time: [`create`](IoBackend::create) or
/// [`recycle`](IoBackend::recycle) opens it,
/// [`append`](IoBackend::append)/[`sync`](IoBackend::sync)/
/// [`truncate`](IoBackend::truncate)/[`reserve`](IoBackend::reserve)/
/// [`rename`](IoBackend::rename) operate on it. On an `append` error an arbitrary prefix of the buffer
/// may have reached the file — exactly what a real short write does —
/// and the caller repairs by truncating back to its last committed
/// offset.
pub trait IoBackend: fmt::Debug + Send {
    /// Opens `path` as the new active file, empty: created, or cut to
    /// nothing if it exists. The name is not synced; the caller's
    /// [`rename`](IoBackend::rename) to the segment's own name is. On
    /// failure no other file has become the active one.
    fn create(&mut self, path: &Path) -> io::Result<()>;
    /// Writes `buf` where the active file's records end.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes the active file's data to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates the active file to `len` bytes; the next `append` lands
    /// there, and whatever runway was reserved past it is gone.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Removes a segment, spare or temporary file — the active one too,
    /// when an attempt to begin a segment in it failed.
    fn remove(&mut self, path: &Path) -> io::Result<()>;
    /// Renames the active file from `from` to `to`, replacing any file of
    /// that name, then syncs the directory, so the new name survives a
    /// crash. The file stays the active one: appends go on where they were.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        File::open(to.parent().unwrap_or(Path::new(".")))?.sync_all()
    }
    /// Extends the active file's *runway* by `bytes`: zeros, written and
    /// synced, starting where the runway so far ends (or where the
    /// records end, if they have passed it), which later `append`s
    /// overwrite in place. Returns the file offset the runway now ends
    /// at. A backend that does not reserve — the default — returns
    /// `Ok(0)` and its files simply grow.
    fn reserve(&mut self, bytes: u64) -> io::Result<u64> {
        let _ = bytes;
        Ok(0)
    }
    /// Retires the (non-active) segment `path`, which a snapshot has
    /// superseded. A backend that recycles renames it to `spare` — no
    /// directory sync: a crash that undoes the rename leaves stale history
    /// the snapshot's leading `Clear` wipes on replay — and returns `true`:
    /// the file is a spare, for [`recycle`](IoBackend::recycle). The
    /// default removes it and returns `false`.
    fn retire(&mut self, path: &Path, spare: &Path) -> io::Result<bool> {
        let _ = spare;
        self.remove(path).map(|()| false)
    }
    /// Makes the spare `spare` the active file under `path`, its next
    /// `append` landing at offset 0 over what its earlier life left, and
    /// returns the file's length: where its runway ends, as a created
    /// file's does once [`reserve`](IoBackend::reserve) has written it.
    /// The rename is not synced; the caller's [`rename`](IoBackend::rename)
    /// to the segment's own name is. The default creates `path` afresh and
    /// returns 0 (a backend whose `retire` keeps no spare is never asked).
    fn recycle(&mut self, spare: &Path, path: &Path) -> io::Result<u64> {
        let _ = spare;
        self.create(path).map(|()| 0)
    }
}

/// The production backend: buffered-nothing, straight `std::fs`.
///
/// The active file is written by position, not `O_APPEND`: `cursor` is
/// where the records end, `reserved` where the runway past them ends: a
/// recycled file's whole length, and for any file the end of the zeros its
/// `reserve`s wrote. One rule, whatever the file's history: an `append`
/// that stays below `reserved` overwrites blocks that are already
/// allocated, written and inside the synced file size, so the `fdatasync`
/// after it has no metadata to journal; one that passes it grows the file
/// like any append would.
#[derive(Debug, Default)]
pub struct RealFs {
    active: Option<File>,
    /// Offset the next `append` writes at.
    cursor: u64,
    /// End of the runway (`<= cursor` when there is none).
    reserved: u64,
}

impl RealFs {
    /// A backend with no active file yet.
    #[must_use]
    pub fn new() -> Self {
        RealFs::default()
    }

    fn active(&self) -> io::Result<&File> {
        self.active
            .as_ref()
            .ok_or_else(|| io::Error::other("persist: no active segment file"))
    }
}

impl IoBackend for RealFs {
    fn create(&mut self, path: &Path) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        self.cursor = 0;
        self.reserved = 0;
        self.active = Some(file);
        Ok(())
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        // On failure the cursor stays put: the caller's `truncate`
        // decides where the log resumes.
        self.active()?.write_all_at(buf, self.cursor)?;
        self.cursor += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.active()?.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.active()?.set_len(len)?;
        self.cursor = len;
        self.reserved = len;
        Ok(())
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn reserve(&mut self, bytes: u64) -> io::Result<u64> {
        // A small fixed buffer, however long the runway: no allocation.
        let zeros = [0u8; 16 * 1024];
        let file = self.active()?;
        let end = self.reserved.max(self.cursor) + bytes;
        let mut at = end - bytes;
        while at < end {
            let chunk = (end - at).min(zeros.len() as u64);
            file.write_all_at(&zeros[..chunk as usize], at)?;
            at += chunk;
        }
        // The one sync that pays for the new blocks and the new file
        // size, so the commits that land in them do not.
        file.sync_data()?;
        self.reserved = end;
        Ok(end)
    }

    fn retire(&mut self, path: &Path, spare: &Path) -> io::Result<bool> {
        fs::rename(path, spare)?;
        Ok(true)
    }

    fn recycle(&mut self, spare: &Path, path: &Path) -> io::Result<u64> {
        fs::rename(spare, path)?;
        let file = OpenOptions::new().write(true).open(path)?;
        let len = file.metadata()?.len();
        self.cursor = 0;
        self.reserved = len;
        self.active = Some(file);
        Ok(len)
    }
}

/// Deterministic disk-fault injector wrapping another backend: it
/// forwards every call, and any call can fail ([`crate::fault`] says which
/// clause hits which call). Decisions come from `Rng64` streams seeded from
/// the chaos plan's seed, so a `--chaos` spec replays the identical fault
/// schedule run after run; `append` and `sync` draw from a stream the other
/// calls do not touch. A short write first lands a *prefix* of the buffer —
/// a genuine torn record, which recovery's torn-tail rule absorbs — and a
/// failed directory sync comes after its rename took effect; every other
/// fault comes before the call reaches the disk.
#[derive(Debug)]
pub struct FaultFs {
    inner: Box<dyn IoBackend>,
    iowrite_rate: f64,
    fsync_fail_rate: f64,
    enospc_rate: f64,
    rng: Rng64,
    others: Rng64,
}

impl FaultFs {
    /// Wraps `inner`, drawing fault decisions from `plan`'s disk rates.
    #[must_use]
    pub fn new(inner: Box<dyn IoBackend>, plan: &FaultPlan) -> Self {
        FaultFs {
            inner,
            iowrite_rate: plan.iowrite_rate,
            fsync_fail_rate: plan.fsync_fail_rate,
            enospc_rate: plan.enospc_rate,
            rng: Rng64::seed_from_u64(plan.seed ^ DISK_STREAM_SALT),
            others: Rng64::seed_from_u64(plan.seed ^ OTHER_CALLS_SALT),
        }
    }

    /// The fault a call other than `append` and `sync` meets before it
    /// reaches the disk: `ENOSPC` if it `allocates`, `EIO` if it `writes`.
    fn refuse(&mut self, allocates: bool, writes: bool) -> io::Result<()> {
        let enospc = allocates && self.others.chance(self.enospc_rate);
        if enospc || (writes && self.others.chance(self.iowrite_rate)) {
            let what = if enospc { "ENOSPC" } else { "EIO" };
            return Err(io::Error::other(format!("injected {what}")));
        }
        Ok(())
    }
}

impl IoBackend for FaultFs {
    fn create(&mut self, path: &Path) -> io::Result<()> {
        self.refuse(true, false)?;
        self.inner.create(path)
    }

    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.rng.chance(self.enospc_rate) {
            return Err(io::Error::other("injected ENOSPC: no space left on device"));
        }
        if self.rng.chance(self.iowrite_rate) {
            // A short write: half the buffer really lands, then EIO.
            let cut = buf.len() / 2;
            if cut > 0 {
                self.inner.append(&buf[..cut])?;
            }
            return Err(io::Error::other("injected EIO after short write"));
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.rng.chance(self.fsync_fail_rate) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.refuse(false, true)?;
        self.inner.truncate(len)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.refuse(false, true)?;
        self.inner.remove(path)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.refuse(true, false)?;
        self.inner.rename(from, to)?;
        if self.others.chance(self.fsync_fail_rate) {
            return Err(io::Error::other("injected directory fsync failure"));
        }
        Ok(())
    }

    fn reserve(&mut self, bytes: u64) -> io::Result<u64> {
        self.refuse(true, true)?;
        self.inner.reserve(bytes)
    }

    fn retire(&mut self, path: &Path, spare: &Path) -> io::Result<bool> {
        self.refuse(false, true)?;
        self.inner.retire(path, spare)
    }

    fn recycle(&mut self, spare: &Path, path: &Path) -> io::Result<u64> {
        self.refuse(false, true)?;
        self.inner.recycle(spare, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::powerloss::{temp_dir, Call, PowerHandle, PowerLossFs};
    use std::path::PathBuf;

    fn plan_with(iowrite: f64, fsync: f64, enospc: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            iowrite_rate: iowrite,
            fsync_fail_rate: fsync,
            enospc_rate: enospc,
            seed,
            ..FaultPlan::default()
        }
    }

    /// `plan`'s backend over the test disk, whose active file `seg` (in a
    /// fresh directory) holds `pre`.
    fn faulty(plan: &FaultPlan, pre: &[u8]) -> (FaultFs, PowerHandle, PathBuf) {
        let dir = temp_dir("io");
        fs::create_dir_all(&dir).expect("mkdir");
        let seg = dir.join("seg-00000000.camplog");
        let (mut disk, handle) = PowerLossFs::new();
        disk.create(&seg).expect("create");
        disk.append(pre).expect("append");
        (FaultFs::new(Box::new(disk), plan), handle, seg)
    }

    fn fault_schedule(plan: &FaultPlan, appends: usize) -> Vec<bool> {
        let (mut fs, _, seg) = faulty(plan, b"");
        let schedule = (0..appends)
            .map(|_| fs.append(&[0u8; 64]).is_err())
            .collect();
        fs::remove_dir_all(seg.parent().expect("dir")).ok();
        schedule
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let plan = plan_with(0.3, 0.0, 0.1, 77);
        let a = fault_schedule(&plan, 200);
        let b = fault_schedule(&plan, 200);
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f), "30% rate must fault in 200 draws");
        assert!(!a.iter().all(|&f| f), "30% rate must also succeed");
        let other = plan_with(0.3, 0.0, 0.1, 78);
        assert_ne!(a, fault_schedule(&other, 200), "seed changes the stream");
    }

    /// The appends and syncs of one pinned plan fail exactly where they did
    /// before the other calls could fail: those draw from a stream of
    /// their own. (`.` an append, `n` its ENOSPC, `w` its short write; `-`
    /// a sync, `s` its failure.)
    #[test]
    fn a_pinned_plan_keeps_its_append_and_sync_schedule() {
        const SCHEDULE: &str = "..-..-..-..-..-nw-..-..-..-.w-..sw.s..-.w-w.-.w-";
        let (mut fs, _, seg) = faulty(&plan_with(0.2, 0.2, 0.1, 77), b"");
        let mut got = String::new();
        for i in 0..SCHEDULE.len() {
            // A call of another kind between each two, failing or not.
            let _ = fs.reserve(16);
            got.push(if i % 3 == 2 {
                if fs.sync().is_ok() {
                    '-'
                } else {
                    's'
                }
            } else {
                match fs.append(&[1u8; 8]) {
                    Ok(()) => '.',
                    Err(err) if err.to_string().contains("ENOSPC") => 'n',
                    Err(_) => 'w',
                }
            });
        }
        assert_eq!(got, SCHEDULE);
        fs::remove_dir_all(seg.parent().expect("dir")).ok();
    }

    #[test]
    fn short_write_lands_a_real_prefix() {
        let plan = plan_with(1.0, 0.0, 0.0, 1);
        let (mut fs, _, seg) = faulty(&plan, b"");
        let buf = [7u8; 100];
        assert!(fs.append(&buf).is_err());
        // Exactly half the buffer reached the file.
        assert_eq!(fs::read(&seg).expect("read"), [7u8; 50]);
        fs::remove_dir_all(seg.parent().expect("dir")).ok();
    }

    #[test]
    fn enospc_writes_nothing() {
        let plan = plan_with(0.0, 0.0, 1.0, 1);
        let (mut fs, _, seg) = faulty(&plan, b"pre");
        assert!(fs.append(&[1u8; 32]).is_err());
        // ENOSPC rejects before touching the inner backend.
        assert_eq!(fs::read(&seg).expect("read"), b"pre");
        fs::remove_dir_all(seg.parent().expect("dir")).ok();
    }

    #[test]
    fn fsync_faults_do_not_sync() {
        let plan = plan_with(0.0, 1.0, 0.0, 9);
        let (mut fs, disk, seg) = faulty(&plan, b"");
        assert!(fs.sync().is_err());
        assert_eq!(disk.calls(Call::Sync), 0, "the sync never reached the disk");
        fs::remove_dir_all(seg.parent().expect("dir")).ok();
    }

    #[test]
    fn zero_rates_pass_everything_through() {
        let plan = plan_with(0.0, 0.0, 0.0, 5);
        let (mut fs, disk, seg) = faulty(&plan, b"");
        let dir = seg.parent().expect("dir").to_path_buf();
        let x = dir.join("seg-00000001.camplog");
        fs.create(&x).expect("create");
        for _ in 0..100 {
            fs.append(&[0u8; 16]).expect("append");
        }
        fs.sync().expect("sync");
        fs.remove(&x).expect("remove");
        // Every other call reaches the disk too.
        fs.create(&x).expect("create");
        fs.reserve(64).expect("reserve");
        fs.truncate(0).expect("truncate");
        let named = dir.join("seg-00000002.camplog");
        fs.rename(&x, &named).expect("rename");
        let spare = dir.join("spare-00000002.camplog");
        fs.create(&x).expect("create");
        assert!(fs.retire(&named, &spare).expect("retire"));
        fs.recycle(&spare, &dir.join("seg-00000003.camplog.tmp"))
            .expect("recycle");
        let calls = [
            Call::Create,
            Call::Append,
            Call::Sync,
            Call::Remove,
            Call::Reserve,
        ];
        let counts = calls.map(|call| disk.calls(call));
        assert_eq!(counts, [4, 101, 1, 1, 1]);
        let calls = [Call::Truncate, Call::Rename, Call::Retire, Call::Recycle];
        assert_eq!(calls.map(|call| disk.calls(call)), [1; 4]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_fs_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("camp-persist-io-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("seg-test.camplog.tmp");
        // `create` starts an empty file, whatever was under the name.
        fs::write(&path, b"an earlier attempt").expect("write");
        let mut backend = RealFs::new();
        backend.create(&path).expect("create");
        assert_eq!(fs::read(&path).expect("read"), b"");
        backend.append(b"hello ").expect("append");
        backend.sync().expect("sync");
        // A rename keeps the file active: the next append lands after it.
        let renamed = dir.join("seg-renamed.camplog");
        backend.rename(&path, &renamed).expect("rename");
        assert!(!path.exists());
        let path = renamed;
        backend.append(b"world").expect("append");
        backend.sync().expect("sync");
        assert_eq!(fs::read(&path).expect("read"), b"hello world");
        backend.truncate(5).expect("truncate");
        assert_eq!(fs::read(&path).expect("read"), b"hello");
        backend.remove(&path).expect("remove");
        assert!(!path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_fs_appends_overwrite_the_runway_they_reserved() {
        let dir = std::env::temp_dir().join(format!("camp-persist-rsv-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("seg-test.camplog.tmp");
        let mut backend = RealFs::new();
        backend.create(&path).expect("create");
        assert_eq!(backend.reserve(100_000).expect("reserve"), 100_000);
        assert_eq!(fs::read(&path).expect("read"), vec![0u8; 100_000]);
        backend.append(b"hello ").expect("append");
        backend.append(b"world").expect("append");
        let bytes = fs::read(&path).expect("read");
        assert_eq!(bytes.len(), 100_000, "written in place, not at the end");
        assert_eq!(&bytes[..11], b"hello world");
        assert!(bytes[11..].iter().all(|&b| b == 0));
        // More runway starts where the last one ended...
        assert_eq!(backend.reserve(50).expect("reserve"), 100_050);
        // ...a repair takes it all away, and appends resume at the cut...
        backend.truncate(6).expect("truncate");
        backend.append(b"there").expect("append");
        assert_eq!(fs::read(&path).expect("read"), b"hello there");
        // ...and a reserve after plain growth starts at the records' end.
        assert_eq!(backend.reserve(4).expect("reserve"), 15);
        assert_eq!(fs::read(&path).expect("read"), b"hello there\0\0\0\0");
        fs::remove_dir_all(&dir).ok();
    }
}
