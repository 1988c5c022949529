//! Crash-recovery harness: SIGKILL a real `camp-kvsd` process mid-write,
//! restart it on the same `--data-dir`, and check that what it serves is a
//! *prefix-consistent*, never-corrupt view of what was acknowledged.
//!
//! The main test runs 25 seeded rounds. Each round boots the daemon
//! out-of-process (so the kill is a genuine `SIGKILL`, not an in-process
//! shortcut), verifies the recovered state against the ledger of every
//! write ever sent, then hammers sets from three writer threads — disjoint
//! key ranges, eight pipelined sets per round trip, so `--fsync always`
//! forms commit groups across connections and workers — until the main
//! thread kills the process at a seeded random point, which can land in
//! the middle of a disk write, leaving a torn tail for the next boot to
//! truncate. A write counts as acknowledged only once its `STORED` line
//! has been read. Rounds alternate `--fsync always` and `--fsync interval`:
//!
//! * a value served after recovery must byte-match `v-<key>-<seq>` for a
//!   sequence number that was actually sent (no corruption, no invented
//!   data, no reordering past the newest write);
//! * a write acknowledged under `--fsync always` must never disappear,
//!   even many rounds (and compactions) later;
//! * under `--fsync interval`, missing recent writes are bounded loss and
//!   allowed — serving a *stale* acknowledged value is fine, serving a
//!   *mangled* one never is.
//!
//! The small segment size (64 KiB) forces many rotations and several
//! compaction snapshots over the run, so crash-during-compaction is
//! exercised too, not just crash-during-append.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use camp_core::rng::Rng64;
use camp_core::Precision;
use camp_kvs::client::Client;
use camp_kvs::persist::{FsyncMode, PersistOptions};
use camp_kvs::server::{Server, ServerOptions};
use camp_kvs::slab::SlabConfig;
use camp_kvs::store::{EvictionMode, StoreConfig};

/// SIGKILL rounds (each one verified by the next boot's recovery).
const ROUNDS: usize = 25;
/// Concurrent writer connections, each on its own key range.
const WRITERS: u64 = 3;
/// Distinct keys each writer cycles through.
const KEYS_PER_WRITER: u64 = 21;
/// Distinct keys overall.
const KEYS: u64 = WRITERS * KEYS_PER_WRITER;
/// Sets each writer pipelines per round trip.
const PIPELINE: u64 = 8;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "camp-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir).expect("create temp data dir");
    dir
}

fn key_name(k: u64) -> String {
    format!("key{k:03}")
}

fn value_for(k: u64, seq: u64) -> String {
    format!("v-{}-{seq:08}", key_name(k))
}

/// A spawned `camp-kvsd` child and the address its ready banner reported.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// SIGKILLs the daemon (`Child::kill` is SIGKILL on Unix) and reaps it.
    fn sigkill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boots the real daemon binary against `data_dir` and blocks until its
/// `camp_kvsd_ready` banner names the bound address. A daemon that dies
/// during recovery (panic, corrupt-log crash) fails the test here.
fn spawn_daemon(data_dir: &Path, fsync: &str) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_camp-kvsd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
            "--fsync",
            fsync,
            "--segment-bytes",
            "65536",
            "--log-level",
            "info",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn camp-kvsd");
    let stderr = child.stderr.take().expect("child stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let mut addr = None;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read daemon stderr");
        if n == 0 {
            break; // EOF: the daemon died before becoming ready.
        }
        if line.contains("event=camp_kvsd_ready") {
            addr = line
                .split_whitespace()
                .find_map(|token| token.strip_prefix("addr="))
                .map(str::to_owned);
            break;
        }
    }
    // Drain the remaining stderr so the daemon never blocks on the pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    let addr = addr.unwrap_or_else(|| {
        let _ = child.kill();
        let _ = child.wait();
        panic!("camp-kvsd exited without a ready banner (recovery crash?)");
    });
    Daemon { child, addr }
}

/// A raw text-protocol connection: no retries, no reconnects, so an `Ok`
/// from `set` means the server itself acknowledged the write.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn dial(addr: &str) -> io::Result<Wire> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(Wire {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
    })
}

impl Wire {
    fn read_line(&mut self, line: &mut Vec<u8>) -> io::Result<()> {
        line.clear();
        if self.reader.read_until(b'\n', line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            line.pop();
        }
        Ok(())
    }

    /// Reads one storage reply; `Ok(true)` is an ack.
    fn read_stored(&mut self) -> io::Result<bool> {
        let mut line = Vec::new();
        self.read_line(&mut line)?;
        Ok(line == b"STORED")
    }

    /// Fetches one key with a strict parse: anything other than a clean
    /// miss or a well-formed single-value reply panics (corruption).
    fn get_strict(&mut self, key: &str) -> io::Result<Option<Vec<u8>>> {
        let mut request = Vec::new();
        write!(request, "get {key}\r\n")?;
        self.writer.write_all(&request)?;
        let mut line = Vec::new();
        self.read_line(&mut line)?;
        if line == b"END" {
            return Ok(None);
        }
        let header = String::from_utf8(line.clone()).expect("utf-8 VALUE header");
        let tokens: Vec<&str> = header.split(' ').collect();
        assert_eq!(tokens.len(), 4, "malformed VALUE header: {header:?}");
        assert_eq!(tokens[0], "VALUE", "malformed reply: {header:?}");
        assert_eq!(tokens[1], key, "reply names the wrong key: {header:?}");
        let len: usize = tokens[3].parse().expect("numeric VALUE length");
        let mut data = vec![0u8; len + 2];
        self.reader.read_exact(&mut data)?;
        assert_eq!(&data[len..], b"\r\n", "data block not CRLF-terminated");
        data.truncate(len);
        self.read_line(&mut line)?;
        assert_eq!(line, b"END", "VALUE block not closed by END");
        Ok(Some(data))
    }
}

/// The test's ledger of what has ever been sent to (and acked by) the
/// daemon, across all rounds.
#[derive(Default)]
struct Ledger {
    /// Highest sequence number ever *sent* per key (acked or not).
    max_sent: BTreeMap<u64, u64>,
    /// Highest sequence number known *durable* per key: acked under
    /// `--fsync always`, or observed surviving a recovery.
    durable: BTreeMap<u64, u64>,
}

/// Per-round counters a writer thread fills in while it hammers sets.
#[derive(Default)]
struct RoundLog {
    sent: BTreeMap<u64, u64>,
    acked: BTreeMap<u64, u64>,
}

/// One writer: streams batches of `PIPELINE` sets over its own key range
/// (`writer * KEYS_PER_WRITER ..`) until the socket dies under it. A
/// sequence number is logged as sent before its batch leaves, and as
/// acked only when its own `STORED` line has been read.
fn hammer_sets(addr: &str, writer: u64, first_seq: u64) -> RoundLog {
    let mut log = RoundLog::default();
    let Ok(mut wire) = dial(addr) else {
        return log;
    };
    let mut seq = first_seq;
    let mut request = Vec::new();
    let mut batch = Vec::new();
    loop {
        request.clear();
        batch.clear();
        for _ in 0..PIPELINE {
            let k = writer * KEYS_PER_WRITER + seq % KEYS_PER_WRITER;
            let value = value_for(k, seq);
            write!(
                request,
                "set {} 0 0 {}\r\n{value}\r\n",
                key_name(k),
                value.len()
            )
            .expect("write to a Vec");
            log.sent.insert(k, seq);
            batch.push((k, seq));
            seq += 1;
        }
        if wire.writer.write_all(&request).is_err() {
            return log; // the SIGKILL landed
        }
        for &(k, seq) in &batch {
            match wire.read_stored() {
                Ok(true) => {
                    log.acked.insert(k, seq);
                }
                Ok(false) => {} // e.g. rejected under memory pressure
                Err(_) => return log,
            }
        }
    }
}

/// Reads back every key and checks it against the ledger. Returns how
/// many keys were present.
fn verify_recovery(addr: &str, ledger: &mut Ledger, round: usize) -> usize {
    let mut wire = dial(addr).expect("dial recovered daemon");
    let mut present = 0usize;
    for k in 0..KEYS {
        let got = wire
            .get_strict(&key_name(k))
            .expect("read from recovered daemon");
        let max_sent = ledger.max_sent.get(&k).copied().unwrap_or(0);
        let durable = ledger.durable.get(&k).copied().unwrap_or(0);
        match got {
            Some(data) => {
                present += 1;
                let text = String::from_utf8(data).unwrap_or_else(|_| {
                    panic!("round {round}: key {k} recovered non-utf8 garbage")
                });
                let prefix = format!("v-{}-", key_name(k));
                let seq: u64 = text
                    .strip_prefix(&prefix)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        panic!("round {round}: key {k} recovered corrupt value {text:?}")
                    });
                assert_eq!(
                    text,
                    value_for(k, seq),
                    "round {round}: key {k} value does not round-trip"
                );
                assert!(
                    seq <= max_sent,
                    "round {round}: key {k} recovered seq {seq} was never sent \
                     (max sent {max_sent})"
                );
                assert!(
                    seq >= durable,
                    "round {round}: key {k} lost a durable write: recovered seq \
                     {seq} < durable floor {durable}"
                );
                // Whatever recovery served is back in the on-disk log.
                ledger.durable.insert(k, seq);
            }
            None => {
                assert_eq!(
                    durable, 0,
                    "round {round}: key {k} vanished despite a durable write at \
                     seq {durable}"
                );
            }
        }
    }
    present
}

/// 25 rounds of boot → verify recovery → write under load → SIGKILL,
/// alternating fsync modes, plus one final verifying boot.
#[test]
fn sigkill_rounds_recover_prefix_consistent_state() {
    let dir = temp_dir("sigkill");
    let mut rng = Rng64::seed_from_u64(0xC4A5_0CC1);
    let mut ledger = Ledger::default();
    let mut next_seq = 1u64;

    for round in 0..ROUNDS {
        let always = round % 2 == 0;
        let fsync = if always { "always" } else { "interval" };
        let daemon = spawn_daemon(&dir, fsync);
        verify_recovery(&daemon.addr, &mut ledger, round);

        // Writer threads: stream sets until the socket dies under them.
        // The round logs ride back through the join handles — the main
        // thread only reads them after `join()`, so no lock is needed.
        let first_seq = next_seq;
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let addr = daemon.addr.clone();
                std::thread::spawn(move || hammer_sets(&addr, writer, first_seq))
            })
            .collect();

        // Let the writers run for a seeded slice, then pull the plug.
        std::thread::sleep(Duration::from_millis(rng.range_u64(30, 220)));
        daemon.sigkill();
        for writer in writers {
            let log = writer.join().expect("writer thread");
            for (&k, &seq) in &log.sent {
                let entry = ledger.max_sent.entry(k).or_insert(0);
                *entry = (*entry).max(seq);
                next_seq = next_seq.max(seq + 1);
            }
            if always {
                for (&k, &seq) in &log.acked {
                    let entry = ledger.durable.entry(k).or_insert(0);
                    *entry = (*entry).max(seq);
                }
            }
        }
    }

    // One last boot to verify the final kill's recovery, then clean up.
    let daemon = spawn_daemon(&dir, "always");
    let present = verify_recovery(&daemon.addr, &mut ledger, ROUNDS);
    assert!(
        present > 0,
        "after {ROUNDS} rounds of writes, recovery served nothing at all"
    );
    daemon.sigkill();
    std::fs::remove_dir_all(&dir).ok();
}

/// In-process warm restart: a sealed shutdown followed by a boot on the
/// same data dir serves the same values and flags over the wire.
#[test]
fn warm_restart_preserves_values_and_flags_end_to_end() {
    let dir = temp_dir("warm");
    let options = || {
        let mut options = ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(64 * 1024, 16),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        options.persist = Some(PersistOptions::new(&dir));
        options
    };

    let server = Server::start_with("127.0.0.1:0", options()).expect("cold boot");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..50u32 {
        let key = format!("wk-{i:04}");
        let value = format!("wv-{i:04}");
        assert!(client.set(key.as_bytes(), value.as_bytes(), i, 0).unwrap());
    }
    // Drop a key too: the delete must also survive the restart.
    assert!(client.delete(b"wk-0007").unwrap());
    client.quit().unwrap();
    server.shutdown(); // seals the log

    let server = Server::start_with("127.0.0.1:0", options()).expect("warm boot");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    for i in 0..50u32 {
        let key = format!("wk-{i:04}");
        let got = client.get(key.as_bytes()).unwrap();
        if i == 7 {
            assert!(got.is_none(), "deleted key resurrected by recovery");
            continue;
        }
        let value = got.expect("value survived the restart");
        assert_eq!(value.data, format!("wv-{i:04}").as_bytes());
        assert_eq!(value.flags, i, "flags survived the restart");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats["curr_items"], "49");
    client.quit().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Under `--fsync always` the reactor shares one sync among a pipelined
/// batch: it commits once per wakeup, before the replies leave.
#[test]
fn the_reactor_shares_syncs_among_a_pipelined_batch() {
    let dir = temp_dir("group-commit");
    let mut options = ServerOptions::new(StoreConfig {
        slab: SlabConfig::small(64 * 1024, 16),
        eviction: EvictionMode::Camp(Precision::Bits(5)),
    });
    options.persist = Some(PersistOptions {
        fsync: FsyncMode::Always,
        ..PersistOptions::new(&dir)
    });
    let server = Server::start_with("127.0.0.1:0", options).expect("boot");
    // 8 round trips of 8 pipelined sets: far below one 64 MiB segment.
    let mut wire = dial(&server.local_addr().to_string()).expect("dial");
    for round in 0..8u64 {
        let mut request = Vec::new();
        for i in 0..PIPELINE {
            write!(request, "set k{i} 0 0 2\r\nv{round}\r\n").expect("write to a Vec");
        }
        wire.writer.write_all(&request).expect("send batch");
        for _ in 0..PIPELINE {
            assert!(wire.read_stored().expect("reply"));
        }
    }
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let detail = client.stats_detail().expect("stats detail");
    client.quit().expect("quit");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let stat = |name: &str| -> u64 { detail[name].parse().expect("numeric stat") };
    assert_eq!(stat("persist:errors"), 0);
    let (fsyncs, records) = (stat("persist:fsyncs"), stat("persist:records"));
    assert_eq!(records, 8 * PIPELINE);
    assert!(
        fsyncs < records / 2,
        "reactor must share syncs: {fsyncs} fsyncs for {records} records"
    );
}

/// In every `--fsync` mode the reactor's barrier hands a wakeup's records
/// to the kernel before it lets their replies go: once a `STORED` has been
/// read, a SIGKILL cannot lose the write, because the segment file already
/// holds it (read here through the page cache, with the server still up
/// and no sync ever asked for).
#[test]
fn no_reply_precedes_its_records_write_in_any_fsync_mode() {
    for fsync in [FsyncMode::Never, FsyncMode::Interval, FsyncMode::Always] {
        let dir = temp_dir("write-barrier");
        let mut options = ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(64 * 1024, 16),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        options.persist = Some(PersistOptions {
            fsync,
            // No background tick inside the test's lifetime.
            fsync_interval: Duration::from_secs(3600),
            ..PersistOptions::new(&dir)
        });
        let server = Server::start_with("127.0.0.1:0", options).expect("boot");
        let mut wire = dial(&server.local_addr().to_string()).expect("dial");
        for round in 0..8u64 {
            let mut request = Vec::new();
            for i in 0..PIPELINE {
                write!(request, "set k{i} 0 0 2\r\nv{round}\r\n").expect("write to a Vec");
            }
            wire.writer.write_all(&request).expect("send batch");
            for _ in 0..PIPELINE {
                assert!(wire.read_stored().expect("reply"));
            }
            let segment = std::fs::read(dir.join("seg-00000000.camplog")).expect("read segment");
            let scan = camp_kvs::persist::record::scan(&segment, |_| {});
            assert_eq!(
                (scan.applied, scan.quarantined, scan.torn_bytes),
                ((round + 1) * PIPELINE, 0, 0),
                "--fsync {fsync}: acknowledged sets missing from the file"
            );
        }
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let detail = client.stats_detail().expect("stats detail");
        client.quit().expect("quit");
        let stat = |name: &str| -> u64 { detail[name].parse().expect("numeric stat") };
        assert_eq!(stat("persist:records"), 8 * PIPELINE);
        assert!(
            stat("persist:writes") < 8 * PIPELINE / 2,
            "--fsync {fsync}: {} writes for 64 records",
            stat("persist:writes")
        );
        if fsync != FsyncMode::Always {
            assert_eq!(stat("persist:fsyncs"), 0, "--fsync {fsync}");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
