//! The load client: one thread, two connections, every reply verified.
//!
//! Both sockets are non-blocking and the thread polls them in turn,
//! spinning when neither has anything (it has a core to itself; see
//! `bench/README.md` on pinning). A client that slept in `read` would
//! add the hypervisor's wake-up latency to every batch turnaround and
//! leave the server idle for it, and throughput would then measure the
//! host's scheduler. The closed loop keeps `pipeline` commands in flight
//! per connection as one batch. The open loop issues on a fixed schedule
//! whatever the server does and times each read from the moment it was
//! *due* — a stall is charged to every request scheduled during it, not
//! only to the one that happened to be in flight.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::spec::{push_key, Generator, Kind, Op, Pattern, Request, Spec, CONNECTIONS};

/// After an open-loop phase ends, how long outstanding replies may take
/// before they count as failed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Free receive-buffer space guaranteed before each `read`.
const READ_CHUNK: usize = 64 * 1024;

/// Bytes of the version stamp that leads every durable-set value.
const VERSION_LEN: usize = 8;

/// One reply at the head of a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `VALUE <key> <flags> <len>\r\n<data>\r\nEND\r\n`; the ranges index
    /// the buffer that was parsed.
    Hit {
        key: std::ops::Range<usize>,
        value: std::ops::Range<usize>,
    },
    /// `END\r\n` alone.
    Miss,
    Stored,
    /// Any other complete line (`SERVER_ERROR ...`, `NOT_STORED`, ...).
    Other(String),
}

/// Parses the reply to a read (`get`/`iqget`) or a write at the head of
/// `buf`. `Ok(None)` means more bytes are needed; `Err` means the stream
/// no longer frames as the protocol.
pub fn parse_reply(buf: &[u8], read: bool) -> Result<Option<(usize, Reply)>, String> {
    const END: &[u8] = b"END\r\n";
    const VALUE: &[u8] = b"VALUE ";
    let line_end = buf.windows(2).position(|w| w == b"\r\n");
    if read && buf.starts_with(VALUE) {
        let Some(line_end) = line_end else {
            return Ok(None);
        };
        let header = &buf[VALUE.len()..line_end];
        let mut tokens = header.split(|&b| b == b' ');
        let key_len = tokens.next().map_or(0, <[u8]>::len);
        let len: usize = tokens
            .nth(1)
            .and_then(|t| std::str::from_utf8(t).ok())
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad VALUE header {:?}", String::from_utf8_lossy(header)))?;
        let value_start = line_end + 2;
        let total = value_start + len + 2 + END.len();
        if buf.len() < total {
            return Ok(None);
        }
        if &buf[value_start + len..total] != b"\r\nEND\r\n" {
            return Err("VALUE block not followed by END".to_owned());
        }
        let key = VALUE.len()..VALUE.len() + key_len;
        return Ok(Some((
            total,
            Reply::Hit {
                key,
                value: value_start..value_start + len,
            },
        )));
    }
    let Some(line_end) = line_end else {
        // No complete line yet. Replies are short unless they are VALUE
        // blocks, so a long unterminated line is a desynchronised stream.
        return if buf.len() > 512 {
            Err("unterminated reply line".to_owned())
        } else {
            Ok(None)
        };
    };
    let line = &buf[..line_end];
    let reply = if read && line == b"END" {
        Reply::Miss
    } else if !read && line == b"STORED" {
        Reply::Stored
    } else {
        Reply::Other(String::from_utf8_lossy(line).into_owned())
    };
    Ok(Some((line_end + 2, reply)))
}

/// A command on the wire whose reply has not been parsed yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    request: Request,
    /// Durable-set: the newest version a read may return (a write: the
    /// version written). 0 elsewhere.
    version: u64,
    /// Durable-set: the oldest version a read may return.
    floor: u64,
    /// When the command was due (open-loop reads) or issued, in ns since
    /// the client's epoch.
    since: u64,
    /// First reference to the key by this client: excluded from ratios.
    cold: bool,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Received bytes not yet settled are `inbuf[in_pos..in_len]`.
    inbuf: Vec<u8>,
    in_pos: usize,
    in_len: usize,
    pending: VecDeque<Pending>,
    /// Read-through `iqset`s owed for misses seen on this connection;
    /// the closed loop sends them at the head of the next batch.
    owed: Vec<Request>,
}

/// What one slice of a phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Commands completed, and how many of them inside `elapsed` (the
    /// rest landed while the pipeline drained afterwards).
    pub completed: u64,
    pub completed_in_time: u64,
    pub elapsed: Duration,
    /// Closed loop: time the client spent on iterations that moved bytes
    /// (as opposed to polling idle sockets).
    pub busy: Duration,
    pub reads: u64,
    /// Non-cold reads and their traced costs (the paper's denominators).
    pub counted_hits: u64,
    pub counted_misses: u64,
    pub counted_cost: u64,
    pub missed_cost: u64,
    /// Key plus value bytes of acknowledged writes.
    pub write_payload_bytes: u64,
    /// Open loop: reads from due time, writes from issue time (ns).
    pub read_latency: Vec<u64>,
    pub write_latency: Vec<u64>,
    /// Open loop: how late each request was issued (ns), the most
    /// commands outstanding at once, and how many still were when the
    /// schedule ended.
    pub send_lag: Vec<u64>,
    pub backlog_max: u64,
    pub backlog_end: u64,
}

impl Phase {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    pub fn miss_ratio(&self) -> f64 {
        ratio(self.counted_misses, self.counted_hits + self.counted_misses)
    }

    pub fn cost_miss_ratio(&self) -> f64 {
        ratio(self.missed_cost, self.counted_cost)
    }

    /// Adds `other`'s counters (not its latency samples) to this one.
    pub fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&other.first_error);
        }
        self.completed += other.completed;
        self.completed_in_time += other.completed_in_time;
        self.elapsed += other.elapsed;
        self.busy += other.busy;
        self.reads += other.reads;
        self.counted_hits += other.counted_hits;
        self.counted_misses += other.counted_misses;
        self.counted_cost += other.counted_cost;
        self.missed_cost += other.missed_cost;
        self.write_payload_bytes += other.write_payload_bytes;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// When a closed loop stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    /// This many generated (logical) requests.
    Requests(u64),
}

#[derive(Debug)]
pub struct Client {
    spec: Spec,
    conns: Vec<Conn>,
    generator: Generator,
    pattern: Pattern,
    epoch: Instant,
    seen: Vec<bool>,
    /// Durable-set: newest version issued / acknowledged per key.
    issued: Vec<u64>,
    acked: Vec<u64>,
    spin: bool,
}

impl Client {
    pub fn connect(addr: SocketAddr, spec: &Spec, seed: u64) -> io::Result<Client> {
        let conns = (0..CONNECTIONS)
            .map(|_| {
                Ok(Conn {
                    stream: open_stream(addr)?,
                    out: Vec::new(),
                    out_pos: 0,
                    inbuf: vec![0; 4 * READ_CHUNK],
                    in_pos: 0,
                    in_len: 0,
                    pending: VecDeque::new(),
                    owed: Vec::new(),
                })
            })
            .collect::<io::Result<Vec<Conn>>>()?;
        let keys = spec.key_space() as usize;
        let versions = if spec.durable() { keys } else { 0 };
        Ok(Client {
            spec: *spec,
            conns,
            generator: Generator::new(spec, seed),
            pattern: Pattern::new(64 * 1024),
            epoch: Instant::now(),
            seen: vec![false; keys],
            issued: vec![0; versions],
            acked: vec![0; versions],
            spin: crate::proc::client_pinned(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The value bytes of `key` at `version`, appended to `out`.
    fn push_value(&self, out: &mut Vec<u8>, key: u64, version: u64, len: usize) {
        if self.spec.durable() {
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(self.pattern.value(key, version, len - VERSION_LEN));
        } else {
            out.extend_from_slice(self.pattern.value(key, 0, len));
        }
    }

    /// Encodes `request` onto connection `c` and queues its reply slot.
    fn issue(&mut self, c: usize, request: Request, since: u64, phase: &mut Phase) {
        let key = request.key as usize;
        let mut out = std::mem::take(&mut self.conns[c].out);
        let (mut version, mut floor, mut cold) = (0, 0, false);
        match request.op {
            Op::Get | Op::IqGet => {
                out.extend_from_slice(if request.op == Op::Get {
                    b"get "
                } else {
                    b"iqget "
                });
                push_key(&mut out, request.key);
                out.extend_from_slice(b"\r\n");
                cold = !std::mem::replace(&mut self.seen[key], true);
                if self.spec.durable() {
                    version = self.issued[key];
                    floor = version;
                }
            }
            Op::Set | Op::IqSet => {
                if self.spec.durable() {
                    self.issued[key] += 1;
                    version = self.issued[key];
                }
                out.extend_from_slice(if request.op == Op::Set {
                    b"set "
                } else {
                    b"iqset "
                });
                push_key(&mut out, request.key);
                out.extend_from_slice(b" 0 0 ");
                camp_kvs::resp::push_u64(&mut out, u64::from(request.value_len));
                if request.op == Op::IqSet {
                    out.push(b' ');
                    camp_kvs::resp::push_u64(&mut out, request.cost);
                }
                out.extend_from_slice(b"\r\n");
                self.push_value(&mut out, request.key, version, request.value_len as usize);
                out.extend_from_slice(b"\r\n");
            }
        }
        phase.attempted += 1;
        let conn = &mut self.conns[c];
        conn.out = out;
        conn.pending.push_back(Pending {
            request,
            version,
            floor,
            since,
            cold,
        });
    }

    /// Writes what the socket accepts of connection `c`'s output.
    fn flush(&mut self, c: usize) -> io::Result<()> {
        let conn = &mut self.conns[c];
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        Ok(())
    }

    /// Reads once from connection `c`; 0 means nothing was there.
    fn fill(&mut self, c: usize) -> io::Result<usize> {
        let conn = &mut self.conns[c];
        if conn.in_pos == conn.in_len {
            conn.in_pos = 0;
            conn.in_len = 0;
        }
        if conn.inbuf.len() - conn.in_len < READ_CHUNK {
            conn.inbuf.copy_within(conn.in_pos..conn.in_len, 0);
            conn.in_len -= conn.in_pos;
            conn.in_pos = 0;
            if conn.inbuf.len() - conn.in_len < READ_CHUNK {
                // One reply larger than the buffer: double it.
                conn.inbuf.resize(2 * conn.inbuf.len(), 0);
            }
        }
        loop {
            match conn.stream.read(&mut conn.inbuf[conn.in_len..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    conn.in_len += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Matches buffered replies on connection `c` to their commands,
    /// verifies them and tallies them at time `now`. A miss on a `Bg`
    /// stream owes a read-through `iqset`; with `open` it is issued at
    /// once, otherwise it waits for the next closed-loop batch.
    fn settle(&mut self, c: usize, now: u64, open: bool, phase: &mut Phase) -> io::Result<()> {
        while let Some(&pending) = self.conns[c].pending.front() {
            let conn = &self.conns[c];
            let buf = &conn.inbuf[conn.in_pos..conn.in_len];
            let read = pending.request.op.is_read();
            let Some((consumed, reply)) = parse_reply(buf, read).map_err(io::Error::other)? else {
                break;
            };
            let latency = now.saturating_sub(pending.since);
            let request = pending.request;
            match reply {
                Reply::Hit { key, value } => {
                    if let Err(what) = self.verify_hit(&pending, &buf[key], &buf[value]) {
                        phase.fail(what);
                    }
                    phase.reads += 1;
                    if !pending.cold {
                        phase.counted_hits += 1;
                        phase.counted_cost += request.cost;
                    }
                    phase.read_latency.push(latency);
                }
                Reply::Miss => {
                    phase.reads += 1;
                    if !pending.cold {
                        phase.counted_misses += 1;
                        phase.counted_cost += request.cost;
                        phase.missed_cost += request.cost;
                    }
                    phase.read_latency.push(latency);
                    if matches!(self.spec.kind, Kind::Bg { .. }) {
                        self.conns[c].owed.push(Request {
                            op: Op::IqSet,
                            ..request
                        });
                    } else {
                        phase.fail(format!("resident key k{} missed", request.key));
                    }
                }
                Reply::Stored => {
                    phase.write_payload_bytes +=
                        u64::from(request.value_len) + key_len(request.key);
                    if self.spec.durable() {
                        self.acked[request.key as usize] = pending.version;
                    }
                    phase.write_latency.push(latency);
                }
                Reply::Other(line) => {
                    phase.fail(format!("{:?} k{}: {line}", request.op, request.key));
                }
            }
            phase.completed += 1;
            let conn = &mut self.conns[c];
            conn.in_pos += consumed;
            conn.pending.pop_front();
        }
        if open {
            for request in std::mem::take(&mut self.conns[c].owed) {
                self.issue(c, request, now, phase);
            }
        }
        Ok(())
    }

    fn verify_hit(&self, pending: &Pending, key: &[u8], value: &[u8]) -> Result<(), String> {
        let request = pending.request;
        if !is_wire_key(key, request.key) {
            return Err(format!(
                "asked k{}, got {:?}",
                request.key,
                String::from_utf8_lossy(key)
            ));
        }
        if value.len() != request.value_len as usize {
            return Err(format!(
                "k{}: {} bytes, expected {}",
                request.key,
                value.len(),
                request.value_len
            ));
        }
        let (version, body) = if self.spec.durable() {
            let (stamp, body) = value.split_at(VERSION_LEN);
            let version = u64::from_le_bytes(stamp.try_into().expect("split at VERSION_LEN"));
            if !(pending.floor..=pending.version).contains(&version) {
                return Err(format!(
                    "k{}: version {version}, expected {}..={}",
                    request.key, pending.floor, pending.version
                ));
            }
            (version, body)
        } else {
            (0, value)
        };
        if body != self.pattern.value(request.key, version, body.len()) {
            return Err(format!("k{}: wrong value bytes", request.key));
        }
        Ok(())
    }

    /// Nothing to do until a socket has bytes: burn the core that is this
    /// thread's alone, or give a shared one away.
    fn idle(&self) {
        if self.spin {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Flushes, reads and settles connection `c` once. Returns whether
    /// any reply bytes arrived.
    fn pump(&mut self, c: usize, open: bool, phase: &mut Phase) -> io::Result<bool> {
        self.flush(c)?;
        if self.conns[c].pending.is_empty() || self.fill(c)? == 0 {
            return Ok(false);
        }
        let now = self.now();
        self.settle(c, now, open, phase)?;
        self.flush(c)?;
        Ok(true)
    }

    /// Polls until every reply owed to any connection has been settled.
    fn drain(&mut self, phase: &mut Phase) -> io::Result<()> {
        while self.conns.iter().any(|conn| !conn.pending.is_empty()) {
            let mut progressed = false;
            for c in 0..self.conns.len() {
                progressed |= self.pump(c, false, phase)?;
            }
            if !progressed {
                self.idle();
            }
        }
        Ok(())
    }

    /// Closed loop: each connection sends a batch of `pipeline` commands
    /// (owed read-through sets first, then new requests), and sends the
    /// next only when every reply of the last has arrived.
    pub fn closed_loop(&mut self, until: Until) -> io::Result<Phase> {
        let mut phase = Phase::default();
        let start = self.now();
        let mut generated = 0u64;
        let mut busy = 0u64;
        loop {
            let began = self.now();
            let done = match until {
                Until::Elapsed(limit) => began - start >= limit.as_nanos() as u64,
                Until::Requests(limit) => generated >= limit,
            };
            if done {
                break;
            }
            let mut progressed = false;
            for c in 0..self.conns.len() {
                progressed |= self.pump(c, false, &mut phase)?;
                if !self.conns[c].pending.is_empty() {
                    continue;
                }
                let mut room = self.spec.pipeline;
                for request in std::mem::take(&mut self.conns[c].owed) {
                    self.issue(c, request, began, &mut phase);
                    room = room.saturating_sub(1);
                }
                for _ in 0..room {
                    let request = self.generator.next(c);
                    generated += 1;
                    self.issue(c, request, began, &mut phase);
                }
                self.flush(c)?;
                progressed = true;
            }
            if progressed {
                busy += self.now() - began;
            } else {
                self.idle();
            }
        }
        phase.elapsed = Duration::from_nanos(self.now() - start);
        phase.busy = Duration::from_nanos(busy);
        phase.completed_in_time = phase.completed;
        // Let the batches in flight land, and pay what is still owed,
        // outside the timed interval.
        self.drain(&mut phase)?;
        for c in 0..self.conns.len() {
            for request in std::mem::take(&mut self.conns[c].owed) {
                self.issue(c, request, start, &mut phase);
            }
        }
        self.drain(&mut phase)?;
        Ok(phase)
    }

    /// Issues `op` once for every key of a resident workload, 64 at a
    /// time, on the connection that owns the key. `relaxed` reads accept
    /// any version from the last acknowledged one on.
    fn sweep(&mut self, op: Op, relaxed: bool) -> io::Result<Phase> {
        let Kind::Uniform {
            keys, value_len, ..
        } = self.spec.kind
        else {
            unreachable!("only resident workloads are swept");
        };
        let mut phase = Phase::default();
        let start = self.now();
        for chunk_start in (0..keys).step_by(64) {
            for key in chunk_start..(chunk_start + 64).min(keys) {
                let c = key as usize % CONNECTIONS;
                let request = Request {
                    op,
                    key,
                    value_len,
                    cost: 1,
                };
                self.issue(c, request, start, &mut phase);
                if relaxed {
                    let slot = self.conns[c].pending.back_mut().expect("just issued");
                    slot.floor = self.acked[key as usize];
                }
            }
            self.drain(&mut phase)?;
        }
        Ok(phase)
    }

    /// Stores every key of a resident workload once.
    pub fn prefill(&mut self) -> io::Result<Phase> {
        self.sweep(Op::Set, false)
    }

    /// Open loop: logical request `i` is due at `i / rate` seconds and is
    /// issued then, whatever is still outstanding.
    pub fn open_loop(&mut self, duration: Duration, rate: u64) -> io::Result<Phase> {
        let mut phase = Phase::default();
        let start = self.now();
        let end = start + duration.as_nanos() as u64;
        let mut issued = 0u64;
        let due_of = |i: u64| start + (u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64;
        let mut next_due = start;
        let mut ended = false;
        loop {
            let now = self.now();
            let outstanding: usize = self.conns.iter().map(|c| c.pending.len()).sum();
            if now >= end {
                if !ended {
                    phase.backlog_end = outstanding as u64;
                    ended = true;
                }
                if outstanding == 0 {
                    break;
                }
                if now >= end + DRAIN_GRACE.as_nanos() as u64 {
                    phase.failed += outstanding as u64;
                    phase
                        .first_error
                        .get_or_insert(format!("{outstanding} replies never arrived"));
                    break;
                }
            }
            while next_due <= now && next_due < end {
                let c = (issued % CONNECTIONS as u64) as usize;
                let request = self.generator.next(c);
                phase.send_lag.push(now - next_due);
                // Writes have no due time of their own in the metric
                // definitions: they are timed from issue.
                let since = if request.op.is_read() { next_due } else { now };
                self.issue(c, request, since, &mut phase);
                issued += 1;
                next_due = due_of(issued);
            }
            let mut progressed = false;
            for c in 0..self.conns.len() {
                progressed |= self.pump(c, true, &mut phase)?;
            }
            if now < end {
                phase.backlog_max = phase.backlog_max.max(outstanding as u64);
            }
            if !progressed {
                self.idle();
            }
        }
        phase.elapsed = duration;
        phase.completed_in_time = phase.completed;
        Ok(phase)
    }

    /// Durable-set, against a restarted server: every key must read back
    /// at a version no older than its last acknowledged write.
    pub fn read_back(&mut self, addr: SocketAddr) -> io::Result<Phase> {
        for conn in &mut self.conns {
            conn.stream = open_stream(addr)?;
            conn.out.clear();
            conn.out_pos = 0;
            conn.in_pos = 0;
            conn.in_len = 0;
            // Replies the killed server never sent are not failures of
            // this phase; their writes show up below as version ranges.
            conn.pending.clear();
            conn.owed.clear();
        }
        self.sweep(Op::Get, true)
    }
}

fn open_stream(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Whether `wire` is exactly `k<key>`.
fn is_wire_key(wire: &[u8], key: u64) -> bool {
    wire.len() as u64 == key_len(key)
        && wire
            .strip_prefix(b"k")
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .and_then(|digits| digits.parse().ok())
            == Some(key)
}

/// Length of the wire key `k<n>`.
fn key_len(key: u64) -> u64 {
    2 + u64::from(key.checked_ilog10().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SPECS;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn replies_parse_whole_or_not_at_all() {
        let hit = b"VALUE k12 0 5\r\nhello\r\nEND\r\nEND\r\n";
        let (consumed, reply) = parse_reply(hit, true).unwrap().unwrap();
        assert_eq!(consumed, hit.len() - 5);
        let Reply::Hit { key, value } = reply else {
            panic!("not a hit");
        };
        assert_eq!(&hit[key], b"k12");
        assert_eq!(&hit[value], b"hello");
        // Every strict prefix of a reply is incomplete, never an error.
        for cut in 0..consumed {
            assert_eq!(parse_reply(&hit[..cut], true), Ok(None), "cut {cut}");
        }
        assert_eq!(parse_reply(b"END\r\n", true), Ok(Some((5, Reply::Miss))));
        assert_eq!(
            parse_reply(b"STORED\r\nSTORED\r\n", false),
            Ok(Some((8, Reply::Stored)))
        );
        assert_eq!(
            parse_reply(b"SERVER_ERROR out of memory\r\n", false),
            Ok(Some((
                28,
                Reply::Other("SERVER_ERROR out of memory".into())
            )))
        );
        assert!(parse_reply(b"VALUE k 0 x\r\n", true).is_err());
        assert!(parse_reply(b"VALUE k 0 1\r\nabEND\r\n..", true).is_err());
        assert!(parse_reply(&[b'x'; 600], false).is_err());
    }

    #[test]
    fn key_len_counts_digits() {
        for key in [0u64, 9, 10, 99, 100, 99_999, u64::MAX] {
            let mut wire = Vec::new();
            push_key(&mut wire, key);
            assert_eq!(key_len(key), wire.len() as u64, "{key}");
        }
    }

    /// A server that answers every `get` with a miss, and on its first
    /// connection sleeps once, `stall` long, after `after` requests.
    fn stalling_server(after: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|index| {
                    let (stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || {
                        let mut writer = stream.try_clone().unwrap();
                        let reader = BufReader::new(stream);
                        for (n, line) in reader.lines().enumerate() {
                            if line.is_err() {
                                break;
                            }
                            if index == 0 && n == after {
                                std::thread::sleep(stall);
                            }
                            if writer.write_all(b"END\r\n").is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        let stall = Duration::from_millis(300);
        let (addr, server) = stalling_server(50, stall);
        // hot-get-p1 issues only `get`s; that its keys "miss" here merely
        // counts as failures, which this test does not look at.
        let mut client = Client::connect(addr, &SPECS[2], 42).unwrap();
        let rate = 1_000;
        let phase = client.open_loop(Duration::from_secs(1), rate).unwrap();
        drop(client);
        server.join().unwrap();

        assert_eq!(phase.reads, rate);
        // Half the schedule lands on the stalled connection: 150 reads
        // fall due inside the stall, and all but the last ones wait for
        // most of it. A closed loop would have recorded one.
        let latencies = &phase.read_latency;
        let delayed = |floor: Duration| {
            latencies
                .iter()
                .filter(|&&ns| ns >= floor.as_nanos() as u64)
                .count()
        };
        assert!(delayed(stall / 3) >= 90, "{}", delayed(stall / 3));
        assert!(delayed(stall * 2 / 3) >= 40, "{}", delayed(stall * 2 / 3));
        assert!(delayed(stall * 2) == 0);
        // The generator itself kept to its schedule, and the backlog shows
        // the stall.
        let mut send_lag = phase.send_lag.clone();
        send_lag.sort_unstable();
        assert!(crate::stats::quantile(&send_lag, 0.5) < 5_000_000);
        assert!(phase.backlog_max >= 100);
        // The stall was over long before the schedule was.
        assert!(phase.backlog_end < 10, "{}", phase.backlog_end);
    }
}
