//! The per-connection protocol state machine: nonblocking buffers in,
//! nonblocking buffers out, no socket in sight.
//!
//! [`Connection`] is a run-to-completion state machine over a read
//! buffer and an output *rope*: the reactor appends whatever the socket had into the read
//! buffer ([`Connection::fill_from`]), [`Connection::process`] consumes
//! complete commands from it and appends replies to the rope's active
//! tail segment (sealing the tail into the flush queue whenever it
//! reaches [`SEG_SEAL`]), and the reactor flushes the whole rope back to
//! the socket with one scatter-gather `write_vectored` — `writev(2)` on a
//! `TcpStream` — per round ([`Connection::flush_to`]), so a pipelined
//! burst of N commands still produces one syscall-level write, preserving
//! PR 3's flush-coalescing behaviour by construction. Unlike the old
//! single contiguous `out` Vec, a partially flushed rope never memmoves
//! or reallocates what remains: the cursor advances across fixed
//! segments, and fully drained segments recycle through the worker's
//! [`SegmentPool`].
//!
//! Because input arrives in arbitrary fragments, the machine never
//! consumes a command until every byte it needs is present: a `set`
//! header line is left unconsumed (and re-parsed on the next readiness
//! event — rare, so the re-parse is cheap) until the full data block and
//! its CRLF terminator have arrived. That is what keeps PR 4's chaos
//! invariant intact under `EAGAIN`/short reads: the fault decision for a
//! storage command fires *after* the complete data block, so an injected
//! error or delay can never desynchronize the stream.
//!
//! Lifecycle semantics are expressed as data, not threads: a chaos delay
//! parks the connection behind [`Step::Delayed`] (the reactor schedules a
//! timer and stops reading), idle eviction and drain close-outs are
//! decided by the reactor's timer wheel against [`Connection::last_complete`]
//! and [`Connection::drain_closable`], and `--max-conns` rejections are
//! ordinary connections born with a preloaded error reply and
//! `close_after_flush` set.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::time::Instant;

use camp_telemetry::{kvlog, LogLevel, RequestSpan};

use crate::fault::{FaultAction, FaultState};
use crate::metrics::{CmdKind, FaultKind, RejectCause, WorkerTally};
use crate::protocol::{parse_command_limited, Command};
use crate::server::{cmd_kind, execute, ServerOptions, Shared, Stamp};

/// Spare room a `read` call is offered while filling. A read that returns
/// less than it was offered has drained the socket.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on bytes ingested per fill round, so one firehose connection
/// cannot starve its worker's other connections.
const READ_ROUND_MAX: usize = 256 * 1024;
/// Consumed-prefix threshold past which the read buffer is compacted.
const COMPACT_AT: usize = 4 * 1024;
/// Buffers larger than this are shrunk once fully drained, so a single
/// 1 MiB `set` does not pin a megabyte per connection forever.
const SHRINK_AT: usize = 256 * 1024;
const SHRINK_TO: usize = 16 * 1024;
/// Output-tail size at which the active segment is sealed into the flush
/// queue. One oversized reply may overshoot — a reply is never split
/// across segments, so the parser-facing sink stays a plain `Vec`.
const SEG_SEAL: usize = 16 * 1024;
/// Segments whose capacity ballooned past this are dropped instead of
/// recycled, so one huge reply does not pin its allocation in the pool.
const SEG_RECYCLE_CAP: usize = 64 * 1024;
/// Most segments handed to one `write_vectored` call (well under Linux's
/// `IOV_MAX` of 1024; the flush loop re-enters for any remainder).
const MAX_IOV: usize = 64;
/// Cap on spans awaiting their flushed stamp; a write-paused connection
/// drops further spans (counted in `trace:spans_dropped`) rather than
/// growing without bound.
const PENDING_SPAN_CAP: usize = 4096;

/// What [`Connection::process`] wants from the reactor next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// All buffered input consumed (or an incomplete command is waiting
    /// for more bytes): keep read interest.
    NeedRead,
    /// A chaos delay is in force: stop reading, schedule a resume timer
    /// for the instant, then call `process` again.
    Delayed(Instant),
    /// The connection is done (quit, EOF, fatal error, drop fault):
    /// flush what the write buffer holds, then close.
    Close,
}

/// What a [`Connection::fill_from`] round observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// The socket is drained (or the round cap was hit); more may come.
    Open,
    /// The peer closed its write half; `process` runs with EOF semantics.
    Eof,
}

/// A per-worker recycling pool for drained output segments. Every
/// connection on a worker seals into and drains from the same pool, so a
/// worker's steady state allocates no output memory at all: segments
/// cycle seal → writev → pool → next seal.
#[derive(Debug, Default)]
pub(crate) struct SegmentPool {
    free: Vec<Vec<u8>>,
}

impl SegmentPool {
    /// Bound on pooled segments per worker (64 × 64 KiB = 4 MiB ceiling).
    const MAX_FREE: usize = 64;

    /// A cleared segment, recycled when one is available.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a drained segment. Oversized or surplus segments are
    /// dropped — the pool caps per-worker memory, it does not grow it.
    pub(crate) fn put(&mut self, mut segment: Vec<u8>) {
        segment.clear();
        if segment.capacity() > 0
            && segment.capacity() <= SEG_RECYCLE_CAP
            && self.free.len() < SegmentPool::MAX_FREE
        {
            self.free.push(segment);
        }
    }

    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// The connection's output rope: sealed segments queued oldest-first for
/// the scatter-gather flush, plus the active tail segment replies append
/// to. `head_pos` bytes of the front sealed segment are already on the
/// wire — a partial `writev` just advances this cursor, never memmoving
/// or reallocating the remainder.
#[derive(Debug, Default)]
struct OutRope {
    sealed: VecDeque<Vec<u8>>,
    head_pos: usize,
    /// Unflushed bytes across `sealed` (excludes the tail).
    sealed_len: usize,
    tail: Vec<u8>,
}

impl OutRope {
    fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves the tail into the sealed queue (no-op on an empty tail).
    fn seal(&mut self, pool: &mut SegmentPool) {
        if self.tail.is_empty() {
            return;
        }
        self.sealed_len += self.tail.len();
        let fresh = pool.take();
        self.sealed
            .push_back(std::mem::replace(&mut self.tail, fresh));
    }

    /// Advances the flush cursor by `written` bytes (never more than
    /// `sealed_len`), recycling fully drained segments into `pool`.
    fn consume(&mut self, written: usize, pool: &mut SegmentPool) {
        self.sealed_len -= written;
        let mut left = written;
        while left > 0 {
            let front_left = self.sealed.front().map_or(0, |s| s.len() - self.head_pos);
            if left >= front_left {
                left -= front_left;
                self.head_pos = 0;
                if let Some(segment) = self.sealed.pop_front() {
                    pool.put(segment);
                }
            } else {
                self.head_pos += left;
                left = 0;
            }
        }
    }

    /// Returns every segment to the pool (the connection is closing).
    fn recycle(&mut self, pool: &mut SegmentPool) {
        for segment in self.sealed.drain(..) {
            pool.put(segment);
        }
        self.head_pos = 0;
        self.sealed_len = 0;
        pool.put(std::mem::take(&mut self.tail));
    }
}

/// One client connection's entire protocol state.
#[derive(Debug)]
pub(crate) struct Connection {
    /// Read buffer; `buf[pos..filled]` is unconsumed input and
    /// `buf[filled..]` is spare room — already initialised, so a `read`
    /// lands in it without a zero-fill (zeroing happens only when the
    /// buffer grows).
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Output rope: sealed segments awaiting flush plus the active tail.
    out: OutRope,
    /// Reusable get-serialization scratch: VALUE blocks accumulate here
    /// before one bulk append.
    response: Vec<u8>,
    faults: Option<FaultState>,
    /// A Delay was already decided for the currently-pending command;
    /// on resume, execute without re-rolling the fault RNG.
    fault_decided: bool,
    /// In-force chaos delay; cleared by `process` once the instant passes.
    pub(crate) delayed_until: Option<Instant>,
    /// The idle clock: time of the last *completed* command.
    pub(crate) last_complete: Instant,
    /// Close once the write buffer drains (quit, eviction, rejection...).
    pub(crate) close_after_flush: bool,
    /// The peer closed its write half (sticky).
    pub(crate) peer_eof: bool,
    /// Whether this connection was counted in `conn_count` and the
    /// opened/closed metrics (max-conns rejections are not).
    pub(crate) counted: bool,
    /// Server-assigned connection id (span attribution).
    id: u64,
    /// When the most recent socket fragment arrived (the `buffered` span
    /// phase for commands completed by that fragment).
    buffered_at: Option<Instant>,
    /// Spans for executed commands, awaiting the flushed stamp that the
    /// reactor applies once their replies reach the socket.
    pending_spans: Vec<RequestSpan>,
}

impl Connection {
    /// `id` seeds the connection's deterministic fault stream.
    pub(crate) fn new(id: u64, shared: &Shared) -> Connection {
        Connection {
            buf: Vec::new(),
            pos: 0,
            filled: 0,
            out: OutRope::default(),
            response: Vec::new(),
            faults: shared
                .fault_plan
                .as_ref()
                .map(|plan| FaultState::new(plan, id)),
            fault_decided: false,
            delayed_until: None,
            last_complete: Instant::now(),
            close_after_flush: false,
            peer_eof: false,
            counted: true,
            id,
            buffered_at: None,
            pending_spans: Vec::new(),
        }
    }

    /// A connection rejected at the cap: born with the overload error
    /// queued and `close_after_flush` set, uncounted — the reactor flushes
    /// the reply and closes without ever reading a byte.
    pub(crate) fn rejected(shared: &Shared) -> Connection {
        shared.metrics.record_rejected(RejectCause::MaxConns);
        kvlog!(
            LogLevel::Warn,
            "connection_rejected",
            cause = "max_conns",
            limit = shared.max_conns,
        );
        let mut conn = Connection::new(0, shared);
        conn.out
            .tail
            .extend_from_slice(b"SERVER_ERROR too many connections\r\n");
        conn.close_after_flush = true;
        conn.counted = false;
        conn
    }

    /// Appends bytes to the read buffer as one arrived fragment (the
    /// socket-free twin of `fill_from`, for tests and [`Loopback`]).
    pub(crate) fn ingest(&mut self, bytes: &[u8]) {
        self.buf.truncate(self.filled);
        self.buf.extend_from_slice(bytes);
        self.filled = self.buf.len();
        self.buffered_at = Some(Instant::now());
    }

    /// Whether unflushed output remains.
    pub(crate) fn has_pending_out(&self) -> bool {
        !self.out.is_empty()
    }

    /// How much unflushed output is queued across the rope (drives the
    /// reactor's read-pause high-water mark).
    pub(crate) fn pending_out_len(&self) -> usize {
        self.out.len()
    }

    /// Returns the rope's segments to the worker pool; the reactor calls
    /// this when the connection closes so its memory is recycled rather
    /// than freed.
    pub(crate) fn recycle_out(&mut self, pool: &mut SegmentPool) {
        self.out.recycle(pool);
    }

    /// Whether a drain may close this connection now: nothing buffered in
    /// either direction and no command in flight. A connection holding a
    /// partial command line is *not* closable and gets severed at the
    /// deadline instead.
    pub(crate) fn drain_closable(&self) -> bool {
        self.pos >= self.filled && !self.has_pending_out() && self.delayed_until.is_none()
    }

    /// Reads the socket until a read comes back short (or the per-round
    /// cap), never blocking. Epoll here is level-triggered: a read that
    /// returns less than the room it was offered has drained the socket,
    /// and whatever arrives later — more bytes or the peer's FIN — raises
    /// the event again, so the common small request costs one `read`, not
    /// a second one just to see `EAGAIN`. Tolerates short reads by
    /// construction: whatever fragment arrives is appended and `process`
    /// decides whether it adds up to a complete command yet.
    ///
    /// # Errors
    ///
    /// Propagates hard socket errors (reset, aborted); `WouldBlock` is a
    /// normal outcome, not an error.
    pub(crate) fn fill_from(&mut self, stream: &mut impl Read) -> io::Result<Fill> {
        let mut round = 0;
        loop {
            if self.buf.len() < self.filled + READ_CHUNK {
                self.buf.resize(self.filled + READ_CHUNK, 0);
            }
            let room = &mut self.buf[self.filled..];
            let offered = room.len();
            match stream.read(room) {
                Ok(0) => {
                    self.peer_eof = true;
                    return Ok(Fill::Eof);
                }
                Ok(n) => {
                    self.filled += n;
                    self.buffered_at = Some(Instant::now());
                    round += n;
                    if n < offered || round >= READ_ROUND_MAX {
                        return Ok(Fill::Open);
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(Fill::Open),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }

    /// Writes the unflushed output rope to the socket with scatter-gather
    /// `write_vectored` calls (a single `writev(2)` per call on a
    /// `TcpStream`), stopping at `EAGAIN`. A partial write advances the
    /// cursor across segment boundaries; fully drained segments recycle
    /// into `pool`. Returns true once the rope is fully drained.
    ///
    /// # Errors
    ///
    /// Propagates hard socket errors; a zero-length write surfaces as
    /// `WriteZero`.
    pub(crate) fn flush_to(
        &mut self,
        stream: &mut impl Write,
        pool: &mut SegmentPool,
        tally: &mut WorkerTally,
    ) -> io::Result<bool> {
        // Seal the active tail so the flush sees one uniform segment
        // queue; the next round's replies start on a recycled segment.
        self.out.seal(pool);
        while self.out.sealed_len > 0 {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut n_iov = 0;
            for (index, segment) in self.out.sealed.iter().enumerate() {
                if n_iov == MAX_IOV {
                    break;
                }
                let bytes = if index == 0 {
                    &segment[self.out.head_pos..]
                } else {
                    &segment[..]
                };
                iov[n_iov] = IoSlice::new(bytes);
                n_iov += 1;
            }
            tally.flush(n_iov as u64);
            match stream.write_vectored(&iov[..n_iov]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out.consume(n, pool),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        Ok(true)
    }

    /// Stamps the `flushed` phase on every span whose reply just reached
    /// the socket and records them, as one batch, into `ring` of the
    /// flight recorder. The reactor calls this after a full write-buffer
    /// drain (and once more at close, so spans stuck behind a slow reader
    /// are not lost).
    pub(crate) fn finish_spans(&mut self, shared: &Shared, ring: usize) {
        if self.pending_spans.is_empty() {
            return;
        }
        let flushed_us = shared.recorder.micros_since_boot(Instant::now());
        for span in &mut self.pending_spans {
            span.flushed_us = flushed_us.max(span.executed_us);
        }
        shared.recorder.record_spans(ring, &self.pending_spans);
        self.pending_spans.clear();
    }

    /// Evicts the connection for exceeding the idle deadline: explicit
    /// error reply, then close once it flushes.
    pub(crate) fn evict_idle(&mut self, shared: &Shared) {
        shared.metrics.record_rejected(RejectCause::IdleTimeout);
        kvlog!(
            LogLevel::Info,
            "idle_connection_evicted",
            timeout_ms = shared.idle_timeout.as_millis(),
        );
        self.out
            .tail
            .extend_from_slice(b"SERVER_ERROR idle timeout\r\n");
        self.close_after_flush = true;
    }

    /// Consumes every complete command currently buffered, appending the
    /// replies to the output rope, and says what the reactor should do
    /// next. Run-to-completion: one call drains everything actionable.
    ///
    /// `now` is the batch timestamp stamped once per reactor wakeup —
    /// chaos delays, liveness stamps and item expiry use it as is. The
    /// commands are timed off one clock read each: a command's turn runs
    /// from the end of the one before it (for the first of the call, from
    /// the arrival of the bytes) to its own end, so its latency covers
    /// its own parse, and the spans of a pipelined batch tile the cycle
    /// with no gap. What is counted goes into `tally`, the calling
    /// worker's own; the caller publishes it before it flushes the
    /// replies, and `process` itself does so before a `stats` or `trace`
    /// command runs, so those see every command ahead of them.
    pub(crate) fn process(
        &mut self,
        shared: &Shared,
        pool: &mut SegmentPool,
        tally: &mut WorkerTally,
        now: Stamp,
    ) -> Step {
        if self.close_after_flush {
            return Step::Close;
        }
        let recorder = &shared.recorder;
        // A cycle that read nothing (a delay resume, a drain sweep) starts
        // its first command now, not when the bytes once arrived.
        let buffered_at = self.buffered_at.unwrap_or(now.at);
        let buffered_us = recorder.micros_since_boot(buffered_at);
        let mut started = buffered_at.max(now.at);
        let mut started_us = recorder.micros_since_boot(started);
        loop {
            // Seal a grown tail so the next flush scatter-gathers bounded
            // segments instead of one unbounded contiguous buffer.
            if self.out.tail.len() >= SEG_SEAL {
                self.out.seal(pool);
            }
            // An in-force chaos delay pauses the whole connection —
            // pipelined commands behind the delayed one wait.
            if let Some(until) = self.delayed_until {
                if now.at < until {
                    return Step::Delayed(until);
                }
                self.delayed_until = None;
            }
            if self.pos >= self.filled {
                self.compact();
                return if self.peer_eof {
                    Step::Close
                } else {
                    Step::NeedRead
                };
            }
            let newline = self.buf[self.pos..self.filled]
                .iter()
                .position(|&b| b == b'\n');
            let (line_end, line_wire) = match newline {
                Some(n) => (self.pos + n, n + 1),
                // No newline yet: with the peer gone, hand the partial
                // line to the parser (what an un-timed blocking read did
                // at EOF); otherwise wait for the rest.
                None if self.peer_eof => (self.filled, self.filled - self.pos),
                None => {
                    self.compact();
                    return Step::NeedRead;
                }
            };
            let mut line = &self.buf[self.pos..line_end];
            while let [rest @ .., b'\r' | b'\n'] = line {
                line = rest;
            }
            if line.is_empty() {
                self.pos += line_wire;
                continue;
            }
            let parsed = parse_command_limited(line, shared.max_value_len);
            match parsed {
                Ok(Command::Quit) => {
                    self.pos += line_wire;
                    return Step::Close;
                }
                Ok(command) => {
                    let kind = cmd_kind(&command);
                    // For storage commands the header line is not consumed
                    // until the full data block (+CRLF) is buffered: on a
                    // short read we leave everything in place and re-parse
                    // when more bytes arrive. The fault decision therefore
                    // always happens after the complete block — PR 4's
                    // invariant, now robust to arbitrary fragmentation.
                    let (block, consumed, wire_bytes): (&[u8], usize, u64) = match &command {
                        Command::Set { header } => {
                            let needed = line_wire + header.bytes + 2;
                            if self.filled - self.pos < needed {
                                if self.peer_eof {
                                    // Mid-block EOF: nothing is stored and
                                    // nothing more can be parsed.
                                    return Step::Close;
                                }
                                self.compact();
                                return Step::NeedRead;
                            }
                            let start = self.pos + line_wire;
                            let terminator = &self.buf[start + header.bytes..self.pos + needed];
                            if terminator != b"\r\n" {
                                // The stream is desynchronized; reading on
                                // would misparse data as commands.
                                kvlog!(
                                    LogLevel::Debug,
                                    "connection_error",
                                    error = "data block not terminated by CRLF",
                                );
                                return Step::Close;
                            }
                            (
                                &self.buf[start..start + header.bytes],
                                needed,
                                (line_wire + header.bytes + 2) as u64,
                            )
                        }
                        _ => (&[], line_wire, line_wire as u64),
                    };
                    // Chaos: decided once per command, after its data
                    // block; a Delay stashes the fact that the decision
                    // already happened so the resume does not re-roll the
                    // per-connection RNG.
                    if !self.fault_decided {
                        if let (Some(plan), Some(state)) =
                            (shared.fault_plan.as_ref(), self.faults.as_mut())
                        {
                            match state.decide(plan) {
                                FaultAction::None => {}
                                FaultAction::Delay(dur) => {
                                    shared.metrics.record_fault(FaultKind::Delay);
                                    let until = now.at + dur;
                                    self.fault_decided = true;
                                    self.delayed_until = Some(until);
                                    return Step::Delayed(until);
                                }
                                FaultAction::Error => {
                                    shared.metrics.record_fault(FaultKind::Error);
                                    tally.bytes(kind, wire_bytes);
                                    self.out
                                        .tail
                                        .extend_from_slice(b"SERVER_ERROR injected fault\r\n");
                                    self.last_complete = now.at;
                                    self.pos += consumed;
                                    continue;
                                }
                                FaultAction::Drop => {
                                    // Vanish pre-response; replies already
                                    // buffered still flush on close.
                                    shared.metrics.record_fault(FaultKind::Drop);
                                    tally.bytes(kind, wire_bytes);
                                    return Step::Close;
                                }
                            }
                        }
                    }
                    self.fault_decided = false;
                    if matches!(command, Command::Stats { .. } | Command::Trace) {
                        // What this worker counted so far — the commands
                        // pipelined ahead of this one included — must be
                        // in what the command reports.
                        shared.metrics.absorb(tally);
                    }
                    // Infallible: the sink is a Vec. `unwrap_or` (not
                    // unwrap) keeps the request path panic-free per the
                    // workspace rule; the false arm is unreachable.
                    let keep = execute(
                        &command,
                        block,
                        &mut self.out.tail,
                        &mut self.response,
                        shared,
                        Stamp {
                            at: started,
                            unix_secs: now.unix_secs,
                        },
                    )
                    .unwrap_or(false);
                    // The command's one clock read: its end, and the next
                    // command's start.
                    let executed_at = Instant::now();
                    let executed_us = recorder.micros_since_boot(executed_at);
                    tally.command(kind, wire_bytes, executed_us.saturating_sub(started_us));
                    if self.pending_spans.len() < PENDING_SPAN_CAP {
                        self.pending_spans.push(RequestSpan {
                            conn_id: self.id,
                            cmd: kind.code(),
                            wire_bytes,
                            buffered_us,
                            parsed_us: started_us,
                            executed_us,
                            flushed_us: 0, // stamped by `finish_spans`
                        });
                    } else {
                        tally.span_dropped();
                    }
                    (started, started_us) = (executed_at, executed_us);
                    self.last_complete = executed_at;
                    self.pos += consumed;
                    if !keep {
                        return Step::Close;
                    }
                }
                Err(err) => {
                    tally.bytes(CmdKind::Other, line_wire as u64);
                    // ordering: Relaxed — statistics counter.
                    shared
                        .metrics
                        .protocol_errors
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    kvlog!(LogLevel::Debug, "protocol_error", error = err);
                    self.out.tail.extend_from_slice(err.to_string().as_bytes());
                    self.out.tail.extend_from_slice(b"\r\n");
                    self.pos += line_wire;
                    if err.is_fatal() {
                        // The refused data block is still on the wire;
                        // reading on would desync. Today
                        // the only fatal parse error is an oversize value.
                        shared.metrics.record_rejected(RejectCause::ValueTooLarge);
                        return Step::Close;
                    }
                    self.last_complete = now.at;
                }
            }
        }
    }

    /// Drops the consumed prefix once it is worth the memmove, and returns
    /// oversized buffers to a modest footprint when fully drained.
    fn compact(&mut self) {
        if self.pos >= self.filled {
            self.pos = 0;
            self.filled = 0;
            if self.buf.capacity() > SHRINK_AT {
                self.buf.truncate(SHRINK_TO);
                self.buf.shrink_to(SHRINK_TO);
            }
        } else if self.pos >= COMPACT_AT {
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
    }
}

/// A connection and everything a reactor worker would bring to it, with
/// no socket and no event loop: each [`Loopback::exchange`] takes the bytes
/// one readiness event would have delivered through exactly the path a
/// worker runs — parse, execute against a real store, tally, publish,
/// flush, record spans — and leaves the replies in a buffer. It exists so
/// that path's cost per command can be measured apart from the kernel's
/// share of a request (`conn/process_pipeline32` in the hot-path
/// benchmarks).
#[derive(Debug)]
pub struct Loopback {
    shared: Shared,
    conn: Connection,
    pool: SegmentPool,
    tally: WorkerTally,
}

impl Loopback {
    /// A fresh server state (store, metrics, flight recorder) with one
    /// connection into it.
    ///
    /// # Errors
    ///
    /// Propagates persistence-open failures when `options` asks for a
    /// data directory.
    pub fn new(options: &ServerOptions) -> io::Result<Loopback> {
        let shared = Shared::new(options)?;
        Ok(Loopback {
            conn: Connection::new(1, &shared),
            shared,
            pool: SegmentPool::default(),
            tally: WorkerTally::default(),
        })
    }

    /// Runs one worker cycle over `input`, appending the replies to
    /// `replies` (which never blocks, so the cycle always completes).
    ///
    /// # Errors
    ///
    /// None in practice: a `Vec` sink accepts every write.
    pub fn exchange(&mut self, input: &[u8], replies: &mut Vec<u8>) -> io::Result<()> {
        self.conn.ingest(input);
        self.conn
            .process(&self.shared, &mut self.pool, &mut self.tally, Stamp::now());
        self.shared.metrics.absorb(&mut self.tally);
        self.conn
            .flush_to(replies, &mut self.pool, &mut self.tally)?;
        self.conn.finish_spans(&self.shared, 0);
        self.shared.metrics.absorb(&mut self.tally);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::metrics::FaultKind;
    use crate::slab::SlabConfig;
    use crate::store::{EvictionMode, StoreConfig};
    use camp_core::Precision;
    use std::time::Duration;

    fn test_shared(fault_plan: Option<FaultPlan>) -> Shared {
        let mut options = ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(64 * 1024, 8),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        options.fault_plan = fault_plan;
        Shared::new(&options).expect("test shared state without persistence")
    }

    /// Runs `process` with a throwaway pool and a fresh batch timestamp,
    /// publishing what it tallied as the reactor would before a flush.
    fn step(conn: &mut Connection, shared: &Shared) -> Step {
        let mut pool = SegmentPool::default();
        let mut tally = WorkerTally::default();
        let step = conn.process(shared, &mut pool, &mut tally, Stamp::now());
        shared.metrics.absorb(&mut tally);
        step
    }

    fn flushed(conn: &mut Connection, shared: &Shared) -> Vec<u8> {
        let mut pool = SegmentPool::default();
        let mut tally = WorkerTally::default();
        let mut sink = Vec::new();
        conn.flush_to(&mut sink, &mut pool, &mut tally)
            .expect("vec sink");
        shared.metrics.absorb(&mut tally);
        sink
    }

    #[test]
    fn pipelined_burst_yields_one_coalesced_reply_buffer() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        conn.ingest(b"set a 0 0 3\r\nAAA\r\nset b 0 0 3\r\nBBB\r\nget a b\r\n");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(
            flushed(&mut conn, &shared),
            b"STORED\r\nSTORED\r\nVALUE a 0 3\r\nAAA\r\nVALUE b 0 3\r\nBBB\r\nEND\r\n".to_vec()
        );
    }

    #[test]
    fn set_survives_arbitrary_fragmentation() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        // Byte-at-a-time: the worst-case short-read stream.
        let wire = b"set frag 7 0 5\r\nhello\r\nget frag\r\n";
        for &byte in &wire[..wire.len() - 1] {
            conn.ingest(&[byte]);
            assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        }
        conn.ingest(&wire[wire.len() - 1..]);
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(
            flushed(&mut conn, &shared),
            b"STORED\r\nVALUE frag 7 5\r\nhello\r\nEND\r\n".to_vec()
        );
    }

    #[test]
    fn chaos_decision_waits_for_the_full_data_block() {
        // error_rate=1: every decided command faults. The decision must
        // not happen while the data block is still partial.
        let plan: FaultPlan = "err=1.0,seed=7".parse().expect("plan");
        let shared = test_shared(Some(plan));
        let mut conn = Connection::new(3, &shared);
        conn.ingest(b"set k 0 0 5\r\nhel");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        let injected = shared.metrics.faults_snapshot();
        assert_eq!(
            injected.iter().map(|(_, n)| n).sum::<u64>(),
            0,
            "{injected:?}"
        );
        conn.ingest(b"lo\r\n");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(
            flushed(&mut conn, &shared),
            b"SERVER_ERROR injected fault\r\n".to_vec()
        );
        let injected = shared.metrics.faults_snapshot();
        assert_eq!(
            injected.iter().map(|(_, n)| n).sum::<u64>(),
            1,
            "{injected:?}"
        );
    }

    #[test]
    fn delay_fault_parks_and_resumes_without_rerolling() {
        let plan: FaultPlan = "delay=2ms@1.0,seed=9".parse().expect("plan");
        let shared = test_shared(Some(plan));
        let mut conn = Connection::new(4, &shared);
        conn.ingest(b"set k 0 0 1\r\nx\r\n");
        let until = match step(&mut conn, &shared) {
            Step::Delayed(until) => until,
            other => panic!("expected Delayed, got {other:?}"),
        };
        // Exactly one Delay recorded at decision time, none on resume.
        let delays = |shared: &Shared| {
            shared
                .metrics
                .faults_snapshot()
                .iter()
                .find(|(kind, _)| *kind == FaultKind::Delay.name())
                .map_or(0, |(_, n)| *n)
        };
        assert_eq!(delays(&shared), 1);
        std::thread::sleep(
            until.saturating_duration_since(Instant::now()) + Duration::from_millis(1),
        );
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(delays(&shared), 1);
        assert_eq!(flushed(&mut conn, &shared), b"STORED\r\n".to_vec());
    }

    #[test]
    fn eof_hands_the_partial_final_line_to_the_parser() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        conn.ingest(b"version");
        conn.peer_eof = true;
        assert_eq!(step(&mut conn, &shared), Step::Close);
        let reply = flushed(&mut conn, &shared);
        assert!(reply.starts_with(b"VERSION camp-kvs/"), "{reply:?}");
    }

    #[test]
    fn eof_mid_data_block_stores_nothing() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        conn.ingest(b"set gone 0 0 10\r\nhalf");
        conn.peer_eof = true;
        assert_eq!(step(&mut conn, &shared), Step::Close);
        assert_eq!(shared.store.len(), 0);
    }

    #[test]
    fn bad_block_terminator_closes_the_connection() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        conn.ingest(b"set a 0 0 3\r\nAAAXXget a\r\n");
        assert_eq!(step(&mut conn, &shared), Step::Close);
    }

    #[test]
    fn oversize_set_is_fatal_and_counted() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let line = format!("set big 0 0 {}\r\n", shared.max_value_len + 1);
        conn.ingest(line.as_bytes());
        assert_eq!(step(&mut conn, &shared), Step::Close);
        let reply = flushed(&mut conn, &shared);
        assert!(
            reply.starts_with(b"SERVER_ERROR object too large"),
            "{reply:?}"
        );
        let rejected = shared.metrics.rejected_snapshot();
        assert!(
            rejected
                .iter()
                .any(|(c, n)| *c == "value_too_large" && *n == 1),
            "{rejected:?}"
        );
    }

    #[test]
    fn quit_closes_after_flush() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        conn.ingest(b"version\r\nquit\r\nget never-processed\r\n");
        assert_eq!(step(&mut conn, &shared), Step::Close);
        let reply = flushed(&mut conn, &shared);
        assert!(reply.starts_with(b"VERSION"), "{reply:?}");
        assert!(!reply.windows(3).any(|w| w == b"END"), "{reply:?}");
    }

    #[test]
    fn fill_tolerates_short_reads_and_flush_tolerates_short_writes() {
        /// Reads the script in `step`-byte sips; writes accept `step`
        /// bytes then block once.
        struct Trickle {
            script: Vec<u8>,
            step: usize,
            wrote: Vec<u8>,
            block_next: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.script.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = self.step.min(self.script.len()).min(buf.len());
                buf[..n].copy_from_slice(&self.script[..n]);
                self.script.drain(..n);
                Ok(n)
            }
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.block_next {
                    self.block_next = false;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = self.step.min(buf.len());
                self.wrote.extend_from_slice(&buf[..n]);
                self.block_next = true;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut io = Trickle {
            script: b"set s 0 0 4\r\nbody\r\nget s\r\n".to_vec(),
            step: 3,
            wrote: Vec::new(),
            block_next: false,
        };
        // Drive fill/process until the input is exhausted.
        while !io.script.is_empty() {
            assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Open);
            step(&mut conn, &shared);
        }
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        // Drive the partial-write loop until fully flushed.
        let mut pool = SegmentPool::default();
        let mut tally = WorkerTally::default();
        let mut rounds = 0;
        while !conn
            .flush_to(&mut io, &mut pool, &mut tally)
            .expect("flush")
        {
            rounds += 1;
            assert!(rounds < 100, "flush failed to make progress");
        }
        assert_eq!(
            io.wrote,
            b"STORED\r\nVALUE s 0 4\r\nbody\r\nEND\r\n".to_vec()
        );
        assert!(rounds > 0, "short writes never surfaced");
    }

    /// Hands out one scripted result per `read` call and counts the calls;
    /// past the script it would block, as a drained socket does.
    struct Scripted {
        reads: VecDeque<io::Result<Vec<u8>>>,
        calls: usize,
    }

    impl Scripted {
        fn new(reads: Vec<io::Result<Vec<u8>>>) -> Scripted {
            Scripted {
                reads: reads.into(),
                calls: 0,
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let bytes = self
                .reads
                .pop_front()
                .unwrap_or_else(|| Err(io::ErrorKind::WouldBlock.into()))?;
            assert!(bytes.len() <= buf.len(), "script exceeds the room offered");
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn a_short_fragment_costs_exactly_one_read() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut io = Scripted::new(vec![Ok(b"version\r\n".to_vec())]);
        assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Open);
        assert_eq!(io.calls, 1, "no second read just to see EAGAIN");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert!(flushed(&mut conn, &shared).starts_with(b"VERSION"));
        // The next readiness round reuses the initialised buffer.
        let mut io = Scripted::new(vec![Ok(b"version\r\n".to_vec())]);
        assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Open);
        assert_eq!(io.calls, 1);
        assert_eq!(conn.buf.len(), READ_CHUNK, "no regrowth between rounds");
    }

    #[test]
    fn a_read_that_fills_the_room_is_followed_by_another() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut wire = b"set big 0 0 16400\r\n".to_vec();
        wire.resize(READ_CHUNK, b'x');
        let rest = {
            let mut rest = vec![b'x'; 16_400 - (READ_CHUNK - 19)];
            rest.extend_from_slice(b"\r\nget big\r\n");
            rest
        };
        let mut io = Scripted::new(vec![Ok(wire), Ok(rest)]);
        assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Open);
        assert_eq!(io.calls, 2, "a full read may have left bytes behind");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        let reply = flushed(&mut conn, &shared);
        assert!(reply.starts_with(b"STORED\r\nVALUE big 0 16400\r\n"));
        // An interrupted read is retried, a would-block ends the round.
        let mut io = Scripted::new(vec![
            Err(io::ErrorKind::Interrupted.into()),
            Err(io::ErrorKind::WouldBlock.into()),
        ]);
        assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Open);
        assert_eq!(io.calls, 2);
    }

    #[test]
    fn data_then_eof_over_two_rounds_still_reports_eof() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        // Round one: the final command, short, so the FIN behind it is
        // not looked for; level-triggered epoll raises the event again.
        let mut io = Scripted::new(vec![Ok(b"version".to_vec()), Ok(Vec::new())]);
        assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Open);
        assert_eq!(io.calls, 1);
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(conn.fill_from(&mut io).expect("fill"), Fill::Eof);
        assert!(conn.peer_eof);
        assert_eq!(step(&mut conn, &shared), Step::Close);
        assert!(flushed(&mut conn, &shared).starts_with(b"VERSION"));
    }

    #[test]
    fn rejected_connection_carries_the_overload_reply() {
        let shared = test_shared(None);
        let mut conn = Connection::rejected(&shared);
        assert!(conn.close_after_flush);
        assert!(!conn.counted);
        assert_eq!(step(&mut conn, &shared), Step::Close);
        assert_eq!(
            flushed(&mut conn, &shared),
            b"SERVER_ERROR too many connections\r\n".to_vec()
        );
        let rejected = shared.metrics.rejected_snapshot();
        assert!(
            rejected.iter().any(|(c, n)| *c == "max_conns" && *n == 1),
            "{rejected:?}"
        );
    }

    #[test]
    fn drain_closable_tracks_buffered_state() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        assert!(conn.drain_closable());
        // A partial line in flight blocks the drain close (severed later).
        conn.ingest(b"get par");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert!(!conn.drain_closable());
        conn.ingest(b"tial\r\n");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert!(conn.has_pending_out());
        assert!(!conn.drain_closable());
        let _ = flushed(&mut conn, &shared);
        assert!(conn.drain_closable());
    }

    #[test]
    fn writev_resumes_across_segment_boundaries_after_partial_writes() {
        /// Accepts at most `cap` bytes per vectored write and blocks on
        /// every other call — a congested non-blocking socket whose
        /// partial writes deliberately land mid-segment.
        struct Gather {
            wrote: Vec<u8>,
            cap: usize,
            block_next: bool,
            max_iovs: usize,
            rounds: usize,
        }
        impl Write for Gather {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                if self.block_next {
                    self.block_next = false;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                self.rounds += 1;
                self.max_iovs = self.max_iovs.max(bufs.len());
                let mut budget = self.cap;
                for buf in bufs {
                    if budget == 0 {
                        break;
                    }
                    let n = budget.min(buf.len());
                    self.wrote.extend_from_slice(&buf[..n]);
                    budget -= n;
                }
                Ok(self.cap - budget)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut pool = SegmentPool::default();
        // Three sealed segments plus a live tail; a 700-byte write cap
        // splits every 1000-byte segment across two flush rounds.
        let mut expected = Vec::new();
        for fill in [b'a', b'b', b'c'] {
            conn.out.tail.extend_from_slice(&[fill; 1000]);
            expected.extend_from_slice(&[fill; 1000]);
            conn.out.seal(&mut pool);
        }
        conn.out.tail.extend_from_slice(b"tail");
        expected.extend_from_slice(b"tail");

        let mut io = Gather {
            wrote: Vec::new(),
            cap: 700,
            block_next: false,
            max_iovs: 0,
            rounds: 0,
        };
        let mut tally = WorkerTally::default();
        let mut spins = 0;
        while !conn
            .flush_to(&mut io, &mut pool, &mut tally)
            .expect("flush")
        {
            spins += 1;
            assert!(spins < 100, "flush failed to make progress");
        }
        assert_eq!(io.wrote, expected);
        assert!(!conn.has_pending_out());
        assert!(
            io.max_iovs >= 2,
            "flush never batched multiple segments into one writev: {}",
            io.max_iovs
        );
        assert!(spins > 0, "EAGAIN never surfaced to the caller");
    }

    #[test]
    fn drained_segments_recycle_through_the_pool() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut pool = SegmentPool::default();
        for _ in 0..4 {
            conn.out.tail.extend_from_slice(&[7u8; 100]);
            conn.out.seal(&mut pool);
        }
        let mut sink = Vec::new();
        assert!(conn
            .flush_to(&mut sink, &mut pool, &mut WorkerTally::default())
            .expect("flush"));
        assert_eq!(sink.len(), 400);
        assert!(
            pool.pooled() >= 4,
            "drained segments were not recycled: {}",
            pool.pooled()
        );

        // Oversized buffers are dropped rather than hoarded...
        let before = pool.pooled();
        pool.put(Vec::with_capacity(SEG_RECYCLE_CAP + 1));
        assert_eq!(pool.pooled(), before);
        // ...while recycled segments come back out ready to use.
        let segment = pool.take();
        assert!(segment.is_empty() && segment.capacity() > 0);
        assert_eq!(pool.pooled(), before - 1);
    }

    #[test]
    fn process_seals_oversized_output_into_segments() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut pool = SegmentPool::default();
        // Enough pipelined replies to cross SEG_SEAL several times over.
        let burst = "version\r\n".repeat(4000);
        conn.ingest(burst.as_bytes());
        assert_eq!(
            conn.process(
                &shared,
                &mut pool,
                &mut WorkerTally::default(),
                Stamp::now()
            ),
            Step::NeedRead
        );
        assert!(
            conn.out.sealed.len() >= 2,
            "large pipelined output never sealed: {} segments",
            conn.out.sealed.len()
        );
        assert!(conn.pending_out_len() > SEG_SEAL);
        let reply = flushed(&mut conn, &shared);
        assert!(reply.starts_with(b"VERSION"));
        assert!(reply.ends_with(b"\r\n"));
        assert!(!conn.has_pending_out());
    }
}
