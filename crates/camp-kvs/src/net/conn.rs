//! The per-connection protocol state machine: nonblocking buffers in,
//! nonblocking buffers out, no socket in sight.
//!
//! [`Connection`] is a run-to-completion state machine over a read
//! buffer and an output buffer, both lent by the worker's [`BufPool`]
//! and held only while they hold bytes: the reactor appends whatever the
//! socket had into the read buffer ([`Connection::fill_from`]),
//! [`Connection::process`] consumes complete commands from it, each
//! writing its reply straight into the output buffer (a get hit's value
//! is copied there from its slab chunk, the one copy it gets), and
//! [`Connection::flush`] sends the whole output with plain `write` calls
//! from a sent cursor — so a pipelined burst of N commands still leaves
//! in one syscall. A buffer goes back to the pool once drained, so an
//! idle connection holds neither; a partial command keeps its read
//! buffer, moved to the front. The output is bounded by how far a client
//! reads, not by how far it pipelines: see [`Connection::OUT_HIGH_WATER`].
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
//! decided by the reactor's timers against [`Connection::last_complete`]
//! and [`Connection::drain_closable`], and `--max-conns` rejections are
//! ordinary connections born with a preloaded error reply and
//! `close_after_flush` set.

use std::io::{self, Read, Write};
use std::time::Instant;

use camp_telemetry::{kvlog, LogLevel, RequestSpan};

use crate::fault::{FaultAction, FaultState};
use crate::metrics::{CmdKind, Count, FaultKind, RejectCause, WorkerTally};
use crate::protocol::{parse_command_limited, Command};
use crate::server::{cmd_kind, execute, ServerOptions, Shared, Stamp};

/// Spare room a `read` call is offered while filling. A read that returns
/// less than it was offered has drained the socket.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on bytes ingested per fill round, so one firehose connection
/// cannot starve its worker's other connections.
const READ_ROUND_MAX: usize = 256 * 1024;
/// Cap on spans awaiting their flushed stamp; a write-paused connection
/// drops further spans (counted in `trace:spans_dropped`) rather than
/// growing without bound.
const PENDING_SPAN_CAP: usize = 4096;

/// What [`Connection::process`] wants from the reactor next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// All buffered input consumed, or an incomplete command is waiting
    /// for more bytes: keep read interest. Also returned, with
    /// [`Connection::backlogged`] set, when the output passed
    /// [`Connection::OUT_HIGH_WATER`] with complete commands left: those
    /// wait for the output to drain, not for new bytes.
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

/// A worker's byte buffers, lent to its connections: a read buffer while
/// one holds input, an output buffer while one holds replies. Buffers
/// cycle take → fill → drain → put, so a worker's steady state allocates
/// no buffer memory, and what it keeps is bounded by the pool, not by
/// its connection count.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: Vec<Vec<u8>>,
}

impl BufPool {
    /// Bound on pooled buffers per worker (64 × 64 KiB = 4 MiB ceiling).
    const MAX_FREE: usize = 64;
    /// Buffers whose capacity grew past this are dropped instead of
    /// pooled, so one huge request or reply does not pin its allocation.
    const MAX_CAP: usize = 64 * 1024;

    /// A pooled buffer, or an empty one. Its contents are stale but
    /// initialised: a reader reads over them without zeroing, a writer
    /// clears them first.
    fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a drained buffer. Oversized or surplus buffers are
    /// dropped — the pool caps per-worker memory, it does not grow it.
    fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0
            && buf.capacity() <= BufPool::MAX_CAP
            && self.free.len() < BufPool::MAX_FREE
        {
            self.free.push(buf);
        }
    }
}

/// One client connection's entire protocol state.
#[derive(Debug)]
pub(crate) struct Connection {
    /// Read buffer, borrowed while it holds input: `input[pos..filled]`
    /// is unconsumed and `input[filled..]` is spare room — already
    /// initialised, so a `read` lands in it without a zero-fill.
    input: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Output buffer, borrowed while it holds replies: `out[sent..]` has
    /// yet to reach the socket.
    out: Vec<u8>,
    sent: usize,
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
    /// `process` stopped at [`Connection::OUT_HIGH_WATER`] with input
    /// left: the reactor reads nothing more until that input is answered.
    pub(crate) backlogged: bool,
    /// The peer closed its write half (sticky).
    pub(crate) peer_eof: bool,
    /// Whether this connection was counted in `conn_count` and the
    /// opened/closed metrics (max-conns rejections are not).
    pub(crate) counted: bool,
    /// Why the server is turning this connection away, until `process`
    /// counts it.
    refused: Option<RejectCause>,
    /// Server-assigned connection id (span attribution).
    id: u64,
    /// When the most recent socket fragment arrived (the `buffered` span
    /// phase for commands completed by that fragment).
    buffered_at: Option<Instant>,
    /// Spans for executed commands, awaiting the flushed stamp that
    /// [`Connection::flush`] applies once their replies reach the socket.
    pending_spans: Vec<RequestSpan>,
}

impl Connection {
    /// `id` seeds the connection's deterministic fault stream.
    pub(crate) fn new(id: u64, shared: &Shared) -> Connection {
        Connection {
            input: Vec::new(),
            pos: 0,
            filled: 0,
            out: Vec::new(),
            sent: 0,
            faults: shared
                .fault_plan
                .as_ref()
                .map(|plan| FaultState::new(plan, id)),
            fault_decided: false,
            delayed_until: None,
            last_complete: Instant::now(),
            close_after_flush: false,
            backlogged: false,
            peer_eof: false,
            counted: true,
            refused: None,
            id,
            buffered_at: None,
            pending_spans: Vec::new(),
        }
    }

    /// A connection rejected at the cap: born with the overload error
    /// queued and `close_after_flush` set, uncounted — the reactor flushes
    /// the reply and closes without ever reading a byte.
    pub(crate) fn rejected(shared: &Shared) -> Connection {
        kvlog!(
            LogLevel::Warn,
            "connection_rejected",
            cause = "max_conns",
            limit = shared.max_conns,
        );
        let mut conn = Connection::new(0, shared);
        conn.out
            .extend_from_slice(b"SERVER_ERROR too many connections\r\n");
        conn.close_after_flush = true;
        conn.counted = false;
        conn.refused = Some(RejectCause::MaxConns);
        conn
    }

    /// Appends bytes to the read buffer as one arrived fragment (the
    /// socket-free twin of `fill_from`, for tests and [`Loopback`]).
    pub(crate) fn ingest(&mut self, bytes: &[u8], pool: &mut BufPool) {
        if self.input.capacity() == 0 {
            self.input = pool.take();
        }
        self.input.truncate(self.filled);
        self.input.extend_from_slice(bytes);
        self.filled = self.input.len();
        self.buffered_at = Some(Instant::now());
    }

    /// Whether unflushed output remains.
    pub(crate) fn has_pending_out(&self) -> bool {
        self.sent < self.out.len()
    }

    /// How much unflushed output is queued (drives the reactor's
    /// read-pause high-water mark).
    pub(crate) fn pending_out_len(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Whether a drain may close this connection now: nothing buffered in
    /// either direction and no command in flight. A connection holding a
    /// partial command line is *not* closable and gets severed at the
    /// deadline instead.
    pub(crate) fn drain_closable(&self) -> bool {
        self.pos >= self.filled && !self.has_pending_out() && self.delayed_until.is_none()
    }

    /// Reads the socket until a read comes back short (or the per-round
    /// cap), never blocking, into a read buffer borrowed from `pool` if
    /// the connection holds none. Epoll here is level-triggered: a read
    /// that returns less than the room it was offered has drained the
    /// socket, and whatever arrives later — more bytes or the peer's FIN —
    /// raises the event again, so the common small request costs one
    /// `read`, not a second one just to see `EAGAIN`. Tolerates short
    /// reads by construction: whatever fragment arrives is appended and
    /// `process` decides whether it adds up to a complete command yet.
    ///
    /// # Errors
    ///
    /// Propagates hard socket errors (reset, aborted); `WouldBlock` is a
    /// normal outcome, not an error.
    pub(crate) fn fill_from(
        &mut self,
        stream: &mut impl Read,
        pool: &mut BufPool,
    ) -> io::Result<Fill> {
        if self.input.capacity() == 0 {
            self.input = pool.take();
        }
        let mut round = 0;
        loop {
            if self.input.len() < self.filled + READ_CHUNK {
                self.input.resize(self.filled + READ_CHUNK, 0);
            }
            let room = &mut self.input[self.filled..];
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

    /// The one way replies leave, whoever sends them — the end of a
    /// worker cycle, a farewell at close, the sever, [`Loopback`]: commit
    /// what the replies acknowledge (the ack barrier), write them, publish
    /// what was counted, and once the output has drained, stamp the spans
    /// whose replies just left into `ring` of the flight recorder. Last,
    /// drained buffers go back to `pool`. Returns true once the output has
    /// drained.
    ///
    /// # Errors
    ///
    /// Propagates hard socket errors; a zero-length write surfaces as
    /// `WriteZero`.
    pub(crate) fn flush(
        &mut self,
        stream: &mut impl Write,
        shared: &Shared,
        pool: &mut BufPool,
        tally: &mut WorkerTally,
        ring: usize,
    ) -> io::Result<bool> {
        #[cfg(test)]
        // ordering: Relaxed — test-only switch, set before any traffic.
        let acks_first = shared
            .flush_before_commit
            .load(std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(test))]
        let acks_first = false;
        if !acks_first {
            shared.commit_before_flush();
        }
        let drained = self.write_out(stream, tally);
        if acks_first {
            // MUTATION: the acks left first, the commit follows.
            shared.commit_before_flush();
        }
        shared.metrics.absorb(tally);
        if matches!(drained, Ok(true)) {
            self.finish_spans(shared, ring);
        }
        self.return_drained(pool);
        drained
    }

    /// Writes the unsent output with plain `write` calls until it is all
    /// sent or the socket would block. A partial write just advances the
    /// cursor. The calls are counted as one flush.
    fn write_out(&mut self, stream: &mut impl Write, tally: &mut WorkerTally) -> io::Result<bool> {
        let mut writes = 0;
        let drained = loop {
            if !self.has_pending_out() {
                break Ok(true);
            }
            writes += 1;
            match stream.write(&self.out[self.sent..]) {
                Ok(0) => {
                    break Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.sent += n,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break Ok(false),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => break Err(err),
            }
        };
        if writes > 0 {
            tally.flush(writes);
        }
        drained
    }

    /// Gives back whichever buffer has drained. The read buffer goes
    /// last, so the next borrower — usually the next cycle's read — takes
    /// the buffer already initialised to its full room.
    fn return_drained(&mut self, pool: &mut BufPool) {
        if !self.has_pending_out() {
            self.sent = 0;
            pool.put(std::mem::take(&mut self.out));
        }
        if self.pos >= self.filled {
            (self.pos, self.filled) = (0, 0);
            pool.put(std::mem::take(&mut self.input));
        }
    }

    /// Stamps the `flushed` phase on every span awaiting it and records
    /// them, as one batch, into `ring` of the flight recorder. The flush
    /// calls this once the output drains, and the reactor once more at
    /// close, so spans stuck behind a slow reader are not lost.
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
        kvlog!(
            LogLevel::Info,
            "idle_connection_evicted",
            timeout_ms = shared.idle_timeout.as_millis(),
        );
        self.out.extend_from_slice(b"SERVER_ERROR idle timeout\r\n");
        self.close_after_flush = true;
        self.refused = Some(RejectCause::IdleTimeout);
    }

    /// Readies the output for this call's replies: borrows a buffer if
    /// the connection holds none, and drops the sent prefix of a partly
    /// flushed one, so a reader that keeps up slowly cannot make it grow
    /// without bound.
    fn ready_out(&mut self, pool: &mut BufPool) {
        if self.out.capacity() == 0 {
            self.out = pool.take();
            self.out.clear();
        } else if self.sent > 0 {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Moves a partial command to the front of the read buffer, so the
    /// buffer only grows with what one command needs.
    fn keep_partial(&mut self) {
        if self.pos > 0 {
            self.input.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
    }

    /// Unsent output past which `process` takes no more commands and the
    /// reactor stops reading, so a client that does not read cannot make
    /// its replies pile up without bound.
    pub(crate) const OUT_HIGH_WATER: usize = 1 << 20;

    /// Consumes every complete command currently buffered, appending the
    /// replies to the output buffer (borrowed from `pool` if need be), and
    /// says what the reactor should do next. Run-to-completion: one call
    /// drains everything actionable, unless the unsent output passes
    /// [`Connection::OUT_HIGH_WATER`] first; then it stops, `backlogged`,
    /// and the next call resumes.
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
        pool: &mut BufPool,
        tally: &mut WorkerTally,
        now: Stamp,
    ) -> Step {
        if self.close_after_flush {
            if let Some(cause) = self.refused.take() {
                tally.add(Count::Rejected(cause), 1);
            }
            return Step::Close;
        }
        self.backlogged = false;
        if self.pos < self.filled {
            self.ready_out(pool);
        }
        let recorder = &shared.recorder;
        // A cycle that read nothing (a delay resume, a drain sweep) starts
        // its first command now, not when the bytes once arrived.
        let buffered_at = self.buffered_at.unwrap_or(now.at);
        let buffered_us = recorder.micros_since_boot(buffered_at);
        let mut started = buffered_at.max(now.at);
        let mut started_us = recorder.micros_since_boot(started);
        loop {
            // An in-force chaos delay pauses the whole connection —
            // pipelined commands behind the delayed one wait.
            if let Some(until) = self.delayed_until {
                if now.at < until {
                    return Step::Delayed(until);
                }
                self.delayed_until = None;
            }
            if self.pos >= self.filled {
                return if self.peer_eof {
                    Step::Close
                } else {
                    Step::NeedRead
                };
            }
            if self.pending_out_len() > Connection::OUT_HIGH_WATER {
                self.backlogged = true;
                return Step::NeedRead;
            }
            let newline = self.input[self.pos..self.filled]
                .iter()
                .position(|&b| b == b'\n');
            let (line_end, line_wire) = match newline {
                Some(n) => (self.pos + n, n + 1),
                // No newline yet: with the peer gone, hand the partial
                // line to the parser (what an un-timed blocking read did
                // at EOF); otherwise wait for the rest.
                None if self.peer_eof => (self.filled, self.filled - self.pos),
                None => {
                    self.keep_partial();
                    return Step::NeedRead;
                }
            };
            let mut line = &self.input[self.pos..line_end];
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
                                self.keep_partial();
                                return Step::NeedRead;
                            }
                            let start = self.pos + line_wire;
                            let terminator = &self.input[start + header.bytes..self.pos + needed];
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
                                &self.input[start..start + header.bytes],
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
                                    tally.add(Count::Fault(FaultKind::Delay), 1);
                                    let until = now.at + dur;
                                    self.fault_decided = true;
                                    self.delayed_until = Some(until);
                                    return Step::Delayed(until);
                                }
                                FaultAction::Error => {
                                    tally.add(Count::Fault(FaultKind::Error), 1);
                                    tally.add(Count::BytesRead(kind), wire_bytes);
                                    self.out
                                        .extend_from_slice(b"SERVER_ERROR injected fault\r\n");
                                    self.last_complete = now.at;
                                    self.pos += consumed;
                                    continue;
                                }
                                FaultAction::Drop => {
                                    // Vanish pre-response; replies already
                                    // buffered still flush on close.
                                    tally.add(Count::Fault(FaultKind::Drop), 1);
                                    tally.add(Count::BytesRead(kind), wire_bytes);
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
                    execute(
                        &command,
                        block,
                        &mut self.out,
                        shared,
                        Stamp {
                            at: started,
                            unix_secs: now.unix_secs,
                        },
                    );
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
                        tally.add(Count::SpanDropped, 1);
                    }
                    (started, started_us) = (executed_at, executed_us);
                    self.last_complete = executed_at;
                    self.pos += consumed;
                }
                Err(err) => {
                    tally.add(Count::BytesRead(CmdKind::Other), line_wire as u64);
                    tally.add(Count::ProtocolError, 1);
                    kvlog!(LogLevel::Debug, "protocol_error", error = err);
                    self.out.extend_from_slice(err.to_string().as_bytes());
                    self.out.extend_from_slice(b"\r\n");
                    self.pos += line_wire;
                    if err.is_fatal() {
                        // The refused data block is still on the wire;
                        // reading on would desync. Today
                        // the only fatal parse error is an oversize value.
                        tally.add(Count::Rejected(RejectCause::ValueTooLarge), 1);
                        return Step::Close;
                    }
                    self.last_complete = now.at;
                }
            }
        }
    }
}

/// A connection and everything a reactor worker would bring to it, with
/// no socket and no event loop: each [`Loopback::exchange`] takes the bytes
/// one readiness event would have delivered through exactly the path a
/// worker runs — parse, execute against a real store, tally, publish,
/// then the worker's own flush routine — and leaves the replies
/// in a buffer. It
/// exists so that path's cost per command can be measured apart from the
/// kernel's share of a request (`conn/process_pipeline32` in the hot-path
/// benchmarks).
#[derive(Debug)]
pub struct Loopback {
    shared: Shared,
    conn: Connection,
    pool: BufPool,
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
            pool: BufPool::default(),
            tally: WorkerTally::default(),
        })
    }

    /// Runs worker cycles over `input` until every complete command is
    /// answered, appending the replies to `replies` (which never blocks,
    /// so each flush drains and a backlog resumes at once).
    ///
    /// # Errors
    ///
    /// None in practice: a `Vec` sink accepts every write.
    pub fn exchange(&mut self, input: &[u8], replies: &mut Vec<u8>) -> io::Result<()> {
        self.conn.ingest(input, &mut self.pool);
        loop {
            self.conn
                .process(&self.shared, &mut self.pool, &mut self.tally, Stamp::now());
            self.shared.metrics.absorb(&mut self.tally);
            self.conn
                .flush(replies, &self.shared, &mut self.pool, &mut self.tally, 0)?;
            if !self.conn.backlogged {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::metrics::FaultKind;
    use crate::persist::{FsyncMode, Persist, PersistOptions};
    use crate::shard::ShardedStore;
    use crate::slab::SlabConfig;
    use crate::store::{EvictionMode, StoreConfig};
    use camp_core::Precision;
    use std::collections::VecDeque;
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
        let mut pool = BufPool::default();
        let mut tally = WorkerTally::default();
        let step = conn.process(shared, &mut pool, &mut tally, Stamp::now());
        shared.metrics.absorb(&mut tally);
        step
    }

    fn flushed(conn: &mut Connection, shared: &Shared) -> Vec<u8> {
        let mut sink = Vec::new();
        conn.flush(
            &mut sink,
            shared,
            &mut BufPool::default(),
            &mut WorkerTally::default(),
            0,
        )
        .expect("vec sink");
        sink
    }

    /// Hands `bytes` to the connection as one arrived fragment.
    fn feed(conn: &mut Connection, bytes: &[u8]) {
        conn.ingest(bytes, &mut BufPool::default());
    }

    /// One `fill_from` round from `io` with a throwaway pool.
    fn fill(conn: &mut Connection, io: &mut impl Read) -> Fill {
        conn.fill_from(io, &mut BufPool::default()).expect("fill")
    }

    #[test]
    fn pipelined_burst_yields_one_coalesced_reply_buffer() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        feed(
            &mut conn,
            b"set a 0 0 3\r\nAAA\r\nset b 0 0 3\r\nBBB\r\nget a b\r\n",
        );
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
            feed(&mut conn, &[byte]);
            assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        }
        feed(&mut conn, &wire[wire.len() - 1..]);
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
        feed(&mut conn, b"set k 0 0 5\r\nhel");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        let injected = shared.metrics.faults_snapshot();
        assert_eq!(
            injected.iter().map(|(_, n)| n).sum::<u64>(),
            0,
            "{injected:?}"
        );
        feed(&mut conn, b"lo\r\n");
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
        feed(&mut conn, b"set k 0 0 1\r\nx\r\n");
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
        feed(&mut conn, b"version");
        conn.peer_eof = true;
        assert_eq!(step(&mut conn, &shared), Step::Close);
        let reply = flushed(&mut conn, &shared);
        assert!(reply.starts_with(b"VERSION camp-kvs/"), "{reply:?}");
    }

    #[test]
    fn eof_mid_data_block_stores_nothing() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        feed(&mut conn, b"set gone 0 0 10\r\nhalf");
        conn.peer_eof = true;
        assert_eq!(step(&mut conn, &shared), Step::Close);
        assert_eq!(shared.store.len(), 0);
    }

    #[test]
    fn bad_block_terminator_closes_the_connection() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        feed(&mut conn, b"set a 0 0 3\r\nAAAXXget a\r\n");
        assert_eq!(step(&mut conn, &shared), Step::Close);
    }

    #[test]
    fn oversize_set_is_fatal_and_counted() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let line = format!("set big 0 0 {}\r\n", shared.max_value_len + 1);
        feed(&mut conn, line.as_bytes());
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
        feed(&mut conn, b"version\r\nquit\r\nget never-processed\r\n");
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
            assert_eq!(fill(&mut conn, &mut io), Fill::Open);
            step(&mut conn, &shared);
        }
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        // Drive the partial-write loop until fully flushed.
        let mut pool = BufPool::default();
        let mut tally = WorkerTally::default();
        let mut rounds = 0;
        while !conn
            .flush(&mut io, &shared, &mut pool, &mut tally, 0)
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
        let mut pool = BufPool::default();
        let mut tally = WorkerTally::default();
        let mut io = Scripted::new(vec![Ok(b"version\r\n".to_vec())]);
        assert_eq!(
            conn.fill_from(&mut io, &mut pool).expect("fill"),
            Fill::Open
        );
        assert_eq!(io.calls, 1, "no second read just to see EAGAIN");
        let read_buffer = conn.input.as_ptr();
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        let mut sink = Vec::new();
        assert!(conn
            .flush(&mut sink, &shared, &mut pool, &mut tally, 0)
            .expect("vec sink"));
        assert!(sink.starts_with(b"VERSION"));
        // The next readiness round borrows the same initialised buffer
        // back from the pool.
        let mut io = Scripted::new(vec![Ok(b"version\r\n".to_vec())]);
        assert_eq!(
            conn.fill_from(&mut io, &mut pool).expect("fill"),
            Fill::Open
        );
        assert_eq!(io.calls, 1);
        assert_eq!(
            conn.input.as_ptr(),
            read_buffer,
            "the read buffer came back"
        );
        assert_eq!(conn.input.len(), READ_CHUNK, "no regrowth between rounds");
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
        assert_eq!(fill(&mut conn, &mut io), Fill::Open);
        assert_eq!(io.calls, 2, "a full read may have left bytes behind");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        let reply = flushed(&mut conn, &shared);
        assert!(reply.starts_with(b"STORED\r\nVALUE big 0 16400\r\n"));
        // An interrupted read is retried, a would-block ends the round.
        let mut io = Scripted::new(vec![
            Err(io::ErrorKind::Interrupted.into()),
            Err(io::ErrorKind::WouldBlock.into()),
        ]);
        assert_eq!(fill(&mut conn, &mut io), Fill::Open);
        assert_eq!(io.calls, 2);
    }

    #[test]
    fn data_then_eof_over_two_rounds_still_reports_eof() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        // Round one: the final command, short, so the FIN behind it is
        // not looked for; level-triggered epoll raises the event again.
        let mut io = Scripted::new(vec![Ok(b"version".to_vec()), Ok(Vec::new())]);
        assert_eq!(fill(&mut conn, &mut io), Fill::Open);
        assert_eq!(io.calls, 1);
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(fill(&mut conn, &mut io), Fill::Eof);
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
        feed(&mut conn, b"get par");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert!(!conn.drain_closable());
        feed(&mut conn, b"tial\r\n");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert!(conn.has_pending_out());
        assert!(!conn.drain_closable());
        let _ = flushed(&mut conn, &shared);
        assert!(conn.drain_closable());
    }

    #[test]
    fn a_flush_resumes_at_the_right_byte_after_partial_writes() {
        /// Accepts at most `cap` bytes per write and blocks on every
        /// other call — a congested non-blocking socket.
        struct Congested {
            wrote: Vec<u8>,
            cap: usize,
            block_next: bool,
            calls: u64,
        }
        impl Write for Congested {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                self.block_next = !self.block_next;
                if !self.block_next {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = self.cap.min(buf.len());
                self.wrote.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut pool = BufPool::default();
        let mut tally = WorkerTally::default();
        let mut io = Congested {
            wrote: Vec::new(),
            cap: 700,
            block_next: false,
            calls: 0,
        };
        let mut expected = Vec::new();
        for fill in [b'a', b'b', b'c'] {
            conn.out.extend_from_slice(&[fill; 1000]);
            expected.extend_from_slice(&[fill; 1000]);
        }
        // One write lands mid-run, then the socket blocks.
        assert!(!conn
            .flush(&mut io, &shared, &mut pool, &mut tally, 0)
            .expect("flush"));
        assert_eq!((conn.sent, io.wrote.len()), (700, 700));
        // More replies join the unsent rest; the sent prefix goes first.
        feed(&mut conn, b"version\r\n");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(conn.sent, 0, "the sent prefix was dropped");
        assert_eq!(conn.pending_out_len(), conn.out.len());
        let mut flushes = 1;
        while !conn
            .flush(&mut io, &shared, &mut pool, &mut tally, 0)
            .expect("flush")
        {
            flushes += 1;
            assert!(flushes < 100, "flush failed to make progress");
        }
        flushes += 1;
        let (body, version) = io.wrote.split_at(expected.len());
        assert_eq!(body, &expected[..]);
        assert!(version.starts_with(b"VERSION "), "{version:?}");
        assert!(!conn.has_pending_out());
        // Each flush is one sample of the write calls it made, blocked
        // calls included.
        let counted = shared.metrics.flush_segments();
        assert_eq!((counted.count, counted.sum), (flushes, io.calls));
    }

    #[test]
    fn drained_buffers_return_to_the_pool_and_an_oversized_one_is_dropped() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        let mut pool = BufPool::default();
        // One worker cycle over `version`, all buffers from `pool`; the
        // reply grows past the pool's cap first if `oversize`.
        let cycle = |conn: &mut Connection, pool: &mut BufPool, oversize: bool| {
            let mut tally = WorkerTally::default();
            conn.ingest(b"version\r\n", pool);
            conn.process(&shared, pool, &mut tally, Stamp::now());
            assert!(conn.input.capacity() > 0 && conn.out.capacity() > 0);
            if oversize {
                conn.out.reserve(BufPool::MAX_CAP + 1);
            }
            assert!(conn
                .flush(&mut Vec::new(), &shared, pool, &mut tally, 0)
                .expect("vec sink"));
            // An idle connection holds neither buffer.
            assert_eq!((conn.input.capacity(), conn.out.capacity()), (0, 0));
        };
        cycle(&mut conn, &mut pool, false);
        assert_eq!(pool.free.len(), 2, "both buffers came back");
        cycle(&mut conn, &mut pool, true);
        assert_eq!(pool.free.len(), 1, "the oversized buffer was pooled");
        // Pooled buffers come back out ready to use.
        assert!(pool.take().capacity() > 0);
        assert!(pool.free.is_empty());
    }

    #[test]
    fn a_partial_command_keeps_its_read_buffer_at_the_front() {
        let shared = test_shared(None);
        let mut conn = Connection::new(1, &shared);
        feed(&mut conn, b"version\r\nget par");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert!(flushed(&mut conn, &shared).starts_with(b"VERSION"));
        assert_eq!(&conn.input[conn.pos..conn.filled], b"get par");
        assert_eq!(conn.pos, 0, "the partial line moved to the front");
        assert_eq!(conn.out.capacity(), 0, "the drained output went back");
        feed(&mut conn, b"tial\r\n");
        assert_eq!(step(&mut conn, &shared), Step::NeedRead);
        assert_eq!(flushed(&mut conn, &shared), b"END\r\n".to_vec());
        assert_eq!(conn.input.capacity(), 0, "the drained input went back");
    }

    /// A loopback over a data dir acknowledges a write only once a commit
    /// has carried it, as a worker does: the `set` it answered `STORED` is
    /// recovered from the directory after the loopback is gone.
    #[test]
    fn loopback_commits_before_it_acknowledges() {
        let dir = std::env::temp_dir().join(format!("camp-loopback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            slab: SlabConfig::small(64 * 1024, 8),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        };
        let mut options = ServerOptions::new(config.clone());
        options.persist = Some(PersistOptions {
            fsync: FsyncMode::Always,
            ..PersistOptions::new(&dir)
        });
        let mut loopback = Loopback::new(&options).expect("open the data dir");
        let mut replies = Vec::new();
        loopback
            .exchange(b"set k 0 0 5\r\nhello\r\n", &mut replies)
            .expect("vec sink");
        assert_eq!(replies, b"STORED\r\n".to_vec());
        drop(loopback);

        let recovered = ShardedStore::new(config, 1);
        Persist::open(PersistOptions::new(&dir), &FaultPlan::default(), &recovered)
            .expect("reopen the data dir");
        assert_eq!(
            recovered.get_with(b"k", |item| item.value.to_vec()),
            Some(b"hello".to_vec()),
            "an acknowledged set was never written"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
