//! The event loop: N run-to-completion workers multiplexing every
//! connection over [`Epoll`].
//!
//! # Worker model
//!
//! [`Reactor::start`] spawns one worker thread per listener, each owning
//! its *own* `SO_REUSEPORT` listener registered in its own epoll set: the
//! kernel load-balances incoming connections across the listeners, so
//! intake never crosses a thread boundary. A connection is *pinned* to
//! the worker whose listener accepted it for life, so per-connection
//! state is never shared and needs no locks. The `--max-conns` slot
//! reservation is a CAS on the shared counter, so the cap is exact even
//! when several workers accept a burst concurrently. Each worker also
//! holds the read half of a `UnixStream` wake-up pair in its epoll set;
//! it delivers the drain and sever signals, which makes SIGINT/SIGTERM a
//! reactor-visible event.
//!
//! # Batched events, tokens and timers
//!
//! Each `epoll_wait` wakeup drains up to [`EVENT_BATCH`] events into a
//! per-worker run queue and stamps **one** [`Stamp`] (monotonic clock and
//! wall-clock second) for the whole batch: connection cycles triggered by
//! the batch share it for chaos-delay checks, liveness stamps and item
//! expiry, and each command then costs one further clock read — its end,
//! which is the next command's start. Everything a worker counts goes into
//! its own [`WorkerTally`]: a cycle's latencies, bytes, flush sizes,
//! dropped spans, rejections and faults, and the reactor's own accepts,
//! wakeups, events, gathered cycles, write pauses, timer fires and
//! connections opened and closed; the live-connection gauge is the
//! arena's length. The worker publishes the tally into its row of the
//! shared metrics before a cycle's replies are flushed, and before each
//! blocking `epoll_wait` if it counted anything since: a `stats` reader
//! never misses a count behind a reply, and reactor counts never wait for
//! some connection's next cycle. Connections live in
//! a [`camp_core::arena::Arena`]; the epoll registration token packs the
//! connection's [`EntryId`] as `(generation << 32) | index`, so a stale
//! event for a recycled slot is recognized and dropped — the run queue,
//! the parked list and the timers hold `EntryId`s too, and re-validate
//! them at run time, which also covers connections closed earlier in the
//! same batch. Each worker also owns one [`BufPool`]: a connection borrows
//! a read buffer from it while it holds input and an output buffer while
//! it holds replies, so thousands of idle connections cost the worker no
//! buffer memory. Each worker owns a [`Timers`] heap driving three deadline
//! kinds: slowloris idle eviction, chaos delay resumes, and the 50 ms
//! drain sweep. The epoll wait timeout is derived from the heap's earliest
//! deadline, so a worker with nothing due blocks fully.
//!
//! # Park, commit, flush
//!
//! Under `--data-dir` a reply may not leave before the record it
//! acknowledges has been handed to the kernel — and, under `--fsync
//! always`, is on stable storage. Handlers only *encode* their records
//! into the log's pending buffer; the barrier is what writes them. A
//! connection's cycle therefore splits at the flush, in every `--fsync`
//! mode: after `process`, if [`Shared::needs_commit`] says uncommitted
//! records exist, the cycle *parks* the connection (`(id, step)` and a
//! flag on its entry), whatever started the cycle. While anything is
//! parked the worker polls with a zero timeout instead of sleeping, and
//! what is ready runs and may park too; a parked connection's events are
//! skipped (level-triggered, they come back) and its timers re-armed.
//! Once a poll finds nothing to run, or the group has filled
//! [`EVENT_BATCH`] event slots, the worker finishes the parked
//! connections in order. Every reply leaves through one routine,
//! [`Connection::flush`] — commit, write, publish, stamp spans — whether
//! a cycle finishes, a connection closes or the sever sweeps it, so the
//! first parked flush issues one `write` (and under `always` one sync) for
//! every record the group appended, and the rest find nothing owed.
//! Without `--data-dir`, or when nothing is pending, the check is one
//! lock-free load that reads `false` and the worker sleeps as before.
//!
//! # Drain and sever
//!
//! When a drain begins, each worker closes its listener *first* — no
//! socket may be accepted after SIGTERM — then closes every connection
//! with empty buffers immediately and keeps sweeping on the drain tick;
//! connections mid-command finish and close at the next boundary. A
//! connection holding a partial command line is deliberately not
//! drain-closable (it is severed at the deadline, and the
//! stuck-connection chaos test counts on it). When the server's
//! drain deadline expires it sets the sever flag: workers close
//! everything left, counting each into [`Reactor::severed`], and exit.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use camp_core::arena::{Arena, EntryId};
use camp_telemetry::{kvlog, LogLevel};

use crate::metrics::{Count, WorkerTally};
use crate::net::conn::{BufPool, Connection, Step};
use crate::net::epoll::{
    Epoll, EpollEvent, ReusePortListener, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
};
use crate::net::timer::Timers;
use crate::server::{Shared, Stamp};

/// Epoll token reserved for the worker's wake-up stream.
const WAKE_TOKEN: u64 = u64::MAX;
/// Epoll token reserved for the worker's own `SO_REUSEPORT` listener.
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Events fetched per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Cap on sockets accepted per listener-readiness round, so an accept
/// storm cannot starve the worker's established connections.
const ACCEPT_ROUND_MAX: usize = 256;
/// Upper bound on a worker's sleep even with no timers due.
const MAX_PARK: Duration = Duration::from_secs(1);
/// Drain sweep cadence.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// State shared between the server handle and the workers.
#[derive(Debug)]
struct ReactorShared {
    /// Set at the drain deadline: workers close whatever remains.
    sever: AtomicBool,
    /// Connections forcibly closed by the sever.
    severed: AtomicU64,
}

/// The running reactor: worker threads plus their shared channels.
#[derive(Debug)]
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    /// Write half of each worker's wake-up pair (nonblocking: a full pipe
    /// means a wake-up is already pending, which is all we need).
    wakes: Vec<UnixStream>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Spawns one event-loop thread per listener, each worker accepting
    /// from its own `SO_REUSEPORT` listener inside its own epoll set.
    pub(crate) fn start(
        shared: &Arc<Shared>,
        listeners: Vec<ReusePortListener>,
    ) -> io::Result<Reactor> {
        let mut wakes = Vec::with_capacity(listeners.len());
        let mut wake_readers = Vec::with_capacity(listeners.len());
        for _ in 0..listeners.len() {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            wakes.push(tx);
            wake_readers.push(rx);
        }
        let rshared = Arc::new(ReactorShared {
            sever: AtomicBool::new(false),
            severed: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(listeners.len());
        for (index, (listener, wake_rx)) in listeners.into_iter().zip(wake_readers).enumerate() {
            let mut worker = Worker::new(
                index,
                Arc::clone(shared),
                Arc::clone(&rshared),
                wake_rx,
                listener,
            )?;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("camp-kvs-worker-{index}"))
                    .spawn(move || worker.run())?,
            );
        }
        kvlog!(LogLevel::Info, "reactor_started", workers = workers.len());
        Ok(Reactor {
            shared: rshared,
            wakes,
            workers,
        })
    }

    /// Wakes every worker (drain began, or state to re-check).
    pub(crate) fn wake_all(&self) {
        for mut wake in &self.wakes {
            let _ = wake.write(&[1]);
        }
    }

    /// Orders workers to sever whatever is left, joins them, and returns
    /// how many connections were forcibly closed. Idempotent: a second
    /// call finds no workers and reports the same count.
    pub(crate) fn sever_and_join(&mut self) -> u64 {
        // ordering: SeqCst — shutdown control plane: rare, and the
        // simplest reasoning wins over saving a fence at shutdown time.
        self.shared.sever.store(true, Ordering::SeqCst);
        self.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // ordering: SeqCst — reads after join(), which already ordered
        // everything; SeqCst for uniformity with the other sever fields.
        self.shared.severed.load(Ordering::SeqCst)
    }
}

/// A connection's entry: the protocol state machine plus its socket and
/// current epoll interest.
#[derive(Debug)]
struct SlotEntry {
    conn: Connection,
    stream: TcpStream,
    interest: u32,
    /// Processed, its replies waiting in `Worker::parked` for the commit.
    parked: bool,
}

/// Timer payloads; arena handles make cancellation lazy — a fired timer
/// for a closed connection no longer resolves and is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Idle(EntryId),
    Resume(EntryId),
    DrainTick,
}

/// A connection's epoll token: its handle as `(generation << 32) | index`.
fn token_of(id: EntryId) -> u64 {
    (u64::from(id.generation()) << 32) | u64::from(id.index())
}

/// `epoll_wait`'s timeout for a sleep of `until_due`, rounded up to whole
/// milliseconds so the timeout never ends before the deadline it waits
/// for (truncating would wake the worker with nothing due).
fn wait_ms(until_due: Duration) -> i32 {
    i32::try_from(until_due.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
}

/// What a processing cycle decided to do with the connection.
enum After {
    Keep(u32),
    Close,
}

struct Worker {
    index: usize,
    shared: Arc<Shared>,
    rshared: Arc<ReactorShared>,
    epoll: Epoll,
    wake_rx: UnixStream,
    /// This worker's own accept socket (`None` once a drain closed it).
    listener: Option<ReusePortListener>,
    conns: Arena<SlotEntry>,
    timers: Timers<Timer>,
    /// The buffers this worker lends its connections.
    pool: BufPool,
    /// What this worker has counted and not yet published.
    tally: WorkerTally,
    /// Connections with events pending from the current batch; entries
    /// re-validate their handle when run.
    run_queue: Vec<EntryId>,
    /// Connections whose replies wait behind the ack barrier: processed,
    /// not yet flushed. Entries re-validate their handle when finished.
    parked: Vec<(EntryId, Step)>,
    /// The drain sweep tick has been armed since the drain began.
    drain_armed: bool,
}

impl Worker {
    fn new(
        index: usize,
        shared: Arc<Shared>,
        rshared: Arc<ReactorShared>,
        wake_rx: UnixStream,
        listener: ReusePortListener,
    ) -> io::Result<Worker> {
        let epoll = Epoll::new()?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTEN_TOKEN)?;
        Ok(Worker {
            index,
            shared,
            rshared,
            epoll,
            wake_rx,
            listener: Some(listener),
            conns: Arena::new(),
            timers: Timers::default(),
            pool: BufPool::default(),
            tally: WorkerTally::new(index),
            run_queue: Vec::new(),
            parked: Vec::new(),
            drain_armed: false,
        })
    }

    fn run(&mut self) {
        let mut events = [EpollEvent::default(); EVENT_BATCH];
        // Event slots the parked group may still fill before its commit.
        let mut room = EVENT_BATCH;
        loop {
            // Replies wait on a commit: poll, so whatever is ready joins it.
            let gathering = !self.parked.is_empty();
            let timeout = if gathering {
                0
            } else {
                // About to sleep: publish what waits in the tally first.
                self.shared.metrics.absorb(&mut self.tally);
                self.park_timeout()
            };
            let n = match self.epoll.wait(&mut events[..room], timeout) {
                Ok(n) => n,
                Err(err) => {
                    kvlog!(LogLevel::Error, "reactor_wait_failed", error = err);
                    break;
                }
            };
            // One stamp per batch: every cycle this wakeup triggers shares
            // it instead of re-reading the clocks per event.
            let now = Stamp::now();
            let mut accept_ready = false;
            for event in &events[..n] {
                let token = event.token();
                if token == WAKE_TOKEN {
                    self.drain_wakeups();
                } else if token == LISTEN_TOKEN {
                    accept_ready = true;
                } else {
                    self.enqueue(token, event.readiness());
                }
            }
            let ran = self.run_queued(now);
            if gathering {
                self.tally.add(Count::Gathered, ran as u64);
            } else if n > 0 {
                self.tally.add(Count::Wakeup, 1);
            }
            room -= ran;
            // The group is complete once a poll finds nothing more to run,
            // or it has filled one wakeup's worth of event slots.
            if self.parked.is_empty() || (gathering && ran == 0) || room == 0 {
                self.finish_parked();
                room = EVENT_BATCH;
            }
            if accept_ready {
                self.accept_ready(now);
            }
            self.fire_timers(Stamp {
                at: Instant::now(),
                ..now
            });
            // ordering: SeqCst — shutdown/sever control plane: rare, and the
            // simplest reasoning wins over saving a fence at drain time.
            if self.shared.draining.load(Ordering::SeqCst) {
                self.on_draining();
            }
            if self.rshared.sever.load(Ordering::SeqCst) {
                self.sever_all();
                break;
            }
        }
        kvlog!(
            LogLevel::Debug,
            "reactor_worker_stopped",
            worker = self.index,
        );
    }

    /// How long the epoll wait may block, bounded by the next timer.
    fn park_timeout(&self) -> i32 {
        let until_due = self
            .timers
            .next_timeout(Instant::now())
            .unwrap_or(MAX_PARK)
            .min(MAX_PARK);
        wait_ms(until_due)
    }

    fn drain_wakeups(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Queues a connection event from the current batch. Hard errors on
    /// delayed connections close immediately; everything else defers to
    /// [`Worker::run_queued`] so the whole batch shares one timestamp.
    fn enqueue(&mut self, token: u64, readiness: u32) {
        // Stale if the slot is vacant or holds a newer connection: the
        // token's own closed earlier in this batch.
        let id = self.conns.id_at(token as u32);
        let Some(id) = id.filter(|&id| token_of(id) == token) else {
            return;
        };
        let Some(entry) = self.conns.get(id) else {
            return;
        };
        // A delayed connection has no read interest; an ERR/HUP event for
        // it would re-fire level-triggered until the resume. Close now —
        // the peer is gone anyway.
        if entry.conn.delayed_until.is_some() && readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(id, false);
            return;
        }
        // A parked connection waits for its commit; level-triggered
        // readiness reports this event again after it.
        if !entry.parked {
            self.run_queue.push(id);
        }
    }

    /// Runs every connection queued from the current batch, re-validating
    /// each handle — an earlier cycle may have closed a connection that
    /// still has a queued entry — and returns how many ran.
    fn run_queued(&mut self, now: Stamp) -> usize {
        if self.run_queue.is_empty() {
            return 0;
        }
        let queue = std::mem::take(&mut self.run_queue);
        self.tally.add(Count::Event, queue.len() as u64);
        let mut ran = 0;
        for &id in &queue {
            if self.conns.contains(id) {
                self.cycle(id, now);
                ran += 1;
            }
        }
        // Hand the allocation back for the next batch.
        let mut queue = queue;
        queue.clear();
        self.run_queue = queue;
        ran
    }

    /// Finishes every connection parked behind the ack barrier. The first
    /// commit writes (and under `always` syncs) for the whole group, and
    /// for whatever other workers appended meanwhile; the rest see nothing
    /// owed.
    fn finish_parked(&mut self) {
        let mut parked = std::mem::take(&mut self.parked);
        for (id, step) in parked.drain(..) {
            if self.finish(id, step) {
                self.cycle(id, Stamp::now());
            }
        }
        // A resumed backlog may have parked again: keep it for the next
        // group.
        if self.parked.is_empty() {
            self.parked = parked;
        }
    }

    /// The worker's own listener is readable: accept until it would
    /// block (or the round cap).
    fn accept_ready(&mut self, now: Stamp) {
        for _ in 0..ACCEPT_ROUND_MAX {
            // ordering: SeqCst(x3) — shutdown/drain/sever control plane;
            // see the event-loop checks.
            if self.shared.shutdown.load(Ordering::SeqCst)
                || self.shared.draining.load(Ordering::SeqCst)
                || self.rshared.sever.load(Ordering::SeqCst)
            {
                self.close_listener();
                return;
            }
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            let stream = match listener.accept() {
                Ok(Some(stream)) => stream,
                Ok(None) => return,
                Err(err) => {
                    kvlog!(LogLevel::Warn, "reactor_accept_failed", error = err);
                    return;
                }
            };
            self.tally.add(Count::Accept, 1);
            self.register(stream, now);
        }
    }

    /// Closes and deregisters this worker's listener (drain began or the
    /// reactor is severing): nothing may be accepted past this point.
    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
            kvlog!(
                LogLevel::Debug,
                "reactor_listener_closed",
                worker = self.index,
            );
        }
    }

    /// Installs an accepted socket in the arena: nonblocking + nodelay,
    /// the `--max-conns` slot reservation (a CAS on the shared gauge, so
    /// bursts across several workers still reject exactly — a socket past
    /// the cap gets the overload reply from [`Connection::rejected`] and
    /// is never counted), epoll registration, idle timer, and one
    /// immediate cycle.
    fn register(&mut self, stream: TcpStream, now: Stamp) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let conn = if self.shared.conns.try_reserve() {
            // ordering: Relaxed — unique-id counter; uniqueness needs only
            // atomicity.
            let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
            Connection::new(id, &self.shared)
        } else {
            Connection::rejected(&self.shared)
        };
        let counted = conn.counted;
        let fd = stream.as_raw_fd();
        let id = self.conns.insert(SlotEntry {
            conn,
            stream,
            interest: EPOLLIN,
            parked: false,
        });
        if let Err(err) = self.epoll.add(fd, EPOLLIN, token_of(id)) {
            kvlog!(LogLevel::Warn, "reactor_register_failed", error = err);
            self.conns.remove(id);
            if counted {
                self.shared.conns.release();
            }
            return;
        }
        self.tally.live(self.conns.len());
        if counted {
            self.tally.add(Count::Opened, 1);
            if !self.shared.idle_timeout.is_zero() {
                self.timers
                    .schedule(now.at + self.shared.idle_timeout, Timer::Idle(id));
            }
        }
        // Run one cycle right away: fast clients may already have a
        // command in the socket buffer, and rejections flush-and-close
        // without waiting for an event.
        self.cycle(id, now);
    }

    /// Runs [`Worker::cycle_once`] until the connection neither parks nor
    /// has a backlog whose flush drained: such a backlog goes round again
    /// at once.
    fn cycle(&mut self, id: EntryId, mut now: Stamp) {
        while self.cycle_once(id, now) {
            now = Stamp::now();
        }
    }

    /// One run-to-completion round for a connection: fill from the
    /// socket, process every complete command, publish what that counted,
    /// then [`Worker::finish`] — at once, or, when its replies wait on the
    /// ack barrier, after the group's one commit (see the module docs).
    /// Returns what `finish` does.
    fn cycle_once(&mut self, id: EntryId, now: Stamp) -> bool {
        let step = {
            let Some(entry) = self.conns.get_mut(id) else {
                return false;
            };
            let conn = &mut entry.conn;
            // Read only when the machine can make use of bytes: not while
            // closing, not mid-delay, not with answers owed or past the
            // write high-water mark.
            let readable = !conn.close_after_flush
                && conn.delayed_until.is_none()
                && !conn.peer_eof
                && !conn.backlogged
                && conn.pending_out_len() <= Connection::OUT_HIGH_WATER;
            let filled = if readable {
                conn.fill_from(&mut entry.stream, &mut self.pool)
                    .map(|_| ())
            } else {
                Ok(())
            };
            match filled {
                Ok(()) => Some(conn.process(&self.shared, &mut self.pool, &mut self.tally, now)),
                Err(err) => {
                    kvlog!(LogLevel::Debug, "connection_error", error = err);
                    None
                }
            }
        };
        // Before any reply of this cycle can leave: whoever reads one can
        // already read the counters it moved.
        self.shared.metrics.absorb(&mut self.tally);
        let Some(step) = step else {
            self.close(id, false);
            return false;
        };
        if self.shared.needs_commit() {
            if let Some(entry) = self.conns.get_mut(id) {
                entry.parked = true;
            }
            self.parked.push((id, step));
            return false;
        }
        self.finish(id, step)
    }

    /// The second half of a cycle: flush the coalesced replies (which
    /// commits what they acknowledge first), then re-derive epoll interest
    /// from `step`. Returns true if the connection has answers owed and
    /// the socket took every byte: its cycle goes on at once.
    fn finish(&mut self, id: EntryId, step: Step) -> bool {
        // ordering: SeqCst — drain control plane; see the event-loop checks.
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let Some(entry) = self.conns.get_mut(id) else {
            return false;
        };
        entry.parked = false;
        let conn = &mut entry.conn;
        let flushed = conn.flush(
            &mut entry.stream,
            &self.shared,
            &mut self.pool,
            &mut self.tally,
            self.index,
        );
        let after = match (flushed, step) {
            (Err(err), _) => {
                kvlog!(LogLevel::Debug, "connection_error", error = err);
                After::Close
            }
            (Ok(true), Step::Close) => After::Close,
            (Ok(false), Step::Close) => {
                conn.close_after_flush = true;
                After::Keep(EPOLLOUT)
            }
            (Ok(flushed), Step::Delayed(until)) => {
                self.timers.schedule(until, Timer::Resume(id));
                After::Keep(if flushed { 0 } else { EPOLLOUT })
            }
            (Ok(flushed), Step::NeedRead) => {
                if (conn.close_after_flush && flushed) || (draining && conn.drain_closable()) {
                    After::Close
                } else if conn.backlogged && flushed {
                    return true;
                } else if !conn.backlogged && conn.pending_out_len() <= Connection::OUT_HIGH_WATER {
                    After::Keep(if flushed { EPOLLIN } else { EPOLLIN | EPOLLOUT })
                } else {
                    // Past the high-water mark, or answers owed behind
                    // it: read nothing until the peer drains some output.
                    self.tally.add(Count::WritePause, 1);
                    After::Keep(EPOLLOUT)
                }
            }
        };
        match after {
            After::Close => self.close(id, false),
            After::Keep(interest) => self.set_interest(id, interest),
        }
        false
    }

    fn set_interest(&mut self, id: EntryId, desired: u32) {
        let Some(entry) = self.conns.get_mut(id) else {
            return;
        };
        if entry.interest == desired {
            return;
        }
        if self
            .epoll
            .modify(entry.stream.as_raw_fd(), desired, token_of(id))
            .is_ok()
        {
            entry.interest = desired;
        }
    }

    /// Closes a connection and recycles its slot; `severed` marks a
    /// forced close at the drain deadline.
    fn close(&mut self, id: EntryId, severed: bool) {
        // The removal bumps the slot's generation, which invalidates
        // in-flight tokens and pending timers.
        let Some(mut entry) = self.conns.remove(id) else {
            return;
        };
        self.tally.live(self.conns.len());
        if entry.conn.counted {
            self.shared.conns.release();
            self.tally.add(Count::Closed, 1);
            if severed {
                // ordering: SeqCst — sever accounting read back after join.
                self.rshared.severed.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Best-effort farewell flush, behind the ack barrier like any
        // other flush, which also publishes the counts above; then
        // dropping the stream closes the fd, which also deregisters it
        // from epoll.
        let conn = &mut entry.conn;
        let _ = conn.flush(
            &mut entry.stream,
            &self.shared,
            &mut self.pool,
            &mut self.tally,
            self.index,
        );
        // Spans still awaiting their flushed stamp get it now rather than
        // being lost with the connection.
        conn.finish_spans(&self.shared, self.index);
        if severed {
            let _ = entry.stream.shutdown(std::net::Shutdown::Both);
        }
        drop(entry);
    }

    fn fire_timers(&mut self, now: Stamp) {
        let mut due = Vec::new();
        self.timers.expire(now.at, &mut due);
        self.tally.add(Count::TimerFire, due.len() as u64);
        for timer in due {
            match timer {
                // Its replies wait on the commit: try again after it.
                Timer::Idle(id) | Timer::Resume(id)
                    if self.conns.get(id).is_some_and(|e| e.parked) =>
                {
                    self.timers.schedule(now.at, timer);
                }
                Timer::Idle(id) => self.fire_idle(id, now),
                Timer::Resume(id) => {
                    if self.conns.contains(id) {
                        self.cycle(id, now);
                    }
                }
                Timer::DrainTick => {
                    self.drain_armed = false;
                }
            }
        }
    }

    /// The idle deadline fired: evict if the connection really has been
    /// idle the whole time, else re-arm at the true deadline (completed
    /// commands push it forward).
    fn fire_idle(&mut self, id: EntryId, now: Stamp) {
        let deadline = match self.conns.get(id) {
            Some(entry) if !entry.conn.close_after_flush => {
                entry.conn.last_complete + self.shared.idle_timeout
            }
            _ => return,
        };
        if now.at >= deadline {
            if let Some(entry) = self.conns.get_mut(id) {
                entry.conn.evict_idle(&self.shared);
            }
            self.cycle(id, now);
        } else {
            self.timers.schedule(deadline, Timer::Idle(id));
        }
    }

    /// Drain housekeeping: close the listener *first* — nothing may be
    /// accepted after the drain begins — then close everything closable
    /// now, keeping a sweep tick armed for connections that become
    /// closable later.
    fn on_draining(&mut self) {
        self.close_listener();
        let closable: Vec<EntryId> = self
            .conns
            .iter()
            .filter(|(_, entry)| entry.conn.drain_closable())
            .map(|(id, _)| id)
            .collect();
        for id in closable {
            self.close(id, false);
        }
        if !self.conns.is_empty() && !self.drain_armed {
            self.timers
                .schedule(Instant::now() + DRAIN_TICK, Timer::DrainTick);
            self.drain_armed = true;
        }
    }

    /// The drain deadline passed: close the listener first (no accepts
    /// after the sever, even if the drain flag was never seen), then
    /// forcibly close every remaining connection (flushing what we can).
    fn sever_all(&mut self) {
        self.close_listener();
        let ids: Vec<EntryId> = self.conns.iter().map(|(id, _)| id).collect();
        for id in ids {
            self.close(id, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wait_rounds_up_to_whole_milliseconds() {
        assert_eq!(wait_ms(Duration::from_micros(1_900)), 2);
        assert_eq!(wait_ms(Duration::from_micros(1)), 1);
        assert_eq!(wait_ms(Duration::from_millis(3)), 3);
        assert_eq!(wait_ms(Duration::ZERO), 0);
        assert_eq!(wait_ms(MAX_PARK), 1000);
    }

    #[test]
    fn a_token_names_one_generation_of_one_slot() {
        let mut arena = Arena::new();
        let old = arena.insert(());
        arena.remove(old);
        let new = arena.insert(());
        assert_eq!(new.index(), old.index(), "the slot is recycled");
        // Both tokens decode to the slot, and only the live one matches.
        assert_eq!(arena.id_at(token_of(new) as u32), Some(new));
        assert_eq!(arena.id_at(token_of(old) as u32), Some(new));
        assert_ne!(token_of(new), token_of(old));
    }
}
