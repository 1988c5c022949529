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
//! which is the next command's start. What a cycle counts (per-command
//! latency and bytes, flush sizes, dropped spans) goes into the worker's
//! own [`WorkerTally`] and is published into the shared metrics once per
//! cycle, before the cycle's replies are flushed: a `stats` reader lags a
//! worker by at most one cycle and never past a reply. Connections live in a slot
//! table; the epoll registration token packs `(generation << 32) | slot`
//! so a stale event for a recycled slot is recognized and dropped —
//! queued entries re-validate the generation at run time, which also
//! covers slots closed earlier in the same batch. Each worker owns a
//! [`TimerWheel`] driving three deadline kinds: slowloris idle eviction,
//! chaos delay resumes, and the 50 ms drain sweep. The epoll wait timeout
//! is derived from the wheel, so a worker with nothing due blocks fully.
//!
//! # Park, commit, flush
//!
//! Under `--data-dir` a reply may not leave before the record it
//! acknowledges has been handed to the kernel — and, under `--fsync
//! always`, is on stable storage. Handlers only *encode* their records
//! into the log's pending buffer; the barrier is what writes them. A
//! connection's cycle therefore splits at the flush, in every `--fsync`
//! mode: after `process`, if [`Shared::needs_commit`] says uncommitted
//! records exist, a cycle that belongs to a batch *parks* the connection
//! (`(slot, gen, step)`) and moves on; once the whole run queue has been
//! processed the worker finishes the parked connections in order — commit,
//! flush, record spans, re-derive interest — so the first commit issues
//! one `write` (and under `always` one sync) for every record the wakeup
//! appended and the rest find nothing to do. A cycle outside a batch (a
//! fresh registration, a delay resume, an idle eviction) and the farewell
//! flushes of `close` and `sever_all` commit inline. Without `--data-dir`,
//! or when a connection's wakeup appended nothing and nothing else is
//! pending, the check is one lock-free load that reads `false` and the
//! cycle is the unsplit one.
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

use camp_telemetry::{kvlog, LogLevel};

use crate::metrics::WorkerTally;
use crate::net::conn::{Connection, SegmentPool, Step};
use crate::net::epoll::{
    Epoll, EpollEvent, ReusePortListener, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
};
use crate::net::timer::TimerWheel;
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
/// Unflushed-output level past which a connection stops being read,
/// so a slow-reading client cannot balloon its write buffer.
const OUT_HIGH_WATER: usize = 1 << 20;

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

/// A connection slot: the protocol state machine plus its socket and
/// current epoll interest.
#[derive(Debug)]
struct SlotEntry {
    conn: Connection,
    stream: TcpStream,
    interest: u32,
}

/// Timer payloads; slot/generation pairs make cancellation lazy — a
/// fired timer for a recycled slot is recognized and ignored.
#[derive(Debug, Clone, Copy)]
enum Timer {
    Idle { slot: usize, gen: u32 },
    Resume { slot: usize, gen: u32 },
    DrainTick,
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
    slots: Vec<Option<SlotEntry>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    wheel: TimerWheel<Timer>,
    /// Recycled output segments shared by this worker's connections.
    pool: SegmentPool,
    /// What this worker has counted and not yet published.
    tally: WorkerTally,
    /// Connections with events pending from the current batch; entries
    /// re-validate `(slot, gen)` when run.
    run_queue: Vec<(usize, u32)>,
    /// Connections of the current batch whose replies wait behind the
    /// `--fsync always` barrier: processed, not yet flushed. Entries
    /// re-validate `(slot, gen)` when finished.
    parked: Vec<(usize, u32, Step)>,
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
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            wheel: TimerWheel::new(Instant::now()),
            pool: SegmentPool::default(),
            tally: WorkerTally::default(),
            run_queue: Vec::new(),
            parked: Vec::new(),
            drain_armed: false,
        })
    }

    fn run(&mut self) {
        let mut events = [EpollEvent::default(); EVENT_BATCH];
        loop {
            let timeout = self.park_timeout();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(err) => {
                    kvlog!(LogLevel::Error, "reactor_wait_failed", error = err);
                    break;
                }
            };
            // One stamp per batch: every cycle this wakeup triggers shares
            // it instead of re-reading the clocks per event.
            let now = Stamp::now();
            if n > 0 {
                self.shared
                    .reactor_stats
                    .worker(self.index)
                    .epoll_wakeups
                    // ordering: Relaxed — statistics counter.
                    .fetch_add(1, Ordering::Relaxed);
            }
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
            self.run_queued(now);
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
            .wheel
            .next_timeout(Instant::now())
            .unwrap_or(MAX_PARK)
            .min(MAX_PARK);
        // Round up: sleeping 0 ms on a sub-millisecond deadline would spin.
        i32::try_from(until_due.as_millis()).unwrap_or(1000).max(1)
    }

    fn drain_wakeups(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Queues a connection event from the current batch. Hard errors on
    /// delayed connections close immediately; everything else defers to
    /// [`Worker::run_queued`] so the whole batch shares one timestamp.
    fn enqueue(&mut self, token: u64, readiness: u32) {
        let slot = usize::try_from(token & u32::MAX as u64).unwrap_or(usize::MAX);
        let gen = (token >> 32) as u32;
        if !self.is_live(slot, gen) {
            return; // stale: the slot was recycled within this batch
        }
        // A delayed connection has no read interest; an ERR/HUP event for
        // it would re-fire level-triggered until the resume. Close now —
        // the peer is gone anyway.
        let delayed = self.slots[slot]
            .as_ref()
            .is_some_and(|s| s.conn.delayed_until.is_some());
        if delayed && readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot, false);
            return;
        }
        self.run_queue.push((slot, gen));
    }

    /// Runs every connection queued from the current batch, re-validating
    /// `(slot, gen)` — an earlier cycle may have closed and recycled a
    /// slot that still has a queued entry.
    fn run_queued(&mut self, now: Stamp) {
        if self.run_queue.is_empty() {
            return;
        }
        let queue = std::mem::take(&mut self.run_queue);
        self.shared
            .reactor_stats
            .worker(self.index)
            .events_dispatched
            // ordering: Relaxed — statistics counter.
            .fetch_add(queue.len() as u64, Ordering::Relaxed);
        for &(slot, gen) in &queue {
            if self.is_live(slot, gen) {
                self.cycle(slot, now, true);
            }
        }
        // Hand the allocation back for the next batch.
        let mut queue = queue;
        queue.clear();
        self.run_queue = queue;
        self.finish_parked();
    }

    fn is_live(&self, slot: usize, gen: u32) -> bool {
        slot < self.slots.len() && self.gens[slot] == gen && self.slots[slot].is_some()
    }

    /// Finishes every connection the batch parked behind the ack barrier.
    /// The first commit writes (and under `always` syncs) for the whole
    /// wakeup, and for whatever other workers appended meanwhile; the rest
    /// see nothing owed.
    fn finish_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked);
        for (slot, gen, step) in parked.drain(..) {
            if !self.is_live(slot, gen) {
                continue;
            }
            #[cfg(test)]
            // ordering: Relaxed — test-only switch, set before any traffic.
            if self.shared.flush_before_commit.load(Ordering::Relaxed) {
                // MUTATION: the acks leave first, the commit follows.
                self.finish(slot, step);
                self.shared.commit_before_flush();
                continue;
            }
            self.shared.commit_before_flush();
            self.finish(slot, step);
        }
        self.parked = parked;
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
            self.shared
                .reactor_stats
                .worker(self.index)
                .accepts
                // ordering: Relaxed — statistics counter.
                .fetch_add(1, Ordering::Relaxed);
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

    /// Installs an accepted socket into a slot: nonblocking + nodelay,
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
            self.shared
                .metrics
                .connections_opened
                // ordering: Relaxed — statistics counter.
                .fetch_add(1, Ordering::Relaxed);
            // ordering: Relaxed — unique-id counter; uniqueness needs only
            // atomicity.
            let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
            Connection::new(id, &self.shared)
        } else {
            Connection::rejected(&self.shared)
        };
        let counted = conn.counted;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let token = (u64::from(self.gens[slot]) << 32) | slot as u64;
        if let Err(err) = self.epoll.add(stream.as_raw_fd(), EPOLLIN, token) {
            kvlog!(LogLevel::Warn, "reactor_register_failed", error = err);
            self.free.push(slot);
            if counted {
                self.shared.conns.release();
                self.shared
                    .metrics
                    .connections_opened
                    // ordering: Relaxed — statistics counter.
                    .fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
        self.slots[slot] = Some(SlotEntry {
            conn,
            stream,
            interest: EPOLLIN,
        });
        self.live += 1;
        self.shared
            .reactor_stats
            .worker(self.index)
            .live_connections
            // ordering: Relaxed — statistics counter.
            .fetch_add(1, Ordering::Relaxed);
        if counted && !self.shared.idle_timeout.is_zero() {
            self.wheel.schedule(
                now.at + self.shared.idle_timeout,
                Timer::Idle {
                    slot,
                    gen: self.gens[slot],
                },
            );
        }
        // Run one cycle right away: fast clients may already have a
        // command in the socket buffer, and rejections flush-and-close
        // without waiting for an event.
        self.cycle(slot, now, false);
    }

    /// One run-to-completion round for a connection: fill from the
    /// socket, process every complete command, publish what that counted,
    /// then [`Worker::finish`] — at once, or, for a `batched` cycle whose
    /// replies wait on the ack barrier, after the batch's one commit (see
    /// the module docs).
    fn cycle(&mut self, slot: usize, now: Stamp, batched: bool) {
        let step = {
            let Some(entry) = self.slots[slot].as_mut() else {
                return;
            };
            let conn = &mut entry.conn;
            // Read only when the machine can make use of bytes: not while
            // closing, not mid-delay, not past the write high-water mark.
            let readable = !conn.close_after_flush
                && conn.delayed_until.is_none()
                && !conn.peer_eof
                && conn.pending_out_len() <= OUT_HIGH_WATER;
            let filled = if readable {
                conn.fill_from(&mut entry.stream).map(|_| ())
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
            self.close(slot, false);
            return;
        };
        if batched {
            if self.shared.needs_commit() {
                self.parked.push((slot, self.gens[slot], step));
                return;
            }
        } else {
            self.shared.commit_before_flush();
        }
        self.finish(slot, step);
    }

    /// The second half of a cycle: flush the coalesced replies, stamp the
    /// spans they complete, then re-derive epoll interest from `step`.
    /// Whatever the replies acknowledge must be committed by now.
    fn finish(&mut self, slot: usize, step: Step) {
        let shared = Arc::clone(&self.shared);
        // ordering: SeqCst — drain control plane; see the event-loop checks.
        let draining = shared.draining.load(Ordering::SeqCst);
        let worker = self.index;
        let pool = &mut self.pool;
        let tally = &mut self.tally;
        let mut resume_at: Option<Instant> = None;
        let after = 'compute: {
            let Some(entry) = self.slots[slot].as_mut() else {
                return;
            };
            let conn = &mut entry.conn;
            let flushed = conn.flush_to(&mut entry.stream, pool, tally);
            // The flush counted itself; nothing stays unpublished while
            // the worker sleeps.
            shared.metrics.absorb(tally);
            let flushed = match flushed {
                Ok(flushed) => flushed,
                Err(err) => {
                    kvlog!(LogLevel::Debug, "connection_error", error = err);
                    break 'compute After::Close;
                }
            };
            if flushed {
                conn.finish_spans(&shared, worker);
            }
            match step {
                Step::Close => {
                    conn.close_after_flush = true;
                    if flushed {
                        After::Close
                    } else {
                        After::Keep(EPOLLOUT)
                    }
                }
                Step::Delayed(until) => {
                    resume_at = Some(until);
                    After::Keep(if flushed { 0 } else { EPOLLOUT })
                }
                Step::NeedRead => {
                    if (conn.close_after_flush && flushed) || (draining && conn.drain_closable()) {
                        After::Close
                    } else {
                        let mut interest = if flushed { 0 } else { EPOLLOUT };
                        if conn.pending_out_len() <= OUT_HIGH_WATER {
                            interest |= EPOLLIN;
                        } else {
                            // High-water mark hit: stop reading until the
                            // peer drains some output.
                            shared
                                .reactor_stats
                                .worker(worker)
                                .write_pauses
                                // ordering: Relaxed — statistics counter.
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        After::Keep(interest)
                    }
                }
            }
        };
        match after {
            After::Close => self.close(slot, false),
            After::Keep(interest) => self.set_interest(slot, interest),
        }
        if let Some(until) = resume_at {
            self.wheel.schedule(
                until,
                Timer::Resume {
                    slot,
                    gen: self.gens[slot],
                },
            );
        }
    }

    fn set_interest(&mut self, slot: usize, desired: u32) {
        let Some(entry) = self.slots[slot].as_mut() else {
            return;
        };
        if entry.interest == desired {
            return;
        }
        let token = (u64::from(self.gens[slot]) << 32) | slot as u64;
        if self
            .epoll
            .modify(entry.stream.as_raw_fd(), desired, token)
            .is_ok()
        {
            entry.interest = desired;
        }
    }

    /// Closes a connection and recycles its slot; `severed` marks a
    /// forced close at the drain deadline.
    fn close(&mut self, slot: usize, severed: bool) {
        let Some(mut entry) = self.slots[slot].take() else {
            return;
        };
        // Best-effort farewell flush, behind the ack barrier like any
        // other flush; then dropping the stream closes the fd, which also
        // deregisters it from epoll; the generation bump invalidates
        // in-flight tokens and pending timers.
        self.shared.commit_before_flush();
        let _ = entry
            .conn
            .flush_to(&mut entry.stream, &mut self.pool, &mut self.tally);
        self.shared.metrics.absorb(&mut self.tally);
        entry.conn.recycle_out(&mut self.pool);
        // Spans still awaiting their flushed stamp get it now rather than
        // being lost with the connection.
        entry.conn.finish_spans(&self.shared, self.index);
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        self.shared
            .reactor_stats
            .worker(self.index)
            .live_connections
            // ordering: Relaxed — statistics counter.
            .fetch_sub(1, Ordering::Relaxed);
        if entry.conn.counted {
            self.shared.conns.release();
            self.shared
                .metrics
                .connections_closed
                // ordering: Relaxed — statistics counter.
                .fetch_add(1, Ordering::Relaxed);
            if severed {
                // ordering: SeqCst — sever accounting read back after join.
                self.rshared.severed.fetch_add(1, Ordering::SeqCst);
            }
        }
        drop(entry);
    }

    fn fire_timers(&mut self, now: Stamp) {
        let mut due = Vec::new();
        self.wheel.expire(now.at, &mut due);
        if !due.is_empty() {
            self.shared
                .reactor_stats
                .worker(self.index)
                .timer_fires
                // ordering: Relaxed — statistics counter.
                .fetch_add(due.len() as u64, Ordering::Relaxed);
        }
        for timer in due {
            match timer {
                Timer::Idle { slot, gen } => self.fire_idle(slot, gen, now),
                Timer::Resume { slot, gen } => {
                    if self.is_live(slot, gen) {
                        self.cycle(slot, now, false);
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
    fn fire_idle(&mut self, slot: usize, gen: u32, now: Stamp) {
        if slot >= self.slots.len() || self.gens[slot] != gen {
            return;
        }
        let deadline = match self.slots[slot].as_mut() {
            Some(entry) if !entry.conn.close_after_flush => {
                entry.conn.last_complete + self.shared.idle_timeout
            }
            _ => return,
        };
        if now.at >= deadline {
            if let Some(entry) = self.slots[slot].as_mut() {
                entry.conn.evict_idle(&self.shared);
            }
            self.cycle(slot, now, false);
        } else {
            self.wheel.schedule(deadline, Timer::Idle { slot, gen });
        }
    }

    /// Drain housekeeping: close the listener *first* — nothing may be
    /// accepted after the drain begins — then close everything closable
    /// now, keeping a sweep tick armed for connections that become
    /// closable later.
    fn on_draining(&mut self) {
        self.close_listener();
        let closable: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| {
                entry
                    .as_ref()
                    .filter(|e| e.conn.drain_closable())
                    .map(|_| slot)
            })
            .collect();
        for slot in closable {
            self.close(slot, false);
        }
        if self.live > 0 && !self.drain_armed {
            self.wheel
                .schedule(Instant::now() + DRAIN_TICK, Timer::DrainTick);
            self.drain_armed = true;
        }
    }

    /// The drain deadline passed: close the listener first (no accepts
    /// after the sever, even if the drain flag was never seen), then
    /// forcibly close every remaining connection (flushing what we can).
    fn sever_all(&mut self) {
        self.close_listener();
        self.shared.commit_before_flush();
        for slot in 0..self.slots.len() {
            if let Some(entry) = self.slots[slot].as_mut() {
                let _ = entry
                    .conn
                    .flush_to(&mut entry.stream, &mut self.pool, &mut self.tally);
                let _ = entry.stream.shutdown(std::net::Shutdown::Both);
                self.close(slot, true);
            }
        }
    }
}
