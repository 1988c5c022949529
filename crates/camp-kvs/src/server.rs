//! The TCP server: a Twemcache-like KVS speaking the text protocol.
//!
//! Connections are served by the epoll reactor ([`crate::net`]): N worker
//! event loops, each accepting from its own `SO_REUSEPORT` listener, over a
//! shared, hash-partitioned [`ShardedStore`]. [`Server::start`] uses a
//! single shard (one lock, the stock-Twemcache arrangement);
//! [`Server::start_sharded`] partitions keys over independently locked
//! shards — the paper's §4.1 vertical-scaling recipe, where threads
//! touching different partitions never contend.
//!
//! The IQ framework's cost computation lives here: `iqget` misses record a
//! timestamp, and a later `iqset` for the same key uses the elapsed
//! microseconds as the pair's cost — "the difference between these two
//! timestamps is used as the cost of the key-value pair" (§4) — unless the
//! client supplied an explicit cost hint. The miss registry is keyed by the
//! key's fingerprint and striped like the store's shards, so `iqget`/`iqset`
//! traffic on different shards never contends on a single registry lock,
//! and a command hashes its key once for the registry and the store alike.
//!
//! Every command is timed by the reactor worker that runs it, into that
//! worker's own tally, published into the shared per-command histograms
//! ([`ServerMetrics`]) once per connection cycle; `stats detail` reports
//! the quantiles and the policies' internal gauges, and
//! [`ServerOptions::metrics_addr`] additionally serves the whole
//! [`TelemetryReport`] as Prometheus text over plain HTTP for scraping.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use camp_telemetry::{duration_micros, kvlog, FlightRecorder, LogLevel, RequestSpan};

use crate::fault::FaultPlan;
use crate::fingerprint::FingerprintMap;
use crate::metrics::{CmdKind, ReactorStats, RecorderSink, ServerMetrics, TelemetryReport};
use crate::net::epoll::ReusePortListener;
use crate::net::reactor::Reactor;
use crate::persist::{IoBackend, Persist};
use crate::protocol::{Command, SetHeader, SetVerb, StatsScope, DEFAULT_MAX_VALUE_LEN};
use crate::shard::ShardedStore;
use crate::store::{unix_now, StoreConfig, StoreError, StoreStats};
use crate::sync::{lock, ConnGauge};

/// How long an unmatched `iqget` miss is remembered. A client that never
/// issues the paired `iqset` (crashed, gave up) would otherwise leak its
/// registry entry forever; the sweep drops entries past this age.
const IQ_MISS_TTL: Duration = Duration::from_secs(120);

/// Most unmatched misses one registry stripe remembers (~2 MiB of
/// fixed-size entries). Past it, new misses go unrecorded — their `iqset`
/// falls back to its hint or cost 0, as for an expired entry — so an
/// `iqget`-only client walking unique keys cannot grow the registry
/// without limit inside one TTL period.
const IQ_STRIPE_CAP: usize = 1 << 16;

/// Shortest gap between sweeps of a *full* stripe: a full stripe sweeps
/// ahead of the TTL schedule, but not on every miss (a sweep is O(cap)).
const IQ_FULL_SWEEP_GAP: Duration = Duration::from_secs(1);

/// Default drain deadline for [`Server::shutdown`].
const DEFAULT_DRAIN: Duration = Duration::from_secs(5);

/// The two clocks a command may consult, read by the reactor rather than
/// by the command: `at` is when the command's turn began (the previous
/// command's end, or the arrival of the bytes for the first of a cycle),
/// `unix_secs` the wall clock as of the reactor wakeup that is serving it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    pub(crate) at: Instant,
    pub(crate) unix_secs: u64,
}

impl Stamp {
    /// Reads both clocks.
    pub(crate) fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            unix_secs: unix_now(),
        }
    }
}

/// One lock-striped partition of the IQ miss registry.
#[derive(Debug)]
struct IqStripe {
    misses: FingerprintMap<Instant>,
    last_sweep: Instant,
}

/// IQ miss registry: key fingerprint -> time of the `iqget` miss,
/// partitioned into one stripe per store shard (indexed by
/// [`ShardedStore::shard_of`], so a key's registry stripe and store shard
/// are guarded by different locks but partition identically). Two keys
/// sharing a fingerprint share a timer: the later `iqset` measures from the
/// later miss, a cost error no larger than the gap between the two misses.
#[derive(Debug)]
struct IqRegistry {
    stripes: Vec<Mutex<IqStripe>>,
    /// Entries dropped by the TTL sweep, cumulatively (a `stats detail` /
    /// exposition gauge: it measures clients that armed the cost timer and
    /// never came back).
    swept: AtomicU64,
    /// Misses not recorded because their stripe was full of live entries.
    dropped: AtomicU64,
}

impl IqRegistry {
    fn new(stripes: usize) -> IqRegistry {
        IqRegistry {
            stripes: (0..stripes)
                .map(|_| {
                    Mutex::new(IqStripe {
                        misses: FingerprintMap::default(),
                        last_sweep: Instant::now(),
                    })
                })
                .collect(),
            swept: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a miss at time `now`, sweeping the stripe's expired entries
    /// once per TTL period, or sooner while it is full (amortized O(1) per
    /// record). A stripe still full after its sweep drops the miss.
    fn record_miss(&self, stripe: usize, fp: u64, now: Instant) {
        let mut guard = lock(&self.stripes[stripe]);
        // Saturating: `now` is the caller's stamp, which another worker's
        // later-stamped sweep or miss may already have passed.
        let since_sweep = now.saturating_duration_since(guard.last_sweep);
        let full = guard.misses.len() >= IQ_STRIPE_CAP;
        if since_sweep >= IQ_MISS_TTL || (full && since_sweep >= IQ_FULL_SWEEP_GAP) {
            let before = guard.misses.len();
            guard
                .misses
                .retain(|_, started| now.saturating_duration_since(*started) < IQ_MISS_TTL);
            let reclaimed = (before - guard.misses.len()) as u64;
            if reclaimed > 0 {
                // ordering: Relaxed — statistics counter.
                self.swept.fetch_add(reclaimed, Ordering::Relaxed);
            }
            guard.last_sweep = now;
        }
        if guard.misses.len() >= IQ_STRIPE_CAP && !guard.misses.contains_key(&fp) {
            // ordering: Relaxed — statistics counter.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        guard.misses.insert(fp, now);
    }

    /// Consumes the miss registered for `fp`, if any and not expired at
    /// `now`, returning how long ago it was.
    fn take(&self, stripe: usize, fp: u64, now: Instant) -> Option<Duration> {
        let started = lock(&self.stripes[stripe]).misses.remove(&fp)?;
        Some(now.saturating_duration_since(started)).filter(|&age| age < IQ_MISS_TTL)
    }

    fn discard(&self, stripe: usize, fp: u64) {
        lock(&self.stripes[stripe]).misses.remove(&fp);
    }

    fn clear(&self) {
        for stripe in &self.stripes {
            lock(stripe).misses.clear();
        }
    }

    /// Unmatched misses currently registered, across stripes.
    fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).misses.len()).sum()
    }
}

/// Shared server state (visible to the `net` reactor modules, which are
/// the other consumers of the command-execution layer).
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) store: ShardedStore,
    iq_misses: IqRegistry,
    pub(crate) metrics: ServerMetrics,
    pub(crate) shutdown: AtomicBool,
    /// Set when a drain begins: connections finish in-flight work and
    /// close at the next command boundary.
    pub(crate) draining: AtomicBool,
    /// Live-connection gauge enforcing `max_conns` (slot reservation).
    pub(crate) conns: ConnGauge,
    /// Connection-id allocator (also seeds per-connection fault streams).
    pub(crate) next_conn_id: AtomicU64,
    /// Accept cap (0 = unlimited).
    pub(crate) max_conns: usize,
    /// Declared-length cap on set data blocks.
    pub(crate) max_value_len: usize,
    /// Idle eviction deadline measured from the last *completed* command
    /// (`ZERO` = disabled).
    pub(crate) idle_timeout: Duration,
    /// Active chaos plan, if any.
    pub(crate) fault_plan: Option<FaultPlan>,
    /// The always-on flight recorder: per-worker request-span rings, the
    /// slow-request log, and the eviction-event ring.
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Per-worker reactor counters (`stats detail` / Prometheus).
    pub(crate) reactor_stats: ReactorStats,
    /// The durability engine (`--data-dir`); `None` = memory-only, with
    /// the write path byte-identical to a build without persistence.
    pub(crate) persist: Option<Arc<Persist>>,
    /// Test-only mutation switch: the reactor flushes parked replies
    /// *before* committing, which the power-loss test must catch.
    #[cfg(test)]
    pub(crate) flush_before_commit: AtomicBool,
}

impl Shared {
    /// Builds the shared state, replaying the persistence log into the
    /// fresh store when one is configured — recovery completes before
    /// any listener binds.
    ///
    /// # Errors
    ///
    /// Propagates persistence-open failures (unusable `--data-dir`).
    pub(crate) fn new(options: &ServerOptions) -> io::Result<Shared> {
        Shared::with_backend(options, None)
    }

    /// [`Shared::new`] with the persistence log on an explicit
    /// [`IoBackend`] (`None` = the one `Persist::open` picks; tests pass
    /// a backend that can lose power).
    pub(crate) fn with_backend(
        options: &ServerOptions,
        backend: Option<Box<dyn IoBackend>>,
    ) -> io::Result<Shared> {
        let workers = resolve_workers(options.workers);
        let recorder = Arc::new(FlightRecorder::new(workers, options.slow_log_us));
        let store = ShardedStore::new(options.config.clone(), options.shards);
        store.set_trace_sink(Some(Arc::new(RecorderSink::new(Arc::clone(&recorder)))));
        let persist = match options.persist.as_ref() {
            Some(persist_options) => {
                let mut persist = match backend {
                    Some(backend) => {
                        Persist::open_with_backend(persist_options.clone(), backend, &store)?
                    }
                    None => {
                        let plan = options.fault_plan.clone().unwrap_or_default();
                        Persist::open(persist_options.clone(), &plan, &store)?
                    }
                };
                // The reactor holds every reply in the connection's output
                // rope until it chooses to flush, so it can put one write
                // and one sync in front of a whole wakeup's replies.
                persist.defer_to_commit();
                Some(Arc::new(persist))
            }
            None => None,
        };
        Ok(Shared {
            store,
            iq_misses: IqRegistry::new(options.shards),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: ConnGauge::new(options.max_conns),
            next_conn_id: AtomicU64::new(1),
            max_conns: options.max_conns,
            max_value_len: options.max_value_len,
            idle_timeout: options.idle_timeout,
            fault_plan: options.fault_plan.clone(),
            recorder,
            reactor_stats: ReactorStats::new(workers),
            persist,
            #[cfg(test)]
            flush_before_commit: AtomicBool::new(false),
        })
    }

    /// Whether replies about to be flushed may depend on records no commit
    /// has written — or, under `--fsync always`, synced — yet (never true
    /// without `--data-dir`).
    pub(crate) fn needs_commit(&self) -> bool {
        self.persist.as_ref().is_some_and(|p| p.needs_commit())
    }

    /// The ack barrier: call in front of a flush. Costs one lock-free
    /// load unless replies really are waiting on a commit.
    pub(crate) fn commit_before_flush(&self) {
        if let Some(persist) = self.persist.as_ref() {
            if persist.needs_commit() {
                persist.commit();
            }
        }
    }
}

/// Everything [`Server::start_with`] needs beyond the bind address.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Store geometry and eviction policy.
    pub config: StoreConfig,
    /// Number of independently locked store shards.
    pub shards: usize,
    /// Bind address for the Prometheus text exposition (e.g.
    /// `127.0.0.1:9184`, port 0 for ephemeral). `None` disables it.
    pub metrics_addr: Option<String>,
    /// Maximum simultaneous connections; an accept past the cap receives
    /// `SERVER_ERROR too many connections` and is closed immediately
    /// (never a silent stall). `0` = unlimited (the library default; the
    /// daemon defaults to 1024).
    pub max_conns: usize,
    /// Cap on a storage command's declared data-block length; a `set`
    /// announcing more receives a fatal
    /// `SERVER_ERROR object too large for cache` before any data byte is
    /// read. Default [`DEFAULT_MAX_VALUE_LEN`] (1 MiB).
    pub max_value_len: usize,
    /// Connections that go this long without *completing* a command are
    /// evicted — this catches both silent idlers and slowloris clients
    /// trickling bytes forever. `Duration::ZERO` disables. Default 60 s.
    pub idle_timeout: Duration,
    /// Deterministic fault-injection plan (`None` = faults off). See
    /// [`crate::fault`].
    pub fault_plan: Option<FaultPlan>,
    /// Reactor worker event loops, each with its own `SO_REUSEPORT`
    /// listener. `0` = auto: one per available core, capped at 8 (the
    /// shard locks saturate first).
    pub workers: usize,
    /// Slow-request threshold in microseconds: reactor request spans whose
    /// buffered→flushed time meets or exceeds this are promoted to the
    /// retained slow-request log (dumped by `trace` and `/trace`). `None`
    /// disables promotion; spans are still ring-recorded either way. The
    /// daemon exposes this as `--slow-log MICROS`.
    pub slow_log_us: Option<u64>,
    /// Crash-safe durability (`--data-dir`/`--fsync`): when set, every
    /// acknowledged mutation is appended to a checksummed log and boot
    /// replays it before the listeners open. `None` (the default) keeps
    /// the server memory-only with an untouched hot path.
    pub persist: Option<crate::persist::PersistOptions>,
}

impl ServerOptions {
    /// Single-shard options with no metrics listener, no connection cap,
    /// a 1 MiB value cap, a 60 s idle timeout, no fault injection, and
    /// an auto worker count.
    #[must_use]
    pub fn new(config: StoreConfig) -> ServerOptions {
        ServerOptions {
            config,
            shards: 1,
            metrics_addr: None,
            max_conns: 0,
            max_value_len: DEFAULT_MAX_VALUE_LEN,
            idle_timeout: Duration::from_secs(60),
            fault_plan: None,
            workers: 0,
            slow_log_us: None,
            persist: None,
        }
    }
}

/// Resolves [`ServerOptions::workers`]: explicit wins, else one worker
/// per available core, capped at 8.
fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// What a graceful drain accomplished (see [`Server::shutdown_with_drain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DrainReport {
    /// Connections live when the drain began.
    pub connections_at_drain: u64,
    /// Connections that closed on their own before the deadline.
    pub drained: u64,
    /// Connections still active at the deadline, forcibly severed.
    pub severed: u64,
    /// Commands the server completed while draining.
    pub requests_completed: u64,
    /// Wall-clock milliseconds the drain took.
    pub elapsed_ms: u64,
}

impl DrainReport {
    /// Whether every connection closed on its own (nothing severed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.severed == 0
    }
}

/// A running KVS server.
///
/// # Examples
///
/// ```no_run
/// use camp_kvs::server::Server;
/// use camp_kvs::store::StoreConfig;
///
/// let server = Server::start("127.0.0.1:0", StoreConfig::camp_with_memory(16 << 20))?;
/// println!("listening on {}", server.local_addr());
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    metrics_thread: Option<std::thread::JoinHandle<()>>,
    persist_thread: Option<std::thread::JoinHandle<()>>,
    /// The epoll reactor: N worker event loops (see [`crate::net`]).
    reactor: Reactor,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor workers on background threads.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the listener.
    pub fn start(addr: &str, config: StoreConfig) -> io::Result<Server> {
        Server::start_with(addr, ServerOptions::new(config))
    }

    /// Like [`Server::start`], with the store hash-partitioned over
    /// `shards` independently locked shards (the §4.1 scaling recipe).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the listener.
    pub fn start_sharded(addr: &str, config: StoreConfig, shards: usize) -> io::Result<Server> {
        Server::start_with(
            addr,
            ServerOptions {
                shards,
                ..ServerOptions::new(config)
            },
        )
    }

    /// The general entry point: binds `addr`, optionally binds the metrics
    /// exposition listener, and starts the reactor workers.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding either listener.
    pub fn start_with(addr: &str, options: ServerOptions) -> io::Result<Server> {
        let shared = Arc::new(Shared::new(&options)?);
        Server::start_shared(addr, &options, shared)
    }

    /// Starts the reactor over an already-built `shared` (which must have
    /// been built from the same options).
    pub(crate) fn start_shared(
        addr: &str,
        options: &ServerOptions,
        shared: Arc<Shared>,
    ) -> io::Result<Server> {
        let policy = options.config.eviction.to_string();
        // The persistence maintenance thread (interval fsync, degraded
        // retry) starts before the listeners: telemetry and re-arm work
        // even if binding fails later and the Server is dropped.
        let persist_thread = match shared.persist.as_ref() {
            Some(_) => {
                let bg = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("camp-kvs-persist".into())
                        .spawn(move || {
                            if let Some(persist) = bg.persist.as_ref() {
                                persist.background_loop(&bg.store);
                            }
                        })?,
                )
            }
            None => None,
        };
        // One SO_REUSEPORT listener per worker, each accepted inside its
        // owner's event loop — no accept thread at all. The first bind
        // resolves any ephemeral port; siblings bind the concrete address
        // so they share the same port group.
        let first_addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let first = ReusePortListener::bind(first_addr)?;
        let local_addr = first.local_addr();
        let mut listeners = vec![first];
        for _ in 1..resolve_workers(options.workers) {
            listeners.push(ReusePortListener::bind(local_addr)?);
        }
        let reactor = Reactor::start(&shared, listeners)?;
        let (metrics_addr, metrics_thread) = match options.metrics_addr.as_deref() {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                let bound = listener.local_addr()?;
                let metrics_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("camp-kvs-metrics".into())
                    .spawn(move || metrics_loop(&listener, &metrics_shared))?;
                kvlog!(LogLevel::Info, "metrics_listener_started", addr = bound);
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };
        kvlog!(
            LogLevel::Info,
            "server_started",
            addr = local_addr,
            shards = options.shards,
            policy = policy,
        );
        Ok(Server {
            shared,
            local_addr,
            metrics_addr,
            metrics_thread,
            persist_thread,
            reactor,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics-exposition address, when one was requested.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Snapshot of the store counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.shared.store.stats()
    }

    /// Number of live items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.store.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gracefully stops the server with the default drain deadline (5 s).
    /// Equivalent to [`Server::shutdown_with_drain`]; idle connections
    /// close within tens of milliseconds, so this is fast in practice.
    pub fn shutdown(self) -> DrainReport {
        self.shutdown_with_drain(DEFAULT_DRAIN)
    }

    /// Gracefully stops the server: the listeners close immediately (no
    /// new connections), in-flight commands run to completion, idle
    /// connections are closed at once, and anything still busy when
    /// `deadline` expires is forcibly severed. Returns an accounting of
    /// what happened.
    pub fn shutdown_with_drain(mut self, deadline: Duration) -> DrainReport {
        let started = Instant::now();
        let requests_before = self.shared.metrics.total_requests();
        let connections_at_drain = self.shared.conns.live() as u64;
        // ordering: SeqCst — drain control plane; see `signal_shutdown`.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.signal_shutdown();
        self.join_metrics_thread();
        // The drain flag is already visible; a wake-up makes every worker
        // close its listener and sweep its idle connections immediately.
        self.reactor.wake_all();
        while self.shared.conns.live() > 0 && started.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let severed = self.reactor.sever_and_join();
        // All request workers are gone: no appends can race the seal.
        self.seal_persistence();
        let report = DrainReport {
            connections_at_drain,
            drained: connections_at_drain.saturating_sub(severed),
            severed,
            requests_completed: self
                .shared
                .metrics
                .total_requests()
                .saturating_sub(requests_before),
            elapsed_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        };
        kvlog!(
            LogLevel::Info,
            "server_drained",
            connections = report.connections_at_drain,
            drained = report.drained,
            severed = report.severed,
            requests_completed = report.requests_completed,
            elapsed_ms = report.elapsed_ms,
        );
        report
    }

    fn signal_shutdown(&self) {
        // ordering: SeqCst — shutdown/drain control plane; rare, and the
        // simplest reasoning wins over saving a fence.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        kvlog!(LogLevel::Info, "server_stopping", addr = self.local_addr);
        // Workers observe the flag on their next wakeup (the caller follows
        // with `wake_all` / `sever_and_join`); the metrics thread blocks in
        // `accept`, so a self-connect unblocks it.
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    fn join_metrics_thread(&mut self) {
        if let Some(handle) = self.metrics_thread.take() {
            let _ = handle.join();
        }
    }

    /// Seals the persistence log (clean-shutdown marker + final fsync)
    /// and joins the maintenance thread. The taken handle makes this
    /// idempotent: the drain path runs it, and `Drop` only repeats it
    /// for a `Server` dropped without an explicit shutdown.
    fn seal_persistence(&mut self) {
        if let Some(handle) = self.persist_thread.take() {
            if let Some(persist) = self.shared.persist.as_ref() {
                persist.seal();
                persist.request_stop();
            }
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // ordering: SeqCst — shutdown control plane; see `signal_shutdown`.
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.signal_shutdown();
        }
        self.join_metrics_thread();
        // After shutdown_with_drain the workers are already joined (a
        // no-op here); this covers a Server dropped without an explicit
        // shutdown.
        self.reactor.sever_and_join();
        self.seal_persistence();
    }
}

/// The command class `command` is timed under.
pub(crate) fn cmd_kind(command: &Command) -> CmdKind {
    match command {
        Command::Get { .. } => CmdKind::Get,
        Command::IqGet { .. } => CmdKind::IqGet,
        Command::Set { header } => {
            if header.verb == SetVerb::IqSet {
                CmdKind::IqSet
            } else {
                CmdKind::Set
            }
        }
        Command::Delete { .. } => CmdKind::Delete,
        _ => CmdKind::Other,
    }
}

/// Executes one command against `shared`, writing the reply to `writer`
/// (the connection's in-memory write buffer, where the I/O is infallible;
/// the reactor flushes it once per wakeup).
/// `data` is the already-read set data block (empty otherwise); `response`
/// is the connection's reusable get-serialization buffer; `now` is the
/// only clock the command sees (expiry, IQ miss timing). Returns false
/// when the connection should close.
pub(crate) fn execute<W: Write>(
    command: &Command<'_>,
    data: &[u8],
    writer: &mut W,
    response: &mut Vec<u8>,
    shared: &Shared,
    now: Stamp,
) -> io::Result<bool> {
    match *command {
        Command::Get { ref keys } => {
            // Copy-free: each hit's VALUE block is serialized straight from
            // the slab chunk into `response` (inside the shard lock); all
            // keys resolve before the writer is touched, then one bulk
            // write delivers the whole reply.
            response.clear();
            for key in keys.iter() {
                let h = shared.store.hash(key);
                shared
                    .store
                    .shard(h)
                    .get_with_at_hashed(h, now.unix_secs, |item| {
                        crate::resp::append_value(response, key, item.flags, item.value);
                    });
            }
            response.extend_from_slice(b"END\r\n");
            writer.write_all(response)?;
        }
        Command::IqGet { key } => {
            response.clear();
            let h = shared.store.hash(key);
            let hit = shared
                .store
                .shard(h)
                .get_with_at_hashed(h, now.unix_secs, |item| {
                    crate::resp::append_value(response, key, item.flags, item.value);
                })
                .is_some();
            if !hit {
                // Register the miss time for the cost computation.
                shared
                    .iq_misses
                    .record_miss(shared.store.shard_of(h), h.fp, now.at);
            }
            response.extend_from_slice(b"END\r\n");
            writer.write_all(response)?;
        }
        Command::Set { ref header } => {
            let reply = apply_set(header, data, shared, now);
            writeln_crlf(writer, reply)?;
        }
        Command::Delete { key } => {
            let deleted = shared.store.delete(key);
            if deleted {
                if let Some(persist) = shared.persist.as_ref() {
                    persist.append_delete(&shared.store, key);
                }
            }
            writeln_crlf(writer, if deleted { "DELETED" } else { "NOT_FOUND" })?;
        }
        Command::Arith { key, delta, up } => {
            let h = shared.store.hash(key);
            // Bound first: a guard in the `match` scrutinee would be held
            // through the arm, and the journal append below may compact —
            // which locks every shard.
            let rewritten = shared.store.shard(h).add_signed(h, delta, up);
            match rewritten {
                Some((value, (flags, expires_at, cost))) => {
                    let text = value.to_string();
                    if let Some(persist) = shared.persist.as_ref() {
                        // The rewrite keeps the item's flags, TTL and CAMP
                        // cost; log the same so recovery does too.
                        persist.append_set(
                            &shared.store,
                            key,
                            text.as_bytes(),
                            flags,
                            expires_at,
                            cost,
                        );
                    }
                    writeln_crlf(writer, &text)?;
                }
                None => writeln_crlf(writer, "NOT_FOUND")?,
            }
        }
        Command::Touch { key, exptime } => {
            let expires_at = expiry_to_absolute(exptime, now.unix_secs);
            let touched = shared.store.touch(key, expires_at);
            if touched {
                if let Some(persist) = shared.persist.as_ref() {
                    persist.append_touch(&shared.store, key, expires_at);
                }
            }
            writeln_crlf(writer, if touched { "TOUCHED" } else { "NOT_FOUND" })?;
        }
        Command::FlushAll => {
            shared.store.flush_all();
            shared.iq_misses.clear();
            if let Some(persist) = shared.persist.as_ref() {
                persist.append_clear(&shared.store);
            }
            kvlog!(LogLevel::Info, "flush_all");
            writeln_crlf(writer, "OK")?;
        }
        Command::Version => {
            writeln_crlf(
                writer,
                concat!("VERSION camp-kvs/", env!("CARGO_PKG_VERSION")),
            )?;
        }
        Command::Stats { scope } => match scope {
            StatsScope::Summary => {
                for stat_line in telemetry_report(shared).summary_lines() {
                    writeln_crlf(writer, &stat_line)?;
                }
                writeln_crlf(writer, "END")?;
            }
            StatsScope::Detail => {
                for stat_line in telemetry_report(shared).detail_lines() {
                    writeln_crlf(writer, &stat_line)?;
                }
                writeln_crlf(writer, "END")?;
            }
            StatsScope::Reset => {
                shared.store.reset_stats();
                shared.metrics.reset();
                shared.recorder.reset_derived();
                shared.reactor_stats.reset();
                // ordering: Relaxed(x2) — statistics counter resets.
                shared.iq_misses.swept.store(0, Ordering::Relaxed);
                shared.iq_misses.dropped.store(0, Ordering::Relaxed);
                kvlog!(LogLevel::Info, "stats_reset");
                writeln_crlf(writer, "RESET")?;
            }
            StatsScope::Profile => {
                for stat_line in telemetry_report(shared).profile_lines() {
                    writeln_crlf(writer, &stat_line)?;
                }
                writeln_crlf(writer, "END")?;
            }
        },
        Command::Trace => {
            for trace_line in trace_lines(shared) {
                writeln_crlf(writer, &trace_line)?;
            }
            writeln_crlf(writer, "END")?;
        }
        Command::Quit => return Ok(false),
    }
    Ok(true)
}

/// How many recent spans / eviction events a `trace` dump includes (the
/// rings hold more; the dump is bounded so a reply stays small).
const TRACE_DUMP_SPANS: usize = 64;
const TRACE_DUMP_EVICTIONS: usize = 64;

fn format_span(tag: &str, span: &RequestSpan) -> String {
    let parse_us = span.parsed_us.saturating_sub(span.buffered_us);
    let exec_us = span.executed_us.saturating_sub(span.parsed_us);
    let flush_us = span.flushed_us.saturating_sub(span.executed_us);
    format!(
        "{tag} conn={} cmd={} wire={} at_us={} parse_us={parse_us} exec_us={exec_us} \
         flush_us={flush_us} total_us={}",
        span.conn_id,
        CmdKind::from_code(span.cmd).name(),
        span.wire_bytes,
        span.buffered_us,
        span.total_us(),
    )
}

/// The `trace` command / `/trace` page body: recorder counters, the most
/// recent request spans, the retained slow log, and recent eviction
/// events.
fn trace_lines(shared: &Shared) -> Vec<String> {
    let recorder = &shared.recorder;
    let mut lines = Vec::new();
    lines.push(format!(
        "TRACE slow_threshold_us {}",
        recorder
            .slow_threshold_us()
            .map_or_else(|| "disabled".to_owned(), |us| us.to_string())
    ));
    lines.push(format!(
        "TRACE spans_recorded {}",
        recorder.spans_recorded()
    ));
    lines.push(format!("TRACE slow_recorded {}", recorder.slow_recorded()));
    let decisions = shared.store.eviction_totals();
    lines.push(format!("TRACE admits {}", decisions.admits));
    lines.push(format!("TRACE evictions {}", decisions.evictions));
    let spans = recorder.spans_snapshot();
    let skip = spans.len().saturating_sub(TRACE_DUMP_SPANS);
    for span in &spans[skip..] {
        lines.push(format_span("SPAN", span));
    }
    for span in recorder.slow_snapshot() {
        lines.push(format_span("SLOW", &span));
    }
    let evictions = recorder.evictions_snapshot();
    let skip = evictions.len().saturating_sub(TRACE_DUMP_EVICTIONS);
    for event in &evictions[skip..] {
        lines.push(format!(
            "EVICTION kind={} key={:016x} size={} cost={} ratio={} queue={} l={}",
            if event.admit { "admit" } else { "evict" },
            event.key_hash,
            event.size,
            event.cost,
            event.ratio,
            event.queue,
            event.l_value,
        ));
    }
    lines
}

/// Assembles the full telemetry snapshot behind `stats`, `stats detail`
/// and the Prometheus exposition.
fn telemetry_report(shared: &Shared) -> TelemetryReport {
    let shards = shared.store.per_shard();
    let decisions = shared.store.eviction_totals();
    TelemetryReport {
        version: env!("CARGO_PKG_VERSION"),
        policy: shards.first().map(|s| s.policy.clone()).unwrap_or_default(),
        curr_items: shards.iter().map(|s| s.items).sum(),
        totals: shared.store.stats(),
        slab_census: shared.store.slab_census(),
        latencies: shared.metrics.latency_snapshots(),
        bytes_read: shared.metrics.bytes_read_snapshot(),
        // ordering: Relaxed(x3) — statistics counters; the snapshot is
        // advisory and never gates an operation.
        connections_opened: shared.metrics.connections_opened.load(Ordering::Relaxed),
        connections_closed: shared.metrics.connections_closed.load(Ordering::Relaxed),
        protocol_errors: shared.metrics.protocol_errors.load(Ordering::Relaxed),
        conn_rejected: shared.metrics.rejected_snapshot(),
        faults_injected: shared.metrics.faults_snapshot(),
        lock_poison_recovered: crate::sync::poison_recovered_total(),
        iq_miss_registry_size: shared.iq_misses.len() as u64,
        // ordering: Relaxed(x2) — statistics counters.
        iq_sweep_reclaimed: shared.iq_misses.swept.load(Ordering::Relaxed),
        iq_misses_dropped: shared.iq_misses.dropped.load(Ordering::Relaxed),
        shadow: shared.store.shadow_estimates(),
        shadow_sample_modulus: shared.store.shadow_sample_modulus(),
        spans_recorded: shared.recorder.spans_recorded(),
        // ordering: Relaxed — statistics counter.
        spans_dropped: shared.metrics.spans_dropped.load(Ordering::Relaxed),
        slow_recorded: shared.recorder.slow_recorded(),
        slow_threshold_us: shared.recorder.slow_threshold_us(),
        trace_admits: decisions.admits,
        trace_evicts: decisions.evictions,
        eviction_costs: decisions.eviction_costs,
        l_values: decisions.l_values,
        reactor_workers: shared.reactor_stats.snapshot(),
        flush_segments: shared.metrics.flush_segments.snapshot(),
        persist: shared.persist.as_ref().map(|p| p.snapshot()),
        shards,
    }
}

/// The metrics accept loop: each connection gets one scrape response.
/// Scrapes are served inline (no per-connection thread) — a scraper
/// arrives every few seconds, not thousands per second.
fn metrics_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // ordering: SeqCst — shutdown control plane; rare, simplest reasoning.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Err(err) = serve_metrics_once(stream, shared) {
                    kvlog!(LogLevel::Debug, "metrics_scrape_error", error = err);
                }
            }
            Err(_) => {
                // ordering: SeqCst — shutdown control plane; rare, simplest reasoning.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Answers one HTTP request: `/trace` serves the flight-recorder dump as
/// plain text, any other path (`GET /metrics`, `GET /`) serves the
/// Prometheus exposition. Headers are read and discarded up to the blank
/// line.
fn serve_metrics_once(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let trace_page = path == "/trace" || path.starts_with("/trace?");
    let mut header_line = String::new();
    loop {
        header_line.clear();
        let read = reader.read_line(&mut header_line)?;
        if read == 0 || header_line == "\r\n" || header_line == "\n" {
            break;
        }
    }
    let (body, content_type) = if trace_page {
        let mut text = trace_lines(shared).join("\n");
        text.push('\n');
        (text, "text/plain; charset=utf-8")
    } else {
        (
            telemetry_report(shared).render_prometheus(),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    };
    let mut writer = BufWriter::new(stream);
    write!(
        writer,
        "HTTP/1.1 200 OK\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

fn apply_set(header: &SetHeader<'_>, data: &[u8], shared: &Shared, now: Stamp) -> &'static str {
    let iq = header.verb == SetVerb::IqSet;
    // The key's one hash: the registry stripe, the shard, the index and
    // the policy all take it from here.
    let h = shared.store.hash(header.key);
    // Cost: explicit hint, else the IQ registry's elapsed time, else 0.
    let cost = match header.cost_hint {
        Some(hint) => {
            if iq {
                // The hint supersedes the registry entry.
                shared.iq_misses.discard(shared.store.shard_of(h), h.fp);
            }
            hint
        }
        None if iq => shared
            .iq_misses
            .take(shared.store.shard_of(h), h.fp, now.at)
            .map_or(0, duration_micros),
        None => 0,
    };
    let expires_at = expiry_to_absolute(header.exptime, now.unix_secs);
    let mut shard = shared.store.shard(h);
    let result = match header.verb {
        SetVerb::Set | SetVerb::IqSet => shard
            .set_hashed(h, data, header.flags, expires_at, cost)
            .map(|()| true),
        SetVerb::Add => shard.add_hashed(h, data, header.flags, expires_at, cost),
        SetVerb::Replace => shard.replace_hashed(h, data, header.flags, expires_at, cost),
    };
    drop(shard);
    match result {
        Ok(true) => {
            // Log only acknowledged stores, after the shard lock is
            // released — the journal records effects, not attempts.
            if let Some(persist) = shared.persist.as_ref() {
                persist.append_set(
                    &shared.store,
                    header.key,
                    data,
                    header.flags,
                    expires_at,
                    cost,
                );
            }
            "STORED"
        }
        Ok(false) => "NOT_STORED",
        Err(StoreError::ValueTooLarge { .. }) => "SERVER_ERROR object too large for cache",
        Err(StoreError::OutOfMemory) => "SERVER_ERROR out of memory storing object",
    }
}

/// Memcached expiry semantics: 0 = never; values up to 30 days are
/// seconds relative to `now_secs` (the wall clock); larger values are
/// absolute unix timestamps.
fn expiry_to_absolute(exptime: u64, now_secs: u64) -> u64 {
    const THIRTY_DAYS: u64 = 60 * 60 * 24 * 30;
    if exptime == 0 {
        0
    } else if exptime <= THIRTY_DAYS {
        now_secs + exptime
    } else {
        exptime
    }
}

fn writeln_crlf<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::SlabConfig;
    use crate::store::EvictionMode;
    use camp_core::Precision;
    use std::io::Read;

    fn test_server() -> Server {
        Server::start(
            "127.0.0.1:0",
            StoreConfig {
                slab: SlabConfig::small(16 * 1024, 8),
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            },
        )
        .expect("bind test server")
    }

    #[test]
    fn expiry_semantics() {
        assert_eq!(expiry_to_absolute(0, 1_000), 0);
        assert_eq!(expiry_to_absolute(60, 1_000), 1_060);
        assert_eq!(expiry_to_absolute(4_000_000_000, 1_000), 4_000_000_000);
    }

    #[test]
    fn iq_registry_stripe_is_capped_and_keeps_its_timers() {
        let registry = IqRegistry::new(1);
        // An early miss whose `iqset` comes back after the flood.
        let t0 = Instant::now();
        registry.record_miss(0, u64::MAX, t0);
        for fp in 0..4 * IQ_STRIPE_CAP as u64 {
            registry.record_miss(0, fp, t0);
        }
        assert!(registry.len() <= IQ_STRIPE_CAP, "len {}", registry.len());
        // ordering: Relaxed — test read of a statistics counter.
        let dropped = registry.dropped.load(Ordering::Relaxed);
        assert_eq!(dropped, 3 * IQ_STRIPE_CAP as u64 + 1);
        // Re-recording a key the full stripe already holds is not a drop.
        registry.record_miss(0, 7, t0);
        assert_eq!(registry.dropped.load(Ordering::Relaxed), dropped);
        // The recorded entry still prices its pair, from the clock the
        // caller hands in; a dropped one costs 0, and so does one whose
        // pair comes back after the TTL.
        let later = t0 + Duration::from_millis(2);
        assert_eq!(
            registry.take(0, u64::MAX, later),
            Some(Duration::from_millis(2))
        );
        assert!(registry
            .take(0, 4 * IQ_STRIPE_CAP as u64 - 1, later)
            .is_none());
        assert!(registry.take(0, 7, t0 + IQ_MISS_TTL).is_none());
        registry.record_miss(0, 7, t0);
        assert_eq!(registry.len(), IQ_STRIPE_CAP - 1);
    }

    #[test]
    fn a_full_iq_stripe_sweeps_ahead_of_the_ttl_schedule() {
        let now = Instant::now();
        let (Some(expired), Some(swept_recently)) = (
            now.checked_sub(IQ_MISS_TTL + Duration::from_secs(1)),
            now.checked_sub(IQ_FULL_SWEEP_GAP * 2),
        ) else {
            return; // the monotonic clock is younger than the TTL
        };
        let registry = IqRegistry::new(1);
        {
            let mut stripe = lock(&registry.stripes[0]);
            stripe.misses = (0..IQ_STRIPE_CAP as u64).map(|fp| (fp, expired)).collect();
            stripe.last_sweep = swept_recently;
        }
        registry.record_miss(0, u64::MAX, now);
        assert_eq!(registry.len(), 1, "the abandoned entries were swept");
        // ordering: Relaxed(x2) — test reads of statistics counters.
        assert_eq!(registry.swept.load(Ordering::Relaxed), IQ_STRIPE_CAP as u64);
        assert_eq!(registry.dropped.load(Ordering::Relaxed), 0);
        assert!(registry.take(0, u64::MAX, now).is_some());
    }

    #[test]
    fn starts_and_shuts_down_cleanly() {
        let server = test_server();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        assert!(server.metrics_addr().is_none());
        server.shutdown();
        // After shutdown the port stops accepting new work (either refused
        // outright or closed immediately after accept).
    }

    #[test]
    fn raw_socket_session() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"set hello 5 0 5\r\nworld\r\nget hello\r\nquit\r\n")
            .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.contains("STORED"), "{text}");
        assert!(text.contains("VALUE hello 5 5"), "{text}");
        assert!(text.contains("world"), "{text}");
        assert!(text.contains("END"), "{text}");
        server.shutdown();
    }

    #[test]
    fn malformed_command_gets_client_error() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"bogus\r\nquit\r\n").unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        assert!(String::from_utf8_lossy(&response).contains("CLIENT_ERROR"));
        server.shutdown();
    }

    #[test]
    fn drain_closes_idle_connections_cleanly() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"version\r\n").unwrap();
        let mut buf = [0u8; 64];
        assert!(stream.read(&mut buf).unwrap() > 0, "version reply expected");
        // The connection is now registered and idle: a drain must close it
        // without severing.
        let report = server.shutdown_with_drain(Duration::from_secs(2));
        assert_eq!(report.connections_at_drain, 1, "{report:?}");
        assert_eq!(report.drained, 1, "{report:?}");
        assert!(report.is_clean(), "{report:?}");
        // The client observes an orderly EOF, not a reset.
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
    }

    #[test]
    fn metrics_listener_serves_prometheus_text() {
        let server = Server::start_with(
            "127.0.0.1:0",
            ServerOptions {
                shards: 2,
                metrics_addr: Some("127.0.0.1:0".into()),
                ..ServerOptions::new(StoreConfig {
                    slab: SlabConfig::small(16 * 1024, 8),
                    eviction: EvictionMode::Camp(Precision::Bits(5)),
                })
            },
        )
        .expect("bind with metrics");
        let metrics_addr = server.metrics_addr().expect("metrics bound");
        let mut stream = TcpStream::connect(metrics_addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("camp_get_latency_us"), "{text}");
        assert!(text.contains("camp_policy_heap_visits"), "{text}");
        assert!(text.contains("camp_evictions_total{cause=\"capacity\"}"));
        server.shutdown();
    }
}
