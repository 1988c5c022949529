//! The server's telemetry surface: per-command latency histograms and the
//! snapshot/rendering layer behind `stats`, `stats detail`, and the
//! `--metrics-addr` Prometheus exposition.
//!
//! A reactor worker counts one way. Everything it observes — a command's
//! latency and bytes, a flush, an accept, a wakeup, a rejection, an
//! injected fault — goes into the plain [`WorkerTally`] it owns through
//! `&mut`, and [`ServerMetrics::absorb`] moves the tally into the worker's
//! own row of lock-free [`Histogram`]s and `AtomicU64`s: `absorb` is the
//! only code that counts into a row (`stats reset` only zeroes them). A
//! worker publishes before a cycle's replies are flushed, before a
//! `stats`/`trace` command in the cycle executes, and, if it counted
//! anything since, before each blocking `epoll_wait`. So a reader never
//! misses a count behind a reply a client has seen, and a reactor count
//! never waits for some connection's next cycle. Reading is the cold path:
//! totals (`connections_opened`, `conn_rejected:*`, latency quantiles) are
//! sums or merges of the rows taken when read, and [`TelemetryReport`] is a
//! point-in-time copy of everything, which emits each value once as a row
//! carrying its `STAT` key and its Prometheus family; both protocols print
//! those rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use camp_telemetry::{Exposition, Histogram, HistogramSnapshot, LocalHistogram, MetricKind};

use crate::persist::PersistSnapshot;
use crate::shard::ShardSnapshot;
use crate::store::StoreStats;

/// The command classes that get their own latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// `get`/`gets`.
    Get,
    /// `iqget`.
    IqGet,
    /// `set`/`add`/`replace`.
    Set,
    /// `iqset`.
    IqSet,
    /// `delete`.
    Delete,
    /// Everything else (`incr`, `touch`, `flush_all`, `stats`, ...).
    Other,
}

impl CmdKind {
    /// Every kind, in display order.
    pub const ALL: [CmdKind; 6] = [
        CmdKind::Get,
        CmdKind::IqGet,
        CmdKind::Set,
        CmdKind::IqSet,
        CmdKind::Delete,
        CmdKind::Other,
    ];

    /// The command name used in `STAT latency:<name>:*` lines and
    /// `camp_<name>_latency_us` metric families.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CmdKind::Get => "get",
            CmdKind::IqGet => "iqget",
            CmdKind::Set => "set",
            CmdKind::IqSet => "iqset",
            CmdKind::Delete => "delete",
            CmdKind::Other => "other",
        }
    }

    /// A stable one-byte discriminant, used to stamp request spans in the
    /// flight recorder (which stores fixed-width words, not enums).
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// This kind's position in [`CmdKind::ALL`] (its discriminant).
    fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`CmdKind::code`]; unknown bytes decode as `Other`.
    #[must_use]
    pub fn from_code(code: u8) -> CmdKind {
        CmdKind::ALL
            .get(usize::from(code))
            .copied()
            .unwrap_or(CmdKind::Other)
    }
}

/// Why the server refused or severed a connection (the overload /
/// input-hardening surface). Each cause has its own counter, exported as
/// `camp_conn_rejected_total{cause=...}` and `STAT conn_rejected:<cause>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// Accept-time rejection: the `max_conns` cap was reached.
    MaxConns,
    /// A connection idle (or trickling without completing a command —
    /// slowloris) past the idle timeout was evicted.
    IdleTimeout,
    /// A storage command declared a data block over `max_value_len`.
    ValueTooLarge,
}

impl RejectCause {
    /// Every cause, in display order.
    pub const ALL: [RejectCause; 3] = [
        RejectCause::MaxConns,
        RejectCause::IdleTimeout,
        RejectCause::ValueTooLarge,
    ];

    /// The label value used in STAT lines and the Prometheus exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectCause::MaxConns => "max_conns",
            RejectCause::IdleTimeout => "idle_timeout",
            RejectCause::ValueTooLarge => "value_too_large",
        }
    }

    /// This cause's position in [`RejectCause::ALL`] (its discriminant).
    fn index(self) -> usize {
        self as usize
    }
}

/// Which fault a chaos plan injected (see [`crate::fault`]), exported as
/// `camp_faults_injected_total{kind=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Pre-response connection drop.
    Drop,
    /// Injected response delay.
    Delay,
    /// Forced `SERVER_ERROR injected fault` reply.
    Error,
}

impl FaultKind {
    /// Every kind, in display order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Drop, FaultKind::Delay, FaultKind::Error];

    /// The label value used in STAT lines and the Prometheus exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Error => "error",
        }
    }

    /// This kind's position in [`FaultKind::ALL`] (its discriminant).
    fn index(self) -> usize {
        self as usize
    }
}

/// What a worker counts besides its histograms, one slot each in its
/// [`WorkerTally`] and in its row of [`ServerMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Wire bytes consumed by commands of a class (command line plus any
    /// data block, terminators included).
    BytesRead(CmdKind),
    /// Connections refused or severed, by cause.
    Rejected(RejectCause),
    /// Faults injected by the active chaos plan, by kind.
    Fault(FaultKind),
    /// Connections accepted under the `max_conns` cap.
    Opened,
    /// Connections counted in `Opened` that have ended.
    Closed,
    /// Lines rejected with `CLIENT_ERROR`.
    ProtocolError,
    /// Request spans not recorded because their connection already held
    /// the cap of spans awaiting a flush (a reader that stopped reading).
    SpanDropped,
    /// Sockets accepted by the worker's own `SO_REUSEPORT` listener.
    Accept,
    /// Blocking `epoll_wait` returns that delivered at least one event
    /// (the zero-timeout polls of a commit group are not wakeups).
    Wakeup,
    /// Connection events drained from `epoll_wait` into the run queue.
    Event,
    /// Connection cycles run by the zero-timeout polls that gather a
    /// commit group, after the events of the wakeup that opened it.
    Gathered,
    /// Reads paused by output backpressure.
    WritePause,
    /// Reactor timers fired (idle sweeps, fault resumes, drain ticks).
    TimerFire,
}

/// Where each labelled family starts among a row's counter slots.
const REJECTED: usize = CmdKind::ALL.len();
const FAULTS: usize = REJECTED + RejectCause::ALL.len();
const SCALARS: usize = FAULTS + FaultKind::ALL.len();
/// Counter slots per row.
const COUNTS: usize = SCALARS + 10;

impl Count {
    /// This counter's slot in a tally or row.
    fn slot(self) -> usize {
        match self {
            Count::BytesRead(kind) => kind.index(),
            Count::Rejected(cause) => REJECTED + cause.index(),
            Count::Fault(kind) => FAULTS + kind.index(),
            Count::Opened => SCALARS,
            Count::Closed => SCALARS + 1,
            Count::ProtocolError => SCALARS + 2,
            Count::SpanDropped => SCALARS + 3,
            Count::Accept => SCALARS + 4,
            Count::Wakeup => SCALARS + 5,
            Count::Event => SCALARS + 6,
            Count::Gathered => SCALARS + 7,
            Count::WritePause => SCALARS + 8,
            Count::TimerFire => SCALARS + 9,
        }
    }
}

/// One reactor worker's not-yet-published observations: plain counters
/// and [`LocalHistogram`]s the worker bumps through `&mut`, then hands to
/// [`ServerMetrics::absorb`]. Nothing here is shared, so nothing here is
/// atomic. `Default` is the tally of worker 0.
#[derive(Debug, Default)]
pub struct WorkerTally {
    /// The row this tally publishes into.
    worker: usize,
    latency: [LocalHistogram; 6],
    flush_segments: LocalHistogram,
    counts: [u64; COUNTS],
    /// The worker's connections, as of the last change.
    live: u64,
    /// Whether anything was recorded since the last publish.
    dirty: bool,
}

impl WorkerTally {
    /// An empty tally for worker `worker`'s row.
    #[must_use]
    pub fn new(worker: usize) -> WorkerTally {
        WorkerTally {
            worker,
            ..WorkerTally::default()
        }
    }

    /// Counts one executed command: its wire bytes and its handling
    /// latency.
    #[inline]
    pub fn command(&mut self, kind: CmdKind, wire_bytes: u64, micros: u64) {
        self.latency[kind.index()].record(micros);
        self.add(Count::BytesRead(kind), wire_bytes);
        self.dirty = true;
    }

    /// Adds `n` to `count`.
    #[inline]
    pub fn add(&mut self, count: Count, n: u64) {
        self.counts[count.slot()] += n;
        self.dirty |= n > 0;
    }

    /// Counts one flush that made `writes` `write` calls.
    pub fn flush(&mut self, writes: u64) {
        self.flush_segments.record(writes);
        self.dirty = true;
    }

    /// Sets the live-connection gauge: the worker owns `conns` now.
    pub fn live(&mut self, conns: usize) {
        self.live = conns as u64;
        self.dirty = true;
    }
}

/// One worker's published counts; only [`ServerMetrics::absorb`], run by
/// that worker, adds to them.
#[derive(Debug, Default)]
struct WorkerRow {
    latency: [Histogram; 6],
    /// `write` calls per flush of a connection's output: 1 when the socket
    /// took everything at once, more under backpressure.
    flush_segments: Histogram,
    counts: [AtomicU64; COUNTS],
    live: AtomicU64,
}

impl WorkerRow {
    fn get(&self, count: Count) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.counts[count.slot()].load(Ordering::Relaxed)
    }
}

/// The shared metrics: one row per reactor worker, each written by its
/// worker's [`ServerMetrics::absorb`]. Totals are read as sums (and
/// histograms as merges) of the rows.
#[derive(Debug)]
pub struct ServerMetrics {
    rows: Vec<WorkerRow>,
}

impl ServerMetrics {
    /// Zeroed metrics with one row per worker (at least one).
    #[must_use]
    pub fn new(workers: usize) -> ServerMetrics {
        ServerMetrics {
            rows: (0..workers.max(1)).map(|_| WorkerRow::default()).collect(),
        }
    }

    /// Publishes everything `tally` holds into its worker's row and leaves
    /// it empty. Called only by the worker that owns the tally.
    pub fn absorb(&self, tally: &mut WorkerTally) {
        if !std::mem::take(&mut tally.dirty) {
            return;
        }
        let row = &self.rows[tally.worker];
        for (shared, local) in row.latency.iter().zip(&mut tally.latency) {
            shared.absorb(local);
        }
        row.flush_segments.absorb(&mut tally.flush_segments);
        // ordering: Relaxed(x2) — statistics counters. An RMW, not a
        // store, so a racing `stats reset` is never undone.
        for (shared, local) in row.counts.iter().zip(&mut tally.counts) {
            let n = std::mem::take(local);
            if n > 0 {
                shared.fetch_add(n, Ordering::Relaxed);
            }
        }
        row.live.store(tally.live, Ordering::Relaxed);
    }

    /// `count` summed over every worker.
    #[must_use]
    pub fn total(&self, count: Count) -> u64 {
        self.rows.iter().map(|row| row.get(count)).sum()
    }

    /// Totals of a labelled family, `(label, total)` in `all`'s order.
    fn family<T: Copy>(
        &self,
        all: &[T],
        name: fn(T) -> &'static str,
        count: fn(T) -> Count,
    ) -> Vec<(&'static str, u64)> {
        all.iter()
            .map(|&label| (name(label), self.total(count(label))))
            .collect()
    }

    /// Per-command byte totals, in [`CmdKind::ALL`] order.
    #[must_use]
    pub fn bytes_read_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.family(&CmdKind::ALL, CmdKind::name, Count::BytesRead)
    }

    /// Per-cause rejection totals, in [`RejectCause::ALL`] order.
    #[must_use]
    pub fn rejected_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.family(&RejectCause::ALL, RejectCause::name, Count::Rejected)
    }

    /// Per-kind injected-fault totals, in [`FaultKind::ALL`] order.
    #[must_use]
    pub fn faults_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.family(&FaultKind::ALL, FaultKind::name, Count::Fault)
    }

    /// The rows' histograms picked by `pick`, merged.
    fn merged(&self, pick: impl Fn(&WorkerRow) -> &Histogram) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for row in &self.rows {
            merged.merge(&pick(row).snapshot());
        }
        merged
    }

    /// Every per-command latency histogram, merged over the workers, in
    /// [`CmdKind::ALL`] order.
    #[must_use]
    pub fn latency_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        CmdKind::ALL
            .iter()
            .map(|&kind| (kind.name(), self.merged(|row| &row.latency[kind.index()])))
            .collect()
    }

    /// `write` calls per flush, merged over the workers.
    #[must_use]
    pub fn flush_segments(&self) -> HistogramSnapshot {
        self.merged(|row| &row.flush_segments)
    }

    /// Total commands timed so far, across every class and worker — the
    /// denominator a drain report uses to count requests completed while
    /// draining.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        let latencies = self.rows.iter().flat_map(|row| &row.latency);
        latencies.map(Histogram::count).sum()
    }

    /// Each worker's reactor row, in worker order.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerStatsSnapshot> {
        self.rows
            .iter()
            .map(|row| WorkerStatsSnapshot {
                // ordering: Relaxed — statistics gauge.
                live_connections: row.live.load(Ordering::Relaxed),
                epoll_wakeups: row.get(Count::Wakeup),
                timer_fires: row.get(Count::TimerFire),
                write_pauses: row.get(Count::WritePause),
                accepts: row.get(Count::Accept),
                events_dispatched: row.get(Count::Event),
                gathered_cycles: row.get(Count::Gathered),
            })
            .collect()
    }

    /// Zeroes every histogram and counter (the `stats reset` command). The
    /// live-connection gauges are left alone — they track reality, not
    /// history — and so is whatever a worker has not published yet.
    pub fn reset(&self) {
        for row in &self.rows {
            for histogram in row.latency.iter().chain([&row.flush_segments]) {
                histogram.reset();
            }
            for counter in &row.counts {
                // ordering: Relaxed — statistics counter; a publish landing
                // just after the zeroing is a normal race between `stats
                // reset` and live traffic.
                counter.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// A point-in-time copy of one worker's reactor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Connections currently owned by this worker.
    pub live_connections: u64,
    /// Blocking `epoll_wait` returns that delivered at least one event.
    pub epoll_wakeups: u64,
    /// Reactor timers fired.
    pub timer_fires: u64,
    /// Reads paused by output backpressure.
    pub write_pauses: u64,
    /// Sockets accepted by this worker's own listener.
    pub accepts: u64,
    /// Connection events drained into the batched run queue.
    pub events_dispatched: u64,
    /// Connection cycles that joined a commit group after its wakeup.
    pub gathered_cycles: u64,
}

/// A point-in-time copy of every telemetry surface the server exposes,
/// assembled under no long-held lock and rendered to either protocol.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TelemetryReport {
    /// Server version string.
    pub version: &'static str,
    /// The (first shard's) policy name.
    pub policy: String,
    /// Per-shard telemetry rows, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Cross-shard aggregate counters.
    pub totals: StoreStats,
    /// Aggregate live items.
    pub curr_items: usize,
    /// Aggregate slab census `(chunk_size, slabs, items)`.
    pub slab_census: Vec<(u32, usize, u64)>,
    /// Per-command latency snapshots `(command, histogram)`.
    pub latencies: Vec<(&'static str, HistogramSnapshot)>,
    /// Wire bytes consumed per command class `(command, bytes)`.
    pub bytes_read: Vec<(&'static str, u64)>,
    /// Connections accepted so far.
    pub connections_opened: u64,
    /// Connections ended so far.
    pub connections_closed: u64,
    /// Protocol parse errors so far.
    pub protocol_errors: u64,
    /// Connections refused or severed `(cause, count)`, in
    /// [`RejectCause::ALL`] order.
    pub conn_rejected: Vec<(&'static str, u64)>,
    /// Chaos faults injected `(kind, count)`, in [`FaultKind::ALL`] order.
    pub faults_injected: Vec<(&'static str, u64)>,
    /// Poisoned-mutex recoveries since process start.
    pub lock_poison_recovered: u64,
    /// Unmatched `iqget` misses whose cost timers are running, across
    /// shards.
    pub iq_miss_registry_size: u64,
    /// Request spans recorded by the flight recorder so far.
    pub spans_recorded: u64,
    /// Request spans dropped at a connection's pending-span cap — with
    /// `spans_recorded`, every command that executed.
    pub spans_dropped: u64,
    /// Spans promoted to the slow-request log so far.
    pub slow_recorded: u64,
    /// The active `--slow-log` threshold, if one is set.
    pub slow_threshold_us: Option<u64>,
    /// Policy admissions traced so far.
    pub trace_admits: u64,
    /// Policy evictions traced so far.
    pub trace_evicts: u64,
    /// Distribution of miss costs over traced evictions.
    pub eviction_costs: HistogramSnapshot,
    /// Trajectory of CAMP's `L` term as sampled at eviction decisions.
    pub l_values: HistogramSnapshot,
    /// Per-worker reactor internals, in worker order.
    pub reactor_workers: Vec<WorkerStatsSnapshot>,
    /// Distribution of `write` calls per flush.
    pub flush_segments: HistogramSnapshot,
    /// Durability engine counters; `None` when `--data-dir` is unset.
    pub persist: Option<PersistSnapshot>,
}

impl TelemetryReport {
    /// Aggregate logical bytes resident.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.used_bytes).sum()
    }

    /// The `stats` table: the memcached-style counters plus the per-shard
    /// and slab-class breakdown.
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        let [summary, _] = self.stat_tables();
        summary
    }

    /// The `stats detail` table: the summary, then every other `STAT` row.
    #[must_use]
    pub fn detail_lines(&self) -> Vec<String> {
        self.stat_tables().concat()
    }

    /// The Prometheus text exposition served on `--metrics-addr`: the rows
    /// grouped by family, in first-seen order. Every family is emitted even
    /// at zero so scrapers see a stable schema from the first scrape.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut rows = Vec::new();
        self.rows(&mut |row| rows.push(row));
        let mut exp = Exposition::new();
        for (i, first) in rows.iter().enumerate() {
            let Some((name, kind)) = &first.family else {
                continue;
            };
            if rows[..i].iter().any(|row| row.family == first.family) {
                continue;
            }
            exp.family(name, first.help, *kind);
            for row in rows[i..].iter().filter(|row| row.family == first.family) {
                let labels: Vec<(&str, &str)> =
                    row.labels.iter().map(|(k, v)| (*k, &v[..])).collect();
                match row.value {
                    Value::Int(v) | Value::Word(_, v) => exp.int_value(name, &labels, v),
                    Value::Hist(snap, _) => exp.summary(name, &labels, snap),
                }
            }
        }
        exp.render()
    }

    /// Every table's `STAT` lines, indexed by [`Table`].
    fn stat_tables(&self) -> [Vec<String>; 2] {
        let mut tables: [Vec<String>; 2] = Default::default();
        // The key of the compound line the previous row wrote a field to.
        let mut open = String::new();
        self.rows(&mut |row| {
            for (table, key) in row.stat {
                let lines = &mut tables[table as usize];
                for (suffix, text) in row.value.readings() {
                    match row.field {
                        Some(field) if open == key => {
                            if let Some(line) = lines.last_mut() {
                                line.push_str(&format!(" {field}={text}"));
                            }
                        }
                        Some(field) => lines.push(format!("STAT {key} {field}={text}")),
                        None => lines.push(format!("STAT {key}{suffix} {text}")),
                    }
                }
                open = row.field.map_or(String::new(), |_| key);
            }
        });
        tables
    }

    /// Hands `sink` every reported value once, as one row, in `STAT` order
    /// within each table. A labelled family (per shard, per worker, per
    /// cause) is one row per label value.
    fn rows<'a>(&'a self, sink: &mut dyn FnMut(Row<'a>)) {
        use MetricKind::{Counter, Gauge};
        use Table::{Detail, Summary};
        let mut rows = Rows { sink, open: None };
        let shard_count = self.shards.len();
        rows.stat(Summary, "policy", Value::Word(&self.policy, 1))
            .family(Gauge, "camp_build_info")
            .help("server version and configuration (constant 1)")
            .label("version", self.version)
            .label("policy", &self.policy)
            .label("shards", shard_count);
        rows.stat(Summary, "shards", shard_count as u64);
        for (i, shard) in self.shards.iter().enumerate() {
            rows.stat(Summary, format!("shard:{i}:policy"), shard.policy.as_str());
        }
        rows.stat(Summary, "curr_items", self.curr_items as u64)
            .family(Gauge, "camp_items")
            .help("live items");
        rows.stat(Summary, "bytes", self.used_bytes())
            .family(Gauge, "camp_used_bytes")
            .help("logical bytes resident");
        let t = &self.totals;
        rows.stat(Summary, "get_hits", t.get_hits)
            .family(Counter, "camp_get_hits_total")
            .help("get/iqget hits");
        rows.stat(Summary, "get_misses", t.get_misses)
            .family(Counter, "camp_get_misses_total")
            .help("get/iqget misses");
        rows.stat(Summary, "cmd_set", t.sets)
            .family(Counter, "camp_cmd_set_total")
            .help("successful stores");
        rows.stat(Detail, "deletes", t.deletes)
            .family(Counter, "camp_deletes_total")
            .help("successful deletes");
        // The eviction causes sum without overlap; each has a summary key, a
        // `stats detail` alias and a `cause` label on one family.
        let evictions = "camp_evictions_total";
        rows.stat(Summary, "evictions", t.evictions)
            .also(Detail, "evictions:capacity")
            .family(Counter, evictions)
            .help("items dropped, by cause")
            .label("cause", "capacity");
        rows.stat(Summary, "slab_evictions", t.slab_evictions)
            .also(Detail, "evictions:slab_reassign")
            .family(Counter, evictions)
            .label("cause", "slab_reassign");
        rows.stat(Summary, "slab_reassignments", t.slab_reassignments)
            .family(Counter, "camp_slab_reassignments_total")
            .help("random slab evictions forced by calcification");
        rows.stat(Summary, "slab_reclaims", t.slab_reclaims)
            .family(Counter, "camp_slab_reclaims_total")
            .help("slabs reclaimed after emptying naturally");
        rows.stat(Summary, "expired", t.expired)
            .also(Detail, "evictions:expired")
            .family(Counter, evictions)
            .label("cause", "expired");
        let collisions = t.fingerprint_collisions;
        rows.stat(Detail, "store:fingerprint_collisions", collisions)
            .family(Counter, "camp_store_fingerprint_collisions_total")
            .help("residents replaced by another key with the same 64-bit fingerprint");
        for (i, shard) in self.shards.iter().enumerate() {
            let line = (format!("shard:{i}"), ("shard", i.to_string()));
            let s = &shard.stats;
            rows.field(Summary, &line, "items", shard.items as u64)
                .family(Gauge, "camp_shard_items")
                .help("live items per shard");
            rows.field(Summary, &line, "bytes", shard.used_bytes)
                .family(Gauge, "camp_shard_used_bytes")
                .help("logical bytes resident per shard");
            rows.field(Summary, &line, "hits", s.get_hits)
                .family(Counter, "camp_shard_hits_total")
                .help("get/iqget hits per shard");
            rows.field(Summary, &line, "misses", s.get_misses)
                .family(Counter, "camp_shard_misses_total")
                .help("get/iqget misses per shard");
            rows.field(Summary, &line, "evictions", s.evictions + s.slab_evictions)
                .family(Counter, "camp_shard_evictions_total")
                .help("evictions per shard (all causes)");
        }
        for &(chunk_size, slabs, items) in &self.slab_census {
            let line = (
                format!("slab_class:{chunk_size}"),
                ("chunk_size", chunk_size.to_string()),
            );
            // An empty class is exposed but not printed.
            let table = (slabs > 0).then_some(Summary);
            rows.field(table, &line, "slabs", slabs as u64)
                .family(Gauge, "camp_slab_class_slabs")
                .help("slabs assigned per chunk-size class");
            rows.field(table, &line, "items", items)
                .family(Gauge, "camp_slab_class_items")
                .help("items resident per chunk-size class");
        }

        for (command, snap) in &self.latencies {
            let latency = Value::Hist(snap, LATENCY_PICKS);
            rows.stat(Detail, format!("latency:{command}"), latency)
                .family(MetricKind::Summary, format!("camp_{command}_latency_us"))
                .help("command handling latency in microseconds");
        }
        for (command, bytes) in &self.bytes_read {
            rows.stat(Detail, format!("bytes_read:{command}"), *bytes)
                .family(Counter, "camp_bytes_read_total")
                .help("wire bytes consumed per command class")
                .label("cmd", command);
        }
        for (i, shard) in self.shards.iter().enumerate() {
            for gauge in &shard.policy_stats.gauges {
                let key = format!("policy:{i}:{}", gauge.name);
                // A sub-dimension (CAMP's queue lengths by ratio) extends
                // the key and adds a label.
                let sub = gauge.label.as_ref();
                let key = sub.map_or(key.clone(), |(_, value)| format!("{key}:{value}"));
                let row = rows
                    .stat(Detail, key, gauge.value)
                    .family(Gauge, format!("camp_policy_{}", gauge.name))
                    .help("policy-internal gauge")
                    .label("shard", i);
                if let Some((label, value)) = sub {
                    row.label(label, value);
                }
            }
        }
        rows.stat(Detail, "connections_opened", self.connections_opened)
            .family(Counter, "camp_connections_opened_total")
            .help("connections accepted");
        rows.stat(Detail, "connections_closed", self.connections_closed)
            .family(Counter, "camp_connections_closed_total")
            .help("connections ended");
        rows.stat(Detail, "protocol_errors", self.protocol_errors)
            .family(Counter, "camp_protocol_errors_total")
            .help("lines rejected with CLIENT_ERROR");
        for (cause, count) in &self.conn_rejected {
            rows.stat(Detail, format!("conn_rejected:{cause}"), *count)
                .family(Counter, "camp_conn_rejected_total")
                .help("connections refused or severed, by cause")
                .label("cause", cause);
        }
        for (kind, count) in &self.faults_injected {
            rows.stat(Detail, format!("faults_injected:{kind}"), *count)
                .family(Counter, "camp_faults_injected_total")
                .help("chaos faults injected, by kind")
                .label("kind", kind);
        }
        rows.stat(Detail, "lock_poison_recovered", self.lock_poison_recovered)
            .family(Counter, "camp_lock_poison_recovered_total")
            .help("poisoned mutexes recovered after a panicking holder");
        rows.stat(Detail, "iq_miss_registry_size", self.iq_miss_registry_size)
            .family(Gauge, "camp_iq_miss_registry_size")
            .help("unmatched iqget misses currently registered");
        rows.stat(Detail, "iq_sweep_reclaimed", t.iq_sweep_reclaimed)
            .family(Counter, "camp_iq_sweep_reclaimed_total")
            .help("iq miss-registry entries dropped by the TTL sweep");
        rows.stat(Detail, "iq_misses_dropped", t.iq_misses_dropped)
            .family(Counter, "camp_iq_misses_dropped_total")
            .help("iqget misses not registered because their registry stripe was full");
        for (i, w) in self.reactor_workers.iter().enumerate() {
            let line = (format!("reactor:worker{i}"), ("worker", i.to_string()));
            rows.field(Detail, &line, "live", w.live_connections)
                .family(Gauge, "camp_reactor_live_connections")
                .help("connections currently owned per reactor worker");
            rows.field(Detail, &line, "wakeups", w.epoll_wakeups)
                .family(Counter, "camp_reactor_epoll_wakeups_total")
                .help("epoll_wait returns that delivered events, per worker");
            rows.field(Detail, &line, "timer_fires", w.timer_fires)
                .family(Counter, "camp_reactor_timer_fires_total")
                .help("deadline timers fired, per worker");
            rows.field(Detail, &line, "write_pauses", w.write_pauses)
                .family(Counter, "camp_reactor_write_pauses_total")
                .help("reads paused by output backpressure, per worker");
            rows.field(Detail, &line, "accepts", w.accepts)
                .family(Counter, "camp_reactor_accepts_total")
                .help("sockets accepted by each worker's own SO_REUSEPORT listener");
            rows.field(Detail, &line, "events", w.events_dispatched)
                .family(Counter, "camp_reactor_events_dispatched_total")
                .help("connection events drained into the batched run queue, per worker");
            rows.field(Detail, &line, "gathered", w.gathered_cycles)
                .family(Counter, "camp_reactor_gathered_cycles_total")
                .help("connection cycles that joined a commit group after its wakeup, per worker");
        }
        let flush = Value::Hist(&self.flush_segments, FLUSH_PICKS);
        rows.stat(Detail, "reactor:flush_segments", flush)
            .family(MetricKind::Summary, "camp_reactor_flush_writev_segments")
            .help("write calls per flush of a connection's replies");
        rows.stat(Detail, "trace:spans_recorded", self.spans_recorded)
            .family(Counter, "camp_trace_spans_total")
            .help("request spans recorded by the flight recorder");
        rows.stat(Detail, "trace:spans_dropped", self.spans_dropped)
            .family(Counter, "camp_trace_spans_dropped_total")
            .help("request spans dropped at a connection's pending-span cap");
        rows.stat(Detail, "trace:slow_recorded", self.slow_recorded)
            .family(Counter, "camp_trace_slow_total")
            .help("spans promoted to the slow-request log");
        let threshold = self.slow_threshold_us.map_or("disabled".into(), Value::Int);
        rows.stat(Detail, "trace:slow_threshold_us", threshold);
        rows.stat(Detail, "trace:admits", self.trace_admits)
            .family(Counter, "camp_trace_admits_total")
            .help("policy admissions traced");
        rows.stat(Detail, "trace:evictions", self.trace_evicts)
            .family(Counter, "camp_trace_evictions_total")
            .help("policy evictions traced");
        let costs = Value::Hist(&self.eviction_costs, MEDIAN_PICK);
        rows.stat(Detail, "trace:eviction_cost", costs)
            .family(MetricKind::Summary, "camp_eviction_cost")
            .help("miss cost of traced eviction victims");
        let l_values = Value::Hist(&self.l_values, MEDIAN_PICK);
        rows.stat(Detail, "trace:l_value", l_values)
            .family(MetricKind::Summary, "camp_l_value")
            .help("CAMP L term sampled at eviction decisions");

        // The durability families are exposed even with persistence off, so
        // the schema is stable; `STAT` then prints only the state.
        let p = self.persist.as_ref().unwrap_or(&PERSIST_DISABLED);
        let state = match p.state {
            "disabled" => 0,
            "degraded" => 2,
            _ => 1,
        };
        let table = (state > 0).then_some(Detail);
        rows.stat(Detail, "persist:state", Value::Word(p.state, state))
            .family(Gauge, "camp_persist_state")
            .help("durability engine state (0=disabled, 1=active, 2=degraded)");
        rows.stat(table, "persist:errors", p.errors)
            .family(Counter, "camp_persist_errors_total")
            .help("append-log I/O errors (append, fsync, repair)");
        rows.stat(table, "persist:bytes", p.bytes)
            .family(Counter, "camp_persist_bytes_total")
            .help("bytes appended to the durability log");
        rows.stat(table, "persist:fsyncs", p.fsyncs)
            .family(Counter, "camp_persist_fsyncs_total")
            .help("successful fsyncs of the active segment");
        rows.stat(table, "persist:records", p.records)
            .family(Counter, "camp_persist_records_total")
            .help("records appended to the durability log");
        rows.stat(table, "persist:dropped", p.dropped)
            .family(Counter, "camp_persist_dropped_total")
            .help("mutations not persisted while degraded");
        rows.stat(table, "persist:recovered", p.recovered)
            .family(Counter, "camp_persist_recovered_total")
            .help("records replayed by boot-time recovery");
        rows.stat(table, "persist:quarantined", p.quarantined)
            .family(Counter, "camp_persist_quarantined_total")
            .help("corrupt records skipped by boot-time recovery");
        rows.stat(table, "persist:torn_bytes", p.torn_bytes)
            .family(Counter, "camp_persist_torn_bytes_total")
            .help("torn-tail bytes cut off by boot-time recovery");
        rows.stat(table, "persist:snapshots", p.snapshots)
            .family(Counter, "camp_persist_snapshots_total")
            .help("compaction snapshots taken (including re-arms)");
        rows.stat(table, "persist:trips", p.trips)
            .family(Counter, "camp_persist_trips_total")
            .help("active-to-degraded transitions of the durability engine");
        rows.stat(table, "persist:rearms", p.rearms)
            .family(Counter, "camp_persist_rearms_total")
            .help("degraded-to-active recoveries of the durability engine");
        rows.stat(table, "persist:segments", p.segments)
            .family(Gauge, "camp_persist_segments")
            .help("segment files currently in the durability log");
        rows.stat(table, "persist:commits", p.commits)
            .family(Counter, "camp_persist_commits_total")
            .help("fsyncs that made appended records durable (all but snapshot syncs)");
        rows.stat(table, "persist:commit_records", p.commit_records)
            .family(Counter, "camp_persist_commit_records_total")
            .help("records covered by those fsyncs (per commit = group size)");
        rows.stat(table, "persist:writes", p.writes)
            .family(Counter, "camp_persist_writes_total")
            .help("write calls that carried records (one per commit, plus snapshot flushes)");
        rows.stat(table, "persist:reserves", p.reserves)
            .family(Counter, "camp_persist_reserves_total")
            .help("runway reservations (zeros written and synced ahead of the records)");
        rows.stat(table, "persist:reserved_bytes", p.reserved_bytes)
            .family(Counter, "camp_persist_reserved_bytes_total")
            .help("zero bytes those reservations wrote");
        rows.stat(table, "persist:recycled", p.recycled)
            .family(Counter, "camp_persist_recycled_total")
            .help("segments opened on a recycled spare file instead of a fresh one");
        let sync_us = Value::Hist(&p.sync_us, SYNC_PICKS);
        rows.stat(table, "persist:sync_us", sync_us)
            .family(MetricKind::Summary, "camp_persist_sync_us")
            .help("wall time of each segment fsync of the durability log, microseconds; excludes runway-reservation syncs and the directory sync after each segment rename");
        rows.flush();
    }
}

/// The all-zero durability row the exposition reports while persistence
/// is off.
static PERSIST_DISABLED: LazyLock<PersistSnapshot> = LazyLock::new(PersistSnapshot::default);

/// Which `stats` table prints a row: `stats` prints the summary, and
/// `stats detail` both, in this order.
#[derive(Debug, Clone, Copy)]
enum Table {
    Summary,
    Detail,
}

/// The `STAT` lines a histogram row prints: `(key suffix, reading)`.
type Picks = &'static [(&'static str, fn(&HistogramSnapshot) -> u64)];

const LATENCY_PICKS: Picks = &[
    (":count", |s| s.count),
    (":p50_us", |s| s.quantile(0.5)),
    (":p90_us", |s| s.quantile(0.9)),
    (":p99_us", |s| s.quantile(0.99)),
    (":p999_us", |s| s.quantile(0.999)),
    (":max_us", |s| s.max),
];
const FLUSH_PICKS: Picks = &[
    (":count", |s| s.count),
    (":p50", |s| s.quantile(0.5)),
    (":max", |s| s.max),
];
const SYNC_PICKS: Picks = &[
    (":p50", |s| s.quantile(0.5)),
    (":p99", |s| s.quantile(0.99)),
    (":max", |s| s.max),
];
const MEDIAN_PICK: Picks = &[("_p50", |s| s.quantile(0.5))];

/// One reported value.
#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    Int(u64),
    /// One `STAT` line per pick; a summary in the exposition.
    Hist(&'a HistogramSnapshot, Picks),
    /// A word in `STAT`, a number in the exposition.
    Word(&'a str, u64),
}

impl Value<'_> {
    /// What `STAT` prints: one `(key suffix, text)` per line.
    fn readings(self) -> Vec<(&'static str, String)> {
        match self {
            Value::Int(value) => vec![("", value.to_string())],
            Value::Word(word, _) => vec![("", word.to_owned())],
            Value::Hist(snap, picks) => picks
                .iter()
                .map(|(suffix, read)| (*suffix, read(snap).to_string()))
                .collect(),
        }
    }
}

impl From<u64> for Value<'_> {
    fn from(value: u64) -> Self {
        Value::Int(value)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(word: &'a str) -> Self {
        Value::Word(word, 0)
    }
}

/// One reported value and everything both formatters print of it.
#[derive(Debug)]
struct Row<'a> {
    value: Value<'a>,
    /// Its `STAT` keys, by table: `STAT {key} {value}`.
    stat: Vec<(Table, String)>,
    /// Prints the value as ` {field}={value}` on the compound line
    /// `STAT {key}` instead.
    field: Option<&'static str>,
    /// Its exposition family, if any.
    family: Option<(String, MetricKind)>,
    /// The family's `# HELP` text, read from its first row.
    help: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl Row<'_> {
    /// Adds a second `STAT` key.
    fn also(&mut self, table: Table, key: &str) -> &mut Self {
        self.stat.push((table, key.to_owned()));
        self
    }

    fn family(&mut self, kind: MetricKind, name: impl Into<String>) -> &mut Self {
        self.family = Some((name.into(), kind));
        self
    }

    fn help(&mut self, help: &'static str) -> &mut Self {
        self.help = help;
        self
    }

    fn label(&mut self, key: &'static str, value: impl ToString) -> &mut Self {
        self.labels.push((key, value.to_string()));
        self
    }
}

/// Builds a report's rows one at a time and hands each, once the next one
/// starts, to a formatter — so `stats` never holds the whole table.
struct Rows<'a, 'f> {
    sink: &'f mut dyn FnMut(Row<'a>),
    /// The row the builder methods are filling in.
    open: Option<Row<'a>>,
}

impl<'a> Rows<'a, '_> {
    /// A row printed as `STAT {key} {value}` in `table` (`None`: not
    /// printed).
    fn stat(
        &mut self,
        table: impl Into<Option<Table>>,
        key: impl Into<String>,
        value: impl Into<Value<'a>>,
    ) -> &mut Row<'a> {
        self.flush();
        let stat = table.into().map(|table| (table, key.into()));
        self.open.insert(Row {
            value: value.into(),
            stat: stat.into_iter().collect(),
            field: None,
            family: None,
            help: "",
            labels: Vec::new(),
        })
    }

    /// A field of the compound line `(key, label)`: printed in `table` as
    /// ` {field}={value}` on `STAT {key}`, exposed with `label`.
    fn field(
        &mut self,
        table: impl Into<Option<Table>>,
        (key, label): &(String, (&'static str, String)),
        field: &'static str,
        value: u64,
    ) -> &mut Row<'a> {
        let row = self.stat(table, key, value);
        row.field = Some(field);
        row.label(label.0, &label.1)
    }

    /// Hands the row being built to the formatter.
    fn flush(&mut self) {
        if let Some(row) = self.open.take() {
            (self.sink)(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_policies::PolicyStats;

    fn sample_report() -> TelemetryReport {
        let histogram = Histogram::new();
        for v in [10u64, 20, 3000] {
            histogram.record(v);
        }
        let mut policy_stats = PolicyStats::default();
        policy_stats.push("l_value", 17);
        policy_stats.push("queue_count", 3);
        policy_stats.push("heap_visits", 44);
        policy_stats.push_labelled("queue_len", "ratio", "8", 2);
        TelemetryReport {
            version: "test",
            policy: "camp(p=5)".to_owned(),
            shards: vec![ShardSnapshot {
                stats: StoreStats::default(),
                items: 2,
                used_bytes: 128,
                policy: "camp(p=5)".to_owned(),
                policy_stats,
            }],
            totals: StoreStats {
                iq_sweep_reclaimed: 2,
                iq_misses_dropped: 1,
                ..StoreStats::default()
            },
            curr_items: 2,
            slab_census: vec![(120, 1, 2)],
            latencies: vec![("get", histogram.snapshot())],
            bytes_read: vec![("get", 640), ("set", 1280)],
            connections_opened: 1,
            connections_closed: 0,
            protocol_errors: 0,
            conn_rejected: vec![
                ("max_conns", 4),
                ("idle_timeout", 1),
                ("value_too_large", 3),
            ],
            faults_injected: vec![("drop", 7), ("delay", 8), ("error", 9)],
            lock_poison_recovered: 1,
            iq_miss_registry_size: 5,
            spans_recorded: 11,
            spans_dropped: 5,
            slow_recorded: 2,
            slow_threshold_us: Some(500),
            trace_admits: 9,
            trace_evicts: 4,
            eviction_costs: {
                let h = Histogram::new();
                h.record(8);
                h.record(16);
                h.snapshot()
            },
            l_values: Histogram::new().snapshot(),
            reactor_workers: vec![WorkerStatsSnapshot {
                live_connections: 3,
                epoll_wakeups: 100,
                timer_fires: 6,
                write_pauses: 1,
                accepts: 12,
                events_dispatched: 150,
                gathered_cycles: 40,
            }],
            flush_segments: {
                let h = Histogram::new();
                h.record(1);
                h.record(4);
                h.snapshot()
            },
            persist: Some(PersistSnapshot {
                state: "active",
                errors: 1,
                bytes: 4096,
                fsyncs: 12,
                records: 57,
                dropped: 2,
                recovered: 31,
                quarantined: 3,
                torn_bytes: 17,
                snapshots: 4,
                trips: 1,
                rearms: 1,
                segments: 2,
                commits: 5,
                commit_records: 40,
                writes: 6,
                reserves: 2,
                reserved_bytes: 8192,
                recycled: 3,
                sync_us: {
                    let h = Histogram::new();
                    h.record(300);
                    h.record(900);
                    h.snapshot()
                },
            }),
        }
    }

    /// Counters that differ field by field, so a swapped field shows.
    fn store_stats(base: u64) -> StoreStats {
        StoreStats {
            get_hits: base + 1,
            get_misses: base + 2,
            sets: base + 3,
            deletes: base + 4,
            evictions: base + 5,
            slab_evictions: base + 6,
            slab_reassignments: base + 7,
            slab_reclaims: base + 8,
            expired: base + 9,
            fingerprint_collisions: base + 10,
            ..StoreStats::default()
        }
    }

    fn histogram(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    /// The shapes `sample_report` leaves out: persistence and the slow log
    /// off, two shards with a labelled gauge (and a gauge) on only one of
    /// them, two reactor workers, and an empty slab class.
    fn edge_report() -> TelemetryReport {
        let mut gauges0 = PolicyStats::default();
        gauges0.push("items", 3);
        gauges0.push("l_value", 21);
        gauges0.push_labelled("queue_len", "ratio", "4", 2);
        gauges0.push_labelled("queue_len", "ratio", "16", 1);
        let mut gauges1 = PolicyStats::default();
        gauges1.push("items", 4);
        gauges1.push("heap_visits", 55);
        TelemetryReport {
            version: "edge",
            policy: "lru".to_owned(),
            shards: vec![
                ShardSnapshot {
                    stats: store_stats(100),
                    items: 3,
                    used_bytes: 300,
                    policy: "lru".to_owned(),
                    policy_stats: gauges0,
                },
                ShardSnapshot {
                    stats: store_stats(200),
                    items: 4,
                    used_bytes: 400,
                    policy: "gds".to_owned(),
                    policy_stats: gauges1,
                },
            ],
            totals: StoreStats {
                iq_sweep_reclaimed: 9,
                iq_misses_dropped: 13,
                ..store_stats(300)
            },
            curr_items: 7,
            slab_census: vec![(96, 0, 0), (120, 2, 7)],
            latencies: vec![
                ("get", histogram(&[5, 7, 90, 1200])),
                ("set", histogram(&[40])),
                ("other", histogram(&[])),
            ],
            bytes_read: vec![("get", 11), ("set", 22), ("other", 33)],
            connections_opened: 12,
            connections_closed: 10,
            protocol_errors: 3,
            conn_rejected: vec![
                ("max_conns", 1),
                ("idle_timeout", 2),
                ("value_too_large", 0),
            ],
            faults_injected: vec![("drop", 0), ("delay", 5), ("error", 6)],
            lock_poison_recovered: 0,
            iq_miss_registry_size: 8,
            spans_recorded: 31,
            spans_dropped: 0,
            slow_recorded: 0,
            slow_threshold_us: None,
            trace_admits: 303,
            trace_evicts: 305,
            eviction_costs: histogram(&[]),
            l_values: histogram(&[3, 9, 27]),
            reactor_workers: vec![
                WorkerStatsSnapshot {
                    live_connections: 1,
                    epoll_wakeups: 2,
                    timer_fires: 3,
                    write_pauses: 4,
                    accepts: 5,
                    events_dispatched: 6,
                    gathered_cycles: 0,
                },
                WorkerStatsSnapshot {
                    live_connections: 7,
                    epoll_wakeups: 8,
                    timer_fires: 9,
                    write_pauses: 10,
                    accepts: 11,
                    events_dispatched: 12,
                    gathered_cycles: 13,
                },
            ],
            flush_segments: histogram(&[]),
            persist: None,
        }
    }

    fn stat_text(lines: &[String]) -> String {
        lines.iter().map(|line| format!("{line}\n")).collect()
    }

    /// An exposition as its family blocks (`# HELP`, `# TYPE`, samples),
    /// sorted: only the order of the families may differ from a golden.
    fn family_blocks(text: &str) -> Vec<String> {
        let mut blocks: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.starts_with("# HELP ") || blocks.is_empty() {
                blocks.push(String::new());
            }
            let block = blocks.last_mut().expect("a block was pushed");
            block.push_str(line);
            block.push('\n');
        }
        blocks.sort();
        blocks
    }

    /// Both protocols, byte for byte, against goldens taken before the
    /// renderers became one table: the `STAT` tables exactly, the
    /// exposition as a set of family blocks.
    #[test]
    fn renderings_match_the_goldens() {
        let cases = [
            (
                "sample",
                sample_report(),
                [
                    include_str!("../tests/golden/sample_summary.txt"),
                    include_str!("../tests/golden/sample_detail.txt"),
                    include_str!("../tests/golden/sample_prometheus.txt"),
                ],
            ),
            (
                "edge",
                edge_report(),
                [
                    include_str!("../tests/golden/edge_summary.txt"),
                    include_str!("../tests/golden/edge_detail.txt"),
                    include_str!("../tests/golden/edge_prometheus.txt"),
                ],
            ),
        ];
        for (name, report, [summary, detail, prometheus]) in cases {
            assert_eq!(stat_text(&report.summary_lines()), summary, "{name}");
            assert_eq!(stat_text(&report.detail_lines()), detail, "{name}");
            assert_eq!(
                family_blocks(&report.render_prometheus()),
                family_blocks(prometheus),
                "{name}"
            );
        }
    }

    #[test]
    fn detail_lines_cover_every_surface() {
        let text = sample_report().detail_lines().join("\n");
        for needle in [
            "STAT latency:get:p50_us",
            "STAT latency:get:p99_us",
            "STAT policy:0:l_value 17",
            "STAT policy:0:queue_count 3",
            "STAT policy:0:heap_visits 44",
            "STAT policy:0:queue_len:8 2",
            "STAT evictions:capacity",
            "STAT evictions:slab_reassign",
            "STAT evictions:expired",
            "STAT iq_miss_registry_size 5",
            "STAT iq_sweep_reclaimed 2",
            "STAT shard:0 items=2",
            "STAT bytes_read:get 640",
            "STAT bytes_read:set 1280",
            "STAT conn_rejected:max_conns 4",
            "STAT conn_rejected:idle_timeout 1",
            "STAT conn_rejected:value_too_large 3",
            "STAT faults_injected:drop 7",
            "STAT lock_poison_recovered 1",
            "STAT reactor:worker0 live=3 wakeups=100 timer_fires=6 write_pauses=1 accepts=12 events=150 gathered=40",
            "STAT reactor:flush_segments:count 2",
            "STAT trace:spans_recorded 11",
            "STAT trace:spans_dropped 5",
            "STAT trace:slow_recorded 2",
            "STAT trace:slow_threshold_us 500",
            "STAT trace:admits 9",
            "STAT trace:evictions 4",
            "STAT persist:state active",
            "STAT persist:errors 1",
            "STAT persist:bytes 4096",
            "STAT persist:fsyncs 12",
            "STAT persist:recovered 31",
            "STAT persist:quarantined 3",
            "STAT persist:segments 2",
            "STAT persist:commits 5",
            "STAT persist:commit_records 40",
            "STAT persist:writes 6",
            "STAT persist:reserves 2",
            "STAT persist:reserved_bytes 8192",
            "STAT persist:recycled 3",
            "STAT persist:sync_us:p50 303",
            "STAT persist:sync_us:max 900",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn cmd_kind_codes_round_trip() {
        for (position, kind) in CmdKind::ALL.into_iter().enumerate() {
            assert_eq!(CmdKind::from_code(kind.code()), kind);
            assert_eq!(kind.index(), position, "ALL is in discriminant order");
        }
        assert_eq!(CmdKind::from_code(200), CmdKind::Other);
        for (position, cause) in RejectCause::ALL.into_iter().enumerate() {
            assert_eq!(cause.index(), position, "ALL is in discriminant order");
        }
        for (position, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), position, "ALL is in discriminant order");
        }
    }

    #[test]
    fn worker_rows_snapshot_and_reset() {
        let metrics = ServerMetrics::new(2);
        let (mut first, mut second) = (WorkerTally::new(0), WorkerTally::new(1));
        first.add(Count::Wakeup, 5);
        first.add(Count::Accept, 3);
        first.add(Count::Event, 9);
        first.add(Count::Opened, 3);
        second.live(2);
        second.add(Count::WritePause, 1);
        second.add(Count::Gathered, 4);
        second.add(Count::Opened, 1);
        metrics.absorb(&mut first);
        metrics.absorb(&mut second);
        let snap = metrics.workers();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].epoll_wakeups, 5);
        assert_eq!(snap[0].accepts, 3);
        assert_eq!(snap[0].events_dispatched, 9);
        assert_eq!(snap[1].live_connections, 2);
        assert_eq!(snap[1].write_pauses, 1);
        assert_eq!(snap[1].gathered_cycles, 4);
        // Totals are sums of the rows.
        assert_eq!(metrics.total(Count::Opened), 4);
        metrics.reset();
        let snap = metrics.workers();
        assert_eq!(snap[0].epoll_wakeups, 0);
        assert_eq!(snap[0].accepts, 0);
        assert_eq!(snap[0].events_dispatched, 0);
        assert_eq!(snap[1].write_pauses, 0);
        assert_eq!(snap[1].gathered_cycles, 0);
        assert_eq!(metrics.total(Count::Opened), 0);
        // Gauges survive a reset.
        assert_eq!(snap[1].live_connections, 2);
    }

    #[test]
    fn prometheus_rendering_names_every_family() {
        let text = sample_report().render_prometheus();
        for needle in [
            "# TYPE camp_get_latency_us summary",
            "camp_get_latency_us{quantile=\"0.5\"}",
            "camp_get_latency_us_count 3",
            "camp_policy_l_value{shard=\"0\"} 17",
            "camp_policy_heap_visits{shard=\"0\"} 44",
            "camp_policy_queue_len{shard=\"0\",ratio=\"8\"} 2",
            "camp_evictions_total{cause=\"capacity\"}",
            "camp_iq_miss_registry_size 5",
            "camp_build_info{version=\"test\",policy=\"camp(p=5)\",shards=\"1\"} 1",
            "camp_slab_class_items{chunk_size=\"120\"} 2",
            "camp_bytes_read_total{cmd=\"get\"} 640",
            "camp_bytes_read_total{cmd=\"set\"} 1280",
            "camp_conn_rejected_total{cause=\"max_conns\"} 4",
            "camp_conn_rejected_total{cause=\"value_too_large\"} 3",
            "camp_faults_injected_total{kind=\"drop\"} 7",
            "camp_lock_poison_recovered_total 1",
            "# TYPE camp_eviction_cost summary",
            "camp_eviction_cost_count 2",
            "# TYPE camp_l_value summary",
            "camp_trace_spans_total 11",
            "camp_trace_spans_dropped_total 5",
            "camp_trace_slow_total 2",
            "camp_trace_admits_total 9",
            "camp_trace_evictions_total 4",
            "camp_reactor_live_connections{worker=\"0\"} 3",
            "camp_reactor_epoll_wakeups_total{worker=\"0\"} 100",
            "camp_reactor_timer_fires_total{worker=\"0\"} 6",
            "camp_reactor_write_pauses_total{worker=\"0\"} 1",
            "camp_reactor_accepts_total{worker=\"0\"} 12",
            "camp_reactor_events_dispatched_total{worker=\"0\"} 150",
            "camp_reactor_gathered_cycles_total{worker=\"0\"} 40",
            "# TYPE camp_reactor_flush_writev_segments summary",
            "camp_reactor_flush_writev_segments_count 2",
            "camp_persist_state 1",
            "camp_persist_errors_total 1",
            "camp_persist_bytes_total 4096",
            "camp_persist_fsyncs_total 12",
            "camp_persist_records_total 57",
            "camp_persist_dropped_total 2",
            "camp_persist_quarantined_total 3",
            "camp_persist_segments 2",
            "camp_persist_commits_total 5",
            "camp_persist_commit_records_total 40",
            "camp_persist_writes_total 6",
            "camp_persist_reserves_total 2",
            "camp_persist_reserved_bytes_total 8192",
            "camp_persist_recycled_total 3",
            "# TYPE camp_persist_sync_us summary",
            "camp_persist_sync_us_count 2",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn metrics_record_and_reset() {
        let metrics = ServerMetrics::new(2);
        let mut tally = WorkerTally::new(1);
        tally.command(CmdKind::Get, 10, 100);
        tally.command(CmdKind::Set, 0, 200);
        tally.add(Count::BytesRead(CmdKind::Get), 15);
        tally.flush(3);
        tally.add(Count::SpanDropped, 1);
        // Nothing is visible until the worker publishes; then all of it
        // is, and the tally starts over.
        assert_eq!(metrics.total_requests(), 0);
        metrics.absorb(&mut tally);
        metrics.absorb(&mut tally);
        assert_eq!(metrics.flush_segments().sum, 3);
        assert_eq!(metrics.total(Count::SpanDropped), 1);
        tally.command(CmdKind::Delete, 7, 1);
        let deletes = |metrics: &ServerMetrics| metrics.latency_snapshots()[4].1.count;
        assert_eq!(deletes(&metrics), 0);
        let mut other = WorkerTally::new(0);
        other.add(Count::Opened, 1);
        other.add(Count::Rejected(RejectCause::MaxConns), 2);
        other.add(Count::Rejected(RejectCause::ValueTooLarge), 1);
        other.add(Count::Fault(FaultKind::Drop), 1);
        other.command(CmdKind::Get, 1, 50);
        metrics.absorb(&mut other);
        assert_eq!(
            metrics.rejected_snapshot(),
            vec![
                ("max_conns", 2),
                ("idle_timeout", 0),
                ("value_too_large", 1)
            ]
        );
        assert_eq!(
            metrics.faults_snapshot(),
            vec![("drop", 1), ("delay", 0), ("error", 0)]
        );
        // Both workers' rows add up.
        assert_eq!(metrics.total_requests(), 3);
        let latencies = metrics.latency_snapshots();
        assert_eq!(latencies.len(), 6);
        assert_eq!(latencies[0], ("get", histogram(&[100, 50])));
        assert_eq!(latencies[2].1.count, 1);
        let bytes = metrics.bytes_read_snapshot();
        assert_eq!(bytes.len(), 6);
        assert_eq!(bytes[0], ("get", 26));
        assert_eq!(bytes[2], ("set", 0));
        metrics.reset();
        assert_eq!(metrics.total_requests(), 0);
        assert_eq!(metrics.bytes_read_snapshot()[0], ("get", 0));
        assert_eq!(metrics.total(Count::SpanDropped), 0);
        // What a worker had not published yet survives the reset.
        metrics.absorb(&mut tally);
        assert_eq!(deletes(&metrics), 1);
        assert_eq!(metrics.bytes_read_snapshot()[4], ("delete", 7));
        metrics.reset();
        assert_eq!(metrics.rejected_snapshot()[0], ("max_conns", 0));
        assert_eq!(metrics.faults_snapshot()[0], ("drop", 0));
        assert_eq!(metrics.total(Count::Opened), 0);
    }

    #[test]
    fn every_count_has_its_own_slot() {
        let mut counts: Vec<Count> = CmdKind::ALL.map(Count::BytesRead).to_vec();
        counts.extend(RejectCause::ALL.map(Count::Rejected));
        counts.extend(FaultKind::ALL.map(Count::Fault));
        counts.extend([
            Count::Opened,
            Count::Closed,
            Count::ProtocolError,
            Count::SpanDropped,
            Count::Accept,
            Count::Wakeup,
            Count::Event,
            Count::Gathered,
            Count::WritePause,
            Count::TimerFire,
        ]);
        let slots: Vec<usize> = counts.iter().map(|c| c.slot()).collect();
        assert_eq!(slots, (0..COUNTS).collect::<Vec<_>>());
    }
}
