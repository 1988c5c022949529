//! The flight recorder: always-on, lock-free, bounded-overhead tracing.
//!
//! Production incidents rarely wait for someone to attach a profiler. This
//! module keeps the last moments of server activity in fixed-size ring
//! buffers that cost a handful of relaxed atomic operations per record —
//! cheap enough to leave on permanently — and can be snapshotted at any
//! time without stopping the writers:
//!
//! * **Request spans** ([`RequestSpan`]) — one per completed command, with
//!   monotonic phase timestamps (buffered → parsed → executed → flushed).
//!   Spans slower than a configurable threshold are additionally retained
//!   in a separate slow-request ring that fast traffic cannot overwrite.
//! * **Eviction events** ([`EvictionTrace`]) — one per admission or
//!   eviction decision made by the cache policy, carrying the victim's key
//!   hash, size, cost, rounded cost/size ratio, queue index and the
//!   policy's `L` value at the time of the decision. (The totals and the
//!   cost/`L` distributions over these events are tallied by whoever owns
//!   the policy — each store shard, under its own lock — not here.)
//!
//! # Ring-buffer design
//!
//! [`TraceRing`] is a fixed-capacity multi-producer ring of 8-word
//! records. Writers take a ticket with one `fetch_add` on a shared counter
//! (a batch of `n` records takes its `n` consecutive tickets with one
//! `fetch_add(n)`) and then publish through a per-slot sequence word,
//! seqlock style: a
//! single `compare_exchange` *claims* the slot by moving the sequence from
//! its previous even value to the odd value `2t + 1`, the record's words
//! are stored, and the even value `2t + 2` releases the slot (`t` is the
//! ticket). The claim keeps each slot's sequence strictly monotonic even
//! when a writer laps another writer still mid-record — the lapping (or
//! lapped) writer's claim fails and that record is dropped and counted in
//! [`TraceRing::lapped`] instead of corrupting the protocol. (The previous
//! blind odd/even stores let a stalled writer's final even store overwrite
//! a newer writer's odd claim, which a concurrent reader could accept as a
//! torn record — found by the `camp-check` seqlock harness.) A snapshot
//! reader accepts a slot only when the sequence is even, non-zero, and
//! *unchanged* across its reads of the payload words — a slot overwritten
//! mid-read fails that check and is simply skipped. Writers never wait and
//! never spin; dropping requires two writers `capacity` tickets apart to
//! overlap inside one record write, which at production capacities is
//! rarer than the corruption it replaces. All payload words are
//! `AtomicU64`s, so a torn read is detectable but never undefined.
//!
//! ```
//! use camp_telemetry::trace::{TraceRecord, TraceRing, EvictionTrace};
//!
//! let ring = TraceRing::new(64);
//! ring.record(&TraceRecord::Eviction(EvictionTrace {
//!     admit: false,
//!     key_hash: 0xfeed,
//!     size: 512,
//!     cost: 40,
//!     ratio: 8,
//!     queue: 1,
//!     l_value: 1234,
//! }));
//! let records = ring.snapshot();
//! assert_eq!(records.len(), 1);
//! ```

use camp_check::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Words of payload per ring slot. Both record types fit with room spare;
/// widening this is a wire-format change for [`TraceRing`] snapshots.
pub const RECORD_WORDS: usize = 8;

/// Record-kind tag stored in the low byte of word 0.
const KIND_SPAN: u64 = 1;
const KIND_EVICTION: u64 = 2;

/// One request's journey through the server, in microseconds since the
/// recorder booted. The four phases are monotonically non-decreasing:
/// `buffered` (bytes arrived from the socket) ≤ `parsed` (command framed
/// and decoded) ≤ `executed` (store operation finished) ≤ `flushed`
/// (response bytes handed back to the socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Server-assigned connection id.
    pub conn_id: u64,
    /// Command discriminant (the server's `CmdKind as u8`; opaque here).
    pub cmd: u8,
    /// Request wire bytes (command line plus any payload).
    pub wire_bytes: u64,
    /// Microseconds since recorder boot when the request bytes were read.
    pub buffered_us: u64,
    /// When the command had been parsed.
    pub parsed_us: u64,
    /// When the store operation completed.
    pub executed_us: u64,
    /// When the response was flushed toward the socket.
    pub flushed_us: u64,
}

impl RequestSpan {
    /// End-to-end duration (flushed − buffered), saturating.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.flushed_us.saturating_sub(self.buffered_us)
    }

    fn encode(&self) -> [u64; RECORD_WORDS] {
        [
            KIND_SPAN | (u64::from(self.cmd) << 8),
            self.conn_id,
            self.buffered_us,
            self.parsed_us,
            self.executed_us,
            self.flushed_us,
            self.wire_bytes,
            0,
        ]
    }

    fn decode(words: &[u64; RECORD_WORDS]) -> RequestSpan {
        RequestSpan {
            conn_id: words[1],
            cmd: (words[0] >> 8) as u8,
            wire_bytes: words[6],
            buffered_us: words[2],
            parsed_us: words[3],
            executed_us: words[4],
            flushed_us: words[5],
        }
    }
}

/// One eviction-policy decision: an admission (`admit = true`) or an
/// eviction. Fields a policy does not model (ratio, queue, `L`) are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionTrace {
    /// Whether this records an admission rather than an eviction.
    pub admit: bool,
    /// Stable hash of the affected key (keys themselves stay private).
    pub key_hash: u64,
    /// Value size in bytes.
    pub size: u64,
    /// The pair's miss cost.
    pub cost: u64,
    /// Rounded cost/size ratio (CAMP's queue selector; 0 elsewhere).
    pub ratio: u64,
    /// Index of the queue the decision touched (0 when not meaningful).
    pub queue: u32,
    /// The policy's `L` value at decision time, saturated to `u64`.
    pub l_value: u64,
}

impl EvictionTrace {
    fn encode(&self) -> [u64; RECORD_WORDS] {
        [
            KIND_EVICTION | (u64::from(self.admit) << 8) | (u64::from(self.queue) << 32),
            self.key_hash,
            self.size,
            self.cost,
            self.ratio,
            self.l_value,
            0,
            0,
        ]
    }

    fn decode(words: &[u64; RECORD_WORDS]) -> EvictionTrace {
        EvictionTrace {
            admit: (words[0] >> 8) & 1 == 1,
            queue: (words[0] >> 32) as u32,
            key_hash: words[1],
            size: words[2],
            cost: words[3],
            ratio: words[4],
            l_value: words[5],
        }
    }
}

/// A decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A per-request span.
    Span(RequestSpan),
    /// An eviction-policy decision.
    Eviction(EvictionTrace),
}

impl TraceRecord {
    fn encode(&self) -> [u64; RECORD_WORDS] {
        match self {
            TraceRecord::Span(span) => span.encode(),
            TraceRecord::Eviction(ev) => ev.encode(),
        }
    }

    fn decode(words: &[u64; RECORD_WORDS]) -> Option<TraceRecord> {
        match words[0] & 0xff {
            KIND_SPAN => Some(TraceRecord::Span(RequestSpan::decode(words))),
            KIND_EVICTION => Some(TraceRecord::Eviction(EvictionTrace::decode(words))),
            _ => None,
        }
    }
}

impl From<RequestSpan> for TraceRecord {
    fn from(span: RequestSpan) -> TraceRecord {
        TraceRecord::Span(span)
    }
}

/// One ring slot: a seqlock word plus the payload words.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; RECORD_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A wait-free multi-producer ring of trace records (see the module docs
/// for the publication protocol).
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Monotonic ticket counter; slot index is `ticket & (len - 1)`.
    head: AtomicU64,
    /// Records dropped because the slot was claimed by a lapping writer.
    lapped: AtomicU64,
    mask: u64,
}

impl TraceRing {
    /// Creates a ring retaining (up to) `capacity` records, rounded up to
    /// a power of two with a floor of 8.
    #[must_use]
    pub fn new(capacity: usize) -> TraceRing {
        Self::with_slots(capacity.next_power_of_two().max(8))
    }

    /// Model-checking constructor: no capacity floor, so a 1-slot ring
    /// makes every ticket contend for the same slot and the lap-race
    /// harness stays tractable at a small preemption bound. The protocol
    /// under test is byte-for-byte the production `record`/`snapshot`.
    #[cfg(camp_check)]
    #[must_use]
    pub fn new_for_model(capacity: usize) -> TraceRing {
        Self::with_slots(capacity.next_power_of_two().max(1))
    }

    fn with_slots(cap: usize) -> TraceRing {
        TraceRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            lapped: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Number of records this ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (including overwritten ones).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        // ordering: Relaxed — monotonic statistics counter; no payload
        // hangs off this value.
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped because a lapping writer owned the slot (requires
    /// two writers a full ring apart overlapping inside one record).
    #[must_use]
    pub fn lapped(&self) -> u64 {
        // ordering: Relaxed — monotonic statistics counter.
        self.lapped.load(Ordering::Relaxed)
    }

    /// Appends a record. Wait-free: one `fetch_add`, one claim CAS, then
    /// unconditional stores; never blocks or spins. The record is dropped
    /// (and counted in [`TraceRing::lapped`]) only when the slot is owned
    /// by a writer a full ring-lap away.
    pub fn record(&self, record: &TraceRecord) {
        // ordering: Relaxed — the ticket only needs atomicity; slot
        // ownership is established by the claim CAS in `write`, not by
        // any ordering on the ticket counter.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        self.write(ticket, record.encode());
    }

    /// Appends `records` in order under consecutive tickets taken with one
    /// `fetch_add` — what a writer holding a whole batch (a connection's
    /// spans at flush time) pays instead of one ticket RMW per record.
    /// Each record is then published exactly as [`TraceRing::record`]
    /// publishes its one; a batch longer than the ring laps itself and
    /// keeps its newest records, like any other writer would.
    pub fn record_batch<T: Copy + Into<TraceRecord>>(&self, records: &[T]) {
        if records.is_empty() {
            return;
        }
        // ordering: Relaxed — as in `record`: the tickets only need
        // atomicity, each slot is claimed by its own CAS.
        let first = self.head.fetch_add(records.len() as u64, Ordering::Relaxed);
        for (ticket, &record) in (first..).zip(records) {
            self.write(ticket, record.into().encode());
        }
    }

    /// Publishes `words` in the slot `ticket` maps to (the caller took the
    /// ticket from `head`).
    fn write(&self, ticket: u64, words: [u64; RECORD_WORDS]) {
        let slot = &self.slots[(ticket & self.mask) as usize];
        let claim = ticket * 2 + 1;
        // ordering: Relaxed — advisory read; the CAS re-validates it.
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen % 2 == 1 || seen >= claim {
            // A lapped writer is mid-record, or a lapping writer already
            // claimed past us: surrender the slot rather than corrupt the
            // sequence monotonicity the readers depend on.
            // ordering: Relaxed — statistics counter.
            self.lapped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // ordering: Relaxed(x2) — the CAS only needs atomicity for mutual
        // exclusion: the claim is sequenced before our word stores, and
        // readers synchronize through the Release word/final stores below.
        if slot
            .seq
            .compare_exchange(seen, claim, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // ordering: Relaxed — statistics counter.
            self.lapped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (word, value) in slot.words.iter().zip(words) {
            // ordering: Release — a reader's Acquire word load that sees
            // this store also sees our odd claim (write-read coherence),
            // so its before/after sequence check must fail.
            word.store(value, Ordering::Release);
        }
        // ordering: Release — publishes the payload: a reader that sees
        // the even sequence sees every word of this record.
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Collects the currently retained records, oldest first. Runs
    /// concurrently with writers; slots overwritten mid-read are skipped
    /// (their sequence word changes), so the result is always composed of
    /// whole records.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out: Vec<(u64, TraceRecord)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // ordering: Acquire — pairs with the writer's final Release
            // store: an even sequence here makes that record's words
            // visible to the loads below.
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // Never written, or a write is in flight.
            }
            // ordering: Acquire — orders each word load before the
            // `after` check and synchronizes with in-flight writers'
            // Release word stores (their odd claim then invalidates us).
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Acquire));
            // ordering: Acquire — must not be reordered before the word
            // loads it validates.
            let after = slot.seq.load(Ordering::Acquire);
            if before != after {
                continue; // Overwritten while we were reading.
            }
            if let Some(record) = TraceRecord::decode(&words) {
                out.push(((before - 2) / 2, record));
            }
        }
        out.sort_by_key(|&(ticket, _)| ticket);
        out.into_iter().map(|(_, record)| record).collect()
    }
}

/// Deliberately broken `record` variants for the model-checking harnesses.
///
/// Each method reproduces one believed-fatal weakening of the publication
/// protocol; the harnesses in `tests/model_harness.rs` assert that
/// `camp-check` *catches* each one with a replayable counterexample. If a
/// future refactor accidentally made one of these equivalent to the real
/// `record`, the paired harness would start passing and fail the suite —
/// these are mutation tests for the checker itself.
#[cfg(camp_check)]
impl TraceRing {
    /// The real protocol with the final publishing store weakened from
    /// `Release` to `Relaxed`: a reader may observe the even sequence
    /// without the payload words, and accept a torn record.
    pub fn record_mutated_relaxed_publish(&self, record: &TraceRecord) {
        // ordering: identical to the real `record` except the final
        // publishing store, which is the deliberate weakening under test.
        let words = record.encode();
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let claim = ticket * 2 + 1;
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen % 2 == 1 || seen >= claim {
            self.lapped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot
            .seq
            .compare_exchange(seen, claim, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            self.lapped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Release);
        }
        // MUTATION: Relaxed instead of Release — nothing orders the word
        // stores before this publication.
        slot.seq.store(ticket * 2 + 2, Ordering::Relaxed);
    }

    /// The pre-fix protocol exactly as shipped before the claim CAS: blind
    /// odd/even stores. A lapped writer's final even store can overwrite a
    /// lapping writer's odd claim, leaving an even sequence over a
    /// half-written record.
    pub fn record_mutated_blind_store(&self, record: &TraceRecord) {
        // ordering: the pre-fix protocol verbatim — Release publication
        // was always right; the missing claim CAS is the bug under test.
        let words = record.encode();
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Release);
        }
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }
}

/// Deliberately broken `record_batch` for the model-checking harness.
#[cfg(camp_check)]
impl TraceRing {
    /// The batch protocol with an off-by-one in the claim: `n` tickets
    /// taken, `n + 1` slots written. The extra write lands on a ticket
    /// some other writer owns — two writers then publish different records
    /// under one sequence number, which a reader accepts as a torn one.
    pub fn record_batch_mutated_overclaim<T: Copy + Into<TraceRecord>>(&self, records: &[T]) {
        let Some((&last, _)) = records.split_last() else {
            return;
        };
        // ordering: Relaxed — as in the real `record_batch`.
        let first = self.head.fetch_add(records.len() as u64, Ordering::Relaxed);
        for (ticket, &record) in (first..).zip(records) {
            self.write(ticket, record.into().encode());
        }
        // MUTATION: one more slot than tickets claimed.
        self.write(first + records.len() as u64, last.into().encode());
    }
}

/// Spans retained per worker ring.
const SPAN_RING_CAPACITY: usize = 1024;
/// Slow-request spans retained (survive fast-path overwrites).
const SLOW_RING_CAPACITY: usize = 256;
/// Eviction decisions retained.
const EVICTION_RING_CAPACITY: usize = 4096;

/// The assembled flight recorder: per-worker span rings, the slow-request
/// ring and the eviction-decision ring.
///
/// One instance serves the whole server; every method takes `&self` and is
/// safe to call from any thread.
#[derive(Debug)]
pub struct FlightRecorder {
    boot: Instant,
    spans: Vec<TraceRing>,
    slow: TraceRing,
    evictions: TraceRing,
    /// Spans at least this slow (total µs) are retained in the slow ring.
    /// `u64::MAX` disables the slow log.
    slow_threshold_us: AtomicU64,
    slow_total: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with `worker_rings` span rings (clamped to at
    /// least one). `slow_threshold_us` of `None` disables the slow log.
    #[must_use]
    pub fn new(worker_rings: usize, slow_threshold_us: Option<u64>) -> FlightRecorder {
        FlightRecorder {
            boot: Instant::now(),
            spans: (0..worker_rings.max(1))
                .map(|_| TraceRing::new(SPAN_RING_CAPACITY))
                .collect(),
            slow: TraceRing::new(SLOW_RING_CAPACITY),
            evictions: TraceRing::new(EVICTION_RING_CAPACITY),
            slow_threshold_us: AtomicU64::new(slow_threshold_us.unwrap_or(u64::MAX)),
            slow_total: AtomicU64::new(0),
        }
    }

    /// Microseconds between recorder boot and `at` (0 if `at` precedes
    /// boot). Span phases should all be stamped through this one clock.
    ///
    #[must_use]
    pub fn micros_since_boot(&self, at: Instant) -> u64 {
        duration_micros(at.saturating_duration_since(self.boot))
    }

    /// The active slow-log threshold in microseconds, if enabled.
    #[must_use]
    pub fn slow_threshold_us(&self) -> Option<u64> {
        // ordering: Relaxed — standalone configuration value; no other
        // memory depends on observing it in order.
        match self.slow_threshold_us.load(Ordering::Relaxed) {
            u64::MAX => None,
            micros => Some(micros),
        }
    }

    /// Records one completed request span into the ring for `ring_index`
    /// (wrapped), promoting it to the slow ring when it crosses the
    /// threshold.
    pub fn record_span(&self, ring_index: usize, span: &RequestSpan) {
        let record = TraceRecord::Span(*span);
        self.spans[ring_index % self.spans.len()].record(&record);
        // ordering: Relaxed — configuration read plus statistics counter;
        // a racing threshold update may miss one span, which is fine.
        if span.total_us() >= self.slow_threshold_us.load(Ordering::Relaxed) {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            self.slow.record(&record);
        }
    }

    /// Records a connection's completed spans into the ring for
    /// `ring_index` (wrapped) under one ticket claim, promoting those that
    /// cross the threshold to the slow ring — [`FlightRecorder::record_span`]
    /// for a writer that holds a batch.
    pub fn record_spans(&self, ring_index: usize, spans: &[RequestSpan]) {
        self.spans[ring_index % self.spans.len()].record_batch(spans);
        // ordering: Relaxed — configuration read, as in `record_span`.
        let threshold = self.slow_threshold_us.load(Ordering::Relaxed);
        if threshold == u64::MAX {
            return;
        }
        let mut slow = 0;
        for span in spans.iter().filter(|span| span.total_us() >= threshold) {
            slow += 1;
            self.slow.record(&TraceRecord::Span(*span));
        }
        if slow > 0 {
            // ordering: Relaxed — statistics counter.
            self.slow_total.fetch_add(slow, Ordering::Relaxed);
        }
    }

    /// Records one eviction-policy decision in the eviction ring.
    pub fn record_eviction(&self, event: &EvictionTrace) {
        self.evictions.record(&TraceRecord::Eviction(*event));
    }

    /// Recent spans across all worker rings, oldest first per ring, then
    /// interleaved by buffered timestamp.
    #[must_use]
    pub fn spans_snapshot(&self) -> Vec<RequestSpan> {
        let mut spans: Vec<RequestSpan> = self
            .spans
            .iter()
            .flat_map(TraceRing::snapshot)
            .filter_map(|record| match record {
                TraceRecord::Span(span) => Some(span),
                TraceRecord::Eviction(_) => None,
            })
            .collect();
        spans.sort_by_key(|span| span.buffered_us);
        spans
    }

    /// Retained slow-request spans, oldest first.
    #[must_use]
    pub fn slow_snapshot(&self) -> Vec<RequestSpan> {
        self.slow
            .snapshot()
            .into_iter()
            .filter_map(|record| match record {
                TraceRecord::Span(span) => Some(span),
                TraceRecord::Eviction(_) => None,
            })
            .collect()
    }

    /// Recent eviction decisions, oldest first.
    #[must_use]
    pub fn evictions_snapshot(&self) -> Vec<EvictionTrace> {
        self.evictions
            .snapshot()
            .into_iter()
            .filter_map(|record| match record {
                TraceRecord::Eviction(ev) => Some(ev),
                TraceRecord::Span(_) => None,
            })
            .collect()
    }

    /// Total spans recorded across all rings.
    #[must_use]
    pub fn spans_recorded(&self) -> u64 {
        self.spans.iter().map(TraceRing::pushed).sum()
    }

    /// Total spans promoted to the slow ring.
    #[must_use]
    pub fn slow_recorded(&self) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Zeroes the slow-request counter (`stats reset`). Ring contents are
    /// left in place — the flight recorder's whole point is surviving
    /// until someone looks.
    pub fn reset_derived(&self) {
        // ordering: Relaxed — statistics counter; reset tolerates racing
        // increments by design.
        self.slow_total.store(0, Ordering::Relaxed);
    }
}

/// `duration` in whole microseconds, saturating. Stays in `u64`
/// arithmetic (`Duration::as_micros` divides in `u128`): span stamps and
/// command latencies take this once per request on the hot path.
#[must_use]
pub fn duration_micros(duration: Duration) -> u64 {
    duration
        .as_secs()
        .saturating_mul(1_000_000)
        .saturating_add(u64::from(duration.subsec_micros()))
}

/// Records an ad-hoc [`EvictionTrace`] during debugging sessions. Not for
/// committed code outside this crate and tests — `camp-lint`'s
/// `leftover-debug` rule flags stray uses, exactly like `dbg!`.
#[macro_export]
macro_rules! trace_event {
    ($recorder:expr, $event:expr) => {
        $recorder.record_eviction(&$event)
    };
}

/// Records an ad-hoc [`RequestSpan`] during debugging sessions. Same
/// committed-code policy as [`trace_event!`].
#[macro_export]
macro_rules! trace_span {
    ($recorder:expr, $ring:expr, $span:expr) => {
        $recorder.record_span($ring, &$span)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(n: u64) -> RequestSpan {
        RequestSpan {
            conn_id: n,
            cmd: 3,
            wire_bytes: 10 + n,
            buffered_us: n * 100,
            parsed_us: n * 100 + 5,
            executed_us: n * 100 + 20,
            flushed_us: n * 100 + 30,
        }
    }

    #[test]
    fn records_round_trip_through_encoding() {
        let ring = TraceRing::new(8);
        let original = span(7);
        ring.record(&TraceRecord::Span(original));
        let ev = EvictionTrace {
            admit: true,
            key_hash: u64::MAX,
            size: 1 << 40,
            cost: 123,
            ratio: 999,
            queue: u32::MAX,
            l_value: u64::MAX - 1,
        };
        ring.record(&TraceRecord::Eviction(ev));
        let records = ring.snapshot();
        assert_eq!(
            records,
            vec![TraceRecord::Span(original), TraceRecord::Eviction(ev)]
        );
    }

    #[test]
    fn ring_retains_the_newest_records() {
        let ring = TraceRing::new(8);
        for n in 0..20 {
            ring.record(&TraceRecord::Span(span(n)));
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), 8);
        assert_eq!(ring.pushed(), 20);
        // The oldest retained record is ticket 12; order is preserved.
        for (i, record) in records.iter().enumerate() {
            assert_eq!(*record, TraceRecord::Span(span(12 + i as u64)));
        }
    }

    #[test]
    fn slow_spans_are_promoted() {
        let recorder = FlightRecorder::new(2, Some(25));
        recorder.record_span(0, &span(1)); // total 30 ≥ 25: slow.
        recorder.record_span(
            1,
            &RequestSpan {
                flushed_us: 110, // total 10 < 25: fast.
                ..span(1)
            },
        );
        assert_eq!(recorder.spans_recorded(), 2);
        assert_eq!(recorder.slow_recorded(), 1);
        assert_eq!(recorder.slow_snapshot(), vec![span(1)]);
        assert_eq!(recorder.spans_snapshot().len(), 2);
        assert_eq!(recorder.slow_threshold_us(), Some(25));
        assert_eq!(FlightRecorder::new(1, None).slow_threshold_us(), None);
    }

    #[test]
    fn a_batch_lands_like_the_same_records_one_by_one() {
        let one_by_one = TraceRing::new(8);
        let batched = TraceRing::new(8);
        let spans: Vec<RequestSpan> = (0..20).map(span).collect();
        for s in &spans {
            one_by_one.record(&TraceRecord::Span(*s));
        }
        // Uneven batches, one of them longer than the ring, one empty.
        batched.record_batch(&spans[..3]);
        batched.record_batch::<RequestSpan>(&[]);
        batched.record_batch(&spans[3..15]);
        batched.record_batch(&spans[15..]);
        assert_eq!(batched.pushed(), 20);
        assert_eq!(batched.lapped(), 0);
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn batched_spans_are_promoted_like_single_ones() {
        let recorder = FlightRecorder::new(1, Some(25));
        let fast = RequestSpan {
            flushed_us: 110,
            ..span(1)
        };
        recorder.record_spans(0, &[span(1), fast, span(2)]);
        recorder.record_spans(0, &[]);
        assert_eq!(recorder.spans_recorded(), 3);
        assert_eq!(recorder.slow_recorded(), 2);
        assert_eq!(recorder.slow_snapshot(), vec![span(1), span(2)]);
        recorder.reset_derived();
        assert_eq!(recorder.slow_recorded(), 0);
        assert_eq!(recorder.slow_snapshot().len(), 2, "rings survive a reset");
        // With the slow log off nothing is promoted.
        let quiet = FlightRecorder::new(1, None);
        quiet.record_spans(0, &[span(1)]);
        assert_eq!((quiet.spans_recorded(), quiet.slow_recorded()), (1, 0));
    }

    #[test]
    fn eviction_events_land_in_their_ring() {
        let recorder = FlightRecorder::new(1, None);
        let event = EvictionTrace {
            admit: false,
            key_hash: 7,
            size: 100,
            cost: 40,
            ratio: 0,
            queue: 0,
            l_value: 80,
        };
        recorder.record_eviction(&event);
        assert_eq!(recorder.evictions_snapshot(), vec![event]);
        assert_eq!(recorder.spans_recorded(), 0);
    }

    #[test]
    fn micros_since_boot_is_monotonic() {
        let recorder = FlightRecorder::new(1, None);
        let a = recorder.micros_since_boot(Instant::now());
        let b = recorder.micros_since_boot(Instant::now());
        assert!(b >= a);
        // An instant before boot clamps to zero rather than wrapping.
        assert_eq!(recorder.micros_since_boot(recorder.boot), 0);
        assert_eq!(duration_micros(Duration::new(3, 4_999)), 3_000_004);
        assert_eq!(duration_micros(Duration::MAX), u64::MAX);
    }

    #[test]
    fn macros_forward_to_the_recorder() {
        let recorder = FlightRecorder::new(1, Some(0));
        trace_span!(recorder, 0, span(2));
        trace_event!(
            recorder,
            EvictionTrace {
                admit: false,
                key_hash: 9,
                size: 8,
                cost: 7,
                ratio: 0,
                queue: 0,
                l_value: 0,
            }
        );
        assert_eq!(recorder.spans_recorded(), 1);
        assert_eq!(recorder.evictions_snapshot().len(), 1);
    }
}
