//! Model-checking harnesses for the telemetry lock-free structures.
//!
//! Compiled and run only under `RUSTFLAGS='--cfg camp_check'`, where the
//! `camp_check::sync` shim routes every atomic through the cooperative
//! model-checking scheduler. Each property harness runs against the real
//! production code paths (`TraceRing::record`/`record_batch`/`snapshot`,
//! `Histogram::record`/`absorb`) and is paired with a mutation harness that runs a
//! deliberately broken variant and asserts the checker catches it with a
//! deterministically replayable counterexample.
#![cfg(camp_check)]

use std::sync::Arc;

use camp_check::Checker;
use camp_telemetry::trace::{EvictionTrace, TraceRecord, TraceRing};
use camp_telemetry::{Histogram, LocalHistogram};

/// A fully distinguishable eviction record: every payload field carries the
/// tag, so any torn mix of two records fails an equality test against both.
fn ev(tag: u64) -> TraceRecord {
    TraceRecord::Eviction(EvictionTrace {
        admit: tag.is_multiple_of(2),
        key_hash: 0x1000 + tag,
        size: 0x2000 + tag,
        cost: 0x3000 + tag,
        ratio: 0x4000 + tag,
        queue: tag as u32,
        l_value: 0x5000 + tag,
    })
}

/// Panics (failing the schedule) unless every snapshot record is exactly
/// one of the allowed whole records.
fn assert_whole(records: &[TraceRecord], allowed: &[TraceRecord]) {
    for r in records {
        assert!(
            allowed.contains(r),
            "torn record: snapshot returned {r:?}, not one of the {} records ever written",
            allowed.len()
        );
    }
}

/// A 1-slot ring with record 0 already published, so the slot under test
/// holds a valid prior record for readers to (correctly) fall back to.
fn seeded_ring() -> TraceRing {
    let ring = TraceRing::new_for_model(1);
    ring.record(&ev(0));
    ring
}

/// Property: a snapshot reader racing one writer on the same slot only
/// ever returns whole records — the prior record or the new one, never a
/// mix. This is the harness that found the pre-claim-CAS lap race.
#[test]
fn seqlock_reader_never_sees_a_torn_record() {
    let schedules = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(
            seeded_ring,
            vec![
                Box::new(|ring: Arc<TraceRing>| ring.record(&ev(1))),
                Box::new(|ring: Arc<TraceRing>| assert_whole(&ring.snapshot(), &[ev(0), ev(1)])),
            ],
            |ring: Arc<TraceRing>| assert_whole(&ring.snapshot(), &[ev(0), ev(1)]),
        )
        .assert_pass("seqlock reader vs writer");
    assert!(
        schedules > 10,
        "suspiciously small exploration: {schedules}"
    );
}

/// Mutation: weaken the final publishing store to `Relaxed` and the same
/// harness must fail — the reader can accept the new sequence number over
/// stale payload words. The counterexample trace must replay exactly.
#[test]
fn seqlock_relaxed_publish_mutation_is_caught_and_replays() {
    let threads = || -> Vec<Box<dyn Fn(Arc<TraceRing>) + Send + Sync>> {
        vec![
            Box::new(|ring: Arc<TraceRing>| ring.record_mutated_relaxed_publish(&ev(1))),
            Box::new(|ring: Arc<TraceRing>| assert_whole(&ring.snapshot(), &[ev(0), ev(1)])),
        ]
    };
    let after = |ring: Arc<TraceRing>| assert_whole(&ring.snapshot(), &[ev(0), ev(1)]);
    let failure = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(seeded_ring, threads(), after)
        .expect_fail("relaxed-publish mutation")
        .clone();
    assert!(
        failure.error.contains("torn record"),
        "unexpected failure: {failure}"
    );
    for _ in 0..3 {
        let replayed = Checker::new()
            .replay_threads_setup(&failure.trace, seeded_ring, threads(), after)
            .expect_fail("replay of relaxed-publish counterexample")
            .clone();
        assert_eq!(replayed.error, failure.error, "replay diverged");
        assert_eq!(
            replayed.schedules, 1,
            "replay must run exactly one schedule"
        );
    }
}

/// Property: two writers lapping each other on a 1-slot ring never corrupt
/// the sequence protocol — a later whole-ring read returns only whole
/// records, and every ticket is either retained, overwritten, or counted
/// as lapped.
#[test]
fn lap_race_two_writers_never_corrupt_the_ring() {
    Checker::new()
        .preemption_bound(2)
        .check_threads_setup(
            seeded_ring,
            vec![
                Box::new(|ring: Arc<TraceRing>| ring.record(&ev(1))),
                Box::new(|ring: Arc<TraceRing>| ring.record(&ev(2))),
            ],
            |ring: Arc<TraceRing>| {
                assert_whole(&ring.snapshot(), &[ev(0), ev(1), ev(2)]);
                assert_eq!(ring.pushed(), 3, "every writer must have taken a ticket");
                assert!(
                    ring.lapped() <= 2,
                    "at most the two racing writers can drop"
                );
            },
        )
        .assert_pass("two lapping writers");
}

/// Mutation: the exact pre-fix blind-store protocol must fail this
/// harness — a lapped writer's final even store overwrites the lapping
/// writer's odd claim, publishing a half-written record that even a
/// quiescent reader then accepts.
#[test]
fn lap_race_blind_store_mutation_is_caught_and_replays() {
    let threads = || -> Vec<Box<dyn Fn(Arc<TraceRing>) + Send + Sync>> {
        vec![
            Box::new(|ring: Arc<TraceRing>| ring.record_mutated_blind_store(&ev(1))),
            Box::new(|ring: Arc<TraceRing>| ring.record_mutated_blind_store(&ev(2))),
        ]
    };
    let after = |ring: Arc<TraceRing>| assert_whole(&ring.snapshot(), &[ev(0), ev(1), ev(2)]);
    let failure = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(seeded_ring, threads(), after)
        .expect_fail("blind-store mutation")
        .clone();
    assert!(
        failure.error.contains("torn record"),
        "unexpected failure: {failure}"
    );
    let replayed = Checker::new()
        .replay_threads_setup(&failure.trace, seeded_ring, threads(), after)
        .expect_fail("replay of blind-store counterexample")
        .clone();
    assert_eq!(replayed.error, failure.error, "replay diverged");
}

/// Property: concurrent histogram records are never lost — the counters
/// are RMWs, so two racing `record` calls always both land.
#[test]
fn histogram_concurrent_records_are_never_lost() {
    Checker::new()
        .preemption_bound(2)
        .check_threads_setup(
            Histogram::new,
            vec![
                Box::new(|h: Arc<Histogram>| h.record(1)),
                Box::new(|h: Arc<Histogram>| h.record(2)),
            ],
            |h: Arc<Histogram>| {
                let snap = h.snapshot();
                assert_eq!(snap.count, 2, "lost update: a concurrent record vanished");
                assert_eq!(snap.sum, 3);
                assert_eq!(snap.max, 2);
            },
        )
        .assert_pass("concurrent histogram records");
}

/// Mutation: replace the RMWs with load-then-store pairs and the same
/// harness must observe a lost update.
#[test]
fn histogram_load_store_mutation_is_caught_and_replays() {
    let threads = || -> Vec<Box<dyn Fn(Arc<Histogram>) + Send + Sync>> {
        vec![
            Box::new(|h: Arc<Histogram>| h.record_mutated_load_store(1)),
            Box::new(|h: Arc<Histogram>| h.record_mutated_load_store(2)),
        ]
    };
    let after = |h: Arc<Histogram>| {
        let snap = h.snapshot();
        assert_eq!(snap.count, 2, "lost update: a concurrent record vanished");
    };
    let failure = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(Histogram::new, threads(), after)
        .expect_fail("load-store mutation")
        .clone();
    assert!(
        failure.error.contains("lost update"),
        "unexpected failure: {failure}"
    );
    let replayed = Checker::new()
        .replay_threads_setup(&failure.trace, Histogram::new, threads(), after)
        .expect_fail("replay of load-store counterexample")
        .clone();
    assert_eq!(replayed.error, failure.error, "replay diverged");
}

// ---- worker-local tallies published by `absorb` ----------------------------
//
// A third thread multiplies what bound 2 must enumerate (two absorbing
// workers alone: 31 schedules; with a reader snapshotting beside them:
// 7 000), so these harnesses are kept as small as still exercises every
// word `absorb` writes: one observation per worker, a three-bucket
// histogram, one reader snapshot.

/// Worker `w`'s tally before it publishes: one observation, in a bucket of
/// its own (the count, sum and max words are the contended ones).
fn worker_local(w: u64) -> LocalHistogram {
    let mut local = LocalHistogram::new();
    local.record(1 + w);
    local
}

/// Σ over both workers of what `worker_local` holds.
const ABSORBED_COUNT: u64 = 2;
const ABSORBED_SUM: u64 = 1 + 2;
const ABSORBED_MAX: u64 = 2;

fn model_histogram() -> Histogram {
    Histogram::new_for_model(3)
}

fn assert_absorbed_everything(h: &Histogram) {
    let snap = h.snapshot();
    let totals = (
        snap.buckets().iter().sum::<u64>(),
        snap.count,
        snap.sum,
        snap.max,
    );
    assert_eq!(
        totals,
        (ABSORBED_COUNT, ABSORBED_COUNT, ABSORBED_SUM, ABSORBED_MAX),
        "lost update: part of an absorbed batch vanished (Σ buckets, count, sum, max)"
    );
}

type HistogramThreads = Vec<Box<dyn Fn(Arc<Histogram>) + Send + Sync>>;

/// The two publishing workers, running the real `absorb` or its mutant.
fn absorbing_workers(mutated: bool) -> HistogramThreads {
    let worker = move |w: u64| -> Box<dyn Fn(Arc<Histogram>) + Send + Sync> {
        Box::new(move |h: Arc<Histogram>| {
            let mut local = worker_local(w);
            if mutated {
                h.absorb_mutated_load_store(&mut local);
            } else {
                h.absorb(&mut local);
            }
            assert_eq!(local.count(), 0, "absorb must empty the local");
        })
    };
    vec![worker(0), worker(1)]
}

/// A reader's view mid-publish: skewed, but no word is ever ahead of where
/// it ends up — so `max`, which ends at the largest value recorded, only
/// ever grew towards it.
fn snapshotting_reader() -> Box<dyn Fn(Arc<Histogram>) + Send + Sync> {
    Box::new(|h: Arc<Histogram>| {
        let snap = h.snapshot();
        assert!(snap.count <= ABSORBED_COUNT && snap.sum <= ABSORBED_SUM);
        assert!(snap.buckets().iter().sum::<u64>() <= ABSORBED_COUNT);
        assert!(snap.max <= ABSORBED_MAX, "max overshot");
    })
}

fn absorbers_and_reader() -> HistogramThreads {
    let mut threads = absorbing_workers(false);
    threads.push(snapshotting_reader());
    threads
}

/// Property: two workers publishing their local tallies into one shared
/// histogram while a reader snapshots it conserve every observation —
/// Σ buckets = count = Σ of what the locals held — and `max` is monotone.
#[test]
fn absorb_conserves_observations() {
    let schedules = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(model_histogram, absorbers_and_reader(), |h| {
            assert_absorbed_everything(&h);
        })
        .assert_pass("two absorbing workers + snapshotting reader");
    assert!(
        schedules > 10,
        "suspiciously small exploration: {schedules}"
    );
}

/// Mutation: an `absorb` that assumes it is the only writer (load, add,
/// store) loses a whole batch when two workers publish at once.
#[test]
fn absorb_load_store_mutation_is_caught_and_replays() {
    let after = |h: Arc<Histogram>| assert_absorbed_everything(&h);
    let failure = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(model_histogram, absorbing_workers(true), after)
        .expect_fail("load-store absorb mutation")
        .clone();
    assert!(
        failure.error.contains("lost update"),
        "unexpected failure: {failure}"
    );
    let replayed = Checker::new()
        .replay_threads_setup(
            &failure.trace,
            model_histogram,
            absorbing_workers(true),
            after,
        )
        .expect_fail("replay of load-store absorb counterexample")
        .clone();
    assert_eq!(replayed.error, failure.error, "replay diverged");
}

// ---- batched span recording -------------------------------------------------
//
// Same budget problem, harder: a ring write is a dozen scheduling points.
// One single-record writer against a reader is already 15 000 bound-2
// schedules (a minute: `seqlock_reader_never_sees_a_torn_record`); a
// two-record batch against a reader passes 30 000 without finishing, and
// two batch writers with a concurrent reader more again. So the
// exhaustive pass races the two batch writers and reads the whole ring
// afterwards, as the lap-race harness does; the reader racing a writer is
// the seqlock harness above, which runs the same `write` step a batch
// does per record; and the sampled sweep below runs all three threads at
// once.

/// Every record a batch writer may publish, plus the seed.
fn batch_universe() -> Vec<TraceRecord> {
    (0..=4).map(ev).collect()
}

type RingThreads = Vec<Box<dyn Fn(Arc<TraceRing>) + Send + Sync>>;

/// A writer publishing `[ev(first), ev(first + 1)]` as one batch.
fn batch_writer(first: u64, mutated: bool) -> Box<dyn Fn(Arc<TraceRing>) + Send + Sync> {
    Box::new(move |ring: Arc<TraceRing>| {
        let batch = [ev(first), ev(first + 1)];
        if mutated {
            ring.record_batch_mutated_overclaim(&batch);
        } else {
            ring.record_batch(&batch);
        }
    })
}

fn ring_reader() -> Box<dyn Fn(Arc<TraceRing>) + Send + Sync> {
    Box::new(|ring: Arc<TraceRing>| assert_whole(&ring.snapshot(), &batch_universe()))
}

/// After `batches` two-record batches on the seeded one-slot ring.
fn assert_batches_accounted(ring: &TraceRing, batches: u64) {
    assert_whole(&ring.snapshot(), &batch_universe());
    assert_eq!(
        ring.pushed(),
        1 + 2 * batches,
        "ticket accounting: a batch of n takes exactly n tickets"
    );
    assert!(
        ring.lapped() <= 2 * batches,
        "only the racing writes can drop"
    );
}

/// Property: batches claimed with one `fetch_add(n)` publish like `n`
/// single records. Two batch writers lapping each other over one slot
/// (four tickets, every write contended) leave only whole records for the
/// reader that follows and account for every ticket.
#[test]
fn record_spans_batch_never_tears() {
    let writers: RingThreads = vec![batch_writer(1, false), batch_writer(3, false)];
    let schedules = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(seeded_ring, writers, |ring| {
            assert_batches_accounted(&ring, 2);
        })
        .assert_pass("two batch writers, then a reader");
    assert!(
        schedules > 10,
        "suspiciously small exploration: {schedules}"
    );
}

/// Mutation: claim `n` tickets, write `n + 1`. The extra write lands on a
/// ticket the other writer owns: the ring ends up with one sequence number
/// published over two different records (a reader may accept a mix), or
/// with a write nobody took a ticket for.
#[test]
fn record_spans_overclaim_mutation_is_caught_and_replays() {
    let threads = || -> RingThreads { vec![batch_writer(1, true), batch_writer(3, true)] };
    let after = |ring: Arc<TraceRing>| {
        assert_batches_accounted(&ring, 2);
        // Ticket 4 is the last one claimed: nothing newer may be retained.
        assert_eq!(
            ring.snapshot(),
            vec![ev(4)],
            "ticket accounting: the slot holds a record written past the claim"
        );
    };
    let failure = Checker::new()
        .preemption_bound(2)
        .check_threads_setup(seeded_ring, threads(), after)
        .expect_fail("overclaiming batch mutation")
        .clone();
    assert!(
        failure.error.contains("torn record") || failure.error.contains("ticket accounting"),
        "unexpected failure: {failure}"
    );
    let replayed = Checker::new()
        .replay_threads_setup(&failure.trace, seeded_ring, threads(), after)
        .expect_fail("replay of overclaim counterexample")
        .clone();
    assert_eq!(replayed.error, failure.error, "replay diverged");
}

/// Both properties under seeded-random sampling, with every thread at once
/// — two absorbing workers and a reader; two batch writers and a reader —
/// the shape CI's sweep step runs with `CAMP_CHECK_SAMPLES=50000`, far
/// past the exhaustive bound (default 2 000 locally).
#[test]
fn sampled_absorb_and_batch_sweeps_hold() {
    let samples: u64 = std::env::var("CAMP_CHECK_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let absorbed = Checker::new()
        .sample_threads_setup(
            0xAB50_4B00,
            samples,
            model_histogram,
            absorbers_and_reader(),
            |h| assert_absorbed_everything(&h),
        )
        .assert_pass("sampled absorb sweep");
    println!("camp-check sampled: absorb_conserves_observations, {absorbed} schedules");
    let everyone: RingThreads = vec![
        batch_writer(1, false),
        batch_writer(3, false),
        ring_reader(),
    ];
    let batched = Checker::new()
        .sample_threads_setup(0xBA7C_4ED0, samples, seeded_ring, everyone, |ring| {
            assert_batches_accounted(&ring, 2);
        })
        .assert_pass("sampled batch-span sweep");
    println!("camp-check sampled: record_spans_batch_never_tears, {batched} schedules");
}
