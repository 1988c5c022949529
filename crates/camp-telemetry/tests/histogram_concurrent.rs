//! Concurrent-recording property tests for the lock-free histogram:
//! seeded `Rng64` loops assert that (a) recording from many threads loses
//! nothing, (b) a merge equals the sum of its parts, and (c) every readout
//! quantile is within one bucket of the exact sample quantile.

use std::sync::Arc;

use camp_core::rng::Rng64;
use camp_telemetry::histogram::{bucket_index, bucket_upper_bound};
use camp_telemetry::{Histogram, HistogramSnapshot};

/// Draws a heavy-tailed latency-like value: uniform magnitude, uniform
/// mantissa — covers every bucket range the server will ever hit.
fn draw(rng: &mut Rng64) -> u64 {
    let magnitude = rng.range_u64(0, 36); // up to ~64 s in microseconds
    rng.range_u64(0, 2) + (rng.next_u64() >> (63 - magnitude).max(28))
}

#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: usize = 20_000;
    let histogram = Arc::new(Histogram::new());
    let workers: Vec<_> = (0..THREADS)
        .map(|worker| {
            let histogram = Arc::clone(&histogram);
            std::thread::spawn(move || {
                let mut rng = Rng64::seed_from_u64(0xC0FFEE ^ worker);
                let mut sum = 0u64;
                for _ in 0..PER_THREAD {
                    let v = draw(&mut rng);
                    histogram.record(v);
                    sum += v;
                }
                sum
            })
        })
        .collect();
    let expected_sum: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let snap = histogram.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD as u64);
    assert_eq!(snap.sum, expected_sum);
    assert_eq!(
        snap.buckets().iter().sum::<u64>(),
        THREADS * PER_THREAD as u64,
        "bucket totals must equal the observation count"
    );
}

#[test]
fn merge_of_parts_equals_the_whole() {
    // Shard-per-thread recording, merged two ways, against one combined
    // histogram fed the identical value stream.
    const SHARDS: u64 = 6;
    let shards: Vec<Histogram> = (0..SHARDS).map(|_| Histogram::new()).collect();
    let combined = Histogram::new();
    for shard_id in 0..SHARDS {
        let mut rng = Rng64::seed_from_u64(7_777 + shard_id);
        for _ in 0..10_000 {
            let v = draw(&mut rng);
            shards[shard_id as usize].record(v);
            combined.record(v);
        }
    }

    // Snapshot-level merge.
    let mut merged = HistogramSnapshot::empty();
    for shard in &shards {
        merged.merge(&shard.snapshot());
    }
    assert_eq!(merged, combined.snapshot());

    // Histogram-level merge.
    let target = Histogram::new();
    for shard in &shards {
        target.merge_from(shard);
    }
    assert_eq!(target.snapshot(), combined.snapshot());
    for q in [0.5, 0.9, 0.99, 0.999] {
        assert_eq!(
            target.snapshot().quantile(q),
            combined.snapshot().quantile(q)
        );
    }
}

#[test]
fn quantile_error_is_at_most_one_bucket() {
    for seed in [1u64, 42, 2024] {
        let mut rng = Rng64::seed_from_u64(seed);
        let histogram = Histogram::new();
        let mut values: Vec<u64> = (0..50_000).map(|_| draw(&mut rng)).collect();
        for &v in &values {
            histogram.record(v);
        }
        values.sort_unstable();
        let snap = histogram.snapshot();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let reported = snap.quantile(q);
            // Bucketing is monotone, so the rank-th observation in bucket
            // order is the rank-th sorted value: the report must be that
            // value's own bucket upper bound (capped at the observed max),
            // i.e. within one bucket of the exact quantile.
            let exact_bucket = bucket_index(exact);
            assert_eq!(
                bucket_index(reported),
                exact_bucket,
                "seed {seed} q {q}: reported {reported} not within one bucket of {exact}"
            );
            assert!(
                reported <= bucket_upper_bound(exact_bucket),
                "seed {seed} q {q}: reported {reported} beyond bucket of {exact}"
            );
        }
    }
}

/// What `Histogram::reset` promises while a writer races it: "eventually
/// consistent, never corrupt". No ordering between words is promised — a
/// record that lands between the clearing of its bucket and the clearing
/// of `count` stays in the bucket and is lost from the count, and nothing
/// caps how many do — so there is no `Σbuckets ≤ count + k` to assert.
/// What does hold: every word only ever receives `record`'s increments and
/// `reset`'s zero, so mid-race no word exceeds what the writer could have
/// put there; and once the writer is quiet a reset really is a reset.
#[test]
fn reset_under_concurrent_load_stays_coherent() {
    const RECORDS: u64 = 100_000;
    const VALUE_CAP: u64 = 1 << 20;
    let histogram = Arc::new(Histogram::new());
    let recorder = {
        let histogram = Arc::clone(&histogram);
        std::thread::spawn(move || {
            let mut rng = Rng64::seed_from_u64(99);
            for _ in 0..RECORDS {
                histogram.record(rng.range_u64(0, VALUE_CAP));
            }
        })
    };
    for _ in 0..50 {
        histogram.reset();
        let snap = histogram.snapshot();
        // Never corrupt: nothing the writer did not record.
        assert!(snap.buckets().iter().sum::<u64>() <= RECORDS);
        assert!(snap.count <= RECORDS);
        assert!(snap.max < VALUE_CAP);
        assert!(snap.sum < RECORDS * VALUE_CAP);
    }
    recorder.join().unwrap();
    // Eventually consistent: with the writer quiet, a reset clears every
    // word and later records are counted exactly.
    histogram.reset();
    assert_eq!(histogram.snapshot(), HistogramSnapshot::empty());
    for v in [3, 5, 8] {
        histogram.record(v);
    }
    let snap = histogram.snapshot();
    assert_eq!((snap.count, snap.sum, snap.max), (3, 16, 8));
    assert_eq!(snap.buckets().iter().sum::<u64>(), 3);
}
