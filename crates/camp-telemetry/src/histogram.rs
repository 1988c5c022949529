//! Lock-free log-bucketed histograms (HDR-style).
//!
//! Values (typically latencies in microseconds) are assigned to buckets by
//! their power-of-2 magnitude, with each power-of-2 range subdivided into
//! [`SUB_BUCKETS`] equal sub-buckets — the classic HdrHistogram layout,
//! reduced to its essentials. The scheme gives a bounded *relative* error:
//! any value is reported as its bucket's upper bound, which overshoots the
//! true value by at most one sub-bucket width (`< 1/16` of the value, about
//! 6.25%). That is precise enough to tell a 1.2 ms p99 from a 2 ms p99 and
//! cheap enough to sit on the per-request hot path.
//!
//! Recording is wait-free: three relaxed `fetch_add`s and a `fetch_max`,
//! no mutex anywhere. Cross-shard (or cross-histogram) aggregation goes
//! through [`Histogram::merge_from`] or [`HistogramSnapshot::merge`]; the
//! concurrent property tests assert merge equals the sum of its parts.
//!
//! A writer that owns its observations outright — one reactor worker, one
//! store shard under its lock — records into a plain [`LocalHistogram`]
//! through `&mut` instead: no atomics at all. It either publishes the lot
//! into a shared [`Histogram`] now and then ([`Histogram::absorb`], which
//! pays the four RMWs once per touched bucket rather than once per
//! observation) or is read in place under whatever lock owns it.

use camp_check::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits: each power-of-2 range splits into
/// `2^SUB_BUCKET_BITS` sub-buckets.
pub const SUB_BUCKET_BITS: u32 = 4;

/// Sub-buckets per power-of-2 major bucket (16).
pub const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Total bucket count covering the full `u64` range: the 16 exact buckets
/// for values below [`SUB_BUCKETS`], plus 16 per remaining magnitude.
pub const BUCKET_COUNT: usize = ((64 - SUB_BUCKET_BITS + 1) * SUB_BUCKETS as u32) as usize;

/// The bucket index for `value`. Exact for values below [`SUB_BUCKETS`];
/// logarithmic with 16-way subdivision above.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BUCKET_BITS;
    let major = u64::from(msb - SUB_BUCKET_BITS + 1);
    (major * SUB_BUCKETS + ((value >> shift) - SUB_BUCKETS)) as usize
}

/// The largest value mapping to bucket `index` (what quantile readout
/// reports, keeping the error one-sided and at most one bucket).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    let major = index as u64 / SUB_BUCKETS;
    let sub = index as u64 % SUB_BUCKETS;
    if major == 0 {
        sub
    } else {
        ((SUB_BUCKETS + sub + 1) << (major - 1)) - 1
    }
}

/// A concurrent log-bucketed histogram.
///
/// # Examples
///
/// ```
/// use camp_telemetry::Histogram;
///
/// let h = Histogram::new();
/// h.record(100);
/// h.record(200);
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 2);
/// assert_eq!(snap.sum, 300);
/// assert!(snap.quantile(0.99) >= 200);
/// ```
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ordering: Relaxed(x3) — debug formatting of statistics counters.
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (~8 KiB of buckets).
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Model-checking constructor: only the first `buckets` (exact) buckets,
    /// so a snapshot is a handful of loads instead of ~980 scheduling
    /// points and a harness with a snapshotting reader stays tractable.
    /// Holds values below `buckets` (at most [`SUB_BUCKETS`]) only;
    /// `record`, `absorb` and `snapshot` are byte-for-byte the production
    /// ones.
    #[cfg(camp_check)]
    #[must_use]
    pub fn new_for_model(buckets: u64) -> Histogram {
        Histogram {
            buckets: (0..buckets.min(SUB_BUCKETS))
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free; relaxed atomics only.
    pub fn record(&self, value: u64) {
        // ordering: Relaxed(x4) — independent statistics counters. Each word
        // is updated with an atomic RMW, so concurrent records are never
        // lost; readers tolerate observing the words at slightly different
        // points in time (snapshot documents the skew).
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.count.load(Ordering::Relaxed)
    }

    /// Adds every observation of `other` into `self` (cross-shard merge).
    pub fn merge_from(&self, other: &Histogram) {
        // ordering: Relaxed throughout — merging statistics counters; the
        // result is only ever read through the same skew-tolerant snapshot.
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Moves every observation `local` holds into `self` and leaves `local`
    /// empty: one `fetch_add` per bucket the local touched, then the three
    /// summary words. Safe against concurrent `record`s, `absorb`s and
    /// snapshots — every word moves by an atomic RMW, so nothing is lost;
    /// a snapshot racing an absorb sees the usual skew, bounded by the
    /// batch being moved.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        // ordering: Relaxed throughout — the same independent statistics
        // counters `record` updates, moved in bulk; readers tolerate skew.
        for &index in &local.touched {
            let bucket = &mut local.buckets[usize::from(index)];
            self.buckets[usize::from(index)].fetch_add(*bucket, Ordering::Relaxed);
            *bucket = 0;
        }
        local.touched.clear();
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
        (local.count, local.sum, local.max) = (0, 0, 0);
    }

    /// Zeroes every bucket and counter. Each word is cleared atomically;
    /// a racing `record` may land before or after its bucket is cleared,
    /// so a reset under fire is eventually consistent, never corrupt.
    pub fn reset(&self) {
        // ordering: Relaxed throughout — documented as eventually consistent
        // under concurrent recording; no ordering between words is promised.
        for bucket in self.buckets.iter() {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy for quantile readout. Concurrent recording can
    /// skew `count`/`sum` by in-flight observations, never corrupt them.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed throughout — point-in-time statistics read; the
        // doc comment above owns the skew caveat.
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A deliberately broken `record` for the model-checking harnesses: the
/// read-modify-write counters replaced by load-then-store pairs, which lose
/// concurrent increments. The paired harness asserts `camp-check` catches
/// the lost update (mutation test for the checker, not a usable API).
#[cfg(camp_check)]
impl Histogram {
    /// [`Histogram::record`] with every atomic RMW weakened to a separate
    /// load and store.
    pub fn record_mutated_load_store(&self, value: u64) {
        let bucket = &self.buckets[bucket_index(value)];
        // MUTATION: load + store is not atomic — concurrent records race.
        // ordering: Relaxed(x8) — same strength as the real `record`; the
        // mutation under test is the lost RMW atomicity, not the ordering.
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum
            .store(self.sum.load(Ordering::Relaxed) + value, Ordering::Relaxed);
        self.max.store(
            self.max.load(Ordering::Relaxed).max(value),
            Ordering::Relaxed,
        );
    }
}

/// Deliberately broken `absorb` for the model-checking harnesses: the bulk
/// move done with load-then-store pairs, which is only right for a sole
/// writer — exactly the assumption `absorb` must not make, since every
/// worker absorbs into the same shared histogram.
#[cfg(camp_check)]
impl Histogram {
    /// [`Histogram::absorb`] with every atomic RMW weakened to a separate
    /// load and store.
    pub fn absorb_mutated_load_store(&self, local: &mut LocalHistogram) {
        // MUTATION: load + store is not atomic — concurrent absorbs race.
        // ordering: Relaxed throughout — same strength as the real
        // `absorb`; the mutation under test is the lost RMW atomicity.
        for &index in &local.touched {
            let shared = &self.buckets[usize::from(index)];
            let moved = std::mem::take(&mut local.buckets[usize::from(index)]);
            shared.store(shared.load(Ordering::Relaxed) + moved, Ordering::Relaxed);
        }
        local.touched.clear();
        self.count.store(
            self.count.load(Ordering::Relaxed) + local.count,
            Ordering::Relaxed,
        );
        self.sum.store(
            self.sum.load(Ordering::Relaxed) + local.sum,
            Ordering::Relaxed,
        );
        self.max.store(
            self.max.load(Ordering::Relaxed).max(local.max),
            Ordering::Relaxed,
        );
        (local.count, local.sum, local.max) = (0, 0, 0);
    }
}

/// A [`Histogram`] for one owner: the same buckets, plain `u64`s, recorded
/// through `&mut`. Exclusivity is the borrow checker's business, not a
/// convention — there is no atomic here to get wrong.
///
/// It remembers which buckets it has touched, so publishing
/// ([`Histogram::absorb`]) and reading ([`LocalHistogram::snapshot`]) cost
/// what was recorded, not the full bucket range. It holds no buckets until
/// its first record, which allocates all of them at once (the shared
/// histogram's 8 KiB) and room to list every one as touched, so no later
/// record allocates — not even one that sets a new high, or touches a
/// bucket in a histogram that is never absorbed.
///
/// # Examples
///
/// ```
/// use camp_telemetry::{Histogram, LocalHistogram};
///
/// let shared = Histogram::new();
/// let mut mine = LocalHistogram::new();
/// mine.record(100);
/// mine.record(200);
/// shared.absorb(&mut mine);
/// assert_eq!(mine.count(), 0);
/// assert_eq!(shared.snapshot().sum, 300);
/// ```
#[derive(Clone)]
pub struct LocalHistogram {
    /// Every bucket once something was recorded; empty before.
    buckets: Vec<u64>,
    /// Indices of the non-zero buckets, in first-touched order.
    touched: Vec<u16>,
    count: u64,
    sum: u64,
    max: u64,
}

// `touched` holds bucket indices as `u16`.
const _: () = assert!(BUCKET_COUNT <= u16::MAX as usize);

impl std::fmt::Debug for LocalHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// Creates an empty histogram (no buckets until something is recorded).
    #[must_use]
    pub fn new() -> LocalHistogram {
        LocalHistogram {
            buckets: Vec::new(),
            touched: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let index = bucket_index(value);
        if self.buckets.is_empty() {
            self.buckets.resize(BUCKET_COUNT, 0);
            self.touched.reserve_exact(BUCKET_COUNT);
        }
        let bucket = &mut self.buckets[index];
        if *bucket == 0 {
            self.touched.push(index as u16);
        }
        *bucket += 1;
        self.count += 1;
        // Wraps like the shared histogram's `fetch_add` does.
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Observations held (recorded and not yet absorbed or cleared).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// A copy for quantile readout and cross-owner merging.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snapshot = HistogramSnapshot::empty();
        for &index in &self.touched {
            snapshot.buckets[usize::from(index)] = self.buckets[usize::from(index)];
        }
        (snapshot.count, snapshot.sum, snapshot.max) = (self.count, self.sum, self.max);
        snapshot
    }
}

/// An owned, immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th observation (overshoot bounded by
    /// one sub-bucket). Returns 0 for an empty snapshot.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report beyond the observed maximum.
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Raw bucket counts (index via [`bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        let mut checked = 0u32;
        for exp in 0..64u32 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << exp).saturating_add(off << exp.saturating_sub(5));
                let i = bucket_index(v);
                assert!(bucket_upper_bound(i) >= v, "upper({i}) < {v}");
                if i > 0 {
                    assert!(bucket_upper_bound(i - 1) < v, "bucket {i} too wide for {v}");
                }
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn bucket_indices_are_monotone_and_in_range() {
        let mut last = 0;
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            let i = bucket_index(v);
            assert!(i >= last && i < BUCKET_COUNT, "index {i} for {v}");
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_one_sub_bucket() {
        for v in [17u64, 100, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let reported = bucket_upper_bound(bucket_index(v));
            let err = reported - v;
            // One sub-bucket is 1/16 of the major bucket, i.e. < v/16 + 1.
            assert!(err <= v / 16 + 1, "value {v} reported {reported}");
        }
    }

    #[test]
    fn quantiles_read_back_recorded_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.max, 1000);
        let p50 = snap.quantile(0.5);
        assert!((500..=532).contains(&p50), "p50 {p50}");
        let p99 = snap.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(snap.quantile(1.0), 1000);
        assert!(snap.quantile(0.0) >= 1);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap, HistogramSnapshot::empty());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            both.record(v * 3);
        }
        for v in 0..300u64 {
            b.record(v * 7 + 1);
            both.record(v * 7 + 1);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), both.snapshot());

        let mut sa = Histogram::new().snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count, 300);
    }

    #[test]
    fn local_histogram_agrees_with_the_shared_one() {
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in (0..2000u64).map(|v| v * v % 7919) {
            shared.record(v);
            local.record(v);
        }
        assert_eq!(local.snapshot(), shared.snapshot());
        assert_eq!(local.count(), 2000);
        assert_eq!(LocalHistogram::new().snapshot(), HistogramSnapshot::empty());
    }

    #[test]
    fn absorb_moves_everything_and_empties_the_local() {
        let direct = Histogram::new();
        let absorbed = Histogram::new();
        let mut local = LocalHistogram::new();
        // Several publish rounds, the last one empty.
        for round in 0..4u64 {
            for v in 0..50 * round {
                direct.record(v * 31 + round);
                local.record(v * 31 + round);
            }
            absorbed.absorb(&mut local);
            assert_eq!(local.snapshot(), HistogramSnapshot::empty());
            assert!(local.touched.is_empty());
        }
        absorbed.absorb(&mut local);
        assert_eq!(absorbed.snapshot(), direct.snapshot());
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record(42);
        h.record(7);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
        h.record(5);
        assert_eq!(h.count(), 1);
    }
}
