//! The persistence engine's armed/degraded state machine, extracted so the
//! `camp-check` model harnesses can explore it in isolation.
//!
//! The state word is read on every append (the lock-free fast path that
//! decides append-vs-drop) and written on the rare trip/re-arm
//! transitions. Both transitions are compare-exchanges, so the transition
//! counters below count *actual* state changes: concurrent trippers (or a
//! re-armer racing a tripper) cannot double-count or lose one. The model
//! harness in this file checks the conservation law
//! `trips - rearms == (degraded ? 1 : 0)` over every interleaving, plus
//! the append-side law "every append is either persisted or counted
//! dropped", and the paired mutation tests prove the checker catches the
//! blind-store variants of both transitions.
//!
//! [`UnsyncedFlag`] is the lock-free half of the ack barrier: the writer
//! lock owns the truth ("records were appended that no commit has finished
//! with" — not yet written, or, under `--fsync always`, not yet synced), the
//! flag mirrors it so a reactor worker can ask "does anything I appended
//! still need a commit?" without taking the lock. Its harness models two
//! workers doing append → park → commit (write, then sync) → ack and checks
//! that no ack ever leaves ahead of the sync that covers it.

use camp_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const STATE_ACTIVE: u64 = 0;
const STATE_DEGRADED: u64 = 1;

/// Armed/degraded state plus the transition and drop accounting that must
/// stay consistent with it.
#[derive(Debug)]
pub(crate) struct EngineState {
    state: AtomicU64,
    /// Successful active→degraded transitions.
    trips: AtomicU64,
    /// Successful degraded→active transitions.
    rearms: AtomicU64,
    /// Appends dropped because the engine was degraded.
    dropped: AtomicU64,
}

impl EngineState {
    /// A fresh, armed engine.
    pub(crate) const fn new() -> EngineState {
        EngineState {
            state: AtomicU64::new(STATE_ACTIVE),
            trips: AtomicU64::new(0),
            rearms: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether the engine has tripped to `degraded`.
    pub(crate) fn is_degraded(&self) -> bool {
        // ordering: Acquire — pairs with the Release transitions so an
        // appender that observes `degraded` also observes everything the
        // tripping thread published before the trip.
        self.state.load(Ordering::Acquire) == STATE_DEGRADED
    }

    /// Trips active→degraded. Returns `true` only for the call that
    /// actually performed the transition (callers log exactly once).
    pub(crate) fn trip(&self) -> bool {
        // ordering: AcqRel/Acquire — the success Release publishes the
        // tripping thread's writes to appenders that acquire the state;
        // the Acquire sides order this transition after the prior one.
        let tripped = self
            .state
            .compare_exchange(
                STATE_ACTIVE,
                STATE_DEGRADED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if tripped {
            // ordering: Relaxed — counter; the CAS above already
            // guarantees at most one increment per actual transition.
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        tripped
    }

    /// Re-arms degraded→active. Returns `true` only for the call that
    /// performed the transition — a racing second re-armer (or a re-arm
    /// of an engine that never tripped) is a no-op, never a double-arm.
    pub(crate) fn rearm(&self) -> bool {
        // ordering: AcqRel/Acquire — mirror of `trip`: the Release
        // publishes the rebuilt log to appenders, the Acquire orders the
        // transition after the trip it undoes.
        let rearmed = self
            .state
            .compare_exchange(
                STATE_DEGRADED,
                STATE_ACTIVE,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if rearmed {
            // ordering: Relaxed — counter guarded by the CAS above.
            self.rearms.fetch_add(1, Ordering::Relaxed);
        }
        rearmed
    }

    /// Counts one append dropped while degraded.
    pub(crate) fn note_dropped(&self) {
        // ordering: Relaxed — statistics counter.
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends dropped while degraded.
    pub(crate) fn dropped(&self) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Successful degraded→active transitions.
    pub(crate) fn rearms(&self) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.rearms.load(Ordering::Relaxed)
    }

    /// Successful active→degraded transitions.
    pub(crate) fn trips(&self) -> u64 {
        // ordering: Relaxed — statistics counter.
        self.trips.load(Ordering::Relaxed)
    }
}

/// Lock-free mirror of the writer's "appended since the last finished
/// commit" bit. Written only under the writer lock; read without it by
/// [`crate::persist::Persist::needs_commit`].
///
/// The read may be stale in one direction only: a worker can see `true`
/// for records another worker's commit already carried (it then takes the
/// lock, finds nothing owed, and returns), but never `false` while a
/// record *it* appended is uncommitted — its own `mark` is in the flag's
/// modification order, so its later load returns that store or a newer
/// one, and every newer `clear` ran after a commit that started after the
/// append (both under the writer lock).
#[derive(Debug)]
pub(crate) struct UnsyncedFlag(AtomicBool);

impl UnsyncedFlag {
    /// A flag for a log with nothing appended yet.
    pub(crate) const fn new() -> UnsyncedFlag {
        UnsyncedFlag(AtomicBool::new(false))
    }

    /// A record was appended (call under the writer lock).
    pub(crate) fn mark(&self) {
        // ordering: Relaxed — the appender's own later `get` is ordered by
        // coherence on this one location; other threads learn of the
        // append through the writer lock, not through this store.
        self.0.store(true, Ordering::Relaxed);
    }

    /// Nothing appended so far is waiting for a commit any more (call
    /// under the writer lock): the write has returned and, under `--fsync
    /// always`, `sync()` has returned `Ok` — never earlier, the harness's
    /// mutation — or the segment was left behind or given up on after a
    /// counted error.
    pub(crate) fn clear(&self) {
        // ordering: Release — pairs with the Acquire load in `get`: a
        // worker that reads `false` and skips the lock also observes the
        // completed fsync (and, in the model, the synced sequence) that
        // preceded this store.
        self.0.store(false, Ordering::Release);
    }

    /// Whether uncommitted records may exist (see the type docs for which way
    /// the answer can be stale).
    pub(crate) fn get(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `clear`.
        self.0.load(Ordering::Acquire)
    }
}

/// Deliberately broken transition variants for the model harnesses (see
/// the module docs): each reproduces the state machine without the CAS,
/// and the paired harness asserts `camp-check` catches the resulting
/// double-count with a replayable counterexample.
#[cfg(camp_check)]
impl EngineState {
    /// `trip` as a load-then-store: two concurrent trippers can both
    /// observe `active` and both count a transition.
    pub(crate) fn trip_mutated_load_store(&self) -> bool {
        // ordering: Acquire/Release/Relaxed — same strengths as the real
        // `trip`; the mutation is the lost atomicity, not the orderings.
        if self.state.load(Ordering::Acquire) == STATE_DEGRADED {
            return false;
        }
        // MUTATION: blind store — the check above is not atomic with it.
        self.state.store(STATE_DEGRADED, Ordering::Release);
        self.trips.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// `rearm` as a load-then-store: a re-armer racing a tripper can
    /// claim a transition that never happened (double-arm).
    pub(crate) fn rearm_mutated_load_store(&self) -> bool {
        // ordering: Acquire/Release/Relaxed — same strengths as the real
        // `rearm`; the mutation is the lost atomicity, not the orderings.
        if self.state.load(Ordering::Acquire) == STATE_ACTIVE {
            return false;
        }
        // MUTATION: blind store — races a concurrent trip or re-arm.
        self.state.store(STATE_ACTIVE, Ordering::Release);
        self.rearms.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(all(test, camp_check))]
mod model_tests {
    use std::sync::{Arc, PoisonError};

    use camp_check::sync::atomic::{AtomicU64, Ordering};
    use camp_check::sync::{Mutex, MutexGuard};
    use camp_check::Checker;

    use super::{EngineState, UnsyncedFlag};

    /// The conservation law every interleaving must satisfy once the dust
    /// settles: transitions alternate, so the counters and the final state
    /// agree exactly.
    fn assert_conserved(s: &EngineState) {
        let expected = u64::from(s.is_degraded());
        assert_eq!(
            s.trips() - s.rearms(),
            expected,
            "double-arm or lost transition: trips={} rearms={} degraded={}",
            s.trips(),
            s.rearms(),
            expected == 1
        );
    }

    /// Two trippers and a re-armer race freely: transition counts must
    /// match actual state changes, and at most one tripper may win each
    /// armed window.
    #[test]
    fn degraded_rearm_transitions_never_double_count() {
        Checker::new()
            .preemption_bound(2)
            .check_threads_setup(
                EngineState::new,
                vec![
                    Box::new(|s: Arc<EngineState>| {
                        s.trip();
                    }),
                    Box::new(|s: Arc<EngineState>| {
                        s.trip();
                    }),
                    Box::new(|s: Arc<EngineState>| {
                        s.rearm();
                    }),
                ],
                |s: Arc<EngineState>| {
                    assert_conserved(&s);
                    assert!(s.trips() <= 2 && s.rearms() <= 1);
                },
            )
            .assert_pass("trip/trip/rearm conservation");
    }

    /// The append fast path: every append attempt is either persisted
    /// (simulated by a counter) or counted as dropped — never lost, even
    /// while the state flips underneath.
    #[test]
    fn appends_are_persisted_or_counted_dropped_never_lost() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct World {
            engine: EngineState,
            appended: AtomicU64, // plain atomic: out-of-band accounting
        }
        Checker::new()
            .preemption_bound(2)
            .check_threads_setup(
                || World {
                    engine: EngineState::new(),
                    appended: AtomicU64::new(0),
                },
                vec![
                    Box::new(|w: Arc<World>| {
                        for _ in 0..2 {
                            if w.engine.is_degraded() {
                                w.engine.note_dropped();
                            } else {
                                w.appended.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }),
                    Box::new(|w: Arc<World>| {
                        w.engine.trip();
                    }),
                ],
                |w: Arc<World>| {
                    assert_conserved(&w.engine);
                    assert_eq!(
                        w.appended.load(Ordering::Relaxed) + w.engine.dropped(),
                        2,
                        "an append vanished: neither persisted nor counted dropped"
                    );
                },
            )
            .assert_pass("append-or-drop accounting");
    }

    /// Mutation: load-then-store transitions must break the conservation
    /// law, and the counterexample must replay deterministically.
    #[test]
    fn blind_store_transition_mutation_is_caught_and_replays() {
        let threads = || -> Vec<Box<dyn Fn(Arc<EngineState>) + Send + Sync>> {
            vec![
                Box::new(|s: Arc<EngineState>| {
                    s.trip_mutated_load_store();
                }),
                Box::new(|s: Arc<EngineState>| {
                    s.trip_mutated_load_store();
                }),
                Box::new(|s: Arc<EngineState>| {
                    s.rearm_mutated_load_store();
                }),
            ]
        };
        let after = |s: Arc<EngineState>| assert_conserved(&s);
        let failure = Checker::new()
            .preemption_bound(2)
            .check_threads_setup(EngineState::new, threads(), after)
            .expect_fail("load-store transition mutation")
            .clone();
        assert!(
            failure.error.contains("double-arm or lost transition"),
            "unexpected failure: {failure}"
        );
        let replayed = Checker::new()
            .replay_threads_setup(&failure.trace, EngineState::new, threads(), after)
            .expect_fail("replay of transition counterexample")
            .clone();
        assert_eq!(replayed.error, failure.error, "replay diverged");
    }

    /// The same conservation harness under seeded-random sampling — the
    /// shape CI runs with a large schedule budget (`CAMP_CHECK_SAMPLES`,
    /// default 2 000 locally) to sweep far past the exhaustive bound.
    #[test]
    fn sampled_transition_sweep_stays_conserved() {
        let samples: u64 = std::env::var("CAMP_CHECK_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000);
        Checker::new()
            .sample_threads_setup(
                0xCA3A_B0BA,
                samples,
                EngineState::new,
                vec![
                    Box::new(|s: Arc<EngineState>| {
                        s.trip();
                    }),
                    Box::new(|s: Arc<EngineState>| {
                        if !s.rearm() {
                            s.trip();
                        }
                    }),
                    Box::new(|s: Arc<EngineState>| {
                        s.rearm();
                    }),
                ],
                |s: Arc<EngineState>| assert_conserved(&s),
            )
            .assert_pass("sampled transition sweep");
    }

    // ---- the `--fsync always` ack barrier -------------------------------

    /// What the writer lock guards in the model: how many records have
    /// been appended (encoded into `pending`), how many of them a `write`
    /// has carried to the file, and whether any postdate the last sync.
    struct ModelWriter {
        appended: u64,
        written: u64,
        dirty: bool,
    }

    /// `Persist`'s barrier in miniature: the writer lock, the real
    /// [`UnsyncedFlag`], and a disk that remembers the highest record
    /// sequence a completed sync covered.
    struct ModelLog {
        writer: Mutex<ModelWriter>,
        flag: UnsyncedFlag,
        /// Stored Relaxed by the syncing worker, loaded Relaxed at ack: it
        /// is only ever as fresh as the barrier's own happens-before edges
        /// (the writer lock, or the flag's Release/Acquire pair) make it.
        synced_seq: AtomicU64,
    }

    /// The order of `commit`'s steps.
    #[derive(Clone, Copy, PartialEq)]
    enum Protocol {
        /// Write, sync, clear — the shipped one.
        Shipped,
        /// MUTATION: clear before the sync has finished.
        ClearBeforeSync,
        /// MUTATION: sync what the file holds, *then* write what is
        /// pending — the sync covers none of this commit's records.
        SyncBeforeWrite,
    }

    impl ModelLog {
        fn new() -> ModelLog {
            ModelLog {
                writer: Mutex::new(ModelWriter {
                    appended: 0,
                    written: 0,
                    dirty: false,
                }),
                flag: UnsyncedFlag::new(),
                synced_seq: AtomicU64::new(0),
            }
        }

        /// The shim `Mutex` is not the type `crate::sync::lock` takes; a
        /// failed schedule may poison it, which the next one shrugs off.
        fn lock_writer(&self) -> MutexGuard<'_, ModelWriter> {
            self.writer.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// `append_locked` with the commit deferred: the record is only
        /// pending. Returns its sequence number.
        fn append(&self) -> u64 {
            let mut w = self.lock_writer();
            w.appended += 1;
            w.dirty = true;
            self.flag.mark();
            w.appended
        }

        /// `Persist::commit`: one write carries every record appended so
        /// far and one sync covers what the file then holds; a worker
        /// whose records are already covered returns without either.
        fn commit(&self, protocol: Protocol) {
            let mut w = self.lock_writer();
            if !w.dirty {
                return;
            }
            if protocol == Protocol::ClearBeforeSync {
                w.dirty = false;
                self.flag.clear();
            }
            // The model's fsync covers what the file holds when it runs:
            // everything appended so far, once the write has carried it.
            let on_disk_at_sync = if protocol == Protocol::SyncBeforeWrite {
                w.written
            } else {
                w.appended
            };
            w.written = w.appended;
            // ordering: Relaxed — see the field docs.
            self.synced_seq.store(on_disk_at_sync, Ordering::Relaxed);
            if protocol != Protocol::ClearBeforeSync {
                w.dirty = false;
                self.flag.clear();
            }
        }

        /// One reactor worker's wakeup: append, park, commit if the
        /// lock-free check says so, then ack — at which point the sync
        /// must already cover the record.
        fn append_commit_ack(&self, protocol: Protocol) {
            let seq = self.append();
            if self.flag.get() {
                self.commit(protocol);
            }
            // ordering: Relaxed — see the field docs.
            let synced = self.synced_seq.load(Ordering::Relaxed);
            assert!(
                synced >= seq,
                "ack left before its sync: record {seq}, synced through {synced}"
            );
        }
    }

    fn barrier_workers(protocol: Protocol) -> Vec<Box<dyn Fn(Arc<ModelLog>) + Send + Sync>> {
        vec![
            Box::new(move |log: Arc<ModelLog>| log.append_commit_ack(protocol)),
            Box::new(move |log: Arc<ModelLog>| log.append_commit_ack(protocol)),
        ]
    }

    /// Asserts the checker finds the early ack `protocol` allows, and
    /// that the counterexample replays.
    fn assert_early_ack_is_caught_and_replays(protocol: Protocol, label: &str) {
        let after = |_log: Arc<ModelLog>| {};
        let failure = Checker::new()
            .preemption_bound(2)
            .check_threads_setup(ModelLog::new, barrier_workers(protocol), after)
            .expect_fail(label)
            .clone();
        assert!(
            failure.error.contains("ack left before its sync"),
            "unexpected failure: {failure}"
        );
        let replayed = Checker::new()
            .replay_threads_setup(
                &failure.trace,
                ModelLog::new,
                barrier_workers(protocol),
                after,
            )
            .expect_fail("replay of the early-ack counterexample")
            .clone();
        assert_eq!(replayed.error, failure.error, "replay diverged");
    }

    /// Two workers race append → park → commit → ack. At every ack the
    /// synced sequence covers the acked record — whether the worker wrote
    /// and synced itself, found its records covered under the lock, or
    /// skipped the lock because the flag read `false` — and once both are
    /// done the flag and the lock-guarded truth agree.
    #[test]
    fn ack_never_leaves_before_the_sync_that_covers_it() {
        Checker::new()
            .preemption_bound(2)
            .check_threads_setup(
                ModelLog::new,
                barrier_workers(Protocol::Shipped),
                |log: Arc<ModelLog>| {
                    let w = log.lock_writer();
                    assert_eq!((w.appended, w.written), (2, 2));
                    assert!(!w.dirty && !log.flag.get(), "a record was left unsynced");
                },
            )
            .assert_pass("group-commit ack barrier");
    }

    /// `needs_commit`'s lock-free read may say `true` for records another
    /// worker's sync already covered, but never `false` for the reader's
    /// own unsynced record: a worker that appends and does *not* commit
    /// must still see the flag set, whatever a racing committer does.
    #[test]
    fn own_unsynced_record_is_never_reported_clean() {
        Checker::new()
            .preemption_bound(2)
            .check_threads_setup(
                ModelLog::new,
                vec![
                    Box::new(|log: Arc<ModelLog>| {
                        let seq = log.append();
                        let flagged = log.flag.get();
                        // ordering: Relaxed — see the field docs.
                        let synced = log.synced_seq.load(Ordering::Relaxed);
                        assert!(
                            flagged || synced >= seq,
                            "flag read clean over an unsynced record {seq} (synced {synced})"
                        );
                    }),
                    Box::new(|log: Arc<ModelLog>| {
                        log.append();
                        log.commit(Protocol::Shipped);
                    }),
                ],
                |_log: Arc<ModelLog>| {},
            )
            .assert_pass("needs_commit is only ever spuriously true");
    }

    /// Mutation: clearing the dirty state before the sync has returned
    /// lets the other worker's lock-free check read `false` and ack a
    /// record no sync covers yet. The checker must find that schedule and
    /// replay it.
    #[test]
    fn clear_before_sync_mutation_is_caught_and_replays() {
        assert_early_ack_is_caught_and_replays(
            Protocol::ClearBeforeSync,
            "clear-before-sync mutation",
        );
    }

    /// Mutation: syncing before the pending records have been written
    /// makes durable only what earlier commits wrote, so the committing
    /// worker itself acks a record that is still in the page cache. No
    /// interleaving is even needed; the harness's ack assertion sees it.
    #[test]
    fn sync_before_write_mutation_is_caught_and_replays() {
        assert_early_ack_is_caught_and_replays(
            Protocol::SyncBeforeWrite,
            "sync-before-write mutation",
        );
    }
}
