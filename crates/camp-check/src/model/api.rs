//! Public checker API: configure a [`Checker`], hand it a closure (or a
//! fixed set of litmus threads), and it explores schedules until the space
//! is exhausted, the sampling budget runs out, or an execution fails — in
//! which case you get a [`Failure`] with a replayable trace.

use std::fmt;
use std::sync::Arc;

use crate::model::exec::{cv_wait, klock, spawn_os_vthread, ExecShared};
use crate::model::kernel::Kernel;
use crate::model::search::{format_trace, parse_trace, Choice, Mode, Search};

type Body = Arc<dyn Fn() + Send + Sync + 'static>;
type OnceBody = Box<dyn FnOnce() + Send>;
/// Per-execution thread set: the fixed vthread bodies plus the `after`
/// closure run as a final vthread once all of them finished.
type ThreadSet = (Vec<OnceBody>, OnceBody);

enum Program {
    /// One main vthread; it may spawn/join others via the shim.
    Single(Body),
    /// Fixed vthreads started together; `make` is called once per explored
    /// schedule so each execution gets fresh shared state.
    Threads {
        make: Arc<dyn Fn() -> ThreadSet + Send + Sync>,
    },
}

/// A failing execution: what went wrong, and exactly how to get there again.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The panic message or model-detected error (deadlock, livelock, ...).
    pub error: String,
    /// Executions explored up to and including the failing one.
    pub schedules: u64,
    /// The replayable choice sequence (`T0 T2 R1 ...`); feed it back to
    /// [`Checker::replay`] / [`Checker::replay_threads_setup`].
    pub trace: String,
    /// Human-readable step log of the failing execution.
    pub steps: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model check failed after {} schedule(s)", self.schedules)?;
        writeln!(f, "  error: {}", self.error)?;
        writeln!(f, "  replay trace: {}", self.trace)?;
        writeln!(f, "  steps:")?;
        for s in &self.steps {
            writeln!(f, "    {s}")?;
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// Every explored schedule ran to completion without a failure.
    Pass {
        schedules: u64,
    },
    Fail(Failure),
}

impl CheckOutcome {
    pub fn schedules(&self) -> u64 {
        match self {
            CheckOutcome::Pass { schedules } => *schedules,
            CheckOutcome::Fail(failure) => failure.schedules,
        }
    }

    pub fn failure(&self) -> Option<&Failure> {
        match self {
            CheckOutcome::Pass { .. } => None,
            CheckOutcome::Fail(failure) => Some(failure),
        }
    }

    /// Panic (with the replayable counterexample) unless every schedule
    /// passed. Returns the explored-schedule count for reporting.
    #[track_caller]
    pub fn assert_pass(&self, what: &str) -> u64 {
        match self {
            CheckOutcome::Pass { schedules } => *schedules,
            CheckOutcome::Fail(failure) => {
                panic!("{what}: {failure}")
            }
        }
    }

    /// Panic unless some schedule failed (mutation tests: the checker MUST
    /// catch the seeded bug). Returns the failure for further inspection.
    #[track_caller]
    pub fn expect_fail(&self, what: &str) -> &Failure {
        match self {
            CheckOutcome::Pass { schedules } => panic!(
                "{what}: expected the checker to catch a failure, \
                 but all {schedules} schedule(s) passed"
            ),
            CheckOutcome::Fail(failure) => failure,
        }
    }
}

/// Configuration + entry points for one model-checking run.
#[derive(Clone, Debug)]
pub struct Checker {
    preemption_bound: Option<u32>,
    dpor: bool,
    max_steps: usize,
    max_schedules: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    pub fn new() -> Self {
        Self {
            preemption_bound: None,
            dpor: true,
            max_steps: 20_000,
            max_schedules: 5_000_000,
        }
    }

    /// Cap the number of preemptive context switches per schedule (a switch
    /// away from a thread that could have kept running). Most concurrency
    /// bugs need very few preemptions; bound 2 keeps harnesses exhaustive
    /// and fast. Unset = unbounded.
    pub fn preemption_bound(mut self, bound: u32) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Toggle DPOR pruning (on by default). Turning it off forces full
    /// enumeration — useful for asserting hand-computed interleaving counts.
    pub fn dpor(mut self, on: bool) -> Self {
        self.dpor = on;
        self
    }

    /// Per-execution step budget (livelock backstop).
    pub fn max_steps(mut self, steps: usize) -> Self {
        self.max_steps = steps;
        self
    }

    /// Total schedule budget for DFS (exceeding it is reported as a
    /// failure, never as a silent pass).
    pub fn max_schedules(mut self, schedules: u64) -> Self {
        self.max_schedules = schedules;
        self
    }

    /// Exhaustively check a closure. The closure is the main vthread; it
    /// runs once per explored schedule and may spawn/join further vthreads
    /// through `camp_check::sync::thread`.
    pub fn check<F>(&self, f: F) -> CheckOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.run(&Program::Single(Arc::new(f)), Mode::Dfs)
    }

    /// Exhaustively check a fixed set of threads started together (no main
    /// vthread — the classic litmus-test shape, with exact interleaving
    /// counts). `after` runs as a final vthread once all threads finished.
    pub fn check_threads<A>(
        &self,
        threads: Vec<Box<dyn Fn() + Send + Sync>>,
        after: A,
    ) -> CheckOutcome
    where
        A: Fn() + Send + Sync + 'static,
    {
        self.run(&Self::fixed_program(threads, after), Mode::Dfs)
    }

    /// Like [`Checker::check_threads`], but `setup` runs once per explored
    /// schedule and its result is handed to every thread — the way to share
    /// fresh per-execution state (e.g. the atomics of a litmus test).
    pub fn check_threads_setup<S, P, A>(
        &self,
        setup: P,
        threads: Vec<Box<dyn Fn(Arc<S>) + Send + Sync>>,
        after: A,
    ) -> CheckOutcome
    where
        S: Send + Sync + 'static,
        P: Fn() -> S + Send + Sync + 'static,
        A: Fn(Arc<S>) + Send + Sync + 'static,
    {
        self.run(&Self::setup_program(setup, threads, after), Mode::Dfs)
    }

    fn fixed_program<A>(threads: Vec<Box<dyn Fn() + Send + Sync>>, after: A) -> Program
    where
        A: Fn() + Send + Sync + 'static,
    {
        let threads: Vec<Body> = threads.into_iter().map(Arc::from).collect();
        let after: Body = Arc::new(after);
        Program::Threads {
            make: Arc::new(move || {
                let bodies: Vec<OnceBody> = threads
                    .iter()
                    .map(|t| {
                        let t = t.clone();
                        Box::new(move || t()) as OnceBody
                    })
                    .collect();
                let a = after.clone();
                (bodies, Box::new(move || a()) as OnceBody)
            }),
        }
    }

    fn setup_program<S, P, A>(
        setup: P,
        threads: Vec<Box<dyn Fn(Arc<S>) + Send + Sync>>,
        after: A,
    ) -> Program
    where
        S: Send + Sync + 'static,
        P: Fn() -> S + Send + Sync + 'static,
        A: Fn(Arc<S>) + Send + Sync + 'static,
    {
        let threads: Vec<Arc<dyn Fn(Arc<S>) + Send + Sync>> =
            threads.into_iter().map(Arc::from).collect();
        let after = Arc::new(after);
        Program::Threads {
            make: Arc::new(move || {
                let state = Arc::new(setup());
                let bodies: Vec<OnceBody> = threads
                    .iter()
                    .map(|t| {
                        let t = t.clone();
                        let s = state.clone();
                        Box::new(move || t(s)) as OnceBody
                    })
                    .collect();
                let a = after.clone();
                let s = state;
                (bodies, Box::new(move || a(s)) as OnceBody)
            }),
        }
    }

    /// Check `schedules` seeded-random schedules instead of exhaustive DFS
    /// (for state spaces too big to enumerate). Deterministic for a given
    /// seed; a failure's trace replays exactly like a DFS counterexample.
    pub fn sample<F>(&self, seed: u64, schedules: u64, f: F) -> CheckOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.run(&Program::Single(Arc::new(f)), Mode::sample(seed, schedules))
    }

    /// Re-run one recorded choice sequence (from [`Failure::trace`]).
    pub fn replay<F>(&self, trace: &str, f: F) -> CheckOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        match parse_trace(trace) {
            Ok(choices) => self.run(
                &Program::Single(Arc::new(f)),
                Mode::Replay { choices, at: 0 },
            ),
            Err(e) => CheckOutcome::Fail(Failure {
                error: e,
                schedules: 0,
                trace: trace.to_string(),
                steps: Vec::new(),
            }),
        }
    }

    /// [`Checker::replay`] for the `check_threads_setup` program shape.
    pub fn replay_threads_setup<S, P, A>(
        &self,
        trace: &str,
        setup: P,
        threads: Vec<Box<dyn Fn(Arc<S>) + Send + Sync>>,
        after: A,
    ) -> CheckOutcome
    where
        S: Send + Sync + 'static,
        P: Fn() -> S + Send + Sync + 'static,
        A: Fn(Arc<S>) + Send + Sync + 'static,
    {
        match parse_trace(trace) {
            Ok(choices) => self.run(
                &Self::setup_program(setup, threads, after),
                Mode::Replay { choices, at: 0 },
            ),
            Err(e) => CheckOutcome::Fail(Failure {
                error: e,
                schedules: 0,
                trace: trace.to_string(),
                steps: Vec::new(),
            }),
        }
    }

    /// Sampling mode for the `check_threads_setup` program shape.
    pub fn sample_threads_setup<S, P, A>(
        &self,
        seed: u64,
        schedules: u64,
        setup: P,
        threads: Vec<Box<dyn Fn(Arc<S>) + Send + Sync>>,
        after: A,
    ) -> CheckOutcome
    where
        S: Send + Sync + 'static,
        P: Fn() -> S + Send + Sync + 'static,
        A: Fn(Arc<S>) + Send + Sync + 'static,
    {
        self.run(
            &Self::setup_program(setup, threads, after),
            Mode::sample(seed, schedules),
        )
    }

    fn run(&self, program: &Program, mode: Mode) -> CheckOutcome {
        let mut search = Search::new(mode, self.dpor, self.preemption_bound);
        loop {
            let (s, failure) = self.run_one(program, search);
            search = s;
            if let Some((error, choices, steps)) = failure {
                return CheckOutcome::Fail(Failure {
                    error,
                    schedules: search.schedules,
                    trace: format_trace(&choices),
                    steps,
                });
            }
            if search.schedules >= self.max_schedules {
                return CheckOutcome::Fail(Failure {
                    error: format!(
                        "schedule budget exceeded ({} explored): raise max_schedules, \
                         tighten the preemption bound, or switch to sampling",
                        search.schedules
                    ),
                    schedules: search.schedules,
                    trace: String::new(),
                    steps: Vec::new(),
                });
            }
            if !search.advance() {
                return CheckOutcome::Pass {
                    schedules: search.schedules,
                };
            }
        }
    }

    /// Run exactly one execution; returns the search (moved back out of the
    /// kernel) and the failure report, if any. This is the controller loop.
    #[allow(clippy::type_complexity)]
    fn run_one(
        &self,
        program: &Program,
        search: Search,
    ) -> (Search, Option<(String, Vec<Choice>, Vec<String>)>) {
        let shared = Arc::new(ExecShared::new(Kernel::new(search, self.max_steps)));
        let mut handles = Vec::new();
        let (bodies, after): (Vec<OnceBody>, Option<OnceBody>) = match program {
            Program::Single(f) => {
                let f = f.clone();
                (vec![Box::new(move || f()) as OnceBody], None)
            }
            Program::Threads { make } => {
                let (bodies, after) = make();
                (bodies, Some(after))
            }
        };
        {
            let mut k = klock(&shared.kernel);
            for _ in &bodies {
                k.create_thread(None);
            }
        }
        for (tid, body) in bodies.into_iter().enumerate() {
            handles.push(spawn_os_vthread(&shared, tid, body));
        }
        let mut after_pending = after;
        let failure = loop {
            let mut k = klock(&shared.kernel);
            while !k.abort && !k.quiescent() {
                k = cv_wait(&shared, k);
            }
            if k.abort {
                break Some(k.take_failure_report());
            }
            if k.all_finished() {
                if let Some(body) = after_pending.take() {
                    let tid = k.create_after_thread();
                    drop(k);
                    handles.push(spawn_os_vthread(&shared, tid, body));
                    continue;
                }
                break None;
            }
            let enabled = k.enabled_threads();
            if enabled.is_empty() {
                let summary = k.blocked_summary();
                k.fail(format!("deadlock: {summary}"));
                drop(k);
                shared.cv.notify_all();
                continue;
            }
            let tid = match k.search.decide_thread(&enabled) {
                Ok(t) => t,
                Err(e) => {
                    k.fail(e);
                    drop(k);
                    shared.cv.notify_all();
                    continue;
                }
            };
            if !k.count_step() {
                drop(k);
                shared.cv.notify_all();
                continue;
            }
            k.active = Some(tid);
            drop(k);
            shared.cv.notify_all();
        };
        shared.cv.notify_all();
        for h in handles {
            let _ = h.join();
        }
        let mut k = klock(&shared.kernel);
        let search = std::mem::replace(
            &mut k.search,
            Search::new(
                Mode::Replay {
                    choices: Vec::new(),
                    at: 0,
                },
                false,
                None,
            ),
        );
        (search, failure)
    }
}
