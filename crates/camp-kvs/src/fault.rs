//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] threaded into
//! [`ServerOptions`](crate::server::ServerOptions) (or the daemon's
//! `--chaos` flag) makes the server misbehave *on purpose*: connections
//! drop before a response is written, responses are delayed, and commands
//! are answered with `SERVER_ERROR injected fault` — all driven by a
//! seeded [`Rng64`], so a chaos run is reproducible without OS-level
//! tooling (no `tc`, no `iptables`, no kernel fault injection).
//!
//! # Spec grammar
//!
//! Comma-separated `key=value` clauses, all optional:
//!
//! ```text
//! drop=P          probability per command of dropping the connection
//!                 before the response is written (0 <= P <= 1)
//! delay=DUR[@P]   inject a DUR sleep before responding, with probability
//!                 P (default 1). DUR takes us/ms/s suffixes: 500us, 1ms, 2s
//! err=P           probability per command of replying
//!                 "SERVER_ERROR injected fault" instead of executing
//! iowrite=P       probability per persistence-log call that writes of an
//!                 EIO: an append (a short write: half of it lands), and a
//!                 reserve, truncate, remove, retire or recycle
//! fsync=P         probability per persistence-log sync of a failure: a
//!                 segment's, and the directory's behind a rename
//! enospc=P        probability per persistence-log call that allocates of
//!                 ENOSPC: an append, create, reserve or rename
//! seed=N          RNG seed (default 0xC0FFEE); each connection derives
//!                 its own stream from seed ^ connection id
//! ```
//!
//! Example: `drop=0.02,delay=1ms@0.5,err=0.01,seed=7`.
//!
//! The three disk clauses only take effect when the server runs with
//! `--data-dir`: they drive the [`FaultFs`](crate::persist::FaultFs)
//! backend under the append-only log, which can fail any of its calls,
//! exercising the degraded-state machine and segment recycling the same
//! way `drop`/`err`/`delay` exercise the network path.
//!
//! Faults are decided *after* a `set`'s data block is read, so an injected
//! error or delay never desynchronizes the protocol stream; only `drop`
//! ends the connection (which is exactly what it simulates).

use std::str::FromStr;
use std::time::Duration;

use camp_core::rng::Rng64;

/// Default RNG seed when the spec omits `seed=`.
const DEFAULT_SEED: u64 = 0xC0_FFEE;

/// A deterministic fault-injection plan (see the module docs for the spec
/// grammar).
///
/// # Examples
///
/// ```
/// use camp_kvs::fault::FaultPlan;
///
/// let plan: FaultPlan = "drop=0.02,delay=1ms@0.5,err=0.01".parse()?;
/// assert_eq!(plan.drop_rate, 0.02);
/// assert_eq!(plan.delay.as_micros(), 1000);
/// assert_eq!(plan.delay_rate, 0.5);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability per command of dropping the connection pre-response.
    pub drop_rate: f64,
    /// The injected delay duration (zero = no delay clause).
    pub delay: Duration,
    /// Probability per command of injecting `delay`.
    pub delay_rate: f64,
    /// Probability per command of a forced `SERVER_ERROR` reply.
    pub error_rate: f64,
    /// Probability per persistence-log write of a short write + `EIO`.
    pub iowrite_rate: f64,
    /// Probability per persistence-log fsync of a failure.
    pub fsync_fail_rate: f64,
    /// Probability per persistence-log write of `ENOSPC`.
    pub enospc_rate: f64,
    /// Base RNG seed; per-connection streams derive from it.
    pub seed: u64,
}

impl FaultPlan {
    /// Whether any disk clause (`iowrite`/`fsync`/`enospc`) is active —
    /// i.e. whether the persistence layer should wrap its backend in
    /// [`FaultFs`](crate::persist::FaultFs).
    #[must_use]
    pub fn has_disk_faults(&self) -> bool {
        self.iowrite_rate > 0.0 || self.fsync_fail_rate > 0.0 || self.enospc_rate > 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            drop_rate: 0.0,
            delay: Duration::ZERO,
            delay_rate: 0.0,
            error_rate: 0.0,
            iowrite_rate: 0.0,
            fsync_fail_rate: 0.0,
            enospc_rate: 0.0,
            seed: DEFAULT_SEED,
        }
    }
}

fn parse_probability(text: &str, clause: &str) -> Result<f64, String> {
    let p: f64 = text
        .parse()
        .map_err(|_| format!("bad probability in `{clause}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability out of [0, 1] in `{clause}`"));
    }
    Ok(p)
}

fn parse_duration(text: &str, clause: &str) -> Result<Duration, String> {
    let (digits, unit): (&str, fn(u64) -> Duration) = if let Some(d) = text.strip_suffix("us") {
        (d, Duration::from_micros)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, Duration::from_millis)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, Duration::from_secs)
    } else {
        return Err(format!("duration needs a us/ms/s suffix in `{clause}`"));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration in `{clause}`"))?;
    Ok(unit(n))
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{clause}`"))?;
            match key {
                "drop" => plan.drop_rate = parse_probability(value, clause)?,
                "err" => plan.error_rate = parse_probability(value, clause)?,
                "iowrite" => plan.iowrite_rate = parse_probability(value, clause)?,
                "fsync" => plan.fsync_fail_rate = parse_probability(value, clause)?,
                "enospc" => plan.enospc_rate = parse_probability(value, clause)?,
                "delay" => match value.split_once('@') {
                    Some((dur, p)) => {
                        plan.delay = parse_duration(dur, clause)?;
                        plan.delay_rate = parse_probability(p, clause)?;
                    }
                    None => {
                        plan.delay = parse_duration(value, clause)?;
                        plan.delay_rate = 1.0;
                    }
                },
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("bad seed in `{clause}`"))?;
                }
                other => return Err(format!("unknown fault clause `{other}`")),
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drop={},delay={}us@{},err={},iowrite={},fsync={},enospc={},seed={}",
            self.drop_rate,
            self.delay.as_micros(),
            self.delay_rate,
            self.error_rate,
            self.iowrite_rate,
            self.fsync_fail_rate,
            self.enospc_rate,
            self.seed
        )
    }
}

/// One fault decision for one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute normally.
    None,
    /// Sleep for the plan's delay, then execute normally.
    Delay(Duration),
    /// Reply `SERVER_ERROR injected fault` without executing.
    Error,
    /// Close the connection without responding.
    Drop,
}

/// Per-connection fault state: an independent, deterministic RNG stream.
#[derive(Debug)]
pub struct FaultState {
    rng: Rng64,
}

impl FaultState {
    /// Derives connection `conn_id`'s stream from the plan's seed.
    #[must_use]
    pub fn new(plan: &FaultPlan, conn_id: u64) -> FaultState {
        FaultState {
            rng: Rng64::seed_from_u64(plan.seed ^ conn_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Rolls the dice for one command. At most one fault fires per
    /// command; `drop` outranks `err`, which outranks `delay`.
    pub fn decide(&mut self, plan: &FaultPlan) -> FaultAction {
        if plan.drop_rate > 0.0 && self.rng.chance(plan.drop_rate) {
            return FaultAction::Drop;
        }
        if plan.error_rate > 0.0 && self.rng.chance(plan.error_rate) {
            return FaultAction::Error;
        }
        if plan.delay_rate > 0.0 && self.rng.chance(plan.delay_rate) {
            return FaultAction::Delay(plan.delay);
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan: FaultPlan = "drop=0.02,delay=1ms@0.5,err=0.01,seed=7".parse().unwrap();
        assert_eq!(plan.drop_rate, 0.02);
        assert_eq!(plan.delay, Duration::from_millis(1));
        assert_eq!(plan.delay_rate, 0.5);
        assert_eq!(plan.error_rate, 0.01);
        assert_eq!(plan.seed, 7);
    }

    #[test]
    fn delay_without_probability_fires_always() {
        let plan: FaultPlan = "delay=500us".parse().unwrap();
        assert_eq!(plan.delay, Duration::from_micros(500));
        assert_eq!(plan.delay_rate, 1.0);
        let mut state = FaultState::new(&plan, 3);
        for _ in 0..32 {
            assert_eq!(
                state.decide(&plan),
                FaultAction::Delay(Duration::from_micros(500))
            );
        }
    }

    #[test]
    fn parses_disk_fault_clauses() {
        let plan: FaultPlan = "iowrite=0.1,fsync=0.2,enospc=0.3,seed=11".parse().unwrap();
        assert_eq!(plan.iowrite_rate, 0.1);
        assert_eq!(plan.fsync_fail_rate, 0.2);
        assert_eq!(plan.enospc_rate, 0.3);
        assert_eq!(plan.seed, 11);
        assert!(plan.has_disk_faults());
        // Network clauses stay at their defaults.
        assert_eq!(plan.drop_rate, 0.0);
        assert_eq!(plan.error_rate, 0.0);
        // A pure-network plan reports no disk faults.
        let net: FaultPlan = "drop=0.5,err=0.5".parse().unwrap();
        assert!(!net.has_disk_faults());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!("drop=1.5".parse::<FaultPlan>().is_err());
        assert!("drop=abc".parse::<FaultPlan>().is_err());
        assert!("delay=10".parse::<FaultPlan>().is_err());
        assert!("delay=1ms@2".parse::<FaultPlan>().is_err());
        assert!("bogus=1".parse::<FaultPlan>().is_err());
        assert!("drop".parse::<FaultPlan>().is_err());
        assert!("iowrite=2".parse::<FaultPlan>().is_err());
        assert!("fsync=x".parse::<FaultPlan>().is_err());
        assert!("enospc=-0.1".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn empty_spec_is_a_no_op_plan() {
        let plan: FaultPlan = "".parse().unwrap();
        assert_eq!(plan, FaultPlan::default());
        let mut state = FaultState::new(&plan, 0);
        for _ in 0..64 {
            assert_eq!(state.decide(&plan), FaultAction::None);
        }
    }

    #[test]
    fn streams_are_deterministic_per_connection() {
        let plan: FaultPlan = "drop=0.3,err=0.3,seed=99".parse().unwrap();
        let roll = |conn_id: u64| {
            let mut state = FaultState::new(&plan, conn_id);
            (0..64).map(|_| state.decide(&plan)).collect::<Vec<_>>()
        };
        assert_eq!(roll(1), roll(1), "same seed + conn id => same faults");
        assert_ne!(
            roll(1),
            roll(2),
            "different connections see different faults"
        );
        let actions = roll(1);
        assert!(actions.contains(&FaultAction::Drop));
        assert!(actions.contains(&FaultAction::Error));
    }

    #[test]
    fn display_round_trips() {
        let plan: FaultPlan = "drop=0.02,delay=1ms@0.5,err=0.01,seed=7".parse().unwrap();
        let round: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(plan, round);
        let disk: FaultPlan = "iowrite=0.25,fsync=0.5,enospc=0.125,seed=3"
            .parse()
            .unwrap();
        let round: FaultPlan = disk.to_string().parse().unwrap();
        assert_eq!(disk, round);
    }
}
