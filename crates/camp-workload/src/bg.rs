//! A BG-like social-networking workload generator.
//!
//! The paper evaluates CAMP on traces produced by the BG benchmark
//! (Barahmand & Ghandeharizadeh, CIDR'13): members of a social network view
//! one another's profiles, list friends, and perform other interactive
//! actions against a cache-augmented RDBMS, with a skewed access pattern
//! (~70% of requests to 20% of members). BG itself is a Java/MySQL system;
//! what the eviction algorithms consume is only the resulting *trace* of
//! (key, size, cost) rows. This module regenerates traces with the same
//! statistical shape: a fixed member population, a mix of read actions —
//! each with its own key space, value-size profile and computation-cost
//! profile — and the 70/20 skew, all driven by explicit seeds.
//!
//! # Examples
//!
//! ```
//! use camp_workload::bg::BgConfig;
//!
//! let trace = BgConfig::paper_scaled(10_000, 100_000, 42).generate();
//! assert_eq!(trace.len(), 100_000);
//! let stats = trace.stats();
//! assert!(stats.unique_keys > 1_000);
//! ```

use camp_core::rng::Rng64;

use crate::models::{CostModel, SizeModel};
use crate::trace::{Trace, TraceRecord};
use crate::zipf::{HotCold, Permutation, Zipf};

/// How member popularity is skewed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// The paper's configuration: `hot_probability` of requests go to
    /// `hot_fraction` of members (default 0.7 / 0.2).
    HotCold {
        /// Fraction of members that are hot.
        hot_fraction: f64,
        /// Fraction of requests that go to the hot members.
        hot_probability: f64,
    },
    /// Zipf-distributed popularity with the given exponent in `(0, 1)`.
    Zipf {
        /// The skew exponent.
        theta: f64,
    },
    /// Uniform access (no skew) — a stress control.
    Uniform,
}

impl Skew {
    /// The paper's 70/20 configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Skew::HotCold {
            hot_fraction: 0.2,
            hot_probability: 0.7,
        }
    }
}

/// One interactive action of the social network, with its own key space and
/// value profile. Keys are `(action index, member)` pairs flattened into a
/// disjoint range per action.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSpec {
    /// Human-readable action name (e.g. `"view-profile"`).
    pub name: String,
    /// Relative frequency of the action in the mix.
    pub weight: f64,
    /// Value-size profile for this action's key-value pairs.
    pub size_model: SizeModel,
    /// Computation-cost profile for this action's key-value pairs.
    pub cost_model: CostModel,
}

impl ActionSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, weight: f64, size_model: SizeModel, cost_model: CostModel) -> Self {
        ActionSpec {
            name: name.to_owned(),
            weight,
            size_model,
            cost_model,
        }
    }
}

/// Configuration for the BG-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct BgConfig {
    /// Number of members in the social network.
    pub members: u64,
    /// Number of trace rows to generate.
    pub requests: usize,
    /// Popularity skew across members.
    pub skew: Skew,
    /// The action mix. Must be non-empty with positive total weight.
    pub actions: Vec<ActionSpec>,
    /// Master seed; every derived quantity is a pure function of it.
    pub seed: u64,
    /// The `trace_id` stamped on every generated row.
    pub trace_id: u32,
}

impl BgConfig {
    /// The interactive read-action mix BG's workloads are built from, with
    /// per-action value profiles: profiles are small and cheap to look up;
    /// friend listings are bigger and costlier; page aggregates (the
    /// "advertisement model" style keys of the paper's introduction) are
    /// few, large and very expensive.
    #[must_use]
    pub fn default_actions() -> Vec<ActionSpec> {
        vec![
            ActionSpec::new(
                "view-profile",
                0.40,
                SizeModel::LogNormal {
                    mu: 6.2,
                    sigma: 0.5,
                    min: 128,
                    max: 4096,
                },
                CostModel::ServiceTime {
                    mu: 7.0,
                    sigma: 0.6,
                    min: 100,
                    max: 100_000,
                },
            ),
            ActionSpec::new(
                "list-friends",
                0.30,
                SizeModel::LogNormal {
                    mu: 7.5,
                    sigma: 0.9,
                    min: 256,
                    max: 65_536,
                },
                CostModel::ServiceTime {
                    mu: 8.0,
                    sigma: 0.8,
                    min: 500,
                    max: 1_000_000,
                },
            ),
            ActionSpec::new(
                "view-friend-requests",
                0.20,
                SizeModel::LogNormal {
                    mu: 5.5,
                    sigma: 0.4,
                    min: 64,
                    max: 2048,
                },
                CostModel::ServiceTime {
                    mu: 6.5,
                    sigma: 0.5,
                    min: 100,
                    max: 50_000,
                },
            ),
            ActionSpec::new(
                "page-aggregate",
                0.10,
                SizeModel::LogNormal {
                    mu: 9.0,
                    sigma: 0.7,
                    min: 1024,
                    max: 262_144,
                },
                CostModel::ServiceTime {
                    mu: 12.0,
                    sigma: 1.0,
                    min: 100_000,
                    max: 100_000_000,
                },
            ),
        ]
    }

    /// The paper's headline configuration at full scale: 4M rows, 70/20
    /// skew, synthetic `{1, 100, 10K}` costs, BG-like sizes, single action
    /// namespace per member.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        BgConfig::paper_scaled(600_000, 4_000_000, seed)
    }

    /// The paper's headline configuration scaled to `members` members and
    /// `requests` rows — used by tests and quick experiments.
    #[must_use]
    pub fn paper_scaled(members: u64, requests: usize, seed: u64) -> Self {
        BgConfig {
            members,
            requests,
            skew: Skew::paper_default(),
            actions: vec![ActionSpec::new(
                "kv-reference",
                1.0,
                SizeModel::bg_default(),
                CostModel::paper_three_tier(),
            )],
            seed,
            trace_id: 0,
        }
    }

    /// Figure 7's workload: variable sizes, constant cost.
    #[must_use]
    pub fn variable_size_constant_cost(members: u64, requests: usize, seed: u64) -> Self {
        BgConfig {
            actions: vec![ActionSpec::new(
                "kv-reference",
                1.0,
                SizeModel::bg_default(),
                CostModel::Constant(1),
            )],
            ..BgConfig::paper_scaled(members, requests, seed)
        }
    }

    /// Figure 8's workload: equi-sized values, widely varying costs.
    #[must_use]
    pub fn equi_size_variable_cost(members: u64, requests: usize, seed: u64) -> Self {
        BgConfig {
            actions: vec![ActionSpec::new(
                "kv-reference",
                1.0,
                SizeModel::Fixed(1024),
                CostModel::LogUniform {
                    min: 1,
                    max: 100_000,
                },
            )],
            ..BgConfig::paper_scaled(members, requests, seed)
        }
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no members, no actions,
    /// non-positive action weights).
    #[must_use]
    pub fn generate(&self) -> Trace {
        assert!(self.members > 0, "need at least one member");
        assert!(!self.actions.is_empty(), "need at least one action");
        let total_weight: f64 = self.actions.iter().map(|a| a.weight).sum();
        assert!(total_weight > 0.0, "action weights must be positive");

        let mut rng = Rng64::seed_from_u64(self.seed);
        let permutation = Permutation::new(self.members, self.seed ^ 0xA5A5_A5A5);
        let zipf = match self.skew {
            Skew::Zipf { theta } => Some(Zipf::new(self.members, theta)),
            _ => None,
        };
        let hot_cold = match self.skew {
            Skew::HotCold {
                hot_fraction,
                hot_probability,
            } => Some(HotCold::new(self.members, hot_fraction, hot_probability)),
            _ => None,
        };

        let cumulative: Vec<f64> = self
            .actions
            .iter()
            .scan(0.0, |acc, a| {
                *acc += a.weight / total_weight;
                Some(*acc)
            })
            .collect();

        let mut records = Vec::with_capacity(self.requests);
        for _ in 0..self.requests {
            let rank = match self.skew {
                Skew::Zipf { .. } => zipf.as_ref().expect("zipf built").sample(&mut rng),
                Skew::HotCold { .. } => hot_cold.as_ref().expect("hot-cold built").sample(&mut rng),
                Skew::Uniform => rng.range_u64(0, self.members),
            };
            let member = permutation.apply(rank);
            let action_idx = {
                let u: f64 = rng.next_f64();
                cumulative
                    .iter()
                    .position(|&c| u <= c)
                    .unwrap_or(self.actions.len() - 1)
            };
            let action = &self.actions[action_idx];
            let key = action_idx as u64 * self.members + member;
            let size = action.size_model.size_of(self.seed, key);
            let cost = action.cost_model.cost_of(self.seed, key);
            records.push(TraceRecord {
                key,
                size,
                cost,
                trace_id: self.trace_id,
            });
        }
        Trace::from_records(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = BgConfig::paper_scaled(1000, 5000, 9).generate();
        let b = BgConfig::paper_scaled(1000, 5000, 9).generate();
        let c = BgConfig::paper_scaled(1000, 5000, 10).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sizes_and_costs_are_stable_per_key() {
        let trace = BgConfig::paper_scaled(500, 20_000, 4).generate();
        let mut seen: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for r in &trace {
            let entry = seen.entry(r.key).or_insert((r.size, r.cost));
            assert_eq!(*entry, (r.size, r.cost), "key {} changed profile", r.key);
        }
    }

    #[test]
    fn skew_hits_the_70_20_shape() {
        let trace = BgConfig::paper_scaled(10_000, 200_000, 1).generate();
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        for r in &trace {
            *counts.entry(r.key).or_default() += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top20 = freqs.len() / 5;
        let hot_requests: u64 = freqs[..top20].iter().sum();
        let share = hot_requests as f64 / trace.len() as f64;
        assert!(
            (0.65..0.78).contains(&share),
            "top-20% of keys got {share:.3} of requests"
        );
    }

    #[test]
    fn three_tier_costs_present() {
        let trace = BgConfig::paper_scaled(1000, 10_000, 2).generate();
        let costs: std::collections::HashSet<u64> = trace.iter().map(|r| r.cost).collect();
        assert_eq!(
            costs,
            [1u64, 100, 10_000].into_iter().collect(),
            "expected exactly the three synthetic tiers"
        );
    }

    #[test]
    fn multi_action_mix_uses_disjoint_key_spaces() {
        let config = BgConfig {
            members: 100,
            requests: 20_000,
            skew: Skew::paper_default(),
            actions: BgConfig::default_actions(),
            seed: 5,
            trace_id: 0,
        };
        let trace = config.generate();
        let mut per_action = vec![0usize; config.actions.len()];
        for r in &trace {
            per_action[(r.key / config.members) as usize] += 1;
        }
        // Frequencies follow the weights (40/30/20/10) within tolerance.
        let shares: Vec<f64> = per_action
            .iter()
            .map(|&c| c as f64 / trace.len() as f64)
            .collect();
        for (share, want) in shares.iter().zip([0.4, 0.3, 0.2, 0.1]) {
            assert!((share - want).abs() < 0.03, "shares {shares:?}");
        }
    }

    #[test]
    fn figure_workload_constructors_have_the_right_shape() {
        let f7 = BgConfig::variable_size_constant_cost(500, 5000, 3).generate();
        assert_eq!(f7.stats().distinct_costs, 1);
        assert!(f7.stats().max_size > f7.stats().min_size);

        let f8 = BgConfig::equi_size_variable_cost(500, 5000, 3).generate();
        assert_eq!(f8.stats().max_size, f8.stats().min_size);
        assert!(f8.stats().distinct_costs > 100);
    }

    #[test]
    fn zipf_and_uniform_skews_work() {
        let zipf = BgConfig {
            skew: Skew::Zipf { theta: 0.99 },
            ..BgConfig::paper_scaled(1000, 10_000, 6)
        }
        .generate();
        let uniform = BgConfig {
            skew: Skew::Uniform,
            ..BgConfig::paper_scaled(1000, 10_000, 6)
        }
        .generate();
        let distinct = |t: &Trace| {
            t.iter()
                .map(|r| r.key)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        // Zipf concentrates on far fewer keys than uniform.
        assert!(distinct(&zipf) < distinct(&uniform));
    }
}
