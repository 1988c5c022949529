//! Named policy specifications: the single configuration surface behind the
//! `camp-sim` CLI, the benches, and the `camp-kvsd --policy` flag.
//!
//! An [`EvictionMode`] is a parsed, validated policy choice plus its
//! parameters. It is deliberately separate from the policy structs: a mode
//! is `Clone + PartialEq + FromStr + Display` configuration data, while the
//! policies it [builds](EvictionMode::build) are stateful caches. Because
//! [`EvictionMode::build`] is generic over the key type, the same mode value
//! can instantiate a `u64`-keyed policy — for the simulator's trace ids and
//! the KVS server's key fingerprints alike — or a byte-keyed one.

use std::fmt;
use std::str::FromStr;

use camp_core::{Camp, Keyed, Precision};

use crate::arc::Arc;
use crate::gd_wheel::Wheels;
use crate::gds::GreedyDual;
use crate::lfu::Frequency;
use crate::lru::Recency;
use crate::lru_k::LruK;
use crate::policy::{CacheKey, EvictionPolicy};
use crate::pooled_lru::{PoolSplit, PooledLru};
use crate::two_q::TwoQ;

/// Default pool boundaries for `pooled-lru` when none are given: the
/// paper's `{1, 100, 10K}` cost classes.
pub const DEFAULT_POOL_BOUNDARIES: [u64; 3] = [1, 100, 10_000];

/// A parsed eviction-policy choice with its parameters.
///
/// # Examples
///
/// ```
/// use camp_policies::{EvictionMode, EvictionPolicy};
///
/// let mode: EvictionMode = "2q".parse().unwrap();
/// let mut policy: Box<dyn EvictionPolicy> = mode.build(1 << 16);
/// assert_eq!(policy.name(), "2q");
///
/// // Modes round-trip through Display.
/// let camp: EvictionMode = "camp:7".parse().unwrap();
/// assert_eq!(camp.to_string().parse::<EvictionMode>().unwrap(), camp);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum EvictionMode {
    /// Size-aware LRU.
    Lru,
    /// CAMP at the given rounding precision.
    Camp(Precision),
    /// Exact Greedy Dual Size.
    Gds,
    /// GDS-Frequency (the Squid variant).
    Gdsf,
    /// Least Frequently Used.
    Lfu,
    /// LRU-K with the given K (backward K-distance).
    LruK(usize),
    /// The 2Q scan-resistant queue pair.
    TwoQ,
    /// Adaptive Replacement Cache.
    Arc,
    /// GD-Wheel, the hierarchical-wheel GDS approximation.
    GdWheel,
    /// Statically partitioned per-cost-class LRU pools.
    PooledLru {
        /// Ascending lower cost bounds, one per pool.
        boundaries: Vec<u64>,
        /// How capacity is divided among the pools.
        split: PoolSplit,
    },
}

impl EvictionMode {
    /// Every accepted `--policy` spelling, for CLI help text.
    pub const HELP: &'static str = "lru | camp[:BITS|:inf] | gds | gdsf | lfu | \
         lru-k:K (alias lru-2) | 2q | arc | gd-wheel | pooled-lru[:B1,B2,...]";

    /// One representative spelling of each mode, for boot matrices and docs.
    #[must_use]
    pub fn all_names() -> Vec<&'static str> {
        vec![
            "lru",
            "camp",
            "gds",
            "gdsf",
            "lfu",
            "lru-2",
            "2q",
            "arc",
            "gd-wheel",
            "pooled-lru",
        ]
    }

    /// Instantiates the policy for `capacity` bytes over any key type.
    #[must_use]
    pub fn build<K: CacheKey + Send + 'static>(
        &self,
        capacity: u64,
    ) -> Box<dyn EvictionPolicy<K> + Send> {
        self.build_valued(capacity)
    }

    /// [`EvictionMode::build`] for a policy that holds a `V` per resident
    /// key — the KVS store's, which holds each item's chunk.
    #[must_use]
    pub fn build_valued<K: CacheKey + Send + 'static, V: Send + 'static>(
        &self,
        capacity: u64,
    ) -> Box<dyn EvictionPolicy<K, V> + Send> {
        match self {
            EvictionMode::Lru => Box::new(Keyed::<K, Recency, V>::new(capacity)),
            EvictionMode::Camp(precision) => Box::new(Camp::<K, V>::new(capacity, *precision)),
            EvictionMode::Gds => Box::new(Keyed::<K, GreedyDual<false>, V>::new(capacity)),
            EvictionMode::Gdsf => Box::new(Keyed::<K, GreedyDual<true>, V>::new(capacity)),
            EvictionMode::Lfu => Box::new(Keyed::<K, Frequency, V>::new(capacity)),
            EvictionMode::LruK(k) => Box::new(LruK::<K, V>::new(capacity, *k)),
            EvictionMode::TwoQ => Box::new(TwoQ::<K, V>::new(capacity)),
            EvictionMode::Arc => Box::new(Arc::<K, V>::new(capacity)),
            EvictionMode::GdWheel => Box::new(Keyed::<K, Wheels, V>::new(capacity)),
            EvictionMode::PooledLru { boundaries, split } => {
                Box::new(PooledLru::<K, V>::new(capacity, boundaries, split.clone()))
            }
        }
    }
}

impl Default for EvictionMode {
    /// The paper's recommended configuration: CAMP at 5 bits of precision.
    fn default() -> Self {
        EvictionMode::Camp(Precision::PAPER_DEFAULT)
    }
}

impl fmt::Display for EvictionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionMode::Lru => f.write_str("lru"),
            EvictionMode::Camp(Precision::Infinite) => f.write_str("camp:inf"),
            EvictionMode::Camp(Precision::Bits(p)) => write!(f, "camp:{p}"),
            EvictionMode::Gds => f.write_str("gds"),
            EvictionMode::Gdsf => f.write_str("gdsf"),
            EvictionMode::Lfu => f.write_str("lfu"),
            EvictionMode::LruK(k) => write!(f, "lru-k:{k}"),
            EvictionMode::TwoQ => f.write_str("2q"),
            EvictionMode::Arc => f.write_str("arc"),
            EvictionMode::GdWheel => f.write_str("gd-wheel"),
            EvictionMode::PooledLru { boundaries, .. } => {
                f.write_str("pooled-lru:")?;
                for (i, b) in boundaries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{b}")?;
                }
                Ok(())
            }
        }
    }
}

/// A rejected policy spelling, carrying the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModeError(String);

impl fmt::Display for ParseModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown eviction policy {:?} (expected {})",
            self.0,
            EvictionMode::HELP
        )
    }
}

impl std::error::Error for ParseModeError {}

impl FromStr for EvictionMode {
    type Err = ParseModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || ParseModeError(s.to_owned());
        let (head, arg) = match lower.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (lower.as_str(), None),
        };
        match (head, arg) {
            ("lru", None) => Ok(EvictionMode::Lru),
            ("camp", None) => Ok(EvictionMode::Camp(Precision::PAPER_DEFAULT)),
            ("camp", Some("inf" | "infinite" | "exact")) => {
                Ok(EvictionMode::Camp(Precision::Infinite))
            }
            ("camp", Some(bits)) => {
                let p: u8 = bits.parse().map_err(|_| err())?;
                if p == 0 || p > 64 {
                    return Err(err());
                }
                Ok(EvictionMode::Camp(Precision::Bits(p)))
            }
            ("gds", None) => Ok(EvictionMode::Gds),
            ("gdsf", None) => Ok(EvictionMode::Gdsf),
            ("lfu", None) => Ok(EvictionMode::Lfu),
            ("lru-2" | "lru2", None) => Ok(EvictionMode::LruK(2)),
            ("lru-k" | "lruk", Some(k)) => {
                let k: usize = k.parse().map_err(|_| err())?;
                if k == 0 {
                    return Err(err());
                }
                Ok(EvictionMode::LruK(k))
            }
            ("2q" | "twoq", None) => Ok(EvictionMode::TwoQ),
            ("arc", None) => Ok(EvictionMode::Arc),
            ("gd-wheel" | "gdwheel", None) => Ok(EvictionMode::GdWheel),
            ("pooled-lru" | "pooled", bounds) => {
                let boundaries: Vec<u64> = match bounds {
                    None | Some("") => DEFAULT_POOL_BOUNDARIES.to_vec(),
                    Some(list) => list
                        .split(',')
                        .map(|b| b.trim().parse::<u64>().map_err(|_| err()))
                        .collect::<Result<_, _>>()?,
                };
                if boundaries.is_empty() || boundaries.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(err());
                }
                Ok(EvictionMode::PooledLru {
                    boundaries,
                    split: PoolSplit::Uniform,
                })
            }
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CacheRequest;

    #[test]
    fn parses_every_documented_name() {
        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            let policy: Box<dyn EvictionPolicy> = mode.build(1 << 16);
            assert!(policy.capacity() > 0, "{name}");
        }
    }

    #[test]
    fn parses_parameterized_forms() {
        assert_eq!(
            "camp:7".parse::<EvictionMode>().unwrap(),
            EvictionMode::Camp(Precision::Bits(7))
        );
        assert_eq!(
            "camp:inf".parse::<EvictionMode>().unwrap(),
            EvictionMode::Camp(Precision::Infinite)
        );
        assert_eq!(
            "CAMP".parse::<EvictionMode>().unwrap(),
            EvictionMode::Camp(Precision::PAPER_DEFAULT)
        );
        assert_eq!(
            "lru-k:3".parse::<EvictionMode>().unwrap(),
            EvictionMode::LruK(3)
        );
        assert_eq!(
            "lru-2".parse::<EvictionMode>().unwrap(),
            EvictionMode::LruK(2)
        );
        assert_eq!(
            "pooled-lru:1,50,5000".parse::<EvictionMode>().unwrap(),
            EvictionMode::PooledLru {
                boundaries: vec![1, 50, 5000],
                split: PoolSplit::Uniform,
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "mru",
            "camp:0",
            "camp:65",
            "camp:x",
            "lru-k:0",
            "lru-k",
            "pooled-lru:5,5",
            "pooled-lru:9,1",
            "2q:extra",
        ] {
            assert!(bad.parse::<EvictionMode>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_round_trips() {
        let modes = [
            EvictionMode::Lru,
            EvictionMode::Camp(Precision::Bits(5)),
            EvictionMode::Camp(Precision::Infinite),
            EvictionMode::Gds,
            EvictionMode::Gdsf,
            EvictionMode::Lfu,
            EvictionMode::LruK(4),
            EvictionMode::TwoQ,
            EvictionMode::Arc,
            EvictionMode::GdWheel,
            EvictionMode::PooledLru {
                boundaries: vec![1, 100],
                split: PoolSplit::Uniform,
            },
        ];
        for mode in modes {
            let round = mode.to_string().parse::<EvictionMode>().unwrap();
            assert_eq!(round, mode, "{mode}");
        }
    }

    #[test]
    fn default_is_the_paper_configuration() {
        assert_eq!(
            EvictionMode::default(),
            EvictionMode::Camp(Precision::Bits(5))
        );
    }

    #[test]
    fn builds_over_byte_keys() {
        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy<Box<[u8]>>> = mode.build(1 << 16);
            let key: Box<[u8]> = b"hello".to_vec().into_boxed_slice();
            let mut evicted = Vec::new();
            policy.reference(CacheRequest::new(key.clone(), 64, 10), &mut evicted);
            // LRU-K and friends may ghost the first reference; a second one
            // must make the key resident for every policy.
            policy.reference(CacheRequest::new(key.clone(), 64, 10), &mut evicted);
            assert!(policy.contains(&key), "{name}");
            assert!(!policy.name().is_empty());
        }
    }
}
