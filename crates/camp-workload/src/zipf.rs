//! Skewed key-popularity samplers.
//!
//! The paper's BG benchmark is configured so that "approximately 70% of
//! requests reference 20% of keys". Two samplers reproduce that kind of
//! skew: a classic [`Zipf`] sampler (the YCSB/Gray construction) and an
//! explicit two-segment [`HotCold`] sampler that hits the 70/20 target
//! exactly. Both draw from `0..n` and are wrapped in a seeded random
//! permutation ([`Permutation`]) so that popularity rank is decoupled from
//! key-id order.

use camp_core::rng::Rng64;

/// A Zipf-distributed sampler over `0..n` with exponent `theta`.
///
/// Item `i` is drawn with probability proportional to `1/(i+1)^theta`. The
/// implementation precomputes the harmonic normalizer once (O(n)) and then
/// samples in O(1) using the standard YCSB/Gray closed form.
///
/// # Examples
///
/// ```
/// use camp_core::rng::Rng64;
/// use camp_workload::zipf::Zipf;
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = Rng64::seed_from_u64(1);
/// let draws: Vec<u64> = (0..1000).map(|_| zipf.sample(&mut rng)).collect();
/// // Rank 0 is the most popular item by a wide margin.
/// let zeros = draws.iter().filter(|&&d| d == 0).count();
/// assert!(zeros > 50);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `0..n` with exponent `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `(0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// The key-space size.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        let u: f64 = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// A two-segment sampler: a fraction `hot_fraction` of the ranks receives a
/// fraction `hot_probability` of the draws, uniformly within each segment.
///
/// With the defaults (`0.2`, `0.7`) this reproduces the paper's "70% of
/// requests reference 20% of keys" exactly in expectation.
///
/// # Examples
///
/// ```
/// use camp_core::rng::Rng64;
/// use camp_workload::zipf::HotCold;
///
/// let sampler = HotCold::paper_default(1000);
/// let mut rng = Rng64::seed_from_u64(7);
/// let hot_draws = (0..10_000)
///     .filter(|_| sampler.sample(&mut rng) < 200)
///     .count();
/// assert!((6500..7500).contains(&hot_draws));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotCold {
    n: u64,
    hot_keys: u64,
    hot_probability: f64,
}

impl HotCold {
    /// Creates a sampler over `0..n` where `hot_fraction` of the ranks get
    /// `hot_probability` of the draws.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or either fraction is outside `(0, 1)`.
    #[must_use]
    pub fn new(n: u64, hot_fraction: f64, hot_probability: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!((0.0..=1.0).contains(&hot_fraction), "bad hot fraction");
        assert!(
            (0.0..=1.0).contains(&hot_probability),
            "bad hot probability"
        );
        let hot_keys = ((n as f64 * hot_fraction).ceil() as u64).clamp(1, n);
        HotCold {
            n,
            hot_keys,
            hot_probability,
        }
    }

    /// The paper's configuration: 70% of requests to 20% of keys.
    #[must_use]
    pub fn paper_default(n: u64) -> Self {
        HotCold::new(n, 0.2, 0.7)
    }

    /// The key-space size.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of ranks in the hot segment.
    #[must_use]
    pub fn hot_keys(&self) -> u64 {
        self.hot_keys
    }

    /// Draws one rank in `0..n` (ranks below `hot_keys()` are hot).
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        let hot = rng.chance(self.hot_probability);
        if hot || self.hot_keys == self.n {
            rng.range_u64(0, self.hot_keys)
        } else {
            rng.range_u64(self.hot_keys, self.n)
        }
    }
}

/// A seeded random permutation of `0..n`, used to scramble popularity ranks
/// into key ids so that "key 0 is hottest" artifacts cannot leak into
/// policies.
///
/// # Examples
///
/// ```
/// use camp_workload::zipf::Permutation;
///
/// let perm = Permutation::new(10, 42);
/// let mut image: Vec<u64> = (0..10).map(|i| perm.apply(i)).collect();
/// image.sort_unstable();
/// assert_eq!(image, (0..10).collect::<Vec<u64>>());
/// ```
#[derive(Debug, Clone)]
pub struct Permutation {
    forward: Vec<u32>,
}

impl Permutation {
    /// Builds a Fisher–Yates permutation of `0..n` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(n: u64, seed: u64) -> Self {
        let n32 = u32::try_from(n).expect("permutation domain exceeds u32::MAX");
        let mut forward: Vec<u32> = (0..n32).collect();
        let mut rng = Rng64::seed_from_u64(seed);
        rng.shuffle(&mut forward);
        Permutation { forward }
    }

    /// Maps a rank to its scrambled key id.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the domain.
    #[must_use]
    pub fn apply(&self, rank: u64) -> u64 {
        u64::from(self.forward[usize::try_from(rank).expect("rank out of range")])
    }

    /// Domain size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_heavily_skewed() {
        let zipf = Zipf::new(10_000, 0.99);
        let mut rng = Rng64::seed_from_u64(3);
        let mut counts = vec![0u64; 10_000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // Top 1% of ranks should take a large share of draws.
        let top: u64 = counts[..100].iter().sum();
        assert!(top > 30_000, "top-1% share too small: {top}");
        // Monotone-ish: rank 0 beats rank 100 beats rank 5000.
        assert!(counts[0] > counts[100]);
        assert!(counts[100] > counts[5000]);
    }

    #[test]
    fn zipf_stays_in_range() {
        for n in [1u64, 2, 10, 1000] {
            let zipf = Zipf::new(n, 0.5);
            let mut rng = Rng64::seed_from_u64(9);
            for _ in 0..1000 {
                assert!(zipf.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn hot_cold_hits_the_70_20_target() {
        let s = HotCold::paper_default(10_000);
        assert_eq!(s.hot_keys(), 2000);
        let mut rng = Rng64::seed_from_u64(11);
        let trials = 200_000;
        let hot = (0..trials)
            .filter(|_| s.sample(&mut rng) < s.hot_keys())
            .count();
        let share = hot as f64 / trials as f64;
        assert!((share - 0.7).abs() < 0.01, "hot share {share}");
    }

    #[test]
    fn hot_cold_covers_the_cold_range_too() {
        let s = HotCold::new(100, 0.2, 0.7);
        let mut rng = Rng64::seed_from_u64(5);
        let mut seen_cold = false;
        for _ in 0..1000 {
            if s.sample(&mut rng) >= 20 {
                seen_cold = true;
            }
        }
        assert!(seen_cold);
    }

    #[test]
    fn permutation_is_a_bijection_and_deterministic() {
        let a = Permutation::new(1000, 77);
        let b = Permutation::new(1000, 77);
        let c = Permutation::new(1000, 78);
        let mut image: Vec<u64> = (0..1000).map(|i| a.apply(i)).collect();
        assert_eq!(
            (0..1000).map(|i| b.apply(i)).collect::<Vec<_>>(),
            image,
            "same seed must give the same permutation"
        );
        assert_ne!((0..1000).map(|i| c.apply(i)).collect::<Vec<_>>(), image);
        image.sort_unstable();
        assert_eq!(image, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zipf_rejects_empty_domain() {
        let _ = Zipf::new(0, 0.5);
    }
}
