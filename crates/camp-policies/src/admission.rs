//! Admission control wrappers — the paper's §6 future-work direction.
//!
//! "Another important direction to explore is the use of admission control
//! policies in conjunction with CAMP that also considers variations in
//! key-value sizes and costs. This should enhance the performance of CAMP by
//! not inserting unpopular key-value pairs that are evicted before their
//! next request." — this module implements that idea as a transparent
//! wrapper around any [`EvictionPolicy`], so the ablation benches can
//! measure it over CAMP, LRU and GDS alike.

use std::collections::VecDeque;

use camp_core::hash::FoldHashMap;

use crate::policy::{AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, SharedTraceSink};

/// The admission decision rules available to [`Admission`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionRule {
    /// Admit everything (the identity wrapper, useful as a control).
    Always,
    /// Admit only pairs strictly smaller than this many bytes.
    SizeBelow(u64),
    /// Admit only pairs whose cost-to-size ratio `cost/size` is at least
    /// `num/den` (evaluated exactly in integers).
    RatioAtLeast {
        /// Numerator of the minimum admissible ratio.
        num: u64,
        /// Denominator of the minimum admissible ratio (must be non-zero).
        den: u64,
    },
    /// Admit a pair only on its second miss within the last `window`
    /// distinct missed keys (a ghost-based "prove yourself" filter that
    /// screens out one-hit wonders).
    SecondMiss {
        /// How many recently missed keys to remember.
        window: usize,
    },
}

/// Wraps an [`EvictionPolicy`] with an admission filter: hits pass through
/// untouched, misses are only inserted when the rule approves.
///
/// # Examples
///
/// ```
/// use camp_policies::{Admission, AdmissionRule, CacheRequest, EvictionPolicy, Lru};
///
/// // Only admit keys on their second miss: a scan of one-timers leaves the
/// // cache untouched.
/// let mut cache = Admission::new(Lru::new(100), AdmissionRule::SecondMiss { window: 64 });
/// let mut evicted = Vec::new();
/// for k in 0..10 {
///     cache.reference(CacheRequest::new(k, 10, 0), &mut evicted);
/// }
/// assert!(cache.is_empty());
/// // A repeated key gets in.
/// cache.reference(CacheRequest::new(3, 10, 0), &mut evicted);
/// assert!(cache.contains(&3));
/// ```
#[derive(Debug)]
pub struct Admission<P, K = u64> {
    inner: P,
    rule: AdmissionRule,
    ghost: FoldHashMap<K, u64>,
    ghost_order: VecDeque<K>,
    bypassed: u64,
}

impl<K: CacheKey, P: EvictionPolicy<K>> Admission<P, K> {
    /// Wraps `inner` with `rule`.
    ///
    /// # Panics
    ///
    /// Panics if the rule is `RatioAtLeast` with a zero denominator.
    #[must_use]
    pub fn new(inner: P, rule: AdmissionRule) -> Self {
        if let AdmissionRule::RatioAtLeast { den, .. } = rule {
            assert!(den > 0, "ratio denominator must be non-zero");
        }
        Admission {
            inner,
            rule,
            ghost: FoldHashMap::default(),
            ghost_order: VecDeque::new(),
            bypassed: 0,
        }
    }

    /// The wrapped policy.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped policy.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Misses the rule declined to insert so far.
    #[must_use]
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }

    fn admit(&mut self, req: &CacheRequest<K>) -> bool {
        match self.rule {
            AdmissionRule::Always => true,
            AdmissionRule::SizeBelow(limit) => req.size < limit,
            AdmissionRule::RatioAtLeast { num, den } => {
                // cost/size >= num/den  <=>  cost*den >= num*size
                u128::from(req.cost) * u128::from(den) >= u128::from(num) * u128::from(req.size)
            }
            AdmissionRule::SecondMiss { window } => {
                let count = self.ghost.entry(req.key.clone()).or_insert(0);
                if *count > 0 {
                    self.ghost.remove(&req.key);
                    return true;
                }
                *count = 1;
                self.ghost_order.push_back(req.key.clone());
                while self.ghost.len() > window {
                    if let Some(old) = self.ghost_order.pop_front() {
                        self.ghost.remove(&old);
                    } else {
                        break;
                    }
                }
                false
            }
        }
    }
}

impl<K: CacheKey, P: EvictionPolicy<K>> EvictionPolicy<K> for Admission<P, K> {
    fn name(&self) -> String {
        format!("{}+admission", self.inner.name())
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    fn reference(&mut self, req: CacheRequest<K>, evicted: &mut Vec<K>) -> AccessOutcome {
        if self.inner.contains(&req.key) {
            return self.inner.reference(req, evicted);
        }
        if self.admit(&req) {
            self.inner.reference(req, evicted)
        } else {
            self.bypassed += 1;
            AccessOutcome::MissBypassed
        }
    }

    fn touch(&mut self, key: &K) -> bool {
        self.inner.touch(key)
    }

    fn evict_next(&mut self) -> Option<K> {
        self.inner.evict_next()
    }

    fn remove(&mut self, key: &K) -> bool {
        self.inner.remove(key)
    }

    fn queue_count(&self) -> Option<usize> {
        self.inner.queue_count()
    }

    fn heap_node_visits(&self) -> Option<u64> {
        self.inner.heap_node_visits()
    }

    fn heap_update_ops(&self) -> Option<u64> {
        self.inner.heap_update_ops()
    }

    fn reset_instrumentation(&mut self) {
        self.inner.reset_instrumentation();
    }

    fn set_trace_sink(&mut self, sink: Option<SharedTraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn policy_stats(&self) -> crate::policy::PolicyStats {
        let mut stats = self.inner.policy_stats();
        stats.push("admission_bypassed", self.bypassed);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;

    fn req(key: u64, size: u64, cost: u64) -> CacheRequest {
        CacheRequest::new(key, size, cost)
    }

    #[test]
    fn always_is_transparent() {
        let mut a = Admission::new(Lru::new(30), AdmissionRule::Always);
        let mut ev = Vec::new();
        assert_eq!(
            a.reference(req(1, 10, 0), &mut ev),
            AccessOutcome::MissInserted
        );
        assert_eq!(a.reference(req(1, 10, 0), &mut ev), AccessOutcome::Hit);
        assert_eq!(a.bypassed(), 0);
    }

    #[test]
    fn size_filter_blocks_large_values() {
        let mut a = Admission::new(Lru::new(100), AdmissionRule::SizeBelow(20));
        let mut ev = Vec::new();
        assert_eq!(
            a.reference(req(1, 25, 0), &mut ev),
            AccessOutcome::MissBypassed
        );
        assert_eq!(
            a.reference(req(2, 10, 0), &mut ev),
            AccessOutcome::MissInserted
        );
        assert_eq!(a.bypassed(), 1);
        assert!(!a.contains(&1));
    }

    #[test]
    fn ratio_filter_requires_value_density() {
        let mut a = Admission::new(
            Lru::new(100),
            AdmissionRule::RatioAtLeast { num: 1, den: 2 },
        );
        let mut ev = Vec::new();
        // cost 4 / size 10 < 1/2: rejected.
        assert_eq!(
            a.reference(req(1, 10, 4), &mut ev),
            AccessOutcome::MissBypassed
        );
        // cost 5 / size 10 == 1/2: admitted.
        assert_eq!(
            a.reference(req(2, 10, 5), &mut ev),
            AccessOutcome::MissInserted
        );
    }

    #[test]
    fn second_miss_admits_repeaters_only() {
        let mut a = Admission::new(Lru::new(100), AdmissionRule::SecondMiss { window: 8 });
        let mut ev = Vec::new();
        assert_eq!(
            a.reference(req(1, 10, 0), &mut ev),
            AccessOutcome::MissBypassed
        );
        assert_eq!(
            a.reference(req(1, 10, 0), &mut ev),
            AccessOutcome::MissInserted
        );
        assert_eq!(a.reference(req(1, 10, 0), &mut ev), AccessOutcome::Hit);
    }

    #[test]
    fn second_miss_window_expires() {
        let mut a = Admission::new(Lru::new(1000), AdmissionRule::SecondMiss { window: 4 });
        let mut ev = Vec::new();
        a.reference(req(1, 10, 0), &mut ev);
        // Push key 1 out of the 4-entry window.
        for k in 2..=6 {
            a.reference(req(k, 10, 0), &mut ev);
        }
        // Key 1's first miss has been forgotten.
        assert_eq!(
            a.reference(req(1, 10, 0), &mut ev),
            AccessOutcome::MissBypassed
        );
    }

    #[test]
    fn hits_bypass_the_filter() {
        // Once resident, a key stays manageable even if the rule would now
        // reject it.
        let mut a = Admission::new(Lru::new(100), AdmissionRule::SizeBelow(20));
        let mut ev = Vec::new();
        a.reference(req(1, 10, 0), &mut ev);
        assert_eq!(a.reference(req(1, 10, 0), &mut ev), AccessOutcome::Hit);
    }
}
