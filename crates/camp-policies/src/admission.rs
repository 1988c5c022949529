//! Admission control wrappers — the paper's §6 future-work direction.
//!
//! "Another important direction to explore is the use of admission control
//! policies in conjunction with CAMP that also considers variations in
//! key-value sizes and costs. This should enhance the performance of CAMP by
//! not inserting unpopular key-value pairs that are evicted before their
//! next request." — this module implements that idea as a transparent
//! wrapper around any [`EvictionPolicy`], so the ablation benches can
//! measure it over CAMP, LRU and GDS alike. The one rule is a second-miss
//! filter: the rule the `extension-policies` experiment runs.

use crate::policy::{AccessOutcome, CacheKey, EvictionPolicy, PolicyEvent};
use crate::util::GhostList;

/// The admission decision rule of [`Admission`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionRule {
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
    /// `SecondMiss`'s window: how many keys missed once `ghosts` holds.
    window: usize,
    /// Keys missed once, weighing 1 each.
    ghosts: GhostList<K>,
    bypassed: u64,
}

impl<K: CacheKey, P> Admission<P, K> {
    /// Wraps `inner` with `rule`.
    #[must_use]
    pub fn new(inner: P, rule: AdmissionRule) -> Self {
        let AdmissionRule::SecondMiss { window } = rule;
        Admission {
            inner,
            window,
            ghosts: GhostList::default(),
            bypassed: 0,
        }
    }

    /// Misses the rule declined to insert so far.
    #[must_use]
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }

    /// Whether the rule lets the missed pair in: it was missed once
    /// within the window.
    fn approves(&mut self, key: &K) -> bool {
        if self.ghosts.remove(key).is_some() {
            return true;
        }
        self.ghosts.push(key.clone(), 1, ());
        self.ghosts.trim_to(self.window as u64);
        false
    }
}

impl<K: CacheKey, V, P: EvictionPolicy<K, V>> EvictionPolicy<K, V> for Admission<P, K> {
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

    fn get(&mut self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    fn peek(&self, key: &K) -> Option<&V> {
        self.inner.peek(key)
    }

    fn admit(
        &mut self,
        key: K,
        value: V,
        size: u64,
        cost: u64,
        evicted: &mut dyn FnMut(K, V),
    ) -> AccessOutcome {
        if self.approves(&key) {
            self.inner.admit(key, value, size, cost, evicted)
        } else {
            self.bypassed += 1;
            AccessOutcome::MissBypassed
        }
    }

    fn take(&mut self, key: &K) -> Option<V> {
        self.inner.take(key)
    }

    fn evict(&mut self) -> Option<(K, V)> {
        self.inner.evict()
    }

    fn for_each(&self, f: &mut dyn FnMut(&K, &V)) {
        self.inner.for_each(f);
    }

    fn reset_instrumentation(&mut self) {
        self.inner.reset_instrumentation();
    }

    fn log_decisions(&mut self, on: bool) {
        self.inner.log_decisions(on);
    }

    fn drain_decisions(&mut self, f: &mut dyn FnMut(PolicyEvent)) {
        self.inner.drain_decisions(f);
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
    use crate::policy::CacheRequest;

    fn req(key: u64, size: u64, cost: u64) -> CacheRequest {
        CacheRequest::new(key, size, cost)
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
    fn second_miss_remembers_a_key_missed_again_after_admission() {
        // One 10-byte pair fits. A's first mark was spent admitting it at
        // step 2; its fresh mark from step 6 must outlive X's older one
        // when Y fills the window.
        let mut cache = Admission::new(Lru::new(10), AdmissionRule::SecondMiss { window: 2 });
        let mut ev = Vec::new();
        let (a, x, b, y) = (1, 2, 3, 4);
        let outcomes: Vec<AccessOutcome> = [a, a, x, b, b, a, y, a]
            .into_iter()
            .map(|key| cache.reference(req(key, 10, 0), &mut ev))
            .collect();
        use AccessOutcome::{MissBypassed as Skip, MissInserted as In};
        assert_eq!(outcomes, [Skip, In, Skip, Skip, In, Skip, Skip, In]);
    }

    #[test]
    fn second_miss_window_stays_bounded() {
        let window = 8;
        let mut a = Admission::new(Lru::new(10), AdmissionRule::SecondMiss { window });
        let mut ev = Vec::new();
        // Each key's second miss comes four misses after its first.
        for key in 0..100_004 {
            if key < 100_000 {
                a.reference(req(key, 10, 0), &mut ev);
            }
            if key >= 4 {
                let again = a.reference(req(key - 4, 10, 0), &mut ev);
                assert_eq!(again, AccessOutcome::MissInserted, "key {}", key - 4);
            }
        }
        assert!(
            a.ghosts.entries() <= window,
            "{} entries",
            a.ghosts.entries()
        );
    }

    #[test]
    fn hits_bypass_the_filter() {
        // Once resident, a key stays manageable even after its miss has
        // left the window, when a miss of it would be turned away again.
        let mut a = Admission::new(Lru::new(100), AdmissionRule::SecondMiss { window: 2 });
        let mut ev = Vec::new();
        a.reference(req(1, 10, 0), &mut ev);
        a.reference(req(1, 10, 0), &mut ev);
        for k in 2..=4 {
            a.reference(req(k, 10, 0), &mut ev);
        }
        assert_eq!(a.reference(req(1, 10, 0), &mut ev), AccessOutcome::Hit);
        assert_eq!(a.bypassed(), 4);
    }
}
