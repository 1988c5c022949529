//! The paper's two key metrics: miss rate and cost-miss ratio.
//!
//! Both exclude *cold* requests — the first reference to each key — because
//! "any algorithm will fault on such requests" (§3). The cost-miss ratio is
//! the primary metric: the summed cost of missed (non-cold) requests divided
//! by the summed cost of all (non-cold) requests.

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SimMetrics {
    /// Total trace rows processed.
    pub requests: usize,
    /// First-touch requests, excluded from the rates.
    pub cold_requests: usize,
    /// Non-cold hits.
    pub hits: u64,
    /// Non-cold misses (inserted or bypassed).
    pub misses: u64,
    /// Misses the policy declined to insert (admission/too-large).
    pub bypassed: u64,
    /// Summed cost over non-cold missed requests.
    pub missed_cost: u64,
    /// Summed cost over all non-cold requests.
    pub total_cost: u64,
}

impl SimMetrics {
    /// Non-cold requests counted in the rates.
    #[must_use]
    pub fn counted_requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// The paper's *miss rate*: non-cold misses over non-cold requests.
    /// Returns 0 when nothing was counted.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let counted = self.counted_requests();
        if counted == 0 {
            0.0
        } else {
            self.misses as f64 / counted as f64
        }
    }

    /// Complement of [`SimMetrics::miss_rate`].
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let counted = self.counted_requests();
        if counted == 0 {
            0.0
        } else {
            1.0 - self.miss_rate()
        }
    }

    /// The paper's *cost-miss ratio*: summed cost of non-cold misses over
    /// summed cost of all non-cold requests. Returns 0 when no cost was
    /// accumulated.
    #[must_use]
    pub fn cost_miss_ratio(&self) -> f64 {
        if self.total_cost == 0 {
            0.0
        } else {
            self.missed_cost as f64 / self.total_cost as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_computed_over_non_cold_requests() {
        let m = SimMetrics {
            requests: 10,
            cold_requests: 2,
            hits: 6,
            misses: 2,
            bypassed: 0,
            missed_cost: 50,
            total_cost: 200,
        };
        assert_eq!(m.counted_requests(), 8);
        assert!((m.miss_rate() - 0.25).abs() < 1e-12);
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
        assert!((m.cost_miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero_not_nan() {
        let m = SimMetrics::default();
        assert_eq!(m.miss_rate(), 0.0);
        assert_eq!(m.hit_rate(), 0.0);
        assert_eq!(m.cost_miss_ratio(), 0.0);
    }
}
