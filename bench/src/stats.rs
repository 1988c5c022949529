//! Percentiles within a slice and the reduction across slices.
//!
//! Every timing the benchmark reports is computed per 1-second slice of
//! a phase and reduced to the median across slices, so one compaction
//! stall or one noisy-neighbour burst moves a single slice, not the
//! result.

/// Median of `values` (mean of the two middle values when even).
/// Returns 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The highest quantile not above `q` that still has at least ten of
/// `n` samples beyond it (never below the median).
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    q.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Nearest-rank quantile of an ascending slice. Returns 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of one slice's samples, capped by
/// [`supported_quantile`]. Sorts `samples`.
pub fn slice_quantile(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    quantile(samples, supported_quantile(samples.len(), q)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&[], 0.9), 0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 500 samples support only p98; 20 samples only the median.
        assert!((supported_quantile(500, 0.99) - 0.98).abs() < 1e-12);
        assert_eq!(supported_quantile(20, 0.99), 0.5);
        assert_eq!(supported_quantile(0, 0.99), 0.5);
    }

    #[test]
    fn slice_quantile_caps_at_the_supported_percentile() {
        let mut samples: Vec<u64> = (1..=500).rev().collect();
        // 500 samples support p98, not p99.
        assert_eq!(slice_quantile(&mut samples, 0.99), 490.0);
        assert_eq!(slice_quantile(&mut samples, 0.5), 250.0);
        assert_eq!(slice_quantile(&mut [], 0.5), 0.0);
    }
}
