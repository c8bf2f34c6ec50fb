//! Order statistics the benchmark reports.
//!
//! Percentiles are nearest-rank: the value at 1-based rank
//! `ceil(p · n)` of the sorted sample, so every reported number is a
//! measured sample, never an interpolation. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) in `n` samples,
/// clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending `sorted` sample; `NaN` when
/// the sample is empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        // ceil(0.5 · 5) = 3 → the middle sample, not an interpolation.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        // ceil(0.5 · 4) = 2 → the lower middle.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
        // Tiny p still lands on the first sample.
        assert_eq!(nearest_rank(&v, 1e-9), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, with 10 beyond → supported.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        // 999 samples: rank ceil(989.01) = 990, 9 beyond → not supported.
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(beyond(0, 0.99), 0);
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
