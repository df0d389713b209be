//! Summary statistics for experiment harnesses.
//!
//! The figure-reproduction binaries report means, percentiles and CDF
//! points (Figure 5). Keeping the implementations here avoids each
//! harness re-deriving them slightly differently.

/// A collected sample set with cached sorted order.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Build from raw observations (NaNs are dropped — they would poison
    /// ordering and every derived statistic).
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
        Summary { sorted }
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.sorted.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sorted.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.sorted.len() as f64)
            .sqrt()
    }

    /// Percentile by nearest-rank (`q` in `[0, 1]`).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }
}

/// Coefficient of variation (stddev/mean) — the harnesses use it as the
/// single-number "heterogeneity" metric when comparing distributions.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let s = Summary::from_values(values.iter().copied());
    let m = s.mean();
    if m == 0.0 {
        0.0
    } else {
        s.stddev() / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_match_hand_computation() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = Summary::from_values((1..=100).map(|i| i as f64));
        assert_eq!(s.percentile(0.50), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0); // clamped to first rank
        assert_eq!(s.sorted.first(), Some(&1.0));
        assert_eq!(s.sorted.last(), Some(&100.0));
    }

    #[test]
    fn empty_summary_is_all_zeros() {
        let s = Summary::from_values(std::iter::empty());
        assert!(s.sorted.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn nans_are_filtered() {
        let s = Summary::from_values([1.0, f64::NAN, 3.0]);
        assert_eq!(s.sorted.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn cov_of_constant_data_is_zero() {
        assert_eq!(coefficient_of_variation(&[3.0, 3.0, 3.0]), 0.0);
    }
}
