//! Output analysis: online moments, batch means and confidence intervals.

/// Welford's online mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Two-sided 97.5% Student-t quantile (for 95% confidence intervals) with
/// `df` degrees of freedom; normal approximation beyond the table.
pub fn t_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=60 => 2.02,
        61..=120 => 2.0,
        _ => 1.96,
    }
}

/// Two-sided 99.5% Student-t quantile (for 99% confidence intervals) with
/// `df` degrees of freedom; normal approximation beyond the table.
pub fn t_995(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=60 => 2.66,
        61..=120 => 2.62,
        _ => 2.576,
    }
}

/// Confidence level for an interval estimate.
///
/// Centralises the t-vs-z quantile selection that used to be duplicated
/// across `estimate`/`estimate_99` and the sim-vs-analytic assertions:
/// Student-t below 121 degrees of freedom (exact table through 30, banded
/// approximations to 120), the normal quantile beyond.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Confidence {
    /// 95% two-sided interval (97.5% quantile).
    #[default]
    P95,
    /// 99% two-sided interval (99.5% quantile).
    P99,
}

impl Confidence {
    /// The two-sided Student-t quantile for `df` degrees of freedom.
    pub fn t_quantile(self, df: u64) -> f64 {
        match self {
            Confidence::P95 => t_975(df),
            Confidence::P99 => t_995(df),
        }
    }

    /// The large-sample (normal) limit of [`Confidence::t_quantile`].
    pub fn z_quantile(self) -> f64 {
        match self {
            Confidence::P95 => 1.96,
            Confidence::P99 => 2.576,
        }
    }
}

/// A point estimate with a 95% confidence half-width.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Estimate {
    /// Point estimate (mean of batch means).
    pub mean: f64,
    /// 95% CI half-width (0 when fewer than 2 batches).
    pub half_width: f64,
}

impl Estimate {
    /// `true` iff `x` falls inside the 95% interval.
    pub fn covers(&self, x: f64) -> bool {
        (x - self.mean).abs() <= self.half_width
    }

    /// `true` iff `x` falls inside the interval widened by `slack` (both
    /// absolute); useful for asserting agreement in tests without flaking.
    pub fn covers_with_slack(&self, x: f64, slack: f64) -> bool {
        (x - self.mean).abs() <= self.half_width + slack
    }
}

/// Batch-means estimator: observations are grouped into fixed batches and
/// the CI is computed over batch averages (the standard way to get a CI out
/// of one long, autocorrelated simulation run).
#[derive(Clone, Debug)]
pub struct BatchMeans {
    batch_values: Vec<f64>,
}

impl BatchMeans {
    /// From precomputed batch aggregates.
    pub fn from_batches(batch_values: Vec<f64>) -> Self {
        BatchMeans { batch_values }
    }

    /// From per-batch `(numerator, denominator)` counts: each batch
    /// contributes the ratio `num/den`, and batches with `den == 0` (no
    /// observations) are skipped.
    pub fn from_ratios(counts: impl IntoIterator<Item = (u64, u64)>) -> Self {
        BatchMeans::from_batches(
            counts
                .into_iter()
                .filter(|&(_, den)| den > 0)
                .map(|(num, den)| num as f64 / den as f64)
                .collect(),
        )
    }

    /// Number of batches.
    pub fn batches(&self) -> usize {
        self.batch_values.len()
    }

    /// Point estimate plus CI half-width at the requested confidence
    /// level (half-width 0 with fewer than 2 batches).
    pub fn estimate_at(&self, conf: Confidence) -> Estimate {
        let n = self.batch_values.len();
        if n == 0 {
            return Estimate::default();
        }
        let mut w = Welford::new();
        for &v in &self.batch_values {
            w.add(v);
        }
        let hw = if n >= 2 {
            conf.t_quantile(n as u64 - 1) * w.std_dev() / (n as f64).sqrt()
        } else {
            0.0
        };
        Estimate {
            mean: w.mean(),
            half_width: hw,
        }
    }

    /// Point estimate plus 95% CI.
    pub fn estimate(&self) -> Estimate {
        self.estimate_at(Confidence::P95)
    }

    /// Point estimate plus 99% CI (same batch-means construction, wider
    /// quantile) — what the statistical sim-vs-analytic regression tests
    /// assert against.
    pub fn estimate_99(&self) -> Estimate {
        self.estimate_at(Confidence::P99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of that classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.add(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn t_table_monotone_and_limits() {
        assert!(t_975(1) > t_975(2));
        assert!(t_975(5) > t_975(30));
        assert_eq!(t_975(1_000_000), 1.96);
        assert_eq!(t_975(0), f64::INFINITY);
    }

    #[test]
    fn t_995_wider_than_t_975_everywhere() {
        for df in [1u64, 2, 5, 10, 30, 45, 100, 1_000_000] {
            assert!(t_995(df) > t_975(df), "df={df}");
        }
        assert_eq!(t_995(1_000_000), 2.576);
        assert_eq!(t_995(0), f64::INFINITY);
    }

    #[test]
    fn confidence_selects_t_below_121_df_and_z_beyond() {
        for conf in [Confidence::P95, Confidence::P99] {
            // Small df: exact table entries, strictly above the z limit.
            assert_eq!(conf.t_quantile(1), conf.t_quantile(1));
            for df in [1u64, 5, 19, 30, 31, 60, 61, 120] {
                assert!(conf.t_quantile(df) > conf.z_quantile(), "df={df}");
            }
            // Beyond 120 df the t quantile collapses to z exactly.
            for df in [121u64, 500, 1_000_000] {
                assert_eq!(conf.t_quantile(df), conf.z_quantile(), "df={df}");
            }
            assert_eq!(conf.t_quantile(0), f64::INFINITY);
        }
        // The enum routes to the right underlying table.
        assert_eq!(Confidence::P95.t_quantile(4), t_975(4));
        assert_eq!(Confidence::P99.t_quantile(4), t_995(4));
        assert_eq!(Confidence::default(), Confidence::P95);
    }

    #[test]
    fn estimate_at_matches_hand_computed_half_width() {
        // 5 batches ⇒ df = 4; mean 3, std-dev of {1..5} is sqrt(2.5).
        let bm = BatchMeans::from_batches(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let sd = 2.5f64.sqrt();
        for conf in [Confidence::P95, Confidence::P99] {
            let e = bm.estimate_at(conf);
            assert!((e.mean - 3.0).abs() < 1e-12);
            let want = conf.t_quantile(4) * sd / 5f64.sqrt();
            assert!((e.half_width - want).abs() < 1e-12, "{conf:?}");
        }
        assert_eq!(bm.estimate(), bm.estimate_at(Confidence::P95));
        assert_eq!(bm.estimate_99(), bm.estimate_at(Confidence::P99));
    }

    #[test]
    fn estimate_99_is_wider_than_95_with_same_mean() {
        let vals: Vec<f64> = (0..20)
            .map(|i| 10.0 + ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        let bm = BatchMeans::from_batches(vals);
        let e95 = bm.estimate();
        let e99 = bm.estimate_99();
        assert_eq!(e95.mean, e99.mean);
        assert!(e99.half_width > e95.half_width);
        assert!(e99.covers(10.0));
    }

    #[test]
    fn batch_means_ci_covers_true_mean_for_iid_batches() {
        // Deterministic pseudo-noise around 10.0.
        let vals: Vec<f64> = (0..20)
            .map(|i| 10.0 + ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        let est = BatchMeans::from_batches(vals).estimate();
        assert!(est.covers(10.0), "{est:?}");
        assert!(est.half_width > 0.0);
    }

    #[test]
    fn batch_means_degenerate_cases() {
        assert_eq!(
            BatchMeans::from_batches(vec![]).estimate(),
            Estimate::default()
        );
        let one = BatchMeans::from_batches(vec![5.0]).estimate();
        assert_eq!(one.mean, 5.0);
        assert_eq!(one.half_width, 0.0);
        // Ratio batches with no observations are skipped.
        let bm = BatchMeans::from_ratios([(1, 4), (0, 0), (3, 4)]);
        assert_eq!((bm.batches(), bm.estimate().mean), (2, 0.5));
    }

    #[test]
    fn covers_with_slack() {
        let e = Estimate {
            mean: 1.0,
            half_width: 0.1,
        };
        assert!(e.covers(1.05));
        assert!(!e.covers(1.2));
        assert!(e.covers_with_slack(1.2, 0.15));
    }
}
