//! Monte-Carlo estimation helpers.
//!
//! Section 6 of the paper compares its constructions "for particular system
//! sizes".  The exact formulas cover the symmetric constructions, but
//! protocol-level properties (Theorems 3.2, 4.2, 5.2) and irregular systems
//! are checked here by simulation, so the harness needs principled point
//! estimates and confidence intervals for Bernoulli probabilities — often
//! very small ones (ε ≤ 10⁻³).  [`BernoulliEstimator`] accumulates
//! success/failure counts and reports the Wilson score interval, which
//! behaves well for rare events.

/// Running estimator of a Bernoulli success probability.
///
/// # Examples
///
/// ```
/// use pqs_math::mc::BernoulliEstimator;
/// let mut est = BernoulliEstimator::new();
/// for i in 0..1000u32 {
///     est.record(i % 10 == 0);
/// }
/// assert!((est.estimate() - 0.1).abs() < 1e-9);
/// let (lo, hi) = est.wilson_interval(1.96);
/// assert!(lo < 0.1 && 0.1 < hi);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BernoulliEstimator {
    successes: u64,
    trials: u64,
}

impl BernoulliEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an estimator from pre-aggregated counts.
    pub fn from_counts(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "successes ({successes}) cannot exceed trials ({trials})"
        );
        Self { successes, trials }
    }

    /// Records one trial outcome.
    pub fn record(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Merges another estimator's counts into this one.
    pub fn merge(&mut self, other: &BernoulliEstimator) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Number of recorded successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Maximum-likelihood point estimate `successes / trials`
    /// (0 when no trials have been recorded).
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval with critical value `z` (e.g. 1.96 for 95%).
    ///
    /// Unlike the Wald interval this never collapses to a zero-width interval
    /// when no successes have been observed, which matters when estimating
    /// ε ≈ 10⁻³ probabilities with a few thousand trials.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }
}

/// Aggregates a stream of f64 observations (latencies, loads, overlap sizes)
/// into count / mean / variance / min / max using Welford's algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = new_mean;
        self.m2 = new_m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_basic_counts() {
        let mut e = BernoulliEstimator::new();
        assert_eq!(e.estimate(), 0.0);
        assert_eq!(e.trials(), 0);
        e.record(true);
        e.record(false);
        e.record(true);
        assert_eq!(e.successes(), 2);
        assert_eq!(e.trials(), 3);
        assert!((e.estimate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn from_counts_validates() {
        let _ = BernoulliEstimator::from_counts(5, 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BernoulliEstimator::from_counts(3, 10);
        let b = BernoulliEstimator::from_counts(1, 5);
        a.merge(&b);
        assert_eq!(a.successes(), 4);
        assert_eq!(a.trials(), 15);
    }

    #[test]
    fn wilson_interval_contains_estimate_and_is_ordered() {
        let e = BernoulliEstimator::from_counts(7, 100);
        let (lo, hi) = e.wilson_interval(1.96);
        assert!(lo <= e.estimate() && e.estimate() <= hi);
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
        // Interval shrinks with more data at the same rate.
        let e_big = BernoulliEstimator::from_counts(700, 10_000);
        let (lo2, hi2) = e_big.wilson_interval(1.96);
        assert!(hi2 - lo2 < hi - lo);
    }

    #[test]
    fn wilson_interval_nonzero_width_with_zero_successes() {
        let e = BernoulliEstimator::from_counts(0, 1000);
        let (lo, hi) = e.wilson_interval(1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
    }

    #[test]
    fn empty_estimator_intervals_are_trivial() {
        let e = BernoulliEstimator::new();
        assert_eq!(e.wilson_interval(1.96), (0.0, 1.0));
    }

    #[test]
    fn running_stats_mean_variance() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &x in &data {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance with Bessel correction: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = RunningStats::new();
        for &x in &data {
            seq.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        b.record(3.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 4.0).abs() < 1e-12);
        let empty = RunningStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn empty_running_stats() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }
}
