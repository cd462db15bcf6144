//! Streaming and weighted summary statistics.
//!
//! The paper evaluates estimation techniques not by relative error but by
//! the *mean and variance of query execution time* across a workload
//! (§5.2): predictability is the standard deviation, performance is the
//! mean.  These accumulators compute exactly those quantities, both for
//! measured executions (unweighted, Welford) and for the analytical model
//! (weighted by binomial probabilities).

/// Numerically stable running mean/variance accumulator (Welford's
/// algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
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

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
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

    /// Population variance (divides by `n`; 0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
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
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Weighted mean/variance accumulator for probability-weighted mixtures.
///
/// Used by the analytical figures: the execution time of a query with true
/// selectivity `p` is a mixture over the binomially distributed sample count
/// `k`, each outcome carrying weight `pmf(k)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedStats {
    weight: f64,
    mean: f64,
    m2: f64,
}

impl WeightedStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation `x` with non-negative weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or non-finite.
    pub fn push(&mut self, x: f64, w: f64) {
        assert!(w >= 0.0 && w.is_finite(), "WeightedStats: bad weight {w}");
        if w == 0.0 {
            return;
        }
        self.weight += w;
        let delta = x - self.mean;
        self.mean += delta * w / self.weight;
        self.m2 += w * delta * (x - self.mean);
    }

    /// Weighted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Weighted (population) variance.
    pub fn variance(&self) -> f64 {
        if self.weight == 0.0 {
            0.0
        } else {
            self.m2 / self.weight
        }
    }

    /// Weighted standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &WeightedStats) {
        if other.weight == 0.0 {
            return;
        }
        if self.weight == 0.0 {
            *self = *other;
            return;
        }
        let total = self.weight + other.weight;
        let delta = other.mean - self.mean;
        self.mean += delta * other.weight / total;
        self.m2 += other.m2 + delta * delta * self.weight * other.weight / total;
        self.weight = total;
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice using
/// linear interpolation between adjacent order statistics.
///
/// # Panics
///
/// Panics if the slice is empty, unsorted data is the caller's bug (checked
/// only in debug builds), or `q ∉ [0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "percentile: q={q} outside [0,1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted: input not sorted"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!(close(s.mean(), 5.0, 1e-12));
        assert!(close(s.variance(), 4.0, 1e-12));
        assert!(close(s.std_dev(), 2.0, 1e-12));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(42.0);
        assert_eq!(s1.mean(), 42.0);
        assert_eq!(s1.variance(), 0.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..33] {
            a.push(x);
        }
        for &x in &data[33..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!(close(a.mean(), whole.mean(), 1e-12));
        assert!(close(a.variance(), whole.variance(), 1e-10));
    }

    #[test]
    fn weighted_stats_matches_direct() {
        // Mixture: 30 with weight .2, 50 with weight .8
        let mut w = WeightedStats::new();
        w.push(30.0, 0.2);
        w.push(50.0, 0.8);
        assert!(close(w.mean(), 46.0, 1e-12));
        let var = 0.2 * (30.0f64 - 46.0).powi(2) + 0.8 * (50.0f64 - 46.0).powi(2);
        assert!(close(w.variance(), var, 1e-12));
    }

    #[test]
    fn weighted_stats_zero_weight_is_noop() {
        let mut w = WeightedStats::new();
        w.push(123.0, 0.0);
        assert_eq!(w.weight, 0.0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn weighted_stats_merge() {
        let mut a = WeightedStats::new();
        a.push(1.0, 0.5);
        a.push(3.0, 0.25);
        let mut b = WeightedStats::new();
        b.push(10.0, 0.25);
        let mut merged = a;
        merged.merge(&b);
        let mut direct = WeightedStats::new();
        direct.push(1.0, 0.5);
        direct.push(3.0, 0.25);
        direct.push(10.0, 0.25);
        assert!(close(merged.mean(), direct.mean(), 1e-12));
        assert!(close(merged.variance(), direct.variance(), 1e-12));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 4.0);
        assert!(close(percentile_sorted(&v, 0.5), 2.5, 1e-12));
        assert!(close(percentile_sorted(&v, 1.0 / 3.0), 2.0, 1e-12));
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile_sorted(&[], 0.5);
    }
}
