//! The Bayesian selectivity posterior (paper §3.3, Equation 2).
//!
//! Sample tuples are drawn uniformly with replacement, so whether each
//! satisfies the predicate is an i.i.d. Bernoulli(p) observation of the
//! unknown selectivity `p`.  With a `Beta(a₀, b₀)` prior and `k` of `n`
//! tuples satisfying the predicate, Bayes's rule gives the posterior
//!
//! ```text
//! f(z | X) ∝ z^(k + a₀ − 1) (1 − z)^(n − k + b₀ − 1)  =  Beta(k + a₀, n − k + b₀)
//! ```
//!
//! Under the Jeffreys prior this is the paper's `Beta(k + ½, n − k + ½)`.
//!
//! An estimate at threshold `T` is therefore a function of `(k, n, prior,
//! T)` alone, and a synopsis of `n` tuples yields at most `n + 1` values
//! of `k`: [`SelectivityPosterior::at_threshold`] inverts each
//! `(α, β, T)` once per process and reads it back from a bounded table
//! afterwards, for every estimator that asks.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{LazyLock, PoisonError, RwLock};

use rqo_math::BetaDistribution;

use crate::confidence::ConfidenceThreshold;
use crate::key::PreHashed;
use crate::prior::Prior;

/// Most quantiles [`QUANTILES`] holds; a full table is emptied and
/// refilled.  One synopsis size and one threshold need at most `n + 1`.
const QUANTILE_CAPACITY: usize = 4096;

/// A quantile's identity: the exact bits of `α = k + a₀`, `β = n − k + b₀`
/// and `T` (which carry `k`, `n` and the prior), hashed once.
#[derive(PartialEq, Eq)]
struct QuantileKey([u64; 3]);

impl Hash for QuantileKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One multiply-xorshift round per word: the map's hasher passes
        // this through, so it must already be mixed.
        let mixed = self.0.iter().fold(0u64, |h, &w| {
            let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 29)
        });
        state.write_u64(mixed);
    }
}

/// Quantiles already inverted, shared by every estimator in the process.
/// The inversion is a pure function of its key, so a read-back is the
/// bit-identical value.
static QUANTILES: LazyLock<RwLock<HashMap<QuantileKey, f64, BuildHasherDefault<PreHashed>>>> =
    LazyLock::new(Default::default);

/// The posterior distribution over a predicate's selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityPosterior {
    dist: BetaDistribution,
    observed_k: usize,
    observed_n: usize,
}

impl SelectivityPosterior {
    /// Posterior after observing `k` of `n` sample tuples satisfying the
    /// predicate, under the given prior.
    ///
    /// # Panics
    ///
    /// Panics when `k > n`.
    pub fn from_observation(k: usize, n: usize, prior: Prior) -> Self {
        assert!(k <= n, "observed k={k} > n={n}");
        let (a0, b0) = prior.shape();
        Self {
            dist: BetaDistribution::new(k as f64 + a0, (n - k) as f64 + b0),
            observed_k: k,
            observed_n: n,
        }
    }

    /// A posterior that is exactly a given Beta distribution (the
    /// "magic distribution").
    pub(crate) fn from_distribution(dist: BetaDistribution) -> Self {
        Self {
            dist,
            observed_k: 0,
            observed_n: 0,
        }
    }

    /// The underlying Beta distribution.
    pub fn distribution(&self) -> &BetaDistribution {
        &self.dist
    }

    /// Posterior mean — the estimate a *least-expected-cost* policy would
    /// use for linear costs.
    pub fn mean(&self) -> f64 {
        self.dist.mean()
    }

    /// Posterior standard deviation — the estimation uncertainty, which
    /// shrinks as `1/√n`.
    pub fn std_dev(&self) -> f64 {
        self.dist.std_dev()
    }

    /// The maximum-likelihood point estimate `k/n` (what a classical
    /// sampling estimator would report).  `0` for an empty sample.
    pub fn mle(&self) -> f64 {
        if self.observed_n == 0 {
            0.0
        } else {
            self.observed_k as f64 / self.observed_n as f64
        }
    }

    /// `Pr[selectivity ≤ s]`.
    pub fn cdf(&self, s: f64) -> f64 {
        self.dist.cdf(s)
    }

    /// Probability density at `s`.
    pub fn pdf(&self, s: f64) -> f64 {
        self.dist.pdf(s)
    }

    /// The selectivity at a confidence threshold: the smallest `s` with
    /// `Pr[selectivity ≤ s] ≥ T` — the paper's `cdf⁻¹(T)` (§3.4, step 3).
    /// Each distinct `(α, β, T)` is inverted once (see the module docs).
    pub fn at_threshold(&self, t: ConfidenceThreshold) -> f64 {
        let key = QuantileKey([
            self.dist.alpha().to_bits(),
            self.dist.beta().to_bits(),
            t.value().to_bits(),
        ]);
        // Every write leaves the table valid, so poisoning is survivable.
        let known = QUANTILES
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(q) = known {
            return q;
        }
        let q = self.dist.quantile(t.value());
        let mut table = QUANTILES.write().unwrap_or_else(PoisonError::into_inner);
        if table.len() >= QUANTILE_CAPACITY {
            table.clear();
        }
        table.insert(key, q);
        q
    }

    /// An equal-tailed credible interval covering `mass` of the posterior.
    ///
    /// # Panics
    ///
    /// Panics when `mass ∉ (0, 1)`.
    pub fn credible_interval(&self, mass: f64) -> (f64, f64) {
        assert!(
            mass > 0.0 && mass < 1.0,
            "credible mass {mass} outside (0, 1)"
        );
        let tail = (1.0 - mass) / 2.0;
        (self.dist.quantile(tail), self.dist.quantile(1.0 - tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> ConfidenceThreshold {
        ConfidenceThreshold::new(x)
    }

    #[test]
    fn jeffreys_posterior_shapes() {
        let p = SelectivityPosterior::from_observation(10, 100, Prior::Jeffreys);
        assert!((p.distribution().alpha() - 10.5).abs() < 1e-12);
        assert!((p.distribution().beta() - 90.5).abs() < 1e-12);
        assert_eq!(p.mle(), 0.1);
    }

    #[test]
    fn paper_running_example() {
        // §3.4: k=10, n=100 under Jeffreys ⇒ estimates 7.8% / 10.1% / 12.8%
        // at thresholds 20% / 50% / 80%.
        let p = SelectivityPosterior::from_observation(10, 100, Prior::Jeffreys);
        assert!((p.at_threshold(t(0.20)) - 0.078).abs() < 0.002);
        assert!((p.at_threshold(t(0.50)) - 0.101).abs() < 0.002);
        assert!((p.at_threshold(t(0.80)) - 0.128).abs() < 0.002);
    }

    #[test]
    fn figure_2_inputs() {
        // §3.1.1: Figure 2 assumes 50 of 200 sampled tuples satisfy the
        // predicates; posterior mass should concentrate near 25%.
        let p = SelectivityPosterior::from_observation(50, 200, Prior::Jeffreys);
        assert!((p.mean() - 0.25).abs() < 0.01);
        let (lo, hi) = p.credible_interval(0.95);
        assert!(lo > 0.18 && hi < 0.32, "interval [{lo}, {hi}]");
    }

    #[test]
    fn prior_choice_barely_matters_at_scale() {
        // Figure 4's message: uniform vs Jeffreys is negligible even at
        // n = 100.
        let j = SelectivityPosterior::from_observation(10, 100, Prior::Jeffreys);
        let u = SelectivityPosterior::from_observation(10, 100, Prior::Uniform);
        for q in [0.05, 0.5, 0.95] {
            let dj = j.at_threshold(t(q));
            let du = u.at_threshold(t(q));
            assert!((dj - du).abs() < 0.01, "q={q}: {dj} vs {du}");
        }
    }

    #[test]
    fn sample_size_matters() {
        // Figure 4's other message: n=100,k=10 vs n=500,k=50 have the same
        // MLE but very different spreads.
        let small = SelectivityPosterior::from_observation(10, 100, Prior::Jeffreys);
        let large = SelectivityPosterior::from_observation(50, 500, Prior::Jeffreys);
        assert!((small.mle() - large.mle()).abs() < 1e-12);
        assert!(small.std_dev() > 2.0 * large.std_dev());
    }

    #[test]
    fn zero_and_full_observations() {
        // k = 0 still leaves probability on nonzero selectivities — the
        // "self-adjusting" behaviour of §6.2.4: a tiny sample can never be
        // 95% sure the selectivity is below a small crossover.
        let none = SelectivityPosterior::from_observation(0, 50, Prior::Jeffreys);
        assert_eq!(none.mle(), 0.0);
        assert!(none.at_threshold(t(0.95)) > 0.01);
        let all = SelectivityPosterior::from_observation(50, 50, Prior::Jeffreys);
        assert!(all.at_threshold(t(0.05)) < 0.99);
        assert!(all.mean() > 0.95);
    }

    #[test]
    fn threshold_monotonicity() {
        let p = SelectivityPosterior::from_observation(5, 500, Prior::Jeffreys);
        let mut prev = 0.0;
        for q in [0.05, 0.2, 0.5, 0.8, 0.95] {
            let s = p.at_threshold(t(q));
            assert!(s >= prev, "not monotone at {q}");
            prev = s;
        }
    }

    #[test]
    fn mean_between_prior_mean_and_mle() {
        // Posterior mean is a convex combination of prior mean and MLE.
        let prior = Prior::custom(2.0, 2.0); // mean 0.5
        let p = SelectivityPosterior::from_observation(10, 100, prior);
        let mle = 0.1;
        assert!(p.mean() > mle && p.mean() < 0.5, "mean {}", p.mean());
    }

    #[test]
    fn credible_interval_contains_mean() {
        let p = SelectivityPosterior::from_observation(30, 300, Prior::Jeffreys);
        let (lo, hi) = p.credible_interval(0.9);
        assert!(lo < p.mean() && p.mean() < hi);
        assert!((p.cdf(hi) - p.cdf(lo) - 0.9).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "k=5 > n=2")]
    fn rejects_k_above_n() {
        SelectivityPosterior::from_observation(5, 2, Prior::Jeffreys);
    }
}
