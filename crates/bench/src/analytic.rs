//! The paper's §5 analytical model.
//!
//! A single-table query runs against `N` rows; each candidate plan has
//! linear cost `fᵢ + vᵢ·x` in the number of qualifying rows `x = p·N`.
//! Selectivity is estimated from an `n`-tuple sample at confidence
//! threshold `T`: when `k` tuples match, the estimate is the
//! `Beta(k+½, n−k+½)` quantile at `T`.  Because `k ~ Binomial(n, p)`, the
//! execution time at true selectivity `p` is a discrete mixture over `k`,
//! which this module evaluates exactly (no simulation noise) — the same
//! computation behind the paper's Figures 5–8.

use rqo_core::{ConfidenceThreshold, Prior, SelectivityPosterior};
use rqo_math::{Binomial, WeightedStats};

/// A plan with cost linear in the number of qualifying rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPlan {
    /// Fixed cost in seconds (`fᵢ`).
    pub fixed_s: f64,
    /// Incremental cost per qualifying row in seconds (`vᵢ`).
    pub per_row_s: f64,
    /// Display name.
    pub name: &'static str,
}

impl LinearPlan {
    /// Cost in seconds at selectivity `p` over `n_rows` rows.
    pub fn cost(&self, p: f64, n_rows: f64) -> f64 {
        self.fixed_s + self.per_row_s * p * n_rows
    }
}

/// The analytical model: a table size and a set of candidate plans.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    /// Table cardinality (`N`).
    pub n_rows: f64,
    /// Candidate plans.
    pub plans: Vec<LinearPlan>,
}

impl AnalyticModel {
    /// The paper's §5.1 instantiation: `N = 6,000,000`,
    /// `P₁ = (f=35, v=3.5×10⁻⁶)` (sequential scan),
    /// `P₂ = (f=5, v=3.5×10⁻³)` (index intersection); crossover at
    /// `p_c ≈ 0.14%`.
    pub fn paper_default() -> Self {
        Self {
            n_rows: 6_000_000.0,
            plans: vec![
                LinearPlan {
                    fixed_s: 35.0,
                    per_row_s: 3.5e-6,
                    name: "P1-seqscan",
                },
                LinearPlan {
                    fixed_s: 5.0,
                    per_row_s: 3.5e-3,
                    name: "P2-ixsect",
                },
            ],
        }
    }

    /// The §5.2.3 perturbation: crossover moved to `p'_c ≈ 5.2%` by
    /// flattening the risky plan's slope.
    pub fn high_crossover() -> Self {
        // p_c = (f1 - f2) / ((v2 - v1) N) = 30 / ((v2 - 3.5e-6)·6e6) = 5.2%
        // ⇒ v2 ≈ 9.96e-5.
        Self {
            n_rows: 6_000_000.0,
            plans: vec![
                LinearPlan {
                    fixed_s: 35.0,
                    per_row_s: 3.5e-6,
                    name: "P1-seqscan",
                },
                LinearPlan {
                    fixed_s: 5.0,
                    per_row_s: 9.96e-5,
                    name: "P2-ixsect",
                },
            ],
        }
    }

    /// The selectivity where two plans' costs cross (for two-plan models).
    ///
    /// # Panics
    ///
    /// Panics unless the model has exactly two plans with distinct slopes.
    pub fn crossover(&self) -> f64 {
        assert_eq!(self.plans.len(), 2, "crossover is defined for two plans");
        let (a, b) = (&self.plans[0], &self.plans[1]);
        assert!(a.per_row_s != b.per_row_s, "parallel cost lines");
        (a.fixed_s - b.fixed_s) / ((b.per_row_s - a.per_row_s) * self.n_rows)
    }

    /// The index of the cheapest plan at an (estimated) selectivity.
    pub fn choose(&self, estimated_p: f64) -> usize {
        let mut best = 0;
        for (i, plan) in self.plans.iter().enumerate() {
            if plan.cost(estimated_p, self.n_rows) < self.plans[best].cost(estimated_p, self.n_rows)
            {
                best = i;
            }
        }
        best
    }

    /// The selectivity estimate produced when `k` of `n` sample tuples
    /// match, at threshold `t` under `prior`.
    pub fn estimate(&self, k: u64, n: u64, t: ConfidenceThreshold, prior: Prior) -> f64 {
        SelectivityPosterior::from_observation(k as usize, n as usize, prior).at_threshold(t)
    }

    /// Exact mean and standard deviation of execution time at true
    /// selectivity `p`, over the binomial randomness of an `n`-tuple
    /// sample interpreted at threshold `t` (Figures 5, 7, 8 plot the
    /// mean).
    pub fn execution_stats(
        &self,
        p: f64,
        sample_size: u64,
        t: ConfidenceThreshold,
        prior: Prior,
    ) -> WeightedStats {
        let binom = Binomial::new(sample_size, p);
        let mut stats = WeightedStats::new();
        for (k, w) in binom.support_iter(1e-12) {
            let est = self.estimate(k, sample_size, t, prior);
            let plan = self.choose(est);
            stats.push(self.plans[plan].cost(p, self.n_rows), w);
        }
        stats
    }

    /// Probability that each plan is chosen at true selectivity `p`
    /// (diagnostic used in tests and the §6.2.4 "self-adjusting" check).
    pub fn plan_probabilities(
        &self,
        p: f64,
        sample_size: u64,
        t: ConfidenceThreshold,
        prior: Prior,
    ) -> Vec<f64> {
        let binom = Binomial::new(sample_size, p);
        let mut probs = vec![0.0; self.plans.len()];
        for (k, w) in binom.support_iter(1e-12) {
            let est = self.estimate(k, sample_size, t, prior);
            probs[self.choose(est)] += w;
        }
        probs
    }

    /// Mean and standard deviation of execution time across a *workload*
    /// of queries whose true selectivities are the given grid, each
    /// equally likely (the aggregation behind Figure 6's tradeoff points).
    pub fn workload_stats(
        &self,
        selectivities: &[f64],
        sample_size: u64,
        t: ConfidenceThreshold,
        prior: Prior,
    ) -> WeightedStats {
        let mut total = WeightedStats::new();
        let w = 1.0 / selectivities.len() as f64;
        for &p in selectivities {
            let binom = Binomial::new(sample_size, p);
            for (k, pk) in binom.support_iter(1e-12) {
                let est = self.estimate(k, sample_size, t, prior);
                let plan = self.choose(est);
                total.push(self.plans[plan].cost(p, self.n_rows), w * pk);
            }
        }
        total
    }
}

/// The paper's Figure 5/6 selectivity grid: 0% to 1% in 0.05% steps.
pub fn paper_selectivity_grid() -> Vec<f64> {
    (0..=20).map(|i| i as f64 * 0.0005).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> ConfidenceThreshold {
        ConfidenceThreshold::new(x)
    }

    #[test]
    fn paper_crossover_value() {
        let m = AnalyticModel::paper_default();
        let c = m.crossover();
        assert!((c - 0.00143).abs() < 0.0001, "crossover {c}");
        let hc = AnalyticModel::high_crossover();
        assert!((hc.crossover() - 0.052).abs() < 0.002, "{}", hc.crossover());
    }

    #[test]
    fn plan_choice_around_crossover() {
        let m = AnalyticModel::paper_default();
        let c = m.crossover();
        assert_eq!(m.choose(c * 0.5), 1, "below crossover: risky plan");
        assert_eq!(m.choose(c * 2.0), 0, "above crossover: stable plan");
    }

    #[test]
    fn t95_never_gambles() {
        // §5.2.1: at T = 95% with n = 1000, even k = 0 gives an estimate
        // above the crossover, so the risky plan is never chosen.
        let m = AnalyticModel::paper_default();
        let probs = m.plan_probabilities(0.0005, 1000, t(0.95), Prior::Jeffreys);
        assert!(probs[1] < 1e-9, "risky plan probability {}", probs[1]);
        // Sanity: at T = 50% the risky plan IS chosen for tiny p.
        let probs50 = m.plan_probabilities(0.0001, 1000, t(0.5), Prior::Jeffreys);
        assert!(probs50[1] > 0.9, "risky plan probability {}", probs50[1]);
    }

    #[test]
    fn small_sample_self_adjusts() {
        // §6.2.4: a 50-tuple sample at T = 50% can never justify the risky
        // plan for the paper's low crossover.
        let m = AnalyticModel::paper_default();
        let est_k0 = m.estimate(0, 50, t(0.5), Prior::Jeffreys);
        assert!(
            est_k0 > m.crossover(),
            "k=0 estimate {est_k0} should exceed crossover {}",
            m.crossover()
        );
        let probs = m.plan_probabilities(0.001, 50, t(0.5), Prior::Jeffreys);
        assert!(probs[1] < 1e-9);
    }

    #[test]
    fn mean_time_bounded_by_plan_envelope() {
        let m = AnalyticModel::paper_default();
        for &p in &[0.0005, 0.0014, 0.005] {
            let stats = m.execution_stats(p, 1000, t(0.8), Prior::Jeffreys);
            let best = m.plans[m.choose(p)].cost(p, m.n_rows);
            let worst = m
                .plans
                .iter()
                .map(|pl| pl.cost(p, m.n_rows))
                .fold(f64::MIN, f64::max);
            assert!(stats.mean() >= best - 1e-9, "p={p}");
            assert!(stats.mean() <= worst + 1e-9, "p={p}");
        }
    }

    #[test]
    fn variance_decreases_with_threshold() {
        // Figure 6's monotone frontier: higher T ⇒ lower workload std dev.
        let m = AnalyticModel::paper_default();
        let grid = paper_selectivity_grid();
        let mut prev_std = f64::INFINITY;
        for pct in [0.05, 0.2, 0.5, 0.8, 0.95] {
            let s = m.workload_stats(&grid, 1000, t(pct), Prior::Jeffreys);
            assert!(
                s.std_dev() <= prev_std + 1e-9,
                "std dev not monotone at T={pct}: {} > {prev_std}",
                s.std_dev()
            );
            prev_std = s.std_dev();
        }
    }

    #[test]
    fn moderate_thresholds_best_mean() {
        // Figure 6's second observation: moderate thresholds beat the
        // extremes on mean execution time.
        let m = AnalyticModel::paper_default();
        let grid = paper_selectivity_grid();
        let mean = |pct: f64| {
            m.workload_stats(&grid, 1000, t(pct), Prior::Jeffreys)
                .mean()
        };
        let m05 = mean(0.05);
        let m50 = mean(0.5);
        let m80 = mean(0.8);
        let m95 = mean(0.95);
        assert!(m80 < m05, "T=80 ({m80}) should beat T=5 ({m05})");
        assert!(m80 < m95, "T=80 ({m80}) should beat T=95 ({m95})");
        assert!(
            m80 <= m50 + 0.5,
            "T=80 ({m80}) roughly at least as good as T=50 ({m50})"
        );
    }

    #[test]
    fn larger_samples_reduce_mean_time_below_crossover() {
        // Figure 7: at T = 50%, larger samples give lower expected time in
        // the low-selectivity region (small samples cannot justify the
        // cheap risky plan there), and the gain flattens past ~500 tuples
        // — the knee the paper uses to pick its 500-tuple default.
        let m = AnalyticModel::paper_default();
        let p = 0.0005; // below the 0.14% crossover
        let mean = |n: u64| m.execution_stats(p, n, t(0.5), Prior::Jeffreys).mean();
        let m100 = mean(100);
        let m500 = mean(500);
        let m6000 = mean(6000);
        assert!(m100 > m500, "{m100} vs {m500}");
        assert!(m500 >= m6000 - 1e-9, "{m500} vs {m6000}");
        // Knee: the 100→500 gain dwarfs the 500→6000 gain.
        assert!((m100 - m500) > 3.0 * (m500 - m6000), "knee missing");
        // A 100-tuple sample at T=50% cannot justify the risky plan even
        // when zero sample tuples match (the same §6.2.4 self-adjustment
        // that makes the 50-tuple point in Figure 12 an outlier).
        assert!(m.estimate(0, 100, t(0.5), Prior::Jeffreys) > m.crossover());
    }

    #[test]
    fn lec_matches_posterior_mean_for_linear_costs() {
        // The least-expected-cost policy the paper contrasts with (§4;
        // Chu, Halpern & Gehrke) picks the plan of least expected cost
        // under the posterior.  Linear costs make that the plan at the
        // posterior mean, since E[fᵢ + vᵢ·s·N] = fᵢ + vᵢ·E[s]·N; and
        // unlike the percentile rule, LEC has no way to reach the
        // variance the conservative threshold achieves.
        let m = AnalyticModel::paper_default();
        let grid = paper_selectivity_grid();
        let mut lec = WeightedStats::new();
        let mut t95 = WeightedStats::new();
        let w = 1.0 / grid.len() as f64;
        for &p in &grid {
            let mut a = WeightedStats::new();
            for (k, wk) in Binomial::new(1000, p).support_iter(1e-12) {
                let posterior =
                    SelectivityPosterior::from_observation(k as usize, 1000, Prior::Jeffreys);
                let plan = m.choose(posterior.mean());
                a.push(m.plans[plan].cost(p, m.n_rows), wk);
            }
            let b = m.execution_stats(p, 1000, t(0.95), Prior::Jeffreys);
            lec.push(a.mean(), w);
            t95.push(b.mean(), w);
        }
        // LEC's per-selectivity means vary (it gambles); T=95's do not.
        assert!(
            lec.std_dev() > 5.0 * t95.std_dev(),
            "{} vs {}",
            lec.std_dev(),
            t95.std_dev()
        );
    }

    #[test]
    fn high_crossover_insensitive_to_threshold() {
        // Figure 8: with the crossover at 5.2%, thresholds barely matter.
        let m = AnalyticModel::high_crossover();
        let grid: Vec<f64> = (0..=20).map(|i| i as f64 * 0.01).collect(); // 0..20%
        let means: Vec<f64> = [0.05, 0.5, 0.95]
            .iter()
            .map(|&pct| {
                m.workload_stats(&grid, 1000, t(pct), Prior::Jeffreys)
                    .mean()
            })
            .collect();
        let spread = means.iter().fold(f64::MIN, |a, &b| a.max(b))
            - means.iter().fold(f64::MAX, |a, &b| a.min(b));
        let base = means[1];
        assert!(
            spread / base < 0.05,
            "threshold spread {spread} too large relative to {base}"
        );
    }
}
