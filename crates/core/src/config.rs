//! Estimator configuration: system-wide defaults plus per-query hints.
//!
//! The paper envisions the robustness knob being set two ways (§6.2.5): a
//! system configuration parameter (conservative/moderate/aggressive) used
//! by default for all queries, overridable per query through a *query
//! hint* embedded in the statement.  [`EstimatorConfig`] is the system
//! setting; the optimizer applies hints by calling
//! [`EstimatorConfig::with_threshold`] for the hinted query.

use crate::confidence::{ConfidenceThreshold, RobustnessLevel};
use crate::magic::MagicPolicy;
use crate::prior::Prior;

/// How the posterior is collapsed to a single selectivity — the knob for
/// the ablation against the least-expected-cost literature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimationStrategy {
    /// The paper's rule: the posterior quantile at the confidence
    /// threshold.
    Percentile(ConfidenceThreshold),
    /// The posterior mean — what a least-expected-cost optimizer would use
    /// when cost is linear in selectivity ([6, 7, 10] in the paper).
    PosteriorMean,
    /// The classical maximum-likelihood point estimate `k/n` (plain
    /// sampling with no Bayesian treatment).
    MaximumLikelihood,
}

impl EstimationStrategy {
    /// The effective confidence threshold: percentile strategies report
    /// their own; the others behave like a median-ish point estimator and
    /// use `T = 50%` where a threshold is needed (e.g. magic fallbacks).
    pub fn threshold(&self) -> ConfidenceThreshold {
        match self {
            EstimationStrategy::Percentile(t) => *t,
            _ => ConfidenceThreshold::new(0.5),
        }
    }
}

/// System-wide estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Collapse strategy (default: percentile at `T = 80%`).
    pub strategy: EstimationStrategy,
    /// Prior over selectivity (default: Jeffreys).
    pub prior: Prior,
    /// Fallback when no statistics cover a predicate.
    pub magic: MagicPolicy,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            strategy: EstimationStrategy::Percentile(RobustnessLevel::Moderate.threshold()),
            prior: Prior::Jeffreys,
            magic: MagicPolicy::default(),
        }
    }
}

impl EstimatorConfig {
    /// A config using the percentile rule at the given threshold.
    pub fn with_threshold(threshold: ConfidenceThreshold) -> Self {
        Self {
            strategy: EstimationStrategy::Percentile(threshold),
            ..Self::default()
        }
    }

    /// This config with a per-query threshold hint applied.
    pub fn hinted(mut self, threshold: ConfidenceThreshold) -> Self {
        self.strategy = EstimationStrategy::Percentile(threshold);
        self
    }

    /// The effective threshold.
    pub fn threshold(&self) -> ConfidenceThreshold {
        self.strategy.threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendation() {
        let c = EstimatorConfig::default();
        assert_eq!(c.threshold().percent(), 80.0);
        assert_eq!(c.prior, Prior::Jeffreys);
    }

    #[test]
    fn presets_and_hints() {
        let c = EstimatorConfig::with_threshold(RobustnessLevel::Conservative.threshold());
        assert_eq!(c.threshold().percent(), 95.0);
        let hinted = c.hinted(ConfidenceThreshold::new(0.5));
        assert_eq!(hinted.threshold().percent(), 50.0);
        // Original untouched (copy semantics).
        assert_eq!(c.threshold().percent(), 95.0);
    }

    #[test]
    fn strategy_thresholds() {
        assert_eq!(
            EstimationStrategy::PosteriorMean.threshold().percent(),
            50.0
        );
        assert_eq!(
            EstimationStrategy::MaximumLikelihood.threshold().percent(),
            50.0
        );
        assert_eq!(
            EstimationStrategy::Percentile(ConfidenceThreshold::new(0.95))
                .threshold()
                .percent(),
            95.0
        );
    }
}
