//! The "magic" fallback for predicates with no statistics (paper §3.5).
//!
//! When neither a sample nor a histogram covers a predicate, classical
//! systems fall back to hard-wired constants (Selinger et al.'s "magic
//! numbers": 1/10 for equality, 1/3 for ranges).  The paper proposes a
//! refinement: a **magic distribution** — a Beta prior standing in for the
//! unknown selectivity — so that the fallback, too, responds to the
//! confidence threshold: a conservative optimizer assumes an unknown
//! predicate is *less* selective.  The robust estimator uses one such
//! distribution, Beta(1, 9): mean 1/10 (the classic equality magic
//! number) and enough spread that the threshold visibly matters.

use rqo_math::BetaDistribution;

use crate::confidence::ConfidenceThreshold;
use crate::posterior::SelectivityPosterior;

/// The magic distribution's shape parameters.
const ALPHA: f64 = 1.0;
const BETA: f64 = 9.0;

/// The fallback selectivity at a confidence threshold: the magic
/// distribution's quantile at `t`.
pub fn selectivity(t: ConfidenceThreshold) -> f64 {
    posterior().at_threshold(t)
}

/// The fallback as a posterior, for consumers that propagate
/// distributions.
pub fn posterior() -> SelectivityPosterior {
    SelectivityPosterior::from_distribution(BetaDistribution::new(ALPHA, BETA))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> ConfidenceThreshold {
        ConfidenceThreshold::new(x)
    }

    #[test]
    fn distribution_responds_to_threshold() {
        let lo = selectivity(t(0.2));
        let mid = selectivity(t(0.5));
        let hi = selectivity(t(0.95));
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        // Beta(1, 9) quantile at q is 1 - (1-q)^(1/9).
        let expect = |q: f64| 1.0 - (1.0 - q).powf(1.0 / 9.0);
        assert!((mid - expect(0.5)).abs() < 1e-9);
        assert!((hi - expect(0.95)).abs() < 1e-9);
    }

    #[test]
    fn posterior_forms() {
        let d = posterior();
        assert!((d.mean() - 0.1).abs() < 1e-9);
        assert!(d.std_dev() > 0.05, "should stay spread out");
    }
}
