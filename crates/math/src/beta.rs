//! The Beta distribution.
//!
//! `Beta(α, β)` is the conjugate posterior for a Bernoulli/binomial sampling
//! process, which is exactly the situation in sampling-based selectivity
//! estimation: each sampled tuple independently satisfies the predicate with
//! probability `p` (the unknown selectivity).  Observing `k` successes out of
//! `n` trials under a `Beta(a₀, b₀)` prior gives the posterior
//! `Beta(a₀ + k, b₀ + n − k)`; the Jeffreys prior is `Beta(1/2, 1/2)` and the
//! uniform prior is `Beta(1, 1)` (paper §3.3).

use crate::special::{ln_beta, regularized_incomplete_beta};
use crate::QUANTILE_TOLERANCE;

/// A Beta distribution with shape parameters `alpha > 0` and `beta > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaDistribution {
    alpha: f64,
    beta: f64,
    /// Cached `ln B(alpha, beta)` — the pdf normalizer.
    ln_norm: f64,
}

impl BetaDistribution {
    /// Creates a `Beta(alpha, beta)` distribution.
    ///
    /// # Panics
    ///
    /// Panics if either shape parameter is non-positive or non-finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && beta > 0.0 && alpha.is_finite() && beta.is_finite(),
            "BetaDistribution: invalid shapes ({alpha}, {beta})"
        );
        Self {
            alpha,
            beta,
            ln_norm: ln_beta(alpha, beta),
        }
    }

    /// The first shape parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The second shape parameter `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The mean `α / (α + β)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// The variance `αβ / ((α+β)² (α+β+1))`.
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The mode, when it exists (`α > 1` and `β > 1`); boundary modes for the
    /// degenerate cases.
    pub fn mode(&self) -> f64 {
        if self.alpha > 1.0 && self.beta > 1.0 {
            (self.alpha - 1.0) / (self.alpha + self.beta - 2.0)
        } else if self.alpha <= 1.0 && self.beta > 1.0 {
            0.0
        } else if self.alpha > 1.0 && self.beta <= 1.0 {
            1.0
        } else {
            // Bimodal at both endpoints (α, β ≤ 1); return the mean as a
            // representative central value.
            self.mean()
        }
    }

    /// Probability density function at `x ∈ [0, 1]`.
    ///
    /// Returns `0.0` outside the support, and handles the boundary spikes of
    /// shapes below 1 by returning `f64::INFINITY` at the singular endpoint.
    pub fn pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        self.ln_pdf(x).exp()
    }

    /// Natural logarithm of the pdf at `x`.
    ///
    /// Returns `-inf` outside the support or at zero-density endpoints.
    fn ln_pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return f64::NEG_INFINITY;
        }
        // Handle endpoints explicitly to avoid 0 * ln(0) = NaN.
        if x == 0.0 {
            return match self.alpha.partial_cmp(&1.0).expect("finite") {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => -self.ln_norm,
                std::cmp::Ordering::Greater => f64::NEG_INFINITY,
            };
        }
        if x == 1.0 {
            return match self.beta.partial_cmp(&1.0).expect("finite") {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => -self.ln_norm,
                std::cmp::Ordering::Greater => f64::NEG_INFINITY,
            };
        }
        (self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln() - self.ln_norm
    }

    /// Cumulative distribution function `Pr[X ≤ x] = I_x(α, β)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        regularized_incomplete_beta(self.alpha, self.beta, x)
    }

    /// Quantile function (inverse CDF): the smallest `x` with
    /// `cdf(x) ≥ q`.
    ///
    /// This is the heart of the confidence-threshold mechanism: the robust
    /// selectivity estimate at threshold `T` is `quantile(T)` of the
    /// posterior.  Implemented as Newton's method on the CDF (whose
    /// derivative is the pdf) safeguarded by bisection, starting from a
    /// normal approximation to the Beta.
    ///
    /// # Panics
    ///
    /// Panics if `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile: q={q} outside [0,1]");
        if q == 0.0 {
            return 0.0;
        }
        if q == 1.0 {
            return 1.0;
        }

        // Initial guess: moment-matched normal approximation, clamped to the
        // open interval.
        let mut x =
            (self.mean() + self.std_dev() * normal_quantile_approx(q)).clamp(1e-12, 1.0 - 1e-12);

        // Bisection bracket, tightened as Newton progresses.
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for _ in 0..200 {
            let f = self.cdf(x) - q;
            if f > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            if f.abs() < QUANTILE_TOLERANCE || (hi - lo) < QUANTILE_TOLERANCE {
                break;
            }
            let d = self.pdf(x);
            let newton = if d > 0.0 && d.is_finite() {
                x - f / d
            } else {
                f64::NAN
            };
            x = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
        }
        x
    }

    /// Draws one sample using Jöhnk / Cheng-style gamma ratio:
    /// `X = G₁ / (G₁ + G₂)` with `G₁ ~ Gamma(α, 1)`, `G₂ ~ Gamma(β, 1)`.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let g1 = sample_gamma(self.alpha, rng);
        let g2 = sample_gamma(self.beta, rng);
        if g1 + g2 == 0.0 {
            // Numerically possible only for tiny shapes; fall back to mean.
            return self.mean();
        }
        g1 / (g1 + g2)
    }
}

/// Marsaglia–Tsang gamma sampler (shape `a`, scale 1); boosts shapes < 1.
fn sample_gamma<R: rand::Rng + ?Sized>(a: f64, rng: &mut R) -> f64 {
    if a < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(a + 1.0, rng) * u.powf(1.0 / a);
    }
    let d = a - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller (avoids a rand_distr dependency).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = 1.0 + c * z;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Acklam-style rational approximation to the standard normal quantile.
///
/// Only used to seed Newton's method, so ~1e-9 accuracy is more than enough.
fn normal_quantile_approx(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn moments_match_closed_forms() {
        let d = BetaDistribution::new(2.0, 6.0);
        assert!(close(d.mean(), 0.25, 1e-15));
        assert!(close(d.variance(), 2.0 * 6.0 / (64.0 * 9.0), 1e-15));
        assert!(close(d.mode(), 1.0 / 6.0, 1e-15));
    }

    #[test]
    fn mode_edge_cases() {
        assert_eq!(BetaDistribution::new(0.5, 2.0).mode(), 0.0);
        assert_eq!(BetaDistribution::new(2.0, 0.5).mode(), 1.0);
        assert!(close(BetaDistribution::new(0.5, 0.5).mode(), 0.5, 1e-15));
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Simple trapezoid integration for a few representative shapes.
        for &(a, b) in &[(2.0, 5.0), (10.5, 89.5), (1.0, 1.0), (3.0, 3.0)] {
            let d = BetaDistribution::new(a, b);
            let n = 20_000;
            let mut total = 0.0;
            for i in 0..n {
                let x0 = i as f64 / n as f64;
                let x1 = (i + 1) as f64 / n as f64;
                total += 0.5 * (d.pdf(x0) + d.pdf(x1)) / n as f64;
            }
            assert!(close(total, 1.0, 1e-3), "integral for ({a},{b}) = {total}");
        }
    }

    #[test]
    fn pdf_endpoint_behaviour() {
        let spike = BetaDistribution::new(0.5, 0.5);
        assert_eq!(spike.pdf(0.0), f64::INFINITY);
        assert_eq!(spike.pdf(1.0), f64::INFINITY);
        let smooth = BetaDistribution::new(2.0, 3.0);
        assert_eq!(smooth.pdf(0.0), 0.0);
        assert_eq!(smooth.pdf(1.0), 0.0);
        assert_eq!(smooth.pdf(-0.1), 0.0);
        assert_eq!(smooth.pdf(1.1), 0.0);
        let uniform = BetaDistribution::new(1.0, 1.0);
        assert!(close(uniform.pdf(0.0), 1.0, 1e-12));
        assert!(close(uniform.pdf(1.0), 1.0, 1e-12));
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let d = BetaDistribution::new(10.5, 89.5);
        let mut prev = 0.0;
        for i in 0..=1000 {
            let x = i as f64 / 1000.0;
            let c = d.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-14, "CDF decreased at x={x}");
            prev = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &(a, b) in &[
            (0.5, 0.5),
            (1.0, 1.0),
            (10.5, 89.5),
            (50.5, 450.5),
            (500.0, 2.0),
        ] {
            let d = BetaDistribution::new(a, b);
            for i in 1..20 {
                let q = i as f64 / 20.0;
                let x = d.quantile(q);
                assert!(
                    close(d.cdf(x), q, 1e-9),
                    "roundtrip failed ({a},{b}) q={q}: x={x} cdf={}",
                    d.cdf(x)
                );
            }
        }
    }

    #[test]
    fn quantile_endpoints() {
        let d = BetaDistribution::new(3.0, 4.0);
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), 1.0);
    }

    #[test]
    fn median_of_symmetric_beta_is_half() {
        for &a in &[0.5, 1.0, 5.0, 250.5] {
            let d = BetaDistribution::new(a, a);
            assert!(close(d.quantile(0.5), 0.5, 1e-9));
        }
    }

    #[test]
    fn paper_section_3_4_example() {
        // "Suppose that 10 tuples from a 100-tuple sample satisfy the query
        // predicate" — posterior is Beta(10.5, 90.5); the paper reports
        // selectivity estimates of 7.8%, 10.1%, and 12.8% at confidence
        // thresholds 20%, 50%, and 80%.
        let d = BetaDistribution::new(10.5, 90.5);
        assert!(
            close(d.quantile(0.20), 0.078, 0.002),
            "{}",
            d.quantile(0.20)
        );
        assert!(
            close(d.quantile(0.50), 0.101, 0.002),
            "{}",
            d.quantile(0.50)
        );
        assert!(
            close(d.quantile(0.80), 0.128, 0.002),
            "{}",
            d.quantile(0.80)
        );
    }

    #[test]
    fn sampling_matches_moments() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for &(a, b) in &[(0.5, 0.5), (2.0, 8.0), (20.0, 5.0)] {
            let d = BetaDistribution::new(a, b);
            let n = 50_000;
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for _ in 0..n {
                let x = d.sample(&mut rng);
                assert!((0.0..=1.0).contains(&x));
                sum += x;
                sum_sq += x * x;
            }
            let mean = sum / n as f64;
            let var = sum_sq / n as f64 - mean * mean;
            assert!(close(mean, d.mean(), 0.01), "mean ({a},{b}): {mean}");
            assert!(close(var, d.variance(), 0.005), "var ({a},{b}): {var}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid shapes")]
    fn rejects_bad_shapes() {
        BetaDistribution::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_bad_probability() {
        BetaDistribution::new(1.0, 1.0).quantile(1.5);
    }
}
