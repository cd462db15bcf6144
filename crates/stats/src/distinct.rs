//! Sample-based distinct-value estimation (paper §3.5, "Incorporating
//! other operators").
//!
//! The result size of `GROUP BY` depends on the number of distinct
//! grouping-key combinations, which the paper proposes to estimate from the
//! precomputed sample by adapting known estimators (citing Haas, Naughton,
//! Seshadri & Stokes, VLDB 1995 — via Charikar et al.'s later GEE
//! formulation).  This module provides **GEE** (Guaranteed-Error
//! Estimator): `√(N/n)·f₁ + Σ_{j≥2} fⱼ`, where `fⱼ` is the number of
//! values seen exactly `j` times in the sample.  Values seen once get
//! scaled up — they are evidence of a large unseen population — while
//! repeated values are counted as-is.
//!
//! It expects a *without-replacement* sample (duplicated sample rows would
//! inflate the `fⱼ` for `j ≥ 2`).  A sample value is anything hashable: a
//! single column's [`Value`](rqo_storage::Value) or a composite key's
//! whole typed tuple.

use std::collections::HashMap;
use std::hash::Hash;

/// Frequency-of-frequencies profile of a sample.
fn frequency_profile<T: Hash + Eq>(sample: &[T]) -> (usize, HashMap<u64, u64>) {
    let mut counts: HashMap<&T, u64> = HashMap::new();
    for v in sample {
        *counts.entry(v).or_insert(0) += 1;
    }
    let d = counts.len();
    let mut fof: HashMap<u64, u64> = HashMap::new();
    for (_, c) in counts {
        *fof.entry(c).or_insert(0) += 1;
    }
    (d, fof)
}

/// The GEE distinct-value estimate for a size-`n` sample from a
/// population of `population_size` rows.
///
/// Returns 0 only for an empty *population*.  An empty sample from a
/// non-empty population floors at 1: any non-empty table has at least one
/// group, and a 0 estimate poisons downstream division (a grouped
/// aggregate priced over 0 groups costs nothing, so every plan above it
/// ties at zero).  The estimate is clamped to `[d, population_size]` where
/// `d` is the number of distinct values seen, since the truth can be
/// neither smaller than what was observed nor larger than the population.
pub fn gee_estimate<T: Hash + Eq>(sample: &[T], population_size: u64) -> f64 {
    if population_size == 0 {
        return 0.0;
    }
    if sample.is_empty() {
        return 1.0;
    }
    let n = sample.len() as f64;
    let (d, fof) = frequency_profile(sample);
    let f1 = *fof.get(&1).unwrap_or(&0) as f64;
    let repeated: f64 = fof
        .iter()
        .filter(|(&j, _)| j >= 2)
        .map(|(_, &c)| c as f64)
        .sum();
    let est = (population_size as f64 / n).sqrt() * f1 + repeated;
    est.clamp(d as f64, population_size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rqo_storage::Value;

    fn sample_of(values: &[i64]) -> Vec<Value> {
        values.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn empty_population_estimates_zero() {
        assert_eq!(gee_estimate::<Value>(&[], 0), 0.0);
        assert_eq!(gee_estimate(&sample_of(&[1]), 0), 0.0);
    }

    /// Regression: an empty sample drawn from a *non-empty* table used to
    /// estimate 0.0 distinct values, which made every grouped-aggregate
    /// plan above it price at zero groups.  A non-empty population has at
    /// least one group, so the estimator must floor at 1.
    #[test]
    fn empty_sample_from_nonempty_population_floors_at_one() {
        assert_eq!(gee_estimate::<Value>(&[], 100), 1.0);
        assert_eq!(gee_estimate::<Value>(&[], 1), 1.0);
    }

    #[test]
    fn all_identical_sample() {
        // One distinct value seen n times: GEE says 1.
        let s = sample_of(&[5; 50]);
        assert_eq!(gee_estimate(&s, 10_000), 1.0);
    }

    #[test]
    fn all_singletons_scales_up() {
        // 100 distinct singletons from N = 10000: GEE = sqrt(10000/100)*100
        // = 1000.
        let s = sample_of(&(0..100).collect::<Vec<i64>>());
        let gee = gee_estimate(&s, 10_000);
        assert!((gee - 1000.0).abs() < 1e-9, "gee = {gee}");
    }

    #[test]
    fn estimates_clamped_to_population() {
        let s = sample_of(&(0..100).collect::<Vec<i64>>());
        assert!(gee_estimate(&s, 150) <= 150.0);
        // ...and to the observed distinct count from below.
        let s2 = sample_of(&[1, 1, 2, 2, 3, 3]);
        assert!(gee_estimate(&s2, 1000) >= 3.0);
    }

    #[test]
    fn gee_accuracy_on_uniform_domain() {
        // Population: N rows over D equally frequent values.  A
        // without-replacement sample is simulated by sampling row indices.
        let n_rows = 100_000u64;
        let d_true = 500i64;
        let mut rng = StdRng::seed_from_u64(8);
        let mut estimates = Vec::new();
        for _ in 0..20 {
            // 5000 draws over 500 values: each value is seen ~10 times, so
            // essentially no singletons remain and GEE ≈ D.
            let sample: Vec<Value> = (0..5000)
                .map(|_| {
                    let row: u64 = rng.gen_range(0..n_rows);
                    Value::Int((row % d_true as u64) as i64)
                })
                .collect();
            estimates.push(gee_estimate(&sample, n_rows));
        }
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!(
            (mean - d_true as f64).abs() / (d_true as f64) < 0.05,
            "mean GEE = {mean}"
        );
    }
}
