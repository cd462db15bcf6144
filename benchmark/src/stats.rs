//! Order statistics for latency samples.

/// Percentiles a latency report may quote, ascending.
pub const TAIL_CANDIDATES: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// A percentile is quoted only when at least this many samples lie
/// beyond it; fewer, and the figure is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// 0-based nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=1.0).contains(&p));
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Samples strictly above the rank of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest candidate percentile with [`MIN_BEYOND`] samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the two middle samples averaged; 0 for an empty sample so
/// a layer a workload never reaches reports nothing rather than aborting.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Quartiles by the method Python's `statistics.quantiles(values, n=4)`
/// uses by default (exclusive), which is what the acceptance check of
/// the benchmark contract computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |k: usize| {
        // 1-based position k*(n+1)/4; the lower neighbour is clamped to
        // the sample and the remainder is not, so tiny samples
        // extrapolate exactly as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        let s: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 4.0);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn the_ten_beyond_rule_picks_the_tail_the_sample_supports() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(199), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
    }
}
