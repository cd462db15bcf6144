//! Uniform random row samplers.
//!
//! The paper's Bayesian derivation (§3.3) assumes tuples drawn uniformly
//! *with replacement*, making the per-tuple indicator variables i.i.d.
//! Bernoulli and the posterior an exact Beta distribution; that is the
//! sampler the robust estimator uses.  A without-replacement (reservoir)
//! sampler is also provided for consumers that need distinct rows (e.g.
//! distinct-value estimation), where with-replacement duplicates would
//! bias frequency statistics.

use rand::Rng;
use rqo_storage::{Rid, Table};

/// Draws `n` row ids uniformly at random **with replacement**.
///
/// Returns an empty vector for an empty table (there is nothing to
/// observe; the caller falls back to its no-statistics path).
pub fn sample_with_replacement<R: Rng + ?Sized>(table: &Table, n: usize, rng: &mut R) -> Vec<Rid> {
    if table.num_rows() == 0 {
        return Vec::new();
    }
    (0..n)
        .map(|_| rng.gen_range(0..table.num_rows() as Rid))
        .collect()
}

/// Draws `min(n, rows)` distinct row ids uniformly at random **without
/// replacement** using reservoir sampling (Vitter's Algorithm R).
///
/// The result is in reservoir order (not sorted); callers that need
/// position-independent output should sort.
pub fn sample_without_replacement<R: Rng + ?Sized>(
    table: &Table,
    n: usize,
    rng: &mut R,
) -> Vec<Rid> {
    let rows = table.num_rows();
    let mut reservoir: Vec<Rid> = (0..rows.min(n) as Rid).collect();
    for rid in n..rows {
        let j = rng.gen_range(0..=rid);
        if j < n {
            reservoir[j] = rid as Rid;
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rqo_storage::{DataType, Schema, TableBuilder, Value};

    fn table(rows: usize) -> Table {
        let mut b = TableBuilder::new("t", Schema::from_pairs(&[("x", DataType::Int)]), rows);
        for i in 0..rows {
            b.push_row(&[Value::Int(i as i64)]);
        }
        b.finish()
    }

    #[test]
    fn with_replacement_size_and_range() {
        let t = table(100);
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_with_replacement(&t, 500, &mut rng);
        assert_eq!(s.len(), 500);
        assert!(s.iter().all(|&r| (r as usize) < 100));
        // With replacement over 100 rows, 500 draws must repeat.
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() < 500);
    }

    #[test]
    fn with_replacement_is_roughly_uniform() {
        let t = table(10);
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_with_replacement(&t, 100_000, &mut rng);
        let mut counts = [0usize; 10];
        for r in s {
            counts[r as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((8_000..12_000).contains(&c), "row {i} drawn {c} times");
        }
    }

    #[test]
    fn without_replacement_distinct_and_uniform() {
        let t = table(100);
        let mut rng = StdRng::seed_from_u64(3);
        let s = sample_without_replacement(&t, 30, &mut rng);
        assert_eq!(s.len(), 30);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 30);

        // Inclusion probability check: each row should appear in ~30% of
        // repeated samples.
        let mut hits = vec![0usize; 100];
        for _ in 0..2000 {
            for r in sample_without_replacement(&t, 30, &mut rng) {
                hits[r as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let p = h as f64 / 2000.0;
            assert!((0.24..0.36).contains(&p), "row {i}: inclusion {p}");
        }
    }

    #[test]
    fn sorted_sample_is_canonical_and_reproducible() {
        let t = table(200);
        let sorted = |n: usize, seed: u64| {
            let mut s = sample_without_replacement(&t, n, &mut StdRng::seed_from_u64(seed));
            s.sort_unstable();
            s
        };
        // Same seed → identical vector.
        let a = sorted(50, 7);
        assert_eq!(a, sorted(50, 7));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        // Full coverage (n ≥ rows) is exactly 0..rows for any seed.
        assert_eq!(sorted(200, 1), sorted(200, 99));
        assert_eq!(sorted(200, 1), (0..200).collect::<Vec<Rid>>());
        // The raw reservoir is NOT in rid order for partial samples —
        // evictions overwrite arbitrary slots — so a consumer whose output
        // depends on element order must sort first.
        let raw = sample_without_replacement(&t, 50, &mut StdRng::seed_from_u64(7));
        assert!(
            raw.windows(2).any(|w| w[0] > w[1]),
            "reservoir order should be scrambled for a partial sample"
        );
    }

    #[test]
    fn small_table_edge_cases() {
        let t = table(5);
        let mut rng = StdRng::seed_from_u64(4);
        // Requesting more than available without replacement returns all.
        let s = sample_without_replacement(&t, 10, &mut rng);
        assert_eq!(s.len(), 5);
        // With replacement happily oversamples.
        let s = sample_with_replacement(&t, 10, &mut rng);
        assert_eq!(s.len(), 10);
        // Empty table.
        let e = table(0);
        assert!(sample_with_replacement(&e, 10, &mut rng).is_empty());
        assert!(sample_without_replacement(&e, 10, &mut rng).is_empty());
    }
}
