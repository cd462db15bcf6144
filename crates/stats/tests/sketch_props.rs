//! Property suite pinning the distinct-count sketch's accuracy contract:
//! duplicates never move a sketch, the sketch is a pure function of the
//! distinct hashed values, and at the default precision (p = 14, ~0.8%
//! standard error) the estimate stays within 5% relative error across
//! cardinalities from 1 to 10^6 — including the linear-counting /
//! raw-estimate crossover region where HLL implementations classically
//! go wrong.

use proptest::prelude::*;
use rqo_stats::sketch::{value_hash, DEFAULT_PRECISION};
use rqo_stats::DistinctSketch;
use rqo_storage::Value;

/// Deterministic value stream: `Int`s drawn from a keyed mix, with
/// repeats.
fn stream(key: u64, len: usize) -> Vec<Value> {
    (0..len as u64)
        .map(|i| {
            // splitmix-style scramble, offset by the stream key so two
            // streams share roughly half their values.
            let v = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % (len as u64 + 1);
            Value::Int((v + key * (i % 2)) as i64)
        })
        .collect()
}

fn sketch_of(values: &[Value]) -> DistinctSketch {
    let mut s = DistinctSketch::new();
    for v in values {
        s.insert(v);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duplicates never change a sketch: re-inserting any suffix of the
    /// stream leaves the registers untouched.
    #[test]
    fn duplicates_are_free(k in 0u64..32, n in 1usize..500, again in 0usize..500) {
        let values = stream(k, n);
        let mut s = sketch_of(&values);
        let reference = s.clone();
        for v in &values[values.len() - again.min(n)..] {
            s.insert(v);
        }
        prop_assert_eq!(s, reference);
    }

    /// The estimate equals the estimate of the hash-set of the input:
    /// the sketch is a pure function of the distinct hashed values.
    #[test]
    fn estimate_is_a_function_of_the_distinct_set(k in 0u64..32, n in 0usize..500) {
        let values = stream(k, n);
        let mut dedup: Vec<u64> = values.iter().map(value_hash).collect();
        dedup.sort_unstable();
        dedup.dedup();
        let mut from_hashes = DistinctSketch::new();
        for h in dedup {
            from_hashes.insert_hash(h);
        }
        prop_assert_eq!(sketch_of(&values), from_hashes);
    }
}

/// The acceptance bound: ≤5% relative error from 1 distinct value to
/// 10^6, in a deterministic sweep crossing the linear-counting /
/// raw-HLL switchover (~2.5·2^14 ≈ 41k) from both sides, and on
/// Zipf(1)-skewed streams from 10^3 to 10^6 distinct values.
#[test]
fn estimates_within_five_percent_from_one_to_one_million() {
    assert_eq!(DEFAULT_PRECISION, 14, "sweep bound calibrated for p=14");
    let check = |s: &DistinctSketch, n: u64, stream: &str| {
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(
            rel <= 0.05,
            "{stream} cardinality {n}: estimate {est:.1}, relative error {:.2}% > 5%",
            rel * 100.0
        );
    };
    for &n in &[
        1u64, 2, 5, 10, 50, 100, 1_000, 10_000, 30_000, 41_000, 50_000, 100_000, 300_000, 1_000_000,
    ] {
        let mut s = DistinctSketch::new();
        for i in 0..n as i64 {
            s.insert(&Value::Int(i));
        }
        // A second pass of duplicates must not move the estimate.
        for i in 0..(n as i64).min(1_000) {
            s.insert(&Value::Int(i));
        }
        check(&s, n, "sequential");
    }
    // The value of rank r arrives 1 + n/(4r) times (4.1 M rows at 10^6),
    // scrambled by splitmix64 so adjacent ranks do not hash adjacently.
    for &n in &[1_000u64, 10_000, 100_000, 1_000_000] {
        let mut s = DistinctSketch::new();
        for rank in 1..=n {
            let mut x = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let value = Value::Int((x ^ (x >> 31)) as i64);
            for _ in 0..=n / (4 * rank) {
                s.insert(&value);
            }
        }
        check(&s, n, "zipf");
    }
}
