//! Property suite pinning the distinct-count sketch's algebra and its
//! accuracy contract.
//!
//! The algebra is what makes sketches *mergeable statistics*: merging
//! must be commutative and associative, inserting then merging must
//! equal merging then inserting (so per-partition maintenance order is
//! irrelevant) — these are the invariants that let per-partition
//! sketches be combined in any order, at any time, into one table-level
//! estimate.
//!
//! The accuracy contract is the acceptance bound for the streaming
//! statistics path: at the default precision (p = 14, ~0.8% standard
//! error) the estimate stays within 5% relative error across
//! cardinalities from 1 to 10^6 — including the linear-counting /
//! raw-estimate crossover region where HLL implementations classically
//! go wrong.

use proptest::prelude::*;
use rqo_stats::sketch::{value_hash, DEFAULT_PRECISION};
use rqo_stats::DistinctSketch;
use rqo_storage::Value;

/// Deterministic value stream: `Int`s drawn from a keyed mix so
/// different streams overlap partially (unions are non-trivial).
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

    /// merge(a, b) == merge(b, a): register-wise max is symmetric.
    #[test]
    fn merge_is_commutative(ka in 0u64..32, kb in 0u64..32,
                            na in 0usize..600, nb in 0usize..600) {
        let a = sketch_of(&stream(ka, na));
        let b = sketch_of(&stream(kb, nb));
        prop_assert_eq!(a.merged(&b), b.merged(&a));
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(ka in 0u64..32, kb in 0u64..32, kc in 0u64..32,
                            n in 0usize..400) {
        let a = sketch_of(&stream(ka, n));
        let b = sketch_of(&stream(kb, n + 37));
        let c = sketch_of(&stream(kc, n / 2));
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
    }

    /// Inserting a value then merging equals merging then inserting —
    /// maintenance order across partitions cannot change the estimate.
    #[test]
    fn insert_then_merge_equals_merge_then_insert(
        ka in 0u64..32, kb in 0u64..32, n in 0usize..400, x in any::<i64>()) {
        let a = sketch_of(&stream(ka, n));
        let b = sketch_of(&stream(kb, n));

        let mut a_then = a.clone();
        a_then.insert(&Value::Int(x));
        let insert_first = a_then.merged(&b);

        let mut merge_first = a.merged(&b);
        merge_first.insert(&Value::Int(x));

        prop_assert_eq!(insert_first, merge_first);
    }

    /// Merging is idempotent and absorbs subsets: a ∪ a == a, and a
    /// sketch of a prefix merges into the full stream's sketch without
    /// changing it.
    #[test]
    fn merge_is_idempotent_and_absorbing(k in 0u64..32, n in 1usize..500,
                                         cut in 0usize..500) {
        let values = stream(k, n);
        let full = sketch_of(&values);
        prop_assert_eq!(full.merged(&full), full.clone());
        let prefix = sketch_of(&values[..cut.min(n)]);
        prop_assert_eq!(full.merged(&prefix), full);
    }

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

/// Merged per-partition sketches estimate the union as accurately as a
/// single sketch over the concatenated stream — the property the
/// table-level `column_distinct` read path relies on.
#[test]
fn partitioned_union_matches_single_stream() {
    let n = 200_000usize;
    let parts = 8;
    let mut shards: Vec<DistinctSketch> = (0..parts).map(|_| DistinctSketch::new()).collect();
    let mut single = DistinctSketch::new();
    for i in 0..n as i64 {
        let v = Value::Int(i);
        shards[(i as usize) % parts].insert(&v);
        single.insert(&v);
    }
    let mut merged = shards[0].clone();
    for shard in &shards[1..] {
        merged.merge(shard);
    }
    assert_eq!(merged, single, "sharding must be invisible to the union");
    let rel = (merged.estimate() - n as f64).abs() / n as f64;
    assert!(rel <= 0.05, "union error {:.2}%", rel * 100.0);
}
