//! Selection vectors.
//!
//! Batches carry typed columns end to end (see [`crate::Batch`]); a
//! filtering operator evaluates its predicate into a [`SelVec`] — a
//! checked, ascending row-id list — and gathers the survivors with one
//! typed `take` per column.

/// A selection vector: strictly ascending row ids below a bound.
///
/// Construction always checks the cheap O(1) cardinality invariant and,
/// under debug assertions, the full per-element bounds/sortedness/
/// uniqueness invariants (exercised in CI by the debug-assertions job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelVec {
    ids: Vec<u32>,
    bound: usize,
}

impl SelVec {
    /// Wraps a selection produced by a kernel.
    ///
    /// # Panics
    ///
    /// Panics when more ids are selected than candidate rows exist; under
    /// debug assertions, also panics unless the ids are strictly
    /// ascending and below `bound`.
    pub fn new(ids: Vec<u32>, bound: usize) -> Self {
        assert!(
            ids.len() <= bound,
            "selection of {} ids exceeds {} candidate rows",
            ids.len(),
            bound
        );
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "selection vector must be strictly ascending"
        );
        debug_assert!(
            ids.last().is_none_or(|&last| (last as usize) < bound),
            "selection id {:?} out of bounds {bound}",
            ids.last()
        );
        Self { ids, bound }
    }

    /// The whole range `0..n` selected.
    pub fn all(n: usize) -> Self {
        Self {
            ids: (0..n as u32).collect(),
            bound: n,
        }
    }

    /// The selected row ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Exclusive upper bound on ids (the candidate row count).
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sel_vec_invariants() {
        let s = SelVec::new(vec![0, 2, 5], 6);
        assert_eq!(s.ids(), &[0, 2, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(SelVec::all(3).ids(), &[0, 1, 2]);
        assert!(SelVec::new(Vec::new(), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn sel_vec_rejects_overfull_selection() {
        SelVec::new(vec![0, 1, 2], 2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-assertions only")]
    #[should_panic(expected = "ascending")]
    fn sel_vec_rejects_unsorted_ids() {
        SelVec::new(vec![2, 1, 0], 9);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug-assertions only")]
    #[should_panic(expected = "out of bounds")]
    fn sel_vec_rejects_out_of_bounds_ids() {
        SelVec::new(vec![0, 7], 7);
    }
}
