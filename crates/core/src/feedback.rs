//! Cardinality feedback from executed plans.
//!
//! `EXPLAIN ANALYZE` observes the *actual* selectivity of every annotated
//! operator — the ground truth the estimator was trying to predict.  The
//! [`FeedbackStore`] records those observations under the request's
//! [`RequestKey`], so that the next optimization of the same (or an
//! overlapping) query replaces its sampling-based estimate with the
//! observed value.  This is the classic execution-feedback loop
//! (LEO-style) layered on top of the paper's robust estimator: the
//! posterior quantifies uncertainty *before* the first run, and feedback
//! collapses it to the truth *after*.
//!
//! The key is the one the optimizer's per-query memo, its plan-node
//! annotations and the plan cache use too: an observation recorded for a
//! plan node therefore hits exactly when the optimizer asks the estimator
//! the same question again, regardless of enumeration order.
//!
//! # Statistics epochs
//!
//! Observations are only valid against the data shape they were measured
//! on.  The store therefore carries a monotonically increasing
//! **statistics epoch**: [`FeedbackStore::advance_epoch`] (called by the
//! `UPDATE STATISTICS` analogue, `Engine::refresh_statistics`) drops
//! every recorded observation and bumps the counter, so downstream
//! consumers — the estimator, and any plan cache whose fingerprints embed
//! the epoch — atomically stop seeing stale selectivities.  Without this,
//! feedback observed against the *old* data keeps overriding fresh
//! samples forever (the stale-feedback bug fixed in PR 3).
//!
//! The global epoch is the right hammer for a full statistics rebuild,
//! but an insert into one table (`Engine::insert_rows`) must not throw
//! away every other table's hard-won observations.  Each observation's key
//! lists the tables it references, and
//! [`FeedbackStore::advance_table_epoch`] evicts only the observations
//! touching the changed table while bumping that table's own counter.
//! Consumers that embed an epoch in a fingerprint use
//! [`FeedbackStore::epoch_for_tables`] — `global + Σ per-table` over the
//! query's tables — which strictly increases whenever *any* statistics
//! the query depends on are replaced, and stays put otherwise.
//!
//! # Lock poisoning
//!
//! The store is shared between recorder threads (executing facades) and
//! reader threads (concurrent optimizers).  A recorder that panics for an
//! unrelated reason must not cascade panics into every optimizer, so all
//! lock acquisitions recover from poisoning via
//! [`PoisonError::into_inner`]: the map's invariant (request key →
//! clamped selectivity) holds after every individual insert, making the
//! data safe to read even when a holder died mid-flight.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{PreHashed, RequestKey};

/// Thread-safe map from estimation-request keys to observed
/// selectivities in `[0, 1]`, tagged with a statistics epoch.
///
/// Interior mutability (a [`Mutex`]) lets a single store be shared via
/// `Arc` between the executing facade (which records) and estimators
/// (which look up) without threading `&mut` through the optimizer.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    inner: Mutex<Inner>,
    epoch: AtomicU64,
}

/// Map state behind one lock: the observations and the per-table epoch
/// counters.  A single mutex (rather than two) makes
/// [`FeedbackStore::advance_table_epoch`] atomic — no recorder can slip a
/// stale observation in between the eviction and the epoch bump.
#[derive(Debug, Default, Clone)]
struct Inner {
    /// Keyed by the hash each key carries (no second hash per probe).
    observations: HashMap<RequestKey, f64, BuildHasherDefault<PreHashed>>,
    table_epochs: HashMap<String, u64>,
}

impl FeedbackStore {
    /// Creates an empty store at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the inner state, recovering from poisoning: every
    /// individual insert leaves the map consistent, so observations
    /// written before a holder panicked are still valid.
    fn guard(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current statistics epoch.  Starts at 0; bumped by
    /// [`advance_epoch`](Self::advance_epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Invalidates every observation and advances the statistics epoch,
    /// returning the new epoch.  Call whenever the statistics the
    /// observations were measured against are replaced (sample redraw,
    /// bulk data change): selectivities observed against the old data
    /// must not override estimates drawn from the new.
    pub fn advance_epoch(&self) -> u64 {
        let mut inner = self.guard();
        inner.observations.clear();
        // Bumped while the map lock is held so no recorder can slip a
        // pre-refresh observation into the post-refresh epoch.
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Invalidates **only** the observations referencing `table` and bumps
    /// that table's own epoch counter, returning the new counter value.
    /// Observations over other tables — and the global epoch — are
    /// untouched, so an insert into one table keeps the rest of the
    /// feedback loop warm.
    pub fn advance_table_epoch(&self, table: &str) -> u64 {
        let mut inner = self.guard();
        inner
            .observations
            .retain(|key, _| !key.tables().any(|t| t == table));
        let e = inner.table_epochs.entry(table.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// The epoch a consumer should embed for a request over `tables`:
    /// the global epoch plus the per-table epochs of every listed table.
    /// Strictly increases when any of those tables changes or the
    /// statistics are refreshed, and is stable otherwise.  Distinct
    /// table sets may alias to the same number — harmless for fingerprint
    /// use, where the request key already distinguishes them.
    pub fn epoch_for_tables<'a>(&self, tables: impl IntoIterator<Item = &'a str>) -> u64 {
        let inner = self.guard();
        self.epoch()
            + tables
                .into_iter()
                .map(|t| inner.table_epochs.get(t).copied().unwrap_or(0))
                .sum::<u64>()
    }

    /// A private copy of this store: same epoch, same observations,
    /// fully independent afterwards.  The adaptive executor re-plans
    /// against a fork so that a query cancelled mid-flight leaves the
    /// shared store untouched — its tentative observations are published
    /// (replayed onto the shared store) only if the query completes.
    pub fn fork(&self) -> Self {
        let inner = self.guard().clone();
        Self {
            inner: Mutex::new(inner),
            epoch: AtomicU64::new(self.epoch()),
        }
    }

    /// Every recorded observation as `(key text, selectivity)` pairs
    /// sorted by text — a deterministic, comparable snapshot (the
    /// cancellation proptests assert a cancelled query leaves this
    /// byte-identical).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .guard()
            .observations
            .iter()
            .map(|(k, &s)| (k.to_string(), s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        out
    }

    /// Records an observed selectivity (clamped to `[0, 1]`), overwriting
    /// any previous observation for the same request.  Returns the
    /// previous observation, if any — the drift hook callers use to
    /// detect when reality moved away from what a cached plan was priced
    /// at.
    pub fn record(&self, key: &RequestKey, selectivity: f64) -> Option<f64> {
        self.guard()
            .observations
            .insert(key.clone(), selectivity.clamp(0.0, 1.0))
    }

    /// Returns the observed selectivity for this request, if any.
    pub fn lookup(&self, key: &RequestKey) -> Option<f64> {
        self.guard().observations.get(key).copied()
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.guard().observations.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_expr::Expr;
    use std::sync::Arc;

    fn pred(column: &str, value: i64) -> Expr {
        Expr::col(column).lt(Expr::lit(value))
    }

    fn key(tables: &[&str], predicates: &[(&str, &Expr)]) -> RequestKey {
        RequestKey::new(tables.iter().copied(), predicates.iter().copied())
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let store = FeedbackStore::new();
        let p = pred("k", 5);
        assert!(store.is_empty());
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p)])), None);

        assert_eq!(store.record(&key(&["t"], &[("t", &p)]), 0.25), None);
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p)])), Some(0.25));

        // Re-recording overwrites (returning the displaced observation);
        // out-of-range observations are clamped.
        assert_eq!(store.record(&key(&["t"], &[("t", &p)]), 1.5), Some(0.25));
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p)])), Some(1.0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_predicates_get_distinct_entries() {
        let store = FeedbackStore::new();
        let p5 = pred("k", 5);
        let p9 = pred("k", 9);
        store.record(&key(&["t"], &[("t", &p5)]), 0.1);
        store.record(&key(&["t"], &[("t", &p9)]), 0.9);
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p5)])), Some(0.1));
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p9)])), Some(0.9));
    }

    #[test]
    fn advance_epoch_clears_and_bumps() {
        let store = FeedbackStore::new();
        let p = pred("k", 5);
        assert_eq!(store.epoch(), 0);
        store.record(&key(&["t"], &[("t", &p)]), 0.25);
        assert_eq!(store.advance_epoch(), 1);
        assert_eq!(store.epoch(), 1);
        assert!(
            store.is_empty(),
            "epoch advance must drop stale observations"
        );
        assert_eq!(store.advance_epoch(), 2);
    }

    #[test]
    fn table_epoch_evicts_only_referencing_observations() {
        let store = FeedbackStore::new();
        let p = pred("k", 5);
        store.record(&key(&["t"], &[("t", &p)]), 0.1);
        store.record(&key(&["u"], &[("u", &p)]), 0.2);
        store.record(&key(&["t", "u"], &[("t", &p)]), 0.3);
        store.record(&key(&["v"], &[("v", &p)]), 0.4);

        assert_eq!(store.advance_table_epoch("t"), 1);
        // Both the t-only and the joint t,u observations are gone...
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p)])), None);
        assert_eq!(store.lookup(&key(&["t", "u"], &[("t", &p)])), None);
        // ...while u's and v's survive, and the global epoch is untouched.
        assert_eq!(store.lookup(&key(&["u"], &[("u", &p)])), Some(0.2));
        assert_eq!(store.lookup(&key(&["v"], &[("v", &p)])), Some(0.4));
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.advance_table_epoch("t"), 2);
    }

    #[test]
    fn epoch_for_tables_moves_with_any_referenced_table() {
        let store = FeedbackStore::new();
        assert_eq!(store.epoch_for_tables(["t", "u"]), 0);
        store.advance_table_epoch("t");
        assert_eq!(store.epoch_for_tables(["t", "u"]), 1);
        assert_eq!(store.epoch_for_tables(["t"]), 1);
        // A query not touching t sees no movement.
        assert_eq!(store.epoch_for_tables(["u"]), 0);
        assert_eq!(store.epoch_for_tables(["v", "u"]), 0);
        // Refreshing u moves the joint epoch again; a global advance moves
        // everything.
        store.advance_table_epoch("u");
        assert_eq!(store.epoch_for_tables(["t", "u"]), 2);
        store.advance_epoch();
        assert_eq!(store.epoch_for_tables(["t", "u"]), 3);
        assert_eq!(store.epoch_for_tables(["v"]), 1);
    }

    #[test]
    fn fork_carries_table_epochs() {
        let store = FeedbackStore::new();
        store.advance_table_epoch("t");
        let fork = store.fork();
        assert_eq!(fork.epoch_for_tables(["t"]), 1);
        // Diverges after the fork.
        fork.advance_table_epoch("t");
        assert_eq!(fork.epoch_for_tables(["t"]), 2);
        assert_eq!(store.epoch_for_tables(["t"]), 1);
    }

    #[test]
    fn fork_is_independent_and_snapshot_is_sorted() {
        let store = FeedbackStore::new();
        let p5 = pred("k", 5);
        let p9 = pred("k", 9);
        store.record(&key(&["t"], &[("t", &p9)]), 0.9);
        store.record(&key(&["t"], &[("t", &p5)]), 0.1);

        let fork = store.fork();
        assert_eq!(fork.epoch(), store.epoch());
        assert_eq!(fork.snapshot(), store.snapshot());

        // Writes to the fork never reach the parent (and vice versa).
        fork.record(&key(&["t"], &[("t", &p5)]), 0.7);
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p5)])), Some(0.1));
        store.record(&key(&["u"], &[("u", &p9)]), 0.2);
        assert_eq!(fork.lookup(&key(&["u"], &[("u", &p9)])), None);

        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn poisoned_store_still_serves_lookups() {
        let store = Arc::new(FeedbackStore::new());
        let p = pred("k", 5);
        store.record(&key(&["t"], &[("t", &p)]), 0.25);

        // Poison the mutex: panic on a thread that holds the lock.
        let poisoner = Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("recorder died while holding the feedback lock");
        });
        assert!(handle.join().is_err(), "poisoner thread must panic");
        assert!(store.inner.lock().is_err(), "mutex is poisoned");

        // Every access path recovers instead of cascading the panic.
        assert_eq!(store.lookup(&key(&["t"], &[("t", &p)])), Some(0.25));
        assert_eq!(store.record(&key(&["t"], &[("t", &p)]), 0.5), Some(0.25));
        assert_eq!(store.len(), 1);
        assert_eq!(store.advance_epoch(), 1);
        assert!(store.is_empty());
    }
}
