//! A shared, thread-safe plan cache with feedback-drift invalidation.
//!
//! Under heavy repeated traffic, re-running DP join enumeration and
//! posterior inversion for every arriving query is wasted work: the same
//! query against the same statistics always produces the same plan.  This module memoizes finished [`PlannedQuery`]s under a
//! [`PlanFingerprint`] — the query's [`RequestKey`], grouping and
//! aggregates, plus the confidence threshold and selection mode it was
//! priced under, plus the **statistics epoch**, hashed once when built —
//! and serves them lock-cheaply (one `RwLock` read acquisition and an
//! `Arc` clone) to any number of concurrent callers.
//!
//! Four events remove entries:
//!
//! * **Capacity** — the cache holds at most 4 096 plans.  Inserting
//!   a new fingerprint into a full cache evicts one entry by CLOCK: a hand
//!   sweeps the entries in a ring, clearing the bit that
//!   [`get`](PlanCache::get) sets on each entry it passes, and evicts the
//!   first entry whose bit is already clear.  A plan that is hit survives
//!   a sweep of plans that are not, and a stream of never-repeating
//!   queries keeps the cache's size fixed instead of growing it.
//! * **Feedback drift** — an `EXPLAIN ANALYZE` run observes the true
//!   selectivity of a predicate set.  [`PlanCache::observe`] compares the
//!   observation against the selectivity each cached plan was *priced*
//!   at (read off its per-node annotations, each carrying its request's
//!   [`RequestKey`], by a scan of the bounded cache); when the q-error
//!   `max(est, obs) / min(est, obs)` exceeds [`DRIFT_BOUND`], every
//!   fingerprint priced with that key is evicted, and the next
//!   optimization re-plans with the feedback in effect.  Entries whose
//!   estimates were close enough stay — re-planning them would reach the
//!   same plan.
//! * **Epoch invalidation** — `refresh_statistics` bumps the statistics
//!   epoch.  Fingerprints embed the epoch, so stale entries can never be
//!   *hit* again; [`PlanCache::invalidate_epochs_before`] additionally
//!   drops them eagerly so the map does not grow without bound.
//! * **Explicit [`clear`](PlanCache::clear)**.
//!
//! Every event is counted and exposed as a [`CacheStats`] snapshot so the
//! cache's behaviour is observable rather than inferred.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rqo_core::{ConfidenceThreshold, PlanSelection, RequestKey};
use rqo_exec::AggExpr;

use crate::planner::PlannedQuery;
use crate::query::Query;

/// The drift bound: a cached plan survives as long as every observed
/// selectivity is within 2× (either direction) of the selectivity the
/// plan was priced at.  Cost is monotone in cardinality, so small drift
/// moves cost estimates without usually moving the argmin; a 2× error is
/// where the paper's cost curves start crossing.
pub const DRIFT_BOUND: f64 = 2.0;

/// The most plans the cache holds.  An ad hoc stream whose every query
/// misses would otherwise leave one entry per query.
const CAPACITY: usize = 4096;

/// Selectivity floor used in q-error comparisons, so an estimate of
/// exactly zero still yields a finite (and enormous) q-error against any
/// positive observation.
const SELECTIVITY_FLOOR: f64 = 1e-12;

/// The identity of a cached plan: *what was asked* (the query's
/// [`RequestKey`], grouping and aggregates), *how it was priced* (the
/// effective confidence threshold and selection mode, hints included),
/// and *against which statistics* (the epoch), hashed once when built.
///
/// Two `Query` values that differ only in construction order — table
/// listing order, predicate attachment order — map to the same
/// fingerprint; anything that can change the chosen plan (predicates,
/// grouping, aggregates, threshold, selection mode, statistics epoch) is
/// part of it.  A clone is a reference-count increment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFingerprint(Arc<Identity>);

#[derive(Debug, PartialEq, Eq)]
struct Identity {
    /// Of every field below; first, so unequal fingerprints differ fast.
    hash: u64,
    request: RequestKey,
    /// Grouping and aggregate order affect the output schema, so they
    /// enter in declaration order.
    group_by: Vec<String>,
    aggregates: Vec<AggExpr>,
    /// Exact bits of the effective threshold — fingerprints must not
    /// merge thresholds that merely round alike.
    threshold_bits: u64,
    /// The effective plan-selection mode the plan was chosen under.
    /// Quantile and expected-penalty mode can pick different plans from
    /// identical statistics, so the mode is part of the identity — a
    /// penalty-mode session must never be served a quantile-mode plan.
    selection: PlanSelection,
    epoch: u64,
}

impl Hash for PlanFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PlanFingerprint {
    /// Fingerprints a query priced at `threshold` against statistics
    /// epoch `epoch` under the caller's default selection mode (the
    /// engine's session-wide mode); the query's own hint and
    /// [`Query::selection`] override still win, mirroring
    /// [`crate::Optimizer::optimize_with`].
    pub fn of_with(
        query: &Query,
        threshold: ConfidenceThreshold,
        epoch: u64,
        default_selection: PlanSelection,
    ) -> Self {
        let request = RequestKey::new(
            query.tables.iter().map(String::as_str),
            query.predicates.iter().map(|(t, e)| (t.as_str(), e)),
        );
        let threshold_bits = query.hint.unwrap_or(threshold).value().to_bits();
        let selection = query.selection.unwrap_or(default_selection);
        let mut h = DefaultHasher::new();
        (&request, &query.group_by, &query.aggregates).hash(&mut h);
        (threshold_bits, selection, epoch).hash(&mut h);
        Self(Arc::new(Identity {
            hash: h.finish(),
            request,
            group_by: query.group_by.clone(),
            aggregates: query.aggregates.clone(),
            threshold_bits,
            selection,
            epoch,
        }))
    }

    /// The statistics epoch this fingerprint was formed against.
    pub fn epoch(&self) -> u64 {
        self.0.epoch
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required fresh planning.
    pub misses: u64,
    /// Entries evicted because an observed selectivity drifted past the
    /// bound relative to what the plan was priced at.
    pub drift_evictions: u64,
    /// Entries dropped by statistics-epoch invalidation (plus explicit
    /// `clear`).
    pub epoch_invalidations: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} drift_evictions={} epoch_invalidations={} evictions={} entries={} (hit rate {:.1}%)",
            self.hits,
            self.misses,
            self.drift_evictions,
            self.epoch_invalidations,
            self.evictions,
            self.entries,
            self.hit_rate() * 100.0
        )
    }
}

/// One cached plan.  Its annotations hold the selectivity each request
/// was priced at — the reference point drift is measured against.
struct CacheEntry {
    planned: Arc<PlannedQuery>,
    /// This entry's place in [`Inner::ring`].
    slot: usize,
    /// Set by every hit, cleared by the CLOCK hand as it passes.
    referenced: AtomicBool,
}

impl CacheEntry {
    /// True when a node was priced with `key` at a selectivity (`est_rows
    /// / root_rows`) that q-errs against `observed` beyond [`DRIFT_BOUND`].
    fn drifted(&self, key: &RequestKey, observed: f64) -> bool {
        self.planned.node_annotations.iter().flatten().any(|a| {
            a.request.as_ref() == Some(key)
                && key.predicates().len() > 0
                && a.root_rows > 0.0
                && q_error((a.est_rows / a.root_rows).clamp(0.0, 1.0), observed) > DRIFT_BOUND
        })
    }
}

#[derive(Default)]
struct Inner {
    plans: HashMap<PlanFingerprint, CacheEntry>,
    /// Every cached fingerprint once, in the order the CLOCK hand visits
    /// them; `plans[ring[i]].slot == i`.
    ring: Vec<PlanFingerprint>,
    /// The ring slot the CLOCK hand looks at next.
    hand: usize,
}

impl Inner {
    /// Removes `fingerprint`'s entry and its ring slot, into which the
    /// last slot's fingerprint moves.
    fn remove(&mut self, fingerprint: &PlanFingerprint) -> Option<CacheEntry> {
        let entry = self.plans.remove(fingerprint)?;
        self.ring.swap_remove(entry.slot);
        if let Some(moved) = self.ring.get(entry.slot) {
            self.plans
                .get_mut(moved)
                .expect("every ring slot names a cached plan")
                .slot = entry.slot;
        }
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
        Some(entry)
    }

    /// Seats a fingerprint that is not cached in the ring: in a new slot
    /// below [`CAPACITY`], and otherwise, by CLOCK, in the slot of the
    /// first entry the hand finds unreferenced — clearing the bit of each
    /// referenced entry it passes — which it evicts.  Returns the slot and
    /// the evicted entry.
    fn seat(&mut self, fingerprint: PlanFingerprint) -> (usize, Option<CacheEntry>) {
        if self.ring.len() < CAPACITY {
            self.ring.push(fingerprint);
            return (self.ring.len() - 1, None);
        }
        while self.plans[&self.ring[self.hand]]
            .referenced
            .swap(false, Ordering::Relaxed)
        {
            self.hand = (self.hand + 1) % self.ring.len();
        }
        let slot = self.hand;
        let victim = std::mem::replace(&mut self.ring[slot], fingerprint);
        self.hand = (slot + 1) % self.ring.len();
        (slot, self.plans.remove(&victim))
    }
}

/// The shared, thread-safe plan cache.  See the module docs for the
/// lifecycle; construct one per database handle and share it via `Arc`.
#[derive(Default)]
pub struct PlanCache {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    drift_evictions: AtomicU64,
    epoch_invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        // Same recovery rationale as the feedback store: each write
        // leaves the maps consistent, so poisoning is survivable.
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a fingerprint, counting the hit or miss and marking a
    /// hit entry referenced for the CLOCK hand.  The returned plan is
    /// shared — callers clone nodes out of it as needed.
    pub fn get(&self, fingerprint: &PlanFingerprint) -> Option<Arc<PlannedQuery>> {
        let found = self.read().plans.get(fingerprint).map(|e| {
            e.referenced.store(true, Ordering::Relaxed);
            Arc::clone(&e.planned)
        });
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or replaces) a plan; its annotations record the
    /// selectivity each estimation request was priced at, so later
    /// observations can be checked for drift.  A new fingerprint in a
    /// full cache first evicts one entry (see the module docs).  Returns
    /// the shared handle.
    ///
    /// Two threads that race on the same cold fingerprint both plan and
    /// both insert; planning is deterministic, so the second insert
    /// replaces an identical entry and either handle is correct.
    pub fn insert(&self, fingerprint: PlanFingerprint, planned: PlannedQuery) -> Arc<PlannedQuery> {
        self.insert_shared(fingerprint, Arc::new(planned))
    }

    /// [`insert`](Self::insert) for a plan that is already shared.  The
    /// query service plans *before* executing but caches only *after* a
    /// successful (non-cancelled) execution, by which point it holds an
    /// `Arc` — this entry point avoids cloning the whole plan back out.
    pub fn insert_shared(
        &self,
        fingerprint: PlanFingerprint,
        planned: Arc<PlannedQuery>,
    ) -> Arc<PlannedQuery> {
        let mut inner = self.write();
        // A replaced entry gives up its ring slot, so the fingerprint is
        // seated once.
        let replaced = inner.remove(&fingerprint);
        let (slot, evicted) = inner.seat(fingerprint.clone());
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.plans.insert(
            fingerprint,
            CacheEntry {
                planned: Arc::clone(&planned),
                slot,
                referenced: AtomicBool::new(false),
            },
        );
        // Readers wait on the lock, not on freeing the displaced plans.
        drop(inner);
        drop((replaced, evicted));
        planned
    }

    /// Reacts to an observed selectivity for one estimation request's
    /// key: evicts every cached plan whose priced-at selectivity for that
    /// key q-errs beyond [`DRIFT_BOUND`], and returns the evicted fingerprints in ring
    /// order.  The cache is bounded, so a scan of every entry stands in
    /// for an index by key.
    pub fn observe(&self, key: &RequestKey, observed: f64) -> Vec<PlanFingerprint> {
        let mut inner = self.write();
        let mut drifted: Vec<(usize, PlanFingerprint)> = inner
            .plans
            .iter()
            .filter(|(_, e)| e.drifted(key, observed))
            .map(|(fp, e)| (e.slot, fp.clone()))
            .collect();
        drifted.sort_unstable_by_key(|(slot, _)| *slot);
        for (_, fp) in &drifted {
            inner.remove(fp);
        }
        self.drift_evictions
            .fetch_add(drifted.len() as u64, Ordering::Relaxed);
        drifted.into_iter().map(|(_, fp)| fp).collect()
    }

    /// Eagerly drops every entry fingerprinted against an epoch older
    /// than `epoch` (they are already unreachable — new fingerprints
    /// embed the new epoch), returning how many were dropped.
    pub fn invalidate_epochs_before(&self, epoch: u64) -> usize {
        let mut inner = self.write();
        let stale: Vec<PlanFingerprint> = inner
            .plans
            .keys()
            .filter(|fp| fp.epoch() < epoch)
            .cloned()
            .collect();
        for fp in &stale {
            inner.remove(fp);
        }
        self.epoch_invalidations
            .fetch_add(stale.len() as u64, Ordering::Relaxed);
        stale.len()
    }

    /// Drops every cached plan that reads `table` (counted under
    /// `epoch_invalidations`), returning how many were dropped.  Plans
    /// over other tables stay warm — this is the per-table counterpart
    /// of [`invalidate_epochs_before`](Self::invalidate_epochs_before):
    /// an insert makes only its table's plans stale, and the per-table
    /// epoch inside new fingerprints already keeps them from being hit
    /// again, so the eager drop here is pure housekeeping.
    pub fn invalidate_table(&self, table: &str) -> usize {
        let mut inner = self.write();
        let stale: Vec<PlanFingerprint> = inner
            .plans
            .keys()
            .filter(|fp| fp.0.request.tables().any(|t| t == table))
            .cloned()
            .collect();
        for fp in &stale {
            inner.remove(fp);
        }
        self.epoch_invalidations
            .fetch_add(stale.len() as u64, Ordering::Relaxed);
        stale.len()
    }

    /// Drops every entry (counted under `epoch_invalidations`).
    pub fn clear(&self) {
        let mut inner = self.write();
        let n = inner.plans.len() as u64;
        *inner = Inner::default();
        self.epoch_invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.read().plans.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the fingerprint is currently cached (no hit/miss
    /// accounting — observability and tests).
    pub fn contains(&self, fingerprint: &PlanFingerprint) -> bool {
        self.read().plans.contains_key(fingerprint)
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            drift_evictions: self.drift_evictions.load(Ordering::Relaxed),
            epoch_invalidations: self.epoch_invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// q-error between two selectivities, floored so a zero estimate against
/// a positive observation reads as maximal drift rather than NaN.
fn q_error(a: f64, b: f64) -> f64 {
    let a = a.max(SELECTIVITY_FLOOR);
    let b = b.max(SELECTIVITY_FLOOR);
    (a / b).max(b / a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::NodeAnnotation;
    use rqo_exec::PhysicalPlan;
    use rqo_expr::Expr;

    impl PlanFingerprint {
        /// [`PlanFingerprint::of_with`] under the default (quantile)
        /// selection mode.
        fn of(query: &Query, threshold: ConfidenceThreshold, epoch: u64) -> Self {
            Self::of_with(query, threshold, epoch, PlanSelection::default())
        }
    }

    fn threshold() -> ConfidenceThreshold {
        ConfidenceThreshold::new(0.5)
    }

    fn query(table: &str, lt: i64) -> Query {
        Query::over(&[table]).filter(table, Expr::col("x").lt(Expr::lit(lt)))
    }

    /// A minimal planned query with one annotated node priced at
    /// `est_rows` out of `root_rows` for the query's own request.
    fn planned(q: &Query, est_rows: f64, root_rows: f64) -> PlannedQuery {
        let (table, expr) = &q.predicates[0];
        PlannedQuery {
            plan: PhysicalPlan::SeqScan {
                table: table.clone(),
                predicate: Some(expr.clone()),
            },
            estimated_cost_ms: est_rows,
            estimated_rows: est_rows,
            estimator_calls: 1,
            node_annotations: vec![Some(NodeAnnotation {
                est_rows,
                root_rows,
                request: Some(key_of(q)),
            })],
            selection: PlanSelection::Quantile,
            penalty: None,
        }
    }

    fn key_of(q: &Query) -> RequestKey {
        let (table, expr) = &q.predicates[0];
        RequestKey::new([table.as_str()], [(table.as_str(), expr)])
    }

    #[test]
    fn fingerprint_is_invariant_to_declaration_order() {
        let a = Expr::col("x").lt(Expr::lit(10i64));
        let b = Expr::col("y").gt(Expr::lit(3i64));
        let fwd = Query::over(&["t", "u"])
            .filter("t", a.clone())
            .filter("u", b.clone());
        let rev = Query::over(&["u", "t"]).filter("u", b).filter("t", a);
        assert_eq!(
            PlanFingerprint::of(&fwd, threshold(), 0),
            PlanFingerprint::of(&rev, threshold(), 0)
        );
    }

    #[test]
    fn fingerprint_separates_threshold_epoch_hint_and_shape() {
        let q = query("t", 10);
        let base = PlanFingerprint::of(&q, threshold(), 0);
        assert_ne!(
            base,
            PlanFingerprint::of(&q, ConfidenceThreshold::new(0.95), 0),
            "threshold is part of the identity"
        );
        assert_ne!(
            base,
            PlanFingerprint::of(&q, threshold(), 1),
            "statistics epoch is part of the identity"
        );
        let hinted = q.clone().with_hint(ConfidenceThreshold::new(0.95));
        assert_eq!(
            PlanFingerprint::of(&hinted, threshold(), 0),
            PlanFingerprint::of(&q, ConfidenceThreshold::new(0.95), 0),
            "a hint and an equal system threshold price identically"
        );
        assert_ne!(
            base,
            PlanFingerprint::of(&query("t", 11), threshold(), 0),
            "predicate constants are part of the identity"
        );
    }

    #[test]
    fn fingerprint_separates_selection_mode() {
        // Regression: before the selection mode entered the fingerprint,
        // a penalty-mode session could be served a cached quantile plan
        // (and vice versa) for the same query/threshold/epoch.
        let q = query("t", 10);
        let base = PlanFingerprint::of(&q, threshold(), 0);
        assert_ne!(
            base,
            PlanFingerprint::of_with(&q, threshold(), 0, PlanSelection::ExpectedPenalty),
            "selection mode is part of the identity"
        );
        // A per-query override and an equal engine-wide default agree.
        let overridden = q.clone().with_selection(PlanSelection::ExpectedPenalty);
        assert_eq!(
            PlanFingerprint::of(&overridden, threshold(), 0),
            PlanFingerprint::of_with(&q, threshold(), 0, PlanSelection::ExpectedPenalty),
        );
        // Quantile default round-trips through `of`.
        assert_eq!(
            base,
            PlanFingerprint::of_with(&q, threshold(), 0, PlanSelection::Quantile),
        );
    }

    #[test]
    fn get_insert_counts_hits_and_misses() {
        let cache = PlanCache::default();
        let q = query("t", 10);
        let fp = PlanFingerprint::of(&q, threshold(), 0);
        assert!(cache.get(&fp).is_none());
        let inserted = cache.insert(fp.clone(), planned(&q, 10.0, 100.0));
        let hit = cache.get(&fp).expect("cached");
        assert!(Arc::ptr_eq(&inserted, &hit), "hits share the same plan");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_eviction_is_exactly_the_overlapping_fingerprints() {
        let cache = PlanCache::default();
        let qa = query("t", 10);
        let qb = query("t", 99);
        let fpa = PlanFingerprint::of(&qa, threshold(), 0);
        let fpb = PlanFingerprint::of(&qb, threshold(), 0);
        cache.insert(fpa.clone(), planned(&qa, 10.0, 100.0)); // priced at 0.1
        cache.insert(fpb.clone(), planned(&qb, 50.0, 100.0)); // priced at 0.5

        // In-bound observation for qa's key: nothing evicted.
        assert!(cache.observe(&key_of(&qa), 0.15).is_empty());
        assert_eq!(cache.len(), 2);

        // Drifted observation for qa's key: only qa's fingerprint goes.
        let evicted = cache.observe(&key_of(&qa), 0.9);
        assert_eq!(evicted, vec![fpa.clone()]);
        assert!(!cache.contains(&fpa) && cache.contains(&fpb));
        assert_eq!(cache.stats().drift_evictions, 1);

        // A key no cached plan was priced with is a no-op.
        assert!(cache.observe(&key_of(&query("v", 10)), 0.5).is_empty());
    }

    #[test]
    fn zero_estimate_drifts_against_any_positive_observation() {
        let cache = PlanCache::default();
        let q = query("t", 10);
        let fp = PlanFingerprint::of(&q, threshold(), 0);
        cache.insert(fp.clone(), planned(&q, 0.0, 100.0));
        assert_eq!(cache.observe(&key_of(&q), 0.005), vec![fp]);
    }

    #[test]
    fn epoch_invalidation_drops_only_older_epochs() {
        let cache = PlanCache::default();
        let q0 = query("t", 10);
        let q1 = query("t", 20);
        cache.insert(
            PlanFingerprint::of(&q0, threshold(), 0),
            planned(&q0, 1.0, 10.0),
        );
        cache.insert(
            PlanFingerprint::of(&q1, threshold(), 1),
            planned(&q1, 1.0, 10.0),
        );
        assert_eq!(cache.invalidate_epochs_before(1), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&PlanFingerprint::of(&q1, threshold(), 1)));
        assert_eq!(cache.stats().epoch_invalidations, 1);

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().epoch_invalidations, 2);
    }

    #[test]
    fn invalidate_table_drops_only_plans_reading_it() {
        let cache = PlanCache::default();
        let qt = query("t", 10);
        let qu = query("u", 10);
        let fpt = PlanFingerprint::of(&qt, threshold(), 0);
        let fpu = PlanFingerprint::of(&qu, threshold(), 0);
        cache.insert(fpt.clone(), planned(&qt, 10.0, 100.0));
        cache.insert(fpu.clone(), planned(&qu, 10.0, 100.0));
        assert_eq!(cache.invalidate_table("t"), 1);
        assert!(!cache.contains(&fpt), "t's plan is gone");
        assert!(cache.contains(&fpu), "u's plan survives");
        assert_eq!(cache.stats().epoch_invalidations, 1);
        // Unknown table: no-op.
        assert_eq!(cache.invalidate_table("nope"), 0);
        // The dropped plan is not drift-evicted a second time.
        assert!(cache.observe(&key_of(&qt), 0.9).is_empty());
        assert_eq!(cache.stats().drift_evictions, 0);
    }

    #[test]
    fn replacing_an_entry_reindexes_cleanly() {
        let cache = PlanCache::default();
        let q = query("t", 10);
        let fp = PlanFingerprint::of(&q, threshold(), 0);
        cache.insert(fp.clone(), planned(&q, 10.0, 100.0));
        // Re-insert priced differently (e.g. re-planned with feedback).
        cache.insert(fp.clone(), planned(&q, 20.0, 100.0));
        assert_eq!(cache.len(), 1);
        // Drift is judged against the *replacement* pricing.
        assert!(cache.observe(&key_of(&q), 0.3).is_empty());
        assert_eq!(cache.observe(&key_of(&q), 0.9), vec![fp]);
    }

    /// Every ring slot names its entry, and every entry has one slot.
    fn assert_consistent(cache: &PlanCache) {
        let inner = cache.read();
        assert_eq!(inner.ring.len(), inner.plans.len());
        for (slot, fp) in inner.ring.iter().enumerate() {
            assert_eq!(inner.plans[fp].slot, slot);
        }
    }

    /// Inserts the `i`-th of a stream of distinct fingerprints; ten
    /// feedback keys are shared among them.
    fn insert_nth(cache: &PlanCache, i: usize) -> PlanFingerprint {
        let q = query("t", (i % 10) as i64);
        let fp = PlanFingerprint::of(&q, threshold(), i as u64);
        cache.insert(fp.clone(), planned(&q, 10.0, 100.0));
        fp
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let cache = PlanCache::default();
        let extra = 100;
        for i in 0..CAPACITY + extra {
            insert_nth(&cache, i);
            assert!(cache.len() <= CAPACITY);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, CAPACITY);
        assert_eq!(stats.evictions, extra as u64);
        assert!(stats.to_string().contains(&format!("evictions={extra}")));
        assert_consistent(&cache);
        // Replacing a cached fingerprint evicts nothing.
        let last = insert_nth(&cache, CAPACITY + extra - 1);
        assert!(cache.contains(&last));
        assert_eq!(cache.stats().evictions, extra as u64);
        assert_consistent(&cache);
    }

    #[test]
    fn a_hit_entry_survives_a_cold_sweep() {
        let cache = PlanCache::default();
        let hot = query("hot", 1);
        let hot_fp = PlanFingerprint::of(&hot, threshold(), 0);
        cache.insert(hot_fp.clone(), planned(&hot, 10.0, 100.0));
        let first = insert_nth(&cache, 1);
        // Three sweeps of cold plans, each seen once; the hot plan is hit
        // several times between two passes of the hand.
        for i in 2..3 * CAPACITY {
            if i % 1024 == 0 {
                assert!(cache.get(&hot_fp).is_some(), "hot plan evicted at {i}");
            }
            insert_nth(&cache, i);
        }
        assert!(cache.contains(&hot_fp));
        assert!(!cache.contains(&first), "the oldest cold plan went first");
        assert_eq!(cache.len(), CAPACITY);
        assert_consistent(&cache);
    }

    #[test]
    fn no_entry_is_drift_evicted_through_a_key_it_no_longer_holds() {
        let cache = PlanCache::default();
        // Replaced: the entry now priced with `u < 2` no longer answers
        // to `u < 1`.
        let (old, new) = (query("u", 1), query("u", 2));
        let fp = PlanFingerprint::of(&old, threshold(), 0);
        cache.insert(fp.clone(), planned(&old, 10.0, 100.0));
        cache.insert(fp.clone(), planned(&new, 10.0, 100.0));
        assert!(cache.observe(&key_of(&old), 0.9).is_empty());
        assert!(cache.contains(&fp));
        // Evicted: a stream of cold plans sweeps the replaced entry out.
        for i in 0..CAPACITY {
            insert_nth(&cache, i);
        }
        assert!(!cache.contains(&fp));
        assert!(cache.observe(&key_of(&new), 0.9).is_empty());
        assert_eq!(cache.stats().drift_evictions, 0);
        assert_consistent(&cache);
    }

    #[test]
    fn observe_evicts_in_ring_order() {
        let cache = PlanCache::default();
        for i in 0..CAPACITY + 500 {
            insert_nth(&cache, i);
        }
        // Drift evicts every plan priced with key 3, in the order the
        // CLOCK hand would visit them; the other keys stay.
        let key = key_of(&query("t", 3));
        let expected: Vec<PlanFingerprint> = {
            let inner = cache.read();
            let holds = |fp: &&PlanFingerprint| {
                let ann = inner.plans[*fp].planned.node_annotations[0].as_ref();
                ann.and_then(|a| a.request.as_ref()) == Some(&key)
            };
            inner.ring.iter().filter(holds).cloned().collect()
        };
        // Nothing was hit, so the hand evicted the first 500 inserts.
        let survivors = (500..CAPACITY + 500).filter(|i| i % 10 == 3).count();
        assert_eq!(expected.len(), survivors);
        assert_eq!(cache.observe(&key, 0.9), expected);
        assert_eq!(cache.len(), CAPACITY - expected.len());
        assert!(cache.observe(&key, 0.9).is_empty());
        assert_consistent(&cache);
        // Epoch and table invalidation, then refills past the capacity.
        assert!(cache.invalidate_epochs_before(2000) > 0);
        assert_consistent(&cache);
        for i in 10_000..10_000 + CAPACITY {
            insert_nth(&cache, i);
        }
        assert_consistent(&cache);
        assert_eq!(cache.invalidate_table("t"), CAPACITY);
        assert!(cache.is_empty());
        assert_consistent(&cache);
    }
}
