//! A shared, thread-safe plan cache in two levels, with feedback-drift
//! invalidation.
//!
//! Under heavy repeated traffic, re-running DP join enumeration and
//! posterior inversion for every arriving query is wasted work: the same
//! query against the same statistics always produces the same plan.
//!
//! * The **exact level** memoizes finished [`PlannedQuery`]s under a
//!   [`PlanFingerprint`] — the query's [`RequestKey`], grouping and
//!   aggregates, plus the confidence threshold and selection mode it was
//!   priced under, plus the **statistics epoch**, hashed once when built —
//!   and serves them lock-cheaply (one `RwLock` read acquisition and an
//!   `Arc` clone) to any number of concurrent callers.  [`CacheStats`]'s
//!   hits, misses and entries count this level.
//! * The **evidence level**, behind it, serves queries the exact level has
//!   never seen.  A plan is a function of the query's *template* (its
//!   fingerprint with every literal a typed slot) and of the estimates
//!   the enumerator read, not of the literals themselves.  On an exact
//!   miss, [`PlanCache::plan`] estimates the requests the template's first
//!   fresh plan asked (the estimator's memo keeps them for a fresh plan
//!   should this level miss too), looks up (template, estimate bits), and
//!   on a hit rebinds the stored plan to the query's own literals —
//!   predicates, index-range bounds, residuals and annotation keys.  A
//!   query whose literals could be read other than through an estimate,
//!   and expected-penalty selection, bypass it (see the `evidence`
//!   module).  It needs no drift rule: a recorded observation changes
//!   the estimate it replaces and an insert the epoch in the template,
//!   so either forms a different key, and what the old key holds stays
//!   true of the evidence it names.
//!
//! Both levels fill in one step, [`PlanCache::insert_shared`], which the
//! engine calls only while the epoch the plan was formed against is
//! still current (for a run, once it completed).  Every map here is keyed
//! by a key that carries its hash, computed once, so the maps hash with
//! the pass-through [`PreHashed`].
//!
//! Four events remove entries:
//!
//! * **Capacity** — the exact level holds at most 4 096 plans and the
//!   evidence level 8 192 (a never-repeating stream repeats estimate
//!   vectors, not fingerprints).  Inserting a new key into a full level
//!   evicts one entry by CLOCK: a hand sweeps the entries in a ring,
//!   clearing the bit that a lookup sets on each entry it passes, and
//!   evicts the first entry whose bit is already clear.  A plan that is
//!   hit survives a sweep of plans that are not, and a stream of
//!   never-repeating queries keeps the cache's size fixed instead of
//!   growing it.
//! * **Feedback drift** — an `EXPLAIN ANALYZE` run observes the true
//!   selectivity of a predicate set.  [`PlanCache::observe`] compares the
//!   observation against the selectivity each exact-level plan was
//!   *priced* at (read off its per-node annotations, each carrying its
//!   request's [`RequestKey`], by a scan of the bounded cache); when the
//!   q-error `max(est, obs) / min(est, obs)` exceeds [`DRIFT_BOUND`],
//!   every fingerprint priced with that key is evicted, and the next
//!   optimization re-plans with the feedback in effect.  Entries whose
//!   estimates were close enough stay — re-planning them would reach the
//!   same plan.  The evidence level needs none (above).
//! * **Epoch invalidation** — `refresh_statistics` bumps the statistics
//!   epoch and an insert a table's epoch.  Fingerprints and templates
//!   embed the epoch, so stale entries can never be *hit* again;
//!   [`PlanCache::invalidate_epochs_before`] and
//!   [`PlanCache::invalidate_table`] additionally drop them eagerly from
//!   both levels so the maps do not fill with the unreachable.
//! * **Explicit [`clear`](PlanCache::clear)**.
//!
//! Every event is counted and exposed as a [`CacheStats`] snapshot so the
//! cache's behaviour is observable rather than inferred.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rqo_core::{ConfidenceThreshold, PlanSelection, PreHashed, RequestKey};
use rqo_exec::AggExpr;

use crate::evidence::{self, EvidenceKey, Filing, Requests, Slotted, Template};
use crate::planner::{Optimizer, PlannedQuery};
use crate::query::Query;

/// The drift bound: a cached plan survives as long as every observed
/// selectivity is within 2× (either direction) of the selectivity the
/// plan was priced at.  Cost is monotone in cardinality, so small drift
/// moves cost estimates without usually moving the argmin; a 2× error is
/// where the paper's cost curves start crossing.
pub const DRIFT_BOUND: f64 = 2.0;

/// The most entries each level holds.  An ad hoc stream whose every query
/// misses would otherwise leave one entry per query.
const CAPACITY: usize = 4096;

/// The most plans the evidence level holds.  Over 345 000 never-repeating
/// two-range date windows on TPC-H SF 0.005 it served 96.6 % of queries
/// (16 384 served 96.7 %, 4 096 87.6 %), and it fills early in such a
/// stream, after which memory stops growing.
const EVIDENCE_CAPACITY: usize = 8192;

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

    /// The query's request: its tables and predicates, in key order.
    pub(crate) fn request(&self) -> &RequestKey {
        &self.0.request
    }

    /// Feeds `state` the identity's parts other than the predicates'
    /// literals — tables, predicate tables, grouping, aggregates,
    /// threshold, selection mode, epoch — which a template shares with
    /// every query it covers.
    pub(crate) fn hash_shape<H: Hasher>(&self, state: &mut H) {
        let i = &self.0;
        state.write_usize(i.request.tables().len());
        i.request.tables().for_each(|t| t.hash(state));
        state.write_usize(i.request.predicates().len());
        i.request.predicates().for_each(|(t, _)| t.hash(state));
        (&i.group_by, &i.aggregates).hash(state);
        (i.threshold_bits, i.selection, i.epoch).hash(state);
    }

    /// Whether two fingerprints agree in all but their literals.
    pub(crate) fn same_shape(&self, other: &Self) -> bool {
        let (i, o) = (&self.0, &other.0);
        (i.threshold_bits, i.selection, i.epoch) == (o.threshold_bits, o.selection, o.epoch)
            && (&i.group_by, &i.aggregates) == (&o.group_by, &o.aggregates)
            && i.request.tables().eq(o.request.tables())
            && (i.request.predicates().map(|(t, _)| t)).eq(o.request.predicates().map(|(t, _)| t))
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Exact-level lookups served from the cache.
    pub hits: u64,
    /// Exact-level lookups that missed.
    pub misses: u64,
    /// Exact-level misses the evidence level served.
    pub evidence_hits: u64,
    /// Entries evicted because an observed selectivity drifted past the
    /// bound relative to what the plan was priced at.
    pub drift_evictions: u64,
    /// Entries dropped by statistics-epoch invalidation (plus explicit
    /// `clear`).
    pub epoch_invalidations: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
    /// Plans currently cached at the exact level.
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
            "hits={} misses={} evidence_hits={} drift_evictions={} epoch_invalidations={} evictions={} entries={} (hit rate {:.1}%)",
            self.hits,
            self.misses,
            self.evidence_hits,
            self.drift_evictions,
            self.epoch_invalidations,
            self.evictions,
            self.entries,
            self.hit_rate() * 100.0
        )
    }
}

/// True when a node of `planned` was priced with `key` at a selectivity
/// (`est_rows / root_rows`) that q-errs against `observed` beyond
/// [`DRIFT_BOUND`].
fn drifted(planned: &PlannedQuery, key: &RequestKey, observed: f64) -> bool {
    planned.node_annotations.iter().flatten().any(|a| {
        a.request.as_ref() == Some(key)
            && key.predicates().len() > 0
            && a.root_rows > 0.0
            && q_error((a.est_rows / a.root_rows).clamp(0.0, 1.0), observed) > DRIFT_BOUND
    })
}

/// One entry of a [`Clock`].
struct Entry<V> {
    value: V,
    /// This entry's place in [`Clock::ring`].
    slot: usize,
    /// Set by every lookup, cleared by the CLOCK hand as it passes.
    referenced: AtomicBool,
}

/// A map of at most `CAP` entries that makes room by CLOCK (see the
/// module docs), keyed by keys that carry their own hash.
struct Clock<K, V, const CAP: usize = CAPACITY> {
    map: HashMap<K, Entry<V>, BuildHasherDefault<PreHashed>>,
    /// Every key once, in the order the CLOCK hand visits them;
    /// `map[ring[i]].slot == i`.
    ring: Vec<K>,
    /// The ring slot the CLOCK hand looks at next.
    hand: usize,
}

impl<K, V, const CAP: usize> Default for Clock<K, V, CAP> {
    fn default() -> Self {
        Self {
            map: HashMap::default(),
            ring: Vec::new(),
            hand: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V, const CAP: usize> Clock<K, V, CAP> {
    /// The value under `key`, marked referenced for the CLOCK hand.
    fn get(&self, key: &K) -> Option<&V> {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// [`get`](Self::get), with the stored key.
    fn get_key_value(&self, key: &K) -> Option<(&K, &V)> {
        let (k, entry) = self.map.get_key_value(key)?;
        entry.referenced.store(true, Ordering::Relaxed);
        Some((k, &entry.value))
    }

    /// Removes `key`'s entry and its ring slot, into which the last
    /// slot's key moves.
    fn remove(&mut self, key: &K) -> Option<V> {
        let entry = self.map.remove(key)?;
        self.ring.swap_remove(entry.slot);
        if let Some(moved) = self.ring.get(entry.slot) {
            self.map
                .get_mut(moved)
                .expect("every ring slot names an entry")
                .slot = entry.slot;
        }
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
        Some(entry.value)
    }

    /// Inserts (or replaces) `key`'s value.  A new key is seated in a new
    /// slot below `CAP`, and otherwise, by CLOCK, in the slot of the
    /// first entry the hand finds unreferenced — clearing the bit of each
    /// referenced entry it passes — which it evicts.  Returns the replaced
    /// and the evicted value, for the caller to drop outside its lock.
    fn insert(&mut self, key: K, value: V) -> (Option<V>, Option<V>) {
        // A replaced entry gives up its ring slot, so the key is seated
        // once.
        let replaced = self.remove(&key);
        let (slot, evicted) = if self.ring.len() < CAP {
            self.ring.push(key.clone());
            (self.ring.len() - 1, None)
        } else {
            while self.map[&self.ring[self.hand]]
                .referenced
                .swap(false, Ordering::Relaxed)
            {
                self.hand = (self.hand + 1) % self.ring.len();
            }
            let slot = self.hand;
            let victim = std::mem::replace(&mut self.ring[slot], key.clone());
            self.hand = (slot + 1) % self.ring.len();
            (slot, self.map.remove(&victim).map(|e| e.value))
        };
        let entry = Entry {
            value,
            slot,
            referenced: AtomicBool::new(false),
        };
        self.map.insert(key, entry);
        (replaced, evicted)
    }

    /// Inserts `key` unless it is present (an equal key's value is the
    /// same), returning the evicted value.
    fn insert_new(&mut self, key: &K, value: &V) -> Option<V>
    where
        V: Clone,
    {
        if self.map.contains_key(key) {
            return None;
        }
        self.insert(key.clone(), value.clone()).1
    }

    /// Removes every entry `stale` selects, returning them in ring order.
    fn remove_where(&mut self, stale: impl Fn(&K, &V) -> bool) -> Vec<(K, V)> {
        let keys: Vec<K> = (self.ring.iter())
            .filter(|k| stale(k, &self.map[*k].value))
            .cloned()
            .collect();
        keys.into_iter()
            .map(|k| {
                let v = self.remove(&k).expect("selected from the ring");
                (k, v)
            })
            .collect()
    }
}

#[derive(Default)]
struct Inner {
    /// The exact level.
    plans: Clock<PlanFingerprint, Arc<PlannedQuery>>,
    /// Each template's recorded requests.
    templates: Clock<Template, Arc<Requests>>,
    /// The evidence level.
    evidence: Clock<EvidenceKey, Arc<Slotted>, EVIDENCE_CAPACITY>,
}

impl Inner {
    /// Drops every entry of both levels `stale` selects by fingerprint
    /// (a template's by the fingerprint it was made from), returning how
    /// many exact-level plans went.
    fn invalidate(&mut self, stale: impl Fn(&PlanFingerprint) -> bool) -> usize {
        self.templates.remove_where(|t, _| stale(t.exact()));
        self.evidence
            .remove_where(|k, _| stale(k.template().exact()));
        self.plans.remove_where(|fp, _| stale(fp)).len()
    }
}

/// The shared, thread-safe plan cache.  See the module docs for the
/// lifecycle; construct one per database handle and share it via `Arc`.
#[derive(Default)]
pub struct PlanCache {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evidence_hits: AtomicU64,
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

    /// Looks up a fingerprint at the exact level, counting the hit or
    /// miss and marking a hit entry referenced for the CLOCK hand.  The
    /// returned plan is shared — callers clone nodes out of it as needed.
    pub fn get(&self, fingerprint: &PlanFingerprint) -> Option<Arc<PlannedQuery>> {
        let found = self.read().plans.get(fingerprint).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Plans `query`, fingerprinted as `fingerprint`, after the exact
    /// level missed: through the evidence level (see the module docs) or,
    /// when it misses or is bypassed, fresh under `optimizer` — with the
    /// estimates it already drew in the planner's memo, so the plan and
    /// its `estimator_calls` are what a fresh plan gives.  Nothing is
    /// cached here: [`insert_shared`](Self::insert_shared) files the
    /// result at both levels.
    ///
    /// In a debug build every evidence-level hit is also planned fresh,
    /// and a difference in any part of the plan panics.
    pub fn plan(
        &self,
        fingerprint: &PlanFingerprint,
        optimizer: &Optimizer,
        query: &Query,
    ) -> PlannedQuery {
        let selection = fingerprint.0.selection;
        let templated = match selection {
            PlanSelection::Quantile => Template::of(query, fingerprint),
            PlanSelection::ExpectedPenalty => None,
        };
        let Some((template, constants)) = templated else {
            return optimizer.optimize_with(query, selection);
        };
        optimizer.with_hinted_context(query.hint, |ctx| {
            let recorded = (self.read().templates.get_key_value(&template))
                .map(|(stored, requests)| (stored.clone(), Arc::clone(requests)));
            // The stored template, so that evidence keys compare theirs
            // by pointer.
            let (template, requests) = match recorded {
                Some((stored, requests)) => (stored, Some(requests)),
                None => (template, None),
            };
            let probe = requests.as_deref().and_then(|requests| {
                let bound = requests.bind(&constants, fingerprint.request())?;
                let estimates = bound.iter().map(|k| ctx.ask(k).to_bits()).collect();
                Some((EvidenceKey::new(&template, requests, estimates), bound))
            });
            if let Some((key, bound)) = &probe {
                let slotted = self.read().evidence.get(key).cloned();
                if let Some(hit) = slotted.and_then(|s| evidence::bind(&s, &constants, bound)) {
                    self.evidence_hits.fetch_add(1, Ordering::Relaxed);
                    #[cfg(debug_assertions)]
                    evidence::check_hit(optimizer, query, key, bound, &hit);
                    return hit;
                }
            }
            let mut planned = PlannedQuery::quantile(ctx, query);
            let (key, asked, requests) = match probe {
                // Filed only if the plan read no request beyond the key's.
                Some((key, asked)) if ctx.estimator_calls() == asked.len() => (key, asked, None),
                Some(_) => return planned,
                None => {
                    let asked = ctx.asked();
                    let Some(requests) =
                        Requests::record(&asked, &constants, fingerprint.request())
                    else {
                        return planned;
                    };
                    let estimates = asked.iter().map(|k| ctx.ask(k).to_bits()).collect();
                    let key = EvidenceKey::new(&template, &requests, estimates);
                    (key, asked, Some(Arc::new(requests)))
                }
            };
            let filing = evidence::to_slots(&planned, &constants, &asked).map(|slotted| Filing {
                key,
                slotted: Arc::new(slotted),
                requests,
            });
            planned.evidence = filing.map(Arc::new);
            planned
        })
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
    ///
    /// A plan [`plan`](Self::plan) planned fresh is filed at the evidence
    /// level too, with its template's requests when it was the first.
    pub fn insert_shared(
        &self,
        fingerprint: PlanFingerprint,
        planned: Arc<PlannedQuery>,
    ) -> Arc<PlannedQuery> {
        let mut inner = self.write();
        let (replaced, evicted) = inner.plans.insert(fingerprint, Arc::clone(&planned));
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let (mut old_requests, mut old_slotted) = (None, None);
        if let Some(filing) = planned.evidence.as_deref() {
            if let Some(requests) = &filing.requests {
                old_requests = inner.templates.insert_new(filing.key.template(), requests);
            }
            old_slotted = inner.evidence.insert_new(&filing.key, &filing.slotted);
        }
        // Readers wait on the lock, not on freeing the displaced plans.
        drop(inner);
        drop((replaced, evicted, old_requests, old_slotted));
        planned
    }

    /// Reacts to an observed selectivity for one estimation request's
    /// key: evicts every exact-level plan whose priced-at selectivity for
    /// that key q-errs beyond [`DRIFT_BOUND`], and returns the evicted
    /// fingerprints in ring order.  The cache is bounded, so a scan of
    /// every entry stands in for an index by key.
    pub fn observe(&self, key: &RequestKey, observed: f64) -> Vec<PlanFingerprint> {
        let evicted =
            (self.write().plans).remove_where(|_, planned| drifted(planned, key, observed));
        self.drift_evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted.into_iter().map(|(fp, _)| fp).collect()
    }

    /// Eagerly drops every entry of both levels formed against an epoch
    /// older than `epoch` (they are already unreachable — new
    /// fingerprints embed the new epoch), returning how many exact-level
    /// plans were dropped.
    pub fn invalidate_epochs_before(&self, epoch: u64) -> usize {
        let dropped = self.write().invalidate(|fp| fp.epoch() < epoch);
        self.epoch_invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drops every entry of both levels that reads `table`, returning how
    /// many exact-level plans were dropped (counted under
    /// `epoch_invalidations`).  Plans over other tables stay warm — this
    /// is the per-table counterpart of
    /// [`invalidate_epochs_before`](Self::invalidate_epochs_before): an
    /// insert makes only its table's plans stale, and the per-table epoch
    /// inside new fingerprints already keeps them from being hit again,
    /// so the eager drop here is pure housekeeping.
    pub fn invalidate_table(&self, table: &str) -> usize {
        let dropped = (self.write()).invalidate(|fp| fp.request().tables().any(|t| t == table));
        self.epoch_invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drops every entry (the exact level's counted under
    /// `epoch_invalidations`).
    pub fn clear(&self) {
        let mut inner = self.write();
        let n = inner.plans.map.len() as u64;
        *inner = Inner::default();
        self.epoch_invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Plans currently cached at the exact level.
    pub fn len(&self) -> usize {
        self.read().plans.map.len()
    }

    /// True when the exact level holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the fingerprint is currently cached (no hit/miss
    /// accounting — observability and tests).
    pub fn contains(&self, fingerprint: &PlanFingerprint) -> bool {
        self.read().plans.map.contains_key(fingerprint)
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evidence_hits: self.evidence_hits.load(Ordering::Relaxed),
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
            evidence: None,
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
        let plans = &cache.read().plans;
        assert_eq!(plans.ring.len(), plans.map.len());
        for (slot, fp) in plans.ring.iter().enumerate() {
            assert_eq!(plans.map[fp].slot, slot);
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

    /// Epoch and table invalidation, and `clear`, drop the evidence
    /// level's templates and plans along with the exact level's.
    #[test]
    fn invalidation_reaches_the_evidence_level() {
        use rqo_core::{EstimatorConfig, RobustEstimator};
        use rqo_datagen::{TpchConfig, TpchData};
        use rqo_stats::SynopsisRepository;
        use rqo_storage::{CostParams, Value};

        let catalog = Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.001,
                seed: 7,
            })
            .into_catalog(),
        );
        let repo = Arc::new(SynopsisRepository::build_all(&catalog, 100, 7));
        let estimator = RobustEstimator::new(repo, EstimatorConfig::with_threshold(threshold()));
        let optimizer = Optimizer::new(catalog, CostParams::default(), Arc::new(estimator));
        let window = |table: &str, column: &str| {
            let e = Expr::col(column).between(Expr::lit(Value::Int(3)), Expr::lit(Value::Int(9)));
            Query::over(&[table]).filter(table, e)
        };
        let cache = PlanCache::default();
        for (query, epoch) in [
            (window("part", "p_y"), 0),
            (window("part", "p_y"), 1),
            (window("orders", "o_custkey"), 1),
        ] {
            let fp = PlanFingerprint::of(&query, threshold(), epoch);
            let planned = cache.plan(&fp, &optimizer, &query);
            assert!(planned.evidence.is_some(), "a fresh plan is filed");
            cache.insert(fp, planned);
        }
        let sizes = || {
            let inner = cache.read();
            (inner.templates.map.len(), inner.evidence.map.len())
        };
        assert_eq!(sizes(), (3, 3));
        cache.invalidate_epochs_before(1);
        assert_eq!(sizes(), (2, 2));
        cache.invalidate_table("orders");
        assert_eq!(sizes(), (1, 1));
        cache.clear();
        assert_eq!(sizes(), (0, 0));
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
            let plans = &cache.read().plans;
            let holds = |fp: &&PlanFingerprint| {
                let ann = plans.map[*fp].value.node_annotations[0].as_ref();
                ann.and_then(|a| a.request.as_ref()) == Some(&key)
            };
            plans.ring.iter().filter(holds).cloned().collect()
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
