//! The shared query engine: catalog + statistics + optimizer + executor
//! behind cancellation-aware entry points.
//!
//! This is the single-tenant `RobustDb` core, factored out so that one
//! engine can be shared by many concurrent sessions through
//! [`QueryService`](crate::QueryService).  Every execution entry point
//! takes [`ExecOptions`] (carrying the query's token and the shared
//! worker-pool scheduler) and returns `Result<_, StopReason>`: a
//! cancelled or past-deadline query surfaces as `Err` instead of a
//! result.
//!
//! # Cancellation hygiene
//!
//! A stopped query must look — to every shared structure — as if it never
//! ran:
//!
//! * [`run_opts`](Engine::run_opts) plans on a cache miss but publishes
//!   the plan into the [`PlanCache`] only **after** a successful
//!   execution;
//! * [`explain_analyze_opts`](Engine::explain_analyze_opts) publishes the
//!   fresh plan, the feedback observations, and the drift checks only
//!   after the run completes;
//! * [`run_adaptive_opts`](Engine::run_adaptive_opts) records trip
//!   observations into a private [`FeedbackStore::fork`] (which the
//!   mid-query re-plans read), and replays them onto the shared store —
//!   and through the plan cache's drift rule — only when the query
//!   completes.  A query cancelled between re-plans leaves the shared
//!   feedback store and cache byte-identical to never having started.

use std::sync::{Arc, Mutex, PoisonError, RwLock};

use rqo_core::{
    AdaptivePolicy, ConfidenceThreshold, EstimatorConfig, FeedbackStore, PlanSelection, QueryToken,
    RobustEstimator, RobustnessLevel, StopReason,
};
use rqo_exec::{
    execute_guarded, guard_points, Batch, ExecOptions, ExecStatus, MorselScheduler, OpMetrics,
    PhysicalPlan, RowGuard,
};
use rqo_optimizer::{
    CacheStats, MaterializedFragment, NodeAnnotation, Optimizer, PlanCache, PlanFingerprint,
    PlannedQuery, Query,
};
use rqo_stats::sketch::DEFAULT_PRECISION;
use rqo_stats::{SynopsisRepository, TableSketches};
use rqo_storage::{Catalog, CostParams, CostTracker, StorageError, Value};

/// One version of the data: a catalog and the statistics drawn from it.
/// Immutable once published; a query holds one for its whole run.
struct Snapshot {
    catalog: Arc<Catalog>,
    synopses: Arc<SynopsisRepository>,
}

/// The result of running one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The plan the optimizer chose.
    pub plan: PhysicalPlan,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Output column names.
    pub columns: Vec<String>,
    /// Simulated execution time in seconds under the database's cost
    /// parameters.
    pub simulated_seconds: f64,
    /// The optimizer's own cost estimate, in seconds, for comparison.
    pub estimated_seconds: f64,
}

/// The result of `EXPLAIN ANALYZE`: a [`QueryOutcome`] plus the
/// per-operator metrics tree, annotated with the optimizer's own
/// cardinality estimates so every node reports estimate vs. actual and
/// the q-error between them.
#[derive(Debug, Clone)]
pub struct AnalyzedOutcome {
    /// The ordinary query result.
    pub outcome: QueryOutcome,
    /// Per-operator metrics, in the same tree shape as the plan.
    pub metrics: OpMetrics,
}

impl AnalyzedOutcome {
    /// Renders the annotated plan tree — the `EXPLAIN ANALYZE` output.
    ///
    /// Deterministic: identical at every thread count and morsel size for
    /// the same database and query.
    pub fn render(&self) -> String {
        self.metrics.render()
    }
}

/// One mid-query re-plan, as recorded by adaptive execution.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// Pre-order index of the tripped guard's node in the plan that was
    /// executing when the guard fired.
    pub node: usize,
    /// Operator label of the tripped node.
    pub label: String,
    /// Output rows the plan priced the node at.
    pub est_rows: f64,
    /// Rows actually materialized at the pipeline breaker.
    pub actual_rows: u64,
    /// q-error between them (> the policy's guard bound, by construction).
    pub q_error: f64,
    /// Confidence threshold the tripped plan was optimized at.
    pub threshold_before: ConfidenceThreshold,
    /// Escalated threshold the re-plan was optimized at.
    pub threshold_after: ConfidenceThreshold,
    /// Selection mode the tripped plan was chosen under.
    pub selection_before: PlanSelection,
    /// Selection mode the re-plan was chosen under — on the second trip
    /// the policy escalates from quantile to expected-penalty mode
    /// (point-collapsing the posterior has failed twice).
    pub selection_after: PlanSelection,
    /// Observed selectivities fed back before re-planning.
    pub observations: usize,
    /// Whether the re-plan grafted a `Materialized` leaf over the
    /// finished fragment (`false` ⇒ the fresh plan had no matching
    /// subtree and recomputes from scratch — correct, just not resumed).
    pub resumed: bool,
    /// Shape of the plan that tripped.
    pub old_shape: String,
    /// Shape of the re-planned query.
    pub new_shape: String,
}

impl ReplanEvent {
    /// Renders the event as one log paragraph (deterministic).
    pub fn render(&self) -> String {
        format!(
            "guard tripped at node {} [{}]: est {:.1} rows, actual {} rows, q-error {:.2}\n  \
             threshold {}% -> {}%{}; {} observation(s) fed back; {}\n  \
             plan: {} -> {}",
            self.node,
            self.label,
            self.est_rows,
            self.actual_rows,
            self.q_error,
            self.threshold_before.percent(),
            self.threshold_after.percent(),
            if self.selection_after == PlanSelection::ExpectedPenalty {
                " [penalty]"
            } else {
                ""
            },
            self.observations,
            if self.resumed {
                "resumed from materialized checkpoint"
            } else {
                "no matching subtree, recomputing"
            },
            self.old_shape,
            self.new_shape,
        )
    }
}

/// The result of adaptive execution: the query outcome, the re-plan
/// event log, and the metrics tree of the final (completed) execution.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The ordinary query result.  `plan` is the plan that ran to
    /// completion; `simulated_seconds` is the **total** tracked cost
    /// including all partial executions before re-plans, and
    /// `estimated_seconds` is the first plan's estimate.
    pub outcome: QueryOutcome,
    /// One entry per guard trip, in order.
    pub events: Vec<ReplanEvent>,
    /// Per-operator metrics of the completed execution, annotated with
    /// the final plan's estimates.
    pub metrics: OpMetrics,
}

impl AdaptiveOutcome {
    /// Number of mid-query re-plans that occurred.
    pub fn replans(&self) -> usize {
        self.events.len()
    }

    /// Renders the re-plan event log followed by the final plan's
    /// annotated metrics tree.  Deterministic: identical at every thread
    /// count for the same database and query.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "adaptive execution: {} re-plan(s)\n",
            self.replans()
        ));
        for (i, event) in self.events.iter().enumerate() {
            out.push_str(&format!("[{}] {}\n", i + 1, event.render()));
        }
        out.push_str("final plan:\n");
        out.push_str(&self.metrics.render());
        out
    }
}

/// The shared query engine: catalog, precomputed join synopses, robust
/// optimizer, feedback store, and plan cache.  All execution entry
/// points take `&self` — one engine serves any number of threads.
pub struct Engine {
    /// The current data version.  Queries clone the `Arc` once at entry
    /// and plan and run against that immutable snapshot; writers build a
    /// successor outside the lock and take it only to swap the `Arc`
    /// (see [`publish`](Self::publish)), so readers never wait out an
    /// append or a running query.
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serialises ingest: each batch builds on its predecessor's
    /// snapshot, so concurrent batches compose instead of overwriting.
    ingest: Mutex<()>,
    params: CostParams,
    threshold: ConfidenceThreshold,
    selection: PlanSelection,
    sample_size: usize,
    seed: u64,
    exec_options: ExecOptions,
    feedback: Arc<FeedbackStore>,
    plan_cache: Arc<PlanCache>,
    adaptive_policy: AdaptivePolicy,
}

/// What [`Engine::insert_rows`] did, for observability and wire replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertSummary {
    /// Rows appended by this batch.
    pub rows_inserted: usize,
    /// The table's total row count after the append.
    pub table_rows: usize,
    /// Distinct partitions the batch touched (sorted; `[0]` for
    /// unpartitioned tables).
    pub partitions_touched: Vec<usize>,
}

impl Engine {
    /// Builds the engine over a catalog, precomputing 500-tuple join
    /// synopses (the paper's recommended size) for every table.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_options(catalog, CostParams::default(), 500, 0xD5)
    }

    /// Full-control constructor: cost parameters, synopsis sample size,
    /// and sampling seed.
    pub fn with_options(
        catalog: Catalog,
        params: CostParams,
        sample_size: usize,
        seed: u64,
    ) -> Self {
        let catalog = Arc::new(catalog);
        let synopses = Arc::new(SynopsisRepository::build_all(&catalog, sample_size, seed));
        Self {
            snapshot: RwLock::new(Arc::new(Snapshot { catalog, synopses })),
            ingest: Mutex::new(()),
            params,
            threshold: RobustnessLevel::Moderate.threshold(),
            selection: PlanSelection::default(),
            sample_size,
            seed,
            exec_options: ExecOptions::default(),
            feedback: Arc::new(FeedbackStore::new()),
            plan_cache: Arc::new(PlanCache::default()),
            adaptive_policy: AdaptivePolicy::default(),
        }
    }

    /// Sets the adaptive re-optimization policy.
    pub fn set_adaptive_policy(&mut self, policy: AdaptivePolicy) {
        self.adaptive_policy = policy;
    }

    /// The active adaptive re-optimization policy.
    pub fn adaptive_policy(&self) -> &AdaptivePolicy {
        &self.adaptive_policy
    }

    /// Sets the base executor options (threads, morsel size).  The
    /// service layer overlays a token and the shared scheduler per query.
    pub fn set_exec_options(&mut self, exec_options: ExecOptions) {
        self.exec_options = exec_options;
    }

    /// The base executor options.
    pub fn exec_options(&self) -> &ExecOptions {
        &self.exec_options
    }

    /// Sets the system-wide robustness preset.
    pub fn set_robustness(&mut self, level: RobustnessLevel) {
        self.threshold = level.threshold();
    }

    /// Sets an explicit confidence threshold.
    pub fn set_threshold(&mut self, threshold: ConfidenceThreshold) {
        self.threshold = threshold;
    }

    /// Sets the system-wide plan-selection mode (per-query
    /// [`Query::with_selection`] overrides still win).
    pub fn set_selection(&mut self, selection: PlanSelection) {
        self.selection = selection;
    }

    /// The active plan-selection mode.
    pub fn selection(&self) -> PlanSelection {
        self.selection
    }

    /// Replaces the plan cache with an empty one using `bound` as its
    /// drift bound.  The cache's lifetime counters (hits, misses,
    /// drift evictions) carry forward — changing a tuning knob should
    /// not zero the operator's statistics; the dropped entries are
    /// counted as epoch invalidations.
    pub fn set_drift_bound(&mut self, bound: f64) {
        self.plan_cache = Arc::new(self.plan_cache.rebuilt_with_drift_bound(bound));
    }

    /// Re-draws the precomputed samples (the `UPDATE STATISTICS`
    /// analogue).  Advances the statistics epoch, which invalidates
    /// recorded feedback and cached plans.
    pub fn refresh_statistics(&mut self, seed: u64) {
        self.seed = seed;
        let catalog = self.catalog();
        let synopses = SynopsisRepository::build_all(&catalog, self.sample_size, seed);
        self.publish(catalog, synopses, None);
    }

    /// Incremental `UPDATE STATISTICS`: re-samples one table — and, for a
    /// partitioned table with a non-empty `partitions` list, only the
    /// named partitions — leaving every other table's statistics
    /// byte-for-byte untouched.
    ///
    /// Invalidation is scoped to match: the refreshed table's *per-table*
    /// feedback epoch advances (evicting exactly the observations that
    /// reference it) and only the cached plans reading it are dropped.
    /// Other tables' feedback, learned posteriors, and warm plans
    /// survive — the whole point of refreshing incrementally.
    ///
    /// # Panics
    ///
    /// Panics when `table` is not in the catalog's synopsis set or a
    /// partition index is out of range, mirroring
    /// [`SynopsisRepository::refresh_table`].
    pub fn refresh_statistics_partial(&mut self, table: &str, partitions: &[usize], seed: u64) {
        let current = self.snapshot();
        let mut synopses = SynopsisRepository::clone(&current.synopses);
        synopses.refresh_table(&current.catalog, table, partitions, seed);
        self.publish(Arc::clone(&current.catalog), synopses, Some(table));
    }

    /// Publishes a new data version and retires what was planned or
    /// observed against the old one — every plan and observation
    /// (`table: None`, a full statistics rebuild) or only those reading
    /// `table`.  The snapshot is swapped and the feedback epoch advanced
    /// under one write acquisition, so a query's [`view`](Self::view)
    /// never pairs one version's data with another's epoch.
    fn publish(&self, catalog: Arc<Catalog>, synopses: SynopsisRepository, table: Option<&str>) {
        let successor = Arc::new(Snapshot {
            catalog,
            synopses: Arc::new(synopses),
        });
        {
            let mut slot = self
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *slot = successor;
            match table {
                Some(table) => self.feedback.advance_table_epoch(table),
                None => self.feedback.advance_epoch(),
            };
        }
        // Stale plans can no longer be hit (new fingerprints embed the
        // new epoch); dropping them is housekeeping, done unlocked.
        match table {
            Some(table) => self.plan_cache.invalidate_table(table),
            None => self
                .plan_cache
                .invalidate_epochs_before(self.feedback.epoch()),
        };
    }

    /// Appends a batch of rows to one table — the streaming-ingest entry
    /// point, callable from any thread (`&self`, like the query paths).
    ///
    /// The append is published with **snapshot semantics**: a new
    /// catalog version (rows routed to their partitions, per-partition
    /// min/max widened, cached indexes rebuilt) and a new statistics
    /// version (per-partition per-column HLL sketches and reservoir
    /// samples updated incrementally — seeded from the stored rows on a
    /// table's first streamed batch) are built off to the side and
    /// swapped in as one snapshot; queries already running keep theirs,
    /// and queries arriving meanwhile do not wait for the build.
    ///
    /// Invalidation is scoped exactly like a partial statistics refresh:
    /// the table's per-table feedback epoch advances and only cached
    /// plans reading it are dropped, so warm plans for untouched tables
    /// survive ingest.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] for an unregistered table and
    /// [`StorageError::SchemaMismatch`] for rows failing
    /// arity/type/NULL validation; failed batches change nothing.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: &[Vec<Value>],
    ) -> Result<InsertSummary, StorageError> {
        let _writer = self.ingest.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.snapshot();
        if rows.is_empty() {
            // A no-op batch publishes nothing and invalidates nothing.
            let table_rows = current.catalog.table(table)?.num_rows();
            return Ok(InsertSummary {
                rows_inserted: 0,
                table_rows,
                partitions_touched: Vec::new(),
            });
        }
        // The O(table) rebuild runs outside the readers' lock.
        let mut catalog = Catalog::clone(&current.catalog);
        let assignments = catalog.append_rows(table, rows)?;
        let table_rows = catalog.table(table)?.num_rows();

        // Streaming statistics: seed from the pre-insert snapshot on
        // first contact, then fold in the batch row by row.
        let old_catalog = &current.catalog;
        let mut sketches = match current.synopses.sketches_for(table) {
            Some(ts) => TableSketches::clone(ts),
            None => {
                let t = old_catalog.table(table).expect("append validated the name");
                let id = old_catalog.table_id(table).expect("table exists").0 as u64;
                TableSketches::seeded_from_table(
                    t,
                    old_catalog.partitioning(table).map(Arc::as_ref),
                    DEFAULT_PRECISION,
                    self.sample_size,
                    self.seed ^ ((id + 1) << 48),
                )
            }
        };
        for (row, &p) in rows.iter().zip(&assignments) {
            sketches.observe(p, row);
        }
        let mut synopses = SynopsisRepository::clone(&current.synopses);
        synopses.publish_sketches(Arc::new(sketches));

        self.publish(Arc::new(catalog), synopses, Some(table));

        let mut partitions_touched = assignments;
        partitions_touched.sort_unstable();
        partitions_touched.dedup();
        Ok(InsertSummary {
            rows_inserted: rows.len(),
            table_rows,
            partitions_touched,
        })
    }

    /// The streaming sketch statistics for a table, if ingest has
    /// touched it (testing/inspection).
    pub fn sketches_for(&self, table: &str) -> Option<Arc<TableSketches>> {
        self.synopses().sketches_for(table).cloned()
    }

    /// The current global statistics epoch: 0 at construction, bumped by
    /// every full [`refresh_statistics`](Self::refresh_statistics).
    /// Partial refreshes advance per-table epochs instead; fingerprints
    /// combine both via [`FeedbackStore::epoch_for_tables`].
    pub fn stats_epoch(&self) -> u64 {
        self.feedback.epoch()
    }

    /// The current data version.  Recovers from poisoning: the slot
    /// holds an immutable `Arc` swapped whole, so a panicking writer
    /// cannot have left it half-updated.
    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// What one query runs against: the current data version and the
    /// fingerprint its plan is cached under, taken under one read
    /// acquisition — [`publish`](Self::publish) advances the epoch while
    /// holding the write lock, so the two always belong together.
    fn view(&self, query: &Query) -> (Arc<Snapshot>, PlanFingerprint) {
        let slot = self.snapshot.read().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&slot), self.fingerprint(query))
    }

    /// The current catalog snapshot.  Owned: the caller keeps one
    /// consistent version even while concurrent ingest publishes
    /// successors.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.snapshot().catalog)
    }

    /// The current statistics snapshot (same semantics as
    /// [`catalog`](Self::catalog)).
    pub fn synopses(&self) -> Arc<SynopsisRepository> {
        Arc::clone(&self.snapshot().synopses)
    }

    /// The cost parameters execution is charged under.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The active confidence threshold.
    pub fn threshold(&self) -> ConfidenceThreshold {
        self.threshold
    }

    /// The execution-feedback store.
    pub fn feedback(&self) -> &Arc<FeedbackStore> {
        &self.feedback
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// A point-in-time snapshot of the plan cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// An optimizer bound to this engine's statistics, threshold, and
    /// shared feedback store.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer_with_feedback(Arc::clone(&self.feedback))
    }

    /// An optimizer reading `feedback` instead of the shared store —
    /// adaptive re-plans pass a private fork here so their tentative
    /// observations steer the re-plan without touching shared state.
    pub fn optimizer_with_feedback(&self, feedback: Arc<FeedbackStore>) -> Optimizer {
        self.optimizer_over(&self.snapshot(), feedback)
    }

    /// An optimizer over one data version.
    fn optimizer_over(&self, snapshot: &Snapshot, feedback: Arc<FeedbackStore>) -> Optimizer {
        let est = RobustEstimator::new(
            Arc::clone(&snapshot.synopses),
            EstimatorConfig::with_threshold(self.threshold),
        )
        .with_feedback(feedback);
        Optimizer::new(Arc::clone(&snapshot.catalog), self.params, Arc::new(est))
    }

    /// Plans `query` fresh against `snapshot` and the shared feedback.
    fn plan(&self, snapshot: &Snapshot, query: &Query) -> PlannedQuery {
        self.optimizer_over(snapshot, Arc::clone(&self.feedback))
            .optimize_with(query, self.selection)
    }

    /// The fingerprint under which this engine would cache a query's
    /// plan right now.  The epoch component combines the global epoch
    /// with the per-table epochs of the query's tables, so a partial
    /// statistics refresh retires exactly the fingerprints that read the
    /// refreshed table and leaves every other query's warm entry valid.
    pub fn fingerprint(&self, query: &Query) -> PlanFingerprint {
        let epoch = self
            .feedback
            .epoch_for_tables(query.tables.iter().map(String::as_str));
        PlanFingerprint::of_with(query, self.threshold, epoch, self.selection)
    }

    /// Optimizes a query through the shared plan cache: a hit returns
    /// the memoized plan; a miss plans fresh and caches **immediately**
    /// (no execution is involved, so there is no cancellation window).
    pub fn optimize(&self, query: &Query) -> Arc<PlannedQuery> {
        let (snapshot, fingerprint) = self.view(query);
        if let Some(planned) = self.plan_cache.get(&fingerprint) {
            return planned;
        }
        self.plan_cache
            .insert(fingerprint, self.plan(&snapshot, query))
    }

    /// Per-query executor options: the engine's base options overlaid
    /// with the query's token and (when pooled) the shared scheduler.
    pub fn query_exec_options(
        &self,
        token: Option<QueryToken>,
        scheduler: Option<Arc<dyn MorselScheduler>>,
    ) -> ExecOptions {
        let mut opts = self.exec_options.clone();
        if let Some(token) = token {
            opts = opts.with_token(token);
        }
        if let Some(scheduler) = scheduler {
            opts = opts.with_scheduler(scheduler);
        }
        opts
    }

    fn outcome(&self, planned: &PlannedQuery, batch: Batch, seconds: f64) -> QueryOutcome {
        QueryOutcome {
            plan: planned.plan.clone(),
            columns: batch.schema.names().iter().map(|s| s.to_string()).collect(),
            rows: batch.to_rows(),
            simulated_seconds: seconds,
            estimated_seconds: planned.estimated_cost_ms / 1000.0,
        }
    }

    /// Optimizes (through the plan cache) and executes a query.  On a
    /// cache miss the fresh plan is cached only after the execution
    /// completes, so a stopped query never publishes anything.
    pub fn run_opts(&self, query: &Query, opts: &ExecOptions) -> Result<QueryOutcome, StopReason> {
        let (snapshot, fingerprint) = self.view(query);
        let cached = self.plan_cache.get(&fingerprint);
        let planned = match &cached {
            Some(planned) => Arc::clone(planned),
            None => Arc::new(self.plan(&snapshot, query)),
        };
        let (batch, cost) =
            rqo_exec::try_execute_with(&planned.plan, &snapshot.catalog, &self.params, opts)?;
        if cached.is_none() {
            self.plan_cache
                .insert_shared(fingerprint, Arc::clone(&planned));
        }
        Ok(self.outcome(&planned, batch, cost.seconds(&self.params)))
    }

    /// The observed selectivity of one annotated node, floored at half a
    /// tuple: a zero-row result is evidence the selectivity is *small*,
    /// not that it is exactly 0.0.
    fn observation(ann: &NodeAnnotation, rows_out: u64) -> Option<f64> {
        if ann.predicates.is_empty() || ann.root_rows <= 0.0 {
            return None;
        }
        Some(((rows_out as f64).max(0.5) / ann.root_rows).clamp(0.0, 1.0))
    }

    /// Publishes one observation into the shared feedback store and the
    /// plan cache's drift check.
    fn record_observation(&self, rows_out: u64, ann: &NodeAnnotation) {
        if let Some(observed) = Self::observation(ann, rows_out) {
            self.feedback.record_keyed(&ann.key, &ann.tables, observed);
            self.plan_cache.observe(&ann.key, observed);
        }
    }

    /// Runs a query with **mid-query adaptive re-optimization** under the
    /// engine's [`AdaptivePolicy`].  See the module docs for the
    /// cancellation hygiene; completed runs behave exactly like the
    /// single-tenant adaptive path (same trips, same re-plans, same
    /// published feedback and drift evictions).
    pub fn run_adaptive_opts(
        &self,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<AdaptiveOutcome, StopReason> {
        let policy = self.adaptive_policy.clone();
        let mut threshold = query.hint.unwrap_or(self.threshold);
        let mut selection = query.selection.unwrap_or(self.selection);
        // One data version for the whole adaptive run: re-plans and
        // resumed fragments must see the data the tripped plan ran over.
        let (snapshot, fingerprint) = self.view(query);
        let cached = self.plan_cache.get(&fingerprint);
        let initial = match &cached {
            Some(planned) => Arc::clone(planned),
            None => Arc::new(self.plan(&snapshot, query)),
        };
        let mut planned = Arc::clone(&initial);
        let estimated_seconds = planned.estimated_cost_ms / 1000.0;
        let mut tracker = CostTracker::new();
        let mut events: Vec<ReplanEvent> = Vec::new();
        let mut slots: Vec<Batch> = Vec::new();
        // Tentative state: the fork steers mid-query re-plans; `pending`
        // is replayed onto the shared store only on completion.
        let fork = Arc::new(self.feedback.fork());
        let mut pending: Vec<(u64, NodeAnnotation)> = Vec::new();

        loop {
            // Guards stay armed while the re-plan budget lasts; the final
            // permitted execution runs unguarded to completion.
            let guards: Vec<RowGuard> = if policy.is_enabled() && events.len() < policy.max_replans
            {
                guard_points(&planned.plan)
                    .into_iter()
                    .filter_map(|idx| {
                        let ann = planned.node_annotations.get(idx)?.as_ref()?;
                        (!ann.tables.is_empty()).then_some(RowGuard {
                            node: idx,
                            est_rows: ann.est_rows,
                            bound: policy.guard_bound,
                        })
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let status = execute_guarded(
                &planned.plan,
                &snapshot.catalog,
                &self.params,
                opts,
                &guards,
                &slots,
                &mut tracker,
            );
            match status {
                ExecStatus::Complete { batch, mut metrics } => {
                    // Publish: the initial plan first (it is what the
                    // fingerprint priced), then the observations — whose
                    // drift checks may immediately evict it, exactly as
                    // if they had been recorded live.
                    if cached.is_none() {
                        self.plan_cache
                            .insert_shared(fingerprint.clone(), Arc::clone(&initial));
                    }
                    for (rows_out, ann) in &pending {
                        self.record_observation(*rows_out, ann);
                    }
                    metrics.annotate(&planned.node_estimates());
                    let seconds = tracker.seconds(&self.params);
                    let mut outcome = self.outcome(&planned, batch, seconds);
                    outcome.estimated_seconds = estimated_seconds;
                    return Ok(AdaptiveOutcome {
                        outcome,
                        events,
                        metrics,
                    });
                }
                ExecStatus::Stopped(reason) => return Err(reason),
                ExecStatus::Tripped(trip) => {
                    // The tripped node's subtree is complete: record its
                    // observed selectivities into the fork (for the
                    // re-plan) and queue them for publication.  In
                    // pre-order a subtree is a contiguous block starting
                    // at its root, so the subtree's metrics zip with the
                    // annotations from `trip.node` on.
                    let mut observations = 0;
                    for (node, annotation) in trip
                        .metrics
                        .preorder()
                        .iter()
                        .zip(&planned.node_annotations[trip.node..])
                    {
                        let Some(ann) = annotation else { continue };
                        // Into the private fork only — no drift check,
                        // nothing shared.
                        if let Some(observed) = Self::observation(ann, node.rows_out) {
                            fork.record_keyed(&ann.key, &ann.tables, observed);
                            observations += 1;
                            pending.push((node.rows_out, ann.clone()));
                        }
                    }
                    let before = threshold;
                    let selection_before = selection;
                    threshold = policy.escalate(threshold, events.len());
                    selection = policy.escalate_selection(selection, events.len());
                    let ann = planned.node_annotations[trip.node]
                        .as_ref()
                        .expect("guards are only armed on annotated nodes");
                    let fragment = MaterializedFragment::from_annotation(ann, slots.len());
                    // Re-plan directly — NOT through `optimize` — so the
                    // grafted plan never enters the plan cache; and
                    // against the fork, so a later cancellation leaves
                    // the shared store untouched.  The selection mode is
                    // pinned onto the re-plan query so the replanner (and
                    // its annotation derivation) sees the escalated mode.
                    let replan_query = query.clone().with_hint(threshold).with_selection(selection);
                    let (new_planned, resumed) = self
                        .optimizer_over(&snapshot, Arc::clone(&fork))
                        .replan_with_materialized(&replan_query, &fragment);
                    events.push(ReplanEvent {
                        node: trip.node,
                        label: trip.metrics.label.clone(),
                        est_rows: trip.est_rows,
                        actual_rows: trip.actual_rows,
                        q_error: trip.q_error,
                        threshold_before: before,
                        threshold_after: threshold,
                        selection_before,
                        selection_after: selection,
                        observations,
                        resumed,
                        old_shape: planned.shape(),
                        new_shape: new_planned.shape(),
                    });
                    if resumed {
                        slots.push(trip.batch);
                    }
                    planned = Arc::new(new_planned);
                }
            }
        }
    }

    /// `EXPLAIN ANALYZE`: plans fresh, executes, and — only after the
    /// run completes — caches the fresh plan, records every annotated
    /// operator's observed selectivity into the shared feedback store,
    /// and feeds each observation through the plan cache's drift check.
    pub fn explain_analyze_opts(
        &self,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<AnalyzedOutcome, StopReason> {
        let (snapshot, fingerprint) = self.view(query);
        let planned = Arc::new(self.plan(&snapshot, query));
        let (batch, cost, mut metrics) =
            rqo_exec::try_execute_analyze(&planned.plan, &snapshot.catalog, &self.params, opts)?;
        let planned = self.plan_cache.insert_shared(fingerprint, planned);
        metrics.annotate(&planned.node_estimates());

        // Record observed selectivities: each annotated node's actual
        // output cardinality, relative to the root relation the planner
        // priced it against, keyed by the exact (tables, predicates)
        // request the estimator answered during planning.
        for (node, annotation) in metrics.preorder().iter().zip(&planned.node_annotations) {
            let Some(ann) = annotation else { continue };
            self.record_observation(node.rows_out, ann);
        }

        let outcome = self.outcome(&planned, batch, cost.seconds(&self.params));
        Ok(AnalyzedOutcome { outcome, metrics })
    }

    /// A **side-effect-free** `EXPLAIN ANALYZE`: plans fresh (bypassing
    /// the cache and its counters), executes with metrics, and publishes
    /// nothing — no cache insert, no feedback, no drift checks.  Because
    /// planning is deterministic given the engine's current statistics
    /// and feedback, any number of concurrent `analyze_quiet` calls for
    /// the same query return bit-identical plans, rows, metrics, and
    /// tracked costs — the property the service differential tests pin.
    pub fn analyze_quiet(
        &self,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<AnalyzedOutcome, StopReason> {
        let snapshot = self.snapshot();
        let planned = self.plan(&snapshot, query);
        let (batch, cost, mut metrics) =
            rqo_exec::try_execute_analyze(&planned.plan, &snapshot.catalog, &self.params, opts)?;
        metrics.annotate(&planned.node_estimates());
        let outcome = self.outcome(&planned, batch, cost.seconds(&self.params));
        Ok(AnalyzedOutcome { outcome, metrics })
    }
}
