//! The query engine: catalog + statistics + optimizer + executor behind
//! one run verb.
//!
//! [`Engine`] is the in-process handle: build it, configure it with its
//! consuming `with_*` builders, and run queries on it directly.  Each run
//! takes its [`ExecOptions`] — morsel size, the query's [`QueryToken`],
//! the worker pool — so the engine stores none.  To serve concurrent
//! clients, [`Engine::into_service`] wraps it in a [`QueryService`],
//! which shares it across threads and builds every query's options from
//! its own pool and the client's token.
//!
//! There is one run verb, [`Engine::execute`]: it takes the options and a
//! [`RunPolicy`], and returns `Result<AnalyzedOutcome, StopReason>` — a
//! cancelled or past-deadline query surfaces as `Err` instead of a
//! result.  [`Engine::run`] is its plain serial form, which cannot stop.
//!
//! # Observing is not publishing
//!
//! Every execution *observes*: the interpreter builds the est-vs-actual
//! [`OpMetrics`] tree for any run, and every [`AnalyzedOutcome`] carries
//! it.  What a run *publishes* into shared state — the [`PlanCache`], the
//! [`FeedbackStore`], the cache's drift check — is decided by its
//! [`RunPolicy`] alone, in one step, after the execution completed.  A
//! feedback loop is only safe if cancelled, torn and merely observed
//! executions never feed it, so a stopped query must look — to every
//! shared structure — as if it never ran:
//!
//! * a cache miss plans fresh but the plan enters the cache only
//!   **after** a successful execution;
//! * a guard trip records its observations into a private
//!   [`FeedbackStore::fork`], taken at the **first trip** (a run that
//!   never trips never clones the store), which the mid-query re-plans
//!   read; they are replayed onto the shared store — and through the
//!   plan cache's drift rule — only when the query completes.  A query
//!   cancelled between re-plans leaves the shared feedback store and
//!   cache byte-identical to never having started;
//! * a run whose data version was replaced while it ran (an insert or a
//!   statistics refresh published meanwhile) publishes nothing: that
//!   publication retired the epoch its plan is fingerprinted under and
//!   the observations it measured.

use std::sync::{Arc, Mutex, PoisonError, RwLock};

use rqo_core::adaptive::{self, GUARD_BOUND, MAX_REPLANS};
use rqo_core::{
    ConfidenceThreshold, EstimatorConfig, FeedbackStore, PlanSelection, QueryToken, RequestKey,
    RobustEstimator, RobustnessLevel, ServiceConfig, StopReason,
};
use rqo_exec::{
    execute_guarded, guard_points, Batch, ExecOptions, ExecStatus, MorselScheduler, OpMetrics,
    RowGuard,
};
use rqo_optimizer::{
    CacheStats, NodeAnnotation, Optimizer, PlanCache, PlanFingerprint, PlannedQuery, Query,
};
use rqo_stats::sketch::DEFAULT_PRECISION;
use rqo_stats::{SynopsisRepository, TableSketches};
use rqo_storage::{Catalog, CostParams, CostTracker, StorageError, Value};

use crate::QueryService;

/// One version of the data: a catalog and the statistics drawn from it.
/// Immutable once published; a query holds one for its whole run.
struct Snapshot {
    catalog: Arc<Catalog>,
    synopses: Arc<SynopsisRepository>,
}

/// What one execution may read from and publish into the engine's shared
/// state.  Every policy runs the same loop ([`Engine::execute`]) and
/// observes the same est-vs-actual metrics tree; they differ only in
/// these three decisions:
///
/// | policy | plan from | guards | published on completion |
/// |---|---|---|---|
/// | `Run` | cache probe, fresh on a miss | never | the fresh plan, on a miss |
/// | `Adaptive` | cache probe, fresh on a miss | until [`MAX_REPLANS`] trips | + the trips' observations |
/// | `Analyze` | always fresh | never | the fresh plan + every annotated node's observation |
/// | `AnalyzeQuiet` | always fresh, no fingerprint taken | never | nothing |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPolicy {
    /// A plain run through the plan cache.
    Run,
    /// A run with **mid-query adaptive re-optimization**: until the
    /// query has re-planned [`MAX_REPLANS`] times, every annotated
    /// pipeline breaker carries a cardinality guard at [`GUARD_BOUND`]; a
    /// trip re-plans the remainder up the [`rqo_core::adaptive`] ladder
    /// and resumes from the materialized fragment.  A run that trips no
    /// guard is exactly `Run`.
    Adaptive,
    /// `EXPLAIN ANALYZE`: the estimates must reflect the statistics and
    /// feedback of *this* moment, so the plan is never read from the
    /// cache; every annotated operator's observed selectivity is fed back.
    Analyze,
    /// A **side-effect-free** `EXPLAIN ANALYZE`: bypasses the cache and
    /// its counters and publishes nothing, so any number of concurrent
    /// calls for one query return bit-identical plans, rows, metrics and
    /// tracked costs — the property the service differential tests pin.
    AnalyzeQuiet,
}

/// The result of running one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The plan that ran to completion, with the optimizer's per-node
    /// annotations (shared with the plan cache, never copied).
    pub planned: Arc<PlannedQuery>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Output column names.
    pub columns: Vec<String>,
    /// Simulated execution time in seconds under the database's cost
    /// parameters — the **total** tracked cost, including the partial
    /// executions before any re-plan.
    pub simulated_seconds: f64,
    /// The optimizer's own cost estimate for the first plan, in seconds,
    /// for comparison.
    pub estimated_seconds: f64,
}

/// What every execution returns: the [`QueryOutcome`], the per-operator
/// metrics tree of the completed execution — annotated with the final
/// plan's cardinality estimates so every node reports estimate vs.
/// actual and the q-error between them — and the re-plan event log.
#[derive(Debug, Clone)]
pub struct AnalyzedOutcome {
    /// The ordinary query result.
    pub outcome: QueryOutcome,
    /// Per-operator metrics, in the same tree shape as the plan.
    pub metrics: OpMetrics,
    /// One entry per guard trip, in order; empty when no guard was armed.
    pub events: Vec<ReplanEvent>,
}

impl AnalyzedOutcome {
    /// Renders the annotated plan tree — the `EXPLAIN ANALYZE` output.
    ///
    /// Deterministic: identical at every thread count and morsel size for
    /// the same database and query.
    pub fn render(&self) -> String {
        self.metrics.render()
    }

    /// Number of mid-query re-plans that occurred.
    pub fn replans(&self) -> usize {
        self.events.len()
    }

    /// Renders the re-plan event log followed by the final plan's
    /// annotated metrics tree.  Deterministic: identical at every thread
    /// count for the same database and query.
    pub fn render_adaptive(&self) -> String {
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

/// The in-process handle: catalog, precomputed join synopses, robust
/// optimizer, feedback store, and plan cache.  All execution entry
/// points take `&self` — one engine serves any number of threads, and
/// [`into_service`](Self::into_service) shares it behind admission
/// control.
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
    feedback: Arc<FeedbackStore>,
    plan_cache: Arc<PlanCache>,
}

/// What [`Engine::insert_rows`] did, for observability and wire replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertSummary {
    /// Rows appended by this batch.
    pub rows_inserted: usize,
    /// The table's total row count after the append.
    pub table_rows: usize,
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
            feedback: Arc::new(FeedbackStore::new()),
            plan_cache: Arc::new(PlanCache::default()),
        }
    }

    /// Sets the system-wide robustness preset (§6.2.5): conservative,
    /// moderate, or aggressive.  Individual queries may still override it
    /// with [`Query::with_hint`].
    pub fn with_robustness(self, level: RobustnessLevel) -> Self {
        self.with_threshold(level.threshold())
    }

    /// Sets an explicit confidence threshold.
    pub fn with_threshold(mut self, threshold: ConfidenceThreshold) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the system-wide plan-selection mode: quantile pricing at the
    /// confidence threshold (the default) or expected-penalty
    /// minimization over the full selectivity posterior.  Individual
    /// queries may still override it with [`Query::with_selection`].
    pub fn with_selection(mut self, selection: PlanSelection) -> Self {
        self.selection = selection;
        self
    }

    /// The active plan-selection mode.
    pub fn selection(&self) -> PlanSelection {
        self.selection
    }

    /// Converts this engine into a concurrent [`QueryService`]: one
    /// shared worker pool, admission control, and per-query
    /// deadline/cancellation over the same state (catalog, synopses,
    /// plan cache, feedback).
    pub fn into_service(self, config: ServiceConfig) -> QueryService {
        QueryService::over(Arc::new(self), config)
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
    /// catalog version (the batch appended at the table's tail and
    /// merged into cached indexes) and a new statistics version (per-column
    /// HLL sketches and a reservoir sample updated incrementally — seeded
    /// from the stored rows on a table's first streamed batch) are built
    /// off to the side and swapped in as one snapshot; queries already
    /// running keep theirs, and queries arriving meanwhile do not wait for
    /// the build.
    ///
    /// Invalidation is scoped to the table: its per-table feedback epoch
    /// advances and only cached plans reading it are dropped, so other
    /// tables' observations and warm plans survive ingest.
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
            });
        }
        // The successor (each column extended in place, a sorted run
        // pushed onto each index) is built outside the readers' lock.
        let mut catalog = Catalog::clone(&current.catalog);
        catalog.append_rows(table, rows)?;
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
                    None,
                    DEFAULT_PRECISION,
                    self.sample_size,
                    self.seed ^ ((id + 1) << 48),
                )
            }
        };
        for row in rows {
            sketches.observe(0, row);
        }
        let mut synopses = SynopsisRepository::clone(&current.synopses);
        synopses.publish_sketches(Arc::new(sketches));

        self.publish(Arc::new(catalog), synopses, Some(table));
        Ok(InsertSummary {
            rows_inserted: rows.len(),
            table_rows,
        })
    }

    /// The streaming sketch statistics for a table, if ingest has
    /// touched it (testing/inspection).
    pub fn sketches_for(&self, table: &str) -> Option<Arc<TableSketches>> {
        self.synopses().sketches_for(table).cloned()
    }

    /// The current global statistics epoch: 0 at construction, bumped by
    /// every [`refresh_statistics`](Self::refresh_statistics).  Inserts
    /// advance per-table epochs instead; fingerprints combine both via
    /// [`FeedbackStore::epoch_for_tables`].
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
    /// with the per-table epochs of the query's tables, so an insert
    /// retires exactly the fingerprints that read its table and leaves
    /// every other query's warm entry valid.
    pub fn fingerprint(&self, query: &Query) -> PlanFingerprint {
        PlanFingerprint::of_with(query, self.threshold, self.epoch_for(query), self.selection)
    }

    /// The statistics epoch a fingerprint of `query` embeds right now.
    fn epoch_for(&self, query: &Query) -> u64 {
        self.feedback
            .epoch_for_tables(query.tables.iter().map(String::as_str))
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

    /// Per-query executor options: the defaults with the query's token
    /// and (when pooled) the shared scheduler.
    pub fn query_exec_options(
        &self,
        token: Option<QueryToken>,
        scheduler: Option<Arc<dyn MorselScheduler>>,
    ) -> ExecOptions {
        let mut opts = ExecOptions::default();
        if let Some(token) = token {
            opts = opts.with_token(token);
        }
        if let Some(scheduler) = scheduler {
            opts = opts.with_scheduler(scheduler);
        }
        opts
    }

    /// The observed selectivity of every annotated node of a completed
    /// (sub)tree: its actual output cardinality relative to the root
    /// relation the planner priced it against, floored at half a tuple —
    /// a zero-row result is evidence the selectivity is *small*, not that
    /// it is exactly 0.0.  In pre-order a subtree is a contiguous block
    /// starting at its root, so a subtree's metrics zip with the
    /// annotations from its root on.
    fn observations<'a>(
        metrics: &OpMetrics,
        annotations: &'a [Option<NodeAnnotation>],
    ) -> Vec<(&'a RequestKey, f64)> {
        let nodes = metrics.preorder();
        let observed = nodes.iter().zip(annotations).filter_map(|(node, ann)| {
            let ann = ann.as_ref()?;
            let request = ann.request.as_ref()?;
            if request.predicates().len() == 0 || ann.root_rows <= 0.0 {
                return None;
            }
            let selectivity = (node.rows_out as f64).max(0.5) / ann.root_rows;
            Some((request, selectivity.clamp(0.0, 1.0)))
        });
        observed.collect()
    }

    /// The one run verb: plans `query`, executes it against one data
    /// version, and — only after the execution completed — publishes what
    /// `policy` allows (see [`RunPolicy`] for the three decisions a policy
    /// makes, and the module docs for the hygiene they keep).  Completed
    /// runs are deterministic: same trips, same re-plans, same rows, cost
    /// and metrics at every thread count.
    pub fn execute(
        &self,
        query: &Query,
        opts: &ExecOptions,
        policy: RunPolicy,
    ) -> Result<AnalyzedOutcome, StopReason> {
        // One data version for the whole run: re-plans and resumed
        // fragments must see the data the tripped plan ran over.  The
        // fingerprint is what the run publishes under.
        let (snapshot, fingerprint) = match policy {
            RunPolicy::AnalyzeQuiet => (self.snapshot(), None),
            _ => {
                let (snapshot, fingerprint) = self.view(query);
                (snapshot, Some(fingerprint))
            }
        };
        let cached = match (policy, &fingerprint) {
            (RunPolicy::Run | RunPolicy::Adaptive, Some(fingerprint)) => {
                self.plan_cache.get(fingerprint)
            }
            _ => None,
        };
        let initial = match &cached {
            Some(planned) => Arc::clone(planned),
            None => Arc::new(self.plan(&snapshot, query)),
        };
        let guarded = policy == RunPolicy::Adaptive;
        let mut planned = Arc::clone(&initial);
        let mut threshold = query.hint.unwrap_or(self.threshold);
        let mut selection = query.selection.unwrap_or(self.selection);
        let mut tracker = CostTracker::new();
        let mut events: Vec<ReplanEvent> = Vec::new();
        let mut slots: Vec<Batch> = Vec::new();
        // Tentative state: the fork (taken at the first trip) steers
        // mid-query re-plans; `pending` is replayed onto the shared store
        // only on completion.
        let mut fork: Option<Arc<FeedbackStore>> = None;
        let mut pending: Vec<(RequestKey, f64)> = Vec::new();

        loop {
            // Guards stay armed while the re-plan budget lasts; the final
            // permitted execution runs unguarded to completion.
            let guards: Vec<RowGuard> = if guarded && events.len() < MAX_REPLANS {
                guard_points(&planned.plan)
                    .into_iter()
                    .filter_map(|idx| {
                        let ann = planned.node_annotations.get(idx)?.as_ref()?;
                        ann.request.is_some().then_some(RowGuard {
                            node: idx,
                            est_rows: ann.est_rows,
                            bound: GUARD_BOUND,
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
                    metrics.annotate(&planned.node_estimates());
                    // Publish: the initial plan first (it is what the
                    // fingerprint priced), then the observations — whose
                    // drift checks may immediately evict it, exactly as
                    // if they had been recorded live.  Only into the data
                    // version the run read: a version published meanwhile
                    // already retired this plan's epoch and these
                    // observations.  The read lock keeps a `publish` from
                    // slipping between the check and the writes.
                    let version = self.snapshot.read().unwrap_or_else(PoisonError::into_inner);
                    if let Some(fingerprint) =
                        fingerprint.filter(|f| f.epoch() == self.epoch_for(query))
                    {
                        if cached.is_none() {
                            self.plan_cache
                                .insert_shared(fingerprint, Arc::clone(&initial));
                        }
                        let published = match policy {
                            RunPolicy::Analyze => {
                                Self::observations(&metrics, &planned.node_annotations)
                            }
                            _ => pending.iter().map(|(key, o)| (key, *o)).collect(),
                        };
                        for (key, observed) in published {
                            self.feedback.record(key, observed);
                            self.plan_cache.observe(key, observed);
                        }
                    }
                    drop(version);
                    let outcome = QueryOutcome {
                        columns: batch.schema.names().iter().map(|s| s.to_string()).collect(),
                        rows: batch.to_rows(),
                        simulated_seconds: tracker.seconds(&self.params),
                        estimated_seconds: initial.estimated_cost_ms / 1000.0,
                        planned,
                    };
                    return Ok(AnalyzedOutcome {
                        outcome,
                        metrics,
                        events,
                    });
                }
                ExecStatus::Stopped(reason) => return Err(reason),
                ExecStatus::Tripped(trip) => {
                    // The tripped node's subtree is complete: record its
                    // observed selectivities into the private fork (for
                    // the re-plan; no drift check, nothing shared) and
                    // queue them for publication.
                    let fork = fork.get_or_insert_with(|| Arc::new(self.feedback.fork()));
                    let observed =
                        Self::observations(&trip.metrics, &planned.node_annotations[trip.node..]);
                    for &(key, observed) in &observed {
                        fork.record(key, observed);
                        pending.push((key.clone(), observed));
                    }
                    let observations = observed.len();
                    let before = threshold;
                    let selection_before = selection;
                    threshold = adaptive::escalate(threshold, events.len());
                    selection = adaptive::escalate_selection(selection, events.len());
                    // Re-plan directly — NOT through `optimize` — so the
                    // grafted plan never enters the plan cache; and
                    // against the fork, so a later cancellation leaves
                    // the shared store untouched.  The selection mode is
                    // pinned onto the re-plan query so the replanner (and
                    // its annotation derivation) sees the escalated mode.
                    let replan_query = query.clone().with_hint(threshold).with_selection(selection);
                    let (new_planned, resumed) = self
                        .optimizer_over(&snapshot, Arc::clone(fork))
                        .replan_with_materialized(&replan_query, &planned, trip.node, slots.len());
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

    /// A plain serial run: [`execute`](Self::execute) under
    /// [`RunPolicy::Run`] with default options.  No token, so it cannot
    /// stop; cancellable and pooled runs pass their own options to
    /// `execute` or go through a [`QueryService`].
    pub fn run(&self, query: &Query) -> QueryOutcome {
        self.run_opts(query, &ExecOptions::default())
            .expect("a run without a token cannot stop")
    }

    /// A plain run: [`execute`](Self::execute) under [`RunPolicy::Run`].
    pub fn run_opts(&self, query: &Query, opts: &ExecOptions) -> Result<QueryOutcome, StopReason> {
        Ok(self.execute(query, opts, RunPolicy::Run)?.outcome)
    }

    /// [`execute`](Self::execute) under [`RunPolicy::AnalyzeQuiet`].
    pub fn analyze_quiet(
        &self,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<AnalyzedOutcome, StopReason> {
        self.execute(query, opts, RunPolicy::AnalyzeQuiet)
    }
}
