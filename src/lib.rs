//! **robust-qo** — a reproduction of Babcock & Chaudhuri, *"Towards a
//! Robust Query Optimizer: A Principled and Practical Approach"*
//! (SIGMOD 2005), as a complete Rust system.
//!
//! The paper's idea in one paragraph: a query optimizer's cardinality
//! estimates are *uncertain*, and pretending otherwise is what makes
//! optimizers fragile.  Estimate the full probability distribution of
//! each predicate's selectivity (a Beta posterior inferred from a
//! precomputed random sample — a *join synopsis* for foreign-key joins),
//! then collapse it at a user-chosen **confidence threshold** `T`: the
//! optimizer prices every plan at a selectivity it is `T`-percent sure
//! will not be exceeded.  Low `T` optimizes for the typical case (fast
//! but occasionally terrible); high `T` optimizes for the realistic worst
//! case (predictable).  Because operator cost is monotone in cardinality,
//! this requires changing *only* the cardinality estimation module of a
//! conventional optimizer.
//!
//! # Workspace map
//!
//! | crate | contents |
//! |---|---|
//! | [`math`] | Beta/binomial distributions, special functions |
//! | [`storage`] | columnar tables, indexes, catalog, simulated I/O cost model |
//! | [`expr`] | predicate language evaluated on rows and samples |
//! | [`datagen`] | TPC-H-like + star-schema generators with correlation knobs |
//! | [`stats`] | samplers, join synopses, equi-depth histograms, distinct estimation |
//! | [`estimator`] | **the paper's contribution**: posteriors, thresholds, robust estimator |
//! | [`exec`] | physical operators charging the cost model, the morsel worker pool |
//! | [`optimizer`] | access paths, DP join enumeration, star semijoins |
//! | [`service`] | concurrent query service: admission control over one shared pool |
//!
//! # Quickstart
//!
//! ```
//! use robust_qo::prelude::*;
//!
//! // Generate a small TPC-H-like database and register statistics.
//! let data = TpchData::generate(&TpchConfig { scale_factor: 0.002, seed: 1 });
//! let db = RobustDb::new(data.into_catalog())
//!     .with_robustness(RobustnessLevel::Moderate);
//!
//! // The paper's Experiment-1 query: two correlated date predicates.
//! let query = Query::over(&["lineitem"])
//!     .filter("lineitem", exp1_lineitem_predicate(30))
//!     .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
//!
//! let outcome = db.run(&query);
//! println!("plan:\n{}", outcome.planned.plan.explain());
//! println!("revenue = {}, simulated time = {:.3}s",
//!          outcome.rows[0][0], outcome.simulated_seconds);
//! ```
//!
//! # Serving many clients
//!
//! [`RobustDb`] is the single-tenant handle.  To serve concurrent
//! clients — one shared worker pool, admission control, per-query
//! deadlines and cancellation — convert it into a service:
//!
//! ```
//! use std::time::Duration;
//! use robust_qo::prelude::*;
//!
//! let data = TpchData::generate(&TpchConfig { scale_factor: 0.002, seed: 1 });
//! let service = RobustDb::new(data.into_catalog())
//!     .into_service(ServiceConfig::default().with_max_concurrent(4));
//! let session = service.session();
//!
//! let query = Query::over(&["lineitem"])
//!     .filter("lineitem", exp1_lineitem_predicate(30))
//!     .aggregate(AggExpr::count_star("n"));
//! let outcome = session.run(&query).expect("no deadline, no cancellation");
//! assert_eq!(outcome.rows.len(), 1);
//!
//! // A token makes the query cancellable / deadline-bounded, and the
//! // policy says what the run may publish (`Analyze` = EXPLAIN ANALYZE).
//! let token = QueryToken::with_deadline(Duration::from_secs(30));
//! if let Ok(analyzed) = session.execute(&query, &token, RunPolicy::Analyze) {
//!     println!("{}", analyzed.render());
//! }
//! println!("{}", service.stats());
//! ```

#![warn(missing_docs)]

pub use rqo_core as estimator;
pub use rqo_datagen as datagen;
pub use rqo_exec as exec;
pub use rqo_expr as expr;
pub use rqo_math as math;
pub use rqo_optimizer as optimizer;
pub use rqo_service as service;
pub use rqo_stats as stats;
pub use rqo_storage as storage;

pub use rqo_service::{
    AnalyzedOutcome, ClientError, Engine, ErrorCode, InsertSummary, NetClient, NetServer,
    NetServerConfig, NetStats, ProtoError, QueryOutcome, QueryReply, QueryService, ReplanEvent,
    Request, Response, RunMode, RunPolicy, ServiceError, ServiceStats, Session,
};

/// One-stop imports for applications and the examples.
pub mod prelude {
    pub use crate::{
        AnalyzedOutcome, ClientError, Engine, ErrorCode, InsertSummary, NetClient, NetServer,
        NetServerConfig, NetStats, ProtoError, QueryOutcome, QueryReply, QueryService, ReplanEvent,
        Request, Response, RobustDb, RunMode, RunPolicy, ServiceError, ServiceStats, Session,
    };
    pub use rqo_core::{
        AdaptivePolicy, CardinalityEstimator, ConfidenceThreshold,
        DistributionalHistogramEstimator, EstimateSource, EstimationRequest, EstimatorConfig,
        FeedbackStore, HistogramEstimator, MagicPolicy, OnTheFlyEstimator, PlanSelection, Prior,
        QueryToken, RobustEstimator, RobustnessLevel, SelectivityPosterior, ServiceConfig,
        StopReason,
    };
    pub use rqo_datagen::workload::{
        exp1_lineitem_predicate, exp2_part_predicate, exp3_dim_predicate, true_selectivity,
    };
    pub use rqo_datagen::{StarConfig, StarData, TpchConfig, TpchData};
    pub use rqo_exec::{AggExpr, ExecOptions, OpMetrics, PhysicalPlan};
    pub use rqo_expr::Expr;
    pub use rqo_optimizer::{CacheStats, PlanCache, PlanFingerprint};
    pub use rqo_optimizer::{Optimizer, PlannedQuery, Query};
    pub use rqo_stats::{DistinctSketch, RowReservoir, SynopsisRepository, TableSketches};
    pub use rqo_storage::{
        parse_date, Catalog, CostParams, DataType, Schema, StorageError, Table, TableBuilder, Value,
    };
}

use rqo_core::{
    AdaptivePolicy, ConfidenceThreshold, FeedbackStore, PlanSelection, RobustnessLevel,
    ServiceConfig,
};
use rqo_exec::ExecOptions;
use rqo_optimizer::{CacheStats, Optimizer, PlanCache, PlanFingerprint, PlannedQuery, Query};
use rqo_storage::{Catalog, CostParams, StorageError, Value};
use std::sync::Arc;

/// A batteries-included single-tenant database handle: catalog +
/// precomputed join synopses + a robust optimizer, behind one
/// `run(query)` call.
///
/// `RobustDb` is a thin wrapper over [`Engine`] — the same core the
/// concurrent [`QueryService`] shares across sessions.  Use
/// [`into_service`](Self::into_service) to turn this handle into a
/// multi-client service with admission control and per-query
/// deadlines/cancellation; the individual crates expose every layer for
/// finer control (custom estimators, cost parameters, multiple
/// samples, ...).
pub struct RobustDb {
    engine: Engine,
}

impl RobustDb {
    /// Builds the database over a catalog, precomputing 500-tuple join
    /// synopses (the paper's recommended size) for every table.
    pub fn new(catalog: Catalog) -> Self {
        Self {
            engine: Engine::new(catalog),
        }
    }

    /// Full-control constructor: cost parameters, synopsis sample size,
    /// and sampling seed.
    pub fn with_options(
        catalog: Catalog,
        params: CostParams,
        sample_size: usize,
        seed: u64,
    ) -> Self {
        Self {
            engine: Engine::with_options(catalog, params, sample_size, seed),
        }
    }

    /// Sets the adaptive re-optimization policy used under
    /// [`RunPolicy::Adaptive`]: guard bound, threshold escalation
    /// schedule, and re-plan budget.  [`AdaptivePolicy::disabled`] makes
    /// an adaptive run identical to [`run`](Self::run).
    pub fn with_adaptive_policy(mut self, policy: AdaptivePolicy) -> Self {
        self.engine.set_adaptive_policy(policy);
        self
    }

    /// The active adaptive re-optimization policy.
    pub fn adaptive_policy(&self) -> &AdaptivePolicy {
        self.engine.adaptive_policy()
    }

    /// Sets the executor's parallelism knobs (worker threads, morsel
    /// size).  Results and simulated costs are identical for every
    /// setting — only wall-clock time changes.
    pub fn with_exec_options(mut self, exec_options: ExecOptions) -> Self {
        self.engine.set_exec_options(exec_options);
        self
    }

    /// Sets the system-wide robustness preset (§6.2.5): conservative,
    /// moderate, or aggressive.  Individual queries may still override it
    /// with [`Query::with_hint`](rqo_optimizer::Query::with_hint).
    pub fn with_robustness(mut self, level: RobustnessLevel) -> Self {
        self.engine.set_robustness(level);
        self
    }

    /// Sets an explicit confidence threshold.
    pub fn with_threshold(mut self, threshold: ConfidenceThreshold) -> Self {
        self.engine.set_threshold(threshold);
        self
    }

    /// Sets the system-wide plan-selection mode: classic quantile
    /// pricing at the confidence threshold (`PlanSelection::Quantile`,
    /// the default), or expected-penalty minimization over the full
    /// selectivity posterior (`PlanSelection::ExpectedPenalty`).
    /// Individual queries may still override it with
    /// [`Query::with_selection`](rqo_optimizer::Query::with_selection).
    pub fn with_selection(mut self, selection: PlanSelection) -> Self {
        self.engine.set_selection(selection);
        self
    }

    /// Sets the plan cache's drift bound: a cached plan is evicted when
    /// a run publishes an observed selectivity whose q-error
    /// against the selectivity the plan was priced at exceeds `bound`.
    /// Resets the cache (the bound is part of its construction).
    pub fn with_drift_bound(mut self, bound: f64) -> Self {
        self.engine.set_drift_bound(bound);
        self
    }

    /// Converts this handle into a concurrent [`QueryService`]: one
    /// shared worker pool, admission control, and per-query
    /// deadline/cancellation over the same engine state (catalog,
    /// synopses, plan cache, feedback).
    pub fn into_service(self, config: ServiceConfig) -> QueryService {
        QueryService::new(self.engine, config)
    }

    /// The underlying shared-core engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Re-draws the precomputed samples (the `UPDATE STATISTICS`
    /// analogue), e.g. after bulk catalog changes or to average over
    /// sampling randomness.
    ///
    /// Advances the statistics epoch, which invalidates everything the
    /// old statistics justified: recorded feedback observations (they
    /// were measured against the old data shape and must not override
    /// fresh samples) and cached plans (their fingerprints embed the old
    /// epoch, and the stale entries are eagerly dropped).
    pub fn refresh_statistics(&mut self, seed: u64) {
        self.engine.refresh_statistics(seed);
    }

    /// The current statistics epoch: 0 at construction, bumped by every
    /// [`refresh_statistics`](Self::refresh_statistics).
    pub fn stats_epoch(&self) -> u64 {
        self.engine.stats_epoch()
    }

    /// The current catalog snapshot.  Owned (not a borrow): the catalog
    /// is a snapshot-swapped version under streaming ingest, so callers
    /// hold one consistent version for as long as they keep the `Arc`.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.engine.catalog()
    }

    /// Appends a batch of rows to one table (streaming ingest).
    ///
    /// Publishes a new catalog + statistics snapshot: rows are routed to
    /// their partitions, per-partition min/max and HLL distinct sketches
    /// and reservoir samples update incrementally, and invalidation is
    /// scoped to the touched table (its feedback epoch advances and only
    /// its cached plans drop — warm plans for other tables survive).
    ///
    /// # Errors
    ///
    /// Typed [`StorageError`] for unknown tables or rows failing
    /// arity/type/NULL validation; failed batches change nothing.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: &[Vec<Value>],
    ) -> Result<InsertSummary, StorageError> {
        self.engine.insert_rows(table, rows)
    }

    /// The active confidence threshold.
    pub fn threshold(&self) -> ConfidenceThreshold {
        self.engine.threshold()
    }

    /// The active plan-selection mode.
    pub fn selection(&self) -> PlanSelection {
        self.engine.selection()
    }

    /// The execution-feedback store.  Empty until a run publishes into it
    /// ([`RunPolicy::Analyze`] records each annotated operator's observed
    /// selectivity, [`RunPolicy::Adaptive`] its trips'); subsequent calls to
    /// [`optimizer`](Self::optimizer) (and hence [`run`](Self::run))
    /// replace matching estimates with the observed values.
    pub fn feedback(&self) -> &Arc<FeedbackStore> {
        self.engine.feedback()
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        self.engine.plan_cache()
    }

    /// A point-in-time snapshot of the plan cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// An optimizer bound to this database's statistics, threshold, and
    /// feedback store.
    pub fn optimizer(&self) -> Optimizer {
        self.engine.optimizer()
    }

    /// The fingerprint under which this database would cache a query's
    /// plan right now: canonical query form × effective confidence
    /// threshold (hint included) × current statistics epoch.
    pub fn fingerprint(&self, query: &Query) -> PlanFingerprint {
        self.engine.fingerprint(query)
    }

    /// Optimizes a query through the shared plan cache: a hit returns
    /// the memoized plan (one read-lock acquisition, no enumeration); a
    /// miss plans fresh and caches the result.
    ///
    /// Cached plans are *bit-identical* to freshly planned ones —
    /// planning is deterministic given statistics, threshold, and
    /// feedback, and all three are pinned by the fingerprint plus the
    /// drift/epoch invalidation rules.
    pub fn optimize(&self, query: &Query) -> Arc<PlannedQuery> {
        self.engine.optimize(query)
    }

    /// Optimizes and executes a query under `policy`, returning rows,
    /// the simulated cost, the est-vs-actual metrics tree and the
    /// re-plan event log.  [`RunPolicy`] says what each policy reads from
    /// and publishes into the plan cache and [`feedback`](Self::feedback):
    ///
    /// * `Analyze` is `EXPLAIN ANALYZE`: it plans fresh, and every
    ///   annotated operator's *observed* selectivity is recorded, so
    ///   re-optimizing the same (or an overlapping) query afterwards uses
    ///   the true selectivities in place of sample-based estimates —
    ///   cached plans priced too far from an observation are evicted, and
    ///   the next [`run`](Self::run) re-plans with feedback.
    /// * `Adaptive` arms a runtime cardinality guard on every blocking
    ///   operator whose output the plan priced.  When a guard trips,
    ///   execution pauses with the breaker's output materialized, the
    ///   query is re-optimized at an **escalated** confidence threshold
    ///   with the completed subtree's true selectivities, and execution
    ///   resumes with the finished fragment served from memory via a
    ///   grafted
    ///   [`PhysicalPlan::Materialized`](rqo_exec::PhysicalPlan::Materialized)
    ///   leaf.  Result rows are bit-identical to [`run`](Self::run) (for
    ///   aggregate-topped queries, whose output order is
    ///   plan-independent); trip points, re-plan counts and the total
    ///   tracked cost are identical at 1, 2, or 8 threads; re-planned
    ///   fragments never enter the plan cache.
    ///
    /// # Panics
    ///
    /// If the options set via
    /// [`with_exec_options`](Self::with_exec_options) carry a
    /// [`QueryToken`](rqo_core::QueryToken) that fires mid-query.
    /// Cancellable execution belongs to the service API
    /// ([`into_service`](Self::into_service)), which returns the stop
    /// reason instead.
    pub fn execute(&self, query: &Query, policy: RunPolicy) -> AnalyzedOutcome {
        self.engine
            .execute(query, self.engine.exec_options(), policy)
            .expect("single-tenant run has no cancellation source; use the service API")
    }

    /// A plain run: [`execute`](Self::execute) under [`RunPolicy::Run`].
    pub fn run(&self, query: &Query) -> QueryOutcome {
        self.execute(query, RunPolicy::Run).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn db() -> RobustDb {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 3,
        });
        RobustDb::new(data.into_catalog())
    }

    #[test]
    fn facade_runs_a_query() {
        let db = db();
        let q = Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(30))
            .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
            .aggregate(AggExpr::count_star("n"));
        let outcome = db.run(&q);
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(outcome.columns, vec!["revenue", "n"]);
        assert!(outcome.simulated_seconds > 0.0);
        assert!(outcome.estimated_seconds > 0.0);
        // The count must equal the true predicate count.
        let truth = (true_selectivity(
            db.catalog().table("lineitem").unwrap(),
            &exp1_lineitem_predicate(30),
        ) * db.catalog().table("lineitem").unwrap().num_rows() as f64)
            .round() as i64;
        assert_eq!(outcome.rows[0][1].as_int(), truth);
    }

    #[test]
    fn parallel_facade_matches_serial() {
        let db = db();
        let q = Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(60))
            .aggregate(AggExpr::count_star("n"));
        let serial = db.run(&q);
        let parallel_db = db.with_exec_options(ExecOptions::with_threads(4));
        let parallel = parallel_db.run(&q);
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.simulated_seconds, parallel.simulated_seconds);
    }

    #[test]
    fn robustness_levels_change_threshold() {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 3,
        });
        let db = RobustDb::new(data.into_catalog()).with_robustness(RobustnessLevel::Conservative);
        assert_eq!(db.threshold().percent(), 95.0);
        let db = db.with_threshold(ConfidenceThreshold::new(0.42));
        assert_eq!(db.threshold().percent(), 42.0);
    }

    #[test]
    fn refresh_statistics_changes_samples() {
        let mut db = db();
        let q = Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(95))
            .aggregate(AggExpr::count_star("n"));
        let before = db.run(&q).rows[0][0].clone();
        db.refresh_statistics(999);
        let after = db.run(&q).rows[0][0].clone();
        // The *answer* must be identical regardless of the sample draw —
        // statistics affect the plan, never the result.
        assert_eq!(before, after);
    }

    #[test]
    fn facade_converts_into_a_service() {
        let service = db().into_service(ServiceConfig::default());
        let q = Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(30))
            .aggregate(AggExpr::count_star("n"));
        let session = service.session();
        let through_service = session.run(&q).expect("no cancellation source");
        let reference = db().run(&q);
        assert_eq!(through_service.rows, reference.rows);
        assert_eq!(
            through_service.simulated_seconds,
            reference.simulated_seconds
        );
        assert!(service.stats().slots_balanced());
    }
}
