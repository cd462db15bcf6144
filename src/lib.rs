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
//! | [`service`] | the two handles: [`Engine`] in process, [`QueryService`] shared (admission control over one pool) |
//!
//! # Quickstart
//!
//! [`Engine`] is the in-process handle: build it over a catalog,
//! configure it with its `with_*` builders, and run queries on it.
//!
//! ```
//! use robust_qo::prelude::*;
//!
//! // Generate a small TPC-H-like database and register statistics.
//! let data = TpchData::generate(&TpchConfig { scale_factor: 0.002, seed: 1 });
//! let engine = Engine::new(data.into_catalog())
//!     .with_robustness(RobustnessLevel::Moderate);
//!
//! // The paper's Experiment-1 query: two correlated date predicates.
//! let query = Query::over(&["lineitem"])
//!     .filter("lineitem", exp1_lineitem_predicate(30))
//!     .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
//!
//! let outcome = engine.run(&query);
//! println!("plan:\n{}", outcome.planned.plan.explain());
//! println!("revenue = {}, simulated time = {:.3}s",
//!          outcome.rows[0][0], outcome.simulated_seconds);
//!
//! // `run` is serial.  Options are per run: a 4-worker pool changes the
//! // wall-clock time, never the rows or the simulated cost.
//! let parallel = engine
//!     .execute(&query, &ExecOptions::with_threads(4), RunPolicy::Run)
//!     .expect("no token, so the run cannot stop");
//! assert_eq!(parallel.outcome.rows, outcome.rows);
//! ```
//!
//! # Serving many clients
//!
//! [`QueryService`] is the shared handle.  It serves concurrent clients
//! — one shared worker pool, admission control, per-query deadlines and
//! cancellation — over one engine, and each client holds a clone:
//!
//! ```
//! use std::time::Duration;
//! use robust_qo::prelude::*;
//!
//! let data = TpchData::generate(&TpchConfig { scale_factor: 0.002, seed: 1 });
//! let service = Engine::new(data.into_catalog())
//!     .into_service(ServiceConfig::default().with_max_concurrent(4));
//!
//! let query = Query::over(&["lineitem"])
//!     .filter("lineitem", exp1_lineitem_predicate(30))
//!     .aggregate(AggExpr::count_star("n"));
//! let outcome = service.run(&query).expect("no deadline, no cancellation");
//! assert_eq!(outcome.rows.len(), 1);
//!
//! // A token makes the query cancellable / deadline-bounded, and the
//! // policy says what the run may publish (`Analyze` = EXPLAIN ANALYZE).
//! let token = QueryToken::with_deadline(Duration::from_secs(30));
//! if let Ok(analyzed) = service.execute(&query, &token, RunPolicy::Analyze) {
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
    Request, Response, RunMode, RunPolicy, ServiceError, ServiceStats,
};

/// The former single-tenant handle, now [`Engine`] itself.  Kept only for
/// the out-of-workspace `benchmark/` crate until its contract change
/// (ROADMAP item 11).
pub type RobustDb = Engine;
pub use rqo_service::Session;

/// One-stop imports for applications and the examples.
pub mod prelude {
    pub use crate::{
        AnalyzedOutcome, ClientError, Engine, ErrorCode, InsertSummary, NetClient, NetServer,
        NetServerConfig, NetStats, ProtoError, QueryOutcome, QueryReply, QueryService, ReplanEvent,
        Request, Response, RunMode, RunPolicy, ServiceError, ServiceStats,
    };
    pub use rqo_core::{
        CardinalityEstimator, ConfidenceThreshold, EstimateSource, EstimationRequest,
        EstimatorConfig, FeedbackStore, HistogramEstimator, PlanSelection, Prior, QueryToken,
        RequestKey, RobustEstimator, RobustnessLevel, SelectivityPosterior, ServiceConfig,
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
    pub use rqo_stats::SynopsisRepository;
    pub use rqo_storage::{
        parse_date, Catalog, CostParams, DataType, Schema, StorageError, Table, TableBuilder, Value,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn db() -> Engine {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 3,
        });
        Engine::new(data.into_catalog())
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
        let parallel = db
            .run_opts(&q, &ExecOptions::with_threads(4))
            .expect("no token");
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.simulated_seconds, parallel.simulated_seconds);
    }

    #[test]
    fn robustness_levels_change_threshold() {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 3,
        });
        let db = Engine::new(data.into_catalog()).with_robustness(RobustnessLevel::Conservative);
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
        let through_service = service.run(&q).expect("no cancellation source");
        let reference = db().run(&q);
        assert_eq!(through_service.rows, reference.rows);
        assert_eq!(
            through_service.simulated_seconds,
            reference.simulated_seconds
        );
        assert!(service.stats().slots_balanced());
    }
}
