//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Collapse strategy** — the paper's percentile rule vs. the
//!    posterior mean (the least-expected-cost literature, for linear
//!    costs) vs. the raw maximum-likelihood estimate, on Experiment 1.
//! 2. **Prior** — Jeffreys vs. uniform, on the same workload (expected:
//!    indistinguishable, per Figure 4).
//! 3. **Join synopsis vs. independent per-table samples with AVI** — on
//!    the Experiment 2 join, by estimation accuracy (the reason join
//!    synopses exist, §3.2).

use std::sync::Arc;

use rqo_bench::harness::{write_csv, RunConfig};
use rqo_bench::scenarios::{exp1_queries, tpch_catalog};
use rqo_core::{
    CardinalityEstimator, ConfidenceThreshold, EstimationRequest, EstimationStrategy,
    EstimatorConfig, OracleEstimator, Prior, RobustEstimator,
};
use rqo_datagen::workload;
use rqo_math::RunningStats;
use rqo_optimizer::Optimizer;
use rqo_stats::SynopsisRepository;
use rqo_storage::CostParams;

fn main() {
    let cfg = RunConfig::from_args();
    let catalog = tpch_catalog(&cfg);
    let params = CostParams::default();
    let queries = exp1_queries(&catalog);

    // --- Ablation 1 & 2: strategy and prior, via executed workload cost.
    let strategies: Vec<(&str, EstimatorConfig)> = vec![
        (
            "percentile-T80-jeffreys",
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.8)),
        ),
        (
            "percentile-T80-uniform",
            EstimatorConfig {
                prior: Prior::Uniform,
                ..EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.8))
            },
        ),
        (
            "posterior-mean",
            EstimatorConfig {
                strategy: EstimationStrategy::PosteriorMean,
                ..EstimatorConfig::default()
            },
        ),
        (
            "maximum-likelihood",
            EstimatorConfig {
                strategy: EstimationStrategy::MaximumLikelihood,
                ..EstimatorConfig::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, config) in &strategies {
        let mut pooled = RunningStats::new();
        let mut cache: std::collections::HashMap<(usize, String), f64> =
            std::collections::HashMap::new();
        for r in 0..cfg.repeats {
            let repo = Arc::new(SynopsisRepository::build_all(
                &catalog,
                cfg.sample_size,
                cfg.seed.wrapping_add(r as u64 * 104729),
            ));
            let est = RobustEstimator::new(repo, *config);
            let opt = Optimizer::new(Arc::clone(&catalog), params, Arc::new(est));
            for (qi, (_, q)) in queries.iter().enumerate() {
                let planned = opt.optimize(q);
                let key = (qi, planned.plan.explain());
                let secs = *cache.entry(key).or_insert_with(|| {
                    rqo_exec::execute(&planned.plan, &catalog, &params)
                        .1
                        .seconds(&params)
                });
                pooled.push(secs);
            }
        }
        rows.push(format!(
            "{label},{:.4},{:.4}",
            pooled.mean(),
            pooled.std_dev()
        ));
    }
    write_csv(
        &cfg,
        "ablation_strategies",
        "strategy,avg_time_s,std_dev_s",
        &rows,
    );

    // --- Ablation 3: synopsis vs. AVI-composed estimates, by accuracy on
    // the Experiment 2 join selectivity.
    let oracle = OracleEstimator::new(Arc::clone(&catalog));
    let repo = Arc::new(SynopsisRepository::build_all(
        &catalog,
        cfg.sample_size,
        cfg.seed,
    ));
    let robust = RobustEstimator::new(
        Arc::clone(&repo),
        EstimatorConfig {
            strategy: EstimationStrategy::MaximumLikelihood,
            ..EstimatorConfig::default()
        },
    );
    let mut rows = Vec::new();
    for start in workload::exp2_window_starts() {
        let pred = workload::exp2_part_predicate(start);
        let tables = vec!["lineitem", "orders", "part"];
        let request = EstimationRequest::new(tables.clone(), vec![("part", &pred)]);
        let truth = oracle.estimate(&request).selectivity;
        let synopsis_est = robust.estimate(&request).selectivity;
        // AVI composition: estimate the part predicate on part's own
        // sample, then assume independence across the join (here the FK
        // is uniform so AVI is accidentally unbiased for the mean, but
        // each marginal conjunct is still estimated independently).
        let conjuncts: Vec<&rqo_expr::Expr> = pred.conjuncts();
        let avi: f64 = conjuncts
            .iter()
            .map(|c| {
                let req = EstimationRequest::single("part", c);
                robust.estimate(&req).selectivity
            })
            .product();
        rows.push(format!("{start},{truth:.5},{synopsis_est:.5},{avi:.5}"));
    }
    write_csv(
        &cfg,
        "ablation_synopsis_vs_avi",
        "window_start,true_selectivity,synopsis_estimate,avi_estimate",
        &rows,
    );
    println!("# AVI multiplies per-conjunct marginals and cannot track the joint selectivity.");
}
