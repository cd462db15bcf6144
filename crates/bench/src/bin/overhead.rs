//! §6.1: estimation overhead and storage parity.
//!
//! Measures (wall-clock) query-optimization time under the robust
//! sampling estimator vs. the histogram baseline, and compares the bytes
//! of summary statistics each maintains.  The paper measured 30–40% more
//! optimization time for an unoptimized sampling prototype, with a
//! 500-tuple sample occupying about the same space as 250-bucket
//! histograms on each attribute.

use std::sync::Arc;
use std::time::Instant;

use rqo_bench::harness::{write_csv, RunConfig};
use rqo_bench::scenarios::{exp1_queries, exp2_queries, tpch_catalog};
use rqo_core::{
    CardinalityEstimator, ConfidenceThreshold, EstimatorConfig, HistogramEstimator, RobustEstimator,
};
use rqo_optimizer::Optimizer;
use rqo_stats::SynopsisRepository;
use rqo_storage::CostParams;

fn main() {
    let cfg = RunConfig::from_args();
    let catalog = tpch_catalog(&cfg);

    let repo = Arc::new(SynopsisRepository::build_all(
        &catalog,
        cfg.sample_size,
        cfg.seed,
    ));
    let hist = HistogramEstimator::build_default(&catalog);
    println!(
        "# storage: synopses {} bytes vs histograms {} bytes (paper: rough parity per column)",
        repo.stored_bytes(),
        hist.stored_bytes()
    );

    let robust: Arc<dyn CardinalityEstimator> = Arc::new(RobustEstimator::new(
        Arc::clone(&repo),
        EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.8)),
    ));
    let hist: Arc<dyn CardinalityEstimator> = Arc::new(hist);

    let mut queries = exp1_queries(&catalog);
    queries.extend(exp2_queries(&catalog));
    let reps = 20usize;

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for (label, est) in [("robust-sampling", &robust), ("histogram-avi", &hist)] {
        let opt = Optimizer::new(Arc::clone(&catalog), CostParams::default(), Arc::clone(est));
        // Warm up (first pass populates caches and page maps).
        for (_, q) in &queries {
            let _ = opt.optimize(q);
        }
        let start = Instant::now();
        let mut calls = 0usize;
        for _ in 0..reps {
            for (_, q) in &queries {
                calls += opt.optimize(q).estimator_calls;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_query_us = elapsed * 1e6 / (reps * queries.len()) as f64;
        times.push(per_query_us);
        rows.push(format!(
            "{label},{per_query_us:.1},{}",
            calls / (reps * queries.len())
        ));
    }
    write_csv(
        &cfg,
        "overhead_optimization",
        "estimator,optimize_time_us_per_query,estimator_calls_per_query",
        &rows,
    );
    println!(
        "# robust / histogram optimization-time ratio: {:.2}x (paper: 1.3-1.4x on an unoptimized prototype)",
        times[0] / times[1]
    );
}
