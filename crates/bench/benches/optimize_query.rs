//! End-to-end optimization-time benchmark (§6.1's headline measurement):
//! full plan search for the paper's query scenarios under the robust
//! estimator vs. the histogram baseline.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rqo_core::{
    CardinalityEstimator, ConfidenceThreshold, EstimatorConfig, HistogramEstimator, RobustEstimator,
};
use rqo_datagen::{workload, TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::{Optimizer, Query};
use rqo_stats::SynopsisRepository;
use rqo_storage::CostParams;

fn bench_optimize(c: &mut Criterion) {
    let catalog = Arc::new(
        TpchData::generate(&TpchConfig {
            scale_factor: 0.02,
            seed: 9,
        })
        .into_catalog(),
    );
    let repo = Arc::new(SynopsisRepository::build_all(&catalog, 500, 3));
    let robust: Arc<dyn CardinalityEstimator> = Arc::new(RobustEstimator::new(
        repo,
        EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.8)),
    ));
    let hist: Arc<dyn CardinalityEstimator> = Arc::new(HistogramEstimator::build_default(&catalog));

    let single = Query::over(&["lineitem"])
        .filter("lineitem", workload::exp1_lineitem_predicate(80))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
    let join3 = Query::over(&["lineitem", "orders", "part"])
        .filter("part", workload::exp2_part_predicate(250))
        .aggregate(AggExpr::count_star("n"));

    for (est_name, est) in [("robust", &robust), ("histogram", &hist)] {
        let opt = Optimizer::new(Arc::clone(&catalog), CostParams::default(), Arc::clone(est));
        let mut group = c.benchmark_group(format!("optimize_{est_name}"));
        group.bench_function("single_table", |b| {
            b.iter(|| std::hint::black_box(opt.optimize(&single).estimated_cost_ms))
        });
        group.bench_function("three_way_join", |b| {
            b.iter(|| std::hint::black_box(opt.optimize(&join3).estimated_cost_ms))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_optimize
}
criterion_main!(benches);
