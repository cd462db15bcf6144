//! Sweep runner and reporting utilities shared by all `fig*` binaries.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;

use rqo_core::{
    CardinalityEstimator, ConfidenceThreshold, EstimatorConfig, HistogramEstimator, RobustEstimator,
};
use rqo_math::RunningStats;
use rqo_optimizer::{Optimizer, Query};
use rqo_stats::SynopsisRepository;
use rqo_storage::{Catalog, CostParams};

/// Shared experiment configuration, parsed from command-line flags.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// TPC-H-like scale factor (1.0 = the paper's 6M-row `lineitem`).
    pub scale_factor: f64,
    /// Fact-table rows for the star schema (paper: 10M).
    pub fact_rows: usize,
    /// Sample/synopsis size in tuples (paper default: 500).
    pub sample_size: usize,
    /// Independent sample draws averaged per data point (paper: 12–20).
    pub repeats: usize,
    /// Confidence thresholds to sweep (paper: 5/20/50/80/95%).
    pub thresholds: Vec<f64>,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Executor worker threads: `1` runs morsels inline, `n > 1` on one
    /// `WorkerPool` of `n` workers shared by the whole sweep.  Parallelism
    /// changes wall-clock time only; every CSV is thread-count invariant.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scale_factor: 0.05,
            fact_rows: 1_000_000,
            sample_size: 500,
            repeats: 12,
            thresholds: vec![0.05, 0.20, 0.50, 0.80, 0.95],
            seed: 20050614, // the paper's conference date
            out_dir: "results".to_string(),
            threads: 1,
        }
    }
}

impl RunConfig {
    /// Parses `--scale F --fact-rows N --sample-size N --repeats N
    /// --seed N --out DIR --threads N --quick` from `std::env::args`.
    /// `--quick` shrinks scale and repeats for smoke runs.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args)
    }

    /// Parses a flag list (separated out for testability).
    pub fn parse(args: &[String]) -> Self {
        let mut cfg = Self::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--quick" {
                cfg.scale_factor = 0.01;
                cfg.fact_rows = 60_000;
                cfg.repeats = 3;
                i += 1;
                continue;
            }
            const KNOWN: [&str; 7] = [
                "--scale",
                "--fact-rows",
                "--sample-size",
                "--repeats",
                "--seed",
                "--out",
                "--threads",
            ];
            assert!(
                KNOWN.contains(&flag),
                "unknown flag {flag:?} (expected one of {KNOWN:?} or --quick)"
            );
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing value after {flag}"));
            match flag {
                "--scale" => cfg.scale_factor = value.parse().expect("--scale"),
                "--fact-rows" => cfg.fact_rows = value.parse().expect("--fact-rows"),
                "--sample-size" => cfg.sample_size = value.parse().expect("--sample-size"),
                "--repeats" => cfg.repeats = value.parse().expect("--repeats"),
                "--seed" => cfg.seed = value.parse().expect("--seed"),
                "--out" => cfg.out_dir = value.to_string(),
                "--threads" => cfg.threads = value.parse().expect("--threads"),
                _ => unreachable!("validated above"),
            }
            i += 2;
        }
        cfg
    }
}

/// One plotted point: an estimator's behaviour at one true selectivity.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Estimator label (`T=80%`, `histogram`).
    pub estimator: String,
    /// True (measured) selectivity of the query instance.
    pub x: f64,
    /// Mean simulated execution time in seconds, across sample repeats.
    pub mean_s: f64,
    /// Standard deviation across sample repeats.
    pub std_s: f64,
    /// The most frequently chosen plan shape at this point.
    pub dominant_shape: String,
}

/// A full scenario result: per-point rows plus the per-estimator summary
/// across the whole workload (the `(avg, std)` scatter of Figures 9b, 10b,
/// 11b, 12).
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Per-selectivity series.
    pub points: Vec<SweepRow>,
    /// `(estimator, workload mean seconds, workload std-dev seconds)`.
    pub summary: Vec<(String, f64, f64)>,
}

/// Runs one experimental scenario: for every query instance and every
/// estimator configuration, optimize and execute, averaging execution
/// time over `repeats` independent statistic samples.
///
/// Plan *execution* is memoized on `(query index, plan tree)`: the
/// simulated executor is deterministic, so re-running an identical plan
/// is pure waste.  This is what makes 5-threshold × 20-repeat sweeps over
/// 16 query instances tractable.
pub fn run_scenario(
    catalog: &Arc<Catalog>,
    params: &CostParams,
    queries: &[(f64, Query)],
    cfg: &RunConfig,
) -> ScenarioResult {
    let exec_opts = rqo_exec::ExecOptions::with_threads(cfg.threads);
    let mut exec_cache: HashMap<(usize, String), f64> = HashMap::new();
    let mut run_plan = |qi: usize, plan: &rqo_exec::PhysicalPlan| -> f64 {
        // Memo key = (query, rendered plan).  `explain()` omits index-seek
        // residuals, but those are fully determined by the query (keyed by
        // `qi`) plus the rendered range columns, so the key is collision-
        // free for plans of the same query.
        let key = (qi, plan.explain());
        if let Some(&s) = exec_cache.get(&key) {
            return s;
        }
        let (_, cost) = rqo_exec::execute_with(plan, catalog, params, &exec_opts);
        let s = cost.seconds(params);
        exec_cache.insert(key, s);
        s
    };

    // label -> per-point time stats and shape votes.
    let mut point_stats: HashMap<(String, usize), (RunningStats, Vec<String>)> = HashMap::new();
    let mut pooled: HashMap<String, RunningStats> = HashMap::new();
    let mut labels: Vec<String> = Vec::new();

    // Robust estimators: one synopsis repository per repeat, shared by all
    // thresholds (as in the paper: one precomputed sample, many queries).
    for r in 0..cfg.repeats {
        let repo = Arc::new(SynopsisRepository::build_all(
            catalog,
            cfg.sample_size,
            cfg.seed.wrapping_add(r as u64 * 7919),
        ));
        for &t in &cfg.thresholds {
            let label = format!("T={}%", (t * 100.0).round());
            if !labels.contains(&label) {
                labels.push(label.clone());
            }
            let est = RobustEstimator::new(
                Arc::clone(&repo),
                EstimatorConfig::with_threshold(ConfidenceThreshold::new(t)),
            );
            let opt = Optimizer::new(Arc::clone(catalog), *params, Arc::new(est));
            for (qi, (_, query)) in queries.iter().enumerate() {
                let planned = opt.optimize(query);
                let secs = run_plan(qi, &planned.plan);
                let entry = point_stats
                    .entry((label.clone(), qi))
                    .or_insert_with(|| (RunningStats::new(), Vec::new()));
                entry.0.push(secs);
                entry.1.push(planned.shape());
                pooled.entry(label.clone()).or_default().push(secs);
            }
        }
    }

    // Histogram baseline: deterministic, one pass.
    {
        let label = "histogram".to_string();
        labels.push(label.clone());
        let est: Arc<dyn CardinalityEstimator> =
            Arc::new(HistogramEstimator::build_default(catalog));
        let opt = Optimizer::new(Arc::clone(catalog), *params, est);
        for (qi, (_, query)) in queries.iter().enumerate() {
            let planned = opt.optimize(query);
            let secs = run_plan(qi, &planned.plan);
            let entry = point_stats
                .entry((label.clone(), qi))
                .or_insert_with(|| (RunningStats::new(), Vec::new()));
            entry.0.push(secs);
            entry.1.push(planned.shape());
            // Weight the deterministic baseline equally in the pooled
            // summary by replicating it per repeat.
            for _ in 0..cfg.repeats {
                pooled.entry(label.clone()).or_default().push(secs);
            }
        }
    }

    let mut points = Vec::new();
    for label in &labels {
        for (qi, (x, _)) in queries.iter().enumerate() {
            let (stats, shapes) = &point_stats[&(label.clone(), qi)];
            points.push(SweepRow {
                estimator: label.clone(),
                x: *x,
                mean_s: stats.mean(),
                std_s: stats.std_dev(),
                dominant_shape: dominant(shapes),
            });
        }
    }
    let summary = labels
        .iter()
        .map(|l| {
            let s = &pooled[l];
            (l.clone(), s.mean(), s.std_dev())
        })
        .collect();
    ScenarioResult { points, summary }
}

/// The most frequent shape; a tie goes to the shape seen first, so the
/// label never depends on hash order.
fn dominant(shapes: &[String]) -> String {
    let mut counts: HashMap<&String, usize> = HashMap::new();
    for s in shapes {
        *counts.entry(s).or_insert(0) += 1;
    }
    let top = counts.values().copied().max().unwrap_or(0);
    shapes
        .iter()
        .find(|s| counts[s] == top)
        .cloned()
        .unwrap_or_default()
}

/// Writes a CSV (header + rows) under the config's output directory and
/// echoes it to stdout.
pub fn write_csv(cfg: &RunConfig, name: &str, header: &str, rows: &[String]) {
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let path = format!("{}/{name}.csv", cfg.out_dir);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write");
    println!("# {path}");
    println!("{header}");
    for row in rows {
        writeln!(f, "{row}").expect("write");
        println!("{row}");
    }
    println!();
}

/// Renders a scenario's per-point series as CSV rows.
pub fn points_csv(result: &ScenarioResult) -> Vec<String> {
    result
        .points
        .iter()
        .map(|p| {
            format!(
                "{},{:.6},{:.4},{:.4},{}",
                p.estimator, p.x, p.mean_s, p.std_s, p.dominant_shape
            )
        })
        .collect()
}

/// Renders a scenario's summary as CSV rows.
pub fn summary_csv(result: &ScenarioResult) -> Vec<String> {
    result
        .summary
        .iter()
        .map(|(l, mean, std)| format!("{l},{mean:.4},{std:.4}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_datagen::{workload, TpchConfig, TpchData};
    use rqo_exec::AggExpr;

    #[test]
    fn parse_threads_flag() {
        let args: Vec<String> = ["--threads", "8", "--repeats", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = RunConfig::parse(&args);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.repeats, 2);
        assert_eq!(RunConfig::default().threads, 1);
    }

    #[test]
    fn dominant_gives_ties_to_the_first_seen_shape() {
        // Every call builds a fresh `HashMap`, whose iteration order
        // differs from call to call within one process.
        let shapes = ["b", "a", "c", "a", "b", "c"].map(String::from);
        for _ in 0..64 {
            assert_eq!(dominant(&shapes), "b");
        }
        assert_eq!(dominant(&["x".into(), "y".into(), "y".into()]), "y");
        assert_eq!(dominant(&[]), "");
    }

    #[test]
    fn scenario_runner_produces_all_series() {
        let cat = Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.005,
                seed: 5,
            })
            .into_catalog(),
        );
        let queries: Vec<(f64, Query)> = [60i64, 130]
            .iter()
            .map(|&q| {
                let pred = workload::exp1_lineitem_predicate(q);
                let x = workload::true_selectivity(cat.table("lineitem").unwrap(), &pred);
                (
                    x,
                    Query::over(&["lineitem"])
                        .filter("lineitem", pred)
                        .aggregate(AggExpr::sum("l_extendedprice", "rev")),
                )
            })
            .collect();
        let cfg = RunConfig {
            repeats: 2,
            sample_size: 200,
            thresholds: vec![0.5, 0.95],
            ..RunConfig::default()
        };
        let params = CostParams::default();
        let result = run_scenario(&cat, &params, &queries, &cfg);
        // 2 thresholds + histogram = 3 estimators × 2 points.
        assert_eq!(result.points.len(), 6);
        assert_eq!(result.summary.len(), 3);
        for p in &result.points {
            assert!(p.mean_s > 0.0);
            assert!(!p.dominant_shape.is_empty());
        }
        assert_eq!(points_csv(&result).len(), 6);
        assert_eq!(summary_csv(&result).len(), 3);
    }
}
