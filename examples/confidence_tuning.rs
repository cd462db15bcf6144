//! Working with selectivity posteriors directly: what the confidence
//! threshold actually does, and the §3.5 extensions (magic distributions,
//! GROUP-BY distinct estimation).
//!
//! ```sh
//! cargo run --release --example confidence_tuning
//! ```

use std::sync::Arc;

use robust_qo::estimator::groupby::estimate_group_count;
use robust_qo::prelude::*;
use robust_qo::stats::JoinSynopsis;

fn main() {
    // --- 1. The posterior, by hand (the paper's §3.4 walkthrough).
    println!("== posterior from a sample: 10 of 100 tuples matched ==");
    let posterior = SelectivityPosterior::from_observation(10, 100, Prior::Jeffreys);
    println!(
        "MLE = {:.3}, posterior mean = {:.3}, std dev = {:.3}",
        posterior.mle(),
        posterior.mean(),
        posterior.std_dev()
    );
    for pct in [20.0, 50.0, 80.0, 95.0] {
        let t = ConfidenceThreshold::from_percent(pct);
        println!(
            "  selectivity at T={pct:>4}%: {:.4}   (paper quotes 7.8% / 10.1% / 12.8% \
             for 20/50/80)",
            posterior.at_threshold(t)
        );
    }
    let (lo, hi) = posterior.credible_interval(0.95);
    println!("  95% credible interval: [{lo:.4}, {hi:.4}]");

    // --- 2. Sample size is what narrows the posterior; the prior barely
    //        matters (Figure 4).
    println!("\n== n=100 vs n=500 at the same 10% match rate ==");
    for (k, n) in [(10usize, 100usize), (50, 500)] {
        let j = SelectivityPosterior::from_observation(k, n, Prior::Jeffreys);
        let u = SelectivityPosterior::from_observation(k, n, Prior::Uniform);
        println!(
            "  n={n:>4}: std dev = {:.4}; |jeffreys - uniform| at T=80% = {:.5}",
            j.std_dev(),
            (j.at_threshold(ConfidenceThreshold::new(0.8))
                - u.at_threshold(ConfidenceThreshold::new(0.8)))
            .abs()
        );
    }

    // --- 2b. Workload knowledge as a prior: if past queries of this
    //         template clustered near 10% selectivity, fitting a prior
    //         from that history sharpens future posteriors (§3.3's
    //         "prior knowledge about the query workload").
    println!("\n== workload-fitted prior ==");
    let history = [0.09, 0.10, 0.11, 0.095, 0.105, 0.1, 0.102, 0.098];
    let fitted = Prior::fit_from_history(&history, 200.0);
    let with_fit = SelectivityPosterior::from_observation(2, 20, fitted);
    let with_jeffreys = SelectivityPosterior::from_observation(2, 20, Prior::Jeffreys);
    println!(
        "  posterior std dev after a 20-tuple sample: jeffreys {:.4}, fitted {:.4}",
        with_jeffreys.std_dev(),
        with_fit.std_dev()
    );

    // --- 3. Magic distributions: the no-statistics fallback also obeys
    //        the threshold.
    println!("\n== magic fallback for a predicate with no statistics ==");
    for pct in [20.0, 50.0, 80.0, 95.0] {
        println!(
            "  assumed selectivity at T={pct:>4}%: {:.4}",
            robust_qo::estimator::magic::selectivity(ConfidenceThreshold::from_percent(pct))
        );
    }

    // --- 4. GROUP BY result-size estimation from the same samples.
    println!("\n== GROUP BY cardinality from a join synopsis ==");
    let catalog = Arc::new(
        TpchData::generate(&TpchConfig {
            scale_factor: 0.01,
            seed: 5,
        })
        .into_catalog(),
    );
    let synopsis = JoinSynopsis::build(&catalog, "lineitem", 500, 9);
    let rows = catalog.table("lineitem").unwrap().num_rows();
    for cols in [vec!["p_brand"], vec!["p_brand", "p_container"]] {
        let est = estimate_group_count(&synopsis, &[], "part", &cols, rows);
        println!("  estimated groups for GROUP BY {cols:?}: {est:.0}");
    }
    println!("  (p_brand has 25 distinct values; brand x container has up to 1000)");
}
