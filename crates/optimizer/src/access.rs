//! Access-path selection for a single table.
//!
//! For a table with predicate `P = c₁ ∧ c₂ ∧ …`, the candidates are:
//!
//! * a **sequential scan** with the whole predicate pushed down — cost
//!   independent of selectivity;
//! * an **index seek** on each range-shaped conjunct whose column is
//!   indexed, with the remaining conjuncts as a residual filter — cost
//!   driven by that conjunct's *marginal* selectivity;
//! * an **index intersection** over all indexed range conjuncts — fixed
//!   cost driven by the marginals, variable cost driven by the *joint*
//!   selectivity of the ranges.  This is where the robust estimator
//!   changes the game: the joint selectivity is exactly what correlated
//!   data hides from AVI-based estimation.

use rqo_exec::{IndexRange, PhysicalPlan};
use rqo_expr::Expr;

use crate::enumerate::{Candidate, PlanContext};
use crate::query::Query;

/// Generates access-path candidates for one of `query`'s tables.
pub fn access_paths(ctx: &PlanContext<'_>, query: &Query, table: &str) -> Vec<Candidate> {
    let predicate = query.predicate_for(table);

    let scan = PhysicalPlan::SeqScan {
        table: table.to_string(),
        predicate: predicate.cloned(),
    };
    let mut plans = vec![scan];

    if let Some(predicate) = predicate {
        // Split the predicate into indexed range conjuncts vs. everything
        // else.
        let conjuncts = predicate.conjuncts();
        let mut ranges: Vec<(usize, IndexRange)> = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some((col, lo, hi)) = c.as_column_range() {
                if ctx.catalog.secondary_index(table, col).is_some() {
                    ranges.push((
                        i,
                        IndexRange {
                            column: col.to_string(),
                            lo,
                            hi,
                        },
                    ));
                }
            }
        }

        // Residual for a set of consumed conjunct indexes.
        let residual = |consumed: &[usize]| -> Option<Expr> {
            let rest: Vec<Expr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(i, _)| !consumed.contains(i))
                .map(|(_, c)| (*c).clone())
                .collect();
            Expr::conjunction(rest)
        };

        // Single-index seeks.
        for (i, range) in &ranges {
            plans.push(PhysicalPlan::IndexSeek {
                table: table.to_string(),
                range: range.clone(),
                residual: residual(&[*i]),
            });
        }

        // Index intersection over all indexed ranges.
        if ranges.len() >= 2 {
            let consumed: Vec<usize> = ranges.iter().map(|(i, _)| *i).collect();
            plans.push(PhysicalPlan::IndexIntersection {
                table: table.to_string(),
                ranges: ranges.iter().map(|(_, r)| r.clone()).collect(),
                residual: residual(&consumed),
            });
        }
    }

    plans
        .into_iter()
        .map(|plan| Candidate::new(ctx, query, plan, &[]))
        .collect()
}
