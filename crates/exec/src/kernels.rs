//! Mid-pipeline kernel: batch filter.
//!
//! This backs the executor's `Filter` node.  CPU charges stay in the
//! executor (they are input-size-based).

use rqo_expr::columnar::{select, Candidates};
use rqo_expr::Expr;

use crate::batch::Batch;
use crate::columnar::SelVec;
use crate::morsel::{run_morsels, ExecOptions};

/// Filter: evaluates the bound predicate over the batch's columns morsel
/// by morsel and gathers the survivors with one `take` per column.
/// Returns `None` when the query's token fired mid-batch.
pub fn filter_batch(batch: Batch, bound: &Expr, opts: &ExecOptions) -> Option<Batch> {
    let n = batch.len();
    let parts = run_morsels(opts, n, |morsel| {
        select(bound, batch.columns(), Candidates::Range(morsel))
    })?;
    Some(batch.take(SelVec::new(parts.concat(), n).ids()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{DataType, Schema, Value};

    /// Mixed-type batch with NULLs sprinkled in.
    fn batch() -> Batch {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Float(i as f64 * 0.5),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                ]
            })
            .collect();
        Batch::from_rows(schema, rows)
    }

    fn row_filter(b: &Batch, bound: &Expr) -> Vec<Vec<Value>> {
        b.to_rows()
            .into_iter()
            .filter(|row| rqo_expr::eval_bool(bound, row))
            .collect()
    }

    #[test]
    fn filter_matches_row_path() {
        let b = batch();
        let preds = [
            Expr::col("a").ge(Expr::lit(100i64)),
            Expr::col("a")
                .lt(Expr::lit(50i64))
                .and(Expr::col("c").eq(Expr::lit("even"))),
            Expr::col("b").ge(Expr::lit(1e9)),      // none selected
            Expr::col("a").ge(Expr::lit(i64::MIN)), // NULLs still dropped
        ];
        for pred in &preds {
            let bound = pred.bind(&b.schema).unwrap();
            let expect = row_filter(&b, &bound);
            let serial = filter_batch(b.clone(), &bound, &ExecOptions::default()).unwrap();
            assert_eq!(serial.to_rows(), expect, "pred={pred:?}");
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(32);
                let par = filter_batch(b.clone(), &bound, &opts).unwrap();
                assert_eq!(par.to_rows(), expect, "pred={pred:?} threads={threads}");
            }
        }
    }

    #[test]
    fn filter_empty_batch() {
        let b = Batch::empty(batch().schema);
        let bound = Expr::col("a").ge(Expr::lit(0i64)).bind(&b.schema).unwrap();
        let out = filter_batch(b, &bound, &ExecOptions::default()).unwrap();
        assert!(out.is_empty());
    }
}
