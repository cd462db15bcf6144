//! Physical query execution over the simulated storage substrate.
//!
//! The paper measured real executions on a commercial DBMS; this crate is
//! the reproduction's executor.  Every operator *actually computes* its
//! result over the in-memory columnar tables while charging its simulated
//! work (sequential pages, random I/Os, CPU operations) to a
//! [`rqo_storage::CostTracker`], so "execution time" is deterministic,
//! noise-free, and faithful to the access-pattern asymmetries that create
//! the paper's plan crossovers:
//!
//! * a **sequential scan** pays one sequential page read per page,
//!   regardless of selectivity;
//! * an **index intersection** pays cheap index-leaf scans plus one random
//!   I/O per qualifying row fetched — catastrophic at high selectivity,
//!   unbeatable at low selectivity (Figure 1's Plan 1 / Plan 2);
//! * **indexed nested loops**, **hash**, and **merge** joins reproduce the
//!   three plan regimes of Experiment 2, and the **star semijoin**
//!   strategy the index-driven plan of Experiment 3.
//!
//! Operators materialize their results ([`Batch`]), which keeps the
//! executor simple and deterministic; the experiments run at scale factors
//! where full materialization is comfortably in-memory.
//!
//! # One column type, table to result
//!
//! A [`Batch`] is a schema plus one shared [`rqo_storage::ColumnVec`] per
//! column — the very type tables store and the expression kernels read —
//! so vectors flow between operators untransposed.  An operator decides
//! *which* rows survive or pair up as index lists (a [`columnar::SelVec`]
//! from the `select` kernel, `(left, right)` pairs from a join) and then
//! builds its output with one typed `take` per column; a projection, a
//! served `Materialized` slot and an unfiltered scan share their source's
//! columns outright.  Rows exist only at the edge: [`Batch::to_rows`]
//! for whoever consumes the result, [`Batch::from_rows`] for tests.
//! Hash join and hash aggregation key their tables on fixed-width words
//! mapped to dense ids, never on `Value`s.
//!
//! # One path, any number of workers
//!
//! Every operator splits its work into fixed-size **morsels** and
//! recombines the per-morsel results in morsel index order (see
//! [`morsel`]).
//! [`ExecOptions`] only decides who runs the morsels: the calling thread
//! ([`execute`], the default) or an attached [`WorkerPool`] — the one a
//! service shares across its queries, or a private one from
//! [`ExecOptions::with_threads`].  There is no separate serial or
//! row-at-a-time implementation, so rows, row order, float sums,
//! simulated costs, and metrics are bit-identical at every worker count
//! by construction.
//!
//! # Cooperative cancellation
//!
//! An [`ExecOptions`] can carry a [`rqo_core::QueryToken`]; the executor
//! polls it at every operator entry and every morsel boundary, so a
//! cancelled or past-deadline query stops within one morsel of work.
//! [`try_execute_with`] surfaces the stop as an `Err(StopReason)` and
//! [`execute_guarded`] as [`ExecStatus::Stopped`], instead of panicking.

#![warn(missing_docs)]

pub mod adaptive;
pub mod agg;
pub mod batch;
pub mod columnar;
pub mod executor;
pub mod join;
pub mod kernels;
mod keys;
pub mod metrics;
pub mod morsel;
pub mod plan;
pub mod pool;
pub mod scan;

pub use adaptive::{execute_guarded, guard_points, q_error, ExecStatus, GuardTrip, RowGuard};
pub use batch::Batch;
pub use executor::{execute, execute_analyze, execute_with, try_execute_with};
pub use metrics::OpMetrics;
pub use morsel::{ExecOptions, MorselScheduler, StopReason};
pub use plan::{AggExpr, AggFunc, IndexRange, PhysicalPlan, PreorderNode, SemiJoinLeg};
pub use pool::WorkerPool;
pub use scan::surviving_spans;
