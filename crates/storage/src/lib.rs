//! In-memory columnar storage substrate with a simulated I/O cost model.
//!
//! The paper's experiments ran against Microsoft SQL Server; this crate is
//! the open substitute: typed columnar tables, clustered and nonclustered
//! indexes, a catalog carrying the foreign-key graph (needed both by the
//! optimizer's join enumeration and by join-synopsis construction), and a
//! transparent cost model that charges sequential page reads, random I/Os,
//! and per-tuple CPU work.  Plan "execution time" throughout the workspace
//! is the simulated cost in seconds under [`CostParams`]; the default
//! constants are calibrated so that the two access paths of the paper's
//! running example reproduce its analytical cost model (§5.1: a sequential
//! scan of a 6M-row table costs ≈35 s, an index-intersection fetch costs
//! ≈3.5 ms per qualifying row).

#![warn(missing_docs)]

mod buffer;
pub mod catalog;
pub mod column;
pub mod cost;
pub mod error;
pub mod index;
pub mod schema;
pub mod table;
pub mod value;

pub use buffer::AppendVec;
pub use catalog::{Catalog, ForeignKey, TableId};
pub use column::{ColumnVec, NullMask};
pub use cost::{CostParams, CostTracker};
pub use error::StorageError;
pub use index::{SecondaryIndex, UniqueIndex};
pub use schema::{ColumnMeta, Schema};
pub use table::{Rid, Table, TableBuilder};
pub use value::{civil_from_days, days_from_civil, parse_date, DataType, Value};
