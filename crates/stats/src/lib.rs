//! Precomputed statistics: uniform samples, join synopses, equi-depth
//! histograms, and distinct-value estimation.
//!
//! This crate holds the *offline precomputation phase* of the paper's
//! estimation procedure (§3.2): the analogue of `UPDATE STATISTICS`.  Two
//! families of summaries are built:
//!
//! * **Join synopses** ([`synopsis`]) — the paper's chosen summary.  For
//!   each relation, a uniform random sample is drawn and pre-joined along
//!   every foreign-key path (Acharya et al.'s construction), so that any
//!   FK-join expression rooted at that relation can later be evaluated
//!   directly against one sample, with no independence assumptions and no
//!   error propagation.
//! * **Equi-depth histograms** ([`histogram`]) — the baseline the paper
//!   compares against: 250-bucket single-column histograms combined with
//!   the attribute-value-independence (AVI) assumption.
//!
//! [`distinct`] implements sample-based distinct-value estimation (the
//! GROUP BY extension sketched in §3.5), and [`sampler`] the underlying
//! uniform row samplers.

#![warn(missing_docs)]

pub mod distinct;
pub mod histogram;
pub mod sampler;
pub mod sketch;
pub mod synopsis;

pub use histogram::EquiDepthHistogram;
pub use sampler::{sample_with_replacement, sample_without_replacement};
pub use sketch::{DistinctSketch, RowReservoir, SketchRepository, TableSketches};
pub use synopsis::{JoinSynopsis, SynopsisRepository};
