//! `rqo-service` — the two query handles.
//!
//! Everything below `rqo-service` in the crate graph is single-query:
//! the optimizer plans one query, the executor runs one plan.  This
//! crate adds the two handles an application holds:
//!
//! - **[`Engine`]**, the in-process handle, owns the per-database state
//!   (catalog, synopses, plan cache, feedback store) and exposes one
//!   cancellation-aware run verb, [`Engine::execute`], whose
//!   [`RunPolicy`] alone decides what a completed run publishes; a
//!   stopped query never inserts into the plan cache, never records
//!   feedback observations, and never drift-evicts entries.
//! - **[`QueryService`]**, the shared handle ([`Engine::into_service`]),
//!   runs every admitted query on one shared [`WorkerPool`] (the
//!   executor's scheduler, re-exported from `rqo_exec`), which schedules
//!   round-robin across queries (one morsel per pick) so short queries
//!   are not starved by long ones.
//!   It adds admission control (bounded concurrency, bounded wait queue
//!   with timeout) and deadline/cancellation propagation from each
//!   client's [`QueryToken`] into every morsel loop, plus
//!   [`ServiceStats`] counters.
//!
//! Single-tenant equivalence is a hard invariant: a query run through
//! the service returns bit-identical rows, operator metrics, and
//! tracked cost to the same query run on a standalone engine,
//! regardless of pool size or how many clients run concurrently.

#![warn(missing_docs)]

pub mod engine;
pub mod net;
pub mod proto;
pub mod service;

pub use engine::{AnalyzedOutcome, Engine, InsertSummary, QueryOutcome, ReplanEvent, RunPolicy};
pub use net::{ClientError, NetClient, NetServer, NetServerConfig, NetStats, QueryReply};
pub use proto::{ErrorCode, ProtoError, Request, Response, RunMode};
pub use service::{QueryService, ServiceError, ServiceStats};

/// The former per-client handle, now a [`QueryService`] clone.  Kept only
/// for the out-of-workspace `benchmark/` crate until its contract change
/// (ROADMAP item 11).
pub type Session = QueryService;

pub use rqo_core::{QueryToken, ServiceConfig, StopReason};
pub use rqo_exec::WorkerPool;
