//! The multi-session query service: admission control + shared worker
//! pool + per-query deadline/cancellation, over one shared [`Engine`].
//!
//! ```text
//! Session ── QueryHandle(token) ──► admission ──► slot ──► Engine::execute
//!                                      │                      │
//!                                 bounded queue          WorkerPool (shared,
//!                                 + timeout              round-robin morsels)
//! ```
//!
//! A query first passes the **admission controller**: at most
//! `max_concurrent` queries hold execution slots; up to `queue_capacity`
//! more wait (each at most `queue_timeout`, and each polling its own
//! token while it waits); everything beyond that is rejected
//! immediately.  An admitted query executes on the **shared worker
//! pool**, which round-robins morsels across all running queries so one
//! expensive join cannot starve short queries.  Cancellation and
//! deadlines propagate from the [`QueryHandle`] through every morsel
//! loop: a fired token stops the query within one morsel, frees its slot
//! (the guard is drop-based, so even a panic releases it), and — by the
//! engine's hygiene rules — publishes nothing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rqo_core::{QueryToken, ServiceConfig, StopReason};
use rqo_exec::MorselScheduler;
use rqo_optimizer::Query;

use crate::engine::{AnalyzedOutcome, Engine, QueryOutcome, RunPolicy};
use crate::pool::WorkerPool;

/// Why the service refused to produce a result for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue was full on arrival.
    QueueFull,
    /// The query waited `queue_timeout` without getting a slot.
    QueueTimeout,
    /// The query's token fired (while queued or while executing).
    Stopped(StopReason),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull => f.write_str("rejected: admission queue full"),
            ServiceError::QueueTimeout => f.write_str("rejected: queue wait timed out"),
            ServiceError::Stopped(reason) => write!(f, "stopped: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A client's handle on one query: the cancellation/deadline token,
/// cloneable to other threads so a running (or queued) query can be
/// cancelled from outside.
#[derive(Debug, Clone, Default)]
pub struct QueryHandle {
    token: QueryToken,
}

impl QueryHandle {
    /// A handle with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle whose query must finish within `deadline` from now
    /// (queue wait included).
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            token: QueryToken::with_deadline(deadline),
        }
    }

    /// Requests cancellation; takes effect at the query's next morsel
    /// boundary (or immediately, if it is still queued).
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The underlying token.
    pub fn token(&self) -> &QueryToken {
        &self.token
    }
}

/// A point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries that received an execution slot.
    pub admitted: u64,
    /// Queries that had to wait in the admission queue (subset of
    /// arrivals; they may later be admitted, time out, or stop).
    pub queued: u64,
    /// Arrivals rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Queued queries rejected after waiting `queue_timeout`.
    pub rejected_queue_timeout: u64,
    /// Admitted queries that ran to completion.
    pub completed: u64,
    /// Admitted queries stopped by cancellation.
    pub cancelled: u64,
    /// Admitted queries stopped by their deadline.
    pub deadline_exceeded: u64,
    /// Queries whose token fired while still waiting for a slot.
    pub stopped_in_queue: u64,
    /// Admitted queries whose execution closure panicked (the panic is
    /// re-raised after accounting; the slot is freed by the guard).
    pub panicked: u64,
    /// High-water mark of the admission queue depth.
    pub peak_queued: u64,
}

impl ServiceStats {
    /// Every admitted query eventually returned its slot: completed,
    /// cancelled, deadline-exceeded, or panicked.  True only when the
    /// service is quiescent (no query mid-flight) — the bench's
    /// self-check.
    pub fn slots_balanced(&self) -> bool {
        self.admitted == self.completed + self.cancelled + self.deadline_exceeded + self.panicked
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admitted={} queued={} peak_queued={} rejected_full={} rejected_timeout={} \
             completed={} cancelled={} deadline_exceeded={} stopped_in_queue={} panicked={}",
            self.admitted,
            self.queued,
            self.peak_queued,
            self.rejected_queue_full,
            self.rejected_queue_timeout,
            self.completed,
            self.cancelled,
            self.deadline_exceeded,
            self.stopped_in_queue,
            self.panicked,
        )
    }
}

#[derive(Default)]
struct StatsCells {
    admitted: AtomicU64,
    queued: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_queue_timeout: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    stopped_in_queue: AtomicU64,
    panicked: AtomicU64,
    peak_queued: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.admitted.load(Ordering::SeqCst),
            queued: self.queued.load(Ordering::SeqCst),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::SeqCst),
            rejected_queue_timeout: self.rejected_queue_timeout.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            cancelled: self.cancelled.load(Ordering::SeqCst),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::SeqCst),
            stopped_in_queue: self.stopped_in_queue.load(Ordering::SeqCst),
            panicked: self.panicked.load(Ordering::SeqCst),
            peak_queued: self.peak_queued.load(Ordering::SeqCst),
        }
    }
}

/// Slot accounting for the admission controller.
#[derive(Default)]
struct AdmissionState {
    running: usize,
    waiting: usize,
}

struct Admission {
    state: Mutex<AdmissionState>,
    freed: Condvar,
}

/// How long a queued query sleeps between token polls.  Short enough
/// that cancellation of a *queued* query is prompt; long enough to stay
/// off the lock.
const QUEUE_POLL: Duration = Duration::from_millis(2);

impl Admission {
    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Inner {
    engine: Arc<Engine>,
    pool: Arc<WorkerPool>,
    config: ServiceConfig,
    admission: Admission,
    stats: StatsCells,
}

/// Releases the execution slot on drop (so a panicking query still
/// frees it) and wakes one queued waiter.
struct SlotGuard<'a> {
    inner: &'a Inner,
}

impl fmt::Debug for SlotGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SlotGuard")
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.inner.admission.lock();
        state.running -= 1;
        drop(state);
        self.inner.admission.freed.notify_all();
    }
}

impl Inner {
    /// Admission control: immediate slot, bounded wait, or rejection.
    fn admit(&self, token: &QueryToken) -> Result<SlotGuard<'_>, ServiceError> {
        let mut state = self.admission.lock();
        if state.running < self.config.max_concurrent {
            state.running += 1;
            self.stats.admitted.fetch_add(1, Ordering::SeqCst);
            return Ok(SlotGuard { inner: self });
        }
        if state.waiting >= self.config.queue_capacity {
            self.stats
                .rejected_queue_full
                .fetch_add(1, Ordering::SeqCst);
            return Err(ServiceError::QueueFull);
        }
        state.waiting += 1;
        self.stats.queued.fetch_add(1, Ordering::SeqCst);
        self.stats
            .peak_queued
            .fetch_max(state.waiting as u64, Ordering::SeqCst);
        let give_up = Instant::now() + self.config.queue_timeout;
        loop {
            // Wait in short slices so a queued query still notices its
            // own cancellation/deadline promptly.
            let (guard, _) = self
                .admission
                .freed
                .wait_timeout(state, QUEUE_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if state.running < self.config.max_concurrent {
                state.waiting -= 1;
                state.running += 1;
                self.stats.admitted.fetch_add(1, Ordering::SeqCst);
                return Ok(SlotGuard { inner: self });
            }
            if let Some(reason) = token.poll() {
                state.waiting -= 1;
                self.stats.stopped_in_queue.fetch_add(1, Ordering::SeqCst);
                return Err(ServiceError::Stopped(reason));
            }
            if Instant::now() >= give_up {
                state.waiting -= 1;
                self.stats
                    .rejected_queue_timeout
                    .fetch_add(1, Ordering::SeqCst);
                return Err(ServiceError::QueueTimeout);
            }
        }
    }
}

/// The concurrent query service.  Cheap to clone (all state is shared);
/// one instance serves any number of client threads through
/// [`Session`]s.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<Inner>,
}

impl QueryService {
    /// Builds a service over an engine: spawns the shared worker pool
    /// and installs the admission controller.
    pub fn new(engine: Engine, config: ServiceConfig) -> Self {
        Self::over(Arc::new(engine), config)
    }

    /// Builds a service over an already-shared engine.
    pub fn over(engine: Arc<Engine>, config: ServiceConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.workers));
        Self {
            inner: Arc::new(Inner {
                engine,
                pool,
                config,
                admission: Admission {
                    state: Mutex::new(AdmissionState::default()),
                    freed: Condvar::new(),
                },
                stats: StatsCells::default(),
            }),
        }
    }

    /// The shared engine (catalog, plan cache, feedback store, ...).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats.snapshot()
    }

    /// Opens a client session.  Sessions share the engine (plan cache,
    /// feedback) and the worker pool; each query gets its own handle.
    pub fn session(&self) -> Session {
        Session {
            service: self.clone(),
            selection: None,
        }
    }

    /// Admits and executes one query-shaped closure, doing the shared
    /// bookkeeping: default deadline, slot accounting, outcome counters.
    fn admitted<T>(
        &self,
        handle: &QueryHandle,
        run: impl FnOnce(&rqo_exec::ExecOptions) -> Result<T, StopReason>,
    ) -> Result<T, ServiceError> {
        let token = handle.token().clone();
        if let Some(deadline) = self.inner.config.default_deadline {
            token.set_default_deadline(deadline);
        }
        let slot = self.inner.admit(&token)?;
        let scheduler: Arc<dyn MorselScheduler> = Arc::clone(&self.inner.pool) as _;
        let opts = self
            .inner
            .engine
            .query_exec_options(Some(token), Some(scheduler));
        // A panicking query (e.g. one built from untrusted wire bytes
        // that slipped past validation) must still be accounted for, or
        // `slots_balanced` would report a leak that is really a crash.
        // The slot itself is drop-freed either way; we count the panic
        // and re-raise it for the caller's own containment.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&opts)));
        drop(slot);
        let result = match result {
            Ok(r) => r,
            Err(payload) => {
                self.inner.stats.panicked.fetch_add(1, Ordering::SeqCst);
                std::panic::resume_unwind(payload);
            }
        };
        match result {
            Ok(value) => {
                self.inner.stats.completed.fetch_add(1, Ordering::SeqCst);
                Ok(value)
            }
            Err(reason) => {
                let cell = match reason {
                    StopReason::Cancelled => &self.inner.stats.cancelled,
                    StopReason::DeadlineExceeded => &self.inner.stats.deadline_exceeded,
                };
                cell.fetch_add(1, Ordering::SeqCst);
                Err(ServiceError::Stopped(reason))
            }
        }
    }

    /// Runs a query under `handle` through admission and the worker
    /// pool; `policy` decides what the run reads from and publishes into
    /// the shared plan cache and feedback store (see [`RunPolicy`]).
    pub fn execute(
        &self,
        query: &Query,
        handle: &QueryHandle,
        policy: RunPolicy,
    ) -> Result<AnalyzedOutcome, ServiceError> {
        self.admitted(handle, |opts| {
            self.inner.engine.execute(query, opts, policy)
        })
    }
}

/// One client's connection to the service.  All sessions share the
/// engine and pool; the session is the natural owner of "one client's
/// sequence of queries" (e.g. a benchmark client thread).
#[derive(Clone)]
pub struct Session {
    service: QueryService,
    /// Session-level plan-selection mode, applied to queries that carry
    /// no per-query override (`None` = the engine's system-wide mode).
    selection: Option<rqo_core::PlanSelection>,
}

impl Session {
    /// Returns a session whose queries default to `selection` mode.
    /// Queries carrying their own [`Query::with_selection`] override are
    /// untouched.
    pub fn with_selection(mut self, selection: rqo_core::PlanSelection) -> Self {
        self.selection = Some(selection);
        self
    }

    /// The query as this session will submit it: the session selection
    /// mode is stamped on unless the query already carries one.
    fn effective<'q>(&self, query: &'q Query) -> std::borrow::Cow<'q, Query> {
        match (self.selection, query.selection) {
            (Some(mode), None) => std::borrow::Cow::Owned(query.clone().with_selection(mode)),
            _ => std::borrow::Cow::Borrowed(query),
        }
    }

    /// Runs a query under an explicit handle (deadline/cancellation)
    /// and [`RunPolicy`].
    pub fn execute(
        &self,
        query: &Query,
        handle: &QueryHandle,
        policy: RunPolicy,
    ) -> Result<AnalyzedOutcome, ServiceError> {
        self.service.execute(&self.effective(query), handle, policy)
    }

    /// A plain run with a fresh (never-firing) handle.
    pub fn run(&self, query: &Query) -> Result<QueryOutcome, ServiceError> {
        Ok(self
            .execute(query, &QueryHandle::new(), RunPolicy::Run)?
            .outcome)
    }

    /// The service this session is connected to.
    pub fn service(&self) -> &QueryService {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_engine() -> Engine {
        let data = rqo_datagen::TpchData::generate(&rqo_datagen::TpchConfig {
            scale_factor: 0.001,
            seed: 7,
        });
        Engine::new(data.into_catalog())
    }

    fn count_query() -> Query {
        use rqo_exec::AggExpr;
        Query::over(&["lineitem"]).aggregate(AggExpr::count_star("n"))
    }

    #[test]
    fn service_runs_queries_and_counts_completions() {
        let service = QueryService::new(tiny_engine(), ServiceConfig::default());
        let session = service.session();
        let outcome = session.run(&count_query()).expect("query succeeds");
        assert_eq!(outcome.rows.len(), 1);
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.completed), (1, 1));
        assert!(stats.slots_balanced());
    }

    #[test]
    fn cancelled_query_reports_stopped_and_frees_slot() {
        let service = QueryService::new(tiny_engine(), ServiceConfig::default());
        let handle = QueryHandle::new();
        handle.cancel();
        let err = service
            .execute(&count_query(), &handle, RunPolicy::Run)
            .unwrap_err();
        assert_eq!(err, ServiceError::Stopped(StopReason::Cancelled));
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.cancelled), (1, 1));
        assert!(stats.slots_balanced());
        // The slot was freed: the next query is admitted immediately.
        assert!(service.session().run(&count_query()).is_ok());
    }

    #[test]
    fn elapsed_deadline_reports_deadline_exceeded() {
        let service = QueryService::new(tiny_engine(), ServiceConfig::default());
        let handle = QueryHandle::with_deadline(Duration::ZERO);
        let err = service
            .execute(&count_query(), &handle, RunPolicy::Run)
            .unwrap_err();
        assert_eq!(err, ServiceError::Stopped(StopReason::DeadlineExceeded));
        assert_eq!(service.stats().deadline_exceeded, 1);
        assert!(service.stats().slots_balanced());
    }

    #[test]
    fn default_deadline_is_applied_to_plain_handles() {
        let config = ServiceConfig::default().with_default_deadline(Duration::ZERO);
        let service = QueryService::new(tiny_engine(), config);
        let err = service.session().run(&count_query()).unwrap_err();
        assert_eq!(err, ServiceError::Stopped(StopReason::DeadlineExceeded));
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // One slot, zero queue: hold the slot, next arrival bounces.
        let config = ServiceConfig::default()
            .with_max_concurrent(1)
            .with_queue_capacity(0);
        let service = QueryService::new(tiny_engine(), config);
        let slot = service.inner.admit(&QueryToken::new()).expect("first slot");
        let err = service.inner.admit(&QueryToken::new()).unwrap_err();
        assert_eq!(err, ServiceError::QueueFull);
        assert_eq!(service.stats().rejected_queue_full, 1);
        drop(slot);
        assert!(service.inner.admit(&QueryToken::new()).is_ok());
    }

    #[test]
    fn queued_arrival_times_out() {
        let config = ServiceConfig::default()
            .with_max_concurrent(1)
            .with_queue_capacity(4)
            .with_queue_timeout(Duration::from_millis(10));
        let service = QueryService::new(tiny_engine(), config);
        let _slot = service.inner.admit(&QueryToken::new()).expect("first slot");
        let err = service.inner.admit(&QueryToken::new()).unwrap_err();
        assert_eq!(err, ServiceError::QueueTimeout);
        let stats = service.stats();
        assert_eq!((stats.queued, stats.rejected_queue_timeout), (1, 1));
    }

    #[test]
    fn queued_arrival_notices_its_own_cancellation() {
        let config = ServiceConfig::default()
            .with_max_concurrent(1)
            .with_queue_capacity(4)
            .with_queue_timeout(Duration::from_secs(30));
        let service = QueryService::new(tiny_engine(), config);
        let _slot = service.inner.admit(&QueryToken::new()).expect("first slot");
        let token = QueryToken::cancel_after_polls(1);
        let err = service.inner.admit(&token).unwrap_err();
        assert_eq!(err, ServiceError::Stopped(StopReason::Cancelled));
        assert_eq!(service.stats().stopped_in_queue, 1);
    }

    #[test]
    fn queued_arrival_is_admitted_when_a_slot_frees() {
        let config = ServiceConfig::default()
            .with_max_concurrent(1)
            .with_queue_capacity(4);
        let service = QueryService::new(tiny_engine(), config);
        let slot = service.inner.admit(&QueryToken::new()).expect("first slot");
        std::thread::scope(|scope| {
            let svc = &service;
            let waiter = scope.spawn(move || svc.inner.admit(&QueryToken::new()).is_ok());
            // Let the waiter enter the queue, then free the slot.
            std::thread::sleep(Duration::from_millis(20));
            drop(slot);
            assert!(
                waiter.join().expect("waiter thread"),
                "queued query admitted"
            );
        });
        let stats = service.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.queued, 1);
    }

    #[test]
    fn panicking_query_is_counted_and_frees_its_slot() {
        let service = QueryService::new(tiny_engine(), ServiceConfig::default());
        let handle = QueryHandle::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.admitted::<()>(&handle, |_| panic!("boom"))
        }));
        assert!(caught.is_err(), "panic is re-raised to the caller");
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.panicked), (1, 1));
        assert!(stats.slots_balanced(), "panic is accounted, not leaked");
        // The slot was freed by the guard: the next query runs fine.
        assert!(service.session().run(&count_query()).is_ok());
    }

    #[test]
    fn peak_queued_tracks_the_queue_high_water_mark() {
        let config = ServiceConfig::default()
            .with_max_concurrent(1)
            .with_queue_capacity(4)
            .with_queue_timeout(Duration::from_millis(10));
        let service = QueryService::new(tiny_engine(), config);
        let _slot = service.inner.admit(&QueryToken::new()).expect("first slot");
        // Two concurrent waiters both time out; the peak must still
        // record that they overlapped in the queue.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let svc = &service;
                scope.spawn(move || {
                    let _ = svc.inner.admit(&QueryToken::new());
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.queued, 2);
        assert!(stats.peak_queued >= 1, "queue depth was sampled");
    }

    #[test]
    fn sessions_share_the_plan_cache() {
        let service = QueryService::new(tiny_engine(), ServiceConfig::default());
        let a = service.session();
        let b = service.session();
        let q = count_query();
        a.run(&q).expect("first run");
        b.run(&q).expect("second run");
        let cache = service.engine().cache_stats();
        assert_eq!(
            (cache.misses, cache.hits, cache.entries),
            (1, 1, 1),
            "second session hits the plan the first session cached"
        );
    }
}
