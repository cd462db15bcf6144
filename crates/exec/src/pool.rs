//! The long-lived morsel worker pool: the executor's one parallel
//! scheduler.
//!
//! A query's executor registers a *job* — "here are `n` morsels, call
//! `run_one(i)` for each" — and the pool's workers interleave morsels
//! from all registered jobs in strict **round-robin over jobs, one
//! morsel per pick**, so a short query's morsels keep flowing even while
//! an expensive join floods the pool with work.  A service shares one
//! pool across every admitted query; [`ExecOptions::with_threads`] gives
//! a single caller a pool of its own.  The submitting thread
//! participates in *its own* job's morsels (never another query's),
//! which keeps a `workers = 0` pool fully functional and bounds every
//! query's latency by its own work plus pool sharing — a submitter can
//! never get stranded executing someone else's join.
//!
//! # Why a raw pointer
//!
//! The per-morsel closure borrows the executor's stack frame (input
//! batches, output slots), so it cannot be `'static` and cannot be handed
//! to long-lived worker threads as an `Arc<dyn Fn>`.  The pool instead
//! stores a type-erased raw pointer to the closure for exactly the
//! duration of the job, with a **drain protocol** making that sound:
//! [`WorkerPool::run_job`] does not return until every claimed morsel has
//! finished (`in_flight == 0`) and the job is unregistered, so no worker
//! can observe the pointer after the borrowed frame is gone.  This is the
//! same lifetime argument `std::thread::scope` makes, amortized across
//! queries.
//!
//! # Cancellation and panics
//!
//! Each claim attempt polls the job's [`QueryToken`]; a fired token stops
//! further claims immediately (in-flight morsels finish — "stops within
//! one morsel").  A panic inside a morsel marks the job stopped, is
//! carried back to the submitting thread, and re-raised there: the pool's
//! workers survive, other queries are unaffected.
//!
//! [`ExecOptions::with_threads`]: crate::ExecOptions::with_threads

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use rqo_core::QueryToken;

use crate::morsel::MorselScheduler;

/// Type-erased pointer to a submitter's per-morsel closure.  Valid from
/// job registration until `run_job` unregisters the job; the drain
/// protocol guarantees no dereference outside that window.
#[derive(Clone, Copy)]
struct RunOne(*const (dyn Fn(usize) + Send + Sync));

// SAFETY: the pointee is `Fn(usize) + Send + Sync` (so calling it from a
// worker thread is fine), and the pointer itself is only dereferenced
// while the submitting frame is pinned inside `run_job`.
unsafe impl Send for RunOne {}
unsafe impl Sync for RunOne {}

impl RunOne {
    /// Erases the closure borrow's lifetime so it can sit in the job
    /// table.  Sound only under the drain protocol: the pointer must not
    /// be dereferenced after `run_job` unregisters the job.
    fn erase(run_one: &(dyn Fn(usize) + Send + Sync)) -> Self {
        // SAFETY: lifetime erasure only — layout is identical, and the
        // drain protocol pins the referent for the pointer's whole life.
        let long: &'static (dyn Fn(usize) + Send + Sync) = unsafe { std::mem::transmute(run_one) };
        RunOne(long as *const _)
    }
}

/// One registered query's outstanding morsel work.
struct Job {
    run_one: RunOne,
    token: Option<QueryToken>,
    n_morsels: usize,
    /// Next unclaimed morsel; `== n_morsels` once exhausted or stopped.
    next: usize,
    /// Morsels claimed but not yet finished.
    in_flight: usize,
    /// Token fired or a morsel panicked: no further claims.
    stopped: bool,
    /// First panic payload from any of this job's morsels, re-raised on
    /// the submitting thread.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Job {
    /// Claims the next morsel, polling the token first.  Returns `None`
    /// when the job has nothing left to claim (exhausted or stopped).
    fn claim(&mut self) -> Option<(usize, RunOne)> {
        if !self.stopped {
            if let Some(_reason) = self.token.as_ref().and_then(QueryToken::poll) {
                self.stopped = true;
            }
        }
        if self.stopped || self.next >= self.n_morsels {
            return None;
        }
        let i = self.next;
        self.next += 1;
        self.in_flight += 1;
        Some((i, self.run_one))
    }

    fn is_drained(&self) -> bool {
        (self.stopped || self.next >= self.n_morsels) && self.in_flight == 0
    }
}

#[derive(Default)]
struct PoolState {
    jobs: HashMap<u64, Job>,
    /// Registration order of live job ids — the round-robin ring.
    ring: Vec<u64>,
    /// Rotating pick position in `ring`.
    cursor: usize,
    shutdown: bool,
}

impl PoolState {
    /// Round-robin pick: starting at the cursor, the first job with a
    /// claimable morsel wins **one** morsel and the cursor moves past it,
    /// so consecutive picks rotate across queries instead of draining one
    /// job dry while others wait.
    fn claim_any(&mut self) -> Option<(u64, usize, RunOne)> {
        let n = self.ring.len();
        for k in 0..n {
            let pos = (self.cursor + k) % n;
            let id = self.ring[pos];
            let job = self.jobs.get_mut(&id).expect("ring ids are live");
            if let Some((i, run_one)) = job.claim() {
                self.cursor = (pos + 1) % n;
                return Some((id, i, run_one));
            }
        }
        None
    }

    /// Claims the next morsel of one specific job (the submitter's own).
    fn claim_own(&mut self, id: u64) -> Option<(usize, RunOne)> {
        self.jobs.get_mut(&id).expect("own job is live").claim()
    }

    /// Records a finished (or panicked) morsel; returns whether the job
    /// is now fully drained.
    fn finish(&mut self, id: u64, panic: Option<Box<dyn std::any::Any + Send>>) -> bool {
        let job = self.jobs.get_mut(&id).expect("finishing a live job");
        job.in_flight -= 1;
        if let Some(payload) = panic {
            job.stopped = true;
            if job.panic.is_none() {
                job.panic = Some(payload);
            }
        }
        job.is_drained()
    }
}

struct Shared {
    state: Mutex<PoolState>,
    /// Woken on new work, morsel completion, and shutdown.
    work: Condvar,
    next_id: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // A panicking morsel poisons nothing logically: every mutation
        // under the lock is completed before the closure runs.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The worker pool.  Construct once, wrap in an [`Arc`], and hand the
/// same instance to every query's [`ExecOptions`] (via
/// [`MorselScheduler`]); dropping the last handle shuts the workers
/// down.
///
/// [`ExecOptions`]: crate::ExecOptions
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` dedicated threads.  `0` is valid: every job is
    /// then executed entirely by its submitting thread (still through the
    /// same claim protocol, so cancellation semantics are identical).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            next_id: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rqo-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            // A worker can only panic on a poisoned-beyond-recovery
            // mutex; surface that instead of hiding it.
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, i, run_one) = {
            let mut state = shared.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(claim) = state.claim_any() {
                    break claim;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the job is registered (we hold a claim on it), so the
        // submitter is pinned inside `run_job` and the closure's frame is
        // alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*run_one.0)(i) }));
        let mut state = shared.lock();
        let drained = state.finish(id, result.err());
        drop(state);
        if drained {
            // The submitter may be waiting for the last straggler.
            shared.work.notify_all();
        }
    }
}

impl MorselScheduler for WorkerPool {
    fn run_job(
        &self,
        token: Option<&QueryToken>,
        n_morsels: usize,
        run_one: &(dyn Fn(usize) + Send + Sync),
    ) -> bool {
        if n_morsels == 0 {
            return token.and_then(|t| t.poll()).is_none();
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = self.shared.lock();
            state.jobs.insert(
                id,
                Job {
                    run_one: RunOne::erase(run_one),
                    token: token.cloned(),
                    n_morsels,
                    next: 0,
                    in_flight: 0,
                    stopped: false,
                    panic: None,
                },
            );
            state.ring.push(id);
        }
        self.shared.work.notify_all();

        // Participate in our own job only: claim-run until exhausted.
        loop {
            let claim = self.shared.lock().claim_own(id);
            let Some((i, _)) = claim else { break };
            let result = catch_unwind(AssertUnwindSafe(|| run_one(i)));
            let mut state = self.shared.lock();
            state.finish(id, result.err());
        }

        // Drain: wait for workers to finish the morsels they claimed,
        // then unregister — after this point the closure pointer is dead
        // and no worker can be holding it.
        let job = {
            let mut state = self.shared.lock();
            while !state.jobs.get(&id).expect("own job is live").is_drained() {
                state = self
                    .shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let job = state.jobs.remove(&id).expect("own job is live");
            state.ring.retain(|&j| j != id);
            if state.cursor >= state.ring.len() {
                state.cursor = 0;
            }
            job
        };
        if let Some(payload) = job.panic {
            resume_unwind(payload);
        }
        !job.stopped
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn collect_indices(
        pool: &WorkerPool,
        token: Option<&QueryToken>,
        n: usize,
    ) -> (bool, Vec<usize>) {
        let seen = Mutex::new(Vec::new());
        let run_one = |i: usize| seen.lock().unwrap_or_else(PoisonError::into_inner).push(i);
        let complete = pool.run_job(token, n, &run_one);
        let mut indices = seen.into_inner().unwrap_or_else(PoisonError::into_inner);
        indices.sort_unstable();
        (complete, indices)
    }

    #[test]
    fn every_morsel_runs_exactly_once() {
        for workers in [0usize, 1, 3] {
            let pool = WorkerPool::new(workers);
            let (complete, indices) = collect_indices(&pool, None, 64);
            assert!(complete, "workers={workers}");
            assert_eq!(indices, (0..64).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_job_is_a_noop() {
        let pool = WorkerPool::new(1);
        assert!(pool.run_job(None, 0, &|_| panic!("no morsels to run")));
        let fired = QueryToken::cancel_after_polls(0);
        assert!(!pool.run_job(Some(&fired), 0, &|_| {}));
    }

    #[test]
    fn round_robin_rotates_one_morsel_per_pick() {
        // Policy test on the claim logic itself — no threads, no timing.
        let noop: &(dyn Fn(usize) + Send + Sync) = &|_| {};
        let mut state = PoolState::default();
        for id in [10u64, 20, 30] {
            state.jobs.insert(
                id,
                Job {
                    run_one: RunOne(noop as *const _),
                    token: None,
                    n_morsels: 3,
                    next: 0,
                    in_flight: 0,
                    stopped: false,
                    panic: None,
                },
            );
            state.ring.push(id);
        }
        let picks: Vec<u64> =
            std::iter::from_fn(|| state.claim_any().map(|(id, _, _)| id)).collect();
        assert_eq!(picks, vec![10, 20, 30, 10, 20, 30, 10, 20, 30]);
    }

    #[test]
    fn exhausted_jobs_are_skipped_in_rotation() {
        let noop: &(dyn Fn(usize) + Send + Sync) = &|_| {};
        let mut state = PoolState::default();
        for (id, n) in [(1u64, 1usize), (2, 3)] {
            state.jobs.insert(
                id,
                Job {
                    run_one: RunOne(noop as *const _),
                    token: None,
                    n_morsels: n,
                    next: 0,
                    in_flight: 0,
                    stopped: false,
                    panic: None,
                },
            );
            state.ring.push(id);
        }
        let picks: Vec<u64> =
            std::iter::from_fn(|| state.claim_any().map(|(id, _, _)| id)).collect();
        assert_eq!(picks, vec![1, 2, 2, 2], "job 1 drains, job 2 keeps flowing");
    }

    #[test]
    fn cancelled_job_stops_and_reports_incomplete() {
        let pool = WorkerPool::new(0);
        // With 0 workers the submitter runs morsels alone: one poll per
        // claim, so cancel-after-3-polls runs exactly 3 morsels.
        let token = QueryToken::cancel_after_polls(3);
        let (complete, indices) = collect_indices(&pool, Some(&token), 100);
        assert!(!complete);
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn pre_cancelled_job_runs_nothing() {
        let pool = WorkerPool::new(2);
        let token = QueryToken::new();
        token.cancel();
        let (complete, indices) = collect_indices(&pool, Some(&token), 16);
        assert!(!complete);
        assert!(indices.is_empty());
    }

    #[test]
    fn morsel_panic_propagates_to_submitter_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let boom = |i: usize| {
            if i == 3 {
                panic!("morsel 3 exploded");
            }
        };
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_job(None, 8, &boom)));
        let payload = caught.expect_err("panic must reach the submitter");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(message.contains("morsel 3 exploded"), "got: {message}");

        // The pool is still healthy for the next query.
        let (complete, indices) = collect_indices(&pool, None, 32);
        assert!(complete);
        assert_eq!(indices.len(), 32);
    }

    #[test]
    fn poisoned_pool_lock_recovers() {
        let pool = WorkerPool::new(2);
        // Poison the pool's state mutex: a thread panics while holding
        // it.  (Workers only ever mutate state *before* running user
        // code, so logical state is still consistent — exactly the
        // situation `PoisonError::into_inner` recovery is for.)
        let shared = Arc::clone(&pool.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the pool lock");
        })
        .join();
        assert!(pool.shared.state.is_poisoned(), "mutex really is poisoned");
        // The pool must keep scheduling regardless.
        let (complete, indices) = collect_indices(&pool, None, 16);
        assert!(complete, "job ran to completion on a poisoned lock");
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn many_submitters_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let counted = AtomicUsize::new(0);
                        let run_one = |_i: usize| {
                            counted.fetch_add(1, Ordering::Relaxed);
                        };
                        assert!(pool.run_job(None, 16, &run_one));
                        assert_eq!(counted.load(Ordering::Relaxed), 16);
                        total.fetch_add(16, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 8 * 16);
    }
}
