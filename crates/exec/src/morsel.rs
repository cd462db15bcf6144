//! Morsel-driven parallel scheduling.
//!
//! Leaf operators and pipeline stages split their input into fixed-size
//! **morsels** (contiguous index ranges) that worker threads pull from a
//! shared counter — the scheduling scheme of Leis et al., "Morsel-Driven
//! Parallelism" (SIGMOD 2014), reduced to this executor's
//! materialize-everything model.
//!
//! Determinism is the design constraint, not an afterthought: every
//! parallel operator in this crate produces morsel-local results that the
//! coordinator recombines **in morsel index order**.  Because morsel
//! boundaries depend only on [`ExecOptions::morsel_size`] (never on the
//! thread count, the scheduler, or timing), the recombined rows and the
//! merged [`rqo_storage::CostTracker`] totals are bit-identical across
//! thread counts and across schedulers — the property the
//! `parallel_equivalence` differential suite pins down.
//!
//! Every operator goes through one entry point, `run_morsels`, which
//! has two scheduling modes:
//!
//! * **Inline** (no scheduler): the calling thread runs every morsel,
//!   polling the [`QueryToken`] between morsels.  This *is* serial
//!   execution — there is no separate serial code path.
//! * **Pooled** (a [`MorselScheduler`] is attached — in practice a
//!   [`WorkerPool`]): morsels are handed to a long-lived worker pool
//!   that interleaves them with other queries' morsels.  A service
//!   shares one pool across every query; [`ExecOptions::with_threads`]
//!   builds a private one.
//!
//! In both modes a fired token stops the job **within one morsel**: no new
//! morsel is started after the poll observes the stop, and `run_morsels`
//! returns `None` so the operator tree unwinds without fabricating a
//! partial result.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use rqo_core::QueryToken;
pub use rqo_core::StopReason;

use crate::pool::WorkerPool;

/// Default number of rows per morsel.
///
/// Large enough that per-morsel overhead (a hash-map allocation, an atomic
/// increment) is amortized over thousands of rows, small enough that
/// a scan of a bench-scale table still yields tens of morsels to balance.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// A morsel scheduler: the interface [`WorkerPool`] implements and the
/// executor calls.
///
/// The executor calls [`run_job`](Self::run_job) once per parallel
/// operator stage; the scheduler runs `run_one(i)` exactly once for every
/// morsel index `i < n_morsels` (on any threads, in any order, with any
/// interleaving against other queries) and returns `true`, **or** stops
/// early because the token fired and returns `false`, guaranteeing that
/// no invocation of `run_one` is still running or will start after the
/// call returns.
pub trait MorselScheduler: Send + Sync {
    /// Runs one job of `n_morsels` morsels to completion (`true`) or
    /// until the token fires (`false`).
    fn run_job(
        &self,
        token: Option<&QueryToken>,
        n_morsels: usize,
        run_one: &(dyn Fn(usize) + Send + Sync),
    ) -> bool;

    /// Dedicated worker threads (not counting the submitters, which also
    /// run their own jobs' morsels).
    fn workers(&self) -> usize;
}

/// Execution knobs threaded through [`crate::execute_with`].
///
/// The default is serial execution (no scheduler, no token): the same
/// operators, with the calling thread running every morsel.
#[derive(Clone)]
pub struct ExecOptions {
    /// Rows per morsel (clamped to at least 1).  Rows, row order, and
    /// costs are identical for every value; float `SUM`/`AVG` partials
    /// are merged per morsel, so their last ulp can depend on it (never
    /// on the worker count or scheduler).
    pub morsel_size: usize,
    /// Cooperative cancellation/deadline token, polled at operator entry
    /// and at every morsel boundary.
    pub token: Option<QueryToken>,
    /// The worker pool that runs the morsels; `None` runs them inline.
    pub scheduler: Option<Arc<dyn MorselScheduler>>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("morsel_size", &self.morsel_size)
            .field("token", &self.token.is_some())
            .field("workers", &self.scheduler.as_ref().map(|s| s.workers()))
            .finish()
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            morsel_size: DEFAULT_MORSEL_SIZE,
            token: None,
            scheduler: None,
        }
    }
}

impl ExecOptions {
    /// Serial execution for `threads <= 1`; otherwise a fresh
    /// [`WorkerPool`] of `threads` workers, used by these options (and
    /// their clones) alone.
    pub fn with_threads(threads: usize) -> Self {
        let options = Self::default();
        if threads <= 1 {
            return options;
        }
        options.with_scheduler(Arc::new(WorkerPool::new(threads)))
    }

    /// Overrides the morsel size.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size;
        self
    }

    /// Attaches a cancellation/deadline token.
    pub fn with_token(mut self, token: QueryToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Attaches a morsel scheduler (a shared worker pool).
    pub fn with_scheduler(mut self, scheduler: Arc<dyn MorselScheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Polls the token (if any): `Some(reason)` means the query must stop.
    pub fn check_stop(&self) -> Option<StopReason> {
        self.token.as_ref().and_then(QueryToken::poll)
    }

    /// The stop reason of an already-fired token, without consuming a
    /// poll-countdown tick (used to label an interruption after the
    /// fact).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.token.as_ref().and_then(QueryToken::stop_reason)
    }

    /// Number of morsels an input of `n` rows splits into under these
    /// options — the same arithmetic `run_morsels` uses, so the count
    /// depends only on sizes, never on the worker count or scheduling.
    pub fn morsel_count(&self, n: usize) -> u64 {
        n.div_ceil(self.morsel_size.max(1)) as u64
    }
}

/// Splits `0..n` into morsels and applies `work` to each, returning the
/// per-morsel results **in morsel index order** — or `None` if the
/// query's token fired before every morsel ran (the job stops within one
/// morsel of the poll observing the stop).
///
/// `work` must be pure with respect to ordering: it may read shared state
/// but sees no information about which worker runs it or when.
pub(crate) fn run_morsels<T, F>(opts: &ExecOptions, n: usize, work: F) -> Option<Vec<T>>
where
    T: Send + Sync,
    F: Fn(Range<usize>) -> T + Sync,
{
    let size = opts.morsel_size.max(1);
    let n_morsels = n.div_ceil(size);
    let bounds = |i: usize| i * size..((i + 1) * size).min(n);

    // Pooled: hand the whole job to the scheduler.  Result slots are
    // write-once cells filled by whichever pool thread runs each morsel;
    // `run_job` returning guarantees no `run_one` is in flight.
    if let Some(scheduler) = &opts.scheduler {
        if n_morsels == 0 {
            return Some(Vec::new());
        }
        let slots: Vec<OnceLock<T>> = (0..n_morsels).map(|_| OnceLock::new()).collect();
        let run_one = |i: usize| {
            let _ = slots[i].set(work(bounds(i)));
        };
        if !scheduler.run_job(opts.token.as_ref(), n_morsels, &run_one) {
            return None;
        }
        return Some(
            slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("scheduler ran every morsel exactly once")
                })
                .collect(),
        );
    }

    // Inline: the calling thread runs every morsel, polling between them.
    let mut out = Vec::with_capacity(n_morsels);
    for i in 0..n_morsels {
        if opts.check_stop().is_some() {
            return None;
        }
        out.push(work(bounds(i)));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn opts(threads: usize, morsel_size: usize) -> ExecOptions {
        ExecOptions::with_threads(threads).with_morsel_size(morsel_size)
    }

    #[test]
    fn defaults_are_serial() {
        let o = ExecOptions::default();
        assert!(o.token.is_none() && o.scheduler.is_none());
        assert!(ExecOptions::with_threads(1).scheduler.is_none());
        let pooled = ExecOptions::with_threads(4).with_morsel_size(7);
        assert_eq!(pooled.morsel_size, 7);
        assert_eq!(pooled.scheduler.map(|s| s.workers()), Some(4));
    }

    #[test]
    fn covers_every_index_in_order() {
        for threads in [1, 2, 8] {
            for size in [1, 3, 10, 100] {
                let ranges = run_morsels(&opts(threads, size), 23, |r| r).unwrap();
                let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(flat, (0..23).collect::<Vec<_>>(), "t={threads} s={size}");
            }
        }
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let parts = run_morsels(&opts(8, 4), 0, |r| r.len()).unwrap();
        assert!(parts.is_empty());
    }

    #[test]
    fn results_independent_of_thread_count() {
        let serial = run_morsels(&opts(1, 5), 57, |r| r.sum::<usize>()).unwrap();
        for threads in [2, 3, 8, 16] {
            let par = run_morsels(&opts(threads, 5), 57, |r| r.sum::<usize>()).unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn zero_morsel_size_is_clamped() {
        let parts = run_morsels(&opts(2, 0), 3, |r| r.len()).unwrap();
        assert_eq!(parts, vec![1, 1, 1]);
    }

    #[test]
    fn morsel_count_matches_run_morsels() {
        for (threads, size, n) in [(1, 5, 57), (8, 5, 57), (2, 0, 3), (4, 10, 0), (1, 7, 7)] {
            let o = opts(threads, size);
            let parts = run_morsels(&o, n, |r| r.len()).unwrap();
            assert_eq!(o.morsel_count(n), parts.len() as u64, "size={size} n={n}");
        }
    }

    #[test]
    fn fired_token_stops_inline_within_one_morsel() {
        let ran = AtomicUsize::new(0);
        let o = opts(1, 1).with_token(QueryToken::cancel_after_polls(3));
        let result = run_morsels(&o, 10, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(result.is_none());
        assert_eq!(
            ran.load(Ordering::SeqCst),
            3,
            "exactly k morsels before stop"
        );
    }

    #[test]
    fn fired_token_stops_pooled_workers() {
        let ran = AtomicUsize::new(0);
        let token = QueryToken::new();
        token.cancel();
        let o = opts(4, 1).with_token(token);
        let result = run_morsels(&o, 100, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(result.is_none());
        assert_eq!(ran.load(Ordering::SeqCst), 0, "pre-cancelled runs nothing");
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let o = opts(4, 5).with_token(QueryToken::new());
        let plain = run_morsels(&opts(4, 5), 57, |r| r.sum::<usize>()).unwrap();
        let tokened = run_morsels(&o, 57, |r| r.sum::<usize>()).unwrap();
        assert_eq!(plain, tokened);
    }
}
