//! Service-level runtime types: cancellation/deadline tokens and the
//! query-service configuration.
//!
//! These live in `rqo-core` (rather than in the service crate itself)
//! because the *executor* has to see them: cooperative cancellation only
//! works if the morsel loops deep inside `rqo-exec` can poll the token a
//! running query was admitted with.  Keeping the token type in the
//! estimation/core crate — which the executor already sits below in the
//! dependency order via `rqo-service` — would create a cycle, so the
//! token is defined here, in the one crate both the executor and the
//! service can depend on.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a query stopped before producing its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The client (or an operator) called [`QueryToken::cancel`].
    Cancelled,
    /// The token's deadline passed while the query was queued or running.
    DeadlineExceeded,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => f.write_str("cancelled"),
            StopReason::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// The reason the token first fired; later fires never overwrite it,
    /// so a deadline-exceeded query stays deadline-exceeded even after an
    /// explicit cancel.
    fired: OnceLock<StopReason>,
    /// Set at construction; checked on every poll.
    deadline: Option<Instant>,
    /// Deterministic test hook: when set, every [`QueryToken::poll`]
    /// decrements the counter and the token cancels itself when it
    /// reaches zero — "cancel at the k-th morsel/node boundary" without
    /// any timing dependence.
    polls_before_cancel: Option<AtomicI64>,
}

/// A shared cancellation/deadline token, polled cooperatively by the
/// executor at every operator entry and every morsel boundary.
///
/// Clones share state: cancelling any clone stops the query everywhere
/// the token is polled.  A fired token is **sticky** — once
/// [`poll`](Self::poll) has returned a [`StopReason`], it returns one
/// forever.
#[derive(Debug, Clone, Default)]
pub struct QueryToken {
    inner: Arc<TokenInner>,
}

impl QueryToken {
    /// A token that never fires unless [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires with [`StopReason::DeadlineExceeded`] once
    /// `deadline` (measured from now) has elapsed.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            inner: Arc::new(TokenInner {
                deadline: Some(Instant::now() + deadline),
                ..TokenInner::default()
            }),
        }
    }

    /// Deterministic test hook: a token that cancels itself on the
    /// `polls`-th call to [`poll`](Self::poll) (0 fires immediately).
    /// Polls happen at operator entries and morsel boundaries, so this
    /// pins "cancel at the k-th checkpoint" without sleeping.
    pub fn cancel_after_polls(polls: u64) -> Self {
        Self {
            inner: Arc::new(TokenInner {
                polls_before_cancel: Some(AtomicI64::new(polls.min(i64::MAX as u64) as i64)),
                ..TokenInner::default()
            }),
        }
    }

    /// Requests cancellation.  Idempotent; takes effect at the query's
    /// next poll (at most one morsel of work later).
    pub fn cancel(&self) {
        self.fire(StopReason::Cancelled);
    }

    /// Fires the token with `reason` (first fire wins).
    fn fire(&self, reason: StopReason) {
        let _ = self.inner.fired.set(reason);
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// True when [`cancel`](Self::cancel) has been called (does not check
    /// the deadline and does not consume a test-hook poll).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Polls the token: returns `Some(reason)` when the query must stop.
    /// The reason of the *first* fire is sticky across all later polls.
    pub fn poll(&self) -> Option<StopReason> {
        if let Some(countdown) = &self.inner.polls_before_cancel {
            if countdown.fetch_sub(1, Ordering::SeqCst) <= 0 {
                self.fire(StopReason::Cancelled);
            }
        }
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return self.stop_reason();
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                // Sticky: a passed deadline never un-passes.
                self.fire(StopReason::DeadlineExceeded);
                return self.stop_reason();
            }
        }
        None
    }

    /// The reason the token fired, if it has (does not consume a
    /// poll-countdown tick and does not check the deadline).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.inner.fired.get().copied()
    }
}

/// Configuration of the multi-session query service: worker pool sizing
/// and admission control.  Deadlines are per query, on its
/// [`QueryToken`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Dedicated pool worker threads.  `0` is valid: submitting threads
    /// always participate in their own query's morsels, so the service
    /// still makes progress — dedicated workers only add parallelism.
    pub workers: usize,
    /// Maximum queries executing concurrently; arrivals beyond this wait
    /// in the admission queue.
    pub max_concurrent: usize,
    /// Maximum queries waiting for a slot; arrivals beyond this are
    /// rejected immediately.
    pub queue_capacity: usize,
    /// How long a queued query waits for a slot before being rejected.
    pub queue_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_concurrent: 4,
            queue_capacity: 16,
            queue_timeout: Duration::from_secs(5),
        }
    }
}

impl ServiceConfig {
    /// Overrides the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the concurrent-query limit.
    pub fn with_max_concurrent(mut self, max_concurrent: usize) -> Self {
        self.max_concurrent = max_concurrent;
        self
    }

    /// Overrides the wait-queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Overrides the queue timeout.
    pub fn with_queue_timeout(mut self, queue_timeout: Duration) -> Self {
        self.queue_timeout = queue_timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_never_fires() {
        let t = QueryToken::new();
        for _ in 0..100 {
            assert_eq!(t.poll(), None);
        }
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_is_sticky_and_shared_across_clones() {
        let t = QueryToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.poll(), Some(StopReason::Cancelled));
        assert_eq!(t.poll(), Some(StopReason::Cancelled));
    }

    #[test]
    fn elapsed_deadline_fires_and_sticks() {
        let t = QueryToken::with_deadline(Duration::ZERO);
        assert_eq!(t.poll(), Some(StopReason::DeadlineExceeded));
        assert_eq!(t.stop_reason(), Some(StopReason::DeadlineExceeded));
        // The first fire's reason is sticky, even after an explicit cancel.
        t.cancel();
        assert_eq!(t.poll(), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn cancel_after_polls_counts_exactly() {
        let t = QueryToken::cancel_after_polls(3);
        assert_eq!(t.poll(), None);
        assert_eq!(t.poll(), None);
        assert_eq!(t.poll(), None);
        assert_eq!(t.poll(), Some(StopReason::Cancelled));
        assert_eq!(
            QueryToken::cancel_after_polls(0).poll(),
            Some(StopReason::Cancelled)
        );
    }

    #[test]
    fn config_builders() {
        let cfg = ServiceConfig::default()
            .with_workers(7)
            .with_max_concurrent(3)
            .with_queue_capacity(9)
            .with_queue_timeout(Duration::from_millis(250));
        assert_eq!(cfg.workers, 7);
        assert_eq!(cfg.max_concurrent, 3);
        assert_eq!(cfg.queue_capacity, 9);
        assert_eq!(cfg.queue_timeout, Duration::from_millis(250));
    }
}
