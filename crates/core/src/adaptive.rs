//! Configuration for mid-query adaptive re-optimization.
//!
//! The paper's confidence threshold picks a plan *once*; when the chosen
//! selectivity turns out badly wrong the plan runs to completion anyway.
//! Adaptive execution closes that gap: blocking operators (hash-join
//! builds, aggregate inputs, index intersections, nested-loop outers)
//! carry **runtime cardinality guards** that compare the rows actually
//! materialized at the pipeline breaker against the estimate the plan was
//! priced at.  When the q-error between them exceeds the guard bound,
//! execution pauses, the observed selectivities are fed back, and the
//! remainder of the query is re-optimized at an *escalated* confidence
//! threshold — the first misestimate is evidence the statistics are less
//! trustworthy than the session assumed, so the re-plan hedges harder.
//!
//! [`AdaptivePolicy`] is the knob bundle: how wrong an estimate must be
//! before interrupting (`guard_bound`), how the threshold escalates per
//! re-plan (`escalation`), and how many times one query may re-plan
//! (`max_replans`).

use crate::confidence::ConfidenceThreshold;
use crate::penalty::PlanSelection;

/// Default guard bound: interrupt when actual rows are 4× off the
/// estimate in either direction.  Deliberately looser than the plan
/// cache's 2× drift bound — a mid-query re-plan costs more than
/// a cache eviction, so it takes stronger evidence.
pub const DEFAULT_GUARD_BOUND: f64 = 4.0;

/// Controls when and how a running query re-optimizes itself.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    /// Maximum tolerated q-error (`max(est, actual) / min(est, actual)`,
    /// both floored at one row) between a blocking operator's estimated
    /// and actual output cardinality before execution pauses for a
    /// re-plan.  Must be ≥ 1.
    pub guard_bound: f64,
    /// Confidence-threshold escalation schedule: the `k`-th re-plan (0-
    /// based) runs the optimizer at `max(current, escalation[k])`, with
    /// the last entry reused once the schedule is exhausted.  An empty
    /// schedule keeps the current threshold.
    pub escalation: Vec<ConfidenceThreshold>,
    /// Maximum number of re-plans per query; `0` disables guards
    /// entirely (execution is identical to the non-adaptive path).
    pub max_replans: usize,
    /// Whether a *second* guard trip escalates the re-plan from
    /// quantile mode to [`PlanSelection::ExpectedPenalty`].  One trip is
    /// a misestimate; two trips in the same query mean point-collapsing
    /// the posterior is itself failing, so the re-plan switches to
    /// integrating over it instead of just raising `T`.
    pub escalate_to_penalty: bool,
}

impl Default for AdaptivePolicy {
    /// Guards at 4× q-error, escalating to T = 80% then T = 95%, at most
    /// two re-plans per query.
    fn default() -> Self {
        Self {
            guard_bound: DEFAULT_GUARD_BOUND,
            escalation: vec![
                ConfidenceThreshold::from_percent(80.0),
                ConfidenceThreshold::from_percent(95.0),
            ],
            max_replans: 2,
            escalate_to_penalty: true,
        }
    }
}

impl AdaptivePolicy {
    /// The default enabled policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy that never interrupts: no guards are armed and execution
    /// is bit-identical to the static path, at the static plan's cost.
    pub fn disabled() -> Self {
        Self {
            max_replans: 0,
            ..Self::default()
        }
    }

    /// Replaces the guard bound.
    ///
    /// # Panics
    ///
    /// Panics when `bound < 1.0` (a q-error is never below one).
    pub fn with_guard_bound(mut self, bound: f64) -> Self {
        assert!(bound >= 1.0, "guard bound is a q-error, must be ≥ 1");
        self.guard_bound = bound;
        self
    }

    /// Replaces the escalation schedule.
    pub fn with_escalation(mut self, schedule: Vec<ConfidenceThreshold>) -> Self {
        self.escalation = schedule;
        self
    }

    /// Replaces the re-plan budget.
    pub fn with_max_replans(mut self, max_replans: usize) -> Self {
        self.max_replans = max_replans;
        self
    }

    /// Enables or disables the quantile→penalty mode escalation on the
    /// second guard trip.
    pub fn with_penalty_escalation(mut self, enabled: bool) -> Self {
        self.escalate_to_penalty = enabled;
        self
    }

    /// Whether guards are armed at all.
    pub fn is_enabled(&self) -> bool {
        self.max_replans > 0
    }

    /// The plan-selection mode for the `replans_done`-th re-plan: the
    /// second and later re-plans switch to expected-penalty selection
    /// when [`escalate_to_penalty`](Self::escalate_to_penalty) is set,
    /// and `current` is never *de*-escalated back to quantile mode.
    pub fn escalate_selection(&self, current: PlanSelection, replans_done: usize) -> PlanSelection {
        if current == PlanSelection::ExpectedPenalty {
            return current;
        }
        if self.escalate_to_penalty && replans_done >= 1 {
            PlanSelection::ExpectedPenalty
        } else {
            current
        }
    }

    /// The confidence threshold for the `replans_done`-th re-plan (0 for
    /// the first): the schedule entry, floored at the current threshold —
    /// escalation never *lowers* robustness.
    pub fn escalate(
        &self,
        current: ConfidenceThreshold,
        replans_done: usize,
    ) -> ConfidenceThreshold {
        let Some(target) = self
            .escalation
            .get(replans_done.min(self.escalation.len().saturating_sub(1)))
        else {
            return current;
        };
        if target.value() > current.value() {
            *target
        } else {
            current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_enabled() {
        let p = AdaptivePolicy::default();
        assert!(p.is_enabled());
        assert_eq!(p.guard_bound, DEFAULT_GUARD_BOUND);
        assert_eq!(p.max_replans, 2);
    }

    #[test]
    fn disabled_policy_arms_nothing() {
        assert!(!AdaptivePolicy::disabled().is_enabled());
    }

    #[test]
    fn escalation_takes_max_of_current_and_schedule() {
        let p = AdaptivePolicy::default();
        // Below the schedule: escalate up.
        let t = p.escalate(ConfidenceThreshold::from_percent(50.0), 0);
        assert_eq!(t.percent(), 80.0);
        let t = p.escalate(t, 1);
        assert_eq!(t.percent(), 95.0);
        // Past the schedule end: the last entry is reused.
        let t = p.escalate(t, 5);
        assert_eq!(t.percent(), 95.0);
        // Already above the schedule: never lowered.
        let t = p.escalate(ConfidenceThreshold::from_percent(99.0), 0);
        assert_eq!(t.percent(), 99.0);
    }

    #[test]
    fn selection_escalates_on_the_second_trip_only() {
        let p = AdaptivePolicy::default();
        assert!(p.escalate_to_penalty);
        let first = p.escalate_selection(PlanSelection::Quantile, 0);
        assert_eq!(first, PlanSelection::Quantile);
        let second = p.escalate_selection(PlanSelection::Quantile, 1);
        assert_eq!(second, PlanSelection::ExpectedPenalty);
        // Never de-escalates.
        assert_eq!(
            p.escalate_selection(PlanSelection::ExpectedPenalty, 0),
            PlanSelection::ExpectedPenalty
        );
        // Opt-out keeps quantile mode throughout.
        let p = p.with_penalty_escalation(false);
        assert_eq!(
            p.escalate_selection(PlanSelection::Quantile, 3),
            PlanSelection::Quantile
        );
    }

    #[test]
    fn empty_schedule_keeps_current() {
        let p = AdaptivePolicy::default().with_escalation(vec![]);
        let t = p.escalate(ConfidenceThreshold::from_percent(50.0), 0);
        assert_eq!(t.percent(), 50.0);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn sub_unity_guard_bound_rejected() {
        AdaptivePolicy::default().with_guard_bound(0.5);
    }
}
