//! The constants of mid-query adaptive re-optimization.
//!
//! The paper's confidence threshold picks a plan *once*; when the chosen
//! selectivity turns out badly wrong the plan runs to completion anyway.
//! Adaptive execution closes that gap: blocking operators (hash-join
//! builds, aggregate inputs, index intersections, nested-loop outers)
//! carry **runtime cardinality guards** that compare the rows actually
//! materialized at the pipeline breaker against the estimate the plan was
//! priced at.  When the q-error between them exceeds [`GUARD_BOUND`],
//! execution pauses, the observed selectivities are fed back, and the
//! remainder of the query is re-optimized at an *escalated* confidence
//! threshold — the first misestimate is evidence the statistics are less
//! trustworthy than the session assumed, so the re-plan hedges harder.
//!
//! The ladder is fixed: the first re-plan runs at T = 80 %, the second at
//! T = 95 % and in expected-penalty mode ([`escalate`],
//! [`escalate_selection`]), and a query re-plans at most [`MAX_REPLANS`]
//! times.  The one knob stays the paper's: a run is adaptive or not.

use crate::confidence::ConfidenceThreshold;
use crate::penalty::PlanSelection;

/// Guard bound: interrupt when actual rows are 4× off the estimate in
/// either direction.  Deliberately looser than the plan cache's 2× drift
/// bound — a mid-query re-plan costs more than a cache eviction, so it
/// takes stronger evidence.
pub const GUARD_BOUND: f64 = 4.0;

/// Re-plans one query may make; its last permitted execution runs
/// unguarded to completion.
pub const MAX_REPLANS: usize = 2;

/// Threshold schedule in percent: the `k`-th re-plan (0-based) runs at
/// `max(current, ESCALATION[k])`, the last entry reused past the end.
const ESCALATION: [f64; 2] = [80.0, 95.0];

/// The confidence threshold for the `replans_done`-th re-plan (0 for the
/// first): the schedule entry, floored at the current threshold —
/// escalation never *lowers* robustness.
pub fn escalate(current: ConfidenceThreshold, replans_done: usize) -> ConfidenceThreshold {
    let target =
        ConfidenceThreshold::from_percent(ESCALATION[replans_done.min(ESCALATION.len() - 1)]);
    if target.value() > current.value() {
        target
    } else {
        current
    }
}

/// The plan-selection mode for the `replans_done`-th re-plan.  One trip
/// is a misestimate; a second in the same query means point-collapsing
/// the posterior is itself failing, so the second and later re-plans
/// switch to [`PlanSelection::ExpectedPenalty`] and integrate over it.
/// A query already in penalty mode stays there.
pub fn escalate_selection(current: PlanSelection, replans_done: usize) -> PlanSelection {
    if replans_done >= 1 {
        PlanSelection::ExpectedPenalty
    } else {
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_takes_max_of_current_and_schedule() {
        // Below the schedule: escalate up.
        let t = escalate(ConfidenceThreshold::from_percent(50.0), 0);
        assert_eq!(t.percent(), 80.0);
        let t = escalate(t, 1);
        assert_eq!(t.percent(), 95.0);
        // Past the schedule end: the last entry is reused.
        let t = escalate(t, 5);
        assert_eq!(t.percent(), 95.0);
        // Already above the schedule: never lowered.
        let t = escalate(ConfidenceThreshold::from_percent(99.0), 0);
        assert_eq!(t.percent(), 99.0);
    }

    #[test]
    fn selection_escalates_on_the_second_trip_only() {
        let first = escalate_selection(PlanSelection::Quantile, 0);
        assert_eq!(first, PlanSelection::Quantile);
        let second = escalate_selection(PlanSelection::Quantile, 1);
        assert_eq!(second, PlanSelection::ExpectedPenalty);
        // Never de-escalates.
        assert_eq!(
            escalate_selection(PlanSelection::ExpectedPenalty, 0),
            PlanSelection::ExpectedPenalty
        );
    }
}
