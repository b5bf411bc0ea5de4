//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a fixed schedule of node failures expressed in *virtual* time:
//! "at t = 12.5 s, node 3 dies". Because events are pinned to the session clock and
//! the schedule is either hand-written or derived from a seed, a failure scenario
//! replays identically run after run — the same property the rest of the simulation
//! substrate provides for launch overheads and inference durations. The runtime's
//! session drives the plan by sleeping on its clock to each event time and failing
//! the named node in its pilot allocation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled node failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time (seconds since the session epoch) at which the failure fires.
    pub at_secs: f64,
    /// Allocation-global index of the node that fails.
    pub node: usize,
}

/// A deterministic schedule of node failures, ordered by firing time.
///
/// Build one explicitly with [`FaultPlan::fail_at`] or derive one from a seed with
/// [`FaultPlan::seeded`]; either way the plan is a pure value — injecting it is the
/// session's job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no failures).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule node `node` to fail at `at_secs` of virtual time. Events may be
    /// added in any order; the plan keeps them sorted by firing time.
    pub fn fail_at(mut self, at_secs: f64, node: usize) -> Self {
        self.events.push(FaultEvent { at_secs, node });
        self.events.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        self
    }

    /// Derive a plan of `count` failures from `seed`: firing times uniform over
    /// `(0, horizon_secs)` and victims uniform over `0..nodes`. The same seed
    /// always yields the same plan; distinct events may name the same node (the
    /// allocation treats repeat failures as no-ops).
    pub fn seeded(seed: u64, nodes: usize, count: usize, horizon_secs: f64) -> Self {
        assert!(nodes > 0, "a fault plan needs at least one node to target");
        assert!(
            horizon_secs > 0.0,
            "fault horizon must be positive, got {horizon_secs}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at_secs = rng.gen_range(0.0..horizon_secs);
            let node = rng.gen_range(0..nodes);
            plan = plan.fail_at(at_secs, node);
        }
        plan
    }

    /// The scheduled events, sorted ascending by firing time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules no failures.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted_by_time() {
        let plan = FaultPlan::new()
            .fail_at(5.0, 1)
            .fail_at(1.0, 0)
            .fail_at(3.0, 2);
        let times: Vec<f64> = plan.events().iter().map(|e| e.at_secs).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 8, 5, 100.0);
        let b = FaultPlan::seeded(42, 8, 5, 100.0);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(43, 8, 5, 100.0));
        assert_eq!(a.len(), 5);
        for e in a.events() {
            assert!(e.at_secs > 0.0 && e.at_secs < 100.0);
            assert!(e.node < 8);
        }
    }

    #[test]
    fn empty_plan_is_default() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new(), FaultPlan::default());
        assert_eq!(FaultPlan::new().events(), &[]);
    }
}
