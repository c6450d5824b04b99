//! Shared re-execution slack: the adversary's worst-case delay on a
//! node (paper §5.1 and Fig. 3b).
//!
//! Re-execution slack can be *shared*: one slack region per node is
//! enough as long as it covers any admissible distribution of the `k`
//! faults over the node's instances. Instances register their
//! **recovery profile** (`ftdes_model::policy::RecoveryProfile`) —
//! the per-fault rollback cost `R_j`, which is the full WCET `C_j`
//! for plain re-execution and one segment plus a re-saved checkpoint
//! (`⌈C_j/n⌉ + χ`) for a checkpointed primary. The marginal cost of
//! the faults hitting instance `j` (budget `e_j`) is decreasing:
//!
//! * each of the first `e_j` faults costs `R_j + µ` (a
//!   rollback/re-run plus the detection/recovery overhead),
//! * one further fault *kills* the instance and costs `µ` alone (the
//!   failed attempt was already scheduled; only the recovery overhead
//!   delays the node before it resumes — paper §2.1 defines `µ` as
//!   lasting "from the moment the fault is detected until the system
//!   is back to its normal operation").
//!
//! The worst-case delay is the greedy knapsack over these marginal
//! costs: spend the fault budget on the largest `R + µ` items first;
//! any faults left once every budget is exhausted kill instances at
//! `µ` each. Registering recovery costs instead of raw WCETs is what
//! lets checkpointing change every bound in the system from this one
//! seam.

use ftdes_model::time::Time;

use crate::instance::InstanceId;

/// Per-node account of instances used to answer worst-case delay
/// queries.
///
/// Instances are registered in fault-free completion order (list
/// scheduling appends them); a query for "delay before instance `i`
/// completes" therefore ranges over everything registered so far.
#[derive(Debug, Clone, Default)]
pub struct SlackAccount {
    /// `(recovery, budget, id)` of re-executable instances, sorted by
    /// descending per-fault recovery cost.
    entries: Vec<(Time, u32, InstanceId)>,
    /// Sum of budgets, to cap the re-run fault count early.
    total_budget: u64,
    /// All registered instances (each can die exactly once at µ).
    instance_count: u64,
}

impl SlackAccount {
    /// Creates an empty account.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the account for reuse (scratch-resident accounts are
    /// reset once per evaluation instead of reallocated).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total_budget = 0;
        self.instance_count = 0;
    }

    /// Registers an instance by its per-fault `recovery` cost (the
    /// raw WCET for plain re-execution, one segment plus a re-saved
    /// checkpoint for a checkpointed primary — see
    /// `Instance::recovery`). Zero-budget instances cannot re-run but
    /// still cost `µ` when a fault kills them.
    pub fn register(&mut self, id: InstanceId, recovery: Time, budget: u32) {
        self.instance_count += 1;
        if budget == 0 {
            return;
        }
        let pos = self.entries.partition_point(|&(c, _, _)| c > recovery);
        self.entries.insert(pos, (recovery, budget, id));
        self.total_budget += u64::from(budget);
    }

    /// The worst-case total delay caused by up to `k` faults
    /// distributed over the registered instances.
    #[must_use]
    pub fn worst_delay(&self, k: u32, mu: Time) -> Time {
        let mut remaining = u64::from(k);
        let mut delay = Time::ZERO;
        for &(c, e, _) in &self.entries {
            if remaining == 0 {
                return delay;
            }
            let hits = remaining.min(u64::from(e));
            delay += (c + mu) * hits;
            remaining -= hits;
        }
        // Every re-run budget is exhausted: the remaining faults kill
        // instances (one fault each) at µ apiece.
        delay + mu * remaining.min(self.instance_count)
    }

    /// Like [`SlackAccount::worst_delay`], but for bounding the
    /// finish of a *surviving* instance that is itself part of the
    /// account: its own kill (which would erase the finish being
    /// bounded) is excluded from the adversary's options, while its
    /// own re-runs remain.
    #[must_use]
    pub fn worst_delay_surviving(&self, k: u32, mu: Time) -> Time {
        let mut remaining = u64::from(k);
        let mut delay = Time::ZERO;
        for &(c, e, _) in &self.entries {
            if remaining == 0 {
                return delay;
            }
            let hits = remaining.min(u64::from(e));
            delay += (c + mu) * hits;
            remaining -= hits;
        }
        delay + mu * remaining.min(self.instance_count.saturating_sub(1))
    }

    /// The instance contributing the largest per-fault cost — a prime
    /// candidate for optimization moves on the critical path.
    #[must_use]
    pub fn peak(&self) -> Option<InstanceId> {
        self.entries.first().map(|&(_, _, id)| id)
    }

    /// Number of registered re-executable instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing re-executable is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of registered instances (including zero-budget
    /// ones).
    #[must_use]
    pub fn instance_count(&self) -> u64 {
        self.instance_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Time {
        Time::from_ms(v)
    }

    fn id(i: u32) -> InstanceId {
        InstanceId::new(i)
    }

    #[test]
    fn empty_account_no_delay() {
        let acc = SlackAccount::new();
        assert_eq!(acc.worst_delay(5, ms(10)), Time::ZERO);
        assert!(acc.is_empty());
        assert_eq!(acc.peak(), None);
        assert_eq!(acc.instance_count(), 0);
    }

    #[test]
    fn single_instance_hit_repeatedly() {
        // Fig. 2a: k = 2 faults may both hit the same process.
        let mut acc = SlackAccount::new();
        acc.register(id(0), ms(30), 2);
        assert_eq!(acc.worst_delay(2, ms(10)), ms(80)); // 2 * (30 + 10)
        assert_eq!(acc.worst_delay(1, ms(10)), ms(40));
        // A third fault kills the instance: µ more. Further faults
        // have nothing left to hit.
        assert_eq!(acc.worst_delay(3, ms(10)), ms(90));
        assert_eq!(acc.worst_delay(5, ms(10)), ms(90));
    }

    #[test]
    fn shared_slack_picks_largest_first() {
        // Fig. 3b1: P1 (40 ms) and P2 (60 ms) share one slack; for
        // k = 1 the slack must cover the larger process: 60 + 10.
        let mut acc = SlackAccount::new();
        acc.register(id(0), ms(40), 1);
        acc.register(id(1), ms(60), 1);
        assert_eq!(acc.worst_delay(1, ms(10)), ms(70));
        // Two faults: one on each (each budget 1): 70 + 50.
        assert_eq!(acc.worst_delay(2, ms(10)), ms(120));
        assert_eq!(acc.peak(), Some(id(1)));
    }

    #[test]
    fn zero_budget_costs_mu_on_death() {
        let mut acc = SlackAccount::new();
        acc.register(id(0), ms(100), 0); // pure replica: dies at µ
        acc.register(id(1), ms(20), 1);
        assert_eq!(acc.len(), 1, "only re-executable entries tracked");
        assert_eq!(acc.instance_count(), 2);
        // One fault: re-run of the 20 ms instance dominates a kill.
        assert_eq!(acc.worst_delay(1, ms(5)), ms(25));
        // Two faults: re-run + one kill (either instance) at µ.
        assert_eq!(acc.worst_delay(2, ms(5)), ms(30));
        // Three faults: re-run + both kills.
        assert_eq!(acc.worst_delay(3, ms(5)), ms(35));
        // No more targets after that.
        assert_eq!(acc.worst_delay(9, ms(5)), ms(35));
        assert_eq!(acc.peak(), Some(id(1)));
        // A surviving instance cannot be killed itself: one kill slot
        // fewer.
        assert_eq!(acc.worst_delay_surviving(3, ms(5)), ms(30));
        assert_eq!(acc.worst_delay_surviving(9, ms(5)), ms(30));
    }

    #[test]
    fn budget_spread_over_instances() {
        let mut acc = SlackAccount::new();
        acc.register(id(0), ms(50), 2);
        acc.register(id(1), ms(30), 2);
        // k = 3: two hits on the 50 ms instance, one on the 30 ms one.
        assert_eq!(acc.worst_delay(3, ms(10)), ms(60 + 60 + 40));
    }

    #[test]
    fn registration_order_irrelevant() {
        let mut a = SlackAccount::new();
        a.register(id(0), ms(10), 1);
        a.register(id(1), ms(90), 1);
        a.register(id(2), ms(50), 0);
        let mut b = SlackAccount::new();
        b.register(id(2), ms(50), 0);
        b.register(id(1), ms(90), 1);
        b.register(id(0), ms(10), 1);
        for k in 0..5 {
            assert_eq!(a.worst_delay(k, ms(5)), b.worst_delay(k, ms(5)));
        }
    }
}
