//! End-to-end degradation scenarios: kill a node mid-mission, repair
//! the design, and *verify* the repair by replaying fault scenarios
//! against the repaired schedule.
//!
//! This module closes the loop the paper leaves open: the offline
//! design is provably schedulable under the (k, µ) fault model, but a
//! *permanent* node failure is outside that model — the fleet must
//! re-solve. [`degrade_and_repair`] drives the whole story:
//!
//! 1. inject a permanent fault on one node (a [`ProblemDelta`] kill),
//! 2. invoke the [`ftdes_core::repair()`] escalation ladder,
//! 3. replay the adversarial transient-fault scenario plus a batch of
//!    random admissible scenarios against the repaired schedule under
//!    the *residual* fault model, and check that every process
//!    completes, no analytic bound is overrun, and nothing executes
//!    on the dead node.
//!
//! [`degrade_and_repair_adversarial`] picks the victim for you: it
//! kills the node carrying the most replicas — the worst structural
//! loss the previous design can suffer.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ftdes_core::config::SearchConfig;
use ftdes_core::problem::Problem;
use ftdes_core::repair::{repair, RepairBudget, RepairError, RepairOutcome};
use ftdes_model::delta::ProblemDelta;
use ftdes_model::design::Design;
use ftdes_model::ids::NodeId;
use ftdes_sched::Schedule;

use crate::engine::replay_scenarios;

/// The nodes the schedule's expanded instances run on, ordered by the
/// instances each hosts (primaries and replicas alike), most first;
/// ties break toward the lowest node id so callers stay deterministic.
fn nodes_by_load(schedule: &Schedule) -> Vec<NodeId> {
    let mut load: HashMap<NodeId, usize> = HashMap::new();
    for inst in schedule.expanded().instances() {
        *load.entry(inst.node).or_insert(0) += 1;
    }
    let mut nodes: Vec<(NodeId, usize)> = load.into_iter().collect();
    nodes.sort_unstable_by_key(|&(node, count)| (Reverse(count), node));
    nodes.into_iter().map(|(node, _)| node).collect()
}

/// The node hosting the most of the schedule's expanded instances
/// (primaries and replicas alike); ties break toward the lowest node
/// id so callers stay deterministic.
#[must_use]
pub fn most_loaded_node(schedule: &Schedule) -> Option<NodeId> {
    nodes_by_load(schedule).first().copied()
}

/// What [`degrade_and_repair`] verified about the repaired design.
#[derive(Debug, Clone)]
pub struct DegradeReport {
    /// The node that was permanently killed.
    pub killed: NodeId,
    /// The repair outcome (post-delta problem, design, rung
    /// provenance).
    pub outcome: RepairOutcome,
    /// `true` when the repaired design is schedulable *and* every
    /// replayed scenario completed within the analytic bounds with no
    /// activity on the killed node.
    pub verified: bool,
    /// Number of fault scenarios replayed (adversarial + random).
    pub scenarios_replayed: usize,
    /// Human-readable reasons verification failed, empty when
    /// `verified`.
    pub violations: Vec<String>,
}

impl DegradeReport {
    /// Worst-case schedule length of the repaired design.
    #[must_use]
    pub fn repaired_length(&self) -> ftdes_model::time::Time {
        self.outcome.length()
    }
}

/// Errors of the degradation driver.
#[derive(Debug)]
pub enum DegradeError {
    /// The repair pipeline itself failed (delta not applicable, no
    /// feasible placement, ...).
    Repair(RepairError),
    /// The previous schedule has no instances, so there is no
    /// most-loaded node to kill.
    EmptySchedule,
}

impl fmt::Display for DegradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeError::Repair(e) => write!(f, "repair failed: {e}"),
            DegradeError::EmptySchedule => {
                f.write_str("previous schedule has no instances to degrade")
            }
        }
    }
}

impl Error for DegradeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DegradeError::Repair(e) => Some(e),
            DegradeError::EmptySchedule => None,
        }
    }
}

impl From<RepairError> for DegradeError {
    fn from(e: RepairError) -> Self {
        DegradeError::Repair(e)
    }
}

/// Kills `node` permanently, repairs `prev` through the escalation
/// ladder, and verifies the repaired design by replaying the
/// adversarial scenario plus `random_count` random admissible
/// scenarios (seeded by `seed`, so runs are reproducible) under the
/// residual fault model.
///
/// Verification failures (a repaired design that misses a deadline
/// analytically, an instance overrunning its bound under some
/// scenario, an instance still placed on the dead node, ...) are
/// *reported*, not raised: the caller gets a [`DegradeReport`] with
/// `verified == false` and the reasons, mirroring how the ladder
/// reports rather than panics.
///
/// # Errors
///
/// [`DegradeError::Repair`] when the delta cannot be applied or no
/// design exists on the degraded platform.
pub fn degrade_and_repair(
    problem: &Problem,
    prev: &Design,
    node: NodeId,
    budget: &RepairBudget,
    cfg: &SearchConfig,
    random_count: usize,
    seed: u64,
) -> Result<DegradeReport, DegradeError> {
    let delta = ProblemDelta::kill_node(node);
    let outcome = repair(problem, prev, &delta, budget, cfg)?;

    let mut violations = Vec::new();
    let repaired = &outcome.schedule;
    let graph = outcome.problem.graph();
    let fm = outcome.problem.fault_model();

    if !repaired.is_schedulable() {
        violations.push(format!(
            "repaired design misses deadlines analytically (length {})",
            repaired.length()
        ));
    }
    for inst in repaired.expanded().instances() {
        if inst.node == node {
            violations.push(format!(
                "instance of {} still placed on dead node {node}",
                inst.process
            ));
        }
    }

    // No realized finish passes its analytic bound, and an analytically
    // schedulable design bounds every process by its deadline: the
    // replay needs no deadline check of its own.
    let replay = replay_scenarios(repaired, graph, fm, random_count, seed);
    violations.extend(replay.violations);

    Ok(DegradeReport {
        killed: node,
        verified: violations.is_empty(),
        scenarios_replayed: replay.scenarios,
        violations,
        outcome,
    })
}

/// Adversarial degradation: kills the node the previous schedule
/// leans on hardest (most expanded instances — see
/// [`most_loaded_node`]). If repair proves that node's loss is beyond
/// mappability (some process could only run there), the next-most
/// loaded node is killed instead, and so on; the error of the last
/// attempt is returned when *no* node survives repair.
///
/// # Errors
///
/// [`DegradeError::EmptySchedule`] when `prev_schedule` has no
/// instances; otherwise the last [`DegradeError::Repair`] when every
/// candidate node is load-bearing beyond repair.
pub fn degrade_and_repair_adversarial(
    problem: &Problem,
    prev: &Design,
    prev_schedule: &Schedule,
    budget: &RepairBudget,
    cfg: &SearchConfig,
    random_count: usize,
    seed: u64,
) -> Result<DegradeReport, DegradeError> {
    let mut last_err = DegradeError::EmptySchedule;
    for node in nodes_by_load(prev_schedule) {
        match degrade_and_repair(problem, prev, node, budget, cfg, random_count, seed) {
            Ok(report) => return Ok(report),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_core::strategy::Strategy;
    use ftdes_gen::paper_workload;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::time::Time;
    use ftdes_ttp::config::BusConfig;
    use std::time::Duration;

    fn small_problem(processes: usize, nodes: usize, seed: u64) -> Problem {
        let arch = Architecture::with_node_count(nodes);
        let workload = paper_workload(processes, &arch, seed);
        let largest = workload
            .graph
            .edges()
            .iter()
            .map(|e| e.message.size)
            .max()
            .unwrap_or(1)
            .max(1);
        let bus = BusConfig::initial(&arch, largest, Time::from_us(2_500)).unwrap();
        Problem::new(
            workload.graph,
            arch,
            workload.wcet,
            FaultModel::new(1, Time::from_ms(5)),
            bus,
        )
    }

    fn quick_cfg() -> SearchConfig {
        SearchConfig {
            max_tabu_iterations: 40,
            time_limit: Some(Duration::from_millis(300)),
            ..SearchConfig::default()
        }
    }

    #[test]
    fn most_loaded_node_counts_instances_deterministically() {
        let problem = small_problem(8, 3, 7);
        let outcome = ftdes_core::optimize(&problem, Strategy::Mxr, &quick_cfg()).expect("opt");
        let a = most_loaded_node(&outcome.schedule).expect("non-empty");
        let b = most_loaded_node(&outcome.schedule).expect("non-empty");
        assert_eq!(a, b);
        assert!(a.index() < 3);
    }

    #[test]
    fn degrade_and_repair_verifies_the_repaired_design() {
        let problem = small_problem(10, 3, 11);
        let outcome = ftdes_core::optimize(&problem, Strategy::Mxr, &quick_cfg()).expect("opt");
        let victim = most_loaded_node(&outcome.schedule).expect("non-empty");
        let budget = RepairBudget::from_total(Duration::from_millis(400));
        let report = degrade_and_repair(
            &problem,
            &outcome.design,
            victim,
            &budget,
            &quick_cfg(),
            8,
            0xDE6A,
        )
        .expect("repair");
        assert!(report.verified, "violations: {:?}", report.violations);
        assert!(report.scenarios_replayed >= 1);
        assert_eq!(report.killed, victim);
    }

    #[test]
    fn adversarial_mode_kills_the_most_loaded_node_first() {
        let problem = small_problem(10, 4, 3);
        let outcome = ftdes_core::optimize(&problem, Strategy::Mxr, &quick_cfg()).expect("opt");
        let heaviest = most_loaded_node(&outcome.schedule).expect("non-empty");
        let budget = RepairBudget::from_total(Duration::from_millis(400));
        let report = degrade_and_repair_adversarial(
            &problem,
            &outcome.design,
            &outcome.schedule,
            &budget,
            &quick_cfg(),
            4,
            1,
        )
        .expect("repair");
        // With 4 nodes and k = 1, losing the heaviest node is always
        // repairable, so the adversary's first pick goes through.
        assert_eq!(report.killed, heaviest);
        assert!(report.verified, "violations: {:?}", report.violations);
    }
}
