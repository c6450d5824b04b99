//! Design transformations ("moves", paper §5.2 and Fig. 8).
//!
//! A move changes the mapping of a process and/or its fault-tolerance
//! policy. Starting from the current solution, the neighbourhood is
//! generated by enumerating, for every process on the critical path,
//! all admissible replication levels, all admissible primary nodes
//! and — for levels that carry a re-execution budget — all admissible
//! checkpoint counts (`1..=`[`Problem::max_checkpoints`], the third
//! move axis); the remaining replicas are greedily placed on the
//! fastest other eligible nodes. [`MoveTable::window`] is the one
//! neighbourhood enumerator the search phases use.

use std::sync::OnceLock;

use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::policy::{FtPolicy, MappingConstraint, PolicyConstraint};

use crate::problem::Problem;
use crate::space::PolicySpace;

/// Enumerates the admissible decisions for `process`.
///
/// The enumeration respects:
/// * the policy space of the strategy (MXR: all levels, MX: `r = 1`,
///   MR: `r = k + 1`),
/// * the designer policy constraint (`PX` / `PR`),
/// * the designer mapping constraint (`PM`): the primary stays on its
///   fixed node,
/// * WCET eligibility for every replica,
/// * the checkpoint-count range ([`Problem::max_checkpoints`]):
///   levels with a re-execution budget additionally enumerate
///   `n ∈ 1..=max_checkpoints` segments on the primary (budget-free
///   levels cannot roll back, so only `n = 1` is admissible).
#[must_use]
pub fn candidate_decisions(
    problem: &Problem,
    space: PolicySpace,
    process: ProcessId,
) -> Vec<ProcessDesign> {
    let fm = problem.fault_model();
    let wcet = problem.wcet();
    let constraints = problem.constraints();

    // Eligible nodes ordered by (wcet, id): the greedy replica fill
    // prefers fast nodes.
    let mut eligible: Vec<(NodeId, ftdes_model::time::Time)> =
        wcet.eligible_nodes(process).collect();
    eligible.sort_by_key(|&(n, c)| (c, n));

    if eligible.is_empty() {
        return Vec::new();
    }
    // Levels are capped at the eligible node count, mirroring
    // `initial_mpa`.
    let mut out = Vec::new();
    for r in space.allowed_levels(fm, eligible.len() as u32) {
        let base_policy = match FtPolicy::new(process, r, fm) {
            Ok(p) => p,
            Err(_) => continue,
        };
        match constraints.policy(process) {
            PolicyConstraint::Free => {}
            PolicyConstraint::Reexecution if base_policy.replicas() == 1 => {}
            PolicyConstraint::Replication if base_policy.replicas() == fm.max_replicas() => {}
            _ => continue,
        }
        // The checkpoint axis: a budgeted primary may roll back at
        // n ∈ 1..=max_checkpoints segments; without a budget only
        // n = 1 exists (the algebra rejects dead checkpoints).
        let max_n = if base_policy.reexecutions() > 0 {
            problem.max_checkpoints()
        } else {
            1
        };
        for &(primary, _) in &eligible {
            if let MappingConstraint::Fixed(required) = constraints.mapping(process) {
                if primary != required {
                    continue;
                }
            }
            // The mapping is checkpoint-independent: build and
            // validate it once per primary, then emit one decision
            // per checkpoint count against it.
            let mut mapping = vec![primary];
            mapping.extend(
                eligible
                    .iter()
                    .map(|&(n, _)| n)
                    .filter(|&n| n != primary)
                    .take(r as usize - 1),
            );
            if mapping.len() != r as usize {
                continue;
            }
            let Ok(base_decision) = ProcessDesign::new(base_policy, mapping) else {
                continue;
            };
            for n in 1..=max_n {
                let Ok(policy) = base_policy.with_checkpoints(process, n, fm) else {
                    continue;
                };
                let mut decision = base_decision.clone();
                decision.policy = policy;
                out.push(decision);
            }
        }
    }
    out
}

/// A reference into a [`MoveTable`]: replace `process`'s decision by
/// entry `decision` of its precomputed candidate list. Two words —
/// the neighbourhood window carries these instead of owned decisions,
/// so building a window allocates nothing per move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRef {
    /// The process whose decision changes.
    pub process: ProcessId,
    /// Index into the process's candidate-decision list.
    pub decision: u32,
}

/// The neighbourhood structure of one search: every admissible
/// decision per process, enumerated on first use.
///
/// The admissible decisions of a process depend only on the problem
/// and the policy space — not on the current design — so they are
/// enumerated **at most once per search** instead of once per
/// iteration (`candidate_decisions` allocates mapping vectors and
/// sorts eligibility lists; at thousands of iterations per second
/// that was a measurable share of the hot path). Only the processes a
/// window visits are enumerated: a list holds levels × eligible nodes
/// × checkpoint counts decisions, and a search visits the critical
/// path, not all of Γ.
#[derive(Debug, Clone)]
pub struct MoveTable<'p> {
    problem: &'p Problem,
    space: PolicySpace,
    per_process: Vec<OnceLock<Vec<ProcessDesign>>>,
}

impl<'p> MoveTable<'p> {
    /// A table over `problem`'s processes in `space`; no process is
    /// enumerated yet.
    #[must_use]
    pub fn new(problem: &'p Problem, space: PolicySpace) -> Self {
        MoveTable {
            problem,
            space,
            per_process: (0..problem.process_count())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// `process`'s admissible decisions in [`candidate_decisions`]
    /// order, enumerated on the first call.
    fn decisions(&self, process: ProcessId) -> &[ProcessDesign] {
        self.per_process[process.index()]
            .get_or_init(|| candidate_decisions(self.problem, self.space, process))
    }

    /// The decision a [`MoveRef`] stands for.
    ///
    /// # Panics
    ///
    /// Panics on a reference from a different table.
    #[must_use]
    pub fn decision(&self, mv: MoveRef) -> &ProcessDesign {
        &self.decisions(mv.process)[mv.decision as usize]
    }

    /// Fills `out` with the neighbourhood of `design` for the
    /// processes in `critical_path` (paper Fig. 9 line 7,
    /// `GenerateMoves(CP)`): every decision change excluding no-ops,
    /// process by process in path order, each process's decisions in
    /// [`candidate_decisions`] order.
    pub fn window(&self, design: &Design, critical_path: &[ProcessId], out: &mut Vec<MoveRef>) {
        out.clear();
        for &p in critical_path {
            let current = design.decision(p);
            for (i, decision) in self.decisions(p).iter().enumerate() {
                if decision != current {
                    out.push(MoveRef {
                        process: p,
                        decision: i as u32,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::DesignConstraints;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    fn problem(k: u32, nodes: usize) -> Problem {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(2)).unwrap();
        let mut wcet = WcetTable::new();
        for p in [a, b] {
            for n in 0..nodes {
                wcet.set(p, NodeId::new(n as u32), Time::from_ms(10 + n as u64));
            }
        }
        let arch = Architecture::with_node_count(nodes);
        let bus = BusConfig::initial(&arch, 2, Time::from_ms(1)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(k, Time::from_ms(5)), bus)
    }

    #[test]
    fn mxr_enumerates_all_levels() {
        let p = problem(1, 3);
        let cands = candidate_decisions(&p, PolicySpace::Mixed, ProcessId::new(0));
        // r = 1: 3 primaries; r = 2: 3 primaries -> 6 decisions.
        assert_eq!(cands.len(), 6);
        assert!(cands.iter().any(|d| d.policy.replicas() == 2));
    }

    #[test]
    fn mx_only_reexecution() {
        let p = problem(1, 3);
        let cands = candidate_decisions(&p, PolicySpace::ReexecutionOnly, ProcessId::new(0));
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|d| d.policy.replicas() == 1));
    }

    #[test]
    fn mr_only_replication() {
        let p = problem(1, 3);
        let cands = candidate_decisions(&p, PolicySpace::ReplicationOnly, ProcessId::new(0));
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|d| d.policy.replicas() == 2));
    }

    #[test]
    fn replication_clamps_to_eligible_nodes() {
        let p = problem(2, 2); // k + 1 = 3 replicas impossible on 2 nodes
        let cands = candidate_decisions(&p, PolicySpace::ReplicationOnly, ProcessId::new(0));
        assert!(!cands.is_empty());
        assert!(
            cands
                .iter()
                .all(|d| d.policy.replicas() == 2 && d.policy.reexecutions() == 1),
            "falls back to the largest feasible level with budget"
        );
    }

    #[test]
    fn mapping_constraint_pins_primary() {
        let mut constraints = DesignConstraints::free(2);
        constraints.set_mapping(ProcessId::new(0), MappingConstraint::Fixed(NodeId::new(1)));
        let p = problem(1, 3).with_constraints(constraints);
        let cands = candidate_decisions(&p, PolicySpace::Mixed, ProcessId::new(0));
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|d| d.primary_node() == NodeId::new(1)));
    }

    #[test]
    fn policy_constraint_filters_levels() {
        let mut constraints = DesignConstraints::free(2);
        constraints.set_policy(ProcessId::new(0), PolicyConstraint::Replication);
        let p = problem(1, 3).with_constraints(constraints);
        let cands = candidate_decisions(&p, PolicySpace::Mixed, ProcessId::new(0));
        assert!(cands.iter().all(|d| d.policy.replicas() == 2));
    }

    #[test]
    fn moves_exclude_noops() {
        let p = problem(1, 2);
        let fm = *p.fault_model();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
        ]);
        let table = MoveTable::new(&p, PolicySpace::Mixed);
        let mut moves = Vec::new();
        table.window(&design, &[ProcessId::new(0)], &mut moves);
        assert!(moves
            .iter()
            .all(|&m| table.decision(m) != design.decision(m.process)));
        // r=1 on N1, r=2 primary N0, r=2 primary N1 -> 3 moves.
        let shape: Vec<(u32, NodeId)> = moves
            .iter()
            .map(|&m| {
                let d = table.decision(m);
                (d.policy.replicas(), d.primary_node())
            })
            .collect();
        let n = NodeId::new;
        assert_eq!(shape, [(1, n(1)), (2, n(0)), (2, n(1))]);
        // Applying a move changes exactly that process.
        let mut next = design.clone();
        next.set_decision(moves[0].process, table.decision(moves[0]).clone());
        assert_ne!(
            next.decision(ProcessId::new(0)),
            design.decision(ProcessId::new(0))
        );
        assert_eq!(
            next.decision(ProcessId::new(1)),
            design.decision(ProcessId::new(1))
        );
    }
}
