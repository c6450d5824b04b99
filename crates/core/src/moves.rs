//! Design transformations ("moves", paper §5.2 and Fig. 8).
//!
//! A move changes the mapping of a process and/or its fault-tolerance
//! policy. The neighbourhood of a solution holds, for every process on
//! the critical path, all admissible replication levels, all
//! admissible primary nodes and — for levels that carry a
//! re-execution budget — all admissible checkpoint counts
//! (`1..=`[`Problem::max_checkpoints`], the third move axis); the
//! remaining replicas are greedily placed on the fastest other
//! eligible nodes. A process's decisions form an index space, level
//! (outer), primary, then count (inner), which [`MoveTable`] decodes
//! on demand: a window is a few index ranges, and a search decodes
//! only the moves it scores.

use std::ops::Range;

use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::fault::FaultModel;
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::policy::{FtPolicy, MappingConstraint, PolicyConstraint};

use crate::problem::Problem;
use crate::space::PolicySpace;

/// A reference into a [`MoveTable`]: replace `process`'s decision by
/// the one at index `decision` of its space (below 2⁶⁰ at every input
/// cap). Windows carry these, so building one allocates nothing per
/// move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRef {
    /// The process whose decision changes.
    pub process: ProcessId,
    /// Index into the process's decision space.
    pub decision: u64,
}

/// A run of one process's moves: the decision indices in the range.
pub(crate) type Span = (ProcessId, Range<u64>);

/// One process's admissible decisions, in O(eligible nodes).
#[derive(Debug, Clone)]
struct Space {
    /// Eligible nodes by (WCET, id): the replica fill order.
    nodes: Vec<NodeId>,
    /// The admissible primaries, a range of `nodes`: all of them, or
    /// the node a `PM` constraint fixes (none if it is ineligible).
    primaries: Range<usize>,
    /// The admissible levels below `k + 1`, which have a re-execution
    /// budget and take every checkpoint count.
    budgeted: Range<u32>,
    /// Whether level `k + 1` is admissible; it takes `n = 1` only.
    replicated: bool,
}

/// The neighbourhood structure of one search: every process's
/// admissible decisions as an index space.
///
/// A space respects the strategy's policy space (MXR: all levels, MX:
/// `r = 1`, MR: `r = k + 1`, each capped at the eligible node count),
/// the designer's `PX` / `PR` policy and `PM` mapping constraints,
/// WCET eligibility of every replica and the checkpoint range. It
/// depends only on the problem and the policy space, so it is built
/// once per search.
#[derive(Debug, Clone)]
pub struct MoveTable {
    fm: FaultModel,
    /// Checkpoint counts of a budgeted level.
    counts: u64,
    spaces: Vec<Space>,
}

impl MoveTable {
    /// The table of `problem`'s processes in `space`.
    #[must_use]
    pub fn new(problem: &Problem, space: PolicySpace) -> Self {
        let fm = *problem.fault_model();
        let constraints = problem.constraints();
        let spaces = (0..problem.process_count() as u32)
            .map(ProcessId::new)
            .map(|p| {
                let mut eligible: Vec<_> = problem.wcet().eligible_nodes(p).collect();
                eligible.sort_by_key(|&(n, c)| (c, n));
                let nodes: Vec<NodeId> = eligible.into_iter().map(|(n, _)| n).collect();
                let primaries = match constraints.mapping(p) {
                    MappingConstraint::Free => 0..nodes.len(),
                    MappingConstraint::Fixed(node) => {
                        let j = nodes.iter().position(|&n| n == node);
                        j.map_or(0..0, |j| j..j + 1)
                    }
                };
                // Levels are capped at the eligible node count; a
                // policy constraint keeps at most one of them.
                let levels = space.allowed_levels(&fm, nodes.len() as u32);
                let (lo, hi) = match constraints.policy(p) {
                    PolicyConstraint::Free => (1, u32::MAX),
                    PolicyConstraint::Reexecution => (1, 1),
                    PolicyConstraint::Replication => (fm.max_replicas(), fm.max_replicas()),
                };
                let (lo, hi) = (lo.max(*levels.start()), hi.min(*levels.end()));
                Space {
                    nodes,
                    primaries,
                    budgeted: lo..hi.min(fm.k()) + 1,
                    replicated: (lo..=hi).contains(&fm.max_replicas()),
                }
            })
            .collect();
        MoveTable {
            fm,
            counts: u64::from(problem.max_checkpoints()),
            spaces,
        }
    }

    /// The number of `process`'s admissible decisions.
    #[must_use]
    pub(crate) fn len(&self, process: ProcessId) -> u64 {
        let s = &self.spaces[process.index()];
        (s.budgeted.len() as u64 * self.counts + u64::from(s.replicated)) * s.primaries.len() as u64
    }

    /// Decodes `mv` into `out`, reusing its mapping buffer: the
    /// primary first, then the fastest other eligible nodes.
    ///
    /// # Panics
    ///
    /// Panics on a reference from a different table.
    pub(crate) fn decode(&self, mv: MoveRef, out: &mut ProcessDesign) {
        let s = &self.spaces[mv.process.index()];
        let per_level = s.primaries.len() as u64 * self.counts;
        let split = s.budgeted.len() as u64 * per_level;
        let i = mv.decision;
        let (r, j, n) = if i < split {
            let level = s.budgeted.start + (i / per_level) as u32;
            (level, i % per_level / self.counts, i % self.counts + 1)
        } else {
            (self.fm.max_replicas(), i - split, 1)
        };
        let primary = s.nodes[s.primaries.clone()][j as usize];
        out.policy = FtPolicy::checkpointed(mv.process, r, n as u32, &self.fm)
            .expect("every decoded decision is admissible");
        out.mapping.clear();
        out.mapping.push(primary);
        let others = s.nodes.iter().copied().filter(|&x| x != primary);
        out.mapping.extend(others.take(r as usize - 1));
    }

    /// The decision a [`MoveRef`] stands for.
    ///
    /// # Panics
    ///
    /// Panics on a reference from a different table.
    #[must_use]
    pub fn decision(&self, mv: MoveRef) -> ProcessDesign {
        let policy = FtPolicy::reexecution(&self.fm);
        let mut out = ProcessDesign {
            policy,
            mapping: Vec::new(),
        };
        self.decode(mv, &mut out);
        out
    }

    /// The index of `target` in `process`'s space: its (level,
    /// primary, count) position, if the decision there equals it. A
    /// decision whose replicas are not in the fill order has none.
    #[must_use]
    pub(crate) fn index_of(&self, process: ProcessId, target: &ProcessDesign) -> Option<u64> {
        let s = &self.spaces[process.index()];
        let primaries = &s.nodes[s.primaries.clone()];
        let primary = target.primary_node();
        let j = primaries.iter().position(|&n| n == primary)? as u64;
        let r = target.replicas();
        let n = u64::from(target.policy.checkpoints());
        let per_level = primaries.len() as u64 * self.counts;
        let decision = if s.budgeted.contains(&r) && (1..=self.counts).contains(&n) {
            u64::from(r - s.budgeted.start) * per_level + j * self.counts + n - 1
        } else if s.replicated && r == self.fm.max_replicas() {
            s.budgeted.len() as u64 * per_level + j
        } else {
            return None;
        };
        (self.decision(MoveRef { process, decision }) == *target).then_some(decision)
    }

    /// Fills `spans` with the neighbourhood of `design` for
    /// `processes` (paper Fig. 9 line 7, `GenerateMoves(CP)`): every
    /// decision change excluding no-ops, process by process in the
    /// given order, each in index order. Returns the number of moves.
    pub(crate) fn neighbourhood(
        &self,
        design: &Design,
        processes: &[ProcessId],
        spans: &mut Vec<Span>,
    ) -> u64 {
        spans.clear();
        let mut moves = 0;
        for &p in processes {
            let len = self.len(p);
            // The current decision is the one no-op, if it has an index.
            let current = self.index_of(p, design.decision(p)).unwrap_or(len);
            for range in [0..current, (current + 1).min(len)..len] {
                if !range.is_empty() {
                    moves += range.end - range.start;
                    spans.push((p, range));
                }
            }
        }
        moves
    }

    /// Fills `out` with the neighbourhood of `design` for the
    /// processes in `critical_path`, listed whole: every decision
    /// change excluding no-ops, process by process in path order.
    pub fn window(&self, design: &Design, critical_path: &[ProcessId], out: &mut Vec<MoveRef>) {
        let mut spans = Vec::new();
        let moves = self.neighbourhood(design, critical_path, &mut spans);
        out.clear();
        take_moves(&spans, 0, moves, out);
    }
}

/// Appends to `out` the `count` moves of the window `spans` list,
/// starting at position `start` and wrapping around at its end.
pub(crate) fn take_moves(spans: &[Span], mut start: u64, mut count: u64, out: &mut Vec<MoveRef>) {
    for (process, range) in spans.iter().cycle() {
        if count == 0 {
            break;
        }
        let len = range.end - range.start;
        if start >= len {
            start -= len;
            continue;
        }
        let (first, take) = (range.start + start, (len - start).min(count));
        let process = *process;
        out.extend((first..first + take).map(|decision| MoveRef { process, decision }));
        start = 0;
        count -= take;
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

    /// `process`'s decisions in index order, decoded by the table.
    fn decisions(p: &Problem, space: PolicySpace, process: ProcessId) -> Vec<ProcessDesign> {
        let table = MoveTable::new(p, space);
        (0..table.len(process))
            .map(|decision| table.decision(MoveRef { process, decision }))
            .collect()
    }

    #[test]
    fn mxr_enumerates_all_levels() {
        let p = problem(1, 3);
        let cands = decisions(&p, PolicySpace::Mixed, ProcessId::new(0));
        // r = 1: 3 primaries; r = 2: 3 primaries -> 6 decisions.
        assert_eq!(cands.len(), 6);
        assert!(cands.iter().any(|d| d.policy.replicas() == 2));
    }

    #[test]
    fn mx_only_reexecution() {
        let p = problem(1, 3);
        let cands = decisions(&p, PolicySpace::ReexecutionOnly, ProcessId::new(0));
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|d| d.policy.replicas() == 1));
    }

    #[test]
    fn mr_only_replication() {
        let p = problem(1, 3);
        let cands = decisions(&p, PolicySpace::ReplicationOnly, ProcessId::new(0));
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|d| d.policy.replicas() == 2));
    }

    #[test]
    fn replication_clamps_to_eligible_nodes() {
        let p = problem(2, 2); // k + 1 = 3 replicas impossible on 2 nodes
        let cands = decisions(&p, PolicySpace::ReplicationOnly, ProcessId::new(0));
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
        let cands = decisions(&p, PolicySpace::Mixed, ProcessId::new(0));
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|d| d.primary_node() == NodeId::new(1)));
    }

    #[test]
    fn policy_constraint_filters_levels() {
        let mut constraints = DesignConstraints::free(2);
        constraints.set_policy(ProcessId::new(0), PolicyConstraint::Replication);
        let p = problem(1, 3).with_constraints(constraints);
        let cands = decisions(&p, PolicySpace::Mixed, ProcessId::new(0));
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
            .all(|&m| table.decision(m) != *design.decision(m.process)));
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
        next.set_decision(moves[0].process, table.decision(moves[0]));
        assert_ne!(
            next.decision(ProcessId::new(0)),
            design.decision(ProcessId::new(0))
        );
        assert_eq!(
            next.decision(ProcessId::new(1)),
            design.decision(ProcessId::new(1))
        );
    }

    /// Three processes on `nodes` nodes under `constraints` applied to
    /// each: P0 runs everywhere (tied WCETs, so the fill order is not
    /// the id order), P1 everywhere but N0 (slowest on N1), P2 only on
    /// N0.
    fn oracle_problem(
        k: u32,
        nodes: u32,
        max_checkpoints: u32,
        policy: PolicyConstraint,
        mapping: MappingConstraint,
    ) -> Problem {
        let mut g = ProcessGraph::new(0.into());
        let ps = g.add_processes(3);
        let mut wcet = WcetTable::new();
        for n in 0..nodes {
            let node = NodeId::new(n);
            wcet.set(ps[0], node, Time::from_ms(10 + u64::from(n % 2)));
            if n > 0 {
                wcet.set(ps[1], node, Time::from_ms(20 - u64::from(n)));
            }
        }
        wcet.set(ps[2], NodeId::new(0), Time::from_ms(7));
        let mut constraints = DesignConstraints::free(3);
        for &p in &ps {
            constraints.set_policy(p, policy);
            constraints.set_mapping(p, mapping.clone());
        }
        let arch = Architecture::with_node_count(nodes as usize);
        let bus = BusConfig::initial(&arch, 2, Time::from_ms(1)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(k, Time::from_ms(5)), bus)
            .with_max_checkpoints(max_checkpoints)
            .with_constraints(constraints)
    }

    #[test]
    fn decoding_matches_the_enumeration_oracle() {
        let spaces = [
            PolicySpace::Mixed,
            PolicySpace::ReexecutionOnly,
            PolicySpace::ReplicationOnly,
        ];
        let policies = [
            PolicyConstraint::Free,
            PolicyConstraint::Reexecution,
            PolicyConstraint::Replication,
        ];
        // No pin, a node every process but P2 may use, and N0, which
        // P1 may not.
        let mappings = [
            MappingConstraint::Free,
            MappingConstraint::Fixed(NodeId::new(1)),
            MappingConstraint::Fixed(NodeId::new(0)),
        ];
        let mut checked = 0;
        for (k, nodes, max_checkpoints) in [(0, 2, 3), (1, 3, 1), (2, 2, 3), (3, 4, 2), (5, 3, 4)] {
            for space in spaces {
                for policy in policies {
                    for mapping in &mappings {
                        let p = oracle_problem(k, nodes, max_checkpoints, policy, mapping.clone());
                        let table = MoveTable::new(&p, space);
                        for process in (0..3).map(ProcessId::new) {
                            let case = format!(
                                "k={k} nodes={nodes} counts={max_checkpoints} {space:?} \
                                 {policy:?} {mapping:?} {process}"
                            );
                            let oracle = candidate_decisions(&p, space, process);
                            assert_eq!(table.len(process), oracle.len() as u64, "{case}");
                            for (i, expected) in oracle.iter().enumerate() {
                                let decision = i as u64;
                                let mv = MoveRef { process, decision };
                                assert_eq!(table.decision(mv), *expected, "{case} #{i}");
                                assert_eq!(table.index_of(process, expected), Some(decision));
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 728, "decisions checked");
    }

    #[test]
    fn a_mapping_off_the_fill_order_has_no_index() {
        let p = problem(1, 3);
        let fm = *p.fault_model();
        // Two replicas, the second on N2 where the fill takes N1.
        let policy = FtPolicy::new(ProcessId::new(0), 2, &fm).unwrap();
        let off = ProcessDesign::new(policy, vec![NodeId::new(0), NodeId::new(2)]).unwrap();
        let design = Design::from_decisions(vec![off.clone(), off.clone()]);
        let table = MoveTable::new(&p, PolicySpace::Mixed);
        assert_eq!(table.index_of(ProcessId::new(0), &off), None);
        let mut moves = Vec::new();
        table.window(&design, &[ProcessId::new(0)], &mut moves);
        assert_eq!(
            moves.len() as u64,
            table.len(ProcessId::new(0)),
            "nothing excluded"
        );
    }

    #[test]
    fn taking_from_an_offset_rotates_the_window() {
        let p = problem(2, 3).with_max_checkpoints(2);
        let fm = *p.fault_model();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                (0..3).map(NodeId::new).collect(),
            )
            .unwrap(),
        ]);
        let table = MoveTable::new(&p, PolicySpace::Mixed);
        let processes = [ProcessId::new(1), ProcessId::new(0)];
        let mut spans = Vec::new();
        let moves = table.neighbourhood(&design, &processes, &mut spans);
        let mut whole = Vec::new();
        table.window(&design, &processes, &mut whole);
        assert_eq!(moves, whole.len() as u64);
        assert_eq!(spans.len(), 4, "both no-ops split their process's range");
        for start in 0..moves {
            for count in [1, 5, moves] {
                let mut rotated = whole.clone();
                rotated.rotate_left(start as usize);
                rotated.truncate(count as usize);
                let mut taken = Vec::new();
                take_moves(&spans, start, count, &mut taken);
                assert_eq!(taken, rotated, "start {start} count {count}");
            }
        }
    }
}
