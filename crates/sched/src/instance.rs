//! Replica instances: the expansion of a design into schedulable
//! units.
//!
//! A process with replication level `r` contributes `r` instances,
//! one per replica node; the primary (replica 0) carries the whole
//! re-execution budget `e = k + 1 − r` (paper Fig. 2c: the replica
//! `P1/1` is re-executed, `P1/2` is not).

use std::fmt;

use serde::{Deserialize, Serialize};

use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetTable;

use crate::error::SchedError;

/// Identifies one replica instance within an [`ExpandedDesign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(u32);

impl InstanceId {
    /// Creates an id from a raw dense index.
    #[must_use]
    pub const fn new(i: u32) -> Self {
        InstanceId(i)
    }

    /// The raw dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// One schedulable replica of a process.
///
/// Beside the raw WCET, every instance carries its **recovery
/// profile** ([`ftdes_model::policy::RecoveryProfile`]), derived once
/// at expansion: `exec` is the fault-free node occupancy (WCET plus
/// interior checkpoint saves) and `recovery` the worst-case per-fault
/// rollback cost (the full WCET without checkpoints, one segment plus
/// a re-saved checkpoint with them). The scheduler, the shared-slack
/// knapsack, the bounded-run lookaheads, the splice recording and the
/// fault simulator all read these two fields instead of re-deriving
/// `C + µ` arithmetic from policies — the one seam that keeps
/// recovery accounting polymorphic over the technique mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Dense identifier.
    pub id: InstanceId,
    /// The logical process this instance replicates.
    pub process: ProcessId,
    /// Replica number (0 = primary).
    pub replica: u32,
    /// The node the replica is mapped on.
    pub node: NodeId,
    /// Worst-case execution time on that node (raw `C`, excluding
    /// checkpoint saves).
    pub wcet: Time,
    /// Re-execution budget of this instance.
    pub budget: u32,
    /// Checkpoint count `n` (execution segments; 1 = no
    /// checkpointing).
    pub checkpoints: u32,
    /// Fault-free execution time on the node: `C + χ·(n − 1)`.
    pub exec: Time,
    /// Worst-case per-fault rollback/re-run cost excluding `µ`:
    /// `C` for `n = 1`, `⌈C/n⌉ + χ` otherwise.
    pub recovery: Time,
}

impl Instance {
    /// Returns `true` if the instance may re-execute after a fault.
    #[must_use]
    pub fn is_reexecutable(&self) -> bool {
        self.budget > 0
    }

    /// Builds the instance of `process`'s replica number `replica` on
    /// `node` under `decision`'s policy — the one place the recovery
    /// profile is derived.
    fn derive(
        id: InstanceId,
        process: ProcessId,
        replica: u32,
        node: NodeId,
        wcet: Time,
        policy: &ftdes_model::policy::FtPolicy,
        fm: &FaultModel,
    ) -> Self {
        let profile = policy.recovery_profile(replica, wcet, fm);
        Instance {
            id,
            process,
            replica,
            node,
            wcet,
            budget: policy.budget_of_instance(replica),
            checkpoints: policy.checkpoints_of_instance(replica),
            exec: profile.exec,
            recovery: profile.recovery,
        }
    }
}

/// The instances produced by a design, with per-process lookup.
///
/// Stored in CSR (compressed sparse row) form: instances of one
/// process are contiguous (the expansion visits processes in id
/// order), so the per-process lookup is two dense arrays instead of
/// one heap-allocated `Vec` per process — the expansion happens once
/// per candidate evaluation on the optimizer's hot path.
///
/// Every adjacency question the placement core asks — does an edge's
/// message need the bus, does it cross nodes — reduces to the
/// per-process **sole node** (the one node all of a process's
/// instances sit on, if any), kept current by every expansion and
/// patch, so those questions are O(1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExpandedDesign {
    instances: Vec<Instance>,
    /// All instance ids, grouped by process in replica order.
    ids: Vec<InstanceId>,
    /// `ids[offsets[p] .. offsets[p + 1]]` are the instances of
    /// process `p`.
    offsets: Vec<u32>,
    /// Per process: the node all its instances sit on, or `None`
    /// when they span several nodes.
    sole: Vec<Option<NodeId>>,
}

/// The node every item of `nodes` equals, if any (`None` for an empty
/// or mixed sequence).
fn sole_of(mut nodes: impl Iterator<Item = NodeId>) -> Option<NodeId> {
    let first = nodes.next()?;
    nodes.all(|n| n == first).then_some(first)
}

impl ExpandedDesign {
    /// Expands `design` over `graph`, pulling WCETs from `wcet`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::DesignMismatch`] when the design does
    /// not cover exactly the graph's processes, and
    /// [`SchedError::IneligibleMapping`] when a replica sits on a
    /// node without a WCET entry.
    pub fn expand(
        graph: &ProcessGraph,
        design: &Design,
        wcet: &WcetTable,
        fm: &FaultModel,
    ) -> Result<Self, SchedError> {
        let mut out = ExpandedDesign::default();
        out.expand_into(graph, design, wcet, fm)?;
        Ok(out)
    }

    /// [`ExpandedDesign::expand`] rebuilding `self` in place — the
    /// cost-evaluation path reuses one expansion's buffers across
    /// thousands of candidates.
    ///
    /// # Errors
    ///
    /// Same as [`ExpandedDesign::expand`].
    pub fn expand_into(
        &mut self,
        graph: &ProcessGraph,
        design: &Design,
        wcet: &WcetTable,
        fm: &FaultModel,
    ) -> Result<(), SchedError> {
        if design.process_count() != graph.process_count() {
            return Err(SchedError::DesignMismatch {
                expected: graph.process_count(),
                got: design.process_count(),
            });
        }
        self.instances.clear();
        self.ids.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.sole.clear();
        for (process, decision) in design.iter() {
            debug_assert!(
                decision.policy.replicas() <= fm.max_replicas(),
                "designs are validated against the fault model before scheduling"
            );
            for (replica, &node) in decision.mapping.iter().enumerate() {
                let Some(c) = wcet.get(process, node) else {
                    return Err(SchedError::IneligibleMapping { process, node });
                };
                let id = InstanceId::new(self.instances.len() as u32);
                self.instances.push(Instance::derive(
                    id,
                    process,
                    replica as u32,
                    node,
                    c,
                    &decision.policy,
                    fm,
                ));
                self.ids.push(id);
            }
            self.offsets.push(self.instances.len() as u32);
            self.sole.push(sole_of(decision.mapping.iter().copied()));
        }
        Ok(())
    }

    /// Patches `self` **in place**: replaces `process`'s instances by
    /// those of `decision`, saving the replaced instances into
    /// `saved` for [`ExpandedDesign::unpatch`]. The result equals a
    /// full expansion of the patched design, but only the moved
    /// process's range is re-derived (plus id/offset shifts past it
    /// when the replica count changes) — the per-candidate fast path
    /// when a worker's expansion already holds the window's base.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::IneligibleMapping`] (before any
    /// mutation) when a replica of `decision` has no WCET entry.
    pub fn patch_in_place(
        &mut self,
        process: ProcessId,
        decision: &ProcessDesign,
        wcet: &WcetTable,
        fm: &FaultModel,
        saved: &mut Vec<Instance>,
    ) -> Result<(), SchedError> {
        debug_assert!(
            decision.policy.replicas() <= fm.max_replicas(),
            "designs are validated against the fault model before scheduling"
        );
        // Validate before mutating, so an error leaves `self` intact.
        for &node in &decision.mapping {
            if wcet.get(process, node).is_none() {
                return Err(SchedError::IneligibleMapping { process, node });
            }
        }
        let start = self.offsets[process.index()] as usize;
        let end = self.offsets[process.index() + 1] as usize;
        saved.clear();
        saved.extend_from_slice(&self.instances[start..end]);
        self.replace_range(process, start, end, decision, wcet, fm);
        Ok(())
    }

    /// Reverts a [`ExpandedDesign::patch_in_place`]: puts the saved
    /// instances back and undoes the id/offset shifts.
    pub fn unpatch(&mut self, process: ProcessId, saved: &[Instance]) {
        let start = self.offsets[process.index()] as usize;
        let end = self.offsets[process.index() + 1] as usize;
        let delta = saved.len() as i64 - (end - start) as i64;
        self.instances.splice(start..end, saved.iter().copied());
        self.sole[process.index()] = sole_of(saved.iter().map(|inst| inst.node));
        self.fix_tail(process, start + saved.len(), delta);
    }

    fn replace_range(
        &mut self,
        process: ProcessId,
        start: usize,
        end: usize,
        decision: &ProcessDesign,
        wcet: &WcetTable,
        fm: &FaultModel,
    ) {
        let new_len = decision.mapping.len();
        let delta = new_len as i64 - (end - start) as i64;
        self.instances.splice(
            start..end,
            decision.mapping.iter().enumerate().map(|(replica, &node)| {
                Instance::derive(
                    InstanceId::new((start + replica) as u32),
                    process,
                    replica as u32,
                    node,
                    wcet.get(process, node).expect("validated above"),
                    &decision.policy,
                    fm,
                )
            }),
        );
        self.sole[process.index()] = sole_of(decision.mapping.iter().copied());
        self.fix_tail(process, start + new_len, delta);
    }

    fn fix_tail(&mut self, process: ProcessId, tail_start: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        for inst in &mut self.instances[tail_start..] {
            inst.id = InstanceId::new((inst.id.index() as i64 + delta) as u32);
        }
        for o in &mut self.offsets[process.index() + 1..] {
            *o = (i64::from(*o) + delta) as u32;
        }
        // `ids` is always the identity sequence; only its length moves.
        let total = self.instances.len();
        while self.ids.len() < total {
            self.ids.push(InstanceId::new(self.ids.len() as u32));
        }
        self.ids.truncate(total);
    }

    /// All instances, dense by id.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Looks up an instance.
    ///
    /// # Panics
    ///
    /// Panics on an id from a different expansion.
    #[must_use]
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.index()]
    }

    /// The instances of `process` in replica order.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    #[must_use]
    pub fn of_process(&self, process: ProcessId) -> &[InstanceId] {
        let start = self.offsets[process.index()] as usize;
        let end = self.offsets[process.index() + 1] as usize;
        &self.ids[start..end]
    }

    /// The node all of `process`'s instances sit on, or `None` when
    /// they span several nodes.
    pub(crate) fn sole_node(&self, process: ProcessId) -> Option<NodeId> {
        self.sole[process.index()]
    }

    /// `true` when some instance of `consumer` sits off `sender_node`
    /// — i.e. a message from a producer instance on `sender_node` is
    /// booked on the bus (`needs_bus`) and read remotely.
    pub(crate) fn reads_remote(&self, consumer: ProcessId, sender_node: NodeId) -> bool {
        self.sole_node(consumer) != Some(sender_node)
    }

    /// `true` when some instance pair of `from` and `to` sits on
    /// different nodes — the edge's message crosses the bus.
    pub(crate) fn crosses(&self, from: ProcessId, to: ProcessId) -> bool {
        let sole = self.sole_node(from);
        sole.is_none() || sole != self.sole_node(to)
    }

    /// Total number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` when no instances exist (empty graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::graph::Message;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;

    fn setup() -> (ProcessGraph, WcetTable, FaultModel) {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(2)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(10)),
            (a, NodeId::new(1), Time::from_ms(12)),
            (b, NodeId::new(0), Time::from_ms(20)),
            (b, NodeId::new(1), Time::from_ms(25)),
        ]
        .into_iter()
        .collect();
        (g, wcet, FaultModel::new(1, Time::from_ms(5)))
    }

    #[test]
    fn expands_replicas_with_budgets() {
        let (g, wcet, fm) = setup();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        ]);
        let exp = ExpandedDesign::expand(&g, &design, &wcet, &fm).unwrap();
        assert_eq!(exp.len(), 3);
        assert!(!exp.is_empty());
        let p0 = exp.of_process(ProcessId::new(0));
        assert_eq!(p0.len(), 2);
        assert_eq!(
            exp.instance(p0[0]).budget,
            0,
            "pure replication has no budget"
        );
        assert_eq!(exp.instance(p0[1]).replica, 1);
        assert_eq!(exp.instance(p0[1]).wcet, Time::from_ms(12));
        let p1 = exp.of_process(ProcessId::new(1));
        assert_eq!(exp.instance(p1[0]).budget, 1, "primary carries the budget");
        assert!(exp.instance(p1[0]).is_reexecutable());
    }

    #[test]
    fn mismatch_detected() {
        let (g, wcet, fm) = setup();
        let design = Design::from_decisions(vec![ProcessDesign::new(
            FtPolicy::reexecution(&fm),
            vec![NodeId::new(0)],
        )
        .unwrap()]);
        assert!(matches!(
            ExpandedDesign::expand(&g, &design, &wcet, &fm),
            Err(SchedError::DesignMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn ineligible_mapping_detected() {
        let (g, wcet, fm) = setup();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(2)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
        ]);
        assert!(matches!(
            ExpandedDesign::expand(&g, &design, &wcet, &fm),
            Err(SchedError::IneligibleMapping { .. })
        ));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::graph::Message;
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;

    #[test]
    fn instance_ids_are_dense_and_ordered_by_process() {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(1)).unwrap();
        let mut wcet = WcetTable::new();
        for p in [a, b] {
            for n in 0..3u32 {
                wcet.set(p, NodeId::new(n), Time::from_ms(5));
            }
        }
        let fm = FaultModel::new(2, Time::from_ms(1));
        let design = Design::from_decisions(vec![
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            )
            .unwrap(),
            ProcessDesign::new(
                FtPolicy::new(ProcessId::new(1), 2, &fm).unwrap(),
                vec![NodeId::new(1), NodeId::new(2)],
            )
            .unwrap(),
        ]);
        let exp = ExpandedDesign::expand(&g, &design, &wcet, &fm).unwrap();
        assert_eq!(exp.len(), 5);
        for (i, inst) in exp.instances().iter().enumerate() {
            assert_eq!(inst.id.index(), i, "dense ids");
        }
        // Replicas of the same process are contiguous and ordered.
        let b_ids = exp.of_process(b);
        assert_eq!(exp.instance(b_ids[0]).replica, 0);
        assert_eq!(exp.instance(b_ids[1]).replica, 1);
        // Combined policy: primary carries the leftover budget.
        assert_eq!(exp.instance(b_ids[0]).budget, 1);
        assert_eq!(exp.instance(b_ids[1]).budget, 0);
        assert!(exp.instance(b_ids[0]).is_reexecutable());
        assert!(!exp.instance(b_ids[1]).is_reexecutable());
    }

    #[test]
    fn display_of_instance_id() {
        assert_eq!(InstanceId::new(4).to_string(), "I4");
    }

    #[test]
    fn in_place_patch_equals_full_expansion_and_undoes() {
        let mut g = ProcessGraph::new(0.into());
        let ps = g.add_processes(3);
        g.add_edge(ps[0], ps[1], Message::new(1)).unwrap();
        g.add_edge(ps[1], ps[2], Message::new(1)).unwrap();
        let mut wcet = WcetTable::new();
        for &p in &ps {
            for n in 0..3u32 {
                wcet.set(p, NodeId::new(n), Time::from_ms(5 + u64::from(n)));
            }
        }
        let fm = FaultModel::new(2, Time::from_ms(1));
        let rex = |node: u32| {
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(node)]).unwrap()
        };
        let base_design = Design::from_decisions(vec![rex(0), rex(1), rex(2)]);
        let base = ExpandedDesign::expand(&g, &base_design, &wcet, &fm).unwrap();
        let replacements = [
            ProcessDesign::new(
                FtPolicy::new(ProcessId::new(1), 2, &fm).unwrap(),
                vec![NodeId::new(1), NodeId::new(2)],
            )
            .unwrap(),
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            )
            .unwrap(),
            rex(2),
        ];
        let mut live = base.clone();
        let mut saved = Vec::new();
        for &p in &ps {
            for decision in &replacements {
                let mut moved = base_design.clone();
                moved.set_decision(p, decision.clone());
                let full = ExpandedDesign::expand(&g, &moved, &wcet, &fm).unwrap();
                live.patch_in_place(p, decision, &wcet, &fm, &mut saved)
                    .unwrap();
                assert_eq!(live, full, "in-place patch diverged for {p:?}");
                live.unpatch(p, &saved);
                assert_eq!(live, base, "unpatch must restore the base");
            }
        }
        // A failing patch must leave the expansion untouched.
        let bad = ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(7)]).unwrap();
        assert!(live
            .patch_in_place(ps[1], &bad, &wcet, &fm, &mut saved)
            .is_err());
        assert_eq!(live, base);
    }

    /// The sole-node table behind `reads_remote` / `crosses` must
    /// agree with the pairwise replica scans that define them, for every
    /// process pair and node, after full expansions, patched
    /// expansions and random in-place patch/unpatch sequences —
    /// replica-count changes included.
    mod adjacency {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        const PROCESSES: usize = 6;
        const NODES: u32 = 4;

        /// Decision number `code` for `process`: 1..=3 replicas
        /// (k = 2) on a rotated, strided choice of distinct nodes.
        fn decision(fm: &FaultModel, process: ProcessId, code: u32) -> ProcessDesign {
            let replicas = 1 + code % 3;
            let start = (code / 3) % NODES;
            let step = if (code / 12).is_multiple_of(2) { 1 } else { 3 };
            let mapping = (0..replicas)
                .map(|i| NodeId::new((start + i * step) % NODES))
                .collect();
            ProcessDesign::new(FtPolicy::new(process, replicas, fm).unwrap(), mapping).unwrap()
        }

        /// Asserts the O(1) adjacency answers against the pairwise
        /// instance scans.
        fn check(exp: &ExpandedDesign) {
            let nodes_of = |p: ProcessId| -> Vec<NodeId> {
                exp.of_process(p)
                    .iter()
                    .map(|&i| exp.instance(i).node)
                    .collect()
            };
            for a in 0..PROCESSES {
                let pa = ProcessId::new(a as u32);
                let na = nodes_of(pa);
                let sole = na.iter().all(|&n| n == na[0]).then_some(na[0]);
                assert_eq!(exp.sole_node(pa), sole, "sole node of {pa:?}");
                for n in 0..NODES {
                    let n = NodeId::new(n);
                    assert_eq!(
                        exp.reads_remote(pa, n),
                        na.iter().any(|&m| m != n),
                        "reads_remote({pa:?}, {n:?})"
                    );
                }
                for b in 0..PROCESSES {
                    let pb = ProcessId::new(b as u32);
                    let nb = nodes_of(pb);
                    let pairwise = na.iter().any(|&x| nb.iter().any(|&y| x != y));
                    assert_eq!(exp.crosses(pa, pb), pairwise, "crosses({pa:?}, {pb:?})");
                }
            }
        }

        proptest! {
            #[test]
            fn sole_node_matches_pairwise_scan(
                start in vec(0u32..24, PROCESSES..PROCESSES + 1),
                ops in vec((0usize..PROCESSES, 0u32..24, 0u32..2), 1..40),
            ) {
                let mut g = ProcessGraph::new(0.into());
                let ps = g.add_processes(PROCESSES);
                let mut wcet = WcetTable::new();
                for &p in &ps {
                    for n in 0..NODES {
                        wcet.set(p, NodeId::new(n), Time::from_ms(5 + u64::from(n)));
                    }
                }
                let fm = FaultModel::new(2, Time::from_ms(1));
                let mut design = Design::from_decisions(
                    ps.iter()
                        .zip(&start)
                        .map(|(&p, &code)| decision(&fm, p, code))
                        .collect(),
                );
                let mut live = ExpandedDesign::default();
                live.expand_into(&g, &design, &wcet, &fm).unwrap();
                check(&live);
                let mut saved = Vec::new();
                for &(p, code, mode) in &ops {
                    let p = ps[p];
                    let d = decision(&fm, p, code);
                    match mode {
                        // Patch, check, undo: the base must come back.
                        0 => {
                            live.patch_in_place(p, &d, &wcet, &fm, &mut saved).unwrap();
                            check(&live);
                            live.unpatch(p, &saved);
                        }
                        // Patch and keep: the walk moves on.
                        _ => {
                            live.patch_in_place(p, &d, &wcet, &fm, &mut saved).unwrap();
                            design.set_decision(p, d);
                        }
                    }
                    check(&live);
                    let full = ExpandedDesign::expand(&g, &design, &wcet, &fm).unwrap();
                    prop_assert_eq!(&live, &full);
                }
            }
        }
    }
}
