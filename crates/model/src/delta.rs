//! Problem deltas: structural change applied to a deployed problem.
//!
//! The paper designs fault-tolerant schedules offline, but a deployed
//! system degrades online: a node fails permanently, a WCET estimate
//! is revised upward after field measurements, a process is added or
//! retired. A [`ProblemDelta`] is a small algebra of such changes.
//! Applying it to the model parts of a problem yields an
//! [`AppliedDelta`]: the post-delta graph and WCET table, the process
//! id remapping (process ids are dense, so removals shift ids), and a
//! record of what the delta touched. From that record and the
//! previous design, [`AppliedDelta::compatibility`] derives a
//! [`CompatibilityReport`]: which decisions of the old design survive
//! untouched and which are *dirty* — referencing a dead node, losing
//! a neighbor to a removal, or sitting on a degraded/rescaled WCET
//! entry — and therefore worth re-optimizing during repair.
//!
//! Two modelling choices keep a delta compatible with the TTP bus:
//!
//! * **Killed nodes stay in the architecture.** A TTP round assigns
//!   every node one slot; removing the node would renumber slots and
//!   invalidate the MEDL of every deployed node. A killed node
//!   instead loses all its WCET entries — no process is eligible
//!   there, so no design can ever map onto it — and its TDMA slot
//!   simply goes unused, exactly as on the physical bus where a dead
//!   node falls silent in its slot.
//! * **Process ids stay dense.** `RemoveProcess` rebuilds the graph
//!   with ids above the removed process shifted down by one;
//!   [`AppliedDelta::map_process`] and [`AppliedDelta::origin_of`]
//!   translate between the pre- and post-delta id spaces.

use std::collections::BTreeSet;
use std::fmt;

use crate::architecture::Architecture;
use crate::design::Design;
use crate::error::ModelError;
use crate::fault::FaultModel;
use crate::graph::{Message, ProcessGraph};
use crate::ids::{NodeId, ProcessId};
use crate::time::Time;
use crate::wcet::WcetTable;

/// Specification of a process introduced by [`DeltaOp::AddProcess`].
///
/// Edge endpoints reference **pre-delta** process ids; they are
/// resolved through the running remap when the op applies, so a
/// composite delta may remove one process and wire a replacement to
/// the survivors in the same application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewProcess {
    /// Human-readable name of the new process.
    pub name: String,
    /// Earliest start time.
    pub release: Time,
    /// Optional deadline.
    pub deadline: Option<Time>,
    /// WCET per eligible node. Entries on killed nodes are dropped;
    /// at least one live entry must remain.
    pub wcet: Vec<(NodeId, Time)>,
    /// Incoming data dependencies `(sender, message)`, senders in
    /// pre-delta ids.
    pub inputs: Vec<(ProcessId, Message)>,
    /// Outgoing data dependencies `(receiver, message)`, receivers in
    /// pre-delta ids.
    pub outputs: Vec<(ProcessId, Message)>,
}

impl NewProcess {
    /// A new process with the given name, WCET entries and no edges.
    #[must_use]
    pub fn named<S: Into<String>>(name: S, wcet: Vec<(NodeId, Time)>) -> Self {
        NewProcess {
            name: name.into(),
            release: Time::ZERO,
            deadline: None,
            wcet,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

/// One elementary change of a [`ProblemDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// A node fails permanently: all its WCET entries are removed, so
    /// no process is eligible there anymore. The node keeps its TDMA
    /// slot (which goes unused) — see the module docs.
    KillNode {
        /// The failed node.
        node: NodeId,
    },
    /// A node slows down (e.g. thermal throttling): every WCET entry
    /// on it is scaled to `percent`% (rounding up).
    DegradeNode {
        /// The degraded node.
        node: NodeId,
        /// New WCET in percent of the old (`150` = 1.5× slower;
        /// values below 100 model a speedup). Must be non-zero.
        percent: u32,
    },
    /// WCET revision: entries of one process (or of every process)
    /// are scaled to `percent`% on all nodes (rounding up).
    RescaleWcet {
        /// The revised process, in pre-delta ids; `None` rescales the
        /// whole table.
        process: Option<ProcessId>,
        /// New WCET in percent of the old. Must be non-zero.
        percent: u32,
    },
    /// A process is added to the application.
    AddProcess(Box<NewProcess>),
    /// A process is retired. Its edges are dropped (its surviving
    /// neighbors turn dirty) and ids above it shift down by one.
    RemoveProcess {
        /// The retired process, in pre-delta ids.
        process: ProcessId,
    },
}

impl fmt::Display for DeltaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaOp::KillNode { node } => write!(f, "kill-node {node}"),
            DeltaOp::DegradeNode { node, percent } => {
                write!(f, "degrade-node {node} to {percent}%")
            }
            DeltaOp::RescaleWcet {
                process: Some(p),
                percent,
            } => write!(f, "rescale-wcet {p} to {percent}%"),
            DeltaOp::RescaleWcet {
                process: None,
                percent,
            } => write!(f, "rescale-wcet to {percent}%"),
            DeltaOp::AddProcess(spec) => write!(f, "add-process {}", spec.name),
            DeltaOp::RemoveProcess { process } => write!(f, "remove-process {process}"),
        }
    }
}

/// An ordered sequence of [`DeltaOp`]s applied atomically: either
/// every op applies and the result validates, or the whole delta is
/// rejected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProblemDelta {
    ops: Vec<DeltaOp>,
}

impl ProblemDelta {
    /// The empty delta (applying it is the identity).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-op delta killing `node`.
    #[must_use]
    pub fn kill_node(node: NodeId) -> Self {
        ProblemDelta::new().and(DeltaOp::KillNode { node })
    }

    /// A single-op delta degrading `node` to `percent`% speed.
    #[must_use]
    pub fn degrade_node(node: NodeId, percent: u32) -> Self {
        ProblemDelta::new().and(DeltaOp::DegradeNode { node, percent })
    }

    /// A single-op delta rescaling the whole WCET table.
    #[must_use]
    pub fn rescale_wcet(percent: u32) -> Self {
        ProblemDelta::new().and(DeltaOp::RescaleWcet {
            process: None,
            percent,
        })
    }

    /// A single-op delta removing `process`.
    #[must_use]
    pub fn remove_process(process: ProcessId) -> Self {
        ProblemDelta::new().and(DeltaOp::RemoveProcess { process })
    }

    /// A single-op delta adding a process.
    #[must_use]
    pub fn add_process(spec: NewProcess) -> Self {
        ProblemDelta::new().and(DeltaOp::AddProcess(Box::new(spec)))
    }

    /// Appends `op` (builder style).
    #[must_use]
    pub fn and(mut self, op: DeltaOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends `op` in place.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// The ops in application order.
    #[must_use]
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Returns `true` for the identity delta.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the delta to the model parts of a problem.
    ///
    /// The architecture is read-only context (killed nodes stay, see
    /// the module docs); graph and WCET table are rebuilt.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownNode`] / [`ModelError::UnknownProcess`]
    ///   when an op references a node or process the (running) model
    ///   does not have,
    /// * [`ModelError::InvalidDelta`] for malformed ops (zero scale
    ///   percent, WCET overflow, adding an edge that already exists),
    /// * [`ModelError::Unmappable`] when the post-delta table leaves
    ///   a process with no eligible node — the platform degraded
    ///   beyond what a repair can absorb,
    /// * [`ModelError::CyclicGraph`] when added edges close a cycle.
    pub fn apply(
        &self,
        graph: &ProcessGraph,
        arch: &Architecture,
        wcet: &WcetTable,
    ) -> Result<AppliedDelta, ModelError> {
        let mut state = DeltaState::seed(graph, wcet);
        for op in &self.ops {
            state.apply_op(op, arch)?;
        }
        state.finish(arch)
    }
}

impl fmt::Display for ProblemDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return write!(f, "(identity)");
        }
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

/// The result of applying a [`ProblemDelta`]: post-delta model parts
/// plus the bookkeeping repair needs to translate the old design and
/// decide what to re-optimize.
#[derive(Debug, Clone)]
pub struct AppliedDelta {
    /// The post-delta process graph (dense ids).
    pub graph: ProcessGraph,
    /// The post-delta WCET table.
    pub wcet: WcetTable,
    /// Pre-delta id -> post-delta id (`None` = removed).
    remap: Vec<Option<ProcessId>>,
    /// Post-delta id -> pre-delta id (`None` = added by the delta).
    origin: Vec<Option<ProcessId>>,
    /// Permanently failed nodes.
    killed_nodes: Vec<NodeId>,
    /// Slowed-down nodes.
    degraded_nodes: Vec<NodeId>,
    /// Processes whose WCET entries were rescaled, post-delta ids.
    rescaled: Vec<ProcessId>,
    /// Survivors that lost a neighbor (removed process or dropped
    /// edge), post-delta ids.
    orphaned: Vec<ProcessId>,
}

impl AppliedDelta {
    /// Translates a pre-delta process id; `None` if the delta removed
    /// the process.
    #[must_use]
    pub fn map_process(&self, old: ProcessId) -> Option<ProcessId> {
        self.remap.get(old.index()).copied().flatten()
    }

    /// The pre-delta id of post-delta process `new`; `None` if the
    /// delta added it.
    #[must_use]
    pub fn origin_of(&self, new: ProcessId) -> Option<ProcessId> {
        self.origin.get(new.index()).copied().flatten()
    }

    /// Nodes that failed permanently.
    #[must_use]
    pub fn killed_nodes(&self) -> &[NodeId] {
        &self.killed_nodes
    }

    /// Classifies every decision of the pre-delta design against the
    /// post-delta model: which survive as-is and which are dirty
    /// (and why). `prev` must have one decision per **pre-delta**
    /// process.
    #[must_use]
    pub fn compatibility(&self, prev: &Design, fm: &FaultModel) -> CompatibilityReport {
        let mut dirty = Vec::new();
        let mut clean = Vec::new();
        let rescaled: BTreeSet<ProcessId> = self.rescaled.iter().copied().collect();
        let orphaned: BTreeSet<ProcessId> = self.orphaned.iter().copied().collect();
        let killed: BTreeSet<NodeId> = self.killed_nodes.iter().copied().collect();
        let degraded: BTreeSet<NodeId> = self.degraded_nodes.iter().copied().collect();
        for q_index in 0..self.graph.process_count() {
            let q = ProcessId::new(q_index as u32);
            let mut reasons = Vec::new();
            match self.origin_of(q) {
                None => reasons.push(DirtyReason::Added),
                Some(p) => {
                    let d = prev.decision(p);
                    for &node in &d.mapping {
                        if killed.contains(&node) {
                            reasons.push(DirtyReason::DeadNodeReference { node });
                        } else if !self.wcet.is_eligible(q, node) {
                            reasons.push(DirtyReason::IneligibleMapping { node });
                        } else if degraded.contains(&node) {
                            reasons.push(DirtyReason::DegradedNode { node });
                        }
                    }
                    if d.policy.replicas() > fm.max_replicas() {
                        reasons.push(DirtyReason::PolicyOutOfRange);
                    }
                    if rescaled.contains(&q) {
                        reasons.push(DirtyReason::RescaledWcet);
                    }
                    if orphaned.contains(&q) {
                        reasons.push(DirtyReason::LostNeighbor);
                    }
                }
            }
            if reasons.is_empty() {
                clean.push(q);
            } else {
                dirty.push(DirtyDecision {
                    process: q,
                    reasons,
                });
            }
        }
        let removed = self
            .remap
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_none())
            .map(|(i, _)| ProcessId::new(i as u32))
            .collect();
        CompatibilityReport {
            dirty,
            clean,
            removed,
        }
    }
}

/// Why a decision of the previous design cannot be trusted on the
/// post-delta problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyReason {
    /// A replica was mapped on a node that failed permanently.
    DeadNodeReference {
        /// The dead node.
        node: NodeId,
    },
    /// A replica was mapped on a node where the process is no longer
    /// eligible (for a reason other than a recorded kill).
    IneligibleMapping {
        /// The ineligible node.
        node: NodeId,
    },
    /// A replica sits on a node whose WCETs were rescaled — the
    /// decision still validates, but its placement may now be poor.
    DegradedNode {
        /// The degraded node.
        node: NodeId,
    },
    /// The process's own WCET entries were rescaled.
    RescaledWcet,
    /// A predecessor or successor was removed (or an edge dropped),
    /// changing the communication pattern around this process.
    LostNeighbor,
    /// The replication level exceeds the fault model's maximum.
    PolicyOutOfRange,
    /// The process was added by the delta and has no prior decision.
    Added,
}

impl fmt::Display for DirtyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirtyReason::DeadNodeReference { node } => write!(f, "replica on dead node {node}"),
            DirtyReason::IneligibleMapping { node } => {
                write!(f, "replica on ineligible node {node}")
            }
            DirtyReason::DegradedNode { node } => write!(f, "replica on degraded node {node}"),
            DirtyReason::RescaledWcet => write!(f, "WCET rescaled"),
            DirtyReason::LostNeighbor => write!(f, "neighbor removed"),
            DirtyReason::PolicyOutOfRange => write!(f, "replication level out of range"),
            DirtyReason::Added => write!(f, "added by delta"),
        }
    }
}

/// One dirty decision and every reason it was flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyDecision {
    /// The process, in post-delta ids.
    pub process: ProcessId,
    /// All reasons, in detection order.
    pub reasons: Vec<DirtyReason>,
}

/// Which decisions of the previous design survive the delta — the
/// input that lets repair search locally instead of globally.
#[derive(Debug, Clone, Default)]
pub struct CompatibilityReport {
    dirty: Vec<DirtyDecision>,
    clean: Vec<ProcessId>,
    removed: Vec<ProcessId>,
}

impl CompatibilityReport {
    /// Decisions that need revisiting, with reasons.
    #[must_use]
    pub fn dirty(&self) -> &[DirtyDecision] {
        &self.dirty
    }

    /// Post-delta ids of the dirty decisions, in id order.
    pub fn dirty_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.dirty.iter().map(|d| d.process)
    }

    /// Decisions that survive untouched (post-delta ids).
    #[must_use]
    pub fn clean(&self) -> &[ProcessId] {
        &self.clean
    }

    /// Processes the delta removed (pre-delta ids).
    #[must_use]
    pub fn removed(&self) -> &[ProcessId] {
        &self.removed
    }

    /// Returns `true` when every surviving decision is clean and
    /// nothing was added — the previous design carries over verbatim.
    #[must_use]
    pub fn fully_compatible(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Scales `t` to `percent`%, rounding up (a pessimistic WCET stays
/// pessimistic).
///
/// # Errors
///
/// [`ModelError::InvalidDelta`] on overflow.
fn scale_time(t: Time, percent: u32) -> Result<Time, ModelError> {
    let scaled = t
        .as_us()
        .checked_mul(u64::from(percent))
        .ok_or(ModelError::InvalidDelta {
            reason: "WCET scale overflows",
        })?;
    Ok(Time::from_us(scaled.div_ceil(100)))
}

/// The running state of a delta application: current graph + WCET
/// plus all bookkeeping in *current* ids, remapped on every removal.
struct DeltaState {
    graph: ProcessGraph,
    wcet: WcetTable,
    /// Pre-delta id -> current id.
    remap: Vec<Option<ProcessId>>,
    /// Current-id bookkeeping.
    rescaled: BTreeSet<ProcessId>,
    orphaned: BTreeSet<ProcessId>,
    killed_nodes: Vec<NodeId>,
    degraded_nodes: Vec<NodeId>,
}

impl DeltaState {
    fn seed(graph: &ProcessGraph, wcet: &WcetTable) -> Self {
        DeltaState {
            graph: graph.clone(),
            wcet: wcet.clone(),
            remap: (0..graph.process_count())
                .map(|i| Some(ProcessId::new(i as u32)))
                .collect(),
            rescaled: BTreeSet::new(),
            orphaned: BTreeSet::new(),
            killed_nodes: Vec::new(),
            degraded_nodes: Vec::new(),
        }
    }

    /// Resolves a pre-delta id against the running remap.
    fn resolve(&self, p: ProcessId) -> Result<ProcessId, ModelError> {
        self.remap
            .get(p.index())
            .copied()
            .flatten()
            .ok_or(ModelError::UnknownProcess { process: p })
    }

    fn check_node(&self, arch: &Architecture, node: NodeId) -> Result<(), ModelError> {
        if arch.contains(node) {
            Ok(())
        } else {
            Err(ModelError::UnknownNode { node })
        }
    }

    fn apply_op(&mut self, op: &DeltaOp, arch: &Architecture) -> Result<(), ModelError> {
        match op {
            DeltaOp::KillNode { node } => {
                self.check_node(arch, *node)?;
                let doomed: Vec<(ProcessId, NodeId)> = self
                    .wcet
                    .entries()
                    .filter(|&(_, n, _)| n == *node)
                    .map(|(p, n, _)| (p, n))
                    .collect();
                for (p, n) in doomed {
                    self.wcet.clear(p, n);
                }
                if !self.killed_nodes.contains(node) {
                    self.killed_nodes.push(*node);
                }
                Ok(())
            }
            DeltaOp::DegradeNode { node, percent } => {
                self.check_node(arch, *node)?;
                if *percent == 0 {
                    return Err(ModelError::InvalidDelta {
                        reason: "degrade percent must be non-zero",
                    });
                }
                let column: Vec<(ProcessId, Time)> = self
                    .wcet
                    .entries()
                    .filter(|&(_, n, _)| n == *node)
                    .map(|(p, _, t)| (p, t))
                    .collect();
                for (p, t) in column {
                    self.wcet.set(p, *node, scale_time(t, *percent)?);
                }
                if !self.degraded_nodes.contains(node) {
                    self.degraded_nodes.push(*node);
                }
                Ok(())
            }
            DeltaOp::RescaleWcet { process, percent } => {
                if *percent == 0 {
                    return Err(ModelError::InvalidDelta {
                        reason: "rescale percent must be non-zero",
                    });
                }
                let target = process.map(|p| self.resolve(p)).transpose()?;
                let entries: Vec<(ProcessId, NodeId, Time)> = self
                    .wcet
                    .entries()
                    .filter(|&(p, _, _)| target.is_none() || target == Some(p))
                    .collect();
                if let Some(t) = target {
                    if entries.is_empty() {
                        return Err(ModelError::Unmappable { process: t });
                    }
                    self.rescaled.insert(t);
                } else {
                    let all: Vec<ProcessId> = (0..self.graph.process_count())
                        .map(|i| ProcessId::new(i as u32))
                        .collect();
                    self.rescaled.extend(all);
                }
                for (p, n, t) in entries {
                    self.wcet.set(p, n, scale_time(t, *percent)?);
                }
                Ok(())
            }
            DeltaOp::AddProcess(spec) => self.add_process(spec, arch),
            DeltaOp::RemoveProcess { process } => {
                let cur = self.resolve(*process)?;
                self.remove_process(cur);
                Ok(())
            }
        }
    }

    fn add_process(&mut self, spec: &NewProcess, arch: &Architecture) -> Result<(), ModelError> {
        // Resolve edge endpoints *before* mutating anything, so a
        // failed op leaves no partial state behind it in the error
        // message (the whole delta is rejected anyway).
        let mut inputs = Vec::with_capacity(spec.inputs.len());
        for &(from, message) in &spec.inputs {
            inputs.push((self.resolve(from)?, message));
        }
        let mut outputs = Vec::with_capacity(spec.outputs.len());
        for &(to, message) in &spec.outputs {
            outputs.push((self.resolve(to)?, message));
        }
        for &(node, _) in &spec.wcet {
            self.check_node(arch, node)?;
        }
        let live: Vec<(NodeId, Time)> = spec
            .wcet
            .iter()
            .copied()
            .filter(|(n, _)| !self.killed_nodes.contains(n))
            .collect();

        let q = self.graph.add_process();
        if live.is_empty() {
            return Err(ModelError::Unmappable { process: q });
        }
        {
            let proc = self.graph.process_mut(q);
            proc.name.clone_from(&spec.name);
            proc.release = spec.release;
            proc.deadline = spec.deadline;
        }
        for (from, message) in inputs {
            self.graph.add_edge(from, q, message)?;
            self.orphaned.remove(&from);
        }
        for (to, message) in outputs {
            self.graph.add_edge(q, to, message)?;
        }
        for (node, t) in live {
            self.wcet.set(q, node, t);
        }
        Ok(())
    }

    /// Removes current process `c`: rebuilds the graph with ids above
    /// `c` shifted down, drops `c`'s edges and remaps all
    /// bookkeeping.
    fn remove_process(&mut self, c: ProcessId) {
        let shift = |p: ProcessId| -> Option<ProcessId> {
            use std::cmp::Ordering;
            match p.index().cmp(&c.index()) {
                Ordering::Less => Some(p),
                Ordering::Equal => None,
                Ordering::Greater => Some(ProcessId::new(p.raw() - 1)),
            }
        };

        let mut graph = ProcessGraph::new(self.graph.id());
        for proc in self.graph.processes() {
            if proc.id == c {
                continue;
            }
            let q = graph.add_process();
            let dst = graph.process_mut(q);
            dst.name.clone_from(&proc.name);
            dst.release = proc.release;
            dst.deadline = proc.deadline;
        }
        // Survivor ids inserted below are already post-shift, so they
        // must not run through the bookkeeping remap again.
        let mut new_orphans = Vec::new();
        for edge in self.graph.edges() {
            match (shift(edge.from), shift(edge.to)) {
                (Some(from), Some(to)) => {
                    graph
                        .add_edge(from, to, edge.message)
                        .expect("surviving edges of a valid graph stay valid");
                }
                (from, to) => new_orphans.extend(from.or(to)),
            }
        }
        self.graph = graph;

        let mut wcet = WcetTable::new();
        wcet.extend(
            self.wcet
                .entries()
                .filter_map(|(p, n, t)| shift(p).map(|q| (q, n, t))),
        );
        self.wcet = wcet;

        for slot in &mut self.remap {
            *slot = slot.and_then(shift);
        }
        self.rescaled = self.rescaled.iter().copied().filter_map(shift).collect();
        self.orphaned = self.orphaned.iter().copied().filter_map(shift).collect();
        self.orphaned.extend(new_orphans);
    }

    fn finish(self, arch: &Architecture) -> Result<AppliedDelta, ModelError> {
        self.graph.validate()?;
        self.wcet
            .validate(self.graph.processes().iter().map(|p| p.id), arch)?;
        let mut origin = vec![None; self.graph.process_count()];
        for (old, new) in self.remap.iter().enumerate() {
            if let Some(q) = new {
                origin[q.index()] = Some(ProcessId::new(old as u32));
            }
        }
        Ok(AppliedDelta {
            graph: self.graph,
            wcet: self.wcet,
            remap: self.remap,
            origin,
            killed_nodes: self.killed_nodes,
            degraded_nodes: self.degraded_nodes,
            rescaled: self.rescaled.into_iter().collect(),
            orphaned: self.orphaned.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::ProcessDesign;
    use crate::policy::FtPolicy;

    /// Fig. 4's diamond on two nodes, everything eligible everywhere.
    fn diamond() -> (ProcessGraph, Architecture, WcetTable) {
        let mut g = ProcessGraph::new(0.into());
        let p: Vec<ProcessId> = (0..4).map(|_| g.add_process()).collect();
        g.add_edge(p[0], p[1], Message::new(4)).unwrap();
        g.add_edge(p[0], p[2], Message::new(4)).unwrap();
        g.add_edge(p[1], p[3], Message::new(4)).unwrap();
        g.add_edge(p[2], p[3], Message::new(4)).unwrap();
        let arch = Architecture::with_node_count(2);
        let mut wcet = WcetTable::new();
        for &q in &p {
            wcet.set(q, 0.into(), Time::from_ms(40));
            wcet.set(q, 1.into(), Time::from_ms(50));
        }
        (g, arch, wcet)
    }

    fn all_primary_design(n: usize, node: NodeId, fm: &FaultModel) -> Design {
        Design::from_decisions(
            (0..n)
                .map(|i| {
                    ProcessDesign::new(
                        FtPolicy::new(ProcessId::new(i as u32), 1, fm).unwrap(),
                        vec![node],
                    )
                    .unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn kill_node_strips_column_and_flags_decisions() {
        let (g, arch, wcet) = diamond();
        let fm = FaultModel::new(1, Time::from_ms(10));
        let delta = ProblemDelta::kill_node(1.into());
        let applied = delta.apply(&g, &arch, &wcet).unwrap();
        assert_eq!(applied.killed_nodes(), &[NodeId::new(1)]);
        for i in 0..4u32 {
            assert!(!applied.wcet.is_eligible(i.into(), 1.into()));
            assert!(applied.wcet.is_eligible(i.into(), 0.into()));
        }
        // A design living on N1 is fully dirty; one on N0 is clean.
        let on_dead = all_primary_design(4, 1.into(), &fm);
        let report = applied.compatibility(&on_dead, &fm);
        assert_eq!(report.dirty().len(), 4);
        assert!(report.dirty().iter().all(|d| d.reasons
            == vec![DirtyReason::DeadNodeReference {
                node: NodeId::new(1)
            }]));
        let on_live = all_primary_design(4, 0.into(), &fm);
        let report = applied.compatibility(&on_live, &fm);
        assert!(report.fully_compatible());
        assert_eq!(report.clean().len(), 4);
    }

    #[test]
    fn kill_last_eligible_node_is_unmappable() {
        let (g, arch, mut wcet) = diamond();
        // P3 only runs on N1.
        wcet.clear(3.into(), 0.into());
        let err = ProblemDelta::kill_node(1.into())
            .apply(&g, &arch, &wcet)
            .unwrap_err();
        assert!(matches!(err, ModelError::Unmappable { process } if process == ProcessId::new(3)));
    }

    #[test]
    fn degrade_scales_column_rounding_up() {
        let (g, arch, wcet) = diamond();
        let applied = ProblemDelta::degrade_node(1.into(), 150)
            .apply(&g, &arch, &wcet)
            .unwrap();
        assert_eq!(
            applied.wcet.get(0.into(), 1.into()),
            Some(Time::from_ms(75))
        );
        assert_eq!(
            applied.wcet.get(0.into(), 0.into()),
            Some(Time::from_ms(40))
        );
        let fm = FaultModel::new(1, Time::from_ms(10));
        let on_degraded = all_primary_design(4, 1.into(), &fm);
        let report = applied.compatibility(&on_degraded, &fm);
        assert_eq!(report.dirty().len(), 4);
        assert!(matches!(
            report.dirty()[0].reasons[0],
            DirtyReason::DegradedNode { .. }
        ));
    }

    #[test]
    fn rescale_one_process() {
        let (g, arch, wcet) = diamond();
        let delta = ProblemDelta::new().and(DeltaOp::RescaleWcet {
            process: Some(2.into()),
            percent: 120,
        });
        let applied = delta.apply(&g, &arch, &wcet).unwrap();
        assert_eq!(
            applied.wcet.get(2.into(), 0.into()),
            Some(Time::from_ms(48))
        );
        assert_eq!(
            applied.wcet.get(1.into(), 0.into()),
            Some(Time::from_ms(40))
        );
        let fm = FaultModel::new(1, Time::from_ms(10));
        let report = applied.compatibility(&all_primary_design(4, 0.into(), &fm), &fm);
        assert_eq!(report.dirty().len(), 1);
        assert_eq!(report.dirty()[0].process, ProcessId::new(2));
    }

    #[test]
    fn zero_percent_rejected() {
        let (g, arch, wcet) = diamond();
        let err = ProblemDelta::rescale_wcet(0)
            .apply(&g, &arch, &wcet)
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidDelta { .. }));
    }

    #[test]
    fn remove_process_shifts_ids_and_orphans_neighbors() {
        let (g, arch, wcet) = diamond();
        let fm = FaultModel::new(1, Time::from_ms(10));
        let applied = ProblemDelta::remove_process(1.into())
            .apply(&g, &arch, &wcet)
            .unwrap();
        assert_eq!(applied.graph.process_count(), 3);
        // P0 keeps its id, P2 -> P1, P3 -> P2.
        assert_eq!(applied.map_process(0.into()), Some(ProcessId::new(0)));
        assert_eq!(applied.map_process(1.into()), None);
        assert_eq!(applied.map_process(2.into()), Some(ProcessId::new(1)));
        assert_eq!(applied.map_process(3.into()), Some(ProcessId::new(2)));
        assert_eq!(applied.origin_of(2.into()), Some(ProcessId::new(3)));
        // Edges P0->P1 and P1->P3 dropped; P0->P2 and P2->P3 survive.
        assert_eq!(applied.graph.edges().len(), 2);
        // WCET remapped with the ids.
        assert!(applied.wcet.is_eligible(2.into(), 0.into()));
        assert!(!applied.wcet.is_eligible(3.into(), 0.into()));
        // P0 and (new) P2 lost a neighbor -> dirty.
        let report = applied.compatibility(&all_primary_design(4, 0.into(), &fm), &fm);
        let dirty: Vec<ProcessId> = report.dirty_processes().collect();
        assert_eq!(dirty, vec![ProcessId::new(0), ProcessId::new(2)]);
        assert_eq!(report.removed(), &[ProcessId::new(1)]);
        assert!(report
            .dirty()
            .iter()
            .all(|d| d.reasons.contains(&DirtyReason::LostNeighbor)));
    }

    #[test]
    fn add_process_wires_edges_and_marks_added() {
        let (g, arch, wcet) = diamond();
        let fm = FaultModel::new(1, Time::from_ms(10));
        let mut spec = NewProcess::named(
            "P_new",
            vec![(0.into(), Time::from_ms(30)), (1.into(), Time::from_ms(35))],
        );
        spec.inputs.push((3.into(), Message::new(2)));
        let applied = ProblemDelta::add_process(spec)
            .apply(&g, &arch, &wcet)
            .unwrap();
        assert_eq!(applied.graph.process_count(), 5);
        assert_eq!(applied.origin_of(4.into()), None, "P4 has no pre-delta id");
        assert!(applied.wcet.is_eligible(4.into(), 0.into()));
        assert_eq!(applied.graph.edges().len(), 5);
        let report = applied.compatibility(&all_primary_design(4, 0.into(), &fm), &fm);
        assert_eq!(report.dirty().len(), 1);
        assert_eq!(report.dirty()[0].reasons, vec![DirtyReason::Added]);
    }

    #[test]
    fn add_process_on_killed_node_only_is_unmappable() {
        let (g, arch, wcet) = diamond();
        let delta = ProblemDelta::kill_node(1.into()).and(DeltaOp::AddProcess(Box::new(
            NewProcess::named("P_dead", vec![(1.into(), Time::from_ms(30))]),
        )));
        let err = delta.apply(&g, &arch, &wcet).unwrap_err();
        assert!(matches!(err, ModelError::Unmappable { .. }));
    }

    #[test]
    fn add_edge_cycle_rejected() {
        let (g, arch, wcet) = diamond();
        // New process receiving from the sink and feeding the source
        // closes a cycle.
        let mut spec = NewProcess::named("P_loop", vec![(0.into(), Time::from_ms(10))]);
        spec.inputs.push((3.into(), Message::new(2)));
        spec.outputs.push((0.into(), Message::new(2)));
        let err = ProblemDelta::add_process(spec)
            .apply(&g, &arch, &wcet)
            .unwrap_err();
        assert!(matches!(err, ModelError::CyclicGraph { .. }));
    }

    #[test]
    fn composite_delta_remaps_through_removal() {
        let (g, arch, wcet) = diamond();
        // Remove P1, then rescale (pre-delta) P3: the rescale must
        // land on the shifted id.
        let delta = ProblemDelta::remove_process(1.into()).and(DeltaOp::RescaleWcet {
            process: Some(3.into()),
            percent: 200,
        });
        let applied = delta.apply(&g, &arch, &wcet).unwrap();
        assert_eq!(
            applied.wcet.get(2.into(), 0.into()),
            Some(Time::from_ms(80))
        );
    }

    #[test]
    fn unknown_references_rejected() {
        let (g, arch, wcet) = diamond();
        assert!(matches!(
            ProblemDelta::kill_node(9.into())
                .apply(&g, &arch, &wcet)
                .unwrap_err(),
            ModelError::UnknownNode { .. }
        ));
        assert!(matches!(
            ProblemDelta::remove_process(9.into())
                .apply(&g, &arch, &wcet)
                .unwrap_err(),
            ModelError::UnknownProcess { .. }
        ));
        // Referencing a process removed earlier in the same delta.
        let delta = ProblemDelta::remove_process(1.into()).and(DeltaOp::RescaleWcet {
            process: Some(1.into()),
            percent: 150,
        });
        assert!(matches!(
            delta.apply(&g, &arch, &wcet).unwrap_err(),
            ModelError::UnknownProcess { .. }
        ));
    }

    #[test]
    fn display_round_trip_is_readable() {
        let delta = ProblemDelta::kill_node(1.into()).and(DeltaOp::RescaleWcet {
            process: None,
            percent: 120,
        });
        assert_eq!(format!("{delta}"), "kill-node N1 + rescale-wcet to 120%");
        assert_eq!(format!("{}", ProblemDelta::new()), "(identity)");
    }
}
