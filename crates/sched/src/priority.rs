//! Ready-list priority functions of the list scheduler.
//!
//! The list scheduler always extracts the ready process with the
//! highest priority. Two strategies are available
//! ([`PriorityStrategy`]):
//!
//! * **Partial critical path** (paper §5.1, from \[6\], the default):
//!   the priority of a process is the length of the longest remaining
//!   path to a sink through the merged graph, counting execution
//!   times and an estimate of the bus delay for every edge that
//!   crosses nodes under the current mapping — the "modified partial
//!   critical path" function of Eles et al., sharpened by laxity
//!   against the tightest downstream deadline.
//! * **Mobility**: the ALAP − ASAP float of the process under the
//!   same estimates — the ordering of the BEE instruction scheduler,
//!   where zero mobility marks the critical path.
//!   Equivalent rank information arranged front-to-back instead of
//!   back-only, it explores a genuinely different schedule
//!   neighborhood and rides the portfolio's worker-diversification
//!   cycle as its own axis.

use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::ProcessId;
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

use crate::error::SchedError;
use crate::instance::ExpandedDesign;

/// Selects the ready-list priority function. Unlike the occupancy
/// backend this is a **search-space knob**: strategies produce
/// different (both valid) schedules, so the strategy participates in
/// the evaluator's cache-context fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityStrategy {
    /// Laxity-sharpened partial-critical-path rank (paper §5.1).
    #[default]
    PartialCriticalPath,
    /// ALAP − ASAP float, critical path first (mobility zero).
    Mobility,
}

impl PriorityStrategy {
    /// The name used by worker labels, CLI reports and bench output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PriorityStrategy::PartialCriticalPath => "pcp",
            PriorityStrategy::Mobility => "mobility",
        }
    }
}

impl std::fmt::Display for PriorityStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-process priorities.
///
/// Under the partial-critical-path strategy two keys are combined:
///
/// * **laxity** — the effective deadline of the process (its own, or
///   the tightest one reachable downstream) minus its rank: how much
///   room the process has before its subtree starts missing
///   deadlines. Smaller laxity = more urgent. Processes without any
///   downstream deadline get `Time::MAX − rank`, which degenerates to
///   plain rank ordering — exactly the behaviour for deadline-free
///   benchmarking workloads.
/// * **rank** — the partial-critical-path length to a sink (longer
///   remaining work first), as the tiebreaker.
///
/// Under the mobility strategy the leading key is **mobility** — the
/// process's float against the makespan estimate `T = max(asap +
/// rank)`: zero on the critical path, growing with slack. Laxity and
/// rank stay on as tiebreakers, so deadline urgency still separates
/// equal-float processes. The same backward arrays are computed
/// either way; the ASAP forward pass (and the mobility it yields) is
/// only run when the strategy asks for it, keeping the default path's
/// priority cost unchanged.
#[derive(Debug, Clone, Default)]
pub struct Priorities {
    rank: Vec<Time>,
    laxity: Vec<Time>,
    /// Reusable working memory of [`Priorities::compute_into`].
    topo: Vec<ProcessId>,
    in_deg: Vec<usize>,
    effective_deadline: Vec<Time>,
    /// Mobility strategy only: earliest start estimates (forward
    /// pass) and the ALAP − ASAP float derived from them. Left empty
    /// under partial-critical-path.
    asap: Vec<Time>,
    mobility: Vec<Time>,
    strategy: PriorityStrategy,
}

/// The largest fault-free execution time over the replicas of `p` —
/// WCET plus checkpoint saves (all replicas must complete for the
/// worst case).
fn exec_estimate(expanded: &ExpandedDesign, p: ProcessId) -> Time {
    expanded
        .of_process(p)
        .iter()
        .map(|&id| expanded.instance(id).exec)
        .max()
        .unwrap_or(Time::ZERO)
}

impl Priorities {
    /// Computes the priority assignment of every process under
    /// `strategy`.
    ///
    /// The execution-time contribution of a process is the largest
    /// fault-free execution time over its replicas; an edge
    /// contributes one TDMA round when any producer/consumer replica
    /// pair resides on different nodes — the worst-case wait for the
    /// sender's next slot.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Model`] if the graph is cyclic.
    pub fn compute(
        graph: &ProcessGraph,
        expanded: &ExpandedDesign,
        bus: &BusConfig,
        strategy: PriorityStrategy,
    ) -> Result<Self, SchedError> {
        let mut out = Priorities::default();
        out.compute_into(graph, expanded, bus, strategy)?;
        Ok(out)
    }

    /// [`Priorities::compute`] rebuilding `self` in place, reusing
    /// every internal buffer — the cost-evaluation path calls this
    /// once per candidate.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Model`] if the graph is cyclic.
    pub fn compute_into(
        &mut self,
        graph: &ProcessGraph,
        expanded: &ExpandedDesign,
        bus: &BusConfig,
        strategy: PriorityStrategy,
    ) -> Result<(), SchedError> {
        graph.topological_order_into(&mut self.topo, &mut self.in_deg)?;
        self.strategy = strategy;
        self.compute_core(graph, expanded, bus);
        Ok(())
    }

    /// The topological order of the last computation.
    pub(crate) fn topo(&self) -> &[ProcessId] {
        &self.topo
    }

    /// Rebuilds `self` as `base` updated for a single-move candidate,
    /// appending the processes whose selection key changed to
    /// `changed` — the exact set the order certificate must examine.
    ///
    /// Under partial-critical-path only the processes for which
    /// `affected` holds (the moved process and its ancestors — the
    /// only ranks a decision change can reach, since ranks flow
    /// backwards over edges and effective deadlines are
    /// design-independent) are recomputed; everything else is copied
    /// from `base`. Under mobility the pass recomputes everything:
    /// ASAP flows forwards through descendants while the makespan
    /// estimate `T` couples every float globally, so there is no
    /// ancestors-only shortcut — the key comparison against `base`
    /// still keeps `changed` tight.
    ///
    /// `self.topo` is left empty — selection never reads it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn update_for_move(
        &mut self,
        base: &Priorities,
        graph: &ProcessGraph,
        expanded: &ExpandedDesign,
        bus: &BusConfig,
        topo: &[ProcessId],
        affected: impl Fn(ProcessId) -> bool,
        changed: &mut Vec<ProcessId>,
    ) {
        changed.clear();
        self.strategy = base.strategy;
        if base.strategy == PriorityStrategy::Mobility {
            // Full recompute into our own buffers (reusing them), then
            // diff selection keys against the base assignment.
            self.topo.clear();
            self.topo.extend_from_slice(topo);
            self.compute_core(graph, expanded, bus);
            self.topo.clear();
            for i in 0..graph.process_count() {
                let p = ProcessId::new(i as u32);
                if self.key(p) != base.key(p) {
                    changed.push(p);
                }
            }
            return;
        }
        self.rank.clone_from(&base.rank);
        self.laxity.clone_from(&base.laxity);
        self.effective_deadline.clone_from(&base.effective_deadline);
        self.asap.clear();
        self.mobility.clear();
        self.topo.clear();
        let comm_estimate = bus.round_length();
        for i in (0..topo.len()).rev() {
            let p = topo[i];
            if !affected(p) {
                continue;
            }
            let exec = exec_estimate(expanded, p);
            let mut best = Time::ZERO;
            for &e in graph.outgoing(p) {
                let edge = graph.edge(e);
                let remote = expanded.crosses(p, edge.to);
                let cost =
                    self.rank[edge.to.index()] + if remote { comm_estimate } else { Time::ZERO };
                best = best.max(cost);
            }
            let new_rank = exec + best;
            if new_rank != self.rank[p.index()] {
                self.rank[p.index()] = new_rank;
                self.laxity[p.index()] =
                    self.effective_deadline[p.index()].saturating_sub(new_rank);
                changed.push(p);
            }
        }
    }

    fn compute_core(&mut self, graph: &ProcessGraph, expanded: &ExpandedDesign, bus: &BusConfig) {
        let n = graph.process_count();
        let comm_estimate = bus.round_length();
        self.rank.clear();
        self.rank.resize(n, Time::ZERO);
        self.effective_deadline.clear();
        self.effective_deadline.resize(n, Time::MAX);
        for i in (0..self.topo.len()).rev() {
            let p = self.topo[i];
            let exec = exec_estimate(expanded, p);
            let mut best = Time::ZERO;
            let mut tightest = graph.process(p).deadline.unwrap_or(Time::MAX);
            for &e in graph.outgoing(p) {
                let edge = graph.edge(e);
                let remote = expanded.crosses(p, edge.to);
                let cost =
                    self.rank[edge.to.index()] + if remote { comm_estimate } else { Time::ZERO };
                best = best.max(cost);
                tightest = tightest.min(self.effective_deadline[edge.to.index()]);
            }
            self.rank[p.index()] = exec + best;
            self.effective_deadline[p.index()] = tightest;
        }
        self.laxity.clear();
        self.laxity.extend(
            self.rank
                .iter()
                .zip(&self.effective_deadline)
                .map(|(&r, &d)| d.saturating_sub(r)),
        );
        match self.strategy {
            PriorityStrategy::PartialCriticalPath => {
                self.asap.clear();
                self.mobility.clear();
            }
            PriorityStrategy::Mobility => self.compute_mobility(graph, expanded, bus),
        }
    }

    /// The mobility forward pass: ASAP start estimates under the same
    /// exec/comm estimates as the backward rank pass, the makespan
    /// estimate `T = max(asap + rank)`, and `mobility = T − asap −
    /// rank` (ALAP − ASAP; zero on the critical path).
    fn compute_mobility(
        &mut self,
        graph: &ProcessGraph,
        expanded: &ExpandedDesign,
        bus: &BusConfig,
    ) {
        let n = graph.process_count();
        let comm_estimate = bus.round_length();
        self.asap.clear();
        self.asap.resize(n, Time::ZERO);
        for &p in &self.topo {
            let mut start = graph.process(p).release;
            for &e in graph.incoming(p) {
                let edge = graph.edge(e);
                let remote = expanded.crosses(edge.from, p);
                let arrival = self.asap[edge.from.index()]
                    + exec_estimate(expanded, edge.from)
                    + if remote { comm_estimate } else { Time::ZERO };
                start = start.max(arrival);
            }
            self.asap[p.index()] = start;
        }
        let span = self
            .asap
            .iter()
            .zip(&self.rank)
            .map(|(&a, &r)| a + r)
            .max()
            .unwrap_or(Time::ZERO);
        self.mobility.clear();
        self.mobility.extend(
            self.asap
                .iter()
                .zip(&self.rank)
                .map(|(&a, &r)| span.saturating_sub(a + r)),
        );
    }

    /// The rank of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn rank(&self, p: ProcessId) -> Time {
        self.rank[p.index()]
    }

    /// The laxity of `p` (effective deadline minus rank).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn laxity(&self, p: ProcessId) -> Time {
        self.laxity[p.index()]
    }

    /// The mobility of `p` (ALAP − ASAP float; zero on the critical
    /// path). Only meaningful under the mobility strategy.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range (or mobility was not computed).
    #[must_use]
    pub fn mobility(&self, p: ProcessId) -> Time {
        self.mobility[p.index()]
    }

    /// Compares two processes: `true` when `a` should be scheduled
    /// before `b` — smaller leading key first (laxity under
    /// partial-critical-path, mobility under mobility), then the
    /// remaining keys, process id as the final tiebreaker for
    /// determinism.
    #[must_use]
    pub fn before(&self, a: ProcessId, b: ProcessId) -> bool {
        self.key(a) < self.key(b)
    }
}

/// The selection key of a process under a priority assignment —
/// [`Priorities::before`]`(a, b)` is exactly `key(a) < key(b)`.
///
/// The four components are `(leading, secondary, Reverse(rank), id)`:
/// partial-critical-path fills `(laxity, 0, ...)` — ordering exactly
/// as the historical 3-tuple — while mobility fills `(mobility,
/// laxity, ...)`, keeping deadline urgency as the tiebreaker between
/// equal floats. The order certificate compares these keys opaquely,
/// so its float reasoning covers both strategies unchanged.
pub(crate) type SelectionKey = (Time, Time, std::cmp::Reverse<Time>, ProcessId);

impl Priorities {
    /// The selection key of `p` (hoisted out of certificate loops
    /// that compare one process against many).
    pub(crate) fn key(&self, p: ProcessId) -> SelectionKey {
        match self.strategy {
            PriorityStrategy::PartialCriticalPath => (
                self.laxity(p),
                Time::ZERO,
                std::cmp::Reverse(self.rank(p)),
                p,
            ),
            PriorityStrategy::Mobility => (
                self.mobility(p),
                self.laxity(p),
                std::cmp::Reverse(self.rank(p)),
                p,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::{Design, ProcessDesign};
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::Message;
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;

    fn setup(map_b_remote: bool) -> (ProcessGraph, ExpandedDesign, BusConfig) {
        // Chain P0 -> P1, both 10 ms everywhere.
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(10)),
            (a, NodeId::new(1), Time::from_ms(10)),
            (b, NodeId::new(0), Time::from_ms(20)),
            (b, NodeId::new(1), Time::from_ms(20)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::new(0, Time::ZERO);
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(
                FtPolicy::reexecution(&fm),
                vec![if map_b_remote {
                    NodeId::new(1)
                } else {
                    NodeId::new(0)
                }],
            )
            .unwrap(),
        ]);
        let expanded = ExpandedDesign::expand(&g, &design, &wcet, &fm).unwrap();
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        (g, expanded, bus)
    }

    #[test]
    fn rank_counts_execution_chain() {
        let (g, expanded, bus) = setup(false);
        let pr = Priorities::compute(&g, &expanded, &bus, PriorityStrategy::PartialCriticalPath)
            .unwrap();
        // Same node: no comm estimate. rank(P1) = 20, rank(P0) = 10 + 20.
        assert_eq!(pr.rank(ProcessId::new(1)), Time::from_ms(20));
        assert_eq!(pr.rank(ProcessId::new(0)), Time::from_ms(30));
        assert!(pr.before(ProcessId::new(0), ProcessId::new(1)));
    }

    #[test]
    fn remote_edge_adds_round() {
        let (g, expanded, bus) = setup(true);
        let pr = Priorities::compute(&g, &expanded, &bus, PriorityStrategy::PartialCriticalPath)
            .unwrap();
        // Round = 2 slots * 10 ms = 20 ms.
        assert_eq!(pr.rank(ProcessId::new(0)), Time::from_ms(10 + 20 + 20));
    }

    #[test]
    fn tie_broken_by_id() {
        let (g, expanded, bus) = setup(false);
        let pr = Priorities::compute(&g, &expanded, &bus, PriorityStrategy::PartialCriticalPath)
            .unwrap();
        assert!(!pr.before(ProcessId::new(0), ProcessId::new(0)));
    }

    #[test]
    fn chain_is_critical_under_mobility() {
        let (g, expanded, bus) = setup(true);
        let pr = Priorities::compute(&g, &expanded, &bus, PriorityStrategy::Mobility).unwrap();
        // A two-process chain IS the critical path: both floats zero.
        assert_eq!(pr.mobility(ProcessId::new(0)), Time::ZERO);
        assert_eq!(pr.mobility(ProcessId::new(1)), Time::ZERO);
        // asap(P1) = exec(P0) + round = 10 + 20 ms.
        assert_eq!(pr.asap[1], Time::from_ms(30));
        // Equal mobility falls back to laxity/rank: P0 still first.
        assert!(pr.before(ProcessId::new(0), ProcessId::new(1)));
    }

    #[test]
    fn off_path_process_gains_mobility() {
        // Diamond with one light branch: P0 -> {P1 heavy, P2 light} -> P3.
        let mut g = ProcessGraph::new(0.into());
        let p0 = g.add_process();
        let p1 = g.add_process();
        let p2 = g.add_process();
        let p3 = g.add_process();
        g.add_edge(p0, p1, Message::new(4)).unwrap();
        g.add_edge(p0, p2, Message::new(4)).unwrap();
        g.add_edge(p1, p3, Message::new(4)).unwrap();
        g.add_edge(p2, p3, Message::new(4)).unwrap();
        let node = NodeId::new(0);
        let wcet: WcetTable = [
            (p0, node, Time::from_ms(10)),
            (p1, node, Time::from_ms(40)),
            (p2, node, Time::from_ms(10)),
            (p3, node, Time::from_ms(10)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::new(0, Time::ZERO);
        let design = Design::from_decisions(vec![
            ProcessDesign::new(
                FtPolicy::reexecution(&fm),
                vec![node]
            )
            .unwrap();
            4
        ]);
        let expanded = ExpandedDesign::expand(&g, &design, &wcet, &fm).unwrap();
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let pr = Priorities::compute(&g, &expanded, &bus, PriorityStrategy::Mobility).unwrap();
        // Critical path P0 -> P1 -> P3 has zero float; P2 floats by
        // the 30 ms it is lighter than P1.
        assert_eq!(pr.mobility(p0), Time::ZERO);
        assert_eq!(pr.mobility(p1), Time::ZERO);
        assert_eq!(pr.mobility(p3), Time::ZERO);
        assert_eq!(pr.mobility(p2), Time::from_ms(30));
        // Mobility leads the key: the heavy branch is extracted first.
        assert!(pr.before(p1, p2));
    }

    #[test]
    fn strategy_names_round_trip() {
        assert_eq!(PriorityStrategy::PartialCriticalPath.name(), "pcp");
        assert_eq!(PriorityStrategy::Mobility.name(), "mobility");
        for s in [
            PriorityStrategy::PartialCriticalPath,
            PriorityStrategy::Mobility,
        ] {
            assert_eq!(s.to_string(), s.name());
        }
    }
}
