//! The design-optimization problem instance (paper §4).
//!
//! Bundles everything that stays fixed during a search: the merged
//! application graph, the architecture, the WCET table, the fault
//! model, the bus configuration and the designer constraints
//! (`PX`, `PR`, `PM`). Its `evaluate*` methods schedule a design under
//! the problem's own bus; the bus-access optimization
//! ([`crate::bus_opt`]) calls the scheduler under its candidate buses
//! itself.

use ftdes_model::architecture::Architecture;
use ftdes_model::design::{Design, DesignConstraints};
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::ProcessId;
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetTable;
use ftdes_sched::{
    list_schedule_recording, list_schedule_with, schedule_cost_bounded, schedule_cost_resumed,
    CostOutcome, CostScratch, OccupancyBackend, PlacementCheckpoints, PriorityStrategy, SchedError,
    SchedScratch, Schedule, ScheduleCost, ScheduleOptions, BOOKING_HORIZON_ROUNDS,
};
use ftdes_ttp::config::BusConfig;

/// How many checkpointed segments the search may assign per process
/// when none is configured explicitly: the axis stays off (`1`) while
/// the fault model has no checkpointing overhead — with `χ = 0`,
/// more segments are a free win and the "trade-off" degenerates —
/// and opens to 4 levels once `χ > 0` gives rollbacks a real price.
const DEFAULT_CHECKPOINT_LEVELS: u32 = 4;

/// The largest processes × nodes product a problem file or a
/// generated instance may describe: 2²⁰. The parser and the CLI
/// refuse larger inputs, which bounds the WCET table and, with
/// [`MAX_CHECKPOINTS`], a process's move index space (levels ×
/// eligible nodes × counts, see [`crate::moves::MoveTable`]). With
/// [`ftdes_model::merge::MAX_MERGED_PROCESSES`], it keeps an edgeless
/// graph at both caps (2¹⁴ processes on 64 nodes) solvable in a few
/// hundred MB.
pub const MAX_PROCESS_NODE_PAIRS: usize = 1 << 20;

/// The largest checkpoint count the search may assign to a process:
/// 2²⁰. [`Problem::with_max_checkpoints`] clamps to it, and the CLI's
/// `--max-checkpoints` and a sweep spec's `max_checkpoints` refuse a
/// larger value. A process's moves are an index space of levels ×
/// eligible nodes × counts (see [`crate::moves::MoveTable`]), and
/// with [`MAX_PROCESS_NODE_PAIRS`] the cap keeps it below 2⁶⁰, so a
/// move index fits a `u64`. More segments only pay up to the classic
/// optimum √(k·C/χ) of a process with WCET `C`, and 2²⁰ covers it
/// whenever k·C/χ is below 2⁴⁰ (at k = 1 and χ = 1 µs, a WCET of 12
/// days). Within the cap, the horizon budget prices every count's
/// saves.
pub const MAX_CHECKPOINTS: u32 = 1 << 20;

/// The largest worst-case schedule horizon, in microseconds, a problem
/// may describe ([`Problem::fits_horizon_budget`]): a quarter of the
/// `u64` range. The scheduler adds up to three horizon-sized times (a
/// node's availability, its remaining work and its slack delay), so a
/// problem within this budget cannot wrap [`Time`] arithmetic.
pub const HORIZON_HEADROOM_US: u64 = u64::MAX / 4;

/// A complete problem instance.
///
/// # Examples
///
/// ```
/// use ftdes_core::problem::Problem;
/// use ftdes_model::prelude::*;
/// use ftdes_ttp::BusConfig;
///
/// let mut g = ProcessGraph::new(0.into());
/// let a = g.add_process();
/// let wcet: WcetTable =
///     [(a, NodeId::new(0), Time::from_ms(10))].into_iter().collect();
/// let arch = Architecture::with_node_count(1);
/// let fm = FaultModel::new(1, Time::from_ms(5));
/// let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500))?;
/// let problem = Problem::new(g, arch, wcet, fm, bus);
/// assert_eq!(problem.process_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    graph: ProcessGraph,
    arch: Architecture,
    /// The WCET table, restricted to the graph's processes × the
    /// architecture's nodes.
    wcet: WcetTable,
    fault_model: FaultModel,
    bus: BusConfig,
    constraints: DesignConstraints,
    /// Scheduler switches every evaluation of this problem runs with
    /// (the occupancy backend, the priority strategy, the splice).
    options: ScheduleOptions,
    /// Largest checkpoint count the move generators may assign to a
    /// re-executable process (the third move axis). `1` disables the
    /// axis entirely.
    max_checkpoints: u32,
}

impl Problem {
    /// Creates a problem without designer constraints (all processes
    /// in `P+` and `P*`). WCET entries outside the graph's processes ×
    /// the architecture's nodes are dropped, so every reader of
    /// [`Problem::wcet`] sees the same table.
    #[must_use]
    pub fn new(
        graph: ProcessGraph,
        arch: Architecture,
        mut wcet: WcetTable,
        fault_model: FaultModel,
        bus: BusConfig,
    ) -> Self {
        let n = graph.process_count();
        wcet.restrict_to(n, arch.node_count());
        Problem {
            graph,
            arch,
            wcet,
            fault_model,
            bus,
            constraints: DesignConstraints::free(n),
            options: ScheduleOptions::default(),
            max_checkpoints: if fault_model.chi().is_zero() {
                1
            } else {
                DEFAULT_CHECKPOINT_LEVELS
            },
        }
    }

    /// Sets the largest checkpoint count the move generators may
    /// assign per re-executable process — the third move axis of the
    /// neighbourhood (replication level × primary node × checkpoint
    /// count). `1` disables checkpoint moves. The default is derived
    /// from the fault model (`1` when `χ = 0`, since free checkpoints
    /// degenerate the trade-off; 4 otherwise). Values are clamped to
    /// `1..=`[`MAX_CHECKPOINTS`]. **Search-space knob**, set from the
    /// CLI by `--max-checkpoints`.
    #[must_use]
    pub fn with_max_checkpoints(mut self, max_checkpoints: u32) -> Self {
        self.max_checkpoints = max_checkpoints.clamp(1, MAX_CHECKPOINTS);
        self
    }

    /// The largest checkpoint count the move generators may assign
    /// (see [`Problem::with_max_checkpoints`]).
    #[must_use]
    pub fn max_checkpoints(&self) -> u32 {
        self.max_checkpoints
    }

    /// Selects the bus-slot occupancy backend
    /// ([`ScheduleOptions::occupancy`]): the bit-packed saturation
    /// bitmap (default) or the legacy flat tail scan. Both choose
    /// identical slot occurrences, so results are bit-identical — a
    /// pure perf ablation knob.
    #[must_use]
    pub fn with_occupancy_backend(mut self, backend: OccupancyBackend) -> Self {
        self.options.occupancy = backend;
        self
    }

    /// Selects the ready-list priority strategy
    /// ([`ScheduleOptions::priority`]): partial-critical-path
    /// (paper §5.1, default) or mobility (ALAP − ASAP float).
    /// **Search-space knob** — strategies legitimately produce
    /// different (both valid) designs, and the strategy participates
    /// in the evaluator's cache-context fingerprint. The portfolio's
    /// mobility-axis worker searches a problem derived through it.
    #[must_use]
    pub fn with_priority_strategy(mut self, strategy: PriorityStrategy) -> Self {
        self.options.priority = strategy;
        self
    }

    /// Toggles the **suffix-splicing engine** (evaluation engine v3,
    /// [`ScheduleOptions::suffix_splice`], default on): single-move
    /// candidates re-place only their certified affected cone and
    /// splice the base solution's recorded per-node segments and
    /// per-slot bus timelines for everything outside it; a candidate
    /// whose order certificate fails is placed from position 0. Pure
    /// throughput knob — spliced costs are bit-identical to full
    /// placement, so exact costs, pruning classification and search
    /// trajectories are invariant (guarded by the workspace's
    /// `tests/splice.rs`); `false` places every candidate from
    /// position 0 and skips the segment recording — the splice gate's
    /// reference arm.
    #[must_use]
    pub fn with_suffix_splice(mut self, enabled: bool) -> Self {
        self.options.suffix_splice = enabled;
        self
    }

    /// The scheduler switches evaluations of this problem run with.
    #[must_use]
    pub fn schedule_options(&self) -> ScheduleOptions {
        self.options
    }

    /// Sets designer constraints (builder style).
    #[must_use]
    pub fn with_constraints(mut self, constraints: DesignConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Returns a copy of the problem under a different fault model
    /// (used to derive the NFT reference and the SFX pre-pass).
    #[must_use]
    pub fn with_fault_model(&self, fault_model: FaultModel) -> Self {
        Problem {
            fault_model,
            ..self.clone()
        }
    }

    /// The merged application graph Γ.
    #[must_use]
    pub fn graph(&self) -> &ProcessGraph {
        &self.graph
    }

    /// The architecture.
    #[must_use]
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The WCET table.
    #[must_use]
    pub fn wcet(&self) -> &WcetTable {
        &self.wcet
    }

    /// [`Problem::wcet`] under its former name, kept for the
    /// benchmark's trace.
    #[must_use]
    pub fn dense_wcet(&self) -> &WcetTable {
        &self.wcet
    }

    /// The fault model.
    #[must_use]
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// The bus configuration.
    #[must_use]
    pub fn bus(&self) -> &BusConfig {
        &self.bus
    }

    /// The designer constraints.
    #[must_use]
    pub fn constraints(&self) -> &DesignConstraints {
        &self.constraints
    }

    /// Number of processes in Γ.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.graph.process_count()
    }

    /// Largest message size over all edges (drives the initial slot
    /// length, paper Fig. 6 line 1). Defaults to 1 for message-less
    /// graphs.
    #[must_use]
    pub fn largest_message(&self) -> u32 {
        self.graph
            .edges()
            .iter()
            .map(|e| e.message.size)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Runs `ListScheduling` for `design` — the cost function of the
    /// whole optimization.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`] for designs inconsistent with the
    /// problem.
    pub fn evaluate(&self, design: &Design) -> Result<Schedule, SchedError> {
        list_schedule_with(
            &self.graph,
            &self.arch,
            &self.wcet,
            &self.fault_model,
            &self.bus,
            design,
            self.options,
        )
    }

    /// [`Problem::evaluate`] reusing caller-owned scheduling buffers,
    /// recording the placement into `ckpts` when given — the base
    /// recording the incremental engine scores single-move candidates
    /// against (see [`ftdes_sched::incremental`]).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::evaluate`].
    pub fn evaluate_recording(
        &self,
        design: &Design,
        scratch: &mut SchedScratch,
        ckpts: Option<&mut PlacementCheckpoints>,
    ) -> Result<Schedule, SchedError> {
        list_schedule_recording(
            &self.graph,
            &self.arch,
            &self.wcet,
            &self.fault_model,
            &self.bus,
            design,
            self.options,
            scratch,
            ckpts,
        )
    }

    /// Computes only the [`ScheduleCost`] of `design` — the identical
    /// placement as [`Problem::evaluate`] without materializing the
    /// schedule; allocation-free in steady state. This is the
    /// optimizer's window-evaluation fast path.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::evaluate`].
    pub fn evaluate_cost(
        &self,
        design: &Design,
        scratch: &mut CostScratch,
    ) -> Result<ScheduleCost, SchedError> {
        match self.evaluate_cost_bounded(design, scratch, None)? {
            CostOutcome::Exact(cost) => Ok(cost),
            CostOutcome::LowerBound(_) => unreachable!("unbounded runs always complete"),
        }
    }

    /// [`Problem::evaluate_cost`] with an incumbent bound: the run
    /// aborts with a certified lower bound as soon as the accumulated
    /// worst-case completion strictly exceeds `bound` (see
    /// [`ftdes_sched::schedule_cost_bounded`]).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::evaluate`].
    pub fn evaluate_cost_bounded(
        &self,
        design: &Design,
        scratch: &mut CostScratch,
        bound: Option<ScheduleCost>,
    ) -> Result<CostOutcome, SchedError> {
        schedule_cost_bounded(
            &self.graph,
            &self.arch,
            &self.wcet,
            &self.fault_model,
            &self.bus,
            design,
            self.options,
            scratch,
            bound,
        )
    }

    /// Evaluates the cost of `design` — the checkpointed base design
    /// with `moved`'s decision replaced — against the recorded base
    /// placement: through the suffix splice when the candidate's order
    /// certificate holds, from position 0 on the patched expansion
    /// otherwise (see [`ftdes_sched::schedule_cost_resumed`]).
    ///
    /// # Errors
    ///
    /// Same as [`Problem::evaluate`].
    pub fn evaluate_cost_resumed(
        &self,
        design: &Design,
        moved: ProcessId,
        scratch: &mut CostScratch,
        ckpts: &PlacementCheckpoints,
        bound: Option<ScheduleCost>,
    ) -> Result<CostOutcome, SchedError> {
        schedule_cost_resumed(
            &self.graph,
            &self.arch,
            &self.wcet,
            &self.fault_model,
            &self.bus,
            design,
            moved,
            self.options,
            scratch,
            ckpts,
            bound,
        )
    }

    /// Whether the problem fits the worst-case horizon budget: an upper
    /// bound on its schedule horizon stays within
    /// [`HORIZON_HEADROOM_US`] (and does not overflow `u64` itself).
    /// The bound is the sum of
    ///
    /// * `start` or the latest release, whichever is later (the
    ///   problem-file parser passes the merged hyperperiod,
    ///   [`crate::repair::apply_delta`] `Time::ZERO`);
    /// * per process, `k + 1` executions of its largest WCET, each with
    ///   the recovery overhead µ and the saves of every checkpoint
    ///   level the problem allows (`χ · (levels − 1)`) — every
    ///   instance's worst case, placed back to back;
    /// * [`BOOKING_HORIZON_ROUNDS`] TDMA rounds, past which no message
    ///   is ever booked.
    #[must_use]
    pub fn fits_horizon_budget(&self, start: Time) -> bool {
        self.horizon_budget(start)
            .is_some_and(|us| us <= HORIZON_HEADROOM_US)
    }

    /// The bound of [`Problem::fits_horizon_budget`] in microseconds,
    /// or `None` when it overflows `u64`.
    fn horizon_budget(&self, start: Time) -> Option<u64> {
        let fm = &self.fault_model;
        let executions = u64::from(fm.k()) + 1;
        let saves = u64::from(self.max_checkpoints - 1);
        let overhead = fm
            .mu()
            .as_us()
            .checked_add(fm.chi().as_us().checked_mul(saves)?)?;
        let mut total = self
            .graph
            .processes()
            .iter()
            .map(|p| p.release)
            .fold(start, Time::max)
            .as_us();
        for p in self.graph.processes() {
            let wcet = self
                .wcet
                .eligible_nodes(p.id)
                .map(|(_, t)| t.as_us())
                .max()
                .unwrap_or(0);
            total = total.checked_add(executions.checked_mul(wcet.checked_add(overhead)?)?)?;
        }
        let round = self
            .bus
            .byte_time()
            .as_us()
            .checked_mul(u64::from(self.bus.slot_bytes()))?
            .checked_mul(self.bus.slots_per_round() as u64)?;
        total.checked_add(round.checked_mul(BOOKING_HORIZON_ROUNDS)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::graph::Message;
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;

    use crate::config::SearchConfig;
    use crate::strategy::Strategy;

    fn tiny_problem() -> Problem {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(3)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(10)),
            (b, NodeId::new(0), Time::from_ms(20)),
        ]
        .into_iter()
        .collect();
        let arch = Architecture::with_node_count(1);
        let fm = FaultModel::new(1, Time::from_ms(5));
        let bus = BusConfig::initial(&arch, 3, Time::from_ms(1)).unwrap();
        Problem::new(g, arch, wcet, fm, bus)
    }

    #[test]
    fn evaluate_schedules_design() {
        let p = tiny_problem();
        let fm = *p.fault_model();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
        ]);
        let sched = p.evaluate(&design).unwrap();
        // ff = 30, shared slack = 20 + 5.
        assert_eq!(sched.length(), Time::from_ms(55));
    }

    #[test]
    fn largest_message_and_scale() {
        let p = tiny_problem();
        assert_eq!(p.largest_message(), 3);
    }

    #[test]
    fn wcet_entries_outside_the_grid_are_dropped() {
        // Two processes on two nodes; the padded table adds an entry on
        // a node the architecture lacks and one for a process the
        // graph lacks.
        let build = |padded: bool| {
            let mut g = ProcessGraph::new(0.into());
            let a = g.add_process();
            let b = g.add_process();
            g.add_edge(a, b, Message::new(3)).unwrap();
            let mut wcet: WcetTable = [
                (a, NodeId::new(0), Time::from_ms(10)),
                (a, NodeId::new(1), Time::from_ms(12)),
                (b, NodeId::new(0), Time::from_ms(20)),
                (b, NodeId::new(1), Time::from_ms(15)),
            ]
            .into_iter()
            .collect();
            if padded {
                wcet.set(a, NodeId::new(5), Time::from_ms(1));
                wcet.set(ProcessId::new(7), NodeId::new(0), Time::from_ms(1));
            }
            let arch = Architecture::with_node_count(2);
            let fm = FaultModel::new(1, Time::from_ms(5));
            let bus = BusConfig::initial(&arch, 3, Time::from_ms(1)).unwrap();
            Problem::new(g, arch, wcet, fm, bus)
        };
        let (clean, padded) = (build(false), build(true));
        assert_eq!(padded.wcet().get(ProcessId::new(0), NodeId::new(5)), None);
        assert_eq!(padded.wcet(), clean.wcet());
        // Every reader sees the restricted table: the search runs as
        // if the entries were never given.
        let cfg = SearchConfig {
            time_limit: None,
            max_tabu_iterations: 20,
            ..SearchConfig::default()
        };
        let got = crate::optimize(&padded, Strategy::Mxr, &cfg).unwrap();
        let want = crate::optimize(&clean, Strategy::Mxr, &cfg).unwrap();
        assert_eq!(got.design, want.design);
        assert_eq!(got.schedule.cost(), want.schedule.cost());
    }

    #[test]
    fn fault_model_substitution() {
        let p = tiny_problem();
        let nft = p.with_fault_model(FaultModel::none());
        assert!(nft.fault_model().is_fault_free());
        assert_eq!(p.fault_model().k(), 1, "original untouched");
    }
}
