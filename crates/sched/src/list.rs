//! Fault-tolerance-aware list scheduling (paper §5.1).
//!
//! Given a merged graph, an architecture, a bus configuration and a
//! design (policy assignment + mapping), `ListScheduling` builds the
//! per-node schedule tables and the bus MEDL:
//!
//! 1. processes enter the ready list once all their predecessors are
//!    scheduled, and are extracted by partial-critical-path priority;
//! 2. every replica instance is appended to its node at the earliest
//!    fault-free start consistent with its inputs (consuming the
//!    *first valid* replica message, paper Fig. 7);
//! 3. inter-node messages are booked into the earliest TDMA slot of
//!    the sender at/after the sender's *worst-case* finish, making
//!    local faults transparent to remote nodes (paper Fig. 4);
//! 4. the worst-case finish of every instance is the maximum over:
//!    the fault-free finish plus the node's shared re-execution slack
//!    (all `k` faults local, paper Fig. 3b), every input contingency
//!    (the adversary kills the cheaper replicas of an input and the
//!    instance waits for a later delivery, with the *remaining* fault
//!    budget applied locally — paper Fig. 7's slack-free contingency),
//!    and contingencies propagated along the node (an input-delayed
//!    instance delays its local successors).
//!
//! # Two front-ends, one placement core
//!
//! The optimizer calls the cost function thousands of times per
//! second, but only ever *keeps* the schedule of the winning
//! candidate. The placement algorithm therefore runs behind a
//! `PlacementSink`: [`list_schedule`] materializes the full
//! [`Schedule`] (tables, bookings, MEDL), while [`schedule_cost`]
//! runs the identical placement with a no-op sink and allocation-free
//! scratch buffers, returning just the [`ScheduleCost`]. Both paths
//! share every line of placement logic, so their costs cannot
//! diverge.
//!
//! # Adjacency in O(1)
//!
//! Booked message arrivals live in one flat table indexed by
//! `(edge, sender replica)` (`Arrivals`): a delivery lookup is one
//! index, and the splice recording restores the table by plain copy. Whether an edge's message needs the bus is
//! the expansion's O(1) sole-node test ([`ExpandedDesign`]).

use ftdes_model::architecture::Architecture;
use ftdes_model::design::Design;
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::{EdgeId, NodeId, ProcessId};
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetLookup;
use ftdes_ttp::config::BusConfig;
use ftdes_ttp::error::TtpError;
use ftdes_ttp::medl::{BookedMessage, BusSchedule, MessageTag};

use crate::error::SchedError;
use crate::incremental::PlacementCheckpoints;
use crate::instance::{ExpandedDesign, Instance, InstanceId};
use crate::occupancy::{OccupancyBackend, SlotOccupancy, SlotTable};
use crate::priority::{Priorities, PriorityStrategy};
use crate::schedule::{
    Bookings, Schedule, ScheduleCost, ScheduledInstance, StartBinding, WcBinding,
};
use crate::slack::SlackAccount;

/// A raw contingency finish propagated along a node: `finish`
/// excludes the local re-execution delay (added per consumer with the
/// remaining budget), `spent` is the number of faults the adversary
/// already invested to force this lateness.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontierEntry {
    pub(crate) finish: Time,
    pub(crate) spent: u32,
}

/// Reusable per-node placement state.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    pub(crate) avail: Time,
    pub(crate) last: Option<InstanceId>,
    pub(crate) slack: SlackAccount,
    pub(crate) frontier: Vec<FrontierEntry>,
    /// The node's current full-budget slack delay — monotone
    /// nondecreasing as instances register, which makes
    /// `avail + wcet + delay_k` a certified lower bound on any
    /// still-unplaced instance's worst-case finish (the bounded
    /// runs' lookahead abort).
    pub(crate) delay_k: Time,
}

impl NodeScratch {
    pub(crate) fn reset(&mut self) {
        self.avail = Time::ZERO;
        self.last = None;
        self.slack.clear();
        self.frontier.clear();
        self.delay_k = Time::ZERO;
    }
}

/// Scheduler switches, mainly for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Share one re-execution slack region per node between all its
    /// processes (paper Fig. 3b). Disabling it makes every process
    /// reserve its own full recovery window — the naive baseline the
    /// paper improves on; worst-case lengths grow, soundness is
    /// preserved.
    pub slack_sharing: bool,
    /// The bus-slot booking structure: the legacy flat tail scan
    /// (PR 2) or the bit-packed saturation bitmap (default) — see
    /// [`OccupancyBackend`]. Pure throughput knob — both backends
    /// choose identical occurrences (debug builds assert it per
    /// booking); select the flat scan to measure the earlier booking
    /// path.
    pub occupancy: OccupancyBackend,
    /// The ready-list priority function: partial-critical-path
    /// (paper §5.1, default) or mobility (ALAP − ASAP float) — see
    /// [`PriorityStrategy`]. **Search-space knob**: different
    /// strategies legitimately produce different (both valid)
    /// schedules.
    pub priority: PriorityStrategy,
    /// Evaluate single-move candidates through the **suffix-splicing
    /// engine** (evaluation engine v3, default on): while the base
    /// solution materializes, the checkpoint recorder additionally
    /// captures per-node placement segments and per-(node, slot) bus
    /// timelines (the `segments` module); a candidate then computes
    /// its certified **affected cone** (the `delta` module) and
    /// re-places only the cone, splicing the base recording's
    /// segments for every node and slot outside it. A candidate whose
    /// order certificate fails (or any candidate, with the knob off)
    /// re-places from position 0 on its patched expansion. Pure
    /// throughput knob — spliced costs are bit-identical to full
    /// placement (guarded by the workspace's `tests/splice.rs`), so
    /// search trajectories are invariant; disable to measure the
    /// splice's gain (off, recording also skips the segments).
    pub suffix_splice: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            slack_sharing: true,
            occupancy: OccupancyBackend::default(),
            priority: PriorityStrategy::default(),
            suffix_splice: true,
        }
    }
}

/// Reusable working memory of the list scheduler.
///
/// The optimizer evaluates thousands of candidate designs per second;
/// each evaluation used to allocate fresh ready lists, delivery
/// buffers, per-node state and booking tables. A `SchedScratch` owned
/// by the caller (one per worker thread) lets consecutive evaluations
/// reuse all of those allocations — the cost-only path reaches zero
/// steady-state allocations. A default-constructed scratch is always
/// valid; buffers are cleared before use.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Unscheduled predecessor count per process.
    pub(crate) remaining_preds: Vec<usize>,
    /// Processes whose predecessors are all scheduled.
    pub(crate) ready: Vec<ProcessId>,
    /// Delivery options of the input edge under consideration.
    deliveries: Vec<Delivery>,
    /// Input contingency scenarios of the instance being placed.
    scenarios: Vec<Scenario>,
    /// Contingency frontier being assembled for the current node.
    frontier: Vec<FrontierEntry>,
    /// Fault-free finish per placed instance (predecessor lookups).
    pub(crate) times: Vec<Time>,
    /// Worst-case finish per placed instance — the `earliest` its
    /// outgoing messages were booked at. Recorded into the suffix
    /// splice's final state so spliced (non-replaced) senders can
    /// re-book into perturbed slots at their exact base request time.
    pub(crate) wc_times: Vec<Time>,
    /// Worst-case completion per process (cost accumulation).
    pub(crate) completion: Vec<Time>,
    /// Per-node placement state.
    pub(crate) nodes: Vec<NodeScratch>,
    /// Message arrival times per (edge, sender replica) (delivery
    /// lookups).
    pub(crate) arrivals: Arrivals,
    /// Bus-slot occupancy (used bytes per slot occurrence, through
    /// the active [`OccupancyBackend`]).
    pub(crate) occupancy: SlotOccupancy,
    /// Per-node sums of unplaced instances' WCETs, maintained by
    /// bounded runs for the O(nodes) lookahead check.
    pub(crate) look_sum: Vec<Time>,
}

/// Booked message arrival times in one flat table keyed by
/// `(edge, sender replica)`: `times[edge * stride + replica]`.
///
/// `stride = min(k + 1, node_count)` bounds the replica index exactly
/// (a process has at most `k + 1` replicas, on pairwise distinct
/// nodes), so the table holds `edges × stride` entries however large
/// a parsed `k` is. An entry is written when its sender instance
/// books the edge's message and is read only by consumer instances
/// off the sender's node — exactly the instances that made it book —
/// so stale entries (unbooked edges, replicas a design no longer has)
/// are never read. Keys carry no instance ids, so recordings restore
/// into a candidate with a different replica count by plain copy.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    times: Vec<Time>,
    stride: usize,
}

impl Arrivals {
    /// Sizes the table for `graph` under fault model `fm` on
    /// `node_count` nodes (entries zeroed).
    fn reset(&mut self, graph: &ProcessGraph, fm: &FaultModel, node_count: usize) {
        self.stride = (fm.k() as usize).saturating_add(1).min(node_count);
        self.times.clear();
        self.times
            .resize(graph.edge_count() * self.stride, Time::ZERO);
    }

    /// Number of entries (`edges × stride`).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.times.len()
    }

    /// Copies `other` into `self`, reusing the buffer.
    pub(crate) fn copy_from(&mut self, other: &Arrivals) {
        self.stride = other.stride;
        self.times.clone_from(&other.times);
    }

    fn index(&self, edge: EdgeId, replica: u32) -> usize {
        debug_assert!(
            (replica as usize) < self.stride,
            "replica index within stride"
        );
        edge.index() * self.stride + replica as usize
    }

    /// The arrival of `edge`'s message from the sender's replica
    /// number `replica`.
    pub(crate) fn get(&self, edge: EdgeId, replica: u32) -> Time {
        self.times[self.index(edge, replica)]
    }

    /// Records the arrival of `edge`'s message from the sender's
    /// replica number `replica`.
    pub(crate) fn set(&mut self, edge: EdgeId, replica: u32, arrival: Time) {
        let at = self.index(edge, replica);
        self.times[at] = arrival;
    }
}

/// Working memory of the cost-only evaluation path: the design
/// expansion and priorities are rebuilt in place per candidate.
#[derive(Debug, Default)]
pub struct CostScratch {
    pub(crate) expanded: ExpandedDesign,
    pub(crate) priorities: Priorities,
    pub(crate) core: SchedScratch,
    /// Processes whose priorities a candidate move actually changed
    /// (working memory of the incremental engine).
    pub(crate) changed: Vec<ProcessId>,
    /// Which base design `expanded` currently holds (the checkpoint
    /// tag), so consecutive candidates of one window patch in place
    /// instead of re-copying the base expansion. `0` = unknown.
    pub(crate) expanded_tag: u128,
    /// Saved instances of the in-place patch (for undo).
    pub(crate) undo_insts: Vec<Instance>,
    /// Working memory of the suffix-splicing engine's cone sweep.
    pub(crate) splice: crate::delta::SpliceScratch,
    /// The order certificate's float set (see
    /// `incremental::FloatPlan`).
    pub(crate) float_plan: crate::incremental::FloatPlan,
}

impl CostScratch {
    /// The inner scheduling scratch, for interleaving full
    /// materializations with cost-only queries on the same thread.
    pub fn core_mut(&mut self) -> &mut SchedScratch {
        &mut self.core
    }
}

/// Receives placement results; what distinguishes a full
/// materialization from a cost-only evaluation.
pub(crate) trait PlacementSink {
    fn instance_placed(&mut self, rec: ScheduledInstance);
    fn message_booked(&mut self, edge: EdgeId, sender: InstanceId, booked: BookedMessage);
}

/// Cost-only evaluation: the core's completion accounting is the
/// entire result.
pub(crate) struct CostOnly;

impl PlacementSink for CostOnly {
    fn instance_placed(&mut self, _rec: ScheduledInstance) {}
    fn message_booked(&mut self, _edge: EdgeId, _sender: InstanceId, _booked: BookedMessage) {}
}

/// Full materialization: schedule tables, booking table and MEDL.
struct Materialize {
    slots: Vec<Option<ScheduledInstance>>,
    node_order: Vec<Vec<InstanceId>>,
    bookings: Bookings,
    bus_bookings: Vec<BookedMessage>,
}

impl PlacementSink for Materialize {
    fn instance_placed(&mut self, rec: ScheduledInstance) {
        self.node_order[rec.instance.node.index()].push(rec.instance.id);
        self.slots[rec.instance.id.index()] = Some(rec);
    }

    fn message_booked(&mut self, edge: EdgeId, sender: InstanceId, booked: BookedMessage) {
        self.bookings.insert(edge, sender, booked);
        self.bus_bookings.push(booked);
    }
}

/// Builds the static fault-tolerant schedule for `design` with the
/// default options (slack sharing on — the paper's scheduler).
///
/// This is the `ListScheduling` of the paper's Fig. 6/9.
///
/// # Errors
///
/// Returns [`SchedError`] when the graph is cyclic, the design does
/// not match the graph, a replica is mapped on an ineligible node, or
/// a message exceeds the slot capacity.
pub fn list_schedule<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
) -> Result<Schedule, SchedError> {
    list_schedule_with(
        graph,
        arch,
        wcet,
        fm,
        bus,
        design,
        ScheduleOptions::default(),
    )
}

/// [`list_schedule`] with explicit [`ScheduleOptions`].
///
/// # Errors
///
/// Same as [`list_schedule`].
#[allow(clippy::too_many_arguments)]
pub fn list_schedule_with<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    options: ScheduleOptions,
) -> Result<Schedule, SchedError> {
    let mut scratch = SchedScratch::default();
    list_schedule_recording(
        graph,
        arch,
        wcet,
        fm,
        bus,
        design,
        options,
        &mut scratch,
        None,
    )
}

/// [`list_schedule_with`] reusing caller-owned working memory that
/// additionally records the placement into `ckpts` (when given) — the
/// base recording the incremental evaluation engine scores
/// single-move candidates against (see [`crate::incremental`]).
///
/// # Errors
///
/// Same as [`list_schedule`].
#[allow(clippy::too_many_arguments)]
pub fn list_schedule_recording<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    options: ScheduleOptions,
    scratch: &mut SchedScratch,
    mut ckpts: Option<&mut PlacementCheckpoints>,
) -> Result<Schedule, SchedError> {
    let expanded = ExpandedDesign::expand(graph, design, wcet, fm)?;
    let priorities = Priorities::compute(graph, &expanded, bus, options.priority)?;
    if let Some(ckpts) = ckpts.as_deref_mut() {
        ckpts.begin(
            &expanded,
            &priorities,
            arch.node_count(),
            bus,
            options.suffix_splice,
        );
    }
    let mut sink = Materialize {
        slots: vec![None; expanded.len()],
        node_order: vec![Vec::new(); arch.node_count()],
        bookings: Bookings::for_instances(expanded.len()),
        bus_bookings: Vec::new(),
    };
    init_placement(graph, fm, arch.node_count(), &expanded, scratch);
    let outcome = drive_placement(
        graph,
        &expanded,
        &priorities,
        bus,
        fm,
        options,
        scratch,
        &mut sink,
        None,
        ckpts.as_deref_mut(),
    )?;
    debug_assert!(matches!(outcome, RunCost::Complete(_)));
    if let Some(ckpts) = ckpts {
        ckpts.finish(graph);
    }
    let slots: Vec<ScheduledInstance> = sink
        .slots
        .into_iter()
        .map(|s| s.expect("all instances placed"))
        .collect();
    let bus_schedule = BusSchedule::from_bookings(bus.clone(), sink.bus_bookings);
    Ok(Schedule::new(
        expanded,
        slots,
        sink.node_order,
        sink.bookings,
        bus_schedule,
        graph,
    ))
}

/// Computes only the [`ScheduleCost`] of `design` — the optimizer's
/// window-evaluation fast path. Runs the identical placement as
/// [`list_schedule`] (one shared core), but materializes nothing and
/// allocates nothing in steady state.
///
/// # Errors
///
/// Same as [`list_schedule`].
#[allow(clippy::too_many_arguments)]
pub fn schedule_cost<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    options: ScheduleOptions,
    scratch: &mut CostScratch,
) -> Result<ScheduleCost, SchedError> {
    match schedule_cost_bounded(graph, arch, wcet, fm, bus, design, options, scratch, None)? {
        CostOutcome::Exact(cost) => Ok(cost),
        CostOutcome::LowerBound(_) => unreachable!("unbounded runs always complete"),
    }
}

/// The result of a bounded cost evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostOutcome {
    /// The placement ran to completion: the exact [`ScheduleCost`].
    Exact(ScheduleCost),
    /// The placement aborted because the accumulated worst-case
    /// completion exceeded the caller's bound. The carried value is a
    /// **certified lower bound** on the exact cost: worst-case
    /// completions only grow as placement proceeds, so the exact
    /// `(violation, length)` is `>=` this value in the same
    /// lexicographic order candidate selection uses.
    LowerBound(ScheduleCost),
}

impl CostOutcome {
    /// `true` for [`CostOutcome::Exact`].
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, CostOutcome::Exact(_))
    }

    /// The carried cost (exact, or the certified lower bound).
    #[must_use]
    pub fn cost(&self) -> ScheduleCost {
        match *self {
            CostOutcome::Exact(c) | CostOutcome::LowerBound(c) => c,
        }
    }
}

/// [`schedule_cost`] with an optional incumbent `bound`: the run
/// aborts as soon as the accumulated worst-case completion strictly
/// exceeds the bound, returning [`CostOutcome::LowerBound`] — a
/// candidate provably worse than the incumbent stops paying for the
/// rest of its placement. With `bound = None` this is exactly
/// [`schedule_cost`].
///
/// A run whose exact cost is `<= bound` always completes exactly; a
/// run returns `LowerBound` **iff** its exact cost is `> bound`
/// (worst-case completions are monotone, so the final placement step
/// at the latest crosses the bound).
///
/// # Errors
///
/// Same as [`list_schedule`].
#[allow(clippy::too_many_arguments)]
pub fn schedule_cost_bounded<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    options: ScheduleOptions,
    scratch: &mut CostScratch,
    bound: Option<ScheduleCost>,
) -> Result<CostOutcome, SchedError> {
    // The from-scratch rebuild clobbers whatever window base the
    // expansion buffer held for the in-place candidate patching.
    scratch.expanded_tag = 0;
    scratch.expanded.expand_into(graph, design, wcet, fm)?;
    scratch
        .priorities
        .compute_into(graph, &scratch.expanded, bus, options.priority)?;
    init_placement(
        graph,
        fm,
        arch.node_count(),
        &scratch.expanded,
        &mut scratch.core,
    );
    let outcome = drive_placement(
        graph,
        &scratch.expanded,
        &scratch.priorities,
        bus,
        fm,
        options,
        &mut scratch.core,
        &mut CostOnly,
        bound,
        None,
    )?;
    Ok(outcome.into())
}

/// How a driven placement run ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunCost {
    /// Every instance placed; the exact cost.
    Complete(ScheduleCost),
    /// Bound exceeded; the certified lower bound at the abort point.
    Aborted(ScheduleCost),
}

impl From<RunCost> for CostOutcome {
    fn from(run: RunCost) -> Self {
        match run {
            RunCost::Complete(c) => CostOutcome::Exact(c),
            RunCost::Aborted(c) => CostOutcome::LowerBound(c),
        }
    }
}

/// Resets `scratch` to the empty placement state for `expanded`
/// (position 0 of the instance order).
pub(crate) fn init_placement(
    graph: &ProcessGraph,
    fm: &FaultModel,
    node_count: usize,
    expanded: &ExpandedDesign,
    scratch: &mut SchedScratch,
) {
    let n = graph.process_count();
    scratch.times.clear();
    scratch.times.resize(expanded.len(), Time::ZERO);
    scratch.wc_times.clear();
    scratch.wc_times.resize(expanded.len(), Time::ZERO);
    scratch.completion.clear();
    scratch.completion.resize(n, Time::ZERO);
    // Truncate too: bounded runs derive the node count from this
    // buffer (remaining-work sums), and a worker's scratch survives
    // across problems of different sizes.
    scratch.nodes.truncate(node_count);
    if scratch.nodes.len() < node_count {
        scratch.nodes.resize_with(node_count, NodeScratch::default);
    }
    for node in &mut scratch.nodes[..node_count] {
        node.reset();
    }
    scratch.arrivals.reset(graph, fm, node_count);
    scratch.occupancy.clear();

    // Ready-list management at process granularity: a process is
    // ready once every predecessor process is fully scheduled.
    scratch.remaining_preds.clear();
    scratch
        .remaining_preds
        .extend((0..n).map(|i| graph.incoming(ProcessId::new(i as u32)).len()));
    scratch.ready.clear();
    scratch.ready.extend(
        (0..n)
            .filter(|&i| scratch.remaining_preds[i] == 0)
            .map(|i| ProcessId::new(i as u32)),
    );
}

/// The shared placement loop: places every instance from the empty
/// state [`init_placement`] left in `scratch`, feeds the sink, and
/// returns the cost accumulated from worst-case completions.
///
/// When `bound` is given the run aborts with [`RunCost::Aborted`] as
/// soon as the accumulated cost, or the certified lookahead on top of
/// it, strictly exceeds the bound. `recorder` captures the base
/// recording of the incremental engine along the way (full runs only
/// — never combined with a bound).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_placement<S: PlacementSink>(
    graph: &ProcessGraph,
    expanded: &ExpandedDesign,
    priorities: &Priorities,
    bus: &BusConfig,
    fm: &FaultModel,
    options: ScheduleOptions,
    scratch: &mut SchedScratch,
    sink: &mut S,
    bound: Option<ScheduleCost>,
    mut recorder: Option<&mut PlacementCheckpoints>,
) -> Result<RunCost, SchedError> {
    debug_assert!(
        recorder.is_none() || bound.is_none(),
        "checkpoints are recorded on full unbounded runs only"
    );
    let k = fm.k();
    let mu = fm.mu();
    let n = graph.process_count();
    let mut scheduled = 0;
    let mut running = ScheduleCost {
        violation: Time::ZERO,
        length: Time::ZERO,
    };
    scratch.occupancy.set_backend(options.occupancy);

    if let Some(bound) = bound {
        // Per-node remaining fault-free work, kept current per
        // placement: the backbone of the O(nodes) lookahead bound.
        scratch.look_sum.clear();
        scratch.look_sum.resize(scratch.nodes.len(), Time::ZERO);
        for inst in expanded.instances() {
            scratch.look_sum[inst.node.index()] += inst.exec;
        }
        // Entry check: an outright hopeless candidate certifies the
        // overrun before a single placement.
        let certified = certified_lookahead(scratch, running);
        if certified > bound {
            return Ok(RunCost::Aborted(certified));
        }
    }

    while let Some(pos) = select_best(&scratch.ready, priorities) {
        let p = scratch.ready.swap_remove(pos);
        place_process(p, graph, expanded, bus, k, mu, options, scratch, sink)?;
        scheduled += 1;
        for s in graph.successors_of(p) {
            scratch.remaining_preds[s.index()] -= 1;
            if scratch.remaining_preds[s.index()] == 0 {
                scratch.ready.push(s);
            }
        }
        if let Some(rec) = recorder.as_deref_mut() {
            rec.note_placed(p, graph, scratch);
        }
        if let Some(bound) = bound {
            for &sid in expanded.of_process(p) {
                let inst = expanded.instance(sid);
                scratch.look_sum[inst.node.index()] -= inst.exec;
            }
            let completion = scratch.completion[p.index()];
            running.length = running.length.max(completion);
            if let Some(d) = graph.process(p).deadline {
                running.violation = running.violation.max(completion.saturating_sub(d));
            }
            if running > bound {
                return Ok(RunCost::Aborted(running));
            }
            // Lookahead: a certified lower bound on the final cost
            // from the current placement state — see
            // [`certified_lookahead`].
            let certified = certified_lookahead(scratch, running);
            if certified > bound {
                return Ok(RunCost::Aborted(certified));
            }
        }
    }
    if scheduled != n {
        // Unreachable for validated graphs, but a cyclic graph that
        // slipped validation must not produce a silent partial table.
        return Err(SchedError::Model(
            ftdes_model::error::ModelError::CyclicGraph { graph: graph.id() },
        ));
    }

    Ok(RunCost::Complete(accumulate_cost(
        graph,
        &scratch.completion,
    )))
}

/// The certified computation lookahead of bounded runs: a lower
/// bound on the final `(violation, length)` cost derivable from the
/// current placement state. A node's unplaced instances all still
/// execute on it serially at least once fault-free, so its last
/// worst-case finish is at least the current availability plus the
/// sum of their WCETs plus the node's current full-budget slack delay
/// (O(nodes) per placement thanks to the maintained sums).
///
/// Every term is a lower bound on its final-schedule counterpart, so
/// exceeding the caller's bound here certifies the final cost does
/// too.
pub(crate) fn certified_lookahead(scratch: &SchedScratch, running: ScheduleCost) -> ScheduleCost {
    let mut look = running.length;
    for (ns, &remaining) in scratch.nodes.iter().zip(&scratch.look_sum) {
        if !remaining.is_zero() {
            look = look.max(ns.avail + remaining + ns.delay_k);
        }
    }
    ScheduleCost {
        violation: running.violation,
        length: look,
    }
}

/// The exact `(violation, length)` cost of the completions
/// accumulated so far — also the splice's cost of its spliced
/// completions (unplaced processes contribute their zero completion,
/// i.e. nothing).
pub(crate) fn accumulate_cost(graph: &ProcessGraph, completion: &[Time]) -> ScheduleCost {
    let mut violation = Time::ZERO;
    let mut length = Time::ZERO;
    for p in graph.processes() {
        let c = completion[p.id.index()];
        length = length.max(c);
        if let Some(d) = p.deadline {
            violation = violation.max(c.saturating_sub(d));
        }
    }
    ScheduleCost { violation, length }
}

/// Index of the highest-priority ready process.
pub(crate) fn select_best(ready: &[ProcessId], priorities: &Priorities) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &p) in ready.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) if priorities.before(p, ready[b]) => best = Some(i),
            _ => {}
        }
    }
    best
}

/// One delivery option of an input edge: `time` is when the receiver
/// could consume this sender's output, `kill_cost` the faults needed
/// to eliminate the sender entirely (budget + 1), and `kill_delay`
/// the node time those faults burn when the sender is local to the
/// receiver (its re-runs plus the final µ — a killed local replica
/// still occupies the CPU before the node resumes).
#[derive(Debug, Clone, Copy)]
struct Delivery {
    sender: InstanceId,
    time: Time,
    kill_cost: u32,
    kill_delay: Time,
}

/// One input contingency: the adversary spends `spent` faults so the
/// instance waits for `sender`'s delivery at `time`; killed local
/// replicas additionally occupy the node for `local_kill_delay`.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    edge: EdgeId,
    sender: InstanceId,
    time: Time,
    spent: u32,
    local_kill_delay: Time,
}

/// One sender instance's booking session — the `ScheduleMessage`
/// primitive, against the reusable occupancy table.
///
/// A node owns exactly one slot per round and every message of an
/// instance is requested at the same time (its worst-case finish), so
/// [`SenderBooking::open`] does the per-instance work once: it finds
/// the first slot occurrence starting at/after the request
/// ([`BusConfig::next_slot_at`], the one division of the booking
/// path), resolves the slot's occupancy table and backend, and
/// precomputes the slot-end offset each arrival is derived from. Each
/// [`SenderBooking::book`] then runs only the first-fit scan from
/// that occurrence — exactly what one `BusSchedule::book` call per
/// message does: a later, smaller message may still back-fill an
/// earlier round an earlier message overflowed.
///
/// Both placement front-ends (full and cost-only) and the splice's
/// booking replay book through this one type, so the paths cannot
/// diverge from each other. Semantics mirror
/// `ftdes_ttp::medl::BusSchedule::book` (capacity check, earliest
/// feasible occurrence, overflow to the next round); the
/// `sender_booking_matches_bus_schedule_book` test guards that
/// mirror, and in debug builds [`SlotTable::book`] replays the legacy
/// flat tail scan and asserts the bitmap answer agrees.
pub(crate) struct SenderBooking<'a> {
    table: SlotTable<'a>,
    sender: NodeId,
    slot: usize,
    /// The first occurrence of the sender's slot at/after the request.
    first: u64,
    round_len: Time,
    slot_len: Time,
    /// End of the slot's round-0 occurrence: a booking into round `r`
    /// arrives at `end_off + r · round_len`.
    end_off: Time,
}

impl<'a> SenderBooking<'a> {
    /// Opens a session for messages `sender` requests at `earliest`.
    pub(crate) fn open(
        bus: &BusConfig,
        occupancy: &'a mut SlotOccupancy,
        sender: NodeId,
        earliest: Time,
    ) -> Self {
        let (first, slot) = bus.next_slot_at(sender, earliest);
        SenderBooking {
            table: occupancy.slot(slot, bus.slot_bytes()),
            sender,
            slot,
            first,
            round_len: bus.round_length(),
            slot_len: bus.slot_length(),
            end_off: bus.slot_end(0, slot),
        }
    }

    /// Books `size` bytes into the earliest occurrence of the slot
    /// with spare capacity at/after the session's first occurrence.
    pub(crate) fn book(&mut self, size: u32, tag: MessageTag) -> Result<BookedMessage, SchedError> {
        let capacity = self.table.capacity();
        if size > capacity {
            return Err(TtpError::MessageExceedsSlot { size, capacity }.into());
        }
        let round = self.table.book(self.first, size)?;
        let arrival = self.end_off + self.round_len * round;
        Ok(BookedMessage {
            tag,
            size,
            sender: self.sender,
            round,
            slot: self.slot,
            start: arrival - self.slot_len,
            arrival,
        })
    }
}

/// Books every message of sender instance `sid` (`inst`) that a
/// consumer reads remotely under `expanded`, requested at `earliest`,
/// through one [`SenderBooking`]: records each arrival in `arrivals`
/// and reports each booking to `sink`. Instances with no remote
/// reader open no session.
#[allow(clippy::too_many_arguments)]
pub(crate) fn book_sender<S: PlacementSink>(
    graph: &ProcessGraph,
    expanded: &ExpandedDesign,
    bus: &BusConfig,
    sid: InstanceId,
    inst: &Instance,
    earliest: Time,
    occupancy: &mut SlotOccupancy,
    arrivals: &mut Arrivals,
    sink: &mut S,
) -> Result<(), SchedError> {
    let out = graph.outgoing(inst.process);
    let remote = |eid: EdgeId| expanded.reads_remote(graph.edge(eid).to, inst.node);
    let Some(first) = out.iter().position(|&eid| remote(eid)) else {
        return Ok(());
    };
    let mut session = SenderBooking::open(bus, occupancy, inst.node, earliest);
    for &eid in &out[first..] {
        if !remote(eid) {
            continue;
        }
        let booked = session.book(
            graph.edge(eid).message.size,
            MessageTag::new(eid, inst.replica),
        )?;
        arrivals.set(eid, inst.replica, booked.arrival);
        sink.message_booked(eid, sid, booked);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn place_process<S: PlacementSink>(
    p: ProcessId,
    graph: &ProcessGraph,
    expanded: &ExpandedDesign,
    bus: &BusConfig,
    k: u32,
    mu: Time,
    options: ScheduleOptions,
    scratch: &mut SchedScratch,
    sink: &mut S,
) -> Result<(), SchedError> {
    let delay = |slack: &SlackAccount, budget: u32| {
        if options.slack_sharing {
            slack.worst_delay_surviving(budget, mu)
        } else {
            slack.unshared_delay_surviving(budget, mu)
        }
    };
    let release = graph.process(p).release;
    for &sid in expanded.of_process(p) {
        let inst = *expanded.instance(sid);
        let node = inst.node;

        // --- Fault-free start and input contingency scenarios
        //     (1 <= spent <= k). ---
        let mut s_ff = release;
        let mut start_binding = StartBinding::Release;
        scratch.scenarios.clear();

        for &eid in graph.incoming(p) {
            let edge = graph.edge(eid);
            let senders = expanded.of_process(edge.from);
            if let [q] = *senders {
                // One replica: one delivery, no contingency scenario.
                let qi = expanded.instance(q);
                let time = if qi.node == node {
                    scratch.times[q.index()]
                } else {
                    scratch.arrivals.get(eid, qi.replica)
                };
                if time > s_ff {
                    s_ff = time;
                    start_binding = StartBinding::Input {
                        edge: eid,
                        sender: q,
                    };
                }
                continue;
            }
            scratch.deliveries.clear();
            for &q in senders {
                let qi = expanded.instance(q);
                let local = qi.node == node;
                let time = if local {
                    scratch.times[q.index()]
                } else {
                    scratch.arrivals.get(eid, qi.replica)
                };
                // Killing a local sender burns node time: all its
                // rollback re-runs (the recovery profile's per-fault
                // cost — one segment for a checkpointed sender, the
                // full WCET otherwise) plus the final recovery
                // overhead.
                let kill_delay = if local {
                    (qi.recovery + mu) * u64::from(qi.budget) + mu
                } else {
                    Time::ZERO
                };
                scratch.deliveries.push(Delivery {
                    sender: q,
                    time,
                    kill_cost: qi.budget + 1,
                    kill_delay,
                });
            }
            scratch.deliveries.sort_by_key(|d| (d.time, d.sender));

            // First valid message: the earliest delivery drives S_ff.
            let first = scratch.deliveries[0];
            if first.time > s_ff {
                s_ff = first.time;
                start_binding = StartBinding::Input {
                    edge: eid,
                    sender: first.sender,
                };
            }
            // Later deliveries require killing everything earlier;
            // killed local replicas also delay this node.
            let mut spent = 0u32;
            let mut local_kill_delay = Time::ZERO;
            for w in scratch.deliveries.windows(2) {
                spent = spent.saturating_add(w[0].kill_cost);
                local_kill_delay += w[0].kill_delay;
                if spent > k {
                    break;
                }
                scratch.scenarios.push(Scenario {
                    edge: eid,
                    sender: w[1].sender,
                    time: w[1].time,
                    spent,
                    local_kill_delay,
                });
            }
        }

        let ns = &mut scratch.nodes[node.index()];
        if ns.avail > s_ff {
            s_ff = ns.avail;
            start_binding = match ns.last {
                Some(prev) => StartBinding::NodePrev(prev),
                None => StartBinding::Release,
            };
        }
        let f_ff = s_ff + inst.exec;

        // --- Worst-case finish. ---
        ns.slack.register(sid, inst.recovery, inst.budget);
        let dk = delay(&ns.slack, k);
        ns.delay_k = dk;
        let mut f_wc = f_ff + dk;
        let mut wc_binding = WcBinding::Local;
        scratch.frontier.clear();

        for sc in &scratch.scenarios {
            let raw = sc.time.max(s_ff + sc.local_kill_delay) + inst.exec;
            let value = raw + delay(&ns.slack, k - sc.spent);
            if value > f_wc {
                f_wc = value;
                wc_binding = WcBinding::Scenario {
                    edge: sc.edge,
                    sender: sc.sender,
                };
            }
            if raw > f_ff {
                scratch.frontier.push(FrontierEntry {
                    finish: raw,
                    spent: sc.spent,
                });
            }
        }
        for entry in &ns.frontier {
            let raw = entry.finish.max(s_ff) + inst.exec;
            let value = raw + delay(&ns.slack, k - entry.spent);
            if value > f_wc {
                f_wc = value;
                wc_binding = WcBinding::Chained;
            }
            if raw > f_ff {
                scratch.frontier.push(FrontierEntry {
                    finish: raw,
                    spent: entry.spent,
                });
            }
        }
        prune_frontier(&mut scratch.frontier, &mut ns.frontier);
        ns.avail = f_ff;
        ns.last = Some(sid);

        scratch.times[sid.index()] = f_ff;
        scratch.wc_times[sid.index()] = f_wc;
        let completion = &mut scratch.completion[p.index()];
        *completion = (*completion).max(f_wc);
        sink.instance_placed(ScheduledInstance {
            instance: inst,
            start: s_ff,
            finish: f_ff,
            worst_finish: f_wc,
            start_binding,
            wc_binding,
            delay_peak: scratch.nodes[node.index()].slack.peak(),
        });

        // --- Book outgoing messages (transparent timing). ---
        book_sender(
            graph,
            expanded,
            bus,
            sid,
            &inst,
            f_wc,
            &mut scratch.occupancy,
            &mut scratch.arrivals,
            sink,
        )?;
    }
    Ok(())
}

/// Keeps the Pareto frontier: for every spent level only the latest
/// finish, and drops entries dominated by a cheaper-or-equal one.
/// Reads candidates from `entries` (left sorted) and writes the
/// surviving frontier into `out`.
fn prune_frontier(entries: &mut [FrontierEntry], out: &mut Vec<FrontierEntry>) {
    entries.sort_by_key(|e| (e.spent, std::cmp::Reverse(e.finish)));
    out.clear();
    for &e in entries.iter() {
        match out.last() {
            Some(last) if last.spent == e.spent => {} // later finish already kept
            Some(last) if last.finish >= e.finish => {} // dominated by cheaper entry
            _ => out.push(e),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::graph::Message;
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;

    fn ms(v: u64) -> Time {
        Time::from_ms(v)
    }

    /// Two nodes, 10 ms slots (4-byte messages at 2.5 ms/byte).
    fn bus(n: usize) -> BusConfig {
        BusConfig::initial(&Architecture::with_node_count(n), 4, Time::from_us(2_500)).unwrap()
    }

    fn rex(fm: &FaultModel, node: u32) -> ProcessDesign {
        ProcessDesign::new(FtPolicy::reexecution(fm), vec![NodeId::new(node)]).unwrap()
    }

    /// Paper Fig. 3, application A2 (chain P1 -> P2 -> P3), schedule
    /// b2: everything re-executed on node N1 with k = 1, µ = 10 ms.
    /// One shared slack of size C3 + µ covers any single fault.
    #[test]
    fn fig3_b2_chain_shared_slack() {
        let mut g = ProcessGraph::new(0.into());
        let p1 = g.add_process();
        let p2 = g.add_process();
        let p3 = g.add_process();
        g.add_edge(p1, p2, Message::new(4)).unwrap();
        g.add_edge(p2, p3, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (p1, NodeId::new(0), ms(40)),
            (p2, NodeId::new(0), ms(40)),
            (p3, NodeId::new(0), ms(60)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::new(1, ms(10));
        let design = Design::from_decisions(vec![rex(&fm, 0), rex(&fm, 0), rex(&fm, 0)]);
        let arch = Architecture::with_node_count(2);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(2), &design).unwrap();
        // Fault-free chain: 40 + 40 + 60 = 140; slack = C3 + mu = 70.
        assert_eq!(sched.makespan_fault_free(), ms(140));
        assert_eq!(sched.length(), ms(210));
        // All three processes share the same slack: delay for the
        // last instance is max C + mu, not the sum.
        let last = sched.slot(sched.node_table(NodeId::new(0))[2]);
        assert_eq!(last.worst_finish - last.finish, ms(70));
    }

    /// Transparency (paper Fig. 4a): a message from a re-executed
    /// process leaves only after the sender's worst-case finish.
    #[test]
    fn fig4_transparent_message_timing() {
        let mut g = ProcessGraph::new(0.into());
        let p1 = g.add_process();
        let p2 = g.add_process();
        g.add_edge(p1, p2, Message::new(4)).unwrap();
        let wcet: WcetTable = [(p1, NodeId::new(0), ms(50)), (p2, NodeId::new(1), ms(40))]
            .into_iter()
            .collect();
        let fm = FaultModel::new(1, ms(10));
        let design = Design::from_decisions(vec![rex(&fm, 0), rex(&fm, 1)]);
        let arch = Architecture::with_node_count(2);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(2), &design).unwrap();
        // P1 worst-case finish: 50 + (50 + 10) = 110.
        let p1s = sched.slot(sched.expanded().of_process(p1)[0]);
        assert_eq!(p1s.worst_finish, ms(110));
        // Message booked at the first N0 slot at/after 110 ms: N0 owns
        // slot 0 of each 20 ms round -> round 6 starts at 120 ms.
        let booking = sched.booking(g.outgoing(p1)[0], p1s.instance.id).unwrap();
        assert_eq!(booking.start, ms(120));
        assert_eq!(booking.arrival, ms(130));
        // P2 starts at the arrival, fault-free.
        let p2s = sched.slot(sched.expanded().of_process(p2)[0]);
        assert_eq!(p2s.start, ms(130));
        // P2's own worst case adds its re-execution: 130+40+(40+10).
        assert_eq!(p2s.worst_finish, ms(220));
    }

    /// Replica-descendant scheduling (paper Fig. 7): the consumer
    /// starts right after the local replica fault-free, and the
    /// contingency (local replica killed, wait for the remote copy)
    /// carries *no* further slack once the budget is exhausted.
    #[test]
    fn fig7_replica_descendant_contingency() {
        let mut g = ProcessGraph::new(0.into());
        let p2 = g.add_process(); // replicated producer
        let p3 = g.add_process(); // consumer
        g.add_edge(p2, p3, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (p2, NodeId::new(0), ms(40)),
            (p2, NodeId::new(1), ms(50)),
            (p3, NodeId::new(0), ms(60)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::new(1, ms(10));
        // P2 replicated on N0 (primary, budget 0 since r = k+1) and N1.
        let design = Design::from_decisions(vec![
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
            rex(&fm, 0),
        ]);
        let arch = Architecture::with_node_count(2);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(2), &design).unwrap();
        let p3s = sched.slot(sched.expanded().of_process(p3)[0]);
        // Fault-free: P3 follows the local replica immediately.
        assert_eq!(p3s.start, ms(40));
        // Remote replica finishes at 50 (pure, no budget), message in
        // N1's slot (10 ms offset): next start >= 50 -> round 2 slot 1
        // at 50? slots at 10,30,50 -> start 50, arrival 60.
        let remote = sched.expanded().of_process(p2)[1];
        let b = sched.booking(g.outgoing(p2)[0], remote).unwrap();
        assert_eq!(b.start, ms(50));
        assert_eq!(b.arrival, ms(60));
        // Contingency: kill local replica (1 fault, budget exhausted)
        // -> P3 starts at 60 and runs once: 120. Local scenario: P3
        // re-executed after its own fault: 100 + ... = 40+60+(60+10)=170.
        assert_eq!(p3s.worst_finish, ms(170));
        // Now make P3's own policy irrelevant (k consumed): with P3
        // *not* re-executable the contingency dominates.
        let design2 = Design::from_decisions(vec![
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
        ]);
        let mut wcet2 = wcet.clone();
        wcet2.set(p3, NodeId::new(1), ms(60));
        let sched2 = list_schedule(&g, &arch, &wcet2, &fm, &bus(2), &design2).unwrap();
        let p3s2 = sched2.slot(sched2.expanded().of_process(p3)[0]);
        // Fault-free 40..100; contingency: wait remote m2 at 60,
        // finish 120, no slack (no re-executable instance on N0).
        assert_eq!(p3s2.finish, ms(100));
        assert_eq!(p3s2.worst_finish, ms(120));
        assert!(matches!(p3s2.wc_binding, WcBinding::Scenario { .. }));
    }

    /// An input-delayed instance delays its local successors: the
    /// contingency propagates along the node.
    #[test]
    fn contingency_propagates_to_node_successors() {
        let mut g = ProcessGraph::new(0.into());
        let p0 = g.add_process(); // replicated producer
        let p1 = g.add_process(); // consumer of p0
        let p2 = g.add_process(); // independent, placed after p1 on N0
        g.add_edge(p0, p1, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (p0, NodeId::new(0), ms(10)),
            (p0, NodeId::new(1), ms(100)),
            (p1, NodeId::new(0), ms(10)),
            (p2, NodeId::new(0), ms(5)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::new(1, ms(10));
        let design = Design::from_decisions(vec![
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
            ProcessDesign::new(
                FtPolicy::replication(&fm),
                vec![NodeId::new(0), NodeId::new(1)],
            )
            .unwrap(),
        ]);
        let mut wcet = wcet;
        wcet.set(p1, NodeId::new(1), ms(10));
        wcet.set(p2, NodeId::new(1), ms(5));
        let arch = Architecture::with_node_count(2);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(2), &design).unwrap();
        // Remote replica of p0 on N1 finishes at 100, books N1's slot
        // at/after 100: slots at 110 -> arrival 120.
        let p1s = sched.slot(sched.expanded().of_process(p1)[0]);
        assert_eq!(p1s.worst_finish, ms(130), "kill local p0, wait 120, run 10");
        // p2 on N0 is placed after p1; in that contingency it cannot
        // start before 130.
        let p2_local = sched
            .expanded()
            .of_process(p2)
            .iter()
            .map(|&i| *sched.slot(i))
            .find(|s| s.instance.node == NodeId::new(0))
            .unwrap();
        assert!(p2_local.start < ms(100), "fault-free p2 runs early");
        assert_eq!(p2_local.worst_finish, ms(135), "chained contingency");
        assert!(matches!(p2_local.wc_binding, WcBinding::Chained));
    }

    /// NFT reference: k = 0 collapses everything to the fault-free
    /// schedule.
    #[test]
    fn fault_free_model_equals_ff_schedule() {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [(a, NodeId::new(0), ms(30)), (b, NodeId::new(0), ms(20))]
            .into_iter()
            .collect();
        let fm = FaultModel::none();
        let design = Design::from_decisions(vec![rex(&fm, 0), rex(&fm, 0)]);
        let arch = Architecture::with_node_count(2);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(2), &design).unwrap();
        assert_eq!(sched.length(), ms(50));
        assert_eq!(sched.length(), sched.makespan_fault_free());
        assert!(sched.is_schedulable());
    }

    /// Deadlines: a violated deadline is reported via the cost.
    #[test]
    fn deadline_violation_measured() {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        g.process_mut(a).deadline = Some(ms(50));
        let wcet: WcetTable = [(a, NodeId::new(0), ms(40))].into_iter().collect();
        let fm = FaultModel::new(1, ms(10));
        let design = Design::from_decisions(vec![rex(&fm, 0)]);
        let arch = Architecture::with_node_count(1);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(1), &design).unwrap();
        // wc finish = 40 + 50 = 90 > 50.
        assert!(!sched.is_schedulable());
        assert_eq!(sched.cost().violation, ms(40));
        assert_eq!(sched.completion(a), ms(90));
    }

    /// Higher-priority (longer-path) processes are scheduled first.
    #[test]
    fn priority_orders_ready_list() {
        // Two independent chains on one node: long chain first.
        let mut g = ProcessGraph::new(0.into());
        let a1 = g.add_process();
        let a2 = g.add_process();
        let b = g.add_process();
        g.add_edge(a1, a2, Message::new(1)).unwrap();
        let wcet: WcetTable = [
            (a1, NodeId::new(0), ms(10)),
            (a2, NodeId::new(0), ms(10)),
            (b, NodeId::new(0), ms(10)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::none();
        let design = Design::from_decisions(vec![rex(&fm, 0), rex(&fm, 0), rex(&fm, 0)]);
        let arch = Architecture::with_node_count(1);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(1), &design).unwrap();
        let order = sched.node_table(NodeId::new(0));
        let first = sched.slot(order[0]).instance.process;
        assert_eq!(first, a1, "rank(a1)=20 > rank(b)=10");
    }

    /// The critical path follows the binding chain through messages.
    #[test]
    fn critical_path_spans_chain() {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [(a, NodeId::new(0), ms(30)), (b, NodeId::new(1), ms(20))]
            .into_iter()
            .collect();
        let fm = FaultModel::new(1, ms(5));
        let design = Design::from_decisions(vec![rex(&fm, 0), rex(&fm, 1)]);
        let arch = Architecture::with_node_count(2);
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus(2), &design).unwrap();
        let cp = sched.critical_path(&g);
        assert_eq!(cp, vec![a, b]);
    }

    /// The per-sender booking session must mirror
    /// [`BusSchedule::book`] exactly — the scheduler books through
    /// the former, the `ftdes-ttp` API exposes the latter — under both
    /// occupancy backends: one session per sender instance books the
    /// same rounds as one `BusSchedule::book` call per message.
    #[test]
    fn sender_booking_matches_bus_schedule_book() {
        let arch = Architecture::with_node_count(3);
        // 10 ms slots, 30 ms rounds; node 2's slot starts 20 ms in.
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        // One entry per sender instance: node, request time (ms) and
        // message sizes in booking order. A congested mix: repeated
        // senders, shared frames, forced overflow to later rounds,
        // out-of-order request times. The last three leave rounds 6
        // and 7 of node 2's slot partly filled (1 and 2 bytes free),
        // then one instance books 4, 2, 1 and 3 bytes from round 6:
        // the 4 overflows to round 8, the later, smaller 2 and 1
        // back-fill rounds 7 and 6, and the 3 overflows to round 9.
        let senders: [(u32, u64, &[u32]); 12] = [
            (0, 0, &[2, 2, 1]),
            (1, 5, &[4, 4]),
            (2, 100, &[3]),
            (2, 0, &[2]),
            (0, 40, &[4]),
            (1, 40, &[1]),
            (1, 41, &[4]),
            (2, 15, &[1]),
            (0, 3, &[4, 1, 3]),
            (2, 200, &[3]),
            (2, 230, &[2]),
            (2, 200, &[4, 2, 1, 3]),
        ];
        for backend in [OccupancyBackend::Flat, OccupancyBackend::Bitmap] {
            let mut reference = BusSchedule::new(bus.clone());
            let mut occupancy = SlotOccupancy::default();
            occupancy.set_backend(backend);
            let mut edge = 0;
            let mut rounds = Vec::new();
            for (i, &(node, earliest_ms, sizes)) in senders.iter().enumerate() {
                let node = NodeId::new(node);
                let earliest = Time::from_ms(earliest_ms);
                let mut session = SenderBooking::open(&bus, &mut occupancy, node, earliest);
                rounds.clear();
                for &size in sizes {
                    let tag = MessageTag::new(EdgeId::new(edge), 0);
                    edge += 1;
                    let ours = session.book(size, tag).unwrap();
                    let theirs = reference.book(node, earliest, size, tag).unwrap();
                    assert_eq!(ours, theirs, "{backend}: sender {i} diverged");
                    rounds.push(ours.round);
                }
            }
            assert_eq!(rounds, [8, 7, 6, 9], "{backend}: back-fill rounds");
            // Oversized messages fail identically.
            let tag = MessageTag::new(EdgeId::new(99), 0);
            let mut session = SenderBooking::open(&bus, &mut occupancy, NodeId::new(0), Time::ZERO);
            assert!(session.book(5, tag).is_err(), "{backend}");
            assert!(reference.book(NodeId::new(0), Time::ZERO, 5, tag).is_err());
        }
    }
}
