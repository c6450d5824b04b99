//! Incremental candidate evaluation: the base recording and the
//! single-move cost entry points.
//!
//! Neighbourhood search scores thousands of single-move variations of
//! one base design per second. A move replaces one process's
//! decision, yet a from-scratch [`crate::schedule_cost`] re-places
//! every instance — including every node and bus slot the move
//! provably cannot influence. This module, with the suffix-splicing
//! engine behind it (the `delta` and `segments` modules), removes
//! that redundancy:
//!
//! * while the search **materializes** a base solution (one full run
//!   per accepted iteration it performs anyway), the placement core
//!   records [`PlacementCheckpoints`]: the placement order, the
//!   ready-set evolution, reachability bitsets, the base expansion
//!   and priorities, and the segment store (per-node placement
//!   segments, per-slot bus timelines and the final state);
//! * a candidate move on process `q` is then evaluated by
//!   [`schedule_cost_resumed`]: it patches the base expansion in
//!   place ([`ExpandedDesign::patch_in_place`]), recomputes the
//!   priorities of `q` and its ancestors (ranks flow backwards, so no
//!   other rank can change), and certifies the candidate's selection
//!   order against the recorded one. A certified candidate re-places
//!   only its affected cone and splices the recording for everything
//!   else. Any other candidate runs the ordinary placement loop from
//!   position 0 on the patched expansion and priorities.
//!
//! Both paths return bit-identical costs to [`crate::schedule_cost`]
//! — guarded by the workspace's `tests/splice.rs` and
//! `tests/incremental.rs`.

use ftdes_model::architecture::Architecture;
use ftdes_model::design::Design;
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::ProcessId;
use ftdes_model::wcet::WcetLookup;
use ftdes_ttp::config::BusConfig;

use crate::error::SchedError;
use crate::instance::ExpandedDesign;
use crate::list::{
    drive_placement, init_placement, CostOnly, CostOutcome, CostScratch, SchedScratch,
    ScheduleOptions,
};
use crate::priority::Priorities;
use crate::schedule::ScheduleCost;
use crate::segments::SegmentStore;

/// One certified float: `process` vacates its recorded slot and is
/// re-inserted just before base position `to` (which may equal the
/// slot — a degenerate float used to route the moved process through
/// the executor's common machinery).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FloatMove {
    pub(crate) process: ProcessId,
    pub(crate) slot: u32,
    pub(crate) to: u32,
}

impl FloatMove {
    /// The inclusive base-position interval the float perturbs.
    fn span(&self) -> (u32, u32) {
        (self.slot.min(self.to), self.slot.max(self.to))
    }
}

/// The float set of one candidate, plus the early-readiness windows
/// its certification must cross-check (reusable scratch).
#[derive(Debug, Default)]
pub struct FloatPlan {
    pub(crate) floats: Vec<FloatMove>,
    /// `(owner float index, lo, hi)`: a direct successor of an
    /// early-floated process is ready over `[lo, hi)` earlier than
    /// recorded; no *other* float's span may intersect it.
    windows: Vec<(u32, u32, u32)>,
}

/// The base recording of one solution's placement, recorded by
/// [`crate::list_schedule_recording`]: what the incremental engine
/// scores single-move candidates against.
///
/// Reused across iterations: re-recording clears and refills every
/// buffer in place.
#[derive(Debug, Default)]
pub struct PlacementCheckpoints {
    valid: bool,
    /// Caller-settable identity of the checkpointed base design (the
    /// evaluator stores the design fingerprint here and asserts it on
    /// resume in debug builds).
    pub tag: u128,
    /// Placement order of the base run.
    pub(crate) order: Vec<ProcessId>,
    /// Position of each process in `order`.
    pub(crate) position: Vec<u32>,
    /// The base design's expansion.
    pub(crate) expanded: ExpandedDesign,
    /// The base design's priorities (candidates copy them and
    /// recompute only the moved process and its ancestors).
    base_priorities: Priorities,
    /// The (design-independent) topological order of the graph.
    topo: Vec<ProcessId>,
    /// Position at which each process entered the ready list in the
    /// base run — before the earliest entry of a priority-changed
    /// process, the base selection sequence provably stands.
    ready_pos: Vec<u32>,
    /// The base run's ready set at every position, flattened
    /// (`ready_sets[ready_offsets[pos]..ready_offsets[pos + 1]]`):
    /// the divergence check compares a priority-changed process only
    /// against selections inside its own in-flight window, instead of
    /// re-simulating the whole ready list per candidate.
    ready_sets: Vec<ProcessId>,
    ready_offsets: Vec<u32>,
    /// Reachability bitsets: bit `q` of row `p` set iff `q` is
    /// reachable from `p` (including `p` itself) — the ancestor test
    /// of the incremental priority update.
    reach: Vec<u64>,
    /// Words per reachability row.
    words: usize,
    /// Scratch predecessor counters of the `finish` replay.
    replay_preds: Vec<usize>,
    pub(crate) node_count: usize,
    /// The segment-structured recording of the suffix-splicing engine
    /// (per-node placement segments, per-slot bus timelines, final
    /// state — see the `segments` module). Captured only when
    /// [`ScheduleOptions::suffix_splice`] is on.
    pub(crate) segments: SegmentStore,
}

impl PlacementCheckpoints {
    /// An empty (invalid) checkpoint store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` once a recording completed; resumed evaluation requires
    /// a valid store.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Starts a recording: clears previous state and captures the
    /// base expansion, priorities and topological order.
    pub(crate) fn begin(
        &mut self,
        expanded: &ExpandedDesign,
        priorities: &Priorities,
        node_count: usize,
        bus: &BusConfig,
        record_segments: bool,
    ) {
        let topo = priorities.topo();
        self.valid = false;
        self.tag = 0;
        let n = topo.len();
        self.order.clear();
        self.position.clear();
        self.position.resize(n, 0);
        self.expanded.clone_from(expanded);
        self.base_priorities.clone_from(priorities);
        self.topo.clear();
        self.topo.extend_from_slice(topo);
        self.node_count = node_count;
        self.segments.begin(record_segments, node_count, bus);
    }

    /// Records the placement of `p` (called by `drive_placement`
    /// after the ready list was updated).
    pub(crate) fn note_placed(
        &mut self,
        p: ProcessId,
        graph: &ProcessGraph,
        scratch: &SchedScratch,
    ) {
        let pos = self.order.len() as u32;
        self.position[p.index()] = pos;
        self.order.push(p);
        let PlacementCheckpoints {
            segments,
            expanded,
            order,
            ..
        } = self;
        segments.note_placed(graph, p, expanded, scratch, pos);
        if order.len() == graph.process_count() {
            segments.finish(scratch, expanded.len());
        }
    }

    /// Completes the recording: derives the ready-entry positions of
    /// the recorded order and the graph's reachability bitsets, then
    /// marks the store valid.
    pub(crate) fn finish(&mut self, graph: &ProcessGraph) {
        let n = self.order.len();
        debug_assert_eq!(n, graph.process_count());

        self.replay_preds.clear();
        self.replay_preds
            .extend((0..n).map(|i| graph.incoming(ProcessId::new(i as u32)).len()));
        self.ready_pos.clear();
        self.ready_pos.resize(n, 0);
        for (pos, &p) in self.order.iter().enumerate() {
            for s in graph.successors_of(p) {
                self.replay_preds[s.index()] -= 1;
                if self.replay_preds[s.index()] == 0 {
                    self.ready_pos[s.index()] = (pos + 1) as u32;
                }
            }
        }

        // The ready-set evolution of the recorded order (one replay
        // per recording — candidates only read it).
        self.ready_sets.clear();
        self.ready_offsets.clear();
        self.replay_preds.clear();
        self.replay_preds
            .extend((0..n).map(|i| graph.incoming(ProcessId::new(i as u32)).len()));
        let mut ready: Vec<ProcessId> = (0..n)
            .filter(|&i| self.replay_preds[i] == 0)
            .map(|i| ProcessId::new(i as u32))
            .collect();
        for &p in &self.order {
            self.ready_offsets.push(self.ready_sets.len() as u32);
            self.ready_sets.extend_from_slice(&ready);
            let at = ready
                .iter()
                .position(|&r| r == p)
                .expect("recorded order is a valid topological placement");
            ready.swap_remove(at);
            for s in graph.successors_of(p) {
                self.replay_preds[s.index()] -= 1;
                if self.replay_preds[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        self.ready_offsets.push(self.ready_sets.len() as u32);

        let words = n.div_ceil(64).max(1);
        self.words = words;
        self.reach.clear();
        self.reach.resize(n * words, 0);
        for i in (0..self.topo.len()).rev() {
            let pi = self.topo[i].index();
            for s in graph.successors_of(self.topo[i]) {
                let si = s.index();
                for w in 0..words {
                    let v = self.reach[si * words + w];
                    self.reach[pi * words + w] |= v;
                }
            }
            self.reach[pi * words + pi / 64] |= 1 << (pi % 64);
        }

        self.valid = true;
    }

    /// `true` when `q` is reachable from `p` (`p` included) — i.e.
    /// `p` is an ancestor of `q` or `q` itself.
    fn reaches(&self, p: ProcessId, q: ProcessId) -> bool {
        let qi = q.index();
        self.reach[p.index() * self.words + qi / 64] & (1 << (qi % 64)) != 0
    }

    /// The recorded ready set at `pos` (the processes the base run
    /// chose among there).
    fn ready_set(&self, pos: usize) -> &[ProcessId] {
        &self.ready_sets[self.ready_offsets[pos] as usize..self.ready_offsets[pos + 1] as usize]
    }

    /// Certifies the candidate's selection order against the recorded
    /// one, filling `plan` with the certified float set. `true` means
    /// every selection change is certified: the candidate's order is
    /// the recorded one with each process in `plan` removed from its
    /// recorded slot and re-inserted just before its landing position
    /// — every third party keeps its slot. An empty plan means the
    /// orders agree bit for bit. `false` means the reordering could
    /// not be certified as independent floats; the certificate
    /// returns at the first float it cannot certify.
    ///
    /// Selection diverges only through a comparison involving a
    /// priority-**changed** process, and only while that process is
    /// in the ready set — its in-flight window `[ready_pos,
    /// position)` of the recorded evolution. So instead of
    /// re-simulating the ready list (O(n · width) per candidate),
    /// check per changed process `p`:
    ///
    /// 1. `p` must not preempt any base selection inside its window
    ///    (one comparison per window position);
    /// 2. at `p`'s own position, every other member of the recorded
    ///    ready set must still rank behind it (one comparison per
    ///    member).
    ///
    /// Induction over positions makes this exact, not conservative:
    /// the minimal violated position is the true first divergence
    /// (everything earlier passed, so the ready evolution up to it
    /// *is* the recorded one), and if nothing is violated the
    /// candidate replays the base order bit for bit.
    ///
    /// A violation doesn't give up immediately: the violating process
    /// is certified as a **float** — removed from its recorded slot
    /// and re-inserted at a provably forced landing
    /// ([`PlacementCheckpoints::certify_float_late`] /
    /// [`PlacementCheckpoints::certify_float_early`]). Floats compose
    /// when their perturbed intervals are pairwise disjoint (at most
    /// one deviation per region, so each per-float argument applies
    /// verbatim) and no early-readiness successor window crosses
    /// another float's span; anything else is a genuine reordering.
    fn order_certificate(
        &self,
        graph: &ProcessGraph,
        priorities: &Priorities,
        changed: &[ProcessId],
        plan: &mut FloatPlan,
    ) -> bool {
        plan.floats.clear();
        plan.windows.clear();
        for &p in changed {
            let entry = self.ready_pos[p.index()] as usize;
            let exit = self.position[p.index()] as usize;
            let key_p = priorities.key(p);
            let certified = if let Some(d) =
                (entry..exit).find(|&pos| key_p < priorities.key(self.order[pos]))
            {
                self.certify_float_early(graph, priorities, changed, p, d, plan)
            } else if self
                .ready_set(exit)
                .iter()
                .any(|&r| r != p && priorities.key(r) < key_p)
            {
                self.certify_float_late(priorities, changed, p, plan)
            } else {
                true
            };
            if !certified {
                return false;
            }
        }
        // Floats compose only when their perturbed intervals are
        // pairwise disjoint…
        for (i, f) in plan.floats.iter().enumerate() {
            let (flo, fhi) = f.span();
            for g in &plan.floats[i + 1..] {
                let (glo, ghi) = g.span();
                if flo <= ghi && glo <= fhi {
                    return false;
                }
            }
        }
        // …and when no early-readiness window crosses another float's
        // span (inside such a window a successor is compared against
        // recorded selections, which another float would shift).
        for &(owner, lo, hi) in &plan.windows {
            for (i, f) in plan.floats.iter().enumerate() {
                let (flo, fhi) = f.span();
                if i as u32 != owner && flo < hi && lo <= fhi {
                    return false;
                }
            }
        }
        true
    }

    /// `p` loses its recorded slot (its priority dropped): find the
    /// slot it floats **down** to. Walking the recorded suffix, every
    /// selection until the landing must beat `p` — `before` is a
    /// total order, so beating the slot's winner transitively beats
    /// every unchanged in-flight process; changed in-flight ones are
    /// compared explicitly at the landing. The float fails on
    /// reaching one of `p`'s graph successors first (it cannot be
    /// selected while its producer waits — the candidate would
    /// reorder third parties) unless `p` provably wins that slot
    /// outright.
    fn certify_float_late(
        &self,
        priorities: &Priorities,
        changed: &[ProcessId],
        p: ProcessId,
        plan: &mut FloatPlan,
    ) -> bool {
        let n = self.order.len();
        let slot = self.position[p.index()];
        let key_p = priorities.key(p);
        let beats_changed_in_flight = |to: usize| {
            changed.iter().all(|&a| {
                a == p
                    || (self.ready_pos[a.index()] as usize) > to
                    || (self.position[a.index()] as usize) <= to
                    || key_p < priorities.key(a)
            })
        };
        for pos in slot as usize + 1..n {
            let s = self.order[pos];
            if self.reaches(p, s) {
                // The successor's slot: `p` is forced here iff it
                // beats every non-successor member of the recorded
                // ready set (successors are not ready while `p`
                // waits).
                let forced = self
                    .ready_set(pos)
                    .iter()
                    .all(|&r| r == p || self.reaches(p, r) || key_p < priorities.key(r));
                if forced {
                    plan.floats.push(FloatMove {
                        process: p,
                        slot,
                        to: pos as u32,
                    });
                }
                return forced;
            }
            if key_p < priorities.key(s) {
                if !beats_changed_in_flight(pos) {
                    return false;
                }
                plan.floats.push(FloatMove {
                    process: p,
                    slot,
                    to: pos as u32,
                });
                return true;
            }
        }
        plan.floats.push(FloatMove {
            process: p,
            slot,
            to: n as u32,
        });
        true
    }

    /// `p` preempts the recorded selection at `d` (its priority
    /// rose): certify the float **up** to `d`. It wins the slot
    /// transitively against unchanged in-flight processes; changed
    /// in-flight ones are compared explicitly. Its direct graph
    /// successors may become ready earlier than recorded (`p` was
    /// their last producer) — none may preempt a selection inside its
    /// advanced window, or third parties would reorder; the surviving
    /// windows are recorded for the caller's cross-float check.
    fn certify_float_early(
        &self,
        graph: &ProcessGraph,
        priorities: &Priorities,
        changed: &[ProcessId],
        p: ProcessId,
        d: usize,
        plan: &mut FloatPlan,
    ) -> bool {
        let slot = self.position[p.index()];
        let key_p = priorities.key(p);
        for &a in changed {
            if a != p
                && (self.ready_pos[a.index()] as usize) <= d
                && (self.position[a.index()] as usize) > d
                && priorities.key(a) < key_p
            {
                return false;
            }
        }
        let owner = plan.floats.len() as u32;
        for s in graph.successors_of(p) {
            // The successor's readiness advances to the latest of the
            // float slot and its other producers' placements.
            let mut entry_cand = d;
            for &e in graph.incoming(s) {
                let producer = graph.edge(e).from;
                if producer != p {
                    entry_cand = entry_cand.max(self.position[producer.index()] as usize + 1);
                }
            }
            let entry_base = self.ready_pos[s.index()] as usize;
            if entry_cand < entry_base {
                let key_s = priorities.key(s);
                for pos in entry_cand..entry_base {
                    if pos == slot as usize {
                        continue; // the vacated slot
                    }
                    if key_s < priorities.key(self.order[pos]) {
                        return false;
                    }
                }
                plan.windows
                    .push((owner, entry_cand as u32, entry_base as u32));
            }
        }
        plan.floats.push(FloatMove {
            process: p,
            slot,
            to: d as u32,
        });
        true
    }
}

/// Computes the cost of `design` — the base design of `ckpts` with
/// `moved`'s decision replaced — against the base recording: through
/// the suffix splice when the candidate's order certificate holds
/// (and [`ScheduleOptions::suffix_splice`] is on), otherwise by
/// placing the patched expansion from position 0.
///
/// Returns the same *classification* as
/// [`crate::schedule_cost_bounded`] for the same `(design, bound)`:
/// the exact cost when it is `<= bound` (or no bound was given), a
/// certified lower bound otherwise. A spliced run may carry a
/// different lower bound than the from-scratch run (its spliced
/// completions are charged before the first placement) — both are
/// certified, and the exact/pruned classification is identical.
///
/// # Errors
///
/// Same as [`crate::schedule_cost`] (e.g. an ineligible mapping in
/// the replacement decision).
///
/// # Panics
///
/// Debug builds assert `ckpts.is_valid()`.
#[allow(clippy::too_many_arguments)]
pub fn schedule_cost_resumed<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    moved: ProcessId,
    options: ScheduleOptions,
    scratch: &mut CostScratch,
    ckpts: &PlacementCheckpoints,
    bound: Option<ScheduleCost>,
) -> Result<CostOutcome, SchedError> {
    debug_assert!(ckpts.is_valid(), "resume requires recorded checkpoints");
    debug_assert_eq!(ckpts.node_count, arch.node_count());
    debug_assert_eq!(ckpts.order.len(), graph.process_count());

    prepare_candidate(graph, wcet, fm, bus, design, moved, scratch, ckpts)?;
    // The suffix-splicing engine (see `delta`): when every third
    // party provably keeps its recorded slot — the order is aligned,
    // or differs exactly by the certified floats — re-place only the
    // certified affected cone and splice the base recording for
    // everything else. A genuine reordering (or the splice switched
    // off) runs the ordinary placement loop from position 0 on the
    // patched expansion and priorities.
    let outcome = if options.suffix_splice
        && ckpts.segments.is_recorded()
        && ckpts.order_certificate(
            graph,
            &scratch.priorities,
            &scratch.changed,
            &mut scratch.float_plan,
        ) {
        splice_candidate(graph, bus, fm, moved, options, scratch, ckpts, bound)
    } else {
        init_placement(
            graph,
            fm,
            arch.node_count(),
            &scratch.expanded,
            &mut scratch.core,
        );
        drive_placement(
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
        )
        .map(CostOutcome::from)
    };
    // Always restore the base expansion, error or not.
    scratch.expanded.unpatch(moved, &scratch.undo_insts);
    outcome
}

/// Brings the worker's expansion to the window base, patches the
/// moved process's decision in place and updates the priorities
/// incrementally.
///
/// The caller owns the unpatch.
#[allow(clippy::too_many_arguments)]
fn prepare_candidate<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    moved: ProcessId,
    scratch: &mut CostScratch,
    ckpts: &PlacementCheckpoints,
) -> Result<(), SchedError> {
    // Bring the worker's expansion to the window base (once per
    // worker per window), then patch only the moved process's range
    // in place — undone after the run, so the next candidate of the
    // same window patches again without re-copying the base.
    if scratch.expanded_tag != ckpts.tag || ckpts.tag == 0 {
        scratch.expanded.clone_from(&ckpts.expanded);
        scratch.expanded_tag = ckpts.tag;
    }
    scratch.expanded.patch_in_place(
        moved,
        design.decision(moved),
        wcet,
        fm,
        &mut scratch.undo_insts,
    )?;
    // Priorities: copy the base's and recompute only the moved
    // process and its ancestors — the only ranks a decision change
    // can reach (ranks flow backwards; effective deadlines are
    // design-independent).
    let CostScratch {
        expanded,
        priorities,
        changed,
        ..
    } = scratch;
    priorities.update_for_move(
        &ckpts.base_priorities,
        graph,
        expanded,
        bus,
        &ckpts.topo,
        |p| ckpts.reaches(p, moved),
        changed,
    );
    Ok(())
}

/// The splice step shared by [`schedule_cost_resumed`] and
/// [`schedule_cost_spliced`], entered once the order certificate
/// produced a float plan: routes the moved process through the float
/// machinery (degenerately when its own slot stands), computes the
/// affected cone and executes the splice. The caller owns the
/// expansion unpatch.
#[allow(clippy::too_many_arguments)]
fn splice_candidate(
    graph: &ProcessGraph,
    bus: &BusConfig,
    fm: &FaultModel,
    moved: ProcessId,
    options: ScheduleOptions,
    scratch: &mut CostScratch,
    ckpts: &PlacementCheckpoints,
    bound: Option<ScheduleCost>,
) -> Result<CostOutcome, SchedError> {
    if !scratch.float_plan.floats.iter().any(|f| f.process == moved) {
        let slot = ckpts.position[moved.index()];
        scratch.float_plan.floats.push(FloatMove {
            process: moved,
            slot,
            to: slot,
        });
    }
    let CostScratch {
        expanded,
        core,
        splice,
        float_plan,
        ..
    } = scratch;
    crate::delta::compute_cone(graph, expanded, moved, &float_plan.floats, ckpts, splice);
    crate::delta::execute(
        graph, expanded, moved, bus, fm, options, core, splice, ckpts, bound,
    )
}

/// Evaluates a single-move candidate through the **suffix-splicing
/// engine alone**: computes the certified affected cone and re-places
/// only the cone, splicing the base recording's per-node segments and
/// per-slot bus timelines for everything outside it (see the `delta`
/// module docs for the cone construction).
///
/// Returns `Ok(None)` when the independence proof fails — the
/// candidate's ready order diverges from the recorded order, or the
/// checkpoints carry no segment recording
/// ([`ScheduleOptions::suffix_splice`] was off while they were
/// recorded) — in which case [`schedule_cost_resumed`] places the
/// candidate from position 0 (it tries the splice first, so callers
/// normally just call that). Exposed separately so parity tests and
/// profilers can pin the engine.
///
/// A `Some` outcome carries the same classification contract as
/// [`schedule_cost_resumed`]: the exact cost when it is within
/// `bound` (or no bound was given), a certified lower bound
/// otherwise.
///
/// # Errors
///
/// Same as [`crate::schedule_cost`].
///
/// # Panics
///
/// Debug builds assert `ckpts.is_valid()`.
#[allow(clippy::too_many_arguments)]
pub fn schedule_cost_spliced<W: WcetLookup + ?Sized>(
    graph: &ProcessGraph,
    arch: &Architecture,
    wcet: &W,
    fm: &FaultModel,
    bus: &BusConfig,
    design: &Design,
    moved: ProcessId,
    options: ScheduleOptions,
    scratch: &mut CostScratch,
    ckpts: &PlacementCheckpoints,
    bound: Option<ScheduleCost>,
) -> Result<Option<CostOutcome>, SchedError> {
    debug_assert!(ckpts.is_valid(), "splice requires recorded checkpoints");
    debug_assert_eq!(ckpts.node_count, arch.node_count());
    if !ckpts.segments.is_recorded() {
        return Ok(None);
    }
    prepare_candidate(graph, wcet, fm, bus, design, moved, scratch, ckpts)?;
    let result = ckpts
        .order_certificate(
            graph,
            &scratch.priorities,
            &scratch.changed,
            &mut scratch.float_plan,
        )
        .then(|| splice_candidate(graph, bus, fm, moved, options, scratch, ckpts, bound));
    scratch.expanded.unpatch(moved, &scratch.undo_insts);
    result.transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, list_schedule_recording, schedule_cost, SchedScratch};
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::graph::Message;
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;

    /// A fault budget far above the node count: the arrival table is
    /// sized by the replica bound `min(k + 1, nodes)`, not by `k`, and
    /// full, spliced and resumed costs still agree with
    /// `list_schedule` on every single move — replica-count changes
    /// included.
    #[test]
    fn arrival_stride_is_bounded_by_the_node_count() {
        const NODES: u32 = 3;
        let mut g = ProcessGraph::new(0.into());
        let ps = g.add_processes(8);
        for (a, b) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (5, 6),
            (4, 7),
        ] {
            g.add_edge(ps[a], ps[b], Message::new(2 + (a as u32 + b as u32) % 3))
                .unwrap();
        }
        let mut wcet = WcetTable::new();
        for (i, &p) in ps.iter().enumerate() {
            for n in 0..NODES {
                wcet.set(
                    p,
                    NodeId::new(n),
                    Time::from_us(400 + 130 * ((i as u64 + u64::from(n)) % 5)),
                );
            }
        }
        let arch = Architecture::with_node_count(NODES as usize);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(50)).unwrap();
        let fm = FaultModel::new(1_000, Time::from_us(20));
        let decision = |p: ProcessId, replicas: u32, first: u32| {
            let mapping = (0..replicas)
                .map(|r| NodeId::new((first + r) % NODES))
                .collect();
            ProcessDesign::new(FtPolicy::new(p, replicas, &fm).unwrap(), mapping).unwrap()
        };
        let design = Design::from_decisions(
            ps.iter()
                .enumerate()
                .map(|(i, &p)| decision(p, 1 + (i as u32 % 3), i as u32))
                .collect(),
        );
        let entries = g.edge_count() * NODES as usize;
        let options = ScheduleOptions::default();

        let mut scratch = CostScratch::default();
        let full = |d: &Design, scratch: &mut CostScratch| {
            let cost = schedule_cost(&g, &arch, &wcet, &fm, &bus, d, options, scratch).unwrap();
            assert_eq!(scratch.core.arrivals.len(), entries);
            assert_eq!(
                cost,
                list_schedule(&g, &arch, &wcet, &fm, &bus, d)
                    .unwrap()
                    .cost()
            );
            cost
        };
        full(&design, &mut scratch);

        let mut core = SchedScratch::default();
        let mut ckpts = PlacementCheckpoints::new();
        let base = list_schedule_recording(
            &g,
            &arch,
            &wcet,
            &fm,
            &bus,
            &design,
            options,
            &mut core,
            Some(&mut ckpts),
        )
        .unwrap();
        assert_eq!(base.cost(), full(&design, &mut scratch));
        assert_eq!(core.arrivals.len(), entries);

        let mut spliced_runs = 0;
        for &p in &ps {
            for replicas in 1..=NODES {
                for first in 0..NODES {
                    let mut cand = design.clone();
                    cand.set_decision(p, decision(p, replicas, first));
                    let exact = full(&cand, &mut scratch);
                    if let Some(out) = schedule_cost_spliced(
                        &g,
                        &arch,
                        &wcet,
                        &fm,
                        &bus,
                        &cand,
                        p,
                        options,
                        &mut scratch,
                        &ckpts,
                        None,
                    )
                    .unwrap()
                    {
                        spliced_runs += 1;
                        assert_eq!(
                            out,
                            CostOutcome::Exact(exact),
                            "spliced {p:?} {replicas}@{first}"
                        );
                        assert_eq!(scratch.core.arrivals.len(), entries);
                    }
                    let resumed = schedule_cost_resumed(
                        &g,
                        &arch,
                        &wcet,
                        &fm,
                        &bus,
                        &cand,
                        p,
                        options,
                        &mut scratch,
                        &ckpts,
                        None,
                    )
                    .unwrap();
                    assert_eq!(
                        resumed,
                        CostOutcome::Exact(exact),
                        "resumed {p:?} {replicas}@{first}"
                    );
                }
            }
        }
        assert!(spliced_runs > 0, "the splice must engage");
    }
}
