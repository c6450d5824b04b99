//! Incremental candidate evaluation: prefix checkpoints and resumed
//! cost runs.
//!
//! Neighbourhood search scores thousands of single-move variations of
//! one base design per second. A move replaces one process's
//! decision, yet a from-scratch [`crate::schedule_cost`] re-places
//! every instance — including the long prefix of the instance order
//! that the move provably cannot influence. This module removes that
//! redundancy:
//!
//! * while the search **materializes** a base solution (one full run
//!   per accepted iteration it performs anyway), the placement core
//!   records [`PlacementCheckpoints`]: the placement order plus
//!   resumable snapshots of the complete scheduler state every
//!   `stride` positions;
//! * a candidate move on process `q` is then evaluated by
//!   [`schedule_cost_resumed`]: it patches the base expansion
//!   ([`ExpandedDesign::expand_patched`]), recomputes priorities
//!   (they depend on the design through replica WCETs and bus
//!   crossings), determines the first placement position the move can
//!   affect, restores the latest snapshot at or before it, and
//!   re-places only the suffix.
//!
//! # What bounds the resume position
//!
//! Three things can invalidate the base prefix for a candidate:
//!
//! 1. the moved process itself being placed (its instances differ);
//! 2. a *direct predecessor* of the moved process whose outgoing
//!    message gains or loses its bus booking (`needs_bus` reads the
//!    consumer's mapping at the producer's placement);
//! 3. a priority shift reordering the ready-list selection *before*
//!    either of the above — the new priorities are simulated over the
//!    recorded order and the first divergence found caps the resume
//!    position.
//!
//! The prefix up to the computed position is **provably identical**
//! between the base run and a from-scratch run of the candidate, so a
//! resumed run returns bit-identical costs to
//! [`crate::schedule_cost`] — guarded by the
//! `resumed_equals_full` property test in `ftdes-core`.
//!
//! # Instance-id remapping
//!
//! Instance ids are dense in process order; a move that changes the
//! replication level of `q` shifts the ids of every process after
//! `q`. Snapshots store base-expansion ids in their per-instance
//! finish times and node states, so restoring shifts every id at or
//! past the end of `q`'s base range by the replica-count delta. `q`
//! itself is never placed inside a restored prefix (the resume
//! position never exceeds `q`'s base position), so no id of `q` can
//! appear in a snapshot. Message arrivals are keyed by `(edge,
//! replica)`, not by instance, so the snapshot's arrival table
//! restores by plain copy.

use ftdes_model::architecture::Architecture;
use ftdes_model::design::Design;
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::ProcessId;
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetLookup;
use ftdes_ttp::config::BusConfig;

use crate::error::SchedError;
use crate::instance::{ExpandedDesign, InstanceId};
use crate::list::{
    accumulate_cost, drive_placement, init_placement, Arrivals, CostOnly, CostOutcome, CostScratch,
    FrontierEntry, SchedScratch, ScheduleOptions,
};
use crate::occupancy::SlotOccupancy;
use crate::priority::Priorities;
use crate::schedule::ScheduleCost;
use crate::segments::SegmentStore;
use crate::slack::SlackAccount;

/// How a candidate's selection order relates to the recorded base
/// order — the independence certificate of the suffix-splicing
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OrderCert {
    /// Every selection change is certified: the candidate's order is
    /// the recorded one with each process in the caller's
    /// [`FloatPlan`] removed from its recorded slot and re-inserted
    /// just before its landing position — every third party keeps
    /// its slot. An empty plan means the orders agree bit for bit.
    /// `div` is the first position the raw selection differs at (the
    /// PR 2 fallback's resume cap when the splice is gated off;
    /// `order.len()` when aligned).
    Splice { div: u32 },
    /// The reordering could not be certified as independent floats:
    /// the splice is impossible; the PR 2 replay resumes at/below
    /// `div`.
    Diverged { div: u32 },
}

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

/// Captured per-node placement state.
#[derive(Debug, Default)]
struct NodeSnap {
    avail: Time,
    last: Option<InstanceId>,
    slack: SlackAccount,
    frontier: Vec<FrontierEntry>,
    delay_k: Time,
}

/// The complete scheduler state after `placed` placements of the base
/// run.
#[derive(Debug, Default)]
struct Snapshot {
    placed: usize,
    remaining_preds: Vec<usize>,
    ready: Vec<ProcessId>,
    times: Vec<Time>,
    completion: Vec<Time>,
    nodes: Vec<NodeSnap>,
    arrivals: Arrivals,
    occupancy: SlotOccupancy,
}

impl Snapshot {
    /// Fills this snapshot from the live scratch state, reusing every
    /// buffer.
    fn capture(
        &mut self,
        scratch: &SchedScratch,
        placed: usize,
        instance_count: usize,
        node_count: usize,
    ) {
        self.placed = placed;
        self.remaining_preds.clone_from(&scratch.remaining_preds);
        self.ready.clone_from(&scratch.ready);
        self.times.clear();
        self.times
            .extend_from_slice(&scratch.times[..instance_count]);
        self.completion.clone_from(&scratch.completion);
        if self.nodes.len() < node_count {
            self.nodes.resize_with(node_count, NodeSnap::default);
        }
        self.nodes.truncate(node_count);
        for (snap, live) in self.nodes.iter_mut().zip(&scratch.nodes[..node_count]) {
            snap.avail = live.avail;
            snap.last = live.last;
            snap.slack.clone_from_account(&live.slack);
            snap.frontier.clone_from(&live.frontier);
            snap.delay_k = live.delay_k;
        }
        self.arrivals.copy_from(&scratch.arrivals);
        self.occupancy.clone_from(&scratch.occupancy);
    }
}

/// Resumable prefix checkpoints of one base solution's placement,
/// recorded by [`crate::list_schedule_recording`].
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
    stride: usize,
    /// Placement order of the base run.
    pub(crate) order: Vec<ProcessId>,
    /// Position of each process in `order`.
    pub(crate) position: Vec<u32>,
    /// Snapshots at positions `stride, 2·stride, …` (`snap_len` of
    /// the buffers are live).
    snaps: Vec<Snapshot>,
    snap_len: usize,
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
    /// state — see [`crate::segments`]). Captured alongside the
    /// prefix snapshots when [`ScheduleOptions::suffix_splice`] is on.
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
        // ~6 snapshots across the order: dense enough that a resume
        // wastes at most stride/2 redundant placements on average,
        // sparse enough that recording stays a small fraction of the
        // one full run it rides on.
        self.stride = (n / 6).max(4);
        self.order.clear();
        self.position.clear();
        self.position.resize(n, 0);
        self.snap_len = 0;
        self.expanded.clone_from(expanded);
        self.base_priorities.clone_from(priorities);
        self.topo.clear();
        self.topo.extend_from_slice(topo);
        self.node_count = node_count;
        self.segments.begin(record_segments, node_count, bus);
    }

    /// Records one placement (called by the driver after the ready
    /// list was updated for position `placed`).
    pub(crate) fn note_placed(
        &mut self,
        p: ProcessId,
        graph: &ProcessGraph,
        scratch: &SchedScratch,
        placed: usize,
        n_processes: usize,
    ) {
        let pos = self.order.len() as u32;
        self.position[p.index()] = pos;
        self.order.push(p);
        if placed.is_multiple_of(self.stride) && placed < n_processes {
            if self.snap_len == self.snaps.len() {
                self.snaps.push(Snapshot::default());
            }
            self.snaps[self.snap_len].capture(
                scratch,
                placed,
                self.expanded.len(),
                self.node_count,
            );
            self.snap_len += 1;
        }
        let PlacementCheckpoints {
            segments, expanded, ..
        } = self;
        segments.note_placed(graph, p, expanded, scratch, pos);
        if placed == n_processes {
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

    /// The position of the latest recorded snapshot at or below
    /// `pos` (0 when none): how far back the PR 2 replay of a resume
    /// at `pos` actually starts — the comparison base of the splice
    /// profitability gate.
    fn snapshot_floor(&self, pos: usize) -> usize {
        self.snaps[..self.snap_len]
            .iter()
            .rev()
            .find(|s| s.placed <= pos)
            .map_or(0, |s| s.placed)
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
    /// one (see [`OrderCert`]), filling `plan` with the certified
    /// float set.
    ///
    /// Selection diverges only through a comparison involving a
    /// priority-**changed** process, and only while that process is
    /// in the ready set — its in-flight window `[ready_pos,
    /// position)` of the recorded evolution. So instead of
    /// re-simulating the ready list (O(n · width) per candidate, the
    /// PR 2/3 engine's dominant fixed cost), check per changed
    /// process `p`:
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
    ) -> OrderCert {
        let n = self.order.len();
        plan.floats.clear();
        plan.windows.clear();
        let mut div = n;
        let mut certified = true;
        for &p in changed {
            let entry = self.ready_pos[p.index()] as usize;
            let exit = self.position[p.index()] as usize;
            let key_p = priorities.key(p);
            let mut viol = None;
            for pos in entry..exit {
                if key_p < priorities.key(self.order[pos]) {
                    viol = Some(pos);
                    break;
                }
            }
            if let Some(d) = viol {
                div = div.min(d);
                certified =
                    certified && self.certify_float_early(graph, priorities, changed, p, d, plan);
            } else if self
                .ready_set(exit)
                .iter()
                .any(|&r| r != p && priorities.key(r) < key_p)
            {
                div = div.min(exit);
                certified = certified && self.certify_float_late(priorities, changed, p, plan);
            }
        }
        if !certified {
            return OrderCert::Diverged { div: div as u32 };
        }
        // Floats compose only when their perturbed intervals are
        // pairwise disjoint…
        for (i, f) in plan.floats.iter().enumerate() {
            let (flo, fhi) = f.span();
            for g in &plan.floats[i + 1..] {
                let (glo, ghi) = g.span();
                if flo <= ghi && glo <= fhi {
                    return OrderCert::Diverged { div: div as u32 };
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
                    return OrderCert::Diverged { div: div as u32 };
                }
            }
        }
        OrderCert::Splice { div: div as u32 }
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

    /// The first placement position the given move can affect: the
    /// moved process itself, or a direct predecessor whose bus
    /// booking decision flips under the candidate expansion `cand`.
    fn resume_limit(&self, graph: &ProcessGraph, moved: ProcessId, cand: &ExpandedDesign) -> usize {
        let mut limit = self.position[moved.index()] as usize;
        for &eid in graph.incoming(moved) {
            let from = graph.edge(eid).from;
            let pos = self.position[from.index()] as usize;
            if pos >= limit {
                continue;
            }
            // `needs_bus` at the producer's placement asks: does any
            // consumer instance sit on a different node? Detect a
            // flip for any producer instance.
            let flipped = self.expanded.of_process(from).iter().any(|&rid| {
                let n_r = self.expanded.instance(rid).node;
                self.expanded.reads_remote(moved, n_r) != cand.reads_remote(moved, n_r)
            });
            if flipped {
                limit = pos;
            }
        }
        limit
    }
}

/// Computes the cost of `design` — the base design of `ckpts` with
/// `moved`'s decision replaced — by resuming the placement from the
/// latest checkpoint before the first position the move can affect.
///
/// Returns the same *classification* as
/// [`crate::schedule_cost_bounded`] for the same `(design, bound)`:
/// the exact cost when it is `<= bound` (or no bound was given), a
/// certified lower bound otherwise. With a bound tighter than the
/// checkpointed base's cost, the carried lower bound may differ from
/// the from-scratch run's (the restored prefix is charged at once
/// instead of placement by placement) — both are certified, and the
/// exact/pruned classification is identical.
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

    let limit = prepare_candidate(graph, wcet, fm, bus, design, moved, scratch, ckpts)?;
    // Certify the candidate's selection order against the recorded
    // one: aligned, a set of independent floats, or a genuine
    // reordering.
    let cert = ckpts.order_certificate(
        graph,
        &scratch.priorities,
        &scratch.changed,
        &mut scratch.float_plan,
    );
    let div = match cert {
        OrderCert::Splice { div } | OrderCert::Diverged { div } => div as usize,
    };

    // The suffix-splicing engine (see `delta`): when every third
    // party provably keeps its recorded slot — the order is aligned,
    // or differs exactly by the certified floats — re-place only the
    // certified affected cone and splice the base recording for
    // everything else. A genuine reordering fails the independence
    // proof and falls through to the checkpoint-resumed replay below.
    let resume_pos = div.min(limit);
    if options.suffix_splice
        && ckpts.segments.is_recorded()
        && matches!(cert, OrderCert::Splice { .. })
    {
        if let Some(out) = splice_candidate(
            graph,
            bus,
            fm,
            moved,
            options,
            scratch,
            ckpts,
            bound,
            Some(resume_pos),
        ) {
            scratch.expanded.unpatch(moved, &scratch.undo_insts);
            return out;
        }
    }

    let snap = ckpts.snaps[..ckpts.snap_len]
        .iter()
        .rev()
        .find(|s| s.placed <= resume_pos);

    let running = match snap {
        None => {
            init_placement(
                graph,
                fm,
                arch.node_count(),
                &scratch.expanded,
                &mut scratch.core,
            );
            ScheduleCost {
                violation: Time::ZERO,
                length: Time::ZERO,
            }
        }
        Some(snap) => {
            restore_snapshot(snap, ckpts, moved, &scratch.expanded, &mut scratch.core);
            accumulate_cost(graph, &scratch.core.completion)
        }
    };
    let placed = snap.map_or(0, |s| s.placed);
    // A bound tighter than the restored prefix (possible when the
    // caller bounds by a window winner better than the base) aborts
    // immediately — the prefix cost already certifies the overrun.
    if let Some(b) = bound {
        if running > b {
            scratch.expanded.unpatch(moved, &scratch.undo_insts);
            return Ok(CostOutcome::LowerBound(running));
        }
    }

    let drive_res = drive_placement(
        graph,
        &scratch.expanded,
        &scratch.priorities,
        bus,
        fm,
        options,
        &mut scratch.core,
        &mut CostOnly,
        placed,
        running,
        bound,
        None,
    );
    // Always restore the base expansion, error or not.
    scratch.expanded.unpatch(moved, &scratch.undo_insts);
    let outcome = drive_res?;
    Ok(outcome.into())
}

/// Brings the worker's expansion to the window base and patches the
/// moved process's decision in place, updates the priorities
/// incrementally (the moved process and its ancestors — the only
/// ranks a decision change can reach, since ranks flow backwards and
/// effective deadlines are design-independent), and returns the
/// structural resume limit.
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
) -> Result<usize, SchedError> {
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

    // The structurally affected prefix: the moved process, or a
    // predecessor whose bus booking flips.
    Ok(ckpts.resume_limit(graph, moved, expanded))
}

/// The splice-engagement step shared by [`schedule_cost_resumed`] and
/// [`schedule_cost_spliced`], entered once the order certificate
/// produced a float plan: routes the moved process through the float
/// machinery (degenerately when its own slot stands), computes the
/// affected cone, applies the profitability gate when the caller
/// passes the PR 2 fallback's resume position, and executes the
/// splice.
///
/// Returns `None` when the gate rejects (the caller falls back to the
/// checkpoint replay — and owns the expansion unpatch either way).
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
    gate_resume: Option<usize>,
) -> Option<Result<CostOutcome, SchedError>> {
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
    if let Some(resume_pos) = gate_resume {
        // Profitability gate: the splice re-places `n_affected`
        // processes and replays `n_rebook` senders' bookings, plus a
        // fixed copy/restore overhead; the resumed path re-places
        // everything from the snapshot at/below its resume position.
        // Deep-search cones (replicated decisions dirty most nodes)
        // can approach the whole suffix — splicing there pays the
        // overhead for nothing, so fall back. Deterministic (a pure
        // function of the candidate), hence trajectory-neutral.
        let n = ckpts.order.len();
        let pr2_replay = n - ckpts.snapshot_floor(resume_pos);
        // A spliced placement costs ~3/8 of a replayed one (no
        // ready-list selection or bookkeeping), a booking replay
        // ~1/4, plus a fixed copy/restore overhead — measured on
        // the perfgate workloads (`synthbench --trace 1` reproduces
        // the comparison: `incr.spliced_us` vs `incr.resumed_us`).
        let splice_cost = splice.n_affected * 3 / 8 + splice.n_rebook / 4 + 4 + n / 8;
        if splice_cost >= pr2_replay {
            return None;
        }
    }
    Some(crate::delta::execute(
        graph, expanded, moved, bus, fm, options, core, splice, ckpts, bound,
    ))
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
/// recorded) — in which case the caller falls back to
/// [`schedule_cost_resumed`]'s checkpoint replay (which itself tries
/// the splice first, so callers normally just call that). Exposed
/// separately so parity tests and profilers can pin the engine.
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
    let _limit = prepare_candidate(graph, wcet, fm, bus, design, moved, scratch, ckpts)?;
    let cert = ckpts.order_certificate(
        graph,
        &scratch.priorities,
        &scratch.changed,
        &mut scratch.float_plan,
    );
    let result = if let OrderCert::Splice { .. } = cert {
        splice_candidate(graph, bus, fm, moved, options, scratch, ckpts, bound, None)
    } else {
        None
    };
    scratch.expanded.unpatch(moved, &scratch.undo_insts);
    match result {
        Some(r) => r.map(Some),
        None => Ok(None),
    }
}

/// Restores `snap` into the live scratch, remapping instance ids from
/// the base expansion to the candidate's (ids past the moved
/// process's base range shift by the replica-count delta; the
/// `(edge, replica)`-keyed arrivals copy verbatim).
fn restore_snapshot(
    snap: &Snapshot,
    ckpts: &PlacementCheckpoints,
    moved: ProcessId,
    expanded: &ExpandedDesign,
    core: &mut SchedScratch,
) {
    let base = ckpts.expanded.of_process(moved);
    // Zero base replicas cannot happen (every decision maps at least
    // one replica), but fall back to a no-shift remap.
    let old_start = base.first().map_or(ckpts.expanded.len(), |id| id.index());
    let old_end = old_start + base.len();
    let delta = expanded.len() as i64 - ckpts.expanded.len() as i64;
    let remap = |id: InstanceId| -> InstanceId {
        if id.index() < old_end && id.index() >= old_start {
            unreachable!("the moved process is never placed inside a restored prefix");
        }
        if id.index() < old_start {
            id
        } else {
            InstanceId::new((id.index() as i64 + delta) as u32)
        }
    };

    core.remaining_preds.clone_from(&snap.remaining_preds);
    core.ready.clone_from(&snap.ready);

    core.times.clear();
    core.times.resize(expanded.len(), Time::ZERO);
    core.times[..old_start].copy_from_slice(&snap.times[..old_start]);
    let new_end = (old_end as i64 + delta) as usize;
    core.times[new_end..].copy_from_slice(&snap.times[old_end..]);

    // Only read by the segment recorder (full runs) and the splice
    // executor (which sizes it itself) — but the placement writes it
    // per instance, so it must cover the candidate expansion.
    core.wc_times.clear();
    core.wc_times.resize(expanded.len(), Time::ZERO);

    core.completion.clone_from(&snap.completion);

    core.nodes.truncate(ckpts.node_count);
    if core.nodes.len() < ckpts.node_count {
        core.nodes.resize_with(ckpts.node_count, Default::default);
    }
    for (live, saved) in core.nodes[..ckpts.node_count].iter_mut().zip(&snap.nodes) {
        live.avail = saved.avail;
        live.last = saved.last.map(remap);
        live.slack.clone_from_account(&saved.slack);
        live.slack.remap_ids(remap);
        live.frontier.clone_from(&saved.frontier);
        live.delay_k = saved.delay_k;
    }

    core.placed.clear();
    core.placed.resize(ckpts.order.len(), false);
    for &p in &ckpts.order[..snap.placed] {
        core.placed[p.index()] = true;
    }

    core.arrivals.copy_from(&snap.arrivals);
    core.occupancy.clone_from(&snap.occupancy);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, list_schedule_recording, schedule_cost, SchedScratch};
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::graph::Message;
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
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
