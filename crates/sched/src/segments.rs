//! Segment-structured recordings of one base placement: the data the
//! suffix-splicing engine reuses.
//!
//! Reuse bounded by a resume *position* pays little: moves target
//! critical-path processes, which the list scheduler places first, so
//! the unchanged prefix of a candidate averages only ~20% of the
//! order on the paper-family gate workload. This module records a
//! *vertical* decomposition of the base run instead, while the search
//! materializes each iteration's winner anyway:
//!
//! * **per-node placement segments** ([`NodeTimeline`]): for every
//!   node, the node-local scheduler state (availability, slack
//!   account, contingency frontier) after each placement on that
//!   node, keyed by placement position — so a candidate can restore
//!   any node to the exact state it had just before the first
//!   position the candidate perturbs *on that node*;
//! * **per-(node, slot) bus timelines** ([`SlotBooking`]): every
//!   message booking, keyed by (slot, placement position, edge,
//!   booked round) — so a candidate can rebuild any TDMA slot's
//!   occupancy up to the first booking it perturbs, each booking
//!   straight into its recorded round, and replay only the bookings
//!   after it;
//! * the **final state** of the base run (fault-free and worst-case
//!   finish per instance, the flat `(edge, replica)` message-arrival
//!   table, worst-case completion per process) — the values spliced
//!   verbatim for every process outside the candidate's affected
//!   cone.
//!
//! [`crate::delta`] consumes all three: it computes the certified
//! affected cone of a single-move candidate and re-places only the
//! cone, reading everything outside it from here.

use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::{EdgeId, ProcessId};
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

use crate::instance::{ExpandedDesign, InstanceId};
use crate::list::{Arrivals, FrontierEntry, NodeScratch, SchedScratch};

/// One per-node placement segment boundary: the node-local state
/// right after the instance placed at `pos` finished registering.
///
/// The shared slack account is **delta-encoded**: each segment
/// records only the one registration its placement made
/// (`reg_id`/`reg_recovery`/`reg_budget` — the instance's recovery
/// profile, exactly what the live placement registered), and a
/// restore replays the
/// prefix's registrations in order — reproducing the account
/// bit-identically (registration is order-insensitive sorted
/// insertion) while keeping the recording's per-placement footprint
/// to one small fixed-size write. An earlier design cloned the whole
/// account per segment; the copies were cheap in isolation but their
/// cache footprint measurably slowed the *candidate evaluations*
/// sharing the core.
#[derive(Debug, Clone)]
pub(crate) struct NodeSegment {
    /// Placement position (index into the recorded order).
    pub(crate) pos: u32,
    pub(crate) avail: Time,
    pub(crate) last: Option<InstanceId>,
    pub(crate) delay_k: Time,
    /// The slack registration this placement performed (the per-fault
    /// recovery cost, not the raw WCET).
    pub(crate) reg_id: InstanceId,
    pub(crate) reg_recovery: Time,
    pub(crate) reg_budget: u32,
    pub(crate) frontier: Vec<FrontierEntry>,
}

impl Default for NodeSegment {
    fn default() -> Self {
        NodeSegment {
            pos: 0,
            avail: Time::ZERO,
            last: None,
            delay_k: Time::ZERO,
            reg_id: InstanceId::new(0),
            reg_recovery: Time::ZERO,
            reg_budget: 0,
            frontier: Vec::new(),
        }
    }
}

/// The recorded segment sequence of one node, buffer-reusing across
/// recordings (`len` entries of `segs` are live).
#[derive(Debug, Default)]
pub(crate) struct NodeTimeline {
    segs: Vec<NodeSegment>,
    len: usize,
}

impl NodeTimeline {
    fn clear(&mut self) {
        self.len = 0;
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        pos: u32,
        live: &NodeScratch,
        reg_id: InstanceId,
        reg_recovery: Time,
        reg_budget: u32,
    ) {
        if self.len == self.segs.len() {
            self.segs.push(NodeSegment::default());
        }
        let seg = &mut self.segs[self.len];
        seg.pos = pos;
        seg.avail = live.avail;
        seg.last = live.last;
        seg.delay_k = live.delay_k;
        seg.reg_id = reg_id;
        seg.reg_recovery = reg_recovery;
        seg.reg_budget = reg_budget;
        seg.frontier.clone_from(&live.frontier);
        self.len += 1;
    }

    /// Every segment strictly before placement position `pos` (empty
    /// when the node had no placements there): the last one carries
    /// the node state, the whole prefix replays the slack account.
    pub(crate) fn prefix(&self, pos: u32) -> &[NodeSegment] {
        let idx = self.segs[..self.len].partition_point(|s| s.pos < pos);
        &self.segs[..idx]
    }
}

/// One recorded bus booking of the base run: enough to replay the
/// identical booking against a partially rebuilt slot occupancy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotBooking {
    /// Placement position the booking rode on.
    pub(crate) pos: u32,
    /// The edge whose message was booked (its size is the booked
    /// payload).
    pub(crate) edge: EdgeId,
    /// The TDMA round the message landed in. Replayed onto the slot's
    /// unperturbed prefix, a booking requested at this round lands in
    /// it at once: no slot arithmetic, an empty first-fit scan.
    pub(crate) round: u64,
}

/// The segment-structured recording of one base placement.
///
/// Lives inside [`crate::incremental::PlacementCheckpoints`] and is
/// filled by its `begin` / `note_placed` hooks, gated by
/// [`crate::list::ScheduleOptions::suffix_splice`] so the ablation
/// knob also removes the recording overhead.
#[derive(Debug, Default)]
pub(crate) struct SegmentStore {
    /// Whether the current recording captures segments at all.
    enabled: bool,
    /// Whether a segment recording ran to completion.
    recorded: bool,
    /// Cached `node index -> slot index` map of the recorded bus.
    pub(crate) slot_of: Vec<u32>,
    /// Round length and per-slot round-0 slot end of the recorded bus:
    /// the recorder reads each booking's round back from its arrival.
    round_len: Time,
    slot_end: Vec<Time>,
    /// Per-node segment boundaries.
    pub(crate) nodes: Vec<NodeTimeline>,
    /// Per-slot booking timelines, position-sorted (bookings are
    /// appended in placement order).
    pub(crate) slots: Vec<Vec<SlotBooking>>,
    /// Final fault-free finish per instance.
    pub(crate) times: Vec<Time>,
    /// Final worst-case finish per instance (message request times).
    pub(crate) wc_times: Vec<Time>,
    /// Final message arrivals per (edge, sender replica) — the splice
    /// starts every candidate from one copy of this table.
    pub(crate) arrivals: Arrivals,
    /// Final worst-case completion per process.
    pub(crate) completion: Vec<Time>,
}

impl SegmentStore {
    /// `true` once a segment recording completed — the precondition
    /// of the splice path.
    pub(crate) fn is_recorded(&self) -> bool {
        self.recorded
    }

    /// Starts (or disables) a recording, reusing every buffer.
    pub(crate) fn begin(&mut self, enabled: bool, node_count: usize, bus: &BusConfig) {
        self.enabled = enabled;
        self.recorded = false;
        if !enabled {
            return;
        }
        if self.nodes.len() < node_count {
            self.nodes.resize_with(node_count, NodeTimeline::default);
        }
        for node in &mut self.nodes[..node_count] {
            node.clear();
        }
        let slot_count = bus.slots_per_round();
        if self.slots.len() < slot_count {
            self.slots.resize_with(slot_count, Vec::new);
        }
        for slot in &mut self.slots[..slot_count] {
            slot.clear();
        }
        self.slot_of.clear();
        self.slot_of.extend(
            (0..node_count)
                .map(|n| bus.slot_of_node(ftdes_model::ids::NodeId::new(n as u32)) as u32),
        );
        self.round_len = bus.round_length();
        self.slot_end.clear();
        self.slot_end
            .extend((0..slot_count).map(|slot| bus.slot_end(0, slot)));
    }

    /// Records the segments of one placement of `p`: the
    /// post-placement state of every node its instances landed on,
    /// and the bookings its instances pushed — every out-edge whose
    /// consumer reads remotely from the instance's node, in the
    /// placement core's booking order.
    pub(crate) fn note_placed(
        &mut self,
        graph: &ProcessGraph,
        p: ProcessId,
        expanded: &ExpandedDesign,
        scratch: &SchedScratch,
        pos: u32,
    ) {
        if !self.enabled {
            return;
        }
        for &sid in expanded.of_process(p) {
            let inst = expanded.instance(sid);
            self.nodes[inst.node.index()].push(
                pos,
                &scratch.nodes[inst.node.index()],
                sid,
                inst.recovery,
                inst.budget,
            );
            let slot = self.slot_of[inst.node.index()] as usize;
            for &edge in graph.outgoing(p) {
                if expanded.reads_remote(graph.edge(edge).to, inst.node) {
                    // The arrival just booked is `slot_end + round ·
                    // round_len`.
                    let arrival = scratch.arrivals.get(edge, inst.replica);
                    let round = (arrival - self.slot_end[slot]) / self.round_len;
                    self.slots[slot].push(SlotBooking { pos, edge, round });
                }
            }
        }
    }

    /// Completes the recording with the final placement state.
    pub(crate) fn finish(&mut self, scratch: &SchedScratch, instance_count: usize) {
        if !self.enabled {
            return;
        }
        self.times.clear();
        self.times
            .extend_from_slice(&scratch.times[..instance_count]);
        self.wc_times.clear();
        self.wc_times
            .extend_from_slice(&scratch.wc_times[..instance_count]);
        self.arrivals.copy_from(&scratch.arrivals);
        self.completion.clone_from(&scratch.completion);
        self.recorded = true;
    }
}
