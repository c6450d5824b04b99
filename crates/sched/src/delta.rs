//! Affected-cone candidate evaluation: the **suffix-splicing engine**
//! (evaluation engine v3).
//!
//! A from-scratch candidate run re-places the whole order, even
//! though most of it lands on nodes and bus slots a single move never
//! perturbs. This module removes that redundancy: it
//! computes a certified **affected cone** of a single-move candidate
//! and re-places only the cone, splicing the base recording's
//! per-node segments and per-slot bus timelines
//! ([`crate::segments`]) for everything outside it.
//!
//! # The cone
//!
//! The engine first verifies (through the incremental engine's order
//! certificate) that the candidate's priority-driven selection
//! sequence equals the recorded base order, up to certified floats —
//! any other divergence fails the independence proof, and the
//! candidate is placed from position 0 instead. With the order
//! pinned, a placement
//! can differ from the base run only through four channels, each
//! tracked by a forward sweep over the recorded order:
//!
//! 1. **the moved process itself** — its instances (nodes, WCETs,
//!    budgets) differ by definition;
//! 2. **node chaining** — a node's availability, shared slack account
//!    and contingency frontier evolve only through placements on that
//!    node, so every process placed on a node at/after the node's
//!    first affected placement (`node_dirty`) is affected;
//! 3. **input deliveries** — a consumer is affected when any producer
//!    process of an input edge is affected (its finish times, kill
//!    budgets or message arrivals may shift);
//! 4. **bus-slot perturbation** — each TDMA slot is fed by exactly
//!    one node, so a slot's occupancy sequence diverges from the
//!    first differing booking (`slot_dirty`: the moved process's
//!    nodes' slots, a predecessor whose `needs_bus` decision flips,
//!    or any affected sender). Every booking into a dirty slot at a
//!    later position may land in a different round, so its remote
//!    consumers are affected — and the booking itself is **replayed**
//!    during the splice even when its sender's placement is spliced,
//!    keeping the occupancy exact for subsequent bookings.
//!
//! Everything the sweep does not mark is provably bit-identical
//! between the base run and a from-scratch run of the candidate, so
//! the executor restores each dirty node to its segment just before
//! `node_dirty`, rebuilds each dirty slot's occupancy up to
//! `slot_dirty`, copies times, completions and the flat `(edge,
//! replica)` arrival table from the base recording, and drives
//! [`crate::list::place_process`] — the one shared placement
//! primitive — over the cone positions only. Re-placed producers and
//! replayed bookings overwrite their arrival entries in place; the
//! table is keyed by replica, not instance, so it needs no id remap
//! when the move changes a replica count.
//! Parity is guarded by the workspace's `tests/splice.rs` (spliced ≡
//! full bit-identical on random move sequences).
//!
//! Bounded runs classify identically to
//! [`crate::schedule_cost_bounded`] ("exact iff cost ≤ bound"): the
//! spliced completions are the candidate's *final* completions, so
//! their accumulated cost is a certified lower bound available before
//! a single placement, and worst-case completions only grow as the
//! cone is re-placed.

use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::ProcessId;
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

use crate::error::SchedError;
use crate::incremental::{FloatMove, PlacementCheckpoints};
use crate::instance::{ExpandedDesign, InstanceId};
use crate::list::{
    accumulate_cost, book_sender, certified_lookahead, place_process, CostOnly, CostOutcome,
    SchedScratch, ScheduleOptions,
};
use crate::schedule::ScheduleCost;

/// Reusable working memory of the cone sweep (one per worker, inside
/// [`crate::list::CostScratch`]).
#[derive(Debug, Default)]
pub(crate) struct SpliceScratch {
    /// Whether each process is inside the affected cone.
    affected: Vec<bool>,
    /// First placement position at which each node's state may differ
    /// from the base run (`u32::MAX` = never).
    node_dirty: Vec<u32>,
    /// First placement position at which each slot's booking sequence
    /// may differ from the base run (`u32::MAX` = never).
    slot_dirty: Vec<u32>,
    /// Positions the executor must act on (affected placements and
    /// dirty-slot booking replays), strictly increasing; float
    /// markers ([`FLOAT_MARK`]) ride at their landing positions.
    work: Vec<u32>,
    /// The candidate's certified floats, sorted by landing position.
    floats: Vec<FloatMove>,
    /// Whether each process is floated (its recorded slot is
    /// vacated).
    floated: Vec<bool>,
}

/// Work-list entries at/above this bit are float markers: the low
/// bits index the sorted float list in [`SpliceScratch::floats`]
/// (base positions stay the coordinates of everything else).
const FLOAT_MARK: u32 = 0x8000_0000;

/// Computes the certified affected cone of the candidate — the
/// checkpointed base design with `moved`'s decision replaced, already
/// patched into `cand` — into `sp`. The caller has certified that
/// the candidate's order is the recorded one with exactly the given
/// `floats` (each vacating its recorded slot and landing just before
/// its `to` position; the moved process always appears, degenerately
/// when its own slot stands).
///
/// Fills `sp`: the affected set, the per-node / per-slot dirty
/// positions and the work list.
pub(crate) fn compute_cone(
    graph: &ProcessGraph,
    cand: &ExpandedDesign,
    moved: ProcessId,
    floats: &[FloatMove],
    ckpts: &PlacementCheckpoints,
    sp: &mut SpliceScratch,
) {
    let seg = &ckpts.segments;
    debug_assert!(seg.is_recorded(), "splice requires a segment recording");
    let base = &ckpts.expanded;
    let order = &ckpts.order;
    let n = order.len();
    let node_count = ckpts.node_count;
    let slot_of = &seg.slot_of;
    let slots = seg
        .slot_of
        .iter()
        .map(|&s| s as usize + 1)
        .max()
        .unwrap_or(0);
    sp.affected.clear();
    sp.affected.resize(n, false);
    sp.floated.clear();
    sp.floated.resize(n, false);
    sp.node_dirty.clear();
    sp.node_dirty.resize(node_count, u32::MAX);
    sp.slot_dirty.clear();
    sp.slot_dirty.resize(slots, u32::MAX);
    sp.work.clear();

    // Every floated process re-places: its nodes host a different
    // instance sequence from the first perturbed position on, and its
    // bookings leave their recorded rounds. The moved process's old
    // and new mappings perturb from its recorded slot and its landing
    // respectively; other floats keep their mapping, so both ends use
    // the span start.
    sp.floats.clear();
    sp.floats.extend_from_slice(floats);
    sp.floats.sort_by_key(|f| f.to);
    let mut start = u32::MAX;
    for f in &sp.floats {
        sp.affected[f.process.index()] = true;
        sp.floated[f.process.index()] = true;
        start = start.min(f.slot).min(f.to);
        if f.process == moved {
            // The old mapping's bookings vanish from its recorded
            // slot on, the new mapping's appear from the landing on —
            // each side dirties only the slots its own expansion
            // actually books into.
            for (exp, from) in [(base, f.slot), (cand, f.to)] {
                for &rid in exp.of_process(moved) {
                    let node = exp.instance(rid).node;
                    sp.node_dirty[node.index()] = sp.node_dirty[node.index()].min(from);
                    if graph
                        .outgoing(moved)
                        .iter()
                        .any(|&eid| exp.reads_remote(graph.edge(eid).to, node))
                    {
                        let slot = slot_of[node.index()] as usize;
                        sp.slot_dirty[slot] = sp.slot_dirty[slot].min(from);
                    }
                }
            }
        } else {
            let from = f.slot.min(f.to);
            for &rid in base.of_process(f.process) {
                let node = base.instance(rid).node;
                sp.node_dirty[node.index()] = sp.node_dirty[node.index()].min(from);
                if graph.outgoing(f.process).iter().any(|&eid| {
                    let to = graph.edge(eid).to;
                    cand.reads_remote(to, node) || base.reads_remote(to, node)
                }) {
                    let slot = slot_of[node.index()] as usize;
                    sp.slot_dirty[slot] = sp.slot_dirty[slot].min(from);
                }
            }
        }
    }
    // A direct predecessor whose `needs_bus` decision flips books (or
    // stops booking) at its own, earlier position: its slot's
    // occupancy sequence diverges from there.
    for &eid in graph.incoming(moved) {
        let from = graph.edge(eid).from;
        let pos_f = ckpts.position[from.index()];
        for &rid in base.of_process(from) {
            let nr = base.instance(rid).node;
            if base.reads_remote(moved, nr) != cand.reads_remote(moved, nr) {
                let slot = slot_of[nr.index()] as usize;
                sp.slot_dirty[slot] = sp.slot_dirty[slot].min(pos_f);
                start = start.min(pos_f);
            }
        }
    }

    let mut next_float = 0usize;
    for t in start..n as u32 {
        while next_float < sp.floats.len() && sp.floats[next_float].to <= t {
            sp.work.push(FLOAT_MARK | next_float as u32);
            next_float += 1;
        }
        let p = order[t as usize];
        if sp.floated[p.index()] {
            // A vacated slot: the removal's effects are the init
            // marks; the placement itself rides its float marker.
            continue;
        }
        let mut aff = false;
        {
            // Node chaining: an earlier affected placement on any of
            // p's nodes perturbs availability / slack / frontier.
            for &rid in base.of_process(p) {
                if sp.node_dirty[base.instance(rid).node.index()] <= t {
                    aff = true;
                    break;
                }
            }
        }
        if !aff {
            'edges: for &eid in graph.incoming(p) {
                let s = graph.edge(eid).from;
                if sp.affected[s.index()] {
                    aff = true;
                    break;
                }
                // A producer's booking into a by-then-dirty slot may
                // land in a different round — its arrival, and hence
                // every remote reader's start, can shift.
                let pos_s = ckpts.position[s.index()];
                for &rid in base.of_process(s) {
                    let m = base.instance(rid).node;
                    if sp.slot_dirty[slot_of[m.index()] as usize] <= pos_s
                        && base.reads_remote(p, m)
                    {
                        aff = true;
                        break 'edges;
                    }
                }
            }
        }
        if aff {
            sp.affected[p.index()] = true;
            let books = !graph.outgoing(p).is_empty();
            for &rid in cand.of_process(p) {
                let node = cand.instance(rid).node.index();
                sp.node_dirty[node] = sp.node_dirty[node].min(t);
                if books {
                    let slot = slot_of[node] as usize;
                    sp.slot_dirty[slot] = sp.slot_dirty[slot].min(t);
                }
            }
            sp.work.push(t);
        } else if !graph.outgoing(p).is_empty()
            && base
                .of_process(p)
                .iter()
                .any(|&rid| sp.slot_dirty[slot_of[base.instance(rid).node.index()] as usize] <= t)
        {
            // A spliced sender whose slot history was perturbed: its
            // placement stands, but its bookings must be replayed to
            // keep the slot occupancy exact for later bookings.
            sp.work.push(t);
        }
    }
    while next_float < sp.floats.len() {
        sp.work.push(FLOAT_MARK | next_float as u32); // floated past the end
        next_float += 1;
    }
}

/// Executes the splice for the cone last computed by [`compute_cone`]
/// over the same `(cand, moved, ckpts)`: restores every dirty node
/// and slot to its last unperturbed segment, copies everything
/// outside the cone from the base recording's final state, and drives
/// the shared placement primitive over the cone positions only
/// (floated processes ride their float markers).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    graph: &ProcessGraph,
    cand: &ExpandedDesign,
    moved: ProcessId,
    bus: &BusConfig,
    fm: &FaultModel,
    options: ScheduleOptions,
    core: &mut SchedScratch,
    sp: &mut SpliceScratch,
    ckpts: &PlacementCheckpoints,
    bound: Option<ScheduleCost>,
) -> Result<CostOutcome, SchedError> {
    let seg = &ckpts.segments;
    let base = &ckpts.expanded;
    let order = &ckpts.order;
    let node_count = ckpts.node_count;
    let slot_of = &seg.slot_of;
    let slots = bus.slots_per_round();

    // --- Restore state outside the cone. ---
    let old_start = base
        .of_process(moved)
        .first()
        .map_or(base.len(), |id| id.index());
    let old_end = old_start + base.of_process(moved).len();
    let delta_len = cand.len() as i64 - base.len() as i64;
    let new_end = (old_end as i64 + delta_len) as usize;
    let remap = move |id: InstanceId| -> InstanceId {
        debug_assert!(
            id.index() < old_start || id.index() >= old_end,
            "the moved process is never spliced"
        );
        if id.index() < old_start {
            id
        } else {
            InstanceId::new((id.index() as i64 + delta_len) as u32)
        }
    };

    core.times.clear();
    core.times.resize(cand.len(), Time::ZERO);
    core.times[..old_start].copy_from_slice(&seg.times[..old_start]);
    core.times[new_end..].copy_from_slice(&seg.times[old_end..]);
    // `wc_times` is write-only during the walk (the rebook branch
    // reads request times straight from the recording): size it, skip
    // the copy.
    core.wc_times.clear();
    core.wc_times.resize(cand.len(), Time::ZERO);

    core.completion.clone_from(&seg.completion);

    // The base run's arrivals: exact for every spliced producer whose
    // slot the cone leaves alone. Re-placed producers overwrite their
    // entries as they book, and the rebook branch overwrites the
    // replayed ones — both before any consumer reads them (producers
    // precede their consumers in the order).
    core.arrivals.copy_from(&seg.arrivals);

    core.nodes.truncate(node_count);
    if core.nodes.len() < node_count {
        core.nodes.resize_with(node_count, Default::default);
    }
    for node in 0..node_count {
        let dirty = sp.node_dirty[node];
        if dirty == u32::MAX {
            continue; // never touched by the cone
        }
        let ns = &mut core.nodes[node];
        match seg.nodes[node].prefix(dirty) {
            [] => ns.reset(),
            segs => {
                let s = segs.last().expect("non-empty prefix");
                ns.avail = s.avail;
                ns.last = s.last.map(remap);
                ns.delay_k = s.delay_k;
                ns.frontier.clone_from(&s.frontier);
                // Replay the prefix's slack registrations in order:
                // registration is sorted insertion, so the rebuilt
                // account is bit-identical to the live one at that
                // point.
                ns.slack.clear();
                for reg in segs {
                    ns.slack
                        .register(remap(reg.reg_id), reg.reg_recovery, reg.reg_budget);
                }
            }
        }
    }

    // Each dirty slot rebuilds its unperturbed prefix by booking every
    // recorded message at the round it landed in: the prefix state is
    // the base run's, so each first-fit scan accepts at once.
    core.occupancy.clear();
    core.occupancy.set_backend(options.occupancy);
    let capacity = bus.slot_bytes();
    for slot in 0..slots {
        let dirty = sp.slot_dirty[slot];
        if dirty == u32::MAX || dirty == 0 {
            continue;
        }
        let mut table = core.occupancy.slot(slot, capacity);
        for b in &seg.slots[slot] {
            if b.pos >= dirty {
                break; // position-sorted: the perturbed tail is replayed live
            }
            let round = table.book(b.round, graph.edge(b.edge).message.size)?;
            debug_assert_eq!(
                round, b.round,
                "a restored booking lands in its recorded round"
            );
        }
    }

    // --- Drive the cone. ---
    // The spliced completions are the candidate's final completions,
    // so their accumulated cost already certifies hopeless candidates
    // before a single placement. On top of that, bounded runs keep
    // the PR 2 engine's O(nodes) remaining-computation lookahead over
    // the *cone*: every affected process still executes at least once
    // fault-free on each of its nodes, and node chaining guarantees
    // everything still to place on a cone node is itself affected —
    // so `avail + Σ unplaced cone WCETs + delay_k` is a certified
    // floor exactly as in a full bounded run (running completions
    // alone certify losers only at ~96% of placement; the lookahead
    // is what makes pruning cheap).
    // Zero affected completions and build the cone's per-node
    // remaining-work sums in one cone-proportional pass (every
    // affected process appears in the work list exactly once).
    core.look_sum.clear();
    core.look_sum.resize(node_count, Time::ZERO);
    for &t in &sp.work {
        let p = if t >= FLOAT_MARK {
            sp.floats[(t & !FLOAT_MARK) as usize].process
        } else {
            order[t as usize]
        };
        if sp.affected[p.index()] {
            core.completion[p.index()] = Time::ZERO;
            if bound.is_some() {
                for &sid in cand.of_process(p) {
                    let inst = cand.instance(sid);
                    core.look_sum[inst.node.index()] += inst.exec;
                }
            }
        }
    }
    let mut running = accumulate_cost(graph, &core.completion);
    if let Some(b) = bound {
        if running > b {
            return Ok(CostOutcome::LowerBound(running));
        }
        let certified = certified_lookahead(core, running);
        if certified > b {
            return Ok(CostOutcome::LowerBound(certified));
        }
    }

    let k = fm.k();
    let mu = fm.mu();
    let SpliceScratch {
        work,
        floats,
        affected,
        slot_dirty,
        ..
    } = &mut *sp;
    for &t in work.iter() {
        let p = if t >= FLOAT_MARK {
            floats[(t & !FLOAT_MARK) as usize].process
        } else {
            order[t as usize]
        };
        if affected[p.index()] {
            place_process(p, graph, cand, bus, k, mu, core, &mut CostOnly)?;
            if let Some(b) = bound {
                for &sid in cand.of_process(p) {
                    let inst = cand.instance(sid);
                    core.look_sum[inst.node.index()] -= inst.exec;
                }
                let completion = core.completion[p.index()];
                running.length = running.length.max(completion);
                if let Some(d) = graph.process(p).deadline {
                    running.violation = running.violation.max(completion.saturating_sub(d));
                }
                if running > b {
                    return Ok(CostOutcome::LowerBound(running));
                }
                let certified = certified_lookahead(core, running);
                if certified > b {
                    return Ok(CostOutcome::LowerBound(certified));
                }
            }
        } else {
            // Replay the spliced sender's bookings into its perturbed
            // slot at the recorded request time (its base worst-case
            // finish — bit-identical, since the sender is outside the
            // cone). The arrival may shift; every remote reader was
            // marked affected by the sweep. Remote readers are judged
            // against the *candidate* expansion: a predecessor of the
            // moved process may gain or lose its booking with the new
            // mapping.
            for &sid in base.of_process(p) {
                let inst = base.instance(sid);
                let slot = slot_of[inst.node.index()] as usize;
                if slot_dirty[slot] > t {
                    continue;
                }
                book_sender(
                    graph,
                    cand,
                    bus,
                    sid,
                    inst,
                    seg.wc_times[sid.index()],
                    &mut core.occupancy,
                    &mut core.arrivals,
                    &mut CostOnly,
                )?;
            }
        }
    }

    Ok(CostOutcome::Exact(accumulate_cost(graph, &core.completion)))
}
