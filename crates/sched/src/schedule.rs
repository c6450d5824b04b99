//! Static schedule tables and their worst-case accounting.
//!
//! A [`Schedule`] is the set `S` of per-node schedule tables plus the
//! bus MEDL (paper §4, component 3 of the configuration ψ), decorated
//! with the analytic worst-case finish times under the `(k, µ)` fault
//! model and the bookkeeping needed to extract the critical path that
//! drives the optimization moves (paper §5.2).

use serde::{Deserialize, Serialize};

use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::{EdgeId, NodeId, ProcessId};
use ftdes_model::time::Time;
use ftdes_ttp::medl::{frames, BookedMessage, MedlEntry};

use crate::instance::{ExpandedDesign, Instance, InstanceId};

/// What determined the fault-free start of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartBinding {
    /// The process release time (or time zero).
    Release,
    /// The node was busy with the previous instance.
    NodePrev(InstanceId),
    /// The arrival of an input message / local predecessor output.
    Input {
        /// The binding edge.
        edge: EdgeId,
        /// The sender instance whose delivery was consumed.
        sender: InstanceId,
    },
}

/// What determined the *worst-case* finish of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WcBinding {
    /// The fault-free path plus the shared re-execution slack of the
    /// node (all faults local).
    Local,
    /// A contingency scenario: the adversary killed the cheaper
    /// replicas of an input and the instance waited for `sender`'s
    /// delivery (paper Fig. 7).
    Scenario {
        /// The input edge of the scenario.
        edge: EdgeId,
        /// The surviving sender instance waited for.
        sender: InstanceId,
    },
    /// A contingency scenario propagated from the previous instance
    /// on the same node (the node-local contingency chain).
    Chained,
}

/// An instance with its schedule times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledInstance {
    /// The replica instance.
    pub instance: Instance,
    /// Fault-free start `S_ff`.
    pub start: Time,
    /// Fault-free finish `F_ff = S_ff + C`.
    pub finish: Time,
    /// Worst-case finish `F_wc` under any admissible `k`-fault
    /// scenario.
    pub worst_finish: Time,
    /// What bound the fault-free start.
    pub start_binding: StartBinding,
    /// What bound the worst-case finish.
    pub wc_binding: WcBinding,
    /// The instance dominating the shared slack of the node at this
    /// point (move candidate), if any.
    pub delay_peak: Option<InstanceId>,
}

/// Comparable schedule quality: deadline violation first, schedule
/// length (δ) second.
///
/// `Ord` makes "smaller is better" explicit for the greedy and tabu
/// searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ScheduleCost {
    /// Largest deadline overrun over all processes (zero when
    /// schedulable).
    pub violation: Time,
    /// Worst-case schedule length δ.
    pub length: Time,
}

impl ScheduleCost {
    /// Returns `true` when all deadlines are guaranteed.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.violation.is_zero()
    }
}

/// The booked bus messages of a schedule, indexed densely by sender
/// instance.
///
/// The list scheduler books at most a handful of messages per
/// instance (one per outgoing edge that crosses nodes), so a dense
/// `Vec` of small per-instance vectors replaces the former
/// `BTreeMap<(EdgeId, InstanceId), _>`: no ordered-map rebalancing on
/// the optimizer's hot path, and lookups are a short linear scan.
#[derive(Debug, Clone, Default)]
pub struct Bookings {
    per_instance: Vec<Vec<(EdgeId, BookedMessage)>>,
    len: usize,
}

impl Bookings {
    /// An empty booking table for `instances` sender instances.
    #[must_use]
    pub fn for_instances(instances: usize) -> Self {
        Bookings {
            per_instance: vec![Vec::new(); instances],
            len: 0,
        }
    }

    /// Records the booking of `edge` sent by `sender`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn insert(&mut self, edge: EdgeId, sender: InstanceId, booked: BookedMessage) {
        self.per_instance[sender.index()].push((edge, booked));
        self.len += 1;
    }

    /// The booking of `edge` sent by `sender`, if any.
    #[must_use]
    pub fn get(&self, edge: EdgeId, sender: InstanceId) -> Option<&BookedMessage> {
        self.per_instance
            .get(sender.index())?
            .iter()
            .find(|(e, _)| *e == edge)
            .map(|(_, b)| b)
    }

    /// Total number of bookings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no messages were booked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(edge, sender, booking)` triples in sender
    /// instance order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, InstanceId, &BookedMessage)> {
        self.per_instance
            .iter()
            .enumerate()
            .flat_map(|(sender, entries)| {
                entries
                    .iter()
                    .map(move |(edge, b)| (*edge, InstanceId::new(sender as u32), b))
            })
    }
}

/// A complete static schedule with worst-case accounting.
#[derive(Debug, Clone)]
pub struct Schedule {
    expanded: ExpandedDesign,
    slots: Vec<ScheduledInstance>,
    /// Instances per node in fault-free time order.
    node_order: Vec<Vec<InstanceId>>,
    /// Booked bus message per (edge, sender instance).
    bookings: Bookings,
    /// Worst-case completion per process (max over replicas).
    completion: Vec<Time>,
    cost: ScheduleCost,
}

impl Schedule {
    pub(crate) fn new(
        expanded: ExpandedDesign,
        slots: Vec<ScheduledInstance>,
        node_order: Vec<Vec<InstanceId>>,
        bookings: Bookings,
        graph: &ProcessGraph,
    ) -> Self {
        let process_count = graph.process_count();
        let mut completion = vec![Time::ZERO; process_count];
        for s in &slots {
            let p = s.instance.process.index();
            completion[p] = completion[p].max(s.worst_finish);
        }
        let mut violation = Time::ZERO;
        for p in graph.processes() {
            if let Some(d) = p.deadline {
                violation = violation.max(completion[p.id.index()].saturating_sub(d));
            }
        }
        let length = slots
            .iter()
            .map(|s| s.worst_finish)
            .max()
            .unwrap_or(Time::ZERO);
        Schedule {
            expanded,
            slots,
            node_order,
            bookings,
            completion,
            cost: ScheduleCost { violation, length },
        }
    }

    /// The expanded replica instances this schedule covers.
    #[must_use]
    pub fn expanded(&self) -> &ExpandedDesign {
        &self.expanded
    }

    /// The schedule entry of an instance.
    ///
    /// # Panics
    ///
    /// Panics on an id from a different expansion.
    #[must_use]
    pub fn slot(&self, id: InstanceId) -> &ScheduledInstance {
        &self.slots[id.index()]
    }

    /// All schedule entries, dense by instance id.
    #[must_use]
    pub fn slots(&self) -> &[ScheduledInstance] {
        &self.slots
    }

    /// The per-node schedule tables: instances in fault-free start
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_table(&self, node: NodeId) -> &[InstanceId] {
        &self.node_order[node.index()]
    }

    /// Number of nodes covered by the schedule.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_order.len()
    }

    /// The booked bus message for `(edge, sender)`, if the edge needs
    /// the bus from that sender.
    #[must_use]
    pub fn booking(&self, edge: EdgeId, sender: InstanceId) -> Option<&BookedMessage> {
        self.bookings.get(edge, sender)
    }

    /// All message bookings.
    #[must_use]
    pub fn bookings(&self) -> &Bookings {
        &self.bookings
    }

    /// The bus MEDL: one entry per occupied frame, in time order, with
    /// its messages in booking order. Every instance books its messages
    /// when it is placed, so walking each node table in placement order
    /// yields each node's bookings in booking order.
    #[must_use]
    pub fn medl(&self) -> Vec<MedlEntry> {
        frames(
            self.node_order
                .iter()
                .flatten()
                .flat_map(|sid| &self.bookings.per_instance[sid.index()])
                .map(|(_, booked)| booked),
        )
    }

    /// Worst-case completion of a process (max over its replicas).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn completion(&self, p: ProcessId) -> Time {
        self.completion[p.index()]
    }

    /// The schedule cost (violation, length).
    #[must_use]
    pub fn cost(&self) -> ScheduleCost {
        self.cost
    }

    /// Worst-case schedule length δ.
    #[must_use]
    pub fn length(&self) -> Time {
        self.cost.length
    }

    /// Returns `true` when every deadline is guaranteed under any
    /// admissible fault scenario.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.cost.is_schedulable()
    }

    /// The latest fault-free finish (for reporting; δ is the
    /// worst-case length).
    #[must_use]
    pub fn makespan_fault_free(&self) -> Time {
        self.slots
            .iter()
            .map(|s| s.finish)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Extracts the critical path: the chain of processes whose
    /// timing determines the worst-case schedule length (paper §5.2:
    /// "the path through the merged graph which corresponds to the
    /// longest delay in the schedule table").
    ///
    /// The walk starts at the instance with the largest worst-case
    /// finish (preferring deadline violators), follows the recorded
    /// bindings backwards, and also collects the slack-dominating
    /// instance of each visited node — all of them are productive
    /// move candidates.
    #[must_use]
    pub fn critical_path(&self, graph: &ProcessGraph) -> Vec<ProcessId> {
        let Some(start) = self.critical_sink(graph) else {
            return Vec::new();
        };
        let mut cp: Vec<ProcessId> = Vec::new();
        let mut seen = vec![false; graph.process_count()];
        let push = |p: ProcessId, cp: &mut Vec<ProcessId>, seen: &mut Vec<bool>| {
            if !seen[p.index()] {
                seen[p.index()] = true;
                cp.push(p);
            }
        };
        let mut cur = start;
        // The walk strictly decreases schedule time, but cap the
        // length defensively.
        for _ in 0..self.slots.len() + 1 {
            let s = self.slot(cur);
            push(s.instance.process, &mut cp, &mut seen);
            if let Some(peak) = s.delay_peak {
                push(self.slot(peak).instance.process, &mut cp, &mut seen);
            }
            let next = match s.wc_binding {
                WcBinding::Scenario { sender, .. } => Some(sender),
                WcBinding::Local => match s.start_binding {
                    StartBinding::NodePrev(prev) => Some(prev),
                    StartBinding::Input { sender, .. } => Some(sender),
                    StartBinding::Release => None,
                },
                WcBinding::Chained => self.node_predecessor(cur),
            };
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
        cp.reverse();
        cp
    }

    /// The process set the optimizer should generate moves for: the
    /// critical path, padded (when the binding chain is short) with
    /// the processes of the largest worst-case completions. A pure
    /// binding chain can collapse to one or two processes on small
    /// or replica-heavy schedules, starving the neighbourhood; the
    /// delay contributors are legitimate members of the paper's
    /// "path corresponding to the longest delay".
    #[must_use]
    pub fn move_candidates(&self, graph: &ProcessGraph, min: usize) -> Vec<ProcessId> {
        let mut cp = self.critical_path(graph);
        if cp.len() < min {
            let mut by_completion: Vec<(Time, ProcessId)> = (0..graph.process_count())
                .map(|i| {
                    let p = ProcessId::new(i as u32);
                    (self.completion(p), p)
                })
                .collect();
            by_completion.sort_by_key(|&(t, p)| (std::cmp::Reverse(t), p));
            for (_, p) in by_completion {
                if cp.len() >= min {
                    break;
                }
                if !cp.contains(&p) {
                    cp.push(p);
                }
            }
        }
        cp
    }

    /// The instance the critical-path walk starts from.
    fn critical_sink(&self, graph: &ProcessGraph) -> Option<InstanceId> {
        if !self.cost.violation.is_zero() {
            // Most violated deadline first.
            self.slots
                .iter()
                .filter_map(|s| {
                    let d = graph.process(s.instance.process).deadline?;
                    Some((s.worst_finish.saturating_sub(d), s.instance.id))
                })
                .max()
                .map(|(_, id)| id)
        } else {
            self.slots
                .iter()
                .map(|s| (s.worst_finish, s.instance.id))
                .max()
                .map(|(_, id)| id)
        }
    }

    /// The instance placed immediately before `id` on its node.
    fn node_predecessor(&self, id: InstanceId) -> Option<InstanceId> {
        let node = self.slot(id).instance.node;
        let table = &self.node_order[node.index()];
        let pos = table.iter().position(|&i| i == id)?;
        if pos == 0 {
            None
        } else {
            Some(table[pos - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::{Design, ProcessDesign};
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    #[test]
    fn cost_orders_violation_before_length() {
        let a = ScheduleCost {
            violation: Time::ZERO,
            length: Time::from_ms(500),
        };
        let b = ScheduleCost {
            violation: Time::from_ms(1),
            length: Time::from_ms(100),
        };
        assert!(a < b, "any schedulable result beats any violation");
        assert!(a.is_schedulable());
        assert!(!b.is_schedulable());
        let c = ScheduleCost {
            violation: Time::ZERO,
            length: Time::from_ms(400),
        };
        assert!(c < a, "shorter schedulable schedule wins");
    }

    fn two_node_chain(k: u32) -> (ProcessGraph, Schedule) {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(30)),
            (b, NodeId::new(1), Time::from_ms(20)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::new(k, Time::from_ms(5));
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        ]);
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &design).unwrap();
        (g, s)
    }

    #[test]
    fn queries_expose_schedule_structure() {
        let (_, s) = two_node_chain(1);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.node_table(NodeId::new(0)).len(), 1);
        assert_eq!(s.node_table(NodeId::new(1)).len(), 1);
        assert_eq!(s.slots().len(), 2);
        assert_eq!(s.bookings().len(), 1, "one inter-node message");
        assert!(s.length() >= s.makespan_fault_free());
        // Completion of the producer is its worst-case finish.
        let a0 = s.expanded().of_process(ProcessId::new(0))[0];
        assert_eq!(s.completion(ProcessId::new(0)), s.slot(a0).worst_finish);
    }

    #[test]
    fn critical_path_of_violated_deadline_starts_at_violator() {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process(); // independent, long
        g.process_mut(a).deadline = Some(Time::from_ms(1));
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(10)),
            (b, NodeId::new(1), Time::from_ms(500)),
        ]
        .into_iter()
        .collect();
        let fm = FaultModel::none();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        ]);
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &design).unwrap();
        // b has the larger worst finish, but a violates its deadline:
        // the critical path must target a.
        assert!(!s.is_schedulable());
        let cp = s.critical_path(&g);
        assert_eq!(cp, vec![a]);
    }

    #[test]
    fn critical_path_nonempty_and_ends_at_sink() {
        let (g, s) = two_node_chain(2);
        let cp = s.critical_path(&g);
        assert!(!cp.is_empty());
        assert_eq!(
            *cp.last().unwrap(),
            ProcessId::new(1),
            "walk starts at the sink"
        );
        assert_eq!(cp[0], ProcessId::new(0), "and reaches the source");
    }

    #[test]
    fn fault_free_model_has_equal_finishes() {
        let (_, s) = two_node_chain(0);
        for slot in s.slots() {
            assert_eq!(slot.finish, slot.worst_finish);
        }
    }
}
