//! The schedule execution engine.
//!
//! Replays a static schedule under a concrete [`FaultScenario`] with
//! the runtime semantics of the paper's software architecture:
//!
//! * every node executes its schedule table in order; when a fault
//!   delays an instance the node switches to the contingency schedule
//!   (everything after it shifts — transparently, since outgoing
//!   messages keep their static MEDL slots);
//! * a fault is detected at the very end of the struck execution
//!   segment (worst case, Fig. 2) and costs `µ` before the recovery
//!   starts; an unsegmented instance then re-runs from the start,
//!   while a checkpointed instance **rolls back** to its latest saved
//!   checkpoint and re-runs only the struck segment (re-establishing
//!   the segment's own save when it has one) — the segment-level
//!   rollback replay;
//! * an instance that exhausts its re-execution budget dies silently
//!   (its replicas carry on);
//! * a consumer starts once, per input edge, the *first valid*
//!   delivery is available: the fault-free finish of a surviving
//!   local replica, or the static arrival of a bus message whose
//!   sender made its slot.
//!
//! The engine reports, per instance, the actual finish time, which
//! the test-suite compares against the analytic worst-case bound of
//! the scheduler (`simulated ≤ analytic` is the central invariant —
//! per-hit rollback costs are bounded by the instance's recovery
//! profile, so the analytic knapsack dominates every admissible
//! segment choice).

use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::NodeId;
use ftdes_model::time::Time;
use ftdes_sched::{InstanceId, Schedule};

use crate::report::{InstanceOutcome, SimulationReport};
use crate::scenario::{adversarial_scenario, random_scenarios, FaultScenario};

/// Replays `schedule` under `scenario`.
///
/// `fm` is the fault model the schedule was built for (`µ` prices the
/// detection overhead of every hit, `χ` the checkpoint re-saves of
/// rolled-back interior segments).
///
/// # Panics
///
/// Panics if the schedule's dependency structure is cyclic, which
/// `ftdes-sched` never produces.
#[must_use]
pub fn simulate(
    schedule: &Schedule,
    graph: &ProcessGraph,
    fm: &FaultModel,
    scenario: &FaultScenario,
) -> SimulationReport {
    let mu = fm.mu();
    let expanded = schedule.expanded();
    let total = expanded.len();
    let mut outcome: Vec<Option<InstanceOutcome>> = vec![None; total];

    // Per-node cursors into the static tables.
    let node_count = schedule.node_count();
    let mut cursor = vec![0usize; node_count];
    let mut node_clock = vec![Time::ZERO; node_count];
    let mut lost_messages: Vec<InstanceId> = Vec::new();

    let mut placed = 0usize;
    loop {
        let mut progressed = false;
        for node in 0..node_count {
            let node_id = NodeId::new(node as u32);
            'node: loop {
                let table = schedule.node_table(node_id);
                let Some(&sid) = table.get(cursor[node]) else {
                    break 'node;
                };
                let inst = *expanded.instance(sid);
                // All predecessor instances must be simulated already.
                let ready = graph.incoming(inst.process).iter().all(|&eid| {
                    let edge = graph.edge(eid);
                    expanded
                        .of_process(edge.from)
                        .iter()
                        .all(|&q| outcome[q.index()].is_some())
                });
                if !ready {
                    break 'node;
                }

                // Earliest available delivery per input edge.
                let mut input_ready = Time::ZERO;
                let mut starved = false;
                for &eid in graph.incoming(inst.process) {
                    let edge = graph.edge(eid);
                    let mut earliest: Option<Time> = None;
                    for &q in expanded.of_process(edge.from) {
                        let q_out = outcome[q.index()].as_ref().expect("checked ready");
                        let Some(q_finish) = q_out.finish else {
                            continue; // sender died
                        };
                        let delivery = if expanded.instance(q).node == inst.node {
                            q_finish
                        } else {
                            let Some(b) = schedule.booking(eid, q) else {
                                continue;
                            };
                            if q_finish > b.start {
                                // The sender missed its static slot —
                                // the schedule's bound was wrong.
                                lost_messages.push(q);
                                continue;
                            }
                            b.arrival
                        };
                        earliest = Some(earliest.map_or(delivery, |e| e.min(delivery)));
                    }
                    match earliest {
                        Some(t) => input_ready = input_ready.max(t),
                        None => starved = true,
                    }
                }

                let release = graph.process(inst.process).release;
                if starved {
                    // All senders of some input died: the process
                    // cannot run (only possible for inadmissible
                    // scenarios).
                    outcome[sid.index()] = Some(InstanceOutcome {
                        start: None,
                        finish: None,
                        attempts: 0,
                    });
                } else {
                    let start = node_clock[node].max(release).max(input_ready);
                    let hits = scenario.hits_on(sid);
                    let survives = hits <= inst.budget;
                    // The instance runs its fault-free execution
                    // (WCET plus interior checkpoint saves) once;
                    // every fault costs µ at detection; the first
                    // `budget` faults additionally roll back and
                    // re-run their struck segment (the whole process
                    // when unsegmented), the one past the budget
                    // kills the instance with no further re-run.
                    let failed = hits.min(inst.budget + 1);
                    let reruns = hits.min(inst.budget) as usize;
                    let mut busy_until = start + inst.exec + mu * u64::from(failed);
                    for hit in scenario.hits_of(sid).take(reruns) {
                        busy_until += fm.segment_rerun(inst.wcet, inst.checkpoints, hit.segment);
                    }
                    node_clock[node] = busy_until;
                    outcome[sid.index()] = Some(InstanceOutcome {
                        start: Some(start),
                        finish: survives.then_some(busy_until),
                        attempts: 1 + reruns as u32,
                    });
                }
                cursor[node] += 1;
                placed += 1;
                progressed = true;
            }
        }
        if placed == total {
            break;
        }
        assert!(progressed, "static schedule contains a dependency cycle");
    }

    SimulationReport::new(
        schedule,
        graph,
        outcome
            .into_iter()
            .map(|o| o.expect("all simulated"))
            .collect(),
        lost_messages,
    )
}

/// What [`replay_scenarios`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Scenarios replayed: the adversarial one plus the random ones.
    pub scenarios: usize,
    /// The longest realized schedule length over every scenario.
    pub worst_length: Time,
    /// One line per failed check: a scenario in which some process
    /// did not complete, or an instance overran its analytic bound.
    /// Empty when the schedule held.
    pub violations: Vec<String>,
}

/// Replays the adversarial scenario of `schedule` (it maximizes the
/// recovery work on the critical path), then `random` random
/// admissible scenarios seeded by `seed`, and checks in each that
/// every process completes and no instance finishes past its analytic
/// worst-case bound.
#[must_use]
pub fn replay_scenarios(
    schedule: &Schedule,
    graph: &ProcessGraph,
    fm: &FaultModel,
    random: usize,
    seed: u64,
) -> Replay {
    let mut scenarios = vec![adversarial_scenario(schedule, fm)];
    scenarios.extend(random_scenarios(schedule, fm, random, seed));
    let mut replay = Replay {
        scenarios: scenarios.len(),
        worst_length: Time::ZERO,
        violations: Vec::new(),
    };
    for (i, scenario) in scenarios.iter().enumerate() {
        let report = simulate(schedule, graph, fm, scenario);
        if !report.all_processes_complete() {
            replay
                .violations
                .push(format!("scenario {i}: not all processes complete"));
        }
        if let Some((id, by)) = report.max_overrun() {
            replay.violations.push(format!(
                "scenario {i}: instance {id} overran its analytic bound by {by}"
            ));
        }
        replay.worst_length = replay.worst_length.max(report.realized_length());
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FaultHit;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::{Design, ProcessDesign};
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;
    use ftdes_sched::list_schedule;
    use ftdes_ttp::config::BusConfig;

    fn ms(v: u64) -> Time {
        Time::from_ms(v)
    }

    /// Chain P0 -> P1 on one node, both re-executable, k = 2.
    fn chain_setup() -> (ProcessGraph, Schedule, FaultModel) {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [(a, NodeId::new(0), ms(30)), (b, NodeId::new(0), ms(20))]
            .into_iter()
            .collect();
        let fm = FaultModel::new(2, ms(10));
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
        ]);
        let arch = Architecture::with_node_count(1);
        let bus = BusConfig::initial(&arch, 4, ms(1)).unwrap();
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus, &design).unwrap();
        (g, sched, fm)
    }

    #[test]
    fn fault_free_matches_static_times() {
        let (g, sched, fm) = chain_setup();
        let report = simulate(&sched, &g, &fm, &FaultScenario::none());
        for slot in sched.slots() {
            let o = report.outcome(slot.instance.id);
            assert_eq!(o.start, Some(slot.start));
            assert_eq!(o.finish, Some(slot.finish));
            assert_eq!(o.attempts, 1);
        }
        assert!(report.lost_messages().is_empty());
        assert!(report.all_processes_complete());
    }

    #[test]
    fn double_fault_on_first_process() {
        let (g, sched, fm) = chain_setup();
        let a0 = sched.expanded().of_process(0.into())[0];
        let scenario = FaultScenario::from_hits(vec![FaultHit::new(a0, 0), FaultHit::new(a0, 1)]);
        let report = simulate(&sched, &g, &fm, &scenario);
        // P0: 30 + (10+30) * 2 = 110; P1 follows at 130.
        assert_eq!(report.outcome(a0).finish, Some(ms(110)));
        assert_eq!(report.outcome(a0).attempts, 3);
        let b0 = sched.expanded().of_process(1.into())[0];
        assert_eq!(report.outcome(b0).finish, Some(ms(130)));
        // Both below the analytic worst case.
        assert!(report.max_overrun().is_none());
    }

    #[test]
    fn replica_death_switches_to_remote_copy() {
        // P0 replicated on two nodes, P1 consumes on node 0, k = 1.
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), ms(40)),
            (a, NodeId::new(1), ms(50)),
            (b, NodeId::new(0), ms(60)),
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
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
        ]);
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let sched = list_schedule(&g, &arch, &wcet, &fm, &bus, &design).unwrap();

        let local = sched.expanded().of_process(a)[0];
        let scenario = FaultScenario::from_hits(vec![FaultHit::new(local, 0)]);
        let report = simulate(&sched, &g, &fm, &scenario);
        assert_eq!(report.outcome(local).finish, None, "local replica died");
        // P1 waits for the remote copy: arrival 60, runs 60 ms.
        let b0 = sched.expanded().of_process(b)[0];
        assert_eq!(report.outcome(b0).start, Some(ms(60)));
        assert_eq!(report.outcome(b0).finish, Some(ms(120)));
        assert!(report.max_overrun().is_none(), "within analytic bound");
        assert!(report.all_processes_complete());
    }

    #[test]
    fn replay_of_a_sound_schedule_stays_within_its_bound() {
        let (g, sched, fm) = chain_setup();
        let replay = replay_scenarios(&sched, &g, &fm, 8, 3);
        assert_eq!(replay.scenarios, 9, "the adversarial scenario plus 8");
        assert!(replay.violations.is_empty(), "{:?}", replay.violations);
        assert!(replay.worst_length > sched.makespan_fault_free());
        assert!(replay.worst_length <= sched.length());
    }
}
