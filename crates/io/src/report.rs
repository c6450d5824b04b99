//! JSON reports of optimization results.
//!
//! A flat, stable serialization of an [`Outcome`] for toolchains that
//! post-process the synthesis result (visualisation, code
//! generation, CI diffing).

use serde::Serialize;

use ftdes_core::Outcome;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::NodeId;

/// The policy of one process in the report.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyReport {
    /// Replication level `r`.
    pub replicas: u32,
    /// Re-execution budget `e`.
    pub reexecutions: u32,
    /// Checkpoint count `n` of the primary (1 = no checkpointing).
    pub checkpoints: u32,
    /// Node names, primary first.
    pub nodes: Vec<String>,
}

/// One process of the solution.
#[derive(Debug, Clone, Serialize)]
pub struct ProcessReport {
    /// Process name from the problem file.
    pub name: String,
    /// Assigned fault-tolerance policy and mapping.
    pub policy: PolicyReport,
    /// Guaranteed worst-case completion in microseconds.
    pub completion_us: u64,
}

/// One schedule-table entry.
#[derive(Debug, Clone, Serialize)]
pub struct SlotReport {
    /// Process name.
    pub process: String,
    /// Replica number (0 = primary).
    pub replica: u32,
    /// Fault-free start (µs).
    pub start_us: u64,
    /// Fault-free finish (µs).
    pub finish_us: u64,
    /// Worst-case finish (µs).
    pub worst_finish_us: u64,
}

/// A node's schedule table.
#[derive(Debug, Clone, Serialize)]
pub struct NodeTableReport {
    /// Node name.
    pub node: String,
    /// Entries in execution order.
    pub entries: Vec<SlotReport>,
}

/// One MEDL frame.
#[derive(Debug, Clone, Serialize)]
pub struct FrameReport {
    /// TDMA round.
    pub round: u64,
    /// Slot within the round.
    pub slot: usize,
    /// Sending node name.
    pub sender: String,
    /// Frame start (µs).
    pub start_us: u64,
    /// Frame end / message arrival (µs).
    pub end_us: u64,
    /// Messages packed as `edge/replica` labels.
    pub messages: Vec<String>,
}

/// Search statistics.
#[derive(Debug, Clone, Serialize)]
pub struct StatsReport {
    /// `ListScheduling` invocations.
    pub evaluations: usize,
    /// Candidate evaluations served from the memoization cache.
    pub cache_hits: usize,
    /// Tabu iterations.
    pub tabu_iterations: usize,
    /// Wall-clock milliseconds.
    pub elapsed_ms: u128,
}

/// The complete solution report.
#[derive(Debug, Clone, Serialize)]
pub struct SolutionReport {
    /// Strategy name (`MXR`, ...).
    pub strategy: String,
    /// All deadlines guaranteed?
    pub schedulable: bool,
    /// Worst-case schedule length δ (µs).
    pub length_us: u64,
    /// Largest deadline overrun (µs, 0 when schedulable).
    pub violation_us: u64,
    /// Per-process decisions.
    pub processes: Vec<ProcessReport>,
    /// Per-node schedule tables.
    pub node_tables: Vec<NodeTableReport>,
    /// The bus MEDL.
    pub medl: Vec<FrameReport>,
    /// Search statistics.
    pub stats: StatsReport,
}

/// Builds the report for `outcome` (names resolved through `graph`
/// and `node_names`).
#[must_use]
pub fn solution_report(
    strategy: &str,
    graph: &ProcessGraph,
    node_names: &[String],
    outcome: &Outcome,
) -> SolutionReport {
    let schedule = &outcome.schedule;
    let node_name = |n: NodeId| {
        node_names
            .get(n.index())
            .cloned()
            .unwrap_or_else(|| n.to_string())
    };

    let processes = outcome
        .design
        .iter()
        .map(|(p, d)| ProcessReport {
            name: graph.process(p).name.clone(),
            policy: PolicyReport {
                replicas: d.policy.replicas(),
                reexecutions: d.policy.reexecutions(),
                checkpoints: d.policy.checkpoints(),
                nodes: d.mapping.iter().map(|&n| node_name(n)).collect(),
            },
            completion_us: schedule.completion(p).as_us(),
        })
        .collect();

    let node_tables = (0..schedule.node_count())
        .map(|n| {
            let node = NodeId::new(n as u32);
            NodeTableReport {
                node: node_name(node),
                entries: schedule
                    .node_table(node)
                    .iter()
                    .map(|&iid| {
                        let s = schedule.slot(iid);
                        SlotReport {
                            process: graph.process(s.instance.process).name.clone(),
                            replica: s.instance.replica,
                            start_us: s.start.as_us(),
                            finish_us: s.finish.as_us(),
                            worst_finish_us: s.worst_finish.as_us(),
                        }
                    })
                    .collect(),
            }
        })
        .collect();

    let medl = schedule
        .medl()
        .into_iter()
        .map(|e| FrameReport {
            round: e.round,
            slot: e.slot,
            sender: node_name(e.sender),
            start_us: e.start.as_us(),
            end_us: e.end.as_us(),
            messages: e
                .messages
                .iter()
                .map(|t| format!("{}/{}", t.edge, t.sender_replica + 1))
                .collect(),
        })
        .collect();

    SolutionReport {
        strategy: strategy.to_owned(),
        schedulable: outcome.is_schedulable(),
        length_us: outcome.length().as_us(),
        violation_us: outcome.schedule.cost().violation.as_us(),
        processes,
        node_tables,
        medl,
        stats: StatsReport {
            evaluations: outcome.stats.evaluations,
            cache_hits: outcome.stats.cache_hits,
            tabu_iterations: outcome.stats.tabu_iterations,
            elapsed_ms: outcome.stats.elapsed.as_millis(),
        },
    }
}

/// Serializes a report to pretty JSON.
///
/// # Panics
///
/// Never panics: the report contains no non-string map keys.
#[must_use]
pub fn to_json(report: &SolutionReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_core::{optimize, Problem, SearchConfig, Strategy};
    use ftdes_model::architecture::Architecture;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::Message;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::BusConfig;

    #[test]
    fn report_round_trips_to_json() {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.process_mut(a).name = "acq".into();
        g.process_mut(b).name = "ctl".into();
        g.add_edge(a, b, Message::new(2)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(10)),
            (a, NodeId::new(1), Time::from_ms(12)),
            (b, NodeId::new(0), Time::from_ms(20)),
            (b, NodeId::new(1), Time::from_ms(22)),
        ]
        .into_iter()
        .collect();
        let arch = Architecture::with_names(["ECU1", "ECU2"]);
        let fm = FaultModel::new(1, Time::from_ms(5));
        let bus = BusConfig::initial(&arch, 2, Time::from_ms(1)).unwrap();
        let problem = Problem::new(g.clone(), arch, wcet, fm, bus);
        let outcome = optimize(&problem, Strategy::Mxr, &SearchConfig::default()).unwrap();

        let names = vec!["ECU1".to_owned(), "ECU2".to_owned()];
        let report = solution_report("MXR", &g, &names, &outcome);
        assert_eq!(report.strategy, "MXR");
        assert_eq!(report.processes.len(), 2);
        assert_eq!(report.node_tables.len(), 2);
        let json = to_json(&report);
        assert!(json.contains("\"acq\""));
        assert!(json.contains("\"ECU1\""));
        // The JSON parses back as a generic value.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["strategy"], "MXR");
        assert!(value["length_us"].as_u64().unwrap() > 0);
    }
}
