//! Property tests of the repair pipeline: whatever the delta and
//! whichever rung produced the design, the schedule carried in a
//! [`RepairOutcome`] must be **bit-identical** to a cold, cache-free
//! evaluation of that design on the post-delta problem. Warm-started
//! search is a performance device — it must never change what a
//! design *scores*.

use std::time::Duration;

use proptest::prelude::*;

use ftdes_core::config::SearchConfig;
use ftdes_core::problem::Problem;
use ftdes_core::repair::{apply_delta, repair, RepairBudget};
use ftdes_core::strategy::Strategy;
use ftdes_gen::paper_workload;
use ftdes_model::architecture::Architecture;
use ftdes_model::delta::{DeltaOp, NewProcess, ProblemDelta};
use ftdes_model::error::ModelError;
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetTable;
use ftdes_ttp::config::BusConfig;

fn small_problem(processes: usize, nodes: usize, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let workload = paper_workload(processes, &arch, seed);
    let largest = workload
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, Time::from_us(2_500)).expect("non-empty arch");
    Problem::new(
        workload.graph,
        arch,
        workload.wcet,
        FaultModel::new(1, Time::from_ms(5)),
        bus,
    )
}

/// One of the delta shapes, chosen by `kind`, kept in-range for a
/// problem with `processes` processes on `nodes` nodes.
fn make_delta(kind: u8, processes: usize, nodes: usize, pct: u32, which: u32) -> ProblemDelta {
    let node = NodeId::new(which % nodes as u32);
    let process = ProcessId::new(which % processes as u32);
    let mut delta = ProblemDelta::new();
    match kind % 6 {
        0 => delta.push(DeltaOp::KillNode { node }),
        1 => delta.push(DeltaOp::RescaleWcet {
            process: None,
            percent: 100 + pct,
        }),
        2 => delta.push(DeltaOp::RescaleWcet {
            process: Some(process),
            percent: 100 + pct,
        }),
        3 => delta.push(DeltaOp::DegradeNode {
            node,
            percent: 100 + pct,
        }),
        4 => delta.push(DeltaOp::RemoveProcess { process }),
        _ => {
            let wcet = (0..nodes as u32)
                .map(|n| (NodeId::new(n), Time::from_ms(1 + u64::from(which % 3))))
                .collect();
            delta.push(DeltaOp::AddProcess(Box::new(NewProcess::named(
                "prop-added",
                wcet,
            ))));
        }
    }
    delta
}

fn cfg() -> SearchConfig {
    SearchConfig {
        max_tabu_iterations: 20,
        time_limit: Some(Duration::from_millis(150)),
        ..SearchConfig::default()
    }
}

/// A WCET rescale whose post-delta horizon overflows `u64` is
/// rejected instead of building a problem whose schedule wraps
/// [`Time`]: three independent 1.8·10¹⁵ µs processes on one node with
/// k = 100 fit the budget, and scaled to 10000 % they do not.
#[test]
fn apply_delta_holds_the_post_delta_problem_to_the_horizon_budget() {
    let mut graph = ProcessGraph::new(0.into());
    let processes: Vec<_> = (0..3).map(|_| graph.add_process()).collect();
    let wcet: WcetTable = processes
        .iter()
        .map(|&p| (p, NodeId::new(0), Time::from_ms(1_800_000_000_000)))
        .collect();
    let arch = Architecture::with_node_count(1);
    let bus = BusConfig::initial(&arch, 1, Time::from_us(2_500)).expect("non-empty arch");
    let fm = FaultModel::new(100, Time::from_ms(1));
    let problem = Problem::new(graph, arch, wcet, fm, bus);
    assert!(problem.fits_horizon_budget(Time::ZERO));

    let rescale = |percent| {
        let mut delta = ProblemDelta::new();
        delta.push(DeltaOp::RescaleWcet {
            process: None,
            percent,
        });
        delta
    };
    let (doubled, _) = apply_delta(&problem, &rescale(200)).expect("2x still fits the budget");
    assert!(doubled.fits_horizon_budget(Time::ZERO));
    let err = apply_delta(&problem, &rescale(10_000)).expect_err("100x overflows the budget");
    assert!(
        matches!(err, ModelError::InvalidDelta { .. }),
        "unexpected error: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Repaired-then-evaluated ≡ cold evaluation: the schedule the
    /// ladder hands back scores exactly like a from-nothing
    /// evaluation of the same design on the post-delta problem.
    #[test]
    fn repaired_design_scores_like_cold_evaluation(
        processes in 6usize..11,
        nodes in 3usize..5,
        seed in 0u64..500,
        kind in 0u8..6,
        pct in 5u32..60,
        which in 0u32..16,
    ) {
        let problem = small_problem(processes, nodes, seed);
        let intact = ftdes_core::optimize(&problem, Strategy::Mxr, &cfg())
            .expect("intact problem solves");

        let delta = make_delta(kind, processes, nodes, pct, which);
        let budget = RepairBudget::from_total(Duration::from_millis(60));
        // A delta can make the problem unsolvable (e.g. removing the
        // only process); the bit-identity property applies to repairs
        // that produce a design at all.
        let Ok(outcome) = repair(&problem, &intact.design, &delta, &budget, &cfg()) else {
            continue;
        };

        // Cold evaluation: `Problem::evaluate` goes straight to the
        // list scheduler, touching no evaluation cache at all.
        let cold = outcome
            .problem
            .evaluate(&outcome.design)
            .expect("returned design evaluates on the post-delta problem");

        prop_assert_eq!(
            outcome.schedule.cost(),
            cold.cost(),
            "rung {} returned a schedule that disagrees with cold evaluation",
            outcome.rung
        );
        prop_assert_eq!(outcome.schedule.length(), cold.length());
    }
}
