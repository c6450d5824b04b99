//! Occupancy-backend parity: the bus-booking backend (flat scan or
//! bit-packed bitmap) is a pure **throughput** knob — switching it
//! must not move a single step of the search.
//!
//! Two layers enforce this contract. `ftdes_sched::occupancy` holds
//! the micro layer (unit + property tests: both backends book any
//! request sequence identically, and debug builds replay each
//! bitmap booking against the flat scan as an oracle). This
//! test is the macro layer: full searches — greedy + tabu via MXR,
//! and the multi-worker portfolio — walk **bit-identical
//! trajectories** (same design, same cost, same
//! evaluation/hit/prune counters) under both backends, on both
//! instance families. A backend that ever booked a different round
//! would shift a finish time, flip a candidate comparison, and send
//! the whole search elsewhere, so trajectory equality is a sharp
//! end-to-end probe of booking equality.

use ftdes::core::{
    optimize, optimize_portfolio, Goal, OccupancyBackend, Outcome, PolicySpace, PortfolioConfig,
    Problem, SearchConfig, Strategy,
};
use ftdes::gen::{comm_heavy, paper_workload, CommHeavyParams};
use ftdes::model::prelude::*;
use ftdes::ttp::BusConfig;

const ALL_BACKENDS: [OccupancyBackend; 2] = [OccupancyBackend::Flat, OccupancyBackend::Bitmap];

fn paper_problem(seed: u64) -> Problem {
    let arch = Architecture::with_node_count(3);
    let w = paper_workload(14, &arch, seed);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(2, Time::from_ms(5)),
        bus,
    )
}

/// A congested comm-heavy instance (the stress preset scaled down):
/// saturated rounds are where the two scan algorithms actually take
/// different code paths, so parity here is the interesting case.
fn comm_problem(seed: u64) -> Problem {
    let arch = Architecture::with_node_count(3);
    let params = CommHeavyParams::stress(10);
    let w = comm_heavy(&params, &arch, seed);
    let fm = params.fault_model(1, Time::from_ms(5));
    let largest = w
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, params.byte_time()).unwrap();
    Problem::new(w.graph, arch, w.wcet, fm, bus)
}

fn instances() -> Vec<(&'static str, Problem)> {
    vec![
        ("paper", paper_problem(7)),
        ("comm-stress", comm_problem(11)),
    ]
}

fn cfg() -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: 20,
        ..SearchConfig::default()
    }
}

fn assert_outcomes_identical(tag: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.design, b.design, "{tag}: design");
    assert_eq!(a.schedule.cost(), b.schedule.cost(), "{tag}: cost");
    assert_eq!(
        a.stats.tabu_iterations, b.stats.tabu_iterations,
        "{tag}: iterations"
    );
    assert_eq!(a.stats.greedy_steps, b.stats.greedy_steps, "{tag}: greedy");
    assert_eq!(a.stats.evaluations, b.stats.evaluations, "{tag}: evals");
    assert_eq!(a.stats.cache_hits, b.stats.cache_hits, "{tag}: hits");
    assert_eq!(a.stats.pruned, b.stats.pruned, "{tag}: pruned");
}

#[test]
fn search_trajectory_invariant_across_backends() {
    for (name, problem) in instances() {
        let mut reference = None;
        for backend in ALL_BACKENDS {
            let problem = problem.clone().with_occupancy_backend(backend);
            let run = optimize(&problem, Strategy::Mxr, &cfg()).unwrap();
            let reference = reference.get_or_insert_with(|| run.clone());
            assert_outcomes_identical(&format!("{name}/{backend}"), reference, &run);
        }
    }
}

#[test]
fn portfolio_trajectory_invariant_across_backends() {
    for (name, problem) in instances() {
        let pcfg = PortfolioConfig {
            workers: 2,
            epoch_candidates: 300,
            ..PortfolioConfig::default()
        };
        let mut reference = None;
        for backend in ALL_BACKENDS {
            let problem = problem.clone().with_occupancy_backend(backend);
            let run = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(), &pcfg).unwrap();
            let tag = format!("{name}/{backend}/portfolio");
            let reference = reference.get_or_insert_with(|| run.clone());
            assert_eq!(
                reference.outcome.design, run.outcome.design,
                "{tag}: design"
            );
            assert_eq!(
                reference.outcome.schedule.cost(),
                run.outcome.schedule.cost(),
                "{tag}: cost"
            );
            assert_eq!(reference.epochs, run.epochs, "{tag}: epochs");
            assert_eq!(reference.exchanges, run.exchanges, "{tag}: exchanges");
            for (wa, wb) in reference.workers.iter().zip(&run.workers) {
                assert_eq!(
                    wa.tabu_iterations, wb.tabu_iterations,
                    "{tag} worker {}: iterations",
                    wa.index
                );
                assert_eq!(wa.best, wb.best, "{tag} worker {}: best", wa.index);
            }
        }
    }
}
