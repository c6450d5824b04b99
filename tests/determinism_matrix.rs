//! The determinism test matrix: every engine entry point — greedy,
//! tabu (via the three-step strategy), bus-access optimization and
//! the portfolio — must produce a bit-identical `Design` and
//! trajectory across `threads ∈ {1, 2, 4, 8}` and across repeated
//! runs at the same setting, on a paper-gate and a comm-heavy
//! instance.
//!
//! This is the contract every parity test in the repo leans on:
//! thread count, worker-pool scheduling, cache sharing and epoch
//! synchronization are throughput knobs, never search-space knobs.
//! The one legitimate source of nondeterminism is a wall-clock
//! `time_limit`, so every run here sets `time_limit: None`.
//!
//! The priority strategy (partial critical path vs mobility) is a
//! *search-space* knob — different strategies legitimately walk
//! different trajectories — so it gets its own matrix: a fixed
//! strategy must still be bit-identical across threads and repeats,
//! and the ≥ 2-worker portfolio must always field the mobility axis.

use ftdes::core::greedy::greedy_mpa_with;
use ftdes::core::initial::initial_mpa;
use ftdes::core::{
    effective_threads, optimize, optimize_bus, optimize_portfolio, BusOptConfig, Evaluator, Goal,
    Outcome, PolicySpace, PortfolioConfig, PortfolioOutcome, Problem, SearchConfig, SearchStats,
    Strategy, WorkerPool,
};
use ftdes::gen::{comm_heavy, paper_workload, CommHeavyParams};
use ftdes::model::prelude::*;
use ftdes::ttp::BusConfig;

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

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

fn comm_problem(seed: u64) -> Problem {
    let arch = Architecture::with_node_count(3);
    let params = CommHeavyParams::dense(12).with_density(3.0);
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

/// Both instance families the matrix runs on.
fn instances() -> Vec<(&'static str, Problem)> {
    vec![
        ("paper", paper_problem(7)),
        ("comm-heavy", comm_problem(11)),
    ]
}

fn cfg(threads: usize) -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: 30,
        threads,
        ..SearchConfig::default()
    }
}

/// The full per-run fingerprint two runs must agree on: the design,
/// its cost, and the trajectory counters. (Each run owns a private
/// cache, so even the evaluation/hit split is deterministic here.)
fn assert_outcomes_identical(tag: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.design, b.design, "{tag}: design");
    assert_eq!(a.schedule.cost(), b.schedule.cost(), "{tag}: cost");
    assert_trajectories_identical(tag, &a.stats, &b.stats);
}

fn assert_trajectories_identical(tag: &str, a: &SearchStats, b: &SearchStats) {
    assert_eq!(a.tabu_iterations, b.tabu_iterations, "{tag}: iterations");
    assert_eq!(a.greedy_steps, b.greedy_steps, "{tag}: greedy steps");
    assert_eq!(a.evaluations, b.evaluations, "{tag}: evaluations");
    assert_eq!(a.cache_hits, b.cache_hits, "{tag}: cache hits");
    assert_eq!(a.pruned, b.pruned, "{tag}: pruned");
}

#[test]
fn tabu_strategy_matrix_threads_and_repeats() {
    for (name, problem) in instances() {
        let reference = optimize(&problem, Strategy::Mxr, &cfg(1)).unwrap();
        for threads in THREAD_MATRIX {
            for repeat in 0..2 {
                let run = optimize(&problem, Strategy::Mxr, &cfg(threads)).unwrap();
                assert_outcomes_identical(
                    &format!("{name}/tabu t={threads} r={repeat}"),
                    &reference,
                    &run,
                );
            }
        }
    }
}

/// The mobility priority strategy rides the same contract: it is a
/// search-space knob (different trajectories than PCP are expected
/// and tested elsewhere), but under a *fixed* strategy the trajectory
/// must stay bit-identical across thread counts and repeats.
#[test]
fn mobility_strategy_matrix_threads_and_repeats() {
    for (name, problem) in instances() {
        let problem = problem.with_priority_strategy(ftdes::core::PriorityStrategy::Mobility);
        let reference = optimize(&problem, Strategy::Mxr, &cfg(1)).unwrap();
        for threads in THREAD_MATRIX {
            for repeat in 0..2 {
                let run = optimize(&problem, Strategy::Mxr, &cfg(threads)).unwrap();
                assert_outcomes_identical(
                    &format!("{name}/mobility t={threads} r={repeat}"),
                    &reference,
                    &run,
                );
            }
        }
    }
}

#[test]
fn greedy_matrix_threads_and_repeats() {
    for (name, problem) in instances() {
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let mut reference = None;
        for threads in THREAD_MATRIX {
            for repeat in 0..2 {
                let config = cfg(threads);
                let evaluator = Evaluator::with_cache(&problem, config.eval_cache);
                let pool = WorkerPool::new(effective_threads(config.threads));
                let mut stats = SearchStats::default();
                let (design, schedule) = greedy_mpa_with(
                    &evaluator,
                    &pool,
                    PolicySpace::Mixed,
                    start.clone(),
                    &config,
                    None,
                    &mut stats,
                )
                .unwrap();
                let run = Outcome {
                    design,
                    schedule,
                    stats,
                };
                let reference = reference.get_or_insert(run.clone());
                assert_outcomes_identical(
                    &format!("{name}/greedy t={threads} r={repeat}"),
                    reference,
                    &run,
                );
            }
        }
    }
}

#[test]
fn bus_opt_matrix_threads_and_repeats() {
    for (name, problem) in instances() {
        let seeded = optimize(&problem, Strategy::Mxr, &cfg(1)).unwrap();
        let mut reference = None;
        for threads in THREAD_MATRIX {
            for repeat in 0..2 {
                let bus_cfg = BusOptConfig {
                    threads,
                    ..BusOptConfig::default()
                };
                let run = optimize_bus(&problem, &seeded.design, &bus_cfg).unwrap();
                let tag = format!("{name}/bus-opt t={threads} r={repeat}");
                let reference = reference.get_or_insert((
                    run.bus.clone(),
                    run.schedule.cost(),
                    run.stats.evaluations,
                ));
                assert_eq!(reference.0, run.bus, "{tag}: slot order");
                assert_eq!(reference.1, run.schedule.cost(), "{tag}: cost");
                assert_eq!(reference.2, run.stats.evaluations, "{tag}: evaluations");
            }
        }
    }
}

/// The portfolio fingerprint: merged design + cost, epoch and
/// exchange counts, and the per-worker iteration/adoption trail.
/// Lookups (evaluations + cache hits) are compared as a sum — with
/// the shared cache the *split* between workers is racy by design,
/// but each worker's trajectory (iterations, best, adoptions) is not.
fn assert_portfolios_identical(tag: &str, a: &PortfolioOutcome, b: &PortfolioOutcome) {
    assert_eq!(a.outcome.design, b.outcome.design, "{tag}: design");
    assert_eq!(
        a.outcome.schedule.cost(),
        b.outcome.schedule.cost(),
        "{tag}: cost"
    );
    assert_eq!(a.epochs, b.epochs, "{tag}: epochs");
    assert_eq!(a.exchanges, b.exchanges, "{tag}: exchanges");
    assert_eq!(a.workers.len(), b.workers.len(), "{tag}: worker count");
    for (wa, wb) in a.workers.iter().zip(&b.workers) {
        let wtag = format!("{tag} worker {} [{}]", wa.index, wa.label);
        assert_eq!(wa.label, wb.label, "{wtag}: label");
        assert_eq!(wa.tabu_iterations, wb.tabu_iterations, "{wtag}: iterations");
        assert_eq!(wa.best, wb.best, "{wtag}: best cost");
        assert_eq!(wa.adopted, wb.adopted, "{wtag}: adoptions");
    }
}

#[test]
fn portfolio_matrix_workers_and_repeats() {
    for (name, problem) in instances() {
        for workers in [1usize, 2, 4] {
            let pcfg = PortfolioConfig {
                workers,
                epoch_candidates: 600,
                ..PortfolioConfig::default()
            };
            let mut reference = None;
            for repeat in 0..2 {
                let run = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(0), &pcfg).unwrap();
                let reference = reference.get_or_insert_with(|| run.clone());
                assert_portfolios_identical(
                    &format!("{name}/portfolio w={workers} r={repeat}"),
                    reference,
                    &run,
                );
            }
        }
    }
}

/// The diversification cycle fields a mobility-ordered worker as the
/// first diversified axis, so every ≥ 2-worker portfolio explores
/// both priority strategies — and its trajectory is as repeatable as
/// everyone else's (covered by the matrix above; this pins the
/// roster so a cycle reshuffle can't silently drop the axis).
#[test]
fn portfolio_fields_a_mobility_worker() {
    let (_, problem) = instances().remove(0);
    let pcfg = PortfolioConfig {
        workers: 2,
        epoch_candidates: 200,
        ..PortfolioConfig::default()
    };
    let run = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(0), &pcfg).unwrap();
    assert!(
        run.workers.iter().any(|w| w.label.contains("mobility")),
        "no mobility-axis worker in {:?}",
        run.workers
            .iter()
            .map(|w| w.label.clone())
            .collect::<Vec<_>>()
    );
}

/// The evaluation thread count under each portfolio worker is a pure
/// throughput knob: the same worker count with different inner
/// `threads` settings must merge to the identical result.
#[test]
fn portfolio_inner_threads_are_throughput_only() {
    for (name, problem) in instances() {
        let pcfg = PortfolioConfig {
            workers: 2,
            epoch_candidates: 600,
            ..PortfolioConfig::default()
        };
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let run =
                optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(threads), &pcfg).unwrap();
            let reference = reference.get_or_insert_with(|| run.clone());
            assert_portfolios_identical(&format!("{name}/portfolio t={threads}"), reference, &run);
        }
    }
}
