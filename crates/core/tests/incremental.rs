//! Incremental-vs-full parity: the incremental
//! (`schedule_cost_resumed`) and bounded evaluation engines must be
//! **observationally identical** to the from-scratch cost function.
//!
//! * `resumed_equals_full`: for random problems, random walks of
//!   applied moves and every candidate move at every step, a resumed
//!   evaluation returns exactly the full `schedule_cost` result.
//! * `bounded_classifies_exactly`: a bounded run completes exactly
//!   iff the exact cost is within the bound, and an aborted run's
//!   certified lower bound never exceeds the exact cost — so bounded
//!   evaluation can never misorder candidate selection. Checked on
//!   the paper family and on comm-heavy instances.
//! * `search_results_invariant_under_engines`: whole searches produce
//!   bit-identical designs/costs/trajectories with the engines on or
//!   off.
//! * `bus_opt_matches_a_from_scratch_climb`: the bus-access
//!   optimization's cached, bounded slot-swap sweep ends on the same
//!   bus and cost as the same hill climb scored uncached and
//!   unbounded.

use ftdes_core::moves::MoveTable;
use ftdes_core::{
    initial, optimize, optimize_bus, BusOptConfig, Goal, OccupancyBackend, PolicySpace, Problem,
    SearchConfig, Strategy,
};
use ftdes_gen::paper_workload;
use ftdes_model::architecture::Architecture;
use ftdes_model::design::Design;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_sched::{CostOutcome, CostScratch, PlacementCheckpoints, ScheduleCost, ScheduleOptions};
use ftdes_ttp::config::BusConfig;

fn problem(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let w = paper_workload(processes, &arch, seed);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(k, Time::from_ms(5)),
        bus,
    )
}

/// A tiny deterministic PRNG (splitmix64) for move-sequence choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A paper-family problem with a checkpointing overhead χ and the
/// checkpoint move axis open (`max_checkpoints = 3`): the walks below
/// then contain checkpoint-count moves — candidates whose expansion
/// keeps every node but changes the primary's recovery profile, which
/// the spliced segments' slack registrations and the placements from
/// position 0 must both reproduce exactly.
fn checkpointed_problem(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let w = paper_workload(processes, &arch, seed);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(k, Time::from_ms(5)).with_checkpoint_overhead(Time::from_ms(2)),
        bus,
    )
    .with_max_checkpoints(3)
}

#[test]
fn resumed_equals_full_for_random_move_sequences() {
    let problems = [
        problem(12, 3, 2, 1),
        problem(12, 3, 2, 5),
        problem(12, 3, 2, 9),
        checkpointed_problem(12, 3, 2, 1),
        checkpointed_problem(12, 3, 2, 9),
    ];
    for (case, problem) in problems.into_iter().enumerate() {
        let seed = case as u64 + 1;
        let table = MoveTable::new(&problem, PolicySpace::Mixed);
        let mut design = initial::initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let mut rng = Rng(seed);
        let mut scratch = CostScratch::default();
        let mut core = ftdes_sched::SchedScratch::default();
        let mut ckpts = PlacementCheckpoints::new();
        let mut window = Vec::new();

        // A random walk of applied moves; at every step, every
        // candidate move of the current window is checked for parity.
        for step in 0..6 {
            let schedule = problem
                .evaluate_recording(&design, &mut core, Some(&mut ckpts))
                .unwrap();
            let cp = schedule.move_candidates(problem.graph(), 8);
            table.window(&design, &cp, &mut window);
            if window.is_empty() {
                break;
            }
            for mv in &window {
                let mut cand = design.clone();
                cand.set_decision(mv.process, table.decision(*mv).clone());
                let full = problem.evaluate_cost(&cand, &mut scratch).unwrap();
                let resumed = ftdes_sched::schedule_cost_resumed(
                    problem.graph(),
                    problem.arch(),
                    problem.dense_wcet(),
                    problem.fault_model(),
                    problem.bus(),
                    &cand,
                    mv.process,
                    ScheduleOptions::default(),
                    &mut scratch,
                    &ckpts,
                    None,
                )
                .unwrap();
                assert_eq!(
                    resumed,
                    CostOutcome::Exact(full),
                    "case {case} step {step}: resumed evaluation diverged for {mv:?}"
                );
                // The resumed evaluation must also agree with the
                // materializing scheduler.
                assert_eq!(problem.evaluate(&cand).unwrap().cost(), full);
            }
            let mv = window[rng.below(window.len())];
            design.set_decision(mv.process, table.decision(mv).clone());
        }
    }
}

#[test]
fn bounded_runs_classify_exactly_and_never_misorder() {
    // The plain paper family and a checkpointed instance: the bounded
    // engine's lookahead sums fault-free execution times (WCET +
    // checkpoint saves) and its abort certificates price rollback
    // recovery through the slack account. The comm-heavy instances
    // check that the computation-only lookahead stays admissible when
    // bus waits dominate the schedule.
    for problem in [
        problem(14, 3, 2, 3),
        checkpointed_problem(14, 3, 2, 13),
        comm_problem(13, 4, 2, 0),
        comm_problem(13, 4, 2, 3),
    ] {
        bounded_classification_case(problem);
    }
}

fn bounded_classification_case(problem: Problem) {
    let table = MoveTable::new(&problem, PolicySpace::Mixed);
    let design = initial::initial_mpa(&problem, PolicySpace::Mixed).unwrap();
    let mut core = ftdes_sched::SchedScratch::default();
    let mut ckpts = PlacementCheckpoints::new();
    let schedule = problem
        .evaluate_recording(&design, &mut core, Some(&mut ckpts))
        .unwrap();
    let base_cost = schedule.cost();
    let cp = schedule.move_candidates(problem.graph(), 8);
    let mut window = Vec::new();
    table.window(&design, &cp, &mut window);
    assert!(!window.is_empty());

    let mut scratch = CostScratch::default();
    let mut exact_costs: Vec<ScheduleCost> = Vec::new();
    // Several bounds, from very tight to the base cost itself.
    let bounds = [
        ScheduleCost {
            violation: Time::ZERO,
            length: base_cost.length / 2,
        },
        ScheduleCost {
            violation: Time::ZERO,
            length: base_cost.length.saturating_sub(Time::from_ms(1)),
        },
        base_cost,
    ];
    for mv in &window {
        let mut cand = design.clone();
        cand.set_decision(mv.process, table.decision(*mv).clone());
        let exact = problem.evaluate_cost(&cand, &mut scratch).unwrap();
        exact_costs.push(exact);
        for &bound in &bounds {
            for resumed in [false, true] {
                let outcome = if resumed {
                    ftdes_sched::schedule_cost_resumed(
                        problem.graph(),
                        problem.arch(),
                        problem.dense_wcet(),
                        problem.fault_model(),
                        problem.bus(),
                        &cand,
                        mv.process,
                        ScheduleOptions::default(),
                        &mut scratch,
                        &ckpts,
                        Some(bound),
                    )
                    .unwrap()
                } else {
                    problem
                        .evaluate_cost_bounded(&cand, &mut scratch, Some(bound))
                        .unwrap()
                };
                match outcome {
                    CostOutcome::Exact(cost) => {
                        assert_eq!(cost, exact, "exact outcome must be the exact cost");
                        assert!(
                            exact <= bound,
                            "a within-bound candidate must complete exactly"
                        );
                    }
                    CostOutcome::LowerBound(lb) => {
                        assert!(
                            exact > bound,
                            "aborted candidate must truly exceed the bound"
                        );
                        assert!(lb > bound, "the abort certificate must exceed the bound");
                        assert!(lb <= exact, "a lower bound may never exceed the exact cost");
                    }
                }
            }
        }
    }
    // No misordering: selecting the minimum by (cost, index) over
    // bounded outcomes (lower bounds standing in for pruned
    // candidates) identifies the same winner as exact evaluation
    // whenever the winner is within the bound.
    for &bound in &bounds {
        let exact_min = exact_costs
            .iter()
            .enumerate()
            .min_by_key(|&(i, c)| (*c, i))
            .map(|(i, c)| (i, *c))
            .unwrap();
        if exact_min.1 <= bound {
            let bounded_min = window
                .iter()
                .enumerate()
                .map(|(i, mv)| {
                    let mut cand = design.clone();
                    cand.set_decision(mv.process, table.decision(*mv).clone());
                    let out = problem
                        .evaluate_cost_bounded(&cand, &mut scratch, Some(bound))
                        .unwrap();
                    (out.cost(), i)
                })
                .min()
                .unwrap();
            assert_eq!(
                (exact_min.1, exact_min.0),
                bounded_min,
                "bounded evaluation misordered the winner under bound {bound:?}"
            );
        }
    }
}

/// A communication-heavy problem (dense graph, expensive messages) —
/// the workload family where bus waits dominate and the occupancy
/// bitmap actually bites.
fn comm_problem(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let params = ftdes_gen::CommHeavyParams::dense(processes);
    let w = ftdes_gen::comm_heavy(&params, &arch, seed);
    let largest = w
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, params.byte_time()).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(k, Time::from_ms(5)),
        bus,
    )
}

#[test]
fn search_results_invariant_under_engines() {
    for problem in [
        problem(14, 3, 2, 2),
        problem(14, 3, 2, 8),
        checkpointed_problem(14, 3, 2, 8),
    ] {
        let run = |incremental: bool, bounded: bool| {
            let cfg = SearchConfig {
                goal: Goal::MinimizeLength,
                time_limit: None,
                max_tabu_iterations: 40,
                incremental,
                bounded,
                ..SearchConfig::default()
            };
            optimize(&problem, Strategy::Mxr, &cfg).unwrap()
        };
        let reference = run(false, false); // the PR 1 evaluation path
        for (incremental, bounded) in [(true, false), (false, true), (true, true)] {
            let out = run(incremental, bounded);
            assert_eq!(
                out.design, reference.design,
                "design changed under incremental={incremental} bounded={bounded}"
            );
            assert_eq!(out.schedule.cost(), reference.schedule.cost());
            assert_eq!(
                out.stats.tabu_iterations, reference.stats.tabu_iterations,
                "trajectory changed under incremental={incremental} bounded={bounded}"
            );
            assert_eq!(out.stats.greedy_steps, reference.stats.greedy_steps);
        }
    }
}

#[test]
fn search_results_invariant_under_comm_engine_knobs() {
    // The per-(node, slot) occupancy bitmap is a pure throughput knob:
    // both booking paths pick identical slot occurrences, so whole
    // searches must be bit-identical on the Flat backend. Checked on
    // the paper family and, more importantly, on the comm-heavy
    // family where the booking table actually does work.
    for base in [problem(14, 3, 2, 4), comm_problem(12, 4, 2, 7)] {
        let run = |p: &Problem| {
            let cfg = SearchConfig {
                goal: Goal::MinimizeLength,
                time_limit: None,
                max_tabu_iterations: 30,
                ..SearchConfig::default()
            };
            optimize(p, Strategy::Mxr, &cfg).unwrap()
        };
        let reference = run(&base);
        let out = run(&base.clone().with_occupancy_backend(OccupancyBackend::Flat));
        assert_eq!(out.design, reference.design, "flat backend: design changed");
        assert_eq!(out.schedule.cost(), reference.schedule.cost());
        assert_eq!(
            out.stats.tabu_iterations, reference.stats.tabu_iterations,
            "flat backend: trajectory changed"
        );
        assert_eq!(out.stats.greedy_steps, reference.stats.greedy_steps);
    }
}

/// The exact cost of `design` under `bus`, placed from scratch.
fn scratch_cost(problem: &Problem, bus: &BusConfig, design: &Design) -> ScheduleCost {
    let mut scratch = CostScratch::default();
    match problem
        .evaluate_cost_with_bus_bounded(bus, design, &mut scratch, None)
        .unwrap()
    {
        CostOutcome::Exact(c) => c,
        CostOutcome::LowerBound(_) => unreachable!("unbounded runs are exact"),
    }
}

/// `optimize_bus`'s hill climb with every probe scored from scratch:
/// no cache, no resume, no bound. Returns the winning bus, its cost
/// and the number of accepted swaps.
fn from_scratch_climb(
    problem: &Problem,
    design: &Design,
    cfg: &BusOptConfig,
) -> (BusConfig, ScheduleCost, usize) {
    let base = problem.bus();
    let mut best_bus = base.clone();
    let mut best_cost = scratch_cost(problem, base, design);
    let mut accepted = 0;
    for &multiple in &cfg.capacity_multiples {
        let capacity = problem.largest_message() * multiple.max(1);
        let mut bus =
            BusConfig::with_order(base.slot_order().to_vec(), capacity, base.byte_time()).unwrap();
        let mut current = scratch_cost(problem, &bus, design);
        if current < best_cost {
            best_bus = bus.clone();
            best_cost = current;
        }
        let slots = bus.slots_per_round();
        for _ in 0..cfg.max_rounds {
            let mut improved = false;
            for a in 0..slots {
                for b in (a + 1)..slots {
                    let cand = bus.swap_slots(a, b);
                    let c = scratch_cost(problem, &cand, design);
                    if c < current {
                        bus = cand;
                        current = c;
                        improved = true;
                        accepted += 1;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if current < best_cost {
            best_bus = bus;
            best_cost = current;
        }
    }
    (best_bus, best_cost, accepted)
}

#[test]
fn bus_opt_matches_a_from_scratch_climb() {
    // `optimize_bus` scores slot-swap probes through the evaluator's
    // cache and bounds each by the climbing incumbent; a stale cache
    // entry, or a probe pruned when it improves, changes the climb
    // and shows up here as a different bus or cost.
    let cfg = BusOptConfig::default();
    let search = SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: 10,
        ..SearchConfig::default()
    };
    let mut accepted = 0;
    for (problem, label) in [
        (problem(14, 4, 2, 6), "paper/6"),
        (comm_problem(12, 4, 2, 5), "comm/5"),
        (comm_problem(16, 5, 1, 9), "comm/9"),
    ] {
        let initial = initial::initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let searched = optimize(&problem, Strategy::Mxr, &search).unwrap().design;
        for (design, which) in [(initial, "initial"), (searched, "mxr")] {
            let out = optimize_bus(&problem, &design, &cfg).unwrap();
            let (bus, cost, swaps) = from_scratch_climb(&problem, &design, &cfg);
            assert_eq!(out.bus, bus, "{label} {which}: optimized bus differs");
            assert_eq!(out.schedule.cost(), cost, "{label} {which}: cost differs");
            accepted += swaps;
        }
    }
    assert!(
        accepted > 0,
        "no swap was accepted: the climb went untested"
    );
}
