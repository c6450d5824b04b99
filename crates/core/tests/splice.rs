//! Suffix-splice parity: the affected-cone spliced evaluation
//! (evaluation engine v3) must be **observationally identical** to
//! full from-scratch cost evaluation.
//!
//! * `spliced_equals_full_for_random_move_sequences`: for random
//!   problems (paper family including the perfgate gate instance, and
//!   the communication-heavy family, where slot perturbation actually
//!   propagates — once under the flat occupancy backend), random walks
//!   of applied moves and every candidate move at every step, a
//!   spliced evaluation returns bit-identically the full
//!   `schedule_cost` result — and the engine must actually engage (a
//!   splice that always falls back would pass parity vacuously), while
//!   some candidates must still fall back to placement from position
//!   0 (the path every uncertified candidate takes).
//! * `spliced_bounded_classifies_exactly`: a spliced bounded run
//!   completes exactly iff the exact cost is within the bound, and an
//!   aborted run's certified lower bound never exceeds the exact cost.
//!   Each candidate is also bounded by its own exact cost: a schedule
//!   that lands exactly on the bound must complete exactly.
//! * `search_results_invariant_under_suffix_splice`: whole searches
//!   walk bit-identical trajectories with the engine on or off.

use ftdes_core::moves::MoveTable;
use ftdes_core::{
    initial, optimize, Goal, OccupancyBackend, PolicySpace, Problem, SearchConfig, Strategy,
};
use ftdes_gen::paper_workload;
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_sched::{CostOutcome, CostScratch, PlacementCheckpoints, ScheduleCost};
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

/// A paper-family problem whose fault model charges a checkpointing
/// overhead χ, with the checkpoint move axis open: the random walks
/// below then apply and evaluate checkpoint-count moves, and the
/// splice must stay bit-identical across recovery-profile changes
/// (the slack registrations the segments replay differ per
/// candidate).
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

/// A communication-heavy problem — dense graph, expensive messages —
/// where bookings overflow rounds and the slot-perturbation channel
/// of the cone sweep does real work.
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

#[test]
fn spliced_equals_full_for_random_move_sequences() {
    let problems = [
        (problem(12, 3, 2, 1), "paper/1"),
        (problem(14, 4, 3, 5), "paper/5"),
        (problem(16, 2, 1, 11), "paper/11"),
        (problem(10, 4, 4, 13), "paper/13"),
        (problem(40, 4, 3, 0), "paper/gate"),
        (comm_problem(12, 4, 2, 7), "comm/7"),
        (comm_problem(14, 3, 1, 15), "comm/15"),
        (
            comm_problem(14, 4, 2, 9).with_occupancy_backend(OccupancyBackend::Flat),
            "comm/9/flat",
        ),
        (checkpointed_problem(12, 3, 2, 17), "checkpointed/17"),
        (checkpointed_problem(14, 4, 3, 19), "checkpointed/19"),
    ];
    let mut total_fallbacks = 0usize;
    for (problem, label) in problems {
        let table = MoveTable::new(&problem, PolicySpace::Mixed);
        if problem.max_checkpoints() > 1 {
            // The extension must not be vacuous: the walks below must
            // actually contain checkpoint-count moves.
            let has_cp_moves = (0..problem.process_count()).any(|i| {
                ftdes_core::moves::candidate_decisions(
                    &problem,
                    PolicySpace::Mixed,
                    ftdes_model::ids::ProcessId::new(i as u32),
                )
                .iter()
                .any(|d| d.policy.checkpoints() > 1)
            });
            assert!(has_cp_moves, "{label}: no checkpoint moves in the table");
        }
        let mut design = initial::initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let mut rng = Rng(42);
        let mut scratch = CostScratch::default();
        let mut core = ftdes_sched::SchedScratch::default();
        let mut ckpts = PlacementCheckpoints::new();
        let mut window = Vec::new();
        let mut engaged = 0usize;
        let mut fallbacks = 0usize;

        // A random walk of applied moves; at every step, every
        // candidate move of the current window is checked for parity.
        for step in 0..8 {
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
                let spliced = ftdes_sched::schedule_cost_spliced(
                    problem.graph(),
                    problem.arch(),
                    problem.dense_wcet(),
                    problem.fault_model(),
                    problem.bus(),
                    &cand,
                    mv.process,
                    problem.schedule_options(),
                    &mut scratch,
                    &ckpts,
                    None,
                )
                .unwrap();
                match spliced {
                    Some(outcome) => {
                        engaged += 1;
                        assert_eq!(
                            outcome,
                            CostOutcome::Exact(full),
                            "{label} step {step}: spliced evaluation diverged for {mv:?}"
                        );
                    }
                    // Ready-order divergence: the engine must refuse,
                    // and schedule_cost_resumed places the candidate
                    // from position 0 — verified just below.
                    None => fallbacks += 1,
                }
                // The production entry point (splice with fallback)
                // must agree as well.
                let resumed = ftdes_sched::schedule_cost_resumed(
                    problem.graph(),
                    problem.arch(),
                    problem.dense_wcet(),
                    problem.fault_model(),
                    problem.bus(),
                    &cand,
                    mv.process,
                    problem.schedule_options(),
                    &mut scratch,
                    &ckpts,
                    None,
                )
                .unwrap();
                assert_eq!(resumed, CostOutcome::Exact(full), "{label} step {step}");
            }
            let mv = window[rng.below(window.len())];
            design.set_decision(mv.process, table.decision(mv).clone());
        }
        assert!(
            engaged > fallbacks,
            "{label}: splice engaged only {engaged} times ({fallbacks} fallbacks) — \
             the independence proof is firing too rarely to matter"
        );
        total_fallbacks += fallbacks;
    }
    assert!(
        total_fallbacks > 0,
        "no candidate fell back to placement from position 0: the walks no longer cover it"
    );
}

#[test]
fn spliced_bounded_classifies_exactly() {
    for (problem, label) in [
        (problem(14, 3, 2, 3), "paper"),
        (comm_problem(12, 4, 2, 5), "comm"),
        (checkpointed_problem(14, 3, 2, 21), "checkpointed"),
    ] {
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
        for mv in &window {
            let mut cand = design.clone();
            cand.set_decision(mv.process, table.decision(*mv).clone());
            let exact = problem.evaluate_cost(&cand, &mut scratch).unwrap();
            // The last bound is the candidate's own exact cost: the
            // exact-gap-fill edge, where the schedule lands precisely
            // on the bound and must still complete exactly.
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
                exact,
            ];
            for &bound in &bounds {
                let Some(outcome) = ftdes_sched::schedule_cost_spliced(
                    problem.graph(),
                    problem.arch(),
                    problem.dense_wcet(),
                    problem.fault_model(),
                    problem.bus(),
                    &cand,
                    mv.process,
                    problem.schedule_options(),
                    &mut scratch,
                    &ckpts,
                    Some(bound),
                )
                .unwrap() else {
                    continue; // order divergence: the fallback engine owns it
                };
                match outcome {
                    CostOutcome::Exact(cost) => {
                        assert_eq!(cost, exact, "{label}: exact outcome must be the exact cost");
                        assert!(
                            exact <= bound,
                            "{label}: a within-bound candidate must complete exactly"
                        );
                    }
                    CostOutcome::LowerBound(lb) => {
                        assert!(
                            exact > bound,
                            "{label}: aborted candidate must truly exceed the bound"
                        );
                        assert!(
                            lb > bound,
                            "{label}: the abort certificate must exceed the bound"
                        );
                        assert!(
                            lb <= exact,
                            "{label}: a lower bound may never exceed the exact cost"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn search_results_invariant_under_suffix_splice() {
    // The splice is a pure throughput knob: spliced costs are
    // bit-identical, and pruned candidates (whose certificate values
    // may differ) are always resolved exactly before they can decide
    // a selection — so whole searches must walk identical
    // trajectories with the engine on or off.
    for base in [
        problem(14, 3, 2, 4),
        comm_problem(12, 4, 2, 9),
        checkpointed_problem(14, 3, 2, 23),
    ] {
        let run = |p: &Problem| {
            let cfg = SearchConfig {
                goal: Goal::MinimizeLength,
                time_limit: None,
                max_tabu_iterations: 30,
                ..SearchConfig::default()
            };
            optimize(p, Strategy::Mxr, &cfg).unwrap()
        };
        let with_splice = run(&base);
        let without = run(&base.clone().with_suffix_splice(false));
        assert_eq!(
            with_splice.design, without.design,
            "design changed under the splice knob"
        );
        assert_eq!(with_splice.schedule.cost(), without.schedule.cost());
        assert_eq!(
            with_splice.stats.tabu_iterations, without.stats.tabu_iterations,
            "trajectory changed under the splice knob"
        );
        assert_eq!(with_splice.stats.greedy_steps, without.stats.greedy_steps);
        // Note: `pruned`/`evaluations` counters are NOT asserted —
        // splice certificates carry different (still certified)
        // values, so the winner-bounded resolution pass may re-check
        // a different set of bounded candidates.
    }
}
