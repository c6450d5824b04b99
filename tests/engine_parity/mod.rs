//! The engine-parity oracle: every engine path must score a design
//! exactly as from-scratch `list_schedule` does.
//!
//! The paper scores each neighbourhood candidate with one
//! `ListScheduling` pass (§5.1–5.2). The engine computes that score
//! through three paths — from scratch, from position 0 on a patched
//! expansion, and the suffix splice (re-place only a move's certified
//! affected cone, copy the rest from the recorded base) — under two
//! booking backends, a cost cache, bounded early exit and a worker
//! pool. Every one of those is a throughput knob, so all must agree
//! bit for bit. The oracle checks it at three layers, on small
//! instances of both generator families, with and without a
//! checkpointing overhead χ, under both priority strategies:
//!
//! * **Candidates** ([`walk_all`]). A seeded walk of applied moves.
//!   Every window candidate of every step is scored by the
//!   materialized `list_schedule` and the cost-only `schedule_cost`.
//!   The unbounded pass adds `evaluate_cost_resumed` under the full
//!   product of occupancy backend × splice switch; the bounded pass
//!   runs from-scratch and resumed runs under four bounds, whose
//!   outcomes must classify exactly and keep the `(cost, index)`
//!   winner. `schedule_cost_spliced` runs once per candidate in each
//!   pass and must agree whenever it engages.
//! * **Searches** ([`covering_array_agrees`], [`each_search`]).
//!   Fixed-iteration MXR searches under a covering array of the six
//!   throughput knobs walk the all-off run's trajectory. The default
//!   configuration on Flat occupancy and on two threads repeats the
//!   default run's trajectory and work counters; without the cache it
//!   repeats the trajectory with more schedules and no lost lookup.
//! * **Replay.** The design each all-off search returns meets its
//!   analytic worst case under every admissible fault scenario.
//!
//! The tests that run it are `tests/splice.rs` (paper family),
//! `tests/incremental.rs` (comm-heavy family, bus-access
//! optimization), `tests/determinism.rs` (threads, cache) and
//! `tests/occupancy_parity.rs` (booking backend, portfolio); the
//! paper's Table 1 instance rides along in the incremental walks.

use ftdes::bench::{Family, InstanceRequest};
use ftdes::core::initial::initial_mpa;
use ftdes::core::moves::MoveTable;
use ftdes::core::{
    optimize, Goal, OccupancyBackend, Outcome, PolicySpace, PriorityStrategy, Problem,
    SearchConfig, Strategy,
};
use ftdes::faultsim::{enumerate_scenarios, simulate};
use ftdes::gen::CommHeavyParams;
use ftdes::model::prelude::*;
use ftdes::sched::{
    schedule_cost_spliced, CostOutcome, CostScratch, PlacementCheckpoints, SchedScratch,
    ScheduleCost,
};

const MU: Time = Time::from_ms(5);
const PRIORITIES: [PriorityStrategy; 2] = [
    PriorityStrategy::PartialCriticalPath,
    PriorityStrategy::Mobility,
];

/// A paper-family instance with µ = 5 ms.
pub fn paper(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    InstanceRequest::new(Family::Paper, processes, nodes, k.into(), MU, seed)
        .build()
        .unwrap()
}

/// A paper instance with χ = 2 ms and the checkpoint move axis open:
/// its walks and searches apply checkpoint-count moves, which change a
/// primary's recovery profile without moving it.
fn checkpointed(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    let problem = paper(processes, nodes, k, seed);
    let fm = problem
        .fault_model()
        .with_checkpoint_overhead(Time::from_ms(2));
    problem.with_fault_model(fm).with_max_checkpoints(3)
}

/// A communication-heavy instance with µ = 5 ms, at the edge density
/// and message/WCET ratio of `params`.
pub fn comm(params: &CommHeavyParams, nodes: usize, k: u32, seed: u64) -> Problem {
    InstanceRequest {
        edge_density: params.edge_density,
        msg_wcet_ratio: params.msg_wcet_ratio,
        ..InstanceRequest::new(
            Family::CommHeavy,
            params.processes,
            nodes,
            k.into(),
            MU,
            seed,
        )
    }
    .build()
    .unwrap()
}

/// A labelled instance and the number of applied moves its candidate
/// walk takes.
pub type Instance = (&'static str, Problem, usize);

/// The paper family, without and with χ.
pub fn paper_family() -> [Instance; 2] {
    [
        ("paper", paper(12, 3, 2, 1), 5),
        ("paper-chi", checkpointed(12, 3, 2, 17), 4),
    ]
}

/// The communication-heavy family at its dense and stress presets,
/// where bookings overflow rounds.
pub fn comm_family() -> [Instance; 2] {
    [
        ("comm-dense", comm(&CommHeavyParams::dense(12), 4, 2, 7), 4),
        (
            "comm-stress",
            comm(&CommHeavyParams::stress(10), 3, 1, 11),
            5,
        ),
    ]
}

/// The paper's Table 1 regime (40 processes, 4 nodes, k = 3): wide
/// windows with many candidates the splice cannot certify. Its walk
/// takes one step.
pub fn gate() -> Instance {
    ("paper-gate", paper(40, 4, 3, 0), 1)
}

/// A tiny deterministic PRNG (splitmix64) choosing the applied moves.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Checks one outcome of a run under `bound` against the candidate's
/// exact cost: `Exact` is that cost and within the bound; `LowerBound`
/// satisfies `bound < lb <= exact`.
fn check(
    outcome: CostOutcome,
    exact: ScheduleCost,
    bound: Option<ScheduleCost>,
    site: impl Fn() -> String,
) {
    match (outcome, bound) {
        (CostOutcome::Exact(cost), _) => {
            assert_eq!(cost, exact, "{}: exact outcome differs", site());
            assert!(
                bound.is_none_or(|b| exact <= b),
                "{}: completed past its bound",
                site()
            );
        }
        (CostOutcome::LowerBound(lb), Some(b)) => assert!(
            b < lb && lb <= exact,
            "{}: lower bound {lb:?} outside ({b:?}, {exact:?}]",
            site()
        ),
        (CostOutcome::LowerBound(lb), None) => {
            panic!("{}: unbounded run returned lower bound {lb:?}", site())
        }
    }
}

/// One candidate-layer engine setting: a problem variant with its own
/// base recording and scratch.
struct Engine {
    problem: Problem,
    core: SchedScratch,
    ckpts: PlacementCheckpoints,
    scratch: CostScratch,
}

impl Engine {
    /// Scores a single-move candidate through the splice alone;
    /// `None` when its order certificate fails.
    fn spliced(
        &mut self,
        cand: &Design,
        moved: ProcessId,
        bound: Option<ScheduleCost>,
    ) -> Option<CostOutcome> {
        let p = &self.problem;
        schedule_cost_spliced(
            p.graph(),
            p.arch(),
            p.wcet(),
            p.fault_model(),
            p.bus(),
            cand,
            moved,
            p.schedule_options(),
            &mut self.scratch,
            &self.ckpts,
            bound,
        )
        .unwrap()
    }
}

/// The bounds a candidate walk scores its candidates under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// No bound: from scratch, and resumed under the full occupancy
    /// backend × splice product.
    Unbounded,
    /// Half the base length, base − 1 ms, the base cost and the
    /// candidate's own exact cost: from scratch, and resumed with both
    /// splice settings on one backend per step, alternating.
    Bounded,
}

/// What one walk exercised: candidates the splice scored, candidates
/// it left to placement from position 0, and checkpoint-count moves.
#[derive(Default)]
struct Tally {
    engaged: usize,
    fallbacks: usize,
    checkpoint_moves: usize,
}

/// Walks `steps` applied moves on `base` under `priority`, checking
/// every window candidate of every step on every engine path of
/// `pass`.
fn walk(
    label: &str,
    base: &Problem,
    priority: PriorityStrategy,
    steps: usize,
    pass: Pass,
) -> Tally {
    let problem = base.clone().with_priority_strategy(priority);
    let mut engines: Vec<Engine> = [OccupancyBackend::Flat, OccupancyBackend::Bitmap]
        .into_iter()
        .flat_map(|backend| {
            let variant = problem.clone().with_occupancy_backend(backend);
            [false, true].map(|splice| variant.clone().with_suffix_splice(splice))
        })
        .map(|problem| Engine {
            problem,
            core: SchedScratch::default(),
            ckpts: PlacementCheckpoints::new(),
            scratch: CostScratch::default(),
        })
        .collect();
    let table = MoveTable::new(&problem, PolicySpace::Mixed);
    let mut design = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
    let mut scratch = CostScratch::default();
    let mut rng = Rng(42);
    let mut window = Vec::new();
    let mut tally = Tally::default();
    let mut tag = 0;
    for step in 0..steps {
        let schedule = problem.evaluate(&design).unwrap();
        let base_cost = schedule.cost();
        // The step's backend: the only one bounded runs take, and the
        // one whose splice engagement the tally counts.
        let backend = [OccupancyBackend::Flat, OccupancyBackend::Bitmap][step % 2];
        let active = |e: &Engine| {
            pass == Pass::Unbounded || e.problem.schedule_options().occupancy == backend
        };
        for e in engines.iter_mut().filter(|e| active(e)) {
            let recorded = e
                .problem
                .evaluate_recording(&design, &mut e.core, Some(&mut e.ckpts))
                .unwrap();
            assert_eq!(recorded.cost(), base_cost, "{label} step {step}: base");
            // A fresh tag per base makes the scratch re-copy its
            // expansion once, as the evaluator's fingerprint does.
            tag += 1;
            e.ckpts.tag = tag;
        }
        let fixed = match pass {
            Pass::Unbounded => Vec::new(),
            Pass::Bounded => vec![
                ScheduleCost {
                    violation: Time::ZERO,
                    length: base_cost.length / 2,
                },
                ScheduleCost {
                    violation: Time::ZERO,
                    length: base_cost.length.saturating_sub(Time::from_ms(1)),
                },
                base_cost,
            ],
        };
        table.window(
            &design,
            &schedule.move_candidates(problem.graph(), 8),
            &mut window,
        );
        assert!(!window.is_empty(), "{label}: empty window");
        // The `(cost, index)` minimum per fixed bound and bounded path:
        // from scratch, then resumed with the splice off and on.
        let max = ScheduleCost {
            violation: Time::MAX,
            length: Time::MAX,
        };
        let mut winners = [[(max, usize::MAX); 3]; 3];
        let mut exact_winner = (max, usize::MAX);
        for (i, mv) in window.iter().enumerate() {
            let mut cand = design.clone();
            let decision = table.decision(*mv);
            tally.checkpoint_moves += usize::from(decision.policy.checkpoints() > 1);
            cand.set_decision(mv.process, decision);
            let exact = problem.evaluate(&cand).unwrap().cost();
            exact_winner = exact_winner.min((exact, i));
            // Unbounded: one run. Bounded: the fixed bounds, then the
            // candidate's own cost, on which a schedule landing exactly
            // on its bound must complete.
            let bounds: Vec<Option<ScheduleCost>> = match pass {
                Pass::Unbounded => vec![None],
                Pass::Bounded => fixed.iter().chain([&exact]).copied().map(Some).collect(),
            };
            for (b, bound) in bounds.into_iter().enumerate() {
                let site = |path: &str| {
                    format!("{label}/{priority} step {step} {mv:?} bound {bound:?}: {path}")
                };
                let from_scratch = problem
                    .evaluate_cost_bounded(&cand, &mut scratch, bound)
                    .unwrap();
                check(from_scratch, exact, bound, || site("from scratch"));
                let mut outcomes = vec![from_scratch];
                for e in engines.iter_mut().filter(|e| active(e)) {
                    let options = e.problem.schedule_options();
                    let engine =
                        || format!("{} splice={}", options.occupancy, options.suffix_splice);
                    let resumed = e
                        .problem
                        .evaluate_cost_resumed(&cand, mv.process, &mut e.scratch, &e.ckpts, bound)
                        .unwrap();
                    check(resumed, exact, bound, || {
                        site(&format!("resumed {}", engine()))
                    });
                    outcomes.push(resumed);
                    // With the splice on, the resumed run took the splice
                    // whenever the order certificate held. The splice
                    // alone runs once per candidate, under the pass's
                    // first bound on the step's backend, to count how
                    // often it engages.
                    if !options.suffix_splice || b > 0 || options.occupancy != backend {
                        continue;
                    }
                    let spliced = e.spliced(&cand, mv.process, bound);
                    if let Some(outcome) = spliced {
                        check(outcome, exact, bound, || {
                            site(&format!("spliced {}", engine()))
                        });
                    }
                    tally.engaged += usize::from(spliced.is_some());
                    tally.fallbacks += usize::from(spliced.is_none());
                }
                if let Some(paths) = winners.get_mut(b).filter(|_| pass == Pass::Bounded) {
                    for (w, o) in paths.iter_mut().zip(outcomes) {
                        *w = (*w).min((o.cost(), i));
                    }
                }
            }
        }
        for (bound, paths) in fixed.iter().zip(&winners) {
            if exact_winner.0 <= *bound {
                for (path, &w) in ["from scratch", "splice off", "splice on"]
                    .iter()
                    .zip(paths)
                {
                    assert_eq!(
                        w, exact_winner,
                        "{label}/{priority} step {step}: {path} misordered the winner under {bound:?}"
                    );
                }
            }
        }
        let mv = window[rng.below(window.len())];
        design.set_decision(mv.process, table.decision(mv));
    }
    tally
}

/// Walks every instance under both priority strategies. Each instance
/// must splice more candidates than it places from position 0, and
/// the group must place some from position 0.
pub fn walk_all(instances: &[Instance], pass: Pass) {
    let mut fallbacks = 0;
    for (label, problem, steps) in instances {
        let mut tally = Tally::default();
        for priority in PRIORITIES {
            let t = walk(label, problem, priority, *steps, pass);
            tally.engaged += t.engaged;
            tally.fallbacks += t.fallbacks;
            tally.checkpoint_moves += t.checkpoint_moves;
        }
        assert!(
            tally.engaged > tally.fallbacks,
            "{label}: the splice engaged {} times against {} fallbacks",
            tally.engaged,
            tally.fallbacks
        );
        assert_eq!(
            tally.checkpoint_moves > 0,
            problem.max_checkpoints() > 1,
            "{label}: checkpoint moves in the walk"
        );
        fallbacks += tally.fallbacks;
    }
    assert!(
        fallbacks > 0,
        "no candidate fell back to placement from position 0"
    );
}

/// The six throughput knobs of a search, in column order:
/// incremental, bounded, suffix splice, bitmap occupancy, eval cache,
/// two threads.
pub type Knobs = [bool; 6];

/// The default configuration: every throughput knob on, one thread.
pub const DEFAULT: Knobs = [true, true, true, true, true, false];

/// A strength-2 covering array over the six knobs: every pair of
/// values of any two knobs appears in some row. Row 0 is the all-off
/// reference, row 1 the default configuration on two threads. Each
/// column is a distinct 3-subset of rows 1–5 containing row 1, so any
/// two columns share a row (1, 1), each has a row the other lacks
/// (1, 0) and (0, 1), and row 0 gives (0, 0).
pub const KNOB_ROWS: [Knobs; 6] = [
    [false, false, false, false, false, false],
    [true, true, true, true, true, true],
    [true, true, true, false, false, false],
    [true, false, false, true, true, false],
    [false, true, false, true, false, true],
    [false, false, true, false, true, true],
];

/// A fixed-iteration MXR search of `problem` under `knobs`.
pub fn search(problem: &Problem, knobs: Knobs) -> Outcome {
    let [incremental, bounded, splice, bitmap, eval_cache, two_threads] = knobs;
    let backend = if bitmap {
        OccupancyBackend::Bitmap
    } else {
        OccupancyBackend::Flat
    };
    let problem = problem
        .clone()
        .with_suffix_splice(splice)
        .with_occupancy_backend(backend);
    let cfg = SearchConfig {
        incremental,
        bounded,
        eval_cache,
        threads: if two_threads { 2 } else { 1 },
        ..search_config()
    };
    optimize(&problem, Strategy::Mxr, &cfg).unwrap()
}

/// Fixed-iteration searches: without a wall-clock limit, every knob
/// setting must walk the same trajectory.
pub fn search_config() -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: 12,
        ..SearchConfig::default()
    }
}

/// Runs `check` on every small instance, tagged `label/priority`: the
/// first of each family under partial critical path, the second under
/// mobility, so each check sees both families, χ and both strategies.
pub fn each_search(mut check: impl FnMut(&str, &Problem)) {
    for family in [paper_family(), comm_family()] {
        for ((label, base, _), priority) in family.into_iter().zip(PRIORITIES) {
            check(
                &format!("{label}/{priority}"),
                &base.with_priority_strategy(priority),
            );
        }
    }
}

/// `b` walked `a`'s trajectory: same design, cost, tabu iterations and
/// greedy steps.
pub fn assert_same_trajectory(tag: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.design, b.design, "{tag}: design");
    assert_eq!(a.schedule.cost(), b.schedule.cost(), "{tag}: cost");
    assert_eq!(
        a.stats.tabu_iterations, b.stats.tabu_iterations,
        "{tag}: tabu iterations"
    );
    assert_eq!(a.stats.greedy_steps, b.stats.greedy_steps, "{tag}: greedy");
}

/// `b` walked `a`'s trajectory with the same work: evaluations, cache
/// hits and pruned candidates as well.
pub fn assert_same_work(tag: &str, a: &Outcome, b: &Outcome) {
    assert_same_trajectory(tag, a, b);
    assert_eq!(
        a.stats.evaluations, b.stats.evaluations,
        "{tag}: evaluations"
    );
    assert_eq!(a.stats.cache_hits, b.stats.cache_hits, "{tag}: cache hits");
    assert_eq!(a.stats.pruned, b.stats.pruned, "{tag}: pruned");
}

/// Replays the design of `outcome` under every admissible fault
/// scenario of its from-scratch schedule.
fn replay(tag: &str, problem: &Problem, outcome: &Outcome) {
    let schedule = problem.evaluate(&outcome.design).unwrap();
    assert_eq!(
        schedule.cost(),
        outcome.schedule.cost(),
        "{tag}: replayed cost"
    );
    let fm = problem.fault_model();
    for scenario in enumerate_scenarios(&schedule, fm) {
        let report = simulate(&schedule, problem.graph(), fm, &scenario);
        assert!(
            report.all_processes_complete(),
            "{tag}: a process died under {scenario:?}"
        );
        assert_eq!(
            report.max_overrun(),
            None,
            "{tag}: analytic bound overrun under {scenario:?}"
        );
        assert!(
            report.lost_messages().is_empty(),
            "{tag}: lost message under {scenario:?}"
        );
    }
}

/// Runs every covering-array row on each instance under both priority
/// strategies. Every row must walk the all-off row's trajectory, whose
/// design must then survive replay.
pub fn covering_array_agrees(instances: &[Instance]) {
    for (label, base, _) in instances {
        for priority in PRIORITIES {
            let tag = format!("{label}/{priority}");
            let problem = base.clone().with_priority_strategy(priority);
            let reference = search(&problem, KNOB_ROWS[0]);
            for knobs in &KNOB_ROWS[1..] {
                let run = search(&problem, *knobs);
                assert_same_trajectory(&format!("{tag} {knobs:?}"), &reference, &run);
            }
            replay(&tag, &problem, &reference);
        }
    }
}
