//! Phase profile of one candidate evaluation — where does the
//! optimizer's cost function spend its time?
//!
//! Times the stages of `ListScheduling` (design expansion, priority
//! computation, the placement loop) plus the fresh-allocation vs
//! scratch-reuse delta, on the perfgate workload. Used to direct
//! hot-path work; not part of the perf gate itself.

use std::time::Instant;

use ftdes_bench::synthetic_problem;
use ftdes_core::moves::MoveTable;
use ftdes_core::{initial, Evaluator, PolicySpace};
use ftdes_model::time::Time;
use ftdes_sched::{
    CostScratch, ExpandedDesign, PlacementCheckpoints, SchedScratch, ScheduleOptions,
};

fn main() {
    let problem = synthetic_problem(40, 4, 3, Time::from_ms(5), 0);
    let design = initial::initial_mpa(&problem, PolicySpace::Mixed).expect("placeable");
    let reps = 20_000u32;

    // Full evaluation, fresh allocations.
    let started = Instant::now();
    for _ in 0..reps {
        let s = problem.evaluate(&design).expect("schedules");
        std::hint::black_box(s.length());
    }
    let fresh = started.elapsed();

    // Full evaluation through the scratch-reusing path.
    let mut scratch = SchedScratch::default();
    let started = Instant::now();
    for _ in 0..reps {
        let s = problem
            .evaluate_scratch(&design, &mut scratch)
            .expect("schedules");
        std::hint::black_box(s.length());
    }
    let scratched = started.elapsed();

    // Through the evaluator (adds fingerprint + cache probe).
    let evaluator = Evaluator::new(&problem);
    let started = Instant::now();
    for _ in 0..reps {
        let (cost, _) = evaluator.evaluate(&design).expect("schedules");
        std::hint::black_box(cost);
    }
    let memoized = started.elapsed();

    // Expansion alone.
    let started = Instant::now();
    for _ in 0..reps {
        let e = ExpandedDesign::expand(
            problem.graph(),
            &design,
            problem.wcet(),
            problem.fault_model(),
        )
        .expect("expands");
        std::hint::black_box(e.len());
    }
    let expansion = started.elapsed();

    // Priority computation alone (on a fixed expansion).
    let expanded = ExpandedDesign::expand(
        problem.graph(),
        &design,
        problem.wcet(),
        problem.fault_model(),
    )
    .expect("expands");
    let started = Instant::now();
    for _ in 0..reps {
        let p = ftdes_sched::priority::Priorities::compute(
            problem.graph(),
            &expanded,
            problem.bus(),
            problem.schedule_options().priority,
        )
        .expect("acyclic");
        std::hint::black_box(p.rank(0.into()));
    }
    let priorities = started.elapsed();

    // Cost-only evaluation, from scratch: the window path without
    // checkpoints or bounds.
    let mut cost_scratch = CostScratch::default();
    let started = Instant::now();
    for _ in 0..reps {
        let c = problem
            .evaluate_cost(&design, &mut cost_scratch)
            .expect("schedules");
        std::hint::black_box(c);
    }
    let cost_only = started.elapsed();

    // Incremental + bounded single-move evaluation: record the base
    // once, then replay one real neighbourhood move per rep.
    let mut ckpts = PlacementCheckpoints::new();
    let mut core = SchedScratch::default();
    let schedule = problem
        .evaluate_recording(&design, &mut core, Some(&mut ckpts))
        .expect("schedules");
    let base_cost = schedule.cost();
    let table = MoveTable::new(&problem, PolicySpace::Mixed);
    let cp = schedule.move_candidates(problem.graph(), 8);
    let mut window = Vec::new();
    table.window(&design, &cp, &mut window);
    let mv = window[window.len() / 2];
    let mut cand = design.clone();
    cand.set_decision(mv.process, table.decision(mv).clone());
    let mut resumed_of = |bound| {
        let started = Instant::now();
        for _ in 0..reps {
            let c = ftdes_sched::schedule_cost_resumed(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &cand,
                mv.process,
                ScheduleOptions::default(),
                &mut cost_scratch,
                &ckpts,
                bound,
            )
            .expect("schedules");
            std::hint::black_box(c);
        }
        started.elapsed()
    };
    let resumed = resumed_of(None);
    let resumed_bounded = resumed_of(Some(base_cost));

    let per = |d: std::time::Duration| d.as_secs_f64() * 1e6 / f64::from(reps);
    println!("per-evaluation phase times over {reps} reps:");
    println!("  fresh allocations : {:8.2} us", per(fresh));
    println!("  scratch reuse     : {:8.2} us", per(scratched));
    println!("  memoized (all hits): {:7.2} us", per(memoized));
    println!("  expansion only    : {:8.2} us", per(expansion));
    println!("  priorities only   : {:8.2} us", per(priorities));
    println!("  cost-only         : {:8.2} us", per(cost_only));
    println!("  resumed move      : {:8.2} us", per(resumed));
    println!("  resumed + bounded : {:8.2} us", per(resumed_bounded));
}
