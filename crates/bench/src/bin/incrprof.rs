//! Micro-profile of the incremental evaluation path over a real tabu
//! window: from-scratch cost vs the PR 2 checkpoint-resumed replay vs
//! the suffix-spliced (engine v3) path, unbounded and bounded, per
//! move of the perfgate workload's first window.

use std::time::Instant;

use ftdes_bench::synthetic_problem;
use ftdes_core::moves::MoveTable;
use ftdes_core::{initial, PolicySpace};
use ftdes_model::time::Time;
use ftdes_sched::{
    schedule_cost_bounded, schedule_cost_resumed, schedule_cost_spliced, CostOutcome, CostScratch,
    PlacementCheckpoints, ScheduleOptions,
};

fn main() {
    let problem = synthetic_problem(40, 4, 3, Time::from_ms(5), 0);
    let initial = initial::initial_mpa(&problem, PolicySpace::Mixed).expect("placeable");
    // A steady-state design too: windows deep in the search carry
    // replicated decisions whose moves dirty more nodes, so the
    // splice engine's cone (and with it the profitability gate)
    // behaves differently than on the fresh initial design.
    let steady = {
        let cfg = ftdes_core::SearchConfig {
            goal: ftdes_core::Goal::MinimizeLength,
            time_limit: None,
            max_tabu_iterations: 150,
            ..ftdes_core::SearchConfig::default()
        };
        ftdes_core::optimize(&problem, ftdes_core::Strategy::Mxr, &cfg)
            .expect("search")
            .design
    };
    for (design, label) in [(initial, "initial design"), (steady, "steady-state design")] {
        println!("== window of the {label} ==");
        profile_window(&problem, design);
    }
}

fn profile_window(problem: &ftdes_core::Problem, design: ftdes_model::design::Design) {
    let mut ckpts = PlacementCheckpoints::new();
    let mut scratch = CostScratch::default();
    let mut core = ftdes_sched::SchedScratch::default();
    let schedule = problem
        .evaluate_recording(&design, &mut core, Some(&mut ckpts))
        .expect("schedules");
    let base_cost = schedule.cost();
    let cp = schedule.move_candidates(problem.graph(), 8);
    let table = MoveTable::new(problem, PolicySpace::Mixed);
    let mut window = Vec::new();
    table.window(&design, &cp, &mut window);
    println!("window: {} moves, base cost {:?}", window.len(), base_cost);

    let reps = 2000u32;
    let time_of = |f: &mut dyn FnMut()| -> f64 {
        let started = Instant::now();
        for _ in 0..reps {
            f();
        }
        started.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
    };

    // The recording overhead the splice engine adds to each winner
    // materialization (segments on) vs the PR 2/3 recording.
    {
        let pr3 = problem.clone().with_suffix_splice(false);
        let mut rec_core = ftdes_sched::SchedScratch::default();
        let mut rec_ckpts = PlacementCheckpoints::new();
        let with_segments = time_of(&mut || {
            let s = problem
                .evaluate_recording(&design, &mut rec_core, Some(&mut rec_ckpts))
                .expect("generated problem schedules");
            std::hint::black_box(s.cost());
        });
        let without = time_of(&mut || {
            let s = pr3
                .evaluate_recording(&design, &mut rec_core, Some(&mut rec_ckpts))
                .expect("generated problem schedules");
            std::hint::black_box(s.cost());
        });
        println!("winner materialization + recording (per iteration):");
        println!("  with segment recording : {with_segments:7.2} us");
        println!("  snapshots only (pr3)   : {without:7.2} us");
    }

    // The PR 2 path: checkpoint-resumed replay, splice disabled.
    let pr2 = ScheduleOptions {
        suffix_splice: false,
        ..problem.schedule_options()
    };
    let mut d = design.clone();
    let mut total_scratch = 0.0;
    let mut total_resumed = 0.0;
    let mut total_spliced = 0.0;
    let mut total_bounded_scratch = 0.0;
    let mut total_bounded_resumed = 0.0;
    let mut total_bounded_spliced = 0.0;
    let mut pruned = 0usize;
    let mut spliced_moves = 0usize;
    for mv in &window {
        let prev = d.replace_decision(mv.process, table.decision(*mv).clone());
        total_scratch += time_of(&mut || {
            let c = schedule_cost_bounded(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &d,
                problem.schedule_options(),
                &mut scratch,
                None,
            )
            .expect("generated problem schedules");
            std::hint::black_box(c.cost());
        });
        total_resumed += time_of(&mut || {
            let c = schedule_cost_resumed(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &d,
                mv.process,
                pr2,
                &mut scratch,
                &ckpts,
                None,
            )
            .expect("generated problem schedules");
            std::hint::black_box(c.cost());
        });
        total_spliced += time_of(&mut || {
            let c = schedule_cost_spliced(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &d,
                mv.process,
                problem.schedule_options(),
                &mut scratch,
                &ckpts,
                None,
            )
            .expect("generated problem schedules");
            std::hint::black_box(c.map(|o| o.cost()));
        });
        total_bounded_scratch += time_of(&mut || {
            let c = schedule_cost_bounded(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &d,
                problem.schedule_options(),
                &mut scratch,
                Some(base_cost),
            )
            .expect("generated problem schedules");
            std::hint::black_box(c.cost());
        });
        total_bounded_resumed += time_of(&mut || {
            let c = schedule_cost_resumed(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &d,
                mv.process,
                pr2,
                &mut scratch,
                &ckpts,
                Some(base_cost),
            )
            .expect("generated problem schedules");
            std::hint::black_box(c.cost());
        });
        total_bounded_spliced += time_of(&mut || {
            let c = schedule_cost_spliced(
                problem.graph(),
                problem.arch(),
                problem.dense_wcet(),
                problem.fault_model(),
                problem.bus(),
                &d,
                mv.process,
                problem.schedule_options(),
                &mut scratch,
                &ckpts,
                Some(base_cost),
            )
            .expect("generated problem schedules");
            std::hint::black_box(c.map(|o| o.cost()));
        });
        let spliced = schedule_cost_spliced(
            problem.graph(),
            problem.arch(),
            problem.dense_wcet(),
            problem.fault_model(),
            problem.bus(),
            &d,
            mv.process,
            problem.schedule_options(),
            &mut scratch,
            &ckpts,
            Some(base_cost),
        )
        .expect("generated problem schedules");
        if spliced.is_some() {
            spliced_moves += 1;
        }
        let out = schedule_cost_resumed(
            problem.graph(),
            problem.arch(),
            problem.dense_wcet(),
            problem.fault_model(),
            problem.bus(),
            &d,
            mv.process,
            problem.schedule_options(),
            &mut scratch,
            &ckpts,
            Some(base_cost),
        )
        .expect("generated problem schedules");
        if !matches!(out, CostOutcome::Exact(_)) {
            pruned += 1;
        }
        d.set_decision(mv.process, prev);
    }
    let n = window.len() as f64;
    println!("avg per-move microseconds over the window:");
    println!("  from-scratch unbounded : {:7.2}", total_scratch / n);
    println!("  pr2-resumed unbounded  : {:7.2}", total_resumed / n);
    println!("  spliced unbounded      : {:7.2}", total_spliced / n);
    println!(
        "  from-scratch bounded   : {:7.2}",
        total_bounded_scratch / n
    );
    println!(
        "  pr2-resumed bounded    : {:7.2}",
        total_bounded_resumed / n
    );
    println!(
        "  spliced bounded        : {:7.2}",
        total_bounded_spliced / n
    );
    println!(
        "  pruned: {pruned}/{}, splice engaged: {spliced_moves}/{}",
        window.len(),
        window.len()
    );
}
