//! Micro-profile of the certified bus-wait lower bound on the
//! communication-heavy gate workload: per-candidate bounded
//! evaluation cost and prune composition with the bound on vs off,
//! over real tabu windows.
//!
//! Reads the same `FTDES_*` knobs as the other bench bins (see
//! `ftdes-bench`'s crate docs).

use std::time::Instant;

use ftdes_bench::comm_heavy_problem_with;
use ftdes_core::moves::MoveTable;
use ftdes_core::{initial, OccupancyBackend, PolicySpace, Problem};
use ftdes_model::time::Time;
use ftdes_sched::{CostOutcome, CostScratch, PlacementCheckpoints, SchedScratch};

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    exact: usize,
    pruned: usize,
    exact_us: f64,
    pruned_us: f64,
}

fn profile(problem: &Problem, label: &str) -> Totals {
    let design = initial::initial_mpa(problem, PolicySpace::Mixed).expect("placeable");
    let mut ckpts = PlacementCheckpoints::new();
    let mut core = SchedScratch::default();
    let mut scratch = CostScratch::default();
    let schedule = problem
        .evaluate_recording(&design, &mut core, Some(&mut ckpts))
        .expect("schedules");
    let base_cost = schedule.cost();
    let cp = schedule.move_candidates(problem.graph(), 8);
    let table = MoveTable::new(problem, PolicySpace::Mixed);
    let mut window = Vec::new();
    table.window(&design, &cp, &mut window);

    let reps = 200u32;
    let mut totals = Totals::default();
    let mut d = design.clone();
    for mv in &window {
        let prev = d.replace_decision(mv.process, table.decision(*mv).clone());
        let mut outcome = CostOutcome::Exact(base_cost);
        let started = Instant::now();
        for _ in 0..reps {
            outcome = problem
                .evaluate_cost_bounded(&d, &mut scratch, Some(base_cost))
                .expect("generated problem schedules");
            std::hint::black_box(&outcome);
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        match outcome {
            CostOutcome::Exact(_) => {
                totals.exact += 1;
                totals.exact_us += us;
            }
            CostOutcome::LowerBound(_) => {
                totals.pruned += 1;
                totals.pruned_us += us;
            }
        }
        d.set_decision(mv.process, prev);
    }
    println!(
        "  {label}: {} exact ({:.2} us avg) | {} pruned ({:.2} us avg)",
        totals.exact,
        totals.exact_us / totals.exact.max(1) as f64,
        totals.pruned,
        totals.pruned_us / totals.pruned.max(1) as f64,
    );
    totals
}

fn diag(problem: &Problem) {
    let design = initial::initial_mpa(problem, PolicySpace::Mixed).expect("placeable");
    let expanded = ftdes_sched::ExpandedDesign::expand(
        problem.graph(),
        &design,
        problem.dense_wcet(),
        problem.fault_model(),
    )
    .expect("generated problem schedules");
    let bus = problem.bus();
    let nodes = problem.arch().node_count();
    let mut bytes = vec![0u64; nodes];
    for edge in problem.graph().edges() {
        let prods = expanded.of_process(edge.from);
        if prods.len() != 1 {
            continue;
        }
        let sender = expanded.instance(prods[0]).node;
        if expanded
            .of_process(edge.to)
            .iter()
            .any(|&t| expanded.instance(t).node != sender)
        {
            bytes[sender.index()] += u64::from(edge.message.size);
        }
    }
    let cost = problem
        .evaluate(&design)
        .expect("generated problem schedules")
        .length();
    let cap = u64::from(bus.slot_bytes());
    print!(
        "  diag: length {cost}, cap {cap}, round {}, bytes/slot [",
        bus.round_length()
    );
    for (n, &b) in bytes.iter().enumerate() {
        let occ = b.div_ceil(cap.max(1));
        let arr = if b == 0 {
            Time::ZERO
        } else {
            bus.slot_end(
                occ - 1,
                bus.slot_of_node(ftdes_model::ids::NodeId::new(n as u32)),
            )
        };
        print!("{b}B->{arr} ");
    }
    println!("]");
}

fn main() {
    let ratio: f64 = std::env::var("COMM_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.5);
    let density: f64 = std::env::var("COMM_DENSITY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    println!("ratio {ratio}, density {density}");
    for seed in 0..3u64 {
        let procs: usize = std::env::var("COMM_PROCS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(30);
        let params = ftdes_gen::CommHeavyParams::dense(procs)
            .with_ratio(ratio)
            .with_density(density);
        let problem = comm_heavy_problem_with(&params, 4, 2, Time::from_ms(5), seed);
        println!(
            "seed {seed}: {} processes / {} edges",
            problem.process_count(),
            problem.graph().edge_count()
        );
        diag(&problem);
        let off = profile(
            &problem
                .clone()
                .with_comm_lookahead(false)
                .with_occupancy_backend(OccupancyBackend::Flat),
            "pr2 path ",
        );
        let on = profile(&problem, "this path");
        let total_off = off.exact_us + off.pruned_us;
        let total_on = on.exact_us + on.pruned_us;
        println!(
            "  window total: off {total_off:.1} us, on {total_on:.1} us \
             ({:+.1}%), prunes off {} -> on {}",
            100.0 * (total_on - total_off) / total_off.max(1e-9),
            off.pruned,
            on.pruned,
        );
    }
}
