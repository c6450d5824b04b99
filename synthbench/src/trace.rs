//! The traced run: per-layer metrics.
//!
//! Spans are taken here, around calls into each layer's public
//! functions; the engine itself is not instrumented. The search is
//! rebuilt from its public pieces — `initial_mpa` → `greedy_mpa_with`
//! → the two staged `TabuSearch` passes stepped one iteration at a
//! time — and must land on the same design, cost and counts as the
//! untraced `optimize` (the trace-fidelity check), or its numbers
//! would describe a different search. Scheduler-layer numbers come
//! from replaying windows sampled along that trajectory through the
//! public `Problem::evaluate*` calls and `schedule_cost_spliced`.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftdes_core::greedy::greedy_mpa_with;
use ftdes_core::initial::initial_mpa;
use ftdes_core::moves::MoveTable;
use ftdes_core::tabu::{TabuPause, TabuSearch};
use ftdes_core::{
    effective_threads, optimize, optimize_bus, optimize_portfolio, BusOptConfig, EvalCache,
    Evaluator, Goal, PolicySpace, Problem, RepairRung, SearchConfig, SearchStats, Strategy,
    WorkerPool,
};
use ftdes_faultsim::most_loaded_node;
use ftdes_model::delta::ProblemDelta;
use ftdes_model::design::Design;
use ftdes_sched::occ_bench::OccBench;
use ftdes_sched::{
    schedule_cost_spliced, CostScratch, PlacementCheckpoints, SchedScratch, Schedule,
};

use crate::inputs::{self, Instance, Workload};
use crate::oracle::{self, Check};
use crate::report::{metric, Metric, Report};
use crate::run::{
    deadline_config, fixed_config, portfolio_config, repair_design, scenarios_for, SETUP_REPS,
};
use crate::stats::{mean, median, ratio};

/// Instances a traced run covers: one per paper-family (structure,
/// distribution) pair, one per cruise-controller slot order.
const TRACE_INSTANCES: usize = 6;
/// Trajectory samples per traced solve (each one replayed window).
const SAMPLES_PER_SOLVE: usize = 6;
/// Repetitions of the cheap probes (cache lookups, bookings), so each
/// reading spans well over the clock's resolution.
const PROBE_REPS: usize = 20;
/// Pool submissions timed by the `parallel.submit_us` probe.
const SUBMITS: usize = 200;
/// The deadline workload's node degradation for the repair probe (it
/// cannot lose a node: its sensors and actuators are pinned).
const CC_DEGRADED_SPEED_PERCENT: u32 = 95;

/// The single-thread configuration the traced search reproduces.
fn search_config(workload: Workload) -> SearchConfig {
    if workload == Workload::CruiseDeadline {
        deadline_config(workload.iterations(), 1)
    } else {
        fixed_config(workload.iterations())
    }
}

/// One solve rebuilt from the public pieces of `optimize`, with spans.
struct TracedSolve {
    design: Design,
    schedule: Schedule,
    stats: SearchStats,
    cache: Arc<EvalCache>,
    initial: Duration,
    greedy: Duration,
    tabu: Duration,
    total: Duration,
    /// Candidates scored by the tabu passes.
    tabu_candidates: usize,
    samples: Vec<(Design, PolicySpace)>,
}

fn traced_optimize(problem: &Problem, cfg: &SearchConfig) -> Result<TracedSolve, String> {
    let started = Instant::now();
    let cache = Arc::new(EvalCache::default());
    let evaluator = Evaluator::with_shared_cache(problem, Arc::clone(&cache));
    let pool = WorkerPool::new(effective_threads(cfg.threads));
    let mut stats = SearchStats::default();

    let t = Instant::now();
    let start = initial_mpa(problem, PolicySpace::Mixed).map_err(|e| e.to_string())?;
    let initial = t.elapsed();

    let t = Instant::now();
    let (mut design, mut schedule) = greedy_mpa_with(
        &evaluator,
        &pool,
        PolicySpace::Mixed,
        start,
        cfg,
        None,
        &mut stats,
    )
    .map_err(|e| e.to_string())?;
    let greedy = t.elapsed();
    let after_greedy = stats.candidates();

    let deadline_met = |s: &Schedule| cfg.goal == Goal::MeetDeadline && s.is_schedulable();
    let t = Instant::now();
    let mut samples = Vec::new();
    if !deadline_met(&schedule) {
        // The staged search of `optimize`: half of the remaining
        // iterations in the re-execution-only subspace, then the full
        // mixed neighbourhood from the stage-1 best.
        let remaining = cfg
            .max_tabu_iterations
            .saturating_sub(stats.tabu_iterations);
        let stage1 = SearchConfig {
            max_tabu_iterations: stats.tabu_iterations + remaining / 2,
            ..cfg.clone()
        };
        let every = (cfg.max_tabu_iterations / SAMPLES_PER_SOLVE).clamp(1, 200);
        for (space, stage_cfg) in [
            (PolicySpace::ReexecutionOnly, &stage1),
            (PolicySpace::Mixed, cfg),
        ] {
            let mut search = TabuSearch::new(
                &evaluator,
                &pool,
                space,
                (design, Arc::new(schedule)),
                stage_cfg,
            );
            while search
                .run(&mut stats, None, Some(1))
                .map_err(|e| e.to_string())?
                == TabuPause::Budget
            {
                if stats.tabu_iterations.is_multiple_of(every) {
                    samples.push((search.best().0, space));
                }
            }
            (design, schedule) = search.into_best();
            if deadline_met(&schedule) {
                break;
            }
        }
    }
    let tabu = t.elapsed();
    if samples.is_empty() {
        samples.push((design.clone(), PolicySpace::Mixed));
    }
    Ok(TracedSolve {
        tabu_candidates: stats.candidates() - after_greedy,
        design,
        schedule,
        stats,
        cache,
        initial,
        greedy,
        tabu,
        total: started.elapsed(),
        samples,
    })
}

/// Sums of the per-layer spans and counts over a traced run.
#[derive(Default)]
struct Acc {
    solves: usize,
    gen_s: f64,
    write_s: f64,
    parse_s: f64,
    new_s: f64,
    problem_kb: f64,
    initial_s: f64,
    greedy_s: f64,
    greedy_steps: usize,
    tabu_s: f64,
    traced_s: f64,
    untraced_s: f64,
    tabu_iterations: usize,
    tabu_candidates: usize,
    stats: SearchStats,
    key_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    full_us: Vec<f64>,
    recording_us: Vec<f64>,
    bookings: Vec<f64>,
    booking_ns: Vec<f64>,
    cost_us: Vec<f64>,
    bounded_us: Vec<f64>,
    resumed_us: Vec<f64>,
    spliced_us: Vec<f64>,
    splice_tried: usize,
    bus_opt_s: f64,
    bus_opt_probes: usize,
    repairs: usize,
    repair_localized_s: f64,
    repair_warm_s: f64,
    repair_scratch_s: f64,
    repair_rung: f64,
    repair_candidates: usize,
    portfolios: usize,
    epochs: usize,
    exchanges: usize,
    speedup: Vec<f64>,
    submit_us: Vec<f64>,
    window_speedup: Vec<f64>,
    scenarios: usize,
    replay_s: f64,
    verify_s: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn apply(
    design: &mut Design,
    table: &MoveTable,
    mv: ftdes_core::moves::MoveRef,
) -> ftdes_model::design::ProcessDesign {
    let old = design.decision(mv.process).clone();
    design.set_decision(mv.process, table.decision(mv).clone());
    old
}

/// Replays one sampled window through every scheduler entry point.
fn replay_window(
    problem: &Problem,
    cfg: &SearchConfig,
    design: &Design,
    space: PolicySpace,
    acc: &mut Acc,
) -> Result<(), String> {
    let err = |e: ftdes_sched::SchedError| e.to_string();
    let t = Instant::now();
    let schedule = problem.evaluate(design).map_err(err)?;
    acc.full_us.push(us(t.elapsed()));

    let mut sched_scratch = SchedScratch::default();
    let mut ckpts = PlacementCheckpoints::new();
    let t = Instant::now();
    problem
        .evaluate_recording(design, &mut sched_scratch, Some(&mut ckpts))
        .map_err(err)?;
    acc.recording_us.push(us(t.elapsed()));

    booking_probe(problem, &schedule, acc);

    let table = MoveTable::new(problem, space);
    let critical = schedule.move_candidates(problem.graph(), cfg.min_move_candidates);
    let mut window = Vec::new();
    table.window(design, &critical, &mut window);
    window.truncate(cfg.max_moves_per_iteration.max(1));
    let bound = Some(schedule.cost());
    let mut work = design.clone();
    let mut scratch = CostScratch::default();
    let opts = problem.schedule_options();
    for &mv in &window {
        let old = apply(&mut work, &table, mv);

        let t = Instant::now();
        problem.evaluate_cost(&work, &mut scratch).map_err(err)?;
        acc.cost_us.push(us(t.elapsed()));

        let t = Instant::now();
        problem
            .evaluate_cost_bounded(&work, &mut scratch, bound)
            .map_err(err)?;
        acc.bounded_us.push(us(t.elapsed()));

        let t = Instant::now();
        problem
            .evaluate_cost_resumed(&work, mv.process, &mut scratch, &ckpts, bound)
            .map_err(err)?;
        acc.resumed_us.push(us(t.elapsed()));

        let t = Instant::now();
        let spliced = schedule_cost_spliced(
            problem.graph(),
            problem.arch(),
            problem.dense_wcet(),
            problem.fault_model(),
            problem.bus(),
            &work,
            mv.process,
            opts,
            &mut scratch,
            &ckpts,
            bound,
        )
        .map_err(err)?;
        let elapsed = t.elapsed();
        acc.splice_tried += 1;
        if spliced.is_some() {
            acc.spliced_us.push(us(elapsed));
        }

        work.set_decision(mv.process, old);
    }
    Ok(())
}

/// Re-books the schedule's messages into a fresh booking table, each
/// requested at its sender's worst-case finish (where the scheduler
/// books it), in slot-start order.
fn booking_probe(problem: &Problem, schedule: &Schedule, acc: &mut Acc) {
    let bus = problem.bus();
    let mut requests: Vec<(u64, usize, u32, u64)> = schedule
        .bookings()
        .iter()
        .map(|(_, sender, booked)| {
            let slot = schedule.slot(sender);
            let (round, _) = bus.next_slot_at(booked.sender, slot.worst_finish);
            (booked.start.as_us(), booked.slot, booked.size, round)
        })
        .collect();
    requests.sort_unstable();
    acc.bookings.push(requests.len() as f64);
    if requests.is_empty() {
        return;
    }
    let capacity = bus.slot_bytes();
    let mut occ = OccBench::new(problem.schedule_options().occupancy);
    let t = Instant::now();
    for _ in 0..PROBE_REPS {
        occ.clear();
        for &(_, slot, size, round) in &requests {
            std::hint::black_box(occ.book(slot, round, size, capacity));
        }
    }
    acc.booking_ns
        .push(t.elapsed().as_secs_f64() * 1e9 / (PROBE_REPS * requests.len()) as f64);
}

/// Key construction and hit latency of the solve's own cache, probed
/// with designs the search scored.
fn cache_probe(problem: &Problem, solve: &TracedSolve, acc: &mut Acc) -> Result<(), String> {
    let evaluator = Evaluator::with_shared_cache(problem, Arc::clone(&solve.cache));
    for (design, _) in &solve.samples {
        let t = Instant::now();
        for _ in 0..PROBE_REPS {
            std::hint::black_box(evaluator.design_key(design));
        }
        acc.key_ns
            .push(t.elapsed().as_secs_f64() * 1e9 / PROBE_REPS as f64);
        let t = Instant::now();
        let mut hits = 0;
        for _ in 0..PROBE_REPS {
            let (_, hit) = evaluator.evaluate(design).map_err(|e| e.to_string())?;
            hits += usize::from(hit);
        }
        if hits == PROBE_REPS {
            acc.hit_ns
                .push(t.elapsed().as_secs_f64() * 1e9 / PROBE_REPS as f64);
        }
    }
    Ok(())
}

/// Aggregate candidate throughput of a 2-worker portfolio over a
/// 1-worker one, at the workload's goal.
fn portfolio_probe(workload: Workload, inst: &Instance, acc: &mut Acc) -> Result<(), String> {
    let mut rate = [0.0f64; 2];
    for (i, workers) in [1usize, 2].into_iter().enumerate() {
        let cfg = if workload == Workload::CruiseDeadline {
            deadline_config(workload.iterations(), workers)
        } else {
            fixed_config(workload.iterations() / 4)
        };
        let cfg = SearchConfig {
            threads: workers,
            ..cfg
        };
        let t = Instant::now();
        let p = optimize_portfolio(
            &inst.problem,
            PolicySpace::Mixed,
            &cfg,
            &portfolio_config(inst.seed, workers),
        )
        .map_err(|e| format!("portfolio failed: {e}"))?;
        rate[i] = p.outcome.stats.candidates() as f64 / t.elapsed().as_secs_f64();
        if workers == 2 {
            acc.epochs += p.epochs;
            acc.exchanges += p.exchanges;
        }
    }
    acc.portfolios += 1;
    acc.speedup.push(rate[1] / rate[0]);
    Ok(())
}

/// Window parallelism: the latency of one pool submission, and a
/// sampled window scored on a 2-thread pool against a 1-thread one.
fn parallel_probe(problem: &Problem, design: &Design, acc: &mut Acc) -> Result<(), String> {
    let pool = WorkerPool::new(2);
    let items = [0u64; 8];
    let mut samples = Vec::with_capacity(SUBMITS);
    for _ in 0..SUBMITS {
        let t = Instant::now();
        let out = pool
            .try_map_init(&items, || (), |(), _, &x| Ok::<_, Infallible>(Some(x)))
            .unwrap_or_else(|e| match e {});
        std::hint::black_box(out);
        samples.push(us(t.elapsed()));
    }
    acc.submit_us.push(median(&samples));

    let schedule = problem.evaluate(design).map_err(|e| e.to_string())?;
    let table = MoveTable::new(problem, PolicySpace::Mixed);
    let critical = schedule.move_candidates(problem.graph(), 8);
    let mut window = Vec::new();
    table.window(design, &critical, &mut window);
    let mut best = [f64::INFINITY; 2];
    for (i, threads) in [1usize, 2].into_iter().enumerate() {
        let pool = WorkerPool::new(threads);
        for _ in 0..3 {
            let t = Instant::now();
            pool.try_map_init(
                &window,
                || (design.clone(), CostScratch::default()),
                |(work, scratch), _, &mv| {
                    let old = apply(work, &table, mv);
                    let cost = problem.evaluate_cost(work, scratch);
                    work.set_decision(mv.process, old);
                    cost.map(Some)
                },
            )
            .map_err(|e| e.to_string())?;
            best[i] = best[i].min(t.elapsed().as_secs_f64());
        }
    }
    acc.window_speedup.push(best[0] / best[1]);
    Ok(())
}

/// The repair ladder after losing (or, on the cruise controller,
/// slowing) the most-loaded node.
fn repair_probe(
    workload: Workload,
    inst: &Instance,
    design: &Design,
    schedule: &Schedule,
    acc: &mut Acc,
) -> Result<(), String> {
    let victim = most_loaded_node(schedule).ok_or("solved schedule is empty")?;
    let delta = if workload == Workload::CruiseDeadline {
        ProblemDelta::degrade_node(victim, CC_DEGRADED_SPEED_PERCENT)
    } else {
        ProblemDelta::kill_node(victim)
    };
    let (out, _) = repair_design(&inst.problem, design, &delta)?;
    for a in &out.attempts {
        let s = a.elapsed.as_secs_f64();
        match a.rung {
            RepairRung::Localized => acc.repair_localized_s += s,
            RepairRung::Warm => acc.repair_warm_s += s,
            RepairRung::Scratch => acc.repair_scratch_s += s,
            RepairRung::Revalidate => {}
        }
    }
    acc.repairs += 1;
    acc.repair_rung += out.rung as usize as f64;
    acc.repair_candidates += out.stats.candidates();
    Ok(())
}

/// One pass over the first [`TRACE_INSTANCES`] instances: fixed work,
/// whatever `--seconds` says (the per-layer figures carry no bound).
pub fn measure(workload: Workload, seed: u64) -> Result<Report, String> {
    let mut report = Report::new(workload, seed, true, 1);
    let (instances, setup) = inputs::setup(workload, seed, SETUP_REPS)?;
    let mut acc = Acc {
        gen_s: setup.generate_s,
        write_s: setup.write_s,
        parse_s: setup.parse_s,
        new_s: setup.build_s,
        problem_kb: mean(
            &instances
                .iter()
                .map(|i| i.file_bytes as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
        ..Acc::default()
    };
    let cfg = search_config(workload);
    for inst in instances.iter().take(TRACE_INSTANCES) {
        let problem = &inst.problem;
        // Alternate which of the pair runs first, so warm-up does
        // not bias the overhead estimate.
        let untraced = || {
            let t = Instant::now();
            optimize(problem, Strategy::Mxr, &cfg)
                .map(|o| (o, t.elapsed()))
                .map_err(|e| e.to_string())
        };
        let ((reference, untraced_time), traced) = if acc.solves.is_multiple_of(2) {
            let u = untraced()?;
            (u, traced_optimize(problem, &cfg)?)
        } else {
            let t = traced_optimize(problem, &cfg)?;
            (untraced()?, t)
        };
        acc.untraced_s += untraced_time.as_secs_f64();

        let mut violations = Vec::new();
        let strip = |s: SearchStats| SearchStats {
            elapsed: Duration::ZERO,
            ..s
        };
        if traced.design != reference.design
            || traced.schedule.cost() != reference.schedule.cost()
            || strip(traced.stats) != strip(reference.stats)
        {
            violations.push(format!(
                "trace fidelity: traced search ended on {:?} with {:?}, untraced on {:?} with {:?}",
                traced.schedule.cost(),
                strip(traced.stats),
                reference.schedule.cost(),
                strip(reference.stats)
            ));
        }

        acc.solves += 1;
        acc.initial_s += traced.initial.as_secs_f64();
        acc.greedy_s += traced.greedy.as_secs_f64();
        acc.greedy_steps += traced.stats.greedy_steps;
        acc.tabu_s += traced.tabu.as_secs_f64();
        acc.traced_s += traced.total.as_secs_f64();
        acc.tabu_iterations += traced.stats.tabu_iterations;
        acc.tabu_candidates += traced.tabu_candidates;
        acc.stats.evaluations += traced.stats.evaluations;
        acc.stats.cache_hits += traced.stats.cache_hits;
        acc.stats.pruned += traced.stats.pruned;

        cache_probe(problem, &traced, &mut acc)?;
        for (design, space) in &traced.samples {
            replay_window(problem, &cfg, design, *space, &mut acc)?;
        }

        let bus_cfg = BusOptConfig {
            threads: 1,
            ..BusOptConfig::default()
        };
        let t = Instant::now();
        let bused = optimize_bus(problem, &reference.design, &bus_cfg)
            .map_err(|e| format!("bus-access optimization failed: {e}"))?;
        acc.bus_opt_s += t.elapsed().as_secs_f64();
        acc.bus_opt_probes += bused.stats.candidates();

        let verdict = oracle::verify(&Check {
            problem,
            bus: problem.bus(),
            design: &reference.design,
            schedule: &reference.schedule,
            scenarios: scenarios_for(workload, inst.seed),
            require_schedulable: workload == Workload::CruiseDeadline,
            killed: None,
        });
        violations.extend(verdict.violations.iter().cloned());
        acc.scenarios += verdict.scenarios;
        acc.replay_s += verdict.replay.as_secs_f64();
        acc.verify_s += verdict.total.as_secs_f64();
        report.record("traced solve", &violations);

        repair_probe(
            workload,
            inst,
            &reference.design,
            &reference.schedule,
            &mut acc,
        )?;
        portfolio_probe(workload, inst, &mut acc)?;
        parallel_probe(problem, &traced.samples[0].0, &mut acc)?;
    }

    let solves = acc.solves as f64;
    let candidates = acc.stats.candidates() as f64;
    let m = |name, value, unit| -> Metric { metric(name, value, unit) };
    report.metrics = vec![
        m("gen.workload_s", acc.gen_s, "s"),
        m("io.write_s", acc.write_s, "s"),
        m("io.parse_s", acc.parse_s, "s"),
        m("io.problem_kb", acc.problem_kb, "KiB"),
        m("problem.new_s", acc.new_s, "s"),
        m("initial.s", acc.initial_s / solves, "s"),
        m("greedy.s", acc.greedy_s / solves, "s"),
        m("greedy.steps", acc.greedy_steps as f64 / solves, "count"),
        m(
            "tabu.iterations",
            acc.tabu_iterations as f64 / solves,
            "count",
        ),
        m(
            "tabu.iter_us",
            ratio(acc.tabu_s * 1e6, acc.tabu_iterations as f64),
            "us",
        ),
        m(
            "tabu.candidates_per_iter",
            ratio(acc.tabu_candidates as f64, acc.tabu_iterations as f64),
            "count",
        ),
        m("tabu.self_share", ratio(acc.tabu_s, acc.traced_s), "ratio"),
        m(
            "cache.hit_ratio",
            ratio(acc.stats.cache_hits as f64, acc.stats.lookups() as f64),
            "ratio",
        ),
        m("cache.hit_ns", median(&acc.hit_ns), "ns"),
        m("cache.key_ns", median(&acc.key_ns), "ns"),
        m(
            "cache.entries",
            acc.stats.evaluations as f64 / solves,
            "count",
        ),
        m("sched.full_us", median(&acc.full_us), "us"),
        m("sched.recording_us", median(&acc.recording_us), "us"),
        m("sched.cost_us", mean(&acc.cost_us), "us"),
        m("sched.bounded_us", mean(&acc.bounded_us), "us"),
        m(
            "sched.prune_ratio",
            ratio(acc.stats.pruned as f64, candidates),
            "ratio",
        ),
        m("sched.bookings", mean(&acc.bookings), "count"),
        m(
            "sched.ns_per_booking",
            median_or_zero(&acc.booking_ns),
            "ns",
        ),
        m("incr.resumed_us", mean(&acc.resumed_us), "us"),
        m("incr.spliced_us", mean_or_zero(&acc.spliced_us), "us"),
        m(
            "incr.splice_engaged_ratio",
            ratio(acc.spliced_us.len() as f64, acc.splice_tried as f64),
            "ratio",
        ),
        m("bus_opt.s", acc.bus_opt_s / solves, "s"),
        m(
            "bus_opt.probes",
            acc.bus_opt_probes as f64 / solves,
            "count",
        ),
        m(
            "bus_opt.probe_us",
            ratio(acc.bus_opt_s * 1e6, acc.bus_opt_probes as f64),
            "us",
        ),
        m(
            "repair.localized_s",
            acc.repair_localized_s / acc.repairs as f64,
            "s",
        ),
        m("repair.warm_s", acc.repair_warm_s / acc.repairs as f64, "s"),
        m(
            "repair.scratch_s",
            acc.repair_scratch_s / acc.repairs as f64,
            "s",
        ),
        m("repair.rung", acc.repair_rung / acc.repairs as f64, "rung"),
        m(
            "repair.candidates",
            acc.repair_candidates as f64 / acc.repairs as f64,
            "count",
        ),
        m(
            "portfolio.epochs",
            acc.epochs as f64 / acc.portfolios as f64,
            "count",
        ),
        m(
            "portfolio.exchanges",
            acc.exchanges as f64 / acc.portfolios as f64,
            "count",
        ),
        m("portfolio.speedup_vs_1w", median(&acc.speedup), "x"),
        m("parallel.submit_us", median(&acc.submit_us), "us"),
        m(
            "parallel.window_speedup_2t",
            median(&acc.window_speedup),
            "x",
        ),
        m("faultsim.scenarios", acc.scenarios as f64 / solves, "count"),
        m(
            "faultsim.replay_us",
            ratio(acc.replay_s * 1e6, acc.scenarios as f64),
            "us",
        ),
        m("faultsim.verify_s", acc.verify_s / solves, "s"),
        m(
            "trace.overhead_share",
            ratio(acc.traced_s, acc.untraced_s) - 1.0,
            "ratio",
        ),
    ];
    report.extra = vec![
        metric("solves", solves, "count"),
        metric("untraced_solve_s", acc.untraced_s / solves, "s"),
        metric("traced_solve_s", acc.traced_s / solves, "s"),
    ];
    Ok(report)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        mean(v)
    }
}
