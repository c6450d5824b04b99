//! The untraced run: each workload's operation in a closed loop, one
//! operation after the other, timed from outside the library.
//!
//! Every search runs at a fixed iteration budget with no wall-clock
//! limit (the cruise controller stops at its first schedulable
//! design, which is just as deterministic), so two builds do
//! bit-identical work and wall time is the only thing that varies.
//! Rounds cover every instance once; `--seconds` fixes how many
//! ([`Workload::rounds`]). Each instance is summarized by its fastest
//! repeat, the run by smoothed medians and quantiles over instances
//! ([`band`]).

use std::time::{Duration, Instant};

use ftdes_core::{
    optimize, optimize_bus, optimize_portfolio, repair, BusOptConfig, Goal, PolicySpace,
    PortfolioConfig, Problem, RepairBudget, RepairOutcome, SearchConfig, Strategy,
};
use ftdes_faultsim::most_loaded_node;
use ftdes_model::delta::ProblemDelta;
use ftdes_model::design::Design;
use ftdes_sched::{Schedule, ScheduleCost};
use ftdes_ttp::config::BusConfig;

use crate::host::HostSpeed;
use crate::inputs::{self, Instance, Workload};
use crate::oracle::{self, Check, Scenarios};
use crate::report::{metric, peak_rss_mb, Report};
use crate::stats::{band, median, ratio};

/// Set-up repetitions per run; `setup_s` is their median. The
/// untraced run spreads them between its solves, so that the median
/// reads the host across the whole run rather than one moment of it.
pub const SETUP_REPS: usize = 21;
/// `solve_tail_s` is this quantile over a run's instances: with 30,
/// the highest percentile with ten instances beyond it.
pub const TAIL_QUANTILE: f64 = 2.0 / 3.0;
/// Random fault scenarios replayed per design besides the adversarial
/// one (the cruise controller replays all of them instead).
pub const RANDOM_SCENARIOS: usize = 32;
/// Tabu-iteration cap of the repair ladder's searches.
pub const REPAIR_ITERATIONS: usize = 150;
/// Evaluation threads of the deadline workload's portfolio.
pub const PORTFOLIO_WORKERS: usize = 2;

/// The fixed-work configuration: minimize δ for exactly `iterations`
/// tabu iterations on one evaluation thread.
pub fn fixed_config(iterations: usize) -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: iterations,
        threads: 1,
        ..SearchConfig::default()
    }
}

/// The synthesis configuration: stop at the first schedulable design.
pub fn deadline_config(iterations: usize, threads: usize) -> SearchConfig {
    SearchConfig {
        goal: Goal::MeetDeadline,
        time_limit: None,
        max_tabu_iterations: iterations,
        threads,
        ..SearchConfig::default()
    }
}

/// Rung slices far beyond what the iteration caps let any rung use,
/// so the ladder's path is decided by work, never by the clock.
pub fn repair_budget() -> RepairBudget {
    RepairBudget {
        localized: Duration::from_secs(60),
        warm: Duration::from_secs(60),
        scratch: Duration::from_secs(60),
    }
}

pub fn portfolio_config(seed: u64, workers: usize) -> PortfolioConfig {
    PortfolioConfig {
        workers,
        seed: seed ^ PortfolioConfig::default().seed,
        ..PortfolioConfig::default()
    }
}

/// One finished workload operation.
pub struct Solved {
    pub design: Design,
    pub schedule: Schedule,
    /// The bus the schedule runs on.
    pub bus: BusConfig,
    pub candidates: usize,
    pub elapsed: Duration,
    /// Exact counts of the trajectory (JSON object).
    pub counts: String,
}

/// Runs the workload's solve on one instance: MXR at the fixed budget
/// (plus bus-access optimization on `comm_stress`), or the 2-worker
/// deadline portfolio on the cruise controller.
pub fn solve(workload: Workload, inst: &Instance) -> Result<Solved, String> {
    let problem = &inst.problem;
    if workload == Workload::CruiseDeadline {
        let cfg = deadline_config(workload.iterations(), PORTFOLIO_WORKERS);
        let pcfg = portfolio_config(inst.seed, PORTFOLIO_WORKERS);
        let t = Instant::now();
        let p = optimize_portfolio(problem, PolicySpace::Mixed, &cfg, &pcfg)
            .map_err(|e| format!("portfolio failed: {e}"))?;
        let elapsed = t.elapsed();
        let workers: Vec<String> = p
            .workers
            .iter()
            .map(|w| w.tabu_iterations.to_string())
            .collect();
        // The evaluation/hit split of two writers racing on one cache
        // is not deterministic; the trajectory's iteration counts and
        // the merged best are.
        let counts = format!(
            "{{\"instance\": {}, \"tabu_iterations\": {}, \"worker_iterations\": [{}], \
             \"epochs\": {}, \"exchanges\": {}, {}}}",
            inst.seed,
            p.outcome.stats.tabu_iterations,
            workers.join(", "),
            p.epochs,
            p.exchanges,
            cost_fields(p.outcome.schedule.cost()),
        );
        return Ok(Solved {
            candidates: p.outcome.stats.candidates(),
            design: p.outcome.design,
            schedule: p.outcome.schedule,
            bus: problem.bus().clone(),
            elapsed,
            counts,
        });
    }

    let cfg = fixed_config(workload.iterations());
    let t = Instant::now();
    let out = optimize(problem, Strategy::Mxr, &cfg).map_err(|e| format!("MXR failed: {e}"))?;
    let s = out.stats;
    let mut candidates = s.candidates();
    let mut counts = format!(
        "{{\"instance\": {}, \"candidates\": {}, \"tabu_iterations\": {}, \"evaluations\": {}, \
         \"pruned\": {}, \"cache_hits\": {}, \"greedy_steps\": {}",
        inst.seed,
        candidates,
        s.tabu_iterations,
        s.evaluations,
        s.pruned,
        s.cache_hits,
        s.greedy_steps,
    );
    let (schedule, bus) = if workload == Workload::CommStress {
        // `ftdes solve --bus-opt`: optimize the TDMA slot order and
        // capacity for the winner, keep it when it shortens δ.
        let bus_cfg = BusOptConfig {
            threads: 1,
            ..BusOptConfig::default()
        };
        let b = optimize_bus(problem, &out.design, &bus_cfg)
            .map_err(|e| format!("bus-access optimization failed: {e}"))?;
        candidates += b.stats.candidates();
        counts.push_str(&format!(
            ", \"bus_opt_candidates\": {}",
            b.stats.candidates()
        ));
        if b.schedule.cost() < out.schedule.cost() {
            (b.schedule, b.bus)
        } else {
            (out.schedule, problem.bus().clone())
        }
    } else {
        (out.schedule, problem.bus().clone())
    };
    let elapsed = t.elapsed();
    counts.push_str(&format!(", {}}}", cost_fields(schedule.cost())));
    Ok(Solved {
        design: out.design,
        schedule,
        bus,
        candidates,
        elapsed,
        counts,
    })
}

fn cost_fields(cost: ScheduleCost) -> String {
    format!(
        "\"best_length_us\": {}, \"best_violation_us\": {}",
        cost.length.as_us(),
        cost.violation.as_us()
    )
}

/// Runs the warm repair ladder on `design` after `delta` (fresh
/// cache: keys mix the post-delta problem, so a deployed optimizer's
/// cache would miss anyway).
pub fn repair_design(
    problem: &Problem,
    design: &Design,
    delta: &ProblemDelta,
) -> Result<(RepairOutcome, Duration), String> {
    let t = Instant::now();
    let out = repair(
        problem,
        design,
        delta,
        &repair_budget(),
        &fixed_config(REPAIR_ITERATIONS),
    )
    .map_err(|e| format!("repair failed: {e}"))?;
    Ok((out, t.elapsed()))
}

/// The oracle's scenario coverage for a workload.
pub fn scenarios_for(workload: Workload, seed: u64) -> Scenarios {
    if workload == Workload::CruiseDeadline {
        Scenarios::Exhaustive
    } else {
        Scenarios::Sampled {
            random: RANDOM_SCENARIOS,
            seed,
        }
    }
}

/// Per-instance bookkeeping across rounds.
#[derive(Default)]
struct Track {
    /// (wall time, candidates) of every repeat.
    solves: Vec<(f64, usize)>,
    repair_s: Vec<f64>,
    counts: Option<String>,
    repair_counts: Option<String>,
    verified: Option<(Design, ScheduleCost)>,
    repair_verified: Option<(Design, ScheduleCost)>,
    length_ms: f64,
    repair_length_ms: f64,
}

/// Verifies `design` unless this exact design and cost passed before.
fn verify_once(
    cell: &mut Option<(Design, ScheduleCost)>,
    check: &Check<'_>,
    violations: &mut Vec<String>,
) {
    let key = (check.design.clone(), check.schedule.cost());
    if cell.as_ref() == Some(&key) {
        return;
    }
    let verdict = oracle::verify(check);
    if verdict.ok() {
        *cell = Some(key);
    } else {
        violations.extend(verdict.violations);
    }
}

/// The guard: repeats of one instance must reproduce the first
/// repeat's counts exactly.
fn guard_counts(cell: &mut Option<String>, counts: &str, violations: &mut Vec<String>) {
    match cell {
        None => *cell = Some(counts.to_owned()),
        Some(first) if first != counts => violations.push(format!(
            "trajectory changed between repeats: {first} then {counts}"
        )),
        Some(_) => {}
    }
}

pub fn measure(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let threads = if workload == Workload::CruiseDeadline {
        PORTFOLIO_WORKERS
    } else {
        1
    };
    let mut report = Report::new(workload, seed, false, threads);
    let (instances, first) = inputs::build(workload, seed)?;
    let mut setup_s = vec![first.total().as_secs_f64()];
    let rounds = workload.rounds(seconds);
    let setup_every = (instances.len() * rounds / SETUP_REPS).max(1);
    let mut solves = 0usize;

    let mut host = HostSpeed::default();
    let mut tracks: Vec<Track> = instances.iter().map(|_| Track::default()).collect();
    for _ in 0..rounds {
        for (inst, track) in instances.iter().zip(&mut tracks) {
            if solves.is_multiple_of(setup_every) {
                setup_s.push(inputs::build(workload, seed)?.1.total().as_secs_f64());
            }
            solves += 1;
            host.sample();
            let mut violations = Vec::new();
            let solved = match solve(workload, inst) {
                Ok(s) => s,
                Err(e) => {
                    report.record("solve", &[e]);
                    continue;
                }
            };
            track
                .solves
                .push((solved.elapsed.as_secs_f64(), solved.candidates));
            track.length_ms = solved.schedule.length().as_ms_f64();
            guard_counts(&mut track.counts, &solved.counts, &mut violations);
            verify_once(
                &mut track.verified,
                &Check {
                    problem: &inst.problem,
                    bus: &solved.bus,
                    design: &solved.design,
                    schedule: &solved.schedule,
                    scenarios: scenarios_for(workload, inst.seed),
                    require_schedulable: workload == Workload::CruiseDeadline,
                    killed: None,
                },
                &mut violations,
            );
            report.record("solve", &violations);

            if workload == Workload::Paper4n {
                let violations = repair_op(inst, &solved, track);
                report.record("repair", &violations);
            }
        }
    }

    // Each instance's fastest repeat: noise from other tenants only
    // ever adds time, and rounds spread an instance's repeats over the
    // run.
    let fastest: Vec<(f64, usize)> = tracks
        .iter()
        .filter_map(|t| t.solves.iter().copied().min_by(|a, b| a.0.total_cmp(&b.0)))
        .collect();
    // Reference-host seconds (see `host`).
    let speed = host.factor();
    let times: Vec<f64> = fastest.iter().map(|f| f.0 / speed).collect();
    let solve_s = band(&times, 0.5);
    let tail_s = band(&times, TAIL_QUANTILE);
    let candidates: usize = fastest.iter().map(|f| f.1).sum();
    let lengths: Vec<f64> = tracks.iter().map(|t| t.length_ms).collect();
    report.metrics = vec![
        metric("setup_s", median(&setup_s) / speed, "s"),
        metric("solve_s", solve_s, "s"),
        metric("solve_tail_s", tail_s, "s"),
        metric(
            "candidates_per_s",
            ratio(candidates as f64, times.iter().sum()),
            "1/s",
        ),
        metric("best_length_ms", band(&lengths, 0.5), "ms"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ];
    if workload == Workload::Paper4n {
        let repair_s: Vec<f64> = tracks
            .iter()
            .map(|t| t.repair_s.iter().copied().fold(f64::INFINITY, f64::min) / speed)
            .collect();
        let repair_len: Vec<f64> = tracks.iter().map(|t| t.repair_length_ms).collect();
        report
            .extra
            .push(metric("repair_s", band(&repair_s, 0.5), "s"));
        report
            .extra
            .push(metric("repair_length_ms", band(&repair_len, 0.5), "ms"));
    }
    if workload == Workload::CruiseDeadline {
        report
            .extra
            .push(metric("time_to_schedulable_s", solve_s, "s"));
        report
            .extra
            .push(metric("time_to_schedulable_tail_s", tail_s, "s"));
    }
    report.extra.push(metric("host_factor", speed, "x"));
    report.extra.push(metric(
        "failed_share",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    ));
    report.extra.push(metric("rounds", rounds as f64, "count"));
    report.counts = tracks
        .iter()
        .filter_map(|t| t.counts.clone())
        .chain(tracks.iter().filter_map(|t| t.repair_counts.clone()))
        .collect();
    Ok(report)
}

/// `paper_4n`'s second operation: kill the most-loaded node, repair,
/// verify.
fn repair_op(inst: &Instance, solved: &Solved, track: &mut Track) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(victim) = most_loaded_node(&solved.schedule) else {
        return vec!["solved schedule is empty".to_owned()];
    };
    let (out, elapsed) = match repair_design(
        &inst.problem,
        &solved.design,
        &ProblemDelta::kill_node(victim),
    ) {
        Ok(r) => r,
        Err(e) => return vec![e],
    };
    track.repair_s.push(elapsed.as_secs_f64());
    track.repair_length_ms = out.length().as_ms_f64();
    let counts = format!(
        "{{\"instance\": {}, \"repair\": true, \"killed\": {}, \"rung\": {}, \"candidates\": {}, \
         \"tabu_iterations\": {}, \"evaluations\": {}, \"pruned\": {}, {}}}",
        inst.seed,
        victim.index(),
        out.rung as usize,
        out.stats.candidates(),
        out.stats.tabu_iterations,
        out.stats.evaluations,
        out.stats.pruned,
        cost_fields(out.schedule.cost()),
    );
    guard_counts(&mut track.repair_counts, &counts, &mut violations);
    verify_once(
        &mut track.repair_verified,
        &Check {
            problem: &out.problem,
            bus: out.problem.bus(),
            design: &out.design,
            schedule: &out.schedule,
            scenarios: scenarios_for(Workload::Paper4n, inst.seed),
            require_schedulable: true,
            killed: Some(victim),
        },
        &mut violations,
    );
    violations
}
