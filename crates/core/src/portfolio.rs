//! Portfolio parallelism: diversified tabu workers with
//! deterministic elite exchange.
//!
//! The tabu search is embarrassingly portfolio-parallel: several
//! diversified searches (different tenures, window sizes,
//! diversification settings and start perturbations) explore
//! different basins, and periodically adopting the best solution
//! found so far turns cores into solution quality. The hard part is
//! doing that **without giving up the deterministic `(cost, move
//! index)` selection contract** every parity test in this repo rests
//! on — so the exchange protocol here is built from fixed-progress
//! barriers, never from wall-clock arrival order:
//!
//! * Workers run in **epochs**: each worker executes a fixed
//!   iteration quota per epoch, derived from
//!   [`PortfolioConfig::epoch_candidates`] and its own window cap
//!   (`quota = epoch_candidates / max_moves_per_iteration`). Quotas
//!   count *iterations*, not raw evaluator traffic: with a shared
//!   memoization cache the evaluation/hit/pruned split is racy across
//!   workers, but the trajectory — and therefore the per-iteration
//!   candidate count — is cache-invariant.
//! * At the end of an epoch every worker publishes `(best cost,
//!   schedulable, finished)` into its own slot and waits at a
//!   [`std::sync::Barrier`]. Worker 0 then computes the **elite** —
//!   the minimum over alive workers by the total order `(cost,
//!   worker index)` — and the stop decision, both deterministic
//!   functions of the published reports. A second barrier publishes
//!   the decision, the elite worker clones its solution into the
//!   exchange slot, and a third barrier releases the adopters: every
//!   alive worker whose own best is *strictly worse* than the elite
//!   adopts it (see [`crate::tabu::TabuSearch::inject`]).
//! * A worker that panics or errors is marked dead but **keeps
//!   participating in every barrier**, so siblings never deadlock;
//!   the lowest-index panic payload is re-raised (and the
//!   lowest-index error returned) on the calling thread once the
//!   scope joins.
//!
//! The result is bit-identical for a fixed `(seed, workers,
//! epoch_candidates)` configuration regardless of OS scheduling, core
//! count or cache sharing — enforced by `tests/determinism_matrix.rs`.
//! As everywhere else, a wall-clock `time_limit` is the one knob that
//! trades that away (the cutoff lands wherever the machine got to).

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use ftdes_model::design::Design;
use ftdes_model::ids::ProcessId;
use ftdes_sched::{PriorityStrategy, Schedule, ScheduleCost};

use crate::cache::{EvalCache, Evaluator};
use crate::config::{Goal, SearchConfig, SearchStats};
use crate::error::OptError;
use crate::greedy::greedy_mpa_with;
use crate::initial::initial_mpa;
use crate::moves::candidate_decisions;
use crate::parallel::{effective_threads, WorkerPool};
use crate::problem::Problem;
use crate::space::PolicySpace;
use crate::strategy::{resolve_priority, Outcome};
use crate::tabu::{TabuPause, TabuSearch};

/// Tunables of the portfolio engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of diversified tabu workers. `0` resolves to
    /// [`effective_threads`]`(cfg.threads)`.
    pub workers: usize,
    /// Exchange-epoch length in *candidates per worker*: each worker
    /// runs `max(1, epoch_candidates / max_moves_per_iteration)` tabu
    /// iterations between elite exchanges. Larger epochs mean less
    /// synchronization and more independent exploration.
    pub epoch_candidates: usize,
    /// Seed for the deterministic start-perturbation stream (worker
    /// `w` applies `w` seeded decision changes to the greedy start).
    pub seed: u64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            workers: 0,
            epoch_candidates: 4_096,
            seed: 0x5EED_F7DE_5000_0001,
        }
    }
}

/// Per-worker accounting of a finished portfolio run.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Worker index (also its tie-break rank in the elite order).
    pub index: usize,
    /// Human-readable variant description, e.g. `"tenure*2 +p2"`.
    pub label: String,
    /// Tabu iterations this worker performed.
    pub tabu_iterations: usize,
    /// Candidate lookups (exact evaluations + cache hits) it issued.
    pub lookups: usize,
    /// Bounded evaluations it pruned.
    pub pruned: usize,
    /// Best cost the worker itself reached (before final merge).
    pub best: Option<ScheduleCost>,
    /// Elite solutions the worker adopted across all epochs.
    pub adopted: usize,
}

/// The result of [`optimize_portfolio`].
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The merged best solution (elite by `(cost, worker index)`)
    /// with the summed search statistics of the prologue and every
    /// worker.
    pub outcome: Outcome,
    /// The ready-list priority strategy `outcome.schedule` was built
    /// under: the elite worker's resolved strategy (a mobility-axis
    /// worker schedules differently from the base problem). Replaying
    /// `outcome.design` through `list_schedule_with` under it
    /// reproduces `outcome.schedule`'s cost.
    pub priority: PriorityStrategy,
    /// Per-worker accounting, indexed by worker. Empty when the
    /// shared greedy prologue already satisfied a `MeetDeadline`
    /// goal and no worker ever ran.
    pub workers: Vec<WorkerSummary>,
    /// Exchange epochs executed.
    pub epochs: usize,
    /// Elite adoptions performed across all workers and epochs.
    pub exchanges: usize,
}

/// What a worker publishes at the epoch barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EpochReport {
    alive: bool,
    finished: bool,
    best: Option<(ScheduleCost, bool)>,
}

/// What worker 0 derives from the reports — a deterministic function
/// of their contents, regardless of which thread computes it.
#[derive(Debug, Clone, Copy, Default)]
struct Decision {
    stop: bool,
    elite: Option<(ScheduleCost, usize)>,
}

/// What a worker leaves behind for the main thread.
struct WorkerFinal {
    label: String,
    stats: SearchStats,
    adopted: usize,
    best: Option<(Design, Arc<Schedule>)>,
    error: Option<OptError>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// The per-worker plan computed up front on the calling thread (so
/// worker threads start from fully deterministic inputs).
struct WorkerPrep {
    cfg: SearchConfig,
    label: String,
    quota: usize,
    start: Design,
    /// A re-derived problem when the worker's configuration overrides
    /// the priority strategy (the mobility axis); `None` = the shared
    /// problem. The shared cache stays sound either way — the
    /// strategy participates in the evaluator's context fingerprint.
    problem: Option<Problem>,
}

/// The evaluator a portfolio participant runs on: the shared
/// memoization cache when enabled (context fingerprints keep entries
/// from different priority strategies apart), uncached otherwise.
fn evaluator_for<'p>(problem: &'p Problem, cache: &Arc<EvalCache>, enabled: bool) -> Evaluator<'p> {
    if enabled {
        Evaluator::with_shared_cache(problem, Arc::clone(cache))
    } else {
        Evaluator::with_cache(problem, false)
    }
}

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Applies `count` seeded decision changes to `design`, each on a
/// distinct process, drawn from the same move-candidate enumeration
/// the tabu neighbourhood uses. Processes without an alternative
/// decision are skipped.
fn perturb(
    problem: &Problem,
    space: PolicySpace,
    design: &mut Design,
    count: usize,
    mut state: u64,
) {
    let n = problem.process_count();
    if n == 0 {
        return;
    }
    let mut used = vec![false; n];
    let mut applied = 0usize;
    let mut attempts = 0usize;
    while applied < count && attempts < 4 * n.max(count) {
        attempts += 1;
        let p = (lcg_next(&mut state) as usize) % n;
        if used[p] {
            continue;
        }
        used[p] = true;
        let pid = ProcessId::new(p as u32);
        let current = design.decision(pid).clone();
        let options: Vec<_> = candidate_decisions(problem, space, pid)
            .into_iter()
            .filter(|d| *d != current)
            .collect();
        if options.is_empty() {
            continue;
        }
        let pick = (lcg_next(&mut state) as usize) % options.len();
        design.set_decision(pid, options[pick].clone());
        applied += 1;
    }
}

/// Derives worker `w`'s configuration from the base `cfg`: worker 0
/// runs the pristine base; higher workers cycle through the
/// strategy-ablation axes (mobility-ordered ready list, tenure ×2,
/// window ÷2, tenure ÷2 without diversification, window ×2) and
/// perturb their start solution by `w` seeded decision changes.
fn worker_prep(
    problem: &Problem,
    space: PolicySpace,
    base: &SearchConfig,
    pcfg: &PortfolioConfig,
    greedy: &Design,
    w: usize,
    threads_per_worker: usize,
) -> WorkerPrep {
    let n = problem.process_count();
    let mut cfg = SearchConfig {
        threads: threads_per_worker,
        staged_tabu: false,
        ..base.clone()
    };
    let mut axis = "base";
    if w > 0 {
        match (w - 1) % 5 {
            0 => {
                // First in the cycle so even a 2-worker portfolio
                // fields a mobility-ordered search beside the base.
                cfg.priority = Some(PriorityStrategy::Mobility);
                axis = "mobility";
            }
            1 => {
                cfg.tabu_tenure = Some(base.tenure_for(n) * 2);
                axis = "tenure*2";
            }
            2 => {
                cfg.max_moves_per_iteration = (base.max_moves_per_iteration / 2).max(8);
                axis = "window/2";
            }
            3 => {
                cfg.tabu_tenure = Some((base.tenure_for(n) / 2).max(2));
                cfg.diversification = false;
                axis = "tenure/2-nodiv";
            }
            _ => {
                cfg.max_moves_per_iteration = base.max_moves_per_iteration.saturating_mul(2);
                axis = "window*2";
            }
        }
    }
    let mut start = greedy.clone();
    if w > 0 {
        let state = pcfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        perturb(problem, space, &mut start, w, state);
    }
    let problem_override = match resolve_priority(problem, &cfg) {
        Cow::Owned(p) => Some(p),
        Cow::Borrowed(_) => None,
    };
    WorkerPrep {
        quota: (pcfg.epoch_candidates / cfg.max_moves_per_iteration.max(1)).max(1),
        label: format!("w{w}:{axis}+p{w}"),
        cfg,
        start,
        problem: problem_override,
    }
}

/// Runs a diversified tabu portfolio over `space`.
///
/// The shared three-step prologue (initial construction + greedy
/// improvement, paper Fig. 6 steps 1–2) runs once; the portfolio then
/// forks `workers` diversified tabu searches from the greedy solution
/// and merges their results through the deterministic elite-exchange
/// protocol described at the [module level](self).
///
/// # Errors
///
/// Returns [`OptError`] when no initial placement exists or a
/// candidate cannot be scheduled (lowest worker index wins when
/// several workers fail).
///
/// # Panics
///
/// Re-raises the first (lowest worker index) panic of any worker
/// thread after all workers unwound or finished — the portfolio never
/// deadlocks on a sibling's panic.
pub fn optimize_portfolio(
    problem: &Problem,
    space: PolicySpace,
    cfg: &SearchConfig,
    pcfg: &PortfolioConfig,
) -> Result<PortfolioOutcome, OptError> {
    let cache = Arc::new(EvalCache::default());
    optimize_portfolio_with_cache(problem, space, cfg, pcfg, &cache)
}

/// [`optimize_portfolio`] over a caller-owned shared [`EvalCache`]:
/// the prologue and every worker memoize into (and serve from) the
/// same fingerprint-keyed cache. Sharing changes *work*, never
/// *results* — the trajectory of each worker is cache-invariant, so
/// the portfolio stays bit-identical (only the evaluation/hit/pruned
/// split in the statistics shifts between runs).
///
/// # Errors
///
/// Same as [`optimize_portfolio`].
#[allow(clippy::too_many_lines)]
pub fn optimize_portfolio_with_cache(
    problem: &Problem,
    space: PolicySpace,
    cfg: &SearchConfig,
    pcfg: &PortfolioConfig,
    cache: &Arc<EvalCache>,
) -> Result<PortfolioOutcome, OptError> {
    // A top-level priority override re-derives the shared problem
    // once; the per-worker mobility axis re-derives again relative to
    // this resolved base.
    let resolved = resolve_priority(problem, cfg);
    let problem = resolved.as_ref();
    let started = Instant::now();
    let cutoff = cfg.time_limit.map(|l| started + l);
    let workers = if pcfg.workers == 0 {
        effective_threads(cfg.threads)
    } else {
        pcfg.workers
    }
    .max(1);
    let threads_per_worker = (effective_threads(cfg.threads) / workers).max(1);

    // Shared prologue (Fig. 6 steps 1–2) on the full pool width: the
    // portfolio diversifies the *tabu* phase, the construction and
    // greedy phases are identical for every worker anyway.
    let mut prologue_stats = SearchStats::default();
    let (greedy_design, greedy_schedule) = {
        let evaluator = evaluator_for(problem, cache, cfg.eval_cache);
        let pool = WorkerPool::new(effective_threads(cfg.threads));
        let initial = initial_mpa(problem, space)?;
        greedy_mpa_with(
            &evaluator,
            &pool,
            space,
            initial,
            cfg,
            cutoff,
            &mut prologue_stats,
        )?
    };
    if cfg.goal == Goal::MeetDeadline && greedy_schedule.is_schedulable() {
        prologue_stats.elapsed = started.elapsed();
        return Ok(PortfolioOutcome {
            outcome: Outcome {
                design: greedy_design,
                schedule: greedy_schedule,
                stats: prologue_stats,
            },
            priority: problem.schedule_options().priority,
            workers: Vec::new(),
            epochs: 0,
            exchanges: 0,
        });
    }

    let preps: Vec<WorkerPrep> = (0..workers)
        .map(|w| {
            worker_prep(
                problem,
                space,
                cfg,
                pcfg,
                &greedy_design,
                w,
                threads_per_worker,
            )
        })
        .collect();

    let greedy_schedule = Arc::new(greedy_schedule);
    let barrier = Barrier::new(workers);
    let reports: Vec<Mutex<EpochReport>> = (0..workers)
        .map(|_| Mutex::new(EpochReport::default()))
        .collect();
    let decision_slot: Mutex<Decision> = Mutex::new(Decision::default());
    let elite_slot: Mutex<Option<(Design, Arc<Schedule>)>> = Mutex::new(None);
    let tally: Mutex<(usize, usize)> = Mutex::new((0, 0)); // (epochs, exchanges)
    let finals: Vec<Mutex<Option<WorkerFinal>>> = (0..workers).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for (w, prep) in preps.iter().enumerate() {
            let (barrier, reports, decision_slot, elite_slot, tally, finals) = (
                &barrier,
                &reports,
                &decision_slot,
                &elite_slot,
                &tally,
                &finals,
            );
            let (greedy_design, greedy_schedule) = (&greedy_design, &greedy_schedule);
            scope.spawn(move || {
                let mut stats = SearchStats::default();
                let mut error: Option<OptError> = None;
                let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
                let mut adopted = 0usize;

                // A mobility-axis worker searches its re-derived
                // problem; the shared greedy start is still a valid
                // (design, schedule) pair — `inject` and every
                // candidate evaluation re-score under the worker's
                // own evaluator.
                let wproblem = prep.problem.as_ref().unwrap_or(problem);
                let evaluator = evaluator_for(wproblem, cache, cfg.eval_cache);
                let pool = WorkerPool::new(prep.cfg.threads);
                // Build the worker's search: start from the shared
                // greedy solution, then adopt the perturbed start (a
                // no-op inject for worker 0, whose start IS greedy).
                let mut search = match catch_unwind(AssertUnwindSafe(|| {
                    let mut s = TabuSearch::new(
                        &evaluator,
                        &pool,
                        space,
                        (greedy_design.clone(), Arc::clone(greedy_schedule)),
                        &prep.cfg,
                    );
                    if prep.start != *greedy_design {
                        s.inject(prep.start.clone(), &mut stats)?;
                    }
                    Ok::<_, OptError>(s)
                })) {
                    Ok(Ok(s)) => Some(s),
                    Ok(Err(e)) => {
                        error = Some(e);
                        None
                    }
                    Err(p) => {
                        panic = Some(p);
                        None
                    }
                };
                let mut finished = false;
                // Worker 0's previous-epoch report snapshot, for the
                // fixed-point stop below.
                let mut prev_snap: Vec<EpochReport> = Vec::new();

                loop {
                    // Phase A: run one epoch quota (dead workers skip
                    // straight to the barrier so siblings never wait
                    // on a corpse).
                    let mut died = false;
                    if let Some(s) = &mut search {
                        match catch_unwind(AssertUnwindSafe(|| {
                            s.run(&mut stats, cutoff, Some(prep.quota))
                        })) {
                            Ok(Ok(pause)) => finished = pause == TabuPause::Finished,
                            Ok(Err(e)) => {
                                error = Some(e);
                                died = true;
                            }
                            Err(p) => {
                                panic = Some(p);
                                died = true;
                            }
                        }
                    }
                    if died {
                        search = None;
                    }
                    *reports[w].lock().expect("epoch report") = EpochReport {
                        alive: search.is_some(),
                        finished,
                        best: search
                            .as_ref()
                            .map(|s| (s.best_cost(), s.best_is_schedulable())),
                    };
                    barrier.wait();

                    // Phase B: worker 0 derives the decision — a pure
                    // function of the reports (any thread computing it
                    // would produce the same bits).
                    if w == 0 {
                        let snap: Vec<EpochReport> = reports
                            .iter()
                            .map(|r| *r.lock().expect("epoch report"))
                            .collect();
                        let elite = snap
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.alive)
                            .filter_map(|(i, r)| r.best.map(|(c, _)| (c, i)))
                            .min();
                        let adopters = elite.map_or(0, |(ecost, ew)| {
                            snap.iter()
                                .enumerate()
                                .filter(|&(i, r)| {
                                    i != ew && r.alive && r.best.is_some_and(|(c, _)| c > ecost)
                                })
                                .count()
                        });
                        let elite_schedulable = elite.is_some_and(|(_, ew)| {
                            snap[ew].best.is_some_and(|(_, schedulable)| schedulable)
                        });
                        let all_finished = snap.iter().filter(|r| r.alive).all(|r| r.finished);
                        // Adoption can revive a search that finished on
                        // an empty neighbourhood, so `all_finished`
                        // alone is not a stop. But a worker on a
                        // diversified priority axis re-scores the
                        // shared elite under its *own* ordering, so it
                        // may count as an adopter forever without ever
                        // matching the elite's reported cost. The
                        // fixed-point test catches that: if everyone is
                        // finished and no report moved since the last
                        // epoch, further adoption cannot change
                        // anything observable either.
                        let fixed_point = all_finished && snap == prev_snap;
                        let mut t = tally.lock().expect("portfolio tally");
                        t.0 += 1;
                        let stop = elite.is_none()
                            || cutoff.is_some_and(|c| Instant::now() >= c)
                            || (cfg.goal == Goal::MeetDeadline && elite_schedulable)
                            || (all_finished && adopters == 0)
                            || fixed_point;
                        if !stop {
                            t.1 += adopters;
                        }
                        prev_snap = snap;
                        *decision_slot.lock().expect("portfolio decision") =
                            Decision { stop, elite };
                    }
                    barrier.wait();

                    let decision = *decision_slot.lock().expect("portfolio decision");
                    // The elite worker publishes its solution for the
                    // adopters (skipped on stop — nobody will read it).
                    if !decision.stop {
                        if let (Some((_, ew)), Some(s)) = (decision.elite, &search) {
                            if ew == w {
                                *elite_slot.lock().expect("elite slot") = Some(s.best());
                            }
                        }
                    }
                    barrier.wait();

                    // Phase C: adopt, then next epoch.
                    if decision.stop {
                        break;
                    }
                    let mut died = false;
                    if let (Some((ecost, ew)), Some(s)) = (decision.elite, &mut search) {
                        if ew != w && s.best_cost() > ecost {
                            let elite = elite_slot.lock().expect("elite slot").clone();
                            if let Some((design, _)) = elite {
                                match catch_unwind(AssertUnwindSafe(|| {
                                    s.inject(design, &mut stats)
                                })) {
                                    Ok(Ok(())) => adopted += 1,
                                    Ok(Err(e)) => {
                                        error = Some(e);
                                        died = true;
                                    }
                                    Err(p) => {
                                        panic = Some(p);
                                        died = true;
                                    }
                                }
                            }
                        }
                    }
                    if died {
                        search = None;
                    }
                }

                *finals[w].lock().expect("worker final") = Some(WorkerFinal {
                    label: prep.label.clone(),
                    stats,
                    adopted,
                    best: search.as_ref().map(TabuSearch::best),
                    error,
                    panic,
                });
            });
        }
    });

    let mut collected: Vec<WorkerFinal> = Vec::with_capacity(workers);
    for slot in &finals {
        collected.push(
            slot.lock()
                .expect("worker final")
                .take()
                .expect("every worker publishes a final"),
        );
    }
    // Lowest-index panic first (re-raised so the original message
    // surfaces), then lowest-index error, then the merged elite.
    for f in &mut collected {
        if let Some(payload) = f.panic.take() {
            std::panic::resume_unwind(payload);
        }
    }
    for f in &mut collected {
        if let Some(e) = f.error.take() {
            return Err(e);
        }
    }

    let (epochs, exchanges) = *tally.lock().expect("portfolio tally");
    let elite = collected
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.best.as_ref().map(|(_, s)| (s.cost(), i)))
        .min()
        .map(|(_, i)| i)
        .expect("at least one worker survived");
    let (design, schedule) = collected[elite]
        .best
        .clone()
        .expect("elite worker has a best");
    // A worker's best is either the shared greedy start or a schedule
    // its own evaluator built; the greedy start never wins for a
    // worker on a different strategy, because worker 0 (base
    // strategy, unperturbed start) is never worse and breaks the tie.
    let priority = preps[elite]
        .problem
        .as_ref()
        .unwrap_or(problem)
        .schedule_options()
        .priority;

    let mut stats = prologue_stats;
    for f in &collected {
        stats.evaluations += f.stats.evaluations;
        stats.cache_hits += f.stats.cache_hits;
        stats.pruned += f.stats.pruned;
        stats.greedy_steps += f.stats.greedy_steps;
        stats.tabu_iterations += f.stats.tabu_iterations;
    }
    stats.elapsed = started.elapsed();

    let summaries = collected
        .iter()
        .enumerate()
        .map(|(i, f)| WorkerSummary {
            index: i,
            label: f.label.clone(),
            tabu_iterations: f.stats.tabu_iterations,
            lookups: f.stats.lookups(),
            pruned: f.stats.pruned,
            best: f.best.as_ref().map(|(_, s)| s.cost()),
            adopted: f.adopted,
        })
        .collect();

    let schedule = Arc::try_unwrap(schedule).unwrap_or_else(|shared| (*shared).clone());
    Ok(PortfolioOutcome {
        outcome: Outcome {
            design,
            schedule,
            stats,
        },
        priority,
        workers: summaries,
        epochs,
        exchanges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    fn problem() -> Problem {
        let ms = Time::from_ms;
        let mut g = ProcessGraph::new(0.into());
        let p: Vec<_> = g.add_processes(6);
        g.add_edge(p[0], p[1], Message::new(4)).unwrap();
        g.add_edge(p[0], p[2], Message::new(4)).unwrap();
        g.add_edge(p[1], p[3], Message::new(4)).unwrap();
        g.add_edge(p[2], p[4], Message::new(4)).unwrap();
        g.add_edge(p[3], p[5], Message::new(4)).unwrap();
        g.add_edge(p[4], p[5], Message::new(4)).unwrap();
        let mut wcet = WcetTable::new();
        for (i, &pr) in p.iter().enumerate() {
            wcet.set(pr, NodeId::new(0), ms(20 + 7 * i as u64));
            wcet.set(pr, NodeId::new(1), ms(24 + 6 * i as u64));
        }
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(1, ms(5)), bus)
    }

    fn cfg() -> SearchConfig {
        SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 30,
            time_limit: None,
            ..SearchConfig::default()
        }
    }

    fn pcfg(workers: usize) -> PortfolioConfig {
        PortfolioConfig {
            workers,
            epoch_candidates: 600,
            ..PortfolioConfig::default()
        }
    }

    #[test]
    fn portfolio_finds_valid_design() {
        let problem = problem();
        let out = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(), &pcfg(3)).unwrap();
        out.outcome
            .design
            .validate(
                problem.arch(),
                problem.wcet(),
                problem.fault_model(),
                problem.constraints(),
            )
            .unwrap();
        assert_eq!(out.workers.len(), 3);
        assert!(out.epochs >= 1);
        // The merged elite is no worse than any worker's own best.
        for w in &out.workers {
            if let Some(b) = w.best {
                assert!(out.outcome.schedule.cost() <= b, "{}", w.label);
            }
        }
    }

    #[test]
    fn portfolio_no_worse_than_single_worker() {
        let problem = problem();
        let single = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(), &pcfg(1)).unwrap();
        let multi = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(), &pcfg(4)).unwrap();
        assert!(multi.outcome.schedule.cost() <= single.outcome.schedule.cost());
    }

    #[test]
    fn portfolio_is_repeatable() {
        let problem = problem();
        let a = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(), &pcfg(3)).unwrap();
        let b = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg(), &pcfg(3)).unwrap();
        assert_eq!(a.outcome.design, b.outcome.design);
        assert_eq!(a.outcome.schedule.cost(), b.outcome.schedule.cost());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.exchanges, b.exchanges);
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.tabu_iterations, wb.tabu_iterations, "{}", wa.label);
            assert_eq!(wa.best, wb.best, "{}", wa.label);
            assert_eq!(wa.adopted, wb.adopted, "{}", wa.label);
        }
    }

    #[test]
    fn meet_deadline_goal_short_circuits_in_prologue() {
        // Without deadlines every schedule is "schedulable", so the
        // greedy prologue satisfies a MeetDeadline goal immediately.
        let problem = problem();
        let cfg = SearchConfig {
            goal: Goal::MeetDeadline,
            time_limit: None,
            ..SearchConfig::default()
        };
        let out = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg, &pcfg(4)).unwrap();
        assert!(out.workers.is_empty());
        assert_eq!(out.epochs, 0);
        assert_eq!(out.priority, PriorityStrategy::PartialCriticalPath);
        assert!(out.outcome.schedule.is_schedulable());
    }

    /// The outcome names the strategy its schedule was built under:
    /// when the mobility-axis worker wins, a replay of the design
    /// under the recorded strategy reproduces the returned cost, and
    /// a replay under the base partial-critical-path order does not.
    #[test]
    fn outcome_records_the_elite_workers_priority() {
        let arch = Architecture::with_node_count(3);
        let w = ftdes_gen::paper_workload(16, &arch, 2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let problem = Problem::new(
            w.graph,
            arch,
            w.wcet,
            FaultModel::new(2, Time::from_ms(5)),
            bus,
        );
        let cfg = SearchConfig {
            max_tabu_iterations: 20,
            threads: 1,
            ..cfg()
        };
        let pcfg = PortfolioConfig {
            workers: 2,
            epoch_candidates: 200,
            ..PortfolioConfig::default()
        };
        let out = optimize_portfolio(&problem, PolicySpace::Mixed, &cfg, &pcfg).unwrap();
        assert_eq!(
            out.priority,
            PriorityStrategy::Mobility,
            "the fixture must make the mobility worker win"
        );
        let replay = |priority| {
            ftdes_sched::list_schedule_with(
                problem.graph(),
                problem.arch(),
                problem.wcet(),
                problem.fault_model(),
                problem.bus(),
                &out.outcome.design,
                ftdes_sched::ScheduleOptions {
                    priority,
                    ..problem.schedule_options()
                },
            )
            .unwrap()
            .cost()
        };
        assert_eq!(replay(out.priority), out.outcome.schedule.cost());
        assert_ne!(
            replay(PriorityStrategy::PartialCriticalPath),
            out.outcome.schedule.cost(),
            "the fixture must tell the strategies apart"
        );
    }

    #[test]
    fn perturbation_is_deterministic_and_distinct() {
        let problem = problem();
        let base = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        perturb(&problem, PolicySpace::Mixed, &mut a, 3, 42);
        perturb(&problem, PolicySpace::Mixed, &mut b, 3, 42);
        assert_eq!(a, b, "same seed, same perturbation");
        let mut c = base.clone();
        perturb(&problem, PolicySpace::Mixed, &mut c, 3, 43);
        assert_ne!(a, base, "perturbation changes the design");
        // Different seeds *may* collide but should not on this space.
        assert_ne!(a, c, "different seed, different perturbation");
    }
}
