//! Portfolio parallelism: diversified tabu workers with
//! deterministic elite exchange.
//!
//! The tabu search is embarrassingly portfolio-parallel: several
//! diversified searches (different priority orderings, tenures,
//! window sizes, diversification settings and start perturbations)
//! explore different basins, and periodically adopting the best
//! solution found so far turns cores into solution quality. The
//! exchange keeps the deterministic `(cost, move index)` selection
//! contract every parity test in this repo rests on, because it is
//! driven by fixed progress, never by wall-clock arrival order. The
//! run is one bulk-synchronous loop on the calling thread:
//!
//! * Workers run in **epochs**: each worker executes a fixed
//!   iteration quota per epoch, derived from
//!   [`PortfolioConfig::epoch_candidates`] and its own window cap
//!   (`quota = epoch_candidates / max_moves_per_iteration`). Quotas
//!   count *iterations*, not raw evaluator traffic: with a shared
//!   memoization cache the evaluation/hit/pruned split is racy across
//!   workers, but the trajectory — and therefore the per-iteration
//!   candidate count — is cache-invariant.
//! * An epoch is one [`std::thread::scope`]. Each worker first adopts
//!   the design it was handed (its perturbed start in the first
//!   epoch, later the elite), then runs its quota. Worker 0 runs on
//!   the calling thread and the others on scoped threads, so a
//!   one-worker portfolio spawns nothing.
//! * Between epochs the calling thread reads every worker's `(best
//!   cost, schedulable, finished)` and derives the stop test and the
//!   **elite** from them alone: the elite is the minimum by the total
//!   order `(cost, worker index)`. Every worker whose own best is
//!   *strictly worse* is handed a clone of the elite design to adopt
//!   (see [`crate::tabu::TabuSearch::inject`]).
//! * Failure is fail-fast. The first epoch in which a worker panics
//!   or errors ends the run once its siblings finish that epoch: the
//!   lowest-index panic is re-raised with its own payload, else the
//!   lowest-index error is returned.
//!
//! The result is bit-identical for a fixed `(seed, workers,
//! epoch_candidates)` configuration regardless of OS scheduling, core
//! count or cache sharing — enforced by `tests/determinism_matrix.rs`
//! and pinned by `tests/golden_portfolio.rs`. As everywhere else, a
//! wall-clock `time_limit` is the one knob that trades that away (the
//! cutoff lands wherever the machine got to).

use std::sync::Arc;
use std::time::Instant;

use ftdes_model::design::Design;
use ftdes_model::ids::ProcessId;
use ftdes_sched::{PriorityStrategy, ScheduleCost};

use crate::cache::{EvalCache, Evaluator};
use crate::config::{Goal, SearchConfig, SearchStats};
use crate::error::OptError;
use crate::greedy::greedy_mpa_with;
use crate::initial::initial_mpa;
use crate::moves::{MoveRef, MoveTable};
use crate::parallel::{effective_threads, WorkerPool};
use crate::problem::Problem;
use crate::space::PolicySpace;
use crate::strategy::Outcome;
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
    /// Human-readable variant description, e.g. `"w2:tenure*2+p2"`.
    pub label: String,
    /// Tabu iterations this worker performed.
    pub tabu_iterations: usize,
    /// Candidate lookups (exact evaluations + cache hits) it issued.
    pub lookups: usize,
    /// Bounded evaluations it pruned.
    pub pruned: usize,
    /// Best cost the worker itself reached (before final merge).
    pub best: ScheduleCost,
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
    /// under: the elite worker's strategy (a mobility-axis worker
    /// schedules differently from the base problem). Replaying
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

/// The per-worker plan computed up front on the calling thread.
struct WorkerPrep {
    cfg: SearchConfig,
    label: String,
    quota: usize,
    start: Design,
    /// The ready-list ordering the worker schedules under.
    priority: PriorityStrategy,
}

/// One tabu worker between epochs.
struct Worker<'e, 'p> {
    label: String,
    quota: usize,
    search: TabuSearch<'e, 'p>,
    stats: SearchStats,
    /// The design to adopt before the next quota: the perturbed start,
    /// then each elite the worker is handed.
    adopt: Option<Design>,
    adopted: usize,
    finished: bool,
}

impl Worker<'_, '_> {
    /// One epoch: adopt the handed design, then run the quota.
    fn epoch(&mut self, cutoff: Option<Instant>) -> Result<(), OptError> {
        if let Some(design) = self.adopt.take() {
            self.search.inject(design, &mut self.stats)?;
        }
        let pause = self.search.run(&mut self.stats, cutoff, Some(self.quota))?;
        self.finished = pause == TabuPause::Finished;
        Ok(())
    }

    /// `(best cost, schedulable, finished)`: everything the epoch
    /// decision reads.
    fn report(&self) -> (ScheduleCost, bool, bool) {
        (
            self.search.best_cost(),
            self.search.best_is_schedulable(),
            self.finished,
        )
    }
}

/// Runs `step` once on every worker, worker 0 on the calling thread
/// and the others on scoped threads, and returns when all of them are
/// done. A panic is re-raised with the payload of the lowest-index
/// worker that panicked; without one, the lowest-index error is
/// returned.
fn run_epoch<W: Send, E: Send>(
    workers: &mut [W],
    step: impl Fn(&mut W) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let Some((first, rest)) = workers.split_first_mut() else {
        return Ok(());
    };
    let step = &step;
    // A panic of worker 0 leaves the scope, with its own payload, only
    // after every sibling finished its step.
    let (first, rest) = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|w| scope.spawn(move || step(w)))
            .collect();
        let first = step(first);
        (
            first,
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>(),
        )
    });
    let mut error = first.err();
    for result in rest {
        match result {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(Err(e)) => {
                error.get_or_insert(e);
            }
            Ok(Ok(())) => {}
        }
    }
    error.map_or(Ok(()), Err)
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
/// distinct process, drawn from the same decision space the tabu
/// neighbourhood uses. Processes without an alternative decision are
/// skipped.
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
    let table = MoveTable::new(problem, space);
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
        let process = ProcessId::new(p as u32);
        // Draw among the other decisions: step over the current one.
        let current = table.index_of(process, design.decision(process));
        let options = table.len(process) - u64::from(current.is_some());
        if options == 0 {
            continue;
        }
        let mut decision = lcg_next(&mut state) % options;
        decision += u64::from(current.is_some_and(|c| decision >= c));
        design.set_decision(process, table.decision(MoveRef { process, decision }));
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
    let mut priority = problem.schedule_options().priority;
    let mut axis = "base";
    if w > 0 {
        match (w - 1) % 5 {
            0 => {
                // First in the cycle so even a 2-worker portfolio
                // fields a mobility-ordered search beside the base.
                priority = PriorityStrategy::Mobility;
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
    WorkerPrep {
        quota: (pcfg.epoch_candidates / cfg.max_moves_per_iteration.max(1)).max(1),
        label: format!("w{w}:{axis}+p{w}"),
        cfg,
        start,
        priority,
    }
}

/// Runs a diversified tabu portfolio over `space`.
///
/// The shared three-step prologue (initial construction + greedy
/// improvement, paper Fig. 6 steps 1–2) runs once; the portfolio then
/// forks `workers` diversified tabu searches from the greedy solution
/// and merges their results through the deterministic elite-exchange
/// loop described at the [module level](self). The prologue and every
/// worker memoize into (and serve from) one shared fingerprint-keyed
/// cache; sharing changes *work*, never *results*.
///
/// # Errors
///
/// Returns [`OptError`] when no initial placement exists or a
/// candidate cannot be scheduled (lowest worker index wins when
/// several workers fail in the same epoch).
///
/// # Panics
///
/// Re-raises the lowest-index worker panic of the first epoch in
/// which a worker panics, with its own payload, once every sibling
/// finished that epoch.
pub fn optimize_portfolio(
    problem: &Problem,
    space: PolicySpace,
    cfg: &SearchConfig,
    pcfg: &PortfolioConfig,
) -> Result<PortfolioOutcome, OptError> {
    let cache = Arc::new(EvalCache::default());
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
        let evaluator = evaluator_for(problem, &cache, cfg.eval_cache);
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
    // The mobility axis searches the problem re-derived under its
    // ordering (its own evaluator context), the others the shared
    // problem. The shared greedy start is a valid (design, schedule)
    // pair for either: `inject` and every candidate evaluation
    // re-score under the worker's own evaluator.
    let derived: Vec<Option<Problem>> = preps
        .iter()
        .map(|prep| {
            (prep.priority != problem.schedule_options().priority)
                .then(|| problem.clone().with_priority_strategy(prep.priority))
        })
        .collect();
    let evaluators: Vec<Evaluator<'_>> = derived
        .iter()
        .map(|d| evaluator_for(d.as_ref().unwrap_or(problem), &cache, cfg.eval_cache))
        .collect();
    let pools: Vec<WorkerPool> = preps
        .iter()
        .map(|prep| WorkerPool::new(prep.cfg.threads))
        .collect();
    let greedy_schedule = Arc::new(greedy_schedule);
    let mut team: Vec<Worker<'_, '_>> = preps
        .iter()
        .zip(evaluators.iter().zip(&pools))
        .map(|(prep, (evaluator, pool))| Worker {
            label: prep.label.clone(),
            quota: prep.quota,
            search: TabuSearch::new(
                evaluator,
                pool,
                space,
                (greedy_design.clone(), Arc::clone(&greedy_schedule)),
                &prep.cfg,
            ),
            stats: SearchStats::default(),
            adopt: (prep.start != greedy_design).then(|| prep.start.clone()),
            adopted: 0,
            finished: false,
        })
        .collect();

    let mut epochs = 0usize;
    let mut exchanges = 0usize;
    let mut previous = Vec::new();
    let elite = loop {
        run_epoch(&mut team, |w| w.epoch(cutoff))?;
        epochs += 1;
        let reports: Vec<_> = team.iter().map(Worker::report).collect();
        let (elite_cost, elite) = reports
            .iter()
            .enumerate()
            .map(|(i, &(cost, _, _))| (cost, i))
            .min()
            .expect("a portfolio has a worker");
        let adopters: Vec<usize> = (0..team.len())
            .filter(|&i| i != elite && reports[i].0 > elite_cost)
            .collect();
        let (_, elite_schedulable, _) = reports[elite];
        // Adoption can revive a search that finished on an empty
        // neighbourhood, so finishing alone is not a stop. But a
        // worker on a diversified priority axis re-scores the shared
        // elite under its *own* ordering, so it may count as an
        // adopter forever without ever matching the elite's reported
        // cost. The fixed-point test catches that: if everyone is
        // finished and no report moved since the last epoch, further
        // adoption cannot change anything observable either.
        let all_finished = reports.iter().all(|&(_, _, finished)| finished);
        let stop = cutoff.is_some_and(|c| Instant::now() >= c)
            || (cfg.goal == Goal::MeetDeadline && elite_schedulable)
            || (all_finished && (adopters.is_empty() || reports == previous));
        if stop {
            break elite;
        }
        exchanges += adopters.len();
        let (design, _) = team[elite].search.best();
        for i in adopters {
            team[i].adopt = Some(design.clone());
            team[i].adopted += 1;
        }
        previous = reports;
    };

    let mut stats = prologue_stats;
    for w in &team {
        stats.add_counts(&w.stats);
    }
    stats.elapsed = started.elapsed();
    let summaries = team
        .iter()
        .enumerate()
        .map(|(index, w)| WorkerSummary {
            index,
            label: w.label.clone(),
            tabu_iterations: w.stats.tabu_iterations,
            lookups: w.stats.lookups(),
            pruned: w.stats.pruned,
            best: w.search.best_cost(),
            adopted: w.adopted,
        })
        .collect();
    // The elite's best is either the shared greedy start or a schedule
    // its own evaluator built; the greedy start never wins for a
    // worker on a different strategy, because worker 0 (base
    // strategy, unperturbed start) is never worse and breaks the tie.
    let (design, schedule) = team.swap_remove(elite).search.into_best();
    Ok(PortfolioOutcome {
        outcome: Outcome {
            design,
            schedule,
            stats,
        },
        priority: preps[elite].priority,
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
            assert!(out.outcome.schedule.cost() <= w.best, "{}", w.label);
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

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Act {
        Work,
        Error,
        Panic,
    }

    /// A toy epoch participant: works, errors or panics as told.
    struct Toy {
        index: usize,
        act: Act,
        done: bool,
    }

    /// A panic payload naming the worker that raised it.
    #[derive(Debug, PartialEq, Eq)]
    struct Payload(usize);

    fn toy_step(t: &mut Toy) -> Result<(), usize> {
        match t.act {
            Act::Work => {
                t.done = true;
                Ok(())
            }
            Act::Error => Err(t.index),
            Act::Panic => std::panic::panic_any(Payload(t.index)),
        }
    }

    /// Runs one epoch of toys on a thread of its own, so a re-raised
    /// panic comes back as its payload; also returns which toys
    /// finished their step.
    fn toy_epoch(acts: &[Act]) -> (std::thread::Result<Result<(), usize>>, Vec<bool>) {
        let mut toys: Vec<Toy> = acts
            .iter()
            .enumerate()
            .map(|(index, &act)| Toy {
                index,
                act,
                done: false,
            })
            .collect();
        let result = std::thread::scope(|s| s.spawn(|| run_epoch(&mut toys, toy_step)).join());
        (result, toys.iter().map(|t| t.done).collect())
    }

    #[test]
    fn an_epoch_re_raises_the_lowest_panic_after_every_sibling_finishes() {
        use Act::{Error, Panic, Work};
        for acts in [
            [Work, Error, Panic, Work],
            [Panic, Error, Work, Work],
            [Error, Work, Panic, Panic],
        ] {
            let (result, done) = toy_epoch(&acts);
            let payload = result.expect_err("a panic outranks an error");
            let first = acts.iter().position(|&a| a == Panic).unwrap();
            assert_eq!(
                payload.downcast_ref::<Payload>(),
                Some(&Payload(first)),
                "{acts:?}: the lowest-index panic keeps its own payload"
            );
            for (i, &act) in acts.iter().enumerate() {
                assert_eq!(done[i], act == Work, "{acts:?}: worker {i}");
            }
        }
    }

    #[test]
    fn an_epoch_returns_the_lowest_index_error() {
        use Act::{Error, Work};
        let (result, done) = toy_epoch(&[Work, Error, Work, Error]);
        assert_eq!(result.unwrap(), Err(1));
        assert_eq!(done, [true, false, true, false]);
        assert_eq!(toy_epoch(&[Error, Error]).0.unwrap(), Err(0));
        let (result, done) = toy_epoch(&[Work]);
        assert_eq!(result.unwrap(), Ok(()));
        assert_eq!(done, [true]);
    }
}
