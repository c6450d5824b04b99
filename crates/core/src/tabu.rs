//! `TabuSearchMPA` (paper §5.2, Fig. 9).
//!
//! A neighbourhood search over mapping / policy moves for the
//! processes on the critical path, steered by a *selective history*:
//!
//! * `Tabu(Pi)` — non-zero means `Pi` was moved recently and should
//!   not be selected again, *unless* the move beats the best-so-far
//!   solution (aspiration, line 9);
//! * `Wait(Pi)` — iterations since `Pi` was last moved; once it
//!   exceeds `|Γ|` the process becomes a diversification candidate
//!   (line 12).
//!
//! Selection (lines 14–20): prefer a solution better than the
//! best-so-far; otherwise diversify; otherwise take the best non-tabu
//! move even if it worsens the cost (that is what lets the search
//! leave local optima).

use std::sync::Arc;
use std::time::Instant;

use ftdes_model::design::Design;
use ftdes_model::ids::ProcessId;
use ftdes_sched::{PlacementCheckpoints, Schedule};

use crate::cache::{EvalOutcome, Evaluator};
use crate::config::{Goal, SearchConfig, SearchStats};
use crate::error::OptError;
use crate::moves::{take_moves, MoveRef, MoveTable, Span};
use crate::parallel::WorkerPool;
use crate::space::PolicySpace;

/// An evaluated neighbour.
struct Candidate {
    /// Position of the move in this iteration's window — the
    /// deterministic tiebreaker of candidate selection.
    index: usize,
    mv: MoveRef,
    /// Exact cost, or the certified lower bound of a bounded-pruned
    /// run (resolved to exact before it can influence the selection).
    outcome: EvalOutcome,
}

impl Candidate {
    fn cost(&self) -> ftdes_sched::ScheduleCost {
        self.outcome.cost()
    }
}

/// Lines 9–20 of paper Fig. 9: aspiration / diversification /
/// best-admissible selection over the window, resolved by the total
/// order on `(cost, move index)`. Pruned candidates participate with
/// their lower bounds; [`tabu_search_mpa_with`] re-evaluates exactly
/// any pruned candidate that could still influence the outcome before
/// accepting a selection, so the result is identical to an all-exact
/// window.
fn select_candidate(
    candidates: &[Candidate],
    best_cost: ftdes_sched::ScheduleCost,
    tabu: &[usize],
    wait: &[usize],
    cfg: &SearchConfig,
    n: usize,
) -> Option<usize> {
    let is_tabu = |c: &Candidate| tabu[c.mv.process.index()] > 0;
    let aspirates = |c: &Candidate| c.cost() < best_cost;
    let is_waiting = |c: &Candidate| cfg.diversification && wait[c.mv.process.index()] > n;
    let admissible = |c: &Candidate| !is_tabu(c) || aspirates(c) || is_waiting(c);
    let best_of = |pred: &dyn Fn(&Candidate) -> bool| -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| pred(c))
            .min_by_key(|(_, c)| (c.cost(), c.index))
            .map(|(i, _)| i)
    };

    let x_now = best_of(&admissible);
    let selected = match x_now {
        Some(i) if candidates[i].cost() < best_cost => Some(i),
        _ => best_of(&|c: &Candidate| is_waiting(c))
            .or_else(|| best_of(&|c: &Candidate| !is_tabu(c)))
            .or(x_now),
    };
    // Every candidate may be tabu without aspiring: then simply take
    // the overall best to keep the search moving.
    selected.or_else(|| best_of(&|_| true))
}

/// Why [`TabuSearch::run`] returned control to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TabuPause {
    /// The per-call iteration budget was consumed; the search can
    /// continue from exactly where it stopped (this is where a
    /// portfolio epoch ends).
    Budget,
    /// The search is done: the goal was reached, the neighbourhood is
    /// empty, the iteration cap was hit, or the wall-clock cutoff
    /// passed. Further calls return immediately unless
    /// [`TabuSearch::inject`] opens a new neighbourhood.
    Finished,
}

/// A resumable tabu search (paper Fig. 9) over one policy space.
///
/// [`tabu_search_mpa_with`] runs it to completion in one call; the
/// portfolio engine ([`crate::portfolio`]) instead interleaves
/// bounded [`TabuSearch::run`] chunks with deterministic elite
/// exchanges ([`TabuSearch::inject`]) between epochs. All search
/// state — tabu tenures, waiting times, the rotating neighbourhood
/// window offset, the incremental placement checkpoints — survives
/// across calls, so a sequence of budgeted `run` calls walks the
/// *identical* trajectory as one unbudgeted call.
///
/// [`TabuSearch::focused`] draws every window from a fixed process
/// list instead of the critical path; its one caller is the repair
/// ladder's localized rung ([`mod@crate::repair`]), which searches the
/// decisions a problem delta dirtied.
pub struct TabuSearch<'e, 'p> {
    evaluator: &'e Evaluator<'p>,
    pool: &'e WorkerPool,
    cfg: SearchConfig,
    table: MoveTable,
    tabu: Vec<usize>,
    wait: Vec<usize>,
    spans: Vec<Span>,
    /// The moves this iteration scores: at most
    /// `max_moves_per_iteration` of the neighbourhood.
    window: Vec<MoveRef>,
    candidates: Vec<Candidate>,
    // The recorded placement of the current solution: empty
    // for the first window (the start schedule was materialized
    // elsewhere), then refreshed for free by every winner
    // materialization.
    ckpts: PlacementCheckpoints,
    now_design: Design,
    now_schedule: Arc<Schedule>,
    best_design: Design,
    best_schedule: Arc<Schedule>,
    tenure: usize,
    n: usize,
    /// The processes windows draw from instead of the critical path.
    focus: Option<Vec<ProcessId>>,
}

impl std::fmt::Debug for TabuSearch<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabuSearch")
            .field("best_cost", &self.best_schedule.cost())
            .finish_non_exhaustive()
    }
}

impl<'e, 'p> TabuSearch<'e, 'p> {
    /// Prepares a search from `start` over `space`, sharing the
    /// caller's evaluator (memoization) and worker pool (window
    /// parallelism). `cfg` is captured by clone; its limits apply to
    /// the externally supplied `stats` counter, so several stages may
    /// share one budget (see [`tabu_search_mpa_with`]).
    #[must_use]
    pub fn new(
        evaluator: &'e Evaluator<'p>,
        pool: &'e WorkerPool,
        space: PolicySpace,
        start: (Design, Arc<Schedule>),
        cfg: &SearchConfig,
    ) -> Self {
        let problem = evaluator.problem();
        let n = problem.process_count();
        let (start_design, start_schedule) = start;
        TabuSearch {
            evaluator,
            pool,
            cfg: cfg.clone(),
            table: MoveTable::new(problem, space),
            tabu: vec![0usize; n],
            wait: vec![0usize; n],
            spans: Vec::new(),
            window: Vec::new(),
            candidates: Vec::new(),
            ckpts: PlacementCheckpoints::new(),
            best_design: start_design.clone(),
            best_schedule: Arc::clone(&start_schedule),
            now_design: start_design,
            now_schedule: start_schedule,
            tenure: cfg.tenure_for(n),
            n,
            focus: None,
        }
    }

    /// Draws every window from `processes`, in their order, instead of
    /// from the current solution's critical path: decisions of other
    /// processes never move.
    #[must_use]
    pub fn focused(mut self, processes: Vec<ProcessId>) -> Self {
        self.focus = Some(processes);
        self
    }

    /// The cost of the best solution found so far.
    #[must_use]
    pub fn best_cost(&self) -> ftdes_sched::ScheduleCost {
        self.best_schedule.cost()
    }

    /// Whether the best solution meets every deadline.
    #[must_use]
    pub fn best_is_schedulable(&self) -> bool {
        self.best_schedule.is_schedulable()
    }

    /// A clone of the best solution (design + shared schedule).
    #[must_use]
    pub fn best(&self) -> (Design, Arc<Schedule>) {
        (self.best_design.clone(), Arc::clone(&self.best_schedule))
    }

    /// Consumes the search, returning the best solution found.
    #[must_use]
    pub fn into_best(self) -> (Design, Schedule) {
        let TabuSearch {
            best_design,
            best_schedule,
            now_schedule,
            ..
        } = self;
        drop(now_schedule);
        let schedule = Arc::try_unwrap(best_schedule).unwrap_or_else(|shared| (*shared).clone());
        (best_design, schedule)
    }

    /// Adopts `design` as the current solution (the portfolio's elite
    /// exchange): materializes its schedule (recording placement
    /// checkpoints when the incremental engine is on, so subsequent
    /// windows score against it), replaces the working solution, and
    /// updates the best-so-far when the elite is strictly better.
    /// Tabu tenures and waiting times are deliberately kept — they
    /// describe the worker's own move history, which is what keeps a
    /// diversified worker diversified after adopting a shared elite.
    ///
    /// # Errors
    ///
    /// Propagates [`OptError::Sched`] when the design cannot be
    /// scheduled.
    pub fn inject(&mut self, design: Design, stats: &mut SearchStats) -> Result<(), OptError> {
        let schedule = self
            .evaluator
            .schedule(&design, self.cfg.incremental.then_some(&mut self.ckpts))?;
        stats.evaluations += 1;
        if schedule.cost() < self.best_schedule.cost() {
            self.best_design = design.clone();
            self.best_schedule = Arc::clone(&schedule);
        }
        self.now_design = design;
        self.now_schedule = schedule;
        Ok(())
    }

    /// Runs until the goal is reached, the limits are exhausted, or
    /// `budget` further iterations were performed (`None` =
    /// unlimited). The trajectory of a budgeted call sequence is
    /// bit-identical to one unbudgeted call — only *where control
    /// returns* differs, never *what is searched*.
    ///
    /// # Errors
    ///
    /// Propagates [`OptError::Sched`] when a candidate cannot be
    /// evaluated.
    pub fn run(
        &mut self,
        stats: &mut SearchStats,
        cutoff: Option<Instant>,
        budget: Option<usize>,
    ) -> Result<TabuPause, OptError> {
        let mut left = budget;
        loop {
            if (self.cfg.goal == Goal::MeetDeadline && self.best_schedule.is_schedulable())
                || stats.tabu_iterations >= self.cfg.max_tabu_iterations
                || cutoff.is_some_and(|c| Instant::now() >= c)
            {
                return Ok(TabuPause::Finished);
            }
            if let Some(l) = &mut left {
                if *l == 0 {
                    return Ok(TabuPause::Budget);
                }
                *l -= 1;
            }
            if !self.step(stats, cutoff)? {
                return Ok(TabuPause::Finished);
            }
        }
    }

    /// One tabu iteration (window → selection → acceptance). Returns
    /// `false` when the search cannot advance (empty neighbourhood or
    /// no selectable candidate).
    fn step(&mut self, stats: &mut SearchStats, cutoff: Option<Instant>) -> Result<bool, OptError> {
        let (cfg, problem) = (&self.cfg, self.evaluator.problem());
        stats.tabu_iterations += 1;

        // Line 7: moves for the critical path of the current solution
        // (or for the focused processes).
        let cp;
        let processes = match &self.focus {
            Some(focus) => focus.as_slice(),
            None => {
                cp = self
                    .now_schedule
                    .move_candidates(problem.graph(), cfg.min_move_candidates);
                &cp
            }
        };
        let moves = self
            .table
            .neighbourhood(&self.now_design, processes, &mut self.spans);
        if moves == 0 {
            return Ok(false);
        }
        // Bound the neighbourhood: rotate a deterministic window over
        // the full move list so every move still gets its turn. Only
        // the moves scored are decoded.
        let cap = cfg.max_moves_per_iteration.max(1) as u64;
        let offset = if moves > cap {
            (stats.tabu_iterations.wrapping_sub(1) as u64 * cap) % moves
        } else {
            0
        };
        self.window.clear();
        take_moves(&self.spans, offset, cap.min(moves), &mut self.window);

        // The incumbent bound: the current solution's exact cost. A
        // candidate that provably exceeds it aborts mid-placement.
        // Deterministic (no racy window incumbent), so the pruned set
        // is identical across thread counts and cache states.
        let bound = if cfg.bounded {
            Some(self.now_schedule.cost())
        } else {
            None
        };
        // The window's shared evaluation context: one O(n) base key
        // (per-candidate keys are then O(1)), the base solution's
        // checkpoints, the bound — the whole cache → splice → bounded
        // placement stack behind one facade.
        let ceval = self.evaluator.candidate_eval(
            &self.now_design,
            cfg.incremental.then_some(&self.ckpts),
            bound,
        );

        // Evaluate the window in parallel (cost-only); results stay
        // in move order.
        let evaluated = ceval.score(
            self.pool,
            &self.table,
            &self.now_design,
            &self.window,
            cutoff,
        )?;
        self.candidates.clear();
        for (index, (mv, slot)) in self.window.iter().zip(evaluated).enumerate() {
            if let Some((outcome, hit)) = slot {
                stats.record(outcome, hit);
                self.candidates.push(Candidate {
                    index,
                    mv: *mv,
                    outcome,
                });
            }
        }

        let best_cost = self.best_schedule.cost();

        // Lines 14–20 with bounded-evaluation resolution: run the
        // selection, then exactly re-evaluate every pruned candidate
        // whose lower bound is at or below the would-be winner — its
        // true cost could still change the outcome. Repeat until the
        // winner is exact and nothing below it is unresolved. Each
        // pass resolves at least one candidate, the resolution set is
        // a deterministic function of the (deterministic) bounds, and
        // lower bounds never under-rank a candidate, so the final
        // selection equals the all-exact selection bit for bit.
        let selected = loop {
            let Some(sel) = select_candidate(
                &self.candidates,
                best_cost,
                &self.tabu,
                &self.wait,
                cfg,
                self.n,
            ) else {
                break None;
            };
            let (w_cost, w_index) = (self.candidates[sel].cost(), self.candidates[sel].index);
            // When the winner is exact, a resolution only has to push
            // each unresolved candidate past it — re-evaluate bounded
            // by the winner's cost (still a certified classification,
            // far cheaper than a full run). A pruned winner is
            // resolved exactly.
            let resolve_bound = self.candidates[sel].outcome.is_exact().then_some(w_cost);
            let mut resolved_any = false;
            for c in &mut self.candidates {
                if !c.outcome.is_exact() && (c.outcome.cost(), c.index) <= (w_cost, w_index) {
                    let (outcome, hit) = ceval.eval_move_bounded(
                        &mut self.now_design,
                        c.mv.process,
                        &mut self.table.decision(c.mv),
                        resolve_bound,
                    )?;
                    stats.record(outcome, hit);
                    debug_assert!(outcome.is_exact() || outcome.cost() > w_cost);
                    c.outcome = outcome;
                    resolved_any = true;
                }
            }
            if !resolved_any {
                break Some(sel);
            }
        };
        let Some(selected) = selected else {
            return Ok(false);
        };

        let chosen = self.candidates.swap_remove(selected);
        self.now_design
            .set_decision(chosen.mv.process, self.table.decision(chosen.mv));
        // Materialize the winner's schedule (the next iteration needs
        // its critical path); one full run per iteration, counted —
        // and the incremental engine records its checkpoints on it.
        stats.evaluations += 1;
        self.now_schedule = self
            .evaluator
            .schedule(&self.now_design, cfg.incremental.then_some(&mut self.ckpts))?;
        debug_assert_eq!(self.now_schedule.cost(), chosen.cost());

        // Lines 23–25: best-so-far and history updates.
        if self.now_schedule.cost() < best_cost {
            self.best_design = self.now_design.clone();
            self.best_schedule = Arc::clone(&self.now_schedule);
        }
        for t in &mut self.tabu {
            *t = t.saturating_sub(1);
        }
        for w in &mut self.wait {
            *w += 1;
        }
        self.tabu[chosen.mv.process.index()] = self.tenure;
        self.wait[chosen.mv.process.index()] = 0;
        Ok(true)
    }
}

/// Runs the tabu search from `start` until the goal is reached or
/// the limits are exhausted, returning the best design found. The
/// caller-owned [`Evaluator`] and [`WorkerPool`] span the greedy
/// phase, both staged tabu passes and any further evaluation the
/// caller performs, so the memoization cache and the worker threads
/// are shared.
///
/// Candidate evaluation is parallel (see [`SearchConfig::threads`])
/// and memoized (see [`SearchConfig::eval_cache`]); both are pure
/// throughput knobs — the search trajectory is bit-identical across
/// thread counts because selection resolves ties by
/// `(cost, move index)`.
///
/// # Errors
///
/// Propagates [`OptError::Sched`] when a candidate cannot be
/// evaluated.
pub fn tabu_search_mpa_with(
    evaluator: &Evaluator<'_>,
    pool: &WorkerPool,
    space: PolicySpace,
    start: (Design, Schedule),
    cfg: &SearchConfig,
    cutoff: Option<Instant>,
    stats: &mut SearchStats,
) -> Result<(Design, Schedule), OptError> {
    let (start_design, start_schedule) = start;
    let mut search = TabuSearch::new(
        evaluator,
        pool,
        space,
        (start_design, Arc::new(start_schedule)),
        cfg,
    );
    search.run(stats, cutoff, None)?;
    Ok(search.into_best())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::initial_mpa;
    use crate::problem::Problem;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    /// Paper Fig. 8's four-process application on two nodes (k = 1,
    /// µ = 10 ms).
    fn fig8_problem() -> Problem {
        let ms = Time::from_ms;
        let mut g = ProcessGraph::new(0.into());
        let p: Vec<_> = g.add_processes(4);
        g.add_edge(p[0], p[1], Message::new(4)).unwrap();
        g.add_edge(p[0], p[2], Message::new(4)).unwrap();
        g.add_edge(p[1], p[3], Message::new(4)).unwrap();
        let mut wcet = WcetTable::new();
        let c = [(40, 50), (60, 75), (60, 75), (40, 50)];
        for (i, &(c0, c1)) in c.iter().enumerate() {
            wcet.set(p[i], NodeId::new(0), ms(c0));
            wcet.set(p[i], NodeId::new(1), ms(c1));
        }
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(1, ms(10)), bus)
    }

    /// The mixed-space tabu search from `start` on an evaluator and a
    /// one-thread pool of its own.
    pub(super) fn tabu_search(
        problem: &Problem,
        start: (Design, Schedule),
        cfg: &SearchConfig,
        stats: &mut SearchStats,
    ) -> (Design, Schedule) {
        let evaluator = Evaluator::with_cache(problem, cfg.eval_cache);
        let pool = WorkerPool::new(1);
        tabu_search_mpa_with(
            &evaluator,
            &pool,
            PolicySpace::Mixed,
            start,
            cfg,
            None,
            stats,
        )
        .unwrap()
    }

    #[test]
    fn tabu_never_returns_worse_than_start() {
        let problem = fig8_problem();
        let cfg = SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 30,
            ..SearchConfig::default()
        };
        let mut stats = SearchStats::default();
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let start_sched = problem.evaluate(&start).unwrap();
        let start_cost = start_sched.cost();
        let (_, best) = tabu_search(&problem, (start, start_sched), &cfg, &mut stats);
        assert!(best.cost() <= start_cost);
        assert_eq!(stats.tabu_iterations, 30, "length goal runs to the limit");
    }

    #[test]
    fn focused_search_moves_only_its_processes() {
        let problem = fig8_problem();
        let cfg = SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 30,
            ..SearchConfig::default()
        };
        let evaluator = Evaluator::with_cache(&problem, true);
        let pool = WorkerPool::new(1);
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let start_schedule = evaluator.schedule(&start, None).unwrap();
        let focus = vec![ProcessId::new(1), ProcessId::new(3)];
        let mut search = TabuSearch::new(
            &evaluator,
            &pool,
            PolicySpace::Mixed,
            (start.clone(), Arc::clone(&start_schedule)),
            &cfg,
        )
        .focused(focus.clone());
        let mut stats = SearchStats::default();
        assert_eq!(
            search.run(&mut stats, None, None).unwrap(),
            TabuPause::Finished
        );
        assert_eq!(stats.tabu_iterations, 30);
        assert!(stats.candidates() > 0);
        let (best, schedule) = search.into_best();
        assert!(
            schedule.cost() < start_schedule.cost(),
            "the focus improves"
        );
        for (p, decision) in best.iter() {
            if !focus.contains(&p) {
                assert_eq!(decision, start.decision(p), "{p} is not focused");
            }
        }
    }

    #[test]
    fn tabu_escapes_greedy_local_optimum() {
        // The tabu search accepts worsening moves, so over enough
        // iterations it must match or beat the pure greedy result.
        let problem = fig8_problem();
        let cfg = SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 50,
            ..SearchConfig::default()
        };
        let mut stats = SearchStats::default();
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let evaluator = Evaluator::with_cache(&problem, cfg.eval_cache);
        let pool = WorkerPool::new(1);
        let (gd, gs) = crate::greedy::greedy_mpa_with(
            &evaluator,
            &pool,
            PolicySpace::Mixed,
            start,
            &cfg,
            None,
            &mut stats,
        )
        .unwrap();
        let greedy_cost = gs.cost();
        let (_, ts) = tabu_search_mpa_with(
            &evaluator,
            &pool,
            PolicySpace::Mixed,
            (gd, gs),
            &cfg,
            None,
            &mut stats,
        )
        .unwrap();
        assert!(ts.cost() <= greedy_cost);
    }

    #[test]
    fn deadline_goal_stops_on_schedulable() {
        let problem = fig8_problem();
        let mut g = problem.graph().clone();
        for i in 0..4 {
            g.process_mut(ftdes_model::ids::ProcessId::new(i)).deadline =
                Some(Time::from_ms(1_000_000));
        }
        let problem = Problem::new(
            g,
            problem.arch().clone(),
            problem.wcet().clone(),
            *problem.fault_model(),
            problem.bus().clone(),
        );
        let cfg = SearchConfig::default();
        let mut stats = SearchStats::default();
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let sched = problem.evaluate(&start).unwrap();
        let (_, best) = tabu_search(&problem, (start, sched), &cfg, &mut stats);
        assert!(best.is_schedulable());
        assert_eq!(stats.tabu_iterations, 0, "already schedulable at entry");
    }
}

#[cfg(test)]
mod option_tests {
    use super::*;
    use crate::initial::initial_mpa;
    use crate::problem::Problem;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    fn problem() -> Problem {
        let mut g = ProcessGraph::new(0.into());
        let ps: Vec<_> = g.add_processes(6);
        for w in ps.windows(2) {
            g.add_edge(w[0], w[1], Message::new(2)).unwrap();
        }
        let mut wcet = WcetTable::new();
        for (i, &p) in ps.iter().enumerate() {
            wcet.set(p, NodeId::new(0), Time::from_ms(10 + i as u64));
            wcet.set(p, NodeId::new(1), Time::from_ms(12 + i as u64));
        }
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 2, Time::from_ms(1)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(1, Time::from_ms(5)), bus)
    }

    fn run(cfg: &SearchConfig) -> (ftdes_model::time::Time, SearchStats) {
        let problem = problem();
        let mut stats = SearchStats::default();
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let sched = problem.evaluate(&start).unwrap();
        stats.evaluations += 1;
        let (_, best) = super::tests::tabu_search(&problem, (start, sched), cfg, &mut stats);
        (best.length(), stats)
    }

    #[test]
    fn toggles_change_behaviour_but_stay_sound() {
        let base = SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 25,
            time_limit: None,
            ..SearchConfig::default()
        };
        let (full, _) = run(&base);
        let (no_div, _) = run(&SearchConfig {
            diversification: false,
            ..base.clone()
        });
        // Both converge to something; soundness = deterministic,
        // comparable lengths (the richer machinery never loses by
        // more than it explores).
        for v in [full, no_div] {
            assert!(v > ftdes_model::time::Time::ZERO);
        }
    }

    #[test]
    fn neighbourhood_cap_rotates_deterministically() {
        let base = SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 12,
            max_moves_per_iteration: 3,
            time_limit: None,
            ..SearchConfig::default()
        };
        let (a, sa) = run(&base);
        let (b, sb) = run(&base);
        assert_eq!(a, b, "capped search is deterministic");
        assert_eq!(sa.evaluations, sb.evaluations);
        // The cap truly bounds the work: at most cap cost evaluations
        // plus one winner materialization per iteration (plus the
        // initial evaluation).
        assert!(sa.evaluations <= 1 + 12 * (3 + 1));
    }

    #[test]
    fn iteration_limit_respected() {
        let cfg = SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 5,
            time_limit: None,
            ..SearchConfig::default()
        };
        let (_, stats) = run(&cfg);
        assert_eq!(stats.tabu_iterations, 5);
    }
}
