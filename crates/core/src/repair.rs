//! Graceful degradation: repairing a deployed design after a
//! [`ProblemDelta`] instead of re-solving from scratch.
//!
//! The paper's optimization runs offline with a generous time budget.
//! A fielded system that loses a node (or revises a WCET) needs a
//! *repaired* design orders of magnitude faster — and most of the old
//! design is usually still right. The repair pipeline:
//!
//! 1. [`apply_delta`] builds the post-delta [`Problem`] (same
//!    architecture and bus — killed nodes fall silent in their TDMA
//!    slot — with the delta's graph/WCET and remapped designer
//!    constraints).
//! 2. [`project_design`] translates the previous design into the
//!    post-delta id space: surviving decisions carry over, replicas
//!    on dead nodes are shed (shrinking the replication level), and
//!    removed/added processes are handled by the remap.
//! 3. [`repair`] runs the **escalation ladder**: four rungs of
//!    increasing effort, each with its own slice of the repair
//!    budget, each falling through to the next when it cannot accept
//!    — and the returned [`RepairOutcome`] records which rung
//!    produced the design and why the earlier rungs fell through.
//!
//! | rung | effort | accepts when |
//! |---|---|---|
//! | 0 [`RepairRung::Revalidate`] | validate + one evaluation | projected design schedulable **and** nothing dirty |
//! | 1 [`RepairRung::Localized`] | [`TabuSearch`] drawing its windows from the dirty processes | converged, schedulable, before its slice ends |
//! | 2 [`RepairRung::Warm`] | [`TabuSearch`] over the critical path | finished, schedulable, before its slice ends |
//! | 3 [`RepairRung::Scratch`] | from-scratch MXR [`optimize`](crate::strategy::optimize) | best effort (last resort) |
//!
//! Rung 0's acceptance returns immediately (nothing changed that the
//! old design does not already answer). Rungs 1 and 2 are the engine's
//! one tabu search, started from the best design so far, and form a
//! progressive polish. Rung 1 is [`TabuSearch::focused`] on the dirty
//! processes: clean decisions never move, and it has converged once
//! `max(2·|dirty|, 4)` iterations in a row bring no new best, or when
//! the search finishes (goal met, empty or unselectable window,
//! iteration cap). An accepted localized repair is still handed to
//! rung 2, whose windows reach the clean decisions the delta's load
//! shift may have invalidated in spirit if not in letter. Both share
//! the iteration cap and end [`RungStatus::TimedOut`] when their
//! slice ends first. Rung 3 runs only when no earlier rung accepted —
//! it is the fallback, not a routine fourth pass.
//!
//! Every rung reads one [`EvalCache`], created by [`repair`] and
//! dropped when it returns: rungs 0–2 share one [`Evaluator`] over it
//! and rung 3's search reads it too, so rungs 1–3 reuse each other's
//! candidate costs. One running record keeps every attempt, the summed
//! statistics and the best design so far, so escalation never loses
//! quality already found.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftdes_model::delta::{AppliedDelta, CompatibilityReport, ProblemDelta};
use ftdes_model::design::{Design, DesignConstraints, ProcessDesign};
use ftdes_model::error::ModelError;
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::policy::{FtPolicy, MappingConstraint};
use ftdes_model::time::Time;
use ftdes_sched::Schedule;

use crate::cache::{EvalCache, Evaluator};
use crate::config::{SearchConfig, SearchStats};
use crate::error::OptError;
use crate::moves::{MoveRef, MoveTable};
use crate::parallel::{effective_threads, WorkerPool};
use crate::problem::Problem;
use crate::space::PolicySpace;
use crate::strategy::{optimize_shared, Strategy};
use crate::tabu::{TabuPause, TabuSearch};

/// Builds the post-delta problem: the delta's graph and WCET table on
/// the unchanged architecture and bus, with designer constraints
/// remapped to the new id space (a mapping constraint pinning a
/// process to a node that died is dropped — keeping it would make the
/// process unplaceable by decree) and the engine knobs (checkpoint
/// range, splice switch, occupancy backend and priority strategy)
/// carried over.
///
/// # Errors
///
/// Propagates every [`ProblemDelta::apply`] error — including
/// [`ModelError::Unmappable`] when the platform degraded beyond what
/// any repair can absorb — and returns [`ModelError::InvalidDelta`]
/// when the post-delta problem overflows the horizon budget
/// ([`Problem::fits_horizon_budget`], from its latest release: a
/// problem carries no hyperperiod).
pub fn apply_delta(
    problem: &Problem,
    delta: &ProblemDelta,
) -> Result<(Problem, AppliedDelta), ModelError> {
    let applied = delta.apply(problem.graph(), problem.arch(), problem.wcet())?;

    let old = problem.constraints();
    let mut constraints = DesignConstraints::free(applied.graph.process_count());
    for i in 0..problem.process_count() {
        let p = ProcessId::new(i as u32);
        if let Some(q) = applied.map_process(p) {
            constraints.set_policy(q, old.policy(p));
            match old.mapping(p) {
                MappingConstraint::Fixed(n) if applied.killed_nodes().contains(&n) => {}
                c => constraints.set_mapping(q, c),
            }
        }
    }

    let opts = problem.schedule_options();
    let new = Problem::new(
        applied.graph.clone(),
        problem.arch().clone(),
        applied.wcet.clone(),
        *problem.fault_model(),
        problem.bus().clone(),
    )
    .with_max_checkpoints(problem.max_checkpoints())
    .with_constraints(constraints)
    .with_suffix_splice(opts.suffix_splice)
    .with_occupancy_backend(opts.occupancy)
    .with_priority_strategy(opts.priority);
    if !new.fits_horizon_budget(Time::ZERO) {
        return Err(ModelError::InvalidDelta {
            reason: "the post-delta worst-case schedule horizon overflows its budget",
        });
    }
    Ok((new, applied))
}

/// Projects the previous design onto the post-delta problem:
///
/// * a surviving process keeps its decision, with replicas on
///   now-ineligible nodes shed and the replication level shrunk to
///   match (checkpoint counts are clamped to the problem's range),
/// * a process whose whole mapping died falls back to its cheapest
///   admissible decision,
/// * an added process gets its cheapest admissible decision.
///
/// The result always passes [`Design::validate`] on `problem` — it is
/// the rung-0 candidate and every later rung's warm start.
///
/// # Errors
///
/// [`OptError::NoFeasiblePlacement`] when a process has no admissible
/// decision at all (cannot happen for deltas accepted by
/// [`apply_delta`], which re-validates mappability).
pub fn project_design(
    prev: &Design,
    applied: &AppliedDelta,
    problem: &Problem,
) -> Result<Design, OptError> {
    let fm = problem.fault_model();
    let wcet = problem.wcet();
    let n = problem.process_count();
    let table = MoveTable::new(problem, PolicySpace::Mixed);
    let mut decisions = Vec::with_capacity(n);
    for i in 0..n {
        let q = ProcessId::new(i as u32);
        let projected = applied.origin_of(q).and_then(|p| {
            let d = prev.decision(p);
            let surviving: Vec<NodeId> = d
                .mapping
                .iter()
                .copied()
                .filter(|&node| wcet.is_eligible(q, node))
                .collect();
            if surviving.is_empty() {
                return None;
            }
            if let MappingConstraint::Fixed(required) = problem.constraints().mapping(q) {
                if surviving[0] != required {
                    // The primary moved off the pinned node: let the
                    // fallback pick a constraint-respecting decision
                    // instead of guessing here.
                    return None;
                }
            }
            let r = (surviving.len() as u32).min(fm.max_replicas());
            let mapping: Vec<NodeId> = surviving.into_iter().take(r as usize).collect();
            let policy =
                rebuild_policy(q, r, d.policy.checkpoints(), fm, problem.max_checkpoints());
            ProcessDesign::new(policy, mapping).ok()
        });
        decisions.push(match projected {
            Some(d) => d,
            // The cheapest admissible decision: index 0 of the space
            // (lowest replication level, fastest primary, one segment).
            None if table.len(q) > 0 => table.decision(MoveRef {
                process: q,
                decision: 0,
            }),
            None => return Err(OptError::NoFeasiblePlacement { process: q }),
        });
    }
    let design = Design::from_decisions(decisions);
    debug_assert!(design
        .validate(
            problem.arch(),
            problem.wcet(),
            problem.fault_model(),
            problem.constraints()
        )
        .is_ok());
    Ok(design)
}

/// Rebuilds a policy for replication level `r`, keeping the previous
/// checkpoint count when the new level still has a re-execution
/// budget to roll back with.
fn rebuild_policy(
    q: ProcessId,
    r: u32,
    checkpoints: u32,
    fm: &ftdes_model::fault::FaultModel,
    max_checkpoints: u32,
) -> FtPolicy {
    let base = FtPolicy::new(q, r.clamp(1, fm.max_replicas()), fm)
        .unwrap_or_else(|_| FtPolicy::reexecution(fm));
    let want = checkpoints.clamp(1, max_checkpoints.max(1));
    base.with_checkpoints(q, want, fm).unwrap_or(base)
}

/// Per-rung wall-clock slices of a repair run. Rung 0 needs no slice
/// (one validation + one evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairBudget {
    /// Slice for rung 1, the localized tabu over dirty decisions.
    pub localized: Duration,
    /// Slice for rung 2, the full warm-started tabu.
    pub warm: Duration,
    /// Slice for rung 3, the from-scratch search.
    pub scratch: Duration,
}

impl RepairBudget {
    /// Splits `total` into the default 25% / 35% / 40% rung slices.
    #[must_use]
    pub fn from_total(total: Duration) -> Self {
        RepairBudget {
            localized: total.mul_f64(0.25),
            warm: total.mul_f64(0.35),
            scratch: total.mul_f64(0.40),
        }
    }

    /// The summed wall-clock ceiling of the ladder.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.localized + self.warm + self.scratch
    }
}

/// The four rungs of the escalation ladder, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairRung {
    /// Rung 0: re-validate and re-evaluate the projected design
    /// as-is.
    Revalidate,
    /// Rung 1: tabu search restricted to the decisions the
    /// compatibility report marked dirty.
    Localized,
    /// Rung 2: full tabu search warm-started from the best design so
    /// far.
    Warm,
    /// Rung 3: from-scratch optimization (shares the ladder's
    /// evaluation cache).
    Scratch,
}

impl fmt::Display for RepairRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RepairRung::Revalidate => "rung 0 (revalidate)",
            RepairRung::Localized => "rung 1 (localized tabu)",
            RepairRung::Warm => "rung 2 (warm tabu)",
            RepairRung::Scratch => "rung 3 (from scratch)",
        };
        f.write_str(name)
    }
}

/// How one rung of the ladder ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RungStatus {
    /// The rung produced a schedulable design within its budget
    /// slice. The ladder still lets rung 2 polish an accepted
    /// localized repair; it stops escalating to the from-scratch
    /// fallback once any rung has accepted.
    Accepted,
    /// The rung ran but its result could not be accepted; the reason
    /// (not schedulable, dirty decisions remain, ...) is recorded.
    Rejected(String),
    /// The rung hit its budget slice before converging and escalated.
    TimedOut,
    /// The rung did not apply (e.g. nothing dirty to search locally).
    Skipped(String),
}

/// One ladder step as recorded in the [`RepairOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungAttempt {
    /// Which rung.
    pub rung: RepairRung,
    /// How it ended.
    pub status: RungStatus,
    /// Wall-clock spent on this rung.
    pub elapsed: Duration,
    /// Best schedule length the rung produced, if it produced one.
    pub length: Option<Time>,
}

/// The result of a repair: the post-delta problem, the repaired
/// design/schedule, and the full provenance of how the ladder got
/// there.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The post-delta problem the design solves.
    pub problem: Problem,
    /// The repaired design.
    pub design: Design,
    /// Its schedule on the post-delta problem.
    pub schedule: Schedule,
    /// The rung that produced `design`.
    pub rung: RepairRung,
    /// Every rung attempted, in order, with its outcome — the
    /// retry/timeout/fallback audit trail.
    pub attempts: Vec<RungAttempt>,
    /// Which decisions of the previous design survived the delta.
    pub report: CompatibilityReport,
    /// Aggregated search statistics over all rungs.
    pub stats: SearchStats,
}

impl RepairOutcome {
    /// Worst-case schedule length δ of the repaired design.
    #[must_use]
    pub fn length(&self) -> Time {
        self.schedule.length()
    }

    /// Returns `true` when the repaired design meets all deadlines.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.schedule.is_schedulable()
    }
}

/// Errors of the repair pipeline.
#[derive(Debug)]
pub enum RepairError {
    /// The delta itself could not be applied (unknown references,
    /// platform degraded beyond mappability, ...).
    Delta(ModelError),
    /// The search failed (no feasible placement, scheduler error).
    Opt(OptError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Delta(e) => write!(f, "delta rejected: {e}"),
            RepairError::Opt(e) => write!(f, "repair search failed: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<ModelError> for RepairError {
    fn from(e: ModelError) -> Self {
        RepairError::Delta(e)
    }
}

impl From<OptError> for RepairError {
    fn from(e: OptError) -> Self {
        RepairError::Opt(e)
    }
}

/// Repairs `prev` — a design for `problem` — after `delta`, running
/// the escalation ladder described in the module docs.
///
/// `cfg` supplies the search knobs (goal, tenure, window sizes,
/// iteration caps); its `time_limit` is ignored — the rung slices of
/// `budget` govern wall-clock instead.
///
/// # Errors
///
/// * [`RepairError::Delta`] when the delta cannot be applied,
/// * [`RepairError::Opt`] when no rung could produce any schedule at
///   all.
///
/// A *schedulability* failure is not an error: the outcome's schedule
/// reports `is_schedulable() == false` and the attempts record why
/// every rung fell through — callers decide whether a degraded-mode
/// (deadline-missing) design is acceptable.
pub fn repair(
    problem: &Problem,
    prev: &Design,
    delta: &ProblemDelta,
    budget: &RepairBudget,
    cfg: &SearchConfig,
) -> Result<RepairOutcome, RepairError> {
    let (new_problem, applied) = apply_delta(problem, delta)?;
    let report = applied.compatibility(prev, new_problem.fault_model());
    let projected = project_design(prev, &applied, &new_problem)?;
    run_ladder(new_problem, projected, report, budget, cfg)
}

/// The ladder's running record: every attempt so far, the search
/// statistics summed over the rungs, and the best design found with
/// the rung that produced it.
#[derive(Default)]
struct Ladder {
    attempts: Vec<RungAttempt>,
    stats: SearchStats,
    best: Option<(Design, Arc<Schedule>, RepairRung)>,
}

impl Ladder {
    /// Records how `rung`, started at `since`, ended.
    fn record(
        &mut self,
        rung: RepairRung,
        status: RungStatus,
        since: Instant,
        length: Option<Time>,
    ) {
        self.attempts.push(RungAttempt {
            rung,
            status,
            elapsed: since.elapsed(),
            length,
        });
    }

    /// Keeps `design` when its cost (violation first, then length)
    /// beats the best so far: escalation never loses quality.
    fn offer(&mut self, design: Design, schedule: Arc<Schedule>, rung: RepairRung) {
        if self
            .best
            .as_ref()
            .is_none_or(|(_, best, _)| schedule.cost() < best.cost())
        {
            self.best = Some((design, schedule, rung));
        }
    }

    /// Whether some rung accepted: an accepted rung produced a
    /// schedulable design, and `offer` keeps the cost minimum, so the
    /// best so far is schedulable.
    fn accepted(&self) -> bool {
        self.attempts
            .iter()
            .any(|a| a.status == RungStatus::Accepted)
    }
}

fn run_ladder(
    problem: Problem,
    projected: Design,
    report: CompatibilityReport,
    budget: &RepairBudget,
    cfg: &SearchConfig,
) -> Result<RepairOutcome, RepairError> {
    let pool = WorkerPool::new(effective_threads(cfg.threads));
    let cache = Arc::new(EvalCache::default());
    let evaluator = Evaluator::with_shared_cache(&problem, Arc::clone(&cache));
    let mut ladder = Ladder::default();
    let started = Instant::now();

    // Rung slices ignore cfg.time_limit: the ladder owns wall-clock.
    let cfg = SearchConfig {
        time_limit: None,
        ..cfg.clone()
    };

    // --- Rung 0: re-validate the projected design as-is. ---
    let t0 = Instant::now();
    let revalidated = projected
        .validate(
            problem.arch(),
            problem.wcet(),
            problem.fault_model(),
            problem.constraints(),
        )
        .map_err(|e| format!("projected design invalid: {e}"))
        .and_then(|()| {
            evaluator
                .schedule(&projected, None)
                .map_err(|e| format!("projected design fails to schedule: {e}"))
        });
    match revalidated {
        Ok(schedule) => {
            ladder.stats.evaluations += 1;
            let status = if !schedule.is_schedulable() {
                RungStatus::Rejected("projected design misses deadlines".into())
            } else if !report.fully_compatible() {
                RungStatus::Rejected(format!(
                    "{} dirty decision(s) to re-optimize",
                    report.dirty().len()
                ))
            } else {
                RungStatus::Accepted
            };
            ladder.record(RepairRung::Revalidate, status, t0, Some(schedule.length()));
            ladder.offer(projected, schedule, RepairRung::Revalidate);
        }
        Err(reason) => ladder.record(
            RepairRung::Revalidate,
            RungStatus::Rejected(reason),
            t0,
            None,
        ),
    }

    // --- Rungs 1 and 2: the tabu search from the best so far, first
    // over the dirty decisions, then over the whole design. Rung 0's
    // acceptance returns at once (nothing changed that the old design
    // does not already answer); an accepted rung 1 is still polished
    // by rung 2, whose window reaches the clean decisions the delta's
    // load shift may have invalidated in spirit if not in letter.
    if !ladder.accepted() {
        let dirty: Vec<ProcessId> = report.dirty_processes().collect();
        let rungs = [
            (RepairRung::Localized, budget.localized),
            (RepairRung::Warm, budget.warm),
        ];
        for (rung, slice) in rungs {
            let t = Instant::now();
            let localized = rung == RepairRung::Localized;
            let Some((design, schedule, _)) = &ladder.best else {
                let reason = "no valid warm start to search from";
                ladder.record(rung, RungStatus::Skipped(reason.into()), t, None);
                continue;
            };
            if localized && dirty.is_empty() {
                let reason = "no dirty decisions to search";
                ladder.record(rung, RungStatus::Skipped(reason.into()), t, None);
                continue;
            }
            let start = (design.clone(), Arc::clone(schedule));
            let mut search = TabuSearch::new(&evaluator, &pool, PolicySpace::Mixed, start, &cfg);
            // Rung 1 has converged once this many iterations in a row
            // bring no new best.
            let mut stall = None;
            if localized {
                search = search.focused(dirty.clone());
                stall = Some((2 * dirty.len()).max(4));
            }
            match polish(&mut search, &mut ladder.stats, t + slice, stall) {
                Ok(timed_out) => {
                    let (design, schedule) = search.best();
                    let status = if timed_out {
                        RungStatus::TimedOut
                    } else if schedule.is_schedulable() {
                        RungStatus::Accepted
                    } else {
                        RungStatus::Rejected(format!("{rung} result misses deadlines"))
                    };
                    ladder.record(rung, status, t, Some(schedule.length()));
                    ladder.offer(design, schedule, rung);
                }
                Err(e) => {
                    let status = RungStatus::Rejected(format!("{rung} search failed: {e}"));
                    ladder.record(rung, status, t, None);
                }
            }
        }
    }

    // --- Rung 3: from scratch (shares the ladder's cache), when no
    // rung accepted — a merely-schedulable carry (e.g. a dirty
    // projection that happens to meet deadlines) is not endorsement,
    // or the ladder could return unpolished designs whenever the
    // earlier rungs time out. ---
    if !ladder.accepted() {
        let t3 = Instant::now();
        let scratch_cfg = SearchConfig {
            time_limit: Some(budget.scratch),
            ..cfg
        };
        match optimize_shared(&problem, Strategy::Mxr, &scratch_cfg, Some(cache)) {
            Ok(outcome) => {
                ladder.stats.add_counts(&outcome.stats);
                let schedule = Arc::new(outcome.schedule);
                let status = if schedule.is_schedulable() {
                    RungStatus::Accepted
                } else {
                    RungStatus::Rejected("even from-scratch search misses deadlines".into())
                };
                ladder.record(RepairRung::Scratch, status, t3, Some(schedule.length()));
                ladder.offer(outcome.design, schedule, RepairRung::Scratch);
            }
            // Nothing was carried, so nothing but this rung could
            // have produced a design: its error is the repair's.
            Err(e) if ladder.best.is_none() => return Err(RepairError::Opt(e)),
            Err(e) => {
                let status = RungStatus::Rejected(format!("from-scratch search failed: {e}"));
                ladder.record(RepairRung::Scratch, status, t3, None);
            }
        }
    }

    let Ladder {
        attempts,
        mut stats,
        best,
    } = ladder;
    let (design, schedule, rung) = best.expect("a design is carried or the scratch error returned");
    stats.elapsed = started.elapsed();
    Ok(RepairOutcome {
        problem,
        design,
        schedule: Arc::unwrap_or_clone(schedule),
        rung,
        attempts,
        report,
        stats,
    })
}

/// Steps `search` until it finishes or, given a `stall` limit, until
/// that many iterations in a row bring no new best (one iteration per
/// `run` call, so the rule sees each). Returns `true` when the search
/// finished with its slice over: the clock, not the search, ended it
/// (a slice over before the first iteration ends it before its goal
/// is looked at).
fn polish(
    search: &mut TabuSearch<'_, '_>,
    stats: &mut SearchStats,
    cutoff: Instant,
    stall: Option<usize>,
) -> Result<bool, OptError> {
    let mut since_best = 0;
    loop {
        let before = search.best_cost();
        if search.run(stats, Some(cutoff), stall.map(|_| 1))? == TabuPause::Finished {
            return Ok(Instant::now() >= cutoff);
        }
        since_best = if search.best_cost() < before {
            0
        } else {
            since_best + 1
        };
        if stall.is_some_and(|limit| since_best >= limit) {
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_gen::paper_workload;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::fault::FaultModel;
    use ftdes_ttp::config::BusConfig;

    fn small_problem(seed: u64) -> Problem {
        let arch = Architecture::with_node_count(3);
        let workload = paper_workload(12, &arch, seed);
        let largest = workload
            .graph
            .edges()
            .iter()
            .map(|e| e.message.size)
            .max()
            .unwrap_or(1)
            .max(1);
        let bus = BusConfig::initial(&arch, largest, Time::from_us(2_500)).unwrap();
        Problem::new(
            workload.graph,
            arch,
            workload.wcet,
            FaultModel::new(1, Time::from_ms(5)),
            bus,
        )
    }

    fn quick_cfg() -> SearchConfig {
        SearchConfig {
            max_tabu_iterations: 60,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn identity_delta_accepts_at_rung_zero() {
        let problem = small_problem(7);
        let outcome = crate::optimize(&problem, Strategy::Mxr, &quick_cfg()).unwrap();
        let budget = RepairBudget::from_total(Duration::from_millis(400));
        let repaired = repair(
            &problem,
            &outcome.design,
            &ProblemDelta::new(),
            &budget,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(repaired.rung, RepairRung::Revalidate);
        assert!(repaired.report.fully_compatible());
        assert_eq!(repaired.length(), outcome.schedule.length());
        assert_eq!(repaired.attempts.len(), 1);
        assert_eq!(repaired.attempts[0].status, RungStatus::Accepted);
    }

    #[test]
    fn kill_node_repairs_off_the_dead_node() {
        let problem = small_problem(11);
        let outcome = crate::optimize(&problem, Strategy::Mxr, &quick_cfg()).unwrap();
        let dead = NodeId::new(0);
        let budget = RepairBudget::from_total(Duration::from_millis(800));
        let repaired = repair(
            &problem,
            &outcome.design,
            &ProblemDelta::kill_node(dead),
            &budget,
            &quick_cfg(),
        )
        .unwrap();
        // No replica of the repaired design may reference the dead
        // node, and the design must validate on the new problem.
        for (_, d) in repaired.design.iter() {
            assert!(!d.mapping.contains(&dead));
        }
        repaired
            .design
            .validate(
                repaired.problem.arch(),
                repaired.problem.wcet(),
                repaired.problem.fault_model(),
                repaired.problem.constraints(),
            )
            .unwrap();
        // The ladder recorded how it got there.
        assert!(!repaired.attempts.is_empty());
        assert!(repaired.attempts.iter().any(|a| a.rung == repaired.rung));
    }

    #[test]
    fn localized_rung_keeps_the_clean_decisions() {
        // Without a warm slice, the accepted localized repair is the
        // outcome: only the dirty decisions may have moved.
        let problem = small_problem(11);
        let outcome = crate::optimize(&problem, Strategy::Mxr, &quick_cfg()).unwrap();
        let delta = ProblemDelta::kill_node(NodeId::new(0));
        let budget = RepairBudget {
            localized: Duration::from_secs(60),
            warm: Duration::ZERO,
            scratch: Duration::from_secs(60),
        };
        let cfg = SearchConfig {
            goal: crate::config::Goal::MinimizeLength,
            ..quick_cfg()
        };
        let repaired = repair(&problem, &outcome.design, &delta, &budget, &cfg).unwrap();
        let localized = &repaired.attempts[1];
        assert_eq!(localized.rung, RepairRung::Localized);
        assert_eq!(localized.status, RungStatus::Accepted);
        assert_eq!(repaired.rung, RepairRung::Localized, "rung 1 improved");
        let (new_problem, applied) = apply_delta(&problem, &delta).unwrap();
        let projected = project_design(&outcome.design, &applied, &new_problem).unwrap();
        assert!(!repaired.report.clean().is_empty());
        for &p in repaired.report.clean() {
            assert_eq!(repaired.design.decision(p), projected.decision(p), "{p}");
        }
    }

    #[test]
    fn projection_sheds_dead_replicas() {
        let problem = small_problem(3);
        let outcome = crate::optimize(&problem, Strategy::Mr, &quick_cfg()).unwrap();
        let dead = NodeId::new(1);
        let (new_problem, applied) = apply_delta(&problem, &ProblemDelta::kill_node(dead)).unwrap();
        let projected = project_design(&outcome.design, &applied, &new_problem).unwrap();
        projected
            .validate(
                new_problem.arch(),
                new_problem.wcet(),
                new_problem.fault_model(),
                new_problem.constraints(),
            )
            .unwrap();
        for (_, d) in projected.iter() {
            assert!(!d.mapping.contains(&dead));
        }
    }

    #[test]
    fn ladder_times_out_into_later_rungs_with_zero_budget() {
        // A zero localized/warm budget forces the ladder to fall
        // through (dirty decisions exist, but no time to fix them
        // locally), ending at the scratch rung.
        let problem = small_problem(5);
        let outcome = crate::optimize(&problem, Strategy::Mxr, &quick_cfg()).unwrap();
        let budget = RepairBudget {
            localized: Duration::ZERO,
            warm: Duration::ZERO,
            scratch: Duration::from_millis(500),
        };
        let repaired = repair(
            &problem,
            &outcome.design,
            &ProblemDelta::kill_node(NodeId::new(2)),
            &budget,
            &quick_cfg(),
        )
        .unwrap();
        let rungs: Vec<RepairRung> = repaired.attempts.iter().map(|a| a.rung).collect();
        assert!(rungs.contains(&RepairRung::Revalidate));
        assert!(rungs.contains(&RepairRung::Scratch));
    }

    #[test]
    fn unmappable_delta_is_an_error() {
        let problem = small_problem(2);
        let outcome = crate::optimize(&problem, Strategy::Mxr, &quick_cfg()).unwrap();
        // Killing every node is beyond repair.
        let delta = ProblemDelta::kill_node(NodeId::new(0))
            .and(ftdes_model::delta::DeltaOp::KillNode {
                node: NodeId::new(1),
            })
            .and(ftdes_model::delta::DeltaOp::KillNode {
                node: NodeId::new(2),
            });
        let budget = RepairBudget::from_total(Duration::from_millis(100));
        let err = repair(&problem, &outcome.design, &delta, &budget, &quick_cfg()).unwrap_err();
        assert!(matches!(err, RepairError::Delta(_)));
    }
}
