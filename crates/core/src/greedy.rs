//! The greedy improvement heuristic `GreedyMPA` (paper §5.2, Fig. 6
//! step 2).
//!
//! In each iteration all moves for the processes on the critical path
//! are evaluated and the best one is applied — until no move improves
//! the cost (a local optimum, which step 3's tabu search then tries
//! to escape) or the goal is reached.

use std::sync::Arc;
use std::time::Instant;

use ftdes_model::design::Design;
use ftdes_sched::{PlacementCheckpoints, Schedule};

use crate::cache::{EvalOutcome, Evaluator};
use crate::config::{Goal, SearchConfig, SearchStats};
use crate::error::OptError;
use crate::moves::{take_moves, MoveRef, MoveTable};
use crate::parallel::WorkerPool;
use crate::space::PolicySpace;

/// The moves a greedy step scores per pool submission. Every
/// benchmark window fits in one chunk; a larger window checks the
/// cutoff between chunks.
const CHUNK: u64 = 4096;

/// Runs the greedy heuristic from `start` on a caller-owned
/// [`Evaluator`] and [`WorkerPool`], shared with the other search
/// phases, and returns the improved design and its schedule.
///
/// Like the tabu search, the neighbourhood is evaluated in parallel
/// and the winning move is selected by a total order on
/// `(cost, move index)`, so results are thread-count independent.
/// Greedy only ever accepts a move *strictly better* than the current
/// solution, so bounded evaluation needs no resolution pass here: a
/// candidate pruned against the current cost can never be accepted.
///
/// # Errors
///
/// Propagates [`OptError::Sched`] when a candidate cannot be
/// evaluated (inconsistent problem).
pub fn greedy_mpa_with(
    evaluator: &Evaluator<'_>,
    pool: &WorkerPool,
    space: PolicySpace,
    start: Design,
    cfg: &SearchConfig,
    cutoff: Option<Instant>,
    stats: &mut SearchStats,
) -> Result<(Design, Schedule), OptError> {
    let problem = evaluator.problem();
    let table = MoveTable::new(problem, space);
    let (mut spans, mut window) = (Vec::new(), Vec::new());
    let mut ckpts = PlacementCheckpoints::new();
    let mut design = start;
    // The start design's schedule is needed for its critical path:
    // materialize directly (one full run, counted once), recording
    // the incremental engine's base checkpoints along the way.
    stats.evaluations += 1;
    let mut schedule = evaluator.schedule(&design, cfg.incremental.then_some(&mut ckpts))?;

    loop {
        if cfg.goal == Goal::MeetDeadline && schedule.is_schedulable() {
            break;
        }
        if cutoff.is_some_and(|c| Instant::now() >= c) {
            break;
        }
        let cp = schedule.move_candidates(problem.graph(), cfg.min_move_candidates);
        let moves = table.neighbourhood(&design, &cp, &mut spans);
        let bound = if cfg.bounded {
            Some(schedule.cost())
        } else {
            None
        };
        // The window's shared evaluation context (cache → splice →
        // bounded placement), one O(n) base key per window.
        let ceval = evaluator.candidate_eval(&design, cfg.incremental.then_some(&ckpts), bound);
        let mut best: Option<(MoveRef, ftdes_sched::ScheduleCost)> = None;
        for start in (0..moves).step_by(CHUNK as usize) {
            if cutoff.is_some_and(|c| Instant::now() >= c) {
                break;
            }
            window.clear();
            take_moves(&spans, start, CHUNK.min(moves - start), &mut window);
            let scored = ceval.score(pool, &table, &design, &window, cutoff)?;
            for (mv, slot) in window.iter().zip(scored) {
                let Some((outcome, hit)) = slot else {
                    continue;
                };
                stats.record(outcome, hit);
                // A pruned candidate is certified worse than the
                // current solution; greedy's strict-improvement
                // acceptance can never pick it. Strict `<` keeps the
                // earliest of equally-cheap moves — the same winner
                // the sequential loop picked.
                if let EvalOutcome::Exact(cost) = outcome {
                    if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                        best = Some((*mv, cost));
                    }
                }
            }
        }
        match best {
            Some((mv, cost)) if cost < schedule.cost() => {
                design.set_decision(mv.process, table.decision(mv));
                stats.evaluations += 1;
                schedule = evaluator.schedule(&design, cfg.incremental.then_some(&mut ckpts))?;
                stats.greedy_steps += 1;
            }
            _ => break, // local optimum
        }
    }
    let schedule = Arc::try_unwrap(schedule).unwrap_or_else(|shared| (*shared).clone());
    Ok((design, schedule))
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

    /// Paper Fig. 5: the best non-fault-tolerant mapping spreads the
    /// diamond over two nodes, but with k = 1 re-execution the greedy
    /// search should discover that clustering everything on one node
    /// (or replicating) shortens the worst case.
    fn fig5_problem() -> Problem {
        let ms = Time::from_ms;
        let mut g = ProcessGraph::new(0.into());
        let p: Vec<_> = g.add_processes(4);
        g.add_edge(p[0], p[1], Message::new(4)).unwrap();
        g.add_edge(p[0], p[2], Message::new(4)).unwrap();
        g.add_edge(p[1], p[3], Message::new(4)).unwrap();
        g.add_edge(p[2], p[3], Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (p[0], NodeId::new(0), ms(40)),
            (p[1], NodeId::new(0), ms(60)),
            (p[1], NodeId::new(1), ms(60)),
            (p[2], NodeId::new(0), ms(40)),
            (p[2], NodeId::new(1), ms(70)),
            (p[3], NodeId::new(1), ms(70)),
            (p[3], NodeId::new(0), ms(40)),
        ]
        .into_iter()
        .collect();
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(1, ms(10)), bus)
    }

    #[test]
    fn greedy_improves_initial_solution() {
        let problem = fig5_problem();
        let cfg = SearchConfig {
            goal: Goal::MinimizeLength,
            ..SearchConfig::default()
        };
        let mut stats = SearchStats::default();
        let start = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let start_cost = problem.evaluate(&start).unwrap().cost();
        let evaluator = Evaluator::with_cache(&problem, cfg.eval_cache);
        let pool = WorkerPool::new(1);
        let (_, sched) = greedy_mpa_with(
            &evaluator,
            &pool,
            PolicySpace::Mixed,
            start,
            &cfg,
            None,
            &mut stats,
        )
        .unwrap();
        assert!(sched.cost() <= start_cost, "greedy never worsens");
        assert!(stats.evaluations > 1, "neighbourhood explored");
    }

    #[test]
    fn deadline_goal_stops_early() {
        let problem = fig5_problem();
        // Generous deadline: the initial solution is already fine.
        let mut g = problem.graph().clone();
        for i in 0..4 {
            g.process_mut(ftdes_model::ids::ProcessId::new(i)).deadline =
                Some(Time::from_ms(100_000));
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
        let evaluator = Evaluator::with_cache(&problem, cfg.eval_cache);
        let pool = WorkerPool::new(1);
        let (_, sched) = greedy_mpa_with(
            &evaluator,
            &pool,
            PolicySpace::Mixed,
            start,
            &cfg,
            None,
            &mut stats,
        )
        .unwrap();
        assert!(sched.is_schedulable());
        assert_eq!(
            stats.evaluations, 1,
            "stopped right after the first evaluation"
        );
    }
}
