//! The overall optimization strategies (paper Fig. 6 and §6).
//!
//! * **MXR** — the paper's contribution: three steps (initial
//!   construction, greedy improvement, tabu search) over the *mixed*
//!   policy space (re-execution + replication + re-executed
//!   replicas).
//! * **MX** / **MR** — the same search restricted to re-execution /
//!   replication only (the comparison baselines of Fig. 10).
//! * **SFX** — the "straightforward" designer flow: optimize the
//!   mapping with no fault-tolerance considerations, then bolt
//!   re-execution on top without re-optimizing.
//! * **NFT** — the non-fault-tolerant reference used to measure the
//!   fault-tolerance overhead of Table 1.

use std::sync::Arc;
use std::time::Instant;

use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::fault::FaultModel;
use ftdes_model::policy::FtPolicy;
use ftdes_sched::Schedule;

use crate::cache::{EvalCache, Evaluator};
use crate::config::{SearchConfig, SearchStats};
use crate::error::OptError;
use crate::greedy::greedy_mpa_with;
use crate::initial::initial_mpa;
use crate::parallel::{effective_threads, WorkerPool};
use crate::problem::Problem;
use crate::space::PolicySpace;
use crate::tabu::tabu_search_mpa_with;

/// The optimization strategies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Mapping + mixed fault-tolerance policy assignment (paper
    /// `MXR`, Fig. 6 `OptimizationStrategy`).
    Mxr,
    /// Mapping + re-execution only (`MX`).
    Mx,
    /// Mapping + replication only (`MR`).
    Mr,
    /// Fault-oblivious mapping, then re-execution applied on top
    /// (`SFX`).
    Sfx,
    /// Non-fault-tolerant optimized reference (`NFT`).
    Nft,
}

impl Strategy {
    /// All strategies, in the order the paper reports them.
    pub const ALL: [Strategy; 5] = [
        Strategy::Mxr,
        Strategy::Mx,
        Strategy::Mr,
        Strategy::Sfx,
        Strategy::Nft,
    ];

    /// The short name used in the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Mxr => "MXR",
            Strategy::Mx => "MX",
            Strategy::Mr => "MR",
            Strategy::Sfx => "SFX",
            Strategy::Nft => "NFT",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of a finished optimization.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The best design found.
    pub design: Design,
    /// Its schedule (under the strategy's fault model — `NFT` and the
    /// SFX pre-pass use `k = 0`).
    pub schedule: Schedule,
    /// Search statistics.
    pub stats: SearchStats,
}

impl Outcome {
    /// Worst-case schedule length δ of the best design.
    #[must_use]
    pub fn length(&self) -> ftdes_model::time::Time {
        self.schedule.length()
    }

    /// Returns `true` when every deadline is guaranteed.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.schedule.is_schedulable()
    }
}

/// Runs `strategy` on `problem` under `cfg`.
///
/// # Errors
///
/// Returns [`OptError`] when no initial placement exists or a
/// candidate cannot be scheduled.
pub fn optimize(
    problem: &Problem,
    strategy: Strategy,
    cfg: &SearchConfig,
) -> Result<Outcome, OptError> {
    optimize_shared(problem, strategy, cfg, None)
}

/// [`optimize`] over a caller-owned [`EvalCache`], so the memoized
/// candidate costs survive this call and serve the caller's next
/// searches — the sweep jobs re-solve overlapping problems and reuse
/// each other's entries. Keys cover the problem structure and the
/// fault model, so sharing one cache across any mix of problems and
/// strategies is sound.
///
/// # Errors
///
/// Same as [`optimize`].
pub fn optimize_with_cache(
    problem: &Problem,
    strategy: Strategy,
    cfg: &SearchConfig,
    cache: &Arc<EvalCache>,
) -> Result<Outcome, OptError> {
    optimize_shared(problem, strategy, cfg, Some(Arc::clone(cache)))
}

fn optimize_shared(
    problem: &Problem,
    strategy: Strategy,
    cfg: &SearchConfig,
    cache: Option<Arc<EvalCache>>,
) -> Result<Outcome, OptError> {
    let started = Instant::now();
    let cutoff = cfg.time_limit.map(|l| started + l);
    let mut stats = SearchStats::default();
    // One persistent worker pool serves every phase of the strategy:
    // windows are submitted to parked workers instead of spawning
    // scoped threads per tabu iteration.
    let pool = WorkerPool::new(effective_threads(cfg.threads));
    let ctx = StrategyCtx {
        cfg,
        cutoff,
        pool: &pool,
        cache,
    };

    let outcome = match strategy {
        Strategy::Mxr => three_step(problem, PolicySpace::Mixed, &ctx, &mut stats)?,
        Strategy::Mx => three_step(problem, PolicySpace::ReexecutionOnly, &ctx, &mut stats)?,
        Strategy::Mr => three_step(problem, PolicySpace::ReplicationOnly, &ctx, &mut stats)?,
        Strategy::Nft => {
            let nft = problem.with_fault_model(FaultModel::none());
            three_step(&nft, PolicySpace::Mixed, &ctx, &mut stats)?
        }
        Strategy::Sfx => sfx(problem, &ctx, &mut stats)?,
    };

    let (design, schedule) = outcome;
    stats.elapsed = started.elapsed();
    Ok(Outcome {
        design,
        schedule,
        stats,
    })
}

/// Everything one strategy run threads through its phases.
struct StrategyCtx<'a> {
    cfg: &'a SearchConfig,
    cutoff: Option<Instant>,
    pool: &'a WorkerPool,
    cache: Option<Arc<EvalCache>>,
}

impl StrategyCtx<'_> {
    fn evaluator<'p>(&self, problem: &'p Problem) -> Evaluator<'p> {
        match (&self.cache, self.cfg.eval_cache) {
            (Some(cache), true) => Evaluator::with_shared_cache(problem, Arc::clone(cache)),
            (_, enabled) => Evaluator::with_cache(problem, enabled),
        }
    }
}

/// The three-step `OptimizationStrategy` of paper Fig. 6.
///
/// For the mixed policy space the tabu step is *staged*: the first
/// half of the budget searches the re-execution-only subspace (whose
/// schedules are cheap to evaluate and whose neighbourhood is small,
/// so the search runs deep), the second half continues from the best
/// solution found with the full mixed neighbourhood. The initial
/// policy assignment is re-execution for every process (paper Fig. 6
/// line 2), so the staging only reorders which moves are tried first;
/// the reachable space is unchanged.
fn three_step(
    problem: &Problem,
    space: PolicySpace,
    ctx: &StrategyCtx<'_>,
    stats: &mut SearchStats,
) -> Result<(Design, Schedule), OptError> {
    let (cfg, cutoff) = (ctx.cfg, ctx.cutoff);
    // One memoized evaluator spans every phase: designs revisited by
    // the greedy pass, either tabu stage or the final refinement are
    // served from cache instead of re-scheduled.
    let evaluator = ctx.evaluator(problem);
    // Step 1: initial bus access (the caller fixed it in the problem)
    // and initial mapping / policy assignment.
    let initial = initial_mpa(problem, space)?;
    // Step 2: greedy improvement (returns immediately when step 1
    // already satisfies the goal).
    let (design, schedule) =
        greedy_mpa_with(&evaluator, ctx.pool, space, initial, cfg, cutoff, stats)?;
    if cfg.goal == crate::config::Goal::MeetDeadline && schedule.is_schedulable() {
        return Ok((design, schedule));
    }
    // Step 3: tabu search (staged for the mixed space).
    if cfg.staged_tabu && space == PolicySpace::Mixed && problem.fault_model().k() > 0 {
        let midpoint = cutoff.map(|c| {
            let now = Instant::now();
            if c <= now {
                c
            } else {
                now + (c - now) / 2
            }
        });
        // Stage 1 gets half of the remaining iteration budget too
        // (the wall-clock midpoint alone cannot cap it when the time
        // limit is generous).
        let remaining = cfg
            .max_tabu_iterations
            .saturating_sub(stats.tabu_iterations);
        let stage1_cfg = SearchConfig {
            max_tabu_iterations: stats.tabu_iterations + remaining / 2,
            ..cfg.clone()
        };
        let staged = tabu_search_mpa_with(
            &evaluator,
            ctx.pool,
            PolicySpace::ReexecutionOnly,
            (design, schedule),
            &stage1_cfg,
            midpoint,
            stats,
        )?;
        if cfg.goal == crate::config::Goal::MeetDeadline && staged.1.is_schedulable() {
            return Ok(staged);
        }
        tabu_search_mpa_with(&evaluator, ctx.pool, space, staged, cfg, cutoff, stats)
    } else {
        tabu_search_mpa_with(
            &evaluator,
            ctx.pool,
            space,
            (design, schedule),
            cfg,
            cutoff,
            stats,
        )
    }
}

/// The straightforward strategy `SFX`: derive a mapping without
/// fault-tolerance considerations, then apply re-execution to every
/// process without re-optimizing (paper §6).
fn sfx(
    problem: &Problem,
    ctx: &StrategyCtx<'_>,
    stats: &mut SearchStats,
) -> Result<(Design, Schedule), OptError> {
    let nft = problem.with_fault_model(FaultModel::none());
    let (nft_design, _) = three_step(&nft, PolicySpace::Mixed, ctx, stats)?;

    // Keep the fault-oblivious mapping, re-execute everything.
    let fm = problem.fault_model();
    let decisions = nft_design
        .iter()
        .map(|(_, d)| {
            ProcessDesign::new(FtPolicy::reexecution(fm), vec![d.primary_node()])
                .expect("single-node mapping is always valid")
        })
        .collect();
    let design = Design::from_decisions(decisions);
    let schedule = problem.evaluate(&design)?;
    stats.evaluations += 1;
    Ok((design, schedule))
}

/// The fault-tolerance overhead of the paper's Table 1:
/// `100 · (δ_ft − δ_nft) / δ_nft`.
#[must_use]
pub fn overhead_percent(ft: &Outcome, nft: &Outcome) -> f64 {
    let d_ft = ft.length().as_us() as f64;
    let d_nft = nft.length().as_us() as f64;
    if d_nft == 0.0 {
        return 0.0;
    }
    100.0 * (d_ft - d_nft) / d_nft
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Goal;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    fn problem() -> Problem {
        let ms = Time::from_ms;
        let mut g = ProcessGraph::new(0.into());
        let p: Vec<_> = g.add_processes(4);
        g.add_edge(p[0], p[1], Message::new(4)).unwrap();
        g.add_edge(p[0], p[2], Message::new(4)).unwrap();
        g.add_edge(p[1], p[3], Message::new(4)).unwrap();
        g.add_edge(p[2], p[3], Message::new(4)).unwrap();
        let mut wcet = WcetTable::new();
        for (i, &pr) in p.iter().enumerate() {
            wcet.set(pr, NodeId::new(0), ms(30 + 10 * i as u64));
            wcet.set(pr, NodeId::new(1), ms(35 + 10 * i as u64));
        }
        let arch = Architecture::with_node_count(2);
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        Problem::new(g, arch, wcet, FaultModel::new(1, ms(10)), bus)
    }

    fn fast_cfg() -> SearchConfig {
        SearchConfig {
            goal: Goal::MinimizeLength,
            max_tabu_iterations: 25,
            time_limit: None,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn all_strategies_produce_valid_designs() {
        let problem = problem();
        let cfg = fast_cfg();
        for strategy in Strategy::ALL {
            let outcome = optimize(&problem, strategy, &cfg).unwrap();
            let fm = if strategy == Strategy::Nft {
                FaultModel::none()
            } else {
                *problem.fault_model()
            };
            outcome
                .design
                .validate(problem.arch(), problem.wcet(), &fm, problem.constraints())
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert!(
                outcome.length() > Time::ZERO,
                "{strategy} produced a schedule"
            );
        }
    }

    #[test]
    fn nft_is_shortest_mxr_bounded_by_mx() {
        let problem = problem();
        let cfg = fast_cfg();
        let nft = optimize(&problem, Strategy::Nft, &cfg).unwrap();
        let mxr = optimize(&problem, Strategy::Mxr, &cfg).unwrap();
        let mx = optimize(&problem, Strategy::Mx, &cfg).unwrap();
        assert!(nft.length() <= mxr.length(), "fault tolerance costs time");
        assert!(
            mxr.length() <= mx.length(),
            "the mixed space contains the MX space, so MXR cannot lose"
        );
        assert!(overhead_percent(&mxr, &nft) >= 0.0);
    }

    #[test]
    fn sfx_reexecutes_everything_on_nft_mapping() {
        let problem = problem();
        let cfg = fast_cfg();
        let sfx = optimize(&problem, Strategy::Sfx, &cfg).unwrap();
        assert!(sfx
            .design
            .iter()
            .all(|(_, d)| d.policy.is_pure_reexecution()));
    }

    /// Table 1b/1c's study in miniature: MXR under each fault model
    /// against one NFT reference, every solve over one shared cache.
    fn overhead_sweep(models: &[FaultModel]) -> (Outcome, Vec<(Outcome, f64)>) {
        let problem = problem();
        let cfg = fast_cfg();
        let cache = Arc::new(EvalCache::default());
        let nft = optimize_with_cache(&problem, Strategy::Nft, &cfg, &cache).unwrap();
        let points = models
            .iter()
            .map(|&fm| {
                let p = problem.with_fault_model(fm);
                let mxr = optimize_with_cache(&p, Strategy::Mxr, &cfg, &cache).unwrap();
                let overhead = overhead_percent(&mxr, &nft);
                (mxr, overhead)
            })
            .collect();
        (nft, points)
    }

    #[test]
    fn overheads_grow_with_k() {
        let models: Vec<FaultModel> = (1..=3)
            .map(|k| FaultModel::new(k, Time::from_ms(5)))
            .collect();
        let (_, points) = overhead_sweep(&models);
        let curve: Vec<(u32, f64)> = models
            .iter()
            .zip(&points)
            .map(|(fm, (_, overhead))| (fm.k(), *overhead))
            .collect();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].0, 1);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "overhead must not shrink with more faults: {curve:?}"
            );
        }
        assert!(curve[0].1 >= 0.0, "fault tolerance is never free");
    }

    #[test]
    fn sweep_shares_the_nft_reference() {
        let models = [
            FaultModel::new(1, Time::from_ms(5)),
            FaultModel::new(1, Time::from_ms(20)),
        ];
        let (nft, points) = overhead_sweep(&models);
        assert_eq!(points.len(), 2);
        assert!(
            points[1].1 >= points[0].1,
            "longer faults cost at least as much"
        );
        assert!(nft.length() <= points[0].0.length());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Mxr.to_string(), "MXR");
        assert_eq!(Strategy::ALL.len(), 5);
    }
}
