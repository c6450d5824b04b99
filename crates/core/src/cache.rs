//! Memoized design evaluation (the optimizer's cost-function cache).
//!
//! Every step of the search — greedy improvement and both tabu
//! stages — scores candidates with a full `ListScheduling` run. The
//! searches revisit designs constantly: tabu moves undo each other
//! and the rotating neighbourhood window re-proposes moves. An
//! [`Evaluator`] wraps a [`Problem`] with a concurrent, sharded cache
//! keyed by a cheap 128-bit fingerprint of the per-process decisions
//! (seeded by the problem, fault model, scheduler switches and bus),
//! so a revisited candidate costs a hash instead of a schedule. The
//! bus-access optimization ([`crate::bus_opt`]) scores one fixed
//! design under many buses and keeps those costs in an [`EvalCache`]
//! of its own, keyed by [`bus_fingerprint`].
//!
//! The cache stores **costs, not schedules**: candidate selection
//! only needs the `(violation, length)` pair, a hit therefore costs
//! 48 bytes instead of keeping a multi-kilobyte schedule table alive,
//! and the cache never creates allocator pressure on the hot path.
//! A miss returns the [`Arc<Schedule>`] it had to compute anyway, so
//! the selected candidate's schedule is almost always already in
//! hand; only a cache-hitting *winner* is re-materialized (one extra
//! `ListScheduling` run per occurrence — rare, and recorded in the
//! evaluation counters). Scheduling itself runs through a
//! thread-local [`SchedScratch`](ftdes_sched::SchedScratch), so
//! worker threads reuse their
//! ready-list and contingency buffers across evaluations.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::fault::FaultModel;
use ftdes_model::ids::ProcessId;
use ftdes_sched::{
    CostOutcome, CostScratch, PlacementCheckpoints, SchedError, Schedule, ScheduleCost,
};
use ftdes_ttp::config::BusConfig;

use crate::moves::{MoveRef, MoveTable};
use crate::parallel::WorkerPool;
use crate::problem::Problem;

/// Entries per shard before the shard is reset. Bounds memory on
/// long-running searches; a reset costs one warm-up pass, not
/// correctness. Note: search *results* are thread-count independent
/// regardless (cached and computed costs are identical), but once a
/// shard fills, which concurrent insert triggers the reset depends on
/// interleaving, so the `evaluations` / `cache_hits` counter split
/// is only exactly reproducible across thread counts while the cache
/// stays below capacity (~260k entries — far beyond the test and
/// perfgate workloads).
const SHARD_CAPACITY: usize = 1 << 14;

/// Number of cache shards (locks). Evaluation windows run on at most
/// a few dozen workers; 16 shards keep contention negligible.
const SHARDS: usize = 16;

/// A fast non-cryptographic hasher (FxHash-style multiply-mix) for
/// keys that are already high-entropy fingerprints.
#[derive(Default)]
struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.state = (self.state.rotate_left(5) ^ value).wrapping_mul(FX_SEED);
    }

    fn write_u128(&mut self, value: u128) {
        self.write_u64(value as u64);
        self.write_u64((value >> 64) as u64);
    }
}

type Shard = Mutex<HashMap<u128, ScheduleCost, BuildHasherDefault<FxHasher>>>;

/// A sharded `fingerprint -> cost` cache shared across search phases
/// and worker threads. Each shard resets when it reaches
/// `SHARD_CAPACITY` entries, so the cache stays bounded however long
/// the search runs.
#[derive(Debug, Default)]
pub struct EvalCache {
    shards: [Shard; SHARDS],
}

impl std::fmt::Debug for FxHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FxHasher").finish_non_exhaustive()
    }
}

impl EvalCache {
    fn shard(&self, key: u128) -> &Shard {
        &self.shards[(key as usize) % SHARDS]
    }

    pub(crate) fn get(&self, key: u128) -> Option<ScheduleCost> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .get(&key)
            .copied()
    }

    pub(crate) fn insert(&self, key: u128, cost: ScheduleCost) {
        let mut shard = self.shard(key).lock().expect("cache shard");
        if shard.len() >= SHARD_CAPACITY {
            shard.clear();
        }
        shard.insert(key, cost);
    }
}

/// A pool of [`EvalCache`]s shared across independent solver runs,
/// keyed by [`problem_fingerprint`] — the cache-sharing seam of the
/// sweep-orchestration layer.
///
/// Sweep jobs that re-solve the same problem under different fault
/// hypotheses or strategies (the `ftdes sweep` χ and repair studies)
/// fetch their cache through one pool, so a re-run — in particular a
/// job re-executed after a crash — warm-starts from every evaluation
/// its siblings already paid for. Cost entries are keyed by problem
/// *and* fault model inside the cache, so pooling by problem alone is
/// sound; pooling by fingerprint (not object identity) means two
/// structurally identical problems built independently — e.g. by a
/// re-run generate job — share as well.
#[derive(Debug, Default)]
pub struct CachePool {
    caches: Mutex<HashMap<u64, Arc<EvalCache>>>,
}

impl CachePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        CachePool::default()
    }

    /// The shared cache for `problem`, created on first request.
    /// Structurally identical problems (same [`problem_fingerprint`])
    /// return clones of the same `Arc`.
    #[must_use]
    pub fn for_problem(&self, problem: &Problem) -> Arc<EvalCache> {
        self.for_fingerprint(problem_fingerprint(problem))
    }

    /// [`CachePool::for_problem`] by precomputed fingerprint.
    #[must_use]
    pub fn for_fingerprint(&self, fingerprint: u64) -> Arc<EvalCache> {
        let mut caches = self.caches.lock().expect("cache pool");
        Arc::clone(caches.entry(fingerprint).or_default())
    }

    /// Number of distinct problems the pool holds caches for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.caches.lock().expect("cache pool").len()
    }

    /// True when no cache has been requested yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One running accumulator of the 128-bit fingerprint (two
/// independently-seeded 64-bit streams).
#[derive(Clone, Copy)]
struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    fn new(seed: u64) -> Self {
        Fingerprint {
            lo: seed ^ 0x9e37_79b9_7f4a_7c15,
            hi: seed ^ 0xc2b2_ae3d_27d4_eb4f,
        }
    }

    fn mix(&mut self, value: u64) {
        self.lo = (self.lo.rotate_left(5) ^ value).wrapping_mul(FX_SEED);
        self.hi = (self.hi.rotate_left(23) ^ value).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }

    fn finish(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// A stable 64-bit identity of a bus configuration (slot order, slot
/// capacity, byte time): the bus component of the evaluator's key
/// seed, and the key of the bus-access optimization's probe memo.
#[must_use]
pub fn bus_fingerprint(bus: &BusConfig) -> u64 {
    let mut fp = Fingerprint::new(0xb05);
    fp.mix(bus.slot_bytes().into());
    fp.mix(bus.byte_time().as_us());
    for &node in bus.slot_order() {
        fp.mix(node.index() as u64);
    }
    fp.finish() as u64
}

/// A stable 64-bit identity of a fault model — part of the cache key
/// so one [`EvalCache`] can be shared across `optimize` calls with
/// different fault hypotheses (NFT and the SFX pre-pass solve at
/// `k = 0`) without aliasing their costs.
#[must_use]
pub fn fault_fingerprint(fm: &FaultModel) -> u64 {
    let mut fp = Fingerprint::new(0xfa17);
    fp.mix(u64::from(fm.k()));
    fp.mix(fm.mu().as_us());
    // χ changes every checkpointed design's cost; omitting it would
    // alias the rows of a checkpoint-overhead sweep sharing one cache.
    fp.mix(fm.chi().as_us());
    fp.finish() as u64
}

/// A stable 64-bit identity of the problem structure (graph shape,
/// message sizes, deadlines/releases, WCET entries, node count) —
/// the guard that makes sharing one cache across arbitrary
/// [`Problem`]s sound: two different applications can never serve
/// each other's cost entries.
#[must_use]
pub fn problem_fingerprint(problem: &Problem) -> u64 {
    let mut fp = Fingerprint::new(0x980b);
    let graph = problem.graph();
    fp.mix(graph.process_count() as u64);
    fp.mix(problem.arch().node_count() as u64);
    for p in graph.processes() {
        fp.mix(p.release.as_us());
        fp.mix(p.deadline.map_or(u64::MAX, |d| d.as_us()));
    }
    for e in graph.edges() {
        fp.mix(e.from.index() as u64);
        fp.mix(e.to.index() as u64);
        fp.mix(u64::from(e.message.size));
    }
    for p in graph.processes() {
        for (node, wcet) in problem.wcet().eligible_nodes(p.id) {
            fp.mix(node.index() as u64);
            fp.mix(wcet.as_us());
        }
        fp.mix(u64::MAX);
    }
    fp.finish() as u64
}

/// The 128-bit contribution of one `(process, decision)` pair to a
/// design fingerprint under `seed`.
///
/// Components combine by XOR — a sum over GF(2) of independently
/// seeded strong hashes — so replacing one process's decision updates
/// a design fingerprint in O(1): XOR the old component out and the
/// new one in. That is what makes per-candidate cache keys constant
/// time on the window hot path (thousands of single-move variations
/// of one base design per second).
#[must_use]
pub fn decision_fingerprint(
    seed: u64,
    process: ProcessId,
    decision: &ftdes_model::design::ProcessDesign,
) -> u128 {
    let mut fp =
        Fingerprint::new(seed ^ (process.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    fp.mix(u64::from(decision.policy.replicas()));
    fp.mix(u64::from(decision.policy.reexecutions()));
    fp.mix(u64::from(decision.policy.checkpoints()));
    for &node in &decision.mapping {
        fp.mix(node.index() as u64);
    }
    // Separator so mappings of unequal lengths cannot alias.
    fp.mix(u64::MAX);
    fp.finish()
}

/// The cache key of evaluating `design` under the context identified
/// by `seed` (problem + fault model + scheduler switches + bus): the
/// XOR of every per-process [`decision_fingerprint`].
#[must_use]
pub fn design_fingerprint(design: &Design, seed: u64) -> u128 {
    let mut acc = Fingerprint::new(seed).finish();
    for (process, decision) in design.iter() {
        acc ^= decision_fingerprint(seed, process, decision);
    }
    acc
}

thread_local! {
    /// Per-thread scheduling buffers, reused across evaluations.
    static SCRATCH: RefCell<CostScratch> = RefCell::new(CostScratch::default());
}

/// The result of one bounded candidate evaluation: the scheduler's
/// [`CostOutcome`] under its search-side reading — `Exact` completed
/// (or hit the cache), `LowerBound` means the candidate was *pruned*
/// past the incumbent with a certified lower bound.
pub type EvalOutcome = CostOutcome;

/// The memoized cost function: a [`Problem`] plus the shared
/// [`EvalCache`].
///
/// One evaluator is created per `optimize` call and shared by every
/// phase and worker thread of that search. [`Evaluator::evaluate`]
/// answers the window question — *what would this design cost?* —
/// through the cost-only scheduler and the cache;
/// [`Evaluator::schedule`] materializes the full schedule of a
/// candidate the search decided to keep.
#[derive(Debug)]
pub struct Evaluator<'p> {
    problem: &'p Problem,
    cache: Option<Arc<EvalCache>>,
    /// Combined problem + fault-model + scheduler-switch + bus key
    /// seed.
    base_fp: u64,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator with the cache toggled — `false` gives the
    /// uncached reference behaviour (every call schedules).
    #[must_use]
    pub fn with_cache(problem: &'p Problem, enabled: bool) -> Self {
        Evaluator::build(problem, enabled.then(|| Arc::new(EvalCache::default())))
    }

    /// Creates an evaluator over a cache shared with other searches —
    /// sweep jobs re-solve overlapping problems, and a shared
    /// cache lets them reuse each other's cost entries. Keys include
    /// the problem structure and fault model, so sharing across
    /// arbitrary problems is sound.
    #[must_use]
    pub fn with_shared_cache(problem: &'p Problem, cache: Arc<EvalCache>) -> Self {
        Evaluator::build(problem, Some(cache))
    }

    fn build(problem: &'p Problem, cache: Option<Arc<EvalCache>>) -> Self {
        let mut ctx = Fingerprint::new(problem_fingerprint(problem));
        ctx.mix(fault_fingerprint(problem.fault_model()));
        // Cost-affecting scheduler switches join the context: two
        // problems differing only in priority strategy or slack
        // sharing produce different costs for the same design, so a
        // shared cache (sweeps, the portfolio's diversified workers)
        // must never alias their entries. Pure throughput knobs
        // (occupancy backend, splicing) deliberately stay out — their
        // costs are bit-identical by contract.
        let opts = problem.schedule_options();
        ctx.mix(u64::from(opts.slack_sharing) | (opts.priority as u64) << 1);
        let mut base = Fingerprint::new(ctx.finish() as u64);
        base.mix(bus_fingerprint(problem.bus()));
        Evaluator {
            problem,
            cache,
            base_fp: base.finish() as u64,
        }
    }

    /// The wrapped problem.
    #[must_use]
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// The cost of `design` under the problem's bus configuration,
    /// served from the cache when possible and computed by the
    /// allocation-free cost-only scheduler otherwise. The `bool` is
    /// `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`] for designs inconsistent with the
    /// problem.
    pub fn evaluate(&self, design: &Design) -> Result<(ScheduleCost, bool), SchedError> {
        let (outcome, hit) = self.cached_bounded(self.design_key(design), |scratch| {
            self.problem.evaluate_cost_bounded(design, scratch, None)
        })?;
        match outcome {
            EvalOutcome::Exact(cost) => Ok((cost, hit)),
            EvalOutcome::LowerBound(_) => unreachable!("unbounded runs always complete"),
        }
    }

    /// The cache key of `design` — the once-per-window input of O(1)
    /// per-candidate keys in [`CandidateEval::eval_move_bounded`].
    /// `None` when the cache is disabled.
    #[must_use]
    pub fn design_key(&self, design: &Design) -> Option<u128> {
        self.cache
            .as_ref()
            .map(|_| design_fingerprint(design, self.base_fp))
    }

    /// The shared cache-then-run skeleton of bounded evaluation: an
    /// exact hit returns immediately, an exact result is cached, a
    /// pruned result is **not** (its lower bound is not the cost).
    fn cached_bounded(
        &self,
        key: Option<u128>,
        run: impl FnOnce(&mut CostScratch) -> Result<CostOutcome, SchedError>,
    ) -> Result<(EvalOutcome, bool), SchedError> {
        if let (Some(cache), Some(key)) = (self.cache.as_ref(), key) {
            if let Some(cost) = cache.get(key) {
                return Ok((EvalOutcome::Exact(cost), true));
            }
        }
        let outcome = SCRATCH.with(|scratch| run(&mut scratch.borrow_mut()))?;
        if let CostOutcome::Exact(cost) = outcome {
            if let (Some(cache), Some(key)) = (self.cache.as_ref(), key) {
                cache.insert(key, cost);
            }
        }
        Ok((outcome, false))
    }

    /// Materializes the full schedule of `design` (the candidate the
    /// search keeps) through the thread-local scratch and feeds its
    /// cost back into the cache. Given `ckpts`, it also records the
    /// placement into them and tags them with the design — the search
    /// materializes each iteration's winner anyway, so the next
    /// window's incremental evaluation gets its base recording for
    /// free.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`].
    pub fn schedule(
        &self,
        design: &Design,
        mut ckpts: Option<&mut PlacementCheckpoints>,
    ) -> Result<Arc<Schedule>, SchedError> {
        let schedule = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            self.problem
                .evaluate_recording(design, scratch.core_mut(), ckpts.as_deref_mut())
        })?;
        if let (Some(cache), Some(key)) = (self.cache.as_ref(), self.design_key(design)) {
            cache.insert(key, schedule.cost());
        }
        if let Some(ckpts) = ckpts {
            ckpts.tag = design_fingerprint(design, self.base_fp);
        }
        Ok(Arc::new(schedule))
    }

    /// Opens the candidate-evaluation context of one neighbourhood
    /// window: the base design's O(n) cache key (each candidate key is
    /// then O(1) by XOR decomposition), the base solution's recorded
    /// placement checkpoints, and the incumbent bound — bundled behind
    /// one [`CandidateEval`] facade so every neighbourhood search phase
    /// (greedy, both tabu stages) scores candidates through the same
    /// stack: memoization → suffix splice → bounded placement.
    #[must_use]
    pub fn candidate_eval<'e>(
        &'e self,
        base: &Design,
        ckpts: Option<&'e PlacementCheckpoints>,
        bound: Option<ScheduleCost>,
    ) -> CandidateEval<'e, 'p> {
        CandidateEval {
            evaluator: self,
            base_key: self.design_key(base),
            ckpts: ckpts.filter(|c| c.is_valid()),
            bound,
        }
    }
}

/// The per-window candidate-evaluation facade: one object carrying
/// everything a window's candidates share — the base design's cache
/// key, the base solution's recorded [`PlacementCheckpoints`] and the
/// incumbent bound — so the search phases' hot loops reduce to one
/// call per candidate.
///
/// Construct with [`Evaluator::candidate_eval`] once per window (the
/// base key costs O(n); every candidate key after that is O(1)).
/// `Sync`, so one facade serves all worker threads of a window.
#[derive(Debug, Clone, Copy)]
pub struct CandidateEval<'e, 'p> {
    evaluator: &'e Evaluator<'p>,
    base_key: Option<u128>,
    ckpts: Option<&'e PlacementCheckpoints>,
    bound: Option<ScheduleCost>,
}

impl CandidateEval<'_, '_> {
    /// Scores every move of `window` against `base` on `pool`, in
    /// move order: the window question of greedy and tabu. Each worker
    /// clones `base` once and decodes each move into its own decision
    /// buffer, which [`CandidateEval::eval_move`] swaps in and back
    /// out — no per-candidate design clone, no schedule
    /// materialization. A move reached after `cutoff` is skipped
    /// (`None`).
    ///
    /// # Errors
    ///
    /// The [`SchedError`] of the lowest failing move.
    pub fn score(
        &self,
        pool: &WorkerPool,
        table: &MoveTable,
        base: &Design,
        window: &[MoveRef],
        cutoff: Option<Instant>,
    ) -> Result<Vec<Option<(EvalOutcome, bool)>>, SchedError> {
        pool.try_map_init(
            window,
            || (base.clone(), table.decision(window[0])),
            |(design, decision), _, mv| {
                if cutoff.is_some_and(|c| Instant::now() >= c) {
                    return Ok(None);
                }
                table.decode(*mv, decision);
                Ok(Some(self.eval_move(design, mv.process, decision)?))
            },
        )
    }

    /// Scores the single-move candidate that replaces `process`'s
    /// decision by `decision` against the window base held in
    /// `design`, through the full evaluation stack (cache → splice →
    /// bounded placement). The candidate is swapped into `design` for
    /// the run and back out before returning (also on error), so one
    /// worker-owned design and decision buffer serve a whole window
    /// without per-candidate copies. The `bool` is `true` on a cache
    /// hit.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`].
    pub fn eval_move(
        &self,
        design: &mut Design,
        process: ProcessId,
        decision: &mut ProcessDesign,
    ) -> Result<(EvalOutcome, bool), SchedError> {
        self.eval_move_bounded(design, process, decision, self.bound)
    }

    /// [`CandidateEval::eval_move`] under an explicit bound override —
    /// the tabu search's winner-bounded resolution pass re-evaluates
    /// pruned candidates against the would-be winner instead of the
    /// window incumbent.
    ///
    /// With recorded checkpoints of the base design, a candidate whose
    /// order certificate holds re-places only its affected cone and
    /// splices the recording for everything else; any other candidate
    /// is placed from position 0 on its patched expansion. A candidate
    /// provably worse than `bound` aborts mid-placement and returns
    /// [`EvalOutcome::LowerBound`] with its certified lower bound, not
    /// cached. Whether it prunes is a pure function of `(base design,
    /// move, bound)`, so trajectories stay bit-identical across thread
    /// counts. Any bound is sound, including ones below the base
    /// design's cost: the classification is always "exact iff cost <=
    /// bound"; only the carried lower-bound *value* of a spliced run
    /// may differ from a from-scratch one.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError`].
    pub fn eval_move_bounded(
        &self,
        design: &mut Design,
        process: ProcessId,
        decision: &mut ProcessDesign,
        bound: Option<ScheduleCost>,
    ) -> Result<(EvalOutcome, bool), SchedError> {
        let evaluator = self.evaluator;
        debug_assert!(
            self.ckpts
                .is_none_or(|c| c.tag == design_fingerprint(design, evaluator.base_fp)),
            "checkpoints must belong to the window's base design"
        );
        debug_assert!(
            self.base_key
                .is_none_or(|k| k == design_fingerprint(design, evaluator.base_fp)),
            "base_key must be the window base design's key"
        );
        // O(1) candidate key: XOR the replaced decision's component
        // out of the base key and the new one in.
        let fast_key = match (&evaluator.cache, self.base_key) {
            (Some(_), Some(base)) => Some(
                base ^ decision_fingerprint(evaluator.base_fp, process, design.decision(process))
                    ^ decision_fingerprint(evaluator.base_fp, process, decision),
            ),
            _ => None,
        };
        design.swap_decision(process, decision);
        let key = fast_key.or_else(|| evaluator.design_key(design));
        debug_assert_eq!(key, evaluator.design_key(design));
        let result = evaluator.cached_bounded(key, |scratch| match self.ckpts {
            Some(ckpts) => evaluator
                .problem
                .evaluate_cost_resumed(design, process, scratch, ckpts, bound),
            None => evaluator
                .problem
                .evaluate_cost_bounded(design, scratch, bound),
        });
        design.swap_decision(process, decision);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;

    fn tiny() -> (Problem, Design) {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(2)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(10)),
            (a, NodeId::new(1), Time::from_ms(12)),
            (b, NodeId::new(0), Time::from_ms(20)),
            (b, NodeId::new(1), Time::from_ms(25)),
        ]
        .into_iter()
        .collect();
        let arch = Architecture::with_node_count(2);
        let fm = FaultModel::new(1, Time::from_ms(5));
        let bus = BusConfig::initial(&arch, 2, Time::from_ms(1)).unwrap();
        let problem = Problem::new(g, arch, wcet, fm, bus);
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        ]);
        (problem, design)
    }

    #[test]
    fn second_evaluation_hits_with_identical_cost() {
        let (problem, design) = tiny();
        let eval = Evaluator::with_cache(&problem, true);
        let (first, hit1) = eval.evaluate(&design).unwrap();
        let (second, hit2) = eval.evaluate(&design).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
    }

    #[test]
    fn different_designs_do_not_alias() {
        let (problem, design) = tiny();
        let fm = *problem.fault_model();
        let mut other = design.clone();
        other.set_decision(
            0.into(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        );
        let eval = Evaluator::with_cache(&problem, true);
        let (a, _) = eval.evaluate(&design).unwrap();
        let (b, hit) = eval.evaluate(&other).unwrap();
        assert!(!hit, "distinct design must miss");
        assert_ne!(
            design_fingerprint(&design, 1),
            design_fingerprint(&other, 1)
        );
        assert_ne!(a.length, Time::ZERO);
        assert_ne!(b.length, Time::ZERO);
    }

    #[test]
    fn disabled_cache_always_schedules() {
        let (problem, design) = tiny();
        let eval = Evaluator::with_cache(&problem, false);
        assert!(!eval.evaluate(&design).unwrap().1);
        assert!(!eval.evaluate(&design).unwrap().1);
    }

    #[test]
    fn fault_fingerprint_separates_checkpoint_overhead() {
        let fm = FaultModel::new(2, Time::from_ms(5));
        let cp = fm.with_checkpoint_overhead(Time::from_ms(1));
        assert_ne!(
            fault_fingerprint(&fm),
            fault_fingerprint(&cp),
            "χ-only differences must not alias in a shared cache"
        );
    }

    #[test]
    fn pool_shares_caches_by_problem_structure() {
        let (problem, design) = tiny();
        let pool = CachePool::new();
        assert!(pool.is_empty());
        let cache_a = pool.for_problem(&problem);
        let cache_b = pool.for_problem(&problem);
        assert!(Arc::ptr_eq(&cache_a, &cache_b), "same problem, same cache");
        assert_eq!(pool.len(), 1);

        // A solve through one handle warms the other: the second
        // evaluator's very first evaluation is already a hit.
        let eval_a = Evaluator::with_shared_cache(&problem, cache_a);
        let (cost_a, hit_a) = eval_a.evaluate(&design).unwrap();
        assert!(!hit_a);
        let eval_b = Evaluator::with_shared_cache(&problem, cache_b);
        let (cost_b, hit_b) = eval_b.evaluate(&design).unwrap();
        assert!(hit_b, "pooled cache shares entries across evaluators");
        assert_eq!(cost_a, cost_b);

        // A different fingerprint gets its own cache.
        let other = pool.for_fingerprint(problem_fingerprint(&problem) ^ 1);
        assert_eq!(pool.len(), 2);
        assert!(!Arc::ptr_eq(&other, &pool.for_problem(&problem)));
    }

    #[test]
    fn cost_only_matches_full_materialization() {
        let (problem, design) = tiny();
        let eval = Evaluator::with_cache(&problem, true);
        let (cost, _) = eval.evaluate(&design).unwrap();
        let materialized = eval.schedule(&design, None).unwrap();
        let direct = problem.evaluate(&design).unwrap();
        assert_eq!(cost, direct.cost(), "cost-only path must agree");
        assert_eq!(materialized.cost(), direct.cost());
        assert_eq!(materialized.length(), direct.length());
        // Recording materializes the same schedule and tags the
        // checkpoints with the design's key.
        let mut ckpts = PlacementCheckpoints::new();
        let recorded = eval.schedule(&design, Some(&mut ckpts)).unwrap();
        assert_eq!(recorded.cost(), direct.cost());
        assert_eq!(Some(ckpts.tag), eval.design_key(&design));
    }
}
