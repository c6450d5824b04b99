//! # ftdes-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation (§6):
//!
//! | target | reproduces |
//! |---|---|
//! | `cargo run -p ftdes-bench --release --bin table1a` | Table 1a — overhead vs application size |
//! | `... --bin table1b` | Table 1b — overhead vs number of faults |
//! | `... --bin table1c` | Table 1c — overhead vs fault duration µ |
//! | `... --bin fig10` | Fig. 10 — MX / MR / SFX deviation from MXR |
//! | `... --bin cruise_control` | the CC case study |
//! | `... --bin perfgate` | the engine's speedup over three ablations at equal work (paper, 12-node splice and comm-heavy workloads) → `BENCH_tabu.json` |
//!
//! The two extension studies — the χ (checkpointing overhead)
//! trade-off and the node-kill repair study — are fixed-iteration
//! sweeps: [`jobs`] expands them into crash-safe job graphs that
//! `ftdes sweep run` executes (`BENCH_cptable.json` and
//! `BENCH_repair.json` are its `--out` files).
//!
//! Scale knobs of the table bins (environment variables; `perfgate`
//! and the sweeps read none, and the engine's own, `FTDES_THREADS`,
//! is documented in the `ftdes-core` crate docs):
//!
//! * `FTDES_SEEDS` — applications per configuration (paper: 15,
//!   default here: 5 to keep runs minutes-scale),
//! * `FTDES_TIME_MS` — search budget per strategy run in
//!   milliseconds (default 500; the paper used minutes-to-hours on
//!   2005 hardware),
//! * `FTDES_THREADS` — worker threads for candidate evaluation
//!   (default: available parallelism).
//!
//! # Evaluations/sec methodology
//!
//! All of the paper's experiments run the search under a wall-clock
//! budget ("the shortest schedule within an imposed time limit"), so
//! **candidates scored per second decide solution quality**: more
//! candidates buy more tabu iterations buy shorter schedules. The
//! engine's throughput knobs — incremental and bounded evaluation
//! (`SearchConfig::{incremental, bounded}`), the suffix splice and the
//! bitmap occupancy — earn their place by the time they save, and
//! `perfgate` measures exactly that, at **equal work**:
//!
//! * Candidate selection uses a total order on `(cost, move index)`,
//!   and every knob is trajectory-invariant, so a fixed-iteration
//!   search ([`iteration_config`], no wall-clock limit) selects the
//!   same moves with the knob on or off.
//! * Each gate therefore runs the default engine and one ablation of
//!   it as the same fixed-iteration solve on the same instances, on
//!   one evaluation thread, and fails unless both return the same
//!   design, cost, `tabu_iterations` and `greedy_steps` for every
//!   instance. Only the resolution pass's evaluation counts may
//!   differ.
//! * The timed quantity is each solve's `SearchStats::elapsed`. The
//!   arms alternate which runs first over five repetitions, and
//!   `BENCH_tabu.json` records per arm the median and min seconds,
//!   and per gate the median, min and max of the per-repetition
//!   time ratio. CI gates the median ratio of each gate against its
//!   floor.
//!
//! A wall-clock window would compare unlike work: the faster arm
//! crosses the staged-tabu midpoint and the greedy/tabu boundary at
//! different points, so its candidates mix greedy and tabu windows
//! in different proportions and its best length differs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod jobs;

use std::sync::Arc;
use std::time::Duration;

use ftdes_core::{
    effective_threads, optimize, optimize_with_cache, EvalCache, Goal, Outcome, Problem,
    SearchConfig, Strategy, WorkerPool,
};
use ftdes_gen::{comm_heavy, paper_workload, CommHeavyParams};
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

/// Per-byte bus transmission time used by all experiments: 2.5 ms per
/// byte makes a 4-byte slot 10 ms long, matching the paper's figures.
pub const BYTE_TIME: Time = Time::from_us(2_500);

/// Reads an experiment knob from the environment.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Number of random applications per configuration (paper: 15).
#[must_use]
pub fn seeds() -> usize {
    env_usize("FTDES_SEEDS", 5)
}

/// Search budget per strategy run.
#[must_use]
pub fn time_budget() -> Duration {
    Duration::from_millis(env_usize("FTDES_TIME_MS", 500) as u64)
}

/// The search configuration of the table bins: minimize δ, stop at
/// `FTDES_TIME_MS` or 10,000 tabu iterations, whichever comes first
/// (the paper "derived the shortest schedule within an imposed time
/// limit").
#[must_use]
pub fn experiment_config() -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: Some(time_budget()),
        max_tabu_iterations: 10_000,
        ..SearchConfig::default()
    }
}

/// The **iteration-bounded** configuration of the sweep jobs: no
/// wall-clock limit at all, so for a fixed `max_iterations` the search
/// trajectory — and therefore every job result — is bit-identical
/// across runs, thread counts and machines. This is what makes
/// crash-resumed sweeps reproduce uncrashed ones exactly.
#[must_use]
pub fn iteration_config(max_iterations: usize) -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: max_iterations,
        ..SearchConfig::default()
    }
}

/// The per-process fault-tolerance technique mix of a set of designs:
/// how often the optimizer chose each technique (paper §6 discusses
/// the mix MXR settles on; the χ sweep tracks how it shifts with χ).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyMix {
    /// Pure re-execution decisions (no checkpoints).
    pub reexec: usize,
    /// Checkpointed re-execution decisions.
    pub checkpointed: usize,
    /// Pure replication decisions.
    pub replicated: usize,
    /// Replicated mixes (replicas and a re-execution budget).
    pub mixed: usize,
}

impl PolicyMix {
    /// Tallies the decisions of one design into the mix.
    pub fn add_design(&mut self, design: &ftdes_model::design::Design) {
        for (_, d) in design.iter() {
            if d.policy.is_pure_reexecution() {
                if d.policy.is_checkpointed() {
                    self.checkpointed += 1;
                } else {
                    self.reexec += 1;
                }
            } else if d.policy.is_pure_replication() {
                self.replicated += 1;
            } else {
                self.mixed += 1;
            }
        }
    }
}

/// Writes a `BENCH_*.json` artifact, with the error reporting every
/// bin previously hand-rolled.
///
/// # Errors
///
/// A formatted message naming the artifact and the I/O failure.
pub fn write_artifact(name: &str, json: &str) -> Result<(), String> {
    std::fs::write(name, json).map_err(|e| format!("cannot write {name}: {e}"))
}

/// Builds the problem instance for one synthetic application.
#[must_use]
pub fn synthetic_problem(processes: usize, nodes: usize, k: u32, mu: Time, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let workload = paper_workload(processes, &arch, seed);
    let largest = workload
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, BYTE_TIME)
        .expect("synthetic architectures are non-empty");
    Problem::new(
        workload.graph,
        arch,
        workload.wcet,
        FaultModel::new(k, mu),
        bus,
    )
}

/// Builds the problem instance for one communication-heavy
/// application ([`ftdes_gen::comm_heavy`], dense defaults): dense
/// DAGs, 4–16 byte messages and a per-byte bus time chosen so an
/// average message transfer costs half an average WCET — the workload
/// where bus waits, not computation, decide schedule length, and
/// where the bitmap slot occupancy earns its keep. `perfgate`'s
/// `comm` gate runs this family at five edges per process
/// ([`comm_heavy_problem_with`]).
#[must_use]
pub fn comm_heavy_problem(processes: usize, nodes: usize, k: u32, mu: Time, seed: u64) -> Problem {
    comm_heavy_problem_with(&CommHeavyParams::dense(processes), nodes, k, mu, seed)
}

/// [`comm_heavy_problem`] with explicit family parameters — the
/// perfgate `comm` section and the `commtable` density/ratio sweep
/// set these.
#[must_use]
pub fn comm_heavy_problem_with(
    params: &CommHeavyParams,
    nodes: usize,
    k: u32,
    mu: Time,
    seed: u64,
) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let workload = comm_heavy(params, &arch, seed);
    let largest = workload
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, params.byte_time())
        .expect("synthetic architectures are non-empty");
    Problem::new(
        workload.graph,
        arch,
        workload.wcet,
        FaultModel::new(k, mu),
        bus,
    )
}

/// Runs one strategy on one problem.
///
/// # Panics
///
/// Panics when the strategy cannot produce any design (e.g. MR on an
/// architecture with fewer than `k + 1` nodes) — experiment
/// configurations avoid this.
#[must_use]
pub fn run_strategy(problem: &Problem, strategy: Strategy, cfg: &SearchConfig) -> Outcome {
    optimize(problem, strategy, cfg).unwrap_or_else(|e| panic!("{strategy} failed: {e}"))
}

/// [`run_strategy`] over a shared evaluation cache: the strategies of
/// one seed solve the same application (under per-strategy fault
/// models, which the cache keys on), so they reuse each other's cost
/// entries.
///
/// # Panics
///
/// Same as [`run_strategy`].
#[must_use]
pub fn run_strategy_cached(
    problem: &Problem,
    strategy: Strategy,
    cfg: &SearchConfig,
    cache: &Arc<EvalCache>,
) -> Outcome {
    optimize_with_cache(problem, strategy, cfg, cache)
        .unwrap_or_else(|e| panic!("{strategy} failed: {e}"))
}

/// Maps `f` over every experiment seed, distributing the (mutually
/// independent) seeds over a persistent worker pool. `f` receives the
/// seed and the per-seed [`SearchConfig`]: when seed-level
/// parallelism is active, each inner search runs single-threaded —
/// the seeds already saturate the cores — otherwise the caller's
/// thread setting stands. Results come back in seed order.
pub fn par_seed_map<R, F>(cfg: &SearchConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64, &SearchConfig) -> R + Sync,
{
    let seeds = seeds().max(1);
    let pool = WorkerPool::new(effective_threads(0).min(seeds));
    let inner = SearchConfig {
        threads: if pool.threads() > 1 { 1 } else { cfg.threads },
        ..cfg.clone()
    };
    let items: Vec<u64> = (0..seeds as u64).collect();
    let mapped = pool
        .try_map_init(
            &items,
            || (),
            |(), _, &seed| Ok::<_, std::convert::Infallible>(Some(f(seed, &inner))),
        )
        .unwrap_or_else(|e| match e {});
    mapped
        .into_iter()
        .map(|r| r.expect("seed jobs are never skipped"))
        .collect()
}

/// Summary statistics of a set of per-seed percentages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentRow {
    /// Largest value.
    pub max: f64,
    /// Mean value.
    pub avg: f64,
    /// Smallest value.
    pub min: f64,
}

impl PercentRow {
    /// Aggregates raw percentages.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples collected");
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        PercentRow { max, avg, min }
    }
}

/// The fault-tolerance overhead samples (MXR vs NFT) for one
/// configuration — one percentage per seed (paper Table 1).
#[must_use]
pub fn overhead_samples(
    processes: usize,
    nodes: usize,
    k: u32,
    mu: Time,
    cfg: &SearchConfig,
) -> Vec<f64> {
    par_seed_map(cfg, |seed, cfg| {
        let problem = synthetic_problem(processes, nodes, k, mu, seed);
        let cache = Arc::new(EvalCache::default());
        let mxr = run_strategy_cached(&problem, Strategy::Mxr, cfg, &cache);
        let nft = run_strategy_cached(&problem, Strategy::Nft, cfg, &cache);
        ftdes_core::overhead_percent(&mxr, &nft)
    })
}

/// Prints a three-column overhead table row.
pub fn print_row(label: &str, row: &PercentRow) {
    println!(
        "{label:>10} | {max:>8.2} | {avg:>8.2} | {min:>8.2}",
        max = row.max,
        avg = row.avg,
        min = row.min
    );
}

/// Prints the standard table header.
pub fn print_header(first: &str) {
    println!(
        "{first:>10} | {:>8} | {:>8} | {:>8}",
        "%max", "%avg", "%min"
    );
    println!("{}", "-".repeat(44));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_row_aggregates() {
        let row = PercentRow::from_samples(&[10.0, 30.0, 20.0]);
        assert_eq!(row.max, 30.0);
        assert_eq!(row.min, 10.0);
        assert!((row.avg - 20.0).abs() < 1e-9);
    }

    #[test]
    fn synthetic_problem_is_well_formed() {
        let p = synthetic_problem(20, 2, 3, Time::from_ms(5), 0);
        assert_eq!(p.process_count(), 20);
        p.graph().validate().unwrap();
    }

    #[test]
    fn tiny_overhead_run_is_positive() {
        // A minimal smoke test of the full experiment pipeline.
        let cfg = SearchConfig {
            goal: Goal::MinimizeLength,
            time_limit: Some(Duration::from_millis(50)),
            max_tabu_iterations: 5,
            ..SearchConfig::default()
        };
        let problem = synthetic_problem(10, 2, 2, Time::from_ms(5), 1);
        let mxr = run_strategy(&problem, Strategy::Mxr, &cfg);
        let nft = run_strategy(&problem, Strategy::Nft, &cfg);
        assert!(
            mxr.length() >= nft.length(),
            "fault tolerance cannot be free"
        );
    }
}
