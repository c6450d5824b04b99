//! The performance gate: tracks the optimizer's evaluation throughput
//! from PR to PR.
//!
//! Its `paper` section runs the same fixed-seed MXR search **twice**
//! on one evaluation thread under the identical wall-clock budget
//! (`FTDES_TIME_MS`, default 500 ms per seed):
//!
//! 1. **scratch** — the from-scratch path
//!    (`incremental: false, bounded: false`): memoized cost-only
//!    evaluation that places every candidate in full — the
//!    correctness oracle the parity suites compare the engine to,
//! 2. **incremental** — the current default path (evaluation engine
//!    v3): candidates re-place only their certified affected cone and
//!    splice the base recording's per-node segments and per-slot bus
//!    timelines for everything outside it, placing from position 0 on
//!    ready-order divergence, with bounded early exit.
//!
//! Because the search is deterministic in everything except the
//! wall-clock cutoff, more candidates per second directly buy more
//! tabu iterations — the quantity that decides solution quality under
//! the paper's "shortest schedule within an imposed time limit"
//! protocol. Results are written to `BENCH_tabu.json`:
//!
//! ```json
//! {
//!   "workload": {...},
//!   "scratch":     {"tabu_iterations": N, "candidates_per_sec": X, ...},
//!   "incremental": {...},
//!   "speedup": {
//!     "tabu_iterations_vs_scratch": incremental/scratch or null,
//!     "candidate_rate_vs_scratch": incremental/scratch,
//!     "best_length_ratio": informational
//!   }
//! }
//! ```
//!
//! An iteration ratio is `null` (printed `n/a`) when its reference arm
//! ran no tabu iteration at all: at short budgets the larger workloads
//! can spend the whole budget in the greedy phase. CI gates only the
//! candidate-rate ratios.
//!
//! # One subprocess per section
//!
//! Every section runs in its **own child process** (the binary
//! re-invokes itself with `FTDES_PERFGATE_SECTION=<name>` and collects
//! the per-section JSON fragments): every ratio in the file is
//! sensitive to allocator state, so letting one section churn the heap
//! before another measurably bends the next section's ratio. A fresh
//! process per section makes every floor independent of section order
//! by construction. There is no in-process mode: when the binary
//! cannot re-spawn itself it exits non-zero with the reason. Setting
//! `FTDES_PERFGATE_SECTION` to `paper`, `splice` or `comm` by hand
//! runs that one section and prints its JSON fragment.
//!
//! # The suffix-splice gate
//!
//! The suffix-splice engine's own CI gate runs on a second
//! **paper-family workload** at a larger architecture
//! (96 processes / 12 nodes / k = 3, `splice_workload` in the JSON)
//! against the **splice-off** path (`splice_pr3` in the JSON, named
//! for the PR that introduced it): incremental + bounded candidates
//! with suffix splicing disabled (`Problem::with_suffix_splice(false)`),
//! so every candidate is placed from position 0 on its patched
//! expansion. The certified affected cone of a move covers the moved
//! process's replica nodes plus everything node-chained behind them,
//! so on a 4-node instance a k = 3 move dirties most of the machine.
//! At 12 nodes the cone leaves most of the machine untouched and the
//! engine's reuse is structural: `splice_candidate_rate_vs_pr3`
//! carries the CI floor (1.2×).
//!
//! # The communication-heavy gate
//!
//! The paper-family workload above makes communication almost free
//! (1–4 byte messages against 10–100 ms WCETs), so it cannot see the
//! bus-booking path at all. A **second gated workload**
//! ([`ftdes_bench::comm_heavy_problem_with`]: five edges per process,
//! 4–16 byte messages, a bus where an average transfer costs half an
//! average WCET — several hundred bookings per evaluation) is
//! therefore run two ways:
//!
//! 1. **pr2** — the default engine with bus messages booked through
//!    the legacy flat tail scan
//!    (`Problem::with_occupancy_backend(OccupancyBackend::Flat)`), whose
//!    whole-table rescan per overflowed round turns quadratic on
//!    congested buses,
//! 2. **incremental** — the current default: the per-slot bitmap
//!    occupancy skips saturated rounds 64 at a time.
//!
//! Both runs walk bit-identical trajectories (both booking paths pick
//! identical slot occurrences — the backend changes *how fast* a
//! candidate is scored, never *which* candidate wins), so the
//! candidate-rate ratio cleanly measures the bitmap occupancy.
//! `BENCH_tabu.json` gains `comm_workload` / `comm_pr2` / `comm`
//! sections and a `comm_candidate_rate_vs_pr2` ratio; CI enforces its
//! floor (1.15×).
//!
//! Multi-core figures are not perfgate's: `synthbench --trace 1`
//! reports the portfolio's speedup over one worker
//! (`portfolio.speedup_vs_1w`) and window parallelism
//! (`parallel.window_speedup_2t`).

use std::time::Duration;

use ftdes_bench::{comm_heavy_problem_with, synthetic_problem, time_budget};
use ftdes_core::{
    effective_threads, optimize, Goal, OccupancyBackend, Outcome, Problem, SearchConfig, Strategy,
};
use ftdes_gen::CommHeavyParams;
use ftdes_model::time::Time;

/// The measurement environment, recorded into `BENCH_tabu.json` so
/// runs stay comparable across machines: the resolved worker-thread
/// count and a snapshot of the `FTDES_*` settings that can bend the
/// numbers: the bench budgets and the thread count.
fn environment_json() -> String {
    const KNOBS: [&str; 3] = ["FTDES_TIME_MS", "FTDES_SEEDS", "FTDES_THREADS"];
    // Minimal JSON string escaping (Rust's `escape_default` emits
    // `\'`/`\u{..}` forms that are not valid JSON).
    fn json_escape(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let knobs: Vec<String> = KNOBS
        .iter()
        .map(|k| match std::env::var(k) {
            Ok(v) => format!("\"{k}\": \"{}\"", json_escape(&v)),
            Err(_) => format!("\"{k}\": null"),
        })
        .collect();
    format!(
        "{{\"threads\": {}, \"knobs\": {{{}}}}}",
        effective_threads(0),
        knobs.join(", ")
    )
}

/// Processes / nodes / k of the gate workload: large enough that a
/// budgeted run is evaluation-bound, small enough to finish quickly.
const PROCESSES: usize = 40;
const NODES: usize = 4;
const FAULTS: u32 = 3;
const SEEDS: u64 = 3;
/// Evaluation threads of the paper section (see [`section_paper`]).
const PAPER_THREADS: usize = 1;

/// The communication-heavy gate workload: a denser graph (five edges
/// per process — several hundred bus messages per evaluation), k = 2
/// so the fault dimension doesn't drown the bus dimension.
const COMM_PROCESSES: usize = 50;
const COMM_DENSITY: f64 = 5.0;
const COMM_FAULTS: u32 = 2;
const COMM_SEEDS: u64 = 3;

/// The suffix-splice gate workload (paper family, larger machine):
/// the affected cone of a move spans the moved process's replica
/// nodes plus everything node-chained behind them, so on the 4-node
/// paper gate a k = 3 move dirties most of the machine and the
/// splice has no suffix locality to exploit (measured ~1.0× there).
/// At 12 nodes a move leaves most nodes untouched and the engine's
/// reuse is structural, not incidental.
const SPLICE_PROCESSES: usize = 96;
const SPLICE_NODES: usize = 12;
const SPLICE_FAULTS: u32 = 3;
const SPLICE_SEEDS: u64 = 3;

/// The sections, in execution order and in key order of the assembled
/// `BENCH_tabu.json` (environment first for human readers; CI loads
/// it as a dict and doesn't care). With one fresh process per section
/// the order affects no ratio.
const SECTIONS: [&str; 3] = ["paper", "splice", "comm"];

#[derive(Debug, Default, Clone, Copy)]
struct ModeTotals {
    tabu_iterations: usize,
    evaluations: usize,
    cache_hits: usize,
    pruned: usize,
    elapsed: Duration,
    best_length_us: u64,
}

impl ModeTotals {
    fn add(&mut self, outcome: &Outcome) {
        self.tabu_iterations += outcome.stats.tabu_iterations;
        self.evaluations += outcome.stats.evaluations;
        self.cache_hits += outcome.stats.cache_hits;
        self.pruned += outcome.stats.pruned;
        self.elapsed += outcome.stats.elapsed;
        self.best_length_us += outcome.length().as_us();
    }

    fn evals_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.evaluations as f64 / secs
    }

    /// Candidates scored per second — schedules computed, cache hits,
    /// and bounded-pruned candidates (each pruned candidate was
    /// examined exactly far enough to prove it cannot win); the rate
    /// the search actually consumes its neighbourhood at.
    fn candidates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        (self.evaluations + self.cache_hits + self.pruned) as f64 / secs
    }

    fn json(&self) -> String {
        format!(
            "{{\"tabu_iterations\": {}, \"evaluations\": {}, \"cache_hits\": {}, \
             \"pruned\": {}, \"elapsed_ms\": {}, \"evals_per_sec\": {:.1}, \
             \"candidates_per_sec\": {:.1}, \"best_length_us\": {}}}",
            self.tabu_iterations,
            self.evaluations,
            self.cache_hits,
            self.pruned,
            self.elapsed.as_millis(),
            self.evals_per_sec(),
            self.candidates_per_sec(),
            self.best_length_us
        )
    }
}

fn gate_config(budget: Duration) -> SearchConfig {
    SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: Some(budget),
        max_tabu_iterations: usize::MAX,
        ..SearchConfig::default()
    }
}

/// The current default path: incremental + bounded evaluation.
fn run_incremental(problem: &Problem, cfg: &SearchConfig) -> Outcome {
    optimize(problem, Strategy::Mxr, cfg)
        .unwrap_or_else(|e| panic!("perfgate incremental search: {e}"))
}

/// The from-scratch path: memoized cost-only evaluation, every
/// candidate placed in full, no bounds, no checkpoints.
fn run_scratch(problem: &Problem, cfg: &SearchConfig) -> Outcome {
    let cfg = SearchConfig {
        incremental: false,
        bounded: false,
        ..cfg.clone()
    };
    optimize(problem, Strategy::Mxr, &cfg)
        .unwrap_or_else(|e| panic!("perfgate scratch search: {e}"))
}

/// The splice-off path: the default engine — incremental priorities,
/// bounded early-exit, the bitmap occupancy — with suffix splicing
/// disabled, so every candidate is placed from position 0. The
/// candidate-rate ratio against this isolates exactly the splice
/// engine's contribution.
fn run_splice_off(problem: &Problem, cfg: &SearchConfig) -> Outcome {
    let problem = problem.clone().with_suffix_splice(false);
    optimize(&problem, Strategy::Mxr, cfg)
        .unwrap_or_else(|e| panic!("perfgate splice-off search: {e}"))
}

/// The reference arm of the communication-heavy gate (`comm_pr2` in
/// `BENCH_tabu.json`): the default engine with bus messages booked
/// through the legacy flat tail scan instead of the per-(node, slot)
/// occupancy bitmap. Both
/// backends are bit-identical in results, so the candidate-rate ratio
/// isolates exactly the bitmap's contribution.
fn run_pr2(problem: &Problem, cfg: &SearchConfig) -> Outcome {
    let problem = problem
        .clone()
        .with_occupancy_backend(OccupancyBackend::Flat);
    optimize(&problem, Strategy::Mxr, cfg).unwrap_or_else(|e| panic!("perfgate pr2 search: {e}"))
}

fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(f64::MIN_POSITIVE)
}

/// `candidate / reference` tabu iterations, or `None` when the
/// reference arm ran none: a ratio against zero iterations means
/// nothing (at 300–500 ms budgets the 96-process splice arms often
/// never leave greedy).
fn iteration_ratio(candidate: usize, reference: usize) -> Option<f64> {
    (reference > 0).then(|| candidate as f64 / reference as f64)
}

/// An optional ratio as a JSON value: two decimals, or `null`.
fn ratio_json(r: Option<f64>) -> String {
    r.map_or_else(|| "null".to_owned(), |r| format!("{r:.2}"))
}

/// An optional ratio for the console: `1.23x`, or `n/a`.
fn ratio_text(r: Option<f64>) -> String {
    r.map_or_else(|| "n/a".to_owned(), |r| format!("{r:.2}x"))
}

/// The paper-workload section: scratch / incremental, plus the
/// environment snapshot. Both arms evaluate on one thread, so the
/// ratio measures the engine alone: at two threads every window pays
/// the pool's wake-up (5–11 µs), which is a large share of a window
/// of spliced candidates but a small one of from-scratch placements,
/// and the ratio then read 0.98–1.24× on a 2-CPU host. synthbench's
/// `parallel.window_speedup_2t` measures window parallelism.
fn section_paper() -> String {
    let budget = time_budget();
    let cfg = SearchConfig {
        threads: PAPER_THREADS,
        ..gate_config(budget)
    };
    let mut scratch = ModeTotals::default();
    let mut incremental = ModeTotals::default();

    println!(
        "perfgate: {PROCESSES} processes / {NODES} nodes / k = {FAULTS}, \
         {SEEDS} seeds, {budget:?} per run per mode, {PAPER_THREADS} thread"
    );
    for seed in 0..SEEDS {
        let problem = synthetic_problem(PROCESSES, NODES, FAULTS, Time::from_ms(5), seed);
        let full = run_scratch(&problem, &cfg);
        let incr = run_incremental(&problem, &cfg);
        println!(
            "  seed {seed}: scratch {} iters / {} evals (+{} hits) | \
             spliced {} iters / {} evals (+{} hits, {} pruned)",
            full.stats.tabu_iterations,
            full.stats.evaluations,
            full.stats.cache_hits,
            incr.stats.tabu_iterations,
            incr.stats.evaluations,
            incr.stats.cache_hits,
            incr.stats.pruned,
        );
        scratch.add(&full);
        incremental.add(&incr);
    }

    let iter_vs_scratch = iteration_ratio(incremental.tabu_iterations, scratch.tabu_iterations);
    let cand_vs_scratch = ratio(
        incremental.candidates_per_sec(),
        scratch.candidates_per_sec(),
    );
    // Informational only: under a wall-clock budget the modes
    // truncate the trajectory at different points (stage midpoints,
    // cutoffs), so per-seed best lengths can move either way.
    let length_ratio = ratio(
        incremental.best_length_us as f64,
        scratch.best_length_us.max(1) as f64,
    );
    println!(
        "vs from-scratch path: {} tabu iterations, \
         {cand_vs_scratch:.2}x candidate rate (best-length ratio {length_ratio:.3})",
        ratio_text(iter_vs_scratch),
    );
    format!(
        "\"environment\": {},\n  \
         \"workload\": {{\"processes\": {PROCESSES}, \"nodes\": {NODES}, \"k\": {FAULTS}, \
         \"seeds\": {SEEDS}, \"budget_ms\": {}, \"threads\": {PAPER_THREADS}}},\n  \
         \"scratch\": {},\n  \
         \"incremental\": {},\n  \"speedup\": {{\
         \"tabu_iterations_vs_scratch\": {}, \
         \"candidate_rate_vs_scratch\": {cand_vs_scratch:.2}, \
         \"best_length_ratio\": {length_ratio:.3}}}",
        environment_json(),
        budget.as_millis(),
        scratch.json(),
        incremental.json(),
        ratio_json(iter_vs_scratch),
    )
}

/// The suffix-splice gate section (paper family, 12 nodes).
fn section_splice() -> String {
    let budget = time_budget();
    let cfg = gate_config(budget);
    let mut splice_pr3 = ModeTotals::default();
    let mut splice_incr = ModeTotals::default();
    println!(
        "perfgate (splice gate): {SPLICE_PROCESSES} processes / {SPLICE_NODES} nodes / \
         k = {SPLICE_FAULTS}, {SPLICE_SEEDS} seeds, {budget:?} per run per mode"
    );
    for seed in 0..SPLICE_SEEDS {
        let problem = synthetic_problem(
            SPLICE_PROCESSES,
            SPLICE_NODES,
            SPLICE_FAULTS,
            Time::from_ms(5),
            seed,
        );
        let unspliced = run_splice_off(&problem, &cfg);
        let incr = run_incremental(&problem, &cfg);
        println!(
            "  seed {seed}: splice off {} iters / {} evals (+{} hits, {} pruned) | \
             spliced {} iters / {} evals (+{} hits, {} pruned)",
            unspliced.stats.tabu_iterations,
            unspliced.stats.evaluations,
            unspliced.stats.cache_hits,
            unspliced.stats.pruned,
            incr.stats.tabu_iterations,
            incr.stats.evaluations,
            incr.stats.cache_hits,
            incr.stats.pruned,
        );
        splice_pr3.add(&unspliced);
        splice_incr.add(&incr);
    }
    let splice_cand_vs_pr3 = ratio(
        splice_incr.candidates_per_sec(),
        splice_pr3.candidates_per_sec(),
    );
    let splice_iter_vs_pr3 =
        iteration_ratio(splice_incr.tabu_iterations, splice_pr3.tabu_iterations);
    println!(
        "splice gate ({SPLICE_NODES} nodes), suffix splice vs splice off: \
         {} tabu iterations, {splice_cand_vs_pr3:.2}x candidate rate",
        ratio_text(splice_iter_vs_pr3),
    );
    format!(
        "\"splice_workload\": {{\"family\": \"paper\", \"processes\": {SPLICE_PROCESSES}, \
         \"nodes\": {SPLICE_NODES}, \"k\": {SPLICE_FAULTS}, \"seeds\": {SPLICE_SEEDS}, \
         \"budget_ms\": {}}},\n  \"splice_pr3\": {},\n  \"splice\": {},\n  \
         \"splice_speedup\": {{\"tabu_iterations_vs_pr3\": {}, \
         \"splice_candidate_rate_vs_pr3\": {splice_cand_vs_pr3:.2}}}",
        budget.as_millis(),
        splice_pr3.json(),
        splice_incr.json(),
        ratio_json(splice_iter_vs_pr3),
    )
}

/// The communication-heavy gate section.
fn section_comm() -> String {
    let budget = time_budget();
    let cfg = gate_config(budget);
    let mut comm_pr2 = ModeTotals::default();
    let mut comm_incr = ModeTotals::default();
    println!(
        "perfgate (comm-heavy): {COMM_PROCESSES} processes / {NODES} nodes / k = {COMM_FAULTS}, \
         {COMM_SEEDS} seeds, {budget:?} per run per mode"
    );
    let comm_params = CommHeavyParams::dense(COMM_PROCESSES).with_density(COMM_DENSITY);
    for seed in 0..COMM_SEEDS {
        let problem =
            comm_heavy_problem_with(&comm_params, NODES, COMM_FAULTS, Time::from_ms(5), seed);
        let pr2 = run_pr2(&problem, &cfg);
        let incr = run_incremental(&problem, &cfg);
        println!(
            "  seed {seed}: pr2 {} iters / {} evals (+{} hits, {} pruned) | \
             bitmap {} iters / {} evals (+{} hits, {} pruned)",
            pr2.stats.tabu_iterations,
            pr2.stats.evaluations,
            pr2.stats.cache_hits,
            pr2.stats.pruned,
            incr.stats.tabu_iterations,
            incr.stats.evaluations,
            incr.stats.cache_hits,
            incr.stats.pruned,
        );
        comm_pr2.add(&pr2);
        comm_incr.add(&incr);
    }
    let comm_cand_vs_pr2 = ratio(
        comm_incr.candidates_per_sec(),
        comm_pr2.candidates_per_sec(),
    );
    let comm_iter_vs_pr2 = iteration_ratio(comm_incr.tabu_iterations, comm_pr2.tabu_iterations);
    println!(
        "comm-heavy, bitmap vs flat occupancy: {} tabu iterations, \
         {comm_cand_vs_pr2:.2}x candidate rate",
        ratio_text(comm_iter_vs_pr2),
    );
    format!(
        "\"comm_workload\": {{\"family\": \"comm_heavy\", \"processes\": {COMM_PROCESSES}, \
         \"edge_density\": {COMM_DENSITY}, \"msg_wcet_ratio\": {}, \"nodes\": {NODES}, \
         \"k\": {COMM_FAULTS}, \"seeds\": {COMM_SEEDS}, \
         \"budget_ms\": {}}},\n  \"comm_pr2\": {},\n  \"comm\": {},\n  \
         \"comm_speedup\": {{\"tabu_iterations_vs_pr2\": {}, \
         \"comm_candidate_rate_vs_pr2\": {comm_cand_vs_pr2:.2}}}",
        comm_params.msg_wcet_ratio,
        budget.as_millis(),
        comm_pr2.json(),
        comm_incr.json(),
        ratio_json(comm_iter_vs_pr2),
    )
}

fn run_section(name: &str) -> Option<String> {
    Some(match name {
        "paper" => section_paper(),
        "splice" => section_splice(),
        "comm" => section_comm(),
        _ => return None,
    })
}

/// Spawns one child per section (fresh heap each — see the module
/// docs) and collects the fragments in [`SECTIONS`] order.
///
/// # Errors
///
/// Why a section produced no fragment: the binary cannot locate or
/// spawn itself, or a child failed or wrote no output.
fn run_all_sections() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut fragments = Vec::new();
    for &section in &SECTIONS {
        let out_path = std::env::temp_dir().join(format!("perfgate_{section}.json"));
        let status = std::process::Command::new(&exe)
            .env("FTDES_PERFGATE_SECTION", section)
            .env("FTDES_PERFGATE_OUT", &out_path)
            .status()
            .map_err(|e| format!("cannot spawn section '{section}': {e}"))?;
        if !status.success() {
            return Err(format!("section '{section}' failed ({status})"));
        }
        let fragment = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("section '{section}' left no output: {e}"))?;
        let _ = std::fs::remove_file(&out_path);
        fragments.push(fragment);
    }
    Ok(fragments)
}

fn main() -> std::process::ExitCode {
    // Child mode: run one section, write its JSON fragment where the
    // parent asked, exit.
    if let Ok(section) = std::env::var("FTDES_PERFGATE_SECTION") {
        let Some(fragment) = run_section(&section) else {
            eprintln!("perfgate: unknown section '{section}' (valid: {SECTIONS:?})");
            return std::process::ExitCode::FAILURE;
        };
        if let Ok(out) = std::env::var("FTDES_PERFGATE_OUT") {
            if let Err(e) = std::fs::write(&out, &fragment) {
                eprintln!("perfgate: cannot write section output {out}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        } else {
            println!("{fragment}");
        }
        return std::process::ExitCode::SUCCESS;
    }

    let fragments = match run_all_sections() {
        Ok(fragments) => fragments,
        Err(e) => {
            eprintln!("perfgate: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let json = format!("{{\n  {}\n}}\n", fragments.join(",\n  "));
    if let Err(e) = std::fs::write("BENCH_tabu.json", &json) {
        eprintln!("perfgate: cannot write BENCH_tabu.json: {e}");
        return std::process::ExitCode::FAILURE;
    }
    println!("\n{json}");
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_ratio_is_undefined_against_zero_reference_iterations() {
        // The two readings a 300 ms splice run produced before: every
        // arm at 0 iterations, and only the reference arm at 0.
        for candidate in [0, 58] {
            assert_eq!(iteration_ratio(candidate, 0), None);
            assert_eq!(ratio_json(iteration_ratio(candidate, 0)), "null");
            assert_eq!(ratio_text(iteration_ratio(candidate, 0)), "n/a");
        }
        assert_eq!(ratio_json(iteration_ratio(0, 4)), "0.00");
        assert_eq!(ratio_json(iteration_ratio(6, 4)), "1.50");
        assert_eq!(ratio_text(iteration_ratio(6, 4)), "1.50x");
    }
}
