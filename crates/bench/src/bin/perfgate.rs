//! The performance gate: the evaluation engine's speedup over three
//! ablations of it, at equal work.
//!
//! Each ablation turns off one throughput knob of the engine, and
//! every one of them is trajectory-invariant: the knob changes how
//! fast a candidate is scored, never which candidate wins. So a gate
//! runs both arms as the same fixed-iteration MXR solve
//! ([`ftdes_bench::iteration_config`], one evaluation thread, no
//! wall-clock limit) on the same instances, checks that they return
//! the same design, cost, `tabu_iterations` and `greedy_steps` for
//! every instance, and times that work (each solve's
//! `SearchStats::elapsed`):
//!
//! | gate | workload | reference arm | floor |
//! |---|---|---|---|
//! | `paper` | paper family, 40 processes / 4 nodes / k = 3, 300 iterations | `scratch`: `incremental: false, bounded: false` | 1.3× |
//! | `splice` | paper family, 96 processes / 12 nodes / k = 3, 40 iterations | `splice_off`: `Problem::with_suffix_splice(false)` | 1.2× |
//! | `comm` | comm-heavy, 50 processes at 5 edges each / 4 nodes / k = 2, 80 iterations | `flat`: `OccupancyBackend::Flat` | 1.15× |
//!
//! The splice gate runs on 12 nodes because a k = 3 move on 4 nodes
//! dirties most of the machine, which leaves the splice no suffix to
//! reuse. The comm gate's workload makes an average message transfer
//! cost half an average WCET, so bus booking, which the paper family
//! barely exercises, dominates each placement. Every gate runs one
//! thread: at two, each window pays the pool's wake-up, a large share
//! of a window of spliced candidates and a small one of from-scratch
//! placements, so the ratio would measure the pool as well.
//!
//! # Repetitions
//!
//! A gate solves every seed under both arms [`REPETITIONS`] times.
//! Even repetitions run the engine first on each seed, odd ones the
//! reference arm, so drift on a shared host charges both arms alike.
//! A repetition's ratio is the reference arm's total time over the
//! engine's; CI gates the median ratio. `BENCH_tabu.json` holds one
//! object per gate:
//!
//! ```json
//! "splice": {
//!   "workload": {"family": "paper", "processes": 96, ..., "iterations": 40},
//!   "work": {"tabu_iterations": 120, "greedy_steps": 138, "best_length_us": 7679594},
//!   "engine": {"median_s": 1.3489, "min_s": 1.3404},
//!   "splice_off": {"median_s": 2.4919, "min_s": 2.4886},
//!   "ratio": {"median": 1.85, "min": 1.84, "max": 1.86}
//! }
//! ```
//!
//! `work` sums the (equal) trajectories of the arms over the seeds.
//!
//! # One subprocess per gate
//!
//! Every gate runs in its **own child process**: the binary re-invokes
//! itself with `FTDES_PERFGATE_SECTION=<gate>` and
//! `FTDES_PERFGATE_OUT=<file>` and collects the JSON fragments, so no
//! gate's heap churn bends another's ratio. Setting
//! `FTDES_PERFGATE_SECTION` by hand runs that one gate and prints its
//! fragment. A gate whose arms disagree exits non-zero, naming the
//! gate, seed and field, and so does the whole run.
//!
//! Multi-core figures are not perfgate's: `synthbench --trace 1`
//! reports the portfolio's speedup over one worker
//! (`portfolio.speedup_vs_1w`) and window parallelism
//! (`parallel.window_speedup_2t`).

use std::process::ExitCode;
use std::time::Duration;

use ftdes_bench::{comm_heavy_problem_with, iteration_config, synthetic_problem};
use ftdes_core::{optimize, OccupancyBackend, Outcome, Problem, SearchConfig, Strategy};
use ftdes_gen::CommHeavyParams;
use ftdes_model::time::Time;

/// Solves of every seed under both arms per gate.
const REPETITIONS: usize = 5;
/// Instances per gate (seeds `0..SEEDS`).
const SEEDS: u64 = 3;

/// A gate's instances: the paper family, or the comm-heavy family
/// (dense defaults) at `comm_density` edges per process.
#[derive(Debug, Clone, Copy)]
struct Workload {
    processes: usize,
    nodes: usize,
    k: u32,
    comm_density: Option<f64>,
}

impl Workload {
    fn instance(self, seed: u64) -> Problem {
        let (p, n, k, mu) = (self.processes, self.nodes, self.k, Time::from_ms(5));
        match self.comm_density {
            None => synthetic_problem(p, n, k, mu, seed),
            Some(d) => {
                comm_heavy_problem_with(&CommHeavyParams::dense(p).with_density(d), n, k, mu, seed)
            }
        }
    }

    fn json(self) -> String {
        let family = match self.comm_density {
            None => "\"paper\"".to_owned(),
            Some(d) => format!(
                "\"comm_heavy\", \"edge_density\": {d}, \"msg_wcet_ratio\": {}",
                CommHeavyParams::dense(self.processes).msg_wcet_ratio
            ),
        };
        format!(
            "\"family\": {family}, \"processes\": {}, \"nodes\": {}, \"k\": {}",
            self.processes, self.nodes, self.k
        )
    }
}

/// One row of the gate table: the engine against one ablation of it.
struct Gate {
    name: &'static str,
    workload: Workload,
    /// Tabu iterations of every solve.
    iterations: usize,
    /// The reference arm's name in `BENCH_tabu.json`.
    reference: &'static str,
    /// Turns the engine arm's problem and configuration into the
    /// reference arm's.
    ablate: fn(Problem, SearchConfig) -> (Problem, SearchConfig),
}

/// The gates, in run order and in the key order of `BENCH_tabu.json`.
const GATES: [Gate; 3] = [
    Gate {
        name: "paper",
        workload: Workload {
            processes: 40,
            nodes: 4,
            k: 3,
            comm_density: None,
        },
        iterations: 300,
        reference: "scratch",
        ablate: |problem, cfg| {
            let cfg = SearchConfig {
                incremental: false,
                bounded: false,
                ..cfg
            };
            (problem, cfg)
        },
    },
    Gate {
        name: "splice",
        workload: Workload {
            processes: 96,
            nodes: 12,
            k: 3,
            comm_density: None,
        },
        iterations: 40,
        reference: "splice_off",
        ablate: |problem, cfg| (problem.with_suffix_splice(false), cfg),
    },
    Gate {
        name: "comm",
        workload: Workload {
            processes: 50,
            nodes: 4,
            k: 2,
            comm_density: Some(5.0),
        },
        iterations: 80,
        reference: "flat",
        ablate: |problem, cfg| (problem.with_occupancy_backend(OccupancyBackend::Flat), cfg),
    },
];

/// Median, min and max of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// The spread of a non-empty sample; the median of an even count
    /// is the mean of its two middle values.
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Spread {
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// Checks that the two arms walked the same trajectory on one
/// instance.
///
/// # Errors
///
/// The first of design, cost, `tabu_iterations` and `greedy_steps`
/// that differs, with the gate and seed.
fn same_trajectory(
    gate: &str,
    seed: u64,
    engine: &Outcome,
    reference: &Outcome,
) -> Result<(), String> {
    let (e, r) = (&engine.stats, &reference.stats);
    let field = if engine.design != reference.design {
        "design".to_owned()
    } else if engine.schedule.cost() != reference.schedule.cost() {
        format!(
            "cost ({:?} vs {:?})",
            engine.schedule.cost(),
            reference.schedule.cost()
        )
    } else if e.tabu_iterations != r.tabu_iterations {
        format!(
            "tabu_iterations ({} vs {})",
            e.tabu_iterations, r.tabu_iterations
        )
    } else if e.greedy_steps != r.greedy_steps {
        format!("greedy_steps ({} vs {})", e.greedy_steps, r.greedy_steps)
    } else {
        return Ok(());
    };
    Err(format!(
        "gate '{gate}', seed {seed}: the engine and reference arms differ in {field}"
    ))
}

fn solve(problem: &Problem, cfg: &SearchConfig, gate: &str, seed: u64) -> Result<Outcome, String> {
    optimize(problem, Strategy::Mxr, cfg).map_err(|e| format!("gate '{gate}', seed {seed}: {e}"))
}

/// Runs one gate and returns its `BENCH_tabu.json` fragment.
///
/// # Errors
///
/// A solve failed, or the arms walked different trajectories.
fn run_gate(gate: &Gate) -> Result<String, String> {
    let engine_cfg = SearchConfig {
        threads: 1,
        ..iteration_config(gate.iterations)
    };
    // Per seed: the engine's problem, and the reference arm's problem
    // and configuration.
    let arms: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let problem = gate.workload.instance(seed);
            let reference = (gate.ablate)(problem.clone(), engine_cfg.clone());
            (problem, reference)
        })
        .collect();
    println!(
        "perfgate {}: {{{}}}, {SEEDS} seeds, {} iterations, engine vs {}, {REPETITIONS} repetitions",
        gate.name,
        gate.workload.json(),
        gate.iterations,
        gate.reference
    );
    let (mut engine_s, mut reference_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tabu_iterations, mut greedy_steps, mut best_length_us) = (0, 0, 0);
    for rep in 0..REPETITIONS {
        let (mut engine_t, mut reference_t) = (Duration::ZERO, Duration::ZERO);
        for (seed, (problem, (ref_problem, ref_cfg))) in (0..).zip(&arms) {
            let run_engine = || solve(problem, &engine_cfg, gate.name, seed);
            let run_reference = || solve(ref_problem, ref_cfg, gate.name, seed);
            let (engine, reference) = if rep % 2 == 0 {
                let engine = run_engine()?;
                (engine, run_reference()?)
            } else {
                let reference = run_reference()?;
                (run_engine()?, reference)
            };
            same_trajectory(gate.name, seed, &engine, &reference)?;
            engine_t += engine.stats.elapsed;
            reference_t += reference.stats.elapsed;
            if rep == 0 {
                tabu_iterations += engine.stats.tabu_iterations;
                greedy_steps += engine.stats.greedy_steps;
                best_length_us += engine.length().as_us();
            }
        }
        let ratio = reference_t.as_secs_f64() / engine_t.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "  repetition {rep}: engine {:.3} s, {} {:.3} s, {ratio:.2}x",
            engine_t.as_secs_f64(),
            gate.reference,
            reference_t.as_secs_f64()
        );
        engine_s.push(engine_t.as_secs_f64());
        reference_s.push(reference_t.as_secs_f64());
        ratios.push(ratio);
    }
    let (engine, reference, ratio) = (
        Spread::of(&engine_s),
        Spread::of(&reference_s),
        Spread::of(&ratios),
    );
    println!(
        "{} gate: {:.2}x median ({:.2}-{:.2}x) at equal trajectories",
        gate.name, ratio.median, ratio.min, ratio.max
    );
    Ok(format!(
        "\"{}\": {{\n    \"workload\": {{{}, \"seeds\": {SEEDS}, \"iterations\": {}, \
         \"threads\": 1, \"repetitions\": {REPETITIONS}}},\n    \
         \"work\": {{\"tabu_iterations\": {tabu_iterations}, \"greedy_steps\": {greedy_steps}, \
         \"best_length_us\": {best_length_us}}},\n    \
         \"engine\": {{\"median_s\": {:.4}, \"min_s\": {:.4}}},\n    \
         \"{}\": {{\"median_s\": {:.4}, \"min_s\": {:.4}}},\n    \
         \"ratio\": {{\"median\": {:.2}, \"min\": {:.2}, \"max\": {:.2}}}\n  }}",
        gate.name,
        gate.workload.json(),
        gate.iterations,
        engine.median,
        engine.min,
        gate.reference,
        reference.median,
        reference.min,
        ratio.median,
        ratio.min,
        ratio.max,
    ))
}

/// Spawns one child per gate (see the module docs) and collects the
/// fragments in [`GATES`] order.
///
/// # Errors
///
/// The binary cannot locate or spawn itself, or a child failed or
/// wrote no output.
fn run_all_gates() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut fragments = Vec::new();
    for gate in &GATES {
        let out_path = std::env::temp_dir().join(format!("perfgate_{}.json", gate.name));
        let status = std::process::Command::new(&exe)
            .env("FTDES_PERFGATE_SECTION", gate.name)
            .env("FTDES_PERFGATE_OUT", &out_path)
            .status()
            .map_err(|e| format!("cannot spawn gate '{}': {e}", gate.name))?;
        if !status.success() {
            return Err(format!("gate '{}' failed ({status})", gate.name));
        }
        let fragment = std::fs::read_to_string(&out_path)
            .map_err(|e| format!("gate '{}' left no output: {e}", gate.name))?;
        let _ = std::fs::remove_file(&out_path);
        fragments.push(fragment);
    }
    Ok(fragments)
}

/// Child mode: runs the named gate and writes its fragment to
/// `FTDES_PERFGATE_OUT`, or prints it when that is unset.
fn run_child(name: &str) -> Result<(), String> {
    let names: Vec<_> = GATES.iter().map(|g| g.name).collect();
    let gate = GATES
        .iter()
        .find(|g| g.name == name)
        .ok_or_else(|| format!("unknown section '{name}' (valid: {names:?})"))?;
    let fragment = run_gate(gate)?;
    match std::env::var("FTDES_PERFGATE_OUT") {
        Ok(out) => std::fs::write(&out, &fragment)
            .map_err(|e| format!("cannot write section output {out}: {e}")),
        Err(_) => {
            println!("{fragment}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let result = match std::env::var("FTDES_PERFGATE_SECTION") {
        Ok(name) => run_child(&name),
        Err(_) => run_all_gates().and_then(|fragments| {
            let json = format!("{{\n  {}\n}}\n", fragments.join(",\n  "));
            println!("\n{json}");
            std::fs::write("BENCH_tabu.json", &json)
                .map_err(|e| format!("cannot write BENCH_tabu.json: {e}"))
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfgate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_takes_the_median_of_odd_and_even_counts() {
        let odd = Spread::of(&[1.9, 1.5, 2.2, 1.6, 1.7]);
        assert_eq!(
            odd,
            Spread {
                median: 1.7,
                min: 1.5,
                max: 2.2
            }
        );
        let even = Spread::of(&[2.0, 1.0, 4.0, 3.0]);
        assert_eq!(
            even,
            Spread {
                median: 2.5,
                min: 1.0,
                max: 4.0
            }
        );
        assert_eq!(Spread::of(&[1.25]).median, 1.25);
    }

    fn outcome(seed: u64) -> Outcome {
        let problem = synthetic_problem(8, 2, 1, Time::from_ms(5), seed);
        let cfg = SearchConfig {
            threads: 1,
            ..iteration_config(3)
        };
        optimize(&problem, Strategy::Mxr, &cfg).unwrap()
    }

    #[test]
    fn trajectories_that_differ_in_one_field_are_rejected_by_name() {
        let (a, other) = (outcome(0), outcome(1));
        assert_ne!(a.design, other.design);
        assert_ne!(a.schedule.cost(), other.schedule.cost());
        assert_eq!(same_trajectory("splice", 2, &a, &a.clone()), Ok(()));

        let mut design = a.clone();
        design.design = other.design.clone();
        let mut cost = a.clone();
        cost.schedule = other.schedule.clone();
        let mut tabu = a.clone();
        tabu.stats.tabu_iterations += 1;
        let mut greedy = a.clone();
        greedy.stats.greedy_steps += 1;
        for (field, b) in [
            ("design", design),
            ("cost", cost),
            ("tabu_iterations", tabu),
            ("greedy_steps", greedy),
        ] {
            let err = same_trajectory("splice", 2, &a, &b).unwrap_err();
            assert!(
                err.starts_with("gate 'splice', seed 2:") && err.contains(field),
                "{field}: {err}"
            );
            // Only the differing field is named.
            for other_field in ["design", "cost", "tabu_iterations", "greedy_steps"] {
                if other_field != field {
                    assert!(!err.contains(other_field), "{field}: {err}");
                }
            }
        }
    }
}
