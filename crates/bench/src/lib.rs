//! # ftdes-bench
//!
//! The experiment harness. Every table and figure of the paper's
//! evaluation (§6) and the two extension studies are fixed-work
//! sweeps: [`jobs`] expands them into crash-safe job graphs that
//! `ftdes sweep run` executes. `crates/bench/sweeps/` holds one spec
//! per table:
//!
//! | spec | reproduces |
//! |---|---|
//! | `table1a.sweep` | Table 1a — MXR overhead over NFT vs application size |
//! | `table1b.sweep` | Table 1b — MXR overhead over NFT vs number of faults |
//! | `table1c.sweep` | Table 1c — MXR overhead over NFT vs fault duration µ |
//! | `fig10.sweep` | Fig. 10 — MR / SFX / MX deviation from MXR |
//! | `chi.sweep` | the χ (checkpointing overhead) trade-off → `BENCH_cptable.json` |
//! | `repair.sweep` | the node-kill repair study → `BENCH_repair.json` |
//!
//! The one bin, `perfgate`, measures the engine's speedup over three
//! ablations at equal work (paper, 12-node splice and comm-heavy
//! workloads) → `BENCH_tabu.json`. Neither reads an environment
//! variable of its own; the engine's one, `FTDES_THREADS`, is
//! documented in the `ftdes-core` crate docs.
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

use ftdes_core::{Goal, Problem, SearchConfig};
use ftdes_gen::{comm_heavy, paper_workload, CommHeavyParams, Workload};
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;
use ftdes_ttp::DEFAULT_BYTE_TIME;

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

/// Builds the problem instance for one synthetic application of the
/// paper's family, on the paper's 2.5 ms/byte bus.
#[must_use]
pub fn synthetic_problem(processes: usize, nodes: usize, k: u32, mu: Time, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let workload = paper_workload(processes, &arch, seed);
    generated_problem(workload, arch, FaultModel::new(k, mu), DEFAULT_BYTE_TIME)
}

/// Builds the problem instance for one communication-heavy
/// application ([`ftdes_gen::comm_heavy`]): dense DAGs, 4–16 byte
/// messages and a per-byte bus time chosen so an average message
/// transfer costs `params`' share of an average WCET — the workload
/// where bus waits, not computation, decide schedule length, and
/// where the bitmap slot occupancy earns its keep. `perfgate`'s
/// `comm` gate runs it at five edges per process, the repair sweep at
/// the dense defaults.
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
    generated_problem(workload, arch, FaultModel::new(k, mu), params.byte_time())
}

/// A generated workload on `arch`, with a bus whose slots fit its
/// largest message.
fn generated_problem(
    workload: Workload,
    arch: Architecture,
    fault_model: FaultModel,
    byte_time: Time,
) -> Problem {
    let largest = workload
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, byte_time)
        .expect("synthetic architectures are non-empty");
    Problem::new(workload.graph, arch, workload.wcet, fault_model, bus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_problem_is_well_formed() {
        let p = synthetic_problem(20, 2, 3, Time::from_ms(5), 0);
        assert_eq!(p.process_count(), 20);
        p.graph().validate().unwrap();
    }
}
