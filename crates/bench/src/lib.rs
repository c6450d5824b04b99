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

use std::str::FromStr;

use ftdes_core::problem::{HORIZON_HEADROOM_US, MAX_PROCESS_NODE_PAIRS};
use ftdes_core::{Goal, Problem, SearchConfig};
use ftdes_gen::{comm_heavy, paper_workload, CommHeavyParams};
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::merge::MAX_MERGED_PROCESSES;
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

/// The most edges a request may ask of the generator,
/// `round(edge_density × processes)`: 2²⁰. Past it the comm-heavy
/// generator's densify loop runs in proportion to the target, not to
/// the graph it builds.
pub const MAX_GENERATED_EDGES: u64 = 1 << 20;

/// The workload family of a generated instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's synthetic applications (§6,
    /// [`ftdes_gen::paper_workload`]): 1–4 byte messages over the
    /// experiments' 2.5 ms/byte bus.
    Paper,
    /// The communication-heavy family ([`ftdes_gen::comm_heavy`]):
    /// dense DAGs of 4–16 byte messages, on a bus whose byte time makes
    /// an average message cost [`InstanceRequest::msg_wcet_ratio`] of
    /// an average WCET.
    CommHeavy,
}

impl Family {
    /// The spelling job parameters and `BENCH_tabu.json` store:
    /// `paper` or `comm_heavy`.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Family::Paper => "paper",
            Family::CommHeavy => "comm_heavy",
        }
    }
}

impl FromStr for Family {
    type Err = String;

    /// Reads `paper`, or `comm-heavy` (the CLI's spelling) or
    /// `comm_heavy` (the stored one).
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name {
            "paper" => Ok(Family::Paper),
            "comm-heavy" | "comm_heavy" => Ok(Family::CommHeavy),
            other => Err(format!("unknown family {other:?} (paper | comm-heavy)")),
        }
    }
}

/// How a caller names an [`InstanceRequest`]'s fields in its messages:
/// the CLI by its flags, a sweep spec by its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldNames {
    /// The name of [`InstanceRequest::processes`].
    pub processes: &'static str,
    /// The name of [`InstanceRequest::nodes`].
    pub nodes: &'static str,
    /// The name of [`InstanceRequest::k`].
    pub k: &'static str,
    /// The name of [`InstanceRequest::edge_density`].
    pub edge_density: &'static str,
    /// The name of [`InstanceRequest::msg_wcet_ratio`].
    pub msg_wcet_ratio: &'static str,
}

impl Default for FieldNames {
    /// The fields' own names.
    fn default() -> Self {
        FieldNames {
            processes: "processes",
            nodes: "nodes",
            k: "k",
            edge_density: "edge_density",
            msg_wcet_ratio: "msg_wcet_ratio",
        }
    }
}

/// One generated instance: the request through which the CLI's
/// `--family` flags, the sweep jobs and `perfgate` build their
/// problems, validated in one place ([`InstanceRequest::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRequest {
    /// The workload family.
    pub family: Family,
    /// Processes of the application.
    pub processes: usize,
    /// Computation nodes.
    pub nodes: usize,
    /// Transient faults tolerated per cycle.
    pub k: u64,
    /// Fault detection and recovery overhead µ.
    pub mu: Time,
    /// Checkpointing overhead χ.
    pub chi: Time,
    /// The checkpoint-axis cap ([`Problem::with_max_checkpoints`]);
    /// `None` keeps the problem's default for its χ.
    pub max_checkpoints: Option<u32>,
    /// The generator's seed.
    pub seed: u64,
    /// Mean edges per process of the comm-heavy family.
    pub edge_density: f64,
    /// Mean message transfer time over mean WCET of the comm-heavy
    /// family.
    pub msg_wcet_ratio: f64,
}

impl Default for InstanceRequest {
    /// The CLI's defaults: 50 processes of the paper family on 4 nodes,
    /// k = 2, µ = 5 ms, seed 0.
    fn default() -> Self {
        InstanceRequest::new(Family::Paper, 50, 4, 2, Time::from_ms(5), 0)
    }
}

impl InstanceRequest {
    /// A request without checkpointing overhead, at the comm-heavy
    /// family's dense edge density and ratio
    /// ([`CommHeavyParams::dense`]).
    #[must_use]
    pub fn new(
        family: Family,
        processes: usize,
        nodes: usize,
        k: u64,
        mu: Time,
        seed: u64,
    ) -> Self {
        let dense = CommHeavyParams::dense(processes);
        InstanceRequest {
            family,
            processes,
            nodes,
            k,
            mu,
            chi: Time::ZERO,
            max_checkpoints: None,
            seed,
            edge_density: dense.edge_density,
            msg_wcet_ratio: dense.msg_wcet_ratio,
        }
    }

    /// Holds the request to what the generator and the engine take:
    /// processes in `1..=`[`MAX_MERGED_PROCESSES`], nodes in
    /// `1..=`[`MAX_PROCESS_NODE_PAIRS`], k at most
    /// [`FaultModel::MAX_K`], processes × nodes at most
    /// [`MAX_PROCESS_NODE_PAIRS`], a finite, non-negative edge density
    /// and ratio, and at most [`MAX_GENERATED_EDGES`] edges. Every
    /// family is held to the density and ratio caps.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field in `names`'
    /// vocabulary.
    pub fn validate(&self, names: &FieldNames) -> Result<(), String> {
        let (processes, nodes) = (self.processes, self.nodes);
        for (name, value, min, max) in [
            (
                names.processes,
                processes as u64,
                1,
                MAX_MERGED_PROCESSES as u64,
            ),
            (names.nodes, nodes as u64, 1, MAX_PROCESS_NODE_PAIRS as u64),
            (names.k, self.k, 0, u64::from(FaultModel::MAX_K)),
        ] {
            if value < min {
                return Err(format!("invalid {name}: {value} (at least {min})"));
            }
            if value > max {
                return Err(format!("invalid {name}: {value} (at most {max})"));
            }
        }
        if processes.saturating_mul(nodes) > MAX_PROCESS_NODE_PAIRS {
            return Err(format!(
                "invalid {} {processes} with {} {nodes}: at most {MAX_PROCESS_NODE_PAIRS} \
                 process-node pairs",
                names.processes, names.nodes
            ));
        }
        for (name, value) in [
            (names.edge_density, self.edge_density),
            (names.msg_wcet_ratio, self.msg_wcet_ratio),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "invalid {name}: {value} (must be finite and non-negative)"
                ));
            }
        }
        if (self.edge_density * processes as f64).round() > MAX_GENERATED_EDGES as f64 {
            return Err(format!(
                "invalid {} {} with {} {processes}: at most {MAX_GENERATED_EDGES} edges",
                names.edge_density, self.edge_density, names.processes
            ));
        }
        Ok(())
    }

    /// Builds the problem: runs the family's generator, sizes the bus's
    /// slots to the largest message at the family's byte time, applies
    /// χ and the checkpoint cap, and checks the horizon budget
    /// ([`Problem::fits_horizon_budget`]).
    ///
    /// # Errors
    ///
    /// A field out of range (named as [`FieldNames::default`] does), or
    /// a worst-case horizon past its budget.
    pub fn build(&self) -> Result<Problem, String> {
        self.validate(&FieldNames::default())?;
        let arch = Architecture::with_node_count(self.nodes);
        let (workload, byte_time) = match self.family {
            Family::Paper => (
                paper_workload(self.processes, &arch, self.seed),
                DEFAULT_BYTE_TIME,
            ),
            Family::CommHeavy => {
                let params = CommHeavyParams::dense(self.processes)
                    .with_density(self.edge_density)
                    .with_ratio(self.msg_wcet_ratio);
                (comm_heavy(&params, &arch, self.seed), params.byte_time())
            }
        };
        let largest = workload.graph.edges().iter().map(|e| e.message.size);
        let bus = BusConfig::initial(&arch, largest.max().unwrap_or(1).max(1), byte_time)
            .map_err(|e| e.to_string())?;
        // `validate` holds k to `FaultModel::MAX_K`, which fits a `u32`.
        let k = u32::try_from(self.k).unwrap_or(FaultModel::MAX_K);
        let fault_model = FaultModel::new(k, self.mu).with_checkpoint_overhead(self.chi);
        let problem = Problem::new(workload.graph, arch, workload.wcet, fault_model, bus);
        let problem = match self.max_checkpoints {
            Some(n) => problem.with_max_checkpoints(n),
            None => problem,
        };
        if !problem.fits_horizon_budget(Time::ZERO) {
            return Err(format!(
                "worst-case schedule horizon overflows its budget of {HORIZON_HEADROOM_US} us: \
                 {} processes, k + 1 = {} executions of each at mu = {} and chi = {}",
                self.processes,
                self.k + 1,
                self.mu,
                self.chi
            ));
        }
        Ok(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_request_builds_a_well_formed_problem() {
        let request = InstanceRequest::new(Family::Paper, 20, 2, 3, Time::from_ms(5), 0);
        let p = request.build().unwrap();
        assert_eq!(p.process_count(), 20);
        p.graph().validate().unwrap();
    }

    #[test]
    fn families_read_both_spellings_and_store_one() {
        for (name, family) in [
            ("paper", Family::Paper),
            ("comm-heavy", Family::CommHeavy),
            ("comm_heavy", Family::CommHeavy),
        ] {
            assert_eq!(name.parse(), Ok(family));
            assert_eq!(family.key().parse(), Ok(family));
        }
        assert_eq!(Family::CommHeavy.key(), "comm_heavy");
        let err = "foo".parse::<Family>().unwrap_err();
        assert!(err.contains("unknown family \"foo\""), "{err}");
    }

    #[test]
    fn validation_names_each_field_at_its_bounds() {
        let names = FieldNames {
            processes: "P",
            nodes: "N",
            k: "K",
            edge_density: "D",
            msg_wcet_ratio: "R",
        };
        let check = |edit: fn(&mut InstanceRequest), expected: &str| {
            let mut request = InstanceRequest::default();
            edit(&mut request);
            let err = request.validate(&names).expect_err(expected);
            assert!(err.contains(expected), "{expected}: {err}");
            // The build refuses it too, under the fields' own names.
            assert!(request.build().is_err(), "{expected}");
        };
        check(|r| r.processes = 0, "invalid P: 0 (at least 1)");
        check(|r| r.nodes = 0, "invalid N: 0 (at least 1)");
        check(
            |r| r.processes = MAX_MERGED_PROCESSES + 1,
            "invalid P: 16385 (at most 16384)",
        );
        check(
            |r| r.nodes = MAX_PROCESS_NODE_PAIRS + 1,
            "invalid N: 1048577 (at most 1048576)",
        );
        check(
            |r| {
                r.processes = MAX_MERGED_PROCESSES;
                r.nodes = 65;
            },
            "invalid P 16384 with N 65: at most 1048576 process-node pairs",
        );
        check(|r| r.k = u64::from(u32::MAX), "invalid K: 4294967295");
        check(|r| r.edge_density = f64::NAN, "invalid D: NaN");
        check(|r| r.msg_wcet_ratio = -1.0, "invalid R: -1");
        check(
            |r| r.edge_density = 20_972.0,
            "invalid D 20972 with P 50: at most 1048576 edges",
        );
        // At the caps, the request passes.
        let widest = InstanceRequest {
            processes: MAX_MERGED_PROCESSES,
            nodes: MAX_PROCESS_NODE_PAIRS / MAX_MERGED_PROCESSES,
            k: u64::from(FaultModel::MAX_K),
            ..InstanceRequest::default()
        };
        assert_eq!(widest.validate(&names), Ok(()));
    }
}
