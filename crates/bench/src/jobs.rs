//! Sweep job adapters: the bridge between `ftdes-serve`'s generic
//! crash-safe job graph and this crate's experiment harness. They are
//! the one implementation of the paper's overhead tables and of the
//! repo's two extension studies, which `ftdes sweep run` executes.
//!
//! A [`SweepSpec`] expands into a DAG of [`JobSpec`]s
//! (generate → optimize → faultsim/repair → aggregate) via
//! [`SweepSpec::jobs`], and [`SweepExec`] executes them. Three sweep
//! shapes are supported:
//!
//! * [`OverheadSweep`] — the paper's evaluation (§6): Table 1a–c, the
//!   MXR overhead over NFT as size, k and µ grow, and Fig. 10, the
//!   MX, MR and SFX deviation from MXR. Per (row, seed), a `generate`
//!   job fingerprints the workload and one `optimize` job per
//!   strategy, the reference included, solves it. One `aggregate`
//!   reports, per row and strategy, the sample count, the mean
//!   lengths and the max, avg and min of
//!   `100·(δ_s − δ_ref)/δ_ref` over the seeds.
//! * [`ChiSweep`] — the TVLSI-style checkpoint-overhead trade-off
//!   (`BENCH_cptable.json`). Per seed, a `generate` job fingerprints
//!   the workload, and `optimize` jobs solve the χ-independent
//!   references and one cell per χ row:
//!   - **MX**, pure re-execution with the checkpoint axis off;
//!   - **MR**, pure replication;
//!   - **MCX**, re-execution with the checkpoint axis open
//!     (rollbacks re-run one segment, at χ per interior save);
//!   - **MCXR**, the full mixed space.
//!
//!   A `faultsim` job Monte-Carlo-validates the MX reference design
//!   against its analytic bound, and one `aggregate` folds everything
//!   into the table rows. The expected shape: MCX/MX < 1 at small χ,
//!   rising toward 1 as the saves eat the rollback gain.
//! * [`RepairSweep`] — the node-kill repair study
//!   (`BENCH_repair.json`). Per (family, seed): `generate` →
//!   `optimize` (intact MXR solve) → `repair` → `aggregate`. The
//!   repair job runs [`degrade_and_repair_adversarial`]: it kills the
//!   most-loaded node, repairs through the escalation ladder and
//!   replays fault scenarios against the repaired schedule. It then
//!   re-solves the degraded problem from scratch as the quality
//!   reference.
//!
//! **Determinism contract.** Every job runs under
//! [`iteration_config`] — no wall-clock
//! limits anywhere — and job results carry no timestamps or machine
//! state, so a job re-executed after a crash commits exactly the
//! bytes the uncrashed run would have. That is the property the
//! crash-matrix suites assert. Each search memoizes in an evaluation
//! cache of its own, dropped when the job returns, so the executor
//! holds no state between jobs and a job's result cannot depend on
//! which jobs ran before it in the same process.

use std::time::Duration;

use ftdes_core::problem::MAX_CHECKPOINTS;
use ftdes_core::repair::RepairBudget;
use ftdes_core::{optimize, Problem, Strategy};
use ftdes_faultsim::{degrade_and_repair_adversarial, length_distribution};
use ftdes_gen::WorkloadParams;
use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::ids::NodeId;
use ftdes_model::policy::FtPolicy;
use ftdes_model::time::Time;
use ftdes_serve::{DepResult, JobExec, JobSpec};
use serde::Value;

use crate::{iteration_config, Family, FieldNames, InstanceRequest, PolicyMix};

/// The most jobs one sweep may expand into. The store writes one `Job`
/// event per job and replays them all into memory, so
/// [`SweepSpec::validate`] bounds the expansion before it is built.
pub const MAX_SWEEP_JOBS: u64 = 1 << 16;

/// The most Monte-Carlo scenarios one faultsim job may draw, the cap
/// of `ftdes inject --scenarios` as well.
pub const MAX_FAULTSIM_SAMPLES: u64 = 100_000;

/// The paper's overhead sweep (Table 1a–c, Fig. 10): every strategy's
/// schedule length against the reference's, per row and seed.
///
/// The four list keys give the rows: they are zipped, and a list of
/// one value applies to every row ([`OverheadSweep::rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverheadSweep {
    /// Processes per synthetic application, per row.
    pub processes: Vec<u64>,
    /// Computation nodes, per row.
    pub nodes: Vec<u64>,
    /// Transient faults tolerated per cycle (`k`), per row.
    pub faults: Vec<u64>,
    /// Fault detection overhead µ in milliseconds, per row.
    pub mu_ms: Vec<u64>,
    /// Random applications per row (seeds 0..seeds).
    pub seeds: u64,
    /// Tabu iteration budget per optimize job.
    pub max_iterations: u64,
    /// The strategy the others are measured against.
    pub reference: Strategy,
    /// The strategies measured against the reference.
    pub strategies: Vec<Strategy>,
}

/// One row of an [`OverheadSweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadRow {
    /// Processes per synthetic application.
    pub processes: u64,
    /// Computation nodes.
    pub nodes: u64,
    /// Transient faults tolerated per cycle (`k`).
    pub faults: u64,
    /// Fault detection overhead µ in milliseconds.
    pub mu_ms: u64,
}

impl OverheadSweep {
    /// The list keys in row order, by name.
    fn lists(&self) -> [(&'static str, &[u64]); 4] {
        [
            ("processes", &self.processes),
            ("nodes", &self.nodes),
            ("faults", &self.faults),
            ("mu_ms", &self.mu_ms),
        ]
    }

    /// The rows: the list keys zipped, a one-value list repeated on
    /// every row. Empty when a list is empty.
    #[must_use]
    pub fn rows(&self) -> Vec<OverheadRow> {
        let lists = self.lists();
        let count = if lists.iter().any(|(_, l)| l.is_empty()) {
            0
        } else {
            lists.iter().map(|(_, l)| l.len()).max().unwrap_or(0)
        };
        (0..count)
            .map(|row| {
                let [processes, nodes, faults, mu_ms] = lists.map(|(_, l)| l[row.min(l.len() - 1)]);
                OverheadRow {
                    processes,
                    nodes,
                    faults,
                    mu_ms,
                }
            })
            .collect()
    }

    /// The reference first, then the measured strategies.
    fn solved(&self) -> impl Iterator<Item = Strategy> + '_ {
        std::iter::once(self.reference).chain(self.strategies.iter().copied())
    }
}

/// The checkpoint-overhead (χ) trade-off sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChiSweep {
    /// Processes per synthetic application.
    pub processes: u64,
    /// Computation nodes.
    pub nodes: u64,
    /// Transient faults tolerated per cycle (`k`).
    pub faults: u64,
    /// Fault detection overhead µ in milliseconds.
    pub mu_ms: u64,
    /// Random applications (seeds 0..seeds).
    pub seeds: u64,
    /// χ rows, each as permille of the family's mean WCET.
    pub chi_permille: Vec<u64>,
    /// Checkpoint axis ceiling for the MCX/MCXR cells.
    pub max_checkpoints: u64,
    /// Tabu iteration budget per optimize job (bit-identity knob —
    /// see the module docs).
    pub max_iterations: u64,
    /// Monte-Carlo scenarios per faultsim job.
    pub faultsim_samples: u64,
}

/// The node-kill degrade-and-repair sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairSweep {
    /// Processes per paper-family application.
    pub processes: u64,
    /// Processes per communication-heavy application.
    pub comm_processes: u64,
    /// Computation nodes.
    pub nodes: u64,
    /// Transient faults tolerated per cycle (`k`).
    pub faults: u64,
    /// Fault detection overhead µ in milliseconds.
    pub mu_ms: u64,
    /// Random applications (seeds 0..seeds).
    pub seeds: u64,
    /// Tabu iteration budget per solve.
    pub max_iterations: u64,
}

/// A parsed sweep specification (see `ftdes-io` for the text format).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// The paper's overhead tables (Table 1a–c, Fig. 10).
    Overhead(OverheadSweep),
    /// Checkpoint-overhead trade-off sweep.
    Chi(ChiSweep),
    /// Degrade-and-repair sweep.
    Repair(RepairSweep),
}

impl SweepSpec {
    /// The sweep's kind name, recorded in the store's `Init` header.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SweepSpec::Overhead(_) => "overhead",
            SweepSpec::Chi(_) => "chi",
            SweepSpec::Repair(_) => "repair",
        }
    }

    /// Checks every knob, so that each job builds its problem without
    /// wrapping a number or allocating without bound: each workload
    /// through [`InstanceRequest::validate`], µ and χ to the `u64`
    /// microsecond range, the checkpoint count to [`MAX_CHECKPOINTS`],
    /// the expanded job count to [`MAX_SWEEP_JOBS`] and the faultsim
    /// samples to [`MAX_FAULTSIM_SAMPLES`].
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn validate(&self) -> Result<(), String> {
        let (seeds, iterations, jobs_per_seed) = match self {
            SweepSpec::Overhead(s) => {
                let rows = s.rows();
                let lists = s.lists();
                let (longest, most) = lists
                    .iter()
                    .max_by_key(|(_, l)| l.len())
                    .unwrap_or(&lists[0]);
                for (key, list) in lists {
                    if list.is_empty() || (list.len() > 1 && list.len() != most.len()) {
                        return Err(format!(
                            "{key} has {} values but {longest} has {}: a list key takes one \
                             value, or one per row",
                            list.len(),
                            most.len()
                        ));
                    }
                }
                if s.strategies.is_empty() {
                    return Err("strategies needs at least one value".into());
                }
                for (i, &strategy) in s.strategies.iter().enumerate() {
                    if s.solved().take(i + 1).any(|earlier| earlier == strategy) {
                        return Err(format!(
                            "strategies: {} is solved twice (as the reference or an \
                             earlier strategy)",
                            strategy.key()
                        ));
                    }
                }
                for (i, row) in rows.iter().enumerate() {
                    workload(
                        Family::Paper,
                        row.processes,
                        row.nodes,
                        row.faults,
                        row.mu_ms,
                    )?
                    .validate(&spec_names("processes"))?;
                    // Pure replication needs k + 1 distinct nodes.
                    if row.faults >= row.nodes && s.solved().any(|st| st == Strategy::Mr) {
                        return Err(format!(
                            "faults: mr needs faults + 1 <= nodes, but row {i} has faults {} \
                             on {} nodes",
                            row.faults, row.nodes
                        ));
                    }
                }
                // Per (row, seed): a generate and an optimize per
                // solved strategy.
                let per_seed = (rows.len() as u64).checked_mul(s.strategies.len() as u64 + 2);
                (s.seeds, s.max_iterations, per_seed)
            }
            SweepSpec::Chi(s) => {
                workload(Family::Paper, s.processes, s.nodes, s.faults, s.mu_ms)?
                    .validate(&spec_names("processes"))?;
                if s.chi_permille.is_empty() {
                    return Err("chi_permille needs at least one value".into());
                }
                if let Some(p) = s
                    .chi_permille
                    .iter()
                    .find(|&&p| chi_us(s.processes, p).is_none())
                {
                    return Err(format!(
                        "chi_permille: {p} overflows a time in microseconds"
                    ));
                }
                if s.max_checkpoints == 0 || s.max_checkpoints > u64::from(MAX_CHECKPOINTS) {
                    return Err(format!(
                        "max_checkpoints must be between 1 and {MAX_CHECKPOINTS}, not {}",
                        s.max_checkpoints
                    ));
                }
                if s.faultsim_samples > MAX_FAULTSIM_SAMPLES {
                    return Err(format!(
                        "faultsim_samples must be at most {MAX_FAULTSIM_SAMPLES}, not {}",
                        s.faultsim_samples
                    ));
                }
                // Per seed: a generate, two references, two cells per
                // χ row and a faultsim.
                let per_seed = (s.chi_permille.len() as u64).checked_mul(2);
                (s.seeds, s.max_iterations, per_seed.map(|cells| cells + 4))
            }
            SweepSpec::Repair(s) => {
                for (family, processes, key) in [
                    (Family::Paper, s.processes, "processes"),
                    (Family::CommHeavy, s.comm_processes, "comm_processes"),
                ] {
                    workload(family, processes, s.nodes, s.faults, s.mu_ms)?
                        .validate(&spec_names(key))?;
                }
                // Per seed and family: a generate, an optimize and a
                // repair.
                (s.seeds, s.max_iterations, Some(6))
            }
        };
        if seeds == 0 {
            return Err("seeds must be at least 1".into());
        }
        if iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        // Plus the aggregate.
        let jobs = jobs_per_seed
            .and_then(|n| n.checked_mul(seeds)?.checked_add(1))
            .filter(|&n| n <= MAX_SWEEP_JOBS);
        if jobs.is_none() {
            return Err(format!(
                "seeds: {seeds} seeds expand past the cap of {MAX_SWEEP_JOBS} jobs"
            ));
        }
        Ok(())
    }

    /// Expands the sweep into its job DAG.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobSpec> {
        match self {
            SweepSpec::Overhead(s) => overhead_jobs(s),
            SweepSpec::Chi(s) => chi_jobs(s),
            SweepSpec::Repair(s) => repair_jobs(s),
        }
    }
}

/// The request of one sweep workload, at seed 0 and without χ.
///
/// # Errors
///
/// A µ past the `u64` microsecond range, naming `mu_ms`.
fn workload(
    family: Family,
    processes: u64,
    nodes: u64,
    faults: u64,
    mu_ms: u64,
) -> Result<InstanceRequest, String> {
    let mu =
        ms_time(mu_ms).ok_or_else(|| format!("mu_ms: {mu_ms} overflows a time in microseconds"))?;
    let count = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
    Ok(InstanceRequest::new(
        family,
        count(processes),
        count(nodes),
        faults,
        mu,
        0,
    ))
}

/// The sweep's names of a request's fields: its spec keys and job
/// parameters, with `processes` the key of the process count.
fn spec_names(processes: &'static str) -> FieldNames {
    FieldNames {
        processes,
        k: "faults",
        ..FieldNames::default()
    }
}

/// `ms` milliseconds, or `None` past the `u64` microsecond range
/// (where [`Time`]'s unchecked arithmetic would wrap in release
/// builds).
fn ms_time(ms: u64) -> Option<Time> {
    ms.checked_mul(1_000).map(Time::from_us)
}

/// χ of one permille row, in µs against the paper family's mean WCET,
/// or `None` when it overflows.
fn chi_us(processes: u64, permille: u64) -> Option<u64> {
    let p = WorkloadParams::paper(usize::try_from(processes).ok()?);
    let mean_wcet_us = (p.wcet_min.as_us() + p.wcet_max.as_us()) / 2;
    Some(mean_wcet_us.checked_mul(permille)? / 1000)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

struct DagBuilder {
    jobs: Vec<JobSpec>,
}

impl DagBuilder {
    fn new() -> Self {
        DagBuilder { jobs: Vec::new() }
    }

    fn push(&mut self, name: String, kind: &str, params: Value, deps: Vec<u64>) -> u64 {
        let id = self.jobs.len() as u64 + 1;
        self.jobs.push(JobSpec {
            id,
            name,
            kind: kind.to_owned(),
            params,
            deps,
        });
        id
    }
}

/// The common workload parameters every job of a sweep carries, so
/// each job is executable from its own spec alone.
fn workload_params(
    family: Family,
    seed: u64,
    processes: u64,
    nodes: u64,
    faults: u64,
    mu_ms: u64,
) -> Vec<(&'static str, Value)> {
    vec![
        ("family", Value::Str(family.key().to_owned())),
        ("seed", Value::U64(seed)),
        ("processes", Value::U64(processes)),
        ("nodes", Value::U64(nodes)),
        ("faults", Value::U64(faults)),
        ("mu_ms", Value::U64(mu_ms)),
    ]
}

/// An optimize job's parameters: the workload, the strategy, the
/// aggregate's `role` for it, χ and the checkpoint axis.
fn optimize_params(
    base: &[(&'static str, Value)],
    role: &str,
    strategy: &str,
    chi_us: u64,
    max_checkpoints: u64,
    max_iterations: u64,
) -> Value {
    let mut params = base.to_vec();
    params.extend([
        ("role", Value::Str(role.to_owned())),
        ("strategy", Value::Str(strategy.to_owned())),
        ("chi_us", Value::U64(chi_us)),
        ("max_checkpoints", Value::U64(max_checkpoints)),
        ("max_iterations", Value::U64(max_iterations)),
    ]);
    obj(params)
}

/// The aggregate role of one strategy's optimize jobs on row `row`.
fn overhead_role(row: usize, strategy: &str) -> String {
    format!("r{row}/{strategy}")
}

fn overhead_jobs(spec: &OverheadSweep) -> Vec<JobSpec> {
    let mut dag = DagBuilder::new();
    let mut agg_deps = Vec::new();
    let rows = spec.rows();
    for (r, row) in rows.iter().enumerate() {
        for seed in 0..spec.seeds {
            let base = workload_params(
                Family::Paper,
                seed,
                row.processes,
                row.nodes,
                row.faults,
                row.mu_ms,
            );
            let gen = dag.push(
                format!("gen/r{r}/s{seed}"),
                "generate",
                obj(base.clone()),
                vec![],
            );
            for strategy in spec.solved() {
                let key = strategy.key();
                let params = optimize_params(
                    &base,
                    &overhead_role(r, &key),
                    &key,
                    0,
                    1,
                    spec.max_iterations,
                );
                agg_deps.push(dag.push(
                    format!("opt/r{r}/s{seed}/{key}"),
                    "optimize",
                    params,
                    vec![gen],
                ));
            }
        }
    }
    let row_params = rows
        .iter()
        .map(|row| {
            obj(vec![
                ("processes", Value::U64(row.processes)),
                ("nodes", Value::U64(row.nodes)),
                ("faults", Value::U64(row.faults)),
                ("mu_ms", Value::U64(row.mu_ms)),
            ])
        })
        .collect();
    dag.push(
        "agg".into(),
        "aggregate",
        obj(vec![
            ("sweep", Value::Str("overhead".into())),
            ("seeds", Value::U64(spec.seeds)),
            ("reference", Value::Str(spec.reference.key())),
            (
                "strategies",
                Value::Array(
                    spec.strategies
                        .iter()
                        .map(|&s| Value::Str(s.key()))
                        .collect(),
                ),
            ),
            ("rows", Value::Array(row_params)),
        ]),
        agg_deps,
    );
    dag.jobs
}

fn chi_jobs(spec: &ChiSweep) -> Vec<JobSpec> {
    let mut dag = DagBuilder::new();
    let mut agg_deps = Vec::new();
    for seed in 0..spec.seeds {
        let base = workload_params(
            Family::Paper,
            seed,
            spec.processes,
            spec.nodes,
            spec.faults,
            spec.mu_ms,
        );
        let gen = dag.push(
            format!("gen/s{seed}"),
            "generate",
            obj(base.clone()),
            vec![],
        );
        let opt = |role: &str, strategy: &str, chi: u64, ckpts: u64, dag: &mut DagBuilder| {
            let params = optimize_params(&base, role, strategy, chi, ckpts, spec.max_iterations);
            let name = if chi == 0 && ckpts == 1 {
                format!("opt/s{seed}/{role}")
            } else {
                format!("opt/s{seed}/chi{chi}/{role}")
            };
            dag.push(name, "optimize", params, vec![gen])
        };
        // χ-independent references.
        let mx = opt("mx", "mx", 0, 1, &mut dag);
        agg_deps.push(mx);
        agg_deps.push(opt("mr", "mr", 0, 1, &mut dag));
        // Per-χ cells. `validate` rejects an overflowing χ; saturated,
        // it would fail every job's horizon budget.
        for &permille in &spec.chi_permille {
            let chi = chi_us(spec.processes, permille).unwrap_or(u64::MAX);
            agg_deps.push(opt("mcx", "mx", chi, spec.max_checkpoints, &mut dag));
            agg_deps.push(opt("mcxr", "mxr", chi, spec.max_checkpoints, &mut dag));
        }
        // Monte-Carlo validation of the MX reference design.
        let mut sim_params = base.clone();
        sim_params.extend([
            ("samples", Value::U64(spec.faultsim_samples)),
            ("chi_us", Value::U64(0)),
            ("max_checkpoints", Value::U64(1)),
        ]);
        agg_deps.push(dag.push(
            format!("sim/s{seed}"),
            "faultsim",
            obj(sim_params),
            vec![mx],
        ));
    }
    dag.push(
        "agg".into(),
        "aggregate",
        obj(vec![
            ("sweep", Value::Str("chi".into())),
            ("seeds", Value::U64(spec.seeds)),
        ]),
        agg_deps,
    );
    dag.jobs
}

fn repair_jobs(spec: &RepairSweep) -> Vec<JobSpec> {
    let mut dag = DagBuilder::new();
    let mut agg_deps = Vec::new();
    for seed in 0..spec.seeds {
        for (family, processes) in [
            (Family::Paper, spec.processes),
            (Family::CommHeavy, spec.comm_processes),
        ] {
            let base =
                workload_params(family, seed, processes, spec.nodes, spec.faults, spec.mu_ms);
            let family = family.key();
            let gen = dag.push(
                format!("gen/{family}/s{seed}"),
                "generate",
                obj(base.clone()),
                vec![],
            );
            let intact = dag.push(
                format!("opt/{family}/s{seed}"),
                "optimize",
                optimize_params(&base, "intact", "mxr", 0, 1, spec.max_iterations),
                vec![gen],
            );
            let mut rep_params = base.clone();
            rep_params.extend([
                ("chi_us", Value::U64(0)),
                ("max_checkpoints", Value::U64(1)),
                ("max_iterations", Value::U64(spec.max_iterations)),
            ]);
            agg_deps.push(dag.push(
                format!("repair/{family}/s{seed}"),
                "repair",
                obj(rep_params),
                vec![intact],
            ));
        }
    }
    dag.push(
        "agg".into(),
        "aggregate",
        obj(vec![
            ("sweep", Value::Str("repair".into())),
            ("seeds", Value::U64(spec.seeds)),
        ]),
        agg_deps,
    );
    dag.jobs
}

/// Executes sweep jobs against the deterministic optimizer. It holds
/// no state: every job builds its problem and searches it afresh.
#[derive(Debug, Default)]
pub struct SweepExec;

fn get_u64(params: &Value, key: &str) -> Result<u64, String> {
    params
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("job params missing integer field {key:?}"))
}

fn get_str<'v>(params: &'v Value, key: &str) -> Result<&'v str, String> {
    params
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("job params missing string field {key:?}"))
}

fn get_usize(params: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(params, key)?).map_err(|_| format!("job field {key:?} exceeds usize"))
}

/// Rebuilds the problem a job's parameters describe. Generation is
/// deterministic per seed, so every job of a seed reconstructs the
/// identical workload — the generate job's fingerprint pins that down.
/// A problem whose worst-case horizon overflows its budget fails the
/// job instead of scheduling on a wrapped [`Time`].
fn build_problem(params: &Value) -> Result<Problem, String> {
    let field = |key: &str| params.get(key).and_then(Value::as_u64);
    let request = InstanceRequest {
        seed: get_u64(params, "seed")?,
        chi: Time::from_us(field("chi_us").unwrap_or(0)),
        max_checkpoints: Some(
            u32::try_from(field("max_checkpoints").unwrap_or(1))
                .map_err(|_| "job field \"max_checkpoints\" exceeds u32".to_owned())?,
        ),
        ..workload(
            get_str(params, "family")?.parse()?,
            get_u64(params, "processes")?,
            get_u64(params, "nodes")?,
            get_u64(params, "faults")?,
            get_u64(params, "mu_ms")?,
        )?
    };
    request.build()
}

/// Serializes a design as `[[replicas, checkpoints, [nodes...]], ...]`
/// — enough to reconstruct it under the job's fault model.
fn encode_design(design: &Design) -> Value {
    Value::Array(
        design
            .iter()
            .map(|(_, d)| {
                Value::Array(vec![
                    Value::U64(u64::from(d.policy.replicas())),
                    Value::U64(u64::from(d.policy.checkpoints())),
                    Value::Array(
                        d.mapping
                            .iter()
                            .map(|n| Value::U64(n.index() as u64))
                            .collect(),
                    ),
                ])
            })
            .collect(),
    )
}

fn decode_design(value: &Value, problem: &Problem) -> Result<Design, String> {
    let Value::Array(rows) = value else {
        return Err("design is not an array".into());
    };
    let fm = problem.fault_model();
    let mut decisions = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Value::Array(parts) = row else {
            return Err(format!("design row {i} is not an array"));
        };
        let [replicas, checkpoints, mapping] = parts.as_slice() else {
            return Err(format!("design row {i} is not a triple"));
        };
        let replicas = replicas
            .as_u64()
            .ok_or_else(|| format!("design row {i}: bad replica count"))?
            as u32;
        let checkpoints = checkpoints
            .as_u64()
            .ok_or_else(|| format!("design row {i}: bad checkpoint count"))?
            as u32;
        let Value::Array(nodes) = mapping else {
            return Err(format!("design row {i}: mapping is not an array"));
        };
        let mapping = nodes
            .iter()
            .map(|n| {
                n.as_u64()
                    .map(|v| NodeId::new(v as u32))
                    .ok_or_else(|| format!("design row {i}: bad node id"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let policy = FtPolicy::checkpointed((i as u32).into(), replicas, checkpoints, fm)
            .map_err(|e| format!("design row {i}: {e}"))?;
        decisions
            .push(ProcessDesign::new(policy, mapping).map_err(|e| format!("design row {i}: {e}"))?);
    }
    Ok(Design::from_decisions(decisions))
}

/// An effectively-unlimited wall-clock allowance: sweep jobs bound
/// their searches by iterations alone, so every Duration-typed budget
/// is set far beyond what the iteration caps allow the search to use.
const UNLIMITED: Duration = Duration::from_secs(24 * 60 * 60);

/// Random fault scenarios each repair job replays against the
/// repaired schedule, after the adversarial one. Seeded by the job's
/// seed, so the replay is part of the job's deterministic result.
const REPAIR_SCENARIOS: usize = 16;

impl SweepExec {
    fn run_generate(&self, params: &Value) -> Result<Value, String> {
        let problem = build_problem(params)?;
        problem
            .graph()
            .validate()
            .map_err(|e| format!("generated workload invalid: {e}"))?;
        Ok(obj(vec![
            (
                "problem_fp",
                Value::U64(ftdes_core::cache::problem_fingerprint(&problem)),
            ),
            ("processes", Value::U64(problem.process_count() as u64)),
            ("edges", Value::U64(problem.graph().edges().len() as u64)),
        ]))
    }

    fn run_optimize(&self, params: &Value) -> Result<Value, String> {
        let problem = build_problem(params)?;
        let strategy: Strategy = get_str(params, "strategy")?.parse()?;
        let cfg = iteration_config(get_usize(params, "max_iterations")?);
        let outcome = optimize(&problem, strategy, &cfg)
            .map_err(|e| format!("{strategy} search failed: {e}"))?;
        let mut mix = PolicyMix::default();
        mix.add_design(&outcome.design);
        Ok(obj(vec![
            (
                "role",
                Value::Str(get_str(params, "role").unwrap_or("opt").to_owned()),
            ),
            ("seed", Value::U64(get_u64(params, "seed")?)),
            ("chi_us", Value::U64(get_u64(params, "chi_us")?)),
            ("length_us", Value::U64(outcome.length().as_us())),
            ("design", encode_design(&outcome.design)),
            (
                "mix",
                Value::Array(
                    [mix.reexec, mix.checkpointed, mix.replicated, mix.mixed]
                        .into_iter()
                        .map(|n| Value::U64(n as u64))
                        .collect(),
                ),
            ),
        ]))
    }

    fn run_faultsim(&self, params: &Value, deps: &[DepResult]) -> Result<Value, String> {
        let problem = build_problem(params)?;
        let opt = deps
            .iter()
            .find(|d| d.kind == "optimize")
            .ok_or("faultsim job needs an optimize dependency")?;
        let design = decode_design(&opt.result["design"], &problem)?;
        let schedule = problem
            .evaluate(&design)
            .map_err(|e| format!("re-evaluating optimized design: {e}"))?;
        let samples = get_usize(params, "samples")?.max(1);
        let seed = get_u64(params, "seed")?;
        let dist = length_distribution(
            &schedule,
            problem.graph(),
            problem.fault_model(),
            samples,
            seed,
        );
        Ok(obj(vec![
            ("seed", Value::U64(seed)),
            ("samples", Value::U64(dist.samples as u64)),
            ("bound_us", Value::U64(dist.bound.as_us())),
            ("max_us", Value::U64(dist.max.as_us())),
            ("mean_us", Value::U64(dist.mean.as_us())),
            (
                "deadline_miss_runs",
                Value::U64(dist.deadline_miss_runs as u64),
            ),
        ]))
    }

    fn run_repair(&self, params: &Value, deps: &[DepResult]) -> Result<Value, String> {
        let problem = build_problem(params)?;
        let intact = deps
            .iter()
            .find(|d| d.kind == "optimize")
            .ok_or("repair job needs an optimize dependency")?;
        let design = decode_design(&intact.result["design"], &problem)?;
        let schedule = problem
            .evaluate(&design)
            .map_err(|e| format!("re-evaluating intact design: {e}"))?;
        let seed = get_u64(params, "seed")?;
        let cfg = iteration_config(get_usize(params, "max_iterations")?);
        let budget = RepairBudget {
            localized: UNLIMITED,
            warm: UNLIMITED,
            scratch: UNLIMITED,
        };
        let report = degrade_and_repair_adversarial(
            &problem,
            &design,
            &schedule,
            &budget,
            &cfg,
            REPAIR_SCENARIOS,
            seed,
        )
        .map_err(|e| e.to_string())?;
        let repaired = &report.outcome;
        let scratch = optimize(&repaired.problem, Strategy::Mxr, &cfg)
            .map_err(|e| format!("scratch re-solve failed: {e}"))?;
        let repair_len = repaired.length().as_us();
        let scratch_len = scratch.length().as_us();
        Ok(obj(vec![
            ("family", Value::Str(get_str(params, "family")?.to_owned())),
            ("seed", Value::U64(seed)),
            ("killed", Value::Str(report.killed.to_string())),
            ("rung", Value::Str(repaired.rung.to_string())),
            ("schedulable", Value::Bool(repaired.is_schedulable())),
            ("verified", Value::Bool(report.verified)),
            (
                "scenarios_replayed",
                Value::U64(report.scenarios_replayed as u64),
            ),
            ("repair_length_us", Value::U64(repair_len)),
            ("scratch_length_us", Value::U64(scratch_len)),
            (
                "length_ratio",
                Value::F64(repair_len as f64 / scratch_len.max(1) as f64),
            ),
        ]))
    }

    fn run_aggregate(&self, params: &Value, deps: &[DepResult]) -> Result<Value, String> {
        match get_str(params, "sweep")? {
            "overhead" => aggregate_overhead(params, deps),
            "chi" => aggregate_chi(deps),
            "repair" => aggregate_repair(deps),
            other => Err(format!("unknown sweep kind {other:?}")),
        }
    }
}

impl JobExec for SweepExec {
    fn execute(&self, spec: &JobSpec, deps: &[DepResult]) -> Result<Value, String> {
        match spec.kind.as_str() {
            "generate" => self.run_generate(&spec.params),
            "optimize" => self.run_optimize(&spec.params),
            "faultsim" => self.run_faultsim(&spec.params, deps),
            "repair" => self.run_repair(&spec.params, deps),
            "aggregate" => self.run_aggregate(&spec.params, deps),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

/// Mean of the `length_us` fields of the optimize results matching
/// `role` (and `chi_us`, when given).
fn mean_lengths(deps: &[DepResult], role: &str, chi: Option<u64>) -> f64 {
    let lengths: Vec<f64> = deps
        .iter()
        .filter(|d| d.kind == "optimize" && d.result["role"] == *role)
        .filter(|d| chi.is_none_or(|c| d.result["chi_us"].as_u64() == Some(c)))
        .filter_map(|d| d.result["length_us"].as_u64())
        .map(|l| l as f64)
        .collect();
    lengths.iter().sum::<f64>() / lengths.len().max(1) as f64
}

fn mix_of(deps: &[DepResult], role: &str, chi: u64) -> [u64; 4] {
    let mut total = [0u64; 4];
    for d in deps
        .iter()
        .filter(|d| d.kind == "optimize" && d.result["role"] == *role)
        .filter(|d| d.result["chi_us"].as_u64() == Some(chi))
    {
        if let Value::Array(parts) = &d.result["mix"] {
            for (slot, part) in total.iter_mut().zip(parts) {
                *slot += part.as_u64().unwrap_or(0);
            }
        }
    }
    total
}

/// The `(seed, length_us)` pairs of the optimize results of `role`.
fn seed_lengths(deps: &[DepResult], role: &str) -> Vec<(u64, u64)> {
    deps.iter()
        .filter(|d| d.kind == "optimize" && d.result["role"] == *role)
        .filter_map(|d| Some((d.result["seed"].as_u64()?, d.result["length_us"].as_u64()?)))
        .collect()
}

fn aggregate_overhead(params: &Value, deps: &[DepResult]) -> Result<Value, String> {
    let reference = get_str(params, "reference")?;
    let (Value::Array(strategies), Value::Array(rows)) = (&params["strategies"], &params["rows"])
    else {
        return Err("overhead aggregate needs strategies and rows".into());
    };
    let mut out = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        let Value::Object(row_fields) = row else {
            return Err(format!("overhead row {r} is not an object"));
        };
        let ref_role = overhead_role(r, reference);
        let ref_lengths = seed_lengths(deps, &ref_role);
        for strategy in strategies {
            let name = strategy
                .as_str()
                .ok_or("overhead strategy is not a string")?;
            let role = overhead_role(r, name);
            // 100·(δ_s − δ_ref)/δ_ref per seed, the paper's columns.
            let percents: Vec<f64> = seed_lengths(deps, &role)
                .into_iter()
                .filter_map(|(seed, len)| {
                    let &(_, base) = ref_lengths.iter().find(|(s, _)| *s == seed)?;
                    (base > 0).then(|| 100.0 * (len as f64 - base as f64) / base as f64)
                })
                .collect();
            if percents.is_empty() {
                return Err(format!("row {r}, strategy {name}: no samples"));
            }
            let max = percents.iter().copied().fold(f64::MIN, f64::max);
            let min = percents.iter().copied().fold(f64::MAX, f64::min);
            let avg = percents.iter().sum::<f64>() / percents.len() as f64;
            let mut fields = row_fields.clone();
            fields.extend(
                [
                    ("strategy", Value::Str(name.to_owned())),
                    ("samples", Value::U64(percents.len() as u64)),
                    (
                        "ref_len_us",
                        Value::F64(mean_lengths(deps, &ref_role, None)),
                    ),
                    ("len_us", Value::F64(mean_lengths(deps, &role, None))),
                    ("max_pct", Value::F64(max)),
                    ("avg_pct", Value::F64(avg)),
                    ("min_pct", Value::F64(min)),
                ]
                .map(|(k, v)| (k.to_owned(), v)),
            );
            out.push(Value::Object(fields));
        }
    }
    Ok(obj(vec![
        ("sweep", Value::Str("overhead".into())),
        ("reference", Value::Str(reference.to_owned())),
        ("rows", Value::Array(out)),
    ]))
}

fn aggregate_chi(deps: &[DepResult]) -> Result<Value, String> {
    // The χ rows present, in DAG (ascending-ratio) order.
    let mut chis: Vec<u64> = Vec::new();
    for d in deps
        .iter()
        .filter(|d| d.kind == "optimize" && d.result["role"] == "mcx")
    {
        let chi = d.result["chi_us"]
            .as_u64()
            .ok_or("mcx result missing chi_us")?;
        if !chis.contains(&chi) {
            chis.push(chi);
        }
    }
    let mx = mean_lengths(deps, "mx", None);
    let mr = mean_lengths(deps, "mr", None);
    let rows = chis
        .iter()
        .map(|&chi| {
            let mcx = mean_lengths(deps, "mcx", Some(chi));
            let mcxr = mean_lengths(deps, "mcxr", Some(chi));
            let [rex, cp, rep, mixed] = mix_of(deps, "mcxr", chi);
            obj(vec![
                ("chi_us", Value::U64(chi)),
                ("mx_len_us", Value::F64(mx)),
                ("mcx_len_us", Value::F64(mcx)),
                ("mr_len_us", Value::F64(mr)),
                ("mcxr_len_us", Value::F64(mcxr)),
                ("mcx_vs_mx", Value::F64(mcx / mx.max(1.0))),
                (
                    "mcxr_mix",
                    obj(vec![
                        ("reexec", Value::U64(rex)),
                        ("checkpointed", Value::U64(cp)),
                        ("replicated", Value::U64(rep)),
                        ("mixed", Value::U64(mixed)),
                    ]),
                ),
            ])
        })
        .collect();
    // Fault-simulation validation: the analytic bound must dominate
    // every sampled realization, with zero deadline misses.
    let mut sim_runs = 0u64;
    let mut miss_runs = 0u64;
    let mut bound_violations = 0u64;
    for d in deps.iter().filter(|d| d.kind == "faultsim") {
        sim_runs += 1;
        miss_runs += d.result["deadline_miss_runs"].as_u64().unwrap_or(0);
        let max = d.result["max_us"].as_u64().unwrap_or(0);
        let bound = d.result["bound_us"].as_u64().unwrap_or(0);
        if max > bound {
            bound_violations += 1;
        }
    }
    Ok(obj(vec![
        ("sweep", Value::Str("chi".into())),
        ("rows", Value::Array(rows)),
        (
            "faultsim",
            obj(vec![
                ("runs", Value::U64(sim_runs)),
                ("deadline_miss_runs", Value::U64(miss_runs)),
                ("bound_violations", Value::U64(bound_violations)),
            ]),
        ),
    ]))
}

fn aggregate_repair(deps: &[DepResult]) -> Result<Value, String> {
    let mut runs = Vec::new();
    let mut worst_ratio = 0.0f64;
    let mut all_schedulable = true;
    let mut all_verified = true;
    for d in deps.iter().filter(|d| d.kind == "repair") {
        let ratio = match &d.result["length_ratio"] {
            Value::F64(r) => *r,
            other => {
                return Err(format!("repair result missing length_ratio: {other:?}"));
            }
        };
        worst_ratio = worst_ratio.max(ratio);
        all_schedulable &= d.result["schedulable"] == Value::Bool(true);
        all_verified &= d.result["verified"] == Value::Bool(true);
        runs.push(d.result.clone());
    }
    if runs.is_empty() {
        return Err("repair aggregate has no repair results".into());
    }
    Ok(obj(vec![
        ("sweep", Value::Str("repair".into())),
        ("runs", Value::Array(runs)),
        ("worst_length_ratio", Value::F64(worst_ratio)),
        ("all_schedulable", Value::Bool(all_schedulable)),
        ("all_verified", Value::Bool(all_verified)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_core::cache::{bus_fingerprint, fault_fingerprint, problem_fingerprint};
    use ftdes_core::problem::MAX_PROCESS_NODE_PAIRS;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::merge::MAX_MERGED_PROCESSES;
    use ftdes_serve::jobs_fingerprint;

    fn tiny_chi() -> SweepSpec {
        SweepSpec::Chi(ChiSweep {
            processes: 8,
            nodes: 2,
            faults: 1,
            mu_ms: 5,
            seeds: 2,
            chi_permille: vec![20, 200],
            max_checkpoints: 3,
            max_iterations: 4,
            faultsim_samples: 16,
        })
    }

    #[test]
    fn chi_dag_has_expected_shape() {
        let jobs = tiny_chi().jobs();
        // Per seed: 1 generate + 2 refs + 2·2 χ cells + 1 faultsim;
        // plus the aggregate.
        assert_eq!(jobs.len(), 2 * (1 + 2 + 4 + 1) + 1);
        let agg = jobs.last().unwrap();
        assert_eq!(agg.kind, "aggregate");
        assert_eq!(agg.deps.len(), 2 * (2 + 4 + 1));
        // Spec expansion is deterministic (resume recognizes stores).
        assert_eq!(
            jobs_fingerprint(&jobs),
            jobs_fingerprint(&tiny_chi().jobs())
        );
    }

    #[test]
    fn repair_dag_has_expected_shape() {
        let spec = SweepSpec::Repair(RepairSweep {
            processes: 8,
            comm_processes: 6,
            nodes: 3,
            faults: 1,
            mu_ms: 5,
            seeds: 2,
            max_iterations: 4,
        });
        let jobs = spec.jobs();
        // Per (seed, family): generate + optimize + repair; plus agg.
        assert_eq!(jobs.len(), 2 * 2 * 3 + 1);
        assert_eq!(jobs.last().unwrap().deps.len(), 4);
    }

    /// Runs every job of `spec` in DAG order, in-process, and returns
    /// the aggregate's result.
    fn run_in_process(spec: &SweepSpec) -> Value {
        // The DAG lists every job after its dependencies.
        let exec = SweepExec;
        let mut done: Vec<DepResult> = Vec::new();
        for job in spec.jobs() {
            let deps: Vec<DepResult> = done
                .iter()
                .filter(|d| job.deps.contains(&d.id))
                .cloned()
                .collect();
            let result = exec.execute(&job, &deps).unwrap();
            done.push(DepResult {
                id: job.id,
                name: job.name,
                kind: job.kind,
                result,
            });
        }
        done.pop().unwrap().result
    }

    fn tiny_overhead() -> OverheadSweep {
        OverheadSweep {
            processes: vec![6, 8],
            nodes: vec![3],
            faults: vec![1, 2],
            mu_ms: vec![5],
            seeds: 2,
            max_iterations: 3,
            reference: Strategy::Mxr,
            strategies: vec![Strategy::Mr, Strategy::Nft],
        }
    }

    #[test]
    fn overhead_dag_has_expected_shape() {
        let spec = SweepSpec::Overhead(tiny_overhead());
        let jobs = spec.jobs();
        // Per (row, seed): 1 generate + 3 optimizes (the reference
        // first); plus the aggregate.
        assert_eq!(jobs.len(), 2 * 2 * 4 + 1);
        assert_eq!(jobs[0].name, "gen/r0/s0");
        let names: Vec<&str> = jobs[1..4].iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["opt/r0/s0/mxr", "opt/r0/s0/mr", "opt/r0/s0/nft"]);
        assert!(jobs[1..4].iter().all(|j| j.deps == [jobs[0].id]));
        // The second row zips processes 8 with faults 2 and broadcasts
        // nodes and mu_ms.
        let row1 = jobs.iter().find(|j| j.name == "gen/r1/s0").unwrap();
        assert_eq!(
            [
                row1.params["processes"].as_u64(),
                row1.params["nodes"].as_u64(),
                row1.params["faults"].as_u64(),
                row1.params["mu_ms"].as_u64()
            ],
            [Some(8), Some(3), Some(2), Some(5)]
        );
        let agg = jobs.last().unwrap();
        assert_eq!(agg.kind, "aggregate");
        assert_eq!(agg.deps.len(), 2 * 2 * 3, "every optimize, no generate");
        assert_eq!(
            jobs_fingerprint(&jobs),
            jobs_fingerprint(&SweepSpec::Overhead(tiny_overhead()).jobs())
        );
    }

    #[test]
    fn overhead_sweep_reports_every_row_and_strategy() {
        let spec = tiny_overhead();
        let agg = run_in_process(&SweepSpec::Overhead(spec.clone()));
        assert_eq!(agg["reference"].as_str(), Some("mxr"));
        let Value::Array(rows) = &agg["rows"] else {
            panic!("aggregate has no rows: {agg:?}");
        };
        // One record per spec row and measured strategy, in order.
        assert_eq!(rows.len(), spec.rows().len() * spec.strategies.len());
        for (i, record) in rows.iter().enumerate() {
            let row = spec.rows()[i / 2];
            assert_eq!(record["processes"].as_u64(), Some(row.processes));
            assert_eq!(record["faults"].as_u64(), Some(row.faults));
            assert_eq!(
                record["strategy"].as_str(),
                Some(["mr", "nft"][i % 2]),
                "{record:?}"
            );
            assert_eq!(record["samples"].as_u64(), Some(spec.seeds), "{record:?}");
            let pct = |key: &str| match record[key] {
                Value::F64(v) => v,
                ref other => panic!("{key} is not a number: {other:?}"),
            };
            assert!(pct("max_pct") >= pct("avg_pct"), "{record:?}");
            assert!(pct("avg_pct") >= pct("min_pct"), "{record:?}");
            // NFT never pays for fault tolerance, MR always does.
            if i % 2 == 1 {
                assert!(pct("max_pct") < 0.0, "NFT is shorter than MXR: {record:?}");
            }
        }
    }

    #[test]
    fn overhead_validation_rejects_inconsistent_specs() {
        let check = |edit: fn(&mut OverheadSweep), key: &str| {
            let mut spec = tiny_overhead();
            edit(&mut spec);
            let err = SweepSpec::Overhead(spec).validate().expect_err(key);
            assert!(err.contains(key), "{key}: {err}");
        };
        check(|s| s.faults = vec![1, 1, 1], "faults");
        check(|s| s.processes.clear(), "processes");
        check(|s| s.strategies.clear(), "strategies");
        check(|s| s.strategies.push(Strategy::Mxr), "the reference");
        check(|s| s.strategies.push(Strategy::Mr), "twice");
        // MR needs faults + 1 <= nodes: k = 2 on 2 nodes, on row 1.
        check(|s| s.nodes = vec![3, 2], "row 1");
        // ... also as the reference.
        check(
            |s| {
                s.nodes = vec![2];
                s.reference = Strategy::Mr;
                s.strategies = vec![Strategy::Mxr];
            },
            "mr",
        );
        assert!(SweepSpec::Overhead(tiny_overhead()).validate().is_ok());
    }

    #[test]
    fn validation_holds_knobs_to_their_caps() {
        let chi = |edit: fn(&mut ChiSweep)| {
            let SweepSpec::Chi(mut s) = tiny_chi() else {
                unreachable!()
            };
            edit(&mut s);
            SweepSpec::Chi(s).validate()
        };
        for (edit, key) in [
            (
                (|s: &mut ChiSweep| s.processes = MAX_MERGED_PROCESSES as u64 + 1)
                    as fn(&mut ChiSweep),
                "processes",
            ),
            (
                |s| s.nodes = (MAX_PROCESS_NODE_PAIRS / 8) as u64 + 1,
                "process-node pairs",
            ),
            (|s| s.faults = u64::from(u32::MAX), "faults"),
            (|s| s.faults = u64::from(u32::MAX) + 2, "faults"),
            (|s| s.mu_ms = u64::MAX / 1000 + 1, "mu_ms"),
            (
                |s| s.chi_permille = vec![10, 400_000_000_000_000],
                "chi_permille",
            ),
            (
                |s| s.max_checkpoints = u64::from(MAX_CHECKPOINTS) + 1,
                "max_checkpoints",
            ),
            (
                |s| s.max_checkpoints = u64::from(u32::MAX) + 1,
                "max_checkpoints",
            ),
            (
                |s| s.faultsim_samples = MAX_FAULTSIM_SAMPLES + 1,
                "faultsim_samples",
            ),
            (|s| s.seeds = MAX_SWEEP_JOBS, "seeds"),
            (|s| s.seeds = u64::MAX, "seeds"),
        ] {
            let err = chi(edit).expect_err(key);
            assert!(err.contains(key), "{key}: {err}");
        }
        // At the caps, the knobs pass.
        assert!(chi(|s| {
            s.faults = u64::from(FaultModel::MAX_K);
            s.max_checkpoints = u64::from(MAX_CHECKPOINTS);
            s.faultsim_samples = MAX_FAULTSIM_SAMPLES;
        })
        .is_ok());
        let repair = SweepSpec::Repair(RepairSweep {
            processes: 8,
            comm_processes: MAX_MERGED_PROCESSES as u64 + 1,
            nodes: 3,
            faults: 1,
            mu_ms: 5,
            seeds: 1,
            max_iterations: 4,
        });
        assert!(repair.validate().unwrap_err().contains("comm_processes"));
        let mut wide = tiny_overhead();
        wide.processes = vec![8; 3];
        wide.faults = vec![1; 3];
        wide.seeds = MAX_SWEEP_JOBS / 12 + 1;
        assert!(SweepSpec::Overhead(wide)
            .validate()
            .unwrap_err()
            .contains("seeds"));
    }

    #[test]
    fn a_horizon_past_its_budget_fails_the_generate_job() {
        // The largest µ that converts to microseconds passes
        // validation, but k + 1 executions of every process at that µ
        // overflow the horizon budget: the job fails instead of
        // scheduling on a wrapped time.
        let SweepSpec::Chi(mut s) = tiny_chi() else {
            unreachable!()
        };
        s.mu_ms = u64::MAX / 1000;
        let spec = SweepSpec::Chi(s);
        spec.validate().expect("within every cap");
        let generate = &spec.jobs()[0];
        assert_eq!(generate.kind, "generate");
        let err = SweepExec.execute(generate, &[]).unwrap_err();
        assert!(err.contains("horizon"), "{err}");
    }

    #[test]
    fn repair_sweep_verifies_every_repair() {
        let spec = SweepSpec::Repair(RepairSweep {
            processes: 8,
            comm_processes: 6,
            nodes: 3,
            faults: 1,
            mu_ms: 5,
            seeds: 1,
            max_iterations: 4,
        });
        let agg = &run_in_process(&spec);
        assert_eq!(agg["all_verified"], Value::Bool(true), "{agg:?}");
        let Value::Array(runs) = &agg["runs"] else {
            panic!("aggregate has no runs: {agg:?}");
        };
        assert_eq!(runs.len(), 2);
        for run in runs {
            assert_eq!(
                run["scenarios_replayed"].as_u64(),
                Some(REPAIR_SCENARIOS as u64 + 1),
                "the adversarial scenario plus the random batch: {run:?}"
            );
        }
    }

    #[test]
    fn validation_rejects_degenerate_sweeps() {
        let SweepSpec::Chi(mut bad) = tiny_chi() else {
            unreachable!()
        };
        bad.chi_permille.clear();
        assert!(SweepSpec::Chi(bad.clone()).validate().is_err());
        bad.chi_permille = vec![10];
        bad.seeds = 0;
        assert!(SweepSpec::Chi(bad).validate().is_err());
        assert!(tiny_chi().validate().is_ok());
    }

    #[test]
    fn designs_roundtrip_through_job_results() {
        let request = InstanceRequest::new(Family::Paper, 6, 2, 1, Time::from_ms(5), 3);
        let problem = request.build().unwrap();
        let outcome = optimize(&problem, Strategy::Mxr, &iteration_config(3)).unwrap();
        let encoded = encode_design(&outcome.design);
        let decoded = decode_design(&encoded, &problem).unwrap();
        assert_eq!(
            problem.evaluate(&decoded).unwrap().length(),
            outcome.length(),
            "decoded design evaluates identically"
        );
    }

    /// A problem's fingerprints: structure, bus and fault model, plus
    /// its checkpoint cap.
    fn fingerprints(problem: &Problem) -> (u64, u64, u64, u32) {
        (
            problem_fingerprint(problem),
            bus_fingerprint(problem.bus()),
            fault_fingerprint(problem.fault_model()),
            problem.max_checkpoints(),
        )
    }

    #[test]
    fn generated_problems_repeat_their_recorded_fingerprints() {
        // Recorded with the problem constructors the request
        // replaced: the CLI's `--family` defaults, and the jobs' paper
        // and comm-heavy parameters with χ > 0.
        let cli = InstanceRequest::default();
        let comm = InstanceRequest {
            family: Family::CommHeavy,
            ..cli.clone()
        };
        assert_eq!(
            fingerprints(&cli.build().unwrap()),
            (
                0x3fb7_99af_54f9_5d3a,
                0xb4a7_940a_f042_0768,
                0xcf33_d970_0881_b214,
                1
            )
        );
        assert_eq!(
            fingerprints(&comm.build().unwrap()),
            (
                0xdee8_e713_0b13_0e4a,
                0xfddd_bdd7_b0e4_5949,
                0xcf33_d970_0881_b214,
                1
            )
        );
        let job = |family: &str, processes, nodes, faults, seed, chi_us, ckpts| {
            let base = workload_params(family.parse().unwrap(), seed, processes, nodes, faults, 5);
            let params = optimize_params(&base, "mcx", "mx", chi_us, ckpts, 1);
            fingerprints(&build_problem(&params).unwrap())
        };
        assert_eq!(
            job("paper", 24, 4, 2, 1, 13_750, 4),
            (
                0xf95b_4737_5eb6_3e05,
                0xb4a7_940a_f042_0768,
                0xc0b4_0932_c7d3_475a,
                4
            )
        );
        assert_eq!(
            job("comm_heavy", 12, 4, 1, 2, 500, 3),
            (
                0x194e_f232_2aa8_9c02,
                0xfddd_bdd7_b0e4_5949,
                0x5060_ff17_f6fb_6445,
                3
            )
        );
    }
}
