//! Sweep job adapters: the bridge between `ftdes-serve`'s generic
//! crash-safe job graph and this crate's experiment harness. They are
//! the one implementation of the repo's two extension studies, which
//! `ftdes sweep run` executes.
//!
//! A [`SweepSpec`] expands into a DAG of [`JobSpec`]s
//! (generate → optimize → faultsim/repair → aggregate) via
//! [`SweepSpec::jobs`], and [`SweepExec`] executes them. Two sweep
//! shapes are supported:
//!
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
//! crash-matrix suites assert. Evaluation caches are shared through a
//! [`CachePool`] keyed by problem fingerprint: re-runs and sibling
//! jobs of the same workload warm-start each other (the cache changes
//! only *speed*, never results).

use std::time::Duration;

use ftdes_core::repair::RepairBudget;
use ftdes_core::{optimize_with_cache, CachePool, Problem, Strategy};
use ftdes_faultsim::{degrade_and_repair_adversarial, length_distribution};
use ftdes_gen::WorkloadParams;
use ftdes_model::design::{Design, ProcessDesign};
use ftdes_model::ids::NodeId;
use ftdes_model::policy::FtPolicy;
use ftdes_model::time::Time;
use ftdes_serve::{DepResult, JobExec, JobSpec};
use serde::Value;

use crate::{comm_heavy_problem, iteration_config, synthetic_problem, PolicyMix};

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
            SweepSpec::Chi(_) => "chi",
            SweepSpec::Repair(_) => "repair",
        }
    }

    /// Sanity-checks the parameter ranges.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let (seeds, iterations) = match self {
            SweepSpec::Chi(s) => {
                if s.chi_permille.is_empty() {
                    return Err("chi sweep needs at least one chi row".into());
                }
                if s.max_checkpoints == 0 {
                    return Err("max_checkpoints must be at least 1".into());
                }
                if s.processes == 0 || s.nodes == 0 {
                    return Err("processes and nodes must be positive".into());
                }
                (s.seeds, s.max_iterations)
            }
            SweepSpec::Repair(s) => {
                if s.processes == 0 || s.comm_processes == 0 || s.nodes == 0 {
                    return Err("process and node counts must be positive".into());
                }
                (s.seeds, s.max_iterations)
            }
        };
        if seeds == 0 {
            return Err("seeds must be at least 1".into());
        }
        if iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        Ok(())
    }

    /// Expands the sweep into its job DAG.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobSpec> {
        match self {
            SweepSpec::Chi(s) => chi_jobs(s),
            SweepSpec::Repair(s) => repair_jobs(s),
        }
    }
}

/// χ of one permille row, in µs against the paper family's mean WCET.
fn chi_us(spec: &ChiSweep, permille: u64) -> u64 {
    let p = WorkloadParams::paper(spec.processes as usize);
    let mean_wcet_us = (p.wcet_min.as_us() + p.wcet_max.as_us()) / 2;
    mean_wcet_us * permille / 1000
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
    family: &str,
    seed: u64,
    processes: u64,
    nodes: u64,
    faults: u64,
    mu_ms: u64,
) -> Vec<(&'static str, Value)> {
    vec![
        ("family", Value::Str(family.to_owned())),
        ("seed", Value::U64(seed)),
        ("processes", Value::U64(processes)),
        ("nodes", Value::U64(nodes)),
        ("faults", Value::U64(faults)),
        ("mu_ms", Value::U64(mu_ms)),
    ]
}

fn chi_jobs(spec: &ChiSweep) -> Vec<JobSpec> {
    let mut dag = DagBuilder::new();
    let mut agg_deps = Vec::new();
    for seed in 0..spec.seeds {
        let base = workload_params(
            "paper",
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
            let mut params = base.clone();
            params.extend([
                ("role", Value::Str(role.to_owned())),
                ("strategy", Value::Str(strategy.to_owned())),
                ("chi_us", Value::U64(chi)),
                ("max_checkpoints", Value::U64(ckpts)),
                ("max_iterations", Value::U64(spec.max_iterations)),
            ]);
            let name = if chi == 0 && ckpts == 1 {
                format!("opt/s{seed}/{role}")
            } else {
                format!("opt/s{seed}/chi{chi}/{role}")
            };
            dag.push(name, "optimize", obj(params), vec![gen])
        };
        // χ-independent references.
        let mx = opt("mx", "mx", 0, 1, &mut dag);
        agg_deps.push(mx);
        agg_deps.push(opt("mr", "mr", 0, 1, &mut dag));
        // Per-χ cells.
        for &permille in &spec.chi_permille {
            let chi = chi_us(spec, permille);
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
        for family in ["paper", "comm_heavy"] {
            let processes = if family == "paper" {
                spec.processes
            } else {
                spec.comm_processes
            };
            let base =
                workload_params(family, seed, processes, spec.nodes, spec.faults, spec.mu_ms);
            let gen = dag.push(
                format!("gen/{family}/s{seed}"),
                "generate",
                obj(base.clone()),
                vec![],
            );
            let mut opt_params = base.clone();
            opt_params.extend([
                ("role", Value::Str("intact".to_owned())),
                ("strategy", Value::Str("mxr".to_owned())),
                ("chi_us", Value::U64(0)),
                ("max_checkpoints", Value::U64(1)),
                ("max_iterations", Value::U64(spec.max_iterations)),
            ]);
            let intact = dag.push(
                format!("opt/{family}/s{seed}"),
                "optimize",
                obj(opt_params),
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

/// Executes sweep jobs against the deterministic optimizer, sharing
/// evaluation caches across jobs through a [`CachePool`].
#[derive(Debug, Default)]
pub struct SweepExec {
    pool: CachePool,
}

impl SweepExec {
    /// A fresh executor with an empty cache pool.
    #[must_use]
    pub fn new() -> Self {
        SweepExec::default()
    }
}

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

/// Rebuilds the problem a job's parameters describe. Generation is
/// deterministic per seed, so every job of a seed reconstructs the
/// identical workload — the generate job's fingerprint pins that down.
fn build_problem(params: &Value) -> Result<Problem, String> {
    let family = get_str(params, "family")?;
    let seed = get_u64(params, "seed")?;
    let processes = get_u64(params, "processes")? as usize;
    let nodes = get_u64(params, "nodes")? as usize;
    let faults = get_u64(params, "faults")? as u32;
    let mu = Time::from_ms(get_u64(params, "mu_ms")?);
    let base = match family {
        "paper" => synthetic_problem(processes, nodes, faults, mu, seed),
        "comm_heavy" => comm_heavy_problem(processes, nodes, faults, mu, seed),
        other => return Err(format!("unknown workload family {other:?}")),
    };
    let chi = Time::from_us(params.get("chi_us").and_then(Value::as_u64).unwrap_or(0));
    let ckpts = params
        .get("max_checkpoints")
        .and_then(Value::as_u64)
        .unwrap_or(1) as u32;
    let fm = base.fault_model().with_checkpoint_overhead(chi);
    Ok(base.with_fault_model(fm).with_max_checkpoints(ckpts))
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "mxr" => Ok(Strategy::Mxr),
        "mx" => Ok(Strategy::Mx),
        "mr" => Ok(Strategy::Mr),
        "sfx" => Ok(Strategy::Sfx),
        "nft" => Ok(Strategy::Nft),
        other => Err(format!("unknown strategy {other:?}")),
    }
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
        let strategy = parse_strategy(get_str(params, "strategy")?)?;
        let cfg = iteration_config(get_u64(params, "max_iterations")? as usize);
        let cache = self.pool.for_problem(&problem);
        let outcome = optimize_with_cache(&problem, strategy, &cfg, &cache)
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
        let samples = get_u64(params, "samples")?.max(1) as usize;
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
        let cfg = iteration_config(get_u64(params, "max_iterations")? as usize);
        let budget = RepairBudget {
            localized: UNLIMITED,
            warm: UNLIMITED,
            scratch: UNLIMITED,
        };
        let cache = self.pool.for_problem(&problem);
        let report = degrade_and_repair_adversarial(
            &problem,
            &design,
            &schedule,
            &budget,
            &cfg,
            &cache,
            REPAIR_SCENARIOS,
            seed,
        )
        .map_err(|e| e.to_string())?;
        let repaired = &report.outcome;
        let scratch_cache = self.pool.for_problem(&repaired.problem);
        let scratch = optimize_with_cache(&repaired.problem, Strategy::Mxr, &cfg, &scratch_cache)
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
        // The DAG lists every job after its dependencies.
        let exec = SweepExec::new();
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
        let agg = &done.last().unwrap().result;
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
        let mut bad = match tiny_chi() {
            SweepSpec::Chi(s) => s,
            SweepSpec::Repair(_) => unreachable!(),
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
        let problem = synthetic_problem(6, 2, 1, Time::from_ms(5), 3);
        let cache = self::CachePool::new().for_problem(&problem);
        let outcome =
            optimize_with_cache(&problem, Strategy::Mxr, &iteration_config(3), &cache).unwrap();
        let encoded = encode_design(&outcome.design);
        let decoded = decode_design(&encoded, &problem).unwrap();
        assert_eq!(
            problem.evaluate(&decoded).unwrap().length(),
            outcome.length(),
            "decoded design evaluates identically"
        );
    }
}
