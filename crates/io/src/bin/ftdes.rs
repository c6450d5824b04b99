//! The `ftdes` command-line driver.
//!
//! ```text
//! ftdes solve <problem.ftd> [--strategy mxr|mx|mr|sfx|nft]
//!                           [--time-ms N] [--goal deadline|length]
//!                           [--json <out.json>] [--gantt] [--bus-opt]
//! ftdes inject <problem.ftd> [--strategy ...] [--scenarios N] [--seed S]
//! ftdes repair <problem.ftd> --delta <spec> [--delta <spec> ...]
//!                            [--repair-ms N] [--strategy ...] [--scenarios N]
//! ftdes info  <problem.ftd>
//! ftdes sweep run    --spec <sweep.txt> --store <log.jsonl> [--out results.json]
//!                    [--workers N]
//! ftdes sweep resume --store <log.jsonl> [--out results.json] [--workers N]
//! ftdes sweep status --store <log.jsonl>
//! ```
//!
//! `sweep` drives a whole experiment sweep (the paper's Table 1 and
//! Fig. 10 overheads, a χ trade-off table or a degrade-and-repair
//! study — see [`ftdes_io::sweep`] for the spec format and
//! `crates/bench/sweeps/` for the committed specs) as a crash-safe
//! job DAG over an append-only event log
//! (`ftdes-serve`). `run` and `resume` lock the store, so a second
//! driver on it exits 74; `status` only reads it. Kill the process at
//! any instant and `sweep resume` continues from the log at once; the
//! final results are bit-identical to an uncrashed run.
//! `FTDES_CRASH_AT=<point>[:<n>]` arms the crash-injection harness
//! (real `abort()` at a registered fault point, at any worker count)
//! for exactly that drill.
//!
//! Count flags have documented maxima: `--scenarios` 100000,
//! `--portfolio` and `sweep --workers` 256 (the engine's thread
//! maximum, `MAX_THREADS`), `--procs` 16384 (`MAX_MERGED_PROCESSES`),
//! `--procs` × `--nodes` 2²⁰ (`MAX_PROCESS_NODE_PAIRS`, which
//! problem files are held to as well) and `--max-checkpoints` 2²⁰
//! (`MAX_CHECKPOINTS`). `--density` and `--msg-wcet-ratio` take
//! finite, non-negative values, and `round(--density × --procs)` is
//! at most 2²⁰ edges. A value past its maximum is a usage error.
//!
//! Exit codes are classified sysexits-style: `2` usage, `65` malformed
//! input (problem file, sweep spec, or corrupt store — and any problem
//! whose worst-case horizon overflows its budget once the flags are
//! applied), `74` I/O failure, `1` anything else (solver errors,
//! stalled sweeps, ...).
//! A reader that closes stdout early (`ftdes solve ... | head`) ends
//! the run quietly with `0`.
//!
//! `solve --bus-opt` then optimizes the TDMA slot order and capacity
//! for the design found, within a second `--time-ms` budget.
//!
//! `repair` optimizes the intact problem, applies the composite
//! delta (`kill-node:N1`, `degrade-node:N1:150`, `rescale-wcet:120`,
//! `remove-process:P2`, `add-process:w:N0=10ms,...` — see
//! [`ftdes_io::delta`]), repairs the design through the escalation
//! ladder within `--repair-ms`, prints the per-rung audit trail, and
//! replays fault scenarios against the repaired schedule.
//!
//! Instead of a problem file, every command also accepts a generated
//! instance: `--family comm-heavy|paper` with `--procs N`, `--nodes N`,
//! `--k N`, `--mu-ms N`, `--chi-ms N` (checkpointing overhead χ;
//! non-zero values open the optimizer's checkpoint move axis, capped
//! by `--max-checkpoints N`), `--seed S` and (comm-heavy only) the
//! family knobs `--density F` (mean edges per process) and
//! `--msg-wcet-ratio F` (mean message transfer time over mean WCET) —
//! the communication-heavy family the benchmarks sweep, reachable
//! straight from the CLI:
//!
//! ```text
//! ftdes solve --family comm-heavy --procs 50 --density 5 \
//!             --msg-wcet-ratio 0.5 --goal length --bus-opt
//! ```

use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use ftdes_bench::jobs::SweepExec;
use ftdes_core::problem::{MAX_CHECKPOINTS, MAX_PROCESS_NODE_PAIRS};
use ftdes_core::repair::{repair, RepairBudget};
use ftdes_core::{
    optimize, optimize_bus, optimize_portfolio, BusOptConfig, Goal, PolicySpace, PortfolioConfig,
    Problem, SearchConfig, Strategy, MAX_THREADS,
};
use ftdes_faultsim::replay_scenarios;
use ftdes_gen::{comm_heavy, paper_workload, CommHeavyParams};
use ftdes_io::delta::parse_delta_with;
use ftdes_io::format::{check_horizon, parse_problem};
use ftdes_io::report::{solution_report, to_json};
use ftdes_io::sweep::parse_sweep;
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::merge::MAX_MERGED_PROCESSES;
use ftdes_model::time::Time;
use ftdes_sched::render::{render_gantt, render_medl, render_tables};
use ftdes_serve::{drive, Injector, JobStatus, StoreError, SweepState, SweepStore, WorkerConfig};
use ftdes_ttp::config::BusConfig;
use serde::Value;

/// A classified CLI failure. The variant picks the process exit code
/// (sysexits-style) so scripts and the e2e tests can tell *why* a run
/// failed without parsing stderr.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command/flag, missing argument. Exit 2.
    Usage(String),
    /// Malformed input data: problem file, sweep spec, corrupt or
    /// inconsistent store. Exit 65 (`EX_DATAERR`).
    Parse(String),
    /// The OS said no: unreadable file, failed write/sync. Exit 74
    /// (`EX_IOERR`).
    Io(String),
    /// Everything else (solver failure, stalled sweep, ...). Exit 1.
    Other(String),
    /// Writing to stdout failed. Exit 74, except for a closed pipe,
    /// which ends the run quietly with 0.
    Stdout(io::Error),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 65,
            CliError::Io(_) | CliError::Stdout(_) => 74,
            CliError::Other(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Io(m) | CliError::Other(m) => {
                f.write_str(m)
            }
            CliError::Stdout(e) => write!(f, "writing to stdout: {e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Other(message)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Stdout(e)
    }
}

/// Store failures keep their classification: OS errors are I/O,
/// corrupt or inconsistent logs are data errors.
fn store_err(e: StoreError) -> CliError {
    match e {
        StoreError::Io { .. } => CliError::Io(e.to_string()),
        _ => CliError::Parse(e.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = match args.split_first() {
        Some((command, rest)) if command == "sweep" => run_sweep(&mut out, rest),
        _ => run(&mut out, &args),
    }
    .and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}

/// The most fault scenarios `inject` and `repair` replay
/// (`--scenarios`); they are drawn up front, one allocation each.
const MAX_SCENARIOS: usize = 100_000;

/// The most edges `--density` may ask of the comm-heavy generator,
/// `round(density × procs)`: 2²⁰. Past it the generator's densify
/// loop runs in proportion to the target, not to the graph it builds.
const MAX_GENERATED_EDGES: f64 = (1u64 << 20) as f64;

/// Parses a count for `flag`, refusing one past `max`.
fn parse_count(flag: &str, v: &str, max: usize) -> Result<usize, String> {
    let n: usize = v.parse().map_err(|_| format!("invalid {flag}"))?;
    if n > max {
        return Err(format!("invalid {flag}: {n} (at most {max})"));
    }
    Ok(n)
}

/// Parses a whole number of milliseconds for `flag`, refusing one
/// past the microsecond [`Time`] range.
fn parse_ms(flag: &str, v: &str) -> Result<Time, String> {
    let ms: u64 = v.parse().map_err(|_| format!("invalid {flag}"))?;
    ms.checked_mul(1_000).map(Time::from_us).ok_or_else(|| {
        format!(
            "invalid {flag}: {ms} ms overflows the {} us time range",
            u64::MAX
        )
    })
}

/// A generated-instance request (`--family …`) in place of a problem
/// file.
struct FamilyOptions {
    family: String,
    procs: usize,
    nodes: usize,
    k: u32,
    mu: Time,
    chi: Time,
    density: f64,
    msg_wcet_ratio: f64,
}

impl Default for FamilyOptions {
    fn default() -> Self {
        let dense = CommHeavyParams::dense(50);
        FamilyOptions {
            family: String::new(),
            procs: 50,
            nodes: 4,
            k: 2,
            mu: Time::from_ms(5),
            chi: Time::ZERO,
            density: dense.edge_density,
            msg_wcet_ratio: dense.msg_wcet_ratio,
        }
    }
}

impl FamilyOptions {
    /// Builds the generated problem instance.
    fn into_problem(self, seed: u64) -> Result<Problem, String> {
        let arch = Architecture::with_node_count(self.nodes);
        let fm = FaultModel::new(self.k, self.mu).with_checkpoint_overhead(self.chi);
        let (workload, byte_time) = match self.family.as_str() {
            "comm-heavy" => {
                let params = CommHeavyParams::dense(self.procs)
                    .with_density(self.density)
                    .with_ratio(self.msg_wcet_ratio);
                (comm_heavy(&params, &arch, seed), params.byte_time())
            }
            // The paper's synthetic family: 1–4 byte messages over the
            // experiments' 2.5 ms/byte bus.
            "paper" => (
                paper_workload(self.procs, &arch, seed),
                Time::from_us(2_500),
            ),
            other => return Err(format!("unknown family {other:?} (comm-heavy | paper)")),
        };
        let largest = workload
            .graph
            .edges()
            .iter()
            .map(|e| e.message.size)
            .max()
            .unwrap_or(1)
            .max(1);
        let bus = BusConfig::initial(&arch, largest, byte_time).map_err(|e| e.to_string())?;
        Ok(Problem::new(workload.graph, arch, workload.wcet, fm, bus))
    }
}

struct Options {
    strategy: Strategy,
    time_ms: u64,
    goal: Goal,
    json: Option<String>,
    gantt: bool,
    bus_opt: bool,
    scenarios: usize,
    seed: u64,
    family: Option<FamilyOptions>,
    max_checkpoints: Option<u32>,
    deltas: Vec<String>,
    repair_ms: u64,
    portfolio: usize,
    epoch_candidates: usize,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            strategy: Strategy::Mxr,
            time_ms: 2_000,
            goal: Goal::MeetDeadline,
            json: None,
            gantt: false,
            bus_opt: false,
            scenarios: 100,
            seed: 0,
            family: None,
            max_checkpoints: None,
            deltas: Vec::new(),
            repair_ms: 500,
            portfolio: 0,
            epoch_candidates: 4_096,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--strategy" => {
                    o.strategy = match value("--strategy")?.to_lowercase().as_str() {
                        "mxr" => Strategy::Mxr,
                        "mx" => Strategy::Mx,
                        "mr" => Strategy::Mr,
                        "sfx" => Strategy::Sfx,
                        "nft" => Strategy::Nft,
                        other => return Err(format!("unknown strategy {other:?}")),
                    };
                }
                "--time-ms" => {
                    o.time_ms = value("--time-ms")?
                        .parse()
                        .map_err(|_| "invalid --time-ms".to_owned())?;
                }
                "--goal" => {
                    o.goal = match value("--goal")?.as_str() {
                        "deadline" => Goal::MeetDeadline,
                        "length" => Goal::MinimizeLength,
                        other => return Err(format!("unknown goal {other:?}")),
                    };
                }
                "--json" => o.json = Some(value("--json")?),
                "--delta" => o.deltas.push(value("--delta")?),
                "--repair-ms" => {
                    o.repair_ms = value("--repair-ms")?
                        .parse()
                        .map_err(|_| "invalid --repair-ms".to_owned())?;
                }
                "--gantt" => o.gantt = true,
                "--bus-opt" => o.bus_opt = true,
                "--portfolio" => {
                    o.portfolio = parse_count("--portfolio", &value("--portfolio")?, MAX_THREADS)?;
                }
                "--epoch-candidates" => {
                    o.epoch_candidates = value("--epoch-candidates")?
                        .parse::<usize>()
                        .map_err(|_| "invalid --epoch-candidates".to_owned())?
                        .max(1);
                }
                "--scenarios" => {
                    o.scenarios =
                        parse_count("--scenarios", &value("--scenarios")?, MAX_SCENARIOS)?;
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "invalid --seed".to_owned())?;
                }
                "--family" => {
                    let mut fam = o.family.take().unwrap_or_default();
                    fam.family = value("--family")?.to_lowercase();
                    o.family = Some(fam);
                }
                "--procs" => {
                    o.family.get_or_insert_with(Default::default).procs =
                        parse_count("--procs", &value("--procs")?, MAX_MERGED_PROCESSES)?;
                }
                "--nodes" => {
                    o.family.get_or_insert_with(Default::default).nodes =
                        parse_count("--nodes", &value("--nodes")?, MAX_PROCESS_NODE_PAIRS)?;
                }
                "--k" => {
                    let k: u32 = value("--k")?
                        .parse()
                        .map_err(|_| "invalid --k".to_owned())?;
                    if k > FaultModel::MAX_K {
                        return Err(format!("invalid --k: {k} (at most {})", FaultModel::MAX_K));
                    }
                    o.family.get_or_insert_with(Default::default).k = k;
                }
                "--mu-ms" => {
                    o.family.get_or_insert_with(Default::default).mu =
                        parse_ms("--mu-ms", &value("--mu-ms")?)?;
                }
                "--chi-ms" => {
                    o.family.get_or_insert_with(Default::default).chi =
                        parse_ms("--chi-ms", &value("--chi-ms")?)?;
                }
                "--max-checkpoints" => {
                    let n: u32 = value("--max-checkpoints")?
                        .parse()
                        .map_err(|_| "invalid --max-checkpoints".to_owned())?;
                    if n > MAX_CHECKPOINTS {
                        return Err(format!(
                            "invalid --max-checkpoints: {n} (at most {MAX_CHECKPOINTS})"
                        ));
                    }
                    o.max_checkpoints = Some(n);
                }
                "--density" => {
                    o.family.get_or_insert_with(Default::default).density = value("--density")?
                        .parse()
                        .map_err(|_| "invalid --density".to_owned())?;
                }
                "--msg-wcet-ratio" => {
                    o.family.get_or_insert_with(Default::default).msg_wcet_ratio =
                        value("--msg-wcet-ratio")?
                            .parse()
                            .map_err(|_| "invalid --msg-wcet-ratio".to_owned())?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if let Some(f) = &o.family {
            if f.procs.saturating_mul(f.nodes) > MAX_PROCESS_NODE_PAIRS {
                return Err(format!(
                    "invalid --procs {} with --nodes {}: at most {MAX_PROCESS_NODE_PAIRS} \
                     process-node pairs",
                    f.procs, f.nodes
                ));
            }
            for (flag, v) in [
                ("--density", f.density),
                ("--msg-wcet-ratio", f.msg_wcet_ratio),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!(
                        "invalid {flag}: {v} (must be finite and non-negative)"
                    ));
                }
            }
            if (f.density * f.procs as f64).round() > MAX_GENERATED_EDGES {
                return Err(format!(
                    "invalid --density {} with --procs {}: at most {MAX_GENERATED_EDGES} edges",
                    f.density, f.procs
                ));
            }
        }
        Ok(o)
    }

    fn search_config(&self) -> SearchConfig {
        SearchConfig {
            goal: self.goal,
            time_limit: Some(Duration::from_millis(self.time_ms)),
            ..SearchConfig::default()
        }
    }
}

fn run(out: &mut impl Write, args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    // Either a problem file, or a generated instance (`--family …` —
    // the flags then start right after the command).
    let (path, flags) = match rest.split_first() {
        Some((p, tail)) if !p.starts_with("--") => (Some(p.as_str()), tail),
        _ => (None, rest),
    };
    let mut options = Options::parse(flags).map_err(CliError::Usage)?;
    let (problem, node_names, hyperperiod) = match (path, options.family.take()) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
            let spec = parse_problem(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
            let names: Vec<String> = spec.arch.nodes().iter().map(|n| n.name.clone()).collect();
            let (problem, merged) = spec
                .into_problem()
                .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
            (problem, names, merged.hyperperiod())
        }
        (None, Some(family)) => {
            if family.family.is_empty() {
                return Err(CliError::Usage(
                    "generator knobs need --family comm-heavy|paper".to_owned(),
                ));
            }
            let problem = family.into_problem(options.seed)?;
            let names = (0..problem.arch().node_count())
                .map(|i| format!("N{i}"))
                .collect();
            (problem, names, Time::ZERO)
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "pass either a problem file or --family, not both".to_owned(),
            ))
        }
        (None, None) => return Err(CliError::Usage(usage())),
    };
    let problem = match options.max_checkpoints {
        Some(n) => problem.with_max_checkpoints(n),
        None => problem,
    };
    // The budget again, on the problem the commands actually run:
    // `--max-checkpoints` raises the checkpoint levels it bounds, and
    // generated instances never passed it.
    check_horizon(&problem, hyperperiod).map_err(|e| CliError::Parse(e.to_string()))?;
    let options = options;

    match command.as_str() {
        "info" => {
            writeln!(
                out,
                "processes: {}, edges: {}, nodes: {}, k = {}, mu = {}, chi = {} \
                 (checkpoint levels: {})",
                problem.process_count(),
                problem.graph().edge_count(),
                problem.arch().node_count(),
                problem.fault_model().k(),
                problem.fault_model().mu(),
                problem.fault_model().chi(),
                problem.max_checkpoints()
            )?;
            writeln!(
                out,
                "bus: {} slots of {} ({} bytes each), round {}",
                problem.bus().slots_per_round(),
                problem.bus().slot_length(),
                problem.bus().slot_bytes(),
                problem.bus().round_length()
            )?;
            Ok(())
        }
        "solve" => {
            let mut outcome = if options.portfolio > 0 {
                // The portfolio diversifies the tabu phase of one
                // policy space; the SFX/NFT baselines have no tabu
                // phase worth diversifying.
                let space = match options.strategy {
                    Strategy::Mxr => PolicySpace::Mixed,
                    Strategy::Mx => PolicySpace::ReexecutionOnly,
                    Strategy::Mr => PolicySpace::ReplicationOnly,
                    Strategy::Sfx | Strategy::Nft => {
                        return Err(CliError::Usage(
                            "--portfolio needs --strategy mxr|mx|mr".to_owned(),
                        ))
                    }
                };
                let pcfg = PortfolioConfig {
                    workers: options.portfolio,
                    epoch_candidates: options.epoch_candidates,
                    seed: options.seed ^ PortfolioConfig::default().seed,
                };
                let p = optimize_portfolio(&problem, space, &options.search_config(), &pcfg)
                    .map_err(|e| e.to_string())?;
                for w in &p.workers {
                    writeln!(
                        out,
                        "worker {} [{}]: best = {}, iterations = {}, lookups = {}, adopted = {}",
                        w.index, w.label, w.best.length, w.tabu_iterations, w.lookups, w.adopted
                    )?;
                }
                writeln!(
                    out,
                    "portfolio: {} workers, {} epochs, {} elite exchanges, schedule built under {} priority",
                    p.workers.len(),
                    p.epochs,
                    p.exchanges,
                    p.priority
                )?;
                p.outcome
            } else {
                optimize(&problem, options.strategy, &options.search_config())
                    .map_err(|e| e.to_string())?
            };
            if options.bus_opt {
                // The pass gets the budget the search had.
                let bus_cfg = BusOptConfig {
                    time_limit: Some(Duration::from_millis(options.time_ms)),
                    ..BusOptConfig::default()
                };
                let bused =
                    optimize_bus(&problem, &outcome.design, &bus_cfg).map_err(|e| e.to_string())?;
                if bused.schedule.cost() < outcome.schedule.cost() {
                    writeln!(
                        out,
                        "bus-access optimization improved delta: {} -> {}",
                        outcome.schedule.length(),
                        bused.schedule.length()
                    )?;
                    outcome.schedule = bused.schedule;
                }
            }
            writeln!(
                out,
                "{}: delta = {}, schedulable: {}",
                options.strategy,
                outcome.length(),
                outcome.is_schedulable()
            )?;
            let (graph, arch) = (problem.graph(), problem.arch());
            write!(out, "{}", render_tables(&outcome.schedule, graph, arch))?;
            write!(out, "{}", render_medl(&outcome.schedule, arch))?;
            if options.gantt {
                write!(out, "{}", render_gantt(&outcome.schedule, graph, arch, 72))?;
            }
            if let Some(path) = &options.json {
                let report = solution_report(
                    options.strategy.name(),
                    problem.graph(),
                    &node_names,
                    &outcome,
                );
                std::fs::write(path, to_json(&report))
                    .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
                writeln!(out, "report written to {path}")?;
            }
            Ok(())
        }
        "inject" => {
            let outcome = optimize(&problem, options.strategy, &options.search_config())
                .map_err(|e| e.to_string())?;
            let replay = replay_scenarios(
                &outcome.schedule,
                problem.graph(),
                problem.fault_model(),
                options.scenarios,
                options.seed,
            );
            if let Some(violation) = replay.violations.first() {
                return Err(CliError::Other(violation.clone()));
            }
            writeln!(
                out,
                "{} scenarios replayed: worst realized length {} <= bound {}",
                replay.scenarios,
                replay.worst_length,
                outcome.length()
            )?;
            Ok(())
        }
        "repair" => {
            if options.deltas.is_empty() {
                return Err(CliError::Usage(
                    "repair needs at least one --delta <spec>".to_owned(),
                ));
            }
            let names = ftdes_io::DeltaNames {
                nodes: node_names.clone(),
                processes: problem
                    .graph()
                    .processes()
                    .iter()
                    .map(|p| p.name.clone())
                    .collect(),
            };
            let delta = parse_delta_with(&options.deltas, &names)
                .map_err(|e| CliError::Parse(e.to_string()))?;
            let outcome = optimize(&problem, options.strategy, &options.search_config())
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "intact {}: delta = {}, schedulable: {}",
                options.strategy,
                outcome.length(),
                outcome.is_schedulable()
            )?;
            writeln!(out, "applying: {delta}")?;
            let budget = RepairBudget::from_total(Duration::from_millis(options.repair_ms));
            let repaired = repair(
                &problem,
                &outcome.design,
                &delta,
                &budget,
                &options.search_config(),
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "compatibility: {}/{} decisions survive ({} dirty, {} removed)",
                repaired.report.clean().len(),
                repaired.report.clean().len() + repaired.report.dirty().len(),
                repaired.report.dirty().len(),
                repaired.report.removed().len()
            )?;
            for attempt in &repaired.attempts {
                let length = match attempt.length {
                    Some(l) => format!(", delta = {l}"),
                    None => String::new(),
                };
                writeln!(
                    out,
                    "  {}: {:?} in {:?}{length}",
                    attempt.rung, attempt.status, attempt.elapsed
                )?;
            }
            writeln!(
                out,
                "repaired by {}: delta = {}, schedulable: {}",
                repaired.rung,
                repaired.length(),
                repaired.is_schedulable()
            )?;
            if !repaired.is_schedulable() {
                return Err(CliError::Other(
                    "no schedulable repair within the budget".to_owned(),
                ));
            }
            let post = &repaired.problem;
            let replay = replay_scenarios(
                &repaired.schedule,
                post.graph(),
                post.fault_model(),
                options.scenarios,
                options.seed,
            );
            if let Some(violation) = replay.violations.first() {
                return Err(CliError::Other(violation.clone()));
            }
            writeln!(
                out,
                "{} scenarios replayed against the repaired schedule: all complete in bound",
                replay.scenarios
            )?;
            if options.gantt {
                write!(
                    out,
                    "{}",
                    render_gantt(&repaired.schedule, post.graph(), post.arch(), 72)
                )?;
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    }
}

/// Flags of the `sweep` subcommands.
struct SweepOptions {
    store: Option<String>,
    spec: Option<String>,
    out: Option<String>,
    workers: usize,
}

impl SweepOptions {
    fn parse(args: &[String]) -> Result<SweepOptions, CliError> {
        let mut o = SweepOptions {
            store: None,
            spec: None,
            out: None,
            workers: 1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--store" => o.store = Some(value("--store")?),
                "--spec" => o.spec = Some(value("--spec")?),
                "--out" => o.out = Some(value("--out")?),
                "--workers" => {
                    o.workers = parse_count("--workers", &value("--workers")?, MAX_THREADS)
                        .map_err(CliError::Usage)?;
                }
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown sweep flag {other:?}\n{}",
                        sweep_usage()
                    )))
                }
            }
        }
        Ok(o)
    }

    fn store(&self) -> Result<&str, CliError> {
        self.store
            .as_deref()
            .ok_or_else(|| CliError::Usage("sweep needs --store <log.jsonl>".to_owned()))
    }

    fn worker_config(&self) -> WorkerConfig {
        WorkerConfig {
            worker: format!("cli-{}", std::process::id()),
            workers: self.workers,
        }
    }
}

fn run_sweep(out: &mut impl Write, args: &[String]) -> Result<(), CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(CliError::Usage(sweep_usage()));
    };
    let o = SweepOptions::parse(rest)?;
    match sub.as_str() {
        "run" => {
            let spec_path = o
                .spec
                .as_deref()
                .ok_or_else(|| CliError::Usage("sweep run needs --spec <sweep.txt>".to_owned()))?;
            let text = std::fs::read_to_string(spec_path)
                .map_err(|e| CliError::Io(format!("reading {spec_path}: {e}")))?;
            let spec =
                parse_sweep(&text).map_err(|e| CliError::Parse(format!("{spec_path}: {e}")))?;
            let jobs = spec.jobs();
            // Announce the sweep only once its store exists.
            let (mut store, mut state) =
                SweepStore::create(std::path::Path::new(o.store()?), spec.name(), &jobs)
                    .map_err(store_err)?;
            writeln!(
                out,
                "sweep {}: {} jobs -> {}",
                spec.name(),
                jobs.len(),
                o.store()?
            )?;
            drive_sweep(out, &o, &mut store, &mut state)?;
            finish_sweep(out, &o, &state)
        }
        "resume" => {
            let (mut store, mut state, report) =
                SweepStore::open(std::path::Path::new(o.store()?)).map_err(store_err)?;
            if report.dropped_torn_line {
                writeln!(
                    out,
                    "recovered from a torn append (dropped the partial line)"
                )?;
            }
            writeln!(
                out,
                "resuming sweep {} from {} replayed events",
                state.sweep, report.events
            )?;
            drive_sweep(out, &o, &mut store, &mut state)?;
            finish_sweep(out, &o, &state)
        }
        "status" => {
            let (state, report) =
                SweepStore::replay(std::path::Path::new(o.store()?)).map_err(store_err)?;
            print_status(out, &state, report.events, report.dropped_torn_line)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown sweep subcommand {other:?}\n{}",
            sweep_usage()
        ))),
    }
}

/// Drives the sweep to a settled state with `--workers N` workers,
/// under the crash injector `FTDES_CRASH_AT` arms.
fn drive_sweep(
    out: &mut impl Write,
    o: &SweepOptions,
    store: &mut SweepStore,
    state: &mut SweepState,
) -> Result<(), CliError> {
    let mut injector = Injector::from_env().map_err(CliError::Usage)?;
    let cfg = o.worker_config();
    let report =
        drive(store, state, &SweepExec::new(), &mut injector, &cfg).map_err(|e| match e {
            ftdes_serve::DriveError::Store(s) => store_err(s),
            other => CliError::Other(other.to_string()),
        })?;
    writeln!(
        out,
        "drove sweep: {} executed, {} reclaimed, {} quarantined, {} blocked",
        report.executed, report.reclaimed, report.quarantined, report.blocked
    )?;
    Ok(())
}

/// Prints the outcome and writes `--out` (deterministic job-order
/// JSON — the file two independent complete runs must agree on
/// byte-for-byte).
fn finish_sweep(
    out: &mut impl Write,
    o: &SweepOptions,
    state: &SweepState,
) -> Result<(), CliError> {
    print_status(out, state, 0, false)?;
    if let Some(path) = &o.out {
        if !state.is_complete() {
            return Err(CliError::Other(
                "sweep settled with unfinished jobs; not writing --out".to_owned(),
            ));
        }
        let json = results_json(state)?;
        std::fs::write(path, json).map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
        writeln!(out, "results written to {path}")?;
    }
    if !state.is_complete() {
        return Err(CliError::Other(
            "sweep settled but some jobs are quarantined or blocked".to_owned(),
        ));
    }
    Ok(())
}

/// Every committed result in job order, as one stable JSON document.
fn results_json(state: &SweepState) -> Result<String, CliError> {
    let jobs: Vec<Value> = state
        .jobs()
        .map(|job| {
            Value::Object(vec![
                ("name".to_owned(), Value::Str(job.spec.name.clone())),
                (
                    "result".to_owned(),
                    state.result(job.spec.id).cloned().unwrap_or(Value::Null),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("sweep".to_owned(), Value::Str(state.sweep.clone())),
        ("jobs".to_owned(), Value::Array(jobs)),
    ]);
    serde_json::to_string(&doc)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| CliError::Other(format!("encoding results: {e:?}")))
}

fn print_status(
    out: &mut impl Write,
    state: &SweepState,
    events: usize,
    torn: bool,
) -> io::Result<()> {
    let c = state.counts();
    writeln!(
        out,
        "sweep {} [fp {:016x}]: {} done, {} ready, {} waiting, {} claimed, {} quarantined{}{}",
        state.sweep,
        state.spec_fp,
        c.done,
        c.ready,
        c.waiting,
        c.claimed,
        c.quarantined,
        if events > 0 {
            format!(" ({events} events replayed)")
        } else {
            String::new()
        },
        if torn { ", torn line skipped" } else { "" },
    )?;
    for (job, blocked) in state.jobs().zip(state.blocked()) {
        let line = match &job.status {
            JobStatus::Done { .. } => continue,
            JobStatus::Ready if state.deps_done(job.spec.id) => "ready".to_owned(),
            JobStatus::Ready if blocked => "blocked (dependency quarantined)".to_owned(),
            JobStatus::Ready => "waiting on dependencies".to_owned(),
            JobStatus::Claimed { worker, attempt } => {
                format!("claimed by {worker} (attempt {attempt}, no outcome yet)")
            }
            JobStatus::Quarantined => format!(
                "quarantined: {}",
                job.failures.last().map_or("", String::as_str)
            ),
        };
        writeln!(out, "  {}: {line}", job.spec.name)?;
    }
    Ok(())
}

fn sweep_usage() -> String {
    "usage: ftdes sweep run    --spec <sweep.txt> --store <log.jsonl> [--out results.json]\n\
     \x20                     [--workers N]\n\
     \x20      ftdes sweep resume --store <log.jsonl> [--out results.json] [--workers N]\n\
     \x20      ftdes sweep status --store <log.jsonl>\n\
     specs: `sweep overhead|chi|repair` files, e.g. crates/bench/sweeps/table1a.sweep\n\
     crash drills: FTDES_CRASH_AT=<fault-point>[:<n>] aborts the driver at a registered\n\
     durability boundary; `sweep resume` then continues from the log"
        .to_owned()
}

fn usage() -> String {
    format!(
        "usage: ftdes <solve|inject|repair|info|sweep> <problem.ftd | --family comm-heavy|paper> [flags]\n\
     flags: --strategy mxr|mx|mr|sfx|nft  --time-ms N  --goal deadline|length\n\
     \x20      --json out.json  --gantt  --bus-opt  --scenarios N (at most {MAX_SCENARIOS})  --seed S\n\
     \x20      --portfolio N (diversified parallel tabu workers, mxr|mx|mr only; at most {MAX_THREADS})\n\
     \x20      --epoch-candidates N (candidates per worker between elite exchanges)\n\
     repair: --delta kill-node:N1|degrade-node:N1:150|rescale-wcet:120|remove-process:P2\n\
     \x20      --delta add-process:name:N0=10ms,...  (repeatable)  --repair-ms N\n\
     generated instances: --family comm-heavy|paper  --procs N (at most {MAX_MERGED_PROCESSES})\n\
     \x20      --nodes N (procs × nodes at most {MAX_PROCESS_NODE_PAIRS})  --k N  --mu-ms N\n\
     \x20      --chi-ms N (checkpoint overhead)  --max-checkpoints N (move axis cap)\n\
     \x20      comm-heavy knobs, finite and non-negative: --density F (mean edges/process;\n\
     \x20      density × procs at most {MAX_GENERATED_EDGES} edges)  --msg-wcet-ratio F"
    )
}
