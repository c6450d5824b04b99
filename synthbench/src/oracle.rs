//! The correctness oracle every returned design goes through.
//!
//! Four independent checks, none of which trusts the engine's fast
//! paths:
//!
//! 1. a from-scratch `list_schedule` of the design must reproduce the
//!    cost the search returned (under one of the ready-list priority
//!    strategies: the portfolio fields a mobility-ordered worker);
//! 2. `check_schedule` must find no structural violation;
//! 3. faultsim replay must complete every process within its analytic
//!    bound under every replayed scenario — exhaustively on the cruise
//!    controller, adversarial plus seeded random scenarios elsewhere;
//! 4. workload conditions: a deadline-goal result must be schedulable,
//!    and a repaired design must leave the killed node empty.

use std::time::{Duration, Instant};

use ftdes_core::Problem;
use ftdes_faultsim::{adversarial_scenario, enumerate_scenarios, random_scenarios, simulate};
use ftdes_model::design::Design;
use ftdes_model::ids::NodeId;
use ftdes_sched::validate::check_schedule;
use ftdes_sched::{list_schedule_with, PriorityStrategy, Schedule, ScheduleOptions};
use ftdes_ttp::config::BusConfig;

/// Which fault scenarios the replay covers.
#[derive(Debug, Clone, Copy)]
pub enum Scenarios {
    /// Every admissible scenario (`enumerate_scenarios`).
    Exhaustive,
    /// The adversarial scenario plus `random` seeded ones.
    Sampled { random: usize, seed: u64 },
}

/// What one design must satisfy.
pub struct Check<'a> {
    pub problem: &'a Problem,
    /// The bus the schedule was built on (bus-access optimization may
    /// have replaced the problem's).
    pub bus: &'a BusConfig,
    pub design: &'a Design,
    pub schedule: &'a Schedule,
    pub scenarios: Scenarios,
    pub require_schedulable: bool,
    pub killed: Option<NodeId>,
}

#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: Vec<String>,
    pub scenarios: usize,
    pub replay: Duration,
    pub total: Duration,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

pub fn verify(check: &Check<'_>) -> Verdict {
    let started = Instant::now();
    let mut v = Verdict::default();
    let (problem, schedule) = (check.problem, check.schedule);
    let graph = problem.graph();
    let fm = problem.fault_model();

    // A portfolio may return a design its mobility-ordered worker
    // scheduled, so the oracle replays every ready-list priority
    // strategy and accepts the one that reproduces the returned cost.
    let mut costs = Vec::new();
    for priority in [
        PriorityStrategy::PartialCriticalPath,
        PriorityStrategy::Mobility,
    ] {
        let options = ScheduleOptions {
            priority,
            ..ScheduleOptions::default()
        };
        match list_schedule_with(
            graph,
            problem.arch(),
            problem.wcet(),
            fm,
            check.bus,
            check.design,
            options,
        ) {
            Ok(scratch) => costs.push(scratch.cost()),
            Err(e) => v
                .violations
                .push(format!("from-scratch list_schedule failed: {e}")),
        }
    }
    if !costs.is_empty() && !costs.contains(&schedule.cost()) {
        v.violations.push(format!(
            "from-scratch costs {costs:?} differ from returned {:?}",
            schedule.cost()
        ));
    }

    let structural = check_schedule(schedule, graph);
    if let Some(first) = structural.first() {
        v.violations.push(format!(
            "check_schedule: {} violation(s), first {first:?}",
            structural.len()
        ));
    }

    let scenarios = match check.scenarios {
        Scenarios::Exhaustive => enumerate_scenarios(schedule, fm),
        Scenarios::Sampled { random, seed } => {
            let mut s = vec![adversarial_scenario(schedule, fm)];
            s.extend(random_scenarios(schedule, fm, random, seed));
            s
        }
    };
    let replay = Instant::now();
    for (i, scenario) in scenarios.iter().enumerate() {
        let report = simulate(schedule, graph, fm, scenario);
        if !report.all_processes_complete() {
            v.violations
                .push(format!("scenario {i}: not every process completes"));
        }
        if let Some((id, by)) = report.max_overrun() {
            v.violations.push(format!(
                "scenario {i}: instance {id} overran its analytic bound by {by}"
            ));
        }
        if check.require_schedulable && !report.deadline_misses().is_empty() {
            v.violations
                .push(format!("scenario {i}: a deadline is missed"));
        }
        if v.violations.len() > 8 {
            break;
        }
    }
    v.replay = replay.elapsed();
    v.scenarios = scenarios.len();

    if check.require_schedulable && !schedule.is_schedulable() {
        v.violations.push(format!(
            "design is not schedulable (length {})",
            schedule.length()
        ));
    }
    if let Some(node) = check.killed {
        if let Some(inst) = schedule
            .expanded()
            .instances()
            .iter()
            .find(|i| i.node == node)
        {
            v.violations.push(format!(
                "instance of {} still placed on killed node {node}",
                inst.process
            ));
        }
    }
    v.total = started.elapsed();
    v
}
