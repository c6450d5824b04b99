//! The four workloads and their input path.
//!
//! Every instance travels the `ftdes solve <file>` input path:
//! generate → [`write_problem`] → [`parse_problem`] →
//! [`ProblemSpec::into_problem`]. The benchmark's seed picks the
//! instances; the optimizer only ever sees the parsed problem.

use std::time::{Duration, Instant};

use ftdes_core::Problem;
use ftdes_gen::{comm_heavy, cruise_controller, paper_workload, CommHeavyParams};
use ftdes_io::{parse_problem, write_problem, ProblemSpec};
use ftdes_model::application::Application;
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::policy::{MappingConstraint, PolicyConstraint};
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper §6 family: 40 processes, 4 nodes, k = 3, µ = 5 ms; MXR at
    /// a fixed iteration budget, then a warm repair after killing the
    /// most-loaded node.
    Paper4n,
    /// 64 processes, 12 nodes, k = 3; MXR at a fixed iteration budget.
    Paper12n,
    /// `CommHeavyParams::stress(32)`, 4 nodes, k = 2; MXR at a fixed
    /// iteration budget, then bus-access optimization of the winner.
    CommStress,
    /// The cruise controller under the deadline goal through a
    /// 2-worker portfolio.
    CruiseDeadline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper4n,
        Workload::Paper12n,
        Workload::CommStress,
        Workload::CruiseDeadline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4n => "paper_4n",
            Workload::Paper12n => "paper_12n",
            Workload::CommStress => "comm_stress",
            Workload::CruiseDeadline => "cruise_deadline",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances per run: 30 distinct ones, so the run's figures
    /// average over the generator's spread and the tail has ten
    /// instances beyond it. Consecutive paper-family seeds cycle
    /// through every (graph structure, WCET distribution) pair of
    /// `paper_workload`; the cruise controller cycles through its six
    /// slot orders.
    pub fn instances(self) -> usize {
        30
    }

    /// Rounds over the instances a run of `seconds` makes: a fixed
    /// number for a given `--seconds`, derived from the round's
    /// duration on the reference host (2-vCPU x86-64 container), so
    /// two builds always do the same work and a run there lasts about
    /// `seconds`. A faster build must not buy itself more repeats:
    /// every instance is summarized by its fastest one.
    pub fn rounds(self, seconds: u64) -> usize {
        let round_s = match self {
            Workload::Paper4n => 10.0,
            Workload::Paper12n => 12.0,
            Workload::CommStress => 11.0,
            Workload::CruiseDeadline => 2.0,
        };
        ((seconds as f64 / round_s).round() as usize).max(1)
    }

    /// Tabu-iteration budget of one solve (the deadline workload stops
    /// at the first schedulable design instead).
    pub fn iterations(self) -> usize {
        match self {
            Workload::Paper4n => 300,
            Workload::Paper12n => 100,
            Workload::CommStress => 40,
            Workload::CruiseDeadline => 10_000,
        }
    }
}

/// One solvable instance of a run.
pub struct Instance {
    /// Generator seed (also the portfolio seed on the cruise
    /// controller).
    pub seed: u64,
    pub problem: Problem,
    /// Size of the written problem file.
    pub file_bytes: usize,
}

/// Wall time of each input stage, summed over a run's instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub write: Duration,
    pub parse: Duration,
    pub build: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.write + self.parse + self.build
    }
}

/// Medians over the set-up repetitions of one run.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub generate_s: f64,
    pub write_s: f64,
    pub parse_s: f64,
    pub build_s: f64,
}

/// Graph period and deadline of the generated families: far beyond
/// any schedule length, so only δ decides the cost.
const GENERATED_DEADLINE: Time = Time::from_ms(3_600_000);
/// Per-byte bus time of the paper family (4-byte slots of 10 ms).
const PAPER_BYTE_TIME: Time = Time::from_us(2_500);
/// Per-byte bus time of the cruise controller's TTP bus.
const CC_BYTE_TIME: Time = Time::from_us(500);
/// Every slot order of the cruise controller's three nodes. A run
/// solves each equally often (the slowest needs about 15× the
/// iterations of the fastest, so drawing them at random would swamp
/// the timing with instance mix); the seed varies the portfolio's
/// start perturbation.
const CC_SLOT_ORDERS: [[u32; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn instance_seed(workload: Workload, seed: u64, i: usize) -> u64 {
    let k = workload.instances() as u64;
    seed.wrapping_mul(k).wrapping_add(i as u64)
}

fn generated_spec(workload: Workload, generator_seed: u64) -> Result<ProblemSpec, String> {
    let (nodes, k, mu) = match workload {
        Workload::Paper4n => (4, 3, Time::from_ms(5)),
        Workload::Paper12n => (12, 3, Time::from_ms(5)),
        Workload::CommStress => (4, 2, Time::from_ms(5)),
        Workload::CruiseDeadline => unreachable!("the cruise controller is not generated"),
    };
    let arch = Architecture::with_node_count(nodes);
    let (work, byte_time) = match workload {
        Workload::Paper4n => (paper_workload(40, &arch, generator_seed), PAPER_BYTE_TIME),
        Workload::Paper12n => (paper_workload(64, &arch, generator_seed), PAPER_BYTE_TIME),
        _ => {
            let params = CommHeavyParams::stress(32);
            (
                comm_heavy(&params, &arch, generator_seed),
                params.byte_time(),
            )
        }
    };
    let largest = work
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, byte_time).map_err(|e| e.to_string())?;
    Ok(ProblemSpec {
        arch,
        fault_model: FaultModel::new(k, mu),
        bus,
        application: Application::single(work.graph, GENERATED_DEADLINE, GENERATED_DEADLINE),
        wcet: vec![work.wcet],
        fixed_mappings: Vec::new(),
        fixed_policies: Vec::new(),
    })
}

/// The paper's cruise controller (32 processes on ETM/ABS/TCM,
/// D = 250 ms, k = 2, µ = 2 ms) on a 0.5 ms/byte bus, with its
/// designer-fixed sensor/actuator mappings, under the `index`-th of
/// the six TDMA slot orders (a designer input the paper leaves free;
/// its bus-access step optimizes it).
fn cruise_spec(index: usize) -> Result<ProblemSpec, String> {
    let cc = cruise_controller();
    let largest = cc
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1);
    let order: Vec<NodeId> = CC_SLOT_ORDERS[index]
        .iter()
        .map(|&n| NodeId::new(n))
        .collect();
    let bus = BusConfig::with_order(order, largest, CC_BYTE_TIME).map_err(|e| e.to_string())?;
    let mut fixed_mappings = Vec::new();
    let mut fixed_policies = Vec::new();
    for i in 0..cc.graph.process_count() {
        let p = ProcessId::new(i as u32);
        if let MappingConstraint::Fixed(node) = cc.constraints.mapping(p) {
            fixed_mappings.push((0, p, node));
        }
        let policy = cc.constraints.policy(p);
        if policy != PolicyConstraint::Free {
            fixed_policies.push((0, p, policy));
        }
    }
    Ok(ProblemSpec {
        arch: cc.arch,
        fault_model: cc.fault_model,
        bus,
        application: Application::single(cc.graph, cc.period, cc.deadline),
        wcet: vec![cc.wcet],
        fixed_mappings,
        fixed_policies,
    })
}

/// Builds every instance of one run once, timing each stage.
pub fn build(workload: Workload, seed: u64) -> Result<(Vec<Instance>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut instances = Vec::with_capacity(workload.instances());
    for i in 0..workload.instances() {
        let generator_seed = instance_seed(workload, seed, i);
        let t = Instant::now();
        let spec = match workload {
            Workload::CruiseDeadline => cruise_spec(i % CC_SLOT_ORDERS.len())?,
            _ => generated_spec(workload, generator_seed)?,
        };
        times.generate += t.elapsed();

        let t = Instant::now();
        let text = write_problem(&spec);
        times.write += t.elapsed();

        let t = Instant::now();
        let parsed = parse_problem(&text).map_err(|e| format!("written problem reparses: {e}"))?;
        times.parse += t.elapsed();

        let t = Instant::now();
        let (problem, _merged) = parsed.into_problem().map_err(|e| e.to_string())?;
        times.build += t.elapsed();

        instances.push(Instance {
            seed: generator_seed,
            problem,
            file_bytes: text.len(),
        });
    }
    Ok((instances, times))
}

/// Runs the input path `reps` times and returns the last build's
/// instances with the median stage times.
pub fn setup(workload: Workload, seed: u64, reps: usize) -> Result<(Vec<Instance>, Setup), String> {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (instances, times) = build(workload, seed)?;
        samples.push(times);
        last = Some(instances);
    }
    let med = |f: fn(&SetupTimes) -> Duration| {
        median(
            &samples
                .iter()
                .map(|t| f(t).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let setup = Setup {
        generate_s: med(|t| t.generate),
        write_s: med(|t| t.write),
        parse_s: med(|t| t.parse),
        build_s: med(|t| t.build),
    };
    Ok((last.expect("at least one repetition"), setup))
}
