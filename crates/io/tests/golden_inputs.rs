//! Golden inputs: the exact bytes `write_problem` renders and the
//! exact problems `parse_problem` + `ProblemSpec::into_problem` build
//! from them, pinned as constants.
//!
//! Every generated instance the benchmark solves travels
//! generate → write → parse → build. The constants pin that path end
//! to end on fixed seeds of the benchmark's three generated families
//! (`paper_4n`, `paper_12n`, `comm_stress`) and on the cruise
//! controller with its designer constraints: the FNV-1a hash and the
//! length of the written file, and the parsed problem's
//! `problem_fingerprint` (graph shape, messages, releases, deadlines,
//! every WCET entry). A change to the generators, the writer, the
//! parser or the WCET store that moves one changes the problems every
//! experiment solves; it is not a refactoring.

use ftdes_core::cache::problem_fingerprint;
use ftdes_gen::{comm_heavy, cruise_controller, paper_workload, CommHeavyParams, Workload};
use ftdes_io::{parse_problem, write_problem, ProblemSpec};
use ftdes_model::application::Application;
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::ids::{NodeId, ProcessId};
use ftdes_model::policy::{MappingConstraint, PolicyConstraint};
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

/// One pinned instance: generator seed, written length, FNV-1a hash
/// of the written bytes, fingerprint of the parsed problem.
type Golden = (u64, usize, u64, u64);

/// 40 processes on 4 nodes, k = 3: the six seeds cover every
/// (graph structure, WCET distribution) pair of `paper_workload`.
const PAPER_4N: [Golden; 6] = [
    (0, 5487, 0xe42d3881c9163a1f, 0x2f344410e413c96b),
    (1, 4746, 0x126ec4329d2e6fc5, 0x1fe60abe5262e34f),
    (2, 4854, 0x50b4642b3f302dc8, 0xe198afc60a7f9349),
    (3, 5571, 0x88ae6187dad971e8, 0x566a17df8652b4da),
    (4, 4716, 0xd3b5b6cea15fb067, 0x0fdd778a0d18fa61),
    (5, 4843, 0xdd93c2e2ff86c197, 0x12e5ec10af12d7f2),
];

/// 64 processes on 12 nodes, k = 3.
const PAPER_12N: [Golden; 6] = [
    (0, 18947, 0x5107980b5213ba6a, 0x26d3373708de9066),
    (1, 17873, 0x6f106c28b71060cc, 0x233d14dafc5636a3),
    (2, 18183, 0x7e168d059ca585c8, 0xee5afa78fad1e400),
    (3, 19591, 0x7565b1399ea174bd, 0x90287a6d19442589),
    (4, 17870, 0x69a48a315167ff1c, 0xff4d371cfda3a031),
    (5, 17918, 0xb427187733986387, 0x75c48d13975907ad),
];

/// `CommHeavyParams::stress(32)` on 4 nodes, k = 2: more edges asked
/// for than the complete DAG has, so every densify attempt runs.
const COMM_STRESS: [Golden; 4] = [
    (0, 14400, 0x8b4f49fef3c65d99, 0xa8e0392a5488d991),
    (1, 14403, 0x061b2791085cf3a2, 0x6333ad1fe7a9a12e),
    (2, 14437, 0x759e04fb1c462f7d, 0x047588ff8b6153fb),
    (3, 14453, 0x698588d15e9b42fa, 0x7ac38dc99a8c6e77),
];

/// The cruise controller under slot orders ETM-ABS-TCM (0) and
/// TCM-ABS-ETM (1), with its fixed mappings and policies.
const CRUISE: [Golden; 2] = [
    (0, 4960, 0x003a4bdf89526681, 0x5907ef99c17cd936),
    (1, 4960, 0x081a0db1a0262c49, 0x5907ef99c17cd936),
];

/// Graph period and deadline of the generated families.
const GENERATED_DEADLINE: Time = Time::from_ms(3_600_000);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn largest_message(work: &Workload) -> u32 {
    work.graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1)
}

fn generated(work: Workload, arch: Architecture, k: u32, byte_time: Time) -> ProblemSpec {
    let bus = BusConfig::initial(&arch, largest_message(&work), byte_time).expect("valid bus");
    ProblemSpec {
        arch,
        fault_model: FaultModel::new(k, Time::from_ms(5)),
        bus,
        application: Application::single(work.graph, GENERATED_DEADLINE, GENERATED_DEADLINE),
        wcet: vec![work.wcet],
        fixed_mappings: Vec::new(),
        fixed_policies: Vec::new(),
    }
}

fn paper(processes: usize, nodes: usize, seed: u64) -> ProblemSpec {
    let arch = Architecture::with_node_count(nodes);
    let work = paper_workload(processes, &arch, seed);
    generated(work, arch, 3, Time::from_us(2_500))
}

fn comm(seed: u64) -> ProblemSpec {
    let arch = Architecture::with_node_count(4);
    let params = CommHeavyParams::stress(32);
    let work = comm_heavy(&params, &arch, seed);
    generated(work, arch, 2, params.byte_time())
}

fn cruise(order: u64) -> ProblemSpec {
    let cc = cruise_controller();
    let slots: Vec<NodeId> = match order {
        0 => [0, 1, 2],
        _ => [2, 1, 0],
    }
    .into_iter()
    .map(NodeId::new)
    .collect();
    let largest = cc.graph.edges().iter().map(|e| e.message.size).max();
    let bus =
        BusConfig::with_order(slots, largest.unwrap_or(1), Time::from_us(500)).expect("valid bus");
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
    ProblemSpec {
        arch: cc.arch,
        fault_model: cc.fault_model,
        bus,
        application: Application::single(cc.graph, cc.period, cc.deadline),
        wcet: vec![cc.wcet],
        fixed_mappings,
        fixed_policies,
    }
}

/// Runs the input path on `spec` and returns its golden record.
fn record(seed: u64, spec: &ProblemSpec) -> Golden {
    let text = write_problem(spec);
    let parsed = parse_problem(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let (problem, _) = parsed
        .into_problem()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    (
        seed,
        text.len(),
        fnv1a(text.as_bytes()),
        problem_fingerprint(&problem),
    )
}

fn check(family: &str, golden: &[Golden], spec: impl Fn(u64) -> ProblemSpec) {
    let got: Vec<Golden> = golden.iter().map(|&(s, ..)| record(s, &spec(s))).collect();
    assert_eq!(
        got, golden,
        "{family}: the input path moved (seed, bytes, text hash, problem fingerprint)"
    );
}

#[test]
fn paper_4n_inputs_are_pinned() {
    check("paper_4n", &PAPER_4N, |s| paper(40, 4, s));
}

#[test]
fn paper_12n_inputs_are_pinned() {
    check("paper_12n", &PAPER_12N, |s| paper(64, 12, s));
}

#[test]
fn comm_stress_inputs_are_pinned() {
    check("comm_stress", &COMM_STRESS, comm);
}

#[test]
fn cruise_controller_inputs_are_pinned() {
    check("cruise", &CRUISE, cruise);
}
