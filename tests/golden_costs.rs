//! Golden costs: the exact `(violation, length)` of seeded random
//! designs, pinned as constants.
//!
//! The engine parity suite compares every fast path (resumed,
//! spliced, bounded, cached) against `list_schedule` — which runs the
//! same placement core as the paths it checks. A placement-core error
//! that is consistent across paths passes all of them. This suite
//! pins the costs themselves: the full materialization
//! (`list_schedule`) and the cost-only front-end (`schedule_cost`,
//! one scratch reused across the whole set) must both reproduce the
//! recorded value of every design, bit for bit.
//!
//! Four design sets cover the kernel's branches: a paper-family
//! 40-process / 4-node / k = 3 instance with mixed policies, a small
//! communication-heavy instance (senders with many remote messages
//! into congested slots), a checkpointed instance (χ > 0, random
//! segment counts) and an all-replicated (MR) set on the comm-heavy
//! instance (multi-replica deliveries and their contingencies).
//!
//! The constants were recorded with an earlier placement core; a
//! change that moves one is a change of the scheduler's semantics,
//! not a refactoring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftdes::gen::{comm_heavy, paper_workload, CommHeavyParams, Workload};
use ftdes::model::prelude::*;
use ftdes::sched::{list_schedule, schedule_cost, CostScratch, ScheduleOptions};
use ftdes::ttp::BusConfig;

/// Designs drawn per set.
const DESIGNS: usize = 32;

/// One instance with everything the scheduler reads.
struct Instance {
    workload: Workload,
    arch: Architecture,
    fm: FaultModel,
    bus: BusConfig,
}

/// How the random designs of a set pick their policies.
#[derive(Clone, Copy)]
enum Policies {
    /// Replication level uniform in `1..=min(k + 1, eligible)`.
    Mixed,
    /// As `Mixed`, plus 1–4 checkpoint segments on every policy with
    /// a re-execution budget.
    Checkpointed,
    /// Every process at its highest feasible replication level.
    Replicated,
}

/// Puts a deadline of `ms` milliseconds on every fifth process, so the
/// violation half of the cost is exercised too.
fn with_deadlines(mut workload: Workload, ms: u64) -> Workload {
    for i in (4..workload.graph.process_count()).step_by(5) {
        workload
            .graph
            .process_mut(ProcessId::new(i as u32))
            .deadline = Some(Time::from_ms(ms));
    }
    workload
}

fn paper_instance(
    processes: usize,
    nodes: usize,
    fm: FaultModel,
    seed: u64,
    deadline_ms: u64,
) -> Instance {
    let arch = Architecture::with_node_count(nodes);
    let workload = with_deadlines(paper_workload(processes, &arch, seed), deadline_ms);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    Instance {
        workload,
        arch,
        fm,
        bus,
    }
}

fn comm_instance() -> Instance {
    let arch = Architecture::with_node_count(4);
    let params = CommHeavyParams::stress(14);
    let workload = with_deadlines(comm_heavy(&params, &arch, 5), 9_000);
    let fm = params.fault_model(2, Time::from_ms(2));
    let largest = workload
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1)
        .max(1);
    let bus = BusConfig::initial(&arch, largest, params.byte_time()).unwrap();
    Instance {
        workload,
        arch,
        fm,
        bus,
    }
}

fn random_design(inst: &Instance, policies: Policies, rng: &mut StdRng) -> Design {
    let fm = &inst.fm;
    let decisions = inst
        .workload
        .graph
        .processes()
        .iter()
        .map(|p| {
            let mut pool: Vec<NodeId> = inst
                .workload
                .wcet
                .eligible_nodes(p.id)
                .map(|(n, _)| n)
                .collect();
            let max_r = fm.max_replicas().min(pool.len() as u32).max(1);
            let r = match policies {
                Policies::Replicated => max_r,
                Policies::Mixed | Policies::Checkpointed => rng.gen_range(1..=max_r),
            };
            let mapping: Vec<NodeId> = (0..r)
                .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                .collect();
            let mut policy = FtPolicy::new(p.id, r, fm).unwrap();
            if matches!(policies, Policies::Checkpointed) && policy.reexecutions() > 0 {
                policy = policy
                    .with_checkpoints(p.id, rng.gen_range(1..=4), fm)
                    .unwrap();
            }
            ProcessDesign::new(policy, mapping).unwrap()
        })
        .collect();
    Design::from_decisions(decisions)
}

/// The `(violation, length)` pairs in µs of `DESIGNS` seeded random
/// designs, asserting that `list_schedule` and `schedule_cost` agree
/// on each.
fn costs(inst: &Instance, policies: Policies, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = CostScratch::default();
    let w = &inst.workload;
    (0..DESIGNS)
        .map(|i| {
            let design = random_design(inst, policies, &mut rng);
            let full = list_schedule(&w.graph, &inst.arch, &w.wcet, &inst.fm, &inst.bus, &design)
                .unwrap()
                .cost();
            let cost = schedule_cost(
                &w.graph,
                &inst.arch,
                &w.wcet,
                &inst.fm,
                &inst.bus,
                &design,
                ScheduleOptions::default(),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(full, cost, "design {i}: list_schedule vs schedule_cost");
            (cost.violation.as_us(), cost.length.as_us())
        })
        .collect()
}

fn assert_golden(set: &str, got: &[(u64, u64)], golden: &[(u64, u64)]) {
    assert_eq!(got.len(), golden.len(), "{set}: design count");
    for (i, (g, want)) in got.iter().zip(golden).enumerate() {
        assert_eq!(g, want, "{set}: design {i} (violation, length) in µs");
    }
}

#[test]
fn paper_40_4_3_costs_are_pinned() {
    let inst = paper_instance(40, 4, FaultModel::new(3, Time::from_ms(5)), 17, 1_200);
    assert_golden("paper", &costs(&inst, Policies::Mixed, 1), &GOLDEN_PAPER);
}

#[test]
fn comm_heavy_costs_are_pinned() {
    let inst = comm_instance();
    assert_golden("comm", &costs(&inst, Policies::Mixed, 2), &GOLDEN_COMM);
}

#[test]
fn checkpointed_costs_are_pinned() {
    let fm = FaultModel::new(2, Time::from_ms(5)).with_checkpoint_overhead(Time::from_ms(2));
    let inst = paper_instance(24, 3, fm, 9, 500);
    assert_golden(
        "checkpointed",
        &costs(&inst, Policies::Checkpointed, 3),
        &GOLDEN_CHECKPOINTED,
    );
}

#[test]
fn all_replicated_costs_are_pinned() {
    let inst = comm_instance();
    assert_golden(
        "replicated",
        &costs(&inst, Policies::Replicated, 4),
        &GOLDEN_REPLICATED,
    );
}

const GOLDEN_PAPER: [(u64, u64); DESIGNS] = [
    (1406660, 3266170),
    (1046954, 3075124),
    (1460917, 3579229),
    (1358879, 3533880),
    (1176312, 3379359),
    (1158366, 3570758),
    (1364880, 3487636),
    (1334673, 3395190),
    (1480247, 3771216),
    (1431621, 3865339),
    (1160917, 3168157),
    (1186770, 3241216),
    (1034758, 3236941),
    (1184673, 3466374),
    (966070, 3177002),
    (1506660, 3497636),
    (1263175, 3296603),
    (1209224, 3271216),
    (1094673, 3322780),
    (1239178, 3179229),
    (1114673, 3484944),
    (1128307, 3378157),
    (1197346, 3487542),
    (1336660, 3563203),
    (1441966, 3699437),
    (1536660, 3675190),
    (1262250, 3026941),
    (1559178, 4033880),
    (1339143, 3251221),
    (1291180, 3275339),
    (1354673, 3359229),
    (1371276, 3698157),
];
const GOLDEN_COMM: [(u64, u64); DESIGNS] = [
    (6770884, 18009307),
    (4641126, 16447164),
    (9637522, 21201307),
    (5481126, 17109323),
    (7106884, 19620602),
    (6741126, 18251301),
    (6697522, 18258608),
    (8881450, 21033307),
    (9566310, 21369307),
    (8924493, 20781307),
    (7183041, 19057903),
    (6069126, 17112793),
    (5985126, 17688602),
    (7746442, 19604671),
    (3798442, 15131492),
    (8082442, 19343301),
    (4779483, 16916671),
    (7895326, 19773307),
    (10604493, 22327342),
    (6641479, 18291216),
    (5451996, 16516678),
    (9155278, 20898513),
    (8278607, 20223216),
    (6320493, 17948229),
    (7830442, 19403922),
    (7858234, 19255688),
    (7580493, 19518608),
    (10220252, 22377307),
    (8034986, 20361307),
    (7833126, 19841555),
    (8169126, 20190608),
    (10101126, 22041307),
];
const GOLDEN_CHECKPOINTED: [(u64, u64); DESIGNS] = [
    (347104, 1273893),
    (463000, 1182717),
    (463079, 1371652),
    (594538, 1588703),
    (419944, 1204666),
    (239698, 1228624),
    (333248, 1202754),
    (399895, 1303673),
    (476283, 1399348),
    (459581, 1417006),
    (493120, 1346371),
    (489068, 1381802),
    (476414, 1526417),
    (364754, 1239826),
    (492406, 1559541),
    (350571, 1274729),
    (394948, 1320692),
    (333750, 1447455),
    (435462, 1464809),
    (379958, 1193215),
    (443206, 1589673),
    (396612, 1294657),
    (494294, 1158935),
    (391006, 1297947),
    (437364, 1234083),
    (370155, 1379181),
    (512309, 1272281),
    (384596, 1489808),
    (518414, 1470765),
    (607230, 1586252),
    (452673, 1266002),
    (522799, 1641327),
];
const GOLDEN_REPLICATED: [(u64, u64); DESIGNS] = [
    (11276493, 23385307),
    (11193126, 23298608),
    (11190442, 23217307),
    (11526442, 23634608),
    (11108493, 23217307),
    (11024493, 23133307),
    (10940493, 22964671),
    (11445126, 23385307),
    (11193126, 23298608),
    (11526442, 23720671),
    (11276493, 23385307),
    (11445126, 23553307),
    (11193126, 23133307),
    (11193126, 23385307),
    (11445126, 23469307),
    (11445126, 23469307),
    (11445126, 23300671),
    (11193126, 23298608),
    (11361126, 23385307),
    (11445126, 23553307),
    (11529126, 23634608),
    (11193126, 23133307),
    (11276493, 23217307),
    (11276493, 23132671),
    (11024493, 23048671),
    (11529126, 23720671),
    (11360493, 23385307),
    (11526442, 23721307),
    (11361126, 23553307),
    (11445126, 23469307),
    (11190442, 23300671),
    (11109126, 23214608),
];
