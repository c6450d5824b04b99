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
//! Each design's MEDL is pinned too, as a digest of every frame's
//! round, slot, sender, times, bytes and message tags in order.
//!
//! The constants were recorded with an earlier placement core; a
//! change that moves one is a change of the scheduler's semantics,
//! not a refactoring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftdes::gen::{comm_heavy, paper_workload, CommHeavyParams, Workload};
use ftdes::model::prelude::*;
use ftdes::sched::{list_schedule, schedule_cost, CostScratch, ScheduleOptions};
use ftdes::ttp::{BusConfig, MedlEntry};

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

/// FNV-1a over every field of every MEDL frame, in order.
fn medl_digest(medl: &[MedlEntry]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in medl {
        for v in [
            f.round,
            f.slot as u64,
            f.sender.index() as u64,
            f.start.as_us(),
            f.end.as_us(),
            u64::from(f.used_bytes),
            f.messages.len() as u64,
        ] {
            eat(v);
        }
        for m in &f.messages {
            eat(m.edge.index() as u64);
            eat(u64::from(m.sender_replica));
        }
    }
    h
}

/// The `(violation, length)` pairs in µs of `DESIGNS` seeded random
/// designs and the digests of their MEDLs, asserting that
/// `list_schedule` and `schedule_cost` agree on each cost.
fn costs(inst: &Instance, policies: Policies, seed: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = CostScratch::default();
    let w = &inst.workload;
    (0..DESIGNS)
        .map(|i| {
            let design = random_design(inst, policies, &mut rng);
            let full =
                list_schedule(&w.graph, &inst.arch, &w.wcet, &inst.fm, &inst.bus, &design).unwrap();
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
            assert_eq!(
                full.cost(),
                cost,
                "design {i}: list_schedule vs schedule_cost"
            );
            (
                (cost.violation.as_us(), cost.length.as_us()),
                medl_digest(&full.medl()),
            )
        })
        .unzip()
}

fn assert_golden(
    set: &str,
    (got, medls): (Vec<(u64, u64)>, Vec<u64>),
    golden: &[(u64, u64)],
    golden_medls: &[u64],
) {
    assert_eq!(got.len(), golden.len(), "{set}: design count");
    for (i, (g, want)) in got.iter().zip(golden).enumerate() {
        assert_eq!(g, want, "{set}: design {i} (violation, length) in µs");
    }
    assert_eq!(medls.len(), golden_medls.len(), "{set}: MEDL count");
    for (i, (g, want)) in medls.iter().zip(golden_medls).enumerate() {
        assert_eq!(g, want, "{set}: design {i} MEDL digest");
    }
}

#[test]
fn paper_40_4_3_costs_are_pinned() {
    let inst = paper_instance(40, 4, FaultModel::new(3, Time::from_ms(5)), 17, 1_200);
    assert_golden(
        "paper",
        costs(&inst, Policies::Mixed, 1),
        &GOLDEN_PAPER,
        &MEDL_PAPER,
    );
}

#[test]
fn comm_heavy_costs_are_pinned() {
    let inst = comm_instance();
    assert_golden(
        "comm",
        costs(&inst, Policies::Mixed, 2),
        &GOLDEN_COMM,
        &MEDL_COMM,
    );
}

#[test]
fn checkpointed_costs_are_pinned() {
    let fm = FaultModel::new(2, Time::from_ms(5)).with_checkpoint_overhead(Time::from_ms(2));
    let inst = paper_instance(24, 3, fm, 9, 500);
    assert_golden(
        "checkpointed",
        costs(&inst, Policies::Checkpointed, 3),
        &GOLDEN_CHECKPOINTED,
        &MEDL_CHECKPOINTED,
    );
}

#[test]
fn all_replicated_costs_are_pinned() {
    let inst = comm_instance();
    assert_golden(
        "replicated",
        costs(&inst, Policies::Replicated, 4),
        &GOLDEN_REPLICATED,
        &MEDL_REPLICATED,
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
const MEDL_PAPER: [u64; DESIGNS] = [
    0x171e8fd794582c1d,
    0x0c02ee2e4ddbcdf2,
    0x0ca78c85f57a0c1f,
    0x498b1fb81ab37a15,
    0xf3714977259c33fd,
    0x82b8935c7f2722da,
    0xf930af9149ce2b52,
    0xcc6bad6e116de1ef,
    0xa5bcfafe09189b96,
    0x9eadf6d469a651a1,
    0x86b5ea541ec5a08d,
    0xa6f1234b0a7273c3,
    0xedf502a5c96e3d76,
    0x5b99c63768ac2412,
    0xfb3cdb05d9894ded,
    0x80b97a80475b6c0d,
    0xfc5fd49f0c07b157,
    0xb3d5c50758a8a17e,
    0xdefb7d2e9fa9f69d,
    0xf84ff01e8b5951f4,
    0x39bb6c1862ce7d00,
    0x2236a13a037c7334,
    0xdb093730a9060407,
    0x3b8c34d19ef8c923,
    0xe946f3c71534caf7,
    0xa108ba7ed754cb4d,
    0xbd0fae4ee57b0f1c,
    0x861b061369d5de33,
    0xdd333d966ad6052e,
    0x0792c049ae7a1087,
    0xfd98556bdf8774e3,
    0x8aa677b9886d0385,
];
const MEDL_COMM: [u64; DESIGNS] = [
    0x48e95cb98e7c3bf3,
    0xcfa705245b3553ad,
    0x06a351d705bc7f89,
    0xdb6bc89825a2eb08,
    0x58aa378c90c14970,
    0x4e6937a5bd305e8f,
    0x352e5244542eb768,
    0x3f45fad0d12f390f,
    0x6b0a329361b56026,
    0x53eaa45ae451c2fa,
    0x6ebdf5e72c2aaebb,
    0x61511870ec461cdd,
    0x9e56c29514996980,
    0x43f9762f2c6f91d7,
    0x1dcebb7906341c1c,
    0xe8e209163644d682,
    0xc9f63ab2303fda9e,
    0xcd773482681dad44,
    0x694d69ccb040c1fc,
    0xd08f37104dc139bc,
    0x7633e845722aa153,
    0x491fddd8bb7946ce,
    0xbcf269ea288beb6f,
    0x25d8b578241ac099,
    0xbbec52f3ac7058ab,
    0xcfb500744204a100,
    0x782a190473fe191b,
    0xaacf88d43cb5fedb,
    0xd6885c38d25e6380,
    0xe31bd9fe8c95e60a,
    0x5509cf163475b0a0,
    0xc7ea41a84fcbaead,
];
const MEDL_CHECKPOINTED: [u64; DESIGNS] = [
    0xa42b2804e91032aa,
    0xfd5d3241f1510261,
    0x3e0997abb74bbd3e,
    0xb120fae1d62d705f,
    0xca98a267a2ac16b9,
    0xd88b8fc92a26bc03,
    0x252937e4b3d59926,
    0x3c848bcf3d7933c5,
    0x53494fb546399d3e,
    0xe2e470b46e6144cd,
    0x5a5e9bca7034f4e6,
    0xc868d97889a6f9ab,
    0x3f13b4b5aafeaffa,
    0x37906448af00bdc5,
    0x3b60e3b38f30a578,
    0x56fa6b9aaf851285,
    0x30e39e21a3d97d53,
    0x5c4b45165ccc7697,
    0x03344f76dd18cf1c,
    0x8ca42d9c1e790467,
    0x848759c6fa40fa6e,
    0x162ee0c928396bff,
    0x41b36d930ac3d333,
    0xa689b0b5fbf1a0d2,
    0x0b744d1ac15ca211,
    0x80d6a961af936eab,
    0x0c5f5e2099cba839,
    0x007d383b5c950ee7,
    0xa090d5e72545b123,
    0x172c1dd7fce898eb,
    0xfa3a28afc1110c84,
    0x4e3d7f85a124bbc3,
];
const MEDL_REPLICATED: [u64; DESIGNS] = [
    0x2c0b5e6f1db9cfef,
    0x25bc90ed8efe92be,
    0xce3788512a579d79,
    0x98064d78a37bbb28,
    0xe651bd42aa0e3aa1,
    0x0f6f1ff5943aa64a,
    0xe30dd55668bc9589,
    0xca5a48ea0f55485f,
    0xbf33cf6097681c64,
    0x149bc06c732b899d,
    0x76c61e81d2c7bc77,
    0x8568c41e840d3528,
    0x315f6deb3ecd835a,
    0x16c713f798b57dd4,
    0xd5ddf0d73e9040e0,
    0x77341cb9694d1f4f,
    0x3d81ed283619c946,
    0xccb7c8847214626c,
    0x6f0a9932c3534f63,
    0xe5e7808c25c60ff8,
    0x216f4a6afa5e331b,
    0x80148a84347fcfb5,
    0xf774e99707a4cf07,
    0xaee142bfd82d8ae7,
    0xe68ffec2a1242970,
    0x7648f2952b733add,
    0xccc22399af7e450e,
    0x1335c8f5a37c2448,
    0x8efdaa515eceb08d,
    0xa21832ab5b8d8e8e,
    0x0f0d498611eb94f8,
    0x325d8e1c440fc7b1,
];
