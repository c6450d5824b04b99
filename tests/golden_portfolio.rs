//! Golden portfolio runs: the exact outcome of small seeded
//! portfolios, pinned as constants.
//!
//! `determinism_matrix` checks that a portfolio repeats itself across
//! thread counts and runs; it cannot see a change that moves every
//! run the same way. This suite pins what a run returns: the merged
//! design (by fingerprint) and its cost, the epoch and exchange
//! counts, the priority strategy the schedule was built under, and
//! each worker's label, tabu iterations, adoptions and best cost.
//!
//! Three instances, each at 2 and 4 workers and two epoch lengths:
//! a paper-family 14-process / 3-node / k = 2 instance and a
//! 16-process one on which the mobility-ordered worker supplies the
//! elite (both `MinimizeLength`), and the cruise controller under
//! `MeetDeadline`. A change that moves one of these constants changes
//! what the portfolio searches, not only how it runs.

use ftdes::core::cache::design_fingerprint;
use ftdes::core::{
    optimize_portfolio, Goal, PolicySpace, PortfolioConfig, PortfolioOutcome, Problem, SearchConfig,
};
use ftdes::gen::{cruise_controller, paper_workload};
use ftdes::model::application::Application;
use ftdes::model::merge::MergedApplication;
use ftdes::model::prelude::*;
use ftdes::sched::ScheduleCost;
use ftdes::ttp::BusConfig;

fn paper_problem(processes: usize, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(3);
    let w = paper_workload(processes, &arch, seed);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(2, Time::from_ms(5)),
        bus,
    )
}

/// The cruise controller on a 0.5 ms/byte bus whose TDMA round visits
/// the nodes in `order`.
fn cruise_problem(order: [u32; 3]) -> Problem {
    let cc = cruise_controller();
    let merged = MergedApplication::merge(&Application::single(
        cc.graph.clone(),
        cc.period,
        cc.deadline,
    ))
    .unwrap();
    let largest = cc
        .graph
        .edges()
        .iter()
        .map(|e| e.message.size)
        .max()
        .unwrap_or(1);
    let order = order.iter().map(|&n| NodeId::new(n)).collect();
    let bus = BusConfig::with_order(order, largest, Time::from_us(500)).unwrap();
    Problem::new(
        merged.graph().clone(),
        cc.arch,
        cc.wcet,
        cc.fault_model,
        bus,
    )
    .with_constraints(cc.constraints)
}

/// `(violation, length)` in microseconds. Taking `Into<Option<_>>`
/// lets the suite build against both shapes of `WorkerSummary::best`
/// (plain, and the `Option` it once was), so the constants can be
/// re-checked on older commits.
fn us(cost: impl Into<Option<ScheduleCost>>) -> (u64, u64) {
    let cost = cost.into().expect("a cost");
    (cost.violation.as_us(), cost.length.as_us())
}

/// One pinned run: name, design fingerprint, cost, epochs, exchanges,
/// priority strategy and per worker `(label, iterations, adoptions,
/// best)`.
type Golden = (
    &'static str,
    u128,
    (u64, u64),
    usize,
    usize,
    &'static str,
    &'static [(&'static str, usize, usize, (u64, u64))],
);

fn run(name: &str, problem: &Problem, cfg: &SearchConfig, pcfg: &PortfolioConfig) -> String {
    let p: PortfolioOutcome = optimize_portfolio(problem, PolicySpace::Mixed, cfg, pcfg).unwrap();
    let workers: Vec<String> = p
        .workers
        .iter()
        .map(|w| {
            format!(
                "(\"{}\", {}, {}, {:?})",
                w.label,
                w.tabu_iterations,
                w.adopted,
                us(w.best)
            )
        })
        .collect();
    format!(
        "(\"{name}\", {:#x}, {:?}, {}, {}, \"{}\", &[{}]),",
        design_fingerprint(&p.outcome.design, 0),
        us(p.outcome.schedule.cost()),
        p.epochs,
        p.exchanges,
        p.priority,
        workers.join(", ")
    )
}

fn render(g: &Golden) -> String {
    let (name, fingerprint, cost, epochs, exchanges, priority, workers) = *g;
    let workers: Vec<String> = workers
        .iter()
        .map(|(label, iterations, adopted, best)| {
            format!("(\"{label}\", {iterations}, {adopted}, {best:?})")
        })
        .collect();
    format!(
        "(\"{name}\", {fingerprint:#x}, {cost:?}, {epochs}, {exchanges}, \"{priority}\", &[{}]),",
        workers.join(", ")
    )
}

#[test]
fn portfolio_outcomes_are_pinned() {
    let length = |iterations| SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: None,
        max_tabu_iterations: iterations,
        threads: 1,
        ..SearchConfig::default()
    };
    let deadline = SearchConfig {
        goal: Goal::MeetDeadline,
        time_limit: None,
        max_tabu_iterations: 150,
        threads: 1,
        ..SearchConfig::default()
    };
    let instances = [
        ("paper14", paper_problem(14, 0), length(40)),
        ("paper16", paper_problem(16, 2), length(20)),
        ("cruise", cruise_problem([2, 1, 0]), deadline),
    ];
    let mut actual = Vec::new();
    for (name, problem, cfg) in &instances {
        for workers in [2usize, 4] {
            for epoch_candidates in [200usize, 600] {
                let pcfg = PortfolioConfig {
                    workers,
                    epoch_candidates,
                    seed: 0x5EED,
                };
                actual.push(run(
                    &format!("{name}/w{workers}/e{epoch_candidates}"),
                    problem,
                    cfg,
                    &pcfg,
                ));
            }
        }
    }
    let expected: Vec<String> = GOLDEN.iter().map(render).collect();
    assert!(
        actual == expected,
        "portfolio outcomes moved; the runs now read:\n{}",
        actual.join("\n")
    );
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("paper14/w2/e200", 0xf85eafbbb8b533fc6e274d1239732302, (0, 769577), 41, 34, "pcp", &[("w0:base+p0", 40, 2, (0, 769577)), ("w1:mobility+p1", 40, 32, (0, 790515))]),
    ("paper14/w2/e600", 0x4d41088edd891ec57507e3e877c298d, (0, 752068), 9, 7, "mobility", &[("w0:base+p0", 40, 7, (0, 769577)), ("w1:mobility+p1", 40, 0, (0, 752068))]),
    ("paper14/w4/e200", 0xcb2a569f51800e10c29603ac49133333, (0, 756599), 41, 42, "pcp", &[("w0:base+p0", 40, 4, (0, 756599)), ("w1:mobility+p1", 40, 32, (0, 790515)), ("w2:tenure*2+p2", 40, 3, (0, 756599)), ("w3:window/2+p3", 40, 3, (0, 756599))]),
    ("paper14/w4/e600", 0x4d41088edd891ec57507e3e877c298d, (0, 752068), 9, 21, "mobility", &[("w0:base+p0", 40, 7, (0, 769577)), ("w1:mobility+p1", 40, 0, (0, 752068)), ("w2:tenure*2+p2", 40, 7, (0, 769577)), ("w3:window/2+p3", 40, 7, (0, 769577))]),
    ("paper16/w2/e200", 0xaf52c9d7714e868f4b63440efc25dbdf, (0, 598276), 21, 20, "mobility", &[("w0:base+p0", 20, 20, (0, 633885)), ("w1:mobility+p1", 20, 0, (0, 598276))]),
    ("paper16/w2/e600", 0xaf52c9d7714e868f4b63440efc25dbdf, (0, 598276), 5, 4, "mobility", &[("w0:base+p0", 20, 4, (0, 609359)), ("w1:mobility+p1", 20, 0, (0, 598276))]),
    ("paper16/w4/e200", 0xaf52c9d7714e868f4b63440efc25dbdf, (0, 598276), 21, 60, "mobility", &[("w0:base+p0", 20, 20, (0, 633885)), ("w1:mobility+p1", 20, 0, (0, 598276)), ("w2:tenure*2+p2", 20, 20, (0, 633885)), ("w3:window/2+p3", 20, 20, (0, 609359))]),
    ("paper16/w4/e600", 0xaf52c9d7714e868f4b63440efc25dbdf, (0, 598276), 5, 12, "mobility", &[("w0:base+p0", 20, 4, (0, 609359)), ("w1:mobility+p1", 20, 0, (0, 598276)), ("w2:tenure*2+p2", 20, 4, (0, 609359)), ("w3:window/2+p3", 20, 4, (0, 609359))]),
    ("cruise/w2/e200", 0x8081e94a11af9467812ca7369c52d4f2, (2990, 252990), 151, 149, "pcp", &[("w0:base+p0", 150, 0, (2990, 252990)), ("w1:mobility+p1", 150, 149, (18330, 268330))]),
    ("cruise/w2/e600", 0x486c2359c38f6cd4154cc7b6e021e220, (0, 249400), 21, 20, "pcp", &[("w0:base+p0", 102, 2, (0, 249400)), ("w1:mobility+p1", 105, 18, (9300, 259300))]),
    ("cruise/w4/e200", 0xebd8a8ea1128f2e30a8c25d2c25ab41c, (0, 249400), 32, 37, "pcp", &[("w0:base+p0", 32, 2, (3900, 253900)), ("w1:mobility+p1", 32, 30, (18330, 268330)), ("w2:tenure*2+p2", 32, 4, (3900, 253900)), ("w3:window/2+p3", 94, 1, (0, 249400))]),
    ("cruise/w4/e600", 0x2a1f16c661dcc9d88d2d5d751595ef63, (0, 249400), 6, 8, "pcp", &[("w0:base+p0", 27, 1, (0, 249400)), ("w1:mobility+p1", 30, 5, (9300, 259300)), ("w2:tenure*2+p2", 30, 1, (3000, 253000)), ("w3:window/2+p3", 60, 1, (7500, 257500))]),
];
