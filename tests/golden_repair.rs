//! Golden repair runs: the exact outcome of the repair ladder on small
//! seeded instances, pinned as constants.
//!
//! The repair suites check what every repair must satisfy (a valid,
//! verified design, a schedule bit-identical to a cold evaluation);
//! they cannot see a change that moves which rung wins or what it
//! returns. This suite pins, per run, the producing rung, the design
//! (by fingerprint) and its cost, the tabu iterations spent and every
//! attempt's rung, status and length.
//!
//! Two instances — a paper-family 14-process / 4-node and a
//! communication-heavy 10-process / 4-node one, both at k = 1 — each
//! first solved intact, then repaired after four deltas: the
//! most-loaded node killed, that node degraded, a global WCET rescale
//! and a removed process. Both minimize δ; the paper instance also
//! runs under `MeetDeadline`, where a rung stops at the first
//! schedulable design. Every rung gets a slice far beyond what its
//! iteration cap lets it use, so work and not the clock decides the
//! path, and every run is repeated at one and two evaluation threads,
//! which must agree.

use std::time::Duration;

use ftdes::bench::{iteration_config, Family, InstanceRequest};
use ftdes::core::cache::design_fingerprint;
use ftdes::core::repair::{repair, RepairBudget, RepairOutcome, RungStatus};
use ftdes::core::{optimize, Goal, Problem, SearchConfig, Strategy};
use ftdes::faultsim::most_loaded_node;
use ftdes::model::delta::ProblemDelta;
use ftdes::model::prelude::*;

/// A slice no rung can use up within its iteration cap.
const UNLIMITED: Duration = Duration::from_secs(24 * 60 * 60);

/// Tabu iterations of the intact solve and of the repair ladder.
const ITERATIONS: usize = 40;

/// The per-process deadline of the `MeetDeadline` runs.
const DEADLINE_MS: u64 = 450;

/// One pinned run: name, producing rung, design fingerprint,
/// `(violation, length)` in microseconds, tabu iterations and per
/// attempt `(rung, status, length in microseconds)`.
type Golden = (
    &'static str,
    &'static str,
    u128,
    (u64, u64),
    usize,
    &'static [(&'static str, &'static str, Option<u64>)],
);

fn status(s: &RungStatus) -> &'static str {
    match s {
        RungStatus::Accepted => "accepted",
        RungStatus::Rejected(_) => "rejected",
        RungStatus::TimedOut => "timed out",
        RungStatus::Skipped(_) => "skipped",
    }
}

fn render_outcome(name: &str, out: &RepairOutcome) -> String {
    let attempts: Vec<String> = out
        .attempts
        .iter()
        .map(|a| {
            format!(
                "(\"{}\", \"{}\", {:?})",
                a.rung,
                status(&a.status),
                a.length.map(Time::as_us)
            )
        })
        .collect();
    let cost = out.schedule.cost();
    format!(
        "(\"{name}\", \"{}\", {:#x}, {:?}, {}, &[{}]),",
        out.rung,
        design_fingerprint(&out.design, 0),
        (cost.violation.as_us(), cost.length.as_us()),
        out.stats.tabu_iterations,
        attempts.join(", ")
    )
}

fn render(g: &Golden) -> String {
    let (name, rung, fingerprint, cost, iterations, attempts) = *g;
    let attempts: Vec<String> = attempts
        .iter()
        .map(|(rung, status, length)| format!("(\"{rung}\", \"{status}\", {length:?})"))
        .collect();
    format!(
        "(\"{name}\", \"{rung}\", {fingerprint:#x}, {cost:?}, {iterations}, &[{}]),",
        attempts.join(", ")
    )
}

/// `problem` with a deadline of `deadline` on every process.
fn with_deadline(problem: &Problem, deadline: Time) -> Problem {
    let mut graph = problem.graph().clone();
    for i in 0..graph.process_count() {
        graph.process_mut(ProcessId::new(i as u32)).deadline = Some(deadline);
    }
    Problem::new(
        graph,
        problem.arch().clone(),
        problem.wcet().clone(),
        *problem.fault_model(),
        problem.bus().clone(),
    )
}

/// The four deltas, killing and degrading the node the intact design
/// leans on hardest.
fn deltas(heaviest: NodeId) -> [(&'static str, ProblemDelta); 4] {
    [
        ("kill-node", ProblemDelta::kill_node(heaviest)),
        ("degrade-node", ProblemDelta::degrade_node(heaviest, 150)),
        ("rescale-wcet", ProblemDelta::rescale_wcet(120)),
        (
            "remove-process",
            ProblemDelta::remove_process(ProcessId::new(3)),
        ),
    ]
}

#[test]
fn repair_outcomes_are_pinned() {
    let mu = Time::from_ms(5);
    let paper = InstanceRequest::new(Family::Paper, 14, 4, 1, mu, 2)
        .build()
        .unwrap();
    let tight = with_deadline(&paper, Time::from_ms(DEADLINE_MS));
    let comm = InstanceRequest::new(Family::CommHeavy, 10, 4, 1, mu, 2)
        .build()
        .unwrap();
    let instances = [
        ("paper", &paper, Goal::MinimizeLength),
        ("paper-deadline", &tight, Goal::MeetDeadline),
        ("comm", &comm, Goal::MinimizeLength),
    ];
    let budget = RepairBudget {
        localized: UNLIMITED,
        warm: UNLIMITED,
        scratch: UNLIMITED,
    };
    let expected: Vec<String> = GOLDEN.iter().map(render).collect();
    for threads in [1usize, 2] {
        let mut actual = Vec::new();
        for &(name, problem, goal) in &instances {
            let cfg = SearchConfig {
                goal,
                threads,
                ..iteration_config(ITERATIONS)
            };
            let intact = optimize(problem, Strategy::Mxr, &cfg).unwrap();
            let heaviest = most_loaded_node(&intact.schedule).unwrap();
            for (delta_name, delta) in deltas(heaviest) {
                let out = repair(problem, &intact.design, &delta, &budget, &cfg).unwrap();
                actual.push(render_outcome(&format!("{name}/{delta_name}"), &out));
            }
        }
        assert!(
            actual == expected,
            "repair outcomes moved at {threads} thread(s); the runs now read:\n{}",
            actual.join("\n")
        );
    }
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("paper/kill-node", "rung 2 (warm tabu)", 0x3252f0f6ac97a64bb54277c8c374130c, (0, 467150), 40, &[("rung 0 (revalidate)", "rejected", Some(575312)), ("rung 1 (localized tabu)", "accepted", Some(495557)), ("rung 2 (warm tabu)", "accepted", Some(467150))]),
    ("paper/degrade-node", "rung 2 (warm tabu)", 0xae147b5aafc4c29a0a992d11e2b1420c, (0, 398892), 40, &[("rung 0 (revalidate)", "rejected", Some(547843)), ("rung 1 (localized tabu)", "accepted", Some(427020)), ("rung 2 (warm tabu)", "accepted", Some(398892))]),
    ("paper/rescale-wcet", "rung 1 (localized tabu)", 0x12e694abaf0fff99e12a6e77e36c5895, (0, 454228), 40, &[("rung 0 (revalidate)", "rejected", Some(482707)), ("rung 1 (localized tabu)", "accepted", Some(454228)), ("rung 2 (warm tabu)", "accepted", Some(454228))]),
    ("paper/remove-process", "rung 2 (warm tabu)", 0xce7c56d82a24df0686da31cd175409a2, (0, 386838), 40, &[("rung 0 (revalidate)", "rejected", Some(387426)), ("rung 1 (localized tabu)", "accepted", Some(387426)), ("rung 2 (warm tabu)", "accepted", Some(386838))]),
    ("paper-deadline/kill-node", "rung 2 (warm tabu)", 0x16528327e7b7cd999a1ea79251ca38dd, (0, 438402), 18, &[("rung 0 (revalidate)", "rejected", Some(682550)), ("rung 1 (localized tabu)", "rejected", Some(451855)), ("rung 2 (warm tabu)", "accepted", Some(438402))]),
    ("paper-deadline/degrade-node", "rung 2 (warm tabu)", 0xc270f25f404a2484032f87b342bbf2ba, (0, 428767), 15, &[("rung 0 (revalidate)", "rejected", Some(607550)), ("rung 1 (localized tabu)", "rejected", Some(487550)), ("rung 2 (warm tabu)", "accepted", Some(428767))]),
    ("paper-deadline/rescale-wcet", "rung 3 (from scratch)", 0xf8cd70171b62ee626f7e9ff710e835a4, (4228, 454228), 80, &[("rung 0 (revalidate)", "rejected", Some(636560)), ("rung 1 (localized tabu)", "rejected", Some(473172)), ("rung 2 (warm tabu)", "rejected", Some(457917)), ("rung 3 (from scratch)", "rejected", Some(454228))]),
    ("paper-deadline/remove-process", "rung 0 (revalidate)", 0xc8f14281204efd248dbe989719cf1090, (0, 428767), 0, &[("rung 0 (revalidate)", "rejected", Some(428767)), ("rung 1 (localized tabu)", "accepted", Some(428767)), ("rung 2 (warm tabu)", "accepted", Some(428767))]),
    ("comm/kill-node", "rung 0 (revalidate)", 0x6629af02bdb5cef00ceecd7aef3f88b9, (0, 202283), 40, &[("rung 0 (revalidate)", "rejected", Some(202283)), ("rung 1 (localized tabu)", "accepted", Some(202283)), ("rung 2 (warm tabu)", "accepted", Some(202283))]),
    ("comm/degrade-node", "rung 0 (revalidate)", 0x13ff43c73f8b827f82a2c9fae532f003, (0, 324061), 40, &[("rung 0 (revalidate)", "rejected", Some(324061)), ("rung 1 (localized tabu)", "accepted", Some(324061)), ("rung 2 (warm tabu)", "accepted", Some(324061))]),
    ("comm/rescale-wcet", "rung 0 (revalidate)", 0x13ff43c73f8b827f82a2c9fae532f003, (0, 260250), 40, &[("rung 0 (revalidate)", "rejected", Some(260250)), ("rung 1 (localized tabu)", "accepted", Some(260250)), ("rung 2 (warm tabu)", "accepted", Some(260250))]),
    ("comm/remove-process", "rung 2 (warm tabu)", 0x650b745d6841cc6350faf42060dde173, (0, 187275), 40, &[("rung 0 (revalidate)", "rejected", Some(201524)), ("rung 1 (localized tabu)", "accepted", Some(201524)), ("rung 2 (warm tabu)", "accepted", Some(187275))]),
];
