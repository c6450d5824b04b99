//! Resumed-evaluation parity on the communication-heavy family, where
//! bookings overflow rounds: every candidate placed from position 0 on
//! its patched expansion, or spliced, bounded or not, costs what
//! from-scratch `list_schedule` says (on the paper's Table 1 instance
//! too), and whole searches walk one trajectory under a covering array
//! of the throughput knobs. `optimize_bus`'s memoized, bounded hill
//! climb ends where an unmemoized, unbounded one does. The oracle lives
//! in `tests/engine_parity`.

pub mod engine_parity;

use engine_parity::{
    comm_family, covering_array_agrees, gate, paper_family, walk_all, Pass, KNOB_ROWS,
};
use ftdes::bench::{Family, InstanceRequest};
use ftdes::core::bus_opt::{CAPACITY_MULTIPLES, MAX_ROUNDS};
use ftdes::core::initial::initial_mpa;
use ftdes::core::{
    optimize, optimize_bus, BusOptConfig, PolicySpace, Problem, SearchConfig, Strategy,
};
use ftdes::gen::CommHeavyParams;
use ftdes::model::prelude::*;
use ftdes::sched::{schedule_cost_bounded, CostOutcome, CostScratch, ScheduleCost};
use ftdes::ttp::BusConfig;

#[test]
fn resumed_equals_full_for_random_move_sequences() {
    let [dense, stress] = comm_family();
    walk_all(&[dense, stress, gate()], Pass::Unbounded);
}

#[test]
fn bounded_runs_classify_exactly_and_never_misorder() {
    let [dense, stress] = comm_family();
    walk_all(&[dense, stress, gate()], Pass::Bounded);
}

/// The covering array on the paper instance without χ.
#[test]
fn search_results_invariant_under_engines() {
    let [paper, _] = paper_family();
    covering_array_agrees(&[paper]);
}

#[test]
fn search_results_invariant_under_comm_engine_knobs() {
    covering_array_agrees(&comm_family());
}

#[test]
fn knob_rows_cover_every_pair() {
    for a in 0..6 {
        for b in a + 1..6 {
            for pair in [(false, false), (false, true), (true, false), (true, true)] {
                assert!(
                    KNOB_ROWS.iter().any(|row| (row[a], row[b]) == pair),
                    "knobs {a} and {b} never take {pair:?}"
                );
            }
        }
    }
}

/// The exact cost of `design` under `bus`, placed from scratch.
fn scratch_cost(problem: &Problem, bus: &BusConfig, design: &Design) -> ScheduleCost {
    let mut scratch = CostScratch::default();
    match schedule_cost_bounded(
        problem.graph(),
        problem.arch(),
        problem.wcet(),
        problem.fault_model(),
        bus,
        design,
        problem.schedule_options(),
        &mut scratch,
        None,
    )
    .unwrap()
    {
        CostOutcome::Exact(c) => c,
        CostOutcome::LowerBound(_) => unreachable!("unbounded runs are exact"),
    }
}

/// `optimize_bus`'s hill climb with every probe scored from scratch:
/// no cache, no resume, no bound. Returns the winning bus, its cost
/// and the number of accepted swaps.
fn from_scratch_climb(problem: &Problem, design: &Design) -> (BusConfig, ScheduleCost, usize) {
    let base = problem.bus();
    let mut best_bus = base.clone();
    let mut best_cost = scratch_cost(problem, base, design);
    let mut accepted = 0;
    for multiple in CAPACITY_MULTIPLES {
        let capacity = problem.largest_message() * multiple.max(1);
        let mut bus =
            BusConfig::with_order(base.slot_order().to_vec(), capacity, base.byte_time()).unwrap();
        let mut current = scratch_cost(problem, &bus, design);
        if current < best_cost {
            best_bus = bus.clone();
            best_cost = current;
        }
        let slots = bus.slots_per_round();
        for _ in 0..MAX_ROUNDS {
            let mut improved = false;
            for a in 0..slots {
                for b in (a + 1)..slots {
                    let cand = bus.swap_slots(a, b);
                    let c = scratch_cost(problem, &cand, design);
                    if c < current {
                        bus = cand;
                        current = c;
                        improved = true;
                        accepted += 1;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if current < best_cost {
            best_bus = bus;
            best_cost = current;
        }
    }
    (best_bus, best_cost, accepted)
}

#[test]
fn bus_opt_matches_a_from_scratch_climb() {
    // `optimize_bus` memoizes probe costs by bus and bounds each
    // probe by the climbing incumbent; a stale or aliased memo entry,
    // or a probe pruned when it improves, changes the climb and shows
    // up here as a different bus or cost.
    let cfg = BusOptConfig::default();
    let search = SearchConfig {
        max_tabu_iterations: 10,
        ..engine_parity::search_config()
    };
    let mut accepted = 0;
    for (problem, label) in [
        (engine_parity::paper(14, 4, 2, 6), "paper/6"),
        (
            engine_parity::comm(&CommHeavyParams::dense(12), 4, 2, 5),
            "comm/5",
        ),
        (
            engine_parity::comm(&CommHeavyParams::dense(16), 5, 1, 9),
            "comm/9",
        ),
    ] {
        let initial = initial_mpa(&problem, PolicySpace::Mixed).unwrap();
        let searched = optimize(&problem, Strategy::Mxr, &search).unwrap().design;
        for (design, which) in [(initial, "initial"), (searched, "mxr")] {
            let out = optimize_bus(&problem, &design, &cfg).unwrap();
            let (bus, cost, swaps) = from_scratch_climb(&problem, &design);
            assert_eq!(out.bus, bus, "{label} {which}: optimized bus differs");
            assert_eq!(out.schedule.cost(), cost, "{label} {which}: cost differs");
            accepted += swaps;
        }
    }
    assert!(
        accepted > 0,
        "no swap was accepted: the climb went untested"
    );
}

/// The two-process paper instance on `nodes` nodes (seed 1, k = 1) and
/// MXR's design for it after 20 tabu iterations.
fn two_process_instance(nodes: usize) -> (Problem, Design) {
    let problem = InstanceRequest::new(Family::Paper, 2, nodes, 1, Time::from_ms(5), 1)
        .build()
        .unwrap();
    let search = SearchConfig {
        max_tabu_iterations: 20,
        ..engine_parity::search_config()
    };
    let design = optimize(&problem, Strategy::Mxr, &search).unwrap().design;
    (problem, design)
}

/// The nodes that send a message under `design`, from its schedule.
fn senders(problem: &Problem, design: &Design) -> Vec<NodeId> {
    let schedule = problem.evaluate(design).unwrap();
    let mut nodes: Vec<NodeId> = schedule
        .bookings()
        .iter()
        .map(|(_, _, b)| b.sender)
        .collect();
    nodes.sort();
    nodes.dedup();
    nodes
}

#[test]
fn bus_opt_probes_no_swap_of_two_silent_nodes() {
    // With no message on the bus, no swap can move a booking: the pass
    // scores the start and the two capacities, and materializes one.
    let (problem, design) = two_process_instance(256);
    assert_eq!(senders(&problem, &design), []);
    let out = optimize_bus(&problem, &design, &BusOptConfig::default()).unwrap();
    assert_eq!(out.stats.candidates(), 2 + CAPACITY_MULTIPLES.len());
    let (bus, cost, _) = from_scratch_climb(&problem, &design);
    assert_eq!((out.bus, out.schedule.cost()), (bus, cost));

    // With one sender on 64 nodes (a replica of the producer away from
    // the consumer), only the 63 swaps that move its slot can matter in
    // a round.
    let (problem, design) = two_process_instance(64);
    assert_eq!(senders(&problem, &design).len(), 1);
    let out = optimize_bus(&problem, &design, &BusOptConfig::default()).unwrap();
    let rounds = CAPACITY_MULTIPLES.len() * MAX_ROUNDS;
    assert!(
        out.stats.candidates() <= 2 + CAPACITY_MULTIPLES.len() + 63 * rounds,
        "{:?}",
        out.stats
    );
    let (bus, cost, _) = from_scratch_climb(&problem, &design);
    assert_eq!((out.bus, out.schedule.cost()), (bus, cost));
}
