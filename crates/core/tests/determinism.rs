//! Parallel evaluation must not change the search: for a fixed
//! `ftdes-gen` seed, a single-threaded run (`threads = 1`, the
//! `FTDES_THREADS=1` behaviour) and a multi-threaded run must walk
//! the identical trajectory — same best cost, same iteration counts,
//! same evaluation counts, same design.

use ftdes_core::{optimize, Goal, Outcome, Problem, SearchConfig, Strategy};
use ftdes_gen::paper_workload;
use ftdes_model::architecture::Architecture;
use ftdes_model::fault::FaultModel;
use ftdes_model::time::Time;
use ftdes_ttp::config::BusConfig;

fn fixed_problem(processes: usize, nodes: usize, k: u32, seed: u64) -> Problem {
    let arch = Architecture::with_node_count(nodes);
    let w = paper_workload(processes, &arch, seed);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
    Problem::new(
        w.graph,
        arch,
        w.wcet,
        FaultModel::new(k, Time::from_ms(5)),
        bus,
    )
}

fn run(problem: &Problem, threads: usize, eval_cache: bool) -> Outcome {
    let cfg = SearchConfig {
        goal: Goal::MinimizeLength,
        // No wall-clock limit: cutoff-truncated windows are the one
        // legitimate source of nondeterminism.
        time_limit: None,
        max_tabu_iterations: 40,
        threads,
        eval_cache,
        ..SearchConfig::default()
    };
    optimize(problem, Strategy::Mxr, &cfg).unwrap()
}

#[test]
fn parallel_search_is_bit_identical_to_single_threaded() {
    for seed in [3u64, 7, 11] {
        let problem = fixed_problem(14, 3, 2, seed);
        let single = run(&problem, 1, true);
        let parallel = run(&problem, 4, true);

        assert_eq!(
            single.schedule.cost(),
            parallel.schedule.cost(),
            "seed {seed}: best cost must not depend on the thread count"
        );
        assert_eq!(
            single.design, parallel.design,
            "seed {seed}: the selected design must be identical"
        );
        assert_eq!(
            single.stats.tabu_iterations, parallel.stats.tabu_iterations,
            "seed {seed}: iteration counts must match"
        );
        assert_eq!(
            single.stats.greedy_steps, parallel.stats.greedy_steps,
            "seed {seed}: greedy trajectories must match"
        );
        assert_eq!(
            single.stats.evaluations, parallel.stats.evaluations,
            "seed {seed}: scheduling work must match"
        );
        assert_eq!(
            single.stats.cache_hits, parallel.stats.cache_hits,
            "seed {seed}: cache behaviour must match"
        );
    }
}

#[test]
fn cache_changes_work_not_results() {
    let problem = fixed_problem(12, 2, 2, 5);
    let cached = run(&problem, 2, true);
    let uncached = run(&problem, 2, false);

    assert_eq!(
        cached.schedule.cost(),
        uncached.schedule.cost(),
        "memoization must be invisible in the result"
    );
    assert_eq!(cached.design, uncached.design);
    assert_eq!(cached.stats.tabu_iterations, uncached.stats.tabu_iterations);
    assert_eq!(uncached.stats.cache_hits, 0, "cache disabled");
    assert!(
        cached.stats.evaluations < uncached.stats.evaluations,
        "the cache must absorb revisited designs ({} vs {})",
        cached.stats.evaluations,
        uncached.stats.evaluations
    );
    // Same trajectory → same window contents. The cached run may add
    // one materialization per cache-hitting winner, but every window
    // lookup the uncached run performed must be accounted for.
    assert!(
        cached.stats.lookups() >= uncached.stats.lookups(),
        "cached run lost candidate lookups ({} vs {})",
        cached.stats.lookups(),
        uncached.stats.lookups()
    );
}
