//! Neither the worker pool nor the cost cache may change a search. On
//! every instance of both families, half of them under each priority
//! strategy, the default search on two threads repeats the one-thread
//! run's trajectory and work, and without the cache its trajectory.
//! The thread matrix over more instances is
//! `tests/determinism_matrix.rs`; the oracle lives in
//! `tests/engine_parity`.

pub mod engine_parity;

use engine_parity::{
    assert_same_trajectory, assert_same_work, each_search, search, Knobs, DEFAULT,
};

/// The default configuration on two threads.
const TWO_THREADS: Knobs = [true, true, true, true, true, true];

/// The default configuration without the cost cache.
const NO_CACHE: Knobs = [true, true, true, true, false, false];

#[test]
fn parallel_search_is_bit_identical_to_single_threaded() {
    each_search(|tag, problem| {
        let single = search(problem, DEFAULT);
        let parallel = search(problem, TWO_THREADS);
        assert_same_work(&format!("{tag} two threads"), &single, &parallel);
    });
}

#[test]
fn cache_changes_work_not_results() {
    each_search(|tag, problem| {
        let cached = search(problem, DEFAULT);
        let uncached = search(problem, NO_CACHE);
        assert_same_trajectory(&format!("{tag} cache off"), &cached, &uncached);
        let (cached, uncached) = (&cached.stats, &uncached.stats);
        assert_eq!(uncached.cache_hits, 0, "{tag}: hits with the cache off");
        assert!(
            uncached.evaluations > cached.evaluations,
            "{tag}: the cache absorbed nothing"
        );
        assert!(
            cached.lookups() >= uncached.lookups(),
            "{tag}: the cached run lost lookups"
        );
    });
}
