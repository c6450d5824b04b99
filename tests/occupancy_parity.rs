//! Occupancy-backend parity: the bus-booking backend (flat scan or
//! bit-packed bitmap) is a pure throughput knob. On every instance of
//! both families, half of them under each priority strategy, the
//! default search repeats its trajectory and work under Flat
//! occupancy, and the multi-worker portfolio walks one trajectory
//! under both backends. The booking-level parity is `ftdes-sched`'s
//! occupancy unit and property tests; the oracle lives in
//! `tests/engine_parity`.

pub mod engine_parity;

use engine_parity::{
    assert_same_work, comm_family, each_search, paper_family, search, search_config, Knobs, DEFAULT,
};
use ftdes::core::{optimize_portfolio, OccupancyBackend, PolicySpace, PortfolioConfig};

/// The default configuration with Flat occupancy.
const FLAT: Knobs = [true, true, true, false, true, false];

#[test]
fn search_trajectory_invariant_across_backends() {
    each_search(|tag, problem| {
        let bitmap = search(problem, DEFAULT);
        let flat = search(problem, FLAT);
        assert_same_work(&format!("{tag} flat"), &bitmap, &flat);
    });
}

#[test]
fn portfolio_trajectory_invariant_across_backends() {
    let pcfg = PortfolioConfig {
        workers: 2,
        epoch_candidates: 300,
        ..PortfolioConfig::default()
    };
    let [paper, _] = paper_family();
    let [_, stress] = comm_family();
    for (label, problem, _) in [paper, stress] {
        let [flat, bitmap] = [OccupancyBackend::Flat, OccupancyBackend::Bitmap].map(|b| {
            let problem = problem.clone().with_occupancy_backend(b);
            optimize_portfolio(&problem, PolicySpace::Mixed, &search_config(), &pcfg).unwrap()
        });
        assert_eq!(
            flat.outcome.design, bitmap.outcome.design,
            "{label}: design"
        );
        assert_eq!(
            flat.outcome.schedule.cost(),
            bitmap.outcome.schedule.cost(),
            "{label}: cost"
        );
        assert_eq!(flat.epochs, bitmap.epochs, "{label}: epochs");
        assert_eq!(flat.exchanges, bitmap.exchanges, "{label}: exchanges");
        assert_eq!(flat.workers.len(), bitmap.workers.len(), "{label}: workers");
        for (a, b) in flat.workers.iter().zip(&bitmap.workers) {
            assert_eq!(
                (a.tabu_iterations, a.best),
                (b.tabu_iterations, b.best),
                "{label} worker {}",
                a.index
            );
        }
    }
}
