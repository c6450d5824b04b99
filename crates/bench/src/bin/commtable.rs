//! Paper-Table-1-style fault-tolerance overhead sweep on the
//! **communication-heavy** family, with the bus-access optimization
//! enabled — the workload direction the comm-aware engine (PR 3)
//! opened. Every slot-swap probe is a cached, bounded from-scratch
//! evaluation under the candidate bus.
//!
//! For each configuration the sweep solves every seed twice — MXR
//! under the `(k, µ)` fault model and NFT as the fault-free reference
//! — then lets `optimize_bus` loose on both designs (slot-order hill
//! climbing plus the capacity sweep; on congested instances the slot
//! order genuinely matters, unlike on the paper family's near-empty
//! bus) and reports the overhead `100 · (δ_MXR − δ_NFT) / δ_NFT` of
//! the bus-optimized schedules.
//!
//! Two sweeps are printed:
//!
//! * **edge density** — mean edges per process at a fixed
//!   message/WCET cost ratio of 0.5 (the perfgate comm gate's ratio),
//! * **msg : WCET cost ratio** — how expensive the bus is relative to
//!   computation, at the gate's density of 5.
//!
//! Honours the usual experiment knobs: `FTDES_SEEDS`,
//! `FTDES_TIME_MS`, `FTDES_THREADS`.

use std::sync::Arc;

use ftdes_bench::{
    comm_heavy_problem_with, experiment_config, print_header, print_row, run_strategy_cached,
    PercentRow,
};
use ftdes_core::{optimize_bus, BusOptConfig, EvalCache, Outcome, Problem, Strategy};
use ftdes_gen::CommHeavyParams;
use ftdes_model::time::Time;

const NODES: usize = 4;
const FAULTS: u32 = 2;

/// The schedule length of `outcome`'s design after the bus-access
/// optimization (never worse than the unoptimized bus — the pass
/// returns the original configuration when nothing improves).
fn bus_optimized_length(problem: &Problem, outcome: &Outcome) -> f64 {
    let bused = optimize_bus(problem, &outcome.design, &BusOptConfig::default())
        .expect("bus optimization schedules the solved design");
    bused
        .schedule
        .length()
        .min(outcome.schedule.length())
        .as_us() as f64
}

fn overhead_row(params: &CommHeavyParams) -> PercentRow {
    let cfg = experiment_config();
    let samples = ftdes_bench::par_seed_map(&cfg, |seed, cfg| {
        let problem = comm_heavy_problem_with(params, NODES, FAULTS, Time::from_ms(5), seed);
        let cache = Arc::new(EvalCache::default());
        let mxr = run_strategy_cached(&problem, Strategy::Mxr, cfg, &cache);
        let nft = run_strategy_cached(&problem, Strategy::Nft, cfg, &cache);
        let d_mxr = bus_optimized_length(&problem, &mxr);
        let d_nft = bus_optimized_length(
            &problem.with_fault_model(ftdes_model::fault::FaultModel::none()),
            &nft,
        );
        if d_nft > 0.0 {
            100.0 * (d_mxr - d_nft) / d_nft
        } else {
            0.0
        }
    });
    PercentRow::from_samples(&samples)
}

fn main() {
    println!("commtable — MXR overhead vs NFT on comm-heavy instances, bus-access optimization on");
    println!(
        "(50 processes / {NODES} nodes / k = {FAULTS}, seeds per row: {}, budget: {:?} per \
         strategy)\n",
        ftdes_bench::seeds(),
        ftdes_bench::time_budget()
    );

    println!("— by edge density (msg:WCET ratio 0.5) —");
    print_header("density");
    for density in [2.0, 3.5, 5.0, 6.5] {
        let params = CommHeavyParams::dense(50).with_density(density);
        print_row(&format!("{density:.1}"), &overhead_row(&params));
    }

    println!("\n— by msg:WCET cost ratio (density 5) —");
    print_header("ratio");
    for ratio in [0.25, 0.5, 1.0, 2.0] {
        let params = CommHeavyParams::dense(50)
            .with_density(5.0)
            .with_ratio(ratio);
        print_row(&format!("{ratio:.2}"), &overhead_row(&params));
    }

    println!(
        "\n(overheads are over bus-optimized schedules on both sides; the paper's Table 1 \
         reports the computation-dominated family — congested buses push the overhead of \
         transparent fault tolerance up with the message cost)"
    );
}
