//! Robustness analysis: typical vs worst-case behaviour, and the
//! effect of the bus-access optimization.
//!
//! Optimizes a generated application, then:
//! 1. runs a Monte-Carlo campaign of random admissible fault
//!    scenarios and prints the distribution of realized schedule
//!    lengths against the analytic guarantee,
//! 2. runs the bus-access optimization pass (paper Fig. 6's final
//!    step) and reports the improvement.
//!
//! Run with: `cargo run --release --example robustness_analysis`

use ftdes::faultsim::length_distribution;
use ftdes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-process application on three nodes tolerating two faults.
    let problem = InstanceRequest::new(Family::Paper, 16, 3, 2, Time::from_ms(5), 42).build()?;

    let outcome = optimize(
        &problem,
        Strategy::Mxr,
        &SearchConfig {
            goal: Goal::MinimizeLength,
            ..SearchConfig::experiments()
        },
    )?;
    println!(
        "optimized delta = {} ({} schedule evaluations)",
        outcome.length(),
        outcome.stats.evaluations
    );

    // --- Monte-Carlo campaign. ---
    let dist = length_distribution(
        &outcome.schedule,
        problem.graph(),
        problem.fault_model(),
        2_000,
        7,
    );
    println!(
        "\nrealized schedule length over {} random fault scenarios:",
        dist.samples
    );
    println!("  min (fault-free-ish): {}", dist.min);
    println!(
        "  p50 / p90 / p99:      {} / {} / {}",
        dist.p50, dist.p90, dist.p99
    );
    println!("  max observed:         {}", dist.max);
    println!("  analytic guarantee:   {}", dist.bound);
    println!(
        "  mean uses {:.0}% of the guaranteed bound",
        dist.mean_bound_ratio() * 100.0
    );

    // --- Bus-access optimization (paper Fig. 6, final step). ---
    let bused = optimize_bus(&problem, &outcome.design, &BusOptConfig::default())?;
    println!(
        "\nbus-access optimization: delta {} -> {} ({} evaluations)",
        outcome.length(),
        bused.schedule.length(),
        bused.stats.evaluations
    );
    let order: Vec<String> = bused
        .bus
        .slot_order()
        .iter()
        .map(ToString::to_string)
        .collect();
    println!("  final slot order: {}", order.join(" "));
    Ok(())
}
