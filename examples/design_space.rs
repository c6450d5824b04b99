//! Design-space exploration: how the fault hypothesis shapes the
//! synthesized implementation.
//!
//! Sweeps the number of tolerated faults `k` on a fixed application
//! and reports, per point, the worst-case delay of MXR vs the NFT
//! reference (the paper's Table 1b axis) together with the policy mix
//! the optimizer chose — showing the migration from pure re-execution
//! to re-executed replicas as `k` grows.
//!
//! Run with: `cargo run --release --example design_space`

use ftdes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = |k| InstanceRequest::new(Family::Paper, 18, 3, k, Time::from_ms(5), 11).build();

    let cfg = SearchConfig {
        goal: Goal::MinimizeLength,
        ..SearchConfig::experiments()
    };

    // NFT reference is independent of k.
    let nft = optimize(&problem(0)?, Strategy::Nft, &cfg)?;
    println!("NFT reference delay: {}\n", nft.length());
    println!(
        "{:>2} | {:>10} | {:>9} | {:>12} | {:>10}",
        "k", "MXR delay", "overhead", "re-executed", "replicated"
    );
    println!("{}", "-".repeat(56));

    for k in 0..=4 {
        let problem = problem(k)?;
        let outcome = optimize(&problem, Strategy::Mxr, &cfg)?;
        let pure_rex = outcome
            .design
            .iter()
            .filter(|(_, d)| d.policy.is_pure_reexecution())
            .count();
        let replicated = outcome.design.process_count() - pure_rex;
        let overhead = 100.0 * (outcome.length().as_us() as f64 - nft.length().as_us() as f64)
            / nft.length().as_us() as f64;
        println!(
            "{k:>2} | {:>10} | {overhead:>8.1}% | {pure_rex:>12} | {replicated:>10}",
            outcome.length().to_string(),
        );

        // Sanity: the synthesized design tolerates what it claims.
        for scenario in random_scenarios(&outcome.schedule, problem.fault_model(), 50, 5) {
            let report = simulate(
                &outcome.schedule,
                problem.graph(),
                problem.fault_model(),
                &scenario,
            );
            assert!(report.all_processes_complete());
            assert!(report.max_overrun().is_none());
        }
    }
    println!("\n(each row fault-injection-checked with 50 random scenarios)");
    Ok(())
}
