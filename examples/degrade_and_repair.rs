//! Graceful degradation: lose a node, repair the design, prove it.
//!
//! Optimizes a 12-process application on four nodes, then plays the
//! adversary: kills the node the schedule leans on hardest and asks
//! the repair ladder for a new design — warm-started from the old
//! one — instead of re-solving from scratch. The example then checks
//! everything the repair claims:
//!
//! 1. the repaired design schedules, with nothing on the dead node,
//! 2. the ladder's audit trail names the rung that produced it,
//! 3. adversarial + random fault scenarios replayed against the
//!    repaired schedule all complete within bounds,
//! 4. a second, composite delta (node loss + a 15% WCET inflation)
//!    repairs too, and its schedule scores bit-identically to a cold
//!    evaluation of the repaired design on the post-delta problem.
//!
//! Run with: `cargo run --release --example degrade_and_repair`

use std::time::Duration;

use ftdes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = InstanceRequest::new(Family::Paper, 12, 4, 1, Time::from_ms(5), 42).build()?;

    let cfg = SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: Some(Duration::from_millis(300)),
        ..SearchConfig::default()
    };
    let intact = optimize(&problem, Strategy::Mxr, &cfg)?;
    println!("intact design: delta = {}", intact.length());

    // --- Act 1: adversarial node loss -----------------------------
    let budget = RepairBudget::from_total(Duration::from_millis(500));
    let report = degrade_and_repair_adversarial(
        &problem,
        &intact.design,
        &intact.schedule,
        &budget,
        &cfg,
        16,
        0xD15A57E5,
    )?;

    println!("\nkilled {} (the most replica-loaded node)", report.killed);
    println!("escalation ladder:");
    for attempt in &report.outcome.attempts {
        println!(
            "  {}: {:?} in {:?}",
            attempt.rung, attempt.status, attempt.elapsed
        );
    }
    println!(
        "repaired by {}: delta = {} ({} fault scenarios replayed)",
        report.outcome.rung,
        report.repaired_length(),
        report.scenarios_replayed
    );

    assert!(
        report.verified,
        "repair verification failed: {:?}",
        report.violations
    );
    assert!(report.outcome.is_schedulable());
    for inst in report.outcome.schedule.expanded().instances() {
        assert_ne!(inst.node, report.killed, "instance left on the dead node");
    }
    assert!(
        report
            .outcome
            .attempts
            .iter()
            .any(|a| a.rung == report.outcome.rung),
        "audit trail must name the producing rung"
    );

    // --- Act 2: composite delta, checked against cold evaluation --
    let mut delta = ProblemDelta::kill_node(report.killed);
    delta.push(DeltaOp::RescaleWcet {
        process: None,
        percent: 115,
    });
    println!("\napplying composite delta: {delta}");
    let outcome = repair(&problem, &intact.design, &delta, &budget, &cfg)?;
    assert!(outcome.is_schedulable(), "composite repair must schedule");

    // Bit-identity: the schedule the ladder hands back is exactly
    // what a cache-free evaluation of the same design produces.
    let cold = outcome.problem.evaluate(&outcome.design)?;
    assert_eq!(outcome.schedule.cost(), cold.cost());
    println!(
        "composite repair by {}: delta = {} (matches cold evaluation)",
        outcome.rung,
        outcome.schedule.length()
    );

    println!("\nall degradation checks pass");
    Ok(())
}
