//! Checkpointing trade-offs: rollback recovery as the third
//! fault-tolerance technique (the TVLSI follow-up of the source
//! paper).
//!
//! A process with `n` checkpoints splits into `n` segments: each of
//! the `n − 1` interior state saves costs `χ` of fault-free time, but
//! a fault now rolls back to the latest save and re-runs one segment
//! (`⌈C/n⌉ + χ + µ`) instead of the whole process (`C + µ`). Whether
//! that trade pays depends entirely on `χ`:
//!
//! * cheap saves → checkpointed re-execution beats both pure
//!   re-execution (shorter recovery slack) and replication (no burnt
//!   second node),
//! * expensive saves → the overhead eats the rollback gain and the
//!   optimizer drifts back to the DATE 2005 mix.
//!
//! This example sweeps `χ` on one synthetic application, lets the
//! mixed-space optimizer choose (with the checkpoint move axis open),
//! prints the resulting policy mix, and fault-injects the cheapest-χ
//! winner to show the realized behaviour honours the analytic bound.
//!
//! Run with: `cargo run --release --example checkpoint_tradeoffs`

use std::time::Duration;

use ftdes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let request = InstanceRequest::new(Family::Paper, 20, 3, 2, Time::from_ms(5), 11);
    let cfg = SearchConfig {
        goal: Goal::MinimizeLength,
        time_limit: Some(Duration::from_millis(150)),
        ..SearchConfig::default()
    };

    println!("checkpoint trade-off sweep (20 processes / 3 nodes / k = 2):\n");
    println!(
        "{:>10} | {:>10} | {:>28} | policy mix (rex/cp/rep/mixed)",
        "chi", "delta", "vs chi-free re-execution"
    );
    let mut cheapest: Option<(Problem, Outcome)> = None;
    // χ = 0 disables the axis (free checkpoints would degenerate the
    // trade-off); the reference row is the paper's original mix.
    for chi_ms in [0u64, 1, 5, 25] {
        let problem = InstanceRequest {
            chi: Time::from_ms(chi_ms),
            ..request.clone()
        }
        .build()?;
        let outcome = optimize(&problem, Strategy::Mxr, &cfg)?;
        let (mut rex, mut cp, mut rep, mut mixed) = (0, 0, 0, 0);
        for (_, d) in outcome.design.iter() {
            match (
                d.policy.is_pure_reexecution(),
                d.policy.is_checkpointed(),
                d.policy.is_pure_replication(),
            ) {
                (true, true, _) => cp += 1,
                (true, false, _) => rex += 1,
                (_, _, true) => rep += 1,
                _ => mixed += 1,
            }
        }
        println!(
            "{:>10} | {:>10} | {:>28} | {rex}/{cp}/{rep}/{mixed}",
            format!("{chi_ms} ms"),
            outcome.length().to_string(),
            if chi_ms == 0 {
                "(reference: axis off)".to_owned()
            } else {
                format!("checkpoint axis open (n <= {})", problem.max_checkpoints())
            },
        );
        if chi_ms == 1 {
            cheapest = Some((problem, outcome));
        }
    }

    // Fault-inject the cheap-χ winner: rollback recovery is simulated
    // segment-exactly, and every realized finish must stay within the
    // analytic worst case.
    let (problem, outcome) = cheapest.expect("the 1 ms row ran");
    let fm = problem.fault_model();
    let mut scenarios = random_scenarios(&outcome.schedule, fm, 64, 7);
    scenarios.push(adversarial_scenario(&outcome.schedule, fm));
    let mut worst = Time::ZERO;
    for scenario in &scenarios {
        let report = simulate(&outcome.schedule, problem.graph(), fm, scenario);
        assert!(report.all_processes_complete(), "a process died");
        assert!(report.max_overrun().is_none(), "analytic bound violated");
        assert!(report.lost_messages().is_empty(), "missed TDMA slot");
        worst = worst.max(report.realized_length());
    }
    println!(
        "\nfault injection (chi = 1 ms winner): {} scenarios, worst realized {} <= bound {}",
        scenarios.len(),
        worst,
        outcome.length()
    );
    Ok(())
}
