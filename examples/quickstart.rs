//! Quickstart: optimize a small fault-tolerant application end to end.
//!
//! Builds the four-process diamond of the paper's Fig. 4, asks the
//! MXR strategy for a mapping and fault-tolerance policy assignment
//! tolerating one transient fault, prints the resulting schedule
//! tables and MEDL, and cross-checks the worst case by injecting the
//! adversarial fault scenario.
//!
//! Run with: `cargo run --release --example quickstart`

use ftdes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The application: Fig. 4's diamond P1 -> {P2, P3} -> P4. ---
    let mut g = ProcessGraph::new(0.into());
    let p1 = g.add_process();
    let p2 = g.add_process();
    let p3 = g.add_process();
    let p4 = g.add_process();
    g.add_edge(p1, p2, Message::new(4))?;
    g.add_edge(p1, p3, Message::new(4))?;
    g.add_edge(p2, p4, Message::new(4))?;
    g.add_edge(p3, p4, Message::new(4))?;
    for (p, name) in [(p1, "P1"), (p2, "P2"), (p3, "P3"), (p4, "P4")] {
        g.process_mut(p).name = name.into();
        g.process_mut(p).deadline = Some(Time::from_ms(320));
    }

    // Fig. 4's WCET table: N1 is the faster node.
    let mut wcet = WcetTable::new();
    for (p, c0, c1) in [(p1, 40, 50), (p2, 60, 80), (p3, 60, 80), (p4, 40, 50)] {
        wcet.set(p, 0.into(), Time::from_ms(c0));
        wcet.set(p, 1.into(), Time::from_ms(c1));
    }

    // --- The platform: two nodes on a TTP bus, 10 ms slots. ---
    let arch = Architecture::with_node_count(2);
    let fault_model = FaultModel::new(1, Time::from_ms(10));
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500))?;
    let problem = Problem::new(g.clone(), arch, wcet, fault_model, bus);

    // --- Optimize: mapping + policy assignment (MXR). ---
    let outcome = optimize(&problem, Strategy::Mxr, &SearchConfig::default())?;
    println!("schedulable: {}", outcome.is_schedulable());
    println!("worst-case delay delta = {}\n", outcome.length());

    println!("policy assignment:");
    for (p, d) in outcome.design.iter() {
        let kind = if d.policy.is_pure_reexecution() {
            "re-execution".to_string()
        } else if d.policy.is_pure_replication() {
            "replication".to_string()
        } else {
            format!(
                "{} replicas + {} re-executions",
                d.policy.replicas(),
                d.policy.reexecutions()
            )
        };
        println!(
            "  {:3} ({}) -> {:?}  [{kind}]",
            g.process(p).name,
            p,
            d.mapping.iter().map(|n| format!("{n}")).collect::<Vec<_>>(),
        );
    }

    println!("\nschedule tables:");
    let schedule = &outcome.schedule;
    for node in 0..2u32 {
        println!("  node N{node}:");
        for &iid in schedule.node_table(node.into()) {
            let s = schedule.slot(iid);
            println!(
                "    {:20} [{} .. {}]  worst-case finish {}",
                format!(
                    "{}/{}",
                    g.process(s.instance.process).name,
                    s.instance.replica + 1
                ),
                s.start,
                s.finish,
                s.worst_finish
            );
        }
    }

    println!("\nbus MEDL:");
    for entry in schedule.medl() {
        println!(
            "  round {:2} slot {} ({}): {} message(s), [{} .. {}]",
            entry.round,
            entry.slot,
            entry.sender,
            entry.messages.len(),
            entry.start,
            entry.end
        );
    }

    // --- Validate by fault injection. ---
    let scenario = adversarial_scenario(schedule, problem.fault_model());
    let report = simulate(schedule, &g, problem.fault_model(), &scenario);
    println!(
        "\nadversarial scenario ({} fault(s)): realized length {}, bound {} — {}",
        scenario.fault_count(),
        report.realized_length(),
        outcome.length(),
        if report.max_overrun().is_none() {
            "bound holds"
        } else {
            "BOUND VIOLATED"
        }
    );
    assert!(report.max_overrun().is_none());
    assert!(report.all_processes_complete());
    Ok(())
}
