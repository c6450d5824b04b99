//! End-to-end reconstructions of the paper's illustrative figures
//! (Figs. 2–5 and 7), exercised through the public facade API.

use ftdes::prelude::*;

fn ms(v: u64) -> Time {
    Time::from_ms(v)
}

fn bus2() -> BusConfig {
    BusConfig::initial(&Architecture::with_node_count(2), 4, Time::from_us(2_500)).unwrap()
}

/// Paper Fig. 2: the three worst-case fault scenarios for a single
/// process with C1 = 30 ms, k = 2, µ = 10 ms.
#[test]
fn fig2_worst_case_fault_scenarios() {
    let fm = FaultModel::new(2, ms(10));
    let mut g = ProcessGraph::new(0.into());
    let p1 = g.add_process();
    let mut wcet = WcetTable::new();
    for n in 0..3u32 {
        wcet.set(p1, n.into(), ms(30));
    }
    let arch = Architecture::with_node_count(3);
    let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();

    // (a) re-execution: P1, P1/2, P1/3 -> 30 + 2*(10+30) = 110 ms.
    let rex = Design::from_decisions(vec![ProcessDesign::new(
        FtPolicy::reexecution(&fm),
        vec![0.into()],
    )
    .unwrap()]);
    let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &rex).unwrap();
    assert_eq!(s.length(), ms(110));

    // (b) replication: three replicas in parallel, each 30 ms.
    let rep = Design::from_decisions(vec![ProcessDesign::new(
        FtPolicy::replication(&fm),
        vec![0.into(), 1.into(), 2.into()],
    )
    .unwrap()]);
    let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &rep).unwrap();
    assert_eq!(s.length(), ms(30));

    // (c) re-executed replicas: two replicas, the primary re-executed
    // once -> worst case 30 + (10 + 30) = 70 ms.
    let mix = Design::from_decisions(vec![ProcessDesign::new(
        FtPolicy::new(ProcessId::new(0), 2, &fm).unwrap(),
        vec![0.into(), 1.into()],
    )
    .unwrap()]);
    let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &mix).unwrap();
    assert_eq!(s.length(), ms(70));

    // Cross-check (c) exhaustively through the simulator.
    for scenario in enumerate_scenarios(&s, &fm) {
        let report = simulate(&s, &g, &fm, &scenario);
        assert!(report.all_processes_complete());
        assert!(report.realized_length() <= s.length());
    }
}

/// Paper Fig. 3 (b2): a chain re-executed on one node shares a single
/// slack of size C3 + µ.
#[test]
fn fig3_chain_slack_sharing() {
    let fm = FaultModel::new(1, ms(10));
    let mut g = ProcessGraph::new(0.into());
    let ps: Vec<_> = g.add_processes(3);
    g.add_edge(ps[0], ps[1], Message::new(4)).unwrap();
    g.add_edge(ps[1], ps[2], Message::new(4)).unwrap();
    let mut wcet = WcetTable::new();
    for (i, &p) in ps.iter().enumerate() {
        wcet.set(p, 0.into(), ms([40, 40, 60][i]));
    }
    let arch = Architecture::with_node_count(2);
    let design = Design::from_decisions(
        ps.iter()
            .map(|_| ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]))
            .collect::<Result<_, _>>()
            .unwrap(),
    );
    let s = list_schedule(&g, &arch, &wcet, &fm, &bus2(), &design).unwrap();
    // 140 ms fault-free + (60 + 10) shared slack.
    assert_eq!(s.length(), ms(210));

    // Exhaustive check: single faults on any process never exceed it.
    for scenario in enumerate_scenarios(&s, &fm) {
        let report = simulate(&s, &g, &fm, &scenario);
        assert!(report.realized_length() <= ms(210));
    }
}

/// Fig. 3b at length: eight 20 ms processes chained on one node share
/// one slack of the largest re-run, 8 · 20 + (20 + 5) = 185 ms.
#[test]
fn fig3_long_chain_shares_one_slack() {
    let mut g = ProcessGraph::new(0.into());
    let ps = g.add_processes(8);
    for w in ps.windows(2) {
        g.add_edge(w[0], w[1], Message::new(1)).unwrap();
    }
    let mut wcet = WcetTable::new();
    for &p in &ps {
        wcet.set(p, 0.into(), ms(20));
    }
    let fm = FaultModel::new(1, ms(5));
    let design = Design::from_decisions(
        ps.iter()
            .map(|_| ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap())
            .collect(),
    );
    let arch = Architecture::with_node_count(1);
    let bus = BusConfig::initial(&arch, 1, Time::from_ms(1)).unwrap();
    let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &design).unwrap();
    assert_eq!(s.length(), ms(185));
}

/// Paper Fig. 4: combining re-execution (P2–P4) with replication of
/// P1 beats pure re-execution because message m2 no longer has to be
/// delayed for transparency.
#[test]
fn fig4_replication_unblocks_messages() {
    let fm = FaultModel::new(1, ms(10));
    let mut g = ProcessGraph::new(0.into());
    let ps: Vec<_> = g.add_processes(4);
    g.add_edge(ps[0], ps[1], Message::new(4)).unwrap(); // m1
    g.add_edge(ps[0], ps[2], Message::new(4)).unwrap(); // m2
    g.add_edge(ps[1], ps[3], Message::new(4)).unwrap(); // m3
    let mut wcet = WcetTable::new();
    let c = [(40, 50), (60, 80), (60, 80), (40, 50)];
    for (i, &p) in ps.iter().enumerate() {
        wcet.set(p, 0.into(), ms(c[i].0));
        wcet.set(p, 1.into(), ms(c[i].1));
    }
    let arch = Architecture::with_node_count(2);

    // All re-executed, P1 on N1 (the shape of Fig. 4a): m2 to P3 on
    // N1 must wait for P1's worst case.
    let rex = Design::from_decisions(vec![
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![1.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![1.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
    ]);
    let s_rex = list_schedule(&g, &arch, &wcet, &fm, &bus2(), &rex).unwrap();

    // Replicate P1 over both nodes instead (Fig. 4b).
    let mix = Design::from_decisions(vec![
        ProcessDesign::new(FtPolicy::replication(&fm), vec![0.into(), 1.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![1.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
    ]);
    let s_mix = list_schedule(&g, &arch, &wcet, &fm, &bus2(), &mix).unwrap();
    assert!(
        s_mix.length() < s_rex.length(),
        "replicating P1 must win: {} vs {}",
        s_mix.length(),
        s_rex.length()
    );
}

/// Paper Fig. 5: the best fault-oblivious mapping is no longer best
/// once re-execution is considered — clustering everything on one
/// node beats the spread mapping (the SFX-vs-MXR argument).
#[test]
fn fig5_mapping_must_consider_fault_tolerance() {
    let fm = FaultModel::new(1, ms(10));
    let mut g = ProcessGraph::new(0.into());
    let ps: Vec<_> = g.add_processes(4);
    g.add_edge(ps[0], ps[1], Message::new(4)).unwrap();
    g.add_edge(ps[0], ps[2], Message::new(4)).unwrap();
    g.add_edge(ps[1], ps[3], Message::new(4)).unwrap();
    g.add_edge(ps[2], ps[3], Message::new(4)).unwrap();
    // Fig. 5's table: P1 only on N1; P4 only on N2 is *not* imposed
    // here — we keep both free but asymmetric.
    let mut wcet = WcetTable::new();
    wcet.set(ps[0], 0.into(), ms(40));
    wcet.set(ps[1], 0.into(), ms(60));
    wcet.set(ps[1], 1.into(), ms(60));
    wcet.set(ps[2], 0.into(), ms(40));
    wcet.set(ps[2], 1.into(), ms(70));
    wcet.set(ps[3], 0.into(), ms(40));
    wcet.set(ps[3], 1.into(), ms(70));
    let arch = Architecture::with_node_count(2);

    // Spread mapping (good without fault tolerance): P2 on N2.
    let spread = Design::from_decisions(vec![
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![1.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
    ]);
    // Clustered mapping: everything on N1.
    let clustered = Design::from_decisions(
        ps.iter()
            .map(|_| ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]))
            .collect::<Result<_, _>>()
            .unwrap(),
    );

    let nft = FaultModel::none();
    let spread_nft = Design::from_decisions(
        spread
            .iter()
            .map(|(_, d)| {
                ProcessDesign::new(FtPolicy::reexecution(&nft), vec![d.primary_node()]).unwrap()
            })
            .collect(),
    );
    let clustered_nft = Design::from_decisions(
        clustered
            .iter()
            .map(|(_, d)| {
                ProcessDesign::new(FtPolicy::reexecution(&nft), vec![d.primary_node()]).unwrap()
            })
            .collect(),
    );

    let bus = bus2();
    // Without faults the spread mapping is at least as good.
    let s_spread_nft = list_schedule(&g, &arch, &wcet, &nft, &bus, &spread_nft).unwrap();
    let s_clustered_nft = list_schedule(&g, &arch, &wcet, &nft, &bus, &clustered_nft).unwrap();
    assert!(s_spread_nft.length() <= s_clustered_nft.length());

    // With k = 1 re-execution the clustered mapping wins.
    let s_spread = list_schedule(&g, &arch, &wcet, &fm, &bus, &spread).unwrap();
    let s_clustered = list_schedule(&g, &arch, &wcet, &fm, &bus, &clustered).unwrap();
    assert!(
        s_clustered.length() < s_spread.length(),
        "clustering must win under re-execution: {} vs {}",
        s_clustered.length(),
        s_spread.length()
    );
}

/// Paper Fig. 7: a replica descendant starts immediately after the
/// local replica in the fault-free schedule, and the contingency
/// schedule (local replica killed) adds no re-execution slack once
/// the fault budget is consumed.
#[test]
fn fig7_contingency_without_extra_slack() {
    let fm = FaultModel::new(1, ms(10));
    let mut g = ProcessGraph::new(0.into());
    let p1 = g.add_process();
    let p2 = g.add_process();
    let p3 = g.add_process();
    g.add_edge(p1, p3, Message::new(4)).unwrap();
    g.add_edge(p2, p3, Message::new(4)).unwrap();
    let mut wcet = WcetTable::new();
    wcet.set(p1, 0.into(), ms(40));
    wcet.set(p1, 1.into(), ms(40));
    wcet.set(p2, 0.into(), ms(80));
    wcet.set(p2, 1.into(), ms(80));
    wcet.set(p3, 0.into(), ms(50));
    wcet.set(p3, 1.into(), ms(50));
    let arch = Architecture::with_node_count(2);

    // P2 replicated over both nodes, P1 and P3 on N1 (0-indexed N0).
    let design = Design::from_decisions(vec![
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::replication(&fm), vec![0.into(), 1.into()]).unwrap(),
        ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()]).unwrap(),
    ]);
    let s = list_schedule(&g, &arch, &wcet, &fm, &bus2(), &design).unwrap();

    // Fault-free, P3 follows the local P2 replica immediately.
    let p3_slot = s.slot(s.expanded().of_process(p3)[0]);
    let p2_local = s
        .expanded()
        .of_process(p2)
        .iter()
        .map(|&i| *s.slot(i))
        .find(|sl| sl.instance.node == NodeId::new(0))
        .unwrap();
    assert_eq!(
        p3_slot.start,
        p2_local
            .finish
            .max(s.slot(s.expanded().of_process(p1)[0]).finish)
    );

    // Kill the local replica: the realized finish stays within the
    // analytic worst case, which itself stays below the naive
    // "always wait for the remote replica, then add full slack".
    let scenario = FaultScenario::from_hits(vec![FaultHit::new(p2_local.instance.id, 0)]);
    assert!(scenario.is_admissible(&fm));
    let report = simulate(&s, &g, &fm, &scenario);
    assert!(report.all_processes_complete());
    assert!(report.max_overrun().is_none());
}
