//! Property tests of the communication-heavy workload family: for
//! arbitrary knob settings, [`ftdes_gen::comm_heavy`] must produce
//! **connected DAGs** that honour the edge-density, message-size and
//! msg:WCET-ratio knobs.

use proptest::prelude::*;

use ftdes_gen::{comm_heavy, CommHeavyParams};
use ftdes_model::architecture::Architecture;
use ftdes_model::ids::ProcessId;
use ftdes_model::time::Time;

fn arb_params() -> impl Strategy<Value = (CommHeavyParams, usize, u64)> {
    (
        (
            2usize..60, // processes
            10u32..80,  // edge density × 10 (0.1 .. 8.0)
            1u32..40,   // msg:WCET ratio × 10 (0.1 .. 4.0)
            1u32..12,   // msg_min
            0u32..12,   // msg_max − msg_min
        ),
        (
            1u64..50,    // wcet_min (ms)
            0u64..100,   // wcet_max − wcet_min (ms)
            2usize..8,   // nodes
            0u64..1_000, // seed
        ),
    )
        .prop_map(
            |(
                (procs, density, ratio, msg_min, msg_spread),
                (wcet_min, wcet_spread, nodes, seed),
            )| {
                let params = CommHeavyParams {
                    processes: procs,
                    edge_density: f64::from(density) / 10.0,
                    msg_wcet_ratio: f64::from(ratio) / 10.0,
                    msg_min,
                    msg_max: msg_min + msg_spread,
                    wcet_min: Time::from_ms(wcet_min),
                    wcet_max: Time::from_ms(wcet_min + wcet_spread),
                    node_speed_spread: 0.25,
                    chi_wcet_ratio: 0.0,
                };
                (params, nodes, seed)
            },
        )
}

/// Undirected connectivity over the DAG's edges.
fn is_connected(g: &ftdes_model::graph::ProcessGraph) -> bool {
    let n = g.process_count();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![ProcessId::new(0)];
    seen[0] = true;
    let mut reached = 1;
    while let Some(p) = stack.pop() {
        let mut visit = |q: ProcessId| {
            if !seen[q.index()] {
                seen[q.index()] = true;
                reached += 1;
                stack.push(q);
            }
        };
        for s in g.successors_of(p) {
            visit(s);
        }
        for s in g.predecessors_of(p) {
            visit(s);
        }
    }
    reached == n
}

proptest! {
    /// Every generated instance is a connected DAG covering exactly
    /// the requested process count, with every process WCET-eligible
    /// on every node (the family's full-eligibility contract).
    #[test]
    fn instances_are_connected_dags(input in arb_params()) {
        let (params, nodes, seed) = input;
        let arch = Architecture::with_node_count(nodes);
        let w = comm_heavy(&params, &arch, seed);
        prop_assert_eq!(w.graph.process_count(), params.processes);
        w.graph.validate().expect("generated graphs are acyclic and well-formed");
        prop_assert!(is_connected(&w.graph), "graph must be connected");
        for p in w.graph.processes() {
            let eligible = w.wcet.eligible_nodes(p.id).count();
            prop_assert_eq!(eligible, nodes, "every node hosts every process");
        }
    }

    /// The edge-density knob is honoured: the generator reaches the
    /// target `density × n` edge count whenever the forward-pair pool
    /// allows it (and never exceeds it), while staying above the
    /// spanning backbone.
    #[test]
    fn edge_density_knob_is_honored(input in arb_params()) {
        let (params, nodes, seed) = input;
        let arch = Architecture::with_node_count(nodes);
        let w = comm_heavy(&params, &arch, seed);
        let n = params.processes;
        let target = ((params.edge_density * n as f64).round() as usize).max(n - 1);
        let complete = n * (n - 1) / 2;
        prop_assert!(w.graph.edge_count() >= n - 1, "backbone keeps the graph connected");
        prop_assert!(
            w.graph.edge_count() <= target.max(n - 1),
            "densification stops at the target"
        );
        // The densification loop bounds its attempts, so demand the
        // target only where the pool has comfortable slack.
        if target * 4 <= complete {
            prop_assert_eq!(
                w.graph.edge_count(),
                target,
                "target {} edges reachable in a pool of {}",
                target,
                complete
            );
        }
    }

    /// Message sizes stay inside the configured band, and WCETs stay
    /// inside the configured band widened by the per-node speed
    /// spread.
    #[test]
    fn size_knobs_are_honored(input in arb_params()) {
        let (params, nodes, seed) = input;
        let arch = Architecture::with_node_count(nodes);
        let w = comm_heavy(&params, &arch, seed);
        for e in w.graph.edges() {
            prop_assert!((params.msg_min..=params.msg_max).contains(&e.message.size));
        }
        // Per-node speed factors land in [1 − spread, 1 + spread].
        let lo = Time::from_us(
            (params.wcet_min.as_us() as f64 * (1.0 - params.node_speed_spread)).floor() as u64
        );
        let hi = Time::from_us(
            (params.wcet_max.as_us() as f64 * (1.0 + params.node_speed_spread)).ceil() as u64 + 1
        );
        for p in w.graph.processes() {
            for (_, wcet) in w.wcet.eligible_nodes(p.id) {
                prop_assert!(
                    wcet >= lo && wcet <= hi,
                    "wcet {wcet} outside [{lo}, {hi}]"
                );
            }
        }
    }

    /// `byte_time` realizes the msg:WCET cost ratio: transferring the
    /// mean message for the configured ratio of the mean WCET (up to
    /// the rounding of the per-byte time).
    #[test]
    fn byte_time_realizes_ratio(input in arb_params()) {
        let (params, _nodes, _seed) = input;
        let mean_msg = f64::from(params.msg_min + params.msg_max) / 2.0;
        let mean_wcet = (params.wcet_min.as_us() + params.wcet_max.as_us()) as f64 / 2.0;
        let transfer = params.byte_time().as_us() as f64 * mean_msg;
        let want = params.msg_wcet_ratio * mean_wcet;
        // The per-byte time is rounded to whole microseconds (and
        // floored at 1), so allow that rounding scaled by the mean
        // message size.
        prop_assert!(
            (transfer - want).abs() <= mean_msg.max(1.0),
            "mean transfer {transfer} vs target {want}"
        );
    }
}
