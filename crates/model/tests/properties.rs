//! Property-based tests of the model crate's invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ftdes_model::prelude::*;
use ftdes_model::time::lcm;

/// Random DAG built by only adding forward edges (i -> j with i < j).
fn arb_dag() -> impl Strategy<Value = ProcessGraph> {
    (
        2usize..20,
        proptest::collection::vec((0usize..400, 0usize..400, 1u32..5), 0..40),
    )
        .prop_map(|(n, raw_edges)| {
            let mut g = ProcessGraph::new(GraphId::new(0));
            let ps = g.add_processes(n);
            for (a, b, bytes) in raw_edges {
                let (a, b) = (a % n, b % n);
                if a < b {
                    let _ = g.add_edge(ps[a], ps[b], Message::new(bytes));
                }
            }
            g
        })
}

proptest! {
    /// Forward-edge graphs are always acyclic, and the topological
    /// order respects every edge.
    #[test]
    fn topological_order_is_consistent(g in arb_dag()) {
        let order = g.topological_order().expect("forward edges are acyclic");
        prop_assert_eq!(order.len(), g.process_count());
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.process_count()];
            for (i, &p) in order.iter().enumerate() { pos[p.index()] = i; }
            pos
        };
        for e in g.edges() {
            prop_assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    /// Sources have no predecessors; sinks no successors; depth is
    /// bounded by the vertex count.
    #[test]
    fn sources_sinks_depth(g in arb_dag()) {
        for s in g.sources() {
            prop_assert_eq!(g.incoming(s).len(), 0);
        }
        for s in g.sinks() {
            prop_assert_eq!(g.outgoing(s).len(), 0);
        }
        let depth = g.depth().unwrap();
        prop_assert!(depth >= 1 && depth <= g.process_count());
    }

    /// Merging duplicates each graph exactly hyperperiod/period times
    /// and offsets releases by whole periods.
    #[test]
    fn merge_counts_and_offsets(
        g in arb_dag(),
        period_ms in 1u64..50,
        factor in 1u64..5,
    ) {
        let period = Time::from_ms(period_ms);
        let other_period = Time::from_ms(period_ms * factor);
        let single = ProcessGraph::new(GraphId::new(1));
        let mut single = single;
        single.add_process();
        let mut app = Application::new();
        let n = g.process_count();
        let edges = g.edge_count();
        app.push(GraphSpec::new(g, period, period));
        app.push(GraphSpec::new(single, other_period, other_period));
        let merged = MergedApplication::merge(&app).unwrap();
        let hyper = merged.hyperperiod();
        let activations = (hyper / period) as usize;
        let other_activations = (hyper / other_period) as usize;
        prop_assert_eq!(
            merged.process_count(),
            n * activations + other_activations
        );
        prop_assert_eq!(
            merged.graph().edge_count(),
            edges * activations
        );
        for p in merged.graph().processes() {
            let o = merged.origin(p.id);
            if o.graph_index == 0 {
                let offset = period * u64::from(o.activation);
                prop_assert!(p.release >= offset);
                prop_assert!(p.deadline.unwrap() <= offset + period);
            }
        }
    }

    /// `lcm` is commutative, associative enough for our use, and a
    /// multiple of both arguments.
    #[test]
    fn lcm_properties(a in 1u64..1_000, b in 1u64..1_000) {
        let ta = Time::from_us(a);
        let tb = Time::from_us(b);
        let l = lcm(ta, tb).expect("small periods have a representable LCM");
        prop_assert_eq!(Some(l), lcm(tb, ta));
        prop_assert_eq!(l.as_us() % a, 0);
        prop_assert_eq!(l.as_us() % b, 0);
        prop_assert!(l >= ta.max(tb));
    }

    /// Policy algebra: r + e = k + 1 for every admissible level, and
    /// the primary carries the whole budget.
    #[test]
    fn policy_budget_split(k in 0u32..12, level_seed in 0u32..12) {
        let fm = FaultModel::new(k, Time::from_ms(1));
        let r = 1 + level_seed % fm.max_replicas();
        let p = FtPolicy::new(ftdes_model::ids::ProcessId::new(0), r, &fm).unwrap();
        prop_assert_eq!(p.replicas() + p.reexecutions(), k + 1);
        let total: u32 = (0..r).map(|i| p.budget_of_instance(i)).sum();
        prop_assert_eq!(total, p.reexecutions());
        prop_assert_eq!(p.budget_of_instance(0), p.reexecutions());
    }

    /// Serde round-trip of the central model types.
    #[test]
    fn serde_round_trips(g in arb_dag(), k in 0u32..5) {
        let json = serde_json::to_string(&g).unwrap();
        let back: ProcessGraph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &g);

        let fm = FaultModel::new(k, Time::from_ms(3));
        let json = serde_json::to_string(&fm).unwrap();
        let back: FaultModel = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, fm);
    }

    /// `WcetTable` against a `BTreeMap` model: random `set` / `clear`
    /// sequences on a small grid (so steps often hit an existing entry
    /// and arrive out of node order) agree on every return value and
    /// every read. Equality is semantic: the edited table equals one
    /// built from the surviving entries alone, in any order.
    #[test]
    fn wcet_table_matches_a_btreemap_model(
        ops in proptest::collection::vec((0u32..4, 0u32..6, 0u32..5, 1u64..50), 0..80)
    ) {
        let mut table = WcetTable::new();
        let mut model: BTreeMap<(ProcessId, NodeId), Time> = BTreeMap::new();
        for (op, p, n, us) in ops {
            let (p, n) = (ProcessId::new(p), NodeId::new(n));
            if op == 0 {
                prop_assert_eq!(table.clear(p, n), model.remove(&(p, n)));
            } else {
                let t = Time::from_us(us);
                prop_assert_eq!(table.set(p, n, t), model.insert((p, n), t));
            }

            for p in (0..8).map(ProcessId::new) {
                for n in (0..7).map(NodeId::new) {
                    prop_assert_eq!(table.get(p, n), model.get(&(p, n)).copied());
                    prop_assert_eq!(table.is_eligible(p, n), model.contains_key(&(p, n)));
                }
                let row: Vec<(NodeId, Time)> = model
                    .range((p, NodeId::new(0))..=(p, NodeId::new(u32::MAX)))
                    .map(|(&(_, n), &t)| (n, t))
                    .collect();
                prop_assert_eq!(table.eligible_nodes(p).collect::<Vec<_>>(), row);
            }
            let entries: Vec<(ProcessId, NodeId, Time)> =
                model.iter().map(|(&(p, n), &t)| (p, n, t)).collect();
            prop_assert_eq!(table.entries().collect::<Vec<_>>(), entries.clone());
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());

            let rebuilt: WcetTable = entries.iter().rev().copied().collect();
            prop_assert_eq!(&table, &rebuilt);
            let mut longer = rebuilt.clone();
            longer.set(ProcessId::new(9), NodeId::new(0), Time::from_us(1));
            prop_assert_ne!(&table, &longer);
            longer.clear(ProcessId::new(9), NodeId::new(0));
            prop_assert_eq!(&table, &longer);
            if let Some(&(p, n, t)) = entries.first() {
                let mut changed = rebuilt.clone();
                changed.set(p, n, t + Time::from_us(1));
                prop_assert_ne!(&table, &changed);
            }
        }
    }
}
