//! Seeded random workload generation (paper §6).
//!
//! Produces `(graph, wcet)` pairs for a given architecture size,
//! reproducing the paper's experimental setup: random / tree /
//! chain-group DAGs, WCETs sampled uniformly or exponentially within
//! `[10, 100]` ms, message sizes within `[1, 4]` bytes, every process
//! eligible on every node with a per-node speed factor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftdes_model::architecture::Architecture;
use ftdes_model::graph::{Message, ProcessGraph};
use ftdes_model::ids::{GraphId, ProcessId};
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetTable;

use crate::params::{GraphStructure, WcetDistribution, WorkloadParams};

/// A generated workload: the process graph and its WCET table over
/// the given architecture.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The generated process graph.
    pub graph: ProcessGraph,
    /// WCETs for every (process, node) pair.
    pub wcet: WcetTable,
}

/// Generates a workload from `params` for `arch`, deterministically
/// from `seed`.
///
/// # Panics
///
/// Panics if `params.processes` is zero or the WCET range is empty.
#[must_use]
pub fn generate(params: &WorkloadParams, arch: &Architecture, seed: u64) -> Workload {
    assert!(params.processes > 0, "cannot generate an empty application");
    assert!(params.wcet_min <= params.wcet_max, "empty WCET range");
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match params.structure {
        GraphStructure::Random => random_dag(params, &mut rng),
        GraphStructure::Tree => tree(params, &mut rng),
        GraphStructure::ChainGroups => chain_groups(params, &mut rng),
    };
    let wcet = sample_wcet(params, &graph, arch, &mut rng);
    Workload { graph, wcet }
}

fn message(params: &WorkloadParams, rng: &mut StdRng) -> Message {
    Message::new(rng.gen_range(params.msg_min..=params.msg_max))
}

/// Layered random DAG: ~√n layers, every non-root process gets one
/// to three predecessors from earlier layers (biased to the previous
/// one).
fn random_dag(params: &WorkloadParams, rng: &mut StdRng) -> ProcessGraph {
    let n = params.processes;
    let mut g = ProcessGraph::new(GraphId::new(0));
    let ps = g.add_processes(n);
    let layers = ((n as f64).sqrt().ceil() as usize).max(2);
    let layer_of: Vec<usize> = (0..n)
        .map(|i| if i == 0 { 0 } else { rng.gen_range(1..layers) })
        .collect();

    let mut candidates: Vec<usize> = Vec::with_capacity(n);
    for i in 1..n {
        let my_layer = layer_of[i];
        candidates.clear();
        candidates.extend((0..n).filter(|&j| j != i && layer_of[j] < my_layer));
        if candidates.is_empty() {
            // Fall back to the root so the graph stays connected.
            let _ = g.add_edge(ps[0], ps[i], message(params, rng));
            continue;
        }
        let preds = rng.gen_range(1..=3usize.min(candidates.len()));
        for _ in 0..preds {
            // Bias towards the closest earlier layer.
            let pick = *candidates
                .iter()
                .max_by_key(|&&j| (layer_of[j], rng.gen::<u32>()))
                .expect("non-empty");
            let from = if rng.gen_bool(0.5) {
                pick
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            let _ = g.add_edge(ps[from], ps[i], message(params, rng));
        }
    }
    g
}

/// Out-tree: process `i > 0` has a single uniformly chosen parent
/// among `0..i`.
fn tree(params: &WorkloadParams, rng: &mut StdRng) -> ProcessGraph {
    let n = params.processes;
    let mut g = ProcessGraph::new(GraphId::new(0));
    let ps = g.add_processes(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(ps[parent], ps[i], message(params, rng))
            .expect("tree edges are unique and acyclic");
    }
    g
}

/// Groups of parallel chains: √n chains of roughly equal length fed
/// by a common source, with sparse forward cross edges.
fn chain_groups(params: &WorkloadParams, rng: &mut StdRng) -> ProcessGraph {
    let n = params.processes;
    let mut g = ProcessGraph::new(GraphId::new(0));
    let ps = g.add_processes(n);
    if n == 1 {
        return g;
    }
    let chains = ((n as f64).sqrt().round() as usize).clamp(1, n - 1);
    // Process 0 is the common source; the rest are dealt round-robin
    // into chains.
    let mut chain_members: Vec<Vec<ProcessId>> = vec![Vec::new(); chains];
    for (idx, &p) in ps.iter().enumerate().skip(1) {
        chain_members[(idx - 1) % chains].push(p);
    }
    for members in &chain_members {
        let mut prev = ps[0];
        for &p in members {
            g.add_edge(prev, p, message(params, rng))
                .expect("chain edges are unique");
            prev = p;
        }
    }
    // Sparse cross edges between chains (always forward in position
    // to preserve acyclicity).
    let crossings = chains.saturating_sub(1);
    for _ in 0..crossings {
        let a = rng.gen_range(0..chains);
        let b = rng.gen_range(0..chains);
        if a == b || chain_members[a].is_empty() || chain_members[b].is_empty() {
            continue;
        }
        let from_pos = rng.gen_range(0..chain_members[a].len());
        // Target strictly deeper than the source to keep edges forward.
        let deeper: Vec<ProcessId> = chain_members[b]
            .iter()
            .enumerate()
            .filter(|&(pos, _)| pos > from_pos)
            .map(|(_, &p)| p)
            .collect();
        if let Some(&to) = deeper.first() {
            let _ = g.add_edge(chain_members[a][from_pos], to, message(params, rng));
        }
    }
    g
}

/// Samples WCETs: a base time per process from the configured
/// distribution, scaled per node by a speed factor in
/// `[1 − spread, 1 + spread]`.
pub(crate) fn sample_wcet(
    params: &WorkloadParams,
    graph: &ProcessGraph,
    arch: &Architecture,
    rng: &mut StdRng,
) -> WcetTable {
    let min = params.wcet_min.as_us() as f64;
    let max = params.wcet_max.as_us() as f64;
    let speed: Vec<f64> = (0..arch.node_count())
        .map(|_| 1.0 + params.node_speed_spread * (rng.gen::<f64>() * 2.0 - 1.0))
        .collect();
    let mut wcet = WcetTable::new();
    for p in graph.processes() {
        let base = match params.distribution {
            WcetDistribution::Uniform => rng.gen_range(min..=max),
            WcetDistribution::Exponential => {
                let mean = (min + max) / 2.0;
                let sample = -mean * (1.0 - rng.gen::<f64>()).ln();
                sample.clamp(min, max)
            }
        };
        for node in arch.node_ids() {
            let us = (base * speed[node.index()]).round().max(1.0) as u64;
            wcet.set(p.id, node, Time::from_us(us));
        }
    }
    wcet
}

/// Convenience: generates the paper's standard workload of `n`
/// processes on `nodes` nodes, cycling structures and distributions
/// per seed as the paper mixes them across its 15 seeds.
#[must_use]
pub fn paper_workload(n: usize, arch: &Architecture, seed: u64) -> Workload {
    let structure = GraphStructure::ALL[(seed % 3) as usize];
    let distribution = if (seed / 3).is_multiple_of(2) {
        WcetDistribution::Uniform
    } else {
        WcetDistribution::Exponential
    };
    let params = WorkloadParams::paper(n)
        .with_structure(structure)
        .with_distribution(distribution);
    generate(&params, arch, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> Architecture {
        Architecture::with_node_count(3)
    }

    #[test]
    fn deterministic_per_seed() {
        let params = WorkloadParams::paper(30);
        let a = generate(&params, &arch(), 7);
        let b = generate(&params, &arch(), 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.wcet, b.wcet);
        let c = generate(&params, &arch(), 8);
        assert!(a.graph != c.graph || a.wcet != c.wcet);
    }

    #[test]
    fn all_structures_are_acyclic_and_sized() {
        for structure in GraphStructure::ALL {
            let params = WorkloadParams::paper(40).with_structure(structure);
            let w = generate(&params, &arch(), 13);
            assert_eq!(w.graph.process_count(), 40);
            w.graph
                .validate()
                .unwrap_or_else(|e| panic!("{structure:?}: {e}"));
        }
    }

    #[test]
    fn tree_has_n_minus_one_edges() {
        let params = WorkloadParams::paper(25).with_structure(GraphStructure::Tree);
        let w = generate(&params, &arch(), 3);
        assert_eq!(w.graph.edge_count(), 24);
    }

    #[test]
    fn wcet_within_configured_range() {
        for dist in [WcetDistribution::Uniform, WcetDistribution::Exponential] {
            let params = WorkloadParams::paper(20).with_distribution(dist);
            let w = generate(&params, &arch(), 5);
            let lo = Time::from_us((10_000.0 * (1.0 - params.node_speed_spread)) as u64);
            let hi = Time::from_us((100_000.0 * (1.0 + params.node_speed_spread) + 1.0) as u64);
            for p in w.graph.processes() {
                for (_, c) in w.wcet.eligible_nodes(p.id) {
                    assert!(c >= lo && c <= hi, "{dist:?}: {c} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn every_process_eligible_everywhere() {
        let params = WorkloadParams::paper(15);
        let w = generate(&params, &arch(), 11);
        for p in w.graph.processes() {
            assert_eq!(w.wcet.eligible_nodes(p.id).count(), 3);
        }
    }

    #[test]
    fn message_sizes_in_range() {
        let params = WorkloadParams::paper(30);
        let w = generate(&params, &arch(), 2);
        for e in w.graph.edges() {
            assert!((1..=4).contains(&e.message.size));
        }
    }

    #[test]
    fn paper_workload_cycles_structures() {
        let a = paper_workload(20, &arch(), 0);
        let b = paper_workload(20, &arch(), 1);
        a.graph.validate().unwrap();
        b.graph.validate().unwrap();
    }
}
