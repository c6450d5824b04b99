//! Communication-heavy workload family.
//!
//! The paper's synthetic setup (§6) makes communication almost free:
//! 1–4 byte messages over a 2.5 µs/byte TDMA bus against 10–100 ms
//! WCETs, so a message costs about one ten-thousandth of a process
//! execution and bus waits never dominate a schedule. That family
//! cannot exercise the communication side of the evaluation engine
//! (the bitmap slot occupancy, the booking path) — almost no
//! candidate ever loses on bus waits.
//!
//! [`comm_heavy`] generates the complementary family: dense layered
//! DAGs (configurable mean edges per process instead of the paper's
//! ≈1.5) with larger messages and *shorter* WCETs, plus a
//! [`CommHeavyParams::byte_time`] helper that derives the per-byte
//! bus time realizing a configured **message/WCET cost ratio** —
//! `ratio = 0.5` means transferring an average message occupies the
//! bus for half an average process execution, so communication-heavy
//! designs genuinely lose their time on the bus. Benchmarks
//! (`perfgate`'s second gated workload) and the comm-heavy parity
//! and admissibility tests draw their instances from here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftdes_model::architecture::Architecture;
use ftdes_model::graph::{Message, ProcessGraph};
use ftdes_model::ids::GraphId;
use ftdes_model::time::Time;

use crate::params::{WcetDistribution, WorkloadParams};
use crate::random::{sample_wcet, Workload};

/// Parameters of one communication-heavy workload.
///
/// Start from [`CommHeavyParams::dense`] and adjust with the builder
/// methods; [`comm_heavy`] turns the parameters into a seeded
/// [`Workload`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommHeavyParams {
    /// Number of processes.
    pub processes: usize,
    /// Mean edges per process (the paper's random DAGs sit near 1.5;
    /// the dense default is 3). The generator keeps the graph
    /// connected and acyclic regardless.
    pub edge_density: f64,
    /// Target ratio of the mean single-message bus transfer time to
    /// the mean WCET — realized through [`CommHeavyParams::byte_time`]
    /// (the generator itself never sees the bus).
    pub msg_wcet_ratio: f64,
    /// Smallest message size in bytes.
    pub msg_min: u32,
    /// Largest message size in bytes (also the natural initial slot
    /// capacity of the experiment bus).
    pub msg_max: u32,
    /// Smallest WCET.
    pub wcet_min: Time,
    /// Largest WCET.
    pub wcet_max: Time,
    /// Per-node speed variation (±fraction), as in
    /// [`WorkloadParams::node_speed_spread`].
    pub node_speed_spread: f64,
    /// Checkpointing overhead `χ` as a fraction of the mean WCET
    /// (`0.0` disables checkpointing). Realized through
    /// [`CommHeavyParams::chi`] / [`CommHeavyParams::fault_model`].
    pub chi_wcet_ratio: f64,
}

impl CommHeavyParams {
    /// The dense default: 3 edges per process, 4–16 byte messages,
    /// 5–30 ms WCETs, and a message/WCET cost ratio of 0.5.
    #[must_use]
    pub fn dense(processes: usize) -> Self {
        CommHeavyParams {
            processes,
            edge_density: 3.0,
            msg_wcet_ratio: 0.5,
            msg_min: 4,
            msg_max: 16,
            wcet_min: Time::from_ms(5),
            wcet_max: Time::from_ms(30),
            node_speed_spread: 0.25,
            chi_wcet_ratio: 0.0,
        }
    }

    /// The high-density stress preset: [`CommHeavyParams::dense`]
    /// pushed to 24 edges per process and a message/WCET cost ratio of
    /// 3, so placements are dominated by booking thousands of messages
    /// into contended TDMA rounds — the regime where the booking
    /// structure dominates per-candidate cost (the benchmark's
    /// `comm_stress` workload, the engine parity suite).
    #[must_use]
    pub fn stress(processes: usize) -> Self {
        CommHeavyParams::dense(processes)
            .with_density(24.0)
            .with_ratio(3.0)
    }

    /// Sets the mean edges per process (builder style).
    #[must_use]
    pub fn with_density(mut self, edges_per_process: f64) -> Self {
        self.edge_density = edges_per_process;
        self
    }

    /// Sets the message/WCET cost ratio (builder style).
    #[must_use]
    pub fn with_ratio(mut self, msg_wcet_ratio: f64) -> Self {
        self.msg_wcet_ratio = msg_wcet_ratio;
        self
    }

    /// Sets the checkpointing-overhead ratio (builder style).
    #[must_use]
    pub fn with_chi_ratio(mut self, chi_wcet_ratio: f64) -> Self {
        self.chi_wcet_ratio = chi_wcet_ratio;
        self
    }

    /// The checkpointing overhead `χ` realizing
    /// [`CommHeavyParams::chi_wcet_ratio`] against the family's mean
    /// WCET.
    #[must_use]
    pub fn chi(&self) -> Time {
        crate::params::chi_from_ratio(self.wcet_min, self.wcet_max, self.chi_wcet_ratio)
    }

    /// The fault model of an experiment on this family: `(k, µ)` plus
    /// the family's checkpointing overhead `χ`.
    #[must_use]
    pub fn fault_model(&self, k: u32, mu: Time) -> ftdes_model::fault::FaultModel {
        ftdes_model::fault::FaultModel::new(k, mu).with_checkpoint_overhead(self.chi())
    }

    /// The per-byte bus time that realizes
    /// [`CommHeavyParams::msg_wcet_ratio`]: with mean message size
    /// `m̄` and mean WCET `c̄`, transferring an average message takes
    /// `m̄ · byte_time = ratio · c̄`. Pass the result to
    /// `BusConfig::initial` alongside the workload's largest message.
    #[must_use]
    pub fn byte_time(&self) -> Time {
        let mean_msg = f64::from(self.msg_min + self.msg_max) / 2.0;
        let mean_wcet = (self.wcet_min.as_us() + self.wcet_max.as_us()) as f64 / 2.0;
        let us = (self.msg_wcet_ratio * mean_wcet / mean_msg.max(1.0)).round();
        Time::from_us(us.max(1.0) as u64)
    }

    /// The equivalent [`WorkloadParams`] (for WCET sampling).
    fn wcet_params(&self) -> WorkloadParams {
        WorkloadParams {
            wcet_min: self.wcet_min,
            wcet_max: self.wcet_max,
            msg_min: self.msg_min,
            msg_max: self.msg_max,
            node_speed_spread: self.node_speed_spread,
            distribution: WcetDistribution::Uniform,
            ..WorkloadParams::paper(self.processes)
        }
    }
}

/// Generates a communication-heavy workload from `params` for `arch`,
/// deterministically from `seed`.
///
/// The graph is a connected layered DAG: every process (except the
/// root) first receives one predecessor among the earlier processes,
/// then extra forward edges are added until the edge count reaches
/// `edge_density × processes` (or the forward-pair pool is
/// exhausted). Messages are sampled uniformly in
/// `[msg_min, msg_max]`.
///
/// # Panics
///
/// Panics if `params.processes` is zero or the WCET range is empty.
#[must_use]
pub fn comm_heavy(params: &CommHeavyParams, arch: &Architecture, seed: u64) -> Workload {
    assert!(params.processes > 0, "cannot generate an empty application");
    assert!(params.wcet_min <= params.wcet_max, "empty WCET range");
    let n = params.processes;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = ProcessGraph::new(GraphId::new(0));
    let ps = g.add_processes(n);

    let message = |rng: &mut StdRng| Message::new(rng.gen_range(params.msg_min..=params.msg_max));
    // The `from × n + to` bit is set once the pair has an edge, so a
    // duplicate pick costs one bit test instead of the graph's scan of
    // the sender's out-edges.
    let mut linked = vec![0u64; (n * n).div_ceil(64)];
    let mut link = |from: usize, to: usize| {
        let bit = from * n + to;
        let fresh = linked[bit / 64] & (1 << (bit % 64)) == 0;
        linked[bit / 64] |= 1 << (bit % 64);
        fresh
    };

    // Connectivity backbone: one parent per non-root process.
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        link(parent, i);
        g.add_edge(ps[parent], ps[i], message(&mut rng))
            .expect("backbone edges are unique and forward");
    }
    // Densify with forward edges (from a lower to a higher process
    // index, so acyclicity is free). Duplicate picks are skipped, but
    // still draw their message so the random stream stays the same;
    // bound the attempts so degenerate parameter choices (density
    // beyond the complete DAG) still terminate.
    let target = ((params.edge_density * n as f64).round() as usize).max(n - 1);
    let mut attempts = 8 * target;
    while g.edge_count() < target && attempts > 0 && n > 1 {
        attempts -= 1;
        let from = rng.gen_range(0..n - 1);
        let to = rng.gen_range(from + 1..n);
        let msg = message(&mut rng);
        if link(from, to) {
            g.add_edge(ps[from], ps[to], msg)
                .expect("densify edges are fresh and forward");
        }
    }

    let wcet = sample_wcet(&params.wcet_params(), &g, arch, &mut rng);
    Workload { graph: g, wcet }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> Architecture {
        Architecture::with_node_count(4)
    }

    #[test]
    fn deterministic_per_seed() {
        let params = CommHeavyParams::dense(30);
        let a = comm_heavy(&params, &arch(), 9);
        let b = comm_heavy(&params, &arch(), 9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.wcet, b.wcet);
        let c = comm_heavy(&params, &arch(), 10);
        assert!(a.graph != c.graph || a.wcet != c.wcet);
    }

    #[test]
    fn dense_family_is_actually_dense_and_valid() {
        for seed in 0..4 {
            let params = CommHeavyParams::dense(40);
            let w = comm_heavy(&params, &arch(), seed);
            assert_eq!(w.graph.process_count(), 40);
            w.graph.validate().unwrap();
            assert!(
                w.graph.edge_count() >= 40 * 2,
                "seed {seed}: only {} edges for density {}",
                w.graph.edge_count(),
                params.edge_density
            );
        }
    }

    #[test]
    fn stress_preset_is_denser_than_dense() {
        let params = CommHeavyParams::stress(40);
        assert_eq!(params.edge_density, 24.0);
        let w = comm_heavy(&params, &arch(), 2);
        w.graph.validate().unwrap();
        assert!(
            w.graph.edge_count()
                > comm_heavy(&CommHeavyParams::dense(40), &arch(), 2)
                    .graph
                    .edge_count()
        );
    }

    #[test]
    fn density_knob_moves_edge_count() {
        let sparse = comm_heavy(&CommHeavyParams::dense(40).with_density(1.2), &arch(), 3);
        let dense = comm_heavy(&CommHeavyParams::dense(40).with_density(4.0), &arch(), 3);
        assert!(dense.graph.edge_count() > sparse.graph.edge_count());
    }

    #[test]
    fn byte_time_realizes_ratio() {
        let params = CommHeavyParams::dense(20);
        // Mean message 10 bytes, mean WCET 17.5 ms, ratio 0.5 →
        // 10 · byte_time = 8.75 ms.
        assert_eq!(params.byte_time(), Time::from_us(875));
        let hot = params.clone().with_ratio(1.0);
        assert_eq!(hot.byte_time(), Time::from_us(1_750));
    }

    #[test]
    fn message_sizes_in_configured_range() {
        let params = CommHeavyParams::dense(30);
        let w = comm_heavy(&params, &arch(), 5);
        for e in w.graph.edges() {
            assert!((params.msg_min..=params.msg_max).contains(&e.message.size));
        }
    }
}
