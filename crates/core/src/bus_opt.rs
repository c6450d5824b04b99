//! Bus-access optimization (paper §4.2 and Fig. 6's final step).
//!
//! The paper performs a bus-access optimization after the policy
//! assignment and mapping have been fixed, referring to the authors'
//! earlier work for the mechanics. This module implements a compact
//! version of that pass:
//!
//! * **slot order** — hill climbing over pairwise slot swaps: nodes
//!   that must deliver messages early should own early slots;
//! * **slot capacity** — a sweep over frame sizes (multiples of the
//!   largest message): bigger frames pack more messages per round but
//!   stretch the round, delaying everyone.
//!
//! Every candidate configuration is scored by scheduling the *given*
//! design under it, so the pass composes with any strategy result.
//! A slot swap shifts slot timing globally, so each probe is placed
//! from scratch ([`ftdes_sched::schedule_cost_bounded`]) and bounded
//! by the climbing incumbent. The design is fixed for the whole pass,
//! so a probe's cost depends on the bus alone: exact costs are
//! memoized in a private [`EvalCache`] keyed by [`bus_fingerprint`].

use ftdes_model::design::Design;
use ftdes_sched::{list_schedule_with, schedule_cost_bounded, CostScratch, SchedError, Schedule};
use ftdes_ttp::config::BusConfig;

use crate::cache::{bus_fingerprint, EvalCache, EvalOutcome};
use crate::config::SearchStats;
use crate::error::OptError;
use crate::problem::Problem;

/// Limits of the bus-access optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusOptConfig {
    /// Hill-climbing rounds over slot swaps.
    pub max_rounds: usize,
    /// Capacity multiples of the largest message to try (1 = minimum
    /// legal slot, the paper's initial configuration).
    pub capacity_multiples: Vec<u32>,
    /// Unused: the slot-swap sweep is sequential, because each
    /// probe is bounded by the incumbent the previous accepted swap
    /// set. Kept so existing configurations still compile; every
    /// value gives the same result.
    pub threads: usize,
}

impl Default for BusOptConfig {
    fn default() -> Self {
        BusOptConfig {
            max_rounds: 8,
            capacity_multiples: vec![1, 2],
            threads: 0,
        }
    }
}

/// The result of the bus-access optimization.
#[derive(Debug, Clone)]
pub struct BusOptOutcome {
    /// The best bus configuration found.
    pub bus: BusConfig,
    /// The schedule of `design` under that configuration.
    pub schedule: Schedule,
    /// Probes scored (a re-probed bus is a cache hit) plus the final
    /// materialization.
    pub stats: SearchStats,
}

/// Optimizes the TDMA slot order and slot capacity for a fixed
/// `design`, starting from the problem's current bus configuration.
///
/// Returns the best configuration found (possibly the original).
///
/// # Errors
///
/// Propagates [`OptError::Sched`] when the design cannot be
/// scheduled under some candidate configuration (e.g. a message
/// exceeding a candidate frame size — candidates below the largest
/// message are never generated).
pub fn optimize_bus(
    problem: &Problem,
    design: &Design,
    cfg: &BusOptConfig,
) -> Result<BusOptOutcome, OptError> {
    let mut stats = SearchStats::default();
    // Re-probing a configuration (e.g. swapping a pair back) is a memo
    // hit. A pruned probe's lower bound is not its cost, so it is not
    // memoized. No probe retains a schedule: costs drive the climb,
    // and the winning configuration is materialized once at the end.
    let memo = EvalCache::default();
    let mut scratch = CostScratch::default();
    let mut probe = |bus: &BusConfig, bound| -> Result<(EvalOutcome, bool), SchedError> {
        let key = u128::from(bus_fingerprint(bus));
        if let Some(cost) = memo.get(key) {
            return Ok((EvalOutcome::Exact(cost), true));
        }
        let outcome = schedule_cost_bounded(
            problem.graph(),
            problem.arch(),
            problem.dense_wcet(),
            problem.fault_model(),
            bus,
            design,
            problem.schedule_options(),
            &mut scratch,
            bound,
        )?;
        if let EvalOutcome::Exact(cost) = outcome {
            memo.insert(key, cost);
        }
        Ok((outcome, false))
    };
    let base = problem.bus();
    let largest = problem.largest_message();

    let (start, hit) = probe(base, None)?;
    stats.record(start, hit);
    let mut best_bus = base.clone();
    let mut best_cost = start.cost();

    for &multiple in &cfg.capacity_multiples {
        let capacity = largest.saturating_mul(multiple.max(1));
        let mut bus = BusConfig::with_order(base.slot_order().to_vec(), capacity, base.byte_time())
            .expect("base order stays valid");

        // Score the capacity change itself; an unbounded probe is
        // exact.
        let (outcome, hit) = probe(&bus, None)?;
        stats.record(outcome, hit);
        let mut current_cost = outcome.cost();
        if current_cost < best_cost {
            best_bus = bus.clone();
            best_cost = current_cost;
        }

        // Hill climbing over slot swaps: the sweep commits the first
        // improving pair and re-enters the scan from the next pair
        // against the updated bus. Each probe is bounded by the
        // climbing incumbent and aborts as soon as it provably cannot
        // improve on it.
        let slots = bus.slots_per_round();
        let pairs: Vec<(usize, usize)> = (0..slots)
            .flat_map(|a| ((a + 1)..slots).map(move |b| (a, b)))
            .collect();
        for _ in 0..cfg.max_rounds {
            let mut improved = false;
            for &(a, b) in &pairs {
                let cand_bus = bus.swap_slots(a, b);
                let (outcome, hit) = probe(&cand_bus, Some(current_cost))?;
                stats.record(outcome, hit);
                // A pruned probe is certified worse than the incumbent.
                if let EvalOutcome::Exact(c) = outcome {
                    if c < current_cost {
                        bus = cand_bus;
                        current_cost = c;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if current_cost < best_cost {
            best_bus = bus;
            best_cost = current_cost;
        }
    }

    // Materialize the winning configuration's schedule.
    stats.evaluations += 1;
    let schedule = list_schedule_with(
        problem.graph(),
        problem.arch(),
        problem.dense_wcet(),
        problem.fault_model(),
        &best_bus,
        design,
        problem.schedule_options(),
    )?;
    debug_assert_eq!(schedule.cost(), best_cost);
    Ok(BusOptOutcome {
        bus: best_bus,
        schedule,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::ProcessDesign;
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::time::Time;
    use ftdes_model::wcet::WcetTable;

    /// Chain N1 -> N0: node 1 produces early and should own the first
    /// slot; the initial order (N0 first) wastes most of a round.
    fn skewed_problem() -> (Problem, Design) {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        let wcet: WcetTable = [
            (a, NodeId::new(1), Time::from_ms(11)),
            (b, NodeId::new(0), Time::from_ms(10)),
        ]
        .into_iter()
        .collect();
        let arch = Architecture::with_node_count(2);
        let fm = FaultModel::none();
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let problem = Problem::new(g, arch, wcet, fm, bus);
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
        ]);
        (problem, design)
    }

    #[test]
    fn slot_swap_improves_skewed_traffic() {
        let (problem, design) = skewed_problem();
        let before = problem.evaluate(&design).unwrap().length();
        let outcome = optimize_bus(&problem, &design, &BusOptConfig::default()).unwrap();
        assert!(
            outcome.schedule.length() < before,
            "swapping N1 into the first slot must help: {} vs {before}",
            outcome.schedule.length()
        );
        // N1 now transmits first.
        assert_eq!(outcome.bus.slot_of_node(NodeId::new(1)), 0);
        assert!(outcome.stats.evaluations > 1);
    }

    #[test]
    fn never_worse_than_initial() {
        let (problem, design) = skewed_problem();
        let before = problem.evaluate(&design).unwrap().cost();
        let outcome = optimize_bus(&problem, &design, &BusOptConfig::default()).unwrap();
        assert!(outcome.schedule.cost() <= before);
    }

    #[test]
    fn capacity_sweep_considers_larger_frames() {
        let (problem, design) = skewed_problem();
        let cfg = BusOptConfig {
            max_rounds: 0,
            capacity_multiples: vec![1, 4],
            ..BusOptConfig::default()
        };
        let outcome = optimize_bus(&problem, &design, &cfg).unwrap();
        // With a single 4-byte message larger frames only stretch the
        // round: the minimum capacity must win.
        assert_eq!(outcome.bus.slot_bytes(), 4);
    }

    #[test]
    fn repeated_capacity_pass_is_served_from_the_memo() {
        let (problem, design) = skewed_problem();
        let run = |capacity_multiples: Vec<u32>| {
            let cfg = BusOptConfig {
                capacity_multiples,
                ..BusOptConfig::default()
            };
            optimize_bus(&problem, &design, &cfg).unwrap()
        };
        let (once, twice) = (run(vec![1]), run(vec![1, 1]));
        assert_eq!(twice.bus, once.bus);
        assert_eq!(twice.schedule.cost(), once.schedule.cost());
        assert_eq!(
            twice.stats.evaluations, once.stats.evaluations,
            "the repeated pass schedules nothing"
        );
        assert!(
            twice.stats.cache_hits > once.stats.cache_hits,
            "the repeated pass is served from the memo: {:?} vs {:?}",
            twice.stats,
            once.stats
        );
    }
}
