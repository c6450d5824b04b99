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

use std::time::{Duration, Instant};

use ftdes_model::design::Design;
use ftdes_sched::{list_schedule_with, schedule_cost_bounded, CostScratch, SchedError, Schedule};
use ftdes_ttp::config::BusConfig;

use crate::cache::{bus_fingerprint, EvalCache, EvalOutcome};
use crate::config::SearchStats;
use crate::error::OptError;
use crate::problem::Problem;

/// Hill-climbing rounds over slot swaps, per capacity.
pub const MAX_ROUNDS: usize = 8;

/// Capacity multiples of the largest message the pass tries (1 = the
/// minimum legal slot, the paper's initial configuration).
pub const CAPACITY_MULTIPLES: [u32; 2] = [1, 2];

/// Limits of the bus-access optimization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusOptConfig {
    /// Wall-clock budget of the pass (`None`: unlimited). Once it has
    /// passed, no further probe runs, and the best bus found so far is
    /// materialized.
    pub time_limit: Option<Duration>,
    /// Unused: the slot-swap sweep is sequential, because each
    /// probe is bounded by the incumbent the previous accepted swap
    /// set. Kept so existing configurations still compile; every
    /// value gives the same result.
    pub threads: usize,
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
/// `design`, starting from the problem's current bus configuration:
/// [`MAX_ROUNDS`] rounds of slot swaps at each of the
/// [`CAPACITY_MULTIPLES`], within `cfg.time_limit`.
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
    let cutoff = cfg.time_limit.and_then(|l| Instant::now().checked_add(l));
    climb(problem, design, &CAPACITY_MULTIPLES, MAX_ROUNDS, cutoff)
}

/// [`optimize_bus`] over the given capacity multiples and rounds,
/// probing nothing past `cutoff`.
fn climb(
    problem: &Problem,
    design: &Design,
    multiples: &[u32],
    rounds: usize,
    cutoff: Option<Instant>,
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
            problem.wcet(),
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
    let expired = || cutoff.is_some_and(|c| Instant::now() >= c);
    let base = problem.bus();
    let largest = problem.largest_message();

    let (start, hit) = probe(base, None)?;
    stats.record(start, hit);
    let mut best_bus = base.clone();
    let mut best_cost = start.cost();

    for &multiple in multiples {
        if expired() {
            break;
        }
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
        'rounds: for _ in 0..rounds {
            let mut improved = false;
            for a in 0..slots {
                for b in (a + 1)..slots {
                    if expired() {
                        break 'rounds;
                    }
                    let cand_bus = bus.swap_slots(a, b);
                    let (outcome, hit) = probe(&cand_bus, Some(current_cost))?;
                    stats.record(outcome, hit);
                    // A pruned probe is certified worse than the
                    // incumbent.
                    if let EvalOutcome::Exact(c) = outcome {
                        if c < current_cost {
                            bus = cand_bus;
                            current_cost = c;
                            improved = true;
                        }
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
        problem.wcet(),
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
        let outcome = climb(&problem, &design, &[1, 4], 0, None).unwrap();
        // With a single 4-byte message larger frames only stretch the
        // round: the minimum capacity must win.
        assert_eq!(outcome.bus.slot_bytes(), 4);
    }

    #[test]
    fn repeated_capacity_pass_is_served_from_the_memo() {
        let (problem, design) = skewed_problem();
        let run =
            |multiples: &[u32]| climb(&problem, &design, multiples, MAX_ROUNDS, None).unwrap();
        let (once, twice) = (run(&[1]), run(&[1, 1]));
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

    #[test]
    fn a_spent_time_limit_keeps_the_problem_bus() {
        let (problem, design) = skewed_problem();
        let cfg = BusOptConfig {
            time_limit: Some(Duration::ZERO),
            ..BusOptConfig::default()
        };
        let outcome = optimize_bus(&problem, &design, &cfg).unwrap();
        // The problem's own bus is probed, then materialized: the
        // improving swap is never tried.
        assert_eq!(&outcome.bus, problem.bus());
        assert_eq!(outcome.stats.candidates(), 2);
        assert_eq!(
            outcome.schedule.cost(),
            problem.evaluate(&design).unwrap().cost()
        );
    }
}
