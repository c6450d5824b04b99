//! # ftdes-faultsim
//!
//! A discrete-event replay engine for the static fault-tolerant
//! schedules produced by `ftdes-sched`: inject a concrete transient-
//! fault scenario (which execution attempts fail) and observe the
//! contingency behaviour — re-executions, replica switch-overs, and
//! the node-local schedule shifts that the paper's runtime kernel
//! performs.
//!
//! Its main purpose is *validation*: for every admissible scenario
//! the realized finish times must stay below the scheduler's analytic
//! worst-case bounds, every process must complete, and no message may
//! miss its static TDMA slot. The property-based tests of the
//! workspace lean on this crate.
//!
//! # Examples
//!
//! ```
//! use ftdes_model::prelude::*;
//! use ftdes_ttp::BusConfig;
//! use ftdes_sched::list_schedule;
//! use ftdes_faultsim::{simulate, FaultScenario};
//!
//! let mut g = ProcessGraph::new(0.into());
//! let a = g.add_process();
//! let wcet: WcetTable =
//!     [(a, NodeId::new(0), Time::from_ms(30))].into_iter().collect();
//! let arch = Architecture::with_node_count(1);
//! let fm = FaultModel::new(1, Time::from_ms(10));
//! let bus = BusConfig::initial(&arch, 4, Time::from_ms(1))?;
//! let design = Design::from_decisions(vec![ProcessDesign::new(
//!     FtPolicy::reexecution(&fm),
//!     vec![0.into()],
//! )?]);
//! let sched = list_schedule(&g, &arch, &wcet, &fm, &bus, &design)?;
//! let report = simulate(&sched, &g, &fm, &FaultScenario::none());
//! assert!(report.all_processes_complete());
//! assert!(report.max_overrun().is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod degrade;
pub mod engine;
pub mod montecarlo;
pub mod report;
pub mod scenario;

pub use degrade::{
    degrade_and_repair, degrade_and_repair_adversarial, most_loaded_node, DegradeError,
    DegradeReport,
};
pub use engine::{replay_scenarios, simulate, Replay};
pub use montecarlo::{length_distribution, LengthDistribution};
pub use report::{InstanceOutcome, SimulationReport};
pub use scenario::{
    adversarial_scenario, enumerate_scenarios, random_scenarios, FaultHit, FaultScenario,
};
