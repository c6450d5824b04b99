//! # ftdes — fault-tolerant distributed embedded system design
//!
//! A complete, self-contained implementation of *“Design Optimization
//! of Time- and Cost-Constrained Fault-Tolerant Distributed Embedded
//! Systems”* (Izosimov, Pop, Eles, Peng — DATE 2005): given a set of
//! periodic process graphs mapped onto nodes connected by a
//! time-triggered (TDMA) bus, and a fault hypothesis of at most `k`
//! transient faults of duration `µ` per cycle, find a mapping and a
//! per-process mix of **re-execution** and **active replication**
//! such that a static cyclic schedule tolerates every admissible
//! fault scenario and still meets all deadlines — without adding
//! hardware.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — application graphs, architectures, WCET tables,
//!   fault models, policies and designs,
//! * [`ttp`] — the TDMA bus: slots, rounds, frame packing, MEDL,
//! * [`sched`] — the fault-tolerance-aware list scheduler
//!   (transparent re-execution, slack sharing, contingency
//!   schedules),
//! * [`faultsim`] — a replay engine that injects concrete fault
//!   scenarios, validates the analytic worst case, and drives
//!   end-to-end degrade-and-repair recovery scenarios,
//! * [`core`] — the optimization strategies (MXR / MX / MR / SFX /
//!   NFT: initial construction, greedy improvement, tabu search) and
//!   the problem-delta repair ladder for graceful degradation,
//! * [`gen`] — synthetic workload generation and the 32-process
//!   cruise-controller case study,
//! * [`serve`] — crash-safe sweep orchestration: experiment DAGs over
//!   an append-only event log with one locked driver, quarantine of a
//!   failing job on its first attempt, and a crash-injection harness
//!   whose contract is *resume ≡ uncrashed, bit-identical*,
//! * [`mod@bench`] — the experiment harness: the sweep-job adapters
//!   that map the paper's tables and the χ and repair studies onto
//!   [`serve`] job DAGs, and the one generated-instance request
//!   (`InstanceRequest`) the CLI, the sweep jobs and perfgate build
//!   their problems through.
//!
//! # Quickstart
//!
//! ```
//! use ftdes::prelude::*;
//!
//! // A three-process pipeline on a two-node architecture.
//! let mut g = ProcessGraph::new(0.into());
//! let sense = g.add_process();
//! let compute = g.add_process();
//! let actuate = g.add_process();
//! g.add_edge(sense, compute, Message::new(4))?;
//! g.add_edge(compute, actuate, Message::new(2))?;
//!
//! let mut wcet = WcetTable::new();
//! for p in [sense, compute, actuate] {
//!     wcet.set(p, 0.into(), Time::from_ms(20));
//!     wcet.set(p, 1.into(), Time::from_ms(25));
//! }
//!
//! let arch = Architecture::with_node_count(2);
//! let fault_model = FaultModel::new(1, Time::from_ms(5));
//! let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500))?;
//! let problem = Problem::new(g, arch, wcet, fault_model, bus);
//!
//! let outcome = optimize(&problem, Strategy::Mxr, &SearchConfig::experiments())?;
//! println!("worst-case delay: {}", outcome.length());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use ftdes_bench as bench;
pub use ftdes_core as core;
pub use ftdes_faultsim as faultsim;
pub use ftdes_gen as gen;
pub use ftdes_model as model;
pub use ftdes_sched as sched;
pub use ftdes_serve as serve;
pub use ftdes_ttp as ttp;

/// One-stop imports for applications using the library.
pub mod prelude {
    pub use ftdes_bench::{Family, InstanceRequest};
    pub use ftdes_core::prelude::*;
    pub use ftdes_faultsim::{
        adversarial_scenario, degrade_and_repair, degrade_and_repair_adversarial,
        enumerate_scenarios, length_distribution, most_loaded_node, random_scenarios, simulate,
        DegradeError, DegradeReport, FaultHit, FaultScenario, LengthDistribution,
    };
    pub use ftdes_gen::{
        comm_heavy, cruise_controller, generate, paper_workload, CommHeavyParams, WorkloadParams,
    };
    pub use ftdes_model::prelude::*;
    pub use ftdes_sched::{list_schedule, Schedule, ScheduleCost};
    pub use ftdes_ttp::{BusConfig, BusSchedule, MessageTag};
}
