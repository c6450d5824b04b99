//! # ftdes-core
//!
//! Design optimization of time- and cost-constrained fault-tolerant
//! distributed embedded systems — the core contribution of Izosimov,
//! Pop, Eles & Peng (DATE 2005).
//!
//! Given an application (merged process graph), an architecture of
//! nodes on a TTP bus, a WCET table and a `(k, µ)` transient-fault
//! model, the crate searches for a system configuration
//! ψ = ⟨F, M, S⟩: a fault-tolerance policy `F` (re-execution /
//! replication mix) and a mapping `M` per process such that the
//! static schedule `S` tolerates any `k` faults and meets all
//! deadlines — without extra hardware.
//!
//! The search is the paper's three-step strategy (Fig. 6):
//! [`initial::initial_mpa`] → [`greedy::greedy_mpa_with`] →
//! [`tabu::tabu_search_mpa_with`], exposed through
//! [`strategy::optimize`] with the policy spaces
//! MXR / MX / MR and the SFX / NFT baselines.
//!
//! # The candidate-evaluation stack
//!
//! Solution quality under the paper's wall-clock protocol is decided
//! by candidates scored per second, so the search runs on a layered
//! evaluation stack:
//!
//! * [`cache::Evaluator`] — the single entry point the search phases
//!   score candidates through: memoization (48-byte cost entries
//!   keyed by XOR-decomposable design fingerprints, living as long as
//!   the one search that fills them), incremental evaluation against
//!   the winner's recorded placement (the suffix splice) and bounded
//!   early-exit runs. Greedy and tabu score each window through one
//!   call, [`cache::CandidateEval::score`].
//! * [`bus_opt::optimize_bus`] scores one fixed design under candidate
//!   buses: it calls the scheduler itself, bounded by the climbing
//!   incumbent, and memoizes probe costs by bus.
//! * [`parallel::WorkerPool`] — deterministic window parallelism:
//!   results indexed by input position plus `(cost, move index)`
//!   selection make parallel runs bit-identical to sequential ones.
//! * The engine toggles live on [`SearchConfig`]
//!   (`incremental` / `bounded`) and [`problem::Problem`]
//!   ([`problem::Problem::with_occupancy_backend`],
//!   [`problem::Problem::with_suffix_splice`]) — every one of them
//!   is a pure throughput knob, bit-identical by the workspace's
//!   engine parity suite (`tests/engine_parity/`).
//!   [`problem::Problem::with_priority_strategy`] selects the
//!   ready-list priority function instead — a **search-space knob**
//!   whose strategies legitimately reach different designs.
//!
//! # Environment variables
//!
//! The engine reads one environment variable; every other option is
//! passed in through a [`problem::Problem`] builder or a
//! [`SearchConfig`] field:
//!
//! | variable | effect |
//! |---|---|
//! | `FTDES_THREADS` | worker threads for candidate evaluation when [`SearchConfig::threads`] is `0` (default: available parallelism), clamped like explicit requests to [`parallel::MAX_THREADS`] (256). Throughput only — without a wall-clock limit, results are bit-identical for every thread count |
//!
//! Resolution order and details: [`parallel::effective_threads`].
//!
//! # Examples
//!
//! ```
//! use ftdes_core::prelude::*;
//! use ftdes_model::prelude::*;
//! use ftdes_ttp::BusConfig;
//!
//! // Two-process chain, two nodes, one fault to tolerate.
//! let mut g = ProcessGraph::new(0.into());
//! let a = g.add_process();
//! let b = g.add_process();
//! g.add_edge(a, b, Message::new(4))?;
//! let wcet: WcetTable = [
//!     (a, NodeId::new(0), Time::from_ms(20)),
//!     (a, NodeId::new(1), Time::from_ms(25)),
//!     (b, NodeId::new(0), Time::from_ms(30)),
//!     (b, NodeId::new(1), Time::from_ms(35)),
//! ]
//! .into_iter()
//! .collect();
//! let arch = Architecture::with_node_count(2);
//! let fm = FaultModel::new(1, Time::from_ms(5));
//! let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500))?;
//! let problem = Problem::new(g, arch, wcet, fm, bus);
//! let outcome = optimize(&problem, Strategy::Mxr, &SearchConfig::experiments())?;
//! assert!(outcome.length() > Time::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus_opt;
pub mod cache;
pub mod config;
pub mod error;
pub mod greedy;
pub mod initial;
pub mod moves;
pub mod parallel;
pub mod portfolio;
pub mod problem;
pub mod repair;
pub mod space;
pub mod strategy;
pub mod tabu;

/// Convenience re-exports of the optimization entry points.
pub mod prelude {
    pub use crate::bus_opt::{optimize_bus, BusOptConfig, BusOptOutcome};
    pub use crate::cache::{CandidateEval, EvalCache, EvalOutcome, Evaluator};
    pub use crate::config::{Goal, SearchConfig, SearchStats};
    pub use crate::error::OptError;
    pub use crate::parallel::{effective_threads, WorkerPool, MAX_THREADS};
    pub use crate::portfolio::{
        optimize_portfolio, PortfolioConfig, PortfolioOutcome, WorkerSummary,
    };
    pub use crate::problem::Problem;
    pub use crate::repair::{
        apply_delta, project_design, repair, RepairBudget, RepairError, RepairOutcome, RepairRung,
        RungAttempt, RungStatus,
    };
    pub use crate::space::PolicySpace;
    pub use crate::strategy::{optimize, overhead_percent, Outcome, Strategy};
    pub use crate::{OccupancyBackend, PriorityStrategy};
}

pub use bus_opt::{optimize_bus, BusOptConfig, BusOptOutcome};
pub use cache::{CandidateEval, EvalCache, EvalOutcome, Evaluator};
pub use config::{Goal, SearchConfig, SearchStats};
pub use error::OptError;
pub use ftdes_sched::{OccupancyBackend, PriorityStrategy};
pub use parallel::{effective_threads, WorkerPool, MAX_THREADS};
pub use portfolio::{optimize_portfolio, PortfolioConfig, PortfolioOutcome, WorkerSummary};
pub use problem::Problem;
pub use repair::{
    apply_delta, project_design, repair, RepairBudget, RepairError, RepairOutcome, RepairRung,
    RungAttempt, RungStatus,
};
pub use space::PolicySpace;
pub use strategy::{optimize, overhead_percent, Outcome, Strategy};
