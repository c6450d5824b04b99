//! # ftdes-gen
//!
//! Workload generation for the DATE 2005 fault-tolerance design
//! optimization experiments: seeded synthetic applications matching
//! the paper's setup (random / tree / chain-group graphs, uniform and
//! exponential WCETs in 10–100 ms, 1–4 byte messages) and the
//! 32-process cruise-controller case study.
//!
//! # Examples
//!
//! ```
//! use ftdes_gen::{generate, WorkloadParams};
//! use ftdes_model::architecture::Architecture;
//!
//! let arch = Architecture::with_node_count(4);
//! let workload = generate(&WorkloadParams::paper(60), &arch, 42);
//! assert_eq!(workload.graph.process_count(), 60);
//! workload.graph.validate()?;
//! # Ok::<(), ftdes_model::error::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cc;
pub mod comm;
pub mod params;
pub mod random;

pub use cc::{cruise_controller, cruise_controller_multirate, CruiseController, MultiRateCc};
pub use comm::{comm_heavy, CommHeavyParams};
pub use params::{GraphStructure, WcetDistribution, WorkloadParams};
pub use random::{generate, paper_workload, Workload};
