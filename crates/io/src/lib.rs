//! # ftdes-io
//!
//! Problem-file parsing and result reporting for the `ftdes` tool
//! suite:
//!
//! * [`mod@format`] — a TGFF-style text format describing an
//!   architecture, a fault model, periodic process graphs, WCETs (one
//!   per process-node pair; a repeated pair is a duplicate error) and
//!   designer constraints (see the module docs for the grammar),
//! * [`mod@delta`] — `--delta` spec parsing for the `repair` command,
//! * [`report`] — stable JSON serialization of optimization results,
//! * [`mod@sweep`] — sweep-spec parsing for the crash-safe experiment
//!   orchestrator (`ftdes-serve` + `ftdes-bench::jobs`),
//! * the `ftdes` binary — `solve` / `inject` / `repair` / `info`
//!   commands over problem files, plus `sweep run|resume|status`
//!   over sweep stores.
//!
//! # Examples
//!
//! ```
//! use ftdes_io::format::parse_problem;
//!
//! let spec = parse_problem(r"
//! architecture A B
//! fault_model k=1 mu=5ms
//! graph period=100ms
//!   process x
//!   process y
//!   edge x y bytes=2
//! wcet x * 10ms
//! wcet y * 20ms
//! ")?;
//! let (problem, _merged) = spec.into_problem()?;
//! assert_eq!(problem.process_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod delta;
pub mod error;
pub mod format;
pub mod report;
pub mod sweep;
pub mod write;

pub use delta::{
    parse_delta, parse_delta_op, parse_delta_op_with, parse_delta_with, DeltaNames, ParseDeltaError,
};
pub use error::{ErrorKind, ParseProblemError};
pub use format::{parse_problem, ProblemSpec};
pub use report::{solution_report, to_json, SolutionReport};
pub use sweep::{parse_sweep, ParseSweepError};
pub use write::write_problem;
