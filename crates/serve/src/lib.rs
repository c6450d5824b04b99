//! # ftdes-serve
//!
//! Crash-safe sweep orchestration: a persistent job graph over an
//! append-only JSONL event log, holding the experiment layer to the
//! same fault-tolerance standard the optimizer designs for.
//!
//! A **sweep** is a DAG of [`JobSpec`]s (generate → optimize →
//! faultsim → aggregate; the domain adapters live in `ftdes-bench`).
//! The DAG and everything that happens to it — claims, results,
//! quarantines — is an event stream in one JSONL file
//! ([`SweepStore`]), and all state is reconstructed by replay
//! ([`SweepState`]): crash recovery is a no-op by construction, and a
//! write torn mid-append is detected and dropped on the next open.
//!
//! Robustness machinery:
//!
//! * **one locked driver per store** — [`SweepStore::create`] and
//!   [`SweepStore::open`] take an exclusive file lock, which the OS
//!   releases when the driver dies. A second driver is refused, so a
//!   claim without an outcome in a replayed log belongs to a dead
//!   driver and re-runs at once. [`drive`] runs one claim → execute →
//!   commit loop for 1..N workers over the locked store;
//! * **one attempt per job** — executors are deterministic, so a job
//!   whose executor fails or panics would fail the same way again: it
//!   is **quarantined** on that attempt with its error, and
//!   dependents are reported as permanently blocked instead of
//!   spinning. Nothing in this crate reads a clock;
//! * **crash-injection harness** — every durability boundary of the
//!   worker loop is a registered fault point ([`FAULT_POINTS`]);
//!   [`Injector`] kills the driver there (for real via
//!   `FTDES_CRASH_AT`, or in-process as an error) at any worker
//!   count, and the crash-matrix suites check that *resume after any
//!   crash produces aggregate results bit-identical to the uncrashed
//!   run*.
//!
//! The `ftdes sweep run|resume|status` CLI (in `ftdes-io`) drives
//! full experiment sweeps through this store; `ftdes-bench::jobs`
//! maps sweep specs onto job DAGs and executes them against the
//! deterministic optimizer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crash;
pub mod error;
pub mod event;
pub mod state;
pub mod store;
pub mod worker;

pub use crash::{CrashMode, Injector, CRASH_ENV, FAULT_POINTS};
pub use error::{DriveError, StoreError};
pub use event::{fingerprint, jobs_fingerprint, Event, JobSpec};
pub use state::{JobState, JobStatus, StatusCounts, SweepState};
pub use store::{ReplayReport, SweepStore};
pub use worker::{drive, DepResult, DriveReport, JobExec, WorkerConfig};
