//! # ftdes-sched
//!
//! Fault-tolerance-aware static list scheduling for distributed
//! embedded systems over a TDMA bus, reproducing §5.1 of Izosimov,
//! Pop, Eles & Peng (DATE 2005):
//!
//! * shared re-execution slack per node ([`slack::SlackAccount`],
//!   paper Fig. 3b),
//! * transparent re-execution: inter-node messages are booked at the
//!   sender's worst-case finish (paper Fig. 4),
//! * first-valid-message consumption of replica outputs with
//!   contingency schedules (paper Fig. 7),
//! * schedule cost = (deadline violation, worst-case length δ) for
//!   the optimization loop.
//!
//! # The evaluation engine
//!
//! The optimizer scores hundreds of thousands of candidate designs
//! per second, so the scheduler exposes a layered evaluation engine
//! on top of one shared placement core (all layers run the *same*
//! placement code, so they cannot diverge — guarded by parity tests
//! in `ftdes-core`):
//!
//! * [`list_schedule`] — full materialization: tables, bus bookings,
//!   MEDL. Used for the winner of each search iteration and anything
//!   user-facing.
//! * [`schedule_cost`] — the cost-only front-end: identical
//!   placement, no-op sink, allocation-free via a caller-owned
//!   [`CostScratch`]. The window-evaluation workhorse.
//! * [`schedule_cost_bounded`] — cost-only with an incumbent bound:
//!   the run aborts with a **certified lower bound** as soon as the
//!   placement state proves the candidate cannot beat the incumbent.
//!   Certificates combine the running worst-case completions and an
//!   O(nodes) remaining-computation lookahead.
//! * [`schedule_cost_resumed`] — single-move candidates scored
//!   against the winner's [`incremental::PlacementCheckpoints`]
//!   through the **suffix-splicing engine** (evaluation engine v3):
//!   the recorder captures per-node placement segments and
//!   per-(node, slot) bus timelines, an order certificate proves the
//!   candidate replays the recorded selection order (possibly with
//!   priority-changed processes *floating* to certified landing
//!   slots), and only the certified **affected cone** is re-placed —
//!   everything else splices from the recording. A candidate whose
//!   certificate fails is placed from position 0 on its patched
//!   expansion. [`schedule_cost_spliced`] pins the splice engine for
//!   tests and profilers.
//!
//! A bus-configuration probe (a slot swap of the bus-access
//! optimization) shifts slot timing globally, so it runs
//! [`schedule_cost_bounded`] from scratch under the candidate bus.
//!
//! Bus bookings go through a selectable [`OccupancyBackend`]
//! ([`list::ScheduleOptions::occupancy`]): bit-packed per-(node,
//! slot) saturation bitmaps — saturated words skipped whole, partial
//! words threshold-scanned (default) — or the legacy flat tail scan.
//! Both book identical occurrences (debug builds assert it per
//! booking), so the flat scan survives as the parity oracle and an
//! ablation. The ready-list priority function is
//! likewise selectable ([`priority::PriorityStrategy`]):
//! partial-critical-path (paper §5.1, default) or mobility (ALAP −
//! ASAP float) — unlike the occupancy backend, a genuine
//! search-space knob.
//!
//! # Examples
//!
//! Schedule a two-process chain, re-executed on one node:
//!
//! ```
//! use ftdes_model::prelude::*;
//! use ftdes_ttp::BusConfig;
//! use ftdes_sched::list_schedule;
//!
//! let mut g = ProcessGraph::new(0.into());
//! let a = g.add_process();
//! let b = g.add_process();
//! g.add_edge(a, b, Message::new(4))?;
//! let wcet: WcetTable = [
//!     (a, NodeId::new(0), Time::from_ms(40)),
//!     (b, NodeId::new(0), Time::from_ms(60)),
//! ]
//! .into_iter()
//! .collect();
//! let arch = Architecture::with_node_count(2);
//! let fm = FaultModel::new(1, Time::from_ms(10));
//! let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500))?;
//! let design = Design::from_decisions(vec![
//!     ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()])?,
//!     ProcessDesign::new(FtPolicy::reexecution(&fm), vec![0.into()])?,
//! ]);
//! let schedule = list_schedule(&g, &arch, &wcet, &fm, &bus, &design)?;
//! // Fault-free 100 ms plus a shared slack of C_b + µ = 70 ms.
//! assert_eq!(schedule.length(), Time::from_ms(170));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod delta;
pub mod error;
pub mod incremental;
pub mod instance;
pub mod list;
mod occupancy;
pub mod priority;
pub mod render;
pub mod schedule;
mod segments;
pub mod slack;
pub mod validate;

pub use error::SchedError;

/// Micro-bench access to the occupancy booking table (the booking
/// structures themselves are crate-private engine internals). Not
/// part of the public API surface.
#[doc(hidden)]
pub mod occ_bench {
    pub use crate::occupancy::OccBench;
}

pub use incremental::{schedule_cost_resumed, schedule_cost_spliced, PlacementCheckpoints};
pub use instance::{ExpandedDesign, Instance, InstanceId};
pub use list::{
    list_schedule, list_schedule_recording, list_schedule_with, schedule_cost,
    schedule_cost_bounded, CostOutcome, CostScratch, SchedScratch, ScheduleOptions,
};
pub use occupancy::{OccupancyBackend, BOOKING_HORIZON_ROUNDS};
pub use priority::PriorityStrategy;
pub use schedule::{Bookings, Schedule, ScheduleCost, ScheduledInstance, StartBinding, WcBinding};
