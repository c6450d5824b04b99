//! Transient fault model (paper §2.1, checkpointing per the TVLSI
//! follow-up).
//!
//! At most `k` transient faults may occur anywhere in the system
//! during one operation cycle of the application — several faults may
//! hit different processors simultaneously, and several faults may
//! hit the *same* processor (even the same process repeatedly). Each
//! fault costs a worst-case detection/recovery overhead `µ` from
//! detection until normal operation resumes, and is confined to a
//! single process.
//!
//! # Checkpointing (`χ`)
//!
//! The paper family's follow-up (Pop/Izosimov/Eles/Peng, TVLSI 2009)
//! adds **checkpointing with rollback recovery** as the third
//! fault-tolerance technique beside re-execution and replication. A
//! process may save its state at `n − 1` evenly spaced checkpoints,
//! splitting its execution into `n` segments; each save costs the
//! checkpointing overhead `χ`. A fault then rolls the process back to
//! the latest save and re-runs only the failed segment:
//!
//! * fault-free execution grows to `C + χ·(n − 1)`
//!   ([`FaultModel::checkpointed_exec`]),
//! * the worst-case marginal cost of one fault drops from `C + µ` to
//!   `⌈C/n⌉ + χ + µ` ([`FaultModel::worst_case_recovery`] plus `µ`):
//!   the longest segment is re-run and its ending checkpoint
//!   re-established.
//!
//! With `n = 1` (no checkpoints) both formulas collapse to the
//! paper's original re-execution accounting, and `χ` defaults to zero
//! so existing `(k, µ)` models behave bit-identically.

use serde::{Deserialize, Serialize};

use crate::time::Time;

/// The transient fault hypothesis `(k, µ, χ)`.
///
/// # Examples
///
/// ```
/// use ftdes_model::fault::FaultModel;
/// use ftdes_model::time::Time;
///
/// // The cruise-controller experiment: k = 2 faults of µ = 2 ms.
/// let fm = FaultModel::new(2, Time::from_ms(2));
/// assert_eq!(fm.k(), 2);
/// // A process tolerating all faults by pure replication needs k + 1
/// // replicas (Fig. 2b).
/// assert_eq!(fm.max_replicas(), 3);
/// // Checkpointing: with χ = 1 ms, a 30 ms process split into 3
/// // segments recovers a fault in 10 + 1 ms instead of 30 ms.
/// let fm = fm.with_checkpoint_overhead(Time::from_ms(1));
/// assert_eq!(fm.worst_case_recovery(Time::from_ms(30), 3), Time::from_ms(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultModel {
    k: u32,
    mu: Time,
    /// Checkpointing overhead χ (cost of saving one checkpoint).
    chi: Time,
}

impl FaultModel {
    /// The largest supported fault count: `k + 1` replicas
    /// ([`FaultModel::max_replicas`]) must fit a `u32`. Input
    /// front-ends reject a larger `k`.
    pub const MAX_K: u32 = u32::MAX - 1;

    /// Creates a fault model tolerating `k` transient faults of
    /// worst-case duration `mu` each. The checkpointing overhead `χ`
    /// defaults to zero; set it with
    /// [`FaultModel::with_checkpoint_overhead`].
    ///
    /// `k` must not exceed [`FaultModel::MAX_K`]: a larger count
    /// overflows [`FaultModel::max_replicas`].
    #[must_use]
    pub const fn new(k: u32, mu: Time) -> Self {
        FaultModel {
            k,
            mu,
            chi: Time::ZERO,
        }
    }

    /// A fault model with no faults — used to derive the non-fault-
    /// tolerant (NFT) reference implementation of the experiments.
    #[must_use]
    pub const fn none() -> Self {
        FaultModel {
            k: 0,
            mu: Time::ZERO,
            chi: Time::ZERO,
        }
    }

    /// Sets the checkpointing overhead `χ` (builder style).
    #[must_use]
    pub const fn with_checkpoint_overhead(mut self, chi: Time) -> Self {
        self.chi = chi;
        self
    }

    /// The maximum number of transient faults per operation cycle.
    #[must_use]
    pub const fn k(&self) -> u32 {
        self.k
    }

    /// The worst-case fault duration µ (detection + recovery switch).
    #[must_use]
    pub const fn mu(&self) -> Time {
        self.mu
    }

    /// The checkpointing overhead χ (one state save).
    #[must_use]
    pub const fn chi(&self) -> Time {
        self.chi
    }

    /// Returns `true` if no fault tolerance is required.
    #[must_use]
    pub const fn is_fault_free(&self) -> bool {
        self.k == 0
    }

    /// The number of replicas needed to tolerate all `k` faults by
    /// space redundancy alone (paper Fig. 2b): `k + 1`.
    #[must_use]
    pub const fn max_replicas(&self) -> u32 {
        self.k + 1
    }

    /// Worst-case time to run a process of WCET `c` with `e`
    /// re-execution attempts all used (paper Fig. 2a): the initial
    /// run plus `e` times (µ + c).
    #[must_use]
    pub fn worst_case_reexecution(&self, c: Time, e: u32) -> Time {
        c + (self.mu + c) * u64::from(e)
    }

    /// Fault-free execution time of a process of WCET `c` split into
    /// `n` checkpointed segments: the `n − 1` interior state saves
    /// cost `χ` each. `n ≤ 1` means no checkpointing (plain `c`).
    #[must_use]
    pub fn checkpointed_exec(&self, c: Time, n: u32) -> Time {
        if n <= 1 {
            return c;
        }
        c + self.chi * u64::from(n - 1)
    }

    /// The worst-case per-fault rollback cost (excluding `µ`) of a
    /// process of WCET `c` with `n` checkpointed segments: the
    /// longest segment (`⌈c/n⌉`) is re-run and its ending checkpoint
    /// re-established (`+ χ`, only when checkpoints exist at all).
    /// For `n ≤ 1` this is the full re-execution `c` of the paper's
    /// original model.
    ///
    /// This value dominates [`FaultModel::segment_rerun`] over every
    /// segment, which is what makes the scheduler's analytic bounds
    /// sound against the simulator's segment-level rollback replay.
    #[must_use]
    pub fn worst_case_recovery(&self, c: Time, n: u32) -> Time {
        if n <= 1 {
            return c;
        }
        Time::from_us(c.as_us().div_ceil(u64::from(n))) + self.chi
    }

    /// Length of segment `s` (0-based) of a process of WCET `c` split
    /// into `n` segments: `c` is divided as evenly as possible, the
    /// first `c mod n` segments getting the extra microsecond.
    #[must_use]
    pub fn segment_length(c: Time, n: u32, s: u32) -> Time {
        let n = u64::from(n.max(1));
        let s = u64::from(s).min(n - 1);
        let base = c.as_us() / n;
        let extra = u64::from(s < c.as_us() % n);
        Time::from_us(base + extra)
    }

    /// The realized rollback cost (excluding `µ`) of a fault striking
    /// segment `s` of a process of WCET `c` with `n` segments: the
    /// segment is re-run, and interior segments (`s < n − 1`)
    /// additionally re-establish their ending checkpoint (`+ χ`).
    /// Always `≤` [`FaultModel::worst_case_recovery`]`(c, n)`.
    #[must_use]
    pub fn segment_rerun(&self, c: Time, n: u32, s: u32) -> Time {
        if n <= 1 {
            return c;
        }
        let s = s.min(n - 1);
        let save = if s < n - 1 { self.chi } else { Time::ZERO };
        Self::segment_length(c, n, s) + save
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_worst_case() {
        // C1 = 30 ms, k = 2, µ = 10 ms => P1, P1/2, P1/3 finish at 110 ms.
        let fm = FaultModel::new(2, Time::from_ms(10));
        assert_eq!(
            fm.worst_case_reexecution(Time::from_ms(30), 2),
            Time::from_ms(110)
        );
    }

    #[test]
    fn none_is_fault_free() {
        let fm = FaultModel::none();
        assert!(fm.is_fault_free());
        assert_eq!(fm.max_replicas(), 1);
        assert_eq!(fm, FaultModel::default());
        assert_eq!(
            fm.worst_case_reexecution(Time::from_ms(30), 0),
            Time::from_ms(30)
        );
    }

    #[test]
    fn accessors() {
        let fm = FaultModel::new(3, Time::from_ms(5));
        assert_eq!(fm.k(), 3);
        assert_eq!(fm.mu(), Time::from_ms(5));
        assert_eq!(fm.chi(), Time::ZERO);
        assert!(!fm.is_fault_free());
        let cp = fm.with_checkpoint_overhead(Time::from_ms(1));
        assert_eq!(cp.chi(), Time::from_ms(1));
        assert_eq!((cp.k(), cp.mu()), (fm.k(), fm.mu()));
    }

    #[test]
    fn checkpointed_exec_adds_interior_saves() {
        let fm = FaultModel::new(2, Time::from_ms(10)).with_checkpoint_overhead(Time::from_ms(1));
        let c = Time::from_ms(30);
        assert_eq!(fm.checkpointed_exec(c, 1), c, "n = 1: no overhead");
        assert_eq!(fm.checkpointed_exec(c, 3), Time::from_ms(32));
        // χ = 0 keeps the execution time regardless of n.
        let free = FaultModel::new(2, Time::from_ms(10));
        assert_eq!(free.checkpointed_exec(c, 5), c);
    }

    #[test]
    fn recovery_shrinks_with_segments() {
        let fm = FaultModel::new(2, Time::from_ms(10)).with_checkpoint_overhead(Time::from_ms(1));
        let c = Time::from_ms(30);
        assert_eq!(fm.worst_case_recovery(c, 1), c, "n = 1: full re-run");
        assert_eq!(fm.worst_case_recovery(c, 3), Time::from_ms(11));
        // Indivisible WCETs round the segment up: ⌈31000/3⌉ + 1000.
        assert_eq!(
            fm.worst_case_recovery(Time::from_us(31_000), 3),
            Time::from_us(11_334)
        );
    }

    #[test]
    fn segment_lengths_partition_the_wcet() {
        let fm = FaultModel::new(1, Time::from_ms(5)).with_checkpoint_overhead(Time::from_us(100));
        let c = Time::from_us(31_000);
        for n in 1..=5u32 {
            let total: u64 = (0..n)
                .map(|s| FaultModel::segment_length(c, n, s).as_us())
                .sum();
            assert_eq!(total, c.as_us(), "n = {n}: segments partition C");
            for s in 0..n {
                assert!(
                    fm.segment_rerun(c, n, s) <= fm.worst_case_recovery(c, n),
                    "n = {n}, s = {s}: realized rollback exceeds the worst case"
                );
            }
        }
    }

    #[test]
    fn last_segment_rerun_skips_the_save() {
        let fm = FaultModel::new(1, Time::from_ms(5)).with_checkpoint_overhead(Time::from_ms(2));
        let c = Time::from_ms(30);
        // Interior segment: 10 + 2; final segment: 10 alone.
        assert_eq!(fm.segment_rerun(c, 3, 0), Time::from_ms(12));
        assert_eq!(fm.segment_rerun(c, 3, 2), Time::from_ms(10));
        // n = 1: the whole process, no save.
        assert_eq!(fm.segment_rerun(c, 1, 0), c);
    }
}
