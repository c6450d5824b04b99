//! The crash-injection harness.
//!
//! Every durability-relevant boundary of the worker loop is a named
//! **fault point**; [`FAULT_POINTS`] is the closed registry the
//! crash-matrix tests and CI iterate over. An [`Injector`] arms one
//! point (optionally the n-th hit of it) and, when the worker reaches
//! it, either
//!
//! * aborts the process ([`CrashMode::Abort`] — the real-kill mode
//!   behind the `FTDES_CRASH_AT` environment variable), or
//! * returns [`DriveError::InjectedCrash`] ([`CrashMode::Error`]),
//!   which stops every worker of the drive without touching the store
//!   again — observationally identical to a kill for everything the
//!   log can see, and usable in-process by tests and benches.
//!
//! The recovery property the registry exists to check: **for every
//! fault point, crash → reopen → resume produces aggregate results
//! bit-identical to an uncrashed run** (job executors are
//! deterministic, committed results are replayed from the log, and
//! re-claimed jobs recompute the same values).

use crate::error::DriveError;

/// Every registered fault point, in worker-loop order. Every worker
/// of a drive passes them under the store mutex, so a crash at any
/// worker count stops the drive before another event reaches the log.
///
/// * `claim.before_append` — a job was selected, nothing logged yet.
/// * `claim.after_append` — the claim is durable; the driver dies
///   with the job unfinished, and the next driver re-runs it at once.
/// * `done.before_append` — the job ran to completion but the result
///   was never committed; the job re-runs on resume.
/// * `done.torn_append` — the crash hit *mid-write*: a prefix of the
///   `Done` line reaches the file with no newline. Replay must drop
///   the torn line and behave exactly like `done.before_append`.
/// * `done.after_append` — the result is durable; the crash costs
///   only the jobs that never started.
/// * `quarantine.before_append` — a job failed but its quarantine
///   never committed; recovery re-runs the job once more and
///   quarantines it then.
pub const FAULT_POINTS: &[&str] = &[
    "claim.before_append",
    "claim.after_append",
    "done.before_append",
    "done.torn_append",
    "done.after_append",
    "quarantine.before_append",
];

/// Environment variable selecting a fault point for real-kill runs:
/// `FTDES_CRASH_AT=<point>[:<n>]` crashes at the n-th (default
/// first) hit of `<point>`.
pub const CRASH_ENV: &str = "FTDES_CRASH_AT";

/// What happens when an armed fault point is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// `std::process::abort()` — an actual kill, for subprocess
    /// harnesses.
    Abort,
    /// Return [`DriveError::InjectedCrash`] — in-process simulation
    /// with identical log-visible effects.
    Error,
}

/// An armed (or inert) crash injector.
#[derive(Debug, Clone)]
pub struct Injector {
    point: Option<String>,
    hits_remaining: u64,
    mode: CrashMode,
}

impl Injector {
    /// An injector that never fires.
    #[must_use]
    pub fn none() -> Self {
        Injector {
            point: None,
            hits_remaining: 0,
            mode: CrashMode::Error,
        }
    }

    /// Arms `point` (must be registered) to fire on its `nth` hit
    /// (1-based).
    ///
    /// # Errors
    ///
    /// A message naming the unknown point or invalid count.
    pub fn at(point: &str, nth: u64, mode: CrashMode) -> Result<Self, String> {
        if !FAULT_POINTS.contains(&point) {
            return Err(format!(
                "unknown fault point {point:?} (registered: {})",
                FAULT_POINTS.join(", ")
            ));
        }
        if nth == 0 {
            return Err("fault-point hit count is 1-based".into());
        }
        Ok(Injector {
            point: Some(point.to_owned()),
            hits_remaining: nth,
            mode,
        })
    }

    /// Reads [`CRASH_ENV`] (`<point>[:<n>]`); unset means
    /// [`Injector::none`]. Always arms [`CrashMode::Abort`].
    ///
    /// # Errors
    ///
    /// A message describing the malformed value.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(CRASH_ENV) {
            Err(_) => Ok(Injector::none()),
            Ok(value) => {
                let (point, nth) = match value.split_once(':') {
                    Some((p, n)) => (
                        p.to_owned(),
                        n.parse::<u64>()
                            .map_err(|_| format!("{CRASH_ENV}: invalid hit count {n:?}"))?,
                    ),
                    None => (value, 1),
                };
                Injector::at(&point, nth, CrashMode::Abort).map_err(|e| format!("{CRASH_ENV}: {e}"))
            }
        }
    }

    /// Reports reaching `point`. Returns `Err` (or aborts) when the
    /// armed point's countdown hits zero.
    ///
    /// # Errors
    ///
    /// [`DriveError::InjectedCrash`] in [`CrashMode::Error`].
    pub fn hit(&mut self, point: &str) -> Result<(), DriveError> {
        if self.fires(point) {
            Err(self.crash(point))
        } else {
            Ok(())
        }
    }

    /// Counts one pass of `point`; true when this pass is the armed
    /// one. The worker uses it for the torn-append point, which must
    /// write half a line before it [`crash`](Injector::crash)es.
    pub(crate) fn fires(&mut self, point: &str) -> bool {
        debug_assert!(FAULT_POINTS.contains(&point), "unregistered point {point}");
        if self.point.as_deref() != Some(point) || self.hits_remaining == 0 {
            return false;
        }
        self.hits_remaining -= 1;
        self.hits_remaining == 0
    }

    /// The crash at `point`: aborts the process in
    /// [`CrashMode::Abort`], returns [`DriveError::InjectedCrash`] in
    /// [`CrashMode::Error`].
    #[must_use]
    pub(crate) fn crash(&self, point: &str) -> DriveError {
        match self.mode {
            CrashMode::Abort => {
                eprintln!("ftdes-serve: injected crash at fault point {point:?}");
                std::process::abort();
            }
            CrashMode::Error => DriveError::InjectedCrash {
                point: point.to_owned(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_points_are_rejected() {
        assert!(Injector::at("bogus.point", 1, CrashMode::Error).is_err());
        assert!(Injector::at("claim.before_append", 0, CrashMode::Error).is_err());
    }

    #[test]
    fn countdown_fires_on_nth_hit() {
        let mut inj = Injector::at("done.before_append", 2, CrashMode::Error).unwrap();
        assert!(inj.hit("claim.before_append").is_ok(), "other points pass");
        assert!(inj.hit("done.before_append").is_ok(), "first hit survives");
        match inj.hit("done.before_append") {
            Err(DriveError::InjectedCrash { point }) => {
                assert_eq!(point, "done.before_append");
            }
            other => panic!("expected injected crash, got {other:?}"),
        }
    }

    #[test]
    fn torn_append_counts_every_pass() {
        // The worker asks `fires` on every Done commit: the countdown
        // moves on each pass, so `done.torn_append:2` tears the second.
        let mut inj = Injector::at("done.torn_append", 2, CrashMode::Error).unwrap();
        assert!(!inj.fires("done.torn_append"), "first pass survives");
        assert!(inj.fires("done.torn_append"), "second pass tears");
        assert!(!inj.fires("done.torn_append"), "a fired point stays quiet");
    }

    #[test]
    fn inert_injector_never_fires() {
        let mut inj = Injector::none();
        for point in FAULT_POINTS {
            assert!(inj.hit(point).is_ok());
        }
    }
}
