//! The worker loop: claim → execute → commit, with crash points, for
//! one worker or many.
//!
//! A worker owns no state of its own — everything it decides is a
//! function of the replayed [`SweepState`] and the jobs in flight, so
//! it reads no clock. Every decision becomes durable *before* it acts
//! on it (claim before execute, done or quarantine after). Killing
//! the driver at any instant therefore loses at most the work of its
//! in-flight jobs, which the next driver re-runs at once: the store
//! lock guarantees that a claim with no outcome belongs to a driver
//! that is gone.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};

use serde::Value;

use crate::crash::Injector;
use crate::error::DriveError;
use crate::event::{Event, JobSpec};
use crate::state::{JobStatus, SweepState};
use crate::store::SweepStore;

/// One dependency's committed result, handed to the executor.
#[derive(Debug, Clone)]
pub struct DepResult {
    /// The dependency's job id.
    pub id: u64,
    /// Its name.
    pub name: String,
    /// Its kind.
    pub kind: String,
    /// Its committed result, verbatim from the log.
    pub result: Value,
}

/// Executes jobs. Implementations **must be deterministic**: the
/// crash-recovery contract (resume ≡ uncrashed, bit-identical) holds
/// exactly when re-executing a job from the same spec and dependency
/// results reproduces the same value.
pub trait JobExec {
    /// Runs one job. `Err` (or a panic) quarantines the job on this
    /// attempt: a deterministic job would fail the same way again.
    ///
    /// # Errors
    ///
    /// The error string is kept in the job's `Quarantine` event.
    fn execute(&self, spec: &JobSpec, deps: &[DepResult]) -> Result<Value, String>;
}

/// Worker-loop policy knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker identity prefix; worker `w` records `<worker>-<w>` in
    /// its claims.
    pub worker: String,
    /// Threads running the claim → execute → commit loop (at least 1).
    /// Claims and commits serialize through the store; execution runs
    /// concurrently.
    pub workers: usize,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker: "w".into(),
            workers: 1,
        }
    }
}

/// What a [`drive`] run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Jobs this run executed to a committed `Done`.
    pub executed: usize,
    /// Claims re-run that a dead driver left without an outcome.
    pub reclaimed: usize,
    /// Jobs quarantined by this run.
    pub quarantined: usize,
    /// Jobs left permanently blocked behind quarantined dependencies.
    pub blocked: usize,
}

/// Everything the workers of one drive share, behind one mutex: the
/// log, its replayed state, the crash injector, the jobs claimed but
/// not yet committed, and the tally.
struct Shared<'a> {
    store: &'a mut SweepStore,
    state: &'a mut SweepState,
    injector: &'a mut Injector,
    in_flight: BTreeSet<u64>,
    report: DriveReport,
    /// Set by the first worker that fails (an injected crash
    /// included): no worker appends anything after it.
    stopped: bool,
}

/// Drives the sweep with `cfg.workers` workers until every job is
/// settled (done, quarantined, or permanently blocked). Worker 0 runs
/// on the calling thread. An executor that fails or panics
/// quarantines its job.
///
/// # Errors
///
/// [`DriveError::Store`] on log I/O failure and
/// [`DriveError::InjectedCrash`] when an error-mode [`Injector`]
/// fires. Either stops every worker before another event reaches the
/// log, which stays a consistent prefix a later call resumes from.
pub fn drive(
    store: &mut SweepStore,
    state: &mut SweepState,
    exec: &(dyn JobExec + Sync),
    injector: &mut Injector,
    cfg: &WorkerConfig,
) -> Result<DriveReport, DriveError> {
    let shared = Mutex::new(Shared {
        store,
        state,
        injector,
        in_flight: BTreeSet::new(),
        report: DriveReport::default(),
        stopped: false,
    });
    let committed = Condvar::new();
    std::thread::scope(|scope| {
        let siblings: Vec<_> = (1..cfg.workers.max(1))
            .map(|w| {
                let (shared, committed) = (&shared, &committed);
                scope.spawn(move || worker_loop(shared, committed, exec, cfg, w))
            })
            .collect();
        let first = worker_loop(&shared, &committed, exec, cfg, 0);
        siblings
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .fold(first, Result::and)
    })?;
    let Shared { state, report, .. } = shared.into_inner().expect(POISONED);
    Ok(DriveReport {
        blocked: state.blocked().into_iter().filter(|&b| b).count(),
        ..report
    })
}

/// Executor panics are caught outside the lock, so only a bug in the
/// loop itself can poison it.
const POISONED: &str = "a sweep worker panicked holding the store mutex";

/// One worker: claims under the lock, executes outside it, commits
/// under it again. Every fault point is passed under the lock, and a
/// worker that fails marks the drive stopped before it lets go.
fn worker_loop(
    shared: &Mutex<Shared<'_>>,
    committed: &Condvar,
    exec: &dyn JobExec,
    cfg: &WorkerConfig,
    w: usize,
) -> Result<(), DriveError> {
    let worker = format!("{}-{w}", cfg.worker);
    let lock = || shared.lock().expect(POISONED);
    let mut guard = lock();
    loop {
        if guard.stopped {
            return Ok(());
        }
        let Some(id) = guard.state.next_ready(&guard.in_flight) else {
            if guard.in_flight.is_empty() {
                // Every job is done, quarantined or blocked behind one.
                return Ok(());
            }
            // A sibling's commit may make a job ready.
            guard = committed.wait(guard).expect(POISONED);
            continue;
        };
        let claimed = claim(&mut guard, &worker, id);
        let (spec, attempt, deps) = stop_on_err(&mut guard, committed, claimed)?;
        drop(guard);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.execute(&spec, &deps)))
                .unwrap_or_else(|payload| Err(panic_text(payload.as_ref())));
        guard = lock();
        guard.in_flight.remove(&id);
        if guard.stopped {
            return Ok(());
        }
        let commit = commit_outcome(&mut guard, id, attempt, outcome);
        stop_on_err(&mut guard, committed, commit)?;
        committed.notify_all();
    }
}

/// Marks the drive stopped when `result` failed, and wakes the
/// waiting siblings so they see it.
fn stop_on_err<T>(
    g: &mut Shared<'_>,
    committed: &Condvar,
    result: Result<T, DriveError>,
) -> Result<T, DriveError> {
    if result.is_err() {
        g.stopped = true;
        committed.notify_all();
    }
    result
}

/// Appends the claim of `id` and marks it in flight, returning what
/// the executor needs.
fn claim(
    g: &mut Shared<'_>,
    worker: &str,
    id: u64,
) -> Result<(JobSpec, u32, Vec<DepResult>), DriveError> {
    let job = g.state.job(id).expect("next_ready returns existing jobs");
    let spec = job.spec.clone();
    // A claim without an outcome was left by a dead driver.
    let (attempt, reclaim) = match job.status {
        JobStatus::Claimed { attempt, .. } => (attempt + 1, true),
        _ => (1, false),
    };
    g.injector.hit("claim.before_append")?;
    g.store.append(
        g.state,
        &Event::Claim {
            id,
            worker: worker.to_owned(),
            attempt,
        },
    )?;
    if reclaim {
        g.report.reclaimed += 1;
    }
    g.in_flight.insert(id);
    g.injector.hit("claim.after_append")?;
    let deps = dep_results(g.state, &spec);
    Ok((spec, attempt, deps))
}

/// Appends the outcome of one executed attempt (done, or quarantine
/// with its error), passing its fault points, and tallies it.
fn commit_outcome(
    g: &mut Shared<'_>,
    id: u64,
    attempt: u32,
    outcome: Result<Value, String>,
) -> Result<(), DriveError> {
    match outcome {
        Ok(result) => {
            g.injector.hit("done.before_append")?;
            let done = Event::Done {
                id,
                attempt,
                result,
            };
            if g.injector.fires("done.torn_append") {
                g.store.append_torn(&done)?;
                return Err(g.injector.crash("done.torn_append"));
            }
            g.store.append(g.state, &done)?;
            g.report.executed += 1;
            g.injector.hit("done.after_append")?;
        }
        Err(error) => {
            g.injector.hit("quarantine.before_append")?;
            g.store.append(
                g.state,
                &Event::Quarantine {
                    id,
                    failures: vec![error],
                },
            )?;
            g.report.quarantined += 1;
        }
    }
    Ok(())
}

/// Collects the committed results of `spec`'s dependencies.
fn dep_results(state: &SweepState, spec: &JobSpec) -> Vec<DepResult> {
    spec.deps
        .iter()
        .filter_map(|&dep| {
            let job = state.job(dep)?;
            Some(DepResult {
                id: dep,
                name: job.spec.name.clone(),
                kind: job.spec.kind.clone(),
                result: state.result(dep)?.clone(),
            })
        })
        .collect()
}

/// Renders a caught panic payload as a quarantine error.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("executor panicked: {message}")
}
