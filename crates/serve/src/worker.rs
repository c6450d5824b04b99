//! The worker loop: claim → execute → commit, with retries and crash
//! points, for one worker or many.
//!
//! A worker owns no state of its own — everything it decides is a
//! function of the replayed [`SweepState`], the jobs in flight and the
//! clock, and every decision becomes durable *before* it acts on it
//! (claim before execute, done/fail after). Killing the driver at any
//! instant therefore loses at most the work of its in-flight jobs,
//! which the next driver re-runs at once: the store lock guarantees
//! that a claim with no outcome belongs to a driver that is gone.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};

use serde::Value;

use crate::clock::SweepClock;
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
    /// Runs one job. `Err` counts as a failed attempt (retried with
    /// backoff, then quarantined).
    ///
    /// # Errors
    ///
    /// The error string is preserved in the job's failure chain.
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
    /// Attempts before a job is quarantined.
    pub max_attempts: u32,
    /// First retry backoff; doubles per failed attempt.
    pub backoff_base_ms: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker: "w".into(),
            workers: 1,
            max_attempts: 3,
            backoff_base_ms: 100,
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
    /// Failed attempts recorded.
    pub failed_attempts: usize,
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
/// on the calling thread. An executor panic counts as a failed
/// attempt.
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
    clock: &SweepClock,
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
                scope.spawn(move || worker_loop(shared, committed, exec, clock, cfg, w))
            })
            .collect();
        let first = worker_loop(&shared, &committed, exec, clock, cfg, 0);
        siblings
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .fold(first, Result::and)
    })?;
    let Shared { state, report, .. } = shared.into_inner().expect(POISONED);
    Ok(DriveReport {
        blocked: state
            .jobs()
            .filter(|j| state.blocked_forever(j.spec.id))
            .count(),
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
    clock: &SweepClock,
    cfg: &WorkerConfig,
    w: usize,
) -> Result<(), DriveError> {
    let worker = format!("{}-{w}", cfg.worker);
    let lock = || shared.lock().expect(POISONED);
    let mut guard = lock();
    loop {
        if guard.stopped || guard.state.is_settled() {
            return Ok(());
        }
        let now = clock.now_ms();
        let Some(id) = guard.state.next_ready(now, &guard.in_flight) else {
            if !guard.in_flight.is_empty() {
                // A sibling's commit may make a job ready.
                guard = committed.wait(guard).expect(POISONED);
                continue;
            }
            match guard.state.next_wakeup(now) {
                // Nothing is in flight, so no sibling has an outcome
                // to commit while this waits holding the lock.
                Some(t) => clock.wait_until(t),
                // Only quarantine-blocked jobs remain.
                None => return Ok(()),
            }
            continue;
        };
        let claimed = claim(&mut guard, &worker, id, now);
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
        let now = clock.now_ms();
        let commit = commit_outcome(&mut guard, cfg, id, attempt, outcome, now);
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
    now: u64,
) -> Result<(JobSpec, u32, Vec<DepResult>), DriveError> {
    let job = g.state.job(id).expect("next_ready returns existing jobs");
    let spec = job.spec.clone();
    let attempt = job.attempts() + 1;
    let reclaim = matches!(job.status, JobStatus::Claimed { .. });
    g.injector.hit("claim.before_append")?;
    g.store.append(
        g.state,
        &Event::Claim {
            id,
            worker: worker.to_owned(),
            attempt,
            at_ms: now,
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

/// Appends the outcome of one executed attempt (done, retryable fail,
/// or quarantine), passing its fault points, and tallies it.
fn commit_outcome(
    g: &mut Shared<'_>,
    cfg: &WorkerConfig,
    id: u64,
    attempt: u32,
    outcome: Result<Value, String>,
    now: u64,
) -> Result<(), DriveError> {
    match outcome {
        Ok(result) => {
            g.injector.hit("done.before_append")?;
            let done = Event::Done {
                id,
                attempt,
                at_ms: now,
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
        Err(error) if attempt >= cfg.max_attempts => {
            g.injector.hit("quarantine.before_append")?;
            let mut failures = g
                .state
                .job(id)
                .map(|j| j.failures.clone())
                .unwrap_or_default();
            failures.push(error);
            g.store.append(
                g.state,
                &Event::Quarantine {
                    id,
                    at_ms: now,
                    failures,
                },
            )?;
            g.report.quarantined += 1;
        }
        Err(error) => {
            g.injector.hit("fail.before_append")?;
            let backoff = cfg
                .backoff_base_ms
                .saturating_mul(1u64 << (attempt - 1).min(16));
            g.store.append(
                g.state,
                &Event::Fail {
                    id,
                    attempt,
                    at_ms: now,
                    error,
                    retry_ms: now.saturating_add(backoff),
                },
            )?;
            g.report.failed_attempts += 1;
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

/// Renders a caught panic payload as a failure-chain message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("executor panicked: {message}")
}
