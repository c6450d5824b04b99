//! The worker loop: claim → execute → commit, with leases, retries
//! and crash points.
//!
//! A worker owns no state of its own — everything it decides is a
//! function of the replayed [`SweepState`] and the clock, and every
//! decision becomes durable *before* it acts on it (claim before
//! execute, done/fail after). Killing a worker at any instant
//! therefore loses at most the work of its in-flight job, which a
//! later incarnation re-claims once the lease expires.

use std::collections::BTreeSet;
use std::sync::Mutex;

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
    /// Worker identity, recorded in claims.
    pub worker: String,
    /// Lease duration per claim, in clock milliseconds.
    pub lease_ms: u64,
    /// Attempts before a job is quarantined.
    pub max_attempts: u32,
    /// First retry backoff; doubles per failed attempt.
    pub backoff_base_ms: u64,
    /// Treat every lease outstanding *when the drive starts* as
    /// expired. Sound only when the caller knows no other worker
    /// process is alive (the single-process CLI after a crash);
    /// leases created during the drive itself are never taken over.
    pub takeover: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker: "w0".into(),
            lease_ms: 60_000,
            max_attempts: 3,
            backoff_base_ms: 100,
            takeover: false,
        }
    }
}

/// What a [`drive`] run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Jobs this run executed to a committed `Done`.
    pub executed: usize,
    /// Claims taken over from expired leases.
    pub reclaimed: usize,
    /// Failed attempts recorded.
    pub failed_attempts: usize,
    /// Jobs quarantined by this run.
    pub quarantined: usize,
    /// Jobs left permanently blocked behind quarantined dependencies.
    pub blocked: usize,
}

/// Drives the sweep until every job is settled (done, quarantined,
/// or permanently blocked).
///
/// # Errors
///
/// [`DriveError::Store`] on log I/O failure and
/// [`DriveError::InjectedCrash`] when an error-mode [`Injector`]
/// fires; in both cases the log retains a consistent prefix and a
/// later call resumes from it.
pub fn drive(
    store: &mut SweepStore,
    state: &mut SweepState,
    exec: &dyn JobExec,
    clock: &SweepClock,
    injector: &mut Injector,
    cfg: &WorkerConfig,
) -> Result<DriveReport, DriveError> {
    let mut report = DriveReport::default();
    // A takeover covers exactly the leases left behind by dead
    // workers — the ones outstanding when this drive starts. Leases
    // this run creates are live and must never be stolen.
    let mut stale = stale_leases(state, cfg.takeover);
    loop {
        if state.is_settled() {
            break;
        }
        let now = clock.now_ms();
        let Some(id) = pick_claimable(state, &stale, now) else {
            match state.next_wakeup(now) {
                Some(t) => {
                    clock.wait_until(t);
                    continue;
                }
                None => {
                    // Nothing ready, nothing pending: only
                    // quarantine-blocked jobs remain.
                    break;
                }
            }
        };
        stale.remove(&id);
        step(store, state, exec, injector, cfg, id, now, &mut report)?;
    }
    report.blocked = state
        .jobs()
        .filter(|j| state.blocked_forever(j.spec.id))
        .count();
    Ok(report)
}

/// Claims and executes one job, committing the outcome.
#[allow(clippy::too_many_arguments)]
fn step(
    store: &mut SweepStore,
    state: &mut SweepState,
    exec: &dyn JobExec,
    injector: &mut Injector,
    cfg: &WorkerConfig,
    id: u64,
    now: u64,
    report: &mut DriveReport,
) -> Result<(), DriveError> {
    let (spec, attempt, reclaim) = {
        let job = state.job(id).expect("next_ready returns existing jobs");
        let reclaim = matches!(job.status, JobStatus::Claimed { .. });
        (job.spec.clone(), job.attempts() + 1, reclaim)
    };
    injector.hit("claim.before_append")?;
    store.append(
        state,
        &Event::Claim {
            id,
            worker: cfg.worker.clone(),
            attempt,
            at_ms: now,
            expires_ms: now.saturating_add(cfg.lease_ms),
        },
    )?;
    if reclaim {
        report.reclaimed += 1;
    }
    injector.hit("claim.after_append")?;

    let deps = dep_results(state, &spec);
    match exec.execute(&spec, &deps) {
        Ok(result) => {
            injector.hit("done.before_append")?;
            if injector.fires_next("done.torn_append") {
                store.append_torn(&Event::Done {
                    id,
                    attempt,
                    at_ms: now,
                    result,
                })?;
                injector.hit("done.torn_append")?;
                unreachable!("torn-append injection always crashes");
            }
            commit_outcome(store, state, cfg, id, attempt, Ok(result), now, report)?;
            injector.hit("done.after_append")?;
        }
        Err(error) => {
            injector.hit(if attempt >= cfg.max_attempts {
                "quarantine.before_append"
            } else {
                "fail.before_append"
            })?;
            commit_outcome(store, state, cfg, id, attempt, Err(error), now, report)?;
        }
    }
    Ok(())
}

/// The leases outstanding right now — the takeover set snapshot. An
/// empty set when takeover is off.
fn stale_leases(state: &SweepState, takeover: bool) -> BTreeSet<u64> {
    if !takeover {
        return BTreeSet::new();
    }
    state
        .jobs()
        .filter(|j| matches!(j.status, JobStatus::Claimed { .. }))
        .map(|j| j.spec.id)
        .collect()
}

/// The lowest-id job claimable at `now`: naturally ready (never
/// claimed, backoff elapsed, lease expired) or held by a stale lease
/// from the takeover snapshot.
fn pick_claimable(state: &SweepState, stale: &BTreeSet<u64>, now: u64) -> Option<u64> {
    let natural = state.next_ready(now, false);
    let taken_over = stale.iter().copied().find(|&id| {
        state.deps_done(id)
            && matches!(
                state.job(id).map(|j| &j.status),
                Some(JobStatus::Claimed { .. })
            )
    });
    match (natural, taken_over) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Appends the outcome of one executed attempt (done, retryable fail,
/// or quarantine) and tallies it into `report`.
#[allow(clippy::too_many_arguments)]
fn commit_outcome(
    store: &mut SweepStore,
    state: &mut SweepState,
    cfg: &WorkerConfig,
    id: u64,
    attempt: u32,
    outcome: Result<Value, String>,
    now: u64,
    report: &mut DriveReport,
) -> Result<(), DriveError> {
    match outcome {
        Ok(result) => {
            store.append(
                state,
                &Event::Done {
                    id,
                    attempt,
                    at_ms: now,
                    result,
                },
            )?;
            report.executed += 1;
        }
        Err(error) => {
            if attempt >= cfg.max_attempts {
                let mut failures = state
                    .job(id)
                    .map(|j| j.failures.clone())
                    .unwrap_or_default();
                failures.push(error);
                store.append(
                    state,
                    &Event::Quarantine {
                        id,
                        at_ms: now,
                        failures,
                    },
                )?;
                report.quarantined += 1;
            } else {
                let backoff = cfg
                    .backoff_base_ms
                    .saturating_mul(1u64 << (attempt - 1).min(16));
                store.append(
                    state,
                    &Event::Fail {
                        id,
                        attempt,
                        at_ms: now,
                        error,
                        retry_ms: now.saturating_add(backoff),
                    },
                )?;
                report.failed_attempts += 1;
            }
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

/// Multi-worker drive: `workers` threads share the store behind a
/// mutex, each running the claim → execute → commit loop. Claims and
/// commits serialize through the log; execution runs concurrently.
/// Crash injection is a single-worker instrument — parallel drives
/// run uninjected.
///
/// # Errors
///
/// The first [`DriveError`] any worker hits; the log stays a
/// consistent prefix.
pub fn drive_parallel(
    store: &mut SweepStore,
    state: &mut SweepState,
    exec: &(dyn JobExec + Sync),
    clock: &SweepClock,
    cfg: &WorkerConfig,
    workers: usize,
) -> Result<DriveReport, DriveError> {
    let workers = workers.max(1);
    if workers == 1 {
        return drive(store, state, exec, clock, &mut Injector::none(), cfg);
    }
    // The takeover set is shared: it covers exactly the leases left
    // by the dead previous process, consumed once per job. Giving
    // each thread its own takeover flag would let sibling threads
    // steal each other's just-created live leases at startup.
    let stale = Mutex::new(stale_leases(state, cfg.takeover));
    let shared = Mutex::new((store, state));
    let in_flight = std::sync::atomic::AtomicUsize::new(0);
    let result =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let shared = &shared;
                let stale = &stale;
                let in_flight = &in_flight;
                let worker_cfg = WorkerConfig {
                    worker: format!("{}-{w}", cfg.worker),
                    takeover: false,
                    ..cfg.clone()
                };
                handles.push(scope.spawn(move || {
                    parallel_loop(shared, stale, in_flight, exec, clock, &worker_cfg)
                }));
            }
            let mut report = DriveReport::default();
            let mut first_err = None;
            for handle in handles {
                match handle.join() {
                    Ok(Ok(r)) => {
                        report.executed += r.executed;
                        report.reclaimed += r.reclaimed;
                        report.failed_attempts += r.failed_attempts;
                        report.quarantined += r.quarantined;
                    }
                    Ok(Err(e)) => first_err = first_err.or(Some(e)),
                    Err(_) => {
                        first_err = first_err.or(Some(DriveError::Stalled { blocked: vec![] }));
                    }
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(report),
            }
        });
    let mut report = result?;
    let (_, state) = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    report.blocked = state
        .jobs()
        .filter(|j| state.blocked_forever(j.spec.id))
        .count();
    Ok(report)
}

fn parallel_loop(
    shared: &Mutex<(&mut SweepStore, &mut SweepState)>,
    stale: &Mutex<BTreeSet<u64>>,
    in_flight: &std::sync::atomic::AtomicUsize,
    exec: &dyn JobExec,
    clock: &SweepClock,
    cfg: &WorkerConfig,
) -> Result<DriveReport, DriveError> {
    use std::sync::atomic::Ordering;
    let mut report = DriveReport::default();
    loop {
        let now = clock.now_ms();
        // Decide under the lock: claim a job, poll, advance the
        // clock, or finish. `in_flight` only moves under this lock
        // (raised at claim, lowered after the outcome commits), so a
        // thread holding the lock that reads zero knows every lease
        // in the replayed state is stale — there is no executed-but-
        // uncommitted job whose live lease a clock jump could leap.
        let (spec, attempt, deps) = {
            let mut guard = shared.lock().unwrap_or_else(|e| e.into_inner());
            let (store, state) = &mut *guard;
            if state.is_settled() {
                return Ok(report);
            }
            let picked = {
                let stale_set = stale.lock().unwrap_or_else(|e| e.into_inner());
                pick_claimable(state, &stale_set, now)
            };
            let Some(id) = picked else {
                if in_flight.load(Ordering::SeqCst) > 0 {
                    // Peers are executing; their commits may unblock
                    // us — poll outside the lock.
                    drop(guard);
                    std::thread::yield_now();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    continue;
                }
                match state.next_wakeup(now) {
                    Some(t) => {
                        // Advance while still holding the lock: no
                        // claim can land between computing the wakeup
                        // and the jump, so a live lease is never
                        // leapt. (A virtual wait returns instantly; a
                        // wall wait sleeps holding the lock, which is
                        // harmless — nothing is in flight, so no peer
                        // has an outcome to commit.)
                        clock.wait_until(t);
                        continue;
                    }
                    None => return Ok(report),
                }
            };
            stale.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
            let job = state.job(id).expect("ready job exists");
            let spec = job.spec.clone();
            let attempt = job.attempts() + 1;
            let reclaim = matches!(job.status, JobStatus::Claimed { .. });
            store.append(
                state,
                &Event::Claim {
                    id,
                    worker: cfg.worker.clone(),
                    attempt,
                    at_ms: now,
                    expires_ms: now.saturating_add(cfg.lease_ms),
                },
            )?;
            if reclaim {
                report.reclaimed += 1;
            }
            let deps = dep_results(state, &spec);
            in_flight.fetch_add(1, Ordering::SeqCst);
            (spec, attempt, deps)
        };
        // Execute outside the lock. A panicking executor becomes a
        // failed attempt — leaving in_flight raised forever would
        // strand every polling peer in the loop above.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.execute(&spec, &deps)))
                .unwrap_or_else(|payload| Err(panic_text(payload.as_ref())));
        // Commit under the lock; only then is the job out of flight.
        let mut guard = shared.lock().unwrap_or_else(|e| e.into_inner());
        let (store, state) = &mut *guard;
        let now = clock.now_ms();
        let committed = commit_outcome(
            store,
            state,
            cfg,
            spec.id,
            attempt,
            outcome,
            now,
            &mut report,
        );
        in_flight.fetch_sub(1, Ordering::SeqCst);
        committed?;
    }
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
