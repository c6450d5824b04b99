//! Claims, re-runs of dead claims and quarantine on a job's first
//! failed attempt, at one worker and at several.
//!
//! No test here sleeps or reads a clock: nothing in the worker loop
//! waits on time, so the schedules below are exact and repeatable.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};

use ftdes_serve::{
    drive, CrashMode, DepResult, DriveError, Event, Injector, JobExec, JobSpec, JobStatus,
    SweepState, SweepStore, WorkerConfig,
};
use serde::Value;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftdes-serve-lease-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn job(id: u64, kind: &str, deps: Vec<u64>) -> JobSpec {
    JobSpec {
        id,
        name: format!("{kind}-{id}"),
        kind: kind.into(),
        params: Value::U64(id * 10),
        deps,
    }
}

/// Deterministic toy executor: `double` returns 2·params, `sum` adds
/// its dependencies, `poison` always fails (numbering its calls,
/// which it tracks).
#[derive(Default)]
struct Toy {
    calls: Mutex<HashMap<u64, u32>>,
}

impl JobExec for Toy {
    fn execute(&self, spec: &JobSpec, deps: &[DepResult]) -> Result<Value, String> {
        let mut calls = self.calls.lock().unwrap();
        let n = calls.entry(spec.id).or_insert(0);
        *n += 1;
        let calls_so_far = *n;
        drop(calls);
        match spec.kind.as_str() {
            "double" => Ok(Value::U64(spec.params.as_u64().unwrap_or(0) * 2)),
            "sum" => Ok(Value::U64(
                deps.iter().filter_map(|d| d.result.as_u64()).sum(),
            )),
            "poison" => Err(format!("poison attempt {calls_so_far}")),
            kind => Err(format!("unknown kind {kind}")),
        }
    }
}

fn worker(name: &str) -> WorkerConfig {
    WorkerConfig {
        worker: name.into(),
        workers: 1,
    }
}

fn pool(workers: usize) -> WorkerConfig {
    WorkerConfig {
        workers,
        ..worker("pool")
    }
}

/// A claim with no outcome after it belongs to a driver that is gone
/// (the store lock admits one live driver), so the next driver takes
/// it over at once.
#[test]
fn takeover_reclaims_immediately_without_waiting_out_the_lease() {
    let path = tmp("takeover.jsonl");
    let jobs = vec![job(1, "double", vec![]), job(2, "sum", vec![1])];
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();

    // Driver A claims job 1 and "dies" right after the claim lands.
    let mut crash = Injector::at("claim.after_append", 1, CrashMode::Error).unwrap();
    let err = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut crash,
        &worker("a"),
    )
    .unwrap_err();
    assert!(matches!(err, DriveError::InjectedCrash { .. }));
    assert!(
        matches!(state.job(1).unwrap().status, JobStatus::Claimed { .. }),
        "job 1 holds A's claim: {:?}",
        state.job(1).unwrap().status
    );
    drop(store);

    // Driver B resumes in a fresh process (reopen the store).
    let (mut store, mut state, report) = SweepStore::open(&path).unwrap();
    assert!(!report.dropped_torn_line);
    let report = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut Injector::none(),
        &worker("b"),
    )
    .unwrap();
    assert_eq!(report.executed, 2);
    assert_eq!(report.reclaimed, 1, "job 1 was taken over from A");
    assert_eq!(state.result(1), Some(&Value::U64(20)));
    assert_eq!(state.result(2), Some(&Value::U64(20)));

    // The second claim of job 1 is attempt 2 by driver b.
    let claims: Vec<(String, u32)> = replay_claims(&path, 1);
    assert_eq!(claims, vec![("a-0".into(), 1), ("b-0".into(), 2)]);
}

/// A claim's lease ends with the driver that holds it: a driver that
/// dies mid-run leaves its in-flight claim for the next driver, which
/// re-runs that job alone and keeps what the dead driver finished.
#[test]
fn crashed_workers_lease_expires_and_job_is_reclaimed() {
    let path = tmp("reclaim.jsonl");
    let jobs = vec![job(1, "double", vec![]), job(2, "sum", vec![1])];
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();

    // Driver A finishes job 1, then dies right after its claim of
    // job 2 lands.
    let mut crash = Injector::at("claim.after_append", 2, CrashMode::Error).unwrap();
    let err = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut crash,
        &worker("a"),
    )
    .unwrap_err();
    assert!(matches!(err, DriveError::InjectedCrash { .. }));
    assert_eq!(state.result(1), Some(&Value::U64(20)));
    assert!(
        matches!(state.job(2).unwrap().status, JobStatus::Claimed { .. }),
        "job 2 holds A's claim: {:?}",
        state.job(2).unwrap().status
    );
    drop(store);

    // Driver B resumes in a fresh process and re-runs job 2 only.
    let (mut store, mut state, report) = SweepStore::open(&path).unwrap();
    assert!(!report.dropped_torn_line);
    let toy = Toy::default();
    let report = drive(
        &mut store,
        &mut state,
        &toy,
        &mut Injector::none(),
        &worker("b"),
    )
    .unwrap();
    assert_eq!(report.executed, 1, "only the dead claim re-runs");
    assert_eq!(report.reclaimed, 1, "job 2 was taken over from A");
    assert_eq!(toy.calls.lock().unwrap().get(&1), None, "job 1 kept");
    assert_eq!(state.result(1), Some(&Value::U64(20)));
    assert_eq!(state.result(2), Some(&Value::U64(20)));
    assert!(state.is_complete());

    // Job 1 was claimed once; job 2's second claim is attempt 2 by b.
    assert_eq!(replay_claims(&path, 1), vec![("a-0".into(), 1)]);
    assert_eq!(
        replay_claims(&path, 2),
        vec![("a-0".into(), 1), ("b-0".into(), 2)]
    );
}

#[test]
fn poison_jobs_quarantine_with_their_failure_chain_and_block_dependents() {
    let path = tmp("poison.jsonl");
    let jobs = vec![
        job(1, "poison", vec![]),
        job(2, "double", vec![]),
        job(3, "sum", vec![1, 2]), // forever blocked behind the poison job
        job(4, "sum", vec![2]),    // unaffected
    ];
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
    let report = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut Injector::none(),
        &worker("w"),
    )
    .unwrap();
    assert_eq!(report.quarantined, 1);
    assert_eq!(report.blocked, 1, "only job 3 is blocked");
    assert_eq!(report.executed, 2, "jobs 2 and 4 still complete");
    assert!(matches!(
        state.job(1).unwrap().status,
        JobStatus::Quarantined
    ));
    assert_eq!(
        state.job(1).unwrap().failures,
        vec!["poison attempt 1".to_owned()],
        "one attempt, its error kept"
    );
    assert_eq!(replay_claims(&path, 1), vec![("w-0".into(), 1)]);
    assert!(state.blocked_forever(3));
    assert!(state.is_settled());
    assert!(!state.is_complete());

    // The error survives replay from the log alone.
    let (replayed, _r) = SweepStore::replay(&path).unwrap();
    assert_eq!(replayed.job(1).unwrap().failures.len(), 1);
    assert!(matches!(
        replayed.job(1).unwrap().status,
        JobStatus::Quarantined
    ));
}

/// Appends claims of `ids` by a dead two-worker driver, as its log
/// holds them after a kill.
fn dead_claims(store: &mut SweepStore, state: &mut SweepState, ids: &[u64]) {
    for (w, &id) in ids.iter().enumerate() {
        store
            .append(
                state,
                &Event::Claim {
                    id,
                    worker: format!("dead-{w}"),
                    attempt: 1,
                },
            )
            .unwrap();
    }
}

#[test]
fn takeover_covers_every_lease_left_by_the_dead_process() {
    let path = tmp("takeover-multi.jsonl");
    let jobs = vec![job(1, "double", vec![]), job(2, "double", vec![])];
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
    // A parallel process died holding BOTH claims.
    dead_claims(&mut store, &mut state, &[1, 2]);
    drop(store);

    let (mut store, mut state, _) = SweepStore::open(&path).unwrap();
    let report = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut Injector::none(),
        &worker("b"),
    )
    .unwrap();
    assert_eq!(report.reclaimed, 2, "both dead claims taken over");
    assert_eq!(state.result(1), Some(&Value::U64(20)));
    assert_eq!(state.result(2), Some(&Value::U64(40)));
}

#[test]
fn stale_fail_after_done_is_ignored() {
    let path = tmp("stale-fail.jsonl");
    let jobs = vec![job(1, "double", vec![])];
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
    store
        .append(
            &mut state,
            &Event::Done {
                id: 1,
                attempt: 1,
                result: Value::U64(20),
            },
        )
        .unwrap();
    drop(store);
    // A Fail line as a driver that retried failed jobs wrote it, after
    // the committed Done: it names a declared job, so it replays, and
    // changes nothing.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(
        b"{\"Fail\":{\"id\":1,\"attempt\":1,\"at_ms\":6,\"error\":\"stale\",\"retry_ms\":106}}\n",
    );
    std::fs::write(&path, bytes).unwrap();
    let (replayed, _r) = SweepStore::replay(&path).unwrap();
    assert_eq!(replayed.result(1), Some(&Value::U64(20)));
    assert!(replayed.job(1).unwrap().failures.is_empty());
    assert!(
        state.apply(&Event::Fail { id: 9 }).is_err(),
        "a Fail must name a declared job"
    );
}

#[test]
fn parallel_drive_settles_the_graph() {
    let path = tmp("parallel.jsonl");
    let mut jobs: Vec<JobSpec> = (1..=8).map(|i| job(i, "double", vec![])).collect();
    jobs.push(job(9, "sum", (1..=8).collect()));
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
    let report = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut Injector::none(),
        &pool(4),
    )
    .unwrap();
    assert_eq!(report.executed, 9);
    // sum of 2·10i for i in 1..=8 = 2·10·36 = 720.
    assert_eq!(state.result(9), Some(&Value::U64(720)));
}

#[test]
fn parallel_drive_counts_are_exact_across_repeated_runs() {
    // Regression: an idle worker once observed no job in flight before
    // a finished job's outcome was committed and re-executed the job
    // (executed 10 instead of 9, intermittently). Siblings never
    // re-claim each other's jobs: the counts must be exact every time.
    for round in 0..25 {
        let path = tmp(&format!("parallel-exact-{round}.jsonl"));
        let mut jobs: Vec<JobSpec> = (1..=8).map(|i| job(i, "double", vec![])).collect();
        jobs.push(job(9, "sum", (1..=8).collect()));
        let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
        let report = drive(
            &mut store,
            &mut state,
            &Toy::default(),
            &mut Injector::none(),
            &pool(4),
        )
        .unwrap();
        assert_eq!(report.executed, 9, "round {round}: one execution per job");
        assert_eq!(
            report.reclaimed, 0,
            "round {round}: no sibling's job was taken"
        );
        assert_eq!(state.result(9), Some(&Value::U64(720)));
    }
}

#[test]
fn parallel_takeover_covers_dead_leases_but_never_live_siblings() {
    let path = tmp("parallel-takeover.jsonl");
    let mut jobs: Vec<JobSpec> = (1..=4).map(|i| job(i, "double", vec![])).collect();
    jobs.push(job(5, "sum", (1..=4).collect()));
    let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
    // A 2-worker process died holding claims on jobs 1 and 2.
    dead_claims(&mut store, &mut state, &[1, 2]);
    drop(store);

    let (mut store, mut state, _) = SweepStore::open(&path).unwrap();
    let report = drive(
        &mut store,
        &mut state,
        &Toy::default(),
        &mut Injector::none(),
        &pool(2),
    )
    .unwrap();
    // Exactly the two dead claims are taken over; the workers never
    // take each other's live claims.
    assert_eq!(report.executed, 5);
    assert_eq!(report.reclaimed, 2);
    assert_eq!(state.result(5), Some(&Value::U64(200)));
}

/// Holds every job at a two-party barrier, so both workers are in
/// flight when the first of them commits; every kind but `double`
/// fails.
struct Gate(Barrier);

impl JobExec for Gate {
    fn execute(&self, spec: &JobSpec, _deps: &[DepResult]) -> Result<Value, String> {
        self.0.wait();
        match spec.kind.as_str() {
            "double" => Ok(Value::U64(spec.params.as_u64().unwrap_or(0) * 2)),
            kind => Err(format!("{kind} {}", spec.id)),
        }
    }
}

#[test]
fn an_injected_crash_stops_the_sibling_in_flight() {
    // Two jobs in flight at once; the first commit crashes. The other
    // worker's outcome must never reach the log, at every commit-side
    // fault point.
    for (point, kind, kept) in [
        ("done.before_append", "double", 0),
        ("done.torn_append", "double", 0),
        ("done.after_append", "double", 1),
        ("quarantine.before_append", "poison", 0),
    ] {
        let path = tmp(&format!("sibling-{}.jsonl", point.replace('.', "-")));
        let jobs = vec![job(1, kind, vec![]), job(2, kind, vec![])];
        let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
        let err = drive(
            &mut store,
            &mut state,
            &Gate(Barrier::new(2)),
            &mut Injector::at(point, 1, CrashMode::Error).unwrap(),
            &pool(2),
        )
        .unwrap_err();
        assert!(matches!(err, DriveError::InjectedCrash { .. }), "[{point}]");
        drop(store);
        let (replayed, report) = SweepStore::replay(&path).unwrap();
        assert_eq!(report.dropped_torn_line, point == "done.torn_append");
        let events = raw_events(&path);
        let outcomes = events
            .iter()
            .filter(|e| {
                !matches!(
                    e,
                    Event::Init { .. } | Event::Job { .. } | Event::Claim { .. }
                )
            })
            .count();
        assert_eq!(outcomes, kept, "[{point}] outcomes in the log: {events:?}");
        assert_eq!(
            replay_claims(&path, 1).len() + replay_claims(&path, 2).len(),
            2
        );
        assert_eq!(replayed.counts().claimed, 2 - kept, "[{point}]");
    }
}

/// Panics on every `boom` call — the panic must quarantine the job,
/// not hang the sibling workers.
struct Panicky;

impl JobExec for Panicky {
    fn execute(&self, spec: &JobSpec, _deps: &[DepResult]) -> Result<Value, String> {
        assert_ne!(spec.kind, "boom", "boom panics");
        Ok(Value::U64(spec.params.as_u64().unwrap_or(0) * 2))
    }
}

#[test]
fn parallel_panicking_executor_becomes_a_failed_attempt_not_a_hang() {
    for workers in [1, 2] {
        let path = tmp(&format!("parallel-panic-{workers}.jsonl"));
        let jobs = vec![job(1, "boom", vec![]), job(2, "double", vec![])];
        let (mut store, mut state) = SweepStore::create(&path, "lease", &jobs).unwrap();
        let report = drive(
            &mut store,
            &mut state,
            &Panicky,
            &mut Injector::none(),
            &pool(workers),
        )
        .unwrap();
        assert_eq!(
            report.quarantined, 1,
            "{workers} workers: the panic quarantines its job"
        );
        assert_eq!(
            report.executed, 1,
            "{workers} workers: the sibling completes"
        );
        assert!(matches!(
            state.job(1).unwrap().status,
            JobStatus::Quarantined
        ));
        assert_eq!(state.result(2), Some(&Value::U64(40)));
        assert!(
            state.job(1).unwrap().failures[0].contains("executor panicked"),
            "panic text lands in the quarantine: {:?}",
            state.job(1).unwrap().failures
        );
    }
}

/// Replays the raw log, returning `(worker, attempt)` per claim of
/// `id`.
fn replay_claims(path: &PathBuf, id: u64) -> Vec<(String, u32)> {
    raw_events(path)
        .into_iter()
        .filter_map(|e| match e {
            Event::Claim {
                id: j,
                worker,
                attempt,
            } if j == id => Some((worker, attempt)),
            _ => None,
        })
        .collect()
}

/// The complete lines of the raw log, parsed (a torn tail is skipped).
fn raw_events(path: &PathBuf) -> Vec<Event> {
    std::fs::read_to_string(path)
        .unwrap()
        .split_inclusive('\n')
        .filter(|l| l.ends_with('\n'))
        .map(|l| serde_json::from_str(l.trim_end()).unwrap())
        .collect()
}

/// The state type is exported and usable without the store (pure
/// replay consumers like dashboards).
#[test]
fn state_is_reexported() {
    fn assert_pub<T>() {}
    assert_pub::<SweepState>();
}
