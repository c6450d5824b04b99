//! The crash matrix: for every registered fault point, at its 1st and
//! its 2nd hit, at one worker and at two, crash the drive there,
//! reopen the store, resume — and require the final aggregate results
//! to be **bit-identical** to an uncrashed run.
//!
//! The executor here is a toy (pure arithmetic over `Value`), which
//! isolates the property to the orchestration layer itself; the
//! `ftdes-bench` crate repeats the matrix with the real optimizer
//! jobs.

use std::path::{Path, PathBuf};

use ftdes_serve::{
    drive, CrashMode, DepResult, DriveError, Event, Injector, JobExec, JobSpec, JobStatus,
    SweepState, SweepStore, WorkerConfig, FAULT_POINTS,
};
use serde::Value;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftdes-serve-crash-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The matrix DAG passes every fault point at least twice: three pure
/// jobs, two poison jobs, and an aggregate over the pure ones.
fn matrix_jobs() -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = (1..=3)
        .map(|id| JobSpec {
            id,
            name: format!("double-{id}"),
            kind: "double".into(),
            params: Value::U64(id * 7),
            deps: vec![],
        })
        .collect();
    for id in [4, 5] {
        jobs.push(JobSpec {
            id,
            name: format!("poison-{id}"),
            kind: "poison".into(),
            params: Value::Null,
            deps: vec![],
        });
    }
    jobs.push(JobSpec {
        id: 6,
        name: "aggregate".into(),
        kind: "sum".into(),
        params: Value::Null,
        deps: vec![1, 2, 3],
    });
    jobs
}

/// Deterministic executor: re-running any job with the same spec and
/// dependency results yields the same outcome, which is all the
/// bit-identity contract requires.
struct Toy;

impl JobExec for Toy {
    fn execute(&self, spec: &JobSpec, deps: &[DepResult]) -> Result<Value, String> {
        match spec.kind.as_str() {
            "double" => Ok(Value::U64(spec.params.as_u64().unwrap_or(0) * 2)),
            "sum" => Ok(Value::U64(
                deps.iter().filter_map(|d| d.result.as_u64()).sum(),
            )),
            kind => Err(format!("{kind} {}", spec.id)),
        }
    }
}

fn cfg(worker: &str, workers: usize) -> WorkerConfig {
    WorkerConfig {
        worker: worker.into(),
        workers,
    }
}

/// Serializes every committed result, in job order — the
/// bit-identity fingerprint of a finished sweep.
fn results_bytes(state: &SweepState) -> String {
    let mut out = String::new();
    for job in state.jobs() {
        let line = match state.result(job.spec.id) {
            Some(v) => format!("{}={}\n", job.spec.id, serde_json::to_string(v).unwrap()),
            None => format!("{}=<none>\n", job.spec.id),
        };
        out.push_str(&line);
    }
    out
}

fn run_uncrashed(path: &Path) -> String {
    let (mut store, mut state) = SweepStore::create(path, "matrix", &matrix_jobs()).unwrap();
    drive(
        &mut store,
        &mut state,
        &Toy,
        &mut Injector::none(),
        &cfg("base", 1),
    )
    .unwrap();
    assert!(state.is_settled());
    results_bytes(&state)
}

/// How many events of the type `point` guards the log holds once the
/// `nth` pass of `point` fired: the passes before it appended theirs,
/// an `after_append` point's own pass appended it too, and nothing
/// appends after the crash.
fn expected_count(point: &str, nth: usize) -> usize {
    if point.ends_with("after_append") {
        nth
    } else {
        nth - 1
    }
}

/// The complete events of the raw log whose type `point` guards.
fn events_of(path: &Path, point: &str) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    text.split_inclusive('\n')
        .filter(|line| line.ends_with('\n'))
        .map(|line| serde_json::from_str::<Event>(line.trim_end()).unwrap())
        .filter(|event| match point.split('.').next().unwrap() {
            "claim" => matches!(event, Event::Claim { .. }),
            "done" => matches!(event, Event::Done { .. }),
            _ => matches!(event, Event::Quarantine { .. }),
        })
        .count()
}

#[test]
fn resume_after_any_crash_is_bit_identical_to_the_uncrashed_run() {
    let baseline = run_uncrashed(&tmp("baseline.jsonl"));
    assert!(baseline.contains("6="), "aggregate committed in baseline");

    for workers in [1, 2] {
        for nth in [1, 2] {
            for &point in FAULT_POINTS {
                let at = format!("[{point}:{nth}, {workers} workers]");
                let path = tmp(&format!(
                    "crash-{}-{nth}-{workers}w.jsonl",
                    point.replace('.', "-")
                ));
                let (mut store, mut state) =
                    SweepStore::create(&path, "matrix", &matrix_jobs()).unwrap();

                // Crash exactly at the nth pass of `point`.
                let mut injector = Injector::at(point, nth as u64, CrashMode::Error).unwrap();
                let err = drive(
                    &mut store,
                    &mut state,
                    &Toy,
                    &mut injector,
                    &cfg("victim", workers),
                )
                .unwrap_err();
                match err {
                    DriveError::InjectedCrash { point: p } => assert_eq!(p, point, "{at}"),
                    other => panic!("{at} expected injected crash, got {other:?}"),
                }
                drop(store);
                assert_eq!(
                    events_of(&path, point),
                    expected_count(point, nth),
                    "{at} no event of the point's type reaches the log after the crash"
                );

                // Reopen (replay) and resume, as a plain `sweep resume`
                // would: the dead claims re-run at once.
                let (mut store, mut state, report) = SweepStore::open(&path).unwrap();
                assert_eq!(
                    report.dropped_torn_line,
                    point == "done.torn_append",
                    "{at} torn line detected iff the crash tore an append"
                );
                drive(
                    &mut store,
                    &mut state,
                    &Toy,
                    &mut Injector::none(),
                    &cfg("rescuer", workers),
                )
                .unwrap();
                assert!(state.is_settled(), "{at} resumed run settles");
                for poison in [4, 5] {
                    assert!(
                        matches!(state.job(poison).unwrap().status, JobStatus::Quarantined),
                        "{at} the poison jobs still quarantine"
                    );
                }
                assert_eq!(
                    results_bytes(&state),
                    baseline,
                    "{at} resumed aggregate differs from uncrashed run"
                );
                drop(store);

                // The recovered log itself replays to the same results
                // — a third process sees the same sweep.
                let (replayed, report) = SweepStore::replay(&path).unwrap();
                assert!(!report.dropped_torn_line, "{at} log is clean now");
                assert_eq!(results_bytes(&replayed), baseline);
            }
        }
    }
}

#[test]
fn repeated_crashes_on_the_same_store_still_converge() {
    // Crash at every point in sequence against ONE store — a worker
    // that dies six times in a row — then finish. The surviving log
    // must still produce the baseline results.
    let baseline = run_uncrashed(&tmp("multi-baseline.jsonl"));
    let path = tmp("multi-crash.jsonl");
    let (store, state) = SweepStore::create(&path, "matrix", &matrix_jobs()).unwrap();
    drop((store, state));

    for &point in FAULT_POINTS {
        let (mut store, mut state, _report) = SweepStore::open(&path).unwrap();
        if state.is_settled() {
            break;
        }
        let mut injector = Injector::at(point, 1, CrashMode::Error).unwrap();
        // The run either crashes at `point` or settles before ever
        // reaching it — both are legitimate.
        let _ = drive(
            &mut store,
            &mut state,
            &Toy,
            &mut injector,
            &cfg("victim", 1),
        );
    }

    let (mut store, mut state, _report) = SweepStore::open(&path).unwrap();
    drive(
        &mut store,
        &mut state,
        &Toy,
        &mut Injector::none(),
        &cfg("rescuer", 1),
    )
    .unwrap();
    assert!(state.is_settled());
    assert_eq!(results_bytes(&state), baseline);
}
