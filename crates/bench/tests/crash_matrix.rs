//! The crash matrix over the *real* sweep adapters: for every
//! registered fault point, at its 1st and its 2nd hit, at one worker
//! and at two, crash a sweep mid-run, reopen, resume — and require
//! byte-identical aggregate results.
//!
//! This is the end-to-end form of the property the `ftdes-serve` toy
//! matrix isolates: the optimizer jobs are iteration-bounded (no
//! wall-clock limits), results carry no timestamps, and committed
//! results replay from the log, so crashing a sweep at any durability
//! boundary must not change a single byte of what it finally reports.

use std::path::{Path, PathBuf};

use ftdes_bench::jobs::{ChiSweep, OverheadSweep, RepairSweep, SweepExec, SweepSpec};
use ftdes_core::Strategy;
use ftdes_serve::{
    drive, CrashMode, DriveError, Injector, SweepState, SweepStore, WorkerConfig, FAULT_POINTS,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftdes-bench-crash-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Small enough to finish a full matrix in seconds, large enough to
/// exercise every job kind (generate, optimize, faultsim, aggregate).
fn tiny_chi() -> SweepSpec {
    SweepSpec::Chi(ChiSweep {
        processes: 6,
        nodes: 2,
        faults: 1,
        mu_ms: 5,
        seeds: 1,
        chi_permille: vec![50],
        max_checkpoints: 2,
        max_iterations: 2,
        faultsim_samples: 8,
    })
}

fn cfg(worker: &str, workers: usize) -> WorkerConfig {
    WorkerConfig {
        worker: worker.into(),
        workers,
    }
}

/// Every committed result, serialized in job order — the sweep's
/// byte-level identity.
fn results_bytes(state: &SweepState) -> String {
    let mut out = String::new();
    for job in state.jobs() {
        out.push_str(&format!(
            "{} {}\n",
            job.spec.name,
            state
                .result(job.spec.id)
                .map(|v| serde_json::to_string(v).unwrap())
                .unwrap_or_else(|| "<none>".into()),
        ));
    }
    out
}

fn run_uncrashed(spec: &SweepSpec, path: &Path) -> String {
    let (mut store, mut state) = SweepStore::create(path, spec.name(), &spec.jobs()).unwrap();
    drive(
        &mut store,
        &mut state,
        &SweepExec::new(),
        &mut Injector::none(),
        &cfg("base", 1),
    )
    .unwrap();
    assert!(state.is_complete(), "uncrashed sweep completes fully");
    results_bytes(&state)
}

#[test]
fn chi_sweep_resumes_bit_identically_after_every_crash_point() {
    let spec = tiny_chi();
    let baseline = run_uncrashed(&spec, &tmp("chi-baseline.jsonl"));

    // No failing jobs in this sweep, so the quarantine point never
    // fires — drive then completes uncrashed, which is the correct
    // degenerate case (crash-at-point ≡ no-crash when the point is
    // never reached).
    for workers in [1, 2] {
        for nth in [1, 2] {
            for &point in FAULT_POINTS {
                let at = format!("[{point}:{nth}, {workers} workers]");
                let path = tmp(&format!(
                    "chi-{}-{nth}-{workers}w.jsonl",
                    point.replace('.', "-")
                ));
                let (mut store, mut state) =
                    SweepStore::create(&path, spec.name(), &spec.jobs()).unwrap();
                let mut injector = Injector::at(point, nth, CrashMode::Error).unwrap();
                let crashed = drive(
                    &mut store,
                    &mut state,
                    &SweepExec::new(),
                    &mut injector,
                    &cfg("victim", workers),
                );
                match crashed {
                    Err(DriveError::InjectedCrash { point: p }) => assert_eq!(p, point),
                    Ok(_) => assert!(
                        point.starts_with("quarantine."),
                        "{at} only the quarantine point may go unfired on a healthy sweep"
                    ),
                    Err(other) => panic!("{at} unexpected error {other:?}"),
                }
                drop(store);

                // A fresh executor simulates the fresh process of a
                // real resume: empty cache pool, no carried state.
                let (mut store, mut state, report) = SweepStore::open(&path).unwrap();
                assert_eq!(
                    report.dropped_torn_line,
                    point == "done.torn_append",
                    "{at} torn-line detection"
                );
                drive(
                    &mut store,
                    &mut state,
                    &SweepExec::new(),
                    &mut Injector::none(),
                    &cfg("rescuer", workers),
                )
                .unwrap();
                assert!(state.is_complete(), "{at} resumed sweep completes");
                assert_eq!(
                    results_bytes(&state),
                    baseline,
                    "{at} resumed results differ from the uncrashed run"
                );
            }
        }
    }
}

#[test]
fn repair_sweep_crash_resume_is_bit_identical() {
    // One representative crash point for the heavier repair sweep:
    // the result-loss case (job ran, commit never landed), which
    // forces a full re-execution of a repair job on resume.
    let spec = SweepSpec::Repair(RepairSweep {
        processes: 6,
        comm_processes: 5,
        nodes: 3,
        faults: 1,
        mu_ms: 5,
        seeds: 1,
        max_iterations: 2,
    });
    crash_on_the_fourth_commit_and_resume(&spec, "repair");
}

#[test]
fn overhead_sweep_crash_resume_is_bit_identical() {
    // Two rows, two seeds: the crash loses an optimize result, and the
    // resumed aggregate must pair every strategy with its reference
    // exactly as the uncrashed one did.
    let spec = SweepSpec::Overhead(OverheadSweep {
        processes: vec![6, 8],
        nodes: vec![3],
        faults: vec![1],
        mu_ms: vec![5],
        seeds: 2,
        max_iterations: 2,
        reference: Strategy::Nft,
        strategies: vec![Strategy::Mxr, Strategy::Mr],
    });
    crash_on_the_fourth_commit_and_resume(&spec, "overhead");
}

/// Crashes `spec` on its 4th commit, deep enough that generates and
/// an optimize have landed and an in-flight job's work is lost, then
/// resumes it and compares the results with an uncrashed run.
fn crash_on_the_fourth_commit_and_resume(spec: &SweepSpec, tag: &str) {
    let baseline = run_uncrashed(spec, &tmp(&format!("{tag}-baseline.jsonl")));

    let path = tmp(&format!("{tag}-crash.jsonl"));
    let (mut store, mut state) = SweepStore::create(&path, spec.name(), &spec.jobs()).unwrap();
    let mut injector = Injector::at("done.before_append", 4, CrashMode::Error).unwrap();
    drive(
        &mut store,
        &mut state,
        &SweepExec::new(),
        &mut injector,
        &cfg("victim", 1),
    )
    .unwrap_err();
    drop(store);

    let (mut store, mut state, _) = SweepStore::open(&path).unwrap();
    drive(
        &mut store,
        &mut state,
        &SweepExec::new(),
        &mut Injector::none(),
        &cfg("rescuer", 1),
    )
    .unwrap();
    assert!(state.is_complete());
    assert_eq!(results_bytes(&state), baseline);
}
