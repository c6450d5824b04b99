//! Crash a sweep at every durability boundary; resume; prove nothing
//! changed.
//!
//! The orchestration layer (`ftdes-serve`) holds the experiment
//! harness to the same standard the optimizer designs for: a sweep is
//! a DAG of jobs over an append-only event log, and killing the
//! worker at *any* instant must cost nothing but wall-clock. This
//! example demonstrates the whole contract in-process:
//!
//! 1. expand a small χ trade-off sweep into its job DAG
//!    (generate → optimize → faultsim → aggregate),
//! 2. run it uncrashed and keep every committed result as the
//!    byte-level baseline,
//! 3. for every registered fault point, run a fresh copy of the sweep
//!    with a crash injector armed there — the worker dies exactly
//!    where a `kill -9` would leave the log, including a *torn*
//!    mid-append write,
//! 4. reopen each crashed store (replay detects and drops the torn
//!    line), resume with a cold cache — the dead driver's claims re-run
//!    at once — and assert the final results are **bit-identical** to
//!    the baseline.
//!
//! The same drill works from the command line against a real process:
//! `FTDES_CRASH_AT=<point> ftdes sweep run ...` aborts the driver at
//! the boundary, and `ftdes sweep resume` recovers.
//!
//! Run with: `cargo run --release --example crash_resume_sweep`

use ftdes::bench::jobs::{ChiSweep, SweepExec, SweepSpec};
use ftdes::serve::{
    drive, CrashMode, DriveError, Injector, SweepState, SweepStore, WorkerConfig, FAULT_POINTS,
};

/// Serializes every committed result in job order — the identity two
/// runs must agree on byte-for-byte.
fn results_bytes(state: &SweepState) -> String {
    let mut out = String::new();
    for job in state.jobs() {
        out.push_str(&format!(
            "{} {}\n",
            job.spec.name,
            state
                .result(job.spec.id)
                .and_then(|v| serde_json::to_string(v).ok())
                .unwrap_or_else(|| "<none>".into()),
        ));
    }
    out
}

fn store_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ftdes-crash-resume-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A χ sweep small enough to re-run once per fault point.
    let spec = SweepSpec::Chi(ChiSweep {
        processes: 6,
        nodes: 2,
        faults: 1,
        mu_ms: 5,
        seeds: 1,
        chi_permille: vec![50],
        max_checkpoints: 2,
        max_iterations: 5,
        faultsim_samples: 16,
    });
    let jobs = spec.jobs();
    println!(
        "sweep {}: {} jobs (generate -> optimize -> faultsim -> aggregate)",
        spec.name(),
        jobs.len()
    );

    let cfg = |worker: &str| WorkerConfig {
        worker: worker.into(),
        ..WorkerConfig::default()
    };

    // 2. The uncrashed baseline.
    let path = store_path("baseline.jsonl");
    let (mut store, mut state) = SweepStore::create(&path, spec.name(), &jobs)?;
    drive(
        &mut store,
        &mut state,
        &SweepExec,
        &mut Injector::none(),
        &cfg("baseline"),
    )?;
    assert!(state.is_complete(), "baseline completes");
    let baseline = results_bytes(&state);
    println!("baseline run complete: {} results committed\n", jobs.len());

    // 3 + 4. Crash at every registered fault point; resume; compare.
    for &point in FAULT_POINTS {
        let path = store_path(&format!("{}.jsonl", point.replace('.', "-")));
        let (mut store, mut state) = SweepStore::create(&path, spec.name(), &jobs)?;
        let mut injector = Injector::at(point, 1, CrashMode::Error)?;
        let outcome = drive(
            &mut store,
            &mut state,
            &SweepExec,
            &mut injector,
            &cfg("victim"),
        );
        let fired = match outcome {
            Err(DriveError::InjectedCrash { .. }) => true,
            Ok(_) => false, // the quarantine point never fires on a healthy sweep
            Err(e) => return Err(format!("[{point}] unexpected error: {e}").into()),
        };
        drop(store); // the "process" dies here

        let (mut store, mut state, report) = SweepStore::open(&path)?;
        assert_eq!(
            report.dropped_torn_line,
            point == "done.torn_append",
            "[{point}] torn-line recovery fires exactly for the torn-append point"
        );
        let resumed = drive(
            &mut store,
            &mut state,
            &SweepExec, // executors carry no state between jobs
            &mut Injector::none(),
            &cfg("rescuer"),
        )?;
        assert!(state.is_complete(), "[{point}] resumed sweep completes");
        assert_eq!(
            results_bytes(&state),
            baseline,
            "[{point}] resumed results must be bit-identical to the baseline"
        );
        println!(
            "  {point:<26} crashed: {}, torn line: {}, re-executed {:>2} job(s), \
             reclaimed {} dead claim(s) -> bit-identical",
            if fired { "yes" } else { "unfired" },
            if report.dropped_torn_line {
                "dropped"
            } else {
                "none"
            },
            resumed.executed,
            resumed.reclaimed,
        );
    }

    println!(
        "\nall {} fault points recovered bit-identically: a crashed sweep costs \
         wall-clock, never results",
        FAULT_POINTS.len()
    );
    Ok(())
}
