//! End-to-end crash drills of `ftdes sweep`: a real subprocess, a
//! real `abort()` at every registered fault point, a real resume —
//! and byte-identical `--out` files afterwards.
//!
//! The in-process crash matrices (`ftdes-serve` and `ftdes-bench`)
//! check the same property with `CrashMode::Error`; this suite closes
//! the loop at the process boundary: `FTDES_CRASH_AT` kills the
//! driver for real, and a fresh `ftdes sweep resume` process recovers
//! from nothing but the log file. It also pins the store lock (one
//! driver per store, `status` read-only beside it) and the CLI's
//! classified exit codes (usage 2, data 65, I/O 74).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ftdes_serve::{Event, SweepStore, FAULT_POINTS};

/// A sweep small enough for the full fault-point loop to run in
/// seconds, with every job kind present.
const TINY_CHI: &str = "# tiny χ sweep for crash drills\n\
     sweep chi\n\
     processes 6\n\
     nodes 2\n\
     faults 1\n\
     mu_ms 5\n\
     seeds 1\n\
     chi_permille 50\n\
     max_checkpoints 2\n\
     max_iterations 2\n\
     faultsim_samples 8\n";

fn dir() -> PathBuf {
    let dir = std::env::temp_dir().join("ftdes-sweep-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fresh(name: &str) -> PathBuf {
    let path = dir().join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn write_spec(name: &str, contents: &str) -> PathBuf {
    let path = dir().join(name);
    std::fs::write(&path, contents).expect("write spec");
    path
}

fn ftdes(args: &[&str], crash_at: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftdes"));
    cmd.args(args);
    match crash_at {
        Some(point) => cmd.env("FTDES_CRASH_AT", point),
        None => cmd.env_remove("FTDES_CRASH_AT"),
    };
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// One uncrashed run's `--out` bytes — the identity every crashed
/// variant must reproduce. `tag` keeps the files of concurrent tests
/// apart.
fn baseline(tag: &str) -> Vec<u8> {
    let spec = write_spec(&format!("baseline-{tag}.spec"), TINY_CHI);
    let store = fresh(&format!("baseline-{tag}.jsonl"));
    let out = fresh(&format!("baseline-{tag}.json"));
    let run = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            spec.to_str().expect("utf8 path"),
            "--store",
            store.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
        ],
        None,
    );
    assert!(run.status.success(), "baseline run: {}", stderr(&run));
    std::fs::read(&out).expect("baseline results")
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf8 path")
}

/// `sweep resume --store <store> --out <out>`, uncrashed.
fn resume(store: &Path, out: &Path) -> Output {
    ftdes(
        &[
            "sweep",
            "resume",
            "--store",
            utf8(store),
            "--out",
            utf8(out),
        ],
        None,
    )
}

#[test]
fn killed_at_every_fault_point_resume_reproduces_the_baseline_bytes() {
    let want = baseline("matrix");
    let spec = write_spec("matrix.spec", TINY_CHI);

    for workers in ["1", "2"] {
        for nth in [1, 2] {
            for &point in FAULT_POINTS {
                let at = format!("[{point}:{nth}, {workers} workers]");
                let tag = format!("{}-{nth}-{workers}w", point.replace('.', "-"));
                let store = fresh(&format!("matrix-{tag}.jsonl"));
                let out = fresh(&format!("matrix-{tag}.json"));
                let run = ftdes(
                    &[
                        "sweep",
                        "run",
                        "--spec",
                        utf8(&spec),
                        "--store",
                        utf8(&store),
                        "--workers",
                        workers,
                    ],
                    Some(&format!("{point}:{nth}")),
                );
                if run.status.success() {
                    // A healthy sweep never reaches the quarantine
                    // point; completing uncrashed is the correct
                    // degenerate case.
                    assert!(
                        point.starts_with("quarantine."),
                        "{at} only the quarantine point may go unfired"
                    );
                } else {
                    // SIGABRT, not a clean exit: the harness really
                    // killed us.
                    assert_eq!(
                        run.status.code(),
                        None,
                        "{at} expected a signal kill, got exit {:?} ({})",
                        run.status.code(),
                        stderr(&run)
                    );
                }

                let resumed = resume(&store, &out);
                assert!(
                    resumed.status.success(),
                    "{at} resume: {}",
                    stderr(&resumed)
                );
                let got = std::fs::read(&out).expect("resumed results");
                assert_eq!(
                    got, want,
                    "{at} resumed results differ from the uncrashed run"
                );
            }
        }
    }
}

#[test]
fn a_store_with_lease_expiries_resumes_to_the_baseline_bytes() {
    // Written by the binary before the store lock: killed at the 3rd
    // `done.before_append`, its claims carry an `expires_ms` 60 s past
    // their `at_ms`. The dead claim re-runs at once.
    let want = baseline("lease-era");
    let store = fresh("lease-era.jsonl");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/claims_with_lease_expiry.jsonl"
        ),
        &store,
    )
    .expect("copy fixture");
    let out = fresh("lease-era.json");
    let resumed = resume(&store, &out);
    assert!(resumed.status.success(), "resume: {}", stderr(&resumed));
    let text = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert!(text.contains("1 reclaimed"), "stdout: {text}");
    assert_eq!(std::fs::read(&out).expect("results"), want);
}

/// `TINY_CHI` over two seeds at the largest accepted µ: both generate
/// jobs fail the horizon budget, and every other job depends on one.
fn failing_chi() -> String {
    TINY_CHI
        .replace("mu_ms 5\n", "mu_ms 18446744073709551\n")
        .replace("seeds 1\n", "seeds 2\n")
}

/// The store's complete lines, parsed.
fn store_events(store: &Path) -> Vec<Event> {
    std::fs::read_to_string(store)
        .expect("read store")
        .lines()
        .map(|line| serde_json::from_str(line).expect("event line"))
        .collect()
}

/// Every `Claim` and every `Quarantine` of the store, as job ids and
/// error counts, and whether it holds any `Fail` line.
fn claims_quarantines_fails(store: &Path) -> (Vec<u64>, Vec<(u64, usize)>, bool) {
    let (mut claims, mut quarantines, mut fails) = (Vec::new(), Vec::new(), false);
    for event in store_events(store) {
        match event {
            Event::Claim { id, .. } => claims.push(id),
            Event::Quarantine { id, failures } => quarantines.push((id, failures.len())),
            Event::Fail { .. } => fails = true,
            _ => {}
        }
    }
    (claims, quarantines, fails)
}

#[test]
fn a_failing_job_is_quarantined_after_one_attempt() {
    let spec = write_spec("failing.spec", &failing_chi());
    let store = fresh("failing.jsonl");
    let run = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            utf8(&spec),
            "--store",
            utf8(&store),
        ],
        None,
    );
    assert_eq!(run.status.code(), Some(1), "{}", stderr(&run));
    let text = String::from_utf8_lossy(&run.stdout).into_owned();
    assert!(text.contains("2 quarantined, 11 blocked"), "stdout: {text}");

    let status = ftdes(&["sweep", "status", "--store", utf8(&store)], None);
    assert!(status.status.success(), "status: {}", stderr(&status));
    let text = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(
        text.contains("gen/s0: quarantined: worst-case schedule horizon overflows its budget"),
        "stdout: {text}"
    );

    // Generate jobs are 1 and 7: one claim and one single-error
    // quarantine each, and no retry.
    let (claims, quarantines, fails) = claims_quarantines_fails(&store);
    assert_eq!(claims, vec![1, 7]);
    assert_eq!(quarantines, vec![(1, 1), (7, 1)]);
    assert!(!fails, "no Fail line");
}

#[test]
fn a_store_with_retried_failures_resumes_with_one_attempt_per_job() {
    // Written by the binary that retried failed jobs with backoff, on
    // `failing_chi()` and killed at its first `quarantine.before_append`:
    // five claims and four `Fail` lines, an `at_ms` on every one. A
    // `Fail` replays as nothing, so both generate jobs are claimed.
    let store = fresh("retry-era.jsonl");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/failures_with_backoff.jsonl"
        ),
        &store,
    )
    .expect("copy fixture");
    let before = store_events(&store).len();
    let (claims_before, _, _) = claims_quarantines_fails(&store);
    let status = ftdes(&["sweep", "status", "--store", utf8(&store)], None);
    assert!(status.status.success(), "status: {}", stderr(&status));
    let text = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(text.contains("2 claimed"), "stdout: {text}");

    let resumed = resume(&store, &fresh("retry-era.json"));
    assert_eq!(resumed.status.code(), Some(1), "{}", stderr(&resumed));
    let text = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert!(
        text.contains("0 executed, 2 reclaimed, 2 quarantined, 11 blocked"),
        "stdout: {text}"
    );
    // Two claims and two one-error quarantines appended, nothing else.
    let (claims, quarantines, _) = claims_quarantines_fails(&store);
    assert_eq!(claims[claims_before.len()..], [1, 7]);
    assert_eq!(quarantines, vec![(1, 1), (7, 1)]);
    assert_eq!(store_events(&store).len(), before + 4);
}

#[test]
fn a_second_driver_is_refused_and_leaves_the_store_untouched() {
    let spec = write_spec("locked.spec", TINY_CHI);
    let store = fresh("locked.jsonl");
    let run = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            utf8(&spec),
            "--store",
            utf8(&store),
        ],
        Some("done.before_append:3"),
    );
    assert!(!run.status.success(), "crash drill must kill the run");

    // This process drives the store now; nothing below may write it.
    let held = SweepStore::open(&store).expect("the killed driver let go");
    let before = std::fs::read(&store).expect("read store");
    let out = fresh("locked.json");
    let second = resume(&store, &out);
    assert_eq!(second.status.code(), Some(74), "{}", stderr(&second));
    assert!(stderr(&second).contains("lock"), "{}", stderr(&second));
    let again = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            utf8(&spec),
            "--store",
            utf8(&store),
        ],
        None,
    );
    assert_eq!(again.status.code(), Some(74), "{}", stderr(&again));
    let status = ftdes(&["sweep", "status", "--store", utf8(&store)], None);
    assert!(status.status.success(), "status: {}", stderr(&status));
    assert_eq!(std::fs::read(&store).expect("read store"), before);
    assert!(!out.exists(), "the refused resume wrote no results");
    drop(held);
}

#[test]
fn run_on_an_existing_store_announces_nothing() {
    let spec = write_spec("existing.spec", TINY_CHI);
    let store = fresh("existing.jsonl");
    let args = [
        "sweep",
        "run",
        "--spec",
        utf8(&spec),
        "--store",
        utf8(&store),
    ];
    let first = ftdes(&args, None);
    assert!(first.status.success(), "{}", stderr(&first));
    let before = std::fs::read(&store).expect("read store");

    let again = ftdes(&args, None);
    assert_eq!(again.status.code(), Some(74), "{}", stderr(&again));
    assert!(
        again.stdout.is_empty(),
        "a sweep that never starts is not announced: {}",
        String::from_utf8_lossy(&again.stdout)
    );
    assert_eq!(std::fs::read(&store).expect("read store"), before);
}

#[test]
fn status_leaves_a_torn_store_to_the_next_driver() {
    let spec = write_spec("torn.spec", TINY_CHI);
    let store = fresh("torn.jsonl");
    let run = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            utf8(&spec),
            "--store",
            utf8(&store),
        ],
        Some("done.torn_append:2"),
    );
    assert_eq!(
        run.status.code(),
        None,
        "killed mid-append: {}",
        stderr(&run)
    );
    let torn = std::fs::read(&store).expect("read store");
    assert_ne!(torn.last(), Some(&b'\n'), "the kill tore the final line");

    let status = ftdes(&["sweep", "status", "--store", utf8(&store)], None);
    assert!(status.status.success(), "status: {}", stderr(&status));
    let text = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(text.contains("torn line skipped"), "stdout: {text}");
    assert_eq!(
        std::fs::read(&store).expect("read store"),
        torn,
        "status wrote"
    );

    let out = fresh("torn.json");
    let resumed = resume(&store, &out);
    assert!(resumed.status.success(), "resume: {}", stderr(&resumed));
    let text = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert!(
        text.contains("recovered from a torn append (dropped the partial line)"),
        "stdout: {text}"
    );
}

#[test]
fn status_reports_progress_without_driving() {
    let spec = write_spec("status.spec", TINY_CHI);
    let store = fresh("status.jsonl");
    let run = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            spec.to_str().expect("utf8 path"),
            "--store",
            store.to_str().expect("utf8 path"),
        ],
        Some("claim.after_append"),
    );
    assert!(!run.status.success(), "crash drill must kill the run");

    let status = ftdes(
        &["sweep", "status", "--store", store.to_str().expect("utf8")],
        None,
    );
    assert!(status.status.success(), "status: {}", stderr(&status));
    let text = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(text.contains("sweep chi"), "stdout: {text}");
    assert!(text.contains("claimed by"), "dead claim visible: {text}");

    // Status must not have advanced the sweep: a second call sees the
    // identical picture.
    let again = ftdes(
        &["sweep", "status", "--store", store.to_str().expect("utf8")],
        None,
    );
    assert_eq!(status.stdout, again.stdout, "status is read-only");
}

#[test]
fn out_of_range_knobs_exit_65_without_a_store() {
    // Each value used to wrap or truncate into a different sweep that
    // ran and exited 0 (k = 1, µ = 384 µs, a wrapped χ), or, for the
    // checkpoint count, to list one move per count.
    for (line, key) in [
        ("faults 4294967297", "faults"),
        ("mu_ms 18446744073709552", "mu_ms"),
        ("chi_permille 400000000000000", "chi_permille"),
        ("max_checkpoints 1048577", "max_checkpoints"),
    ] {
        let original = TINY_CHI
            .lines()
            .find(|l| l.starts_with(key))
            .expect("the tiny sweep sets the key");
        let spec = write_spec(
            &format!("range-{key}.spec"),
            &TINY_CHI.replace(original, line),
        );
        let store = fresh(&format!("range-{key}.jsonl"));
        let out = ftdes(
            &[
                "sweep",
                "run",
                "--spec",
                spec.to_str().expect("utf8 path"),
                "--store",
                store.to_str().expect("utf8 path"),
            ],
            None,
        );
        assert_eq!(out.status.code(), Some(65), "{line}: {}", stderr(&out));
        assert!(stderr(&out).contains(key), "{line}: {}", stderr(&out));
        assert!(!store.exists(), "{line}: the store is never created");
    }
}

#[test]
fn exit_codes_classify_failures() {
    // Usage errors: exit 2.
    for args in [
        vec!["sweep"],
        vec!["sweep", "conduct"],
        vec!["sweep", "run", "--warp-speed"],
        vec!["sweep", "run", "--store", "x.jsonl"], // missing --spec
        // A failed job is quarantined on its one attempt: no such flag.
        vec![
            "sweep",
            "run",
            "--spec",
            "x.spec",
            "--store",
            "x.jsonl",
            "--max-attempts",
            "3",
        ],
    ] {
        let out = ftdes(&args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }

    // Malformed sweep spec: exit 65 with a line number.
    let bad = write_spec("bad.spec", "sweep chi\nseeds nope\n");
    let store = fresh("bad.jsonl");
    let out = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            bad.to_str().expect("utf8 path"),
            "--store",
            store.to_str().expect("utf8 path"),
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(65), "{}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));

    // Missing store file: exit 74.
    let gone = fresh("never-created.jsonl");
    let out = ftdes(
        &["sweep", "status", "--store", gone.to_str().expect("utf8")],
        None,
    );
    assert_eq!(out.status.code(), Some(74), "{}", stderr(&out));

    // A store damaged in the middle (not a crash signature): exit 65.
    let spec = write_spec("corrupt.spec", TINY_CHI);
    let store = fresh("corrupt.jsonl");
    let run = ftdes(
        &[
            "sweep",
            "run",
            "--spec",
            spec.to_str().expect("utf8 path"),
            "--store",
            store.to_str().expect("utf8 path"),
        ],
        None,
    );
    assert!(run.status.success(), "{}", stderr(&run));
    let mut bytes = std::fs::read(&store).expect("read store");
    bytes[2] = b'#';
    std::fs::write(&store, bytes).expect("damage store");
    let out = ftdes(
        &["sweep", "status", "--store", store.to_str().expect("utf8")],
        None,
    );
    assert_eq!(out.status.code(), Some(65), "{}", stderr(&out));
    assert!(stderr(&out).contains("corrupt"), "{}", stderr(&out));

    // Problem-file commands are classified too: unreadable file is
    // I/O, a malformed one is a data error.
    let out = ftdes(&["info", "no-such-problem.ftd"], None);
    assert_eq!(out.status.code(), Some(74), "{}", stderr(&out));
    let prob = write_spec("bad.ftd", "architecture A\nbogus directive\n");
    let out = ftdes(&["info", prob.to_str().expect("utf8 path")], None);
    assert_eq!(out.status.code(), Some(65), "{}", stderr(&out));
}
