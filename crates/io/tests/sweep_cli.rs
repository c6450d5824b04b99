//! End-to-end crash drills of `ftdes sweep`: a real subprocess, a
//! real `abort()` at every registered fault point, a real resume —
//! and byte-identical `--out` files afterwards.
//!
//! The in-process crash matrices (`ftdes-serve` and `ftdes-bench`)
//! check the same property with `CrashMode::Error`; this suite closes
//! the loop at the process boundary: `FTDES_CRASH_AT` kills the
//! worker for real, and a fresh `ftdes sweep resume --takeover`
//! process recovers from nothing but the log file. It also pins the
//! CLI's classified exit codes (usage 2, data 65, I/O 74).

use std::path::PathBuf;
use std::process::{Command, Output};

use ftdes_serve::FAULT_POINTS;

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
/// variant must reproduce.
fn baseline() -> Vec<u8> {
    let spec = write_spec("baseline.spec", TINY_CHI);
    let store = fresh("baseline.jsonl");
    let out = fresh("baseline.json");
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

#[test]
fn killed_at_every_fault_point_resume_reproduces_the_baseline_bytes() {
    let want = baseline();
    let spec = write_spec("matrix.spec", TINY_CHI);

    for &point in FAULT_POINTS {
        let tag = point.replace('.', "-");
        let store = fresh(&format!("matrix-{tag}.jsonl"));
        let out = fresh(&format!("matrix-{tag}.json"));
        let run = ftdes(
            &[
                "sweep",
                "run",
                "--spec",
                spec.to_str().expect("utf8 path"),
                "--store",
                store.to_str().expect("utf8 path"),
            ],
            Some(point),
        );
        if run.status.success() {
            // A healthy sweep never reaches the failure-path points;
            // completing uncrashed is the correct degenerate case.
            assert!(
                point.starts_with("fail.") || point.starts_with("quarantine."),
                "[{point}] only failure points may go unfired"
            );
        } else {
            // SIGABRT, not a clean exit: the harness really killed us.
            assert_eq!(
                run.status.code(),
                None,
                "[{point}] expected a signal kill, got exit {:?} ({})",
                run.status.code(),
                stderr(&run)
            );
        }

        let resume = ftdes(
            &[
                "sweep",
                "resume",
                "--store",
                store.to_str().expect("utf8 path"),
                "--takeover",
                "--out",
                out.to_str().expect("utf8 path"),
            ],
            None,
        );
        assert!(
            resume.status.success(),
            "[{point}] resume: {}",
            stderr(&resume)
        );
        let got = std::fs::read(&out).expect("resumed results");
        assert_eq!(
            got, want,
            "[{point}] resumed results differ from the uncrashed run"
        );
    }
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
    assert!(text.contains("claimed by"), "dead lease visible: {text}");

    // Status must not have advanced the sweep: a second call sees the
    // identical picture.
    let again = ftdes(
        &["sweep", "status", "--store", store.to_str().expect("utf8")],
        None,
    );
    assert_eq!(status.stdout, again.stdout, "status is read-only");
}

#[test]
fn exit_codes_classify_failures() {
    // Usage errors: exit 2.
    for args in [
        vec!["sweep"],
        vec!["sweep", "conduct"],
        vec!["sweep", "run", "--warp-speed"],
        vec!["sweep", "run", "--store", "x.jsonl"], // missing --spec
        // Past u32: rejected, not truncated to 0 attempts.
        vec![
            "sweep",
            "run",
            "--spec",
            "x.spec",
            "--store",
            "x.jsonl",
            "--max-attempts",
            "4294967296",
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
