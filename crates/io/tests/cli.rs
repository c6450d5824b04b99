//! End-to-end tests of the `ftdes` CLI binary.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn write_problem(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftdes-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write problem");
    path
}

const PIPELINE: &str = r"
architecture A B
fault_model k=1 mu=5ms
graph period=500ms deadline=400ms
  process x
  process y
  edge x y bytes=2
wcet x * 20ms
wcet y * 30ms
";

fn ftdes(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ftdes"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn info_prints_summary() {
    let path = write_problem("info.ftd", PIPELINE);
    let out = ftdes(&["info", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("processes: 2"));
    assert!(stdout.contains("k = 1"));
}

#[test]
fn engine_ignores_removed_environment_knobs() {
    // Engine options are passed in, never read from the environment:
    // none of these variables may change the problem, and none may
    // bypass the clamp that keeps at least one checkpoint level.
    let args = [
        "info", "--family", "paper", "--procs", "30", "--nodes", "4", "--k", "2", "--chi-ms", "2",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_ftdes"))
        .args(args)
        .env("FTDES_MAX_CHECKPOINTS", "0")
        .env("FTDES_PRIORITY", "mobility")
        .env("FTDES_NO_SPLICE", "1")
        .env("FTDES_NO_PARALLEL", "1")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checkpoint levels: 4"), "stdout: {stdout}");
    assert_eq!(stdout, String::from_utf8_lossy(&ftdes(&args).stdout));
}

#[test]
fn solve_emits_tables_and_json() {
    let path = write_problem("solve.ftd", PIPELINE);
    let json = std::env::temp_dir()
        .join("ftdes-cli-tests")
        .join("solve.json");
    let out = ftdes(&[
        "solve",
        path.to_str().unwrap(),
        "--strategy",
        "mxr",
        "--time-ms",
        "200",
        "--gantt",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("schedulable: true"));
    assert!(stdout.contains("x/1"));
    assert!(stdout.contains("bus"), "gantt includes a bus row");
    let report = std::fs::read_to_string(&json).expect("json written");
    assert!(report.contains("\"strategy\": \"MXR\""));
}

#[test]
fn schedules_name_nodes_as_declared() {
    let named = PIPELINE.replace("architecture A B", "architecture ECU1 ECU2");
    let path = write_problem("named.ftd", &named);
    let out = ftdes(&[
        "solve",
        path.to_str().unwrap(),
        "--time-ms",
        "100",
        "--gantt",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ECU1:"), "stdout: {stdout}");
    assert!(stdout.contains("ECU1 |"), "gantt row: {stdout}");
    assert!(!stdout.contains("N0"), "stdout: {stdout}");
    assert!(!stdout.contains("N1"), "stdout: {stdout}");
}

#[test]
fn solve_past_the_booking_horizon_fails_cleanly() {
    // Well-formed, but x's 10¹² ms WCET puts its message to a remote
    // y ~2·10¹¹ TDMA rounds out: the booking table refuses it with a
    // classified error instead of allocating rounds without bound.
    let problem = "
architecture A B
fault_model k=1 mu=10ms
graph period=100ms
process x
process y
edge x y bytes=2
wcet x * 1000000000000ms
wcet y * 1ms
";
    let path = write_problem("horizon.ftd", problem);
    let out = ftdes(&["solve", path.to_str().unwrap(), "--time-ms", "200"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let limit = ftdes_sched::BOOKING_HORIZON_ROUNDS;
    assert!(
        stderr.contains(&format!("past the booking horizon of {limit} rounds")),
        "stderr: {stderr}"
    );
}

/// The largest accepted fault count, `FaultModel::MAX_K`.
const MAX_K: &str = "4294967294";

/// A two-node pipeline tolerating `k` faults.
fn fault_count_problem(k: &str) -> String {
    format!(
        "
architecture A B
fault_model k={k} mu=1ms
bus slot_bytes=4 byte_time=1us
graph period=100ms
process x
process y
edge x y bytes=2
wcet x * 1ms
wcet y * 1ms
"
    )
}

#[test]
fn solve_with_the_largest_fault_count_fails_cleanly() {
    // Replication levels stop at the node count, so k + 1 = 2³² − 1
    // allocates nothing per level; the re-execution budget pushes x's
    // message past the booking horizon, a classified error.
    let path = write_problem("max-k.ftd", &fault_count_problem(MAX_K));
    let file = ["solve", path.to_str().unwrap(), "--time-ms", "200"];
    let family = [
        "solve",
        "--family",
        "paper",
        "--procs",
        "4",
        "--nodes",
        "2",
        "--k",
        MAX_K,
        "--time-ms",
        "200",
    ];
    for args in [&file[..], &family[..]] {
        let out = ftdes(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.code() == Some(0)
                || (out.status.code() == Some(1) && stderr.contains("past the booking horizon")),
            "{args:?}: {:?}, stderr: {stderr}",
            out.status
        );
    }
}

#[test]
fn a_fault_count_without_a_replica_count_is_rejected() {
    // k + 1 replicas must fit a u32.
    let path = write_problem("over-k.ftd", &fault_count_problem("4294967295"));
    let out = ftdes(&["solve", path.to_str().unwrap(), "--time-ms", "200"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(65), "stderr: {stderr}");
    assert!(stderr.contains("\"4294967295\""), "stderr: {stderr}");
    let out = family_info("--k", "4294967295");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("invalid --k: 4294967295 (at most {MAX_K})")),
        "stderr: {stderr}"
    );
}

#[test]
fn solve_rejects_a_wrapping_worst_case() {
    // Three executions (k = 2) of a 9.2·10¹⁸ µs WCET do not fit in
    // u64: the file is rejected as data, not solved with a wrapped δ.
    let problem = "
architecture A
fault_model k=2 mu=10ms
graph period=100ms
process x
wcet x * 9200000000000000ms
";
    let path = write_problem("wrap.ftd", problem);
    let out = ftdes(&["solve", path.to_str().unwrap(), "--time-ms", "200"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(65), "stderr: {stderr}");
    assert!(
        stderr.contains("worst-case schedule horizon overflows"),
        "stderr: {stderr}"
    );
}

#[test]
fn info_rejects_an_unrepresentable_hyperperiod() {
    let problem = "
architecture A
fault_model k=1 mu=1ms
graph period=5000000029ms
process x
graph period=5000000039ms
process y
wcet x * 1ms
wcet y * 1ms
";
    let path = write_problem("hyperperiod.ftd", problem);
    let out = ftdes(&["info", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(65), "stderr: {stderr}");
    assert!(
        stderr.contains("hyperperiod (LCM of the graph periods) overflows"),
        "stderr: {stderr}"
    );
}

#[test]
fn info_rejects_a_merge_past_the_process_cap() {
    let problem = "
architecture A
fault_model k=1 mu=1ms
bus slot_bytes=4 byte_time=1us
graph period=1ms
process a
graph period=1000000007ms
process b
wcet a * 1us
wcet b * 1us
";
    let path = write_problem("merge-cap.ftd", problem);
    let path = path.to_str().unwrap();
    let out = ftdes(&["info", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(65), "stderr: {stderr}");
    // Whole-file errors name the file, as parse errors do.
    assert!(
        stderr.starts_with(&format!("error: {path}: line 0: ")),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("merging the graphs over their hyperperiod builds more than"),
        "stderr: {stderr}"
    );
}

#[test]
fn max_checkpoints_flag_is_held_to_the_horizon_budget() {
    // The file passes the budget at its default checkpoint levels, so
    // it solves. A million levels add χ·(10⁶ − 1) of saves per
    // execution, which no longer fits: the flag must not bypass the
    // budget and solve a wrapped δ.
    let problem = "
architecture A B
fault_model k=2 mu=10ms chi=1000000000000ms
bus slot_bytes=4 byte_time=1ms
graph period=100ms
process x
wcet x * 1000000000000000ms
";
    let path = write_problem("max-checkpoints.ftd", problem);
    let path = path.to_str().unwrap();
    let out = ftdes(&["solve", path, "--time-ms", "200"]);
    assert!(out.status.success(), "{out:?}");
    let out = ftdes(&[
        "solve",
        path,
        "--time-ms",
        "200",
        "--max-checkpoints",
        "1000000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(65), "stderr: {stderr}");
    assert!(
        stderr.contains("worst-case schedule horizon overflows"),
        "stderr: {stderr}"
    );
}

/// `ftdes info` on a generated paper instance with one extra flag.
fn family_info(flag: &str, value: &str) -> std::process::Output {
    ftdes(&[
        "info", "--family", "paper", "--procs", "4", "--nodes", "2", flag, value,
    ])
}

#[test]
fn family_millisecond_flags_past_the_time_range_are_usage_errors() {
    // 18446744073709552 ms is one millisecond past u64::MAX µs.
    for flag in ["--chi-ms", "--mu-ms"] {
        let out = family_info(flag, "18446744073709552");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("invalid {flag}: 18446744073709552 ms overflows")),
            "{flag}: stderr: {stderr}"
        );
    }
}

#[test]
fn family_float_flags_are_usage_errors() {
    // NaN and negative values first: without the check they exit 0 on
    // a silently changed input, while an infinite density makes the
    // generator's densify loop run without end.
    let comm_info = |args: &[&str]| {
        let mut all = vec![
            "info",
            "--family",
            "comm-heavy",
            "--procs",
            "8",
            "--nodes",
            "2",
            "--k",
            "1",
        ];
        all.extend_from_slice(args);
        ftdes(&all)
    };
    let usage_error = |args: &[&str], expected: &str| {
        let out = comm_info(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: stderr: {stderr}");
    };
    for v in ["nan", "-1", "inf", "-inf"] {
        for flag in ["--density", "--msg-wcet-ratio"] {
            usage_error(&[flag, v], &format!("invalid {flag}: "));
        }
    }
    // Finite densities past 2^20 edges: at 1e30 the generator's edge
    // target saturates at usize::MAX.
    usage_error(&["--density", "1e30"], "at most 1048576 edges");
    usage_error(
        &["--procs", "4", "--density", "262144.25"],
        "invalid --density 262144.25 with --procs 4: at most 1048576 edges",
    );
}

#[test]
fn count_flags_past_their_maximum_are_usage_errors() {
    // Each maximum + 1 only: a missing check must not be able to
    // allocate without bound or spawn thousands of threads.
    let path = write_problem("counts.ftd", PIPELINE);
    let path = path.to_str().unwrap();
    let usage_error = |args: &[&str], expected: &str| {
        let out = ftdes(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: stderr: {stderr}");
    };
    let max_u64 = u64::MAX.to_string();
    for v in ["100001", &max_u64] {
        usage_error(
            &["inject", path, "--scenarios", v],
            &format!("invalid --scenarios: {v} (at most 100000)"),
        );
    }
    let threads = ftdes_core::MAX_THREADS;
    let past = (threads + 1).to_string();
    let expected = format!("(at most {threads})");
    usage_error(&["solve", path, "--portfolio", &past], &expected);
    usage_error(
        &["sweep", "status", "--store", path, "--workers", &past],
        &expected,
    );

    let procs = ftdes_model::merge::MAX_MERGED_PROCESSES;
    let pairs = ftdes_core::problem::MAX_PROCESS_NODE_PAIRS;
    for (flag, max) in [("--procs", procs), ("--nodes", pairs)] {
        let out = family_info(flag, &(max + 1).to_string());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        let expected = format!("invalid {flag}: {} (at most {max})", max + 1);
        assert!(stderr.contains(&expected), "{flag}: stderr: {stderr}");
    }
    // Each flag within its cap, the pair past theirs.
    let procs = procs.to_string();
    usage_error(
        &[
            "info", "--family", "paper", "--procs", &procs, "--nodes", "65",
        ],
        &format!("at most {pairs} process-node pairs"),
    );

    // The search indexes one move per checkpoint count; the cap keeps
    // every move index within a u64.
    let checkpoints = ftdes_core::problem::MAX_CHECKPOINTS;
    for v in [u64::from(checkpoints) + 1, u64::from(u32::MAX)] {
        let v = v.to_string();
        usage_error(
            &[
                "solve",
                "--family",
                "paper",
                "--procs",
                "10",
                "--nodes",
                "2",
                "--k",
                "1",
                "--chi-ms",
                "1",
                "--max-checkpoints",
                &v,
                "--time-ms",
                "200",
            ],
            &format!("invalid --max-checkpoints: {v} (at most {checkpoints})"),
        );
    }
}

#[test]
fn info_rejects_a_wide_architecture_past_the_process_caps() {
    // 65,536 nodes and two one-process graphs that merge to 32,769
    // processes: refused before the dense processes × nodes WCET
    // matrix (34 GB) is allocated.
    let nodes: Vec<String> = (0..1 << 16).map(|i| format!("N{i}")).collect();
    let problem = format!(
        "architecture {}
fault_model k=1 mu=1ms
bus slot_bytes=4 byte_time=1us
graph period=2ms
process a
graph period=65536ms
process b
wcet a N0 1us
wcet b N0 1us
",
        nodes.join(" ")
    );
    let path = write_problem("wide.ftd", &problem);
    for command in ["info", "solve"] {
        let out = ftdes(&[command, path.to_str().unwrap(), "--time-ms", "200"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(65), "{command}: stderr: {stderr}");
    }
}

/// The largest accepted input: 16,384 processes on 64 nodes (2²⁰
/// process-node pairs), one `wcet` line per pair, about 20 MB. `info`
/// must read it under a 1 GB address-space limit. Run it in release:
/// `cargo test --release -p ftdes-io --test cli -- --ignored`.
#[test]
#[ignore = "writes a 20 MB file; CI runs it in release"]
fn info_reads_the_largest_accepted_file_in_bounded_memory() {
    let processes = ftdes_model::merge::MAX_MERGED_PROCESSES;
    let nodes = ftdes_core::problem::MAX_PROCESS_NODE_PAIRS / processes;
    assert_eq!((processes, nodes), (16_384, 64));
    let mut text = String::from("architecture");
    for n in 0..nodes {
        text.push_str(&format!(" N{n}"));
    }
    text.push_str("\nfault_model k=1 mu=1ms\nbus slot_bytes=4 byte_time=1us\ngraph period=100ms\n");
    for p in 0..processes {
        text.push_str(&format!("  process p{p}\n"));
    }
    for p in 0..processes {
        for n in 0..nodes {
            text.push_str(&format!("wcet p{p} N{n} {}us\n", 1 + (p + n) % 7));
        }
    }
    let path = write_problem("largest.ftd", &text);
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 1000000; exec "$0" info "$1""#)
        .arg(env!("CARGO_BIN_EXE_ftdes"))
        .arg(&path)
        .output()
        .expect("shell runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("processes: {processes}, edges: 0, nodes: {nodes}")),
        "stdout: {stdout}"
    );
}

/// The largest generated instance: 16,384 processes on 64 nodes at
/// k = 63, so every process admits 64 replication levels on each of
/// its 64 primaries. `solve` must finish under a 4 GB address-space
/// limit: the move table holds O(eligible nodes) per process and
/// decodes a move only when a window scores it. Run it in release:
/// `cargo test --release -p ftdes-io --test cli -- --ignored`.
#[test]
#[ignore = "a 16,384-process solve; CI runs it in release"]
fn solve_on_the_largest_generated_instance_runs_in_bounded_memory() {
    let out = Command::new("sh")
        .arg("-c")
        .arg(
            r#"ulimit -v 4000000; exec "$0" solve --family paper --procs 16384 --nodes 64 \
               --k 63 --time-ms 500"#,
        )
        .arg(env!("CARGO_BIN_EXE_ftdes"))
        .output()
        .expect("shell runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `ftdes solve --family paper <flags> --time-ms 200 --goal length`
/// under a 2 GB address-space limit must exit 0 within 2 s: the
/// budget plus slack for a loaded runner.
fn solve_keeps_its_budget(flags: &str) {
    let start = Instant::now();
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            r#"ulimit -v 2000000; exec "$0" solve --family paper {flags} --time-ms 200 --goal length"#
        ))
        .arg(env!("CARGO_BIN_EXE_ftdes"))
        .output()
        .expect("shell runs");
    let elapsed = start.elapsed();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
}

/// Two processes on 1,024 nodes at k = 1023: each admits 1,024
/// replication levels on each of its 1,024 primaries, about half a
/// billion replica placements if its decisions were listed. Run it in
/// release, like the case above.
#[test]
#[ignore = "a solve under an address-space limit; CI runs it in release"]
fn solve_with_a_replica_on_every_node_keeps_its_budget() {
    solve_keeps_its_budget("--procs 2 --nodes 1024 --k 1023");
}

/// Ten processes at the checkpoint cap: a budgeted level takes 2²⁰
/// checkpoint counts on each primary, two million decisions per
/// process. Run it in release, like the case above.
#[test]
#[ignore = "a solve under an address-space limit; CI runs it in release"]
fn solve_at_the_checkpoint_cap_keeps_its_budget() {
    solve_keeps_its_budget("--procs 10 --nodes 2 --k 1 --chi-ms 1 --max-checkpoints 1048576");
}

#[test]
fn family_instances_are_held_to_the_horizon_budget() {
    // A representable χ whose saves overflow the budget: generated
    // instances get the same check as problem files.
    let out = family_info("--chi-ms", "18446744073709551");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(65), "stderr: {stderr}");
    assert!(
        stderr.contains("worst-case schedule horizon overflows"),
        "stderr: {stderr}"
    );
}

#[test]
fn inject_validates_schedule() {
    let path = write_problem("inject.ftd", PIPELINE);
    let out = ftdes(&[
        "inject",
        path.to_str().unwrap(),
        "--scenarios",
        "50",
        "--time-ms",
        "200",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenarios replayed"));
}

#[test]
fn bad_file_reports_line() {
    let path = write_problem("bad.ftd", "architecture A\nbogus directive\n");
    let out = ftdes(&["info", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
}

/// [`PIPELINE`] with CRLF line ends, a comment ending every line and
/// U+00A0, U+000B and tab for separators.
fn pipeline_with_unicode_separators() -> String {
    let separators = ["\u{a0}", "\u{b}", "\t"];
    (PIPELINE.lines().enumerate())
        .map(|(i, line)| {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let separator = separators[i % separators.len()];
            format!(
                "{separator}{}{separator}# comment\r\n",
                tokens.join(separator)
            )
        })
        .collect()
}

#[test]
fn crlf_and_unicode_separators_read_like_the_plain_file() {
    let plain = write_problem("plain.ftd", PIPELINE);
    let spaced_text = pipeline_with_unicode_separators();
    let spaced = write_problem("spaced.ftd", &spaced_text);
    let expected = ftdes(&["info", plain.to_str().unwrap()]);
    let out = ftdes(&["info", spaced.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, expected.stdout);

    // A bad value on the last line is reported at that line.
    let last = spaced_text.matches('\n').count();
    let bad = write_problem("spaced-bad.ftd", &spaced_text.replace("30ms", "30xs"));
    let out = ftdes(&["info", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("line {last}:")),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("invalid time \"30xs\""), "stderr: {stderr}");
}

#[test]
fn unknown_flag_rejected() {
    let path = write_problem("flags.ftd", PIPELINE);
    let out = ftdes(&["solve", path.to_str().unwrap(), "--warp-speed"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn closed_stdout_exits_quietly() {
    // `ftdes solve ... | head -1`: the reader goes away before the
    // tables are written (the search spends its whole budget first).
    // The CLI must stop with exit 0, not panic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftdes"))
        .args([
            "solve",
            "--family",
            "paper",
            "--procs",
            "30",
            "--nodes",
            "3",
            "--k",
            "1",
            "--goal",
            "length",
            "--time-ms",
            "100",
            "--gantt",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn missing_arguments_show_usage() {
    let out = ftdes(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

const THREE_NODE: &str = r"
architecture A B C
fault_model k=1 mu=5ms
graph period=500ms deadline=400ms
  process x
  process y
  edge x y bytes=2
wcet x * 20ms
wcet y * 30ms
";

#[test]
fn repair_kills_a_node_and_replays() {
    let path = write_problem("repair.ftd", THREE_NODE);
    let out = ftdes(&[
        "repair",
        path.to_str().unwrap(),
        "--time-ms",
        "200",
        "--repair-ms",
        "200",
        "--scenarios",
        "20",
        "--delta",
        "kill-node:N2",
        "--delta",
        "rescale-wcet:110",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applying: kill-node N2 + rescale-wcet to 110%"));
    assert!(stdout.contains("repaired by rung"), "stdout: {stdout}");
    assert!(stdout.contains("scenarios replayed against the repaired schedule"));
}

#[test]
fn repair_rejects_a_delta_past_the_horizon_budget() {
    // The file fits the budget; scaled to 10000 %, 101 executions of
    // three 1.8·10¹⁷ µs WCETs do not fit in u64. The post-delta
    // problem is rejected instead of repaired with a wrapped δ.
    let problem = "
architecture A
fault_model k=100 mu=1ms
graph period=100ms deadline=100ms
  process a
  process b
  process c
wcet a * 1800000000000ms
wcet b * 1800000000000ms
wcet c * 1800000000000ms
";
    let path = write_problem("repair-horizon.ftd", problem);
    let out = ftdes(&[
        "repair",
        path.to_str().unwrap(),
        "--time-ms",
        "200",
        "--delta",
        "rescale-wcet:10000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("delta rejected: invalid problem delta: the post-delta worst-case"),
        "stderr: {stderr}"
    );
}

#[test]
fn failed_repair_names_its_cause() {
    // Rescaled to 30000000 %, the pipeline's message needs TDMA round
    // 1200000: no rung schedules anything, and the repair reports the
    // from-scratch rung's own error, as `solve` on the rescaled file
    // does, instead of an invented placement failure of P0.
    let path = write_problem("repair-horizon-fail.ftd", PIPELINE);
    let out = ftdes(&[
        "repair",
        path.to_str().unwrap(),
        "--delta",
        "rescale-wcet:30000000",
        "--time-ms",
        "300",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("past the booking horizon of 1048576 rounds"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("P0"), "stderr: {stderr}");
}

#[test]
fn repair_rejects_malformed_delta() {
    let path = write_problem("repair-bad.ftd", THREE_NODE);
    let out = ftdes(&["repair", path.to_str().unwrap(), "--delta", "explode:N1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown delta op"));
}

#[test]
fn repair_requires_a_delta() {
    let path = write_problem("repair-none.ftd", THREE_NODE);
    let out = ftdes(&["repair", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--delta"));
}
