//! Malformed-input matrix for the problem-file parser.
//!
//! Every case here is hostile or corrupt input that must come back as
//! a structured [`ParseProblemError`] — never a panic, never a
//! silently wrong model. Cases assert the error *kind* so regressions
//! in classification are caught, not just rejection.

use ftdes_io::{parse_problem, ErrorKind};

/// A valid prefix that cases below corrupt one line at a time.
const VALID: &str = "
architecture A B
fault_model k=1 mu=10ms
graph period=100ms
process x
process y
edge x y bytes=2
wcet x * 1ms
wcet y * 1ms
";

fn parse_err(text: &str) -> ftdes_io::ParseProblemError {
    match parse_problem(text) {
        Err(e) => e,
        Ok(spec) => match spec.into_problem() {
            Err(e) => e,
            Ok(_) => panic!("malformed input accepted:\n{text}"),
        },
    }
}

#[test]
fn accepts_the_valid_baseline() {
    let spec = parse_problem(VALID).expect("baseline parses");
    spec.into_problem().expect("baseline converts");
}

#[test]
fn rejects_negative_times() {
    for field in [
        "fault_model k=1 mu=-10ms",
        "graph period=-100ms",
        "process x release=-1ms",
    ] {
        let text = format!("architecture A\n{field}\n");
        let err = parse_err(&text);
        assert_eq!(err.kind, ErrorKind::InvalidValue, "{field}: {err}");
    }
}

#[test]
fn rejects_non_finite_times() {
    for bad in ["NaN", "inf", "-inf", "1e9ms", "0x10ms"] {
        let text = format!("architecture A\nfault_model k=1 mu={bad}\n");
        let err = parse_err(&text);
        assert_eq!(err.kind, ErrorKind::InvalidValue, "mu={bad}: {err}");
    }
}

#[test]
fn rejects_overflowing_times() {
    // Parses as u64 microseconds-per-ms but the multiply overflows.
    let text = "architecture A\nfault_model k=1 mu=99999999999999999999us\n";
    assert_eq!(parse_err(text).kind, ErrorKind::InvalidValue);
    let text = "architecture A\nfault_model k=1 mu=18446744073709551615ms\n";
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Overflow, "{err}");
    assert!(err.message.contains("overflows"), "{err}");
}

#[test]
fn rejects_negative_counts() {
    for field in ["fault_model k=-1 mu=1ms", "bus slot_bytes=-4"] {
        let text = format!("architecture A\n{field}\n");
        let err = parse_err(&text);
        assert_eq!(err.kind, ErrorKind::InvalidValue, "{field}: {err}");
    }
    let text = format!("{VALID}bus slot_bytes=4\n");
    parse_problem(&text).expect("valid bus accepted");
}

#[test]
fn rejects_a_fault_count_past_the_replica_range() {
    // k + 1 replicas must fit a u32: the largest k parses, one more
    // is rejected by value.
    let text = VALID.replace("k=1", "k=4294967294");
    parse_problem(&text).expect("the largest k is accepted");
    let err = parse_err(&VALID.replace("k=1", "k=4294967295"));
    assert_eq!(err.kind, ErrorKind::InvalidValue, "{err}");
    assert!(err.message.contains("4294967295"), "{err}");
}

#[test]
fn rejects_duplicate_node_ids() {
    let err = parse_err("architecture A B A\n");
    assert_eq!(err.kind, ErrorKind::Duplicate);
    assert!(err.message.contains('A'), "{err}");
}

#[test]
fn rejects_a_repeated_architecture_line() {
    // One `architecture` line per file: a second is a duplicate, never
    // a replacement that leaves the first line's node names behind.
    for wcet in ["wcet x B 20ms\nwcet x B 20ms\n", "wcet x B 20ms\n"] {
        let text = format!(
            "architecture A B\narchitecture C\nfault_model k=1 mu=5ms\n\
             graph period=500ms\nprocess x\n{wcet}"
        );
        let err = parse_problem(&text).expect_err(&text);
        assert_eq!(err.kind, ErrorKind::Duplicate, "{text}{err}");
        assert_eq!(err.line, 2, "points at the second line: {err}");
        assert!(err.message.contains("architecture"), "{err}");
    }
}

#[test]
fn rejects_duplicate_process_ids() {
    let text = "
architecture A
fault_model k=0 mu=1ms
graph period=10ms
process x
process x
";
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Duplicate);
    assert_eq!(err.line, 6, "points at the second declaration");
}

#[test]
fn rejects_a_repeated_wcet_pair() {
    // One WCET per (process, node) pair: a second line for a pair, by
    // name or through `*`, is a duplicate, never an override.
    let head =
        "architecture N1 N2\nfault_model k=1 mu=10ms\ngraph period=100ms\nprocess x\nprocess y\n";
    for (wcet, line, process, node) in [
        (
            "wcet x * 20ms\nwcet y N1 10ms\nwcet y N1 90ms\n",
            8,
            "y",
            "N1",
        ),
        (
            "wcet x * 20ms\nwcet x N1 30ms\nwcet y * 10ms\n",
            7,
            "x",
            "N1",
        ),
        (
            "wcet x N2 30ms\nwcet x * 20ms\nwcet y * 10ms\n",
            7,
            "x",
            "N2",
        ),
    ] {
        let text = format!("{head}{wcet}");
        let err = parse_problem(&text).expect_err(&text);
        assert_eq!(err.kind, ErrorKind::Duplicate, "{text}{err}");
        assert_eq!(err.line, line, "points at the second line: {err}");
        assert!(
            err.message
                .contains(&format!("process {process:?} on node {node:?}")),
            "names the pair: {err}"
        );
    }
}

#[test]
fn rejects_a_repeated_fix_line() {
    // One `fix_mapping` and one `fix_policy` line per process: a
    // second is a duplicate, never an override. VALID ends at line 9.
    for (fix, directive) in [
        (
            "fix_mapping x A\nfix_mapping y B\nfix_mapping x B\n",
            "fix_mapping",
        ),
        (
            "fix_policy x reexecution\nfix_mapping x A\nfix_policy x replication\n",
            "fix_policy",
        ),
    ] {
        let text = format!("{VALID}{fix}");
        let err = parse_problem(&text).expect_err(&text);
        assert_eq!(err.kind, ErrorKind::Duplicate, "{text}{err}");
        assert_eq!(err.line, 12, "points at the second line: {err}");
        assert!(
            err.message
                .contains(&format!("duplicate {directive} for process \"x\"")),
            "names the directive and the process: {err}"
        );
        assert!(err.message.contains("line 10"), "names the first: {err}");
    }
}

#[test]
fn rejects_ambiguous_cross_graph_references() {
    let text = "
architecture A
fault_model k=0 mu=1ms
graph period=10ms
process x
graph period=20ms
process x
wcet x * 1ms
";
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Duplicate);
    assert!(err.message.contains("ambiguous"), "{err}");
}

#[test]
fn rejects_edges_referencing_unknown_processes() {
    for edge in ["edge x ghost", "edge ghost y"] {
        let text = format!("{VALID}{edge}\n");
        let err = parse_err(&text);
        assert_eq!(err.kind, ErrorKind::UnknownReference, "{edge}: {err}");
        assert!(err.message.contains("ghost"), "{err}");
    }
}

#[test]
fn rejects_wcet_and_constraints_on_unknown_names() {
    for line in [
        "wcet ghost * 1ms",
        "wcet x GhostNode 1ms",
        "fix_mapping ghost A",
        "fix_mapping x GhostNode",
        "fix_policy ghost replication",
        "bus order=A,GhostNode",
    ] {
        let text = format!("{VALID}{line}\n");
        let err = parse_err(&text);
        assert_eq!(err.kind, ErrorKind::UnknownReference, "{line}: {err}");
    }
}

#[test]
fn rejects_unmappable_processes_at_conversion() {
    // `y` never gets a WCET entry: the file parses line-by-line but
    // the assembled model is rejected instead of panicking later in
    // the solver.
    let text = "
architecture A
fault_model k=0 mu=1ms
graph period=10ms
process x
process y
wcet x * 1ms
";
    let spec = parse_problem(text).expect("parses line-by-line");
    let err = spec.into_problem().unwrap_err();
    assert_eq!(err.kind, ErrorKind::Structure);
    assert!(err.message.contains("\"y\""), "{err}");
}

#[test]
fn rejects_cyclic_graphs_at_conversion() {
    let text = "
architecture A
fault_model k=0 mu=1ms
graph period=10ms
process x
process y
edge x y
edge y x
wcet x * 1ms
wcet y * 1ms
";
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Structure, "{err}");
}

#[test]
fn rejects_a_worst_case_horizon_past_the_budget() {
    // Each WCET fits in u64 microseconds, but three executions of it
    // (k = 2) do not: the worst case would wrap `Time`.
    let text = "
architecture A
fault_model k=2 mu=10ms
graph period=100ms
process x
wcet x * 9200000000000000ms
";
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Overflow, "{err}");
    assert_eq!(err.line, 0, "{err}");
    assert!(
        err.message
            .contains("worst-case schedule horizon overflows"),
        "{err}"
    );
}

#[test]
fn rejects_an_unrepresentable_hyperperiod() {
    // Coprime periods: the LCM, ~2.5·10²² µs, does not fit in u64.
    let text = "
architecture A
fault_model k=1 mu=1ms
graph period=5000000029ms
process x
graph period=5000000039ms
process y
wcet x * 1ms
wcet y * 1ms
";
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Overflow, "{err}");
    assert_eq!(err.line, 0, "{err}");
    assert!(err.message.contains("hyperperiod"), "{err}");
}

#[test]
fn rejects_a_merged_graph_past_the_process_cap() {
    // The ~10⁹ ms hyperperiod is representable, but it instantiates
    // the 1 ms graph ~10⁹ times: refused before the merge allocates.
    let text = "
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
    let err = parse_err(text);
    assert_eq!(err.kind, ErrorKind::Overflow, "{err}");
    assert_eq!(err.line, 0, "{err}");
    let limit = ftdes_model::merge::MAX_MERGED_PROCESSES;
    assert!(
        err.message
            .contains(&format!("builds more than {limit} processes")),
        "{err}"
    );
}

/// A file of `graphs` on 65,536 nodes: 2¹⁶ nodes times 16 processes
/// is the process-node cap, 2²⁰.
fn wide_file(graphs: &str) -> String {
    let nodes: Vec<String> = (0..1 << 16).map(|i| format!("N{i}")).collect();
    format!(
        "architecture {}\nfault_model k=1 mu=1ms\nbus slot_bytes=4 byte_time=1us\n{graphs}",
        nodes.join(" ")
    )
}

/// `n` one-process graphs `g<i>` of period 100 ms, each with a WCET on
/// `wcet_node` (`*` fills a row of every node).
fn processes(n: usize, wcet_node: &str) -> String {
    (0..n)
        .map(|i| format!("graph period=100ms\nprocess g{i}\nwcet g{i} {wcet_node} 1us\n"))
        .collect()
}

#[test]
fn rejects_process_node_pairs_past_the_cap() {
    let cap = ftdes_core::problem::MAX_PROCESS_NODE_PAIRS;
    assert_eq!(cap, 16 << 16);
    let (problem, _) = parse_problem(&wide_file(&processes(16, "N0")))
        .and_then(ftdes_io::ProblemSpec::into_problem)
        .expect("16 processes on 2^16 nodes fit the cap");
    assert_eq!(problem.process_count() * problem.arch().node_count(), cap);

    // One process more is refused before its `*` row is expanded.
    let err = parse_err(&wide_file(&processes(17, "*")));
    // Two source processes that merge to 17 (periods 1 ms and 16 ms)
    // are refused before the dense WCET matrix is built.
    let merged = parse_err(&wide_file(
        "graph period=1ms\nprocess a\ngraph period=16ms\nprocess b\nwcet a N0 1us\nwcet b N0 1us\n",
    ));
    for err in [err, merged] {
        assert_eq!(err.kind, ErrorKind::Overflow, "{err}");
        assert_eq!(err.line, 0, "{err}");
        assert!(
            err.message.contains(&format!(
                "17 processes on 65536 nodes exceed the cap of {cap} process-node pairs"
            )),
            "{err}"
        );
    }
}

#[test]
fn rejects_syntax_garbage() {
    for text in [
        "flux_capacitor on",
        "architecture A\nfault_model k=1\n",
        "architecture A\nfault_model mu=1ms\n",
        "architecture A\nfault_model k=1 mu=1ms warp=9\n",
        "architecture\n",
        "process orphan\n",
        "architecture A\nfault_model k=0 mu=1ms\ngraph\n",
        "architecture A\nfault_model k=0 mu=1ms\ngraph period=10ms\nwcet\n",
    ] {
        let err = parse_err(text);
        assert_eq!(err.kind, ErrorKind::Syntax, "{text:?}: {err}");
    }
}

#[test]
fn unknown_policy_is_an_invalid_value() {
    let text = format!("{VALID}fix_policy x voodoo\n");
    let err = parse_err(&text);
    assert_eq!(err.kind, ErrorKind::InvalidValue);
    assert!(err.message.contains("voodoo"), "{err}");
}

#[test]
fn errors_carry_the_offending_line() {
    let err = parse_err("architecture A\nfault_model k=1 mu=bogus\n");
    assert_eq!(err.line, 2);
    assert!(err.to_string().starts_with("line 2:"), "{err}");
}

// ---------------------------------------------------------------
// Sweep-spec parser: the same contract, the same taxonomy. Hostile
// sweep specs come back as structured `ParseSweepError`s — never a
// panic, never a silently defaulted knob.
// ---------------------------------------------------------------

use ftdes_io::sweep::{parse_sweep, ParseSweepError};

fn sweep_err(text: &str) -> ParseSweepError {
    match parse_sweep(text) {
        Err(e) => e,
        Ok(spec) => panic!("malformed sweep spec accepted as {spec:?}:\n{text}"),
    }
}

#[test]
fn sweep_accepts_the_valid_baselines() {
    parse_sweep("sweep chi\n").expect("bare chi header");
    parse_sweep("sweep repair\nseeds 2\nmax_iterations 10\n").expect("repair overrides");
}

#[test]
fn sweep_rejects_missing_or_garbled_headers() {
    for text in [
        "",
        "# only comments\n",
        "processes 6\n",
        "sweep\n",
        "sweep chi repair\n",
        "sweep chi\nprocesses\n",
        "sweep chi\nprocesses 1 2\n",
        "sweep chi\nwarp_factor 9\n",
    ] {
        let err = sweep_err(text);
        assert_eq!(err.kind, ErrorKind::Syntax, "{text:?}: {err}");
    }
}

#[test]
fn sweep_rejects_bad_values() {
    for text in [
        "sweep warp\n",
        "sweep chi\nseeds -1\n",
        "sweep chi\nseeds 1.5\n",
        "sweep chi\nprocesses many\n",
        "sweep chi\nchi_permille 10 x 30\n",
    ] {
        let err = sweep_err(text);
        assert_eq!(err.kind, ErrorKind::InvalidValue, "{text:?}: {err}");
    }
}

#[test]
fn sweep_distinguishes_overflow_from_noise() {
    let err = sweep_err("sweep chi\nseeds 99999999999999999999999\n");
    assert_eq!(err.kind, ErrorKind::Overflow, "{err}");
    assert_eq!(err.line, 2);
    assert!(err.message.contains("overflows"), "{err}");
}

#[test]
fn sweep_rejects_duplicate_keys() {
    let err = sweep_err("sweep chi\nseeds 1\nnodes 2\nseeds 3\n");
    assert_eq!(err.kind, ErrorKind::Duplicate, "{err}");
    assert_eq!(err.line, 4);
}

#[test]
fn sweep_rejects_cross_kind_keys_as_unknown_references() {
    let err = sweep_err("sweep repair\nchi_permille 10\n");
    assert_eq!(err.kind, ErrorKind::UnknownReference, "{err}");
    let err = sweep_err("sweep chi\ncomm_processes 12\n");
    assert_eq!(err.kind, ErrorKind::UnknownReference, "{err}");
    assert!(
        err.message.contains("repair"),
        "names the right kind: {err}"
    );
}

#[test]
fn sweep_rejects_degenerate_specs_as_structure_errors() {
    for text in [
        "sweep chi\nseeds 0\n",
        "sweep chi\nprocesses 0\n",
        "sweep chi\nmax_iterations 0\n",
        "sweep chi\nmax_checkpoints 0\n",
        "sweep repair\nnodes 0\n",
    ] {
        let err = sweep_err(text);
        assert_eq!(err.kind, ErrorKind::Structure, "{text:?}: {err}");
    }
}

#[test]
fn sweep_errors_carry_the_offending_line() {
    let err = sweep_err("sweep chi\n\n# pad\nnodes zero\n");
    assert_eq!(err.line, 4);
    assert!(err.to_string().starts_with("line 4:"), "{err}");
}
