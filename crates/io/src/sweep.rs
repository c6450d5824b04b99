//! Sweep-specification parsing for `ftdes sweep`.
//!
//! A sweep spec is a small line-oriented text file selecting one of
//! the predefined experiment sweeps (`ftdes_bench::jobs`: the paper's
//! overhead tables, the χ trade-off and the node-kill repair study)
//! and overriding its knobs. Grammar:
//!
//! ```text
//! # comment
//! sweep overhead | chi | repair   (required header, first content line)
//! <key> <value>                   (one knob per line, any order)
//! <list key> <value> <value> ...  (one or more values)
//! ```
//!
//! Keys for `sweep overhead`: the list keys `processes`, `nodes`,
//! `faults` and `mu_ms`, zipped into rows (a list of one value
//! applies to every row; two lists of more than one value must have
//! the same length); `seeds`, `max_iterations`, `reference` (one
//! strategy, default `nft`) and `strategies` (a list, default `mxr`).
//! Strategies are spelled `mxr`, `mx`, `mr`, `sfx` or `nft`.
//!
//! Keys for `sweep chi`: `processes`, `nodes`, `faults`, `mu_ms`,
//! `seeds`, `chi_permille` (a list), `max_checkpoints`,
//! `max_iterations`, `faultsim_samples`.
//!
//! Keys for `sweep repair`: `processes`, `comm_processes`, `nodes`,
//! `faults`, `mu_ms`, `seeds`, `max_iterations`.
//!
//! Every key is optional — omitted knobs take the defaults below
//! (`default_overhead` / `default_chi` / `default_repair`). Every
//! other value is an unsigned integer. `crates/bench/sweeps/` holds
//! the committed specs: the paper's Table 1a–c and Fig. 10, and the
//! χ and repair sweeps CI publishes as `BENCH_cptable.json` and
//! `BENCH_repair.json`.
//!
//! Malformed input comes back as a structured [`ParseSweepError`]
//! carrying the same [`ErrorKind`] taxonomy as the problem-file
//! parser — never a panic, never a silently defaulted knob:
//!
//! * unknown key / missing value / missing header — [`ErrorKind::Syntax`],
//! * a value that does not parse as an unsigned integer or a
//!   strategy — [`ErrorKind::InvalidValue`],
//! * a value that parses but overflows `u64` — [`ErrorKind::Overflow`],
//! * the same key given twice — [`ErrorKind::Duplicate`],
//! * a key that exists but belongs to *another* sweep kind —
//!   [`ErrorKind::UnknownReference`],
//! * a spec that parses line-by-line but fails
//!   [`SweepSpec::validate`] (mismatched lists, a value past its
//!   documented maximum, a time that overflows in microseconds, too
//!   many jobs) — [`ErrorKind::Structure`].
//!
//! # Examples
//!
//! ```
//! use ftdes_io::sweep::parse_sweep;
//!
//! let spec = parse_sweep(
//!     "# Table 1b, in small\n\
//!      sweep overhead\n\
//!      processes 6\n\
//!      nodes 2\n\
//!      faults 1 2 3\n\
//!      seeds 1\n",
//! )?;
//! assert_eq!(spec.name(), "overhead");
//! // Per row: one generate and one optimize each for NFT and MXR;
//! // plus the aggregate.
//! assert_eq!(spec.jobs().len(), 3 * 3 + 1);
//! # Ok::<(), ftdes_io::sweep::ParseSweepError>(())
//! ```

use std::error::Error;
use std::fmt;

use ftdes_bench::jobs::{parse_strategy, ChiSweep, OverheadSweep, RepairSweep, SweepSpec};
use ftdes_core::Strategy;

use crate::error::ErrorKind;

/// A sweep-spec parse error with its line number and classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSweepError {
    /// 1-based line where the error occurred (0 = whole file).
    pub line: usize,
    /// Why the input was rejected.
    pub kind: ErrorKind,
    /// What went wrong.
    pub message: String,
}

impl ParseSweepError {
    fn new(line: usize, kind: ErrorKind, message: impl Into<String>) -> Self {
        ParseSweepError {
            line,
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseSweepError {}

/// The `sweep overhead` defaults: one row of 20 processes on 2 nodes
/// with k = 3 and µ = 5 ms (Table 1a's first row), five seeds, and
/// MXR measured against NFT, as Table 1 is.
fn default_overhead() -> OverheadSweep {
    OverheadSweep {
        processes: vec![20],
        nodes: vec![2],
        faults: vec![3],
        mu_ms: vec![5],
        seeds: 5,
        max_iterations: 1_000,
        reference: Strategy::Nft,
        strategies: vec![Strategy::Mxr],
    }
}

/// The `sweep chi` defaults: the paper family at 24 processes on 4
/// nodes with k = 2, six χ rows from 1 % to 50 % of the mean WCET,
/// and a checkpoint axis of up to 4 segments for the MCX/MCXR cells.
fn default_chi() -> ChiSweep {
    ChiSweep {
        processes: 24,
        nodes: 4,
        faults: 2,
        mu_ms: 5,
        seeds: 3,
        chi_permille: vec![10, 20, 50, 100, 250, 500],
        max_checkpoints: 4,
        max_iterations: 4_000,
        faultsim_samples: 100,
    }
}

/// The `sweep repair` defaults: per seed, a 15-process paper
/// application and a 12-process communication-heavy one, each on 4
/// nodes with k = 1.
fn default_repair() -> RepairSweep {
    RepairSweep {
        processes: 15,
        comm_processes: 12,
        nodes: 4,
        faults: 1,
        mu_ms: 5,
        seeds: 3,
        max_iterations: 10_000,
    }
}

/// Each sweep kind and its keys.
const KINDS: [(&str, &str); 3] = [
    (
        "overhead",
        "processes nodes faults mu_ms seeds max_iterations reference strategies",
    ),
    (
        "chi",
        "processes nodes faults mu_ms seeds chi_permille max_checkpoints max_iterations \
         faultsim_samples",
    ),
    (
        "repair",
        "processes comm_processes nodes faults mu_ms seeds max_iterations",
    ),
];

/// Parses `text` as a sweep specification.
///
/// # Errors
///
/// A [`ParseSweepError`] with the offending line and an
/// [`ErrorKind`] classification (see the module docs for the
/// taxonomy).
pub fn parse_sweep(text: &str) -> Result<SweepSpec, ParseSweepError> {
    let mut lines = content_lines(text);
    let Some((header_no, header)) = lines.next() else {
        return Err(ParseSweepError::new(
            0,
            ErrorKind::Syntax,
            "empty spec: expected a `sweep overhead|chi|repair` header",
        ));
    };
    let mut header_tokens = header.split_whitespace();
    if header_tokens.next() != Some("sweep") {
        return Err(ParseSweepError::new(
            header_no,
            ErrorKind::Syntax,
            format!("expected `sweep overhead|chi|repair` header, found {header:?}"),
        ));
    }
    let kind = header_tokens.next().ok_or_else(|| {
        ParseSweepError::new(header_no, ErrorKind::Syntax, "`sweep` needs a kind")
    })?;
    if header_tokens.next().is_some() {
        return Err(ParseSweepError::new(
            header_no,
            ErrorKind::Syntax,
            "`sweep` takes exactly one kind",
        ));
    }
    let mut spec = match kind {
        "overhead" => SweepSpec::Overhead(default_overhead()),
        "chi" => SweepSpec::Chi(default_chi()),
        "repair" => SweepSpec::Repair(default_repair()),
        other => {
            return Err(ParseSweepError::new(
                header_no,
                ErrorKind::InvalidValue,
                format!("unknown sweep kind {other:?} (overhead | chi | repair)"),
            ))
        }
    };

    let mut seen: Vec<String> = Vec::new();
    for (no, line) in lines {
        let mut tokens = line.split_whitespace();
        let Some(key) = tokens.next() else { continue };
        let values: Vec<&str> = tokens.collect();
        check_key(spec.name(), key, no)?;
        if seen.iter().any(|s| s == key) {
            return Err(ParseSweepError::new(
                no,
                ErrorKind::Duplicate,
                format!("key {key:?} given twice"),
            ));
        }
        seen.push(key.to_owned());
        apply_key(&mut spec, key, &values, no)?;
    }

    spec.validate()
        .map_err(|message| ParseSweepError::new(0, ErrorKind::Structure, message))?;
    Ok(spec)
}

/// Numbered non-blank, non-comment lines.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// Rejects keys the spec kind does not have, distinguishing "belongs
/// to another sweep kind" from "no sweep has this".
fn check_key(kind: &str, key: &str, no: usize) -> Result<(), ParseSweepError> {
    let has_key = |keys: &str| keys.split_whitespace().any(|k| k == key);
    let own = KINDS
        .iter()
        .find(|(name, _)| *name == kind)
        .map_or("", |k| k.1);
    if has_key(own) {
        return Ok(());
    }
    let others: Vec<String> = KINDS
        .iter()
        .filter(|(_, keys)| has_key(keys))
        .map(|(name, _)| format!("`sweep {name}`"))
        .collect();
    if !others.is_empty() {
        return Err(ParseSweepError::new(
            no,
            ErrorKind::UnknownReference,
            format!("key {key:?} only applies to {}", others.join(" or ")),
        ));
    }
    Err(ParseSweepError::new(
        no,
        ErrorKind::Syntax,
        format!("unknown key {key:?} (expected one of: {own})"),
    ))
}

fn apply_key(
    spec: &mut SweepSpec,
    key: &str,
    values: &[&str],
    no: usize,
) -> Result<(), ParseSweepError> {
    let slot = match spec {
        SweepSpec::Overhead(s) => match key {
            "processes" => return set_list(&mut s.processes, key, values, no),
            "nodes" => return set_list(&mut s.nodes, key, values, no),
            "faults" => return set_list(&mut s.faults, key, values, no),
            "mu_ms" => return set_list(&mut s.mu_ms, key, values, no),
            "strategies" => {
                s.strategies = list(key, values, no)?
                    .iter()
                    .map(|v| strategy(v, key, no))
                    .collect::<Result<_, _>>()?;
                return Ok(());
            }
            "reference" => {
                s.reference = strategy(one(key, values, no)?, key, no)?;
                return Ok(());
            }
            "seeds" => &mut s.seeds,
            "max_iterations" => &mut s.max_iterations,
            _ => unreachable!("check_key admits only known keys"),
        },
        SweepSpec::Chi(s) => match key {
            "chi_permille" => return set_list(&mut s.chi_permille, key, values, no),
            "processes" => &mut s.processes,
            "nodes" => &mut s.nodes,
            "faults" => &mut s.faults,
            "mu_ms" => &mut s.mu_ms,
            "seeds" => &mut s.seeds,
            "max_checkpoints" => &mut s.max_checkpoints,
            "max_iterations" => &mut s.max_iterations,
            "faultsim_samples" => &mut s.faultsim_samples,
            _ => unreachable!("check_key admits only known keys"),
        },
        SweepSpec::Repair(s) => match key {
            "processes" => &mut s.processes,
            "comm_processes" => &mut s.comm_processes,
            "nodes" => &mut s.nodes,
            "faults" => &mut s.faults,
            "mu_ms" => &mut s.mu_ms,
            "seeds" => &mut s.seeds,
            "max_iterations" => &mut s.max_iterations,
            _ => unreachable!("check_key admits only known keys"),
        },
    };
    *slot = parse_u64(one(key, values, no)?, key, no)?;
    Ok(())
}

/// The values of a list key: one or more.
fn list<'v>(key: &str, values: &'v [&'v str], no: usize) -> Result<&'v [&'v str], ParseSweepError> {
    if values.is_empty() {
        return Err(ParseSweepError::new(
            no,
            ErrorKind::Syntax,
            format!("{key} needs at least one value"),
        ));
    }
    Ok(values)
}

/// The value of a single-valued key.
fn one<'v>(key: &str, values: &[&'v str], no: usize) -> Result<&'v str, ParseSweepError> {
    let &[value] = values else {
        return Err(ParseSweepError::new(
            no,
            ErrorKind::Syntax,
            format!("key {key:?} expects exactly one value"),
        ));
    };
    Ok(value)
}

/// Parses an integer list key into `slot`.
fn set_list(
    slot: &mut Vec<u64>,
    key: &str,
    values: &[&str],
    no: usize,
) -> Result<(), ParseSweepError> {
    *slot = list(key, values, no)?
        .iter()
        .map(|v| parse_u64(v, key, no))
        .collect::<Result<_, _>>()?;
    Ok(())
}

fn strategy(token: &str, key: &str, no: usize) -> Result<Strategy, ParseSweepError> {
    parse_strategy(token)
        .map_err(|e| ParseSweepError::new(no, ErrorKind::InvalidValue, format!("{key}: {e}")))
}

/// `u64` with the Overflow/InvalidValue distinction: a pure digit
/// string that fails to parse can only have overflowed.
fn parse_u64(token: &str, key: &str, no: usize) -> Result<u64, ParseSweepError> {
    token.parse::<u64>().map_err(|_| {
        if !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit()) {
            ParseSweepError::new(
                no,
                ErrorKind::Overflow,
                format!("{key}: value {token:?} overflows u64"),
            )
        } else {
            ParseSweepError::new(
                no,
                ErrorKind::InvalidValue,
                format!("{key}: expected an unsigned integer, found {token:?}"),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_omitted_keys() {
        let spec = parse_sweep("sweep chi\n").expect("bare header parses");
        assert_eq!(spec, SweepSpec::Chi(default_chi()));
        let spec = parse_sweep("sweep repair\nseeds 1\n").expect("override parses");
        let SweepSpec::Repair(s) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(s.seeds, 1);
        assert_eq!(s.processes, default_repair().processes);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = parse_sweep("\n# a χ sweep\n\nsweep chi\n  # indented comment\nseeds 2\n")
            .expect("parses");
        let SweepSpec::Chi(s) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(s.seeds, 2);
    }

    #[test]
    fn chi_permille_takes_a_list() {
        let spec = parse_sweep("sweep chi\nchi_permille 10 250 500\n").expect("parses");
        let SweepSpec::Chi(s) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(s.chi_permille, vec![10, 250, 500]);
    }

    #[test]
    fn overhead_list_keys_zip_and_broadcast() {
        let spec = parse_sweep(
            "sweep overhead\n\
             processes 20 40 60\n\
             nodes 4\n\
             faults 1 2 3\n\
             reference mxr\n\
             strategies mr sfx mx\n",
        )
        .expect("parses");
        let SweepSpec::Overhead(s) = &spec else {
            panic!("wrong kind")
        };
        assert_eq!(s.processes, vec![20, 40, 60]);
        assert_eq!(s.nodes, vec![4]);
        assert_eq!(s.mu_ms, default_overhead().mu_ms);
        assert_eq!(s.reference, Strategy::Mxr);
        assert_eq!(
            s.strategies,
            vec![Strategy::Mr, Strategy::Sfx, Strategy::Mx]
        );
        let rows: Vec<[u64; 4]> = s
            .rows()
            .iter()
            .map(|r| [r.processes, r.nodes, r.faults, r.mu_ms])
            .collect();
        assert_eq!(rows, [[20, 4, 1, 5], [40, 4, 2, 5], [60, 4, 3, 5]]);
        // Per row and seed: generate + four optimizes; plus the
        // aggregate.
        assert_eq!(spec.jobs().len(), 3 * 5 * 5 + 1);
    }

    #[test]
    fn overhead_values_are_checked() {
        for (text, line, kind) in [
            ("sweep overhead\nstrategies\n", 2, ErrorKind::Syntax),
            (
                "sweep overhead\nstrategies mxr mcx\n",
                2,
                ErrorKind::InvalidValue,
            ),
            ("sweep overhead\nreference nft mxr\n", 2, ErrorKind::Syntax),
            ("sweep overhead\nseeds 1 2\n", 2, ErrorKind::Syntax),
            ("sweep overhead\nfaults 1 x\n", 2, ErrorKind::InvalidValue),
            // Validation: lists of different lengths.
            (
                "sweep overhead\nprocesses 20 40\nfaults 1 2 3\n",
                0,
                ErrorKind::Structure,
            ),
            // Cross-kind keys, both ways.
            (
                "sweep overhead\nchi_permille 10\n",
                2,
                ErrorKind::UnknownReference,
            ),
            ("sweep chi\nstrategies mx\n", 2, ErrorKind::UnknownReference),
            (
                "sweep repair\nreference nft\n",
                2,
                ErrorKind::UnknownReference,
            ),
        ] {
            let err = parse_sweep(text).expect_err(text);
            assert_eq!((err.line, err.kind), (line, kind), "{text}: {err}");
        }
    }

    #[test]
    fn committed_specs_parse_and_expand() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/sweeps");
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("crates/bench/sweeps exists") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "sweep") {
                let text = std::fs::read_to_string(&path).expect("readable spec");
                let spec = parse_sweep(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                assert!(spec.jobs().len() > 1, "{path:?}");
                names.push(path.file_stem().expect("a file name").to_owned());
            }
        }
        names.sort();
        let expected = ["chi", "fig10", "repair", "table1a", "table1b", "table1c"];
        assert_eq!(names, expected.map(std::ffi::OsString::from));
    }

    #[test]
    fn errors_carry_lines_and_kinds() {
        let err = parse_sweep("").expect_err("empty rejected");
        assert_eq!((err.line, err.kind), (0, ErrorKind::Syntax));
        let err = parse_sweep("sweep chi\nseeds 1\nseeds 2\n").expect_err("dup rejected");
        assert_eq!((err.line, err.kind), (3, ErrorKind::Duplicate));
        let err = parse_sweep("sweep repair\nfaultsim_samples 9\n").expect_err("cross-kind");
        assert_eq!((err.line, err.kind), (2, ErrorKind::UnknownReference));
    }
}
