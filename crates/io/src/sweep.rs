//! Sweep-specification parsing for `ftdes sweep`.
//!
//! A sweep spec is a small line-oriented text file selecting one of
//! the predefined experiment sweeps (`ftdes_bench::jobs`: the χ
//! trade-off and the node-kill repair study) and overriding its
//! knobs. Grammar:
//!
//! ```text
//! # comment
//! sweep chi | repair          (required header, first content line)
//! <key> <value>               (one knob per line, any order)
//! chi_permille 10 20 50       (the one list-valued key; chi only)
//! ```
//!
//! Keys for `sweep chi`: `processes`, `nodes`, `faults`, `mu_ms`,
//! `seeds`, `chi_permille` (one or more values), `max_checkpoints`,
//! `max_iterations`, `faultsim_samples`.
//!
//! Keys for `sweep repair`: `processes`, `comm_processes`, `nodes`,
//! `faults`, `mu_ms`, `seeds`, `max_iterations`.
//!
//! Every key is optional — omitted knobs take the defaults below
//! (`default_chi` / `default_repair`). All values are unsigned
//! integers. CI runs both sweeps with `max_iterations 300`, the χ
//! sweep at `seeds 2`, and publishes their `--out` files as
//! `BENCH_cptable.json` and `BENCH_repair.json`.
//!
//! Malformed input comes back as a structured [`ParseSweepError`]
//! carrying the same [`ErrorKind`] taxonomy as the problem-file
//! parser — never a panic, never a silently defaulted knob:
//!
//! * unknown key / missing value / missing header — [`ErrorKind::Syntax`],
//! * a value that does not parse as an unsigned integer —
//!   [`ErrorKind::InvalidValue`],
//! * a value that parses but overflows `u64` — [`ErrorKind::Overflow`],
//! * the same key given twice — [`ErrorKind::Duplicate`],
//! * a key that exists but belongs to the *other* sweep kind —
//!   [`ErrorKind::UnknownReference`],
//! * a spec that parses line-by-line but fails
//!   [`SweepSpec::validate`] — [`ErrorKind::Structure`].
//!
//! # Examples
//!
//! ```
//! use ftdes_io::sweep::parse_sweep;
//!
//! let spec = parse_sweep(
//!     "# tiny χ sweep\n\
//!      sweep chi\n\
//!      processes 6\n\
//!      seeds 1\n\
//!      chi_permille 50 100\n",
//! )?;
//! assert_eq!(spec.name(), "chi");
//! assert!(!spec.jobs().is_empty());
//! # Ok::<(), ftdes_io::sweep::ParseSweepError>(())
//! ```

use std::error::Error;
use std::fmt;

use ftdes_bench::jobs::{ChiSweep, RepairSweep, SweepSpec};

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

const CHI_KEYS: &[&str] = &[
    "processes",
    "nodes",
    "faults",
    "mu_ms",
    "seeds",
    "chi_permille",
    "max_checkpoints",
    "max_iterations",
    "faultsim_samples",
];

const REPAIR_KEYS: &[&str] = &[
    "processes",
    "comm_processes",
    "nodes",
    "faults",
    "mu_ms",
    "seeds",
    "max_iterations",
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
            "empty spec: expected a `sweep chi|repair` header",
        ));
    };
    let mut header_tokens = header.split_whitespace();
    if header_tokens.next() != Some("sweep") {
        return Err(ParseSweepError::new(
            header_no,
            ErrorKind::Syntax,
            format!("expected `sweep chi|repair` header, found {header:?}"),
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
        "chi" => SweepSpec::Chi(default_chi()),
        "repair" => SweepSpec::Repair(default_repair()),
        other => {
            return Err(ParseSweepError::new(
                header_no,
                ErrorKind::InvalidValue,
                format!("unknown sweep kind {other:?} (chi | repair)"),
            ))
        }
    };

    let mut seen: Vec<String> = Vec::new();
    for (no, line) in lines {
        let mut tokens = line.split_whitespace();
        let Some(key) = tokens.next() else { continue };
        let values: Vec<&str> = tokens.collect();
        check_key(&spec, key, no)?;
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
/// to the other sweep kind" from "no sweep has this".
fn check_key(spec: &SweepSpec, key: &str, no: usize) -> Result<(), ParseSweepError> {
    let (own, other, other_name) = match spec {
        SweepSpec::Chi(_) => (CHI_KEYS, REPAIR_KEYS, "repair"),
        SweepSpec::Repair(_) => (REPAIR_KEYS, CHI_KEYS, "chi"),
    };
    if own.contains(&key) {
        return Ok(());
    }
    if other.contains(&key) {
        return Err(ParseSweepError::new(
            no,
            ErrorKind::UnknownReference,
            format!("key {key:?} only applies to `sweep {other_name}`"),
        ));
    }
    Err(ParseSweepError::new(
        no,
        ErrorKind::Syntax,
        format!("unknown key {key:?} (expected one of: {})", own.join(", ")),
    ))
}

fn apply_key(
    spec: &mut SweepSpec,
    key: &str,
    values: &[&str],
    no: usize,
) -> Result<(), ParseSweepError> {
    // The one list-valued key.
    if key == "chi_permille" {
        if values.is_empty() {
            return Err(ParseSweepError::new(
                no,
                ErrorKind::Syntax,
                "chi_permille needs at least one value",
            ));
        }
        let rows = values
            .iter()
            .map(|v| parse_u64(v, key, no))
            .collect::<Result<Vec<u64>, ParseSweepError>>()?;
        if let SweepSpec::Chi(s) = spec {
            s.chi_permille = rows;
        }
        return Ok(());
    }
    let [value] = values else {
        return Err(ParseSweepError::new(
            no,
            ErrorKind::Syntax,
            format!("key {key:?} expects exactly one value"),
        ));
    };
    let v = parse_u64(value, key, no)?;
    let slot = match spec {
        SweepSpec::Chi(s) => match key {
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
    *slot = v;
    Ok(())
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
    fn errors_carry_lines_and_kinds() {
        let err = parse_sweep("").expect_err("empty rejected");
        assert_eq!((err.line, err.kind), (0, ErrorKind::Syntax));
        let err = parse_sweep("sweep chi\nseeds 1\nseeds 2\n").expect_err("dup rejected");
        assert_eq!((err.line, err.kind), (3, ErrorKind::Duplicate));
        let err = parse_sweep("sweep repair\nfaultsim_samples 9\n").expect_err("cross-kind");
        assert_eq!((err.line, err.kind), (2, ErrorKind::UnknownReference));
    }
}
