//! The one error type of the problem-file and sweep-spec parsers.

use std::error::Error;
use std::fmt;

/// Coarse classification of a parse failure, so callers (and the
/// malformed-input test matrix) can assert on *why* a file was
/// rejected without string-matching the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Malformed line shape: unknown directive/key, missing tokens.
    Syntax,
    /// A value that does not parse or is out of range (bad time,
    /// negative/non-finite number where an unsigned value is needed).
    InvalidValue,
    /// A numeric value that parses but overflows its representation.
    Overflow,
    /// A node or process declared twice.
    Duplicate,
    /// A reference to a node or process that was never declared.
    UnknownReference,
    /// The file parses line-by-line but the assembled model is
    /// invalid (cyclic graph, unmappable process, bad bus order).
    Structure,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorKind::Syntax => "syntax",
            ErrorKind::InvalidValue => "invalid value",
            ErrorKind::Overflow => "overflow",
            ErrorKind::Duplicate => "duplicate",
            ErrorKind::UnknownReference => "unknown reference",
            ErrorKind::Structure => "structure",
        })
    }
}

/// A parse error with its line number and classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the error occurred (0 = end of input, or the
    /// whole file or spec).
    pub line: usize,
    /// Why the input was rejected.
    pub kind: ErrorKind,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            kind: ErrorKind::Syntax,
            message: message.into(),
        }
    }

    pub(crate) fn with_kind(line: usize, kind: ErrorKind, message: impl Into<String>) -> Self {
        ParseError {
            line,
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carries_line_numbers() {
        let e = ParseError::new(7, "unknown directive");
        assert_eq!(e.to_string(), "line 7: unknown directive");
        assert_eq!(e.kind, ErrorKind::Syntax);
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ParseError>();
    }

    #[test]
    fn kinds_are_displayable() {
        assert_eq!(ErrorKind::Overflow.to_string(), "overflow");
        assert_eq!(
            ParseError::with_kind(2, ErrorKind::Duplicate, "dup").kind,
            ErrorKind::Duplicate
        );
    }
}
