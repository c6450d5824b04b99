//! Error types of the orchestration layer.

use std::error::Error;
use std::fmt;

/// Why a store operation failed.
///
/// Mirrors the classified-error convention of `ftdes-io`: callers
/// (and the CLI's exit-code mapping) match on the variant, never on
/// the message text.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying file operation failed.
    Io {
        /// The store path.
        path: String,
        /// The operation that failed (`open`, `append`, `sync`, ...).
        op: &'static str,
        /// The OS error message.
        message: String,
    },
    /// A newline-terminated line of the log does not parse. A torn
    /// final line (newline missing — the crash signature) is
    /// recovered silently by dropping it on replay; a complete
    /// malformed line cannot result from a crash, so it means the
    /// file was damaged after the fact.
    Corrupt {
        /// 1-based line number of the damaged event.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// The event stream itself is inconsistent (missing `Init`
    /// header, event for an unknown job, duplicate job id, dependency
    /// on a job that is never added, dependency cycle).
    Invalid {
        /// What is inconsistent.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, op, message } => {
                write!(f, "store {op} {path}: {message}")
            }
            StoreError::Corrupt { line, message } => {
                write!(f, "store corrupt at line {line}: {message}")
            }
            StoreError::Invalid { message } => write!(f, "invalid store: {message}"),
        }
    }
}

impl Error for StoreError {}

/// Why a [`drive`](crate::worker::drive) run stopped before settling
/// every job.
#[derive(Debug)]
#[non_exhaustive]
pub enum DriveError {
    /// A store append or replay failed.
    Store(StoreError),
    /// An [`Injector`](crate::crash::Injector) in
    /// [`CrashMode::Error`](crate::crash::CrashMode) fired: every
    /// worker stops exactly where a process kill would have stopped
    /// it — nothing after the fault point reaches the log.
    InjectedCrash {
        /// The registered fault point that fired.
        point: String,
    },
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Store(e) => write!(f, "{e}"),
            DriveError::InjectedCrash { point } => {
                write!(f, "injected crash at fault point {point:?}")
            }
        }
    }
}

impl Error for DriveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriveError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for DriveError {
    fn from(e: StoreError) -> Self {
        DriveError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = StoreError::Corrupt {
            line: 3,
            message: "bad json".into(),
        };
        assert_eq!(e.to_string(), "store corrupt at line 3: bad json");
        let d = DriveError::InjectedCrash {
            point: "done.before_append".into(),
        };
        assert!(d.to_string().contains("done.before_append"));
    }
}
