//! Error types for model construction and validation.

use std::error::Error;
use std::fmt;

use crate::ids::{EdgeId, GraphId, NodeId, ProcessId};

/// Errors raised while building or validating the application /
/// architecture model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A process graph contains a dependency cycle, violating the
    /// acyclicity requirement of the application model (paper §3).
    CyclicGraph {
        /// Graph that contains the cycle.
        graph: GraphId,
    },
    /// An edge references a process that does not exist in the graph.
    UnknownProcess {
        /// The dangling process reference.
        process: ProcessId,
    },
    /// A mapping or WCET entry references an unknown node.
    UnknownNode {
        /// The dangling node reference.
        node: NodeId,
    },
    /// An edge references itself (self-loop) which cannot model a
    /// data dependency.
    SelfLoop {
        /// The offending edge.
        edge: EdgeId,
        /// The process with the self-dependency.
        process: ProcessId,
    },
    /// Duplicate edge between the same pair of processes.
    DuplicateEdge {
        /// Source process.
        from: ProcessId,
        /// Destination process.
        to: ProcessId,
    },
    /// A process has no worst-case execution time on any node, making
    /// it impossible to map.
    Unmappable {
        /// The process without any eligible node.
        process: ProcessId,
    },
    /// A deadline exceeds the period of its graph, violating
    /// `DGi <= TGi` (paper §3).
    DeadlineExceedsPeriod {
        /// The offending graph.
        graph: GraphId,
    },
    /// A fault-tolerance policy is inconsistent with the fault model
    /// (e.g. more replicas than `k + 1`, or replicas on fewer distinct
    /// nodes than the replication level).
    InvalidPolicy {
        /// The process whose policy is invalid.
        process: ProcessId,
        /// Human-readable reason.
        reason: String,
    },
    /// A message is larger than the configured maximum frame size.
    MessageTooLarge {
        /// The offending edge / message.
        edge: EdgeId,
        /// The message size in bytes.
        size: u32,
        /// The maximum allowed size in bytes.
        max: u32,
    },
    /// The model is empty where content is required (no processes, no
    /// nodes, ...).
    Empty {
        /// What was empty.
        what: &'static str,
    },
    /// The hyper-period (LCM of the graph periods) does not fit in a
    /// [`crate::time::Time`]: merging the application would wrap it.
    HyperperiodOverflow,
    /// Merging the application would build a graph Γ of more than
    /// `limit` processes ([`crate::merge::MAX_MERGED_PROCESSES`]).
    MergedGraphTooLarge {
        /// The largest merged process count.
        limit: usize,
    },
    /// An activation of the graph would be released past the
    /// [`crate::time::Time`] range: its offset within the
    /// hyper-period plus a process's release overflows.
    ReleaseOverflow {
        /// The graph whose release overflows.
        graph: GraphId,
    },
    /// A [`crate::delta::ProblemDelta`] op is malformed (zero scale
    /// percent, arithmetic overflow, ...).
    InvalidDelta {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::CyclicGraph { graph } => {
                write!(f, "process graph {graph} contains a dependency cycle")
            }
            ModelError::UnknownProcess { process } => {
                write!(f, "reference to unknown process {process}")
            }
            ModelError::UnknownNode { node } => write!(f, "reference to unknown node {node}"),
            ModelError::SelfLoop { edge, process } => {
                write!(f, "edge {edge} is a self-loop on process {process}")
            }
            ModelError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge from {from} to {to}")
            }
            ModelError::Unmappable { process } => {
                write!(f, "process {process} has no eligible node (empty WCET row)")
            }
            ModelError::DeadlineExceedsPeriod { graph } => {
                write!(f, "deadline of graph {graph} exceeds its period")
            }
            ModelError::InvalidPolicy { process, reason } => {
                write!(f, "invalid fault-tolerance policy for {process}: {reason}")
            }
            ModelError::MessageTooLarge { edge, size, max } => {
                write!(
                    f,
                    "message {edge} of {size} bytes exceeds maximum frame size {max}"
                )
            }
            ModelError::Empty { what } => write!(f, "model has no {what}"),
            ModelError::HyperperiodOverflow => write!(
                f,
                "hyperperiod (LCM of the graph periods) overflows the {} us time range",
                u64::MAX
            ),
            ModelError::MergedGraphTooLarge { limit } => write!(
                f,
                "merging the graphs over their hyperperiod builds more than {limit} processes"
            ),
            ModelError::ReleaseOverflow { graph } => write!(
                f,
                "a release of graph {graph} overflows the {} us time range in its last \
                 activation of the hyperperiod",
                u64::MAX
            ),
            ModelError::InvalidDelta { reason } => {
                write!(f, "invalid problem delta: {reason}")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_punctuation() {
        let err = ModelError::CyclicGraph {
            graph: GraphId::new(0),
        };
        let msg = err.to_string();
        assert!(msg.starts_with("process graph"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ModelError>();
    }
}
