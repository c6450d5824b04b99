//! Error types for the TTP bus model.

use std::error::Error;
use std::fmt;

use ftdes_model::ids::NodeId;

/// Errors raised by bus configuration and message scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TtpError {
    /// The architecture has no nodes, so no TDMA round can exist.
    EmptyArchitecture,
    /// Slot capacity or byte time of zero.
    ZeroSlot,
    /// A node owns more than one slot in the round (the TTP allows
    /// only one slot per node per round).
    DuplicateSlotOwner {
        /// The offending node.
        node: NodeId,
    },
    /// A node of the architecture owns no slot and could never
    /// transmit.
    MissingSlotOwner {
        /// The slot-less node.
        node: NodeId,
    },
    /// A message does not fit in a frame even when alone (its size
    /// exceeds the slot capacity).
    MessageExceedsSlot {
        /// Message size in bytes.
        size: u32,
        /// Slot capacity in bytes.
        capacity: u32,
    },
    /// A message would land in a TDMA round at or past the booking
    /// horizon of the scheduler's occupancy table: the schedule spans
    /// more rounds than the table covers.
    HorizonExceeded {
        /// The round the message would be booked into.
        round: u64,
        /// The number of rounds the booking table covers.
        limit: u64,
    },
}

impl fmt::Display for TtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TtpError::EmptyArchitecture => write!(f, "bus configuration needs at least one node"),
            TtpError::ZeroSlot => write!(f, "slot capacity and byte time must be non-zero"),
            TtpError::DuplicateSlotOwner { node } => {
                write!(f, "node {node} owns more than one slot in the TDMA round")
            }
            TtpError::MissingSlotOwner { node } => {
                write!(f, "node {node} owns no slot in the TDMA round")
            }
            TtpError::MessageExceedsSlot { size, capacity } => {
                write!(
                    f,
                    "message of {size} bytes exceeds slot capacity of {capacity} bytes"
                )
            }
            TtpError::HorizonExceeded { round, limit } => {
                write!(
                    f,
                    "message needs TDMA round {round}, past the booking horizon of {limit} rounds"
                )
            }
        }
    }
}

impl Error for TtpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_meaningful() {
        let err = TtpError::MessageExceedsSlot {
            size: 8,
            capacity: 4,
        };
        assert!(err.to_string().contains("8 bytes"));
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<TtpError>();
    }
}
