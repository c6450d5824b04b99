//! Policy spaces: which fault-tolerance techniques a search may use.
//!
//! The paper evaluates three optimization variants that share the
//! same search but differ in the policies they may assign (§6):
//! `MXR` combines re-execution and replication, `MX` only
//! re-executes, `MR` only replicates.

use std::ops::RangeInclusive;

use ftdes_model::fault::FaultModel;

/// The admissible replication levels of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicySpace {
    /// MXR: any level `1 ..= k + 1` (re-execution, replication and
    /// re-executed replicas).
    Mixed,
    /// MX: pure re-execution only (`r = 1`).
    ReexecutionOnly,
    /// MR: pure replication only (`r = k + 1`).
    ReplicationOnly,
}

impl PolicySpace {
    /// The replication levels this space admits under `fm` for a
    /// process with `nodes` eligible nodes. Replicas need distinct
    /// nodes, so every level is capped at `nodes`: a level above it
    /// falls back to the largest feasible one (re-executed replicas
    /// make up the budget), and the range never outgrows the
    /// architecture, whatever `k`.
    #[must_use]
    pub fn allowed_levels(self, fm: &FaultModel, nodes: u32) -> RangeInclusive<u32> {
        let top = fm.max_replicas().min(nodes);
        match self {
            PolicySpace::Mixed => 1..=top,
            PolicySpace::ReexecutionOnly => 1..=1,
            PolicySpace::ReplicationOnly => top..=top,
        }
    }

    /// The default initial replication level (paper Fig. 6 line 2
    /// assigns re-execution initially; MR must start replicated).
    #[must_use]
    pub fn initial_level(self, fm: &FaultModel) -> u32 {
        match self {
            PolicySpace::Mixed | PolicySpace::ReexecutionOnly => 1,
            PolicySpace::ReplicationOnly => fm.max_replicas(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdes_model::time::Time;

    #[test]
    fn levels_per_space() {
        let fm = FaultModel::new(2, Time::from_ms(5));
        assert_eq!(PolicySpace::Mixed.allowed_levels(&fm, 4), 1..=3);
        assert_eq!(PolicySpace::ReexecutionOnly.allowed_levels(&fm, 4), 1..=1);
        assert_eq!(PolicySpace::ReplicationOnly.allowed_levels(&fm, 4), 3..=3);
    }

    #[test]
    fn levels_are_bounded_by_the_node_count() {
        let fm = FaultModel::new(FaultModel::MAX_K, Time::from_ms(5));
        assert_eq!(PolicySpace::Mixed.allowed_levels(&fm, 3), 1..=3);
        assert_eq!(PolicySpace::ReplicationOnly.allowed_levels(&fm, 3), 3..=3);
        let fm = FaultModel::new(2, Time::from_ms(5));
        assert_eq!(PolicySpace::Mixed.allowed_levels(&fm, 2), 1..=2);
        assert_eq!(PolicySpace::ReplicationOnly.allowed_levels(&fm, 1), 1..=1);
    }

    #[test]
    fn initial_levels() {
        let fm = FaultModel::new(2, Time::from_ms(5));
        assert_eq!(PolicySpace::Mixed.initial_level(&fm), 1);
        assert_eq!(PolicySpace::ReplicationOnly.initial_level(&fm), 3);
    }

    #[test]
    fn fault_free_degenerates() {
        let fm = FaultModel::none();
        assert_eq!(PolicySpace::Mixed.allowed_levels(&fm, 4), 1..=1);
        assert_eq!(PolicySpace::ReplicationOnly.allowed_levels(&fm, 4), 1..=1);
    }
}
