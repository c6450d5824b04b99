//! System configurations ψ = ⟨F, M⟩ (paper §4).
//!
//! A [`Design`] fixes, for every process of the merged graph, the
//! fault-tolerance policy `F` and the mapping `M` of each replica to
//! a node. The schedule table `S` (the third component of ψ) is
//! derived from a design by the `ftdes-sched` crate.

use serde::{Deserialize, Serialize};

use crate::architecture::Architecture;
use crate::error::ModelError;
use crate::fault::FaultModel;
use crate::ids::{NodeId, ProcessId};
use crate::policy::{FtPolicy, MappingConstraint, PolicyConstraint};
use crate::wcet::WcetTable;

/// Policy and replica placement for one process.
///
/// `mapping[0]` is the *primary* replica, which carries the whole
/// re-execution budget; all replica nodes must be pairwise distinct
/// (active replication is space redundancy).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessDesign {
    /// The fault-tolerance technique mix.
    pub policy: FtPolicy,
    /// One node per replica; length equals `policy.replicas()`.
    pub mapping: Vec<NodeId>,
}

impl ProcessDesign {
    /// Creates a design entry after checking that the mapping length
    /// matches the replication level and the nodes are distinct.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPolicy`] on arity mismatch or
    /// duplicated replica nodes.
    pub fn new(policy: FtPolicy, mapping: Vec<NodeId>) -> Result<Self, ModelError> {
        if mapping.len() != policy.replicas() as usize {
            return Err(ModelError::InvalidPolicy {
                process: ProcessId::new(0),
                reason: format!(
                    "mapping lists {} nodes for replication level {}",
                    mapping.len(),
                    policy.replicas()
                ),
            });
        }
        let mut sorted = mapping.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != mapping.len() {
            return Err(ModelError::InvalidPolicy {
                process: ProcessId::new(0),
                reason: "replicas must be mapped on distinct nodes".into(),
            });
        }
        Ok(ProcessDesign { policy, mapping })
    }

    /// The node of the primary replica.
    #[must_use]
    pub fn primary_node(&self) -> NodeId {
        self.mapping[0]
    }

    /// The replication level (number of instances).
    #[must_use]
    pub fn replicas(&self) -> u32 {
        self.policy.replicas()
    }
}

/// Designer-imposed constraints: the sets `PX`, `PR` (policy fixed)
/// and `PM` (mapping fixed) of paper §4.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DesignConstraints {
    policy: Vec<PolicyConstraint>,
    mapping: Vec<MappingConstraint>,
}

impl DesignConstraints {
    /// No constraints for `n` processes (all processes in `P+` and `P*`).
    #[must_use]
    pub fn free(n: usize) -> Self {
        DesignConstraints {
            policy: vec![PolicyConstraint::Free; n],
            mapping: vec![MappingConstraint::Free; n],
        }
    }

    /// Fixes the policy constraint of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_policy(&mut self, p: ProcessId, c: PolicyConstraint) {
        self.policy[p.index()] = c;
    }

    /// Fixes the mapping constraint of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_mapping(&mut self, p: ProcessId, c: MappingConstraint) {
        self.mapping[p.index()] = c;
    }

    /// The policy constraint of `p` ([`PolicyConstraint::Free`] when
    /// the table is shorter than the process id, which happens for
    /// default-constructed constraints).
    #[must_use]
    pub fn policy(&self, p: ProcessId) -> PolicyConstraint {
        self.policy.get(p.index()).copied().unwrap_or_default()
    }

    /// The mapping constraint of `p`.
    #[must_use]
    pub fn mapping(&self, p: ProcessId) -> MappingConstraint {
        self.mapping.get(p.index()).cloned().unwrap_or_default()
    }
}

/// A complete design: one [`ProcessDesign`] per merged process.
///
/// # Examples
///
/// ```
/// use ftdes_model::design::{Design, ProcessDesign};
/// use ftdes_model::fault::FaultModel;
/// use ftdes_model::policy::FtPolicy;
/// use ftdes_model::time::Time;
///
/// let fm = FaultModel::new(1, Time::from_ms(10));
/// // One process, re-executed on node 0.
/// let d = Design::from_decisions(vec![ProcessDesign::new(
///     FtPolicy::reexecution(&fm),
///     vec![0.into()],
/// )?]);
/// assert_eq!(d.process_count(), 1);
/// assert_eq!(d.decision(0.into()).primary_node(), 0.into());
/// # Ok::<(), ftdes_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Design {
    decisions: Vec<ProcessDesign>,
}

impl Design {
    /// Builds a design from per-process decisions (indexed by merged
    /// process id).
    #[must_use]
    pub fn from_decisions(decisions: Vec<ProcessDesign>) -> Self {
        Design { decisions }
    }

    /// Number of processes covered.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.decisions.len()
    }

    /// The decision for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn decision(&self, p: ProcessId) -> &ProcessDesign {
        &self.decisions[p.index()]
    }

    /// Replaces the decision for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_decision(&mut self, p: ProcessId, d: ProcessDesign) {
        self.decisions[p.index()] = d;
    }

    /// Swaps the decision for process `p` with `other` in place — the
    /// allocation-free apply/undo primitive of window evaluation
    /// (call once to apply a candidate decision held in a reusable
    /// buffer, once more to restore).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn swap_decision(&mut self, p: ProcessId, other: &mut ProcessDesign) {
        std::mem::swap(&mut self.decisions[p.index()], other);
    }

    /// Iterates over `(process, decision)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &ProcessDesign)> {
        self.decisions
            .iter()
            .enumerate()
            .map(|(i, d)| (ProcessId::new(i as u32), d))
    }

    /// Validates the design against the architecture, WCET
    /// eligibility, fault model and designer constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violation: unknown node, ineligible replica
    /// placement, policy level out of range, or constraint breach.
    pub fn validate(
        &self,
        arch: &Architecture,
        wcet: &WcetTable,
        fm: &FaultModel,
        constraints: &DesignConstraints,
    ) -> Result<(), ModelError> {
        for (p, d) in self.iter() {
            if d.policy.replicas() == 0 || d.policy.replicas() > fm.max_replicas() {
                return Err(ModelError::InvalidPolicy {
                    process: p,
                    reason: format!("replication level {} out of range", d.policy.replicas()),
                });
            }
            if d.mapping.len() != d.policy.replicas() as usize {
                return Err(ModelError::InvalidPolicy {
                    process: p,
                    reason: "mapping arity mismatch".into(),
                });
            }
            if d.policy.checkpoints() == 0 {
                return Err(ModelError::InvalidPolicy {
                    process: p,
                    reason: "checkpoint count must be at least 1".into(),
                });
            }
            if d.policy.checkpoints() > 1 && d.policy.reexecutions() == 0 {
                return Err(ModelError::InvalidPolicy {
                    process: p,
                    reason: format!(
                        "checkpoint count {} needs a re-execution budget to recover with",
                        d.policy.checkpoints()
                    ),
                });
            }
            for &n in &d.mapping {
                if !arch.contains(n) {
                    return Err(ModelError::UnknownNode { node: n });
                }
                if !wcet.is_eligible(p, n) {
                    return Err(ModelError::InvalidPolicy {
                        process: p,
                        reason: format!("replica mapped on ineligible node {n}"),
                    });
                }
            }
            if !constraints.policy(p).allows(d.policy, fm) {
                return Err(ModelError::InvalidPolicy {
                    process: p,
                    reason: "designer policy constraint violated".into(),
                });
            }
            if !constraints.mapping(p).allows(d.primary_node()) {
                return Err(ModelError::InvalidPolicy {
                    process: p,
                    reason: "designer mapping constraint violated".into(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn fm1() -> FaultModel {
        FaultModel::new(1, Time::from_ms(10))
    }

    fn simple_wcet() -> WcetTable {
        [
            (ProcessId::new(0), NodeId::new(0), Time::from_ms(10)),
            (ProcessId::new(0), NodeId::new(1), Time::from_ms(12)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn process_design_arity_checked() {
        let fm = fm1();
        let err = ProcessDesign::new(FtPolicy::replication(&fm), vec![NodeId::new(0)]);
        assert!(err.is_err());
        let ok = ProcessDesign::new(
            FtPolicy::replication(&fm),
            vec![NodeId::new(0), NodeId::new(1)],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn duplicate_replica_nodes_rejected() {
        let fm = fm1();
        let err = ProcessDesign::new(
            FtPolicy::replication(&fm),
            vec![NodeId::new(0), NodeId::new(0)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn validate_full_design() {
        let fm = fm1();
        let arch = Architecture::with_node_count(2);
        let wcet = simple_wcet();
        let constraints = DesignConstraints::free(1);
        let d = Design::from_decisions(vec![ProcessDesign::new(
            FtPolicy::replication(&fm),
            vec![NodeId::new(0), NodeId::new(1)],
        )
        .unwrap()]);
        assert!(d.validate(&arch, &wcet, &fm, &constraints).is_ok());
    }

    #[test]
    fn validate_rejects_ineligible_node() {
        let fm = fm1();
        let arch = Architecture::with_node_count(3);
        let wcet = simple_wcet(); // node 2 not eligible
        let constraints = DesignConstraints::free(1);
        let d = Design::from_decisions(vec![ProcessDesign::new(
            FtPolicy::reexecution(&fm),
            vec![NodeId::new(2)],
        )
        .unwrap()]);
        assert!(d.validate(&arch, &wcet, &fm, &constraints).is_err());
    }

    #[test]
    fn validate_rejects_constraint_breach() {
        let fm = fm1();
        let arch = Architecture::with_node_count(2);
        let wcet = simple_wcet();
        let mut constraints = DesignConstraints::free(1);
        constraints.set_policy(ProcessId::new(0), PolicyConstraint::Replication);
        let d = Design::from_decisions(vec![ProcessDesign::new(
            FtPolicy::reexecution(&fm),
            vec![NodeId::new(0)],
        )
        .unwrap()]);
        let err = d.validate(&arch, &wcet, &fm, &constraints).unwrap_err();
        assert!(matches!(err, ModelError::InvalidPolicy { .. }));

        constraints.set_policy(ProcessId::new(0), PolicyConstraint::Free);
        constraints.set_mapping(ProcessId::new(0), MappingConstraint::Fixed(NodeId::new(1)));
        let err = d.validate(&arch, &wcet, &fm, &constraints).unwrap_err();
        assert!(matches!(err, ModelError::InvalidPolicy { .. }));
    }

    #[test]
    fn constraints_default_to_free() {
        let c = DesignConstraints::default();
        assert_eq!(c.policy(ProcessId::new(5)), PolicyConstraint::Free);
        assert_eq!(c.mapping(ProcessId::new(5)), MappingConstraint::Free);
    }

    #[test]
    fn iter_yields_dense_ids() {
        let fm = fm1();
        let d = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        ]);
        let ids: Vec<_> = d.iter().map(|(p, _)| p).collect();
        assert_eq!(ids, vec![ProcessId::new(0), ProcessId::new(1)]);
    }
}
