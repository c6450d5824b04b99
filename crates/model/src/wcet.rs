//! Worst-case execution time tables (paper §3).
//!
//! Each process `Pi` can potentially be mapped on a subset `NPi ⊆ N`
//! of the nodes; for each eligible node the worst-case execution time
//! `C_Pi^Nk` is known. Ineligible (process, node) pairs are the `X`
//! entries of the paper's tables (e.g. Fig. 5 where `P1` cannot run
//! on `N2`).

use serde::{Deserialize, Serialize};

use crate::architecture::Architecture;
use crate::error::ModelError;
use crate::ids::{NodeId, ProcessId};
use crate::time::Time;

/// The WCET table `C: (process, node) -> time`.
///
/// Sparse: missing entries mean the process cannot execute on that
/// node. Stored as one node-sorted row per process, so a row is
/// filled by appending when entries arrive in node order (as every
/// generator, the parser and the merge write them) and is read as a
/// slice. Rows are dense by process index: the table holds a row,
/// possibly empty, for every process up to the largest one set.
///
/// Equality is semantic: a cleared entry compares equal to one that
/// never existed.
///
/// # Examples
///
/// ```
/// use ftdes_model::wcet::WcetTable;
/// use ftdes_model::time::Time;
///
/// // Paper Fig. 3: P1 runs in 40 ms on N1 and 50 ms on N2.
/// let mut wcet = WcetTable::new();
/// wcet.set(0.into(), 0.into(), Time::from_ms(40));
/// wcet.set(0.into(), 1.into(), Time::from_ms(50));
/// assert_eq!(wcet.get(0.into(), 0.into()), Some(Time::from_ms(40)));
/// assert_eq!(wcet.eligible_nodes(0.into()).count(), 2);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WcetTable {
    /// `rows[p]`: the `(node, wcet)` entries of process `p`, sorted
    /// by node, each node at most once.
    rows: Vec<Vec<(NodeId, Time)>>,
}

impl WcetTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A table of the given rows, indexed by process.
    ///
    /// Each row must be sorted by node, without repeats.
    pub(crate) fn from_rows(rows: Vec<Vec<(NodeId, Time)>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)));
        WcetTable { rows }
    }

    /// The `(node, wcet)` entries of `process`, sorted by node.
    pub(crate) fn row(&self, process: ProcessId) -> &[(NodeId, Time)] {
        self.rows.get(process.index()).map_or(&[], Vec::as_slice)
    }

    /// Sets the WCET of `process` on `node`, replacing any previous
    /// entry. Returns the previous value, if any.
    pub fn set(&mut self, process: ProcessId, node: NodeId, wcet: Time) -> Option<Time> {
        let p = process.index();
        if p >= self.rows.len() {
            self.rows.resize_with(p + 1, Vec::new);
        }
        let row = &mut self.rows[p];
        // Entries arrive in node order almost always: append in O(1).
        if row.last().is_none_or(|&(last, _)| last < node) {
            row.push((node, wcet));
            return None;
        }
        match row.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(i) => Some(std::mem::replace(&mut row[i].1, wcet)),
            Err(i) => {
                row.insert(i, (node, wcet));
                None
            }
        }
    }

    /// Removes eligibility of `process` on `node`. Returns the removed
    /// value, if any.
    pub fn clear(&mut self, process: ProcessId, node: NodeId) -> Option<Time> {
        let row = self.rows.get_mut(process.index())?;
        let i = row.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(row.remove(i).1)
    }

    /// Returns the WCET of `process` on `node`, or `None` if the
    /// process cannot run there.
    #[must_use]
    pub fn get(&self, process: ProcessId, node: NodeId) -> Option<Time> {
        let row = self.row(process);
        let i = row.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(row[i].1)
    }

    /// Returns `true` if `process` may execute on `node`.
    #[must_use]
    pub fn is_eligible(&self, process: ProcessId, node: NodeId) -> bool {
        self.get(process, node).is_some()
    }

    /// Iterates over the nodes `process` may execute on, with the
    /// corresponding WCETs, in node order.
    pub fn eligible_nodes(&self, process: ProcessId) -> impl Iterator<Item = (NodeId, Time)> + '_ {
        self.row(process).iter().copied()
    }

    /// Iterates over every `(process, node, wcet)` entry in key
    /// order — the whole-table view problem deltas (node kills,
    /// degradations, rescales) transform.
    pub fn entries(&self) -> impl Iterator<Item = (ProcessId, NodeId, Time)> + '_ {
        self.rows.iter().enumerate().flat_map(|(p, row)| {
            let p = ProcessId::new(p as u32);
            row.iter().map(move |&(n, t)| (p, n, t))
        })
    }

    /// The average WCET of `process` over its eligible nodes — the
    /// node-independent estimate used by the partial-critical-path
    /// priority function.
    ///
    /// Returns `None` when the process is unmappable.
    #[must_use]
    pub fn average(&self, process: ProcessId) -> Option<Time> {
        let mut sum = Time::ZERO;
        let mut n = 0u64;
        for (_, t) in self.eligible_nodes(process) {
            sum += t;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n)
        }
    }

    /// The smallest WCET of `process` over its eligible nodes.
    #[must_use]
    pub fn best(&self, process: ProcessId) -> Option<(NodeId, Time)> {
        self.eligible_nodes(process).min_by_key(|&(_, t)| t)
    }

    /// Number of entries in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Returns `true` if the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }

    /// Checks that every process in `processes` has at least one
    /// eligible node and every referenced node exists.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unmappable`] or [`ModelError::UnknownNode`].
    pub fn validate(
        &self,
        processes: impl IntoIterator<Item = ProcessId>,
        arch: &Architecture,
    ) -> Result<(), ModelError> {
        for (_, node, _) in self.entries() {
            if !arch.contains(node) {
                return Err(ModelError::UnknownNode { node });
            }
        }
        for p in processes {
            if self.eligible_nodes(p).next().is_none() {
                return Err(ModelError::Unmappable { process: p });
            }
        }
        Ok(())
    }
}

impl PartialEq for WcetTable {
    fn eq(&self, other: &Self) -> bool {
        // Rows left empty by `clear`, or past the other table's last
        // process, hold no entries: compare the entries, not the rows.
        self.entries().eq(other.entries())
    }
}

impl Eq for WcetTable {}

impl FromIterator<(ProcessId, NodeId, Time)> for WcetTable {
    fn from_iter<I: IntoIterator<Item = (ProcessId, NodeId, Time)>>(iter: I) -> Self {
        let mut table = WcetTable::new();
        for (p, n, t) in iter {
            table.set(p, n, t);
        }
        table
    }
}

impl Extend<(ProcessId, NodeId, Time)> for WcetTable {
    fn extend<I: IntoIterator<Item = (ProcessId, NodeId, Time)>>(&mut self, iter: I) {
        for (p, n, t) in iter {
            self.set(p, n, t);
        }
    }
}

/// Read access to WCET entries — the interface the scheduler's
/// expansion hot path compiles against.
///
/// Implemented by the sparse [`WcetTable`] (the mutable, serializable
/// store) and by the dense [`DenseWcet`] matrix (the branch-free
/// front-end the optimizer queries thousands of times per candidate
/// evaluation).
pub trait WcetLookup {
    /// The WCET of `process` on `node`, or `None` when the process
    /// cannot run there.
    fn lookup(&self, process: ProcessId, node: NodeId) -> Option<Time>;
}

impl WcetLookup for WcetTable {
    fn lookup(&self, process: ProcessId, node: NodeId) -> Option<Time> {
        self.get(process, node)
    }
}

/// A dense `n_processes × n_nodes` WCET matrix.
///
/// [`WcetTable`] stores one sparse node-sorted row per process — ideal
/// for mutation and ordered iteration, but every lookup searches a
/// row. Design expansion asks for one entry per replica instance on
/// the optimizer's hot path, so the search front-loads the table into
/// this row-major matrix once per problem: a lookup becomes one
/// multiply-add and one load.
///
/// Entries outside the matrix dimensions (processes or nodes the
/// problem does not know) answer `None`, exactly like a missing
/// sparse entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseWcet {
    processes: usize,
    nodes: usize,
    cells: Vec<Option<Time>>,
}

impl DenseWcet {
    /// Densifies `table` over a `processes × nodes` grid.
    #[must_use]
    pub fn from_table(table: &WcetTable, processes: usize, nodes: usize) -> Self {
        let mut cells = vec![None; processes * nodes];
        for (cells, row) in cells.chunks_exact_mut(nodes.max(1)).zip(&table.rows) {
            for &(n, t) in row {
                if n.index() < nodes {
                    cells[n.index()] = Some(t);
                }
            }
        }
        DenseWcet {
            processes,
            nodes,
            cells,
        }
    }

    /// The WCET of `process` on `node`, or `None` if ineligible or
    /// out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, process: ProcessId, node: NodeId) -> Option<Time> {
        if process.index() >= self.processes || node.index() >= self.nodes {
            return None;
        }
        self.cells[process.index() * self.nodes + node.index()]
    }
}

impl WcetLookup for DenseWcet {
    #[inline]
    fn lookup(&self, process: ProcessId, node: NodeId) -> Option<Time> {
        self.get(process, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_table() -> WcetTable {
        // Paper Fig. 5: P1 40/X, P2 60/60, P3 40/70, P4 X/70.
        let ms = Time::from_ms;
        [
            (ProcessId::new(0), NodeId::new(0), ms(40)),
            (ProcessId::new(1), NodeId::new(0), ms(60)),
            (ProcessId::new(1), NodeId::new(1), ms(60)),
            (ProcessId::new(2), NodeId::new(0), ms(40)),
            (ProcessId::new(2), NodeId::new(1), ms(70)),
            (ProcessId::new(3), NodeId::new(1), ms(70)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn sparse_eligibility() {
        let t = fig5_table();
        assert!(t.is_eligible(ProcessId::new(0), NodeId::new(0)));
        assert!(!t.is_eligible(ProcessId::new(0), NodeId::new(1)));
        assert!(!t.is_eligible(ProcessId::new(3), NodeId::new(0)));
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn eligible_nodes_in_node_order() {
        let t = fig5_table();
        let nodes: Vec<_> = t.eligible_nodes(ProcessId::new(2)).collect();
        assert_eq!(
            nodes,
            vec![
                (NodeId::new(0), Time::from_ms(40)),
                (NodeId::new(1), Time::from_ms(70))
            ]
        );
    }

    #[test]
    fn average_and_best() {
        let t = fig5_table();
        assert_eq!(t.average(ProcessId::new(2)), Some(Time::from_ms(55)));
        assert_eq!(
            t.best(ProcessId::new(2)),
            Some((NodeId::new(0), Time::from_ms(40)))
        );
        assert_eq!(t.average(ProcessId::new(9)), None);
    }

    #[test]
    fn validate_detects_unmappable() {
        let t = fig5_table();
        let arch = Architecture::with_node_count(2);
        let all = (0..4).map(ProcessId::new);
        assert!(t.validate(all, &arch).is_ok());
        let err = t.validate([ProcessId::new(4)], &arch).unwrap_err();
        assert!(matches!(err, ModelError::Unmappable { .. }));
    }

    #[test]
    fn validate_detects_unknown_node() {
        let t = fig5_table();
        let arch = Architecture::with_node_count(1); // N1 missing
        let err = t.validate([ProcessId::new(0)], &arch).unwrap_err();
        assert!(matches!(err, ModelError::UnknownNode { .. }));
    }

    #[test]
    fn dense_matches_sparse() {
        let t = fig5_table();
        let dense = DenseWcet::from_table(&t, 4, 2);
        for p in 0..5u32 {
            for n in 0..3u32 {
                assert_eq!(
                    dense.get(ProcessId::new(p), NodeId::new(n)),
                    t.get(ProcessId::new(p), NodeId::new(n)),
                    "P{p}/N{n} dense front-end diverged"
                );
                assert_eq!(
                    dense.lookup(ProcessId::new(p), NodeId::new(n)),
                    t.lookup(ProcessId::new(p), NodeId::new(n))
                );
            }
        }
    }

    #[test]
    fn dense_out_of_range_is_ineligible() {
        let t = fig5_table();
        // Densified over a grid smaller than the table: dropped
        // entries read as ineligible, never as stale values.
        let dense = DenseWcet::from_table(&t, 2, 1);
        assert_eq!(
            dense.get(ProcessId::new(1), NodeId::new(0)),
            t.get(ProcessId::new(1), NodeId::new(0))
        );
        assert_eq!(dense.get(ProcessId::new(1), NodeId::new(1)), None);
        assert_eq!(dense.get(ProcessId::new(3), NodeId::new(1)), None);
    }

    #[test]
    fn set_replaces() {
        let mut t = WcetTable::new();
        assert_eq!(
            t.set(ProcessId::new(0), NodeId::new(0), Time::from_ms(10)),
            None
        );
        assert_eq!(
            t.set(ProcessId::new(0), NodeId::new(0), Time::from_ms(20)),
            Some(Time::from_ms(10))
        );
        assert_eq!(
            t.clear(ProcessId::new(0), NodeId::new(0)),
            Some(Time::from_ms(20))
        );
        assert!(t.is_empty());
    }
}
