//! Directed acyclic process graphs (paper §3).
//!
//! An application is modelled as a set of directed, acyclic process
//! graphs `G(V, E)`. Each vertex is a process; an edge `eij` from `Pi`
//! to `Pj` means the output of `Pi` is an input of `Pj` and carries a
//! [`Message`] when the two endpoints end up on different nodes.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{EdgeId, GraphId, ProcessId};
use crate::time::Time;

/// A message carried by a data-dependency edge.
///
/// Only the size is modelled (paper §3: "the size of the messages is
/// given"); the transmission time is derived by the TTP bus model
/// from the size and the slot configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    /// Payload size in bytes (paper experiments: 1–4 bytes).
    pub size: u32,
}

impl Message {
    /// Creates a message of `size` bytes.
    #[must_use]
    pub const fn new(size: u32) -> Self {
        Message { size }
    }
}

/// A process (vertex) of a process graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Process {
    /// Identifier, dense within the owning graph.
    pub id: ProcessId,
    /// Human-readable name; defaults to `P<i>`.
    pub name: String,
    /// Earliest release time relative to the graph activation
    /// (paper §3: "processes can have associated individual release
    /// times"). Zero for most processes.
    pub release: Time,
    /// Optional individual deadline relative to the graph activation.
    pub deadline: Option<Time>,
}

impl Process {
    /// Creates a process with default release (zero) and no
    /// individual deadline.
    #[must_use]
    pub fn new(id: ProcessId) -> Self {
        Process {
            id,
            name: format!("{id}"),
            release: Time::ZERO,
            deadline: None,
        }
    }

    /// Sets the name (builder style).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the release time (builder style).
    #[must_use]
    pub fn with_release(mut self, release: Time) -> Self {
        self.release = release;
        self
    }

    /// Sets an individual deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A data-dependency edge with its message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Identifier, dense within the owning graph.
    pub id: EdgeId,
    /// Producing process.
    pub from: ProcessId,
    /// Consuming process.
    pub to: ProcessId,
    /// The message exchanged if the endpoints are on different nodes.
    pub message: Message,
}

/// A directed acyclic process graph.
///
/// Construction is incremental ([`ProcessGraph::add_process`],
/// [`ProcessGraph::add_edge`]); [`ProcessGraph::validate`] checks the
/// structural invariants (acyclicity, no self-loops, no duplicate
/// edges).
///
/// # Examples
///
/// ```
/// use ftdes_model::graph::{Message, ProcessGraph};
///
/// // Application A2 of paper Fig. 3: P1 -> P2 -> P3.
/// let mut g = ProcessGraph::new(0.into());
/// let p1 = g.add_process();
/// let p2 = g.add_process();
/// let p3 = g.add_process();
/// g.add_edge(p1, p2, Message::new(4))?;
/// g.add_edge(p2, p3, Message::new(4))?;
/// g.validate()?;
/// assert_eq!(g.topological_order()?.len(), 3);
/// # Ok::<(), ftdes_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessGraph {
    id: GraphId,
    processes: Vec<Process>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per process (dense by process index).
    successors: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per process (dense by process index).
    predecessors: Vec<Vec<EdgeId>>,
}

impl ProcessGraph {
    /// Creates an empty graph with the given id.
    #[must_use]
    pub fn new(id: GraphId) -> Self {
        ProcessGraph {
            id,
            processes: Vec::new(),
            edges: Vec::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
        }
    }

    /// An empty graph with room for `processes` processes and `edges`
    /// edges.
    pub(crate) fn with_capacity(id: GraphId, processes: usize, edges: usize) -> Self {
        ProcessGraph {
            id,
            processes: Vec::with_capacity(processes),
            edges: Vec::with_capacity(edges),
            successors: Vec::with_capacity(processes),
            predecessors: Vec::with_capacity(processes),
        }
    }

    /// Returns the graph id.
    #[must_use]
    pub fn id(&self) -> GraphId {
        self.id
    }

    /// Adds a fresh process and returns its id.
    pub fn add_process(&mut self) -> ProcessId {
        let id = ProcessId::new(self.processes.len() as u32);
        self.processes.push(Process::new(id));
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        id
    }

    /// Adds `n` fresh processes and returns their ids.
    pub fn add_processes(&mut self, n: usize) -> Vec<ProcessId> {
        (0..n).map(|_| self.add_process()).collect()
    }

    /// Adds a pre-built process description. The process id must be
    /// the next dense id.
    ///
    /// # Panics
    ///
    /// Panics if `process.id` is not the next dense index.
    pub fn push_process(&mut self, process: Process) -> ProcessId {
        self.push_process_sized(process, 0, 0)
    }

    /// [`ProcessGraph::push_process`] with room for `outgoing` and
    /// `incoming` edges at the new process.
    pub(crate) fn push_process_sized(
        &mut self,
        process: Process,
        outgoing: usize,
        incoming: usize,
    ) -> ProcessId {
        assert_eq!(
            process.id.index(),
            self.processes.len(),
            "process ids must be dense and in insertion order"
        );
        let id = process.id;
        self.processes.push(process);
        self.successors.push(Vec::with_capacity(outgoing));
        self.predecessors.push(Vec::with_capacity(incoming));
        id
    }

    /// Adds a data-dependency edge carrying `message`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownProcess`] for dangling endpoints,
    /// [`ModelError::SelfLoop`] if `from == to`, and
    /// [`ModelError::DuplicateEdge`] if the dependency already exists.
    pub fn add_edge(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        message: Message,
    ) -> Result<EdgeId, ModelError> {
        if from.index() >= self.processes.len() {
            return Err(ModelError::UnknownProcess { process: from });
        }
        if to.index() >= self.processes.len() {
            return Err(ModelError::UnknownProcess { process: to });
        }
        let id = EdgeId::new(self.edges.len() as u32);
        if from == to {
            return Err(ModelError::SelfLoop {
                edge: id,
                process: from,
            });
        }
        if self.connects(from, to) {
            return Err(ModelError::DuplicateEdge { from, to });
        }
        Ok(self.push_edge(from, to, message))
    }

    /// True when an edge from `from` to `to` exists.
    fn connects(&self, from: ProcessId, to: ProcessId) -> bool {
        self.successors[from.index()]
            .iter()
            .any(|&e| self.edges[e.index()].to == to)
    }

    /// Appends an edge that the caller knows is valid: both endpoints
    /// exist and differ, and no edge joins them yet. This is what
    /// [`ProcessGraph::add_edge`] checks; here it is only
    /// debug-asserted, for edges copied from a graph that held them.
    pub(crate) fn push_edge(&mut self, from: ProcessId, to: ProcessId, message: Message) -> EdgeId {
        debug_assert!(from.index() < self.processes.len() && to.index() < self.processes.len());
        debug_assert_ne!(from, to, "self-loop");
        debug_assert!(!self.connects(from, to), "duplicate edge");
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            from,
            to,
            message,
        });
        self.successors[from.index()].push(id);
        self.predecessors[to.index()].push(id);
        id
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All processes in id order.
    #[must_use]
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// All edges in id order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up a process.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    #[must_use]
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.index()]
    }

    /// Mutable access to a process (to set release/deadline/name).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn process_mut(&mut self, id: ProcessId) -> &mut Process {
        &mut self.processes[id.index()]
    }

    /// Looks up an edge.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Outgoing edges of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` does not belong to this graph.
    #[must_use]
    pub fn outgoing(&self, p: ProcessId) -> &[EdgeId] {
        &self.successors[p.index()]
    }

    /// Incoming edges of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` does not belong to this graph.
    #[must_use]
    pub fn incoming(&self, p: ProcessId) -> &[EdgeId] {
        &self.predecessors[p.index()]
    }

    /// Direct successors of `p` (deduplicated is unnecessary: the
    /// graph rejects duplicate edges).
    pub fn successors_of(&self, p: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        self.successors[p.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].to)
    }

    /// Direct predecessors of `p`.
    pub fn predecessors_of(&self, p: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        self.predecessors[p.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].from)
    }

    /// Processes without predecessors (graph sources).
    #[must_use]
    pub fn sources(&self) -> Vec<ProcessId> {
        self.processes
            .iter()
            .filter(|p| self.predecessors[p.id.index()].is_empty())
            .map(|p| p.id)
            .collect()
    }

    /// Processes without successors (graph sinks).
    #[must_use]
    pub fn sinks(&self) -> Vec<ProcessId> {
        self.processes
            .iter()
            .filter(|p| self.successors[p.id.index()].is_empty())
            .map(|p| p.id)
            .collect()
    }

    /// Computes a topological order of the processes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CyclicGraph`] if the graph contains a
    /// cycle.
    pub fn topological_order(&self) -> Result<Vec<ProcessId>, ModelError> {
        let mut order = Vec::new();
        let mut in_deg = Vec::new();
        self.topological_order_into(&mut order, &mut in_deg)?;
        Ok(order)
    }

    /// [`ProcessGraph::topological_order`] writing into caller-owned
    /// buffers (`order` receives the result, `in_deg` is working
    /// memory) — schedulers on hot paths reuse them across calls.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CyclicGraph`] if the graph contains a
    /// cycle.
    pub fn topological_order_into(
        &self,
        order: &mut Vec<ProcessId>,
        in_deg: &mut Vec<usize>,
    ) -> Result<(), ModelError> {
        let n = self.processes.len();
        in_deg.clear();
        in_deg.extend((0..n).map(|i| self.predecessors[i].len()));
        // `order` doubles as the BFS queue: processed entries stay.
        order.clear();
        order.extend(
            (0..n)
                .filter(|&i| in_deg[i] == 0)
                .map(|i| ProcessId::new(i as u32)),
        );
        let mut head = 0;
        while head < order.len() {
            let p = order[head];
            head += 1;
            for e in &self.successors[p.index()] {
                let s = self.edges[e.index()].to;
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    order.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(())
        } else {
            Err(ModelError::CyclicGraph { graph: self.id })
        }
    }

    /// Validates the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CyclicGraph`] on cycles and
    /// [`ModelError::Empty`] on a graph without processes. Self-loops
    /// and duplicate edges are already rejected at insertion.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.processes.is_empty() {
            return Err(ModelError::Empty { what: "processes" });
        }
        self.topological_order().map(|_| ())
    }

    /// Returns the length (vertex count) of the longest path.
    ///
    /// Useful for characterising generated workloads.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CyclicGraph`] if the graph is cyclic.
    pub fn depth(&self) -> Result<usize, ModelError> {
        let order = self.topological_order()?;
        let mut level = vec![1usize; self.processes.len()];
        for &p in &order {
            for s in self.successors_of(p).collect::<Vec<_>>() {
                level[s.index()] = level[s.index()].max(level[p.index()] + 1);
            }
        }
        Ok(level.into_iter().max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> ProcessGraph {
        // P0 -> P1, P0 -> P2, P1 -> P3, P2 -> P3 (paper Fig. 4 shape).
        let mut g = ProcessGraph::new(GraphId::new(0));
        let p: Vec<_> = g.add_processes(4);
        g.add_edge(p[0], p[1], Message::new(1)).unwrap();
        g.add_edge(p[0], p[2], Message::new(2)).unwrap();
        g.add_edge(p[1], p[3], Message::new(1)).unwrap();
        g.add_edge(p[2], p[3], Message::new(1)).unwrap();
        g
    }

    #[test]
    fn build_and_query_diamond() {
        let g = diamond();
        assert_eq!(g.process_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![ProcessId::new(0)]);
        assert_eq!(g.sinks(), vec![ProcessId::new(3)]);
        assert_eq!(g.depth().unwrap(), 3);
        let succ: Vec<_> = g.successors_of(ProcessId::new(0)).collect();
        assert_eq!(succ, vec![ProcessId::new(1), ProcessId::new(2)]);
        let pred: Vec<_> = g.predecessors_of(ProcessId::new(3)).collect();
        assert_eq!(pred, vec![ProcessId::new(1), ProcessId::new(2)]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos = |p: ProcessId| order.iter().position(|&q| q == p).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to), "edge {} violated", e.id);
        }
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = ProcessGraph::new(GraphId::new(0));
        let p = g.add_process();
        let err = g.add_edge(p, p, Message::new(1)).unwrap_err();
        assert!(matches!(err, ModelError::SelfLoop { .. }));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = ProcessGraph::new(GraphId::new(0));
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(1)).unwrap();
        let err = g.add_edge(a, b, Message::new(2)).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateEdge { .. }));
    }

    #[test]
    fn dangling_endpoint_rejected() {
        let mut g = ProcessGraph::new(GraphId::new(0));
        let a = g.add_process();
        let err = g
            .add_edge(a, ProcessId::new(9), Message::new(1))
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownProcess { .. }));
    }

    #[test]
    fn cycle_detected() {
        // Build a cycle by constructing edges through the public API:
        // a -> b, b -> c, c -> a.
        let mut g = ProcessGraph::new(GraphId::new(0));
        let a = g.add_process();
        let b = g.add_process();
        let c = g.add_process();
        g.add_edge(a, b, Message::new(1)).unwrap();
        g.add_edge(b, c, Message::new(1)).unwrap();
        g.add_edge(c, a, Message::new(1)).unwrap();
        assert!(matches!(g.validate(), Err(ModelError::CyclicGraph { .. })));
    }

    #[test]
    fn empty_graph_invalid() {
        let g = ProcessGraph::new(GraphId::new(0));
        assert!(matches!(g.validate(), Err(ModelError::Empty { .. })));
    }

    #[test]
    fn process_builder_setters() {
        let p = Process::new(ProcessId::new(0))
            .with_name("brake")
            .with_release(Time::from_ms(5))
            .with_deadline(Time::from_ms(100));
        assert_eq!(p.name, "brake");
        assert_eq!(p.release, Time::from_ms(5));
        assert_eq!(p.deadline, Some(Time::from_ms(100)));
    }
}
