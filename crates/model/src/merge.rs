//! Merging an application into a single graph Γ (paper §5.1).
//!
//! Before list scheduling, all process graphs are merged into one
//! graph with a period equal to the LCM of the constituent periods:
//! a graph of period `T` is instantiated `H / T` times within the
//! hyper-period `H`, the `a`-th activation being released at `a · T`
//! and due at `a · T + D`.
//!
//! After merging, releases and deadlines are absolute offsets within
//! the hyper-period attached to the merged processes; downstream
//! crates (scheduler, optimizer) only ever see the merged graph.
//!
//! A representable hyper-period can still be far too long for Γ: two
//! coprime periods of 1 ms and ~10⁶ s instantiate the first graph ~10⁹
//! times. [`MergedApplication::merge`] therefore counts Γ's processes
//! with checked arithmetic before it allocates anything, and refuses a
//! count past [`MAX_MERGED_PROCESSES`].

use serde::{Deserialize, Serialize};

use crate::application::Application;
use crate::error::ModelError;
use crate::graph::{Process, ProcessGraph};
use crate::ids::{GraphId, ProcessId};
use crate::time::Time;
use crate::wcet::WcetTable;

/// The largest merged graph Γ, in processes, that
/// [`MergedApplication::merge`] builds: 2¹⁴.
///
/// A fixed bound, not a tuning knob. It sits more than two orders of
/// magnitude above the paper's largest applications (100 processes)
/// and keeps every activation number within `u32`. It also bounds the
/// scheduler's quadratic state: a recorded placement keeps the ready
/// set of every position, up to n²/2 entries for an edgeless graph
/// (512 MiB at 2¹⁴ processes, 2 GiB at 2¹⁵). Past it, merging fails
/// with [`ModelError::MergedGraphTooLarge`] instead of allocating
/// without bound.
pub const MAX_MERGED_PROCESSES: usize = 1 << 14;

/// Where a merged process came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessOrigin {
    /// Index of the graph spec within the application.
    pub graph_index: usize,
    /// Activation number within the hyper-period (0-based).
    pub activation: u32,
    /// Process id local to the original graph.
    pub local: ProcessId,
}

/// The merged application graph Γ with origin bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedApplication {
    graph: ProcessGraph,
    hyperperiod: Time,
    origins: Vec<ProcessOrigin>,
}

impl MergedApplication {
    /// Merges `app` into a single graph.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`Application::validate`].
    /// Returns [`ModelError::MergedGraphTooLarge`] when Γ would have
    /// more than [`MAX_MERGED_PROCESSES`] processes, and
    /// [`ModelError::ReleaseOverflow`] when an activation's release
    /// does not fit in a [`Time`].
    pub fn merge(app: &Application) -> Result<Self, ModelError> {
        app.validate()?;
        let hyperperiod = app.hyperperiod();
        // Size Γ before allocating it. Graphs are non-empty once
        // validated, so the count also bounds every activation number
        // by the cap, and the latest activation's offset plus the
        // latest release bounds every release the loop below adds.
        let mut count = 0usize;
        let mut edges = 0usize;
        for spec in app.specs() {
            let activations = hyperperiod / spec.period;
            count = usize::try_from(activations)
                .ok()
                .and_then(|a| a.checked_mul(spec.graph.process_count()))
                .and_then(|n| n.checked_add(count))
                .filter(|&n| n <= MAX_MERGED_PROCESSES)
                .ok_or(ModelError::MergedGraphTooLarge {
                    limit: MAX_MERGED_PROCESSES,
                })?;
            // Within the cap, and a graph has fewer edges than
            // processes squared, so this cannot overflow.
            edges += activations as usize * spec.graph.edge_count();
            let latest_release = spec
                .graph
                .processes()
                .iter()
                .map(|p| p.release)
                .fold(Time::ZERO, Time::max);
            if (spec.period * (activations - 1))
                .checked_add(latest_release)
                .is_none()
            {
                return Err(ModelError::ReleaseOverflow {
                    graph: spec.graph.id(),
                });
            }
        }
        // Γ and every adjacency list are built at their final sizes.
        let mut graph = ProcessGraph::with_capacity(GraphId::new(u32::MAX), count, edges);
        let mut origins = Vec::with_capacity(count);

        for (graph_index, spec) in app.specs().iter().enumerate() {
            let activations = hyperperiod / spec.period;
            for activation in 0..activations {
                let offset = spec.period * activation;
                // An activation's processes take consecutive global
                // ids from `base`, in local order.
                let base = graph.process_count();
                for local in spec.graph.processes() {
                    let gid = ProcessId::new(graph.process_count() as u32);
                    origins.push(ProcessOrigin {
                        graph_index,
                        activation: u32::try_from(activation)
                            .expect("activations are bounded by the process cap"),
                        local: local.id,
                    });
                    // The graph deadline applies to every process of the
                    // activation; an individual deadline tightens it
                    // (one past the time range cannot).
                    let graph_dl = offset + spec.deadline;
                    graph.push_process_sized(
                        Process {
                            id: gid,
                            name: if activations > 1 {
                                format!("{}@{}", local.name, activation)
                            } else {
                                local.name.clone()
                            },
                            release: offset + local.release,
                            deadline: Some(match local.deadline {
                                Some(d) => {
                                    offset.checked_add(d).map_or(graph_dl, |d| graph_dl.min(d))
                                }
                                None => graph_dl,
                            }),
                        },
                        spec.graph.outgoing(local.id).len(),
                        spec.graph.incoming(local.id).len(),
                    );
                }
                // Copied from a graph that holds them, the edges
                // cannot dangle, loop or repeat.
                let global = |local: ProcessId| ProcessId::new((base + local.index()) as u32);
                for edge in spec.graph.edges() {
                    graph.push_edge(global(edge.from), global(edge.to), edge.message);
                }
            }
        }
        Ok(MergedApplication {
            graph,
            hyperperiod,
            origins,
        })
    }

    /// The merged graph Γ.
    #[must_use]
    pub fn graph(&self) -> &ProcessGraph {
        &self.graph
    }

    /// The hyper-period (LCM of all constituent periods).
    #[must_use]
    pub fn hyperperiod(&self) -> Time {
        self.hyperperiod
    }

    /// The origin of a merged process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a process of the merged graph.
    #[must_use]
    pub fn origin(&self, p: ProcessId) -> ProcessOrigin {
        self.origins[p.index()]
    }

    /// Number of processes in Γ.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.graph.process_count()
    }

    /// Builds the merged WCET table from per-graph tables (indexed by
    /// graph spec position): every activation of a process inherits
    /// the WCETs of its template.
    ///
    /// # Panics
    ///
    /// Panics if `tables` has fewer entries than the application has
    /// graphs.
    #[must_use]
    pub fn remap_wcet(&self, tables: &[WcetTable]) -> WcetTable {
        WcetTable::from_rows(
            self.origins
                .iter()
                .map(|origin| tables[origin.graph_index].row(origin.local).to_vec())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::GraphSpec;
    use crate::graph::Message;
    use crate::ids::NodeId;

    fn chain(id: u32, n: usize) -> ProcessGraph {
        let mut g = ProcessGraph::new(GraphId::new(id));
        let ps = g.add_processes(n);
        for w in ps.windows(2) {
            g.add_edge(w[0], w[1], Message::new(1)).unwrap();
        }
        g
    }

    #[test]
    fn single_graph_merge_is_identity_shaped() {
        let app = Application::single(chain(0, 3), Time::from_ms(100), Time::from_ms(90));
        let merged = MergedApplication::merge(&app).unwrap();
        assert_eq!(merged.process_count(), 3);
        assert_eq!(merged.graph().edge_count(), 2);
        assert_eq!(merged.hyperperiod(), Time::from_ms(100));
        assert_eq!(
            merged.graph().process(ProcessId::new(0)).deadline,
            Some(Time::from_ms(90))
        );
    }

    #[test]
    fn multi_period_duplicates_activations() {
        let mut app = Application::new();
        app.push(GraphSpec::new(
            chain(0, 2),
            Time::from_ms(20),
            Time::from_ms(15),
        ));
        app.push(GraphSpec::new(
            chain(1, 3),
            Time::from_ms(40),
            Time::from_ms(40),
        ));
        let merged = MergedApplication::merge(&app).unwrap();
        // Hyper-period 40: first graph twice (2x2 processes), second once (3).
        assert_eq!(merged.hyperperiod(), Time::from_ms(40));
        assert_eq!(merged.process_count(), 2 * 2 + 3);
        assert_eq!(merged.graph().edge_count(), 2 + 2);

        // Second activation of the first graph released at 20 ms and due 35 ms.
        let p = merged
            .graph()
            .processes()
            .iter()
            .find(|p| {
                let o = merged.origin(p.id);
                o.graph_index == 0 && o.activation == 1 && o.local == ProcessId::new(0)
            })
            .unwrap();
        assert_eq!(p.release, Time::from_ms(20));
        assert_eq!(p.deadline, Some(Time::from_ms(35)));
        assert!(p.name.contains("@1"));
    }

    #[test]
    fn individual_deadline_tightens_graph_deadline() {
        let mut g = chain(0, 2);
        let first = ProcessId::new(0);
        g.process_mut(first).deadline = Some(Time::from_ms(10));
        let app = Application::single(g, Time::from_ms(100), Time::from_ms(90));
        let merged = MergedApplication::merge(&app).unwrap();
        assert_eq!(
            merged.graph().process(first).deadline,
            Some(Time::from_ms(10))
        );
    }

    /// Two one-process graphs whose periods are `short` and `long`.
    fn two_periods(short: Time, long: Time) -> Application {
        let mut app = Application::new();
        app.push(GraphSpec::new(chain(0, 1), short, short));
        app.push(GraphSpec::new(chain(1, 1), long, long));
        app
    }

    #[test]
    fn merged_graph_size_is_capped_before_allocation() {
        // A representable ~10⁹ ms hyperperiod would instantiate the
        // 1 ms graph ~10⁹ times: refused before anything is built.
        let app = two_periods(Time::from_ms(1), Time::from_ms(1_000_000_007));
        assert_eq!(
            MergedApplication::merge(&app),
            Err(ModelError::MergedGraphTooLarge {
                limit: MAX_MERGED_PROCESSES
            })
        );
        // The cap is inclusive: 2¹⁴ − 1 activations plus one process
        // merge, one more activation does not.
        let cap = MAX_MERGED_PROCESSES as u64;
        let at_cap = two_periods(Time::from_ms(1), Time::from_ms(cap - 1));
        assert_eq!(
            MergedApplication::merge(&at_cap).unwrap().process_count(),
            MAX_MERGED_PROCESSES
        );
        let past_cap = two_periods(Time::from_ms(1), Time::from_ms(cap));
        assert!(matches!(
            MergedApplication::merge(&past_cap),
            Err(ModelError::MergedGraphTooLarge { .. })
        ));
    }

    #[test]
    fn release_past_the_time_range_is_refused() {
        // Graph 0 activates twice in the 2 ms hyperperiod. Its second
        // activation starts at 1 ms, where a release 1 µs short of the
        // time range no longer fits.
        let mut late = chain(0, 1);
        late.process_mut(ProcessId::new(0)).release = Time::from_us(u64::MAX - 1);
        let mut app = Application::new();
        app.push(GraphSpec::new(late, Time::from_ms(1), Time::from_ms(1)));
        app.push(GraphSpec::new(
            chain(1, 1),
            Time::from_ms(2),
            Time::from_ms(2),
        ));
        assert_eq!(
            MergedApplication::merge(&app),
            Err(ModelError::ReleaseOverflow {
                graph: GraphId::new(0)
            })
        );
    }

    #[test]
    fn deadline_past_the_time_range_keeps_the_graph_deadline() {
        let mut g = chain(0, 1);
        g.process_mut(ProcessId::new(0)).deadline = Some(Time::MAX);
        let mut app = Application::new();
        app.push(GraphSpec::new(g, Time::from_ms(10), Time::from_ms(8)));
        app.push(GraphSpec::new(
            chain(1, 1),
            Time::from_ms(20),
            Time::from_ms(20),
        ));
        let merged = MergedApplication::merge(&app).unwrap();
        // The second activation (offset 10 ms) keeps its 18 ms graph
        // deadline instead of a wrapped individual one.
        let second = (0..merged.process_count())
            .map(|i| ProcessId::new(i as u32))
            .find(|&p| merged.origin(p).graph_index == 0 && merged.origin(p).activation == 1)
            .unwrap();
        assert_eq!(
            merged.graph().process(second).deadline,
            Some(Time::from_ms(18))
        );
    }

    #[test]
    fn remap_wcet_copies_per_activation() {
        let mut app = Application::new();
        app.push(GraphSpec::new(
            chain(0, 1),
            Time::from_ms(10),
            Time::from_ms(10),
        ));
        app.push(GraphSpec::new(
            chain(1, 1),
            Time::from_ms(20),
            Time::from_ms(20),
        ));
        let merged = MergedApplication::merge(&app).unwrap();
        // Graph 0 activates twice, graph 1 once: 3 merged processes.
        let t0: WcetTable = [(ProcessId::new(0), NodeId::new(0), Time::from_ms(5))]
            .into_iter()
            .collect();
        let t1: WcetTable = [(ProcessId::new(0), NodeId::new(0), Time::from_ms(7))]
            .into_iter()
            .collect();
        let merged_wcet = merged.remap_wcet(&[t0, t1]);
        assert_eq!(merged_wcet.len(), 3);
        // Find the graph-1 process and check it got 7 ms.
        let g1p = (0..3)
            .map(ProcessId::new)
            .find(|&p| merged.origin(p).graph_index == 1)
            .unwrap();
        assert_eq!(merged_wcet.get(g1p, NodeId::new(0)), Some(Time::from_ms(7)));
    }

    #[test]
    fn merge_rejects_invalid_application() {
        let app = Application::new();
        assert!(MergedApplication::merge(&app).is_err());
    }
}
