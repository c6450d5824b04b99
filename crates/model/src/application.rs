//! Applications: sets of periodic process graphs (paper §3).
//!
//! All processes and messages of a graph `Gi` share the graph period
//! `TGi`; a deadline `DGi ≤ TGi` is imposed on the graph. Graphs with
//! different periods are combined by [`crate::merge`] into a single
//! merged graph Γ covering the hyper-period (LCM of all periods).

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::graph::ProcessGraph;
use crate::time::Time;

/// One process graph together with its period and deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// The process graph `Gi`.
    pub graph: ProcessGraph,
    /// Activation period `TGi`.
    pub period: Time,
    /// Relative deadline `DGi ≤ TGi` on every activation.
    pub deadline: Time,
}

impl GraphSpec {
    /// Creates a spec; validity (`deadline ≤ period`) is checked by
    /// [`Application::validate`].
    #[must_use]
    pub fn new(graph: ProcessGraph, period: Time, deadline: Time) -> Self {
        GraphSpec {
            graph,
            period,
            deadline,
        }
    }
}

/// An application `A`: a set of periodic process graphs.
///
/// # Examples
///
/// ```
/// use ftdes_model::application::Application;
/// use ftdes_model::graph::{Message, ProcessGraph};
/// use ftdes_model::time::Time;
///
/// let mut g = ProcessGraph::new(0.into());
/// let a = g.add_process();
/// let b = g.add_process();
/// g.add_edge(a, b, Message::new(2))?;
/// let app = Application::single(g, Time::from_ms(200), Time::from_ms(160));
/// app.validate()?;
/// assert_eq!(app.process_count(), 2);
/// # Ok::<(), ftdes_model::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    specs: Vec<GraphSpec>,
}

impl Application {
    /// Creates an empty application.
    #[must_use]
    pub fn new() -> Self {
        Application { specs: Vec::new() }
    }

    /// Convenience constructor for the common single-graph case used
    /// throughout the paper's experiments.
    #[must_use]
    pub fn single(graph: ProcessGraph, period: Time, deadline: Time) -> Self {
        Application {
            specs: vec![GraphSpec::new(graph, period, deadline)],
        }
    }

    /// Adds a graph with its period and deadline.
    pub fn push(&mut self, spec: GraphSpec) {
        self.specs.push(spec);
    }

    /// The graph specs in insertion order.
    #[must_use]
    pub fn specs(&self) -> &[GraphSpec] {
        &self.specs
    }

    /// Total number of processes over all graphs (one activation each).
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.specs.iter().map(|s| s.graph.process_count()).sum()
    }

    /// The hyper-period: LCM of all graph periods.
    ///
    /// # Panics
    ///
    /// Panics if the application is empty, a period is zero or the LCM
    /// does not fit in a [`Time`]; call [`Application::validate`]
    /// first.
    #[must_use]
    pub fn hyperperiod(&self) -> Time {
        self.checked_hyperperiod()
            .expect("hyperperiod of an empty application, or past the time range")
    }

    /// The hyper-period, or `None` when the application is empty or
    /// the LCM of its periods does not fit in a [`Time`].
    fn checked_hyperperiod(&self) -> Option<Time> {
        let mut periods = self.specs.iter().map(|s| s.period);
        let first = periods.next()?;
        periods.try_fold(first, crate::time::lcm)
    }

    /// Validates every graph and the period/deadline relations.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found: empty application,
    /// cyclic graphs, `DGi > TGi`, or a hyper-period past the time
    /// range ([`ModelError::HyperperiodOverflow`]).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.specs.is_empty() {
            return Err(ModelError::Empty {
                what: "process graphs",
            });
        }
        for spec in &self.specs {
            spec.graph.validate()?;
            if spec.deadline > spec.period {
                return Err(ModelError::DeadlineExceedsPeriod {
                    graph: spec.graph.id(),
                });
            }
            if spec.period.is_zero() {
                return Err(ModelError::Empty {
                    what: "period (zero)",
                });
            }
        }
        if self.checked_hyperperiod().is_none() {
            return Err(ModelError::HyperperiodOverflow);
        }
        Ok(())
    }
}

impl Default for Application {
    fn default() -> Self {
        Application::new()
    }
}

impl FromIterator<GraphSpec> for Application {
    fn from_iter<I: IntoIterator<Item = GraphSpec>>(iter: I) -> Self {
        Application {
            specs: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Message;
    use crate::ids::GraphId;

    fn chain(id: u32, n: usize) -> ProcessGraph {
        let mut g = ProcessGraph::new(GraphId::new(id));
        let ps = g.add_processes(n);
        for w in ps.windows(2) {
            g.add_edge(w[0], w[1], Message::new(1)).unwrap();
        }
        g
    }

    #[test]
    fn single_graph_app() {
        let app = Application::single(chain(0, 3), Time::from_ms(100), Time::from_ms(80));
        assert!(app.validate().is_ok());
        assert_eq!(app.process_count(), 3);
        assert_eq!(app.hyperperiod(), Time::from_ms(100));
    }

    #[test]
    fn hyperperiod_is_lcm() {
        let mut app = Application::new();
        app.push(GraphSpec::new(
            chain(0, 2),
            Time::from_ms(20),
            Time::from_ms(20),
        ));
        app.push(GraphSpec::new(
            chain(1, 2),
            Time::from_ms(30),
            Time::from_ms(25),
        ));
        assert!(app.validate().is_ok());
        assert_eq!(app.hyperperiod(), Time::from_ms(60));
    }

    #[test]
    fn unrepresentable_hyperperiod_rejected() {
        // Coprime periods: the LCM, ~2.5·10²² µs, does not fit in u64.
        let mut app = Application::new();
        for (id, period) in [(0, 5_000_000_029), (1, 5_000_000_039)] {
            let period = Time::from_ms(period);
            app.push(GraphSpec::new(chain(id, 1), period, period));
        }
        assert_eq!(app.validate(), Err(ModelError::HyperperiodOverflow));
    }

    #[test]
    fn deadline_beyond_period_rejected() {
        let app = Application::single(chain(0, 2), Time::from_ms(50), Time::from_ms(60));
        assert!(matches!(
            app.validate(),
            Err(ModelError::DeadlineExceedsPeriod { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Application::new().validate(),
            Err(ModelError::Empty { .. })
        ));
    }

    #[test]
    fn collect_from_specs() {
        let app: Application = vec![
            GraphSpec::new(chain(0, 1), Time::from_ms(10), Time::from_ms(10)),
            GraphSpec::new(chain(1, 2), Time::from_ms(10), Time::from_ms(9)),
        ]
        .into_iter()
        .collect();
        assert_eq!(app.process_count(), 3);
    }
}
