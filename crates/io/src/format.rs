//! The `ftdes` problem-file format.
//!
//! A line-oriented text format in the spirit of TGFF task-graph
//! files, covering everything the optimizer needs:
//!
//! ```text
//! # comments run to end of line
//! architecture ETM ABS TCM
//! fault_model k=2 mu=2ms
//! bus slot_bytes=4 byte_time=500us         # order=ABS,ETM,TCM optional
//!
//! graph period=250ms deadline=250ms
//!   process sense release=0ms
//!   process compute deadline=200ms
//!   process act
//!   edge sense compute bytes=2
//!   edge compute act bytes=4
//!
//! wcet sense ETM 3ms        # node name or * for every node
//! wcet compute * 10ms
//! wcet act TCM 4ms
//! fix_mapping sense ETM
//! fix_policy compute replication
//! ```
//!
//! Times accept `ms` and `us` suffixes (a bare number means
//! milliseconds). Each (process, node) pair takes one WCET: a second
//! `wcet` line for a pair, by node name or through `*`, is rejected as
//! [`ErrorKind::Duplicate`], like a repeated node or process name.
//! Each process likewise takes at most one `fix_mapping` and one
//! `fix_policy` line, and a file at most one `architecture` line.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ftdes_core::problem::{Problem, HORIZON_HEADROOM_US, MAX_PROCESS_NODE_PAIRS};
use ftdes_model::application::{Application, GraphSpec};
use ftdes_model::architecture::Architecture;
use ftdes_model::design::DesignConstraints;
use ftdes_model::error::ModelError;
use ftdes_model::fault::FaultModel;
use ftdes_model::graph::{Message, Process, ProcessGraph};
use ftdes_model::ids::{GraphId, NodeId, ProcessId};
use ftdes_model::merge::MergedApplication;
use ftdes_model::policy::{MappingConstraint, PolicyConstraint};
use ftdes_model::time::Time;
use ftdes_model::wcet::WcetTable;
use ftdes_sched::BOOKING_HORIZON_ROUNDS;
use ftdes_ttp::config::BusConfig;

use crate::error::{ErrorKind, ParseError};

/// A fully parsed problem file, before graph merging.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// The architecture (node names in declaration order).
    pub arch: Architecture,
    /// The fault hypothesis.
    pub fault_model: FaultModel,
    /// The bus configuration.
    pub bus: BusConfig,
    /// The application graphs with periods/deadlines.
    pub application: Application,
    /// Per-graph WCET tables (indexed like the application's specs).
    pub wcet: Vec<WcetTable>,
    /// Constraints as `(graph index, local process, ...)`.
    pub fixed_mappings: Vec<(usize, ProcessId, NodeId)>,
    /// Policy constraints per `(graph index, local process)`.
    pub fixed_policies: Vec<(usize, ProcessId, PolicyConstraint)>,
}

impl ProblemSpec {
    /// Merges the application and assembles the [`Problem`] plus the
    /// merge bookkeeping (to map results back to source names).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] at line 0: kind
    /// [`ErrorKind::Structure`] when the model is structurally
    /// invalid (cyclic graphs, deadline beyond period, or a process
    /// with no WCET entry on any node), kind [`ErrorKind::Overflow`]
    /// when the hyperperiod or a release does not fit in a `Time`, the
    /// merged graph would exceed
    /// [`ftdes_model::merge::MAX_MERGED_PROCESSES`] processes, its
    /// processes × nodes would exceed [`MAX_PROCESS_NODE_PAIRS`], or the
    /// worst-case schedule horizon exceeds [`HORIZON_HEADROOM_US`] (see
    /// [`check_horizon`]).
    pub fn into_problem(self) -> Result<(Problem, MergedApplication), ParseError> {
        let merged = MergedApplication::merge(&self.application).map_err(|e| {
            let kind = match e {
                ModelError::HyperperiodOverflow
                | ModelError::MergedGraphTooLarge { .. }
                | ModelError::ReleaseOverflow { .. } => ErrorKind::Overflow,
                _ => ErrorKind::Structure,
            };
            ParseError::with_kind(0, kind, e.to_string())
        })?;
        check_pairs(merged.process_count(), self.arch.node_count())?;
        let wcet = merged.remap_wcet(&self.wcet);
        // A process nobody can execute would only surface as a solver
        // failure (or worse) much later; reject it here, by name.
        let ids = (0..merged.process_count()).map(|i| ProcessId::new(i as u32));
        wcet.validate(ids, &self.arch).map_err(|e| {
            let message = match e {
                ModelError::Unmappable { process } => format!(
                    "process {:?} has no WCET entry on any node",
                    merged.graph().process(process).name
                ),
                other => other.to_string(),
            };
            ParseError::with_kind(0, ErrorKind::Structure, message)
        })?;
        // Index the constraints by (graph, local process) once: every
        // activation of a process inherits its template's, and a later
        // entry for a process replaces an earlier one.
        let mappings: HashMap<_, _> = (self.fixed_mappings.iter())
            .map(|&(graph_index, local, node)| ((graph_index, local), node))
            .collect();
        let policies: HashMap<_, _> = (self.fixed_policies.iter())
            .map(|&(graph_index, local, policy)| ((graph_index, local), policy))
            .collect();
        let mut constraints = DesignConstraints::free(merged.process_count());
        for global in 0..merged.process_count() {
            let gid = ProcessId::new(global as u32);
            let origin = merged.origin(gid);
            let template = (origin.graph_index, origin.local);
            if let Some(&node) = mappings.get(&template) {
                constraints.set_mapping(gid, MappingConstraint::Fixed(node));
            }
            if let Some(&policy) = policies.get(&template) {
                constraints.set_policy(gid, policy);
            }
        }
        let problem = Problem::new(
            merged.graph().clone(),
            self.arch,
            wcet,
            self.fault_model,
            self.bus,
        )
        .with_constraints(constraints);
        check_horizon(&problem, merged.hyperperiod())?;
        Ok((problem, merged))
    }
}

/// Checks `problem` against the worst-case horizon budget
/// ([`Problem::fits_horizon_budget`]): an upper bound on its schedule
/// horizon must stay within [`HORIZON_HEADROOM_US`], so no scheduler
/// arithmetic on it can wrap [`Time`]. `hyperperiod` is the merged
/// application's (`Time::ZERO` for a generated instance, which has
/// none; its releases still count).
///
/// [`ProblemSpec::into_problem`] runs it with the problem's default
/// checkpoint levels. A caller that raises them
/// ([`Problem::with_max_checkpoints`]) must run it again on the
/// final problem, as the CLI does.
///
/// # Errors
///
/// A [`ParseError`] of kind [`ErrorKind::Overflow`] at line 0
/// when the bound exceeds the budget or overflows `u64` itself.
pub fn check_horizon(problem: &Problem, hyperperiod: Time) -> Result<(), ParseError> {
    if !problem.fits_horizon_budget(hyperperiod) {
        return Err(ParseError::with_kind(
            0,
            ErrorKind::Overflow,
            format!(
                "worst-case schedule horizon overflows its budget of {HORIZON_HEADROOM_US} us: \
                 the hyperperiod, k + 1 = {} worst-case executions of every process and \
                 {BOOKING_HORIZON_ROUNDS} TDMA rounds must fit in it",
                u64::from(problem.fault_model().k()) + 1,
            ),
        ));
    }
    Ok(())
}

/// Refuses `processes` × `nodes` past [`MAX_PROCESS_NODE_PAIRS`],
/// before anything dense is built over them.
fn check_pairs(processes: usize, nodes: usize) -> Result<(), ParseError> {
    if processes
        .checked_mul(nodes)
        .is_some_and(|pairs| pairs <= MAX_PROCESS_NODE_PAIRS)
    {
        return Ok(());
    }
    Err(ParseError::with_kind(
        0,
        ErrorKind::Overflow,
        format!(
            "{processes} processes on {nodes} nodes exceed the cap of \
             {MAX_PROCESS_NODE_PAIRS} process-node pairs"
        ),
    ))
}

/// Parses a problem file.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line, or
/// at line 0 (kind [`ErrorKind::Overflow`]) when the graphs' processes
/// × nodes exceed [`MAX_PROCESS_NODE_PAIRS`].
pub fn parse_problem(input: &str) -> Result<ProblemSpec, ParseError> {
    Parser::new().run(input)
}

/// How the scanner reads a character.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// Part of a token.
    Token,
    /// A separator: any [`char::is_whitespace`] character but `\n`.
    Space,
    /// `\n`, which ends a line.
    Newline,
    /// `#`, which ends a line's tokens.
    Comment,
}

/// The class and byte width of the character at byte `at` of `input`
/// (a character boundary), or `None` at the end. Only a byte ≥ 0x80
/// decodes a `char`, so U+0085, U+00A0, U+2028, U+3000 and the other
/// Unicode separators split tokens as they do for `split_whitespace`.
/// An ASCII byte keeps an arm of its own, where the compiler can drop
/// `is_whitespace`'s Unicode lookup.
#[inline]
fn class_at(input: &str, at: usize) -> Option<(Class, usize)> {
    let class = |c: char| {
        if c.is_whitespace() {
            Class::Space
        } else {
            Class::Token
        }
    };
    match *input.as_bytes().get(at)? {
        b'\n' => Some((Class::Newline, 1)),
        b'#' => Some((Class::Comment, 1)),
        b if b.is_ascii() => Some((class(char::from(b)), 1)),
        _ => {
            let c = input[at..].chars().next()?;
            Some((class(c), c.len_utf8()))
        }
    }
}

/// Splits a problem file or a sweep spec into numbered lines of tokens
/// in one forward pass over its bytes. It yields what `str::lines`, a cut at each
/// line's first `#` and `split_whitespace` yield: a line ends at `\n`,
/// and a `\r` before it is a separator like any other.
pub(crate) struct Scanner<'a> {
    input: &'a str,
    /// The first byte not yet read.
    at: usize,
    /// The number of the line `at` is on, from 1.
    line: usize,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Scanner {
            input,
            at: 0,
            line: 1,
        }
    }

    /// Reads the next line that has any tokens: returns its number and
    /// first token and fills `rest` with the others, or returns `None`
    /// at the end of the input.
    pub(crate) fn next_line(&mut self, rest: &mut Vec<&'a str>) -> Option<(usize, &'a str)> {
        rest.clear();
        let input = self.input;
        let mut at = self.at;
        let mut first = None;
        while let Some((class, width)) = class_at(input, at) {
            match class {
                Class::Token => {
                    let start = at;
                    at += width;
                    while let Some((Class::Token, width)) = class_at(input, at) {
                        at += width;
                    }
                    let token = &input[start..at];
                    match first {
                        None => first = Some(token),
                        Some(_) => rest.push(token),
                    }
                }
                Class::Space => at += width,
                Class::Comment => at = input[at..].find('\n').map_or(input.len(), |n| at + n),
                Class::Newline => {
                    at += 1;
                    let line = self.line;
                    self.line += 1;
                    if let Some(first) = first {
                        self.at = at;
                        return Some((line, first));
                    }
                }
            }
        }
        self.at = at;
        first.map(|first| (self.line, first))
    }
}

/// The names of a graph's processes map to their ids; every name and
/// node reference the parser keeps borrows the input.
struct GraphDraft<'a> {
    graph: ProcessGraph,
    period: Time,
    deadline: Time,
    names: HashMap<&'a str, ProcessId>,
}

/// A `wcet` line: its number, process, node (`None` for `*`) and time.
type WcetLine<'a> = (usize, &'a str, Option<&'a str>, Time);

struct Parser<'a> {
    node_names: HashMap<&'a str, NodeId>,
    arch: Option<Architecture>,
    fault_model: Option<FaultModel>,
    bus_slot_bytes: u32,
    bus_byte_time: Time,
    bus_order: Option<Vec<NodeId>>,
    graphs: Vec<GraphDraft<'a>>,
    wcet_lines: Vec<WcetLine<'a>>,
    fixed_mappings: Vec<(usize, &'a str, &'a str)>,
    fixed_policies: Vec<(usize, &'a str, &'a str)>,
}

impl<'a> Parser<'a> {
    fn new() -> Self {
        Parser {
            node_names: HashMap::new(),
            arch: None,
            fault_model: None,
            bus_slot_bytes: 0,
            bus_byte_time: Time::ZERO,
            bus_order: None,
            graphs: Vec::new(),
            wcet_lines: Vec::new(),
            fixed_mappings: Vec::new(),
            fixed_policies: Vec::new(),
        }
    }

    fn run(mut self, input: &'a str) -> Result<ProblemSpec, ParseError> {
        // One token buffer serves every line.
        let mut rest: Vec<&'a str> = Vec::new();
        let mut scanner = Scanner::new(input);
        while let Some((ln, directive)) = scanner.next_line(&mut rest) {
            match directive {
                "architecture" => self.architecture(ln, &rest)?,
                "fault_model" => self.fault_model(ln, &rest)?,
                "bus" => self.bus(ln, &rest)?,
                "graph" => self.graph(ln, &rest)?,
                "process" => self.process(ln, &rest)?,
                "edge" => self.edge(ln, &rest)?,
                "wcet" => self.wcet(ln, &rest)?,
                "fix_mapping" => self.fix_mapping(ln, &rest)?,
                "fix_policy" => self.fix_policy(ln, &rest)?,
                other => return Err(ParseError::new(ln, format!("unknown directive {other:?}"))),
            }
        }
        self.finish()
    }

    fn architecture(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        if self.arch.is_some() {
            return Err(ParseError::with_kind(
                ln,
                ErrorKind::Duplicate,
                "duplicate architecture line",
            ));
        }
        if rest.is_empty() {
            return Err(ParseError::new(
                ln,
                "architecture needs at least one node name",
            ));
        }
        for (i, &name) in rest.iter().enumerate() {
            if self
                .node_names
                .insert(name, NodeId::new(i as u32))
                .is_some()
            {
                return Err(ParseError::with_kind(
                    ln,
                    ErrorKind::Duplicate,
                    format!("duplicate node name {name:?}"),
                ));
            }
        }
        self.arch = Some(Architecture::with_names(rest.iter().copied()));
        Ok(())
    }

    fn fault_model(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let mut k = None;
        let mut mu = None;
        let mut chi = None;
        for tok in rest {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "k" => {
                    k = Some(
                        value
                            .parse::<u32>()
                            .ok()
                            .filter(|&k| k <= FaultModel::MAX_K)
                            .ok_or_else(|| {
                                ParseError::with_kind(
                                    ln,
                                    ErrorKind::InvalidValue,
                                    format!(
                                        "invalid fault count {value:?} (at most {})",
                                        FaultModel::MAX_K
                                    ),
                                )
                            })?,
                    );
                }
                "mu" => mu = Some(parse_time(ln, value)?),
                "chi" => chi = Some(parse_time(ln, value)?),
                _ => return Err(ParseError::new(ln, format!("unknown key {key:?}"))),
            }
        }
        let k = k.ok_or_else(|| ParseError::new(ln, "fault_model needs k="))?;
        let mu = mu.ok_or_else(|| ParseError::new(ln, "fault_model needs mu="))?;
        // chi is optional: pre-checkpointing problem files stay valid.
        self.fault_model =
            Some(FaultModel::new(k, mu).with_checkpoint_overhead(chi.unwrap_or_default()));
        Ok(())
    }

    fn bus(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        for tok in rest {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "slot_bytes" => {
                    self.bus_slot_bytes = value.parse().map_err(|_| {
                        ParseError::with_kind(
                            ln,
                            ErrorKind::InvalidValue,
                            format!("invalid slot_bytes {value:?}"),
                        )
                    })?;
                }
                "byte_time" => self.bus_byte_time = parse_time(ln, value)?,
                "order" => {
                    let order = value
                        .split(',')
                        .map(|name| self.node(ln, name))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.bus_order = Some(order);
                }
                _ => return Err(ParseError::new(ln, format!("unknown key {key:?}"))),
            }
        }
        Ok(())
    }

    fn graph(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let mut period = None;
        let mut deadline = None;
        for tok in rest {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "period" => period = Some(parse_time(ln, value)?),
                "deadline" => deadline = Some(parse_time(ln, value)?),
                _ => return Err(ParseError::new(ln, format!("unknown key {key:?}"))),
            }
        }
        let period = period.ok_or_else(|| ParseError::new(ln, "graph needs period="))?;
        let deadline = deadline.unwrap_or(period);
        self.graphs.push(GraphDraft {
            graph: ProcessGraph::new(GraphId::new(self.graphs.len() as u32)),
            period,
            deadline,
            names: HashMap::new(),
        });
        Ok(())
    }

    fn current_graph(&mut self, ln: usize) -> Result<&mut GraphDraft<'a>, ParseError> {
        self.graphs
            .last_mut()
            .ok_or_else(|| ParseError::new(ln, "directive before any graph"))
    }

    fn process(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let Some((&name, opts)) = rest.split_first() else {
            return Err(ParseError::new(ln, "process needs a name"));
        };
        let mut release = Time::ZERO;
        let mut deadline = None;
        for tok in opts {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "release" => release = parse_time(ln, value)?,
                "deadline" => deadline = Some(parse_time(ln, value)?),
                _ => return Err(ParseError::new(ln, format!("unknown key {key:?}"))),
            }
        }
        let draft = self.current_graph(ln)?;
        let Entry::Vacant(slot) = draft.names.entry(name) else {
            return Err(ParseError::with_kind(
                ln,
                ErrorKind::Duplicate,
                format!("duplicate process {name:?}"),
            ));
        };
        let id = ProcessId::new(draft.graph.process_count() as u32);
        slot.insert(id);
        draft.graph.push_process(Process {
            id,
            name: name.to_owned(),
            release,
            deadline,
        });
        Ok(())
    }

    fn edge(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let [from, to, opts @ ..] = rest else {
            return Err(ParseError::new(ln, "edge needs <from> <to>"));
        };
        let mut bytes = 1u32;
        for tok in opts {
            let (key, value) = split_kv(ln, tok)?;
            match key {
                "bytes" => {
                    bytes = value.parse().map_err(|_| {
                        ParseError::with_kind(
                            ln,
                            ErrorKind::InvalidValue,
                            format!("invalid bytes {value:?}"),
                        )
                    })?;
                }
                _ => return Err(ParseError::new(ln, format!("unknown key {key:?}"))),
            }
        }
        let draft = self.current_graph(ln)?;
        let f = *draft.names.get(*from).ok_or_else(|| {
            ParseError::with_kind(
                ln,
                ErrorKind::UnknownReference,
                format!("unknown process {from:?}"),
            )
        })?;
        let t = *draft.names.get(*to).ok_or_else(|| {
            ParseError::with_kind(
                ln,
                ErrorKind::UnknownReference,
                format!("unknown process {to:?}"),
            )
        })?;
        draft
            .graph
            .add_edge(f, t, Message::new(bytes))
            .map_err(|e| ParseError::with_kind(ln, ErrorKind::Structure, e.to_string()))?;
        Ok(())
    }

    fn wcet(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let &[process, node, time] = rest else {
            return Err(ParseError::new(ln, "wcet needs <process> <node|*> <time>"));
        };
        let t = parse_time(ln, time)?;
        let node = (node != "*").then_some(node);
        self.wcet_lines.push((ln, process, node, t));
        Ok(())
    }

    fn fix_mapping(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let &[process, node] = rest else {
            return Err(ParseError::new(ln, "fix_mapping needs <process> <node>"));
        };
        self.fixed_mappings.push((ln, process, node));
        Ok(())
    }

    fn fix_policy(&mut self, ln: usize, rest: &[&'a str]) -> Result<(), ParseError> {
        let &[process, policy] = rest else {
            return Err(ParseError::new(ln, "fix_policy needs <process> <policy>"));
        };
        self.fixed_policies.push((ln, process, policy));
        Ok(())
    }

    fn node(&self, ln: usize, name: &str) -> Result<NodeId, ParseError> {
        self.node_names.get(name).copied().ok_or_else(|| {
            ParseError::with_kind(
                ln,
                ErrorKind::UnknownReference,
                format!("unknown node {name:?}"),
            )
        })
    }

    /// Finds the unique graph declaring `name`.
    fn resolve(&self, ln: usize, name: &str) -> Result<(usize, ProcessId), ParseError> {
        let mut found = None;
        for (gi, draft) in self.graphs.iter().enumerate() {
            if let Some(&p) = draft.names.get(name) {
                if found.is_some() {
                    return Err(ParseError::with_kind(
                        ln,
                        ErrorKind::Duplicate,
                        format!("process name {name:?} is ambiguous across graphs"),
                    ));
                }
                found = Some((gi, p));
            }
        }
        found.ok_or_else(|| {
            ParseError::with_kind(
                ln,
                ErrorKind::UnknownReference,
                format!("unknown process {name:?}"),
            )
        })
    }

    fn finish(mut self) -> Result<ProblemSpec, ParseError> {
        let arch = self
            .arch
            .take()
            .ok_or_else(|| ParseError::new(0, "missing architecture directive"))?;
        let fault_model = self
            .fault_model
            .ok_or_else(|| ParseError::new(0, "missing fault_model directive"))?;
        if self.graphs.is_empty() {
            return Err(ParseError::new(0, "missing graph directive"));
        }

        // A `wcet <process> *` line fills a row of every node: bound
        // the rows before expanding them (merging only adds processes,
        // so `into_problem` checks the merged graph again).
        let processes = self.graphs.iter().map(|d| d.graph.process_count()).sum();
        check_pairs(processes, arch.node_count())?;

        // WCET tables per graph. Writers group the lines of a process,
        // so each run of lines naming one process resolves it once, and
        // list its nodes in declaration order, so a line's node is
        // first compared with the one after the previous line's.
        let mut wcet: Vec<WcetTable> = self.graphs.iter().map(|_| WcetTable::new()).collect();
        let mut resolved: Option<(&str, usize, ProcessId)> = None;
        let mut last_node: Option<NodeId> = None;
        for &(ln, process, node, t) in &self.wcet_lines {
            let (gi, p) = match resolved {
                Some((name, gi, p)) if name == process => (gi, p),
                _ => {
                    let (gi, p) = self.resolve(ln, process)?;
                    resolved = Some((process, gi, p));
                    (gi, p)
                }
            };
            // A pair gets one WCET: a second line for it, by name or
            // through `*`, is a duplicate rather than an override.
            let duplicate = |n: NodeId| {
                ParseError::with_kind(
                    ln,
                    ErrorKind::Duplicate,
                    format!(
                        "duplicate wcet for process {process:?} on node {:?}",
                        arch.node(n).name
                    ),
                )
            };
            match node {
                Some(name) => {
                    let next = NodeId::new(
                        last_node.map_or(0, |n| (n.index() + 1) % arch.node_count()) as u32,
                    );
                    let n = if arch.node(next).name == name {
                        next
                    } else {
                        self.node(ln, name)?
                    };
                    last_node = Some(n);
                    if wcet[gi].set(p, n, t).is_some() {
                        return Err(duplicate(n));
                    }
                }
                None => {
                    for n in arch.node_ids() {
                        if wcet[gi].set(p, n, t).is_some() {
                            return Err(duplicate(n));
                        }
                    }
                }
            }
        }

        // Bus configuration: default the slot size to the largest
        // message, the byte time to 2.5 ms (the paper's figures).
        let largest = self
            .graphs
            .iter()
            .flat_map(|d| d.graph.edges())
            .map(|e| e.message.size)
            .max()
            .unwrap_or(1)
            .max(1);
        let slot_bytes = if self.bus_slot_bytes == 0 {
            largest
        } else {
            self.bus_slot_bytes
        };
        let byte_time = if self.bus_byte_time.is_zero() {
            ftdes_ttp::DEFAULT_BYTE_TIME
        } else {
            self.bus_byte_time
        };
        let bus = match self.bus_order.take() {
            Some(order) => BusConfig::with_order(order, slot_bytes, byte_time),
            None => BusConfig::initial(&arch, slot_bytes, byte_time),
        }
        .map_err(|e| ParseError::with_kind(0, ErrorKind::Structure, e.to_string()))?;

        // Constraints: a process takes one `fix_mapping` and one
        // `fix_policy` line; a second is a duplicate rather than an
        // override.
        let mut first_lines = HashMap::new();
        let mut fixed_mappings = Vec::with_capacity(self.fixed_mappings.len());
        for &(ln, process, node) in &self.fixed_mappings {
            let (gi, p) = self.resolve(ln, process)?;
            if let Some(first) = first_lines.insert((gi, p), ln) {
                return Err(duplicate_fix("fix_mapping", process, ln, first));
            }
            fixed_mappings.push((gi, p, self.node(ln, node)?));
        }
        first_lines.clear();
        let mut fixed_policies = Vec::with_capacity(self.fixed_policies.len());
        for &(ln, process, policy) in &self.fixed_policies {
            let (gi, p) = self.resolve(ln, process)?;
            if let Some(first) = first_lines.insert((gi, p), ln) {
                return Err(duplicate_fix("fix_policy", process, ln, first));
            }
            let c = match policy {
                "reexecution" => PolicyConstraint::Reexecution,
                "replication" => PolicyConstraint::Replication,
                other => {
                    return Err(ParseError::with_kind(
                        ln,
                        ErrorKind::InvalidValue,
                        format!("unknown policy {other:?} (use reexecution or replication)"),
                    ))
                }
            };
            fixed_policies.push((gi, p, c));
        }

        let application: Application = self
            .graphs
            .into_iter()
            .map(|d| GraphSpec::new(d.graph, d.period, d.deadline))
            .collect();

        Ok(ProblemSpec {
            arch,
            fault_model,
            bus,
            application,
            wcet,
            fixed_mappings,
            fixed_policies,
        })
    }
}

/// A second `directive` line at `ln` for `process`, whose first is at
/// line `first`.
fn duplicate_fix(directive: &str, process: &str, ln: usize, first: usize) -> ParseError {
    ParseError::with_kind(
        ln,
        ErrorKind::Duplicate,
        format!("duplicate {directive} for process {process:?} (first at line {first})"),
    )
}

fn split_kv(ln: usize, tok: &str) -> Result<(&str, &str), ParseError> {
    tok.split_once('=')
        .ok_or_else(|| ParseError::new(ln, format!("expected key=value, got {tok:?}")))
}

fn parse_time(ln: usize, value: &str) -> Result<Time, ParseError> {
    let (digits, scale) = if let Some(v) = value.strip_suffix("us") {
        (v, 1u64)
    } else if let Some(v) = value.strip_suffix("ms") {
        (v, 1_000)
    } else {
        (value, 1_000)
    };
    // u64 parsing rejects negative and non-finite spellings ("-5ms",
    // "NaN", "inf") outright; the multiply is checked so a hostile
    // magnitude is an error, not a wrap-around.
    let n: u64 = digits.parse().map_err(|_| {
        ParseError::with_kind(
            ln,
            ErrorKind::InvalidValue,
            format!("invalid time {value:?}"),
        )
    })?;
    let us = n.checked_mul(scale).ok_or_else(|| {
        ParseError::with_kind(ln, ErrorKind::Overflow, format!("time {value:?} overflows"))
    })?;
    Ok(Time::from_us(us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pipeline the scanner replaced: `lines`, a cut at the first
    /// `#` and `split_whitespace`, numbering lines from 1.
    fn oracle(input: &str) -> Vec<(usize, Vec<&str>)> {
        (input.lines().enumerate())
            .filter_map(|(i, line)| {
                let body = line.split_once('#').map_or(line, |(body, _)| body);
                let tokens: Vec<&str> = body.split_whitespace().collect();
                (!tokens.is_empty()).then_some((i + 1, tokens))
            })
            .collect()
    }

    fn scanned(input: &str) -> Vec<(usize, Vec<&str>)> {
        let mut scanner = Scanner::new(input);
        let mut rest = Vec::new();
        let mut lines = Vec::new();
        while let Some((ln, first)) = scanner.next_line(&mut rest) {
            lines.push((ln, [&[first], rest.as_slice()].concat()));
        }
        lines
    }

    /// Directive words, names, comments, every line end, every
    /// Unicode separator class and multi-byte letters, plus
    /// characters that are not whitespace though they look like it
    /// (U+001C, U+200B, U+FEFF).
    const PIECES: &[&str] = &[
        "architecture",
        "wcet",
        "edge",
        "p1",
        "N2",
        "15ms",
        "k=2",
        "#",
        "x#y",
        "\n",
        "\r\n",
        "\r",
        "\t",
        " ",
        "\u{b}",
        "\u{c}",
        "\u{1c}",
        "\u{85}",
        "\u{a0}",
        "\u{1680}",
        "\u{2003}",
        "\u{2028}",
        "\u{2029}",
        "\u{202f}",
        "\u{3000}",
        "\u{200b}",
        "\u{feff}",
        "é",
        "λ",
        "名",
        "😀",
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn scanner_matches_the_line_split_oracle(
            picks in collection::vec(0..PIECES.len(), 0..80),
        ) {
            let input: String = picks.iter().map(|&i| PIECES[i]).collect();
            prop_assert_eq!(scanned(&input), oracle(&input), "input {:?}", input);
        }
    }

    const SAMPLE: &str = r"
# a tiny two-node system
architecture N1 N2
fault_model k=1 mu=10ms
bus slot_bytes=4 byte_time=2500us

graph period=300ms deadline=260ms
  process src
  process mid release=5ms
  process dst deadline=250ms
  edge src mid bytes=2
  edge mid dst bytes=4

wcet src * 20ms
wcet mid N1 30ms
wcet mid N2 35ms
wcet dst * 25ms
fix_mapping src N1
fix_policy dst reexecution
";

    #[test]
    fn parses_complete_file() {
        let spec = parse_problem(SAMPLE).unwrap();
        assert_eq!(spec.arch.node_count(), 2);
        assert_eq!(spec.fault_model.k(), 1);
        assert_eq!(spec.application.process_count(), 3);
        assert_eq!(spec.bus.slot_length(), Time::from_ms(10));
        assert_eq!(spec.wcet[0].len(), 2 + 2 + 2);
        assert_eq!(spec.fixed_mappings.len(), 1);
        assert_eq!(spec.fixed_policies.len(), 1);
    }

    #[test]
    fn converts_to_problem() {
        let spec = parse_problem(SAMPLE).unwrap();
        let (problem, merged) = spec.into_problem().unwrap();
        assert_eq!(problem.process_count(), 3);
        assert_eq!(merged.hyperperiod(), Time::from_ms(300));
        // Constraint carried over to the merged process.
        let src = ProcessId::new(0);
        assert_eq!(
            problem.constraints().mapping(src),
            MappingConstraint::Fixed(NodeId::new(0))
        );
        // Individual deadline tightened the graph deadline.
        let dst = merged
            .graph()
            .processes()
            .iter()
            .find(|p| p.name == "dst")
            .unwrap();
        assert_eq!(dst.deadline, Some(Time::from_ms(250)));
        // Release times survive.
        let mid = merged
            .graph()
            .processes()
            .iter()
            .find(|p| p.name == "mid")
            .unwrap();
        assert_eq!(mid.release, Time::from_ms(5));
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = parse_problem("flux_capacitor on").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown directive"));
    }

    #[test]
    fn rejects_unknown_process_in_edge() {
        let text = "architecture A\nfault_model k=0 mu=0ms\ngraph period=10ms\nprocess x\nedge x y";
        let err = parse_problem(text).unwrap_err();
        assert_eq!(err.line, 5);
    }

    #[test]
    fn rejects_duplicate_node() {
        let err = parse_problem("architecture A A").unwrap_err();
        assert!(err.message.contains("duplicate node"));
    }

    #[test]
    fn default_bus_sizes_to_largest_message() {
        let text = "
architecture A B
fault_model k=0 mu=0ms
graph period=10ms
process x
process y
edge x y bytes=3
wcet x * 1ms
wcet y * 1ms
";
        let spec = parse_problem(text).unwrap();
        assert_eq!(spec.bus.slot_bytes(), 3);
        assert_eq!(spec.bus.byte_time(), ftdes_ttp::DEFAULT_BYTE_TIME);
    }

    #[test]
    fn time_suffixes() {
        assert_eq!(parse_time(1, "5ms").unwrap(), Time::from_ms(5));
        assert_eq!(parse_time(1, "1500us").unwrap(), Time::from_us(1500));
        assert_eq!(parse_time(1, "7").unwrap(), Time::from_ms(7));
        assert!(parse_time(1, "abc").is_err());
    }

    #[test]
    fn bus_order_override() {
        let text = "
architecture A B
fault_model k=0 mu=0ms
bus order=B,A
graph period=10ms
process x
wcet x * 1ms
";
        let spec = parse_problem(text).unwrap();
        assert_eq!(spec.bus.slot_of_node(NodeId::new(1)), 0, "B first");
    }

    #[test]
    fn multi_graph_resolution() {
        let text = "
architecture A
fault_model k=0 mu=0ms
graph period=20ms
process x
graph period=40ms
process y
wcet x * 1ms
wcet y * 2ms
";
        let spec = parse_problem(text).unwrap();
        let (problem, merged) = spec.into_problem().unwrap();
        assert_eq!(merged.hyperperiod(), Time::from_ms(40));
        // x activates twice, y once.
        assert_eq!(problem.process_count(), 3);
    }
}
