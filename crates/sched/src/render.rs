//! Human-readable rendering of schedules: per-node tables, the bus
//! MEDL, and an ASCII Gantt chart in the style of the paper's
//! figures. Nodes appear under the names the architecture declares.

use std::fmt::Write as _;

use ftdes_model::architecture::Architecture;
use ftdes_model::graph::ProcessGraph;
use ftdes_model::ids::NodeId;
use ftdes_model::time::Time;

use crate::schedule::Schedule;

/// Renders the per-node schedule tables as text.
///
/// Each line shows the instance (process name / replica), its
/// fault-free window and its worst-case finish.
#[must_use]
pub fn render_tables(schedule: &Schedule, graph: &ProcessGraph, arch: &Architecture) -> String {
    let mut out = String::new();
    for node in 0..schedule.node_count() {
        let node = NodeId::new(node as u32);
        let _ = writeln!(out, "{}:", arch.node(node).name);
        for &iid in schedule.node_table(node) {
            let s = schedule.slot(iid);
            let name = &graph.process(s.instance.process).name;
            let _ = writeln!(
                out,
                "  {:<18} [{:>8} .. {:>8}]  wc {:>8}",
                format!("{name}/{}", s.instance.replica + 1),
                s.start.to_string(),
                s.finish.to_string(),
                s.worst_finish.to_string(),
            );
        }
    }
    out
}

/// Renders the MEDL as text: one line per frame with the packed
/// messages.
#[must_use]
pub fn render_medl(schedule: &Schedule, arch: &Architecture) -> String {
    let mut out = String::new();
    for entry in schedule.medl() {
        let msgs: Vec<String> = entry
            .messages
            .iter()
            .map(|t| format!("{}/{}", t.edge, t.sender_replica + 1))
            .collect();
        let _ = writeln!(
            out,
            "round {:>3} slot {} ({}) [{:>8} .. {:>8}]: {}",
            entry.round,
            entry.slot,
            arch.node(entry.sender).name,
            entry.start.to_string(),
            entry.end.to_string(),
            msgs.join(", ")
        );
    }
    out
}

/// Renders an ASCII Gantt chart of the fault-free schedule, one row
/// per node plus one for the bus, `width` characters across the
/// worst-case schedule length.
///
/// Execution is drawn with the first letter of the process name (`#`
/// for unnamed), re-execution slack implicitly shows as the gap
/// between the last fault-free finish and the chart's right edge.
/// Row labels are right-aligned to the longest node name (at least
/// four columns).
#[must_use]
pub fn render_gantt(
    schedule: &Schedule,
    graph: &ProcessGraph,
    arch: &Architecture,
    width: usize,
) -> String {
    let width = width.max(10);
    let label = arch
        .nodes()
        .iter()
        .map(|n| n.name.chars().count())
        .fold(4, usize::max);
    let horizon = schedule.length().max(Time::from_us(1));
    let col = |t: Time| -> usize {
        ((t.as_us() as u128 * width as u128) / horizon.as_us() as u128) as usize
    };
    let mut out = String::new();
    for node in 0..schedule.node_count() {
        let node = NodeId::new(node as u32);
        let mut row = vec![b'.'; width];
        for &iid in schedule.node_table(node) {
            let s = schedule.slot(iid);
            let c = graph
                .process(s.instance.process)
                .name
                .chars()
                .next()
                .filter(char::is_ascii)
                .map_or(b'#', |c| c as u8);
            let (a, b) = (col(s.start), col(s.finish).min(width));
            for cell in &mut row[a..b.max(a + 1).min(width)] {
                *cell = c;
            }
        }
        let name = &arch.node(node).name;
        let _ = writeln!(out, "{name:>label$} |{}|", String::from_utf8_lossy(&row));
    }
    // Bus row: frames marked with '='.
    let mut row = vec![b'.'; width];
    for entry in schedule.medl() {
        let (a, b) = (col(entry.start), col(entry.end).min(width));
        for cell in &mut row[a..b.max(a + 1).min(width)] {
            *cell = b'=';
        }
    }
    let _ = writeln!(out, "{:>label$} |{}|", "bus", String::from_utf8_lossy(&row));
    let _ = writeln!(
        out,
        "{:label$}  0{:>w$}",
        "",
        schedule.length().to_string(),
        w = width
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;
    use ftdes_model::architecture::Architecture;
    use ftdes_model::design::{Design, ProcessDesign};
    use ftdes_model::fault::FaultModel;
    use ftdes_model::graph::{Message, ProcessGraph};
    use ftdes_model::ids::NodeId;
    use ftdes_model::policy::FtPolicy;
    use ftdes_model::wcet::WcetTable;
    use ftdes_ttp::config::BusConfig;

    fn sample() -> (ProcessGraph, Architecture, Schedule) {
        let mut g = ProcessGraph::new(0.into());
        let a = g.add_process();
        let b = g.add_process();
        g.add_edge(a, b, Message::new(4)).unwrap();
        g.process_mut(a).name = "acq".into();
        g.process_mut(b).name = "ctl".into();
        let wcet: WcetTable = [
            (a, NodeId::new(0), Time::from_ms(30)),
            (b, NodeId::new(1), Time::from_ms(20)),
        ]
        .into_iter()
        .collect();
        let arch = Architecture::with_names(["ECU1", "ECU2"]);
        let fm = FaultModel::new(1, Time::from_ms(5));
        let bus = BusConfig::initial(&arch, 4, Time::from_us(2_500)).unwrap();
        let design = Design::from_decisions(vec![
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(0)]).unwrap(),
            ProcessDesign::new(FtPolicy::reexecution(&fm), vec![NodeId::new(1)]).unwrap(),
        ]);
        let s = list_schedule(&g, &arch, &wcet, &fm, &bus, &design).unwrap();
        (g, arch, s)
    }

    #[test]
    fn tables_mention_names_and_nodes() {
        let (g, arch, s) = sample();
        let text = render_tables(&s, &g, &arch);
        assert!(text.contains("ECU1:"));
        assert!(text.contains("ECU2:"));
        assert!(
            !text.contains("N0"),
            "nodes go by their declared names: {text}"
        );
        assert!(text.contains("acq/1"));
        assert!(text.contains("ctl/1"));
        assert!(text.contains("wc"));
    }

    #[test]
    fn medl_lists_frames() {
        let (_, arch, s) = sample();
        let text = render_medl(&s, &arch);
        assert!(text.contains("round"));
        assert!(text.contains("(ECU1)"), "sender by name: {text}");
        assert!(text.contains("m0/1"));
    }

    #[test]
    fn gantt_has_one_row_per_node_plus_bus() {
        let (g, arch, s) = sample();
        let text = render_gantt(&s, &g, &arch, 60);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 1 + 1, "two nodes, bus, axis");
        assert!(lines[0].starts_with("ECU1 |"), "{text}");
        assert!(lines[1].starts_with("ECU2 |"), "{text}");
        assert!(lines[0].contains('a'), "acq drawn with its initial");
        assert!(lines[2].starts_with(" bus |"), "{text}");
        assert!(lines[2].contains('='), "bus frame drawn");
        assert!(
            lines[3].starts_with("      0"),
            "axis under the chart: {text}"
        );
    }

    #[test]
    fn gantt_aligns_rows_under_long_node_names() {
        let (g, _, s) = sample();
        let arch = Architecture::with_names(["gateway", "ECU2"]);
        let text = render_gantt(&s, &g, &arch, 60);
        let bars: Vec<usize> = text.lines().take(3).map(|l| l.find('|').unwrap()).collect();
        assert_eq!(bars, vec![8, 8, 8], "{text}");
    }

    #[test]
    fn gantt_handles_tiny_width() {
        let (g, arch, s) = sample();
        // Degenerate widths are clamped, not panicking.
        let text = render_gantt(&s, &g, &arch, 0);
        assert!(!text.is_empty());
    }
}
