//! Writing problem files — the inverse of [`crate::format`].
//!
//! Enables round-tripping generated workloads to disk so experiments
//! are archivable and reproducible outside this process.

use std::fmt::Write as _;

use ftdes_model::policy::PolicyConstraint;
use ftdes_model::time::Time;

use crate::format::ProblemSpec;

/// Renders `spec` in the problem-file format parsed by
/// [`crate::format::parse_problem`].
///
/// Process names are taken from the graphs; they must be unique
/// across graphs for the file to parse back (the parser resolves
/// `wcet` lines by name).
#[must_use]
pub fn write_problem(spec: &ProblemSpec) -> String {
    // Every line is written in place, names borrowed. The per-process,
    // per-edge and per-WCET lines bypass `write!`'s formatting
    // machinery, which took two thirds of the writer's time.
    let mut out = String::new();
    let node_names: Vec<&str> = spec.arch.nodes().iter().map(|n| n.name.as_str()).collect();

    let _ = writeln!(out, "architecture {}", node_names.join(" "));
    let fm = &spec.fault_model;
    let _ = write!(out, "fault_model k={} mu={}", fm.k(), fm.mu());
    if !fm.chi().is_zero() {
        let _ = write!(out, " chi={}", fm.chi());
    }
    let _ = write!(
        out,
        "\nbus slot_bytes={} byte_time={} order=",
        spec.bus.slot_bytes(),
        spec.bus.byte_time()
    );
    for (i, node) in spec.bus.slot_order().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(node_names[node.index()]);
    }
    out.push('\n');

    for (gi, g) in spec.application.specs().iter().enumerate() {
        let _ = writeln!(out, "\ngraph period={} deadline={}", g.period, g.deadline);
        for p in g.graph.processes() {
            out.push_str("  process ");
            out.push_str(&p.name);
            if !p.release.is_zero() {
                out.push_str(" release=");
                push_time(&mut out, p.release);
            }
            if let Some(d) = p.deadline {
                out.push_str(" deadline=");
                push_time(&mut out, d);
            }
            out.push('\n');
        }
        for e in g.graph.edges() {
            out.push_str("  edge ");
            out.push_str(&g.graph.process(e.from).name);
            out.push(' ');
            out.push_str(&g.graph.process(e.to).name);
            out.push_str(" bytes=");
            push_u64(&mut out, u64::from(e.message.size));
            out.push('\n');
        }
        out.push('\n');
        for p in g.graph.processes() {
            for (node, c) in spec.wcet[gi].eligible_nodes(p.id) {
                out.push_str("wcet ");
                out.push_str(&p.name);
                out.push(' ');
                out.push_str(node_names[node.index()]);
                out.push(' ');
                push_time(&mut out, c);
                out.push('\n');
            }
        }
    }

    for &(gi, p, node) in &spec.fixed_mappings {
        let name = &spec.application.specs()[gi].graph.process(p).name;
        let _ = writeln!(out, "fix_mapping {name} {}", node_names[node.index()]);
    }
    for &(gi, p, c) in &spec.fixed_policies {
        let name = &spec.application.specs()[gi].graph.process(p).name;
        let policy = match c {
            PolicyConstraint::Reexecution => "reexecution",
            PolicyConstraint::Replication => "replication",
            PolicyConstraint::Free => continue,
        };
        let _ = writeln!(out, "fix_policy {name} {policy}");
    }
    out
}

/// Appends `t` exactly as `Time`'s `Display` renders it (`<n>ms` for
/// whole milliseconds, `<n>us` otherwise), the spelling
/// [`crate::format::parse_problem`] reads back.
fn push_time(out: &mut String, t: Time) {
    let us = t.as_us();
    if us.is_multiple_of(1_000) {
        push_u64(out, us / 1_000);
        out.push_str("ms");
    } else {
        push_u64(out, us);
        out.push_str("us");
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_problem;

    const SAMPLE: &str = r"
architecture ECU1 ECU2
fault_model k=2 mu=1500us
bus slot_bytes=4 byte_time=2500us order=ECU2,ECU1

graph period=100ms deadline=90ms
  process a release=1ms
  process b deadline=80ms
  edge a b bytes=3

wcet a ECU1 10ms
wcet a ECU2 12ms
wcet b ECU1 20ms
fix_mapping a ECU1
fix_policy b reexecution
";

    #[test]
    fn round_trip_preserves_structure() {
        let spec = parse_problem(SAMPLE).unwrap();
        let written = write_problem(&spec);
        let reparsed = parse_problem(&written)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{written}"));

        assert_eq!(reparsed.arch, spec.arch);
        assert_eq!(reparsed.fault_model, spec.fault_model);
        assert_eq!(reparsed.bus, spec.bus);
        assert_eq!(reparsed.wcet, spec.wcet);
        assert_eq!(reparsed.fixed_mappings.len(), 1);
        assert_eq!(reparsed.fixed_policies.len(), 1);
        // Graph structure identical (names, releases, deadlines, edges).
        let a = &spec.application.specs()[0].graph;
        let b = &reparsed.application.specs()[0].graph;
        assert_eq!(a, b);
    }

    #[test]
    fn times_render_like_display() {
        let max = u64::MAX;
        for us in [0, 1, 9, 10, 999, 1_000, 1_500, 2_000_000, max - 615, max] {
            let t = Time::from_us(us);
            let mut out = String::new();
            push_time(&mut out, t);
            assert_eq!(out, t.to_string(), "{us} us");
        }
    }

    #[test]
    fn written_problems_solve() {
        let spec = parse_problem(SAMPLE).unwrap();
        let written = write_problem(&spec);
        let (problem, _) = parse_problem(&written).unwrap().into_problem().unwrap();
        assert_eq!(problem.process_count(), 2);
        let outcome = ftdes_core::optimize(
            &problem,
            ftdes_core::Strategy::Mxr,
            &ftdes_core::SearchConfig::default(),
        )
        .unwrap();
        assert!(outcome.length() > ftdes_model::time::Time::ZERO);
    }
}
