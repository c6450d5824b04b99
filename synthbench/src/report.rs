//! The result record one workload process prints as its last line.

use std::fmt::Write as _;

use crate::inputs::Workload;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub threads: usize,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the row table only.
    pub extra: Vec<Metric>,
    /// Per-instance exact counts (JSON objects), repeated bit for bit
    /// by every run of the same build.
    pub counts: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool, threads: usize) -> Self {
        Report {
            workload,
            seed,
            trace,
            threads,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            extra: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Counts one operation; a non-empty `violations` list fails it.
    pub fn record(&mut self, what: &str, violations: &[String]) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures
                    .push(format!("{what}: {}", violations.join("; ")));
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \
             \"env\": {}, \"failures\": [{}], \"metrics\": {}, \"extra\": {}, \"counts\": [{}]}}",
            quote(self.workload.name()),
            self.seed,
            self.trace,
            self.attempted,
            self.failed,
            env_json(self.threads),
            self.failures
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", "),
            metrics_json(&self.metrics),
            metrics_json(&self.extra),
            self.counts.join(", "),
        );
        out
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null` (the driver
/// script rejects them).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine and knob snapshot every result carries: available
/// parallelism, the thread count the workload resolved, and every
/// `FTDES_*` variable present.
fn env_json(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FTDES_"))
        .collect();
    vars.sort();
    let vars: Vec<String> = vars
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {threads}, \"ftdes_vars\": {{{}}}}}",
        vars.join(", ")
    )
}

/// Engine knobs change how (or whether) the measured code runs; the
/// benchmark refuses to measure while any is set. The remaining
/// `FTDES_*` variables configure other tools (the perf-gate bins, the
/// sweep orchestrator's crash injection) and are only recorded.
const HARMLESS: [&str; 5] = [
    "FTDES_SEEDS",
    "FTDES_TIME_MS",
    "FTDES_PERFGATE_OUT",
    "FTDES_PERFGATE_SECTION",
    "FTDES_CRASH_AT",
];

/// Names every engine knob set in the environment.
pub fn engine_knobs_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            (k.starts_with("FTDES_") && !HARMLESS.contains(&k.as_str())) || k == "RAYON_NUM_THREADS"
        })
        .collect();
    set.sort();
    set
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
