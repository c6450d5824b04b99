//! `synthbench` — one workload of the fixed-work synthesis benchmark.
//!
//! ```text
//! synthbench --workload <paper_4n|paper_12n|comm_stress|cruise_deadline>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON record as its last line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`), the operation
//! counts, the oracle's failures, exact per-instance counts and the
//! environment. `run.py` builds this binary, runs each workload in a
//! child process of its own and turns the record into the benchmark's
//! output. See `README.md` for what every metric means.

mod host;
mod inputs;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

use inputs::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("synthbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs = report::engine_knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "synthbench: refusing to measure with engine knobs set: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let result = if args.trace {
        trace::measure(args.workload, args.seed)
    } else {
        run::measure(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("synthbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
