//! The event vocabulary of the append-only store.
//!
//! One event per JSONL line, externally tagged
//! (`{"Claim": {...}}`). The log is the single source of truth:
//! every bit of sweep state — including job *results* — is
//! reconstructed by replaying it, so a resumed run never recomputes
//! what a previous incarnation already committed.

use serde::{Deserialize, Serialize, Value};

/// One job of a sweep DAG.
///
/// `params` is an opaque JSON value interpreted by the
/// [`JobExec`](crate::worker::JobExec) implementation — the store and
/// scheduler never look inside it. Everything a job needs to run must
/// be in `params` (plus its dependencies' results): resuming a sweep
/// reads only the log, never the original spec file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id within the sweep; claims pick the lowest ready id,
    /// so ids define the deterministic execution order.
    pub id: u64,
    /// Human-readable name (`optimize/chi=5%/seed=1/mcxr`).
    pub name: String,
    /// Executor dispatch key (`generate`, `optimize`, `faultsim`,
    /// `repair`, `aggregate`, ...).
    pub kind: String,
    /// Executor-interpreted payload.
    pub params: Value,
    /// Jobs whose results this one consumes; it becomes ready when
    /// all of them are done.
    pub deps: Vec<u64>,
}

/// One line of the event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Event {
    /// The header; always the first event.
    Init {
        /// Sweep name (from the spec).
        sweep: String,
        /// Fingerprint of the serialized job list, so `status` /
        /// `resume` can detect a store that belongs to a different
        /// sweep definition.
        spec_fp: u64,
        /// Number of `Job` events that follow the header.
        jobs: u64,
    },
    /// A job added to the graph (only ever during initialization).
    Job {
        /// The job definition.
        spec: JobSpec,
    },
    /// A worker of the live driver started a job. A claim with no
    /// outcome after it belongs to a driver that is gone, and the next
    /// driver re-runs the job. (Logs written by older drivers also
    /// carry a claim time and a lease expiry; replay ignores unknown
    /// fields.)
    Claim {
        /// The claimed job.
        id: u64,
        /// The claiming worker's identity (informational).
        worker: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A claimed job finished; `result` is the committed value its
    /// dependents (and the final aggregate) read.
    Done {
        /// The finished job.
        id: u64,
        /// The attempt that produced the result.
        attempt: u32,
        /// The job's result, verbatim.
        result: Value,
    },
    /// A failed attempt, as logged by drivers that retried failed
    /// jobs. The worker never writes it: replay checks that it names a
    /// declared job and otherwise ignores it, so the failed attempt's
    /// claim is left without an outcome and the job runs once more.
    Fail {
        /// The failed job.
        id: u64,
    },
    /// A job's executor failed: the job will never be claimed again,
    /// and jobs depending on it are permanently blocked.
    Quarantine {
        /// The failed job.
        id: u64,
        /// The error (older logs hold one per attempt).
        failures: Vec<String>,
    },
}

/// FNV-1a over `bytes` — the store's spec fingerprint. Not
/// cryptographic; it only needs to distinguish sweep definitions.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of a job list (the `Init.spec_fp` value).
#[must_use]
pub fn jobs_fingerprint(jobs: &[JobSpec]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for job in jobs {
        let line = serde_json::to_string(job).unwrap_or_default();
        acc = acc.rotate_left(13) ^ fingerprint(line.as_bytes());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64) -> JobSpec {
        JobSpec {
            id,
            name: format!("job-{id}"),
            kind: "noop".into(),
            params: Value::Null,
            deps: vec![],
        }
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let events = vec![
            Event::Init {
                sweep: "s".into(),
                spec_fp: 7,
                jobs: 1,
            },
            Event::Job { spec: job(1) },
            Event::Claim {
                id: 1,
                worker: "w0".into(),
                attempt: 1,
            },
            Event::Done {
                id: 1,
                attempt: 1,
                result: Value::U64(42),
            },
            Event::Fail { id: 1 },
            Event::Quarantine {
                id: 1,
                failures: vec!["boom".into()],
            },
        ];
        for event in events {
            let line = serde_json::to_string(&event).unwrap();
            assert!(!line.contains('\n'), "events must be single lines");
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn fingerprints_distinguish_job_lists() {
        let a = jobs_fingerprint(&[job(1), job(2)]);
        let b = jobs_fingerprint(&[job(2), job(1)]);
        let c = jobs_fingerprint(&[job(1), job(2)]);
        assert_eq!(a, c);
        assert_ne!(a, b, "order matters");
    }
}
