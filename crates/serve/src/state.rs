//! The replayed job state machine.
//!
//! [`SweepState`] is never persisted: it is a pure fold over the
//! event log. Crash recovery is therefore trivial by construction —
//! whatever prefix of events survived the crash *is* the state.
//!
//! ```text
//!            claim                done
//!   Ready ─────────► Claimed ──────────► Done (terminal, result kept)
//!     ▲                │   │
//!     │ driver died    │   │ executor failed
//!     └────────────────┘   ▼
//!                      Quarantined (terminal, error kept)
//! ```
//!
//! The store lock admits one live driver, so a `Claimed` job that the
//! driver is not running itself was left by a dead one and is
//! claimable at once. Executors are deterministic, so a failed job is
//! quarantined on its first attempt: a retry would fail the same way.

use std::collections::{BTreeMap, BTreeSet};

use serde::Value;

use crate::error::StoreError;
use crate::event::{Event, JobSpec};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Never claimed.
    Ready,
    /// Claimed with no outcome yet: in flight under the live driver,
    /// or left by a dead one.
    Claimed {
        /// The worker that claimed it.
        worker: String,
        /// The attempt this claim belongs to.
        attempt: u32,
    },
    /// Finished; the committed result.
    Done {
        /// The job's result, as logged.
        result: Value,
    },
    /// Permanently out of the running.
    Quarantined,
}

/// One job with its replayed status and errors.
#[derive(Debug, Clone)]
pub struct JobState {
    /// The job definition.
    pub spec: JobSpec,
    /// Current lifecycle position.
    pub status: JobStatus,
    /// The errors its `Quarantine` recorded; empty until then.
    pub failures: Vec<String>,
}

impl JobState {
    fn new(spec: JobSpec) -> Self {
        JobState {
            spec,
            status: JobStatus::Ready,
            failures: Vec::new(),
        }
    }
}

/// Aggregate job counts, for `status` displays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Jobs never claimed with all deps done.
    pub ready: usize,
    /// Jobs waiting on incomplete dependencies.
    pub waiting: usize,
    /// Jobs claimed without an outcome.
    pub claimed: usize,
    /// Finished jobs.
    pub done: usize,
    /// Quarantined jobs.
    pub quarantined: usize,
}

/// The full sweep state, reconstructed by replay.
#[derive(Debug, Clone)]
pub struct SweepState {
    /// Sweep name from the `Init` header.
    pub sweep: String,
    /// Spec fingerprint from the `Init` header.
    pub spec_fp: u64,
    declared_jobs: u64,
    jobs: BTreeMap<u64, JobState>,
}

impl SweepState {
    /// An empty state from an `Init` header.
    pub(crate) fn new(sweep: String, spec_fp: u64, declared_jobs: u64) -> Self {
        SweepState {
            sweep,
            spec_fp,
            declared_jobs,
            jobs: BTreeMap::new(),
        }
    }

    /// Applies one event. Replay is strict about structure (events
    /// must reference declared jobs) but last-wins about claims —
    /// the log legitimately contains claims of dead drivers.
    pub fn apply(&mut self, event: &Event) -> Result<(), StoreError> {
        match event {
            Event::Init { .. } => Err(StoreError::Invalid {
                message: "duplicate Init header".into(),
            }),
            Event::Job { spec } => {
                if self.jobs.contains_key(&spec.id) {
                    return Err(StoreError::Invalid {
                        message: format!("duplicate job id {}", spec.id),
                    });
                }
                self.jobs.insert(spec.id, JobState::new(spec.clone()));
                Ok(())
            }
            Event::Claim {
                id,
                worker,
                attempt,
            } => {
                let job = self.job_mut(*id)?;
                // A Claim over Done would mean a worker raced a
                // committed result; first Done wins, the stale claim
                // is ignored.
                if !matches!(job.status, JobStatus::Done { .. } | JobStatus::Quarantined) {
                    job.status = JobStatus::Claimed {
                        worker: worker.clone(),
                        attempt: *attempt,
                    };
                }
                Ok(())
            }
            Event::Done { id, result, .. } => {
                let job = self.job_mut(*id)?;
                if !matches!(job.status, JobStatus::Done { .. }) {
                    job.status = JobStatus::Done {
                        result: result.clone(),
                    };
                }
                Ok(())
            }
            // Written by drivers that retried failed jobs: the claim
            // it followed stays without an outcome and re-runs.
            Event::Fail { id } => self.job_mut(*id).map(drop),
            Event::Quarantine { id, failures } => {
                let job = self.job_mut(*id)?;
                job.failures = failures.clone();
                job.status = JobStatus::Quarantined;
                Ok(())
            }
        }
    }

    fn job_mut(&mut self, id: u64) -> Result<&mut JobState, StoreError> {
        self.jobs.get_mut(&id).ok_or_else(|| StoreError::Invalid {
            message: format!("event references unknown job {id}"),
        })
    }

    /// Validates the graph once all `Job` events are replayed: the
    /// declared count matches, every dependency exists, and the graph
    /// is acyclic.
    pub(crate) fn validate_graph(&self) -> Result<(), StoreError> {
        if self.jobs.len() as u64 != self.declared_jobs {
            return Err(StoreError::Invalid {
                message: format!(
                    "header declares {} jobs, log contains {}",
                    self.declared_jobs,
                    self.jobs.len()
                ),
            });
        }
        let mut indegree = Vec::with_capacity(self.jobs.len());
        for job in self.jobs.values() {
            if let Some(dep) = job
                .spec
                .deps
                .iter()
                .find(|dep| !self.jobs.contains_key(dep))
            {
                return Err(StoreError::Invalid {
                    message: format!("job {} depends on unknown job {dep}", job.spec.id),
                });
            }
            indegree.push(job.spec.deps.len());
        }
        // Kahn's algorithm over a dependents index built once, so the
        // check costs O(jobs + deps) lookups.
        let dependents = self.dependents();
        let mut queue: Vec<usize> = (0..indegree.len()).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(index) = queue.pop() {
            seen += 1;
            for &next in &dependents[index] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push(next);
                }
            }
        }
        if seen != self.jobs.len() {
            return Err(StoreError::Invalid {
                message: "dependency cycle in the job graph".into(),
            });
        }
        Ok(())
    }

    /// The jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobState> {
        self.jobs.values()
    }

    /// A job by id.
    #[must_use]
    pub fn job(&self, id: u64) -> Option<&JobState> {
        self.jobs.get(&id)
    }

    /// The committed result of a done job.
    #[must_use]
    pub fn result(&self, id: u64) -> Option<&Value> {
        match &self.jobs.get(&id)?.status {
            JobStatus::Done { result } => Some(result),
            _ => None,
        }
    }

    /// True when every dependency of `id` is done.
    #[must_use]
    pub fn deps_done(&self, id: u64) -> bool {
        self.jobs.get(&id).is_some_and(|job| {
            job.spec.deps.iter().all(|dep| {
                matches!(
                    self.jobs.get(dep).map(|d| &d.status),
                    Some(JobStatus::Done { .. })
                )
            })
        })
    }

    /// True when some (transitive) dependency of `id` is quarantined:
    /// the job can never run. This reads [`SweepState::blocked`], so
    /// it costs O(jobs + deps); to ask it of every job, read that.
    #[must_use]
    pub fn blocked_forever(&self, id: u64) -> bool {
        (self.jobs.keys().position(|&k| k == id)).is_some_and(|index| self.blocked()[index])
    }

    /// For every job, in id order (the order of [`SweepState::jobs`]),
    /// whether some (transitive) dependency of it is quarantined, in
    /// one pass over the jobs and their dependencies: blocking spreads
    /// from each quarantined job to its dependents, and from each
    /// blocked job to its own.
    #[must_use]
    pub fn blocked(&self) -> Vec<bool> {
        let dependents = self.dependents();
        let mut blocked = vec![false; self.jobs.len()];
        let mut stack: Vec<usize> = (self.jobs.values().enumerate())
            .filter(|(_, job)| matches!(job.status, JobStatus::Quarantined))
            .map(|(index, _)| index)
            .collect();
        while let Some(index) = stack.pop() {
            for &next in &dependents[index] {
                if !blocked[next] {
                    blocked[next] = true;
                    stack.push(next);
                }
            }
        }
        blocked
    }

    /// For every job, in id order, the positions of the jobs that
    /// depend on it directly. A dependency on an unknown job is
    /// skipped.
    fn dependents(&self) -> Vec<Vec<usize>> {
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        let mut dependents = vec![Vec::new(); ids.len()];
        for (index, job) in self.jobs.values().enumerate() {
            for dep in &job.spec.deps {
                if let Ok(at) = ids.binary_search(dep) {
                    dependents[at].push(index);
                }
            }
        }
        dependents
    }

    /// The lowest-id claimable job: dependencies done and either never
    /// claimed, or claimed and not in `in_flight` (the jobs the live
    /// driver is running) — a claim left by a dead driver. A job's
    /// status is tested before its dependencies, so a finished job
    /// costs O(1).
    #[must_use]
    pub fn next_ready(&self, in_flight: &BTreeSet<u64>) -> Option<u64> {
        self.jobs
            .values()
            .find(|job| {
                let claimable = match &job.status {
                    JobStatus::Ready => true,
                    JobStatus::Claimed { .. } => !in_flight.contains(&job.spec.id),
                    JobStatus::Done { .. } | JobStatus::Quarantined => false,
                };
                claimable && self.deps_done(job.spec.id)
            })
            .map(|job| job.spec.id)
    }

    /// True when every job is in a terminal state (done or
    /// quarantined) or permanently blocked behind a quarantined
    /// dependency.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        (self.jobs.values().zip(self.blocked())).all(|(job, blocked)| {
            blocked || matches!(job.status, JobStatus::Done { .. } | JobStatus::Quarantined)
        })
    }

    /// True when every job is done — the sweep fully succeeded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.jobs
            .values()
            .all(|job| matches!(job.status, JobStatus::Done { .. }))
    }

    /// Aggregate counts for status displays.
    #[must_use]
    pub fn counts(&self) -> StatusCounts {
        let mut c = StatusCounts::default();
        for job in self.jobs.values() {
            match &job.status {
                JobStatus::Ready => {
                    if self.deps_done(job.spec.id) {
                        c.ready += 1;
                    } else {
                        c.waiting += 1;
                    }
                }
                JobStatus::Claimed { .. } => c.claimed += 1,
                JobStatus::Done { .. } => c.done += 1,
                JobStatus::Quarantined => c.quarantined += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state holding `jobs`, as replay leaves it before validation.
    fn state_of(jobs: Vec<JobSpec>) -> SweepState {
        let mut state = SweepState::new("s".into(), 0, jobs.len() as u64);
        for spec in jobs {
            state.apply(&Event::Job { spec }).unwrap();
        }
        state
    }

    fn job(id: u64, deps: Vec<u64>) -> JobSpec {
        JobSpec {
            id,
            name: format!("j{id}"),
            kind: "noop".into(),
            params: Value::Null,
            deps,
        }
    }

    #[test]
    fn validation_is_linear_in_jobs_and_deps() {
        // A chain of 2^16 - 1 jobs plus one job over every other: 2^16
        // jobs and about 2^17 edges, which a scan of every job's deps
        // per dequeued job would visit 2^16 times over.
        let last = (1u64 << 16) - 1;
        let graph = |close_cycle: bool| {
            let mut jobs: Vec<JobSpec> = (0..last)
                .map(|id| job(id, if id == 0 { vec![] } else { vec![id - 1] }))
                .collect();
            jobs.push(job(last, (0..last).collect()));
            if close_cycle {
                jobs[0].deps.push(last);
            }
            jobs
        };
        assert!(state_of(graph(false)).validate_graph().is_ok());
        match state_of(graph(true)).validate_graph() {
            Err(StoreError::Invalid { message }) => assert!(message.contains("cycle")),
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn blocking_is_linear_in_jobs_and_deps() {
        // A ladder of 2^16 jobs, each on the two before it. With
        // nothing quarantined, a walk without memory would visit the
        // last job's dependencies a Fibonacci number of times; once
        // the first job is quarantined, every other job is blocked.
        let count = 1u64 << 16;
        let mut state = state_of(
            (0..count)
                .map(|id| job(id, (id.saturating_sub(2)..id).collect()))
                .collect(),
        );
        state.validate_graph().unwrap();
        assert!(state.blocked().iter().all(|&b| !b));
        assert!(!state.blocked_forever(count - 1));
        state
            .apply(&Event::Quarantine {
                id: 0,
                failures: vec!["boom".into()],
            })
            .unwrap();
        let blocked = state.blocked();
        assert!(!blocked[0], "a quarantined job is not blocked by itself");
        assert!(blocked[1..].iter().all(|&b| b));
        assert!(state.blocked_forever(count - 1));
        assert!(!state.blocked_forever(0));
        assert!(state.is_settled());
    }
}
