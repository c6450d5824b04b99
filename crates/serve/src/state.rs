//! The replayed job state machine.
//!
//! [`SweepState`] is never persisted: it is a pure fold over the
//! event log. Crash recovery is therefore trivial by construction —
//! whatever prefix of events survived the crash *is* the state.
//!
//! ```text
//!            claim                done
//!   Ready ─────────► Claimed ──────────► Done (terminal, result kept)
//!     ▲                │  │
//!     │ driver died    │  │ fail (attempt < max)
//!     └────────────────┘  ▼
//!                       Failed ──► (backoff) ──► claimable again
//!                          │
//!                          │ fail (attempt = max)
//!                          ▼
//!                      Quarantined (terminal, failure chain kept)
//! ```
//!
//! The store lock admits one live driver, so a `Claimed` job that the
//! driver is not running itself was left by a dead one and is
//! claimable at once.

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
    /// Failed but retryable.
    Failed {
        /// The failed attempt number.
        attempt: u32,
        /// Absolute earliest re-claim time.
        retry_ms: u64,
    },
    /// Permanently out of the running.
    Quarantined,
}

/// One job with its replayed status and failure history.
#[derive(Debug, Clone)]
pub struct JobState {
    /// The job definition.
    pub spec: JobSpec,
    /// Current lifecycle position.
    pub status: JobStatus,
    /// Every `Fail` error recorded so far, in attempt order (the
    /// failure chain preserved into `Quarantine`).
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

    /// Attempts already claimed for this job (the next claim is
    /// `attempts() + 1`).
    #[must_use]
    pub fn attempts(&self) -> u32 {
        let from_status = match &self.status {
            JobStatus::Claimed { attempt, .. } | JobStatus::Failed { attempt, .. } => *attempt,
            _ => 0,
        };
        from_status.max(self.failures.len() as u32)
    }
}

/// Aggregate job counts, for `status` displays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Jobs never claimed or awaiting retry with all deps done.
    pub ready: usize,
    /// Jobs waiting on incomplete dependencies.
    pub waiting: usize,
    /// Jobs claimed without an outcome.
    pub claimed: usize,
    /// Finished jobs.
    pub done: usize,
    /// Failed-but-retryable jobs.
    pub failed: usize,
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
                ..
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
            Event::Fail {
                id,
                attempt,
                error,
                retry_ms,
                ..
            } => {
                let job = self.job_mut(*id)?;
                // A Fail raced by another worker's committed Done (or
                // a stale Fail after Quarantine) is ignored entirely:
                // recording it would inflate attempts() on later
                // reclaims and pollute the quarantine failure chain.
                if !matches!(job.status, JobStatus::Done { .. } | JobStatus::Quarantined) {
                    job.failures.push(error.clone());
                    job.status = JobStatus::Failed {
                        attempt: *attempt,
                        retry_ms: *retry_ms,
                    };
                }
                Ok(())
            }
            Event::Quarantine { id, failures, .. } => {
                let job = self.job_mut(*id)?;
                if !failures.is_empty() {
                    // The quarantine event carries the authoritative
                    // chain (it may include a final error that never
                    // got its own Fail event).
                    job.failures = failures.clone();
                }
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
        for job in self.jobs.values() {
            for dep in &job.spec.deps {
                if !self.jobs.contains_key(dep) {
                    return Err(StoreError::Invalid {
                        message: format!("job {} depends on unknown job {dep}", job.spec.id),
                    });
                }
            }
        }
        // Kahn's algorithm over the dependency edges.
        let mut indegree: BTreeMap<u64, usize> = self
            .jobs
            .values()
            .map(|j| (j.spec.id, j.spec.deps.len()))
            .collect();
        let mut queue: Vec<u64> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut seen = 0usize;
        while let Some(id) = queue.pop() {
            seen += 1;
            for job in self.jobs.values() {
                if job.spec.deps.contains(&id) {
                    let d = indegree.entry(job.spec.id).or_default();
                    *d -= 1;
                    if *d == 0 {
                        queue.push(job.spec.id);
                    }
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
    /// the job can never run.
    #[must_use]
    pub fn blocked_forever(&self, id: u64) -> bool {
        let Some(job) = self.jobs.get(&id) else {
            return false;
        };
        job.spec.deps.iter().any(|dep| {
            matches!(
                self.jobs.get(dep).map(|d| &d.status),
                Some(JobStatus::Quarantined)
            ) || self.blocked_forever(*dep)
        })
    }

    /// The lowest-id job claimable at `now_ms`: dependencies done and
    /// either never claimed, retry backoff elapsed, or claimed and not
    /// in `in_flight` (the jobs the live driver is running) — a claim
    /// left by a dead driver.
    #[must_use]
    pub fn next_ready(&self, now_ms: u64, in_flight: &BTreeSet<u64>) -> Option<u64> {
        self.jobs
            .values()
            .filter(|job| self.deps_done(job.spec.id))
            .find(|job| match &job.status {
                JobStatus::Ready => true,
                JobStatus::Claimed { .. } => !in_flight.contains(&job.spec.id),
                JobStatus::Failed { retry_ms, .. } => *retry_ms <= now_ms,
                JobStatus::Done { .. } | JobStatus::Quarantined => false,
            })
            .map(|job| job.spec.id)
    }

    /// The earliest future instant at which a job waiting out its
    /// retry backoff becomes claimable, if any.
    #[must_use]
    pub fn next_wakeup(&self, now_ms: u64) -> Option<u64> {
        self.jobs
            .values()
            .filter(|job| self.deps_done(job.spec.id))
            .filter_map(|job| match &job.status {
                JobStatus::Failed { retry_ms, .. } => Some(*retry_ms),
                _ => None,
            })
            .filter(|&t| t > now_ms)
            .min()
    }

    /// True when every job is in a terminal state (done or
    /// quarantined) or permanently blocked behind a quarantined
    /// dependency.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.jobs.values().all(|job| {
            matches!(job.status, JobStatus::Done { .. } | JobStatus::Quarantined)
                || self.blocked_forever(job.spec.id)
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
                JobStatus::Failed { .. } => c.failed += 1,
                JobStatus::Quarantined => c.quarantined += 1,
            }
        }
        c
    }
}
