//! The append-only JSONL event store.
//!
//! Durability contract:
//!
//! * one live driver per store: [`SweepStore::create`] and
//!   [`SweepStore::open`] take an exclusive lock on the file before
//!   they replay or truncate anything, and hold it until the store is
//!   dropped. The OS releases it when the process dies, so a second
//!   driver is refused while the first runs and admitted once it is
//!   gone. [`SweepStore::replay`] reads without the lock and writes
//!   nothing;
//! * every event is one line, appended with a single `write_all`
//!   followed by `sync_data` — an acknowledged append survives a
//!   process kill. [`SweepStore::create`] writes the `Init` header and
//!   every `Job` line with one `write_all` and one `sync_data`: replay
//!   refuses a store with fewer job lines than its header declares;
//! * a crash *during* an append leaves at most one torn final line
//!   (a prefix of the intended bytes, missing its `\n` — the newline
//!   is the last byte written, so a torn line can never carry one).
//!   Replay detects the missing newline and drops the fragment;
//!   [`SweepStore::open`] also truncates the file back to the last
//!   good line so the next append starts clean;
//! * a malformed *newline-terminated* line anywhere — including the
//!   last — cannot result from a crash and is reported as
//!   [`StoreError::Corrupt`].

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::event::{jobs_fingerprint, Event, JobSpec};
use crate::state::SweepState;

/// What replay found in a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events successfully replayed.
    pub events: usize,
    /// True when a torn final line was detected and dropped.
    pub dropped_torn_line: bool,
}

/// An open sweep store: the locked append handle plus the path.
#[derive(Debug)]
pub struct SweepStore {
    path: PathBuf,
    file: File,
}

impl SweepStore {
    /// Creates a fresh store at `path`, writing the `Init` header and
    /// one `Job` event per job.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file exists, cannot be locked or
    /// cannot be written; [`StoreError::Invalid`] on a malformed job
    /// graph (duplicate ids, unknown dependency, cycle).
    pub fn create(
        path: &Path,
        sweep: &str,
        jobs: &[JobSpec],
    ) -> Result<(Self, SweepState), StoreError> {
        let spec_fp = jobs_fingerprint(jobs);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "create", &e))?;
        lock(&file, path)?;
        let mut store = SweepStore {
            path: path.to_path_buf(),
            file,
        };
        let mut state = SweepState::new(sweep.to_owned(), spec_fp, jobs.len() as u64);
        // The header and the job lines go out in one write and one
        // sync: a store cut short of its header's job count does not
        // replay, so syncing each line would buy nothing. A job that
        // does not apply ends the buffer, as it ended the file.
        let mut lines = encode_line(&Event::Init {
            sweep: sweep.to_owned(),
            spec_fp,
            jobs: jobs.len() as u64,
        })?;
        let applied = jobs.iter().try_for_each(|job| {
            let event = Event::Job { spec: job.clone() };
            lines.push_str(&encode_line(&event)?);
            state.apply(&event)
        });
        store.write_synced(lines.as_bytes())?;
        applied?;
        state.validate_graph()?;
        Ok((store, state))
    }

    /// Opens an existing store for driving: locks it, reconstructs its
    /// state by replay, and truncates a torn final line.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened or read, or
    /// another driver holds its lock (`op: "lock"`);
    /// [`StoreError::Corrupt`] on a malformed non-final line;
    /// [`StoreError::Invalid`] when the stream is structurally
    /// inconsistent (missing header, unknown job references, ...).
    pub fn open(path: &Path) -> Result<(Self, SweepState, ReplayReport), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open", &e))?;
        lock(&file, path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err(path, "read", &e))?;
        let (state, good_len, report) = replay_bytes(&bytes)?;
        if report.dropped_torn_line {
            // Truncate the torn tail so the next append starts at a
            // line boundary.
            file.set_len(good_len as u64)
                .map_err(|e| io_err(path, "truncate", &e))?;
            file.sync_data().map_err(|e| io_err(path, "sync", &e))?;
        }
        let store = SweepStore {
            path: path.to_path_buf(),
            file,
        };
        Ok((store, state, report))
    }

    /// Reconstructs a store's state without locking or writing it, so
    /// it is safe beside a live driver. A torn final line is skipped,
    /// not truncated: only a driver drops it from the file.
    ///
    /// # Errors
    ///
    /// As [`SweepStore::open`], except that a lock is never taken.
    pub fn replay(path: &Path) -> Result<(SweepState, ReplayReport), StoreError> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", &e))?;
        let (state, _, report) = replay_bytes(&bytes)?;
        Ok((state, report))
    }

    /// Appends `event` durably and applies it to `state`. The state
    /// is only updated after the append is on disk, so in-memory
    /// state never runs ahead of the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write/sync failure; [`StoreError::Invalid`]
    /// when the event does not apply to the current state.
    pub fn append(&mut self, state: &mut SweepState, event: &Event) -> Result<(), StoreError> {
        self.write_synced(encode_line(event)?.as_bytes())?;
        state.apply(event)
    }

    /// Crash-harness hook: appends only a *prefix* of the event's
    /// line (no newline, no sync), simulating a write torn by a
    /// process kill. The in-memory state is deliberately not updated
    /// — the caller crashes right after.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    pub fn append_torn(&mut self, event: &Event) -> Result<(), StoreError> {
        let line = encode(event)?;
        let torn = &line.as_bytes()[..line.len() / 2];
        self.file
            .write_all(torn)
            .map_err(|e| io_err(&self.path, "append", &e))
    }

    /// The store's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `bytes` with one `write_all` and syncs them.
    fn write_synced(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, "append", &e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "sync", &e))
    }
}

/// `event`'s line, newline included.
fn encode_line(event: &Event) -> Result<String, StoreError> {
    let mut line = encode(event)?;
    line.push('\n');
    Ok(line)
}

fn encode(event: &Event) -> Result<String, StoreError> {
    serde_json::to_string(event).map_err(|e| StoreError::Invalid {
        message: format!("unencodable event: {e:?}"),
    })
}

/// Takes the store's exclusive lock without waiting: a store another
/// driver holds is refused, not queued behind it.
fn lock(file: &File, path: &Path) -> Result<(), StoreError> {
    file.try_lock().map_err(|e| StoreError::Io {
        path: path.display().to_string(),
        op: "lock",
        message: match e {
            TryLockError::WouldBlock => "another driver holds this store".to_owned(),
            TryLockError::Error(e) => e.to_string(),
        },
    })
}

fn io_err(path: &Path, op: &'static str, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        op,
        message: e.to_string(),
    }
}

/// Replays the log into its state, returning the byte length of the
/// good prefix (for truncation) and the replay report.
fn replay_bytes(bytes: &[u8]) -> Result<(SweepState, usize, ReplayReport), StoreError> {
    let (events, good_len, report) = replay_lines(bytes)?;
    let mut iter = events.into_iter();
    let Some(Event::Init {
        sweep,
        spec_fp,
        jobs,
    }) = iter.next()
    else {
        return Err(StoreError::Invalid {
            message: "first event is not an Init header".into(),
        });
    };
    let mut state = SweepState::new(sweep, spec_fp, jobs);
    for event in iter {
        state.apply(&event)?;
    }
    state.validate_graph()?;
    Ok((state, good_len, report))
}

/// Splits the log into parsed events, returning the byte length of
/// the good prefix and the replay report.
fn replay_lines(bytes: &[u8]) -> Result<(Vec<Event>, usize, ReplayReport), StoreError> {
    let text = String::from_utf8_lossy(bytes);
    let mut events = Vec::new();
    let mut report = ReplayReport::default();
    let mut good_len = 0usize;
    let mut offset = 0usize;
    for (index, segment) in text.split_inclusive('\n').enumerate() {
        let line_no = index + 1;
        let complete = segment.ends_with('\n');
        let content = segment.trim_end_matches('\n');
        if content.is_empty() {
            offset += segment.len();
            if complete {
                good_len = offset;
            }
            continue;
        }
        match serde_json::from_str::<Event>(content) {
            Ok(event) if complete => {
                events.push(event);
                offset += segment.len();
                good_len = offset;
            }
            _ if !complete => {
                // Only a missing trailing newline marks an append
                // torn by a crash — the newline is the last byte
                // written, so a crash can never produce a complete
                // line. Drop the fragment (whether or not it happens
                // to parse: the append was never acknowledged).
                report.dropped_torn_line = true;
                break;
            }
            Err(e) => {
                // Complete but unparseable: genuine corruption of an
                // acknowledged event, even on the final line.
                return Err(StoreError::Corrupt {
                    line: line_no,
                    message: format!("{e:?}"),
                });
            }
            Ok(_) => unreachable!("complete parseable lines are consumed above"),
        }
    }
    report.events = events.len();
    Ok((events, good_len, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn job(id: u64, deps: Vec<u64>) -> JobSpec {
        JobSpec {
            id,
            name: format!("j{id}"),
            kind: "noop".into(),
            params: Value::Null,
            deps,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ftdes-serve-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn create_then_open_roundtrips() {
        let path = tmp("roundtrip.jsonl");
        let jobs = vec![job(1, vec![]), job(2, vec![1])];
        let (mut store, mut state) = SweepStore::create(&path, "s", &jobs).unwrap();
        store
            .append(
                &mut state,
                &Event::Done {
                    id: 1,
                    attempt: 1,
                    result: Value::U64(9),
                },
            )
            .unwrap();
        drop(store);
        let (_store, replayed, report) = SweepStore::open(&path).unwrap();
        assert_eq!(report.events, 4);
        assert!(!report.dropped_torn_line);
        assert_eq!(replayed.result(1), Some(&Value::U64(9)));
        assert!(replayed.deps_done(2));
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated() {
        let path = tmp("torn.jsonl");
        let jobs = vec![job(1, vec![])];
        let (mut store, _state) = SweepStore::create(&path, "s", &jobs).unwrap();
        store
            .append_torn(&Event::Done {
                id: 1,
                attempt: 1,
                result: Value::U64(9),
            })
            .unwrap();
        drop(store);
        let before = std::fs::metadata(&path).unwrap().len();
        let (mut store, mut state, report) = SweepStore::open(&path).unwrap();
        assert!(report.dropped_torn_line);
        assert_eq!(state.result(1), None, "torn Done must not count");
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        // The next append lands on a clean line boundary.
        store
            .append(
                &mut state,
                &Event::Done {
                    id: 1,
                    attempt: 1,
                    result: Value::U64(10),
                },
            )
            .unwrap();
        drop(store);
        let (_s, replayed, report) = SweepStore::open(&path).unwrap();
        assert!(!report.dropped_torn_line);
        assert_eq!(replayed.result(1), Some(&Value::U64(10)));
    }

    #[test]
    fn replay_skips_a_torn_tail_without_writing() {
        let path = tmp("torn-replay.jsonl");
        let (mut store, _state) = SweepStore::create(&path, "s", &[job(1, vec![])]).unwrap();
        store
            .append_torn(&Event::Done {
                id: 1,
                attempt: 1,
                result: Value::U64(9),
            })
            .unwrap();
        let before = std::fs::read(&path).unwrap();
        // Beside the live driver, and twice: the bytes never change.
        for _ in 0..2 {
            let (state, report) = SweepStore::replay(&path).unwrap();
            assert!(report.dropped_torn_line);
            assert_eq!(state.result(1), None);
            assert_eq!(std::fs::read(&path).unwrap(), before);
        }
    }

    #[test]
    fn a_second_driver_is_refused_until_the_first_is_gone() {
        let path = tmp("locked.jsonl");
        let (store, _state) = SweepStore::create(&path, "s", &[job(1, vec![])]).unwrap();
        let before = std::fs::read(&path).unwrap();
        match SweepStore::open(&path) {
            Err(StoreError::Io { op: "lock", .. }) => {}
            other => panic!("expected a lock refusal, got {other:?}"),
        }
        assert!(SweepStore::replay(&path).is_ok(), "replay takes no lock");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        drop(store);
        let (reopened, _state, _report) = SweepStore::open(&path).unwrap();
        assert!(matches!(
            SweepStore::open(&path),
            Err(StoreError::Io { op: "lock", .. })
        ));
        drop(reopened);
    }

    #[test]
    fn complete_but_unparseable_final_line_is_corruption_not_torn() {
        let path = tmp("tail-corrupt.jsonl");
        let jobs = vec![job(1, vec![])];
        let (store, _state) = SweepStore::create(&path, "s", &jobs).unwrap();
        drop(store);
        // A newline-terminated garbage line cannot be a torn append
        // (the newline is the last byte written): it is a damaged
        // acknowledged event and must not be silently discarded.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"garbage\n");
        std::fs::write(&path, bytes).unwrap();
        match SweepStore::open(&path) {
            Err(StoreError::Corrupt { line: 3, .. }) => {}
            other => panic!("expected tail corruption error, got {other:?}"),
        }
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = tmp("corrupt.jsonl");
        let jobs = vec![job(1, vec![])];
        SweepStore::create(&path, "s", &jobs).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Damage the first line, keep the rest.
        bytes[2] = b'#';
        std::fs::write(&path, bytes).unwrap();
        match SweepStore::open(&path) {
            Err(StoreError::Corrupt { line: 1, .. }) => {}
            other => panic!("expected interior corruption error, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let path = tmp("cycle.jsonl");
        let jobs = vec![job(1, vec![2]), job(2, vec![1])];
        match SweepStore::create(&path, "s", &jobs) {
            Err(StoreError::Invalid { message }) => assert!(message.contains("cycle")),
            other => panic!("expected cycle rejection, got {other:?}"),
        }
    }

    #[test]
    fn existing_store_is_not_overwritten() {
        let path = tmp("exists.jsonl");
        let jobs = vec![job(1, vec![])];
        SweepStore::create(&path, "s", &jobs).unwrap();
        assert!(matches!(
            SweepStore::create(&path, "s", &jobs),
            Err(StoreError::Io { op: "create", .. })
        ));
    }
}
