//! Deterministic parallel evaluation of candidate windows.
//!
//! The optimizer's hot path evaluates a bounded window of
//! neighbourhood moves per iteration; each evaluation is an
//! independent `ListScheduling` run, so the window parallelizes
//! embarrassingly. Results are returned **indexed by input position**,
//! which is what keeps the search deterministic: candidate selection
//! downstream resolves ties by `(cost, move index)`, so the thread
//! interleaving never influences which candidate wins and a parallel
//! run is bit-identical to a single-threaded one.
//!
//! The vehicle is [`WorkerPool`], a **persistent** pool of parked
//! worker threads living for a whole search (or a whole benchmark
//! harness). Tabu iterates thousands of windows per second; spawning
//! scoped threads per window made the spawn cost rival the useful
//! work for small windows on multi-core machines. Submitting to the
//! pool is one mutex/condvar round-trip, and the submitting thread
//! works alongside the pool on every job.
//!
//! (The container has no rayon available offline; the index-stealing
//! loop below is the same shape `par_iter` would compile to for this
//! workload.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The most worker threads [`effective_threads`] resolves to. Larger
/// requests, explicit or through `FTDES_THREADS`, are clamped to it:
/// the thread count only affects throughput, so clamping changes no
/// result, and a pool never spawns more than `MAX_THREADS - 1`
/// threads.
pub const MAX_THREADS: usize = 256;

/// Resolves the worker count for a search, at most [`MAX_THREADS`].
///
/// Priority: an explicit non-zero `requested` (from
/// `SearchConfig::threads`), then the `FTDES_THREADS` environment
/// variable, then the machine's available parallelism.
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    resolve_threads(requested).min(MAX_THREADS)
}

fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // The engine's one environment read, exempt from the crate's
    // clippy guard: `FTDES_THREADS` is the CLI's only thread-count
    // setting. It changes throughput, not which candidate a window
    // selects (selection is position-indexed).
    #[allow(clippy::disallowed_methods)]
    let from_env = std::env::var("FTDES_THREADS").ok();
    if let Some(n) = from_env.and_then(|v| v.parse().ok()) {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A type-erased unit of work: every pool worker calls `run(ctx)`
/// exactly once per submission.
#[derive(Clone, Copy)]
struct Job {
    run: unsafe fn(*const ()),
    ctx: *const (),
}

// The pointees are `Sync` closures borrowed from a submitter that
// blocks until every worker finished — see `WorkerPool::run_job`.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per submission; workers run each epoch exactly once.
    epoch: u64,
    /// Workers still executing the current epoch's job.
    pending: usize,
    shutdown: bool,
    /// First worker panic payload of the current job; resumed on the
    /// submitting thread so the original message surfaces there.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("job published with its epoch");
                }
                st = shared.work.wait(st).expect("pool state");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.ctx) }));
        let mut st = shared.state.lock().expect("pool state");
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }
}

/// A persistent pool of parked worker threads that maps candidate
/// windows deterministically (see [`WorkerPool::try_map_init`]).
///
/// Created once per search (or harness) and fed one candidate window
/// at a time: submission publishes a job under a mutex, wakes the
/// parked workers, runs the job on the **calling thread as well**,
/// and returns once every worker finished — so borrowed closures are
/// sound without `'static` bounds or per-window thread spawns. With
/// `threads <= 1` no threads are spawned and every map runs inline in
/// input order (the reference behaviour parallel runs reproduce).
pub struct WorkerPool {
    shared: Option<Arc<PoolShared>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes submissions (the pool runs one job at a time).
    submit: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` total workers (the submitting
    /// thread counts as one; `threads - 1` threads are spawned).
    /// Resolve `SearchConfig::threads` through [`effective_threads`]
    /// first.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return WorkerPool {
                shared: None,
                handles: Vec::new(),
                threads: 1,
                submit: Mutex::new(()),
            };
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                pending: 0,
                shutdown: false,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ftdes-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared: Some(shared),
            handles,
            threads,
            submit: Mutex::new(()),
        }
    }

    /// Total workers (including the submitting thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` once on every pool worker *and* on the calling
    /// thread, returning when all invocations finished.
    fn run_job<F: Fn() + Sync>(&self, f: &F) {
        let Some(shared) = &self.shared else {
            f();
            return;
        };
        unsafe fn call<F: Fn()>(ptr: *const ()) {
            unsafe { (*ptr.cast::<F>())() }
        }
        // A previous submission may have re-raised a worker panic
        // while holding this guard; it only serializes submissions
        // (no data behind it), so poisoning is recovered, keeping the
        // pool usable after a surfaced panic.
        let _serial = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let mut st = shared.state.lock().expect("pool state");
            st.job = Some(Job {
                run: call::<F>,
                ctx: std::ptr::from_ref(f).cast(),
            });
            st.epoch += 1;
            st.pending = self.handles.len();
            shared.work.notify_all();
        }
        // The submitting thread participates in its own job.
        let caller = catch_unwind(AssertUnwindSafe(f));
        let worker_panic = {
            let mut st = shared.state.lock().expect("pool state");
            while st.pending > 0 {
                st = shared.done.wait(st).expect("pool state");
            }
            st.job = None;
            st.panic.take()
        };
        // The caller's own panic wins (it is the closest frame);
        // otherwise re-raise the first worker's payload here so the
        // original message surfaces on the submitting thread and the
        // pool remains usable afterwards.
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Maps `f` over `items` on the pool, preserving input order in
    /// the result.
    ///
    /// `f` receives `(&mut state, index, &item)` and may return
    /// `Ok(None)` to skip an item (the cutoff path). Results arrive as
    /// `Vec<Option<R>>` aligned with `items`. `init` runs once on each
    /// participating worker and the resulting state is threaded
    /// through its invocations of `f`: each worker clones the
    /// iteration's base design once into its state, then applies and
    /// undoes one move per item instead of cloning the whole design
    /// per candidate. Small windows run inline on the calling thread
    /// in input order — the reference behaviour parallel runs
    /// reproduce.
    ///
    /// # Errors
    ///
    /// If any invocation fails, the error of the **lowest input
    /// index** is returned — independent of thread interleaving.
    pub fn try_map_init<T, R, E, S, I, F>(
        &self,
        items: &[T],
        init: I,
        f: F,
    ) -> Result<Vec<Option<R>>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> Result<Option<R>, E> + Sync,
    {
        let n = items.len();
        // Tiny windows run inline: waking parked workers costs
        // ~5–11 µs per submission (synthbench `parallel.submit_us`) while a
        // handful of cached evaluations complete in well under that,
        // so below the threshold the submitting thread is faster on
        // its own. The threshold scales with the pool: under two
        // items per worker, most of the fan-out is wake latency
        // rather than useful work, so windows narrower than
        // `threads × 2` stay on the submitting thread. Results are
        // position-indexed either way, so the deterministic
        // `(cost, move index)` selection downstream is unaffected by
        // where the cut lands.
        const INLINE_WIDTH: usize = 4;
        if self.threads.min(n) <= 1
            || n <= INLINE_WIDTH
            || n < self.threads * 2
            || self.shared.is_none()
        {
            let mut state = init();
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                out.push(f(&mut state, i, item)?);
            }
            return Ok(out);
        }

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        // Lowest errored index so far (usize::MAX = none): items above it
        // are skipped — their results would be discarded anyway, and only
        // lower-index errors can still claim precedence.
        let error_floor = AtomicUsize::new(usize::MAX);
        let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);

        let body = || {
            let mut state = init();
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if i > error_floor.load(Ordering::Relaxed) {
                    continue;
                }
                match f(&mut state, i, &items[i]) {
                    Ok(Some(r)) => local.push((i, r)),
                    Ok(None) => {}
                    Err(e) => {
                        error_floor.fetch_min(i, Ordering::Relaxed);
                        let mut slot = first_error.lock().expect("error slot");
                        if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                            *slot = Some((i, e));
                        }
                    }
                }
            }
            let mut out = results.lock().expect("result slots");
            for (i, r) in local {
                out[i] = Some(r);
            }
        };
        self.run_job(&body);

        if let Some((_, e)) = first_error.into_inner().expect("error slot") {
            return Err(e);
        }
        Ok(results.into_inner().expect("result slots"))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut st = shared.state.lock().expect("pool state");
            st.shutdown = true;
            shared.work.notify_all();
            drop(st);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let map = |pool: &WorkerPool| {
            pool.try_map_init(&items, || (), |(), i, &v| Ok::<_, ()>(Some(i * 1000 + v)))
                .unwrap()
        };
        let seq = map(&WorkerPool::new(1));
        assert_eq!(seq[42], Some(42 * 1000 + 42));
        let pool = WorkerPool::new(8);
        for _ in 0..3 {
            // Re-submitting to the same pool must be safe and
            // identical — that is the whole point of persistence.
            assert_eq!(map(&pool), seq);
        }
    }

    #[test]
    fn skips_become_none() {
        let items: Vec<usize> = (0..32).collect();
        let out = WorkerPool::new(8)
            .try_map_init(
                &items,
                || (),
                |(), _, &v| Ok::<_, ()>(if v % 2 == 0 { Some(v) } else { None }),
            )
            .unwrap();
        assert_eq!(out.len(), 32);
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(*slot, if i % 2 == 0 { Some(i) } else { None });
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        // Index 10 fails only after index 11 has failed, so a
        // higher-index error comes first; the lowest index must still
        // win.
        let items: Vec<usize> = (0..64).collect();
        let eleven_failed = std::sync::atomic::AtomicBool::new(false);
        let result = WorkerPool::new(8).try_map_init(
            &items,
            || (),
            |(), i, _| {
                if i == 10 {
                    while !eleven_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                if i == 11 {
                    eleven_failed.store(true, Ordering::SeqCst);
                }
                if i >= 10 {
                    Err(i)
                } else {
                    Ok(Some(i))
                }
            },
        );
        assert_eq!(result.unwrap_err(), 10);
    }

    #[test]
    fn thread_resolution_prefers_explicit_request() {
        assert_eq!(effective_threads(3), 3);
        assert!((1..=MAX_THREADS).contains(&effective_threads(0)));
    }

    #[test]
    fn thread_requests_past_the_maximum_are_clamped() {
        assert_eq!(effective_threads(MAX_THREADS), MAX_THREADS);
        assert_eq!(effective_threads(MAX_THREADS + 1), MAX_THREADS);
    }

    #[test]
    fn pool_inline_when_single_threaded() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let items = [1usize, 2, 3];
        let out = pool
            .try_map_init(
                &items,
                || 0usize,
                |acc, i, &v| {
                    // Inline execution is strictly in input order, so the
                    // per-worker state sees every prior item.
                    *acc += v;
                    Ok::<_, ()>(Some((i, *acc)))
                },
            )
            .unwrap();
        assert_eq!(out[2], Some((2, 6)));
    }

    #[test]
    fn pool_runs_tiny_windows_inline() {
        // A window at/below the inline width never leaves the
        // submitting thread even on a wide pool: sequential in-order
        // execution means one shared state accumulates every item.
        let pool = WorkerPool::new(8);
        let items = [10usize, 20, 30, 40];
        let out = pool
            .try_map_init(
                &items,
                || 0usize,
                |acc, i, &v| {
                    *acc += v;
                    Ok::<_, ()>(Some((i, *acc)))
                },
            )
            .unwrap();
        assert_eq!(
            out,
            vec![Some((0, 10)), Some((1, 30)), Some((2, 60)), Some((3, 100))],
            "tiny window executed inline, in order, on one state"
        );
        // One item past the threshold the pool path takes over; the
        // result set (position-indexed) is identical regardless.
        let items5 = [1usize, 2, 3, 4, 5];
        let out5 = pool
            .try_map_init(&items5, || (), |(), i, &v| Ok::<_, ()>(Some((i, v))))
            .unwrap();
        assert_eq!(out5, (0..5).map(|i| Some((i, i + 1))).collect::<Vec<_>>());
    }

    #[test]
    fn pool_propagates_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        let pool = WorkerPool::new(8);
        let result = pool.try_map_init(
            &items,
            || (),
            |(), i, _| if i >= 10 { Err(i) } else { Ok(Some(i)) },
        );
        assert_eq!(result.unwrap_err(), 10);
        // The pool survives an erroring job.
        let ok = pool
            .try_map_init(&items, || (), |(), i, _| Ok::<_, usize>(Some(i)))
            .unwrap();
        assert_eq!(ok.len(), 64);
    }

    #[test]
    fn pool_per_worker_state_counts_initializations() {
        let inits = AtomicUsize::new(0);
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..100).collect();
        pool.try_map_init(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, _| Ok::<_, ()>(Some(i)),
        )
        .unwrap();
        // One init per participating worker (submitter included).
        assert!(inits.load(Ordering::Relaxed) <= 3);
        assert!(inits.load(Ordering::Relaxed) >= 1);
    }
}
