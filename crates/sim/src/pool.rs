//! A reusable worker pool for batched jobs.
//!
//! A long-lived service that submits many small batches cannot afford to
//! spawn and join threads per batch: the spawn cost dominates small
//! batches and destroys any hope of keeping the workers cache-warm.
//! [`WorkerPool`] keeps a fixed set of named threads alive behind a shared
//! injector queue and executes *batches* of jobs against them. The sweep's
//! exact list engine ([`crate::sweep::run_scenarios_chunked`]) and the
//! batch engine's multi-thread dispatch run on it.
//!
//! * [`WorkerPool::run_jobs`] — the generic batch entry: any `FnOnce() -> T`
//!   jobs, results returned **in submission order** (scatter-by-index, the
//!   same determinism device the sweep merge uses).
//! * [`WorkerPool::run_jobs_result`] — the fault-isolating variant: a job
//!   that panics yields an `Err` in its own slot instead of taking the
//!   batch (or the service above it) down.
//!
//! The pool is deliberately simple: one `Mutex<VecDeque>` injector plus a
//! condvar. Sweep scenarios and planner queries run for micro- to
//! milliseconds, so queue contention is noise next to the work itself.
//!
//! # Fault tolerance
//!
//! Every job runs under `catch_unwind`, so a panicking job cannot kill its
//! worker thread or strand the batch; completion bookkeeping always runs.
//! Lock poisoning is recovered (`PoisonError::into_inner`) — the protected
//! state is a queue of boxed closures and per-batch result slots, both of
//! which stay structurally valid across an unwind. If the OS refuses to
//! spawn any worker at all, the pool degrades to executing batches inline
//! on the calling thread.
//!
//! # Blocking and re-entrancy
//!
//! `run_jobs` blocks the *calling* thread until the batch completes; the
//! caller does not steal work. Do not call `run_jobs` from inside a pool
//! job — with every worker waiting on the inner batch the pool deadlocks.

use hems_obs::relock;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Standing pool telemetry on the process-global registry (DESIGN.md
/// §12). Counters/gauges are shared by every pool in the process:
/// `pool.queue_depth` is tasks enqueued but not yet started,
/// `pool.busy` is jobs currently executing, `pool.panics` counts
/// isolated job panics (the fault-injection campaign's signal).
mod obs {
    use std::sync::LazyLock;

    use hems_obs::{global, Counter, Gauge, Histogram};

    pub(super) static JOBS: LazyLock<Counter> = LazyLock::new(|| global().counter("pool.jobs"));
    pub(super) static BATCHES: LazyLock<Counter> =
        LazyLock::new(|| global().counter("pool.batches"));
    pub(super) static PANICS: LazyLock<Counter> = LazyLock::new(|| global().counter("pool.panics"));
    pub(super) static INLINE_BATCHES: LazyLock<Counter> =
        LazyLock::new(|| global().counter("pool.inline_batches"));
    pub(super) static QUEUE_DEPTH: LazyLock<Gauge> =
        LazyLock::new(|| global().gauge("pool.queue_depth"));
    pub(super) static BUSY: LazyLock<Gauge> = LazyLock::new(|| global().gauge("pool.busy"));
    pub(super) static BATCH_JOBS: LazyLock<Histogram> =
        LazyLock::new(|| global().histogram("pool.batch_jobs"));
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A job's outcome as stored in its batch slot: the value, or the panic
/// payload captured by `catch_unwind`.
type JobOutcome<T> = Result<T, Box<dyn Any + Send + 'static>>;

/// Runs one job under `catch_unwind` with occupancy and panic-isolation
/// telemetry around it (used by both the worker and the inline path).
fn run_instrumented<T, F>(job: F) -> JobOutcome<T>
where
    F: FnOnce() -> T,
{
    obs::JOBS.inc();
    obs::BUSY.add(1);
    let outcome = catch_unwind(AssertUnwindSafe(job));
    obs::BUSY.add(-1);
    if outcome.is_err() {
        obs::PANICS.inc();
    }
    outcome
}

/// A pool job panicked; carries the rendered panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanicError {
    message: String,
}

impl JobPanicError {
    fn from_payload(payload: &(dyn Any + Send)) -> JobPanicError {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        JobPanicError { message }
    }

    /// The panic message (or a placeholder for non-string payloads).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for JobPanicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanicError {}

/// Shared injector state: a queue of tasks plus a closed flag the drop
/// handler raises so workers exit.
struct Injector {
    queue: Mutex<(VecDeque<Task>, bool)>,
    available: Condvar,
}

/// Completion state of one in-flight batch.
struct Batch<T> {
    slots: Mutex<Vec<Option<JobOutcome<T>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads executing job batches.
///
/// See the module docs for the design; construction spawns the workers,
/// drop closes the queue and joins them.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped up to 1). Workers the
    /// OS refuses to spawn are simply absent; if none spawn at all, the
    /// pool still works by running batches inline on the calling thread.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .filter_map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("hems-pool-{i}"))
                    .spawn(move || loop {
                        let task = {
                            let mut guard = relock(&injector.queue);
                            loop {
                                if let Some(task) = guard.0.pop_front() {
                                    break task;
                                }
                                if guard.1 {
                                    return;
                                }
                                guard = injector
                                    .available
                                    .wait(guard)
                                    .unwrap_or_else(PoisonError::into_inner);
                            }
                        };
                        task();
                    })
                    .ok()
            })
            .collect();
        WorkerPool { injector, workers }
    }

    /// A pool sized by [`crate::sweep::resolved_threads`]: an explicit
    /// request, else `HEMS_THREADS`, else the machine's parallelism.
    pub fn with_default_threads(explicit: Option<usize>) -> WorkerPool {
        WorkerPool::new(crate::sweep::resolved_threads(explicit))
    }

    /// Number of live worker threads (0 means inline fallback).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Executes a batch and returns each slot's raw outcome in submission
    /// order. Jobs run under `catch_unwind`, so completion bookkeeping
    /// runs even for panicking jobs and the batch always finishes.
    fn run_batch<T, F>(&self, jobs: Vec<F>) -> Vec<Option<JobOutcome<T>>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        obs::BATCHES.inc();
        obs::BATCH_JOBS.record(n as u64);
        let _batch_span = hems_obs::span!("pool.batch_ns");
        if self.workers.is_empty() {
            // Degraded mode: no worker ever spawned; run inline.
            obs::INLINE_BATCHES.inc();
            return jobs
                .into_iter()
                .map(|job| Some(run_instrumented(job)))
                .collect();
        }
        let batch = Arc::new(Batch {
            slots: Mutex::new((0..n).map(|_| None).collect::<Vec<Option<JobOutcome<T>>>>()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        {
            let mut guard = relock(&self.injector.queue);
            obs::QUEUE_DEPTH.add(n as i64);
            for (index, job) in jobs.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                guard.0.push_back(Box::new(move || {
                    obs::QUEUE_DEPTH.add(-1);
                    let outcome = run_instrumented(job);
                    if let Some(slot) = relock(&batch.slots).get_mut(index) {
                        *slot = Some(outcome);
                    }
                    let mut remaining = relock(&batch.remaining);
                    *remaining = remaining.saturating_sub(1);
                    if *remaining == 0 {
                        batch.done.notify_all();
                    }
                }));
            }
        }
        self.injector.available.notify_all();
        let mut remaining = relock(&batch.remaining);
        while *remaining > 0 {
            remaining = batch
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);
        let mut slots = relock(&batch.slots);
        std::mem::take(&mut *slots)
    }

    /// Executes a batch of jobs on the pool, blocking until all complete,
    /// and returns their results **in submission order** regardless of
    /// completion order.
    ///
    /// # Panics
    ///
    /// A panicking job does not kill its worker or strand the batch; its
    /// panic is re-raised here on the calling thread once the whole batch
    /// has completed. Use [`WorkerPool::run_jobs_result`] to handle job
    /// panics as values instead.
    pub fn run_jobs<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.run_batch(jobs)
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(value)) => value,
                Some(Err(payload)) => resume_unwind(payload),
                None => resume_unwind(Box::new("pool batch slot was never filled")),
            })
            .collect()
    }

    /// Like [`WorkerPool::run_jobs`], but a panicking job yields an
    /// `Err(JobPanicError)` in its own slot while the rest of the batch
    /// completes normally — the fault-isolation entry for services that
    /// must degrade per-request rather than crash.
    pub fn run_jobs_result<T, F>(&self, jobs: Vec<F>) -> Vec<Result<T, JobPanicError>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.run_batch(jobs)
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(value)) => Ok(value),
                Some(Err(payload)) => Err(JobPanicError::from_payload(payload.as_ref())),
                None => Err(JobPanicError {
                    message: "batch slot was never filled".to_string(),
                }),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = relock(&self.injector.queue);
            guard.1 = true;
        }
        self.injector.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, SweepGrid};
    use hems_pv::Irradiance;
    use hems_units::Seconds;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..64)
            .map(|i: u64| {
                move || {
                    // Stagger completion so fast jobs finish out of order.
                    std::thread::sleep(std::time::Duration::from_micros(64 - i));
                    i * i
                }
            })
            .collect();
        let results = pool.run_jobs(jobs);
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(2);
        let results: Vec<u32> = pool.run_jobs(Vec::<fn() -> u32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..5u32 {
            let results = pool.run_jobs((0..10).map(|i| move || round + i).collect::<Vec<_>>());
            assert_eq!(results, (0..10).map(|i| round + i).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn one_scenario_per_job_matches_the_exact_sweep() {
        let mut grid = SweepGrid::paper_baseline().unwrap();
        grid.irradiances = vec![Irradiance::FULL_SUN, Irradiance::QUARTER_SUN];
        grid.duration = Seconds::from_milli(10.0);
        let scenarios = grid.scenarios().unwrap();
        let exact: Vec<_> = scenarios.iter().map(sweep::run_scenario).collect();
        let pool = WorkerPool::new(4);
        assert_eq!(exact, sweep::run_scenarios_chunked(&scenarios, &pool, 1));
    }

    #[test]
    fn zero_thread_request_still_works() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run_jobs(vec![|| 7u8]), vec![7]);
    }

    #[test]
    fn panicking_job_is_isolated_to_its_own_slot() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom in job 1")),
            Box::new(|| 3),
        ];
        let results = pool.run_jobs_result(jobs);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
        let err = results[1].clone().unwrap_err();
        assert!(err.message().contains("boom"), "{err}");
        assert!(err.to_string().contains("pool job panicked"));
    }

    #[test]
    fn pool_survives_a_panicking_batch_and_stays_usable() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("transient")), Box::new(|| 2)];
        let first = pool.run_jobs_result(jobs);
        assert!(first[0].is_err());
        assert_eq!(first[1], Ok(2));
        // Workers are all still alive and the next batch is clean.
        let second = pool.run_jobs((0..8u32).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(second, (1..=8).collect::<Vec<u32>>());
    }

    #[test]
    fn run_jobs_reraises_a_job_panic_after_the_batch_completes() {
        let result = std::panic::catch_unwind(|| {
            let pool = WorkerPool::new(2);
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
                vec![Box::new(|| 1), Box::new(|| panic!("propagate me"))];
            pool.run_jobs(jobs)
        });
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "propagate me");
    }
}
