//! A dependency-free, fault-tolerant parallel job runner for experiment
//! sweeps.
//!
//! Experiments are embarrassingly parallel grids of independent simulations
//! (workload × scheme, mix × scheme). Each job is deterministic and owns all
//! of its state, so the only requirement for reproducibility is that results
//! land in the same order as a sequential run. [`run_watched`] guarantees
//! that: jobs are pulled from a shared queue by `N` scoped worker threads
//! and each result is written to its job's original index, so output is
//! bit-identical to sequential execution regardless of scheduling.
//!
//! # Failure model
//!
//! A sweep must not discard every finished result because one job
//! misbehaves (a default-scale `fig11_four_core` grid is about 45 s of wall
//! time on 2 vCPUs, and larger scales grow with their instruction budgets),
//! so every job runs inside [`std::panic::catch_unwind`]
//! and the runner returns `Vec<Result<T, JobError>>` in job order: a
//! panicking job yields `Err` in its own slot and every other slot is
//! exactly what a clean run produces. The queue and result slots use
//! poison-recovering locks, so a panic inside one worker can never
//! cascade-poison the shared state of the others.
//!
//! [`run_watched`] can also arm a per-job watchdog (`--job-timeout N`
//! seconds or `PPF_JOB_TIMEOUT=N`, default off): a job that exceeds the
//! limit is marked [`FailReason::TimedOut`] and the sweep moves on. The hung
//! job's thread is abandoned (Rust cannot kill a thread) and dies with the
//! process — acceptable for a CLI sweep, which is why the watchdog is
//! opt-in.

use ppf_sim::fault::lock_unpoisoned;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a sweep job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// The job panicked; the payload is the panic message.
    Panicked(String),
    /// The job exceeded the watchdog limit and was abandoned.
    TimedOut(Duration),
}

/// A failed sweep job: which job, why, and how long it ran.
#[derive(Debug, Clone)]
pub struct JobError {
    /// The job's label (resume key for sweep-driver jobs, `job N` otherwise).
    pub label: String,
    /// Panic payload or watchdog verdict.
    pub reason: FailReason,
    /// Wall-clock time the job consumed before failing.
    pub wall: Duration,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.reason {
            FailReason::Panicked(msg) => {
                write!(f, "{}: panicked after {:.2}s: {msg}", self.label, self.wall.as_secs_f64())
            }
            FailReason::TimedOut(limit) => write!(
                f,
                "{}: timed out after {:.2}s (job timeout {:.0}s)",
                self.label,
                self.wall.as_secs_f64(),
                limit.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// A job's outcome: its result, or a structured failure.
pub type Outcome<T> = Result<T, JobError>;

/// Per-job completion hook `(job index, label, wall time, outcome)`, called
/// from the worker that finished the job (used for incremental
/// checkpointing).
pub type CompleteFn<'a, T> = &'a (dyn Fn(usize, &str, Duration, &Outcome<T>) + Sync);

/// Resolves the worker-thread count for experiment sweeps.
///
/// Priority: a `--threads N` command-line flag, then the `PPF_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
///
/// A malformed request — a bare trailing `--threads`, `--threads=0`, a
/// non-numeric value, or an invalid `PPF_THREADS` — is rejected with a clear
/// message on stderr and exit code 2 rather than silently falling through to
/// a default the user did not ask for.
pub fn thread_count() -> usize {
    let env = std::env::var("PPF_THREADS").ok();
    or_exit(resolve_threads(std::env::args().skip(1), env.as_deref()))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves the per-job watchdog timeout: `--job-timeout N` (seconds, also
/// `--job-timeout=N`), then `PPF_JOB_TIMEOUT=N`, then `None` (watchdog off).
///
/// Malformed values are rejected with exit code 2, like [`thread_count`].
pub fn job_timeout() -> Option<Duration> {
    let env = std::env::var("PPF_JOB_TIMEOUT").ok();
    or_exit(resolve_timeout(std::env::args().skip(1), env.as_deref()))
}

/// A malformed flag is a usage error: print it and exit with code 2.
fn or_exit<T>(resolved: Result<T, String>) -> T {
    resolved.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Pure core of [`thread_count`]: `Ok(Some(n))` for an explicit request,
/// `Ok(None)` when nothing was specified, `Err` for a malformed request.
fn resolve_threads(
    args: impl Iterator<Item = String>,
    env: Option<&str>,
) -> Result<Option<usize>, String> {
    resolve_flag(args, env, ["--threads", "PPF_THREADS", "(e.g. --threads 8)"], parse_count)
}

/// Pure core of [`job_timeout`] (tests inject args/env).
fn resolve_timeout(
    args: impl Iterator<Item = String>,
    env: Option<&str>,
) -> Result<Option<Duration>, String> {
    let names = ["--job-timeout", "PPF_JOB_TIMEOUT", "in seconds (e.g. --job-timeout 600)"];
    resolve_flag(args, env, names, parse_timeout)
}

/// `--<flag> V` or `--<flag>=V` from `args`, else the value `env` of the
/// variable `env_var`, through `parse(value, source)`; `Ok(None)` when
/// neither is set.
fn resolve_flag<T>(
    mut args: impl Iterator<Item = String>,
    env: Option<&str>,
    [flag, env_var, usage]: [&str; 3],
    parse: fn(&str, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let eq_form = format!("{flag}=");
    while let Some(a) = args.next() {
        if a == flag {
            let v = args.next().ok_or_else(|| format!("{flag} requires a value {usage}"))?;
            return parse(&v, flag).map(Some);
        } else if let Some(v) = a.strip_prefix(&eq_form) {
            return parse(v, flag).map(Some);
        }
    }
    env.map(|v| parse(v, env_var)).transpose()
}

fn parse_count(v: &str, source: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(0) => Err(format!("{source} must be at least 1, got 0")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{source} expects a positive integer, got `{v}`")),
    }
}

fn parse_timeout(v: &str, source: &str) -> Result<Duration, String> {
    match v.parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => Ok(Duration::from_secs_f64(s)),
        Ok(_) => Err(format!("{source} must be a positive number of seconds, got `{v}`")),
        Err(_) => Err(format!("{source} expects a number of seconds, got `{v}`")),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panic isolation, converting an unwind into a [`JobError`].
fn guard<T>(label: &str, f: impl FnOnce() -> T) -> Outcome<T> {
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| JobError {
        label: label.to_string(),
        reason: FailReason::Panicked(panic_message(payload)),
        wall: t0.elapsed(),
    })
}

/// The shared worker loop: each `F` already encapsulates its own isolation
/// (catch_unwind, optionally a watchdog) and must return an [`Outcome`]
/// rather than panic.
fn drive<T, F>(jobs: Vec<(String, F)>, threads: usize, on_complete: CompleteFn<T>) -> Vec<Outcome<T>>
where
    T: Send,
    F: FnOnce(&str) -> Outcome<T> + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, (label, f))| {
                let t0 = Instant::now();
                let result = f(&label);
                on_complete(i, &label, t0.elapsed(), &result);
                result
            })
            .collect();
    }
    let workers = threads.min(n);
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let slots: Vec<Mutex<Option<Outcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Take the lock only long enough to pop one job.
                let next = lock_unpoisoned(&queue).next();
                let Some((i, (label, f))) = next else { break };
                let t0 = Instant::now();
                let result = f(&label);
                on_complete(i, &label, t0.elapsed(), &result);
                *lock_unpoisoned(&slots[i]) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every job ran")
        })
        .collect()
}

/// A heap-allocated sweep job (the `'static` bound is what lets the
/// watchdog hand the job to an abandonable thread).
pub type BoxedJob<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// Runs a job on a disposable thread and waits at most `limit` for it.
///
/// On overrun the job's thread is abandoned (Rust cannot kill a thread) and
/// dies with the process; the caller gets [`FailReason::TimedOut`] and moves
/// on. Panics inside the job are isolated and surface as
/// [`FailReason::Panicked`].
fn run_with_deadline<T: Send + 'static>(
    label: &str,
    job: BoxedJob<T>,
    limit: Duration,
) -> Outcome<T> {
    let t0 = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<Outcome<T>>();
    let owned = label.to_string();
    let spawned = std::thread::Builder::new().name(format!("ppf-job {label}")).spawn(move || {
        let _ = tx.send(guard(&owned, job));
    });
    if spawned.is_err() {
        return Err(JobError {
            label: label.to_string(),
            reason: FailReason::Panicked("could not spawn watchdog job thread".into()),
            wall: t0.elapsed(),
        });
    }
    match rx.recv_timeout(limit) {
        Ok(outcome) => outcome,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(JobError {
            label: label.to_string(),
            reason: FailReason::TimedOut(limit),
            wall: t0.elapsed(),
        }),
        // The sender dropped without sending: only possible if the job
        // thread died outside catch_unwind (e.g. a non-unwinding abort would
        // have taken the process with it, so treat this as a panic).
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(JobError {
            label: label.to_string(),
            reason: FailReason::Panicked("job thread exited without a result".into()),
            wall: t0.elapsed(),
        }),
    }
}

/// Runs boxed jobs with panic isolation, an optional per-job watchdog, and a
/// per-completion hook — the engine under the sweep driver. Outcomes come
/// back in job order.
///
/// With `threads <= 1` (or a single job) the jobs run sequentially on the
/// calling thread. Otherwise `min(threads, jobs)` scoped workers drain a
/// shared queue; a worker that finishes a long job late still writes its
/// result to the job's own slot, so the returned vector is identical to what
/// the sequential path produces. A panicking job becomes `Err(JobError)` in
/// its own slot; all other slots are unaffected.
///
/// With `timeout: Some(limit)`, each job runs on its own disposable thread;
/// a job still running after `limit` is reported as
/// [`FailReason::TimedOut`] and its thread abandoned (it dies with the
/// process). With `timeout: None`, jobs run directly on the workers.
pub fn run_watched<T: Send + 'static>(
    jobs: Vec<(String, BoxedJob<T>)>,
    threads: usize,
    timeout: Option<Duration>,
    on_complete: CompleteFn<T>,
) -> Vec<Outcome<T>> {
    match timeout {
        None => drive(
            jobs.into_iter().map(|(label, f)| (label, move |l: &str| guard(l, f))).collect(),
            threads,
            on_complete,
        ),
        Some(limit) => drive(
            jobs.into_iter()
                .map(|(label, f)| {
                    (label, move |l: &str| run_with_deadline(l, f, limit))
                })
                .collect(),
            threads,
            on_complete,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Labels job `i` as `job i` and runs the jobs with no watchdog.
    fn run<T: Send + 'static>(jobs: Vec<BoxedJob<T>>, threads: usize) -> Vec<Outcome<T>> {
        let labeled = jobs.into_iter().enumerate().map(|(i, f)| (format!("job {i}"), f)).collect();
        run_watched(labeled, threads, None, &|_, _, _, _| {})
    }

    /// Unwraps outcomes where no failure is expected.
    fn expect_all<T>(outcomes: Vec<Outcome<T>>) -> Vec<T> {
        outcomes
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("sweep job failed: {e}")))
            .collect()
    }

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<BoxedJob<i32>> = (0..37)
            .map(|i| {
                Box::new(move || {
                    // Stagger finish times so fast jobs overtake slow ones.
                    if i % 5 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 10
                }) as BoxedJob<i32>
            })
            .collect();
        let got = expect_all(run(jobs, 4));
        let want: Vec<i32> = (0..37).map(|i| i * 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sequential_fallback_matches() {
        let mk = || (0..16).map(|i| Box::new(move || i * i) as BoxedJob<i32>).collect::<Vec<_>>();
        assert_eq!(expect_all(run(mk(), 1)), expect_all(run(mk(), 8)));
    }

    #[test]
    fn empty_and_single() {
        assert!(run(Vec::<BoxedJob<u8>>::new(), 4).is_empty());
        assert_eq!(expect_all(run(vec![Box::new(|| 7u8) as BoxedJob<u8>], 4)), vec![7]);
    }

    #[test]
    fn more_threads_than_jobs() {
        let jobs: Vec<BoxedJob<i32>> = vec![Box::new(|| 1), Box::new(|| 2)];
        assert_eq!(expect_all(run(jobs, 64)), vec![1, 2]);
    }

    #[test]
    fn panicking_job_is_isolated() {
        for threads in [1, 4] {
            let jobs: Vec<BoxedJob<i32>> = (0..12)
                .map(|i| {
                    let f: BoxedJob<i32> = if i == 5 {
                        Box::new(|| panic!("boom {}", 5))
                    } else {
                        Box::new(move || i * 2)
                    };
                    f
                })
                .collect();
            let got = run(jobs, threads);
            assert_eq!(got.len(), 12);
            for (i, r) in got.iter().enumerate() {
                if i == 5 {
                    let e = r.as_ref().expect_err("job 5 panics");
                    assert_eq!(e.label, "job 5");
                    assert_eq!(e.reason, FailReason::Panicked("boom 5".into()));
                } else {
                    assert_eq!(*r.as_ref().expect("other jobs fine"), (i as i32) * 2);
                }
            }
        }
    }

    #[test]
    fn panic_does_not_cascade_poison() {
        // Many panicking jobs interleaved with good ones: every good result
        // must still land, even though workers observe panics constantly.
        let jobs: Vec<BoxedJob<usize>> = (0..40)
            .map(|i| {
                let f: BoxedJob<usize> = if i % 3 == 0 {
                    Box::new(move || panic!("injected {i}"))
                } else {
                    Box::new(move || i)
                };
                f
            })
            .collect();
        let got = run(jobs, 6);
        for (i, r) in got.iter().enumerate() {
            if i % 3 == 0 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn watchdog_times_out_hung_job() {
        let jobs: Vec<(String, BoxedJob<u32>)> = vec![
            ("fast".into(), Box::new(|| 1)),
            (
                "hung".into(),
                Box::new(|| {
                    std::thread::sleep(Duration::from_secs(60));
                    2
                }),
            ),
            ("also-fast".into(), Box::new(|| 3)),
        ];
        let got = run_watched(jobs, 2, Some(Duration::from_millis(50)), &|_, _, _, _| {});
        assert_eq!(*got[0].as_ref().unwrap(), 1);
        let e = got[1].as_ref().expect_err("hung job times out");
        assert_eq!(e.label, "hung");
        assert!(matches!(e.reason, FailReason::TimedOut(_)));
        assert_eq!(*got[2].as_ref().unwrap(), 3);
    }

    #[test]
    fn watchdog_passes_fast_jobs_and_catches_panics() {
        let jobs: Vec<(String, BoxedJob<u32>)> = vec![
            ("ok".into(), Box::new(|| 7)),
            ("bad".into(), Box::new(|| panic!("watched panic"))),
        ];
        let got = run_watched(jobs, 2, Some(Duration::from_secs(30)), &|_, _, _, _| {});
        assert_eq!(*got[0].as_ref().unwrap(), 7);
        let e = got[1].as_ref().expect_err("panic surfaces through watchdog");
        assert_eq!(e.reason, FailReason::Panicked("watched panic".into()));
    }

    #[test]
    fn run_with_deadline_times_out_and_passes_fast_jobs() {
        let fast = run_with_deadline("fast", Box::new(|| 42u32), Duration::from_secs(30));
        assert_eq!(*fast.as_ref().unwrap(), 42);
        let hung = run_with_deadline(
            "hung",
            Box::new(|| {
                std::thread::sleep(Duration::from_secs(60));
                0u32
            }),
            Duration::from_millis(40),
        );
        let e = hung.expect_err("must time out");
        assert!(matches!(e.reason, FailReason::TimedOut(_)));
    }

    #[test]
    fn completion_hook_sees_every_job() {
        let count = AtomicUsize::new(0);
        let hook = |_: usize, _: &str, _: Duration, _: &Outcome<u32>| {
            count.fetch_add(1, Ordering::SeqCst);
        };
        let jobs: Vec<(String, BoxedJob<u32>)> =
            (0..9u32).map(|i| (format!("j{i}"), Box::new(move || i) as BoxedJob<u32>)).collect();
        let got = run_watched(jobs, 3, None, &hook);
        assert_eq!(got.len(), 9);
        assert_eq!(count.load(Ordering::SeqCst), 9);
    }

    fn strings(v: &[&str]) -> impl Iterator<Item = String> + use<> {
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn thread_arg_parsing() {
        assert_eq!(resolve_threads(strings(&["--threads", "8"]), None), Ok(Some(8)));
        assert_eq!(resolve_threads(strings(&["--threads=3"]), None), Ok(Some(3)));
        assert_eq!(resolve_threads(strings(&["--quick"]), None), Ok(None));
        assert_eq!(resolve_threads(strings(&[]), Some("5")), Ok(Some(5)));
        // Flag beats environment.
        assert_eq!(resolve_threads(strings(&["--threads", "2"]), Some("5")), Ok(Some(2)));
    }

    #[test]
    fn thread_arg_rejects_malformed() {
        assert!(resolve_threads(strings(&["--threads"]), None).is_err(), "bare trailing flag");
        assert!(resolve_threads(strings(&["--threads=0"]), None).is_err(), "zero (eq form)");
        assert!(resolve_threads(strings(&["--threads", "0"]), None).is_err(), "zero");
        assert!(resolve_threads(strings(&["--threads", "lots"]), None).is_err(), "non-numeric");
        assert!(resolve_threads(strings(&["--threads=-2"]), None).is_err(), "negative");
        assert!(resolve_threads(strings(&[]), Some("0")).is_err(), "env zero");
        assert!(resolve_threads(strings(&[]), Some("soon")).is_err(), "env non-numeric");
    }

    #[test]
    fn timeout_arg_parsing() {
        assert_eq!(
            resolve_timeout(strings(&["--job-timeout", "30"]), None),
            Ok(Some(Duration::from_secs(30)))
        );
        assert_eq!(
            resolve_timeout(strings(&["--job-timeout=0.5"]), None),
            Ok(Some(Duration::from_millis(500)))
        );
        assert_eq!(resolve_timeout(strings(&[]), Some("2")), Ok(Some(Duration::from_secs(2))));
        assert_eq!(resolve_timeout(strings(&[]), None), Ok(None));
        assert!(resolve_timeout(strings(&["--job-timeout"]), None).is_err());
        assert!(resolve_timeout(strings(&["--job-timeout", "0"]), None).is_err());
        assert!(resolve_timeout(strings(&["--job-timeout", "never"]), None).is_err());
    }

    #[test]
    fn job_error_display_names_the_job() {
        let e = JobError {
            label: "619.lbm_s/PPF".into(),
            reason: FailReason::Panicked("index out of bounds".into()),
            wall: Duration::from_millis(1234),
        };
        let s = e.to_string();
        assert!(s.contains("619.lbm_s/PPF"), "{s}");
        assert!(s.contains("index out of bounds"), "{s}");
        let t = JobError {
            label: "mix00/SPP".into(),
            reason: FailReason::TimedOut(Duration::from_secs(30)),
            wall: Duration::from_secs(31),
        };
        assert!(t.to_string().contains("timed out"), "{t}");
    }
}
