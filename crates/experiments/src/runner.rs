//! Deterministic parallel execution of independent simulation jobs.
//!
//! Every paper artifact is a sweep of self-contained, seeded simulations:
//! the jobs share no state, so they can run on any thread in any order as
//! long as their *results* are assembled in the fixed order of the job
//! list. [`run_jobs`] does exactly that — each result is put back at its
//! job's index — which makes parallel output byte-identical to a serial
//! run by construction (a regression test in `tests/runner_determinism.rs`
//! holds this invariant down to the TSV bytes).
//!
//! There is one pool and nothing nests inside it: an invocation plans
//! every cell its artifacts read ([`crate::cells`]) and hands the unique
//! cells to a single [`run_jobs`] call, so its worker count is the bound
//! on simulations running at once. The bound is [`max_jobs`]: the host's
//! available parallelism unless the CLI's `--jobs N` set it through
//! [`set_max_jobs`]. With a budget of 1 the jobs run strictly serially on
//! the calling thread — the reference ordering the determinism test
//! compares against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Configured job budget; 0 means "not set, use available parallelism".
static MAX_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the maximum number of simulation jobs that may execute
/// concurrently (the `--jobs N` flag). `0` resets to the default
/// (available parallelism).
pub fn set_max_jobs(n: usize) {
    MAX_JOBS.store(n, Ordering::Relaxed);
}

/// The current job budget: the value set by [`set_max_jobs`], defaulting
/// to the host's available parallelism (at least 1).
pub fn max_jobs() -> usize {
    match MAX_JOBS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Runs `jobs` — independent, self-contained closures — on
/// `min(max_jobs(), jobs.len())` scoped workers and returns their results
/// **in job order**, regardless of which worker finished which job when.
/// A panicking job fails the call, after the other workers drain the
/// queue.
///
/// With a budget of 1 the jobs run serially on the calling thread.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = max_jobs().min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, T)> = thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The queue lock is released before the job runs.
                        let next = queue.lock().expect("job queue poisoned").next();
                        let Some((i, job)) = next else { break done };
                        done.push((i, job()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Serializes tests that reconfigure the global job budget.
    static BUDGET_LOCK: Mutex<()> = Mutex::new(());

    fn with_budget<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_max_jobs(n);
        let out = f();
        set_max_jobs(0);
        out
    }

    #[test]
    fn results_come_back_in_job_order() {
        // Later jobs finish first (reverse sleeps); order must still hold.
        let out = with_budget(4, || {
            run_jobs(
                (0..8u64)
                    .map(|i| {
                        move || {
                            thread::sleep(Duration::from_millis(8 - i));
                            i * 10
                        }
                    })
                    .collect(),
            )
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_budget_runs_inline() {
        let out = with_budget(1, || {
            let main_thread = thread::current().id();
            run_jobs(
                (0..4)
                    .map(|i| {
                        move || {
                            assert_eq!(thread::current().id(), main_thread);
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gate_bounds_concurrency() {
        static RUNNING: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let budget = 2;
        with_budget(budget, || {
            run_jobs(
                (0..12)
                    .map(|_| {
                        || {
                            let now = RUNNING.fetch_add(1, Ordering::SeqCst) + 1;
                            PEAK.fetch_max(now, Ordering::SeqCst);
                            thread::sleep(Duration::from_millis(3));
                            RUNNING.fetch_sub(1, Ordering::SeqCst);
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        });
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(peak <= budget, "peak {peak} exceeded budget {budget}");
    }

    #[test]
    fn a_panicking_job_fails_the_pool_instead_of_hanging() {
        for budget in [1, 2] {
            let out = with_budget(budget, || {
                std::panic::catch_unwind(|| {
                    run_jobs(
                        (0..6)
                            .map(|i| {
                                move || {
                                    assert_ne!(i, 3, "job {i} fails");
                                    i
                                }
                            })
                            .collect::<Vec<_>>(),
                    )
                })
            });
            assert!(out.is_err(), "budget {budget}: the panic must reach the caller");
        }
    }
}
