//! Deterministic parallel execution of independent simulation jobs.
//!
//! Every paper artifact is a sweep of self-contained, seeded simulations:
//! the jobs share no state, so they can run on any thread in any order as
//! long as their *results* are assembled in the fixed order of the job
//! list. [`run_jobs`] does exactly that — results land in an indexed slot
//! per job — which makes parallel output byte-identical to a serial run by
//! construction (a regression test in `tests/runner_determinism.rs` holds
//! this invariant down to the TSV bytes).
//!
//! Two levels of parallelism share one budget:
//!
//! * [`run_fanout`] — one thread per *artifact* (used by
//!   `run_experiment("all")`). These threads only orchestrate; they never
//!   take an execution permit, so they cannot starve the leaf jobs below
//!   them (taking a permit here could deadlock: all permits held by
//!   orchestrators waiting on gated leaf jobs that can never start).
//! * [`run_jobs`] — the leaf simulation jobs. Each job acquires one global
//!   permit while it executes, so total concurrent simulation work stays
//!   at [`max_jobs`] no matter how many artifacts fan out above.
//!
//! The budget defaults to the host's available parallelism and is set from
//! the CLI's `--jobs N` flag via [`set_max_jobs`]. With a budget of 1,
//! both entry points run strictly serially on the calling thread — that is
//! the reference ordering the determinism test compares against.
//!
//! A leaf job that has to wait for another job's result (a shared
//! [`crate::cells`] cell still being simulated) gives its permit back
//! while it waits, via `unmetered`, so waiting never occupies the
//! budget that the job it waits on may need.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
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

/// Global execution gate: counts running leaf jobs, capacity [`max_jobs`].
struct Gate {
    running: Mutex<usize>,
    freed: Condvar,
}

static GATE: Gate = Gate {
    running: Mutex::new(0),
    freed: Condvar::new(),
};

thread_local! {
    /// Whether this thread's current leaf job holds a gate permit.
    static METERED: Cell<bool> = const { Cell::new(false) };
}

impl Gate {
    fn enter(&self) {
        let mut running = self.running.lock().expect("gate poisoned");
        while *running >= max_jobs() {
            running = self.freed.wait(running).expect("gate poisoned");
        }
        *running += 1;
        METERED.set(true);
    }

    fn leave(&self) {
        METERED.set(false);
        let mut running = self.running.lock().expect("gate poisoned");
        *running -= 1;
        drop(running);
        self.freed.notify_one();
    }
}

/// RAII permit for one executing leaf job.
struct Permit;

impl Permit {
    fn acquire() -> Permit {
        GATE.enter();
        Permit
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        GATE.leave();
    }
}

/// Takes the gate permit back when an [`unmetered`] wait ends, including
/// by unwinding, so the job's own [`Permit`] always has one to return.
struct Reenter;

impl Drop for Reenter {
    fn drop(&mut self) {
        GATE.enter();
    }
}

/// Runs `wait` — a blocking wait for another job's result — with the
/// calling leaf job's permit handed back to the gate, and takes a permit
/// again before returning. Outside a metered leaf job (serial runs,
/// orchestration threads) it just runs `wait`.
pub(crate) fn unmetered<T>(wait: impl FnOnce() -> T) -> T {
    if !METERED.get() {
        return wait();
    }
    GATE.leave();
    let _reenter = Reenter;
    wait()
}

/// Runs `jobs` — independent, self-contained closures — and returns their
/// results **in job order**, regardless of which thread finished which job
/// when. Each executing job holds one global permit, bounding concurrent
/// simulation work at [`max_jobs`] across every simultaneous caller.
///
/// With a budget of 1 the jobs run serially on the calling thread.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = max_jobs().min(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each job index is claimed once");
                let permit = Permit::acquire();
                let out = job();
                drop(permit);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// Runs orchestration-level `tasks` (one thread each) and returns their
/// results in task order. Unlike [`run_jobs`], the tasks take **no**
/// execution permit — they are expected to spend their time inside nested
/// [`run_jobs`] calls, whose leaf jobs are what the global gate meters.
///
/// With a budget of 1 the tasks run serially on the calling thread.
pub fn run_fanout<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if max_jobs() <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|task| task()).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
    let slots_ref = &slots;
    thread::scope(|s| {
        for (i, task) in tasks.into_iter().enumerate() {
            s.spawn(move || {
                *slots_ref[i].lock().expect("result slot poisoned") = Some(task());
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
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
    fn unmetered_waits_hand_the_permit_back() {
        with_budget(2, || {
            run_jobs(
                (0..2)
                    .map(|_| {
                        || {
                            assert!(METERED.get());
                            unmetered(|| assert!(!METERED.get()));
                            assert!(METERED.get(), "the permit is taken again");
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        });
        assert!(!METERED.get(), "the calling thread holds no permit");
    }

    #[test]
    fn fanout_preserves_order_and_nests() {
        // Orchestrators nesting run_jobs must not deadlock even when the
        // fanout width exceeds the budget.
        let out = with_budget(2, || {
            run_fanout(
                (0..5u64)
                    .map(|i| {
                        move || {
                            run_jobs((0..2).map(|j| move || i * 2 + j).collect::<Vec<_>>())
                        }
                    })
                    .collect(),
            )
        });
        assert_eq!(
            out,
            (0..5u64)
                .map(|i| vec![i * 2, i * 2 + 1])
                .collect::<Vec<_>>()
        );
    }
}
