//! The cell cache: each simulation an `experiments` invocation needs is
//! run once, and every artifact that asks for it reads the same result.
//!
//! Several artifacts read the same runs. Table 2 is Fig. 5 at
//! `critical_work = 1500`, `lat_hist` reads Fig. 5's whole grid, Tables 5
//! and 6 and Fig. 6 share the application runs, and Table 4 and Fig. 7
//! share Raytrace's. Artifacts ask a [`Cells`] for each run instead of
//! simulating it themselves:
//!
//! * **Key.** A cell is keyed by the `Debug` rendering of its config.
//!   Artifacts build complete configs from the invocation's
//!   [`crate::Settings`] (protocol, binding, lock tunables), and the run
//!   reads nothing else, so the key is exactly what the run sees.
//!   Application cells key on the [`AppModel`] too. Profiled runs and
//!   custom-lock runs are kept apart from plain runs of the same config.
//! * **Scope.** One [`Cells`] per invocation: `main` makes one for every
//!   requested id, and [`crate::run_experiment`] one per call. Two calls
//!   never share, so each still simulates. The workload runners
//!   (`run_modern*`, `run_app`) stay uncached.
//! * **In flight.** The first requester of a cell simulates it; any other
//!   requester blocks until it is done, with its `--jobs` permit handed
//!   back (`runner::unmetered`). Exactly one run per cell at any
//!   `--jobs`, so event counts and `--profile` output do not depend on
//!   scheduling.
//! * **Memory.** A cell keeps only what artifacts read ([`ModernCell`],
//!   [`AppReport`], [`ProfiledCell`]), never a run's final-memory image.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use nuca_workloads::apps::{run_app, AppModel, AppReport, AppRunConfig};
use nuca_workloads::modern::{
    run_modern_profiled, run_modern_raw, run_modern_with, LockFactory, ModernConfig,
};
use nuca_workloads::MicroReport;
use nucasim::{Histogram, LockProfile, LockTrace, SimReport};

use crate::runner;

/// What artifacts read from one microbenchmark run (lock 0 is the lock
/// under test).
#[derive(Debug)]
pub struct ModernCell {
    /// The paper-facing metrics.
    pub micro: MicroReport,
    /// Simulated run time in seconds.
    pub seconds: f64,
    /// Lock 0's time-to-acquire distribution (cycles).
    pub wait: Histogram,
    /// Preemption windows applied.
    pub preemptions: u64,
    /// Injected thread migrations applied.
    pub migrations: u64,
}

impl ModernCell {
    fn from_sim(cfg: &ModernConfig, sim: &SimReport) -> ModernCell {
        ModernCell {
            micro: MicroReport::from_sim(cfg.kind, cfg.threads, sim, 0),
            seconds: sim.seconds(),
            wait: sim
                .lock_traces
                .first()
                .map(|t| t.wait.clone())
                .unwrap_or_default(),
            preemptions: sim.preemptions,
            migrations: sim.migrations,
        }
    }
}

/// What the `handoff` artifact reads from one profiled run: lock 0's
/// `SimStats` trace and its stream-only profile.
#[derive(Debug)]
pub struct ProfiledCell {
    /// Lock 0's acquisition trace.
    pub trace: LockTrace,
    /// Lock 0's residency runs and acquire-phase split.
    pub lock: LockProfile,
}

/// One invocation's cell cache (see the module docs).
#[derive(Default)]
pub struct Cells {
    modern: Memo<ModernCell>,
    profiled: Memo<ProfiledCell>,
    apps: Memo<AppReport>,
}

impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cells")
            .field("modern", &self.modern.len())
            .field("profiled", &self.profiled.len())
            .field("apps", &self.apps.len())
            .finish()
    }
}

impl Cells {
    /// An empty cache.
    pub fn new() -> Cells {
        Cells::default()
    }

    /// The microbenchmark run of `cfg` with its registered lock kind.
    pub fn modern(&self, cfg: &ModernConfig) -> Arc<ModernCell> {
        self.modern.get_or_run(format!("{cfg:?}"), || {
            let (sim, _) = run_modern_raw(cfg);
            ModernCell::from_sim(cfg, &sim)
        })
    }

    /// The microbenchmark run of `cfg` with the lock `factory` builds;
    /// `lock` names that lock and keeps the cell apart from the plain run
    /// of `cfg` (whose `kind` only labels this one).
    pub fn custom(
        &self,
        lock: &str,
        cfg: &ModernConfig,
        factory: &LockFactory<'_>,
    ) -> Arc<ModernCell> {
        self.modern.get_or_run(format!("{lock} {cfg:?}"), || {
            let (sim, _) = run_modern_with(cfg, factory);
            ModernCell::from_sim(cfg, &sim)
        })
    }

    /// The microbenchmark run of `cfg` with the streaming profiler
    /// attached.
    pub fn profiled(&self, cfg: &ModernConfig) -> Arc<ProfiledCell> {
        self.profiled.get_or_run(format!("{cfg:?}"), || {
            let (mut sim, mut profile) = run_modern_profiled(cfg);
            ProfiledCell {
                trace: sim.lock_traces.swap_remove(0),
                lock: profile.locks.swap_remove(0),
            }
        })
    }

    /// The run of application `model` under `cfg`.
    pub fn app(&self, model: &AppModel, cfg: &AppRunConfig) -> Arc<AppReport> {
        self.apps
            .get_or_run(format!("{model:?} {cfg:?}"), || run_app(model, cfg))
    }
}

/// A single-flight map from key to shared result.
struct Memo<T> {
    slots: Mutex<HashMap<String, Arc<Slot<T>>>>,
}

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

struct Slot<T> {
    state: Mutex<State<T>>,
    done: Condvar,
}

enum State<T> {
    Running,
    Ready(Arc<T>),
    /// The run panicked; its requesters panic too instead of waiting.
    Failed,
}

/// The claim of the requester that runs a slot's cell. Dropping it wakes
/// the waiters, and marks the slot failed if no result was published
/// (the run unwound).
struct Claim<'a, T>(&'a Slot<T>);

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        // Every update of a slot is one assignment, so a poisoned state is
        // still whole; a panic here would abort the unwinding run instead.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, State::Running) {
            *state = State::Failed;
        }
        drop(state);
        self.0.done.notify_all();
    }
}

impl<T> Memo<T> {
    fn len(&self) -> usize {
        self.slots.lock().expect("cell map poisoned").len()
    }

    /// The value for `key`, running `run` if this is the key's first
    /// request. Later requests wait for the first one's result.
    fn get_or_run(&self, key: String, run: impl FnOnce() -> T) -> Arc<T> {
        let (slot, first) = match self.slots.lock().expect("cell map poisoned").entry(key) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(e) => {
                let slot = e.insert(Arc::new(Slot {
                    state: Mutex::new(State::Running),
                    done: Condvar::new(),
                }));
                (Arc::clone(slot), true)
            }
        };
        if first {
            let claim = Claim(&slot);
            let value = Arc::new(run());
            *slot.state.lock().expect("cell slot poisoned") = State::Ready(Arc::clone(&value));
            drop(claim);
            return value;
        }
        let wait = || {
            let mut state = slot.state.lock().expect("cell slot poisoned");
            loop {
                match &*state {
                    State::Ready(value) => return Some(Arc::clone(value)),
                    State::Failed => return None,
                    State::Running => state = slot.done.wait(state).expect("cell slot poisoned"),
                }
            }
        };
        if let State::Ready(value) = &*slot.state.lock().expect("cell slot poisoned") {
            return Arc::clone(value);
        }
        runner::unmetered(wait).expect("a shared simulation cell panicked in another job")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_for_an_in_flight_cell_waits_for_its_run() {
        let memo: Memo<u32> = Memo::default();
        // References to the slot: the map's, then one per requester.
        let refs = || {
            let slots = memo.slots.lock().expect("cell map poisoned");
            slots.get("k").map(Arc::strong_count)
        };
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                memo.get_or_run("k".to_owned(), || {
                    // Still running when the second requester finds the slot.
                    while refs() != Some(3) {
                        std::thread::yield_now();
                    }
                    7
                })
            });
            while refs().is_none() {
                std::thread::yield_now();
            }
            let second = s.spawn(|| memo.get_or_run("k".to_owned(), || panic!("ran twice")));
            assert_eq!(*first.join().expect("first requester"), 7);
            assert_eq!(*second.join().expect("second requester"), 7);
        });
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_panicked_run_fails_its_waiters_instead_of_hanging() {
        let memo: Memo<u32> = Memo::default();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_run("k".to_owned(), || panic!("boom"))
        }));
        assert!(first.is_err());
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_run("k".to_owned(), || 1)
        }));
        assert!(again.is_err(), "a failed cell must not be silently rerun");
    }
}
