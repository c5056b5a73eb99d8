//! `nuca-mcheck`: an exhaustive interleaving model checker for the
//! simulator lock state machines.
//!
//! Every algorithm in `nucasim-locks` is a resumable state machine
//! ([`nucasim_locks::LockSession`]) that communicates with the world only
//! through [`nucasim::Command`] values — exactly the shape a systematic
//! concurrency checker needs. This crate drives those sessions directly
//! over a tiny **sequentially consistent** flat word store (no `nucasim`
//! engine, no timing: `Delay` is an immediate no-op, so exploration covers
//! every ordering a delay could otherwise hide) and enumerates thread
//! interleavings with a depth-first search that backtracks from world
//! snapshots and deduplicates states by a structural hash ([`dfs`]).
//!
//! Checked properties:
//!
//! 1. **Mutual exclusion** — never two sessions past `Acquired` without an
//!    intervening `Released`.
//! 2. **Deadlock freedom** — from every reachable state, some thread can
//!    step.
//! 3. **Eventual acquisition under fair schedules** — round-robin
//!    scheduling completes every thread's acquisitions within a budget.
//! 4. **GT-slot hygiene** — for HBO_GT / HBO_GT_SD, every node's
//!    `is_spinning` slot is cleared once its last contender releases
//!    (checked on every terminal state).
//!
//! On a violation the offending schedule is shrunk to a minimal prefix
//! (greedy delta debugging over schedule entries) and replayed through the
//! `nucasim` trace layer so the counterexample prints as a readable event
//! log ([`render::render`]).
//!
//! The deliberate gap vs. `nucasim`: the simulator models NUCA *timing*
//! (latencies, backoff, caches) on one schedule per seed; the checker
//! models *all schedules* on a timeless SC memory. Bugs that only
//! manifest under weak memory orderings are out of scope for both.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod dfs;
pub mod fair;
pub mod random;
pub mod render;
pub mod world;

use std::fmt;

use hbo_locks::LockKind;

pub use dfs::{explore, Counterexample, ExploreStats};
pub use fair::{check_fair, FairReport};
pub use random::{check_random, RandomOutcome};
pub use world::{Status, World};

/// What the checker is checking: a registered algorithm from the
/// [`hbo_locks::LockCatalog`], or a deliberately broken mutant from
/// [`nucasim_locks::mutants`] (used to validate the checker itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A registered [`LockKind`] algorithm (every catalog entry has a
    /// simulator state machine, so every one is checkable).
    Kind(LockKind),
    /// Mutant: TATAS with the test-and-set race reintroduced.
    RacyTatas,
    /// Mutant: HBO_GT that never clears its `is_spinning` slot on a
    /// successful remote acquire.
    LeakyHboGt,
    /// Mutant: CNA whose splice path drops the link from the secondary
    /// queue back to the main queue.
    SpliceLostCna,
}

impl Subject {
    /// The three seeded mutants, which the checker must catch.
    pub const MUTANTS: [Subject; 3] = [
        Subject::RacyTatas,
        Subject::LeakyHboGt,
        Subject::SpliceLostCna,
    ];

    /// The subjects `--kind all` verifies: every kind registered in the
    /// [`hbo_locks::LockCatalog`], in registration order. Derived, not
    /// listed — registering a lock automatically extends the checker's
    /// coverage. Mutants are excluded — they exist to *fail*.
    pub fn verified() -> &'static [Subject] {
        static VERIFIED: std::sync::OnceLock<Vec<Subject>> = std::sync::OnceLock::new();
        VERIFIED.get_or_init(|| {
            hbo_locks::LockCatalog::kinds()
                .iter()
                .map(|&k| Subject::Kind(k))
                .collect()
        })
    }

    /// Canonical (CLI) name.
    pub fn name(self) -> &'static str {
        match self {
            Subject::Kind(k) => k.as_str(),
            Subject::RacyTatas => "RACY_TATAS",
            Subject::LeakyHboGt => "LEAKY_HBO_GT",
            Subject::SpliceLostCna => "SPLICE_LOST_CNA",
        }
    }
}

/// One checker run's parameters.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// The lock under test.
    pub subject: Subject,
    /// Contending threads, spread round-robin over the two NUCA nodes.
    pub cpus: usize,
    /// Acquire/release iterations per thread.
    pub iters: u32,
    /// Safety-net schedule-length bound; paths longer than this count as
    /// `truncated` in [`ExploreStats`] (a non-exhaustive run). DFS path
    /// length is bounded by the longest simple chain of distinct states,
    /// so the default is never hit at checker scale.
    pub depth: usize,
    /// CHESS-style preemption bound: switching away from a thread that
    /// could still step costs one unit of budget; `None` explores all
    /// interleavings. With a bound set, the dedup key includes the spent
    /// budget (a state reached with fewer preemptions allows strictly more
    /// futures, so plain state dedup would be unsound).
    pub preempt: Option<u32>,
    /// Step budget for the fair-schedule liveness check.
    pub fair_budget: u64,
}

impl CheckConfig {
    /// Defaults: 2 CPUs (one per node), 2 iterations, effectively
    /// unbounded depth and preemptions.
    pub fn new(subject: Subject) -> CheckConfig {
        CheckConfig {
            subject,
            cpus: 2,
            iters: 2,
            depth: 100_000,
            preempt: None,
            fair_budget: 200_000,
        }
    }
}

/// A property violation found by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Two threads hold the lock at once.
    MutualExclusion {
        /// Thread already holding the lock.
        first: usize,
        /// Thread that acquired anyway.
        second: usize,
    },
    /// No thread can step, but not all are done.
    Deadlock,
    /// A GT `is_spinning` slot is still set after every contender
    /// finished.
    SlotLeak {
        /// Flat-store word index of the leaked slot.
        slot: usize,
        /// The stale value it still holds.
        value: u64,
    },
    /// A thread failed to complete its acquisitions under a fair
    /// (round-robin) schedule within the budget.
    Unfair {
        /// The starved thread.
        thread: usize,
    },
}

impl Violation {
    /// Stable short name, used to decide whether a shrunk schedule still
    /// reproduces "the same" violation (thread ids and slot values may
    /// legitimately differ after shrinking).
    pub fn kind_str(self) -> &'static str {
        match self {
            Violation::MutualExclusion { .. } => "mutual-exclusion",
            Violation::Deadlock => "deadlock",
            Violation::SlotLeak { .. } => "slot-leak",
            Violation::Unfair { .. } => "unfair",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::MutualExclusion { first, second } => write!(
                f,
                "mutual exclusion violated: thread {first} and thread {second} \
                 hold the lock simultaneously"
            ),
            Violation::Deadlock => write!(f, "deadlock: no thread can make progress"),
            Violation::SlotLeak { slot, value } => write!(
                f,
                "GT-slot hygiene violated: is_spinning word {slot} still holds \
                 {value} after all contenders released"
            ),
            Violation::Unfair { thread } => write!(
                f,
                "starvation under a fair schedule: thread {thread} did not \
                 finish its acquisitions within the fairness budget"
            ),
        }
    }
}

/// Everything one `check` run produced.
#[derive(Debug)]
pub struct CheckReport {
    /// The subject checked.
    pub subject: Subject,
    /// Exhaustive-exploration statistics.
    pub stats: ExploreStats,
    /// Fair-schedule statistics (only run when exploration found nothing).
    pub fair: Option<FairReport>,
    /// The shrunk counterexample, if any property failed.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// Did every property hold?
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Runs the full check for one subject: exhaustive DFS over interleavings
/// (properties 1, 2, 4), then — if clean — the fair-schedule liveness
/// check (property 3).
pub fn check(cfg: &CheckConfig) -> CheckReport {
    let (stats, cex) = dfs::explore(cfg);
    if let Some(cex) = cex {
        return CheckReport {
            subject: cfg.subject,
            stats,
            fair: None,
            counterexample: Some(cex),
        };
    }
    match fair::check_fair(cfg) {
        Ok(fair) => CheckReport {
            subject: cfg.subject,
            stats,
            fair: Some(fair),
            counterexample: None,
        },
        Err(cex) => CheckReport {
            subject: cfg.subject,
            stats,
            fair: None,
            counterexample: Some(cex),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subject_names_are_unique() {
        let mut names: Vec<&str> = Subject::verified()
            .iter()
            .chain(Subject::MUTANTS.iter())
            .map(|s| s.name())
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn verified_covers_the_whole_catalog() {
        // Registering a lock kind must automatically put it under the
        // checker's `--kind all` umbrella.
        assert!(Subject::verified().len() >= 13);
        assert_eq!(
            Subject::verified().len(),
            hbo_locks::LockCatalog::kinds().len()
        );
        for (s, &k) in Subject::verified()
            .iter()
            .zip(hbo_locks::LockCatalog::kinds())
        {
            assert_eq!(*s, Subject::Kind(k));
        }
    }

    #[test]
    fn violation_display_and_kind() {
        let v = Violation::MutualExclusion { first: 0, second: 1 };
        assert!(v.to_string().contains("mutual exclusion"));
        assert_eq!(v.kind_str(), "mutual-exclusion");
        assert_eq!(Violation::Deadlock.kind_str(), "deadlock");
    }
}
