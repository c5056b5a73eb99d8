//! End-to-end checks for the model checker: every catalog-registered lock
//! passes exhaustively with its pinned state-space size, all three seeded
//! mutants are provably caught, snapshots step exactly like replays, and
//! random mode is byte-reproducible.

use nuca_modelcheck::dfs::replay_violation;
use nuca_modelcheck::{
    check, check_random, explore, CheckConfig, Status, Subject, Violation, World,
};
use nucasim::SplitMix64;

/// Distinct states and transitions of the exhaustive search at the
/// default configuration (2 CPUs, 2 iterations), per verified subject.
/// A state key that merges or splits states, or a search that visits
/// states differently, changes these numbers.
const PINNED_COUNTS: [(&str, u64, u64); 13] = [
    ("TATAS", 36, 52),
    ("TATAS_EXP", 114, 274),
    ("MCS", 310, 728),
    ("CLH", 104, 164),
    ("RH", 1407, 6251),
    ("HBO", 116, 294),
    ("HBO_GT", 242, 678),
    ("HBO_GT_SD", 1112, 4148),
    ("TICKET", 93, 142),
    ("HIER", 116, 294),
    ("CNA", 590, 1446),
    ("TWA", 125, 192),
    ("RECIP", 454, 1074),
];

#[test]
fn state_space_sizes_are_pinned_at_two_cpus() {
    let names: Vec<&str> = Subject::verified().iter().map(|s| s.name()).collect();
    let pinned: Vec<&str> = PINNED_COUNTS.iter().map(|&(name, ..)| name).collect();
    assert_eq!(
        names, pinned,
        "the pinned table must cover every verified subject"
    );
    for (&subject, &(name, states, transitions)) in Subject::verified().iter().zip(&PINNED_COUNTS) {
        let (stats, cex) = explore(&CheckConfig::new(subject));
        assert!(cex.is_none(), "{name}: {cex:?}");
        assert_eq!(
            (stats.distinct_states, stats.transitions),
            (states, transitions),
            "{name}: (distinct states, transitions)"
        );
    }
}

/// A fresh world that has replayed `schedule` from the initial state,
/// with the result of the last step (every earlier one must succeed).
fn replayed(cfg: &CheckConfig, schedule: &[usize]) -> (World, Result<Option<u64>, Violation>) {
    let mut world = World::new(cfg);
    let (&last, prefix) = schedule.split_last().expect("a nonempty schedule");
    for &t in prefix {
        world
            .step(t)
            .expect("the prefix replays without a violation");
    }
    let result = world.step(last);
    (world, result)
}

/// Picks an enabled thread of `world` with `rng`, if any is enabled.
fn pick(world: &World, rng: &mut SplitMix64) -> Option<usize> {
    let enabled: Vec<usize> = (0..world.num_threads())
        .filter(|&t| world.enabled(t))
        .collect();
    (!enabled.is_empty()).then(|| enabled[rng.next_below(enabled.len() as u64) as usize])
}

#[test]
fn snapshots_step_exactly_like_replays() {
    // A seeded schedule at 3 CPUs, where CNA's secondary queue can form,
    // for every subject the checker knows, mutants included. Partway
    // through (or just before a mutant's first violation) the world is
    // cloned; every later step of the clone — its result, violations
    // included — must agree with a fresh world replaying the whole
    // prefix, and the original must not move.
    const SPLIT: usize = 9;
    let subjects = Subject::verified().iter().copied().chain(Subject::MUTANTS);
    for subject in subjects {
        let name = subject.name();
        let verified = !Subject::MUTANTS.contains(&subject);
        let mut cfg = CheckConfig::new(subject);
        cfg.cpus = 3;
        let mut rng = SplitMix64::new(0x5EED);
        let mut schedule = Vec::new();
        let mut original = World::new(&cfg);
        while schedule.len() < SPLIT {
            let t = pick(&original, &mut rng).expect("no subject finishes within the split");
            let mut next = original.clone();
            if next.step(t).is_err() {
                // Leave the violation for the clone to find.
                break;
            }
            original = next;
            schedule.push(t);
        }
        let original_key = original.state_key();
        let mut snapshot = original.clone();
        while let Some(t) = pick(&snapshot, &mut rng) {
            let result = snapshot.step(t);
            schedule.push(t);
            let at = schedule.len();
            let (fresh, fresh_result) = replayed(&cfg, &schedule);
            assert_eq!(result, fresh_result, "{name} step {at}: result");
            if result.is_err() {
                break;
            }
            assert_eq!(
                snapshot.state_key(),
                fresh.state_key(),
                "{name} step {at}: state key"
            );
            assert_eq!(
                snapshot.status(),
                fresh.status(),
                "{name} step {at}: status"
            );
            for t in 0..fresh.num_threads() {
                assert_eq!(
                    snapshot.pending(t),
                    fresh.pending(t),
                    "{name} step {at}: pending {t}"
                );
                assert_eq!(
                    snapshot.acquires(t),
                    fresh.acquires(t),
                    "{name} step {at}: acquires {t}"
                );
            }
        }
        if verified {
            assert_eq!(snapshot.status(), Status::Done, "{name}");
        }
        assert_eq!(
            original.state_key(),
            original_key,
            "{name}: stepping the clone moved the original"
        );
    }
}

#[test]
fn racy_tatas_mutant_is_caught_with_a_minimal_witness() {
    let cfg = CheckConfig::new(Subject::RacyTatas);
    let report = check(&cfg);
    let cex = report.counterexample.expect("mutant must be caught");
    assert!(matches!(cex.violation, Violation::MutualExclusion { .. }));
    // The shrinker is deterministic; the minimal race is read, read,
    // claim, claim. A regression here means either the search order or
    // ddmin changed.
    assert_eq!(cex.schedule.len(), 4, "{:?}", cex.schedule);
    // The shrunk schedule replays to the same violation kind with no
    // skipped entries.
    let (v, used) = replay_violation(&cfg, &cex.schedule).expect("replayable");
    assert_eq!(v.kind_str(), cex.violation.kind_str());
    assert_eq!(used, cex.schedule);
}

#[test]
fn leaky_hbo_gt_mutant_is_caught_with_a_stable_witness() {
    let cfg = CheckConfig::new(Subject::LeakyHboGt);
    let report = check(&cfg);
    let cex = report.counterexample.expect("mutant must be caught");
    // The unclear slot gates the leaker's own next acquire: the search
    // surfaces it as a deadlock (or, on other orders, a terminal slot
    // leak).
    assert!(
        matches!(
            cex.violation,
            Violation::Deadlock | Violation::SlotLeak { .. }
        ),
        "{}",
        cex.violation
    );
    // Stable shrunk length: acquire/release twice on node 0, announce +
    // leak + release on node 1, then the blocked re-acquire.
    assert_eq!(cex.schedule.len(), 12, "{:?}", cex.schedule);
    let (v, used) = replay_violation(&cfg, &cex.schedule).expect("replayable");
    assert_eq!(v.kind_str(), cex.violation.kind_str());
    assert_eq!(used, cex.schedule);
}

#[test]
fn splice_lost_cna_mutant_is_caught_at_three_cpus() {
    // The splice bug needs a secondary queue to exist at splice time,
    // which takes two same-node contenders plus a remote one — it is
    // *unreachable* at two CPUs (one per node), so the CNA mutant is
    // checked one notch up. The lost link orphans the main queue: the
    // search surfaces it as a deadlock.
    let mut cfg = CheckConfig::new(Subject::SpliceLostCna);
    cfg.cpus = 3;
    let report = check(&cfg);
    let cex = report.counterexample.expect("mutant must be caught");
    assert!(
        matches!(
            cex.violation,
            Violation::Deadlock | Violation::Unfair { .. }
        ),
        "{}",
        cex.violation
    );
    // Stable shrunk length, like the two-CPU mutants'.
    assert_eq!(cex.schedule.len(), 49, "{:?}", cex.schedule);
    let (v, used) = replay_violation(&cfg, &cex.schedule).expect("replayable");
    assert_eq!(v.kind_str(), cex.violation.kind_str());
    assert_eq!(used, cex.schedule);
}

#[test]
fn splice_lost_cna_passes_vacuously_where_the_bug_is_unreachable() {
    // Documents the reachability boundary: at two CPUs there is never a
    // secondary queue, so the mutant is indistinguishable from real CNA —
    // which is why CI checks it at three CPUs.
    let report = check(&CheckConfig::new(Subject::SpliceLostCna));
    assert!(report.passed());
}

#[test]
fn exhaustive_and_random_agree_on_the_two_cpu_mutants() {
    // SpliceLostCna is excluded: its bug needs 3 CPUs (see above).
    for subject in [Subject::RacyTatas, Subject::LeakyHboGt] {
        let cfg = CheckConfig::new(subject);
        let out = check_random(&cfg, 256, 0xD1CE);
        assert!(
            !out.passed(),
            "{}: 256 random schedules missed the seeded bug",
            subject.name()
        );
    }
}

#[test]
fn random_mode_is_reproducible_per_seed() {
    let cfg = CheckConfig::new(Subject::Kind(hbo_locks::LockKind::HboGt));
    let a = check_random(&cfg, 40, 0xABCD);
    let b = check_random(&cfg, 40, 0xABCD);
    assert_eq!(a, b, "same seed must give an identical outcome");
    let c = check_random(&cfg, 40, 0xABCE);
    assert!(
        a.steps != c.steps || a.violation != c.violation || a.schedules != c.schedules,
        "different seeds should explore differently"
    );
}

#[test]
fn three_cpus_stays_exhaustive_for_the_flat_locks() {
    // A spot check that the state space stays tractable one notch up.
    for subject in [
        Subject::Kind(hbo_locks::LockKind::Tatas),
        Subject::Kind(hbo_locks::LockKind::Ticket),
    ] {
        let mut cfg = CheckConfig::new(subject);
        cfg.cpus = 3;
        let report = check(&cfg);
        assert!(report.passed(), "{:?}", report.counterexample);
        assert_eq!(report.stats.truncated, 0);
    }
}
