//! Depth-first search over thread interleavings, backtracking from
//! snapshots.
//!
//! The search steps one live [`World`] in place. Every state on the
//! current path with more than one choice keeps a snapshot (a clone of
//! its world) in its frame; backtracking to it restores the snapshot into
//! the live world and steps the next sibling. The last sibling drops the
//! snapshot, and states with a single choice keep none. A world is under
//! a kilobyte of plain data — memory image, fixed-size sessions, pending
//! commands — so a snapshot costs two allocations and a restore none,
//! far less than rebuilding the initial world and replaying the schedule
//! prefix. The live world's observers (statistics, trace) persist across
//! restores: one per search.
//!
//! A state-hash dedup cache bounds the search: a state already visited at
//! the same or smaller depth cannot lead anywhere new. The key is
//! [`World::state_key`], a structural hash of the state. With a
//! preemption bound configured, the spent budget is folded into the key
//! (fewer preemptions spent = strictly more futures, so the plain key
//! would prune unsoundly).

use std::collections::HashMap;

use crate::world::{Status, World, MAX_THREADS};
use crate::{CheckConfig, Violation};

/// Exploration counters for one [`explore`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states inserted into the dedup cache.
    pub distinct_states: u64,
    /// Steps executed while exploring (excludes shrink replays).
    pub transitions: u64,
    /// Paths cut by the depth safety net; nonzero means non-exhaustive.
    pub truncated: u64,
    /// Longest schedule reached.
    pub max_depth: usize,
}

/// A violating schedule, shrunk to a minimal reproducing prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The property that failed.
    pub violation: Violation,
    /// Thread ids to step, in order, from the initial state.
    pub schedule: Vec<usize>,
}

struct Frame {
    /// Sibling choices at this state (thread ids), favorite first; the
    /// first `len` entries are used.
    choices: [usize; MAX_THREADS],
    len: usize,
    /// How many of `choices` have been explored.
    taken: usize,
    /// Preemption budget spent reaching this state.
    preempts: u32,
    /// The thread that stepped into this state, and whether it could have
    /// stepped again (so leaving it costs a preemption).
    last: Option<usize>,
    last_enabled: bool,
    /// This state's world, kept while a sibling after the first remains.
    snapshot: Option<World>,
}

/// Exhaustively explores every interleaving of `cfg` (up to the preemption
/// bound, if any), returning statistics and the first violation found —
/// already shrunk.
///
/// Invariant: `frames[i]` belongs to the state reached by
/// `schedule[..i]`; a frame exists for the current state exactly when
/// `frames.len() == schedule.len() + 1` (pruned states get none).
pub fn explore(cfg: &CheckConfig) -> (ExploreStats, Option<Counterexample>) {
    let mut stats = ExploreStats::default();
    let mut visited: HashMap<u64, u32> = HashMap::new();
    let mut schedule: Vec<usize> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut world = World::new(cfg);
    // Preemption budget spent to reach the current world state.
    let mut enter_preempts = 0u32;

    'outer: loop {
        let depth = schedule.len();
        stats.max_depth = stats.max_depth.max(depth);
        let mut expand = false;
        let mut violation = None;
        match world.status() {
            Status::Done => violation = world.final_violation(),
            Status::Deadlock => violation = Some(Violation::Deadlock),
            Status::Running => {
                if depth >= cfg.depth {
                    stats.truncated += 1;
                } else {
                    let mut key = world.state_key();
                    if let Some(bound) = cfg.preempt {
                        key ^= u64::from(bound.saturating_sub(enter_preempts))
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    }
                    match visited.get(&key) {
                        Some(&d) if d as usize <= depth => {}
                        Some(_) => {
                            visited.insert(key, depth as u32);
                            expand = true;
                        }
                        None => {
                            visited.insert(key, depth as u32);
                            stats.distinct_states += 1;
                            expand = true;
                        }
                    }
                }
            }
        }
        if let Some(v) = violation {
            return (stats, Some(shrink(cfg, v, schedule)));
        }
        if expand {
            let last = schedule.last().copied();
            let last_enabled = last.is_some_and(|l| world.enabled(l));
            let mut choices = [0; MAX_THREADS];
            let mut len = 0;
            // Favorite first: keep running the thread that just ran — the
            // non-preempting child — then the others in id order.
            if let Some(l) = last {
                if last_enabled {
                    choices[len] = l;
                    len += 1;
                }
            }
            let budget_left = cfg.preempt.is_none_or(|b| enter_preempts < b);
            if !last_enabled || budget_left {
                for t in 0..world.num_threads() {
                    if Some(t) != last && world.enabled(t) {
                        choices[len] = t;
                        len += 1;
                    }
                }
            }
            let snapshot = (len > 1).then(|| world.clone());
            frames.push(Frame {
                choices,
                len,
                taken: 0,
                preempts: enter_preempts,
                last,
                last_enabled,
                snapshot,
            });
        }
        // Advance: take the next untaken sibling of the deepest live
        // frame, backtracking past exhausted frames and pruned states. The
        // first sibling steps the live world, which is still at the
        // frame's state; later ones start from the frame's snapshot.
        loop {
            if frames.len() > schedule.len() {
                let frame = frames.last_mut().expect("nonempty by comparison");
                if frame.taken < frame.len {
                    let t = frame.choices[frame.taken];
                    if frame.taken > 0 {
                        let snapshot = frame
                            .snapshot
                            .as_ref()
                            .expect("a frame with siblings left keeps its snapshot");
                        world.restore(snapshot);
                        if frame.taken + 1 == frame.len {
                            frame.snapshot = None;
                        }
                    }
                    frame.taken += 1;
                    let preempt_step = frame.last_enabled && frame.last.is_some_and(|l| l != t);
                    enter_preempts = frame.preempts + u32::from(preempt_step);
                    schedule.push(t);
                    stats.transitions += 1;
                    if let Err(v) = world.step(t) {
                        return (stats, Some(shrink(cfg, v, schedule)));
                    }
                    continue 'outer;
                }
                frames.pop();
            }
            if schedule.pop().is_none() {
                return (stats, None);
            }
        }
    }
}

/// Replays `schedule` from the initial state with **skip semantics**:
/// entries naming a blocked or finished thread are dropped. Returns the
/// violation hit (if any) together with the entries actually executed.
/// Deadlock and terminal slot checks run when the schedule is exhausted
/// or everything finished early.
pub fn replay_violation(
    cfg: &CheckConfig,
    schedule: &[usize],
) -> Option<(Violation, Vec<usize>)> {
    let mut world = World::new(cfg);
    let mut used = Vec::new();
    for &t in schedule {
        match world.status() {
            Status::Done => break,
            Status::Deadlock => return Some((Violation::Deadlock, used)),
            Status::Running => {}
        }
        if t >= world.num_threads() || !world.enabled(t) {
            continue;
        }
        used.push(t);
        if let Err(v) = world.step(t) {
            return Some((v, used));
        }
    }
    match world.status() {
        Status::Done => world.final_violation().map(|v| (v, used)),
        Status::Deadlock => Some((Violation::Deadlock, used)),
        Status::Running => None,
    }
}

/// Delta debugging (ddmin) over schedule entries: repeatedly drop a
/// contiguous chunk — halves first, then ever finer, down to single
/// entries — keeping any candidate that still reproduces the same *kind*
/// of violation. Chunk removal matters: schedules are brittle under
/// single-entry removal (dropping one step desynchronizes everything
/// after it), but removing a whole burst of one thread's steps often
/// leaves a still-racing core. Deterministic, so shrunk lengths are
/// stable run-to-run — the mutant regression tests assert them.
pub fn shrink_schedule(
    cfg: &CheckConfig,
    violation: Violation,
    schedule: Vec<usize>,
) -> Counterexample {
    shrink(cfg, violation, schedule)
}

fn shrink(cfg: &CheckConfig, violation: Violation, schedule: Vec<usize>) -> Counterexample {
    let target = violation.kind_str();
    let (mut best_v, mut best) = match replay_violation(cfg, &schedule) {
        Some((v, used)) if v.kind_str() == target => (v, used),
        // Replay disagreeing with the search would be a checker bug; keep
        // the raw schedule rather than panic in a diagnostics path.
        _ => (violation, schedule),
    };
    let mut n = 2usize; // current granularity: chunks of len/n
    while best.len() >= 2 && n <= best.len() {
        let chunk = best.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let candidate: Vec<usize> = best[..start]
                .iter()
                .chain(best[end..].iter())
                .copied()
                .collect();
            if let Some((v, used)) = replay_violation(cfg, &candidate) {
                if v.kind_str() == target && used.len() < best.len() {
                    best_v = v;
                    best = used;
                    n = n.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
            }
            start = end;
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(best.len());
        }
    }
    Counterexample {
        violation: best_v,
        schedule: best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Subject;
    use hbo_locks::LockKind;

    #[test]
    fn tatas_two_cpus_is_clean_and_small() {
        let cfg = CheckConfig::new(Subject::Kind(LockKind::Tatas));
        let (stats, cex) = explore(&cfg);
        assert!(cex.is_none(), "{cex:?}");
        assert_eq!(stats.truncated, 0);
        assert!(stats.distinct_states > 10, "{stats:?}");
        assert!(stats.distinct_states < 10_000, "{stats:?}");
    }

    #[test]
    fn racy_tatas_caught_and_shrunk_to_minimum() {
        let cfg = CheckConfig::new(Subject::RacyTatas);
        let (_, cex) = explore(&cfg);
        let cex = cex.expect("the race must be found");
        assert!(matches!(cex.violation, Violation::MutualExclusion { .. }));
        // Minimal witness: read, read, claim, claim.
        assert_eq!(cex.schedule.len(), 4, "{:?}", cex.schedule);
        // And it replays to the same violation.
        let (v, used) = replay_violation(&cfg, &cex.schedule).expect("replayable");
        assert_eq!(v.kind_str(), "mutual-exclusion");
        assert_eq!(used, cex.schedule);
    }

    #[test]
    fn preemption_bound_gates_the_racy_tatas_race() {
        // The race needs two preemptions: away from a thread between its
        // check and its act, then back to it after the rival claimed. So
        // bounds 0 and 1 must come up clean, bound 2 must find it.
        for (bound, caught) in [(0, false), (1, false), (2, true)] {
            let mut cfg = CheckConfig::new(Subject::RacyTatas);
            cfg.preempt = Some(bound);
            let (_, cex) = explore(&cfg);
            assert_eq!(cex.is_some(), caught, "bound {bound}: {cex:?}");
        }
    }

    #[test]
    fn replay_skips_blocked_entries() {
        let cfg = CheckConfig::new(Subject::Kind(LockKind::Tatas));
        // 0,0 takes and releases; interleaved 1s are fine; trailing junk
        // ids and blocked entries are skipped, and the run is clean.
        assert_eq!(replay_violation(&cfg, &[0, 1, 0, 1, 9, 0, 1, 0, 1, 0, 1]), None);
    }
}
