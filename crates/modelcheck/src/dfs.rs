//! Depth-first search over thread interleavings, backtracking from
//! snapshots.
//!
//! The search steps one live [`World`] in place. Every state on the
//! current path with more than one choice keeps a snapshot of its world
//! on a stack, in frame order; backtracking to it restores the snapshot
//! into the live world and steps the next sibling, and the last sibling
//! releases it. States with a single choice keep none. A released slot's
//! buffers stay for reuse: the next branching state copies the live world
//! into them with [`World::restore`], so the search clones a world only
//! when the stack grows past its high-water mark — at most its depth —
//! and never allocates per state. A world is under a kilobyte of plain
//! data — memory image, fixed-size sessions, pending commands — far less
//! than rebuilding the initial world and replaying the schedule prefix.
//! The live world's observers (statistics, trace) persist across
//! restores: one per search.
//!
//! A state-hash dedup table bounds the search, and each state is
//! expanded once. The key is [`World::state_key`], a structural hash the
//! world keeps up to date as it steps; the table uses it as its own hash
//! and holds bare keys. A state met again is pruned, with one exception:
//! a search that may cut a subtree short expands a state again when it
//! turns up at a smaller depth than before, so its table keeps each key's
//! smallest depth beside it. Without cuts that revisit is pure repeated
//! work. Every state on the current path is shallower than the current
//! depth, so a state that turns up at a smaller depth has finished, and
//! with no cut its subtree was explored in full: walking it again finds
//! no new state, edge or violation. Two things cut subtrees:
//!
//! - the depth safety net ([`CheckConfig::depth`]): once a path was
//!   truncated (`truncated > 0`), a finished state's subtree may be
//!   incomplete, and reaching it with more depth left may reach more. At
//!   the default ([`DEFAULT_DEPTH`]) no search at checker scale comes
//!   near the cap, and a run it did cut would print `TRUNCATED` and prove
//!   nothing either way, so only another `--depth` keeps the depths;
//! - a preemption bound ([`CheckConfig::preempt`]): the spent budget is
//!   folded into the key (fewer preemptions spent = strictly more
//!   futures, so the plain key would prune unsoundly), but the thread
//!   that last ran is not, and it decides which successors cost a
//!   preemption — so the same key can stand for different subtrees.
//!
//! In either case the search keeps the depth rule: a state already
//! visited at the same or smaller depth cannot lead anywhere new.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::world::{Status, World, MAX_THREADS};
use crate::{CheckConfig, Violation, DEFAULT_DEPTH};

/// Exploration counters for one [`explore`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states inserted into the dedup table.
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

/// The visited table's hasher: state keys are already mixed 64-bit
/// hashes, so a key is its own hash.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the visited table hashes u64 state keys only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

type ByKey = BuildHasherDefault<KeyHasher>;

/// The dedup table: bare state keys, unless the search may cut a subtree
/// short (module docs); then each key keeps the smallest depth it was
/// expanded at, for the revisit rule.
enum Visited {
    Keys(HashSet<u64, ByKey>),
    Depths {
        depths: HashMap<u64, u32, ByKey>,
        /// Whether a state met again at a smaller depth is expanded
        /// again: from the start under a preemption bound, and from the
        /// first truncated path under a depth cap.
        revisit: bool,
    },
}

impl Visited {
    fn new(cfg: &CheckConfig) -> Visited {
        if cfg.preempt.is_none() && cfg.depth == DEFAULT_DEPTH {
            Visited::Keys(HashSet::default())
        } else {
            Visited::Depths {
                depths: HashMap::default(),
                revisit: cfg.preempt.is_some(),
            }
        }
    }

    /// Notes a path truncated by the depth cap.
    fn cut(&mut self) {
        if let Visited::Depths { revisit, .. } = self {
            *revisit = true;
        }
    }

    /// Records a visit to the state `key` at `depth`; true if the search
    /// is to expand it.
    fn visit(&mut self, key: u64, depth: usize) -> bool {
        match self {
            Visited::Keys(keys) => keys.insert(key),
            Visited::Depths { depths, revisit } => match depths.entry(key) {
                Entry::Vacant(entry) => {
                    entry.insert(depth as u32);
                    true
                }
                Entry::Occupied(mut entry) if *revisit && *entry.get() as usize > depth => {
                    entry.insert(depth as u32);
                    true
                }
                Entry::Occupied(_) => false,
            },
        }
    }

    /// Distinct states recorded.
    fn len(&self) -> usize {
        match self {
            Visited::Keys(keys) => keys.len(),
            Visited::Depths { depths, .. } => depths.len(),
        }
    }
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
}

/// Exhaustively explores every interleaving of `cfg` (up to the preemption
/// bound, if any), returning statistics and the first violation found —
/// already shrunk.
pub fn explore(cfg: &CheckConfig) -> (ExploreStats, Option<Counterexample>) {
    let mut stats = ExploreStats::default();
    let mut visited = Visited::new(cfg);
    let cex = search(cfg, &mut stats, &mut visited);
    stats.distinct_states = visited.len() as u64;
    (stats, cex)
}

/// The search behind [`explore`].
///
/// Invariants: `frames[i]` belongs to the state reached by
/// `schedule[..i]`; a frame exists for the current state exactly when
/// `frames.len() == schedule.len() + 1` (pruned states get none). The
/// first `live` entries of `snapshots` belong, in order, to the frames
/// with a sibling still to take after the one in progress; the entries
/// past `live` are spare buffers kept for reuse.
fn search(
    cfg: &CheckConfig,
    stats: &mut ExploreStats,
    visited: &mut Visited,
) -> Option<Counterexample> {
    let mut schedule: Vec<usize> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut snapshots: Vec<World> = Vec::new();
    let mut live = 0;
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
                    visited.cut();
                } else {
                    let mut key = world.state_key();
                    if let Some(bound) = cfg.preempt {
                        key ^= u64::from(bound.saturating_sub(enter_preempts))
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    }
                    expand = visited.visit(key, depth);
                }
            }
        }
        if let Some(v) = violation {
            return Some(shrink(cfg, v, schedule));
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
            if len > 1 {
                match snapshots.get_mut(live) {
                    Some(spare) => spare.restore(&world),
                    None => snapshots.push(world.clone()),
                }
                live += 1;
            }
            frames.push(Frame {
                choices,
                len,
                taken: 0,
                preempts: enter_preempts,
                last,
                last_enabled,
            });
        }
        // Advance: take the next untaken sibling of the deepest live
        // frame, backtracking past exhausted frames and pruned states. The
        // first sibling steps the live world, which is still at the
        // frame's state; later ones start from the frame's snapshot, the
        // top live one, and the last releases it.
        loop {
            if frames.len() > schedule.len() {
                let frame = frames.last_mut().expect("nonempty by comparison");
                if frame.taken < frame.len {
                    let t = frame.choices[frame.taken];
                    if frame.taken > 0 {
                        world.restore(&snapshots[live - 1]);
                        if frame.taken + 1 == frame.len {
                            live -= 1;
                        }
                    }
                    frame.taken += 1;
                    let preempt_step = frame.last_enabled && frame.last.is_some_and(|l| l != t);
                    enter_preempts = frame.preempts + u32::from(preempt_step);
                    schedule.push(t);
                    stats.transitions += 1;
                    if let Err(v) = world.step(t) {
                        return Some(shrink(cfg, v, schedule));
                    }
                    continue 'outer;
                }
                frames.pop();
            }
            // Popping past the root ends the search: nothing is left.
            schedule.pop()?;
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
