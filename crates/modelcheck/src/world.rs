//! The checker's world: lock sessions over a flat sequentially-consistent
//! word store.
//!
//! A [`World`] is one configuration of the system: the memory image, each
//! thread's session state and pending command, and who holds the lock.
//! Stepping a thread executes its pending command **atomically together
//! with** the session transition it triggers — the session's local state
//! is invisible to other threads, so giving it its own interleaving point
//! would only square the state space without adding behaviors. `Delay`
//! executes as a no-op, which is exactly what makes the search cover every
//! ordering that real timing could produce.
//!
//! Lock parameters are shrunk to near-trivial backoffs
//! ([`checker_params`]): backoff values only feed `Delay` (semantically
//! inert here) but live inside session state, so small caps keep the
//! reachable state space small without touching the protocol logic.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use hbo_locks::BackoffConfig;
use nuca_topology::{CpuId, NodeId};
use nucasim::{Addr, Command, CpuCtx, EventLog, Machine, MachineConfig, SimStats};
use nucasim_locks::{build_lock, mutants, GtSlots, Lock, Session, SimLockParams, Step};

use crate::{CheckConfig, Subject, Violation};

/// Lock tunables used for checking: minimal backoffs (delays are no-ops
/// here, but their counters are session state), a tiny anger threshold so
/// HBO_GT_SD's starvation machinery is actually reachable, a tiny RH
/// handover budget so both release tags are exercised, a tiny CNA
/// splice threshold so the secondary-queue splice path is reachable at
/// checker scale, and a one-slot TWA waiting array so every ticket
/// collides — the spurious-wakeup re-park path is explored, not just the
/// collision-free fast path.
pub fn checker_params() -> SimLockParams {
    SimLockParams {
        local: BackoffConfig::new(1, 2, 2),
        remote: BackoffConfig::new(1, 2, 2),
        get_angry_limit: 2,
        rh_max_handovers: 2,
        cna_splice_threshold: 2,
        twa_slots: 1,
        twa_hash: nucasim_locks::TwaHash::Mod,
    }
}

/// Most threads a world can hold: the exhaustive search keeps each
/// state's sibling choices in a fixed array of this size.
pub const MAX_THREADS: usize = 8;

/// Where a thread is in its acquire/release loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Driving `start_acquire`/`resume_acquire`.
    Acquire,
    /// Holding (or releasing): driving `start_release`/`resume_release`.
    Release,
    /// All iterations finished.
    Done,
}

/// Global progress classification of a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Some thread can step.
    Running,
    /// Every thread finished its iterations.
    Done,
    /// Not all threads are done, yet none can step.
    Deadlock,
}

#[derive(Debug, Clone)]
struct Thread {
    session: Session,
    cpu: CpuId,
    node: NodeId,
    phase: Phase,
    pending: Option<Command>,
    iters_left: u32,
    acquires: u32,
    /// This thread's share of the state key ([`thread_share`]), brought
    /// up to date after each of its steps.
    key: u64,
}

#[derive(Clone, Copy)]
enum Call {
    StartAcquire,
    ResumeAcquire(Option<u64>),
    StartRelease,
    ResumeRelease(Option<u64>),
    RecordAcquire,
    RecordRelease,
}

/// One explorable configuration of lock + contenders.
#[derive(Debug)]
pub struct World {
    mem: Vec<u64>,
    /// The memory image's share of the state key: the wrapping sum of
    /// [`word_share`] over every word, kept up to date by [`World::store`].
    mem_key: u64,
    threads: Vec<Thread>,
    holder: Option<usize>,
    clock: u64,
    /// The per-node GT `is_spinning` words: the same in every state.
    gt: GtSlots,
    /// Observers, not state: what the sessions report while stepping.
    stats: SimStats,
    trace: Option<EventLog>,
}

/// A snapshot: the clone copies the state (memory, threads and their
/// fixed-size sessions, holder, clock, and the key shares cached with
/// them) but not the observers — it starts with empty statistics and no
/// trace sink, and allocates only the memory image and the thread vector. The clock is copied because sessions see
/// it through [`CpuCtx`], so a clone steps exactly like the original.
impl Clone for World {
    fn clone(&self) -> World {
        World {
            mem: self.mem.clone(),
            mem_key: self.mem_key,
            threads: self.threads.clone(),
            holder: self.holder,
            clock: self.clock,
            gt: self.gt,
            stats: SimStats::default(),
            trace: None,
        }
    }
}

impl World {
    /// Builds the initial world for `cfg` (no tracing).
    pub fn new(cfg: &CheckConfig) -> World {
        World::build(cfg, None)
    }

    /// Builds the initial world with a trace sink installed, so session
    /// hooks (backoff sleeps, anger episodes, acquire/release) land in
    /// `log` during replay — the counterexample renderer's input.
    pub fn with_trace(cfg: &CheckConfig, log: EventLog) -> World {
        World::build(cfg, Some(log))
    }

    fn build(cfg: &CheckConfig, trace: Option<EventLog>) -> World {
        assert!(
            (1..=MAX_THREADS).contains(&cfg.cpus),
            "need between 1 and {MAX_THREADS} threads"
        );
        assert!(cfg.iters >= 1, "need at least one iteration");
        let cpn = cfg.cpus.div_ceil(2).max(1);
        let mut machine = Machine::new(MachineConfig::wildfire(2, cpn));
        let topo = Arc::clone(machine.topology());
        let gt = GtSlots::alloc(machine.mem_mut(), &topo);
        let params = checker_params();
        let home = NodeId(0);
        let lock = match cfg.subject {
            Subject::Kind(k) => build_lock(k, machine.mem_mut(), &topo, &gt, home, &params),
            Subject::RacyTatas => {
                Lock::RacyTatas(mutants::RacyTatas::alloc(machine.mem_mut(), home))
            }
            Subject::LeakyHboGt => Lock::LeakyHboGt(mutants::LeakyHboGt::alloc(
                machine.mem_mut(),
                home,
                gt,
                params.local,
                params.remote,
            )),
            Subject::SpliceLostCna => Lock::SpliceLostCna(mutants::SpliceLostCna::alloc(
                machine.mem_mut(),
                &topo,
                home,
                params.cna_splice_threshold,
            )),
        };
        // Snapshot the allocator's memory image into the flat store (lock
        // constructors poke initial values, e.g. CLH's tail/dummy and RH's
        // per-node copies).
        let mem: Vec<u64> = (0..machine.mem().len())
            .map(|i| {
                let addr = Addr::decode(i as u64 + 1).expect("dense address space");
                machine.mem().peek(addr)
            })
            .collect();

        let mut threads = Vec::with_capacity(cfg.cpus);
        let mut per_node = [0usize; 2];
        for t in 0..cfg.cpus {
            let node = NodeId(t % 2);
            let cpu = CpuId(node.index() * cpn + per_node[node.index()]);
            per_node[node.index()] += 1;
            debug_assert_eq!(topo.node_of(cpu), node);
            threads.push(Thread {
                session: lock.session(cpu, node),
                cpu,
                node,
                phase: Phase::Acquire,
                pending: None,
                iters_left: cfg.iters,
                acquires: 0,
                key: 0,
            });
        }
        let mem_key = mem
            .iter()
            .enumerate()
            .fold(0u64, |sum, (i, &v)| sum.wrapping_add(word_share(i, v)));
        let mut world = World {
            mem,
            mem_key,
            threads,
            holder: None,
            clock: 0,
            gt,
            stats: SimStats::default(),
            trace,
        };
        for t in 0..world.threads.len() {
            let step = world.call(t, Call::StartAcquire).expect("start yields a step");
            world
                .absorb(t, step)
                .expect("no violation can precede the first command");
            world.threads[t].key = thread_share(t, &world.threads[t]);
        }
        world
    }

    /// Sets this world to `snapshot`'s state — another world of the same
    /// run, such as a clone of this one or of one it stepped to — keeping
    /// this world's observers, so one statistics sink and trace serve a
    /// whole search. Copies into the existing buffers: a restore
    /// allocates nothing, which is also how the search refills a spare
    /// snapshot from the live world.
    pub fn restore(&mut self, snapshot: &World) {
        self.mem.clone_from(&snapshot.mem);
        self.mem_key = snapshot.mem_key;
        self.threads.clone_from(&snapshot.threads);
        self.holder = snapshot.holder;
        self.clock = snapshot.clock;
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Can thread `t` take a step right now? `false` once done, and for a
    /// pending `WaitWhile` whose watched word still holds the sleep value.
    pub fn enabled(&self, t: usize) -> bool {
        match self.threads[t].pending {
            None => false,
            Some(Command::WaitWhile { addr, equals }) => self.mem[addr.index()] != equals,
            Some(_) => true,
        }
    }

    /// The command thread `t` would execute next.
    pub fn pending(&self, t: usize) -> Option<Command> {
        self.threads[t].pending
    }

    /// Placement and phase of thread `t`, for rendering.
    pub fn thread_meta(&self, t: usize) -> (CpuId, NodeId, Phase) {
        let th = &self.threads[t];
        (th.cpu, th.node, th.phase)
    }

    /// Successful acquisitions of thread `t` so far.
    pub fn acquires(&self, t: usize) -> u32 {
        self.threads[t].acquires
    }

    /// Current value of flat-store word `idx`.
    pub fn peek_word(&self, idx: usize) -> u64 {
        self.mem[idx]
    }

    /// Global progress classification.
    pub fn status(&self) -> Status {
        let mut all_done = true;
        let mut any_enabled = false;
        for (t, th) in self.threads.iter().enumerate() {
            if th.phase != Phase::Done {
                all_done = false;
                if self.enabled(t) {
                    any_enabled = true;
                }
            }
        }
        if all_done {
            Status::Done
        } else if any_enabled {
            Status::Running
        } else {
            Status::Deadlock
        }
    }

    /// Terminal-state check (property 4): once everything is done, every
    /// GT `is_spinning` slot must be back to 0.
    pub fn final_violation(&self) -> Option<Violation> {
        debug_assert_eq!(self.status(), Status::Done);
        for node in 0..self.gt.nodes() {
            let slot = self.gt.slot(NodeId(node)).index();
            let value = self.mem[slot];
            if value != 0 {
                return Some(Violation::SlotLeak { slot, value });
            }
        }
        None
    }

    /// Executes thread `t`'s pending command against the store and feeds
    /// the result to its session, absorbing session transitions until the
    /// thread either has a new pending command or is done. Returns the
    /// executed command's result value.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no pending command (check [`World::enabled`]);
    /// stepping a *blocked* `WaitWhile` is a checker bug caught by a debug
    /// assertion.
    pub fn step(&mut self, t: usize) -> Result<Option<u64>, Violation> {
        let cmd = self.threads[t]
            .pending
            .take()
            .expect("step on a thread with no pending command");
        let result = self.exec(cmd);
        self.clock += 1;
        let step = match self.threads[t].phase {
            Phase::Acquire => self.call(t, Call::ResumeAcquire(result)),
            Phase::Release => self.call(t, Call::ResumeRelease(result)),
            Phase::Done => unreachable!("done threads have no pending command"),
        }
        .expect("resume yields a step");
        let absorbed = self.absorb(t, step);
        // Only `t`'s own steps move its phase, command, iterations and
        // session, so its share is the only one to refresh.
        self.threads[t].key = thread_share(t, &self.threads[t]);
        absorbed.map(|()| result)
    }

    /// Writes `v` to word `i`, moving the memory image's key share from
    /// the old value to the new one. Every store goes through here.
    fn store(&mut self, i: usize, v: u64) {
        let old = std::mem::replace(&mut self.mem[i], v);
        self.mem_key = self
            .mem_key
            .wrapping_sub(word_share(i, old))
            .wrapping_add(word_share(i, v));
    }

    /// Applies `cmd` to the flat store; sequentially consistent because
    /// there is exactly one store and steps are serialized.
    fn exec(&mut self, cmd: Command) -> Option<u64> {
        match cmd {
            Command::Read(a) => Some(self.mem[a.index()]),
            Command::Write(a, v) => {
                let old = self.mem[a.index()];
                self.store(a.index(), v);
                Some(old)
            }
            Command::Cas {
                addr,
                expected,
                new,
            } => {
                let old = self.mem[addr.index()];
                if old == expected {
                    self.store(addr.index(), new);
                }
                Some(old)
            }
            Command::Swap { addr, value } => {
                let old = self.mem[addr.index()];
                self.store(addr.index(), value);
                Some(old)
            }
            Command::Tas(a) => {
                let old = self.mem[a.index()];
                self.store(a.index(), 1);
                Some(old)
            }
            Command::FetchAdd { addr, delta } => {
                let old = self.mem[addr.index()];
                self.store(addr.index(), old.wrapping_add(delta));
                Some(old)
            }
            // Timing is deliberately absent: a delay is a scheduling
            // point and nothing else.
            Command::Delay(_) => None,
            Command::WaitWhile { addr, equals } => {
                let v = self.mem[addr.index()];
                debug_assert_ne!(v, equals, "stepped a blocked WaitWhile");
                Some(v)
            }
            Command::Done => unreachable!("lock sessions never emit Done"),
        }
    }

    /// Drives `t`'s session bookkeeping after a step: stores the next
    /// command, or handles `Acquired`/`Released` (mutual-exclusion check,
    /// phase flip, next phase start) — all atomic with the step itself.
    fn absorb(&mut self, t: usize, mut step: Step) -> Result<(), Violation> {
        loop {
            match step {
                Step::Op(cmd) => {
                    self.threads[t].pending = Some(cmd);
                    return Ok(());
                }
                Step::Acquired => {
                    if let Some(first) = self.holder {
                        return Err(Violation::MutualExclusion { first, second: t });
                    }
                    self.holder = Some(t);
                    self.threads[t].acquires += 1;
                    self.threads[t].phase = Phase::Release;
                    self.call(t, Call::RecordAcquire);
                    step = self.call(t, Call::StartRelease).expect("start yields a step");
                }
                Step::Released => {
                    debug_assert_eq!(self.holder, Some(t), "released without holding");
                    self.holder = None;
                    self.call(t, Call::RecordRelease);
                    self.threads[t].iters_left -= 1;
                    if self.threads[t].iters_left == 0 {
                        self.threads[t].phase = Phase::Done;
                        self.threads[t].pending = None;
                        return Ok(());
                    }
                    self.threads[t].phase = Phase::Acquire;
                    step = self.call(t, Call::StartAcquire).expect("start yields a step");
                }
            }
        }
    }

    /// Invokes one session entry point (or a pure trace hook) with a
    /// properly wired [`CpuCtx`].
    fn call(&mut self, t: usize, what: Call) -> Option<Step> {
        fn run(session: &mut Session, ctx: &mut CpuCtx<'_>, what: Call) -> Option<Step> {
            match what {
                Call::StartAcquire => Some(session.start_acquire(ctx)),
                Call::ResumeAcquire(r) => Some(session.resume_acquire(ctx, r)),
                Call::StartRelease => Some(session.start_release(ctx)),
                Call::ResumeRelease(r) => Some(session.resume_release(ctx, r)),
                Call::RecordAcquire => {
                    ctx.record_acquire(0);
                    None
                }
                Call::RecordRelease => {
                    ctx.record_release(0, 0);
                    None
                }
            }
        }
        let World {
            threads,
            stats,
            trace,
            clock,
            ..
        } = self;
        let th = &mut threads[t];
        match trace.as_mut() {
            Some(log) => {
                let mut ctx = CpuCtx::with_trace(th.cpu, th.node, *clock, stats, log);
                run(&mut th.session, &mut ctx, what)
            }
            None => {
                let mut ctx = CpuCtx::new(th.cpu, th.node, *clock, stats);
                run(&mut th.session, &mut ctx, what)
            }
        }
    }

    /// A structural hash of the semantic state — memory image, holder,
    /// and every thread's phase, pending command, remaining iterations,
    /// and session (through its derived `Hash`, which skips the session's
    /// constants: lock addresses, its own CPU and node, tuning values —
    /// the same in every state of a run, so they separate nothing). The
    /// clock and statistics are deliberately excluded: they are
    /// observers, not state.
    ///
    /// The key is the wrapping sum of one share per part: a share per
    /// memory word, the holder's share and a share per thread, each a sum
    /// of independently mixed words. The world keeps the memory and
    /// thread shares up to date as it steps, so this reads a handful of
    /// cached values instead of rehashing the world.
    pub fn state_key(&self) -> u64 {
        let base = self.mem_key.wrapping_add(holder_share(self.holder));
        self.threads
            .iter()
            .fold(base, |sum, th| sum.wrapping_add(th.key))
    }

    /// The state key recomputed from scratch, walking the whole world;
    /// [`World::state_key`] must always equal it. For the consistency
    /// tests, which check the incremental upkeep against it.
    #[doc(hidden)]
    pub fn rehash(&self) -> u64 {
        let mem = self.mem.iter().enumerate().map(|(i, &v)| word_share(i, v));
        let threads = self
            .threads
            .iter()
            .enumerate()
            .map(|(t, th)| thread_share(t, th));
        mem.chain(threads)
            .fold(holder_share(self.holder), u64::wrapping_add)
    }
}

/// Word `i` holding `v`'s share of the state key: seeded by the word's
/// index.
fn word_share(i: usize, v: u64) -> u64 {
    let mut h = StateHasher::seeded(i as u64);
    h.write_u64(v);
    h.finish()
}

/// Seeds past every word index: a thread share is seeded by
/// `THREAD_SEED + t`, the holder's by `HOLDER_SEED`. A thread seeded by
/// its bare index would mix its first word exactly as the memory word of
/// that index mixes its value, so the two could trade values unseen.
const THREAD_SEED: u64 = 1 << 62;
const HOLDER_SEED: u64 = 1 << 63;

/// The lock holder's share of the state key.
fn holder_share(holder: Option<usize>) -> u64 {
    let mut h = StateHasher::seeded(HOLDER_SEED);
    holder.hash(&mut h);
    h.finish()
}

/// Thread `t`'s share of the state key: its phase, pending command,
/// remaining iterations and session, seeded by its index so that two
/// threads swapping states change the key.
fn thread_share(t: usize, th: &Thread) -> u64 {
    let mut h = StateHasher::seeded(THREAD_SEED + t as u64);
    th.phase.hash(&mut h);
    th.pending.hash(&mut h);
    th.iters_left.hash(&mut h);
    th.session.hash(&mut h);
    h.finish()
}

/// The SplitMix64 finalizer (Steele, Lea & Flood 2014): a bijective
/// 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The key shares' hasher. The `k`-th word written, `x_k`, adds
/// `mix(x_k ^ p_k)` to the share, with the pad `p_k = mix(seed) + k·φ`.
/// No word's mix waits on another's, so a share's words pipeline instead
/// of forming a chain; and the seed reaches every word through its pad,
/// so two threads that trade states change the key even where only a
/// later word differs.
#[derive(Debug)]
struct StateHasher {
    sum: u64,
    pad: u64,
}

impl StateHasher {
    fn seeded(seed: u64) -> StateHasher {
        StateHasher {
            sum: 0,
            pad: mix(seed),
        }
    }
}

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.sum
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.sum = self.sum.wrapping_add(mix(n ^ self.pad));
        self.pad = self.pad.wrapping_add(GOLDEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbo_locks::LockKind;

    fn cfg(subject: Subject) -> CheckConfig {
        CheckConfig::new(subject)
    }

    #[test]
    fn initial_world_is_running_and_all_enabled() {
        let w = World::new(&cfg(Subject::Kind(LockKind::Tatas)));
        assert_eq!(w.status(), Status::Running);
        assert_eq!(w.num_threads(), 2);
        assert!(w.enabled(0));
        assert!(w.enabled(1));
        assert!(matches!(w.pending(0), Some(Command::Tas(_))));
    }

    #[test]
    fn serial_schedule_completes_every_kind() {
        for &subject in Subject::verified() {
            let cfg = cfg(subject);
            let mut w = World::new(&cfg);
            let mut steps = 0u64;
            'outer: loop {
                match w.status() {
                    Status::Done => break,
                    Status::Deadlock => panic!("{}: deadlock on serial schedule", subject.name()),
                    Status::Running => {}
                }
                for t in 0..w.num_threads() {
                    if w.enabled(t) {
                        w.step(t).unwrap_or_else(|v| {
                            panic!("{}: violation on serial schedule: {v}", subject.name())
                        });
                        steps += 1;
                        assert!(steps < 1_000_000, "{}: runaway", subject.name());
                        continue 'outer;
                    }
                }
                unreachable!();
            }
            assert_eq!(w.final_violation(), None, "{}", subject.name());
            for t in 0..w.num_threads() {
                assert_eq!(w.acquires(t), cfg.iters, "{}", subject.name());
            }
        }
    }

    #[test]
    fn waitwhile_blocks_and_wakes() {
        // TATAS: let thread 0 take the lock; thread 1's failed TAS parks
        // it on a WaitWhile that must be disabled until the release.
        let mut w = World::new(&cfg(Subject::Kind(LockKind::Tatas)));
        w.step(0).unwrap(); // t0: TAS wins -> holding, release write pending
        w.step(1).unwrap(); // t1: TAS loses -> WaitWhile(word == HELD)
        assert!(!w.enabled(1), "t1 must be parked while the lock is held");
        assert_eq!(w.status(), Status::Running);
        w.step(0).unwrap(); // t0: release write -> word FREE
        assert!(w.enabled(1), "release must wake t1");
    }

    #[test]
    fn state_key_distinguishes_and_matches() {
        let c = cfg(Subject::Kind(LockKind::Hbo));
        let w1 = World::new(&c);
        let w2 = World::new(&c);
        assert_eq!(
            w1.state_key(),
            w2.state_key(),
            "identical builds hash identically"
        );
        let mut w3 = World::new(&c);
        w3.step(0).unwrap();
        assert_ne!(w1.state_key(), w3.state_key());
    }

    /// The key the checker used before the structural hash: every state
    /// field as `Debug` text. Equal text means equal fields.
    fn reference_key(w: &World) -> String {
        let mut key = visible_key(w);
        for th in &w.threads {
            key.push_str(&format!("{:?};", th.session));
        }
        key
    }

    /// The state with every session left out.
    fn visible_key(w: &World) -> String {
        let mut key = format!("{:?}|{:?}|", w.mem, w.holder);
        for th in &w.threads {
            key.push_str(&format!("{:?}/{:?}/{};", th.phase, th.pending, th.iters_left));
        }
        key
    }

    /// Every world reachable from the initial one without a violation,
    /// one per distinct [`reference_key`]; and the reference and state key
    /// of every world the walk reached, revisits included. Asserts on the
    /// way that each world's incrementally kept key equals the key
    /// recomputed from scratch.
    fn reachable(cfg: &CheckConfig) -> (Vec<World>, Vec<(String, u64)>) {
        let name = cfg.subject.name();
        let mut seen = std::collections::HashSet::new();
        let mut todo = vec![World::new(cfg)];
        let mut worlds = Vec::new();
        let mut keys = Vec::new();
        while let Some(w) = todo.pop() {
            let reference = reference_key(&w);
            let key = w.state_key();
            assert_eq!(key, w.rehash(), "{name}: stale key at {reference}");
            keys.push((reference.clone(), key));
            if !seen.insert(reference) {
                continue;
            }
            for t in (0..w.num_threads()).filter(|&t| w.enabled(t)) {
                let mut next = w.clone();
                match next.step(t) {
                    Ok(_) => todo.push(next),
                    Err(v) => assert!(
                        Subject::MUTANTS.contains(&cfg.subject),
                        "{name}: verified subjects never violate, got {v}"
                    ),
                }
            }
            worlds.push(w);
        }
        (worlds, keys)
    }

    #[test]
    fn state_key_separates_exactly_what_the_fields_separate() {
        // Over every world the walk reaches, for every subject, two worlds
        // share a state key exactly when all their state fields are equal:
        // the structural hash neither merges states nor splits one state
        // reached along different paths. The walk also checks that every
        // world's kept key equals the rehash — a write that bypasses
        // `store`, or a step that leaves its thread's share stale, fails
        // here. SPLICE_LOST_CNA runs at 3 CPUs, where its broken splice
        // path is reachable.
        for subject in Subject::verified().iter().copied().chain(Subject::MUTANTS) {
            let mut cfg = cfg(subject);
            if subject == Subject::SpliceLostCna {
                cfg.cpus = 3;
            }
            let (_, keys) = reachable(&cfg);
            let mut key_of = std::collections::HashMap::new();
            let mut reference_of = std::collections::HashMap::new();
            for (reference, key) in keys {
                let name = subject.name();
                let first_key = *key_of.entry(reference.clone()).or_insert(key);
                assert_eq!(first_key, key, "{name}: one state, two keys");
                let first_reference = reference_of.entry(key).or_insert_with(|| reference.clone());
                assert_eq!(*first_reference, reference, "{name}: two states, one key");
            }
        }
    }

    #[test]
    fn state_key_sees_session_internal_fields() {
        // An HBO session keeps its backoff period after the acquisition
        // that grew it, so schedules where a thread did or did not back
        // off reach worlds (all threads done, for one) that differ only in
        // a session's backoff counter. They must hash apart.
        let (worlds, _) = reachable(&cfg(Subject::Kind(LockKind::Hbo)));
        let mut by_visible: std::collections::HashMap<String, Vec<&World>> =
            std::collections::HashMap::new();
        for w in &worlds {
            by_visible.entry(visible_key(w)).or_default().push(w);
        }
        let mut pairs = 0;
        for group in by_visible.values() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    assert_ne!(a.state_key(), b.state_key(), "{}", reference_key(a));
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 0, "no two HBO worlds differ only inside a session");
    }

    #[test]
    fn threads_trading_states_change_the_key() {
        // Swap every hashed field (phase, pending command, iterations left,
        // session) between two threads of a reachable world: unless the
        // two held the same state, the result is another state, and its
        // key must differ. A hasher that seeds only a share's first word
        // sums the rest the same in either thread, and fails here.
        fn fields(th: &Thread) -> u64 {
            let mut h = std::hash::DefaultHasher::new();
            (th.phase, th.pending, th.iters_left, &th.session).hash(&mut h);
            h.finish()
        }
        let mut swaps = 0;
        for &subject in Subject::verified() {
            let (worlds, _) = reachable(&cfg(subject));
            for w in &worlds {
                if fields(&w.threads[0]) == fields(&w.threads[1]) {
                    continue;
                }
                let mut swapped = w.clone();
                let (a, b) = swapped.threads.split_at_mut(1);
                let (a, b) = (&mut a[0], &mut b[0]);
                std::mem::swap(&mut a.phase, &mut b.phase);
                std::mem::swap(&mut a.pending, &mut b.pending);
                std::mem::swap(&mut a.iters_left, &mut b.iters_left);
                std::mem::swap(&mut a.session, &mut b.session);
                for t in 0..2 {
                    swapped.threads[t].key = thread_share(t, &swapped.threads[t]);
                }
                let at = format!("{}: {}", subject.name(), reference_key(w));
                assert_ne!(swapped.state_key(), w.state_key(), "{at}");
                assert_ne!(swapped.rehash(), w.rehash(), "{at}");
                swaps += 1;
            }
        }
        assert!(swaps > 1000, "only {swaps} swaps changed a state");
    }

    #[test]
    fn memory_words_and_threads_mix_apart() {
        // Word 0 holding 1 beside thread 0 in phase 0 (`Acquire`) must not
        // sum like word 0 holding 0 beside thread 0 in phase 1
        // (`Release`): a thread seeded by its bare index would pad its
        // first word exactly as word 0 pads its value.
        let w = World::new(&cfg(Subject::Kind(LockKind::Tatas)));
        let acquiring = &w.threads[0];
        let releasing = Thread {
            phase: Phase::Release,
            ..acquiring.clone()
        };
        assert_ne!(
            word_share(0, 1).wrapping_add(thread_share(0, acquiring)),
            word_share(0, 0).wrapping_add(thread_share(0, &releasing)),
        );
    }

    #[test]
    fn snapshot_leaves_the_observers_behind() {
        let c = cfg(Subject::Kind(LockKind::Hbo));
        let mut w = World::with_trace(&c, EventLog::default());
        w.step(0).unwrap();
        let snapshot = w.clone();
        assert!(w.trace.is_some());
        assert!(snapshot.trace.is_none());
        assert!(w.stats.lock_trace(0).is_some(), "t0's fast path acquired");
        assert!(snapshot.stats.lock_trace(0).is_none());
        assert_eq!(snapshot.state_key(), w.state_key());
        // Restoring brings the state back and keeps the live observers.
        w.step(1).unwrap();
        assert_ne!(snapshot.state_key(), w.state_key());
        w.restore(&snapshot);
        assert_eq!(snapshot.state_key(), w.state_key());
        assert_eq!(w.state_key(), w.rehash());
        assert!(w.trace.is_some());
        assert!(w.stats.lock_trace(0).is_some());
    }

    #[test]
    fn mutex_violation_detected_on_racy_schedule() {
        // RacyTatas: read/read/write/write both acquire.
        let mut w = World::new(&cfg(Subject::RacyTatas));
        w.step(0).unwrap(); // t0 reads FREE
        w.step(1).unwrap(); // t1 reads FREE
        w.step(0).unwrap(); // t0 writes HELD -> acquired
        let err = w.step(1).unwrap_err(); // t1 writes HELD -> acquired too
        assert_eq!(err, Violation::MutualExclusion { first: 0, second: 1 });
    }
}
