//! Deliberately broken lock state machines for validating correctness
//! tooling.
//!
//! These mutants reintroduce, on purpose, exactly the bugs the paper's
//! algorithms are engineered to avoid. They exist so the `nuca-mcheck`
//! model checker (and any future correctness harness) can prove it
//! *detects* protocol violations rather than vacuously passing: a checker
//! that accepts [`RacyTatas`] or [`LeakyHboGt`] is broken.
//!
//! Never use these outside tests and checker validation.

use hbo_locks::{BackoffConfig, LockKind};
use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::cna::SimCna;
use crate::hbo::{tag, FREE};
use crate::hbo_gt::DUMMY;
use crate::{GtSlots, LockSession, SimBackoff, SimLock, Step};

const HELD: u64 = 1;

/// TATAS with the test-and-set race reintroduced: the "test" is a plain
/// read and the "set" a plain store, with a full interleaving point in
/// between. Two contenders can both observe the word free and both claim
/// it — the textbook check-then-act mutual-exclusion violation that the
/// atomic `tas` exists to close.
#[derive(Debug)]
pub struct RacyTatas {
    word: Addr,
}

impl RacyTatas {
    /// Allocates the lock word homed in `home`.
    pub fn alloc(mem: &mut MemorySystem, home: NodeId) -> RacyTatas {
        RacyTatas {
            word: mem.alloc(home),
        }
    }
}

impl SimLock for RacyTatas {
    fn session(&self, _cpu: CpuId, _node: NodeId) -> Box<dyn LockSession> {
        Box::new(RacySession {
            word: self.word,
            state: RacyState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        // Reported as TATAS: it is TATAS minus the atomicity.
        LockKind::Tatas
    }

    fn lock_word(&self) -> Option<Addr> {
        Some(self.word)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RacyState {
    Idle,
    /// Plain read of the lock word issued (the non-atomic "test").
    Checking,
    /// Plain store of `HELD` issued (the non-atomic "set").
    Claiming,
    /// Sleeping until the word stops reading `HELD`.
    Spinning,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct RacySession {
    word: Addr,
    state: RacyState,
}

impl LockSession for RacySession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, RacyState::Idle);
        self.state = RacyState::Checking;
        Step::Op(Command::Read(self.word))
    }

    fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            RacyState::Checking => {
                if result == Some(FREE) {
                    // BUG: the claim is a separate, non-atomic store. Any
                    // schedule that interleaves another contender's check
                    // between this read and this write loses an update.
                    self.state = RacyState::Claiming;
                    Step::Op(Command::Write(self.word, HELD))
                } else {
                    self.state = RacyState::Spinning;
                    Step::Op(Command::WaitWhile {
                        addr: self.word,
                        equals: HELD,
                    })
                }
            }
            RacyState::Claiming => {
                self.state = RacyState::Holding;
                Step::Acquired
            }
            RacyState::Spinning => {
                // The word changed: re-run the (still racy) check.
                self.state = RacyState::Checking;
                Step::Op(Command::Read(self.word))
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, RacyState::Holding);
        self.state = RacyState::Releasing;
        Step::Op(Command::Write(self.word, FREE))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, RacyState::Releasing);
        self.state = RacyState::Idle;
        Step::Released
    }
}

/// HBO_GT that forgets to clear its node's `is_spinning` slot when its
/// remote spin succeeds (paper Fig. 1 line 44 deleted). The slot keeps
/// the lock's address forever, so the node's gate stays shut: later
/// contenders from that node block on the gate (deadlock), and even when
/// no contender remains the slot ends the run dirty — the GT-slot hygiene
/// property the checker verifies on every terminal state.
#[derive(Debug)]
pub struct LeakyHboGt {
    word: Addr,
    gt: GtSlots,
    local: BackoffConfig,
    remote: BackoffConfig,
}

impl LeakyHboGt {
    /// Allocates the lock word homed in `home`; `gt` supplies the shared
    /// per-node `is_spinning` words.
    pub fn alloc(
        mem: &mut MemorySystem,
        home: NodeId,
        gt: GtSlots,
        local: BackoffConfig,
        remote: BackoffConfig,
    ) -> LeakyHboGt {
        LeakyHboGt {
            word: mem.alloc(home),
            gt,
            local,
            remote,
        }
    }
}

impl SimLock for LeakyHboGt {
    fn session(&self, _cpu: CpuId, node: NodeId) -> Box<dyn LockSession> {
        Box::new(LeakySession {
            word: self.word,
            my_slot: self.gt.slot(node),
            my_tag: tag(node),
            local: self.local,
            remote: self.remote,
            backoff: SimBackoff::new(self.local),
            state: LeakyState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::HboGt
    }

    fn lock_word(&self) -> Option<Addr> {
        Some(self.word)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LeakyState {
    Idle,
    Gate,
    GateCas,
    LocalDelay,
    LocalCas,
    MigratePause,
    Announce,
    RemoteDelay,
    RemoteCas,
    /// Clearing the slot after observing migration home — the mutant
    /// still performs *this* clear; only the success-path clear is gone.
    ClearThenRestart,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct LeakySession {
    word: Addr,
    my_slot: Addr,
    my_tag: u64,
    local: BackoffConfig,
    remote: BackoffConfig,
    backoff: SimBackoff,
    state: LeakyState,
}

impl LeakySession {
    fn cas(&self) -> Command {
        Command::Cas {
            addr: self.word,
            expected: FREE,
            new: self.my_tag,
        }
    }

    fn gate(&mut self) -> Step {
        self.state = LeakyState::Gate;
        Step::Op(Command::WaitWhile {
            addr: self.my_slot,
            equals: self.word.encode(),
        })
    }
}

impl LockSession for LeakySession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, LeakyState::Idle);
        self.gate()
    }

    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            LeakyState::Gate => {
                self.state = LeakyState::GateCas;
                Step::Op(self.cas())
            }
            LeakyState::GateCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = LeakyState::Holding;
                    Step::Acquired
                } else if tmp == self.my_tag {
                    self.backoff.reset(self.local);
                    self.state = LeakyState::LocalDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                } else {
                    self.backoff.reset(self.remote);
                    self.state = LeakyState::Announce;
                    ctx.trace_throttle_spin();
                    Step::Op(Command::Write(self.my_slot, self.word.encode()))
                }
            }
            LeakyState::LocalDelay => {
                self.state = LeakyState::LocalCas;
                Step::Op(self.cas())
            }
            LeakyState::LocalCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = LeakyState::Holding;
                    return Step::Acquired;
                }
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Local);
                if tmp == self.my_tag {
                    self.state = LeakyState::LocalDelay;
                } else {
                    self.state = LeakyState::MigratePause;
                }
                Step::Op(Command::Delay(d))
            }
            LeakyState::MigratePause => self.gate(),
            LeakyState::Announce => {
                self.state = LeakyState::RemoteDelay;
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Remote);
                Step::Op(Command::Delay(d))
            }
            LeakyState::RemoteDelay => {
                self.state = LeakyState::RemoteCas;
                Step::Op(self.cas())
            }
            LeakyState::RemoteCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    // BUG: the correct lock writes `DUMMY` into `my_slot`
                    // here (releasing its node's gate) before reporting
                    // Acquired. The mutant skips straight to Acquired and
                    // leaks the announcement.
                    self.state = LeakyState::Holding;
                    Step::Acquired
                } else if tmp == self.my_tag {
                    self.state = LeakyState::ClearThenRestart;
                    Step::Op(Command::Write(self.my_slot, DUMMY))
                } else {
                    self.state = LeakyState::RemoteDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Remote);
                    Step::Op(Command::Delay(d))
                }
            }
            LeakyState::ClearThenRestart => self.gate(),
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, LeakyState::Holding);
        self.state = LeakyState::Releasing;
        Step::Op(Command::Write(self.word, FREE))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, LeakyState::Releasing);
        self.state = LeakyState::Idle;
        Step::Released
    }
}

/// CNA whose splice path loses the main queue: when the releaser splices
/// the secondary (remote) queue back in, it grants the secondary head
/// **without** first linking the main-queue successor behind the
/// secondary tail. The orphaned main-queue waiters spin forever and the
/// spliced chain's last node deadlocks in its release (`tail` no longer
/// names it, and the link it waits for never arrives). Needs ≥ 3 CPUs on
/// ≥ 2 nodes to manifest — a secondary queue must exist at splice time.
#[derive(Debug)]
pub struct SpliceLostCna {
    inner: SimCna,
}

impl SpliceLostCna {
    /// Allocates the broken lock; same layout as the real CNA.
    pub fn alloc(
        mem: &mut MemorySystem,
        topo: &Topology,
        home: NodeId,
        splice_threshold: u32,
    ) -> SpliceLostCna {
        SpliceLostCna {
            inner: SimCna::alloc_with_lost_splice_link(mem, topo, home, splice_threshold),
        }
    }
}

impl SimLock for SpliceLostCna {
    fn session(&self, cpu: CpuId, node: NodeId) -> Box<dyn LockSession> {
        self.inner.session(cpu, node)
    }

    fn kind(&self) -> LockKind {
        // Reported as CNA: it is CNA minus one splice-path store.
        LockKind::Cna
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucasim::{Machine, MachineConfig, SimStats};
    use std::sync::Arc;

    #[test]
    fn mutants_build_and_start() {
        let mut m = Machine::new(MachineConfig::wildfire(2, 2));
        let topo = Arc::clone(m.topology());
        let gt = GtSlots::alloc(m.mem_mut(), &topo);
        let racy = RacyTatas::alloc(m.mem_mut(), NodeId(0));
        let leaky = LeakyHboGt::alloc(
            m.mem_mut(),
            NodeId(0),
            gt,
            BackoffConfig::new(1, 2, 2),
            BackoffConfig::new(1, 2, 2),
        );
        let mut stats = SimStats::default();
        let mut ctx = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
        let mut s1 = racy.session(CpuId(0), NodeId(0));
        assert!(matches!(s1.start_acquire(&mut ctx), Step::Op(_)));
        let mut s2 = leaky.session(CpuId(2), NodeId(1));
        assert!(matches!(s2.start_acquire(&mut ctx), Step::Op(_)));
        assert!(racy.lock_word().is_some());
        assert_eq!(leaky.kind(), LockKind::HboGt);
        let lossy = SpliceLostCna::alloc(m.mem_mut(), &topo, NodeId(0), 2);
        let mut s3 = lossy.session(CpuId(1), NodeId(0));
        assert!(matches!(s3.start_acquire(&mut ctx), Step::Op(_)));
        assert_eq!(lossy.kind(), LockKind::Cna);
    }
}
