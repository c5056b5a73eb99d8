//! Simulator MCS queue lock.

use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{alloc_table, Fixed, Step};

/// MCS in simulated memory.
///
/// The tail word holds the *CPU id + 1* of the most recent contender (0 =
/// empty). Each CPU owns a queue node — a `locked` word and a `next` word —
/// allocated in its **own node's memory**, which is the defining property
/// of MCS: waiters spin on local storage.
#[derive(Debug, Clone, Copy)]
pub struct SimMcs {
    tail: Addr,
    /// Base of the per-CPU `(locked, next)` queue nodes, [`QNODE_WORDS`]
    /// words each.
    qnodes: Addr,
}

/// Words per queue node: `locked`, `next`.
const QNODE_WORDS: usize = 2;

impl SimMcs {
    /// Allocates the lock (tail homed in `home`, queue nodes homed
    /// per-CPU).
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology, home: NodeId) -> SimMcs {
        let tail = mem.alloc(home);
        let qnodes = alloc_table(mem, topo.num_cpus(), QNODE_WORDS, |c| {
            topo.node_of(CpuId(c))
        });
        SimMcs { tail, qnodes }
    }

    pub(crate) fn session(&self, cpu: CpuId) -> McsSession {
        McsSession {
            lock: Fixed(*self),
            me: Fixed(cpu.index() as u64 + 1),
            state: McsState::Idle,
        }
    }

    /// The `locked` word of the CPU encoded as `enc` (index + 1).
    fn locked_of(&self, enc: u64) -> Addr {
        self.qnodes.offset((enc - 1) as usize * QNODE_WORDS)
    }

    /// The `next` word of the CPU encoded as `enc`.
    fn next_of(&self, enc: u64) -> Addr {
        self.qnodes.offset((enc - 1) as usize * QNODE_WORDS + 1)
    }
}

const QUEUED: u64 = 1;
const GRANTED: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum McsState {
    Idle,
    InitLocked,
    InitNext,
    Swapped,
    LinkedPred,
    SpinGrant,
    Holding,
    ReadNext,
    CasTail,
    WaitSuccessor,
    GrantSuccessor,
}

/// An MCS contender.
#[derive(Debug, Clone, Hash)]
pub struct McsSession {
    lock: Fixed<SimMcs>,
    /// This CPU's encoding in the tail/next words.
    me: Fixed<u64>,
    state: McsState,
}

impl McsSession {
    fn my_locked(&self) -> Addr {
        self.lock.locked_of(*self.me)
    }

    fn my_next(&self) -> Addr {
        self.lock.next_of(*self.me)
    }

    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, McsState::Idle);
        self.state = McsState::InitLocked;
        Step::Op(Command::Write(self.my_locked(), QUEUED))
    }

    pub(crate) fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            McsState::InitLocked => {
                self.state = McsState::InitNext;
                Step::Op(Command::Write(self.my_next(), 0))
            }
            McsState::InitNext => {
                self.state = McsState::Swapped;
                Step::Op(Command::Swap {
                    addr: self.lock.tail,
                    value: *self.me,
                })
            }
            McsState::Swapped => {
                let prev = result.expect("swap returns old tail");
                if prev == 0 {
                    self.state = McsState::Holding;
                    Step::Acquired
                } else {
                    self.state = McsState::LinkedPred;
                    Step::Op(Command::Write(self.lock.next_of(prev), *self.me))
                }
            }
            McsState::LinkedPred => {
                self.state = McsState::SpinGrant;
                Step::Op(Command::WaitWhile {
                    addr: self.my_locked(),
                    equals: QUEUED,
                })
            }
            McsState::SpinGrant => {
                debug_assert_eq!(result, Some(GRANTED));
                self.state = McsState::Holding;
                Step::Acquired
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, McsState::Holding);
        self.state = McsState::ReadNext;
        Step::Op(Command::Read(self.my_next()))
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            McsState::ReadNext => {
                let next = result.expect("read returns value");
                if next == 0 {
                    // No known successor: try to swing the tail back.
                    self.state = McsState::CasTail;
                    Step::Op(Command::Cas {
                        addr: self.lock.tail,
                        expected: *self.me,
                        new: 0,
                    })
                } else {
                    self.state = McsState::GrantSuccessor;
                    Step::Op(Command::Write(self.lock.locked_of(next), GRANTED))
                }
            }
            McsState::CasTail => {
                let old = result.expect("cas returns old");
                if old == *self.me {
                    // Queue empty; lock free.
                    self.state = McsState::Idle;
                    Step::Released
                } else {
                    // Someone is enqueueing: wait for the link.
                    self.state = McsState::WaitSuccessor;
                    Step::Op(Command::WaitWhile {
                        addr: self.my_next(),
                        equals: 0,
                    })
                }
            }
            McsState::WaitSuccessor => {
                let next = result.expect("wait returns value");
                debug_assert_ne!(next, 0);
                self.state = McsState::GrantSuccessor;
                Step::Op(Command::Write(self.lock.locked_of(next), GRANTED))
            }
            McsState::GrantSuccessor => {
                self.state = McsState::Idle;
                Step::Released
            }
            s => unreachable!("resume_release in state {s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exclusion_test, uncontested_cost};
    use hbo_locks::LockKind;

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::Mcs, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::Mcs, 2, 6, 20);
    }

    #[test]
    fn uncontested_costs_ordered() {
        let c = uncontested_cost(LockKind::Mcs);
        assert!(c.same_processor < c.same_node);
        assert!(c.same_node < c.remote_node);
        // MCS pays extra ops vs TATAS on the fast path.
        let t = uncontested_cost(LockKind::Tatas);
        assert!(c.same_processor > t.same_processor);
    }

    #[test]
    fn qnodes_are_node_local() {
        let mut m = nucasim::Machine::new(nucasim::MachineConfig::wildfire(2, 2));
        let topo = std::sync::Arc::clone(m.topology());
        let lock = SimMcs::alloc(m.mem_mut(), &topo, NodeId(0));
        for cpu in topo.cpus() {
            let enc = cpu.index() as u64 + 1;
            let (locked, next) = (lock.locked_of(enc), lock.next_of(enc));
            assert_eq!(m.mem().home(locked), topo.node_of(cpu));
            assert_eq!(m.mem().home(next), topo.node_of(cpu));
        }
    }
}
