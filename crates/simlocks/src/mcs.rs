//! Simulator MCS queue lock.

use hbo_locks::LockKind;
use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{LockSession, SimLock, Step};

/// MCS in simulated memory.
///
/// The tail word holds the *CPU id + 1* of the most recent contender (0 =
/// empty). Each CPU owns a queue node — a `locked` word and a `next` word —
/// allocated in its **own node's memory**, which is the defining property
/// of MCS: waiters spin on local storage.
#[derive(Debug)]
pub struct SimMcs {
    tail: Addr,
    /// `(locked, next)` per CPU.
    qnodes: Vec<(Addr, Addr)>,
}

impl SimMcs {
    /// Allocates the lock (tail homed in `home`, queue nodes homed
    /// per-CPU).
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology, home: NodeId) -> SimMcs {
        let tail = mem.alloc(home);
        let qnodes = topo
            .cpus()
            .map(|c| {
                let n = topo.node_of(c);
                (mem.alloc(n), mem.alloc(n))
            })
            .collect();
        SimMcs { tail, qnodes }
    }
}

impl SimLock for SimMcs {
    fn session(&self, cpu: CpuId, _node: NodeId) -> Box<dyn LockSession> {
        Box::new(McsSession {
            tail: self.tail,
            qnodes: self.qnodes.clone(),
            me: cpu.index() as u64 + 1,
            state: McsState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::Mcs
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

#[derive(Debug, Clone, Hash)]
struct McsSession {
    tail: Addr,
    qnodes: Vec<(Addr, Addr)>,
    /// This CPU's encoding in the tail/next words.
    me: u64,
    state: McsState,
}

impl McsSession {
    fn my_locked(&self) -> Addr {
        self.qnodes[(self.me - 1) as usize].0
    }

    fn my_next(&self) -> Addr {
        self.qnodes[(self.me - 1) as usize].1
    }

    fn locked_of(&self, enc: u64) -> Addr {
        self.qnodes[(enc - 1) as usize].0
    }

    fn next_of(&self, enc: u64) -> Addr {
        self.qnodes[(enc - 1) as usize].1
    }
}

impl LockSession for McsSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, McsState::Idle);
        self.state = McsState::InitLocked;
        Step::Op(Command::Write(self.my_locked(), QUEUED))
    }

    fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            McsState::InitLocked => {
                self.state = McsState::InitNext;
                Step::Op(Command::Write(self.my_next(), 0))
            }
            McsState::InitNext => {
                self.state = McsState::Swapped;
                Step::Op(Command::Swap {
                    addr: self.tail,
                    value: self.me,
                })
            }
            McsState::Swapped => {
                let prev = result.expect("swap returns old tail");
                if prev == 0 {
                    self.state = McsState::Holding;
                    Step::Acquired
                } else {
                    self.state = McsState::LinkedPred;
                    Step::Op(Command::Write(self.next_of(prev), self.me))
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

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, McsState::Holding);
        self.state = McsState::ReadNext;
        Step::Op(Command::Read(self.my_next()))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            McsState::ReadNext => {
                let next = result.expect("read returns value");
                if next == 0 {
                    // No known successor: try to swing the tail back.
                    self.state = McsState::CasTail;
                    Step::Op(Command::Cas {
                        addr: self.tail,
                        expected: self.me,
                        new: 0,
                    })
                } else {
                    self.state = McsState::GrantSuccessor;
                    Step::Op(Command::Write(self.locked_of(next), GRANTED))
                }
            }
            McsState::CasTail => {
                let old = result.expect("cas returns old");
                if old == self.me {
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
                Step::Op(Command::Write(self.locked_of(next), GRANTED))
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
            let (locked, next) = lock.qnodes[cpu.index()];
            assert_eq!(m.mem().home(locked), topo.node_of(cpu));
            assert_eq!(m.mem().home(next), topo.node_of(cpu));
        }
    }
}
