//! Simulator CLH queue lock.

use hbo_locks::LockKind;
use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{LockSession, SimLock, Step};

const LOCKED: u64 = 1;
const UNLOCKED: u64 = 0;

/// CLH in simulated memory.
///
/// The queue is implicit: the tail word holds the index+1 of the most
/// recent contender's node; each contender spins on its *predecessor's*
/// node. Node ownership transfers down the queue, so a session adopts its
/// predecessor's node after each release — exactly the recycling scheme of
/// the real algorithm.
#[derive(Debug)]
pub struct SimClh {
    tail: Addr,
    /// One flag word per CPU plus one initial dummy (index `cpus`).
    nodes: Vec<Addr>,
}

impl SimClh {
    /// Allocates the lock: tail and dummy homed in `home`, per-CPU nodes
    /// homed in their CPU's node.
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology, home: NodeId) -> SimClh {
        let tail = mem.alloc(home);
        let mut nodes: Vec<Addr> = topo
            .cpus()
            .map(|c| mem.alloc(topo.node_of(c)))
            .collect();
        let dummy = mem.alloc(home);
        mem.poke(dummy, UNLOCKED);
        nodes.push(dummy);
        // Tail initially points at the dummy (encoded index+1).
        mem.poke(tail, nodes.len() as u64);
        SimClh { tail, nodes }
    }
}

impl SimLock for SimClh {
    fn session(&self, cpu: CpuId, _node: NodeId) -> Box<dyn LockSession> {
        Box::new(ClhSession {
            tail: self.tail,
            nodes: self.nodes.clone(),
            mine: cpu.index(),
            pred: usize::MAX,
            state: ClhState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::Clh
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ClhState {
    Idle,
    SetLocked,
    Swapped,
    SpinPred,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct ClhSession {
    tail: Addr,
    nodes: Vec<Addr>,
    /// Index of the node this session currently owns.
    mine: usize,
    /// Index of the predecessor node (adopted at release).
    pred: usize,
    state: ClhState,
}

impl LockSession for ClhSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, ClhState::Idle);
        self.state = ClhState::SetLocked;
        Step::Op(Command::Write(self.nodes[self.mine], LOCKED))
    }

    fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            ClhState::SetLocked => {
                self.state = ClhState::Swapped;
                Step::Op(Command::Swap {
                    addr: self.tail,
                    value: self.mine as u64 + 1,
                })
            }
            ClhState::Swapped => {
                let prev = result.expect("swap returns old tail");
                debug_assert_ne!(prev, 0, "CLH tail always points at a node");
                self.pred = (prev - 1) as usize;
                self.state = ClhState::SpinPred;
                Step::Op(Command::WaitWhile {
                    addr: self.nodes[self.pred],
                    equals: LOCKED,
                })
            }
            ClhState::SpinPred => {
                self.state = ClhState::Holding;
                Step::Acquired
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, ClhState::Holding);
        self.state = ClhState::Releasing;
        Step::Op(Command::Write(self.nodes[self.mine], UNLOCKED))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, ClhState::Releasing);
        // Adopt the predecessor's (now quiescent) node for the next
        // acquisition.
        self.mine = self.pred;
        self.pred = usize::MAX;
        self.state = ClhState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exclusion_test, uncontested_cost};

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::Clh, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::Clh, 2, 6, 20);
    }

    #[test]
    fn uncontested_costs_ordered() {
        let c = uncontested_cost(LockKind::Clh);
        assert!(c.same_processor < c.same_node);
        assert!(c.same_node < c.remote_node);
    }

    #[test]
    fn node_recycling_sustains_repeat_acquisitions() {
        // A long single-CPU run cycles nodes through the implicit queue;
        // any recycling bug deadlocks or corrupts the flag values.
        exclusion_test(LockKind::Clh, 1, 1, 500);
    }
}
