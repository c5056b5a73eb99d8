//! Simulator CLH queue lock.

use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{alloc_table, Fixed, Step};

const LOCKED: u64 = 1;
const UNLOCKED: u64 = 0;

/// CLH in simulated memory.
///
/// The queue is implicit: the tail word holds the index+1 of the most
/// recent contender's node; each contender spins on its *predecessor's*
/// node. Node ownership transfers down the queue, so a session adopts its
/// predecessor's node after each release — exactly the recycling scheme of
/// the real algorithm.
#[derive(Debug, Clone, Copy)]
pub struct SimClh {
    tail: Addr,
    /// Base of the flag words: one per CPU, then the initial dummy (index
    /// `cpus`), back to back.
    nodes: Addr,
}

impl SimClh {
    /// Allocates the lock: tail and dummy homed in `home`, per-CPU nodes
    /// homed in their CPU's node.
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology, home: NodeId) -> SimClh {
        let tail = mem.alloc(home);
        let cpus = topo.num_cpus();
        let nodes = alloc_table(mem, cpus + 1, 1, |i| {
            if i < cpus {
                topo.node_of(CpuId(i))
            } else {
                home
            }
        });
        let dummy = nodes.offset(cpus);
        mem.poke(dummy, UNLOCKED);
        // Tail initially points at the dummy (encoded index+1).
        mem.poke(tail, cpus as u64 + 1);
        SimClh { tail, nodes }
    }

    pub(crate) fn session(&self, cpu: CpuId) -> ClhSession {
        ClhSession {
            lock: Fixed(*self),
            mine: cpu.index(),
            pred: usize::MAX,
            state: ClhState::Idle,
        }
    }

    /// Flag word `i` (a CPU's original node, or the dummy at `cpus`).
    fn node(&self, i: usize) -> Addr {
        self.nodes.offset(i)
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

/// A CLH contender.
#[derive(Debug, Clone, Hash)]
pub struct ClhSession {
    lock: Fixed<SimClh>,
    /// Index of the node this session currently owns.
    mine: usize,
    /// Index of the predecessor node (adopted at release).
    pred: usize,
    state: ClhState,
}

impl ClhSession {
    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, ClhState::Idle);
        self.state = ClhState::SetLocked;
        Step::Op(Command::Write(self.lock.node(self.mine), LOCKED))
    }

    pub(crate) fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            ClhState::SetLocked => {
                self.state = ClhState::Swapped;
                Step::Op(Command::Swap {
                    addr: self.lock.tail,
                    value: self.mine as u64 + 1,
                })
            }
            ClhState::Swapped => {
                let prev = result.expect("swap returns old tail");
                debug_assert_ne!(prev, 0, "CLH tail always points at a node");
                self.pred = (prev - 1) as usize;
                self.state = ClhState::SpinPred;
                Step::Op(Command::WaitWhile {
                    addr: self.lock.node(self.pred),
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

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, ClhState::Holding);
        self.state = ClhState::Releasing;
        Step::Op(Command::Write(self.lock.node(self.mine), UNLOCKED))
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
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
    use crate::testutil::{exclusion_test, uncontested_cost};
    use hbo_locks::LockKind;

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
