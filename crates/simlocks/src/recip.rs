//! Simulator Reciprocating lock (Dice & Kogan, arXiv:2501.02380).
//!
//! The lock is one word (`arrivals`): free, held-with-no-known-waiters,
//! or the top of a LIFO arrival stack. The holder detaches the stack
//! wholesale at segment end and serves it in reverse arrival order, each
//! grantee inheriting the remainder as its *continuation*; arrivals
//! during a segment stack up for the next one, giving palindromic
//! admission order and a two-segment bypass bound.
//!
//! Per-CPU stack nodes (`grant`, `next`) are homed node-locally, so
//! waiters spin locally MCS-style; the uncontended path touches only
//! `arrivals`.

use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{alloc_table, Fixed, Step};

/// `arrivals` value: lock free.
const FREE: u64 = 0;
/// `arrivals` value: held with an empty arrival stack. Doubles as the
/// segment terminator in `next` chains (CPU codes start at 2).
const HELD: u64 = 1;

/// Words per stack node: `grant`, `next`.
const QNODE_WORDS: usize = 2;

/// Reciprocating lock in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct SimRecip {
    pub(crate) arrivals: Addr,
    /// Base of the per-CPU `(grant, next)` stack nodes, [`QNODE_WORDS`]
    /// words each, homed in the CPU's node.
    qnodes: Addr,
}

impl SimRecip {
    /// Allocates the lock word in `home` and one stack node per CPU in
    /// that CPU's own node.
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology, home: NodeId) -> SimRecip {
        let qnodes = alloc_table(mem, topo.num_cpus(), QNODE_WORDS, |c| {
            topo.node_of(CpuId(c))
        });
        SimRecip {
            arrivals: mem.alloc(home),
            qnodes,
        }
    }

    pub(crate) fn session(&self, cpu: CpuId) -> RecipSession {
        RecipSession {
            lock: Fixed(*self),
            me: Fixed(cpu.index() as u64 + 2),
            a: 0,
            cont: HELD,
            state: RecipState::Idle,
        }
    }

    fn grant_of(&self, code: u64) -> Addr {
        self.qnodes.offset((code - 2) as usize * QNODE_WORDS)
    }

    fn next_of(&self, code: u64) -> Addr {
        self.qnodes.offset((code - 2) as usize * QNODE_WORDS + 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RecipState {
    Idle,
    FastCas,
    InitGrant,
    /// Retrying the free→held CAS after observing `arrivals == FREE`.
    FreeCas,
    /// Recording the covered `arrivals` value in our `next` word.
    WrNext,
    /// Publishing ourselves as the new stack top.
    PushCas,
    SpinGrant,
    Holding,
    // Release.
    GrantCont,
    SwapDetach,
    GrantTop,
    FreeCasRel,
}

/// A RECIP contender.
#[derive(Debug, Clone, Hash)]
pub struct RecipSession {
    lock: Fixed<SimRecip>,
    /// This CPU's code in `arrivals`/`next` words (index + 2, clear of
    /// [`FREE`] and [`HELD`]).
    me: Fixed<u64>,
    /// Last observed `arrivals` value (the push CAS's expected value; on
    /// success it is exactly the continuation stored in our `next`).
    a: u64,
    /// The holder's continuation: [`HELD`] for an empty segment
    /// remainder, else the next segment member's code.
    cont: u64,
    state: RecipState,
}

impl RecipSession {
    /// Dispatch on an observed `arrivals` value during the push loop.
    fn on_arrivals(&mut self, a: u64) -> Step {
        if a == FREE {
            self.state = RecipState::FreeCas;
            Step::Op(Command::Cas {
                addr: self.lock.arrivals,
                expected: FREE,
                new: HELD,
            })
        } else {
            // Push onto the arrival stack; `next` remembers what we
            // covered — HELD makes us the bottom of our segment.
            self.a = a;
            self.state = RecipState::WrNext;
            Step::Op(Command::Write(self.lock.next_of(*self.me), a))
        }
    }

    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, RecipState::Idle);
        self.state = RecipState::FastCas;
        Step::Op(Command::Cas {
            addr: self.lock.arrivals,
            expected: FREE,
            new: HELD,
        })
    }

    pub(crate) fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            RecipState::FastCas => {
                let old = result.expect("cas returns old");
                if old == FREE {
                    self.cont = HELD;
                    self.state = RecipState::Holding;
                    Step::Acquired
                } else {
                    // Contended: reset our grant word (the previous
                    // grant left it at 1), then join the stack.
                    self.a = old;
                    self.state = RecipState::InitGrant;
                    Step::Op(Command::Write(self.lock.grant_of(*self.me), 0))
                }
            }
            RecipState::InitGrant => {
                let a = self.a;
                self.on_arrivals(a)
            }
            RecipState::FreeCas => {
                let old = result.expect("cas returns old");
                if old == FREE {
                    self.cont = HELD;
                    self.state = RecipState::Holding;
                    Step::Acquired
                } else {
                    self.on_arrivals(old)
                }
            }
            RecipState::WrNext => {
                self.state = RecipState::PushCas;
                Step::Op(Command::Cas {
                    addr: self.lock.arrivals,
                    expected: self.a,
                    new: *self.me,
                })
            }
            RecipState::PushCas => {
                let old = result.expect("cas returns old");
                if old == self.a {
                    self.state = RecipState::SpinGrant;
                    Step::Op(Command::WaitWhile {
                        addr: self.lock.grant_of(*self.me),
                        equals: 0,
                    })
                } else {
                    self.on_arrivals(old)
                }
            }
            RecipState::SpinGrant => {
                // Granted: our continuation is the value we pushed over
                // (our own `next` word, which only we wrote).
                self.cont = self.a;
                self.state = RecipState::Holding;
                Step::Acquired
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, RecipState::Holding);
        if self.cont != HELD {
            // Serve the rest of our admission segment first.
            self.state = RecipState::GrantCont;
            Step::Op(Command::Write(self.lock.grant_of(self.cont), 1))
        } else {
            // Segment exhausted: detach the stack accumulated during it.
            // The swap leaves HELD so late arrivals keep stacking for
            // whoever we grant.
            self.state = RecipState::SwapDetach;
            Step::Op(Command::Swap {
                addr: self.lock.arrivals,
                value: HELD,
            })
        }
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            RecipState::GrantCont | RecipState::GrantTop => {
                self.state = RecipState::Idle;
                Step::Released
            }
            RecipState::SwapDetach => {
                let a = result.expect("swap returns old");
                debug_assert_ne!(a, FREE, "holder saw a free lock");
                if a == HELD {
                    // No waiters: release for real — unless someone
                    // pushes between the swap and this CAS.
                    self.state = RecipState::FreeCasRel;
                    Step::Op(Command::Cas {
                        addr: self.lock.arrivals,
                        expected: HELD,
                        new: FREE,
                    })
                } else {
                    // Grant the detached stack top; the chain below it is
                    // the new holder's continuation.
                    self.state = RecipState::GrantTop;
                    Step::Op(Command::Write(self.lock.grant_of(a), 1))
                }
            }
            RecipState::FreeCasRel => {
                let old = result.expect("cas returns old");
                if old == HELD {
                    self.state = RecipState::Idle;
                    Step::Released
                } else {
                    self.state = RecipState::SwapDetach;
                    Step::Op(Command::Swap {
                        addr: self.lock.arrivals,
                        value: HELD,
                    })
                }
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
        exclusion_test(LockKind::Recip, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::Recip, 2, 6, 20);
    }

    #[test]
    fn uncontested_costs_ordered() {
        let c = uncontested_cost(LockKind::Recip);
        assert!(c.same_processor < c.same_node);
        assert!(c.same_node < c.remote_node);
        // One CAS on the fast path: cheaper than MCS's swap + self-link
        // dance on every scenario.
        let m = uncontested_cost(LockKind::Mcs);
        assert!(c.same_processor <= m.same_processor);
    }

    #[test]
    fn lock_word_is_arrivals() {
        let mut m = nucasim::Machine::new(nucasim::MachineConfig::wildfire(2, 2));
        let topo = std::sync::Arc::clone(m.topology());
        let lock = SimRecip::alloc(m.mem_mut(), &topo, NodeId(0));
        assert_eq!(crate::Lock::Recip(lock).lock_word(), Some(lock.arrivals));
    }
}
