//! Simulator ticket lock (library extension, not one of the paper's
//! eight algorithms).
//!
//! The ticket lock is FIFO like MCS/CLH but all waiters spin on one
//! shared `now_serving` word, so every release invalidates and refills
//! *every* waiter — an O(waiters) storm per handover that the list-based
//! queue locks were invented to avoid. Running it through the simulator
//! (`experiments -- ticket`) shows exactly that contrast.

use hbo_locks::LockKind;
use nuca_topology::{CpuId, NodeId};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{LockSession, SimLock, Step};

/// Ticket lock in simulated memory: a `next_ticket` dispenser word and a
/// `now_serving` word, both homed in `home`.
#[derive(Debug)]
pub struct SimTicket {
    next_ticket: Addr,
    now_serving: Addr,
}

impl SimTicket {
    /// Allocates the two lock words homed in `home`.
    pub fn alloc(mem: &mut MemorySystem, home: NodeId) -> SimTicket {
        SimTicket {
            next_ticket: mem.alloc(home),
            now_serving: mem.alloc(home),
        }
    }
}

impl SimLock for SimTicket {
    fn session(&self, _cpu: CpuId, _node: NodeId) -> Box<dyn LockSession> {
        Box::new(TicketSession {
            next_ticket: self.next_ticket,
            now_serving: self.now_serving,
            my_ticket: 0,
            state: TkState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::Ticket
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TkState {
    Idle,
    /// `fetch_add` on the dispenser issued.
    TakeTicket,
    /// Reading `now_serving`.
    CheckServing,
    /// Sleeping until `now_serving` changes.
    Spinning,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct TicketSession {
    next_ticket: Addr,
    now_serving: Addr,
    my_ticket: u64,
    state: TkState,
}

impl LockSession for TicketSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, TkState::Idle);
        self.state = TkState::TakeTicket;
        Step::Op(Command::FetchAdd {
            addr: self.next_ticket,
            delta: 1,
        })
    }

    fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            TkState::TakeTicket => {
                self.my_ticket = result.expect("fetch_add returns old");
                self.state = TkState::CheckServing;
                Step::Op(Command::Read(self.now_serving))
            }
            TkState::CheckServing | TkState::Spinning => {
                let serving = result.expect("read/wait returns value");
                if serving == self.my_ticket {
                    self.state = TkState::Holding;
                    Step::Acquired
                } else {
                    // Spin on the cached copy; every release invalidates
                    // all of us — the ticket storm.
                    self.state = TkState::Spinning;
                    Step::Op(Command::WaitWhile {
                        addr: self.now_serving,
                        equals: serving,
                    })
                }
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, TkState::Holding);
        self.state = TkState::Releasing;
        Step::Op(Command::Write(self.now_serving, self.my_ticket + 1))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, TkState::Releasing);
        self.state = TkState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriveResult, SessionDriver};
    use nucasim::{CpuCtx, Machine, MachineConfig, Program};
    use std::sync::Arc;

    /// Minimal exclusion harness for a custom (non-LockKind) sim lock.
    struct Prog {
        driver: SessionDriver,
        counter: Addr,
        iters: u32,
        state: u8,
        saved: u64,
    }

    impl Program for Prog {
        fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
            match self.state {
                0 => {
                    if self.iters == 0 {
                        return Command::Done;
                    }
                    self.iters -= 1;
                    self.state = 1;
                    match self.driver.start_acquire(ctx) {
                        DriveResult::Busy(cmd) => cmd,
                        _ => unreachable!(),
                    }
                }
                1 => match self.driver.on_result(ctx, last) {
                    DriveResult::Busy(cmd) => cmd,
                    DriveResult::AcquireDone => {
                        self.state = 2;
                        Command::Read(self.counter)
                    }
                    DriveResult::ReleaseDone => unreachable!(),
                },
                2 => {
                    self.saved = last.expect("read");
                    self.state = 3;
                    Command::Write(self.counter, self.saved + 1)
                }
                3 => {
                    self.state = 4;
                    match self.driver.start_release(ctx) {
                        DriveResult::Busy(cmd) => cmd,
                        _ => unreachable!(),
                    }
                }
                4 => match self.driver.on_result(ctx, last) {
                    DriveResult::Busy(cmd) => cmd,
                    DriveResult::ReleaseDone => {
                        self.state = 0;
                        Command::Delay(40 + ctx.cpu.index() as u64 * 13)
                    }
                    DriveResult::AcquireDone => unreachable!(),
                },
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn mutual_exclusion_and_exact_count() {
        let mut m = Machine::new(MachineConfig::wildfire(2, 3));
        let topo = Arc::clone(m.topology());
        let lock = SimTicket::alloc(m.mem_mut(), NodeId(0));
        let counter = m.mem_mut().alloc(NodeId(0));
        for cpu in topo.cpus() {
            m.add_program(
                cpu,
                Box::new(Prog {
                    driver: SessionDriver::new(lock.session(cpu, topo.node_of(cpu))),
                    counter,
                    iters: 40,
                    state: 0,
                    saved: 0,
                }),
            );
        }
        let status = m.run(10_000_000_000);
        assert!(status.finished_all, "ticket lock stuck");
        let r = m.into_report();
        assert_eq!(r.final_value(counter), 6 * 40);
        // FIFO: handoff ratio should be near the queue-lock expectation,
        // not near zero.
        let h = r.lock_traces[0].handoff_ratio().unwrap();
        assert!(h > 0.3, "ticket lock is FIFO; handoff {h:.3}");
    }
}
