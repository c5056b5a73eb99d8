//! Simulator TATAS and TATAS_EXP.

use hbo_locks::BackoffConfig;
use nuca_topology::NodeId;
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::{Fixed, SimBackoff, Step};

const FREE: u64 = 0;
const HELD: u64 = 1;

/// Traditional test-and-test&set in simulated memory: `tas`, then spin
/// with plain (cached) loads until the word reads free, then `tas` again.
#[derive(Debug, Clone, Copy)]
pub struct SimTatas {
    pub(crate) word: Addr,
}

impl SimTatas {
    /// Allocates the lock word homed in `home`.
    pub fn alloc(mem: &mut MemorySystem, home: NodeId) -> SimTatas {
        SimTatas {
            word: mem.alloc(home),
        }
    }

    pub(crate) fn session(&self) -> TatasSession {
        TatasSession {
            lock: Fixed(*self),
            state: TatasState::Idle,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TatasState {
    Idle,
    TasIssued,
    Spinning,
    Holding,
    Releasing,
}

/// A TATAS contender.
#[derive(Debug, Clone, Hash)]
pub struct TatasSession {
    lock: Fixed<SimTatas>,
    state: TatasState,
}

impl TatasSession {
    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, TatasState::Idle);
        self.state = TatasState::TasIssued;
        Step::Op(Command::Tas(self.lock.word))
    }

    pub(crate) fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            TatasState::TasIssued => {
                if result == Some(FREE) {
                    self.state = TatasState::Holding;
                    Step::Acquired
                } else {
                    // Spin on the cached copy until the holder's release
                    // invalidates it.
                    self.state = TatasState::Spinning;
                    Step::Op(Command::WaitWhile {
                        addr: self.lock.word,
                        equals: HELD,
                    })
                }
            }
            TatasState::Spinning => {
                // The word changed (presumably to FREE): stampede.
                self.state = TatasState::TasIssued;
                Step::Op(Command::Tas(self.lock.word))
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, TatasState::Holding);
        self.state = TatasState::Releasing;
        Step::Op(Command::Write(self.lock.word, FREE))
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, TatasState::Releasing);
        self.state = TatasState::Idle;
        Step::Released
    }
}

/// TATAS with exponential backoff in simulated memory — the paper's §3
/// listing: delay, re-check with a load, retry the `tas`.
#[derive(Debug, Clone, Copy)]
pub struct SimTatasExp {
    pub(crate) word: Addr,
    cfg: BackoffConfig,
}

impl SimTatasExp {
    /// Allocates the lock word homed in `home` with backoff `cfg`.
    pub fn alloc(mem: &mut MemorySystem, home: NodeId, cfg: BackoffConfig) -> SimTatasExp {
        SimTatasExp {
            word: mem.alloc(home),
            cfg,
        }
    }

    pub(crate) fn session(&self) -> TatasExpSession {
        TatasExpSession {
            lock: Fixed(*self),
            backoff: SimBackoff::new(self.cfg),
            state: ExpState::Idle,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExpState {
    Idle,
    TasIssued,
    Delaying,
    ReadCheck,
    Holding,
    Releasing,
}

/// A TATAS_EXP contender.
#[derive(Debug, Clone, Hash)]
pub struct TatasExpSession {
    lock: Fixed<SimTatasExp>,
    backoff: SimBackoff,
    state: ExpState,
}

impl TatasExpSession {
    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, ExpState::Idle);
        self.backoff.reset(self.lock.cfg);
        self.state = ExpState::TasIssued;
        Step::Op(Command::Tas(self.lock.word))
    }

    pub(crate) fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            ExpState::TasIssued => {
                if result == Some(FREE) {
                    self.state = ExpState::Holding;
                    Step::Acquired
                } else {
                    self.state = ExpState::Delaying;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                }
            }
            ExpState::Delaying => {
                self.state = ExpState::ReadCheck;
                Step::Op(Command::Read(self.lock.word))
            }
            ExpState::ReadCheck => {
                if result == Some(FREE) {
                    self.state = ExpState::TasIssued;
                    Step::Op(Command::Tas(self.lock.word))
                } else {
                    self.state = ExpState::Delaying;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                }
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, ExpState::Holding);
        self.state = ExpState::Releasing;
        Step::Op(Command::Write(self.lock.word, FREE))
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, ExpState::Releasing);
        self.state = ExpState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{exclusion_test, uncontested_cost};
    use hbo_locks::LockKind;

    #[test]
    fn tatas_mutual_exclusion() {
        exclusion_test(LockKind::Tatas, 2, 2, 50);
    }

    #[test]
    fn tatas_exp_mutual_exclusion() {
        exclusion_test(LockKind::TatasExp, 2, 2, 50);
    }

    #[test]
    fn tatas_exp_generates_less_traffic_under_contention() {
        let plain = exclusion_test(LockKind::Tatas, 2, 4, 40);
        let exp = exclusion_test(LockKind::TatasExp, 2, 4, 40);
        assert!(
            exp.traffic.total() < plain.traffic.total(),
            "backoff must reduce traffic: {:?} vs {:?}",
            exp.traffic,
            plain.traffic
        );
    }

    #[test]
    fn uncontested_latency_is_one_tas_plus_store() {
        let c = uncontested_cost(LockKind::Tatas);
        // tas hit (2 + 30 atomic) + release store hit (2): small.
        assert!(c.same_processor < 100, "got {}", c.same_processor);
        assert!(c.remote_node > 3 * c.same_node, "NUCA ratio visible");
    }
}
