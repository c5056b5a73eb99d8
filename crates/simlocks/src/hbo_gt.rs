//! Simulator HBO_GT — paper Figure 1 including the emphasized lines.

use hbo_locks::{BackoffConfig, LockKind};
use nuca_topology::{CpuId, NodeId};
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::hbo::{tag, FREE};
use crate::{GtSlots, LockSession, SimBackoff, SimLock, Step};

/// The `is_spinning` "dummy value" (no throttling).
pub(crate) const DUMMY: u64 = 0;

/// HBO_GT in simulated memory: HBO plus the per-node `is_spinning` gate
/// that limits each node to (approximately) one remote spinner.
#[derive(Debug)]
pub struct SimHboGt {
    word: Addr,
    gt: GtSlots,
    local: BackoffConfig,
    remote: BackoffConfig,
}

impl SimHboGt {
    /// Allocates the lock word homed in `home`; `gt` supplies the shared
    /// per-node `is_spinning` words.
    pub fn alloc(
        mem: &mut MemorySystem,
        home: NodeId,
        gt: GtSlots,
        local: BackoffConfig,
        remote: BackoffConfig,
    ) -> SimHboGt {
        SimHboGt {
            word: mem.alloc(home),
            gt,
            local,
            remote,
        }
    }
}

impl SimLock for SimHboGt {
    fn session(&self, _cpu: CpuId, node: NodeId) -> Box<dyn LockSession> {
        Box::new(HboGtSession {
            word: self.word,
            my_slot: self.gt.slot(node),
            my_tag: tag(node),
            local: self.local,
            remote: self.remote,
            backoff: SimBackoff::new(self.local),
            state: GtState::Idle,
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
enum GtState {
    Idle,
    /// Gate: `while (L == is_spinning[my_node_id]);` (line 5 / 56).
    Gate,
    /// Fast-path / restart `cas` (line 6 / 57).
    GateCas,
    LocalDelay,
    LocalCas,
    MigratePause,
    /// Announcing `is_spinning[my] = L` before remote spinning (line 39).
    Announce,
    RemoteDelay,
    RemoteCas,
    /// Clearing the slot after a remote-loop success (line 44) — then
    /// Acquired.
    ClearThenAcquired,
    /// Clearing the slot after observing migration home (line 48) — then
    /// restart at the gate.
    ClearThenRestart,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct HboGtSession {
    word: Addr,
    my_slot: Addr,
    my_tag: u64,
    local: BackoffConfig,
    remote: BackoffConfig,
    backoff: SimBackoff,
    state: GtState,
}

impl HboGtSession {
    fn cas(&self) -> Command {
        Command::Cas {
            addr: self.word,
            expected: FREE,
            new: self.my_tag,
        }
    }

    fn gate(&mut self) -> Step {
        self.state = GtState::Gate;
        Step::Op(Command::WaitWhile {
            addr: self.my_slot,
            equals: self.word.encode(),
        })
    }

    /// `start:` — classify by holder tag.
    fn classify(&mut self, ctx: &mut CpuCtx<'_>, tmp: u64) -> Step {
        if tmp == self.my_tag {
            self.backoff.reset(self.local);
            self.state = GtState::LocalDelay;
            let d = self.backoff.next_delay();
            ctx.trace_backoff(d, BackoffClass::Local);
            Step::Op(Command::Delay(d))
        } else {
            // Remote: publish the throttle before spinning (line 39).
            self.backoff.reset(self.remote);
            self.state = GtState::Announce;
            ctx.trace_throttle_spin();
            Step::Op(Command::Write(self.my_slot, self.word.encode()))
        }
    }
}

impl LockSession for HboGtSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, GtState::Idle);
        self.gate()
    }

    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            GtState::Gate => {
                self.state = GtState::GateCas;
                Step::Op(self.cas())
            }
            GtState::GateCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = GtState::Holding;
                    Step::Acquired
                } else {
                    self.classify(ctx, tmp)
                }
            }
            GtState::LocalDelay => {
                self.state = GtState::LocalCas;
                Step::Op(self.cas())
            }
            GtState::LocalCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = GtState::Holding;
                    return Step::Acquired;
                }
                if tmp == self.my_tag {
                    self.state = GtState::LocalDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                } else {
                    self.state = GtState::MigratePause;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                }
            }
            GtState::MigratePause => {
                // `goto restart`: back through the gate.
                self.gate()
            }
            GtState::Announce => {
                self.state = GtState::RemoteDelay;
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Remote);
                Step::Op(Command::Delay(d))
            }
            GtState::RemoteDelay => {
                self.state = GtState::RemoteCas;
                Step::Op(self.cas())
            }
            GtState::RemoteCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    // Release the threads from our node (line 44).
                    self.state = GtState::ClearThenAcquired;
                    Step::Op(Command::Write(self.my_slot, DUMMY))
                } else if tmp == self.my_tag {
                    // Lock migrated home (lines 47–49).
                    self.state = GtState::ClearThenRestart;
                    Step::Op(Command::Write(self.my_slot, DUMMY))
                } else {
                    self.state = GtState::RemoteDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Remote);
                    Step::Op(Command::Delay(d))
                }
            }
            GtState::ClearThenAcquired => {
                self.state = GtState::Holding;
                Step::Acquired
            }
            GtState::ClearThenRestart => self.gate(),
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, GtState::Holding);
        self.state = GtState::Releasing;
        Step::Op(Command::Write(self.word, FREE))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, GtState::Releasing);
        self.state = GtState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exclusion_test, uncontested_cost};

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::HboGt, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::HboGt, 2, 6, 20);
    }

    #[test]
    fn uncontested_cost_close_to_tatas() {
        let g = uncontested_cost(LockKind::HboGt);
        let t = uncontested_cost(LockKind::Tatas);
        // One extra (hit) read on the gate is allowed.
        assert!(g.same_processor <= t.same_processor + 80);
    }

    #[test]
    fn throttling_cuts_global_traffic_with_many_remote_spinners() {
        // Many CPUs per node: HBO has every remote contender cas-ing the
        // line; HBO_GT elects ~one per node.
        let hbo = exclusion_test(LockKind::Hbo, 2, 6, 25);
        let gt = exclusion_test(LockKind::HboGt, 2, 6, 25);
        assert!(
            gt.traffic.global <= hbo.traffic.global,
            "GT global {} must not exceed HBO global {}",
            gt.traffic.global,
            hbo.traffic.global
        );
    }
}
