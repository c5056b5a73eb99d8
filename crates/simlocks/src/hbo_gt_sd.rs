//! Simulator HBO_GT_SD — paper Figure 2 grafted onto Figure 1.

use hbo_locks::{BackoffConfig, LockKind};
use nuca_topology::{CpuId, NodeId};
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::hbo::{tag, FREE};
use crate::hbo_gt::DUMMY;
use crate::{GtSlots, LockSession, SimBackoff, SimLock, Step};

/// HBO_GT_SD in simulated memory: HBO_GT plus node-centric starvation
/// detection. A remote spinner that fails `get_angry_limit` times spins
/// eagerly from then on and writes the lock address into the `is_spinning`
/// slot of each node it observes holding the lock, gating new contenders
/// from those nodes until the angry thread finally acquires.
#[derive(Debug)]
pub struct SimHboGtSd {
    word: Addr,
    gt: GtSlots,
    local: BackoffConfig,
    remote: BackoffConfig,
    get_angry_limit: u32,
}

impl SimHboGtSd {
    /// Allocates the lock word homed in `home`.
    pub fn alloc(
        mem: &mut MemorySystem,
        home: NodeId,
        gt: GtSlots,
        local: BackoffConfig,
        remote: BackoffConfig,
        get_angry_limit: u32,
    ) -> SimHboGtSd {
        SimHboGtSd {
            word: mem.alloc(home),
            gt,
            local,
            remote,
            get_angry_limit: get_angry_limit.max(1),
        }
    }
}

impl SimLock for SimHboGtSd {
    fn session(&self, _cpu: CpuId, node: NodeId) -> Box<dyn LockSession> {
        Box::new(SdSession {
            word: self.word,
            gt: self.gt.clone(),
            my_node: node,
            my_tag: tag(node),
            local: self.local,
            remote: self.remote,
            limit: self.get_angry_limit,
            backoff: SimBackoff::new(self.local),
            get_angry: 0,
            stopped: Vec::new(),
            pending_clears: Vec::new(),
            after_clears: AfterClears::Acquired,
            state: SdState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::HboGtSd
    }

    fn lock_word(&self) -> Option<Addr> {
        Some(self.word)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SdState {
    Idle,
    Gate,
    GateCas,
    LocalDelay,
    LocalCas,
    MigratePause,
    Announce,
    RemoteDelay,
    RemoteCas,
    /// Writing the lock address into a stopped node's slot (Fig. 2 line
    /// 62), then back to remote spinning.
    StopNode,
    /// Draining `pending_clears` (our slot + stopped nodes), then
    /// proceeding per `after_clears`.
    Clearing,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AfterClears {
    Acquired,
    Restart,
}

#[derive(Debug, Clone, Hash)]
struct SdSession {
    word: Addr,
    gt: GtSlots,
    my_node: NodeId,
    my_tag: u64,
    local: BackoffConfig,
    remote: BackoffConfig,
    limit: u32,
    backoff: SimBackoff,
    get_angry: u32,
    /// Nodes we have stopped (Fig. 2's `stopped_node_id[]`).
    stopped: Vec<NodeId>,
    /// Slots still to clear before finishing the current transition.
    pending_clears: Vec<Addr>,
    after_clears: AfterClears,
    state: SdState,
}

impl SdSession {
    fn cas(&self) -> Command {
        Command::Cas {
            addr: self.word,
            expected: FREE,
            new: self.my_tag,
        }
    }

    fn gate(&mut self) -> Step {
        self.state = SdState::Gate;
        Step::Op(Command::WaitWhile {
            addr: self.my_slot(),
            equals: self.word.encode(),
        })
    }

    fn my_slot(&self) -> Addr {
        self.gt.slot(self.my_node)
    }

    fn classify(&mut self, ctx: &mut CpuCtx<'_>, tmp: u64) -> Step {
        if tmp == self.my_tag {
            self.backoff.reset(self.local);
            self.state = SdState::LocalDelay;
            let d = self.backoff.next_delay();
            ctx.trace_backoff(d, BackoffClass::Local);
            Step::Op(Command::Delay(d))
        } else {
            self.backoff.reset(self.remote);
            self.get_angry = 0;
            self.state = SdState::Announce;
            ctx.trace_throttle_spin();
            Step::Op(Command::Write(self.my_slot(), self.word.encode()))
        }
    }

    /// Queues the slot clears for lines 43–49 / 51–55 of Fig. 2 and emits
    /// the first one.
    fn begin_clears(&mut self, after: AfterClears) -> Step {
        self.pending_clears.push(self.my_slot());
        for n in self.stopped.drain(..) {
            self.pending_clears.push(self.gt.slot(n));
        }
        self.after_clears = after;
        self.state = SdState::Clearing;
        let slot = self.pending_clears.pop().expect("just pushed");
        Step::Op(Command::Write(slot, DUMMY))
    }

    fn continue_clears(&mut self) -> Step {
        if let Some(slot) = self.pending_clears.pop() {
            return Step::Op(Command::Write(slot, DUMMY));
        }
        match self.after_clears {
            AfterClears::Acquired => {
                self.state = SdState::Holding;
                Step::Acquired
            }
            AfterClears::Restart => self.gate(),
        }
    }
}

impl LockSession for SdSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, SdState::Idle);
        self.get_angry = 0;
        self.gate()
    }

    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            SdState::Gate => {
                self.state = SdState::GateCas;
                Step::Op(self.cas())
            }
            SdState::GateCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = SdState::Holding;
                    Step::Acquired
                } else {
                    self.classify(ctx, tmp)
                }
            }
            SdState::LocalDelay => {
                self.state = SdState::LocalCas;
                Step::Op(self.cas())
            }
            SdState::LocalCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = SdState::Holding;
                    return Step::Acquired;
                }
                if tmp == self.my_tag {
                    self.state = SdState::LocalDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                } else {
                    self.state = SdState::MigratePause;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                }
            }
            SdState::MigratePause => self.gate(),
            SdState::Announce => {
                self.state = SdState::RemoteDelay;
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Remote);
                Step::Op(Command::Delay(d))
            }
            SdState::RemoteDelay => {
                self.state = SdState::RemoteCas;
                Step::Op(self.cas())
            }
            SdState::RemoteCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    // Fig. 2 lines 43–49.
                    return self.begin_clears(AfterClears::Acquired);
                }
                if tmp == self.my_tag {
                    // Fig. 2 lines 51–55.
                    return self.begin_clears(AfterClears::Restart);
                }
                // Fig. 2 lines 57–63: still remote — get angrier. The
                // counter resets on each episode rather than growing
                // forever: `n == limit` after a reset fires at exactly the
                // same attempts as `n % limit == 0` on a monotone counter,
                // and a bounded counter keeps the session's state space
                // finite (required by the `nuca-mcheck` model checker's
                // state-hash dedup to terminate).
                self.get_angry += 1;
                if self.get_angry == self.limit {
                    self.get_angry = 0;
                    ctx.record_got_angry();
                    // Measure 1: spin more frequently.
                    self.backoff.reset(self.local);
                    // Measure 2: stop the observed holder node.
                    let holder = NodeId((tmp - 1) as usize);
                    if holder.index() < self.gt.nodes() && !self.stopped.contains(&holder) {
                        self.stopped.push(holder);
                        self.state = SdState::StopNode;
                        return Step::Op(Command::Write(
                            self.gt.slot(holder),
                            self.word.encode(),
                        ));
                    }
                }
                self.state = SdState::RemoteDelay;
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Remote);
                Step::Op(Command::Delay(d))
            }
            SdState::StopNode => {
                self.state = SdState::RemoteDelay;
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Remote);
                Step::Op(Command::Delay(d))
            }
            SdState::Clearing => self.continue_clears(),
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, SdState::Holding);
        self.state = SdState::Releasing;
        Step::Op(Command::Write(self.word, FREE))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, SdState::Releasing);
        self.state = SdState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exclusion_test, uncontested_cost};

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::HboGtSd, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::HboGtSd, 2, 6, 20);
    }

    #[test]
    fn mutual_exclusion_four_nodes() {
        exclusion_test(LockKind::HboGtSd, 4, 3, 15);
    }

    #[test]
    fn uncontested_cost_close_to_tatas() {
        let s = uncontested_cost(LockKind::HboGtSd);
        let t = uncontested_cost(LockKind::Tatas);
        assert!(s.same_processor <= t.same_processor + 80);
    }

    #[test]
    fn retains_node_affinity() {
        let sd = exclusion_test(LockKind::HboGtSd, 2, 4, 40);
        let mcs = exclusion_test(LockKind::Mcs, 2, 4, 40);
        let s = sd.lock_traces[0].handoff_ratio().unwrap();
        let m = mcs.lock_traces[0].handoff_ratio().unwrap();
        assert!(s < 0.25, "SD handoff ratio {s:.3} must stay low");
        assert!(s < m, "SD handoff {s:.3} vs MCS {m:.3}");
    }
}
