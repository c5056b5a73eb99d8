//! Simulator HBO — paper Figure 1 without the emphasized (GT) lines.

use hbo_locks::{BackoffConfig, LockKind};
use nuca_topology::{CpuId, NodeId};
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::{LockSession, SimBackoff, SimLock, Step};

pub(crate) const FREE: u64 = 0;

#[inline]
pub(crate) fn tag(node: NodeId) -> u64 {
    node.index() as u64 + 1
}

/// HBO in simulated memory: one lock word holding the holder's node id;
/// contenders back off eagerly (same node) or lazily (remote node).
#[derive(Debug)]
pub struct SimHbo {
    word: Addr,
    local: BackoffConfig,
    remote: BackoffConfig,
}

impl SimHbo {
    /// Allocates the lock word homed in `home`.
    pub fn alloc(
        mem: &mut MemorySystem,
        home: NodeId,
        local: BackoffConfig,
        remote: BackoffConfig,
    ) -> SimHbo {
        SimHbo {
            word: mem.alloc(home),
            local,
            remote,
        }
    }
}

impl SimLock for SimHbo {
    fn session(&self, _cpu: CpuId, node: NodeId) -> Box<dyn LockSession> {
        Box::new(HboSession {
            word: self.word,
            my_tag: tag(node),
            local: self.local,
            remote: self.remote,
            backoff: SimBackoff::new(self.local),
            state: HboState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::Hbo
    }

    fn lock_word(&self) -> Option<Addr> {
        Some(self.word)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HboState {
    Idle,
    /// Fast-path `cas` issued (Fig. 1 line 6).
    FastCas,
    /// Delaying before a local-loop `cas` (lines 26–27).
    LocalDelay,
    /// Local-loop `cas` issued (line 28).
    LocalCas,
    /// Extra backoff after observing migration away (line 32).
    MigratePause,
    /// Delaying before a remote-loop `cas` (lines 40–41).
    RemoteDelay,
    /// Remote-loop `cas` issued (line 42).
    RemoteCas,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct HboSession {
    word: Addr,
    my_tag: u64,
    local: BackoffConfig,
    remote: BackoffConfig,
    backoff: SimBackoff,
    state: HboState,
}

impl HboSession {
    fn cas(&self) -> Command {
        Command::Cas {
            addr: self.word,
            expected: FREE,
            new: self.my_tag,
        }
    }

    /// `start:` — classify by the last observed holder tag.
    fn classify(&mut self, ctx: &mut CpuCtx<'_>, tmp: u64) -> Step {
        let class = if tmp == self.my_tag {
            self.backoff.reset(self.local);
            self.state = HboState::LocalDelay;
            BackoffClass::Local
        } else {
            self.backoff.reset(self.remote);
            self.state = HboState::RemoteDelay;
            BackoffClass::Remote
        };
        let d = self.backoff.next_delay();
        ctx.trace_backoff(d, class);
        Step::Op(Command::Delay(d))
    }
}

impl LockSession for HboSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, HboState::Idle);
        self.state = HboState::FastCas;
        Step::Op(self.cas())
    }

    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            HboState::FastCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = HboState::Holding;
                    Step::Acquired
                } else {
                    self.classify(ctx, tmp)
                }
            }
            HboState::LocalDelay => {
                self.state = HboState::LocalCas;
                Step::Op(self.cas())
            }
            HboState::LocalCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = HboState::Holding;
                    return Step::Acquired;
                }
                if tmp == self.my_tag {
                    // Still local: keep the eager loop going.
                    self.state = HboState::LocalDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                } else {
                    // Migrated to a remote node: extra backoff, then
                    // re-classify (lines 31–33).
                    self.state = HboState::MigratePause;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Local);
                    Step::Op(Command::Delay(d))
                }
            }
            HboState::MigratePause => {
                self.backoff.reset(self.remote);
                self.state = HboState::RemoteDelay;
                let d = self.backoff.next_delay();
                ctx.trace_backoff(d, BackoffClass::Remote);
                Step::Op(Command::Delay(d))
            }
            HboState::RemoteDelay => {
                self.state = HboState::RemoteCas;
                Step::Op(self.cas())
            }
            HboState::RemoteCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = HboState::Holding;
                    return Step::Acquired;
                }
                if tmp == self.my_tag {
                    // Lock moved into our node: switch to eager spinning.
                    self.classify(ctx, tmp)
                } else {
                    self.state = HboState::RemoteDelay;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Remote);
                    Step::Op(Command::Delay(d))
                }
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, HboState::Holding);
        self.state = HboState::Releasing;
        Step::Op(Command::Write(self.word, FREE))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, HboState::Releasing);
        self.state = HboState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exclusion_test, uncontested_cost};

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::Hbo, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::Hbo, 2, 6, 20);
    }

    #[test]
    fn uncontested_matches_tatas_class() {
        // The paper's design goal: HBO's uncontested cost is a single cas,
        // within a few cycles of TATAS (Table 1).
        let h = uncontested_cost(LockKind::Hbo);
        let t = uncontested_cost(LockKind::Tatas);
        let near = |a: u64, b: u64| a.abs_diff(b) <= 10;
        assert!(near(h.same_processor, t.same_processor));
        assert!(near(h.same_node, t.same_node));
        assert!(near(h.remote_node, t.remote_node));
    }

    #[test]
    fn node_affinity_under_contention() {
        // With contenders in both nodes, the HBO lock must migrate between
        // nodes far less often than the FIFO queue locks, whose handoff
        // ratio approaches (N/2)/(N-1) (paper §5.2).
        let hbo = exclusion_test(LockKind::Hbo, 2, 4, 40);
        let mcs = exclusion_test(LockKind::Mcs, 2, 4, 40);
        let h = hbo.lock_traces[0].handoff_ratio().unwrap();
        let m = mcs.lock_traces[0].handoff_ratio().unwrap();
        assert!(h < 0.25, "HBO handoff ratio {h:.3} must stay low");
        assert!(
            h < m / 2.0,
            "HBO handoff ratio {h:.3} must undercut MCS {m:.3}"
        );
    }
}
