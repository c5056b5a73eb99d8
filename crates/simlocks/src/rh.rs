//! Simulator RH lock (2 nodes) — reconstruction per `hbo_locks::RhLock`.

use hbo_locks::{BackoffConfig, LockKind};
use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::{LockSession, SimBackoff, SimLock, Step};

const FREE: u64 = 0;
const L_FREE: u64 = 1;
const REMOTE: u64 = 2;
const FISHING: u64 = 3;
const HELD: u64 = 4;

/// Failed remote captures tolerated before the fisher may take `L_FREE`.
const REMOTE_PATIENCE: u32 = 2;

/// RH in simulated memory: one lock copy per node (the paper's "every node
/// contains a copy of a lock — the lock storage cost is twice that of
/// simple locking algorithms"), with `L_FREE` local handover and a
/// node-winner election for remote capture.
#[derive(Debug)]
pub struct SimRh {
    /// `copies[n]` is node `n`'s lock copy, homed in node `n`.
    copies: [Addr; 2],
    /// Shared consecutive-local-handover counter.
    handovers: Addr,
    max_handovers: u64,
    local: BackoffConfig,
    remote: BackoffConfig,
}

impl SimRh {
    /// Allocates the lock; the machine must have exactly two nodes.
    ///
    /// # Panics
    ///
    /// Panics if `topo` does not have exactly 2 nodes.
    pub fn alloc(
        mem: &mut MemorySystem,
        topo: &Topology,
        local: BackoffConfig,
        remote: BackoffConfig,
        max_handovers: u64,
    ) -> SimRh {
        assert_eq!(topo.num_nodes(), 2, "RH supports exactly two nodes");
        let c0 = mem.alloc(NodeId(0));
        let c1 = mem.alloc(NodeId(1));
        mem.poke(c0, FREE);
        mem.poke(c1, REMOTE);
        let handovers = mem.alloc(NodeId(0));
        SimRh {
            copies: [c0, c1],
            handovers,
            max_handovers: max_handovers.max(1),
            local,
            remote,
        }
    }
}

impl SimLock for SimRh {
    fn session(&self, _cpu: CpuId, node: NodeId) -> Box<dyn LockSession> {
        assert!(node.index() < 2, "RH session outside its two nodes");
        Box::new(RhSession {
            my_copy: self.copies[node.index()],
            other_copy: self.copies[1 - node.index()],
            handovers: self.handovers,
            max_handovers: self.max_handovers,
            local: self.local,
            remote: self.remote,
            backoff: SimBackoff::new(self.local),
            failures: 0,
            state: RhState::Idle,
        })
    }

    fn kind(&self) -> LockKind {
        LockKind::Rh
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RhState {
    Idle,
    /// `cas(my_copy, FREE, HELD)` issued.
    TryFree,
    /// `cas(my_copy, L_FREE, HELD)` issued.
    TryLFree,
    /// `cas(my_copy, REMOTE, FISHING)` issued (node-winner election).
    TryElect,
    /// Backing off locally (copy HELD or FISHING by a neighbor).
    LocalPause,
    /// Fishing: `cas(other, FREE, REMOTE)` issued.
    FishFree,
    /// Fishing: `cas(other, L_FREE, REMOTE)` issued (after patience).
    FishLFree,
    /// Fishing backoff.
    FishPause,
    /// Migration bookkeeping: reset handover counter.
    MigrateReset,
    /// Migration bookkeeping: mark our copy HELD.
    MigrateMark,
    /// Bump the handover counter after an L_FREE take.
    BumpHandover,
    /// Reset the handover counter after a fresh FREE take.
    FreshReset,
    Holding,
    /// Release: reading the handover counter.
    ReadHandovers,
    /// Release: writing the chosen tag.
    WriteTag,
}

#[derive(Debug, Clone, Hash)]
struct RhSession {
    my_copy: Addr,
    other_copy: Addr,
    handovers: Addr,
    max_handovers: u64,
    local: BackoffConfig,
    remote: BackoffConfig,
    backoff: SimBackoff,
    failures: u32,
    state: RhState,
}

impl RhSession {
    fn try_free(&mut self) -> Step {
        self.state = RhState::TryFree;
        Step::Op(Command::Cas {
            addr: self.my_copy,
            expected: FREE,
            new: HELD,
        })
    }

    fn fish(&mut self) -> Step {
        if self.failures >= REMOTE_PATIENCE {
            self.state = RhState::FishLFree;
            Step::Op(Command::Cas {
                addr: self.other_copy,
                expected: L_FREE,
                new: REMOTE,
            })
        } else {
            self.state = RhState::FishFree;
            Step::Op(Command::Cas {
                addr: self.other_copy,
                expected: FREE,
                new: REMOTE,
            })
        }
    }
}

impl LockSession for RhSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, RhState::Idle);
        self.backoff.reset(self.local);
        self.failures = 0;
        self.try_free()
    }

    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            RhState::TryFree => {
                let old = result.expect("cas returns old");
                match old {
                    FREE => {
                        // Fresh global capture: restart the budget.
                        self.state = RhState::FreshReset;
                        Step::Op(Command::Write(self.handovers, 0))
                    }
                    L_FREE => {
                        self.state = RhState::TryLFree;
                        Step::Op(Command::Cas {
                            addr: self.my_copy,
                            expected: L_FREE,
                            new: HELD,
                        })
                    }
                    REMOTE => {
                        self.state = RhState::TryElect;
                        Step::Op(Command::Cas {
                            addr: self.my_copy,
                            expected: REMOTE,
                            new: FISHING,
                        })
                    }
                    _ => {
                        // HELD or FISHING: a neighbor owns/fetches it.
                        self.state = RhState::LocalPause;
                        let d = self.backoff.next_delay();
                        ctx.trace_backoff(d, BackoffClass::Local);
                        Step::Op(Command::Delay(d))
                    }
                }
            }
            RhState::FreshReset => {
                self.state = RhState::Holding;
                Step::Acquired
            }
            RhState::TryLFree => {
                let old = result.expect("cas returns old");
                if old == L_FREE {
                    // Local handover: consume budget.
                    self.state = RhState::BumpHandover;
                    Step::Op(Command::FetchAdd {
                        addr: self.handovers,
                        delta: 1,
                    })
                } else {
                    // Raced; re-classify.
                    self.try_free()
                }
            }
            RhState::BumpHandover => {
                self.state = RhState::Holding;
                Step::Acquired
            }
            RhState::TryElect => {
                let old = result.expect("cas returns old");
                if old == REMOTE {
                    // We are the node winner: fish the other node's copy.
                    self.backoff.reset(self.remote);
                    self.failures = 0;
                    self.fish()
                } else {
                    self.try_free()
                }
            }
            RhState::LocalPause => self.try_free(),
            RhState::FishFree | RhState::FishLFree => {
                let old = result.expect("cas returns old");
                let captured = (self.state == RhState::FishFree && old == FREE)
                    || (self.state == RhState::FishLFree && old == L_FREE);
                if captured {
                    // Lock migrated here: reset budget, mark our copy HELD.
                    self.state = RhState::MigrateReset;
                    Step::Op(Command::Write(self.handovers, 0))
                } else if self.state == RhState::FishFree && old == L_FREE {
                    // The copy is offered to locals only; after a failed
                    // FREE capture that *observed* L_FREE, claim it
                    // directly (locals had their window).
                    self.state = RhState::FishLFree;
                    Step::Op(Command::Cas {
                        addr: self.other_copy,
                        expected: L_FREE,
                        new: REMOTE,
                    })
                } else if self.state == RhState::FishLFree {
                    // The L_FREE attempt missed; fall back to FREE capture
                    // after a pause.
                    self.failures = 0;
                    self.state = RhState::FishPause;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Remote);
                    Step::Op(Command::Delay(d))
                } else {
                    // Saturate at the patience threshold: only `>=
                    // REMOTE_PATIENCE` is ever observed, and a bounded
                    // counter keeps the session's state space finite for
                    // the `nuca-mcheck` model checker.
                    self.failures = (self.failures + 1).min(REMOTE_PATIENCE);
                    self.state = RhState::FishPause;
                    let d = self.backoff.next_delay();
                    ctx.trace_backoff(d, BackoffClass::Remote);
                    Step::Op(Command::Delay(d))
                }
            }
            RhState::FishPause => self.fish(),
            RhState::MigrateReset => {
                self.state = RhState::MigrateMark;
                Step::Op(Command::Write(self.my_copy, HELD))
            }
            RhState::MigrateMark => {
                self.state = RhState::Holding;
                Step::Acquired
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, RhState::Holding);
        self.state = RhState::ReadHandovers;
        Step::Op(Command::Read(self.handovers))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            RhState::ReadHandovers => {
                let h = result.expect("read returns value");
                let tag = if h < self.max_handovers { L_FREE } else { FREE };
                self.state = RhState::WriteTag;
                Step::Op(Command::Write(self.my_copy, tag))
            }
            RhState::WriteTag => {
                self.state = RhState::Idle;
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
        exclusion_test(LockKind::Rh, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::Rh, 2, 6, 20);
    }

    #[test]
    fn remote_acquire_costs_more_than_other_locks() {
        // Paper Table 1: RH's remote-node acquire is the most expensive of
        // all locks (4480 ns vs ~2000 ns) because of the migration dance.
        let rh = uncontested_cost(LockKind::Rh);
        let hbo = uncontested_cost(LockKind::Hbo);
        assert!(rh.remote_node > hbo.remote_node);
        // But its local costs stay in the spin-lock class.
        assert!(rh.same_processor < 2 * hbo.same_processor + 200);
    }

    #[test]
    fn strong_node_affinity() {
        let rh = exclusion_test(LockKind::Rh, 2, 4, 40);
        let tatas = exclusion_test(LockKind::TatasExp, 2, 4, 40);
        let r = rh.lock_traces[0].handoff_ratio().unwrap();
        let t = tatas.lock_traces[0].handoff_ratio().unwrap();
        assert!(r < t, "RH handoff {r:.3} vs TATAS_EXP {t:.3}");
    }
}
