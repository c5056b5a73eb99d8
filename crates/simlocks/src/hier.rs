//! Simulator hierarchical HBO — the paper's "expanded in a hierarchical
//! way, using more than two sets of constants, for a hierarchical NUCA"
//! (§4.1), in simulation form.
//!
//! The lock word stores the holder's **CPU id** (not its node id), so a
//! contender can compute its full communication distance to the holder
//! (same chip / same node / remote node on a CMP-in-NUMA machine) and
//! pick a per-distance backoff from a [`LevelBackoff`] table.

use hbo_locks::LevelBackoff;
use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, BackoffClass, Command, CpuCtx, MemorySystem};

use crate::{LockSession, SimBackoff, SimLock, Step};

const FREE: u64 = 0;

#[inline]
fn tag(cpu: CpuId) -> u64 {
    cpu.index() as u64 + 1
}

/// Hierarchical HBO in simulated memory.
///
/// Not part of [`hbo_locks::LockKind`] (the paper's eight measured
/// algorithms); build it directly and pass it to a workload runner that
/// accepts a custom lock factory.
#[derive(Debug)]
pub struct SimHierHbo {
    word: Addr,
    topo: std::sync::Arc<Topology>,
    backoff: LevelBackoff,
}

impl SimHierHbo {
    /// Allocates the lock word homed in `home`, with a per-distance
    /// backoff table for `topo`'s distance classes.
    pub fn alloc(
        mem: &mut MemorySystem,
        topo: std::sync::Arc<Topology>,
        home: NodeId,
        backoff: LevelBackoff,
    ) -> SimHierHbo {
        SimHierHbo {
            word: mem.alloc(home),
            topo,
            backoff,
        }
    }
}

impl SimLock for SimHierHbo {
    fn session(&self, cpu: CpuId, _node: NodeId) -> Box<dyn LockSession> {
        let innermost = self.backoff.config(1);
        Box::new(HierSession {
            word: self.word,
            my_tag: tag(cpu),
            distances: self
                .topo
                .cpus()
                .map(|other| self.topo.distance(cpu, other).max(1))
                .collect(),
            table: self.backoff.clone(),
            backoff: SimBackoff::new(*innermost),
            distance: 1,
            state: HierState::Idle,
        })
    }

    fn kind(&self) -> hbo_locks::LockKind {
        hbo_locks::LockKind::Hier
    }

    fn lock_word(&self) -> Option<Addr> {
        Some(self.word)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HierState {
    Idle,
    FastCas,
    Delay,
    LoopCas,
    Holding,
    Releasing,
}

#[derive(Debug, Clone, Hash)]
struct HierSession {
    word: Addr,
    my_tag: u64,
    /// Distance class (at least 1) from this CPU to each CPU, indexed by
    /// CPU id: the only part of the topology the algorithm reads, so the
    /// session stays plain data.
    distances: Vec<usize>,
    table: LevelBackoff,
    backoff: SimBackoff,
    /// Distance class currently spun at.
    distance: usize,
    state: HierState,
}

impl HierSession {
    fn cas(&self) -> Command {
        Command::Cas {
            addr: self.word,
            expected: FREE,
            new: self.my_tag,
        }
    }

    /// Classifies the holder (by CPU tag) and re-arms the backoff if the
    /// distance class changed.
    fn classify(&mut self, ctx: &mut CpuCtx<'_>, tmp: u64) -> Step {
        let d = self.distances[(tmp - 1) as usize];
        if d != self.distance || self.state == HierState::FastCas {
            self.distance = d;
            self.backoff.reset(*self.table.config(d));
        }
        self.state = HierState::Delay;
        let delay = self.backoff.next_delay();
        // The innermost distance class is "local" in the two-level sense;
        // everything further is reported as remote backoff.
        let class = if self.distance <= 1 {
            BackoffClass::Local
        } else {
            BackoffClass::Remote
        };
        ctx.trace_backoff(delay, class);
        Step::Op(Command::Delay(delay))
    }
}

impl LockSession for HierSession {
    fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, HierState::Idle);
        self.state = HierState::FastCas;
        Step::Op(self.cas())
    }

    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            HierState::FastCas | HierState::LoopCas => {
                let tmp = result.expect("cas returns old");
                if tmp == FREE {
                    self.state = HierState::Holding;
                    Step::Acquired
                } else {
                    self.classify(ctx, tmp)
                }
            }
            HierState::Delay => {
                self.state = HierState::LoopCas;
                Step::Op(self.cas())
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, HierState::Holding);
        self.state = HierState::Releasing;
        Step::Op(Command::Write(self.word, FREE))
    }

    fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        debug_assert_eq!(self.state, HierState::Releasing);
        self.state = HierState::Idle;
        Step::Released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucasim::{LatencyModel, Machine, MachineConfig};
    use std::sync::Arc;

    fn cmp_machine() -> Machine {
        let topo = Topology::builder()
            .hierarchical_node(&[2, 4])
            .hierarchical_node(&[2, 4])
            .build()
            .expect("static shape");
        Machine::new(MachineConfig {
            topology: topo,
            ..MachineConfig::wildfire(2, 2).with_latency(LatencyModel::cmp_numa())
        })
    }

    #[test]
    fn alloc_and_session() {
        let mut m = cmp_machine();
        let topo = Arc::clone(m.topology());
        let lock = SimHierHbo::alloc(
            m.mem_mut(),
            topo,
            NodeId(0),
            LevelBackoff::geometric(3, 100, 800, 4),
        );
        let _s = lock.session(CpuId(5), NodeId(0));
        assert_eq!(lock.kind(), hbo_locks::LockKind::Hier);
    }

    #[test]
    fn chip_transfers_are_cheaper_in_the_model() {
        // Sanity for the memory-model extension this lock exploits: a
        // write by a same-chip neighbor costs less than a cross-chip one.
        let mut m = cmp_machine();
        let a = m.mem_mut().alloc(NodeId(0));
        // Drive through the public program API instead: run two tiny
        // programs and compare run times.
        use nucasim::{Command, CpuCtx, Program};
        struct Two {
            addr: Addr,
            step: u8,
        }
        impl Program for Two {
            fn resume(&mut self, _c: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Write(self.addr, 1),
                    _ => Command::Done,
                }
            }
        }
        // Writer on cpu0, then same-chip cpu1 writes.
        m.add_program(CpuId(0), Box::new(Two { addr: a, step: 0 }));
        let t0 = m.run(1_000_000).end_time;
        m.add_program(CpuId(1), Box::new(Two { addr: a, step: 0 }));
        let chip = m.run(2_000_000).end_time - t0;
        // Cross-chip neighbor (cpu4 is the second chip of node 0).
        m.add_program(CpuId(4), Box::new(Two { addr: a, step: 0 }));
        let cross = m.run(3_000_000).end_time - t0 - chip;
        assert!(
            chip < cross,
            "same-chip transfer ({chip}) must beat cross-chip ({cross})"
        );
    }
}
