//! A simulated barrier built from one counter word and one flag word.
//!
//! The application models synchronize phases with barriers (as the real
//! SPLASH-2 programs do). The barrier uses monotonic episode numbers
//! instead of sense reversal: crossing episode `k` means incrementing the
//! arrival counter and, if last, publishing `k` in the flag; everyone else
//! sleeps until the flag reaches `k`.

use nuca_topology::NodeId;
use nucasim::{Addr, Command, MemorySystem};

/// Shared barrier state (allocate once, copy into every program).
#[derive(Debug, Clone, Copy)]
pub struct SimBarrier {
    arrive: Addr,
    flag: Addr,
    total: u64,
}

impl SimBarrier {
    /// Allocates barrier words homed in `home` for `total` participants.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn alloc(mem: &mut MemorySystem, home: NodeId, total: u64) -> SimBarrier {
        assert!(total > 0, "barrier needs at least one participant");
        SimBarrier {
            arrive: mem.alloc(home),
            flag: mem.alloc(home),
            total,
        }
    }
}

/// Per-program barrier-crossing state machine. Create one per program and
/// reuse it for every episode.
#[derive(Debug, Clone)]
pub struct BarrierClient {
    barrier: SimBarrier,
    /// Episodes completed so far (the next crossing is `episode + 1`).
    episode: u64,
    state: BarState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarState {
    Idle,
    Arrived,
    Publishing,
    Waiting,
}

/// What the client wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierStep {
    /// Execute this command, then call [`BarrierClient::resume`].
    Op(Command),
    /// The barrier episode completed.
    Done,
}

impl BarrierClient {
    /// Creates a client for `barrier`.
    pub fn new(barrier: SimBarrier) -> BarrierClient {
        BarrierClient {
            barrier,
            episode: 0,
            state: BarState::Idle,
        }
    }

    /// Begins crossing the next episode.
    ///
    /// # Panics
    ///
    /// Panics if a crossing is already in progress.
    pub fn start(&mut self) -> BarrierStep {
        assert_eq!(self.state, BarState::Idle, "barrier crossing in progress");
        self.state = BarState::Arrived;
        BarrierStep::Op(Command::FetchAdd {
            addr: self.barrier.arrive,
            delta: 1,
        })
    }

    /// Continues a crossing with the previous command's result.
    pub fn resume(&mut self, result: Option<u64>) -> BarrierStep {
        match self.state {
            BarState::Arrived => {
                let arrivals = result.expect("fetch_add returns old") + 1;
                let target = self.barrier.total * (self.episode + 1);
                if arrivals == target {
                    // Last arrival: release everyone.
                    self.state = BarState::Publishing;
                    BarrierStep::Op(Command::Write(self.barrier.flag, self.episode + 1))
                } else {
                    self.state = BarState::Waiting;
                    BarrierStep::Op(Command::WaitWhile {
                        addr: self.barrier.flag,
                        equals: self.episode,
                    })
                }
            }
            BarState::Publishing | BarState::Waiting => {
                self.episode += 1;
                self.state = BarState::Idle;
                BarrierStep::Done
            }
            BarState::Idle => panic!("barrier resume while idle"),
        }
    }

    /// Episodes this client has completed.
    pub fn episodes(&self) -> u64 {
        self.episode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_topology::CpuId;
    use nucasim::{CpuCtx, Machine, MachineConfig, Program};

    /// Crosses the barrier `rounds` times, writing the observed episode
    /// count into `out` at the end.
    struct Crosser {
        client: BarrierClient,
        rounds: u64,
        out: Addr,
        jitter: u64,
        state: u8, // 0 = think, 1 = crossing, 2 = writing out
    }

    impl Program for Crosser {
        fn resume(&mut self, _ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
            loop {
                match self.state {
                    0 => {
                        if self.client.episodes() == self.rounds {
                            self.state = 2;
                            return Command::Write(self.out, self.client.episodes());
                        }
                        self.state = 1;
                        match self.client.start() {
                            BarrierStep::Op(cmd) => return cmd,
                            BarrierStep::Done => continue,
                        }
                    }
                    1 => match self.client.resume(last) {
                        BarrierStep::Op(cmd) => return cmd,
                        BarrierStep::Done => {
                            self.state = 0;
                            return Command::Delay(self.jitter);
                        }
                    },
                    _ => return Command::Done,
                }
            }
        }
    }

    #[test]
    fn all_threads_cross_all_episodes() {
        let mut m = Machine::new(MachineConfig::wildfire(2, 3));
        let bar = SimBarrier::alloc(m.mem_mut(), NodeId(0), 6);
        let outs: Vec<Addr> = (0..6).map(|_| m.mem_mut().alloc(NodeId(0))).collect();
        for (i, cpu) in m.topology().clone().cpus().enumerate() {
            m.add_program(
                cpu,
                Box::new(Crosser {
                    client: BarrierClient::new(bar),
                    rounds: 5,
                    out: outs[i],
                    jitter: 10 + i as u64 * 37,
                    state: 0,
                }),
            );
        }
        let status = m.run(1_000_000_000);
        assert!(status.finished_all, "barrier deadlocked");
        let r = m.into_report();
        for out in outs {
            assert_eq!(r.final_value(out), 5);
        }
    }

    #[test]
    fn single_participant_barrier_is_trivial() {
        let mut m = Machine::new(MachineConfig::wildfire(1, 1));
        let bar = SimBarrier::alloc(m.mem_mut(), NodeId(0), 1);
        let out = m.mem_mut().alloc(NodeId(0));
        m.add_program(
            CpuId(0),
            Box::new(Crosser {
                client: BarrierClient::new(bar),
                rounds: 3,
                out,
                jitter: 5,
                state: 0,
            }),
        );
        let status = m.run(10_000_000);
        assert!(status.finished_all);
        let r = m.into_report();
        assert_eq!(r.final_value(out), 3);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let mut m = Machine::new(MachineConfig::wildfire(1, 1));
        let _ = SimBarrier::alloc(m.mem_mut(), NodeId(0), 0);
    }
}
