//! Simulator CNA — the compact NUMA-aware queue lock (Dice & Kogan,
//! EuroSys 2019; arXiv:1810.05600).
//!
//! MCS with a twist: the releaser walks the main queue for the first
//! *same-node* waiter and hands over locally, detaching the skipped
//! remote prefix onto a secondary queue threaded through the same queue
//! nodes. A deterministic consecutive-local-handoff threshold (the
//! published version uses a random flush probability) bounds how long
//! the secondary queue can be bypassed before it is spliced back ahead
//! of the main queue.
//!
//! Memory layout mirrors the real lock: a tail word, a holder-only
//! `streak` word, and per-CPU queue nodes (`spin`, `socket`, `sec_tail`,
//! `next`) homed in each CPU's own NUCA node. The release-path queue
//! walk issues real simulated reads, so CNA's handoff-selection cost is
//! visible to the profiler — that scan is the price of its locality.

use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{alloc_table, Fixed, Step};

/// `spin` value while waiting.
const WAIT: u64 = 0;
/// `spin` value once granted with an empty secondary queue. Granted
/// values `>= 2` encode a secondary-queue head (CPU encoding + 1).
const GRANTED: u64 = 1;

/// Words per queue node: `spin`, `socket`, `sec_tail`, `next`.
const QNODE_WORDS: usize = 4;

/// CNA in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct SimCna {
    tail: Addr,
    /// Consecutive local handoffs; read and written only by the holder.
    streak: Addr,
    splice_threshold: u64,
    /// Base of the per-CPU queue nodes, [`QNODE_WORDS`] words each.
    qnodes: Addr,
    /// Mutant hook ([`crate::mutants::SpliceLostCna`]): the splice path
    /// "forgets" to link the main successor behind the secondary queue.
    drop_splice_link: bool,
}

impl SimCna {
    /// Allocates the lock (tail and streak homed in `home`, queue nodes
    /// homed per-CPU). `socket` words are statically initialized — they
    /// describe the machine, not runtime state.
    pub fn alloc(
        mem: &mut MemorySystem,
        topo: &Topology,
        home: NodeId,
        splice_threshold: u32,
    ) -> SimCna {
        let tail = mem.alloc(home);
        let streak = mem.alloc(home);
        let qnodes = alloc_table(mem, topo.num_cpus(), QNODE_WORDS, |c| {
            topo.node_of(CpuId(c))
        });
        let lock = SimCna {
            tail,
            streak,
            splice_threshold: u64::from(splice_threshold.max(1)),
            qnodes,
            drop_splice_link: false,
        };
        for c in topo.cpus() {
            mem.poke(
                lock.socket_of(c.index() as u64 + 1),
                topo.node_of(c).index() as u64,
            );
        }
        lock
    }

    /// [`alloc`](SimCna::alloc) with the splice-link bug armed — only for
    /// checker validation via [`crate::mutants::SpliceLostCna`].
    pub(crate) fn alloc_with_lost_splice_link(
        mem: &mut MemorySystem,
        topo: &Topology,
        home: NodeId,
        splice_threshold: u32,
    ) -> SimCna {
        let mut lock = SimCna::alloc(mem, topo, home, splice_threshold);
        lock.drop_splice_link = true;
        lock
    }

    pub(crate) fn session(&self, cpu: CpuId, node: NodeId) -> CnaSession {
        CnaSession {
            lock: Fixed(*self),
            me: Fixed(cpu.index() as u64 + 1),
            my_socket: Fixed(node.index() as u64),
            sv: GRANTED,
            head: 0,
            cur: 0,
            prefix_last: 0,
            streak_val: 0,
            state: CnaState::Idle,
        }
    }

    /// Word `field` of the queue node of the CPU encoded as `enc`.
    fn qnode(&self, enc: u64, field: usize) -> Addr {
        self.qnodes.offset((enc - 1) as usize * QNODE_WORDS + field)
    }

    fn spin_of(&self, enc: u64) -> Addr {
        self.qnode(enc, 0)
    }

    fn socket_of(&self, enc: u64) -> Addr {
        self.qnode(enc, 1)
    }

    fn sec_tail_of(&self, enc: u64) -> Addr {
        self.qnode(enc, 2)
    }

    fn next_of(&self, enc: u64) -> Addr {
        self.qnode(enc, 3)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CnaState {
    Idle,
    InitSpin,
    InitSecTail,
    InitNext,
    Swapped,
    SelfGrant,
    LinkedPred,
    SpinGrant,
    Holding,
    // Release.
    ReadNext,
    CasTailFree,
    RdPromoteSecTail,
    CasTailPromote,
    WrStreakPromote,
    GrantPromote,
    WaitLink,
    RdStreak,
    /// Queue walk: reading `cur`'s socket.
    RdSock,
    /// Queue walk: reading `cur`'s next link.
    RdWalkNext,
    CutPrefix,
    SetNewSecTail,
    RdOldSecTail,
    LinkOldSecTail,
    UpdOldSecTail,
    WrStreakLocal,
    GrantSucc,
    WrStreakSplice,
    RdSecTailSplice,
    LinkSecTail,
    GrantSecHead,
    GrantHead,
}

/// A CNA contender.
#[derive(Debug, Clone, Hash)]
pub struct CnaSession {
    lock: Fixed<SimCna>,
    /// This CPU's encoding in tail/next words (index + 1).
    me: Fixed<u64>,
    my_socket: Fixed<u64>,
    /// The granted spin value: [`GRANTED`] or secondary head enc + 1.
    sv: u64,
    /// Main-queue successor (head of the walk) during release.
    head: u64,
    /// Walk cursor.
    cur: u64,
    /// Last remote waiter skipped so far (0 = none skipped).
    prefix_last: u64,
    /// Streak value read at the start of handoff selection.
    streak_val: u64,
    state: CnaState,
}

impl CnaSession {
    /// The secondary-queue head encoded in `self.sv` (callers check
    /// `sv != GRANTED` first).
    fn sec_head(&self) -> u64 {
        debug_assert!(self.sv > GRANTED);
        self.sv - 1
    }

    /// Begins handoff selection once a main-queue successor is linked:
    /// walk for a local waiter while the streak budget lasts, else go
    /// straight to the splice path.
    fn select_successor(&mut self) -> Step {
        if self.streak_val < self.lock.splice_threshold {
            self.cur = self.head;
            self.prefix_last = 0;
            self.state = CnaState::RdSock;
            Step::Op(Command::Read(self.lock.socket_of(self.cur)))
        } else {
            self.state = CnaState::WrStreakSplice;
            Step::Op(Command::Write(self.lock.streak, 0))
        }
    }

    /// The splice path after the streak reset: grant the remote side —
    /// the secondary queue spliced ahead of the main successor, or the
    /// main successor directly when no secondary exists.
    fn splice_step(&mut self) -> Step {
        if self.sv == GRANTED {
            self.state = CnaState::GrantHead;
            Step::Op(Command::Write(self.lock.spin_of(self.head), GRANTED))
        } else {
            self.state = CnaState::RdSecTailSplice;
            Step::Op(Command::Read(self.lock.sec_tail_of(self.sec_head())))
        }
    }

    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, CnaState::Idle);
        self.state = CnaState::InitSpin;
        Step::Op(Command::Write(self.lock.spin_of(*self.me), WAIT))
    }

    pub(crate) fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            CnaState::InitSpin => {
                self.state = CnaState::InitSecTail;
                Step::Op(Command::Write(self.lock.sec_tail_of(*self.me), 0))
            }
            CnaState::InitSecTail => {
                self.state = CnaState::InitNext;
                Step::Op(Command::Write(self.lock.next_of(*self.me), 0))
            }
            CnaState::InitNext => {
                self.state = CnaState::Swapped;
                Step::Op(Command::Swap {
                    addr: self.lock.tail,
                    value: *self.me,
                })
            }
            CnaState::Swapped => {
                let prev = result.expect("swap returns old tail");
                if prev == 0 {
                    // Uncontended: become the holder with an empty
                    // secondary queue.
                    self.state = CnaState::SelfGrant;
                    Step::Op(Command::Write(self.lock.spin_of(*self.me), GRANTED))
                } else {
                    self.state = CnaState::LinkedPred;
                    Step::Op(Command::Write(self.lock.next_of(prev), *self.me))
                }
            }
            CnaState::SelfGrant => {
                self.sv = GRANTED;
                self.state = CnaState::Holding;
                Step::Acquired
            }
            CnaState::LinkedPred => {
                self.state = CnaState::SpinGrant;
                Step::Op(Command::WaitWhile {
                    addr: self.lock.spin_of(*self.me),
                    equals: WAIT,
                })
            }
            CnaState::SpinGrant => {
                // The granted value carries the secondary queue.
                self.sv = result.expect("wait returns value");
                debug_assert!(self.sv >= GRANTED);
                self.state = CnaState::Holding;
                Step::Acquired
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, CnaState::Holding);
        self.state = CnaState::ReadNext;
        Step::Op(Command::Read(self.lock.next_of(*self.me)))
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            CnaState::ReadNext => {
                let next = result.expect("read returns value");
                if next != 0 {
                    self.head = next;
                    self.state = CnaState::RdStreak;
                    Step::Op(Command::Read(self.lock.streak))
                } else if self.sv == GRANTED {
                    // Nobody visible anywhere: try to free the lock.
                    self.state = CnaState::CasTailFree;
                    Step::Op(Command::Cas {
                        addr: self.lock.tail,
                        expected: *self.me,
                        new: 0,
                    })
                } else {
                    // Main queue drained, remote waiters parked: promote
                    // the secondary queue to be the main queue.
                    self.state = CnaState::RdPromoteSecTail;
                    Step::Op(Command::Read(self.lock.sec_tail_of(self.sec_head())))
                }
            }
            CnaState::CasTailFree => {
                let old = result.expect("cas returns old");
                if old == *self.me {
                    self.state = CnaState::Idle;
                    Step::Released
                } else {
                    self.state = CnaState::WaitLink;
                    Step::Op(Command::WaitWhile {
                        addr: self.lock.next_of(*self.me),
                        equals: 0,
                    })
                }
            }
            CnaState::RdPromoteSecTail => {
                let sec_tail = result.expect("read returns value");
                self.cur = sec_tail;
                self.state = CnaState::CasTailPromote;
                Step::Op(Command::Cas {
                    addr: self.lock.tail,
                    expected: *self.me,
                    new: sec_tail,
                })
            }
            CnaState::CasTailPromote => {
                let old = result.expect("cas returns old");
                if old == *self.me {
                    self.state = CnaState::WrStreakPromote;
                    Step::Op(Command::Write(self.lock.streak, 0))
                } else {
                    self.state = CnaState::WaitLink;
                    Step::Op(Command::WaitWhile {
                        addr: self.lock.next_of(*self.me),
                        equals: 0,
                    })
                }
            }
            CnaState::WrStreakPromote => {
                self.state = CnaState::GrantPromote;
                Step::Op(Command::Write(self.lock.spin_of(self.sec_head()), GRANTED))
            }
            CnaState::GrantPromote => {
                self.state = CnaState::Idle;
                Step::Released
            }
            CnaState::WaitLink => {
                let next = result.expect("wait returns value");
                debug_assert_ne!(next, 0);
                self.head = next;
                self.state = CnaState::RdStreak;
                Step::Op(Command::Read(self.lock.streak))
            }
            CnaState::RdStreak => {
                self.streak_val = result.expect("read returns value");
                self.select_successor()
            }
            CnaState::RdSock => {
                let sock = result.expect("read returns value");
                if sock == *self.my_socket {
                    // Local successor found at `cur`.
                    if self.prefix_last == 0 {
                        // No remote prefix skipped: plain local handoff.
                        self.state = CnaState::WrStreakLocal;
                        Step::Op(Command::Write(self.lock.streak, self.streak_val + 1))
                    } else {
                        // Detach [head ..= prefix_last] onto the
                        // secondary queue, starting by terminating it.
                        self.state = CnaState::CutPrefix;
                        Step::Op(Command::Write(self.lock.next_of(self.prefix_last), 0))
                    }
                } else {
                    self.prefix_last = self.cur;
                    self.state = CnaState::RdWalkNext;
                    Step::Op(Command::Read(self.lock.next_of(self.cur)))
                }
            }
            CnaState::RdWalkNext => {
                let next = result.expect("read returns value");
                if next == 0 {
                    // Ran off the linked queue without a local waiter
                    // (possibly an arrival mid-link): serve remote.
                    self.state = CnaState::WrStreakSplice;
                    Step::Op(Command::Write(self.lock.streak, 0))
                } else {
                    self.cur = next;
                    self.state = CnaState::RdSock;
                    Step::Op(Command::Read(self.lock.socket_of(self.cur)))
                }
            }
            CnaState::CutPrefix => {
                if self.sv == GRANTED {
                    // The detached prefix becomes a fresh secondary
                    // queue headed by `head`.
                    self.state = CnaState::SetNewSecTail;
                    Step::Op(Command::Write(
                        self.lock.sec_tail_of(self.head),
                        self.prefix_last,
                    ))
                } else {
                    // Append the prefix to the existing secondary queue.
                    self.state = CnaState::RdOldSecTail;
                    Step::Op(Command::Read(self.lock.sec_tail_of(self.sec_head())))
                }
            }
            CnaState::SetNewSecTail => {
                self.sv = self.head + 1;
                self.state = CnaState::WrStreakLocal;
                Step::Op(Command::Write(self.lock.streak, self.streak_val + 1))
            }
            CnaState::RdOldSecTail => {
                let old_tail = result.expect("read returns value");
                self.state = CnaState::LinkOldSecTail;
                Step::Op(Command::Write(self.lock.next_of(old_tail), self.head))
            }
            CnaState::LinkOldSecTail => {
                self.state = CnaState::UpdOldSecTail;
                Step::Op(Command::Write(
                    self.lock.sec_tail_of(self.sec_head()),
                    self.prefix_last,
                ))
            }
            CnaState::UpdOldSecTail => {
                self.state = CnaState::WrStreakLocal;
                Step::Op(Command::Write(self.lock.streak, self.streak_val + 1))
            }
            CnaState::WrStreakLocal => {
                // Grant `cur`, passing the (possibly grown) secondary
                // queue along in the spin value.
                self.state = CnaState::GrantSucc;
                Step::Op(Command::Write(self.lock.spin_of(self.cur), self.sv))
            }
            CnaState::GrantSucc => {
                self.state = CnaState::Idle;
                Step::Released
            }
            CnaState::WrStreakSplice => self.splice_step(),
            CnaState::GrantHead => {
                self.state = CnaState::Idle;
                Step::Released
            }
            CnaState::RdSecTailSplice => {
                let sec_tail = result.expect("read returns value");
                if self.lock.drop_splice_link {
                    // BUG (mutant): grant the secondary head without first
                    // linking the main successor behind the secondary
                    // tail. The main queue from `head` on is orphaned —
                    // those waiters spin forever and the chain's last
                    // node deadlocks waiting for a link that never comes.
                    self.state = CnaState::GrantSecHead;
                    return Step::Op(Command::Write(self.lock.spin_of(self.sec_head()), GRANTED));
                }
                self.state = CnaState::LinkSecTail;
                Step::Op(Command::Write(self.lock.next_of(sec_tail), self.head))
            }
            CnaState::LinkSecTail => {
                self.state = CnaState::GrantSecHead;
                Step::Op(Command::Write(self.lock.spin_of(self.sec_head()), GRANTED))
            }
            CnaState::GrantSecHead => {
                self.state = CnaState::Idle;
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
    use hbo_locks::LockKind;

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::Cna, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_many_cpus() {
        exclusion_test(LockKind::Cna, 2, 6, 20);
    }

    #[test]
    fn uncontested_costs_ordered() {
        let c = uncontested_cost(LockKind::Cna);
        assert!(c.same_processor < c.same_node);
        assert!(c.same_node < c.remote_node);
        // CNA pays MCS-like queue-node setup plus the self-grant store.
        let m = uncontested_cost(LockKind::Mcs);
        assert!(c.same_processor >= m.same_processor);
    }

    #[test]
    fn qnodes_are_node_local() {
        let mut m = nucasim::Machine::new(nucasim::MachineConfig::wildfire(2, 2));
        let topo = std::sync::Arc::clone(m.topology());
        let lock = SimCna::alloc(m.mem_mut(), &topo, NodeId(0), 64);
        for cpu in topo.cpus() {
            let enc = cpu.index() as u64 + 1;
            let (spin, socket, sec_tail, next) = (
                lock.spin_of(enc),
                lock.socket_of(enc),
                lock.sec_tail_of(enc),
                lock.next_of(enc),
            );
            for w in [spin, socket, sec_tail, next] {
                assert_eq!(m.mem().home(w), topo.node_of(cpu));
            }
            assert_eq!(m.mem().peek(socket), topo.node_of(cpu).index() as u64);
        }
    }

    #[test]
    fn handoffs_prefer_the_holders_node() {
        // 2 nodes × 3 CPUs contending: CNA should keep clear majorities
        // of handovers node-local, like the HBO family and unlike MCS.
        use crate::testutil::exclusion_test_with;
        let report = exclusion_test_with(
            LockKind::Cna,
            nucasim::MachineConfig::wildfire(2, 3),
            40,
        );
        let h = report.lock_traces[0].handoff_ratio().unwrap();
        assert!(
            h < 0.35,
            "CNA remote-handoff ratio {h:.3} not node-local"
        );
    }
}
