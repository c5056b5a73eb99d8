//! Simulator TWA — ticket lock with a waiting array (Dice & Kogan,
//! ICPP 2019; arXiv:1810.01573).
//!
//! The ticket lock's handover storm comes from every waiter spinning on
//! `now_serving`. TWA parks **long-term** waiters (distance > 1) on a
//! hashed waiting-array slot instead; advancing `now_serving` disturbs
//! only the distance-1 waiter, and a slot bump promotes exactly one
//! long-term waiter to short-term spinning per handoff. Collisions cause
//! spurious wakeups — the woken waiter re-reads `now_serving` and
//! re-parks — never missed ones: a parker reads its slot *then*
//! re-checks the distance, so the promoting bump is observed in one
//! place or the other.
//!
//! One deliberate deviation from the published form: the promote bump is
//! issued by the **incoming** holder right before it enters, not by the
//! outgoing holder right after its `now_serving` store. The bump still
//! strictly follows the store (entry requires observing it), so the
//! missed-wake-freedom argument is unchanged, and the op count per
//! handoff is identical — but the `now_serving` store becomes the single
//! lock-transfer operation. That matters to the model checker, whose
//! mutual-exclusion accounting requires the grant to be the release's
//! final step; the published order would let the successor (correctly)
//! enter while the releaser still owed its bump, a false positive.

use nuca_topology::{NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

use crate::{alloc_table, Fixed, Step, TwaHash};

/// Default waiting-array slots. The real lock shares one 4096-slot array
/// across the process; the simulator scales it down but keeps the
/// collision semantics (two tickets `slots` apart share a slot). The
/// count and the ticket→slot hash are per-lock tunables
/// ([`crate::SimLockParams::twa_slots`] / `twa_hash`).
pub(crate) const WA_SLOTS: usize = 16;

/// Waiters at distance ≤ this spin on `now_serving`; further back parks
/// on the waiting array. The paper's threshold.
const LONG_TERM: u64 = 1;

/// TWA in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct SimTwa {
    next_ticket: Addr,
    now_serving: Addr,
    /// Base of the waiting array, `slots` words back to back.
    wa: Addr,
    slots: usize,
    hash: TwaHash,
}

impl SimTwa {
    /// Allocates the lock words in `home` and the default-geometry
    /// (16-slot, mod-hashed) waiting array spread round-robin over the
    /// machine's nodes (it is global state, not lock-local, in the
    /// published design).
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology, home: NodeId) -> SimTwa {
        SimTwa::alloc_with(mem, topo, home, WA_SLOTS, TwaHash::Mod)
    }

    /// Like [`SimTwa::alloc`] with an explicit waiting-array geometry:
    /// `slots` array words and the ticket→slot mapping `hash`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= slots <= MAX_TWA_SLOTS`.
    pub fn alloc_with(
        mem: &mut MemorySystem,
        topo: &Topology,
        home: NodeId,
        slots: usize,
        hash: TwaHash,
    ) -> SimTwa {
        crate::assert_twa_slots(slots);
        let wa = alloc_table(mem, slots, 1, |i| NodeId(i % topo.num_nodes()));
        SimTwa {
            next_ticket: mem.alloc(home),
            now_serving: mem.alloc(home),
            wa,
            slots,
            hash,
        }
    }

    pub(crate) fn session(&self) -> TwaSession {
        TwaSession {
            lock: Fixed(*self),
            ticket: 0,
            seen: 0,
            state: TwaState::Idle,
        }
    }

    /// The waiting-array slot `ticket` parks on.
    fn slot_of(&self, ticket: u64) -> Addr {
        self.wa.offset(self.hash.slot(ticket, self.slots))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TwaState {
    Idle,
    TakeTicket,
    /// Has the latest `now_serving` value; dispatches by distance.
    CheckServing,
    /// Reading the waiting-array slot before parking.
    RdSlot,
    /// Re-checking `now_serving` after the slot read (missed-wake guard).
    ReCheck,
    /// Parked on the waiting-array slot.
    LongWait,
    /// Entry bump: promoting the waiter that becomes distance-1 when we
    /// release (see the module docs on bump placement).
    EntryBump,
    Holding,
    WrServing,
}

/// A TWA contender.
#[derive(Debug, Clone, Hash)]
pub struct TwaSession {
    lock: Fixed<SimTwa>,
    ticket: u64,
    /// Slot value read before parking.
    seen: u64,
    state: TwaState,
}

impl TwaSession {
    /// Dispatch on a freshly read `now_serving` value.
    fn on_serving(&mut self, serving: u64) -> Step {
        let distance = self.ticket.wrapping_sub(serving);
        if distance == 0 {
            // Our turn. Promote the waiter LONG_TERM behind us from the
            // array to short-term spinning, then enter.
            self.state = TwaState::EntryBump;
            Step::Op(Command::FetchAdd {
                addr: self.lock.slot_of(self.ticket.wrapping_add(LONG_TERM)),
                delta: 1,
            })
        } else if distance <= LONG_TERM {
            // Short-term: we are next; spin on `now_serving` itself.
            self.state = TwaState::CheckServing;
            Step::Op(Command::WaitWhile {
                addr: self.lock.now_serving,
                equals: serving,
            })
        } else {
            self.state = TwaState::RdSlot;
            Step::Op(Command::Read(self.lock.slot_of(self.ticket)))
        }
    }

    pub(crate) fn start_acquire(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, TwaState::Idle);
        self.state = TwaState::TakeTicket;
        Step::Op(Command::FetchAdd {
            addr: self.lock.next_ticket,
            delta: 1,
        })
    }

    pub(crate) fn resume_acquire(&mut self, _ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        match self.state {
            TwaState::TakeTicket => {
                self.ticket = result.expect("fetch_add returns old");
                self.state = TwaState::CheckServing;
                Step::Op(Command::Read(self.lock.now_serving))
            }
            TwaState::CheckServing => {
                let serving = result.expect("read/wait returns value");
                self.on_serving(serving)
            }
            TwaState::RdSlot => {
                self.seen = result.expect("read returns value");
                self.state = TwaState::ReCheck;
                Step::Op(Command::Read(self.lock.now_serving))
            }
            TwaState::ReCheck => {
                let serving = result.expect("read returns value");
                if self.ticket.wrapping_sub(serving) <= LONG_TERM {
                    self.on_serving(serving)
                } else {
                    self.state = TwaState::LongWait;
                    Step::Op(Command::WaitWhile {
                        addr: self.lock.slot_of(self.ticket),
                        equals: self.seen,
                    })
                }
            }
            TwaState::LongWait => {
                // Woken (possibly spuriously, by a colliding bump):
                // re-read the ground truth.
                self.state = TwaState::CheckServing;
                Step::Op(Command::Read(self.lock.now_serving))
            }
            TwaState::EntryBump => {
                self.state = TwaState::Holding;
                Step::Acquired
            }
            s => unreachable!("resume_acquire in state {s:?}"),
        }
    }

    pub(crate) fn start_release(&mut self, _ctx: &mut CpuCtx<'_>) -> Step {
        debug_assert_eq!(self.state, TwaState::Holding);
        self.state = TwaState::WrServing;
        Step::Op(Command::Write(
            self.lock.now_serving,
            self.ticket.wrapping_add(1),
        ))
    }

    pub(crate) fn resume_release(&mut self, _ctx: &mut CpuCtx<'_>, _result: Option<u64>) -> Step {
        match self.state {
            // The store is the whole release: the promote bump for the
            // waiter that just became distance-1 is issued by the incoming
            // holder at entry (see the module docs).
            TwaState::WrServing => {
                self.state = TwaState::Idle;
                Step::Released
            }
            s => unreachable!("resume_release in state {s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{exclusion_test, uncontested_cost};
    use hbo_locks::LockKind;

    #[test]
    fn mutual_exclusion() {
        exclusion_test(LockKind::Twa, 2, 2, 50);
    }

    #[test]
    fn mutual_exclusion_deep_queue() {
        // 8 CPUs: several waiters sit long-term on the array at once.
        exclusion_test(LockKind::Twa, 2, 4, 25);
    }

    #[test]
    fn remote_pair_costs_most() {
        // Table-1 ordering between same-node and remote-node holds; the
        // same-processor scenario is *not* asserted against same-node
        // because the release's waiting-array bump lands on a slot whose
        // node-round-robin home can dominate these tiny uncontested
        // costs either way.
        let c = uncontested_cost(LockKind::Twa);
        assert!(c.same_node < c.remote_node);
        assert!(c.same_processor < c.remote_node);
    }

    #[test]
    fn exclusion_holds_for_every_waiting_array_geometry() {
        // Slot count and hash change only *where* long-term waiters park
        // (and hence collision/false-sharing behavior), never correctness:
        // a 1-slot array degenerates to everyone colliding, 64 slots to
        // nobody colliding, and the stride hash scatters neighbours — the
        // counter must come out exact under all of them.
        use crate::testutil::exclusion_test_params;
        use crate::{SimLockParams, TwaHash};
        use nucasim::MachineConfig;

        for slots in [1usize, 4, 64] {
            for hash in TwaHash::ALL {
                let params = SimLockParams::default().with_twa(slots, hash);
                exclusion_test_params(
                    LockKind::Twa,
                    MachineConfig::wildfire(2, 3),
                    25,
                    &params,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "between 1 and 4096 waiting-array slots (got 4097)")]
    fn waiting_array_above_the_published_size_rejected() {
        let _ = crate::SimLockParams::default().with_twa(4097, crate::TwaHash::Mod);
    }

    #[test]
    fn hashes_disagree_on_slots_but_not_collisions_mod_16() {
        use crate::TwaHash;
        // Stride (×7, coprime to any slot count) visits every slot exactly
        // once per `slots` consecutive tickets, like mod — same collision
        // rate — but adjacent tickets land 7 slots apart.
        let slots = 16;
        let mut seen_mod: Vec<usize> = (0..slots as u64).map(|t| TwaHash::Mod.slot(t, slots)).collect();
        let mut seen_str: Vec<usize> =
            (0..slots as u64).map(|t| TwaHash::Stride.slot(t, slots)).collect();
        assert_ne!(seen_mod, seen_str, "hashes must differ in placement");
        seen_mod.sort_unstable();
        seen_str.sort_unstable();
        assert_eq!(seen_mod, seen_str, "both are permutations of the array");
        assert_eq!(TwaHash::Stride.slot(0, slots).abs_diff(TwaHash::Stride.slot(1, slots)), 7);
    }

    #[test]
    fn ticket_fifo_is_preserved() {
        // TWA keeps the ticket lock's FIFO grant order, so handoffs under
        // symmetric contention are node-blind — far more remote traffic
        // than CNA's node-clustered handoffs on the same machine.
        let twa = exclusion_test(LockKind::Twa, 2, 3, 40);
        let cna = exclusion_test(LockKind::Cna, 2, 3, 40);
        let twa_h = twa.lock_traces[0].handoff_ratio().unwrap();
        let cna_h = cna.lock_traces[0].handoff_ratio().unwrap();
        assert!(
            twa_h > cna_h + 0.1,
            "TWA remote-handoff ratio {twa_h:.3} not clearly above CNA's {cna_h:.3}"
        );
    }
}
