//! Uncontested lock latency (Table 1): the cost of one acquire-release
//! pair when the previous owner was (1) the same processor, (2) a neighbor
//! in the same node, (3) a processor in a remote node.

use std::sync::Arc;

use hbo_locks::LockKind;
use nuca_topology::{CpuId, NodeId};
use nucasim::{Addr, Command, CpuCtx, LabelProfile, Machine, MachineConfig, Program};
use nucasim_locks::{build_lock, DriveResult, GtSlots, SessionDriver, SimLockParams};

/// Latencies of one acquire-release pair, in nanoseconds (Table 1's
/// columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncontestedReport {
    /// Algorithm measured.
    pub kind: LockKind,
    /// Previous owner: the same processor (lock in own cache).
    pub same_processor_ns: u64,
    /// Previous owner: a neighbor in the same node.
    pub same_node_ns: u64,
    /// Previous owner: a processor in a remote node.
    pub remote_node_ns: u64,
    /// The machine's account if it was profiled, boxed ([`LabelProfile::of`]).
    pub account: Option<Box<LabelProfile>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    WaitTurn,
    Check,
    Acquiring,
    Releasing,
    WriteOut,
    BumpBaton,
    Finished,
}

/// Performs `pairs` acquire-release pairs when the baton reaches `turn`,
/// writes the last pair's duration (cycles) to `out`, bumps the baton.
struct TurnProgram {
    driver: SessionDriver,
    baton: Addr,
    out: Addr,
    turn: u64,
    pairs: u32,
    state: State,
    started_at: u64,
}

impl TurnProgram {
    fn drive(&mut self, r: DriveResult, ctx: &mut CpuCtx<'_>) -> Command {
        match r {
            DriveResult::Busy(cmd) => cmd,
            DriveResult::AcquireDone => {
                self.state = State::Releasing;
                match self.driver.start_release(ctx) {
                    DriveResult::Busy(cmd) => cmd,
                    _ => unreachable!("release begins with a command"),
                }
            }
            DriveResult::ReleaseDone => {
                self.pairs -= 1;
                if self.pairs == 0 {
                    self.state = State::WriteOut;
                    Command::Write(self.out, ctx.now - self.started_at)
                } else {
                    self.state = State::Check;
                    Command::Delay(1)
                }
            }
        }
    }

    fn begin_pair(&mut self, ctx: &mut CpuCtx<'_>) -> Command {
        self.started_at = ctx.now;
        self.state = State::Acquiring;
        let r = self.driver.start_acquire(ctx);
        self.drive(r, ctx)
    }
}

impl Program for TurnProgram {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        match self.state {
            State::WaitTurn => {
                self.state = State::Check;
                Command::WaitWhile {
                    addr: self.baton,
                    equals: self.turn.wrapping_sub(1),
                }
            }
            State::Check => {
                // Proceed only when the baton actually shows our turn; the
                // wait may have woken on an earlier transition.
                if let Some(seen) = last {
                    if seen != self.turn {
                        return Command::WaitWhile {
                            addr: self.baton,
                            equals: seen,
                        };
                    }
                }
                self.begin_pair(ctx)
            }
            State::Acquiring | State::Releasing => {
                let r = self.driver.on_result(ctx, last);
                self.drive(r, ctx)
            }
            State::WriteOut => {
                self.state = State::BumpBaton;
                Command::Write(self.baton, self.turn + 1)
            }
            State::BumpBaton => {
                self.state = State::Finished;
                Command::Done
            }
            State::Finished => Command::Done,
        }
    }
}

/// Measures the three Table-1 scenarios for `kind` on `machine`.
///
/// CPU 0 performs two pairs (the second is the same-processor figure),
/// then a same-node neighbor performs one, then a remote CPU.
///
/// # Panics
///
/// Panics if the machine has fewer than two nodes or fewer than two CPUs
/// in node 0.
pub fn run_uncontested(
    kind: LockKind,
    machine_cfg: &MachineConfig,
    params: &SimLockParams,
) -> UncontestedReport {
    let mut machine = Machine::new(machine_cfg.clone());
    let topo = Arc::clone(machine.topology());
    assert!(topo.num_nodes() >= 2, "Table 1 needs a remote node");
    let node0: Vec<CpuId> = topo.cpus_of(NodeId(0)).collect();
    assert!(node0.len() >= 2, "Table 1 needs a same-node neighbor");
    let neighbor = node0[1];
    let remote = topo
        .cpus_of(NodeId(1))
        .next()
        .expect("node 1 is non-empty");

    let gt = GtSlots::alloc(machine.mem_mut(), &topo);
    let lock = build_lock(kind, machine.mem_mut(), &topo, &gt, NodeId(0), params);
    let baton = machine.mem_mut().alloc(NodeId(0));
    let outs: Vec<Addr> = (0..3).map(|_| machine.mem_mut().alloc(NodeId(0))).collect();

    let plan = [
        (node0[0], 0u64, 2u32, State::Check),
        (neighbor, 1, 1, State::WaitTurn),
        (remote, 2, 1, State::WaitTurn),
    ];
    for (cpu, turn, pairs, state) in plan {
        let node = topo.node_of(cpu);
        machine.add_program(
            cpu,
            Box::new(TurnProgram {
                driver: SessionDriver::new(lock.session(cpu, node)),
                baton,
                out: outs[turn as usize],
                turn,
                pairs,
                state,
                started_at: 0,
            }),
        );
    }
    machine.run(1_000_000_000);
    let report = machine.into_report();
    assert!(report.finished_all, "{kind}: uncontested sequence stuck");
    UncontestedReport {
        kind,
        same_processor_ns: nucasim::cycles_to_ns(report.final_value(outs[0])),
        same_node_ns: nucasim::cycles_to_ns(report.final_value(outs[1])),
        remote_node_ns: nucasim::cycles_to_ns(report.final_value(outs[2])),
        account: LabelProfile::of(&report).map(Box::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1(kind: LockKind) -> UncontestedReport {
        run_uncontested(
            kind,
            &MachineConfig::wildfire(2, 2),
            &SimLockParams::default(),
        )
    }

    #[test]
    fn all_kinds_measure() {
        for &kind in hbo_locks::LockCatalog::kinds() {
            let r = table1(kind);
            assert!(r.same_processor_ns > 0, "{kind}");
            assert!(r.same_processor_ns < r.same_node_ns, "{kind}");
            assert!(r.same_node_ns < r.remote_node_ns, "{kind}");
        }
    }

    #[test]
    fn hbo_matches_tatas_low_latency_goal() {
        // Table 1's punchline: HBO's uncontested latencies are "almost
        // identical with the simplest locks".
        let hbo = table1(LockKind::Hbo);
        let tatas = table1(LockKind::Tatas);
        assert!(hbo.same_processor_ns <= tatas.same_processor_ns + 50);
        assert!(hbo.remote_node_ns <= tatas.remote_node_ns + 200);
    }

    #[test]
    fn queue_locks_cost_more_uncontested() {
        let mcs = table1(LockKind::Mcs);
        let tatas = table1(LockKind::Tatas);
        assert!(mcs.same_processor_ns > tatas.same_processor_ns);
    }

    #[test]
    fn rh_remote_is_most_expensive() {
        // Table 1: RH 4480 ns remote vs ~2000 ns for everyone else. A
        // paper-set claim — TICKET's remote handoff legitimately costs
        // more, so the modern registrants are out of scope here.
        let rh = table1(LockKind::Rh);
        for &kind in hbo_locks::LockCatalog::paper() {
            if kind == LockKind::Rh {
                continue;
            }
            let other = table1(kind);
            assert!(
                rh.remote_node_ns > other.remote_node_ns,
                "RH {} vs {kind} {}",
                rh.remote_node_ns,
                other.remote_node_ns
            );
        }
    }
}
