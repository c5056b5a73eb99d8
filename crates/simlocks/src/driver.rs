//! [`SessionDriver`]: plumbing between a workload program and a
//! [`Session`] state machine.

use nucasim::{Command, CpuCtx};

use crate::{Session, Step};

/// What the driver wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveResult {
    /// Execute this command and call [`SessionDriver::on_result`] with its
    /// result.
    Busy(Command),
    /// The acquisition completed; the caller holds the lock.
    AcquireDone,
    /// The release completed.
    ReleaseDone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Acquiring,
    Holding,
    Releasing,
}

/// Drives a [`Session`] from inside a [`nucasim::Program`].
///
/// A workload keeps one driver per lock it uses; when the driver reports
/// [`DriveResult::Busy`], the workload issues the command and routes the
/// completion back via [`SessionDriver::on_result`].
///
/// The driver owns the lock's bookkeeping: every successful acquisition is
/// recorded (with its time-to-acquire) via
/// [`CpuCtx::record_acquire`][nucasim::CpuCtx::record_acquire], and every
/// release records the hold time — so workloads no longer call
/// `record_acquire` themselves. Use [`with_lock_index`] when a workload
/// drives more than one lock.
///
/// Because every acquisition funnels through `record_acquire`, the
/// engine's fault-injection layers see lock ownership through the driver:
/// with [`nucasim::HolderPreemptConfig`] enabled, an acquisition may mark
/// this CPU to lose a quantum at its next resume — i.e. while it holds
/// the lock — without any change to the workload code.
///
/// [`with_lock_index`]: SessionDriver::with_lock_index
///
/// # Example
///
/// ```
/// use hbo_locks::LockKind;
/// use nucasim::{CpuCtx, Machine, MachineConfig, SimStats};
/// use nucasim_locks::{build_lock, DriveResult, GtSlots, SessionDriver, SimLockParams};
/// use nuca_topology::{CpuId, NodeId};
/// use std::sync::Arc;
///
/// let mut m = Machine::new(MachineConfig::wildfire(2, 2));
/// let topo = Arc::clone(m.topology());
/// let gt = GtSlots::alloc(m.mem_mut(), &topo);
/// let lock = build_lock(LockKind::Hbo, m.mem_mut(), &topo, &gt, NodeId(0),
///                       &SimLockParams::default());
/// let mut driver = SessionDriver::new(lock.session(CpuId(0), NodeId(0)));
/// // Inside a Program the engine supplies the CpuCtx; standalone, build one:
/// let mut stats = SimStats::default();
/// let mut ctx = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
/// assert!(matches!(driver.start_acquire(&mut ctx), DriveResult::Busy(_)));
/// ```
#[derive(Debug)]
pub struct SessionDriver {
    session: Session,
    phase: Phase,
    /// Dense index this lock's statistics are recorded under.
    lock_index: usize,
    /// Simulated time the current acquisition began.
    acquire_started: u64,
    /// Simulated time the lock was acquired (for hold-time accounting).
    acquired_at: u64,
}

impl SessionDriver {
    /// Wraps a session; statistics go to lock index 0.
    pub fn new(session: Session) -> SessionDriver {
        SessionDriver {
            session,
            phase: Phase::Idle,
            lock_index: 0,
            acquire_started: 0,
            acquired_at: 0,
        }
    }

    /// Returns the driver recording under lock index `lock` (for workloads
    /// driving several locks, e.g. the multi-lock application kernels).
    #[must_use]
    pub fn with_lock_index(mut self, lock: usize) -> SessionDriver {
        self.lock_index = lock;
        self
    }

    /// The lock index this driver records statistics under.
    pub fn lock_index(&self) -> usize {
        self.lock_index
    }

    /// Begins an acquisition.
    ///
    /// # Panics
    ///
    /// Panics if the driver is mid-phase or already holding.
    pub fn start_acquire(&mut self, ctx: &mut CpuCtx<'_>) -> DriveResult {
        assert_eq!(self.phase, Phase::Idle, "acquire while not idle");
        self.phase = Phase::Acquiring;
        self.acquire_started = ctx.now;
        ctx.trace_acquire_start(self.lock_index);
        self.step(Phase::Acquiring, ctx, None, true)
    }

    /// Begins a release, recording the hold time.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not currently held.
    pub fn start_release(&mut self, ctx: &mut CpuCtx<'_>) -> DriveResult {
        assert_eq!(self.phase, Phase::Holding, "release while not holding");
        self.phase = Phase::Releasing;
        ctx.record_release(self.lock_index, ctx.now - self.acquired_at);
        self.step(Phase::Releasing, ctx, None, true)
    }

    /// Routes a command completion into the session.
    ///
    /// # Panics
    ///
    /// Panics if no command is outstanding.
    pub fn on_result(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> DriveResult {
        let phase = self.phase;
        self.step(phase, ctx, result, false)
    }

    fn step(
        &mut self,
        phase: Phase,
        ctx: &mut CpuCtx<'_>,
        result: Option<u64>,
        starting: bool,
    ) -> DriveResult {
        let step = match (phase, starting) {
            (Phase::Acquiring, true) => self.session.start_acquire(ctx),
            (Phase::Acquiring, false) => self.session.resume_acquire(ctx, result),
            (Phase::Releasing, true) => self.session.start_release(ctx),
            (Phase::Releasing, false) => self.session.resume_release(ctx, result),
            (p, _) => panic!("no command outstanding in phase {p:?}"),
        };
        match step {
            Step::Op(cmd) => DriveResult::Busy(cmd),
            Step::Acquired => {
                assert_eq!(phase, Phase::Acquiring, "Acquired outside acquire phase");
                self.phase = Phase::Holding;
                self.acquired_at = ctx.now;
                ctx.record_acquire(self.lock_index);
                ctx.record_acquire_latency(self.lock_index, ctx.now - self.acquire_started);
                DriveResult::AcquireDone
            }
            Step::Released => {
                assert_eq!(phase, Phase::Releasing, "Released outside release phase");
                self.phase = Phase::Idle;
                DriveResult::ReleaseDone
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_lock, GtSlots, SimLockParams};
    use hbo_locks::LockKind;
    use nuca_topology::{CpuId, NodeId};
    use nucasim::{Machine, MachineConfig, SimStats};
    use std::sync::Arc;

    fn driver(kind: LockKind) -> SessionDriver {
        let mut m = Machine::new(MachineConfig::wildfire(2, 2));
        let topo = Arc::clone(m.topology());
        let gt = GtSlots::alloc(m.mem_mut(), &topo);
        let lock = build_lock(
            kind,
            m.mem_mut(),
            &topo,
            &gt,
            NodeId(0),
            &SimLockParams::default(),
        );
        SessionDriver::new(lock.session(CpuId(0), NodeId(0)))
    }

    #[test]
    fn start_acquire_yields_command() {
        for &kind in hbo_locks::LockCatalog::kinds() {
            let mut d = driver(kind);
            let mut stats = SimStats::default();
            let mut ctx = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
            assert!(
                matches!(d.start_acquire(&mut ctx), DriveResult::Busy(_)),
                "{kind}"
            );
        }
    }

    #[test]
    fn lock_index_builder() {
        let d = driver(LockKind::Tatas).with_lock_index(3);
        assert_eq!(d.lock_index(), 3);
    }

    #[test]
    #[should_panic(expected = "release while not holding")]
    fn release_before_acquire_panics() {
        let mut d = driver(LockKind::Tatas);
        let mut stats = SimStats::default();
        let mut ctx = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
        let _ = d.start_release(&mut ctx);
    }

    #[test]
    #[should_panic(expected = "acquire while not idle")]
    fn double_start_acquire_panics() {
        let mut d = driver(LockKind::Hbo);
        let mut stats = SimStats::default();
        let mut ctx = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
        let _ = d.start_acquire(&mut ctx);
        let _ = d.start_acquire(&mut ctx);
    }

    #[test]
    #[should_panic(expected = "no command outstanding")]
    fn result_without_command_panics() {
        let mut d = driver(LockKind::Mcs);
        let mut stats = SimStats::default();
        let mut ctx = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
        let _ = d.on_result(&mut ctx, Some(0));
    }
}
