//! Lock-algorithm state machines for the `nucasim` NUCA simulator.
//!
//! Every algorithm in the [`hbo_locks::LockCatalog`] — the paper's eight
//! (TATAS, TATAS_EXP, MCS, CLH, RH, HBO, HBO_GT, HBO_GT_SD), the TICKET
//! and HIER extensions, and the modern NUMA-aware generation (CNA, TWA,
//! RECIP) — is expressed here as a resumable state machine over simulated
//! memory, issuing exactly the memory-operation sequences of the
//! published pseudocode (Figures 1 and 2 of the paper for the HBO
//! family). Workload programs drive a [`LockSession`] per CPU.
//!
//! The split from `hbo-locks` is deliberate: that crate is the *real*
//! library on real atomics; this crate is the *measurement* form the
//! simulator executes to regenerate the paper's tables and figures. The
//! two share tuning types ([`hbo_locks::BackoffConfig`]) and the
//! [`hbo_locks::LockKind`] registry. In the simulator, backoff delays are
//! in cycles (4 ns each).
//!
//! # Example
//!
//! ```
//! use hbo_locks::LockKind;
//! use nucasim::{Machine, MachineConfig};
//! use nucasim_locks::{build_lock, GtSlots, SimLockParams};
//! use nuca_topology::NodeId;
//! use std::sync::Arc;
//!
//! let mut machine = Machine::new(MachineConfig::wildfire(2, 2));
//! let topo = Arc::clone(machine.topology());
//! let gt = GtSlots::alloc(machine.mem_mut(), &topo);
//! let lock = build_lock(
//!     LockKind::HboGtSd,
//!     machine.mem_mut(),
//!     &topo,
//!     &gt,
//!     NodeId(0),
//!     &SimLockParams::default(),
//! );
//! // One session per simulated CPU:
//! let session = lock.session(nuca_topology::CpuId(3), NodeId(1));
//! drop(session);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clh;
mod cna;
mod driver;
mod hbo;
mod hbo_gt;
mod hbo_gt_sd;
mod hier;
mod mcs;
pub mod mutants;
mod recip;
mod rh;
mod tatas;
mod ticket;
mod twa;

#[cfg(test)]
pub(crate) mod testutil;

use std::fmt;
use std::sync::Arc;

use hbo_locks::{BackoffConfig, LockKind};
use nuca_topology::{CpuId, NodeId, Topology};
use nucasim::{Addr, Command, CpuCtx, MemorySystem};

pub use clh::SimClh;
pub use cna::SimCna;
pub use driver::{DriveResult, SessionDriver};
pub use hbo::SimHbo;
pub use hbo_gt::SimHboGt;
pub use hbo_gt_sd::SimHboGtSd;
pub use hier::SimHierHbo;
pub use mcs::SimMcs;
pub use recip::SimRecip;
pub use rh::SimRh;
pub use tatas::{SimTatas, SimTatasExp};
pub use ticket::SimTicket;
pub use twa::SimTwa;

/// One step of a lock session: either a memory/delay command to execute,
/// or completion of the current phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execute this command and feed the result back via
    /// [`LockSession::resume_acquire`] / [`LockSession::resume_release`].
    Op(Command),
    /// The lock is now held.
    Acquired,
    /// The lock is now released.
    Released,
}

/// A per-CPU lock client: a resumable acquire/release state machine.
///
/// # Contract
///
/// * Create **one session per simulated CPU per lock** and reuse it for
///   every acquisition (CLH transfers queue-node ownership across
///   acquisitions, so sessions are stateful).
/// * Drive acquisition with [`start_acquire`](LockSession::start_acquire)
///   then [`resume_acquire`](LockSession::resume_acquire) until
///   [`Step::Acquired`]; drive release analogously. Phases must alternate.
/// * Every step receives the executing CPU's [`CpuCtx`], through which the
///   state machines report observability events (backoff sleeps, throttle
///   announcements, anger episodes) — free when no trace sink is installed.
pub trait LockSession: fmt::Debug {
    /// Begins an acquisition.
    fn start_acquire(&mut self, ctx: &mut CpuCtx<'_>) -> Step;
    /// Continues an acquisition with the result of the previous command
    /// (`None` after a `Delay`).
    fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step;
    /// Begins a release.
    fn start_release(&mut self, ctx: &mut CpuCtx<'_>) -> Step;
    /// Continues a release.
    fn resume_release(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step;
}

/// A lock instance living in simulated memory; a factory for sessions.
pub trait SimLock: fmt::Debug {
    /// Creates the session for `cpu` (in `node`). Call once per CPU.
    fn session(&self, cpu: CpuId, node: NodeId) -> Box<dyn LockSession>;
    /// Which algorithm this is.
    fn kind(&self) -> LockKind;
    /// The single word contended for, when the algorithm has one —
    /// enables QOLB-style *collocation* experiments (allocating protected
    /// data in the same line as the lock, paper §3). Queue locks return
    /// `None`.
    fn lock_word(&self) -> Option<Addr> {
        None
    }
}

/// The per-node `is_spinning` words shared by all HBO_GT/HBO_GT_SD locks
/// of one machine (the paper's "one extra variable per NUCA node").
#[derive(Debug, Clone)]
pub struct GtSlots {
    slots: Arc<[Addr]>,
}

impl GtSlots {
    /// Allocates one slot per node, each homed in its own node.
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology) -> GtSlots {
        let slots: Vec<Addr> = topo.nodes().map(|n| mem.alloc(n)).collect();
        GtSlots {
            slots: slots.into(),
        }
    }

    /// The `is_spinning` word of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology this was allocated for.
    pub fn slot(&self, node: NodeId) -> Addr {
        self.slots[node.index()]
    }

    /// Number of nodes covered.
    pub fn nodes(&self) -> usize {
        self.slots.len()
    }
}

/// How TWA maps a ticket to a waiting-array slot.
///
/// The choice matters under line-granular coherence: with [`TwaHash::Mod`]
/// consecutive tickets park on *adjacent* slots, so a promote bump falsely
/// shares its cache line with the neighbours' slots; [`TwaHash::Stride`]
/// spreads consecutive tickets across the array, putting neighbouring
/// tickets on different lines at the cost of less predictable collisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TwaHash {
    /// `slot = ticket % slots` — the published TWA mapping.
    #[default]
    Mod,
    /// `slot = (ticket * 7) % slots` — a coprime stride that separates
    /// consecutive tickets by several slots (and usually several lines).
    Stride,
}

impl TwaHash {
    /// Every hash, in menu order.
    pub const ALL: [TwaHash; 2] = [TwaHash::Mod, TwaHash::Stride];

    /// Stable lowercase name (CLI operand and TSV label).
    pub fn name(self) -> &'static str {
        match self {
            TwaHash::Mod => "mod",
            TwaHash::Stride => "stride",
        }
    }

    /// The waiting-array index for `ticket` out of `slots`.
    pub fn slot(self, ticket: u64, slots: usize) -> usize {
        let s = slots as u64;
        let i = match self {
            TwaHash::Mod => ticket % s,
            TwaHash::Stride => ticket.wrapping_mul(7) % s,
        };
        i as usize
    }
}

impl fmt::Display for TwaHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TwaHash {
    type Err = String;

    fn from_str(s: &str) -> Result<TwaHash, String> {
        match s {
            "mod" => Ok(TwaHash::Mod),
            "stride" => Ok(TwaHash::Stride),
            other => Err(format!("unknown TWA hash '{other}' (expected mod or stride)")),
        }
    }
}

/// Tunables shared by the simulator lock implementations.
///
/// Backoff delays are simulated cycles. The defaults are tuned for the
/// WildFire latency preset: the local backoff is a small multiple of a
/// same-node transfer (70 cycles), the remote backoff a multiple of a
/// remote transfer (420 cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLockParams {
    /// Backoff for spinning on a lock held in the caller's node; also the
    /// TATAS_EXP constants.
    pub local: BackoffConfig,
    /// Backoff for spinning on a remotely held lock.
    pub remote: BackoffConfig,
    /// HBO_GT_SD anger threshold (failed remote attempts before starvation
    /// countermeasures kick in).
    pub get_angry_limit: u32,
    /// RH consecutive local handovers before the releaser publishes the
    /// lock globally.
    pub rh_max_handovers: u64,
    /// CNA consecutive local handoffs before the releaser splices the
    /// secondary (remote) queue back ahead of the main queue.
    pub cna_splice_threshold: u32,
    /// TWA waiting-array slots (the published lock uses 4096 process-wide;
    /// the simulator default is 16, keeping the collision semantics).
    pub twa_slots: usize,
    /// TWA ticket→slot mapping.
    pub twa_hash: TwaHash,
}

impl Default for SimLockParams {
    fn default() -> Self {
        SimLockParams {
            local: BackoffConfig::new(100, 2, 1_600),
            remote: BackoffConfig::new(1_600, 2, 51_200),
            get_angry_limit: 16,
            rh_max_handovers: 64,
            cna_splice_threshold: 64,
            twa_slots: default_twa_slots(),
            twa_hash: default_twa_hash(),
        }
    }
}

impl SimLockParams {
    /// Returns the params with a different remote backoff cap (the
    /// `REMOTE_BACKOFF_CAP` sensitivity study, Fig. 9).
    #[must_use]
    pub fn with_remote_cap(mut self, cap: u32) -> SimLockParams {
        self.remote = self.remote.with_cap(cap);
        self
    }

    /// Returns the params with a different anger threshold (Fig. 10).
    #[must_use]
    pub fn with_get_angry_limit(mut self, limit: u32) -> SimLockParams {
        self.get_angry_limit = limit;
        self
    }

    /// Returns the params with a different CNA splice threshold
    /// (clamped to ≥ 1 at allocation).
    #[must_use]
    pub fn with_cna_splice_threshold(mut self, threshold: u32) -> SimLockParams {
        self.cna_splice_threshold = threshold;
        self
    }

    /// Returns the params with a different TWA waiting-array geometry.
    #[must_use]
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= slots <= MAX_TWA_SLOTS`.
    pub fn with_twa(mut self, slots: usize, hash: TwaHash) -> SimLockParams {
        assert_twa_slots(slots);
        self.twa_slots = slots;
        self.twa_hash = hash;
        self
    }
}

/// Largest TWA waiting array the simulator accepts: the published lock's
/// 4096 slots (the `hbo-locks` TWA; Dice & Kogan, arXiv 1810.01573).
pub const MAX_TWA_SLOTS: usize = 4096;

/// Panics unless `slots` is a waiting-array length the simulator accepts.
pub(crate) fn assert_twa_slots(slots: usize) {
    assert!(
        (1..=MAX_TWA_SLOTS).contains(&slots),
        "TWA needs between 1 and {MAX_TWA_SLOTS} waiting-array slots (got {slots})"
    );
}

/// Process-wide default TWA waiting-array slot count, read by
/// [`SimLockParams::default`]. The harness `--twa-slots` flag sets it once
/// before any run.
static DEFAULT_TWA_SLOTS: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(16);

/// Process-wide default TWA hash ([`TwaHash::ALL`] index), read by
/// [`SimLockParams::default`]. The harness `--twa-hash` flag sets it.
static DEFAULT_TWA_HASH: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Sets the process-wide default TWA waiting-array slot count.
///
/// # Panics
///
/// Panics on `slots == 0` — a slotless array has nowhere to park — and
/// above [`MAX_TWA_SLOTS`].
pub fn set_default_twa_slots(slots: usize) {
    assert_twa_slots(slots);
    DEFAULT_TWA_SLOTS.store(slots, std::sync::atomic::Ordering::Relaxed);
}

/// The process-wide default TWA waiting-array slot count (16 unless
/// [`set_default_twa_slots`] changed it).
pub fn default_twa_slots() -> usize {
    DEFAULT_TWA_SLOTS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Sets the process-wide default TWA ticket→slot hash.
pub fn set_default_twa_hash(hash: TwaHash) {
    let idx = TwaHash::ALL.iter().position(|&h| h == hash).expect("hash in ALL");
    DEFAULT_TWA_HASH.store(idx as u8, std::sync::atomic::Ordering::Relaxed);
}

/// The process-wide default TWA ticket→slot hash ([`TwaHash::Mod`] unless
/// [`set_default_twa_hash`] changed it).
pub fn default_twa_hash() -> TwaHash {
    TwaHash::ALL[DEFAULT_TWA_HASH.load(std::sync::atomic::Ordering::Relaxed) as usize]
}

/// Allocates a lock of `kind` in simulated memory, homed in `home`.
///
/// `gt` supplies the shared per-node `is_spinning` words (used only by
/// HBO_GT and HBO_GT_SD).
pub fn build_lock(
    kind: LockKind,
    mem: &mut MemorySystem,
    topo: &Topology,
    gt: &GtSlots,
    home: NodeId,
    params: &SimLockParams,
) -> Box<dyn SimLock> {
    match kind {
        LockKind::Tatas => Box::new(SimTatas::alloc(mem, home)),
        LockKind::TatasExp => Box::new(SimTatasExp::alloc(mem, home, params.local)),
        LockKind::Mcs => Box::new(SimMcs::alloc(mem, topo, home)),
        LockKind::Clh => Box::new(SimClh::alloc(mem, topo, home)),
        LockKind::Rh => Box::new(SimRh::alloc(
            mem,
            topo,
            params.local,
            params.remote,
            params.rh_max_handovers,
        )),
        LockKind::Hbo => Box::new(SimHbo::alloc(mem, home, params.local, params.remote)),
        LockKind::HboGt => Box::new(SimHboGt::alloc(
            mem,
            home,
            gt.clone(),
            params.local,
            params.remote,
        )),
        LockKind::HboGtSd => Box::new(SimHboGtSd::alloc(
            mem,
            home,
            gt.clone(),
            params.local,
            params.remote,
            params.get_angry_limit,
        )),
        LockKind::Ticket => Box::new(SimTicket::alloc(mem, home)),
        LockKind::Hier => Box::new(SimHierHbo::alloc(
            mem,
            Arc::new(topo.clone()),
            home,
            hier_levels(topo, params),
        )),
        LockKind::Cna => Box::new(SimCna::alloc(
            mem,
            topo,
            home,
            params.cna_splice_threshold,
        )),
        LockKind::Twa => Box::new(SimTwa::alloc_with(
            mem,
            topo,
            home,
            params.twa_slots,
            params.twa_hash,
        )),
        LockKind::Recip => Box::new(SimRecip::alloc(mem, topo, home)),
    }
}

/// Per-distance backoff ladder for the hierarchical lock: distances 0
/// and 1 (same processor / same node) use the local config, distance 2
/// the remote config, and each extra topology level doubles from there —
/// so on two-level machines HIER degenerates to HBO's two-tier scheme,
/// as the paper's "expand hierarchically" remark intends.
fn hier_levels(topo: &Topology, params: &SimLockParams) -> hbo_locks::LevelBackoff {
    let mut cfgs = vec![params.local, params.local, params.remote];
    let mut b = params.remote;
    for _ in 0..topo.extra_levels() {
        b = BackoffConfig::new(b.base.saturating_mul(2), b.factor, b.cap.saturating_mul(2));
        cfgs.push(b);
    }
    hbo_locks::LevelBackoff::new(cfgs)
}

/// Simulated-cycle exponential backoff helper shared by the state
/// machines: yields the next delay and grows the period.
#[derive(Debug, Clone)]
pub(crate) struct SimBackoff {
    current: u32,
    cfg: BackoffConfig,
}

impl SimBackoff {
    pub(crate) fn new(cfg: BackoffConfig) -> SimBackoff {
        SimBackoff {
            current: cfg.base,
            cfg,
        }
    }

    /// The paper's `backoff(&b, cap)`: returns the delay to wait, then
    /// grows the period.
    pub(crate) fn next_delay(&mut self) -> u64 {
        let d = self.current;
        self.current = self
            .current
            .saturating_mul(self.cfg.factor)
            .min(self.cfg.cap);
        u64::from(d)
    }

    pub(crate) fn reset(&mut self, cfg: BackoffConfig) {
        self.current = cfg.base;
        self.cfg = cfg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucasim::MachineConfig;

    #[test]
    fn gt_slots_one_per_node() {
        let mut m = nucasim::Machine::new(MachineConfig::wildfire(3, 2));
        let topo = Arc::clone(m.topology());
        let gt = GtSlots::alloc(m.mem_mut(), &topo);
        assert_eq!(gt.nodes(), 3);
        let a = gt.slot(NodeId(0));
        let b = gt.slot(NodeId(1));
        assert_ne!(a, b);
        assert_eq!(m.mem().home(b), NodeId(1), "slot homed in its node");
    }

    #[test]
    fn build_all_kinds() {
        let mut m = nucasim::Machine::new(MachineConfig::wildfire(2, 2));
        let topo = Arc::clone(m.topology());
        let gt = GtSlots::alloc(m.mem_mut(), &topo);
        for &kind in hbo_locks::LockCatalog::kinds() {
            let lock = build_lock(
                kind,
                m.mem_mut(),
                &topo,
                &gt,
                NodeId(0),
                &SimLockParams::default(),
            );
            assert_eq!(lock.kind(), kind);
            let _session = lock.session(CpuId(0), NodeId(0));
        }
    }

    #[test]
    fn sim_backoff_grows_and_resets() {
        let mut b = SimBackoff::new(BackoffConfig::new(10, 2, 40));
        assert_eq!(b.next_delay(), 10);
        assert_eq!(b.next_delay(), 20);
        assert_eq!(b.next_delay(), 40);
        assert_eq!(b.next_delay(), 40);
        b.reset(BackoffConfig::new(5, 2, 40));
        assert_eq!(b.next_delay(), 5);
    }

    #[test]
    fn params_builders() {
        let p = SimLockParams::default()
            .with_remote_cap(9_999)
            .with_get_angry_limit(3);
        assert_eq!(p.remote.cap, 9_999);
        assert_eq!(p.get_angry_limit, 3);
    }
}
