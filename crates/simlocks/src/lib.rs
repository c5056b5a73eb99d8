//! Lock-algorithm state machines for the `nucasim` NUCA simulator.
//!
//! Every algorithm in the [`hbo_locks::LockCatalog`] — the paper's eight
//! (TATAS, TATAS_EXP, MCS, CLH, RH, HBO, HBO_GT, HBO_GT_SD), the TICKET
//! and HIER extensions, and the modern NUMA-aware generation (CNA, TWA,
//! RECIP) — is expressed here as a resumable state machine over simulated
//! memory, issuing exactly the memory-operation sequences of the
//! published pseudocode (Figures 1 and 2 of the paper for the HBO
//! family). Workload programs drive a [`Session`] per CPU.
//!
//! Two enums carry every algorithm: a [`Lock`] is one lock instance in
//! simulated memory (one variant per kind, plus the checker's seeded
//! [`mutants`]), and the [`Session`] it hands each CPU is that kind's
//! state machine. Both dispatch by `match`, and a session is plain,
//! fixed-size data: per-CPU tables are a base address plus a stride into
//! contiguously allocated words, so cloning a session copies bytes and
//! allocates nothing — the model checker snapshots worlds by cloning them.
//! The fields that never change during a run (lock addresses, the CPU's
//! own code, tuning constants) are wrapped so they hash to nothing: a
//! session's `Hash` covers only what a step can change.
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
use std::hash::{Hash, Hasher};
use std::ops::Deref;

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
    /// [`Session::resume_acquire`] / [`Session::resume_release`].
    Op(Command),
    /// The lock is now held.
    Acquired,
    /// The lock is now released.
    Released,
}

/// A lock instance living in simulated memory; the factory for its
/// per-CPU [`Session`]s. One variant per algorithm, plus the seeded
/// [`mutants`] the model checker must catch.
#[derive(Debug, Clone)]
pub enum Lock {
    /// [`LockKind::Tatas`].
    Tatas(SimTatas),
    /// [`LockKind::TatasExp`].
    TatasExp(SimTatasExp),
    /// [`LockKind::Mcs`].
    Mcs(SimMcs),
    /// [`LockKind::Clh`].
    Clh(SimClh),
    /// [`LockKind::Rh`].
    Rh(SimRh),
    /// [`LockKind::Hbo`].
    Hbo(SimHbo),
    /// [`LockKind::HboGt`].
    HboGt(SimHboGt),
    /// [`LockKind::HboGtSd`].
    HboGtSd(SimHboGtSd),
    /// [`LockKind::Ticket`].
    Ticket(SimTicket),
    /// [`LockKind::Hier`].
    Hier(SimHierHbo),
    /// [`LockKind::Cna`].
    Cna(SimCna),
    /// [`LockKind::Twa`].
    Twa(SimTwa),
    /// [`LockKind::Recip`].
    Recip(SimRecip),
    /// Mutant: [`mutants::RacyTatas`].
    RacyTatas(mutants::RacyTatas),
    /// Mutant: [`mutants::LeakyHboGt`].
    LeakyHboGt(mutants::LeakyHboGt),
    /// Mutant: [`mutants::SpliceLostCna`].
    SpliceLostCna(mutants::SpliceLostCna),
}

impl Lock {
    /// Creates the session for `cpu` (in `node`). Call once per CPU.
    pub fn session(&self, cpu: CpuId, node: NodeId) -> Session {
        match self {
            Lock::Tatas(l) => Session::Tatas(l.session()),
            Lock::TatasExp(l) => Session::TatasExp(l.session()),
            Lock::Mcs(l) => Session::Mcs(l.session(cpu)),
            Lock::Clh(l) => Session::Clh(l.session(cpu)),
            Lock::Rh(l) => Session::Rh(l.session(node)),
            Lock::Hbo(l) => Session::Hbo(l.session(node)),
            Lock::HboGt(l) => Session::HboGt(l.session(node)),
            Lock::HboGtSd(l) => Session::HboGtSd(l.session(node)),
            Lock::Ticket(l) => Session::Ticket(l.session()),
            Lock::Hier(l) => Session::Hier(l.session(cpu)),
            Lock::Cna(l) => Session::Cna(l.session(cpu, node)),
            Lock::Twa(l) => Session::Twa(l.session()),
            Lock::Recip(l) => Session::Recip(l.session(cpu)),
            Lock::RacyTatas(l) => Session::RacyTatas(l.session()),
            Lock::LeakyHboGt(l) => Session::LeakyHboGt(l.session(node)),
            Lock::SpliceLostCna(l) => Session::Cna(l.session(cpu, node)),
        }
    }

    /// Which algorithm this is (a mutant reports the kind it breaks).
    pub fn kind(&self) -> LockKind {
        match self {
            Lock::Tatas(_) | Lock::RacyTatas(_) => LockKind::Tatas,
            Lock::TatasExp(_) => LockKind::TatasExp,
            Lock::Mcs(_) => LockKind::Mcs,
            Lock::Clh(_) => LockKind::Clh,
            Lock::Rh(_) => LockKind::Rh,
            Lock::Hbo(_) => LockKind::Hbo,
            Lock::HboGt(_) | Lock::LeakyHboGt(_) => LockKind::HboGt,
            Lock::HboGtSd(_) => LockKind::HboGtSd,
            Lock::Ticket(_) => LockKind::Ticket,
            Lock::Hier(_) => LockKind::Hier,
            Lock::Cna(_) | Lock::SpliceLostCna(_) => LockKind::Cna,
            Lock::Twa(_) => LockKind::Twa,
            Lock::Recip(_) => LockKind::Recip,
        }
    }

    /// The single word contended for, when the algorithm has one —
    /// enables QOLB-style *collocation* experiments (allocating protected
    /// data in the same line as the lock, paper §3). Queue locks return
    /// `None`.
    pub fn lock_word(&self) -> Option<Addr> {
        match self {
            Lock::Tatas(l) => Some(l.word),
            Lock::TatasExp(l) => Some(l.word),
            Lock::Hbo(l) => Some(l.word),
            Lock::HboGt(l) => Some(l.word),
            Lock::HboGtSd(l) => Some(l.word),
            Lock::Hier(l) => Some(l.word),
            Lock::Recip(l) => Some(l.arrivals),
            Lock::RacyTatas(l) => Some(l.word),
            Lock::LeakyHboGt(l) => Some(l.word),
            Lock::Mcs(_)
            | Lock::Clh(_)
            | Lock::Rh(_)
            | Lock::Ticket(_)
            | Lock::Cna(_)
            | Lock::Twa(_)
            | Lock::SpliceLostCna(_) => None,
        }
    }
}

/// A per-CPU lock client: a resumable acquire/release state machine, one
/// variant per algorithm (the CNA variant also runs the
/// [`mutants::SpliceLostCna`] mutant).
///
/// # Contract
///
/// * Create **one session per simulated CPU per lock** with
///   [`Lock::session`] and reuse it for every acquisition (CLH transfers
///   queue-node ownership across acquisitions, so sessions are stateful).
/// * Drive acquisition with [`start_acquire`](Session::start_acquire)
///   then [`resume_acquire`](Session::resume_acquire) until
///   [`Step::Acquired`]; drive release analogously. Phases must alternate.
/// * Every step receives the executing CPU's [`CpuCtx`], through which the
///   state machines report observability events (backoff sleeps, throttle
///   announcements, anger episodes) — free when no trace sink is installed.
/// * A session is plain fixed-size data: cloning one allocates nothing,
///   and its `Hash` feeds only the fields a step can change — the model
///   checker snapshots worlds by cloning them and deduplicates states by
///   hashing them.
#[derive(Debug, Clone, Hash)]
pub enum Session {
    /// TATAS.
    Tatas(tatas::TatasSession),
    /// TATAS_EXP.
    TatasExp(tatas::TatasExpSession),
    /// MCS.
    Mcs(mcs::McsSession),
    /// CLH.
    Clh(clh::ClhSession),
    /// RH.
    Rh(rh::RhSession),
    /// HBO.
    Hbo(hbo::HboSession),
    /// HBO_GT.
    HboGt(hbo_gt::HboGtSession),
    /// HBO_GT_SD.
    HboGtSd(hbo_gt_sd::SdSession),
    /// TICKET.
    Ticket(ticket::TicketSession),
    /// HIER.
    Hier(hier::HierSession),
    /// CNA (and the splice-lost mutant).
    Cna(cna::CnaSession),
    /// TWA.
    Twa(twa::TwaSession),
    /// RECIP.
    Recip(recip::RecipSession),
    /// Mutant: racy TATAS.
    RacyTatas(mutants::RacySession),
    /// Mutant: leaky HBO_GT.
    LeakyHboGt(mutants::LeakySession),
}

/// Calls `$call` on whichever per-kind session `$session` holds, bound
/// to `$s`.
macro_rules! dispatch {
    ($session:expr, $s:ident => $call:expr) => {
        match $session {
            Session::Tatas($s) => $call,
            Session::TatasExp($s) => $call,
            Session::Mcs($s) => $call,
            Session::Clh($s) => $call,
            Session::Rh($s) => $call,
            Session::Hbo($s) => $call,
            Session::HboGt($s) => $call,
            Session::HboGtSd($s) => $call,
            Session::Ticket($s) => $call,
            Session::Hier($s) => $call,
            Session::Cna($s) => $call,
            Session::Twa($s) => $call,
            Session::Recip($s) => $call,
            Session::RacyTatas($s) => $call,
            Session::LeakyHboGt($s) => $call,
        }
    };
}

impl Session {
    /// Begins an acquisition.
    pub fn start_acquire(&mut self, ctx: &mut CpuCtx<'_>) -> Step {
        dispatch!(self, s => s.start_acquire(ctx))
    }

    /// Continues an acquisition with the result of the previous command
    /// (`None` after a `Delay`).
    pub fn resume_acquire(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        dispatch!(self, s => s.resume_acquire(ctx, result))
    }

    /// Begins a release.
    pub fn start_release(&mut self, ctx: &mut CpuCtx<'_>) -> Step {
        dispatch!(self, s => s.start_release(ctx))
    }

    /// Continues a release.
    pub fn resume_release(&mut self, ctx: &mut CpuCtx<'_>, result: Option<u64>) -> Step {
        dispatch!(self, s => s.resume_release(ctx, result))
    }
}

/// A session field that holds the same value in every state of a run: a
/// lock address, the session's own CPU or node, a tuning constant. The
/// state machine reads it through `Deref`, but its `Hash` writes nothing,
/// so hashing a session covers only what a step can change. That is sound
/// for state deduplication because two states of one run never differ in
/// such a field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixed<T>(pub(crate) T);

impl<T> Hash for Fixed<T> {
    fn hash<H: Hasher>(&self, _state: &mut H) {}
}

impl<T> Deref for Fixed<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Allocates a table of `records` records of `words` words each, record
/// `i` homed in `home(i)`, and returns its base: word `w` of record `i` is
/// `base.offset(i * words + w)`. The words are allocated one by one in
/// record order, so the bump allocator lays them out back to back and a
/// session can address any record from the base alone.
///
/// # Panics
///
/// Panics if the table is empty.
pub(crate) fn alloc_table(
    mem: &mut MemorySystem,
    records: usize,
    words: usize,
    home: impl Fn(usize) -> NodeId,
) -> Addr {
    assert!(records > 0 && words > 0, "empty lock table");
    let base = mem.alloc(home(0));
    for k in 1..records * words {
        let addr = mem.alloc(home(k / words));
        debug_assert_eq!(addr, base.offset(k), "lock tables are contiguous");
    }
    base
}

/// The per-node `is_spinning` words shared by all HBO_GT/HBO_GT_SD locks
/// of one machine (the paper's "one extra variable per NUCA node"),
/// allocated back to back: node `n`'s word is `base + n`.
#[derive(Debug, Clone, Copy, Hash)]
pub struct GtSlots {
    base: Addr,
    nodes: usize,
}

impl GtSlots {
    /// Allocates one slot per node, each homed in its own node.
    pub fn alloc(mem: &mut MemorySystem, topo: &Topology) -> GtSlots {
        let nodes = topo.num_nodes();
        GtSlots {
            base: alloc_table(mem, nodes, 1, NodeId),
            nodes,
        }
    }

    /// The `is_spinning` word of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology this was allocated for.
    pub fn slot(&self, node: NodeId) -> Addr {
        assert!(node.index() < self.nodes, "{node} outside the GT slots");
        self.base.offset(node.index())
    }

    /// Number of nodes covered.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

/// How TWA maps a ticket to a waiting-array slot.
///
/// The choice matters under line-granular coherence: with [`TwaHash::Mod`]
/// consecutive tickets park on *adjacent* slots, so a promote bump falsely
/// shares its cache line with the neighbours' slots; [`TwaHash::Stride`]
/// spreads consecutive tickets across the array, putting neighbouring
/// tickets on different lines at the cost of less predictable collisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
            twa_slots: twa::WA_SLOTS,
            twa_hash: TwaHash::Mod,
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
) -> Lock {
    match kind {
        LockKind::Tatas => Lock::Tatas(SimTatas::alloc(mem, home)),
        LockKind::TatasExp => Lock::TatasExp(SimTatasExp::alloc(mem, home, params.local)),
        LockKind::Mcs => Lock::Mcs(SimMcs::alloc(mem, topo, home)),
        LockKind::Clh => Lock::Clh(SimClh::alloc(mem, topo, home)),
        LockKind::Rh => Lock::Rh(SimRh::alloc(
            mem,
            topo,
            params.local,
            params.remote,
            params.rh_max_handovers,
        )),
        LockKind::Hbo => Lock::Hbo(SimHbo::alloc(mem, home, params.local, params.remote)),
        LockKind::HboGt => {
            Lock::HboGt(SimHboGt::alloc(mem, home, *gt, params.local, params.remote))
        }
        LockKind::HboGtSd => Lock::HboGtSd(SimHboGtSd::alloc(
            mem,
            home,
            *gt,
            params.local,
            params.remote,
            params.get_angry_limit,
        )),
        LockKind::Ticket => Lock::Ticket(SimTicket::alloc(mem, home)),
        LockKind::Hier => Lock::Hier(SimHierHbo::alloc(
            mem,
            topo,
            home,
            hier_levels(topo, params),
        )),
        LockKind::Cna => Lock::Cna(SimCna::alloc(mem, topo, home, params.cna_splice_threshold)),
        LockKind::Twa => Lock::Twa(SimTwa::alloc_with(
            mem,
            topo,
            home,
            params.twa_slots,
            params.twa_hash,
        )),
        LockKind::Recip => Lock::Recip(SimRecip::alloc(mem, topo, home)),
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
#[derive(Debug, Clone, Hash)]
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
    use std::sync::Arc;

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
