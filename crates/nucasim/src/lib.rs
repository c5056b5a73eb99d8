//! A deterministic discrete-event simulator of nonuniform communication
//! architectures (NUCAs).
//!
//! The HPCA 2003 HBO-lock paper evaluates its algorithms on a 2-node Sun
//! WildFire (up to 30 UltraSPARC II processors, NUCA ratio ≈ 6). This crate
//! substitutes for that machine: it models exactly the mechanisms the
//! paper's results depend on —
//!
//! * **latency classes**: own cache hit, same-node cache-to-cache transfer,
//!   local memory, remote transfer (the NUCA ratio), parameterized by
//!   [`LatencyModel`] presets taken from the paper's published numbers;
//! * **line serialization**: concurrent coherence transactions on one cache
//!   line queue up ([`LatencyModel::local_occupancy`]), which is what makes
//!   lock handover degrade with contention;
//! * **invalidation-based spinning**: a simulated processor spinning on a
//!   cached word costs nothing until a writer invalidates it
//!   ([`Command::WaitWhile`]), then pays a refill transaction — the source
//!   of the TATAS release burst;
//! * **traffic accounting**: every coherence transaction is classified
//!   local (within the requester's node) or global (crossing the
//!   interconnect), regenerating the paper's Tables 2 and 6;
//! * **OS preemption** (optional): random multi-millisecond preemption
//!   windows per CPU, the mechanism behind the queue-lock collapse in the
//!   paper's 30-processor runs (Table 4);
//! * **fault injection** (optional): composable, seed-reproducible
//!   disturbance layers — lock-holder-targeted preemption, thread
//!   migration, a slow node, latency jitter — see [`FaultConfig`].
//!
//! Simulated processors run [`Program`]s — resumable state machines that
//! issue [`Command`]s (memory operations, delays). The engine is fully
//! deterministic for a given seed; one cycle is 4 ns (250 MHz, the paper's
//! E6000 clock).
//!
//! # Example
//!
//! ```
//! use nucasim::{Command, CpuCtx, Machine, MachineConfig, Program};
//!
//! /// Increments a shared counter 10 times with an atomic fetch-add.
//! struct Incr {
//!     addr: nucasim::Addr,
//!     left: u32,
//! }
//!
//! impl Program for Incr {
//!     fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _last: Option<u64>) -> Command {
//!         if self.left == 0 {
//!             return Command::Done;
//!         }
//!         self.left -= 1;
//!         Command::FetchAdd { addr: self.addr, delta: 1 }
//!     }
//! }
//!
//! let cfg = MachineConfig::wildfire(2, 2);
//! let mut machine = Machine::new(cfg);
//! let counter = machine.mem_mut().alloc(nuca_topology::NodeId(0));
//! for cpu in machine.topology().cpus() {
//!     machine.add_program(cpu, Box::new(Incr { addr: counter, left: 10 }));
//! }
//! let status = machine.run(1_000_000);
//! assert!(status.finished_all);
//! let report = machine.into_report();
//! assert_eq!(report.final_value(counter), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coherence;
mod config;
mod engine;
mod faults;
mod mem;
mod metrics;
mod preempt;
pub mod profile;
mod program;
mod rng;
pub mod sched;
mod stats;
mod trace;

pub use config::{CacheGeometry, LatencyModel, MachineConfig, ProtocolKind};
pub use sched::{SchedOp, SchedOpLog};
pub use engine::{Machine, RunStatus, SimReport};
pub use faults::{
    FaultConfig, HolderPreemptConfig, JitterConfig, MigrationConfig, SlowNodeConfig,
};
pub use mem::{Addr, MemOp, MemorySystem, MAX_SIM_CPUS, MAX_SIM_NODES};
pub use metrics::Histogram;
pub use preempt::PreemptionConfig;
pub use profile::{LabelProfile, LockProfile, Profile};
pub use program::{Command, CpuCtx, Program};
pub use rng::SplitMix64;
pub use stats::{LockTally, LockTrace, SimStats, TrafficCounts, DEFAULT_HOT_LOCKS};
pub use trace::{BackoffClass, EventLog, SimEvent, TraceRecord, TraceSink};

/// Cycles per second of the simulated processors (250 MHz, the paper's
/// UltraSPARC II clock). One cycle is 4 ns.
pub const CYCLES_PER_SECOND: u64 = 250_000_000;

/// Nanoseconds per simulated cycle (4 at 250 MHz).
pub const NS_PER_CYCLE: u64 = 1_000_000_000 / CYCLES_PER_SECOND;

// A cycle must be a whole number of nanoseconds for `cycles_to_ns` to be
// exact.
const _: () = assert!(1_000_000_000 % CYCLES_PER_SECOND == 0);

/// Converts simulated cycles to nanoseconds, saturating at `u64::MAX`.
///
/// # Example
///
/// ```
/// assert_eq!(nucasim::cycles_to_ns(250), 1000);
/// ```
pub fn cycles_to_ns(cycles: u64) -> u64 {
    cycles.saturating_mul(NS_PER_CYCLE)
}

/// Converts simulated cycles to seconds.
pub fn cycles_to_secs(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_SECOND as f64
}

/// Process-wide count of program-resume events simulated, across all
/// machines (monotone; never reset).
static SIM_EVENTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Flushes one run's event count into [`sim_events_total`].
pub(crate) fn add_sim_events(n: u64) {
    SIM_EVENTS.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
}

/// Total program-resume events simulated by this process so far, across
/// all machines and threads. Sampling it before and after a workload gives
/// a simulated-events throughput figure (the repository benchmark's
/// per-artifact event counts and `nucasim.events_per_s` are built from
/// exactly this counter).
pub fn sim_events_total() -> u64 {
    SIM_EVENTS.load(std::sync::atomic::Ordering::Relaxed)
}

/// The process-wide protocol of [`set_default_protocol`], as an index
/// into [`ProtocolKind::ALL`].
static DEFAULT_PROTOCOL: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Sets the process-wide protocol that [`default_protocol`] returns.
///
/// The simulator never reads it: a machine runs the protocol its
/// [`MachineConfig`] names. It remains for
/// `nuca_experiments::run_experiment`, whose `(id, scale)` signature has
/// no room for a protocol, so its callers choose one here.
pub fn set_default_protocol(kind: ProtocolKind) {
    let idx = ProtocolKind::ALL.iter().position(|&k| k == kind).expect("in ALL") as u8;
    DEFAULT_PROTOCOL.store(idx, std::sync::atomic::Ordering::Relaxed);
}

/// The process-wide protocol last set by [`set_default_protocol`]
/// ([`ProtocolKind::Flat`] before any call).
pub fn default_protocol() -> ProtocolKind {
    ProtocolKind::ALL[DEFAULT_PROTOCOL.load(std::sync::atomic::Ordering::Relaxed) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_ns_is_exact_in_range_and_saturates_past_it() {
        assert_eq!(cycles_to_ns(0), 0);
        assert_eq!(cycles_to_ns(250), 1000);
        // The old `cycles * 10^9 / CYCLES_PER_SECOND` overflowed here.
        let past_old_overflow = u64::MAX / 1_000_000_000 + 1;
        assert_eq!(cycles_to_ns(past_old_overflow), past_old_overflow * 4);
        assert_eq!(cycles_to_ns(u64::MAX / 4), u64::MAX / 4 * 4);
        assert_eq!(cycles_to_ns(u64::MAX / 4 + 1), u64::MAX);
        assert_eq!(cycles_to_ns(u64::MAX), u64::MAX);
    }
}
