//! nuca-prof: streaming trace analysis for the lock layer.
//!
//! The paper's whole argument rests on *where* each lock handoff goes
//! (same node vs. cross node) and *what* an acquire spends its latency on.
//! The handoff counts themselves — acquisitions, node handoffs, per-node
//! and per-CPU acquires, wait and hold histograms — are always-on
//! [`crate::SimStats`] counters. This module folds only what needs the
//! ordered [`SimEvent`] stream: node-residency run lengths and the
//! per-window acquire-phase split. Buffering the stream (an
//! [`crate::EventLog`]) costs tens of bytes per event — millions of events
//! per contended run. The analyzers here consume the stream
//! *incrementally* instead: every metric is an online fold over the
//! events, so memory is bounded by machine shape (CPUs × locks, with one
//! fixed-size histogram per lock), never by event count.
//!
//! Three layers:
//!
//! * [`LockProfile`] / [`Profile`] — the analysis results: per-lock
//!   node-residency run lengths and per-acquire latency decomposition
//!   (spin vs. backoff sleep by [`BackoffClass`] vs. coherence
//!   transactions split local/global).
//! * [`ProfileCollector`] — a cloneable [`TraceSink`] handle for profiling
//!   one machine explicitly (the `handoff` artifact): clone it, box one
//!   clone into the machine, call [`ProfileCollector::finish`] after.
//! * the **global registry** — [`enable_global_profiling`] makes every
//!   subsequently-run [`crate::Machine`] without an explicit sink install
//!   a streaming profiler. [`crate::Machine::into_report`] then publishes
//!   the machine's report counters and its profile together, keyed by the
//!   machine's profile label, into a process-wide table of
//!   [`LabelProfile`]s ([`take_global_profiles`]). This is what the
//!   experiment harness's `--profile` flag turns on: the artifacts run
//!   unchanged (profiling only observes, so every TSV byte is identical)
//!   while the registry aggregates across all of them.
//!
//! # Determinism contract
//!
//! A single machine's profile is a pure function of its event stream, and
//! the event stream is a pure function of the simulation — so per-machine
//! profiles are deterministic across schedulers and host thread counts.
//! Global aggregation happens in whatever order parallel jobs finish, so
//! every merged quantity is a commutative, associative integer fold
//! (counts, sums, bucket-wise histogram merges); ratios are derived only
//! at serialization time. Labels are reported in sorted order.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use nuca_topology::NodeId;

use crate::metrics::Histogram;
use crate::stats::LockTrace;
use crate::trace::{BackoffClass, SimEvent, TraceSink};
use crate::SimReport;

/// Streaming per-lock analysis: node-residency runs and the acquire
/// latency decomposition, all counters merge-safe integers. The handoff
/// counts they sit next to live in [`LockTrace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockProfile {
    /// Node-residency run lengths: each sample is how many consecutive
    /// acquisitions stayed on one node before the lock migrated. Longer
    /// runs mean better handoff locality.
    pub residency_runs: Histogram,
    /// Acquire-window cycles not accounted to a backoff sleep: active
    /// spinning plus coherence stalls (the residual phase).
    pub spin_cycles: u64,
    /// Acquire windows whose recorded backoff exceeded the window length,
    /// forcing the spin residual to clamp at zero. Always zero for the
    /// in-repo lock state machines (every backoff sleep lies inside the
    /// window that recorded it); a nonzero count means a lock
    /// implementation is emitting backoff events outside its acquire
    /// window — an accounting bug this field surfaces instead of hiding.
    pub spin_clamped: u64,
    /// Acquire-window cycles slept in [`BackoffClass::Local`] backoff.
    pub backoff_local_cycles: u64,
    /// Acquire-window cycles slept in [`BackoffClass::Remote`] backoff.
    pub backoff_remote_cycles: u64,
    /// Node-local coherence transactions issued inside acquire windows.
    pub coh_local: u64,
    /// Global (interconnect-crossing) coherence transactions issued inside
    /// acquire windows.
    pub coh_global: u64,
    /// Node currently holding the handoff chain (streaming state; cleared
    /// when the profile is finished).
    cur_node: Option<usize>,
    /// Length of the current node-residency run (streaming state).
    cur_run: u64,
}

impl LockProfile {
    /// Mean node-residency run length, or `None` before any run completed.
    pub fn mean_residency_run(&self) -> Option<f64> {
        self.residency_runs.mean()
    }

    /// The phase that dominates the acquire critical path: `"spin"`,
    /// `"backoff_local"` or `"backoff_remote"` (`"idle"` when no acquire
    /// window recorded any cycles).
    pub fn critical_path(&self) -> &'static str {
        let phases = [
            (self.spin_cycles, "spin"),
            (self.backoff_local_cycles, "backoff_local"),
            (self.backoff_remote_cycles, "backoff_remote"),
        ];
        if phases.iter().all(|&(cycles, _)| cycles == 0) {
            return "idle";
        }
        phases
            .iter()
            .max_by_key(|(cycles, _)| *cycles)
            .map(|&(_, name)| name)
            .expect("phases is non-empty")
    }

    /// Adds every count of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &LockProfile) {
        debug_assert!(
            other.cur_node.is_none() && other.cur_run == 0,
            "merge a finished profile (open residency runs flushed)"
        );
        self.residency_runs.merge(&other.residency_runs);
        self.spin_cycles += other.spin_cycles;
        self.spin_clamped += other.spin_clamped;
        self.backoff_local_cycles += other.backoff_local_cycles;
        self.backoff_remote_cycles += other.backoff_remote_cycles;
        self.coh_local += other.coh_local;
        self.coh_global += other.coh_global;
    }

    fn on_acquire(&mut self, node: NodeId) {
        match self.cur_node {
            Some(prev) if prev == node.index() => self.cur_run += 1,
            Some(_) => {
                self.residency_runs.record(self.cur_run);
                self.cur_run = 1;
            }
            None => self.cur_run = 1,
        }
        self.cur_node = Some(node.index());
    }

    /// Flushes the open node-residency run (end of stream).
    fn flush(&mut self) {
        if self.cur_run > 0 {
            self.residency_runs.record(self.cur_run);
        }
        self.cur_run = 0;
        self.cur_node = None;
    }
}

/// A machine-level (or merged) streaming profile: the per-lock analyses
/// and the number of events folded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-lock profiles (index = workload-chosen dense lock index).
    pub locks: Vec<LockProfile>,
    /// Total [`SimEvent`]s folded into this profile.
    pub events: u64,
}

impl Profile {
    /// Adds every count of `other` into `self` (commutative, associative —
    /// global aggregation relies on this, see the module docs).
    pub fn merge(&mut self, other: &Profile) {
        if self.locks.len() < other.locks.len() {
            self.locks.resize_with(other.locks.len(), LockProfile::default);
        }
        for (a, b) in self.locks.iter_mut().zip(&other.locks) {
            a.merge(b);
        }
        self.events += other.events;
    }

    /// Approximate heap + inline footprint in bytes. The point of the
    /// streaming design: this is `O(locks)` with one fixed-size histogram
    /// per lock — independent of `self.events`, which counts how many
    /// events were folded in.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Profile>() + self.locks.len() * std::mem::size_of::<LockProfile>()
    }
}

/// One label's entry in the global table: the per-lock statistics and
/// machine counters of every [`SimReport`] published under the label,
/// merged, next to their merged stream-only [`Profile`]. Every field is a
/// commutative, associative integer fold.
#[derive(Debug, Default)]
pub struct LabelProfile {
    /// Per-lock statistics (dense tier), merged with [`LockTrace::merge`].
    locks: Vec<LockTrace>,
    /// Per lock, in step with `locks`: see [`LabelProfile::locks`].
    chains: Vec<u64>,
    /// HBO_GT_SD `GET_ANGRY` episodes.
    pub anger_episodes: u64,
    /// HBO_GT throttled-spin announcements.
    pub throttle_spins: u64,
    /// Preemption windows applied.
    pub preemptions: u64,
    /// Injected thread migrations.
    pub migrations: u64,
    /// MESI shared→exclusive upgrades.
    pub upgrades: u64,
    /// Set-associative cache evictions.
    pub evictions: u64,
    /// Dragon update broadcasts.
    pub update_broadcasts: u64,
    /// The merged stream-only analyses.
    pub profile: Profile,
}

impl LabelProfile {
    /// Folds one machine's report and stream-only profile into the entry.
    pub fn add(&mut self, report: &SimReport, profile: &Profile) {
        let n = report.lock_traces.len();
        if self.locks.len() < n {
            self.locks.resize_with(n, LockTrace::default);
            self.chains.resize(n, 0);
        }
        for (i, trace) in report.lock_traces.iter().enumerate() {
            self.locks[i].merge(trace);
            self.chains[i] += u64::from(trace.acquisitions > 0);
        }
        self.anger_episodes += report.anger_episodes;
        self.throttle_spins += report.throttle_spins;
        self.preemptions += report.preemptions;
        self.migrations += report.migrations;
        self.upgrades += report.upgrades;
        self.evictions += report.evictions;
        self.update_broadcasts += report.update_broadcasts;
        self.profile.merge(profile);
    }

    /// Each lock's merged statistics (dense tier) with its chain count:
    /// how many machines acquired it at least once. Each such machine is
    /// one handoff chain whose first acquisition is not a handover, so a
    /// lock's node-local handoffs are `acquisitions − node_handoffs −
    /// chains`.
    pub fn locks(&self) -> impl Iterator<Item = (&LockTrace, u64)> {
        self.locks.iter().zip(self.chains.iter().copied())
    }
}

/// The incremental analyzer: folds one event at a time into a [`Profile`].
/// It is also the sink [`crate::Machine::run`] installs on globally
/// profiled machines, read back by [`publish`].
#[derive(Debug, Default)]
struct ProfCore {
    profile: Profile,
    /// Per-CPU open acquire window, set by `AcquireStart`, consumed by the
    /// matching `LockAcquire`.
    windows: Vec<Option<Window>>,
}

#[derive(Debug)]
struct Window {
    lock: usize,
    start: u64,
    backoff_local: u64,
    backoff_remote: u64,
    coh_local: u64,
    coh_global: u64,
}

impl ProfCore {
    fn window(&mut self, cpu: usize) -> &mut Option<Window> {
        if self.windows.len() <= cpu {
            self.windows.resize_with(cpu + 1, || None);
        }
        &mut self.windows[cpu]
    }

    fn lock(&mut self, i: usize) -> &mut LockProfile {
        if self.profile.locks.len() <= i {
            self.profile.locks.resize_with(i + 1, LockProfile::default);
        }
        &mut self.profile.locks[i]
    }

    #[inline]
    fn on_event(&mut self, at: u64, event: SimEvent) {
        self.profile.events += 1;
        match event {
            SimEvent::AcquireStart { lock, cpu, .. } => {
                *self.window(cpu.index()) = Some(Window {
                    lock,
                    start: at,
                    backoff_local: 0,
                    backoff_remote: 0,
                    coh_local: 0,
                    coh_global: 0,
                });
            }
            // The two highest-volume events. `get_mut`, not `window()`: a
            // CPU without a slot yet cannot have an open window
            // (`AcquireStart` creates the slot), so the grow-on-miss branch
            // would only cost — never fire — here.
            SimEvent::BackoffSleep { cpu, cycles, class, .. } => {
                if let Some(w) = self.windows.get_mut(cpu.index()).and_then(Option::as_mut) {
                    match class {
                        BackoffClass::Local => w.backoff_local += cycles,
                        BackoffClass::Remote => w.backoff_remote += cycles,
                    }
                }
            }
            SimEvent::CoherenceTxn { cpu, global, .. } => {
                // Only transactions inside an acquire window count toward
                // the acquire phase split; critical-section and private
                // traffic is not acquire latency.
                if let Some(w) = self.windows.get_mut(cpu.index()).and_then(Option::as_mut) {
                    if global {
                        w.coh_global += 1;
                    } else {
                        w.coh_local += 1;
                    }
                }
            }
            SimEvent::LockAcquire { lock, cpu, node } => {
                let slot = self.window(cpu.index());
                let window = match slot.take() {
                    Some(w) if w.lock == lock => Some(w),
                    other => {
                        // Window for a different lock: put it back (a
                        // nested workload may interleave lock indices).
                        *slot = other;
                        None
                    }
                };
                let lp = self.lock(lock);
                lp.on_acquire(node);
                if let Some(w) = window {
                    let wait = at - w.start;
                    let backoff = w.backoff_local + w.backoff_remote;
                    // The residual saturates at zero; count the windows
                    // where it actually clamped (recorded backoff longer
                    // than the window) rather than silently absorbing them.
                    if backoff > wait {
                        lp.spin_clamped += 1;
                    }
                    lp.spin_cycles += wait.saturating_sub(backoff);
                    lp.backoff_local_cycles += w.backoff_local;
                    lp.backoff_remote_cycles += w.backoff_remote;
                    lp.coh_local += w.coh_local;
                    lp.coh_global += w.coh_global;
                }
            }
            // Counted by `SimStats` (or, for releases, already in the
            // hold histogram); here they only add to `events`.
            SimEvent::LockRelease { .. }
            | SimEvent::GotAngry { .. }
            | SimEvent::ThrottleSpin { .. }
            | SimEvent::Preempt { .. }
            | SimEvent::Migrate { .. }
            | SimEvent::Upgrade { .. }
            | SimEvent::Eviction { .. }
            | SimEvent::UpdateBroadcast { .. } => {}
        }
    }

    /// Ends the stream: flushes open residency runs and returns the
    /// profile, resetting the analyzer.
    fn finish(&mut self) -> Profile {
        for lock in &mut self.profile.locks {
            lock.flush();
        }
        self.windows.clear();
        std::mem::take(&mut self.profile)
    }
}

impl TraceSink for ProfCore {
    #[inline]
    fn record(&mut self, at: u64, event: SimEvent) {
        self.on_event(at, event);
    }
}

/// A cloneable streaming-profiler handle, used like [`crate::EventLog`]:
/// clone it, box one clone into the machine with
/// [`crate::Machine::set_trace_sink`], and call
/// [`ProfileCollector::finish`] on the other clone after the run.
///
/// ```
/// use nucasim::{Machine, MachineConfig, ProfileCollector};
///
/// let prof = ProfileCollector::new();
/// let mut machine = Machine::new(MachineConfig::wildfire(2, 2));
/// machine.set_trace_sink(Box::new(prof.clone()));
/// // ... add programs, run ...
/// let profile = prof.finish();
/// assert_eq!(profile.events, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProfileCollector {
    inner: Arc<Mutex<ProfCore>>,
}

impl ProfileCollector {
    /// A fresh collector.
    pub fn new() -> ProfileCollector {
        ProfileCollector::default()
    }

    /// Ends the stream and moves the accumulated [`Profile`] out (open
    /// node-residency runs are flushed), leaving the collector empty.
    pub fn finish(&self) -> Profile {
        self.inner.lock().expect("profile collector poisoned").finish()
    }
}

impl TraceSink for ProfileCollector {
    fn record(&mut self, at: u64, event: SimEvent) {
        self.inner
            .lock()
            .expect("profile collector poisoned")
            .on_event(at, event);
    }
}

/// Whether [`enable_global_profiling`] has been called.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// Label-keyed merged accounts from every machine reported since global
/// profiling was enabled.
static GLOBAL_PROFILES: Mutex<BTreeMap<String, LabelProfile>> = Mutex::new(BTreeMap::new());

/// Label machines merge under when no profile label was set.
pub const UNLABELED: &str = "_other";

/// Turns on process-wide streaming profiling: every [`crate::Machine`]
/// subsequently run without an explicit trace sink installs a profiler,
/// and [`crate::Machine::into_report`] merges the machine's report and
/// profile into the global table under its
/// [`crate::Machine::set_profile_label`] (or [`UNLABELED`]). Profiling
/// only observes — simulation results are bit-identical either way.
/// Idempotent; there is deliberately no way to turn it off mid-process
/// (runs would otherwise be profiled or not depending on timing).
pub fn enable_global_profiling() {
    GLOBAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Whether global profiling is on.
pub fn global_profiling_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Moves the globally-aggregated accounts out, sorted by label. Merging
/// is commutative, so the result is deterministic no matter how many
/// threads the contributing runs were spread over.
pub fn take_global_profiles() -> Vec<(String, LabelProfile)> {
    let mut table = GLOBAL_PROFILES.lock().expect("global profiles poisoned");
    std::mem::take(&mut *table).into_iter().collect()
}

/// Builds the engine-side global sink (see [`crate::Machine::run`]).
pub(crate) fn global_sink() -> Box<dyn TraceSink> {
    Box::new(ProfCore::default())
}

/// Merges a finished machine into the global table under `label` (or
/// [`UNLABELED`]): its report's per-lock statistics and counters together
/// with the stream-only profile `sink` folded — if `sink` is the profiler
/// [`global_sink`] built. A machine that emitted no event publishes
/// nothing.
pub(crate) fn publish(sink: Box<dyn TraceSink>, label: Option<&str>, report: &SimReport) {
    let sink: Box<dyn Any> = sink;
    let Ok(mut core) = sink.downcast::<ProfCore>() else {
        return;
    };
    let profile = core.finish();
    if profile.events == 0 {
        return;
    }
    let mut table = GLOBAL_PROFILES.lock().expect("global profiles poisoned");
    table
        .entry(label.unwrap_or(UNLABELED).to_owned())
        .or_default()
        .add(report, &profile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_topology::CpuId;

    fn acquire(lock: usize, cpu: usize, node: usize) -> SimEvent {
        SimEvent::LockAcquire {
            lock,
            cpu: CpuId(cpu),
            node: NodeId(node),
        }
    }

    fn start(lock: usize, cpu: usize, node: usize) -> SimEvent {
        SimEvent::AcquireStart {
            lock,
            cpu: CpuId(cpu),
            node: NodeId(node),
        }
    }

    #[test]
    fn residency_runs_split_at_node_changes() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        // Nodes: 0, 0, 1, 1, 1, 0 → runs 2, 3, then an open run of 1
        // flushed at finish.
        for (i, node) in [0usize, 0, 1, 1, 1, 0].iter().enumerate() {
            sink.record(i as u64 * 10, acquire(0, *node * 2, *node));
        }
        let p = prof.finish();
        let lock = &p.locks[0];
        assert_eq!(lock.residency_runs.count(), 3);
        assert_eq!(lock.residency_runs.sum(), 6);
        assert_eq!(lock.mean_residency_run(), Some(2.0));
    }

    #[test]
    fn acquire_window_decomposes_into_phases() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(100, start(0, 1, 0));
        sink.record(
            110,
            SimEvent::BackoffSleep {
                cpu: CpuId(1),
                node: NodeId(0),
                cycles: 40,
                class: BackoffClass::Local,
            },
        );
        sink.record(
            160,
            SimEvent::BackoffSleep {
                cpu: CpuId(1),
                node: NodeId(0),
                cycles: 100,
                class: BackoffClass::Remote,
            },
        );
        sink.record(
            270,
            SimEvent::CoherenceTxn {
                cpu: CpuId(1),
                node: NodeId(0),
                home: NodeId(1),
                global: true,
            },
        );
        sink.record(300, acquire(0, 1, 0));
        let p = prof.finish();
        let lock = &p.locks[0];
        // Window = 200 cycles: 40 local backoff + 100 remote backoff +
        // 60 residual spin.
        assert_eq!(lock.backoff_local_cycles, 40);
        assert_eq!(lock.backoff_remote_cycles, 100);
        assert_eq!(lock.spin_cycles, 60);
        assert_eq!(lock.spin_clamped, 0, "well-formed window never clamps");
        assert_eq!(lock.coh_global, 1);
        assert_eq!(lock.coh_local, 0);
        assert_eq!(lock.critical_path(), "backoff_remote");
        assert_eq!(LockProfile::default().critical_path(), "idle");
    }

    #[test]
    fn overlong_backoff_is_counted_not_hidden() {
        // A lock bug that records more backoff than the window is long
        // used to vanish into the saturating subtraction; now the clamp
        // is counted per window.
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(0, start(0, 0, 0));
        sink.record(
            10,
            SimEvent::BackoffSleep {
                cpu: CpuId(0),
                node: NodeId(0),
                cycles: 500,
                class: BackoffClass::Remote,
            },
        );
        sink.record(100, acquire(0, 0, 0));
        // A second, well-formed window on the same lock.
        sink.record(200, start(0, 0, 0));
        sink.record(250, acquire(0, 0, 0));
        let p = prof.finish();
        let lock = &p.locks[0];
        assert_eq!(lock.spin_clamped, 1, "exactly the overlong window");
        assert_eq!(lock.backoff_remote_cycles, 500, "backoff still recorded");
        assert_eq!(lock.spin_cycles, 50, "only the clean window's residual");

        // The counter survives a merge.
        let mut merged = LockProfile::default();
        merged.merge(lock);
        merged.merge(lock);
        assert_eq!(merged.spin_clamped, 2);
    }

    #[test]
    fn coherence_outside_windows_is_not_acquire_latency() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(
            5,
            SimEvent::CoherenceTxn {
                cpu: CpuId(0),
                node: NodeId(0),
                home: NodeId(0),
                global: false,
            },
        );
        sink.record(10, start(0, 0, 0));
        sink.record(20, acquire(0, 0, 0));
        let p = prof.finish();
        assert_eq!(p.locks[0].coh_local, 0);
        assert_eq!(p.locks[0].spin_cycles, 10);
        assert_eq!(p.events, 3);
    }

    #[test]
    fn merge_is_commutative() {
        let mk = |nodes: &[usize]| {
            let prof = ProfileCollector::new();
            let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
            for (i, &n) in nodes.iter().enumerate() {
                sink.record(i as u64, acquire(0, n, n));
            }
            prof.finish()
        };
        let a = mk(&[0, 0, 1]);
        let b = mk(&[1, 0, 0, 1]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.locks[0].residency_runs.sum(), 7);
    }

    #[test]
    fn footprint_is_independent_of_event_count() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        for i in 0..100_000u64 {
            let node = (i % 2) as usize;
            sink.record(i * 3, start(0, node, node));
            sink.record(i * 3 + 1, acquire(0, node, node));
            sink.record(
                i * 3 + 2,
                SimEvent::LockRelease {
                    lock: 0,
                    cpu: CpuId(node),
                    node: NodeId(node),
                },
            );
        }
        let p = prof.finish();
        assert_eq!(p.events, 300_000);
        assert!(
            p.approx_bytes() < 4096,
            "streaming profile grew with events: {} bytes",
            p.approx_bytes()
        );
    }

    #[test]
    fn global_profiling_aggregates_by_label() {
        use crate::{Command, CpuCtx, Machine, MachineConfig, Program};

        struct OneAcquire(bool);
        impl Program for OneAcquire {
            fn resume(&mut self, ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                if self.0 {
                    return Command::Done;
                }
                self.0 = true;
                ctx.trace_acquire_start(0);
                ctx.record_acquire(0);
                Command::Delay(1)
            }
        }

        enable_global_profiling();
        assert!(global_profiling_enabled());
        let label = "test:profile-global";
        for _ in 0..2 {
            let mut m = Machine::new(MachineConfig::wildfire(1, 2));
            m.set_profile_label(label);
            m.add_program(nuca_topology::CpuId(0), Box::new(OneAcquire(false)));
            let status = m.run(1_000);
            assert!(status.finished_all);
            drop(m.into_report());
        }
        // A machine that emitted no event publishes nothing.
        let silent = "test:profile-silent";
        let mut m = Machine::new(MachineConfig::wildfire(1, 2));
        m.set_profile_label(silent);
        m.run(1_000);
        drop(m.into_report());

        let profiles = take_global_profiles();
        assert!(profiles.iter().all(|(l, _)| l != silent));
        let (_, p) = profiles
            .iter()
            .find(|(l, _)| l == label)
            .expect("labeled profile registered");
        assert_eq!(p.locks[0].acquisitions, 2);
        assert_eq!(p.locks[0].cpu_acquires, vec![2]);
        assert_eq!(p.chains, vec![2], "one chain per machine");
        assert_eq!(p.profile.events, 4);
        assert_eq!(p.profile.locks[0].residency_runs.count(), 2);
        // Other concurrently-running tests may have contributed profiles
        // under other labels; sorted order is all we assert about them.
        let labels: Vec<&String> = profiles.iter().map(|(l, _)| l).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }
}
