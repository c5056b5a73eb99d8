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
//! * the analyzer — [`crate::MachineConfig::profile`] makes
//!   [`crate::Machine::new`] install it as the machine's trace sink, and
//!   [`crate::Machine::into_report`] hands its finished [`Profile`] back
//!   in [`crate::SimReport::profile`]. An explicit
//!   [`crate::Machine::set_trace_sink`] replaces it.
//! * [`LabelProfile`] — one machine's account: its report's per-lock
//!   statistics and counters next to its profile
//!   ([`LabelProfile::of`]). Accounts merge ([`LabelProfile::merge`],
//!   [`merge_by_label`]); the experiment harness's `--profile` flag
//!   profiles every cell of its plan and writes the label-keyed merge.
//!   Profiling only observes, so every TSV byte is identical.
//!
//! # Determinism contract
//!
//! A single machine's profile is a pure function of its event stream, and
//! the event stream is a pure function of the simulation — so per-machine
//! profiles are deterministic across schedulers and host thread counts.
//! Every merged quantity is a commutative, associative integer fold
//! (counts, sums, bucket-wise histogram merges), so a merge does not
//! depend on the order in which machines finished; ratios are derived
//! only at serialization time. Labels are reported in sorted order.

use std::any::Any;
use std::collections::BTreeMap;

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
    /// merged accounts rely on this, see the module docs).
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

/// One machine's account, or the merge of several under one label: the
/// per-lock statistics and machine counters of their [`SimReport`]s next
/// to their merged stream-only [`Profile`]. Every field is a commutative,
/// associative integer fold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// The account of one finished machine, or `None` when it was not
    /// profiled or emitted no event (a silent machine adds nothing).
    ///
    /// ```
    /// use nucasim::{LabelProfile, Machine, MachineConfig};
    ///
    /// let cfg = MachineConfig { profile: true, ..MachineConfig::wildfire(2, 2) };
    /// let report = Machine::new(cfg).into_report(); // no program, no event
    /// assert_eq!(report.profile.as_ref().map(|p| p.events), Some(0));
    /// assert!(LabelProfile::of(&report).is_none(), "a silent machine has no account");
    /// ```
    pub fn of(report: &SimReport) -> Option<LabelProfile> {
        let profile = report.profile.as_ref().filter(|p| p.events > 0)?;
        Some(LabelProfile {
            locks: report.lock_traces.clone(),
            chains: report
                .lock_traces
                .iter()
                .map(|t| u64::from(t.acquisitions > 0))
                .collect(),
            anger_episodes: report.anger_episodes,
            throttle_spins: report.throttle_spins,
            preemptions: report.preemptions,
            migrations: report.migrations,
            upgrades: report.upgrades,
            evictions: report.evictions,
            update_broadcasts: report.update_broadcasts,
            profile: profile.clone(),
        })
    }

    /// Adds every count of `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &LabelProfile) {
        let n = other.locks.len();
        if self.locks.len() < n {
            self.locks.resize_with(n, LockTrace::default);
            self.chains.resize(n, 0);
        }
        for (i, (trace, chains)) in other.locks().enumerate() {
            self.locks[i].merge(trace);
            self.chains[i] += chains;
        }
        self.anger_episodes += other.anger_episodes;
        self.throttle_spins += other.throttle_spins;
        self.preemptions += other.preemptions;
        self.migrations += other.migrations;
        self.upgrades += other.upgrades;
        self.evictions += other.evictions;
        self.update_broadcasts += other.update_broadcasts;
        self.profile.merge(&other.profile);
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

/// Label of the accounts of machines that run no registered lock kind.
pub const UNLABELED: &str = "_other";

/// Merges labeled accounts into one per label, sorted by label. Merging
/// is commutative, so the result does not depend on the input order.
pub fn merge_by_label<'a>(
    accounts: impl IntoIterator<Item = (&'a str, &'a LabelProfile)>,
) -> Vec<(String, LabelProfile)> {
    let mut table: BTreeMap<&str, LabelProfile> = BTreeMap::new();
    for (label, account) in accounts {
        table.entry(label).or_default().merge(account);
    }
    table
        .into_iter()
        .map(|(label, account)| (label.to_owned(), account))
        .collect()
}

/// The incremental analyzer: folds one event at a time into a [`Profile`].
/// It is the sink [`crate::Machine::new`] installs on a profiled machine
/// ([`analyzer`]), read back by [`finish`].
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

    /// Ends the stream: flushes open residency runs and returns the
    /// profile.
    fn finish(mut self) -> Profile {
        for lock in &mut self.profile.locks {
            lock.flush();
        }
        self.profile
    }
}

impl TraceSink for ProfCore {
    #[inline]
    fn record(&mut self, at: u64, event: SimEvent) {
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
}

/// The analyzer a profiled machine installs as its trace sink.
pub(crate) fn analyzer() -> Box<dyn TraceSink> {
    Box::new(ProfCore::default())
}

/// The finished profile of `sink`, if it is the [`analyzer`] (an explicit
/// sink replaced it otherwise).
pub(crate) fn finish(sink: Box<dyn TraceSink>) -> Option<Profile> {
    let sink: Box<dyn Any> = sink;
    sink.downcast::<ProfCore>().ok().map(|core| core.finish())
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
        let mut sink = ProfCore::default();
        // Nodes: 0, 0, 1, 1, 1, 0 → runs 2, 3, then an open run of 1
        // flushed at finish.
        for (i, node) in [0usize, 0, 1, 1, 1, 0].iter().enumerate() {
            sink.record(i as u64 * 10, acquire(0, *node * 2, *node));
        }
        let p = sink.finish();
        let lock = &p.locks[0];
        assert_eq!(lock.residency_runs.count(), 3);
        assert_eq!(lock.residency_runs.sum(), 6);
        assert_eq!(lock.mean_residency_run(), Some(2.0));
    }

    #[test]
    fn acquire_window_decomposes_into_phases() {
        let mut sink = ProfCore::default();
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
        let p = sink.finish();
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
        let mut sink = ProfCore::default();
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
        let p = sink.finish();
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
        let mut sink = ProfCore::default();
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
        let p = sink.finish();
        assert_eq!(p.locks[0].coh_local, 0);
        assert_eq!(p.locks[0].spin_cycles, 10);
        assert_eq!(p.events, 3);
    }

    #[test]
    fn merge_is_commutative() {
        let mk = |nodes: &[usize]| {
            let mut sink = ProfCore::default();
            for (i, &n) in nodes.iter().enumerate() {
                sink.record(i as u64, acquire(0, n, n));
            }
            sink.finish()
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
        let mut sink = ProfCore::default();
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
        let p = sink.finish();
        assert_eq!(p.events, 300_000);
        assert!(
            p.approx_bytes() < 4096,
            "streaming profile grew with events: {} bytes",
            p.approx_bytes()
        );
    }

    #[test]
    fn accounts_merge_by_label() {
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

        let account = |profile: bool, acquire: bool| {
            let mut m = Machine::new(MachineConfig { profile, ..MachineConfig::wildfire(1, 2) });
            if acquire {
                m.add_program(nuca_topology::CpuId(0), Box::new(OneAcquire(false)));
            }
            assert!(m.run(1_000).finished_all);
            LabelProfile::of(&m.into_report())
        };
        let one = account(true, true).expect("a profiled machine that emitted events");
        // A machine that emitted no event gives no account, nor does an
        // unprofiled one.
        assert!(account(true, false).is_none());
        assert!(account(false, true).is_none());

        let (label, other) = ("test:b", "test:a");
        let profiles = merge_by_label([(label, &one), (other, &one), (label, &one)]);
        let labels: Vec<&str> = profiles.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, [other, label], "one entry per label, sorted");
        let p = &profiles[1].1;
        assert_eq!(p.locks[0].acquisitions, 2);
        assert_eq!(p.locks[0].cpu_acquires, vec![2]);
        assert_eq!(p.chains, vec![2], "one chain per machine");
        assert_eq!(p.profile.events, 4);
        assert_eq!(p.profile.locks[0].residency_runs.count(), 2);
    }
}
