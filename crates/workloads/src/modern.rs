//! The paper's *new* microbenchmark (Fig. 4): a fixed number of
//! processors, each looping { acquire; touch `critical_work` elements of a
//! shared vector; release; static + random private work }. Contention is
//! controlled by `critical_work`, not by adding processors — "no real
//! applications have a fixed number of processors pounding on a lock"
//! (§5.3).

use std::sync::Arc;

use hbo_locks::LockKind;
use nuca_topology::NodeId;
use nucasim::{
    Addr, Command, CpuCtx, EventLog, Machine, MachineConfig, MemorySystem, Profile,
    ProfileCollector, Program, SimReport, SplitMix64, TraceRecord, TraceSink,
};
use nuca_topology::Topology;
use nucasim_locks::{build_lock, DriveResult, GtSlots, Lock, SessionDriver, SimLockParams};

use crate::MicroReport;

/// Words per simulated cache line of the `cs_work` vector: the paper's
/// vector is an `int` array, so 8 four-byte elements share a 32-byte...
/// rather, 16 share a 64-byte line; we use 8 to keep per-element cost
/// conservative.
const ELEMS_PER_LINE: u32 = 8;

/// How contending threads are bound to CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingKind {
    /// Round-robin across nodes — the paper's binding ("round-robin
    /// scheduling for thread binding to different cabinets"). Adjacent
    /// thread ids land on different nodes, so contention is symmetric
    /// from the start.
    RoundRobin,
    /// Fill each node before moving to the next, and start the threads in
    /// per-node waves (all of node 0's threads arrive first, then node
    /// 1's, ...). Models a clustered deployment — a batch scheduler
    /// placing a job's threads densely — where arrivals are bursty and
    /// node-correlated, the regime the hierarchical locks' local-handoff
    /// preference is built for.
    Clustered,
}

impl BindingKind {
    /// Every binding, in menu order.
    pub const ALL: [BindingKind; 2] = [BindingKind::RoundRobin, BindingKind::Clustered];

    /// Stable name (CLI operand and TSV label).
    pub fn name(self) -> &'static str {
        match self {
            BindingKind::RoundRobin => "rr",
            BindingKind::Clustered => "clustered",
        }
    }
}

impl std::fmt::Display for BindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BindingKind {
    type Err = String;

    fn from_str(s: &str) -> Result<BindingKind, String> {
        match s {
            "rr" => Ok(BindingKind::RoundRobin),
            "clustered" => Ok(BindingKind::Clustered),
            other => Err(format!("unknown binding '{other}' (expected rr or clustered)")),
        }
    }
}

/// Configuration of one new-microbenchmark run.
#[derive(Debug, Clone)]
pub struct ModernConfig {
    /// Algorithm under test.
    pub kind: LockKind,
    /// Machine description (defaults to the paper's 2×14 WildFire).
    pub machine: MachineConfig,
    /// Contending threads, bound round-robin across nodes.
    pub threads: usize,
    /// Acquire-release iterations per thread.
    pub iterations: u32,
    /// Elements of the shared vector modified inside the critical section
    /// (the x-axis of Fig. 5; the paper sweeps 0–2100).
    pub critical_work: u32,
    /// Static private-work delay in cycles; a uniformly random delay of
    /// the same magnitude is added ("one static delay and one random delay
    /// of similar sizes").
    pub private_work: u64,
    /// Lock tunables.
    pub params: SimLockParams,
    /// QOLB-style *collocation* (paper §3): allocate the first line of the
    /// protected `cs_work` vector in the same cache line as the lock word,
    /// so the data travels with the lock at handover. Ignored for locks
    /// without a single lock word (the queue locks).
    pub collocate: bool,
    /// Padding words allocated between the lock and the `cs_work` vector.
    /// Zero (the default) leaves the allocation stream exactly as before,
    /// so lock word and first data line typically share a cache line —
    /// invisible to the flat word-granular model, but false sharing under
    /// the set-associative protocols. One line's worth of padding
    /// (geometry `line_words`) separates them.
    pub data_padding: u32,
    /// How threads are bound to CPUs ([`BindingKind::RoundRobin`] by
    /// default, the paper's binding; the harness `--binding` flag sets it).
    pub binding: BindingKind,
    /// Simulated-cycle budget; runs exceeding it report `finished=false`.
    pub cycle_limit: u64,
}

impl Default for ModernConfig {
    fn default() -> Self {
        ModernConfig {
            kind: LockKind::TatasExp,
            machine: MachineConfig::wildfire(2, 14),
            threads: 28,
            iterations: 40,
            critical_work: 0,
            private_work: 20_000,
            params: SimLockParams::default(),
            collocate: false,
            data_padding: 0,
            binding: BindingKind::RoundRobin,
            cycle_limit: 50_000_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Stagger,
    Start,
    Acquiring,
    CsWork { line: u32 },
    Releasing,
    StaticWork,
    RandomWork,
}

struct ModernProgram {
    driver: SessionDriver,
    cs_lines: Arc<[Addr]>,
    iterations: u32,
    cs_line_count: u32,
    private_work: u64,
    /// Line 0 is collocated with the lock word: touch it with a read
    /// (it already arrived with the lock) instead of clobbering the
    /// lock's value with a write.
    collocated: bool,
    /// Fixed delay before the random stagger: zero under round-robin
    /// binding, the thread's node-arrival wave under clustered binding.
    start_offset: u64,
    rng: SplitMix64,
    state: State,
}

impl ModernProgram {
    fn cs_touch(&self, line: u32, now: u64) -> Command {
        if line == 0 && self.collocated {
            Command::Read(self.cs_lines[0])
        } else {
            Command::Write(self.cs_lines[line as usize], now)
        }
    }
}

impl ModernProgram {
    fn drive(&mut self, r: DriveResult, ctx: &mut CpuCtx<'_>) -> Command {
        match r {
            DriveResult::Busy(cmd) => cmd,
            DriveResult::AcquireDone => {
                if self.cs_line_count == 0 {
                    self.state = State::Releasing;
                    return self.release(ctx);
                }
                self.state = State::CsWork { line: 0 };
                self.cs_touch(0, ctx.now)
            }
            DriveResult::ReleaseDone => {
                self.state = State::StaticWork;
                Command::Delay(self.private_work.max(1))
            }
        }
    }

    fn release(&mut self, ctx: &mut CpuCtx<'_>) -> Command {
        let r = self.driver.start_release(ctx);
        self.drive(r, ctx)
    }
}

impl Program for ModernProgram {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        loop {
            match self.state {
                State::Stagger => {
                    // Random start offset: real threads never arrive in
                    // lockstep, and FIFO queue locks are acutely sensitive
                    // to the initial enqueue order. Clustered binding adds
                    // a per-node wave on top, so same-node threads arrive
                    // together in bursts.
                    self.state = State::Start;
                    let d = self.rng.next_below(self.private_work.max(2)).max(1);
                    return Command::Delay(self.start_offset + d);
                }
                State::Start => {
                    if self.iterations == 0 {
                        return Command::Done;
                    }
                    self.iterations -= 1;
                    self.state = State::Acquiring;
                    let r = self.driver.start_acquire(ctx);
                    return self.drive(r, ctx);
                }
                State::Acquiring => {
                    let r = self.driver.on_result(ctx, last);
                    return self.drive(r, ctx);
                }
                State::CsWork { line } => {
                    let next = line + 1;
                    if next < self.cs_line_count {
                        self.state = State::CsWork { line: next };
                        return self.cs_touch(next, ctx.now);
                    }
                    self.state = State::Releasing;
                    return self.release(ctx);
                }
                State::Releasing => {
                    let r = self.driver.on_result(ctx, last);
                    return self.drive(r, ctx);
                }
                State::StaticWork => {
                    self.state = State::RandomWork;
                    let d = if self.private_work == 0 {
                        1
                    } else {
                        self.rng.next_below(self.private_work).max(1)
                    };
                    return Command::Delay(d);
                }
                State::RandomWork => {
                    self.state = State::Start;
                    continue;
                }
            }
        }
    }
}

/// Builds and runs the benchmark, returning the paper-facing metrics.
///
/// # Panics
///
/// Panics if `threads` exceeds the machine's CPU count, or if `kind` is
/// [`LockKind::Rh`] on a machine that does not have exactly two nodes.
pub fn run_modern(cfg: &ModernConfig) -> MicroReport {
    let (report, _) = run_modern_raw(cfg);
    MicroReport::from_sim(cfg.kind, cfg.threads, &report, 0)
}

/// Like [`run_modern`] but also returns the raw [`SimReport`] for callers
/// needing finish times or final memory values.
pub fn run_modern_raw(cfg: &ModernConfig) -> (SimReport, Vec<Addr>) {
    run_modern_with(cfg, &|mem, topo, gt| {
        build_lock(cfg.kind, mem, topo, gt, NodeId(0), &cfg.params)
    })
}

/// Like [`run_modern_raw`] but with a trace sink installed for the whole
/// run: every lock acquisition/release, backoff sleep, coherence
/// transaction, throttle announcement, anger episode, and preemption is
/// captured as a timestamped [`TraceRecord`]. The simulated run itself is
/// unchanged — tracing only observes.
pub fn run_modern_traced(cfg: &ModernConfig) -> (SimReport, Vec<TraceRecord>) {
    let log = EventLog::new();
    let (report, _) = run_modern_inner(
        cfg,
        &|mem, topo, gt| build_lock(cfg.kind, mem, topo, gt, NodeId(0), &cfg.params),
        Some(Box::new(log.clone())),
        None,
    );
    (report, log.take())
}

/// Like [`run_modern_raw`] but with the streaming profiler
/// ([`nucasim::profile`]) attached: returns the run's [`Profile`] —
/// node-residency runs and the acquire-phase split — alongside the report.
/// Memory stays bounded by machine shape (no event is buffered), and the
/// simulated run itself is unchanged — profiling only observes.
pub fn run_modern_profiled(cfg: &ModernConfig) -> (SimReport, Profile) {
    let prof = ProfileCollector::new();
    let (report, _) = run_modern_inner(
        cfg,
        &|mem, topo, gt| build_lock(cfg.kind, mem, topo, gt, NodeId(0), &cfg.params),
        Some(Box::new(prof.clone())),
        None,
    );
    (report, prof.finish())
}

/// Like [`run_modern_raw`] but records every scheduler operation the run
/// performs (see [`nucasim::SchedOp`]). The trace replays against any
/// event-queue implementation — the benchmark times the wheel on it, and
/// the determinism oracle replays it through the heap and the wheel.
pub fn run_modern_recorded(cfg: &ModernConfig) -> (SimReport, Vec<nucasim::SchedOp>) {
    let log = nucasim::SchedOpLog::new();
    let (report, _) = run_modern_inner(
        cfg,
        &|mem, topo, gt| build_lock(cfg.kind, mem, topo, gt, NodeId(0), &cfg.params),
        None,
        Some(&log),
    );
    (report, log.take())
}

/// Lock factory signature for [`run_modern_with`]: builds the lock under
/// test in the machine's memory.
pub type LockFactory<'a> = dyn Fn(&mut MemorySystem, &Topology, &GtSlots) -> Lock + 'a;

/// Runs the benchmark with a caller-supplied lock (e.g. the hierarchical
/// HBO extension, which is not one of the paper's eight
/// [`LockKind`]s). `cfg.kind` is used only for labeling.
pub fn run_modern_with(cfg: &ModernConfig, factory: &LockFactory<'_>) -> (SimReport, Vec<Addr>) {
    run_modern_inner(cfg, factory, None, None)
}

fn run_modern_inner(
    cfg: &ModernConfig,
    factory: &LockFactory<'_>,
    trace: Option<Box<dyn TraceSink>>,
    record_sched: Option<&nucasim::SchedOpLog>,
) -> (SimReport, Vec<Addr>) {
    let mut machine = Machine::new(cfg.machine.clone());
    machine.set_profile_label(cfg.kind.as_str());
    if let Some(log) = record_sched {
        machine.record_sched_ops_into(log.clone());
    }
    if let Some(sink) = trace {
        machine.set_trace_sink(sink);
    }
    let topo = Arc::clone(machine.topology());
    assert!(
        cfg.threads <= topo.num_cpus(),
        "{} threads exceed {} CPUs",
        cfg.threads,
        topo.num_cpus()
    );
    let gt = GtSlots::alloc(machine.mem_mut(), &topo);
    let lock = {
        let mem = machine.mem_mut();
        factory(mem, &topo, &gt)
    };
    let cs_line_count = cfg.critical_work.div_ceil(ELEMS_PER_LINE);
    if cfg.data_padding > 0 {
        // Dead words between the lock and the protected data, pushing the
        // first data line off the lock word's cache line. Never touched:
        // only the allocation cursor moves, so a zero padding leaves the
        // address stream byte-identical to the pre-padding layout.
        let _ = machine
            .mem_mut()
            .alloc_array(NodeId(0), cfg.data_padding as usize);
    }
    let mut lines = machine
        .mem_mut()
        .alloc_array(NodeId(0), cs_line_count.max(1) as usize);
    let mut collocated = false;
    if cfg.collocate {
        if let Some(word) = lock.lock_word() {
            // The first protected line *is* the lock line: whoever wins
            // the lock already holds that data exclusively.
            lines[0] = word;
            collocated = true;
        }
    }
    let cs_lines: Arc<[Addr]> = lines.into();

    let bound = match cfg.binding {
        BindingKind::RoundRobin => topo.round_robin_binding(cfg.threads),
        BindingKind::Clustered => topo.block_binding(cfg.threads),
    };
    // Clustered arrivals come in per-node waves one private-work period
    // apart: node 0's threads contend first, node 1's join a wave later.
    let wave = match cfg.binding {
        BindingKind::RoundRobin => 0,
        BindingKind::Clustered => cfg.private_work.max(2),
    };
    let mut seed = SplitMix64::new(cfg.machine.seed ^ 0xB0B0);
    for (i, cpu) in bound.into_iter().enumerate() {
        let node = topo.node_of(cpu);
        // Stagger start-up a little so contenders do not arrive in
        // lockstep (real threads never do).
        let _ = i;
        machine.add_program(
            cpu,
            Box::new(ModernProgram {
                driver: SessionDriver::new(lock.session(cpu, node)),
                cs_lines: Arc::clone(&cs_lines),
                iterations: cfg.iterations,
                cs_line_count,
                private_work: cfg.private_work,
                collocated,
                start_offset: node.index() as u64 * wave,
                rng: seed.split(),
                state: State::Stagger,
            }),
        );
    }
    machine.run(cfg.cycle_limit);
    let report = machine.into_report();
    (report, cs_lines.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: LockKind, critical_work: u32) -> MicroReport {
        let cfg = ModernConfig {
            kind,
            machine: MachineConfig::wildfire(2, 4),
            threads: 8,
            iterations: 25,
            critical_work,
            private_work: 2_000,
            ..ModernConfig::default()
        };
        run_modern(&cfg)
    }

    #[test]
    fn all_kinds_complete_and_count_acquires() {
        for &kind in hbo_locks::LockCatalog::kinds() {
            let r = quick(kind, 100);
            assert!(r.finished, "{kind} hit the cycle limit");
            assert_eq!(r.total_acquires, 200, "{kind}");
            assert!(r.ns_per_iteration > 0.0);
        }
    }

    #[test]
    fn profiler_spin_accounting_never_clamps_for_in_repo_locks() {
        // Every backoff sleep an in-repo lock kind emits lies inside the
        // acquire window that recorded it, so the profiler's spin residual
        // (wait − backoff) must never saturate. `spin_clamped` counts the
        // windows where it did; any nonzero value here means a lock state
        // machine's backoff accounting has drifted out of its window.
        for &kind in hbo_locks::LockCatalog::kinds() {
            let cfg = ModernConfig {
                kind,
                machine: MachineConfig::wildfire(2, 4),
                threads: 8,
                iterations: 25,
                critical_work: 200,
                private_work: 2_000,
                ..ModernConfig::default()
            };
            let (_, profile) = run_modern_profiled(&cfg);
            assert!(!profile.locks.is_empty(), "{kind}: empty profile");
            for (i, lock) in profile.locks.iter().enumerate() {
                debug_assert_eq!(
                    lock.spin_clamped, 0,
                    "{kind} lock {i}: {} acquire windows clamped spin",
                    lock.spin_clamped
                );
                assert_eq!(lock.spin_clamped, 0, "{kind} lock {i}");
            }
        }
    }

    #[test]
    fn more_critical_work_takes_longer() {
        let small = quick(LockKind::HboGt, 0);
        let large = quick(LockKind::HboGt, 1500);
        assert!(large.elapsed_ns > small.elapsed_ns);
    }

    #[test]
    fn nuca_lock_beats_baselines_under_high_contention() {
        // The headline claim (Fig. 5): with large critical sections the
        // NUCA-aware locks win on iteration time against the tuned
        // TATAS_EXP baseline and the queue locks.
        let hbo = quick(LockKind::HboGt, 1500);
        let exp = quick(LockKind::TatasExp, 1500);
        let mcs = quick(LockKind::Mcs, 1500);
        assert!(
            hbo.ns_per_iteration < exp.ns_per_iteration,
            "HBO_GT {:.0} ns/iter vs TATAS_EXP {:.0}",
            hbo.ns_per_iteration,
            exp.ns_per_iteration
        );
        assert!(
            hbo.ns_per_iteration < mcs.ns_per_iteration,
            "HBO_GT {:.0} ns/iter vs MCS {:.0}",
            hbo.ns_per_iteration,
            mcs.ns_per_iteration
        );
    }

    #[test]
    fn nuca_locks_cut_global_traffic() {
        let hbo = quick(LockKind::HboGt, 1500);
        let tatas = quick(LockKind::Tatas, 1500);
        assert!(
            hbo.traffic.global < tatas.traffic.global,
            "HBO_GT global {} vs TATAS {}",
            hbo.traffic.global,
            tatas.traffic.global
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let a = quick(LockKind::Clh, 300);
        let b = quick(LockKind::Clh, 300);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn zero_critical_work_supported() {
        let r = quick(LockKind::Mcs, 0);
        assert!(r.finished);
        assert_eq!(r.total_acquires, 200);
    }

    #[test]
    fn fault_layers_flow_through_machine_config() {
        use nucasim::{FaultConfig, HolderPreemptConfig, JitterConfig, MigrationConfig};

        let faults = FaultConfig::none()
            .with_holder_preempt(HolderPreemptConfig {
                per_mille: 150,
                quantum: 20_000,
            })
            .with_migration(MigrationConfig {
                mean_gap: 80_000,
                pause: 5_000,
            })
            .with_jitter(JitterConfig { max_extra: 60 });
        let cfg = ModernConfig {
            kind: LockKind::HboGtSd,
            machine: MachineConfig::wildfire(2, 4).with_faults(faults),
            threads: 8,
            iterations: 25,
            critical_work: 100,
            private_work: 2_000,
            ..ModernConfig::default()
        };
        let (report, _) = run_modern_raw(&cfg);
        assert!(report.finished_all, "faulted run hit the cycle limit");
        assert_eq!(report.lock_traces[0].acquisitions, 200);
        assert!(report.preemptions > 0, "no holder preemption fired");
        assert!(report.migrations > 0, "no migration fired");

        let (again, _) = run_modern_raw(&cfg);
        assert_eq!(report.end_time, again.end_time, "faulted run not reproducible");
        assert_eq!(report.traffic, again.traffic);

        let clean = ModernConfig {
            machine: MachineConfig::wildfire(2, 4),
            ..cfg
        };
        let (clean_report, _) = run_modern_raw(&clean);
        assert_eq!(clean_report.migrations, 0);
        assert_ne!(
            clean_report.end_time, report.end_time,
            "fault layers had no effect on the run"
        );
    }

    #[test]
    fn clustered_binding_completes_for_every_kind_and_differs_from_rr() {
        for &kind in hbo_locks::LockCatalog::kinds() {
            let cfg = ModernConfig {
                kind,
                machine: MachineConfig::wildfire(2, 4),
                threads: 8,
                iterations: 25,
                critical_work: 100,
                private_work: 2_000,
                binding: BindingKind::Clustered,
                ..ModernConfig::default()
            };
            let r = run_modern(&cfg);
            assert!(r.finished, "{kind} clustered run hit the cycle limit");
            assert_eq!(r.total_acquires, 200, "{kind}");
        }
        // The binding genuinely changes the run (placement + waves).
        let rr = quick(LockKind::HboGt, 300);
        let cl = run_modern(&ModernConfig {
            kind: LockKind::HboGt,
            machine: MachineConfig::wildfire(2, 4),
            threads: 8,
            iterations: 25,
            critical_work: 300,
            private_work: 2_000,
            binding: BindingKind::Clustered,
            ..ModernConfig::default()
        });
        assert_ne!(rr.elapsed_ns, cl.elapsed_ns, "binding had no effect");
    }

    #[test]
    fn binding_names_round_trip() {
        for b in BindingKind::ALL {
            assert_eq!(b.name().parse::<BindingKind>(), Ok(b));
        }
        let err = "spread".parse::<BindingKind>().unwrap_err();
        assert!(err.contains("spread") && err.contains("clustered"), "{err}");
    }

    #[test]
    fn data_padding_moves_data_off_the_lock_line() {
        // With the default 8-word line, padding by a full line must place
        // the first protected word on a different line than the lock's
        // last allocated word; zero padding must leave addresses as-is.
        let run = |pad: u32| {
            let cfg = ModernConfig {
                kind: LockKind::Tatas,
                machine: MachineConfig::wildfire(2, 2),
                threads: 4,
                iterations: 5,
                critical_work: 8,
                private_work: 1_000,
                data_padding: pad,
                ..ModernConfig::default()
            };
            let (_, lines) = run_modern_raw(&cfg);
            lines[0].index()
        };
        let unpadded = run(0);
        let padded = run(8);
        assert_eq!(padded, unpadded + 8);
        assert_ne!(unpadded / 8, padded / 8, "padding left data on the lock's line");
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_threads_rejected() {
        let cfg = ModernConfig {
            threads: 99,
            machine: MachineConfig::wildfire(2, 4),
            ..ModernConfig::default()
        };
        let _ = run_modern(&cfg);
    }
}
