//! Synthetic models of the lock-heavy SPLASH-2 applications (§5.4).
//!
//! The paper measures seven SPLASH-2 programs whose executions contain
//! more than 10,000 lock calls (Table 3). Running the real SPLASH-2 codes
//! requires the original inputs and a SPARC/Solaris toolchain; what the
//! *locks* see, however, is fully characterized by the programs' lock
//! access patterns: how many locks exist, how skewed the accesses are
//! (task queues vs. fine-grained object locks), how much shared data a
//! critical section touches, and how much computation separates lock
//! calls. Each [`AppModel`] below reproduces that pattern, parameterized
//! from Table 3 and the qualitative descriptions in the paper and the
//! SPLASH-2 characterization study (Woo et al., ISCA'95).
//!
//! The substitution is documented in `DESIGN.md`: identical lock-visible
//! behaviour, synthetic compute.

use std::sync::Arc;

use hbo_locks::LockKind;
use nuca_topology::NodeId;
use nucasim::{
    Addr, Command, CpuCtx, Machine, MachineConfig, Program, SplitMix64, TrafficCounts,
};
use nucasim_locks::{build_lock, DriveResult, GtSlots, SessionDriver, SimLockParams};

use crate::barrier::{BarrierClient, BarrierStep, SimBarrier};

/// Behavioural model of one application's lock usage.
#[derive(Debug, Clone)]
pub struct AppModel {
    /// Program name as in Table 3.
    pub name: &'static str,
    /// Problem size as in Table 3.
    pub problem_size: &'static str,
    /// Allocated locks (Table 3, "Total Locks").
    pub total_locks: usize,
    /// Lock calls in the paper's 32-processor runs (Table 3).
    pub lock_calls: u64,
    /// Whether the paper studies the program further (▶ in Table 3).
    pub studied: bool,
    /// Number of *hot* locks (task queues, global counters).
    pub hot_locks: usize,
    /// Probability (per mille) that an acquire targets a hot lock.
    pub hot_per_mille: u32,
    /// Shared data lines written under a hot lock.
    pub cs_lines_hot: u32,
    /// Shared data lines written under a cold lock.
    pub cs_lines_cold: u32,
    /// Mean computation between lock calls, cycles.
    pub think_cycles: u64,
    /// Barrier-separated phases.
    pub phases: u32,
    /// Total lock acquisitions the model performs at scale 1.0 (divided
    /// among the run's threads — fixed problem size, like the originals).
    pub total_acquires: u64,
}

/// The full Table 3, in the paper's order.
///
/// Entries with `studied == false` carry only the statistics columns; they
/// synchronize almost exclusively through barriers (FFT, LU, Ocean, Radix,
/// Water-Sp) so the paper — and this reproduction — does not time them
/// against lock algorithms.
pub fn table3() -> Vec<AppModel> {
    fn row(
        name: &'static str,
        problem_size: &'static str,
        total_locks: usize,
        lock_calls: u64,
        studied: bool,
    ) -> AppModel {
        AppModel {
            name,
            problem_size,
            total_locks,
            lock_calls,
            studied,
            hot_locks: 1,
            hot_per_mille: 0,
            cs_lines_hot: 1,
            cs_lines_cold: 1,
            think_cycles: 1000,
            phases: 1,
            total_acquires: lock_calls,
        }
    }
    let mut rows = vec![
        row("Barnes", "29k particles", 130, 69_193, true),
        row("Cholesky", "tk29.O", 67, 74_284, true),
        row("FFT", "1M points", 1, 32, false),
        row("FMM", "32k particles", 2_052, 80_528, true),
        row("LU-c", "1024x1024 matrices, 16x16 blocks", 1, 32, false),
        row("LU-nc", "1024x1024 matrices, 16x16 blocks", 1, 32, false),
        row("Ocean-c", "514x514", 6, 6_304, false),
        row("Ocean-nc", "258x258", 6, 6_656, false),
        row(
            "Radiosity",
            "room, -ae 5000.0 -en 0.050 -bf 0.10",
            3_975,
            295_627,
            true,
        ),
        row("Radix", "4M integers, radix 1024", 1, 32, false),
        row("Raytrace", "car", 35, 366_450, true),
        row("Volrend", "head", 67, 38_456, true),
        row("Water-Nsq", "2197 molecules", 2_206, 112_415, true),
        row("Water-Sp", "2197 molecules", 222, 510, false),
    ];
    // Behavioural parameters for the studied programs.
    for r in rows.iter_mut() {
        match r.name {
            // Barnes: tree-build cell locks, moderate sharing.
            "Barnes" => {
                r.hot_locks = 2;
                r.hot_per_mille = 250;
                r.cs_lines_hot = 2;
                r.think_cycles = 8_000;
                r.phases = 4;
            }
            // Cholesky: central task queue plus column locks.
            "Cholesky" => {
                r.hot_locks = 1;
                r.hot_per_mille = 350;
                r.cs_lines_hot = 2;
                r.think_cycles = 6_000;
                r.phases = 2;
            }
            // FMM: thousands of fine-grained box locks, little skew.
            "FMM" => {
                r.hot_locks = 3;
                r.hot_per_mille = 150;
                r.cs_lines_hot = 1;
                r.think_cycles = 7_000;
                r.phases = 4;
            }
            // Radiosity: distributed task queues with stealing.
            "Radiosity" => {
                r.hot_locks = 4;
                r.hot_per_mille = 500;
                r.cs_lines_hot = 2;
                r.think_cycles = 2_500;
                r.phases = 3;
            }
            // Raytrace: one central task queue + global stats counters —
            // "one of the most unpredictable SPLASH-2 programs", very high
            // lock contention.
            "Raytrace" => {
                r.hot_locks = 2;
                r.hot_per_mille = 700;
                r.cs_lines_hot = 2;
                r.think_cycles = 2_500;
                r.phases = 2;
            }
            // Volrend: work queue per processor group.
            "Volrend" => {
                r.hot_locks = 2;
                r.hot_per_mille = 500;
                r.cs_lines_hot = 1;
                r.think_cycles = 3_000;
                r.phases = 3;
            }
            // Water-Nsq: per-molecule locks plus a global accumulator.
            "Water-Nsq" => {
                r.hot_locks = 1;
                r.hot_per_mille = 120;
                r.cs_lines_hot = 1;
                r.think_cycles = 5_000;
                r.phases = 4;
            }
            _ => {}
        }
    }
    rows
}

/// The seven programs the paper studies (▶ rows of Table 3).
pub fn studied_apps() -> Vec<AppModel> {
    table3().into_iter().filter(|a| a.studied).collect()
}

/// Looks up a studied app by (case-insensitive) name.
pub fn app_by_name(name: &str) -> Option<AppModel> {
    table3()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

/// Configuration of one application-model run.
#[derive(Debug, Clone)]
pub struct AppRunConfig {
    /// Algorithm under test.
    pub kind: LockKind,
    /// Machine description.
    pub machine: MachineConfig,
    /// Worker threads (round-robin across nodes, like the paper's runs).
    pub threads: usize,
    /// Lock tunables.
    pub params: SimLockParams,
    /// Workload scale: fraction of [`AppModel::total_acquires`] to
    /// perform (1.0 = Table 3 volume).
    pub scale: f64,
    /// Simulated-cycle budget; exceeded runs report `finished = false`
    /// (how the paper's "> 200 s" rows arise).
    pub cycle_limit: u64,
}

impl Default for AppRunConfig {
    fn default() -> Self {
        AppRunConfig {
            kind: LockKind::TatasExp,
            machine: MachineConfig::wildfire(2, 14),
            threads: 28,
            params: SimLockParams::default(),
            scale: 0.1,
            cycle_limit: 100_000_000_000,
        }
    }
}

/// Outcome of an application-model run.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Program name.
    pub name: &'static str,
    /// Algorithm.
    pub kind: LockKind,
    /// Threads used.
    pub threads: usize,
    /// Simulated execution time, seconds.
    pub seconds: f64,
    /// Whether the run finished inside the cycle budget.
    pub finished: bool,
    /// Coherence traffic.
    pub traffic: TrafficCounts,
    /// Total lock acquisitions performed.
    pub acquires: u64,
    /// Node-handoff ratio of the hottest lock.
    pub hot_handoff: Option<f64>,
}

/// Cold locks actually allocated (cold traffic is spread uniformly, so a
/// few hundred representatives behave like a few thousand).
const MAX_COLD_LOCKS: usize = 192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Next,
    Acquiring,
    Cs { line: u32 },
    Releasing,
    Think,
    Barrier,
}

struct AppProgram {
    drivers: Vec<SessionDriver>,
    /// Data lines per lock (index-aligned with `drivers`).
    data: Arc<Vec<Vec<Addr>>>,
    hot_locks: usize,
    hot_per_mille: u32,
    cs_lines_hot: u32,
    cs_lines_cold: u32,
    think_cycles: u64,
    barrier: BarrierClient,
    /// Acquires remaining in the current phase.
    phase_left: u32,
    /// Phases remaining after the current one.
    phases_left: u32,
    /// Acquires per phase.
    per_phase: u32,
    current: usize,
    rng: SplitMix64,
    state: State,
}

impl AppProgram {
    fn pick_lock(&mut self) -> usize {
        let total = self.drivers.len();
        if total == self.hot_locks || self.rng.next_below(1000) < u64::from(self.hot_per_mille) {
            (self.rng.next_below(self.hot_locks as u64)) as usize
        } else {
            self.hot_locks + self.rng.next_below((total - self.hot_locks) as u64) as usize
        }
    }

    fn cs_lines(&self) -> u32 {
        if self.current < self.hot_locks {
            self.cs_lines_hot
        } else {
            self.cs_lines_cold
        }
    }

    fn drive(&mut self, r: DriveResult, ctx: &mut CpuCtx<'_>) -> Command {
        match r {
            DriveResult::Busy(cmd) => cmd,
            DriveResult::AcquireDone => {
                self.state = State::Cs { line: 0 };
                Command::Write(self.data[self.current][0], ctx.now)
            }
            DriveResult::ReleaseDone => {
                self.state = State::Think;
                let jitter = self.rng.next_below(self.think_cycles.max(2));
                Command::Delay((self.think_cycles / 2 + jitter).max(1))
            }
        }
    }
}

impl Program for AppProgram {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        loop {
            match self.state {
                State::Next => {
                    if self.phase_left == 0 {
                        if self.phases_left == 0 {
                            return Command::Done;
                        }
                        self.state = State::Barrier;
                        match self.barrier.start() {
                            BarrierStep::Op(cmd) => return cmd,
                            BarrierStep::Done => unreachable!("barrier starts with a command"),
                        }
                    }
                    self.phase_left -= 1;
                    self.current = self.pick_lock();
                    self.state = State::Acquiring;
                    let r = self.drivers[self.current].start_acquire(ctx);
                    return self.drive(r, ctx);
                }
                State::Acquiring => {
                    let r = self.drivers[self.current].on_result(ctx, last);
                    return self.drive(r, ctx);
                }
                State::Cs { line } => {
                    let next = line + 1;
                    if next < self.cs_lines() {
                        self.state = State::Cs { line: next };
                        return Command::Write(self.data[self.current][next as usize], ctx.now);
                    }
                    self.state = State::Releasing;
                    let r = self.drivers[self.current].start_release(ctx);
                    return self.drive(r, ctx);
                }
                State::Releasing => {
                    let r = self.drivers[self.current].on_result(ctx, last);
                    return self.drive(r, ctx);
                }
                State::Think => {
                    self.state = State::Next;
                    continue;
                }
                State::Barrier => match self.barrier.resume(last) {
                    BarrierStep::Op(cmd) => return cmd,
                    BarrierStep::Done => {
                        self.phases_left -= 1;
                        self.phase_left = self.per_phase;
                        self.state = State::Next;
                        continue;
                    }
                },
            }
        }
    }
}

/// Runs `model` under `cfg` and reports paper-facing metrics.
///
/// # Panics
///
/// Panics if `cfg.threads` exceeds the machine's CPUs or the model was not
/// given behavioural parameters (`hot_per_mille == 0`, i.e. a non-studied
/// Table 3 row).
pub fn run_app(model: &AppModel, cfg: &AppRunConfig) -> AppReport {
    assert!(
        model.hot_per_mille > 0,
        "{} is not a studied application model",
        model.name
    );
    let mut machine = Machine::new(cfg.machine.clone());
    let topo = Arc::clone(machine.topology());
    assert!(
        cfg.threads > 0 && cfg.threads <= topo.num_cpus(),
        "invalid thread count {}",
        cfg.threads
    );

    let gt = GtSlots::alloc(machine.mem_mut(), &topo);
    let lock_count = model
        .hot_locks
        .max(1)
        .saturating_add((model.total_locks.saturating_sub(model.hot_locks)).min(MAX_COLD_LOCKS));
    // Locks and their data, homes striped across nodes like a real
    // first-touch allocation.
    let mut locks = Vec::with_capacity(lock_count);
    let mut data: Vec<Vec<Addr>> = Vec::with_capacity(lock_count);
    for i in 0..lock_count {
        let home = NodeId(i % topo.num_nodes());
        locks.push(build_lock(
            cfg.kind,
            machine.mem_mut(),
            &topo,
            &gt,
            home,
            &cfg.params,
        ));
        let lines = if i < model.hot_locks {
            model.cs_lines_hot
        } else {
            model.cs_lines_cold
        };
        data.push(machine.mem_mut().alloc_array(home, lines.max(1) as usize));
    }
    let data = Arc::new(data);

    let total = ((model.total_acquires as f64 * cfg.scale) as u64).max(cfg.threads as u64);
    let per_thread = (total / cfg.threads as u64) as u32;
    let per_phase = (per_thread / model.phases.max(1)).max(1);
    let barrier = SimBarrier::alloc(machine.mem_mut(), NodeId(0), cfg.threads as u64);

    let mut seed = SplitMix64::new(cfg.machine.seed ^ 0xA44A);
    for cpu in topo.round_robin_binding(cfg.threads) {
        let node = topo.node_of(cpu);
        let drivers = locks
            .iter()
            .enumerate()
            .map(|(i, l)| SessionDriver::new(l.session(cpu, node)).with_lock_index(i))
            .collect();
        machine.add_program(
            cpu,
            Box::new(AppProgram {
                drivers,
                data: Arc::clone(&data),
                hot_locks: model.hot_locks,
                hot_per_mille: model.hot_per_mille,
                cs_lines_hot: model.cs_lines_hot,
                cs_lines_cold: model.cs_lines_cold,
                think_cycles: model.think_cycles,
                barrier: BarrierClient::new(barrier),
                phase_left: per_phase,
                phases_left: model.phases.max(1) - 1,
                per_phase,
                current: 0,
                rng: seed.split(),
                state: State::Next,
            }),
        );
    }

    machine.run(cfg.cycle_limit);
    let report = machine.into_report();
    let acquires: u64 = report.lock_traces.iter().map(|t| t.acquisitions).sum();
    AppReport {
        name: model.name,
        kind: cfg.kind,
        threads: cfg.threads,
        seconds: report.seconds(),
        finished: report.finished_all,
        traffic: report.traffic,
        acquires,
        hot_handoff: report.lock_traces.first().and_then(|t| t.handoff_ratio()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(kind: LockKind) -> AppRunConfig {
        AppRunConfig {
            kind,
            machine: MachineConfig::wildfire(2, 4),
            threads: 8,
            scale: 0.004,
            ..AppRunConfig::default()
        }
    }

    #[test]
    fn table3_matches_paper_statistics() {
        let rows = table3();
        assert_eq!(rows.len(), 14);
        assert_eq!(rows.iter().filter(|r| r.studied).count(), 7);
        let ray = app_by_name("raytrace").unwrap();
        assert_eq!(ray.total_locks, 35);
        assert_eq!(ray.lock_calls, 366_450);
        let fmm = app_by_name("FMM").unwrap();
        assert_eq!(fmm.total_locks, 2_052);
        assert!(app_by_name("Doom").is_none());
    }

    #[test]
    fn studied_apps_all_run() {
        for app in studied_apps() {
            let r = run_app(&app, &tiny_cfg(LockKind::HboGt));
            assert!(r.finished, "{} stuck", app.name);
            assert!(r.acquires > 0, "{}", app.name);
        }
    }

    #[test]
    fn apps_survive_fault_injection() {
        use nucasim::{FaultConfig, HolderPreemptConfig, SlowNodeConfig};

        let faults = FaultConfig::none()
            .with_holder_preempt(HolderPreemptConfig {
                per_mille: 100,
                quantum: 25_000,
            })
            .with_slow_node(SlowNodeConfig { node: 1, factor: 3 });
        let mut cfg = tiny_cfg(LockKind::HboGt);
        cfg.machine = cfg.machine.with_faults(faults);
        let ray = app_by_name("Raytrace").unwrap();
        let faulted = run_app(&ray, &cfg);
        assert!(faulted.finished, "faulted raytrace stuck");
        let again = run_app(&ray, &cfg);
        assert_eq!(faulted.seconds, again.seconds, "faulted app run not reproducible");
        let clean = run_app(&ray, &tiny_cfg(LockKind::HboGt));
        assert!(
            faulted.seconds > clean.seconds,
            "faults did not slow the run: {} vs {}",
            faulted.seconds,
            clean.seconds
        );
    }

    #[test]
    #[should_panic(expected = "not a studied application")]
    fn non_studied_app_rejected() {
        let fft = app_by_name("FFT").unwrap();
        let _ = run_app(&fft, &tiny_cfg(LockKind::Tatas));
    }

    #[test]
    fn raytrace_nuca_beats_tatas() {
        let ray = app_by_name("Raytrace").unwrap();
        let tatas = run_app(&ray, &tiny_cfg(LockKind::Tatas));
        let hbo = run_app(&ray, &tiny_cfg(LockKind::HboGt));
        assert!(tatas.finished && hbo.finished);
        assert!(
            hbo.seconds < tatas.seconds,
            "HBO_GT {:.4}s vs TATAS {:.4}s",
            hbo.seconds,
            tatas.seconds
        );
    }

    #[test]
    fn fixed_problem_size_scales_down_per_thread() {
        let vol = app_by_name("Volrend").unwrap();
        let mut cfg = tiny_cfg(LockKind::TatasExp);
        cfg.scale = 0.02;
        let eight = run_app(&vol, &cfg);
        cfg.threads = 1;
        let one = run_app(&vol, &cfg);
        // Same total work, so 1-thread and 8-thread acquire counts are
        // close (rounding aside).
        let ratio = one.acquires as f64 / eight.acquires as f64;
        assert!((0.8..=1.3).contains(&ratio), "ratio {ratio}");
        assert!(one.seconds > eight.seconds, "parallelism speeds it up");
    }

    #[test]
    fn deterministic_runs() {
        let chol = app_by_name("Cholesky").unwrap();
        let a = run_app(&chol, &tiny_cfg(LockKind::Clh));
        let b = run_app(&chol, &tiny_cfg(LockKind::Clh));
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.traffic, b.traffic);
    }
}
