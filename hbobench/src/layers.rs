//! The traced per-layer pass: one fixed probe per layer, each timed in
//! its own span.
//!
//! | layer | probe |
//! |---|---|
//! | `host` | the calibration loop, fastest of five (the host's current speed) |
//! | `experiments` | every simulating artifact alone at `--fast` scale, one job |
//! | `runner` | the whole `--fast` suite at two jobs |
//! | `nucasim.sched` | a recorded HBO fig5 cell replayed through the time wheel |
//! | `nucasim.mem` | a fixed HBO_GT cell under each protocol; a 10^6-word span allocation |
//! | `simlocks` | a flat fig5 cell per lock kind |
//! | `nucasim.trace`, `nucasim.profile` | the HBO_GT cell with each sink attached |
//! | `locks` | uncontested batches and two-thread contended runs per kind |
//!
//! The `modelcheck` metrics are not taken here: `bench.py` parses them
//! from the `nuca-mcheck` runs it makes in the same traced pass.
//!
//! Simulated counts (events, transactions) are exact and must repeat;
//! every repeat is checked against the first.

use std::hint::black_box;
use std::time::Duration;

use hbo_locks::{LockCatalog, LockKind};
use nuca_experiments::{run_experiment, runner, Scale, EXPERIMENTS, EXTENSIONS};
use nuca_topology::NodeId;
use nuca_workloads::modern::{
    run_modern_profiled, run_modern_raw, run_modern_recorded, run_modern_traced, ModernConfig,
};
use nucasim::sched::{BinHeapQueue, EventQueue, TimeWheel};
use nucasim::{Machine, MachineConfig, ProtocolKind, SchedOp, SimReport};

use crate::hostlocks;
use crate::median;
use crate::spans::Tracer;

/// The fixed cells' `critical_work`: fig5's high-contention point, where
/// Table 2 reports traffic.
const CELL_CRITICAL_WORK: u32 = 1500;

/// Words in the lockserver-sized span allocation.
const SPAN_WORDS: usize = 1_000_000;

/// How much work each probe does.
#[derive(Debug, Clone)]
pub struct LayerScale {
    /// Repeats of each timed probe; the median is reported.
    pub reps: usize,
    /// Iterations per thread of the fixed 28-thread cells.
    pub cell_iterations: u32,
    /// Acquire+release pairs per uncontested batch.
    pub lock_pairs: u64,
    /// Uncontested rounds (one batch of every kind each).
    pub lock_rounds: usize,
    /// Increments per thread of each contended run.
    pub contended_iterations: u64,
}

impl LayerScale {
    /// The benchmark's scale: about nine seconds on two vCPUs.
    pub fn full() -> LayerScale {
        LayerScale {
            reps: 3,
            cell_iterations: 60,
            lock_pairs: 100_000,
            lock_rounds: 15,
            contended_iterations: 200_000,
        }
    }

    /// A scale that only checks every probe runs and reports.
    pub fn smoke() -> LayerScale {
        LayerScale {
            reps: 1,
            cell_iterations: 1,
            lock_pairs: 1_000,
            lock_rounds: 1,
            contended_iterations: 1_000,
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything the pass measured and checked.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// The per-layer metrics, in probe order.
    pub metrics: Vec<Metric>,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
}

impl LayerReport {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Checks that a repeat reproduced the first sample's exact outputs.
    fn check_repeat<T: PartialEq + Copy>(&mut self, first: &mut Option<T>, now: T) {
        match *first {
            Some(f) => self.check(f == now),
            None => *first = Some(now),
        }
    }
}

/// Runs every probe at `scale`; `seed` orders the uncontested batches.
/// Leaves the runner's job budget at its default.
pub fn run(scale: &LayerScale, seed: u64, t: &mut Tracer) -> LayerReport {
    let mut out = LayerReport::default();
    let o = &mut out;
    let calibration = (0..5).map(|_| crate::calibration_loop()).min();
    o.push(
        "host.calibration_ms",
        ms(calibration.expect("five samples")),
        "ms",
    );
    t.span("experiments", |t| experiments(scale, t, o));
    t.span("nucasim.sched", |t| sched(scale, t, o));
    t.span("nucasim.mem", |t| memory(scale, t, o));
    t.span("simlocks", |t| simlocks(scale, t, o));
    t.span("nucasim.sinks", |t| sinks(scale, t, o));
    t.span("locks", |t| locks(scale, seed, t, o));
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn experiments(scale: &LayerScale, t: &mut Tracer, out: &mut LayerReport) {
    // table3 renders a fixed table without simulating anything, so no
    // layer can move its time or events.
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .chain(EXTENSIONS.iter())
        .copied()
        .filter(|&id| id != "table3")
        .collect();
    let mut wall_ms = vec![Vec::new(); ids.len()];
    let mut events: Vec<Option<u64>> = vec![None; ids.len()];
    runner::set_max_jobs(1);
    for _ in 0..scale.reps {
        for (i, id) in ids.iter().enumerate() {
            let before = nucasim::sim_events_total();
            let (reports, took) = t.span(&format!("experiments.{id}"), |_| {
                run_experiment(id, Scale::Fast)
            });
            let n = nucasim::sim_events_total() - before;
            out.check(reports.is_ok_and(|r| !r.is_empty()));
            out.check_repeat(&mut events[i], n);
            wall_ms[i].push(ms(took));
        }
    }
    runner::set_max_jobs(2);
    let suite_ms: Vec<f64> = (0..scale.reps)
        .map(|_| {
            let (reports, took) =
                t.span("runner.all_jobs2", |_| run_experiment("all", Scale::Fast));
            out.check(reports.is_ok_and(|r| !r.is_empty()));
            ms(took)
        })
        .collect();
    runner::set_max_jobs(0);

    let serial_ms: Vec<f64> = wall_ms.iter().map(|w| median(w)).collect();
    let total_events: u64 = events.iter().map(|e| e.unwrap_or(0)).sum();
    for (i, id) in ids.iter().enumerate() {
        out.push(format!("experiments.{id}.wall_ms"), serial_ms[i], "ms");
        out.push(
            format!("experiments.{id}.events"),
            events[i].unwrap_or(0) as f64,
            "events",
        );
    }
    let serial_total_ms: f64 = serial_ms.iter().sum();
    out.push(
        "runner.parallel_efficiency",
        serial_total_ms / (2.0 * median(&suite_ms)),
        "ratio",
    );
    out.push(
        "nucasim.events_per_s",
        total_events as f64 / (serial_total_ms / 1e3),
        "events/s",
    );
}

/// fig5's 28-thread cell at [`CELL_CRITICAL_WORK`] under `protocol`.
fn cell(kind: LockKind, iterations: u32, protocol: ProtocolKind) -> ModernConfig {
    ModernConfig {
        kind,
        machine: MachineConfig::wildfire(2, 14).with_protocol(protocol),
        threads: 28,
        iterations,
        critical_work: CELL_CRITICAL_WORK,
        ..ModernConfig::default()
    }
}

/// Replays `ops` through `q`, returning a checksum of the popped times.
fn replay(q: &mut impl EventQueue, ops: &[SchedOp]) -> u64 {
    let mut acc = 0u64;
    for op in ops {
        match *op {
            SchedOp::Push { t, cpu } => q.push(t, cpu),
            SchedOp::Pop => {
                let (t, cpu) = q.pop().expect("a recorded pop always succeeded");
                acc = acc.wrapping_mul(31).wrapping_add(t ^ u64::from(cpu));
            }
        }
    }
    acc
}

fn sched(scale: &LayerScale, t: &mut Tracer, out: &mut LayerReport) {
    let cfg = cell(LockKind::Hbo, scale.cell_iterations, ProtocolKind::Flat);
    let (_, ops) = run_modern_recorded(&cfg);
    let reference = replay(&mut BinHeapQueue::new(), &ops);
    let ns: Vec<f64> = (0..scale.reps.max(5))
        .map(|_| {
            let (sum, took) = t.span("nucasim.sched.wheel_replay", |_| {
                replay(&mut TimeWheel::new(), black_box(&ops))
            });
            out.check(sum == reference);
            took.as_nanos() as f64
        })
        .collect();
    out.push(
        "nucasim.sched.wheel_ns_per_op",
        median(&ns) / ops.len().max(1) as f64,
        "ns",
    );
    out.push("nucasim.sched.ops", ops.len() as f64, "ops");
}

/// Runs `cfg` `reps` times in spans named `name`; returns the report of
/// the first run and the median host nanoseconds per simulated event.
/// Every repeat must finish and reproduce the first run's counts.
fn timed_cell(
    name: &str,
    cfg: &ModernConfig,
    reps: usize,
    t: &mut Tracer,
    out: &mut LayerReport,
) -> (SimReport, f64) {
    let mut first: Option<SimReport> = None;
    let mut ns_per_event = Vec::new();
    for _ in 0..reps {
        let ((report, _), took) = t.span(name, |_| run_modern_raw(cfg));
        out.check(report.finished_all);
        ns_per_event.push(took.as_nanos() as f64 / report.events.max(1) as f64);
        match &first {
            Some(f) => out.check(f.events == report.events && f.traffic == report.traffic),
            None => first = Some(report),
        }
    }
    (first.expect("at least one repeat"), median(&ns_per_event))
}

fn memory(scale: &LayerScale, t: &mut Tracer, out: &mut LayerReport) {
    for protocol in ProtocolKind::ALL {
        let cfg = cell(LockKind::HboGt, scale.cell_iterations, protocol);
        let name = format!("nucasim.mem.{protocol}");
        let (report, ns) = timed_cell(&name, &cfg, scale.reps, t, out);
        out.push(format!("{name}.ns_per_event"), ns, "ns");
        out.push(
            format!("{name}.local_txns"),
            report.traffic.local as f64,
            "txns",
        );
        out.push(
            format!("{name}.global_txns"),
            report.traffic.global as f64,
            "txns",
        );
    }
    let alloc_ms: Vec<f64> = (0..scale.reps.max(5))
        .map(|_| {
            let mut machine = Machine::new(MachineConfig::wildfire(2, 14));
            let (base, took) = t.span("nucasim.mem.alloc_span_1m", |_| {
                machine.mem_mut().alloc_span(NodeId(0), SPAN_WORDS)
            });
            out.check(machine.mem().len() == base.index() + SPAN_WORDS);
            ms(took)
        })
        .collect();
    out.push("nucasim.mem.alloc_span_1m_ms", median(&alloc_ms), "ms");
}

fn simlocks(scale: &LayerScale, t: &mut Tracer, out: &mut LayerReport) {
    for &kind in LockCatalog::kinds() {
        let cfg = cell(kind, scale.cell_iterations, ProtocolKind::Flat);
        let (_, ns) = timed_cell(&format!("simlocks.{kind}"), &cfg, scale.reps, t, out);
        out.push(format!("simlocks.{kind}.ns_per_event"), ns, "ns");
    }
}

fn sinks(scale: &LayerScale, t: &mut Tracer, out: &mut LayerReport) {
    let cfg = cell(LockKind::HboGt, scale.cell_iterations, ProtocolKind::Flat);
    let (mut raw, mut traced, mut profiled) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.reps {
        let ((plain, _), took) = t.span("nucasim.raw", |_| run_modern_raw(&cfg));
        raw.push(ms(took));
        let ((report, records), took) = t.span("nucasim.trace", |_| run_modern_traced(&cfg));
        traced.push(ms(took));
        out.check(report.events == plain.events && !records.is_empty());
        let ((report, _), took) = t.span("nucasim.profile", |_| run_modern_profiled(&cfg));
        profiled.push(ms(took));
        out.check(report.events == plain.events);
    }
    let base = median(&raw);
    out.push(
        "nucasim.trace.overhead_pct",
        (median(&traced) / base - 1.0) * 100.0,
        "%",
    );
    out.push(
        "nucasim.profile.overhead_pct",
        (median(&profiled) / base - 1.0) * 100.0,
        "%",
    );
}

fn locks(scale: &LayerScale, seed: u64, t: &mut Tracer, out: &mut LayerReport) {
    let locks = hostlocks::instantiate_all();
    let (ns_per_pair, _) = t.span("locks.uncontested", |_| {
        hostlocks::uncontested_rounds(
            &locks,
            scale.lock_pairs,
            scale.lock_rounds,
            Duration::ZERO,
            seed,
        )
    });
    let mut log_sum = 0.0;
    for (kind, ns) in LockCatalog::kinds().iter().zip(&ns_per_pair) {
        let m = median(ns);
        log_sum += m.ln();
        out.push(format!("locks.{kind}.uncontested_ns"), m, "ns");
    }
    out.push(
        "locks.uncontested_ns_geomean",
        (log_sum / locks.len() as f64).exp(),
        "ns",
    );
    let increments = scale.contended_iterations * hostlocks::CONTENDED_THREADS as u64;
    for &kind in LockCatalog::kinds() {
        let mops: Vec<f64> = (0..scale.reps)
            .map(|_| {
                let (ok, took) = t.span(&format!("locks.{kind}.contended"), |_| {
                    hostlocks::contended_ok(kind, scale.contended_iterations)
                });
                out.check(ok);
                increments as f64 / took.as_secs_f64() / 1e6
            })
            .collect();
        out.push(
            format!("locks.{kind}.contended_mops"),
            median(&mops),
            "Mops/s",
        );
    }
}
