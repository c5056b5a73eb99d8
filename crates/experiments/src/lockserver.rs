//! Lockserver extension — a sharded million-object lock service.
//!
//! Sweeps lock kind × shard count × disturbance level on the
//! [`nuca_workloads::lockserver`] workload: open-loop bursty arrivals over
//! a Zipfian key space, readers and writers mixed. Reported per cell:
//! request-latency percentiles (p50/p99/p999), goodput under the SLO,
//! requests served, and cross-node fairness. The offered load is set above
//! service capacity, so the sweep shows how each lock family sheds
//! overload — the paper's Fig. 5 contention story retold in service
//! metrics instead of iteration throughput.
//!
//! Full scale locks a million objects per cell (the sparse
//! [`nucasim::LockTally`] tier keeps that affordable); `--fast` shrinks
//! the table for CI. The `--shards`, `--zipf` and `--arrival-gap` flags
//! override the corresponding axes for ad-hoc capacity exploration.
//!
//! Leaf runs go through [`runner::run_jobs`], so the TSV is byte-identical
//! for any `--jobs` setting.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use hbo_locks::LockKind;
use nuca_workloads::lockserver::{run_lockserver, LockServerConfig};
use nucasim::MachineConfig;

use crate::report::{fmt_ratio, Report};
use crate::robustness::{levels, Disturbance};
use crate::{kinds, runner, Scale};

/// `--shards` override; 0 means "use the sweep's default axis".
static SHARDS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// `--zipf` override in millionths; 0 means default (0.99).
static ZIPF_MICRO_OVERRIDE: AtomicU64 = AtomicU64::new(0);
/// `--arrival-gap` override in cycles; 0 means the scale's default.
static GAP_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Applies the `--shards` flag: replaces the shard-count axis with this
/// single value for the whole sweep.
pub fn set_shards(n: usize) {
    SHARDS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Applies the `--zipf` flag: Zipfian skew θ for the key distribution.
pub fn set_zipf_theta(theta: f64) {
    ZIPF_MICRO_OVERRIDE.store((theta * 1e6) as u64, Ordering::Relaxed);
}

/// Applies the `--arrival-gap` flag: mean cycles between request batches.
pub fn set_arrival_gap(cycles: u64) {
    GAP_OVERRIDE.store(cycles, Ordering::Relaxed);
}

/// The swept shard counts: a contended table (few shards) and a spread
/// one, or the single `--shards` override.
fn shard_axis(scale: Scale) -> Vec<usize> {
    match SHARDS_OVERRIDE.load(Ordering::Relaxed) {
        0 => scale.pick(vec![4, 64], vec![2, 8]),
        n => vec![n],
    }
}

fn zipf_theta() -> f64 {
    match ZIPF_MICRO_OVERRIDE.load(Ordering::Relaxed) {
        0 => 0.99,
        micro => micro as f64 / 1e6,
    }
}

fn mean_gap(scale: Scale) -> u64 {
    match GAP_OVERRIDE.load(Ordering::Relaxed) {
        // Default offered load sits above service capacity under
        // contention: each served request costs several thousand cycles
        // of lock traffic, each batch brings up to 4.
        0 => scale.pick(6_000, 4_000),
        gap => gap,
    }
}

/// The disturbance levels the service is swept under: undisturbed and the
/// full fault stack (reusing the robustness artifact's heaviest level).
fn disturbances(scale: Scale) -> Vec<Disturbance> {
    let lv = levels(scale);
    vec![lv[0], *lv.last().expect("robustness always has levels")]
}

fn cell_cfg(scale: Scale, kind: LockKind, shards: usize, d: &Disturbance) -> LockServerConfig {
    let mut machine = MachineConfig::wildfire(2, scale.pick(14, 4));
    if let Some(p) = d.preemption {
        machine = machine.with_preemption(p);
    }
    if d.faults.is_active() {
        machine = machine.with_faults(d.faults);
    }
    LockServerConfig {
        kind,
        machine,
        threads: scale.pick(28, 8),
        shards,
        objects: scale.pick(1_000_000, 4_096),
        zipf_theta: zipf_theta(),
        write_pct: 50,
        requests: scale.pick(120, 25),
        mean_gap: mean_gap(scale),
        burst: 4,
        slo: scale.pick(400_000, 200_000),
        cycle_limit: scale.pick(12_500_000_000, 3_000_000_000),
        ..LockServerConfig::default()
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Disturbance level label.
    pub level: &'static str,
    /// Whether every thread served its quota inside the cycle budget.
    pub finished: bool,
    /// Median request latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile request latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency, ns.
    pub p999_ns: u64,
    /// Requests served within the SLO, percent.
    pub goodput_pct: f64,
    /// Requests served.
    pub served: u64,
    /// Cross-node fairness (min node share / max node share).
    pub fairness: f64,
    /// Distinct objects locked at least once.
    pub objects_touched: usize,
}

/// One sweep row: a lock kind at a shard count, measured at every
/// disturbance level.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Algorithm under test.
    pub kind: LockKind,
    /// Shard locks in the table.
    pub shards: usize,
    /// One cell per [`disturbances`] entry, in order.
    pub cells: Vec<Cell>,
}

/// Runs the full sweep; deterministic and byte-identical for any `--jobs`
/// setting.
pub fn sweep(scale: Scale) -> Vec<SweepRow> {
    let shard_counts = shard_axis(scale);
    let dist = disturbances(scale);
    let grid: Vec<(LockKind, usize)> = kinds::selected()
        .iter()
        .flat_map(|&kind| shard_counts.iter().map(move |&s| (kind, s)))
        .collect();
    let jobs: Vec<_> = grid
        .iter()
        .flat_map(|&(kind, shards)| dist.iter().map(move |d| (kind, shards, *d)))
        .map(|(kind, shards, d)| {
            move || {
                let cfg = cell_cfg(scale, kind, shards, &d);
                let r = run_lockserver(&cfg);
                Cell {
                    level: d.name,
                    finished: r.finished,
                    p50_ns: r.p50_ns,
                    p99_ns: r.p99_ns,
                    p999_ns: r.p999_ns,
                    goodput_pct: r.goodput_pct,
                    served: r.served,
                    fairness: r.fairness,
                    objects_touched: r.objects_touched,
                }
            }
        })
        .collect();
    let cells = runner::run_jobs(jobs);
    grid.iter()
        .zip(cells.chunks(dist.len()))
        .map(|(&(kind, shards), chunk)| SweepRow {
            kind,
            shards,
            cells: chunk.to_vec(),
        })
        .collect()
}

/// The `lockserver` artifact: request-latency tails, goodput and fairness
/// per lock kind × shard count × disturbance level.
pub fn run(scale: Scale) -> Report {
    let dist = disturbances(scale);
    let mut header = vec!["Lock Type".to_owned(), "Shards".to_owned()];
    for d in &dist {
        for col in ["p50", "p99", "p999"] {
            header.push(format!("{col} {} (ns)", d.name));
        }
        header.push(format!("goodput {} (%)", d.name));
        header.push(format!("fairness {}", d.name));
    }
    header.push("served".to_owned());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "lockserver",
        "Sharded lock service: latency tails, goodput and fairness under overload",
        &header_refs,
    );
    for row in sweep(scale) {
        let mut cells = vec![row.kind.as_str().to_owned(), row.shards.to_string()];
        for c in &row.cells {
            let mark = |v: u64| {
                if c.finished {
                    v.to_string()
                } else {
                    format!("> {v}")
                }
            };
            cells.push(mark(c.p50_ns));
            cells.push(mark(c.p99_ns));
            cells.push(mark(c.p999_ns));
            cells.push(format!("{:.1}", c.goodput_pct));
            cells.push(fmt_ratio(Some(c.fairness)));
        }
        cells.push(
            row.cells
                .first()
                .map(|c| c.served.to_string())
                .unwrap_or_default(),
        );
        report.push_row(cells);
    }
    report.push_note(
        "open-loop Zipfian request load over a sharded lock table at an \
         offered rate above service capacity: the backoff family sheds \
         overload with flatter p99/p999 tails than the FIFO queue locks, \
         and the gap widens once the fault stack (holder preemption, \
         migration, slow node, jitter) is switched on",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_grid() {
        let r = run(Scale::Fast);
        assert_eq!(r.rows(), kinds::selected().len() * 2);
    }

    #[test]
    fn sweep_metrics_are_sane() {
        for row in sweep(Scale::Fast) {
            for c in &row.cells {
                assert!(c.finished, "{} {} shards hit the budget", row.kind, row.shards);
                assert!(c.p50_ns > 0 && c.p50_ns <= c.p99_ns && c.p99_ns <= c.p999_ns);
                assert!((0.0..=100.0).contains(&c.goodput_pct));
                assert!((0.0..=1.0).contains(&c.fairness));
                assert!(c.objects_touched > 0);
                assert_eq!(c.served, 8 * 25);
            }
        }
    }

    #[test]
    fn fault_stack_never_improves_the_tail() {
        // Deterministic runs: the heaviest disturbance level must not
        // report a better p99 than the undisturbed one for any cell.
        for row in sweep(Scale::Fast) {
            let none = &row.cells[0];
            let faulted = row.cells.last().expect("two levels");
            assert!(
                faulted.p99_ns >= none.p99_ns,
                "{} {} shards: faulted p99 {} < undisturbed {}",
                row.kind,
                row.shards,
                faulted.p99_ns,
                none.p99_ns
            );
        }
    }
}
