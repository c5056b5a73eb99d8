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
//! Each cell is one [`Cell::LockServer`] of the invocation's plan, so the
//! TSV is byte-identical for any `--jobs` setting.

use hbo_locks::LockKind;
use nuca_workloads::lockserver::{LockServerConfig, LockServerReport};
use nucasim::MachineConfig;

use crate::report::{fmt_ratio, Report};
use crate::robustness::{extremes, Disturbance};
use crate::{Cell, Cells, Scale, Settings};

/// The swept shard counts: a contended table (few shards) and a spread
/// one, or the single `--shards` value.
fn shard_axis(settings: &Settings, scale: Scale) -> Vec<usize> {
    match settings.shards {
        Some(n) => vec![n],
        None => scale.pick(vec![4, 64], vec![2, 8]),
    }
}

/// The config of one sweep cell.
fn cell_cfg(
    settings: &Settings,
    scale: Scale,
    kind: LockKind,
    shards: usize,
    d: &Disturbance,
) -> LockServerConfig {
    let machine = d.apply(MachineConfig::wildfire(2, scale.pick(14, 4)));
    LockServerConfig {
        kind,
        machine: settings.machine(machine),
        threads: scale.pick(28, 8),
        shards,
        objects: scale.pick(1_000_000, 4_096),
        zipf_theta: settings.zipf_theta.unwrap_or(0.99),
        write_pct: 50,
        requests: scale.pick(120, 25),
        // The default offered load sits above service capacity under
        // contention: each served request costs several thousand cycles
        // of lock traffic, each batch brings up to 4.
        mean_gap: settings.arrival_gap.unwrap_or(scale.pick(6_000, 4_000)),
        burst: 4,
        slo: scale.pick(400_000, 200_000),
        params: settings.params(),
        cycle_limit: scale.pick(12_500_000_000, 3_000_000_000),
    }
}

/// What the sweep reads from one lock-service run (the run's per-object
/// tallies are dropped).
#[derive(Debug, Clone, Copy)]
pub struct Service {
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

impl From<&LockServerReport> for Service {
    fn from(r: &LockServerReport) -> Service {
        Service {
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
}

/// One sweep row: a lock kind at a shard count, measured at every
/// disturbance level.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Algorithm under test.
    pub kind: LockKind,
    /// Shard locks in the table.
    pub shards: usize,
    /// One cell per [`extremes`] entry, in order.
    pub cells: Vec<Service>,
}

/// The sweep's configs, row-major: lock kind × shard count rows, one
/// column per [`extremes`] level.
fn grid(settings: &Settings, scale: Scale) -> Vec<LockServerConfig> {
    let dist = extremes(scale);
    let mut cfgs = Vec::new();
    for &kind in &settings.kinds {
        for shards in shard_axis(settings, scale) {
            cfgs.extend(dist.iter().map(|d| cell_cfg(settings, scale, kind, shards, d)));
        }
    }
    cfgs
}

/// The cells the `lockserver` artifact reads.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    grid(settings, scale).into_iter().map(Cell::LockServer).collect()
}

/// The full sweep, read from `cells`.
pub fn sweep(settings: &Settings, scale: Scale, cells: &Cells) -> Vec<SweepRow> {
    let grid = grid(settings, scale);
    grid.chunks(extremes(scale).len())
        .map(|row| SweepRow {
            kind: row[0].kind,
            shards: row[0].shards,
            cells: row.iter().map(|cfg| *cells.lockserver(cfg)).collect(),
        })
        .collect()
}

/// The `lockserver` artifact: request-latency tails, goodput and fairness
/// per lock kind × shard count × disturbance level.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let dist = extremes(scale);
    let mut header = vec!["Lock Type".to_owned(), "Shards".to_owned()];
    for d in &dist {
        for col in ["p50", "p99", "p999"] {
            header.push(format!("{col} {} (ns)", d.name));
        }
        header.push(format!("goodput {} (%)", d.name));
        header.push(format!("fairness {}", d.name));
    }
    header.push("served".to_owned());
    let mut report = Report::new(
        "lockserver",
        "Sharded lock service: latency tails, goodput and fairness under overload",
        &header,
    );
    for row in sweep(settings, scale, cells) {
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
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), Settings::default().kinds.len() * 2);
    }

    #[test]
    fn settings_reach_the_cell_unrounded() {
        // Every θ in (0, 1) reaches the cell exactly, even below 1e-6.
        let settings = Settings {
            shards: Some(3),
            zipf_theta: Some(1e-7),
            arrival_gap: Some(8_000),
            ..Settings::default()
        };
        let d = extremes(Scale::Fast)[0];
        let cfg = cell_cfg(&settings, Scale::Fast, LockKind::Mcs, 3, &d);
        assert_eq!(cfg.zipf_theta, 1e-7);
        assert_eq!(cfg.mean_gap, 8_000);
        assert_eq!(shard_axis(&settings, Scale::Fast), vec![3]);
        let plain = cell_cfg(&Settings::default(), Scale::Fast, LockKind::Mcs, 2, &d);
        assert_eq!(plain.zipf_theta, 0.99);
        assert_eq!(plain.mean_gap, 4_000);
    }

    #[test]
    fn sweep_metrics_are_sane() {
        for row in crate::fast(cells, sweep) {
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
        for row in crate::fast(cells, sweep) {
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
