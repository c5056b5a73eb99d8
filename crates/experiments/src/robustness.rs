//! Robustness extension — lock behavior under injected disturbances.
//!
//! Sweeps disturbance intensity × lock kind × processor count on the
//! microbenchmark and reports completion time plus p99 time-to-acquire.
//! The headline is the Table 4 mechanism made systematic: random
//! preemption collapses the FIFO queue locks (a descheduled thread in the
//! middle of an MCS/CLH queue blocks everyone behind it) while the
//! backoff-based locks degrade only in proportion to the stolen cycles.
//! The heaviest level stacks the composable fault layers on top —
//! holder-targeted preemption, thread migration, a slow node, latency
//! jitter ([`nucasim::FaultConfig`]) — and the ordering survives.

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;
use nucasim::{
    cycles_to_ns, FaultConfig, HolderPreemptConfig, JitterConfig, MachineConfig, MigrationConfig,
    PreemptionConfig, SlowNodeConfig,
};

use crate::report::{fmt_secs, Report};
use crate::{runner, Cells, Scale, Settings};

/// One disturbance level of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Disturbance {
    /// Column label.
    pub name: &'static str,
    /// Random per-CPU OS preemption windows, if any.
    pub preemption: Option<PreemptionConfig>,
    /// Composable fault layers applied on top.
    pub faults: FaultConfig,
}

impl Disturbance {
    /// `machine` under this level's preemption and fault layers.
    pub fn apply(&self, mut machine: MachineConfig) -> MachineConfig {
        if let Some(p) = self.preemption {
            machine = machine.with_preemption(p);
        }
        if self.faults.is_active() {
            machine = machine.with_faults(self.faults);
        }
        machine
    }
}

/// The first and last of [`levels`]: undisturbed, and heavy
/// multiprogramming with every fault layer (the levels `showdown` and
/// `lockserver` sweep).
pub fn extremes(scale: Scale) -> Vec<Disturbance> {
    let lv = levels(scale);
    vec![lv[0], *lv.last().expect("robustness always has levels")]
}

/// The swept disturbance levels, in column order: undisturbed, light
/// daemon activity, heavy multiprogramming, and heavy multiprogramming
/// with every fault layer enabled.
pub fn levels(scale: Scale) -> Vec<Disturbance> {
    // Fast runs are orders of magnitude shorter, so every disturbance
    // must arrive proportionally more often to land at all (the same
    // scaling rule as the Table 4 prototype machine).
    let light = scale.pick(
        PreemptionConfig::solaris_daemons(),
        PreemptionConfig {
            mean_gap: 1_200_000,
            quantum: 100_000,
        },
    );
    let heavy = scale.pick(
        PreemptionConfig::multiprogrammed(),
        PreemptionConfig {
            mean_gap: 120_000,
            quantum: 300_000,
        },
    );
    let faults = FaultConfig::none()
        .with_holder_preempt(HolderPreemptConfig {
            per_mille: 150,
            quantum: scale.pick(2_500_000, 40_000),
        })
        .with_migration(MigrationConfig {
            mean_gap: scale.pick(31_250_000, 150_000),
            pause: scale.pick(250_000, 10_000),
        })
        .with_slow_node(SlowNodeConfig { node: 1, factor: 3 })
        .with_jitter(JitterConfig { max_extra: 80 });
    vec![
        Disturbance {
            name: "none",
            preemption: None,
            faults: FaultConfig::none(),
        },
        Disturbance {
            name: "light",
            preemption: Some(light),
            faults: FaultConfig::none(),
        },
        Disturbance {
            name: "heavy",
            preemption: Some(heavy),
            faults: FaultConfig::none(),
        },
        Disturbance {
            name: "heavy+faults",
            preemption: Some(heavy),
            faults,
        },
    ]
}

/// One measured cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Disturbance level label.
    pub level: &'static str,
    /// Simulated completion time in seconds; an unfinished run reports
    /// its cycle budget (a lower bound).
    pub seconds: f64,
    /// Whether the run completed inside the cycle budget.
    pub finished: bool,
    /// 99th-percentile time-to-acquire, nanoseconds.
    pub p99_wait_ns: u64,
    /// Preemption windows applied (OS model plus holder-targeted bursts).
    pub preemptions: u64,
    /// Injected thread migrations applied.
    pub migrations: u64,
}

/// One sweep row: a lock kind at a processor count, measured at every
/// disturbance level.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Algorithm under test.
    pub kind: LockKind,
    /// Contending processors.
    pub cpus: usize,
    /// One cell per [`levels`] entry, in order.
    pub cells: Vec<Cell>,
}

impl SweepRow {
    /// Slowdown of the named level relative to the undisturbed run.
    /// Unfinished runs report their cycle budget, so collapsed locks
    /// yield a lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not one of the swept level names.
    pub fn degradation(&self, level: &str) -> f64 {
        let base = self.cells[0].seconds;
        let cell = self
            .cells
            .iter()
            .find(|c| c.level == level)
            .unwrap_or_else(|| panic!("no sweep level named `{level}`"));
        cell.seconds / base
    }
}

fn cell_cfg(
    settings: &Settings,
    scale: Scale,
    kind: LockKind,
    cpus: usize,
    d: &Disturbance,
) -> ModernConfig {
    let machine = d.apply(MachineConfig::wildfire(2, cpus / 2));
    ModernConfig {
        kind,
        threads: cpus,
        iterations: scale.pick(200, 30),
        critical_work: 0,
        private_work: scale.pick(20_000, 2_000),
        // Generous but finite: collapsed queue locks print as "> N s",
        // the paper's "> 200 s" rows.
        cycle_limit: scale.pick(12_500_000_000, 3_000_000_000),
        ..settings.modern(machine)
    }
}

/// Runs the full sweep and returns structured rows (one per lock kind ×
/// processor count), each measured at every disturbance level. Leaf runs
/// go through [`runner::run_jobs`], so results are deterministic and
/// byte-identical for any `--jobs` setting.
pub fn sweep(settings: &Settings, scale: Scale, cells: &Cells) -> Vec<SweepRow> {
    let cpu_counts: Vec<usize> = scale.pick(vec![8, 28], vec![4, 8]);
    let lv = levels(scale);
    let grid: Vec<(LockKind, usize)> = settings
        .kinds
        .iter()
        .flat_map(|&kind| cpu_counts.iter().map(move |&c| (kind, c)))
        .collect();
    let jobs: Vec<_> = grid
        .iter()
        .flat_map(|&(kind, cpus)| lv.iter().map(move |d| (kind, cpus, *d)))
        .map(|(kind, cpus, d)| {
            move || {
                let run = cells.modern(&cell_cfg(settings, scale, kind, cpus, &d));
                Cell {
                    level: d.name,
                    seconds: run.seconds,
                    finished: run.micro.finished,
                    p99_wait_ns: cycles_to_ns(run.wait.percentile(99.0).unwrap_or(0)),
                    preemptions: run.preemptions,
                    migrations: run.migrations,
                }
            }
        })
        .collect();
    let cells = runner::run_jobs(jobs);
    grid.iter()
        .zip(cells.chunks(lv.len()))
        .map(|(&(kind, cpus), chunk)| SweepRow {
            kind,
            cpus,
            cells: chunk.to_vec(),
        })
        .collect()
}

/// The `robustness` artifact: completion time per disturbance level plus
/// the undisturbed and heaviest p99 time-to-acquire.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let lv = levels(scale);
    let mut header = vec!["Lock Type".to_owned(), "CPUs".to_owned()];
    header.extend(lv.iter().map(|d| format!("{} (s)", d.name)));
    header.push("p99 wait none (ns)".to_owned());
    header.push("p99 wait heavy+faults (ns)".to_owned());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "robustness",
        "Lock robustness under preemption and injected faults",
        &header_refs,
    );
    for row in sweep(settings, scale, cells) {
        let mut cells = vec![row.kind.as_str().to_owned(), row.cpus.to_string()];
        cells.extend(
            row.cells
                .iter()
                .map(|c| fmt_secs(c.seconds, c.finished)),
        );
        cells.push(row.cells[0].p99_wait_ns.to_string());
        cells.push(
            row.cells
                .last()
                .expect("at least one level")
                .p99_wait_ns
                .to_string(),
        );
        report.push_row(cells);
    }
    report.push_note(
        "Table 4 mechanism, systematically: under heavy preemption the FIFO \
         queue locks (MCS/CLH) degrade an order of magnitude more than the \
         backoff family; stacking holder-preemption, migration, slow-node \
         and jitter faults preserves the ordering",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_degradation(rows: &[SweepRow], kind: LockKind, level: &str) -> f64 {
        rows.iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.degradation(level))
            .fold(0.0, f64::max)
    }

    #[test]
    fn queue_locks_collapse_an_order_of_magnitude_harder() {
        let rows = sweep(&Settings::default(), Scale::Fast, &Cells::new());
        for level in ["heavy", "heavy+faults"] {
            for queue in [LockKind::Mcs, LockKind::Clh] {
                let q = max_degradation(&rows, queue, level);
                for backoff in [LockKind::Hbo, LockKind::HboGt, LockKind::HboGtSd] {
                    let b = max_degradation(&rows, backoff, level);
                    assert!(
                        q >= 10.0 * b,
                        "{queue} degraded {q:.1}x at {level}, {backoff} {b:.1}x: \
                         expected an order-of-magnitude gap"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_layers_fire_in_the_heaviest_level() {
        let rows = sweep(&Settings::default(), Scale::Fast, &Cells::new());
        let faulted: Vec<&Cell> = rows
            .iter()
            .flat_map(|r| r.cells.iter().filter(|c| c.level == "heavy+faults"))
            .collect();
        assert!(faulted.iter().any(|c| c.migrations > 0), "no migration fired");
        assert!(faulted.iter().all(|c| c.preemptions > 0), "no preemption fired");
        let clean: Vec<&Cell> = rows
            .iter()
            .flat_map(|r| r.cells.iter().filter(|c| c.level == "none"))
            .collect();
        assert!(clean.iter().all(|c| c.preemptions == 0 && c.migrations == 0));
    }

    #[test]
    fn report_has_one_row_per_kind_and_cpu_count() {
        let settings = Settings::default();
        let r = run(&settings, Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), settings.kinds.len() * 2);
    }
}
