//! Table 4 and Figure 7 — the Raytrace deep-dive: execution time at 1, 28
//! and 30 processors (the 30-processor runs suffer OS preemption, which
//! collapses the queue locks), and the speedup curve. Both read
//! Raytrace's 1-CPU and 28-CPU runs, the application study's cells.

use hbo_locks::{LockCatalog, LockKind};
use nuca_topology::Topology;
use nuca_workloads::apps::{app_by_name, AppModel, AppRunConfig};
use nucasim::{MachineConfig, PreemptionConfig};

use crate::apps_exp::app_cfg;
use crate::report::{fmt_secs, Report};
use crate::{Cell, Cells, Scale, Settings};

fn raytrace() -> AppModel {
    app_by_name("Raytrace").expect("raytrace is studied")
}

/// The paper's 30-processor machine: the 16 + 14 WildFire prototype, with
/// daemon preemption enabled (a fully populated machine leaves the OS
/// nowhere idle to run).
fn prototype_30p(scale: Scale) -> MachineConfig {
    let topo = match scale {
        Scale::Full => Topology::builder().node(16).node(14).build().expect("static"),
        Scale::Fast => Topology::builder().node(5).node(4).build().expect("static"),
    };
    // Fast runs are orders of magnitude shorter, so the disturbance must
    // arrive proportionally more often to land at all.
    let preemption = match scale {
        Scale::Full => PreemptionConfig::multiprogrammed(),
        Scale::Fast => PreemptionConfig {
            mean_gap: 120_000,
            quantum: 300_000,
        },
    };
    MachineConfig {
        topology: topo,
        ..MachineConfig::wildfire(2, 2)
    }
    .with_preemption(preemption)
}

/// Table 4's three runs of `kind`: 1 CPU, 28 CPUs, and the 30-CPU
/// prototype under preemption.
fn table4_cfgs(settings: &Settings, scale: Scale, kind: LockKind) -> [AppRunConfig; 3] {
    // Budget for the preempted runs: generous, but finite — queue locks
    // that exceed it print as "> N s", the paper's "> 200 s" rows.
    let budget = scale.pick(12_500_000_000u64, 1_500_000_000u64);
    let mut cfg30 = AppRunConfig {
        machine: settings.machine(prototype_30p(scale)),
        cycle_limit: budget,
        ..app_cfg(settings, scale, kind, 28)
    };
    cfg30.threads = cfg30.machine.topology.num_cpus();
    [
        app_cfg(settings, scale, kind, 1),
        app_cfg(settings, scale, kind, 28),
        cfg30,
    ]
}

/// Raytrace cells with each paper lock's `cfgs`.
fn raytrace_cells<I: IntoIterator<Item = AppRunConfig>>(cfgs: impl Fn(LockKind) -> I) -> Vec<Cell> {
    let ray = raytrace();
    let cfgs = LockCatalog::paper().iter().flat_map(|&kind| cfgs(kind));
    cfgs.map(|cfg| Cell::App(ray.clone(), cfg)).collect()
}

/// The cells Table 4 reads.
pub fn table4_cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    raytrace_cells(|kind| table4_cfgs(settings, scale, kind))
}

/// Table 4 — Raytrace execution time at 1, 28 and 30 CPUs.
pub fn run_table4(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let ray = raytrace();
    let mut report = Report::new(
        "table4",
        "Raytrace performance (simulated seconds)",
        &["Lock Type", "1 CPU", "28 CPUs", "30 CPUs (preempted)"],
    );
    for &kind in LockCatalog::paper() {
        let [one, twenty_eight, thirty] =
            table4_cfgs(settings, scale, kind).map(|cfg| cells.app(&ray, &cfg));
        report.push_row(vec![
            kind.as_str().to_owned(),
            fmt_secs(one.seconds, one.finished),
            fmt_secs(twenty_eight.seconds, twenty_eight.finished),
            fmt_secs(thirty.seconds, thirty.finished),
        ]);
    }
    report.push_note(
        "paper: MCS/CLH 1.41/1.38 s at 28 CPUs but > 200 s at 30 CPUs; \
         RH/HBO family 0.62-0.80 s at both",
    );
    report
}

/// Fig. 7's runs of `kind`: the sequential baseline, then each swept
/// processor count (the p=1 sweep point is the baseline's cell).
fn fig7_cfgs(settings: &Settings, scale: Scale, kind: LockKind) -> Vec<AppRunConfig> {
    std::iter::once(1)
        .chain(fig7_counts(scale))
        .map(|p| app_cfg(settings, scale, kind, p))
        .collect()
}

fn fig7_counts(scale: Scale) -> Vec<usize> {
    scale.pick(vec![1, 4, 8, 12, 16, 20, 24, 28], vec![1, 4, 8])
}

/// The cells Fig. 7 reads.
pub fn fig7_cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    raytrace_cells(|kind| fig7_cfgs(settings, scale, kind))
}

/// Figure 7 — Raytrace speedup vs processor count.
pub fn run_fig7(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let ray = raytrace();
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(fig7_counts(scale).iter().map(|c| format!("{c}p")));
    let mut report = Report::new("fig7", "Speedup for Raytrace", &header);
    for &kind in LockCatalog::paper() {
        let cfgs = fig7_cfgs(settings, scale, kind);
        let seq = cells.app(&ray, &cfgs[0]);
        let mut row = vec![kind.as_str().to_owned()];
        for cfg in &cfgs[1..] {
            let r = cells.app(&ray, cfg);
            if r.finished {
                row.push(format!("{:.2}", seq.seconds / r.seconds));
            } else {
                row.push("stuck".to_owned());
            }
        }
        report.push_row(row);
    }
    report.push_note(
        "paper: all non-NUCA locks decline above 12 processors; the \
         NUCA-aware locks scale moderately up to 28",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_runs_all_locks() {
        let r = crate::fast(table4_cells, run_table4);
        assert_eq!(r.rows(), 8);
    }

    #[test]
    fn fig7_speedup_at_one_cpu_is_one() {
        let r = crate::fast(fig7_cells, run_fig7);
        for i in 0..r.rows() {
            let s: f64 = r.cell(i, 1).unwrap().parse().unwrap();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}
