//! Table 4 and Figure 7 — the Raytrace deep-dive: execution time at 1, 28
//! and 30 processors (the 30-processor runs suffer OS preemption, which
//! collapses the queue locks), and the speedup curve. Both read
//! Raytrace's 1-CPU and 28-CPU runs, the application study's cells.

use std::sync::Arc;

use nuca_topology::Topology;
use nuca_workloads::apps::{app_by_name, AppReport, AppRunConfig};
use nucasim::{MachineConfig, PreemptionConfig};

use crate::apps_exp::app_cfg;
use crate::report::{fmt_secs, Report};
use crate::{runner, Cells, Scale, Settings};

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

/// Table 4 — Raytrace execution time at 1, 28 and 30 CPUs.
pub fn run_table4(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let ray = app_by_name("Raytrace").expect("raytrace is studied");
    let mut report = Report::new(
        "table4",
        "Raytrace performance (simulated seconds)",
        &["Lock Type", "1 CPU", "28 CPUs", "30 CPUs (preempted)"],
    );
    // Budget for the preempted runs: generous, but finite — queue locks
    // that exceed it print as "> N s", the paper's "> 200 s" rows.
    let budget = scale.pick(12_500_000_000u64, 1_500_000_000u64);
    // Three independent runs per lock (1p, 28p, 30p-preempted), flattened
    // into one job list and read back per lock in fixed order.
    let mut jobs: Vec<Box<dyn FnOnce() -> Arc<AppReport> + Send + '_>> = Vec::new();
    for &kind in hbo_locks::LockCatalog::paper() {
        let ray1 = ray.clone();
        jobs.push(Box::new(move || {
            cells.app(&ray1, &app_cfg(settings, scale, kind, 1))
        }));
        let ray28 = ray.clone();
        jobs.push(Box::new(move || {
            cells.app(&ray28, &app_cfg(settings, scale, kind, 28))
        }));
        let ray30 = ray.clone();
        jobs.push(Box::new(move || {
            let mut cfg30 = AppRunConfig {
                machine: settings.machine(prototype_30p(scale)),
                cycle_limit: budget,
                ..app_cfg(settings, scale, kind, 28)
            };
            cfg30.threads = cfg30.machine.topology.num_cpus();
            cells.app(&ray30, &cfg30)
        }));
    }
    let results = runner::run_jobs(jobs);
    for (ki, kind) in hbo_locks::LockCatalog::paper().iter().enumerate() {
        let [one, twenty_eight, thirty] = &results[ki * 3..ki * 3 + 3] else {
            unreachable!("three runs per lock kind");
        };
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

/// Figure 7 — Raytrace speedup vs processor count.
pub fn run_fig7(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let ray = app_by_name("Raytrace").expect("raytrace is studied");
    let counts: Vec<usize> = scale.pick(vec![1, 4, 8, 12, 16, 20, 24, 28], vec![1, 4, 8]);
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(counts.iter().map(|c| format!("{c}p")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new("fig7", "Speedup for Raytrace", &header_refs);

    // Per lock: the sequential baseline plus each swept processor count.
    // The p=1 sweep point is the baseline's cell, so it runs once.
    let jobs: Vec<_> = hbo_locks::LockCatalog::paper()
        .iter()
        .flat_map(|&kind| {
            std::iter::once((kind, 1usize)).chain(counts.iter().map(move |&p| (kind, p)))
        })
        .map(|(kind, p)| {
            let ray = ray.clone();
            move || cells.app(&ray, &app_cfg(settings, scale, kind, p))
        })
        .collect();
    let results = runner::run_jobs(jobs);
    let stride = 1 + counts.len();
    for (ki, kind) in hbo_locks::LockCatalog::paper().iter().enumerate() {
        let chunk = &results[ki * stride..(ki + 1) * stride];
        let seq = &chunk[0];
        let mut row = vec![kind.as_str().to_owned()];
        for r in &chunk[1..] {
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
        let r = run_table4(&Settings::default(), Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), 8);
    }

    #[test]
    fn fig7_speedup_at_one_cpu_is_one() {
        let r = run_fig7(&Settings::default(), Scale::Fast, &Cells::new());
        for i in 0..r.rows() {
            let s: f64 = r.cell(i, 1).unwrap().parse().unwrap();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}
