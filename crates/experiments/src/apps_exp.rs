//! Tables 5 and 6 and Figure 6 — the application study at 28 processors.
//! All three read the same application runs, so within one invocation
//! they share their cells.

use std::sync::Arc;

use hbo_locks::LockKind;
use nuca_workloads::apps::{studied_apps, AppModel, AppReport, AppRunConfig};
use nucasim::{MachineConfig, PreemptionConfig};

use crate::report::{fmt_secs, Report};
use crate::{runner, Cells, Scale, Settings};

pub(crate) fn app_cfg(
    settings: &Settings,
    scale: Scale,
    kind: LockKind,
    threads: usize,
) -> AppRunConfig {
    let per_node = scale.pick(14, 4);
    // 28-processor runs leave two of the prototype's 30 CPUs free for
    // Solaris daemons, so benchmark threads are never descheduled (which
    // is why the paper's queue locks survive 28p but collapse at 30p).
    let machine = settings.machine(MachineConfig::wildfire(2, per_node));
    let _ = PreemptionConfig::solaris_daemons;
    AppRunConfig {
        kind,
        machine,
        threads: threads.min(per_node * 2),
        params: settings.params(),
        scale: scale.pick(0.2, 0.004),
        ..AppRunConfig::default()
    }
}

fn run_all(
    settings: &Settings,
    scale: Scale,
    threads: usize,
    cells: &Cells,
) -> Vec<(AppModel, Vec<Arc<AppReport>>)> {
    // Full app × lock grid as independent jobs, regrouped per app in
    // fixed grid order.
    let apps = studied_apps();
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| hbo_locks::LockCatalog::paper().iter().map(|&kind| (app.clone(), kind)))
        .map(|(app, kind)| move || cells.app(&app, &app_cfg(settings, scale, kind, threads)))
        .collect();
    let mut results = runner::run_jobs(jobs).into_iter();
    apps.into_iter()
        .map(|app| {
            let runs = hbo_locks::LockCatalog::paper()
                .iter()
                .map(|_| results.next().expect("one result per grid cell"))
                .collect();
            (app, runs)
        })
        .collect()
}

fn lock_header() -> Vec<&'static str> {
    let mut cols = vec!["Program"];
    cols.extend(hbo_locks::LockCatalog::paper().iter().map(|k| k.as_str()));
    cols
}

/// Table 5 — execution time in (simulated) seconds for 28-processor runs.
pub fn run_table5(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let threads = scale.pick(28, 8);
    let mut report = Report::new(
        "table5",
        "Application execution time (s), 28-processor runs, 14 threads per node",
        &lock_header(),
    );
    let mut sums = vec![0.0f64; hbo_locks::LockCatalog::paper().len()];
    let all = run_all(settings, scale, threads, cells);
    for (app, runs) in &all {
        let mut row = vec![app.name.to_owned()];
        for (i, r) in runs.iter().enumerate() {
            sums[i] += r.seconds;
            row.push(fmt_secs(r.seconds, r.finished));
        }
        report.push_row(row);
    }
    let mut avg = vec!["Average".to_owned()];
    for s in &sums {
        avg.push(format!("{:.3}", s / all.len() as f64));
    }
    report.push_row(avg);
    report.push_note(
        "paper averages: TATAS 2.47, TATAS_EXP 2.13, MCS 2.22, CLH 2.31, \
         RH 1.99, HBO 2.00, HBO_GT 2.06, HBO_GT_SD 1.92 s",
    );
    report
}

/// Figure 6 — speedup (1-CPU time / 28-CPU time), normalized to
/// TATAS_EXP, for the five locks the paper plots.
pub fn run_fig6(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let threads = scale.pick(28, 8);
    let kinds = [
        LockKind::Tatas,
        LockKind::TatasExp,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::HboGtSd,
    ];
    let mut cols = vec!["Program"];
    cols.extend(kinds.iter().map(|k| k.as_str()));
    let mut report = Report::new(
        "fig6",
        "Normalized speedup for 28-processor runs (TATAS_EXP = 1.0)",
        &cols,
    );
    // Per app: one sequential baseline (lock algorithm is irrelevant with
    // a single thread; use TATAS_EXP like the paper's baseline) plus the
    // five plotted locks — flattened into one job grid.
    let apps = studied_apps();
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            let mut runs = vec![(app.clone(), LockKind::TatasExp, 1)];
            runs.extend(kinds.iter().map(|&kind| (app.clone(), kind, threads)));
            runs
        })
        .map(|(app, kind, th)| move || cells.app(&app, &app_cfg(settings, scale, kind, th)))
        .collect();
    let results = runner::run_jobs(jobs);
    let stride = 1 + kinds.len();
    for (ai, app) in apps.iter().enumerate() {
        let chunk = &results[ai * stride..(ai + 1) * stride];
        let seq = &chunk[0];
        let speedups: Vec<f64> = chunk[1..]
            .iter()
            .map(|par| seq.seconds / par.seconds)
            .collect();
        let base = speedups[1]; // TATAS_EXP
        let mut row = vec![app.name.to_owned()];
        for s in &speedups {
            row.push(format!("{:.2}", s / base));
        }
        report.push_row(row);
    }
    report.push_note(
        "paper: HBO_GT_SD normalized speedup above 1 for every program, \
         largest gain on Raytrace",
    );
    report
}

/// Table 6 — normalized local/global traffic per application.
pub fn run_table6(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let threads = scale.pick(28, 8);
    let mut report = Report::new(
        "table6",
        "Normalized traffic (local/global) per application, 28-processor runs",
        &lock_header(),
    );
    for (app, runs) in run_all(settings, scale, threads, cells) {
        let base = &runs[1]; // TATAS_EXP
        let mut row = vec![app.name.to_owned()];
        for r in &runs {
            let l = r.traffic.local as f64 / base.traffic.local.max(1) as f64;
            let g = r.traffic.global as f64 / base.traffic.global.max(1) as f64;
            row.push(format!("{l:.2} / {g:.2}"));
        }
        report.push_row(row);
        let _ = app;
    }
    report.push_note(
        "paper averages (local/global): TATAS 1.05/1.04, MCS 0.98/0.88, \
         RH 0.98/0.81, HBO 0.95/0.81, HBO_GT 0.94/0.81, HBO_GT_SD 0.97/0.85",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_has_seven_apps_plus_average() {
        let r = run_table5(&Settings::default(), Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), 8);
        assert!(r.row_by_key("Average").is_some());
        assert!(r.row_by_key("Raytrace").is_some());
    }

    #[test]
    fn fig6_normalizes_tatas_exp_to_one() {
        let r = run_fig6(&Settings::default(), Scale::Fast, &Cells::new());
        for i in 0..r.rows() {
            assert_eq!(r.cell(i, 2), Some("1.00"), "row {i}");
        }
    }

    #[test]
    fn table6_rows_have_local_global_pairs() {
        let r = run_table6(&Settings::default(), Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), 7);
        let cell = r.cell(0, 2).unwrap();
        assert_eq!(cell, "1.00 / 1.00", "TATAS_EXP column is the baseline");
    }
}
