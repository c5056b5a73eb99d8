//! Tables 5 and 6 and Figure 6 — the application study at 28 processors.
//! All three read the same application runs, so within one invocation
//! they share their cells.

use hbo_locks::{LockCatalog, LockKind};
use nuca_workloads::apps::{studied_apps, AppModel, AppReport, AppRunConfig};
use nucasim::{MachineConfig, PreemptionConfig};

use crate::report::{fmt_secs, Report};
use crate::{Cell, Cells, Scale, Settings};

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

/// The 28-processor app × paper-lock grid in row-major order.
fn grid(settings: &Settings, scale: Scale) -> Vec<(AppModel, AppRunConfig)> {
    let threads = scale.pick(28, 8);
    studied_apps()
        .into_iter()
        .flat_map(|app| {
            LockCatalog::paper()
                .iter()
                .map(move |&kind| (app.clone(), app_cfg(settings, scale, kind, threads)))
        })
        .collect()
}

/// The cells Tables 5 and 6 read: the app × lock grid.
pub fn grid_cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    grid(settings, scale)
        .into_iter()
        .map(|(app, cfg)| Cell::App(app, cfg))
        .collect()
}

/// The grid's runs: each app's name and its row of paper locks.
fn run_all<'c>(
    settings: &Settings,
    scale: Scale,
    cells: &'c Cells,
) -> Vec<(&'static str, Vec<&'c AppReport>)> {
    grid(settings, scale)
        .chunks(LockCatalog::paper().len())
        .map(|row| {
            let runs = row.iter().map(|(app, cfg)| cells.app(app, cfg)).collect();
            (row[0].0.name, runs)
        })
        .collect()
}

fn lock_header() -> Vec<&'static str> {
    let mut cols = vec!["Program"];
    cols.extend(LockCatalog::paper().iter().map(|k| k.as_str()));
    cols
}

/// Table 5 — execution time in (simulated) seconds for 28-processor runs.
pub fn run_table5(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut report = Report::new(
        "table5",
        "Application execution time (s), 28-processor runs, 14 threads per node",
        &lock_header(),
    );
    let mut sums = vec![0.0f64; LockCatalog::paper().len()];
    let all = run_all(settings, scale, cells);
    for (name, runs) in &all {
        let mut row = vec![(*name).to_owned()];
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

/// The five locks Fig. 6 plots.
const FIG6_KINDS: [LockKind; 5] = [
    LockKind::Tatas,
    LockKind::TatasExp,
    LockKind::Mcs,
    LockKind::Clh,
    LockKind::HboGtSd,
];

/// Fig. 6's runs per app: one sequential baseline (lock algorithm is
/// irrelevant with a single thread; TATAS_EXP like the paper's baseline)
/// plus the five plotted locks at 28 processors.
fn fig6_grid(settings: &Settings, scale: Scale) -> Vec<(AppModel, AppRunConfig)> {
    let threads = scale.pick(28, 8);
    studied_apps()
        .into_iter()
        .flat_map(|app| {
            let mut runs = vec![(LockKind::TatasExp, 1)];
            runs.extend(FIG6_KINDS.iter().map(|&kind| (kind, threads)));
            runs.into_iter()
                .map(move |(kind, th)| (app.clone(), app_cfg(settings, scale, kind, th)))
        })
        .collect()
}

/// The cells Fig. 6 reads.
pub fn fig6_cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    fig6_grid(settings, scale)
        .into_iter()
        .map(|(app, cfg)| Cell::App(app, cfg))
        .collect()
}

/// Figure 6 — speedup (1-CPU time / 28-CPU time), normalized to
/// TATAS_EXP, for the five locks the paper plots.
pub fn run_fig6(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut cols = vec!["Program"];
    cols.extend(FIG6_KINDS.iter().map(|k| k.as_str()));
    let mut report = Report::new(
        "fig6",
        "Normalized speedup for 28-processor runs (TATAS_EXP = 1.0)",
        &cols,
    );
    let grid = fig6_grid(settings, scale);
    for chunk in grid.chunks(1 + FIG6_KINDS.len()) {
        let runs: Vec<&AppReport> = chunk.iter().map(|(app, cfg)| cells.app(app, cfg)).collect();
        let seq = runs[0];
        let speedups: Vec<f64> = runs[1..]
            .iter()
            .map(|par| seq.seconds / par.seconds)
            .collect();
        let base = speedups[1]; // TATAS_EXP
        let mut row = vec![chunk[0].0.name.to_owned()];
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
    let mut report = Report::new(
        "table6",
        "Normalized traffic (local/global) per application, 28-processor runs",
        &lock_header(),
    );
    for (name, runs) in run_all(settings, scale, cells) {
        let base = runs[1]; // TATAS_EXP
        let mut row = vec![name.to_owned()];
        for r in runs {
            let l = r.traffic.local as f64 / base.traffic.local.max(1) as f64;
            let g = r.traffic.global as f64 / base.traffic.global.max(1) as f64;
            row.push(format!("{l:.2} / {g:.2}"));
        }
        report.push_row(row);
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
        let r = crate::fast(grid_cells, run_table5);
        assert_eq!(r.rows(), 8);
        assert!(r.row_by_key("Average").is_some());
        assert!(r.row_by_key("Raytrace").is_some());
    }

    #[test]
    fn fig6_normalizes_tatas_exp_to_one() {
        let r = crate::fast(fig6_cells, run_fig6);
        for i in 0..r.rows() {
            assert_eq!(r.cell(i, 2), Some("1.00"), "row {i}");
        }
    }

    #[test]
    fn table6_rows_have_local_global_pairs() {
        let r = crate::fast(grid_cells, run_table6);
        assert_eq!(r.rows(), 7);
        let cell = r.cell(0, 2).unwrap();
        assert_eq!(cell, "1.00 / 1.00", "TATAS_EXP column is the baseline");
    }
}
