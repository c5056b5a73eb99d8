//! Figure 5 — the new microbenchmark (28 processors): iteration time and
//! node handoffs vs `critical_work` — and Table 2, the normalized traffic
//! at `critical_work = 1500`.
//!
//! The sweep honors `--kinds` (default: every registered kind, so the
//! post-2003 contenders ride alongside the paper's eight); Table 2 stays
//! on the catalog's paper set, normalized to TATAS_EXP as published.

use hbo_locks::{LockCatalog, LockKind};
use nuca_workloads::modern::ModernConfig;
use nucasim::MachineConfig;

use crate::cells::ModernCell;
use crate::report::{fmt_ratio, Report};
use crate::{Cell, Cells, Scale, Settings};

/// The Fig. 5 cell for `kind` at `critical_work` (28 CPUs at full
/// scale, 8 at fast).
pub fn config(
    settings: &Settings,
    scale: Scale,
    kind: LockKind,
    critical_work: u32,
) -> ModernConfig {
    let (per_node, iters) = scale.pick((14, 60), (4, 20));
    ModernConfig {
        kind,
        threads: per_node * 2,
        iterations: iters,
        critical_work,
        ..settings.modern(MachineConfig::wildfire(2, per_node))
    }
}

pub(crate) fn sweep(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Full => vec![0, 300, 600, 900, 1200, 1500, 1800, 2100],
        Scale::Fast => vec![0, 700, 1500],
    }
}

/// The sweep's configs in row-major (kind, `critical_work`) order; TATAS
/// cells beyond cw=1300 are `None`.
fn grid(settings: &Settings, scale: Scale) -> Vec<Option<ModernConfig>> {
    let cws = sweep(scale);
    let cell = |kind, cw| {
        (kind != LockKind::Tatas || cw <= 1300).then(|| config(settings, scale, kind, cw))
    };
    settings.kinds.iter().flat_map(|&kind| cws.iter().map(move |&cw| cell(kind, cw))).collect()
}

/// The cells Fig. 5 reads (`lat_hist` reads the same grid).
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    grid(settings, scale).into_iter().flatten().map(Cell::Modern).collect()
}

/// The sweep's results in [`grid`] order.
pub(crate) fn results<'c>(
    settings: &Settings,
    scale: Scale,
    cells: &'c Cells,
) -> Vec<Option<&'c ModernCell>> {
    let grid = grid(settings, scale);
    grid.iter().map(|cfg| cfg.as_ref().map(|cfg| cells.modern(cfg))).collect()
}

/// Runs the `critical_work` sweep for all locks; returns the two panels.
///
/// Like the paper, TATAS is only measured up to `critical_work = 1300`
/// "because its performance is poor for higher levels of contention".
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Vec<Report> {
    let cws = sweep(scale);
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(cws.iter().map(|c| format!("cw={c}")));

    let mut time = Report::new(
        "fig5_time",
        "New microbenchmark: time per iteration (ns) vs critical_work, 28 processors",
        &header,
    );
    let mut handoff = Report::new(
        "fig5_handoff",
        "New microbenchmark: node-handoff ratio vs critical_work",
        &header,
    );

    let sweep_kinds = &settings.kinds;
    let results = results(settings, scale, cells);

    for (ki, kind) in sweep_kinds.iter().enumerate() {
        let mut trow = vec![kind.as_str().to_owned()];
        let mut hrow = vec![kind.as_str().to_owned()];
        for r in &results[ki * cws.len()..(ki + 1) * cws.len()] {
            match r {
                Some(cell) => {
                    trow.push(format!("{:.0}", cell.micro.ns_per_iteration));
                    hrow.push(fmt_ratio(cell.micro.handoff_ratio));
                }
                None => {
                    trow.push("-".to_owned());
                    hrow.push("-".to_owned());
                }
            }
        }
        time.push_row(trow);
        handoff.push_row(hrow);
    }
    time.push_note(
        "paper: queue locks perform almost identically; NUCA-aware locks \
         perform better the more contention there is",
    );
    vec![time, handoff]
}

/// Table 2's operating point.
const TABLE2_CRITICAL_WORK: u32 = 1500;

/// The cells Table 2 reads: Fig. 5's paper kinds at its operating point.
pub fn table2_cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    LockCatalog::paper()
        .iter()
        .map(|&kind| Cell::Modern(config(settings, scale, kind, TABLE2_CRITICAL_WORK)))
        .collect()
}

/// Table 2 — local/global transactions at `critical_work = 1500`,
/// normalized to TATAS_EXP.
pub fn run_table2(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let table_kinds = LockCatalog::paper();
    let results: Vec<_> = table_kinds
        .iter()
        .map(|&kind| cells.modern(&config(settings, scale, kind, TABLE2_CRITICAL_WORK)))
        .collect();
    let baseline_idx = table_kinds
        .iter()
        .position(|&k| k == LockKind::TatasExp)
        .expect("TATAS_EXP is in the paper set");
    let baseline = &results[baseline_idx].micro;
    let mut report = Report::new(
        "table2",
        "Normalized local and global traffic, new microbenchmark (critical_work=1500)",
        &["Lock Type", "Local Transactions", "Global Transactions"],
    );
    for (kind, cell) in table_kinds.iter().zip(results) {
        let r = &cell.micro;
        report.push_row(vec![
            kind.as_str().to_owned(),
            format!("{:.2}", r.traffic.local as f64 / baseline.traffic.local as f64),
            format!(
                "{:.2}",
                r.traffic.global as f64 / baseline.traffic.global as f64
            ),
        ]);
    }
    report.push_note(format!(
        "TATAS_EXP absolute: {} local, {} global transactions \
         (paper: 15.1M local, 8.9M global at full length)",
        baseline.traffic.local, baseline.traffic.global
    ));
    report.push_note(
        "paper: RH/HBO/HBO_GT/HBO_GT_SD global = 0.28-0.30; MCS/CLH = 0.63-0.65",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_cover_all_selected_locks() {
        let reports = crate::fast(cells, run);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].rows(), LockCatalog::kinds().len());
        // The modern contenders ride alongside the paper's eight.
        assert!(reports[0].row_by_key("CNA").is_some());
        assert!(reports[0].row_by_key("RECIP").is_some());
        // TATAS is dashed out beyond cw=1300.
        let tatas = reports[0].row_by_key("TATAS").unwrap();
        assert_eq!(tatas.last().unwrap(), "-");
    }

    #[test]
    fn table2_normalizes_baseline_to_one() {
        let t = crate::fast(table2_cells, run_table2);
        let exp = t.row_by_key("TATAS_EXP").unwrap();
        assert_eq!(exp[1], "1.00");
        assert_eq!(exp[2], "1.00");
        // The headline: NUCA locks cut global traffic well below the
        // queue locks.
        let hbo_gt: f64 = t.row_by_key("HBO_GT").unwrap()[2].parse().unwrap();
        let mcs: f64 = t.row_by_key("MCS").unwrap()[2].parse().unwrap();
        assert!(hbo_gt < mcs, "HBO_GT {hbo_gt} vs MCS {mcs}");
        assert!(hbo_gt < 0.8);
    }
}
