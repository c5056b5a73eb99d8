//! `showdown` — the 2003 field against the post-2003 contenders.
//!
//! The catalog's modern kinds (CNA, TWA, Reciprocating) were published
//! fifteen-plus years after the paper, each attacking the same NUCA
//! contention problem from a different angle: CNA reorders an MCS-style
//! queue for node locality, TWA splits the ticket lock's waiter herd
//! across a hashed array, Reciprocating admits arrivals in palindromic
//! batches. This artifact runs every selected kind head-to-head on the
//! Fig. 5 microbenchmark at the Table 2 operating point, undisturbed and
//! under the robustness artifact's heaviest disturbance level (heavy
//! multiprogramming plus the full fault stack), and reports per cell:
//! completion time, p99 time-to-acquire, undisturbed handoff locality,
//! and the fault-degradation factor — alongside each kind's catalog
//! family and year, so the table reads as a forty-year timeline.
//!
//! The headline question: does HBO_GT_SD's NUCA advantage survive CNA —
//! a lock that gets comparable handoff locality out of a FIFO-ish queue —
//! once preemption enters? (Spoiler, reproduced here: CNA inherits the
//! queue family's preemption fragility; the backoff family's anarchy is
//! what degrades gracefully.)
//!
//! Honors `--kinds`; each run is a cell of the invocation's plan, so the
//! TSV is byte-identical for any `--jobs` setting.

use hbo_locks::{LockCatalog, LockKind};
use nuca_workloads::modern::ModernConfig;
use nucasim::MachineConfig;

use crate::report::{fmt_ratio, fmt_secs, Report};
use crate::robustness::{extremes, grid, sweep_rows, Disturbance, SweepRow};
use crate::{Cells, Scale, Settings};

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
        iterations: scale.pick(100, 20),
        // The Table 2 operating point: enough critical work that handoff
        // locality, not raw grant throughput, decides the ordering.
        critical_work: 1500,
        cycle_limit: scale.pick(12_500_000_000, 3_000_000_000),
        ..settings.modern(machine)
    }
}

/// The cells the `showdown` artifact reads.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<crate::Cell> {
    let grid = grid(settings, scale, &extremes(scale), cell_cfg);
    grid.into_iter().map(crate::Cell::Modern).collect()
}

/// The sweep over [`Settings::kinds`] × processor count × disturbance
/// level, read from `cells`.
pub fn sweep(settings: &Settings, scale: Scale, cells: &Cells) -> Vec<SweepRow> {
    sweep_rows(settings, scale, cells, &extremes(scale), cell_cfg)
}

/// The `showdown` artifact table.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let dist = extremes(scale);
    let mut header = vec![
        "Lock Type".to_owned(),
        "Family".to_owned(),
        "Year".to_owned(),
        "CPUs".to_owned(),
    ];
    header.extend(dist.iter().map(|d| format!("{} (s)", d.name)));
    header.push("degradation".to_owned());
    for d in &dist {
        header.push(format!("p99 wait {} (ns)", d.name));
    }
    header.push("remote HO rate".to_owned());
    let mut report = Report::new(
        "showdown",
        "Modern-lock showdown: 2003 field vs CNA/TWA/RECIP, undisturbed \
         and under the full fault stack (critical_work=1500)",
        &header,
    );
    for row in sweep(settings, scale, cells) {
        let info = LockCatalog::info(row.kind);
        let mut cells = vec![
            info.name.to_owned(),
            info.family.as_str().to_owned(),
            info.year.to_string(),
            row.cpus.to_string(),
        ];
        cells.extend(row.cells.iter().map(|c| fmt_secs(c.seconds, c.finished)));
        cells.push(format!("{:.1}", row.degradation("heavy+faults")));
        cells.extend(row.cells.iter().map(|c| c.p99_wait_ns.to_string()));
        // Locality from the undisturbed cell: the disturbed one measures
        // survival, not preference.
        cells.push(fmt_ratio(row.cells[0].handoff_ratio));
        report.push_row(cells);
    }
    report.push_note(
        "headline: CNA matches the HBO family's undisturbed handoff \
         locality from a queue, but inherits the queue family's collapse \
         under preemption — HBO_GT_SD's advantage in 2003 was robustness, \
         and it survives the 2019 contenders",
    );
    report.push_note(
        "degradation = heavy+faults time / undisturbed time; unfinished \
         runs report their cycle budget, so collapsed cells are lower \
         bounds",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_selected_grid_with_catalog_metadata() {
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), LockCatalog::kinds().len() * 2);
        // Modern contenders ride alongside every 2003 kind, with their
        // catalog family/year in the row.
        let cna = r.row_by_key("CNA").unwrap();
        assert_eq!(cna[1], "hybrid");
        assert_eq!(cna[2], "2019");
        let hbo = r.row_by_key("HBO_GT_SD").unwrap();
        assert_eq!(hbo[1], "backoff");
        assert_eq!(hbo[2], "2003");
        let recip = r.row_by_key("RECIP").unwrap();
        assert_eq!(recip[2], "2025");
    }

    #[test]
    fn faults_never_speed_a_lock_up() {
        for row in crate::fast(cells, sweep) {
            assert!(
                row.degradation("heavy+faults") >= 1.0,
                "{} at {} cpus sped up under faults: {:.2}",
                row.kind,
                row.cpus,
                row.degradation("heavy+faults")
            );
        }
    }

    #[test]
    fn cna_handoffs_are_node_clustered_twa_handoffs_are_fifo_blind() {
        // The tentpole physics, visible in the artifact itself: CNA's
        // secondary queue keeps handoffs node-local; TWA inherits the
        // ticket lock's node-blind FIFO order.
        let rows = crate::fast(cells, sweep);
        let rate = |kind: LockKind| {
            rows.iter()
                .filter(|r| r.kind == kind)
                .filter_map(|r| r.cells[0].handoff_ratio)
                .fold(0.0f64, f64::max)
        };
        assert!(
            rate(LockKind::Cna) < rate(LockKind::Twa),
            "CNA {:.3} should hand off more locally than TWA {:.3}",
            rate(LockKind::Cna),
            rate(LockKind::Twa)
        );
    }
}
