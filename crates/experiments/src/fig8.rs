//! Figure 8 — fairness: the spread between the first and last thread to
//! finish the new microbenchmark.

use nuca_workloads::modern::ModernConfig;
use nucasim::MachineConfig;

use crate::report::Report;
use crate::{runner, Cells, Scale, Settings};

/// Runs the fairness study for all eight locks.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let (per_node, iters) = scale.pick((14, 250), (4, 25));
    let mut report = Report::new(
        "fig8",
        "Fairness: completion-time difference between first and last thread (%)",
        &["Lock Type", "Spread %"],
    );
    let results = runner::run_jobs(
        hbo_locks::LockCatalog::paper()
            .iter()
            .map(|&kind| {
                move || {
                    cells.modern(&ModernConfig {
                        kind,
                        threads: per_node * 2,
                        iterations: iters,
                        critical_work: 700,
                        ..settings.modern(MachineConfig::wildfire(2, per_node))
                    })
                }
            })
            .collect(),
    );
    for (kind, r) in hbo_locks::LockCatalog::paper().iter().zip(&results) {
        let spread = r.micro.finish_spread.unwrap_or(f64::NAN) * 100.0;
        report.push_row(vec![kind.as_str().to_owned(), format!("{spread:.1}")]);
    }
    report.push_note(
        "paper: queue locks 2.1% (fairest), HBO_GT_SD 5.6%, TATAS_EXP 28.9% (most unfair)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_locks_fairer_than_backoff_locks() {
        // Paper Fig. 8: queue locks 2.1% spread (fairest); TATAS_EXP the
        // most unfair at 28.9%; HBO locks in between.
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        let get = |k: &str| -> f64 { r.row_by_key(k).unwrap()[1].parse().unwrap() };
        let mcs = get("MCS");
        assert!(
            mcs < get("TATAS_EXP"),
            "FIFO MCS spread {mcs}% must undercut TATAS_EXP"
        );
        assert!(
            mcs < get("HBO_GT"),
            "FIFO MCS spread {mcs}% must undercut HBO_GT"
        );
    }

    #[test]
    fn all_rows_present() {
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), 8);
    }
}
