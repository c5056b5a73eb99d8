//! `lat_hist` — acquire-latency distribution extension artifact.
//!
//! The paper reports *mean* iteration times (Fig. 5); the always-on
//! latency histograms let this reproduction also report the distribution
//! tail, which is where the starvation stories live: queue locks bound the
//! tail by FIFO order, backoff locks trade a fatter tail for better
//! throughput, and HBO_GT_SD's `GET_ANGRY` mechanism exists precisely to
//! clip that tail. Each cell shows `p50/p99/max` time-to-acquire in
//! nanoseconds at the Fig. 5 sweep points.

use nucasim::cycles_to_ns;

use crate::report::Report;
use crate::{fig5, Cells, Scale, Settings};

/// Runs the sweep and renders the percentile table.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let cws = fig5::sweep(scale);
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(cws.iter().map(|c| format!("cw={c}")));

    let mut report = Report::new(
        "lat_hist",
        "Time-to-acquire p50/p99/max (ns) vs critical_work, 28 processors",
        &header,
    );

    // Fig. 5's grid, so within one invocation these are Fig. 5's cells.
    let sweep_kinds = &settings.kinds;
    let results = fig5::results(settings, scale, cells);

    for (ki, kind) in sweep_kinds.iter().enumerate() {
        let mut row = vec![kind.as_str().to_owned()];
        for r in &results[ki * cws.len()..(ki + 1) * cws.len()] {
            row.push(match r {
                Some(cell) => {
                    let wait = &cell.wait;
                    match (wait.percentile(50.0), wait.percentile(99.0)) {
                        (Some(p50), Some(p99)) => format!(
                            "{}/{}/{}",
                            cycles_to_ns(p50),
                            cycles_to_ns(p99),
                            cycles_to_ns(wait.max())
                        ),
                        _ => "n/a".to_owned(),
                    }
                }
                None => "-".to_owned(),
            });
        }
        report.push_row(row);
    }
    report.push_note(
        "extension artifact (not in the paper): log2-bucket histogram \
         percentiles of the time from first acquire step to lock grant; \
         queue locks bound the tail, backoff locks trade tail for \
         throughput, GET_ANGRY clips the worst case",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_locks_with_percentile_cells() {
        let settings = Settings::default();
        let r = crate::fast(fig5::cells, run);
        assert_eq!(r.rows(), settings.kinds.len());
        for &kind in &settings.kinds {
            let row = r.row_by_key(kind.as_str()).unwrap();
            // Every measured cell is "p50/p99/max".
            let measured: Vec<&String> =
                row[1..].iter().filter(|c| c.as_str() != "-").collect();
            assert!(!measured.is_empty(), "{kind} has no measured cells");
            for cell in measured {
                let parts: Vec<&str> = cell.split('/').collect();
                assert_eq!(parts.len(), 3, "{kind}: bad cell {cell}");
                let p50: u64 = parts[0].parse().unwrap();
                let p99: u64 = parts[1].parse().unwrap();
                let max: u64 = parts[2].parse().unwrap();
                assert!(p50 <= p99 && p99 <= max, "{kind}: unordered {cell}");
            }
        }
        // TATAS keeps the Fig. 5 dash rule beyond cw=1300.
        let tatas = r.row_by_key("TATAS").unwrap();
        assert_eq!(tatas.last().unwrap(), "-");
    }

    #[test]
    fn queue_lock_tail_is_bounded_vs_backoff() {
        // FIFO order bounds the p99/p50 spread; plain TATAS does not. A
        // shape check at the last column TATAS is still measured at.
        let r = crate::fast(fig5::cells, run);
        let tatas = r.row_by_key("TATAS").unwrap();
        let col = tatas
            .iter()
            .rposition(|c| c != "-" && c != "TATAS")
            .expect("TATAS has a measured column");
        let spread = |key: &str| {
            let cell = &r.row_by_key(key).unwrap()[col];
            let parts: Vec<u64> = cell.split('/').map(|p| p.parse().unwrap()).collect();
            parts[1] as f64 / parts[0].max(1) as f64
        };
        assert!(
            spread("MCS") < spread("TATAS"),
            "MCS {:.1} vs TATAS {:.1}",
            spread("MCS"),
            spread("TATAS")
        );
    }
}
