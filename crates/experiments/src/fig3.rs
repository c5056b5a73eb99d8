//! Figure 3 — the traditional microbenchmark on a 2-node WildFire:
//! iteration time (left panel) and node-handoff ratio (right panel) as the
//! processor count grows.

use hbo_locks::{LockCatalog, LockKind};
use nuca_workloads::traditional::TraditionalConfig;
use nucasim::MachineConfig;

use crate::report::{fmt_ratio, Report};
use crate::{Cell, Cells, Scale, Settings};

/// The swept processor counts.
fn proc_counts(scale: Scale) -> Vec<usize> {
    let (max_per_node, step) = scale.pick((14, 2), (4, 2));
    (2..=2 * max_per_node).step_by(step).collect()
}

/// The grid point for `kind` at `threads` processors.
fn config(settings: &Settings, scale: Scale, kind: LockKind, threads: usize) -> TraditionalConfig {
    let (max_per_node, iters) = scale.pick((14, 50), (4, 15));
    TraditionalConfig {
        kind,
        machine: settings.machine(MachineConfig::wildfire(2, max_per_node)),
        threads,
        iterations: iters,
        params: settings.params(),
        ..TraditionalConfig::default()
    }
}

/// The cells Fig. 3 reads: lock kind × processor count.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    let counts = proc_counts(scale);
    LockCatalog::paper()
        .iter()
        .flat_map(|&kind| counts.iter().map(move |&p| (kind, p)))
        .map(|(kind, p)| Cell::Traditional(config(settings, scale, kind, p)))
        .collect()
}

/// Renders the processor-count sweep for all eight locks as two panels.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Vec<Report> {
    let proc_counts = proc_counts(scale);
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(proc_counts.iter().map(|p| format!("{p}p")));

    let mut time = Report::new(
        "fig3_time",
        "Traditional microbenchmark: time per iteration (ns) vs processors",
        &header,
    );
    let mut handoff = Report::new(
        "fig3_handoff",
        "Traditional microbenchmark: node-handoff ratio vs processors",
        &header,
    );
    for &kind in LockCatalog::paper() {
        let mut trow = vec![kind.as_str().to_owned()];
        let mut hrow = vec![kind.as_str().to_owned()];
        for &p in &proc_counts {
            let r = cells.traditional(&config(settings, scale, kind, p));
            trow.push(format!("{:.0}", r.ns_per_iteration));
            hrow.push(fmt_ratio(r.handoff_ratio));
        }
        time.push_row(trow);
        handoff.push_row(hrow);
    }
    time.push_note(
        "paper: NUCA-aware locks take about half the time of any other \
         software lock at 8-10+ processors",
    );
    handoff.push_note(
        "paper: NUCA-aware locks show consistently low handoffs; queue \
         locks approach (N/2)/(N-1)",
    );
    vec![time, handoff]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_two_panels_with_all_locks() {
        let reports = crate::fast(cells, run);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.rows(), 8);
        }
    }

    #[test]
    fn queue_lock_handoff_exceeds_nuca_handoff_at_max_procs() {
        let reports = crate::fast(cells, run);
        let handoff = &reports[1];
        let last = handoff.row_by_key("MCS").unwrap().len() - 1;
        let mcs: f64 = handoff.row_by_key("MCS").unwrap()[last].parse().unwrap();
        let hbo: f64 = handoff.row_by_key("HBO_GT").unwrap()[last]
            .parse()
            .unwrap();
        assert!(mcs > hbo, "MCS {mcs} vs HBO_GT {hbo}");
    }
}
