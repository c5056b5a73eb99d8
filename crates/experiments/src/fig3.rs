//! Figure 3 — the traditional microbenchmark on a 2-node WildFire:
//! iteration time (left panel) and node-handoff ratio (right panel) as the
//! processor count grows.

use nuca_workloads::traditional::{run_traditional, TraditionalConfig};
use nucasim::MachineConfig;

use crate::report::{fmt_ratio, Report};
use crate::{runner, Scale, Settings};

/// Runs the processor-count sweep for all eight locks; returns the two
/// panels as separate reports.
///
/// The sweep is a grid of independent simulations (lock kind × processor
/// count); each grid point is one self-contained job handed to
/// [`runner::run_jobs`] and the rows are assembled from the results in
/// fixed grid order, so the reports are identical however many threads ran
/// the jobs.
pub fn run(settings: &Settings, scale: Scale) -> Vec<Report> {
    let (max_per_node, iters, step) = scale.pick((14, 50, 2), (4, 15, 2));
    let proc_counts: Vec<usize> = (2..=2 * max_per_node).step_by(step).collect();

    let mut time = Report::new(
        "fig3_time",
        "Traditional microbenchmark: time per iteration (ns) vs processors",
        &header(&proc_counts),
    );
    let mut handoff = Report::new(
        "fig3_handoff",
        "Traditional microbenchmark: node-handoff ratio vs processors",
        &header(&proc_counts),
    );

    let jobs: Vec<_> = hbo_locks::LockCatalog::paper()
        .iter()
        .flat_map(|&kind| proc_counts.iter().map(move |&p| (kind, p)))
        .map(|(kind, p)| {
            move || {
                run_traditional(&TraditionalConfig {
                    kind,
                    machine: settings.machine(MachineConfig::wildfire(2, max_per_node)),
                    threads: p,
                    iterations: iters,
                    params: settings.params(),
                    ..TraditionalConfig::default()
                })
            }
        })
        .collect();
    let results = runner::run_jobs(jobs);

    for (ki, kind) in hbo_locks::LockCatalog::paper().iter().enumerate() {
        let mut trow = vec![kind.as_str().to_owned()];
        let mut hrow = vec![kind.as_str().to_owned()];
        for r in &results[ki * proc_counts.len()..(ki + 1) * proc_counts.len()] {
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

fn header(proc_counts: &[usize]) -> Vec<&'static str> {
    // Leak the small header strings: reports want &str and the sweep is
    // tiny and created once per process.
    let mut cols = vec!["Lock Type"];
    for p in proc_counts {
        cols.push(Box::leak(format!("{p}p").into_boxed_str()));
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_two_panels_with_all_locks() {
        let reports = run(&Settings::default(), Scale::Fast);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.rows(), 8);
        }
    }

    #[test]
    fn queue_lock_handoff_exceeds_nuca_handoff_at_max_procs() {
        let reports = run(&Settings::default(), Scale::Fast);
        let handoff = &reports[1];
        let last = handoff.row_by_key("MCS").unwrap().len() - 1;
        let mcs: f64 = handoff.row_by_key("MCS").unwrap()[last].parse().unwrap();
        let hbo: f64 = handoff.row_by_key("HBO_GT").unwrap()[last]
            .parse()
            .unwrap();
        assert!(mcs > hbo, "MCS {mcs} vs HBO_GT {hbo}");
    }
}
