//! Table 1 — uncontested performance of a single acquire-release pair.

use nuca_workloads::uncontested::run_uncontested;
use nucasim::MachineConfig;

use crate::report::Report;
use crate::{Scale, Settings};

/// Runs the three previous-owner scenarios for all eight locks.
pub fn run(settings: &Settings, scale: Scale) -> Report {
    let mut report = Report::new(
        "table1",
        "Uncontested performance for a single acquire-release operation",
        &["Lock Type", "Same Processor", "Same Node", "Remote Node"],
    );
    let cpus = scale.pick(14, 2);
    let machine = settings.machine(MachineConfig::wildfire(2, cpus));
    let params = settings.params();
    for &kind in hbo_locks::LockCatalog::paper() {
        let r = run_uncontested(kind, &machine, &params);
        report.push_row(vec![
            kind.as_str().to_owned(),
            format!("{} ns", r.same_processor_ns),
            format!("{} ns", r.same_node_ns),
            format!("{} ns", r.remote_node_ns),
        ]);
    }
    report.push_note(
        "paper (WildFire): TATAS 150/660/2050 ns, MCS 210/732/2120 ns, \
         RH 198/672/4480 ns, HBO 152/652/2010 ns",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_locks_in_paper_order() {
        let r = run(&Settings::default(), Scale::Fast);
        assert_eq!(r.rows(), 8);
        assert_eq!(r.cell(0, 0), Some("TATAS"));
        assert_eq!(r.cell(7, 0), Some("HBO_GT_SD"));
    }

    #[test]
    fn hbo_row_matches_tatas_class() {
        let r = run(&Settings::default(), Scale::Fast);
        let parse = |s: &str| s.trim_end_matches(" ns").parse::<u64>().unwrap();
        let tatas = parse(r.row_by_key("TATAS").unwrap()[1].as_str());
        let hbo = parse(r.row_by_key("HBO").unwrap()[1].as_str());
        assert!(hbo.abs_diff(tatas) < 60);
    }
}
