//! Extension experiment — collocation (paper §3).
//!
//! The paper's QOLB discussion notes that "effective *collocation*
//! (allocation of the protected data in the same cache line as the lock)
//! ... may reduce the lock hand-over time as well as the interference of
//! lock traffic with data access". Software locks can do this too for
//! small protected objects: the first line of the critical data rides the
//! lock line to the new holder.
//!
//! We run the new microbenchmark with and without collocation for HBO_GT
//! (a single-word lock, collocatable) and MCS (no single lock word, so
//! collocation is a no-op — it serves as the control).

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;
use nucasim::MachineConfig;

use crate::report::Report;
use crate::{Cells, Scale, Settings};

pub(crate) fn cfg(
    settings: &Settings,
    scale: Scale,
    kind: LockKind,
    critical_work: u32,
    collocate: bool,
) -> ModernConfig {
    let (per_node, iters) = scale.pick((14, 40), (4, 15));
    ModernConfig {
        kind,
        threads: per_node * 2,
        iterations: iters,
        critical_work,
        collocate,
        ..settings.modern(MachineConfig::wildfire(2, per_node))
    }
}

/// Runs the collocation ablation across contention levels.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let cws = [8u32, 100, 1500];
    let mut header = vec!["Configuration".to_owned()];
    header.extend(cws.iter().map(|c| format!("cw={c} ns/iter")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "colloc",
        "Collocating the first protected line with the lock word",
        &header_refs,
    );

    for (label, kind, colloc) in [
        ("HBO_GT", LockKind::HboGt, false),
        ("HBO_GT+colloc", LockKind::HboGt, true),
        ("MCS (control)", LockKind::Mcs, false),
        ("MCS+colloc (no-op)", LockKind::Mcs, true),
    ] {
        let mut row = vec![label.to_owned()];
        for &cw in &cws {
            let r = &cells.modern(&cfg(settings, scale, kind, cw, colloc)).micro;
            row.push(format!("{:.0}", r.ns_per_iteration));
        }
        report.push_row(row);
    }
    report.push_note(
        "collocation saves one data transfer per handover — largest in \
         relative terms for tiny critical sections",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_configurations() {
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), 4);
    }

    #[test]
    fn collocation_helps_tiny_critical_sections() {
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        let ns = |k: &str| -> f64 { r.row_by_key(k).unwrap()[1].parse().unwrap() };
        assert!(
            ns("HBO_GT+colloc") <= ns("HBO_GT") * 1.05,
            "collocated {} vs plain {}",
            ns("HBO_GT+colloc"),
            ns("HBO_GT")
        );
    }

    #[test]
    fn collocation_is_noop_for_queue_locks() {
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        let ns = |k: &str| -> f64 { r.row_by_key(k).unwrap()[1].parse().unwrap() };
        let plain = ns("MCS (control)");
        let colloc = ns("MCS+colloc (no-op)");
        assert!(
            (plain - colloc).abs() < 1e-6,
            "MCS runs must be identical: {plain} vs {colloc}"
        );
    }
}
