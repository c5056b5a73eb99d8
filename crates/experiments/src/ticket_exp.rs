//! Extension experiment — ticket lock vs the list-based queue locks.
//!
//! The ticket lock is FIFO like MCS/CLH but its waiters all spin on one
//! shared `now_serving` word: every handover invalidates and refills
//! every waiter. The list-based queue locks exist precisely to avoid
//! that storm (each waiter spins on private storage). This experiment
//! quantifies the difference on the WildFire model and shows where HBO's
//! node affinity places relative to both.

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;

use crate::cells::CustomLock;
use crate::report::{fmt_ratio, Report};
use crate::{Cell, Cells, Scale, Settings};

/// colloc's uncollocated cell, so the two artifacts share their MCS and
/// HBO_GT runs.
fn cfg(settings: &Settings, scale: Scale, kind: LockKind, critical_work: u32) -> ModernConfig {
    crate::colloc::cfg(settings, scale, kind, critical_work, false)
}

/// The two contention levels.
const CWS: [u32; 2] = [100, 1500];

/// The catalog rows.
const KINDS: [LockKind; 3] = [LockKind::TatasExp, LockKind::Mcs, LockKind::HboGt];

/// The cells the comparison reads: each row's run per contention level,
/// TICKET on MCS's configs (`kind` only labels a custom run).
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    let mut cells: Vec<Cell> = KINDS
        .iter()
        .flat_map(|&kind| CWS.map(|cw| Cell::Modern(cfg(settings, scale, kind, cw))))
        .collect();
    cells.extend(
        CWS.map(|cw| Cell::Custom(CustomLock::Ticket, cfg(settings, scale, LockKind::Mcs, cw))),
    );
    cells
}

/// Renders TICKET vs MCS vs TATAS_EXP vs HBO_GT on the new
/// microbenchmark.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut header = vec!["Lock".to_owned()];
    for cw in CWS {
        header.push(format!("cw={cw} ns/iter"));
        header.push(format!("cw={cw} handoff"));
        header.push(format!("cw={cw} traffic"));
    }
    let mut report = Report::new(
        "ticket",
        "Ticket lock (shared-counter FIFO) vs list-based queue locks",
        &header,
    );

    let mut push = |label: &str, runs: [&crate::cells::ModernCell; 2]| {
        let mut row = vec![label.to_owned()];
        for cell in runs {
            let r = &cell.micro;
            row.push(format!("{:.0}", r.ns_per_iteration));
            row.push(fmt_ratio(r.handoff_ratio));
            row.push(r.traffic.total().to_string());
        }
        report.push_row(row);
    };
    for kind in KINDS {
        push(kind.as_str(), CWS.map(|cw| cells.modern(&cfg(settings, scale, kind, cw))));
    }
    push(
        "TICKET",
        CWS.map(|cw| cells.custom(CustomLock::Ticket, &cfg(settings, scale, LockKind::Mcs, cw))),
    );

    report.push_note(
        "TICKET is FIFO like MCS but wakes every waiter per handover; MCS \
         wakes exactly one — compare the traffic columns",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows() {
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), 4);
    }

    #[test]
    fn ticket_behaves_like_a_fifo_lock() {
        // The per-handover storm needs many waiters to dominate, so the
        // traffic comparison is a full-scale result (see EXPERIMENTS.md);
        // at smoke scale we assert the FIFO signature both ways.
        let r = crate::fast(cells, run);
        let handoff = |k: &str| -> f64 { r.row_by_key(k).unwrap()[2].parse().unwrap() };
        assert!(handoff("TICKET") > 0.3, "FIFO handoff expected");
        assert!(
            (handoff("TICKET") - handoff("MCS")).abs() < 0.3,
            "two FIFO locks should migrate nodes at a similar rate"
        );
    }
}
