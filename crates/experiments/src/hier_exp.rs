//! Extension experiment — hierarchical HBO on a hierarchical NUCA.
//!
//! The paper (§2) anticipates machines with "several levels of
//! non-uniformity ... one of today's NUMA architectures populated with
//! CMP processors", and §4.1 notes the HBO scheme "can be expanded in a
//! hierarchical way, using more than two sets of constants". This
//! experiment builds exactly that machine — 2 NUMA nodes, each holding
//! CMP chips with on-chip sharing — and compares:
//!
//! * TATAS_EXP and MCS (hierarchy-blind baselines),
//! * flat HBO (node-aware only: it cannot tell same-chip from
//!   cross-chip neighbors),
//! * hierarchical HBO (three backoff classes: chip / node / remote).

use hbo_locks::LockKind;
use nuca_topology::Topology;
use nuca_workloads::modern::ModernConfig;
use nucasim::{LatencyModel, MachineConfig};

use crate::cells::CustomLock;
use crate::report::{fmt_ratio, Report};
use crate::{Cell, Cells, Scale, Settings};

fn cmp_numa_machine(scale: Scale) -> (MachineConfig, usize) {
    let (chips, cpus) = scale.pick((2, 7), (2, 2));
    let mut b = Topology::builder();
    for _ in 0..2 {
        b = b.hierarchical_node(&[chips, cpus]);
    }
    let topology = b.build().expect("static shape");
    let threads = topology.num_cpus();
    (
        MachineConfig {
            topology,
            ..MachineConfig::wildfire(2, 2).with_latency(LatencyModel::cmp_numa())
        },
        threads,
    )
}

fn base_cfg(settings: &Settings, scale: Scale, kind: LockKind, critical_work: u32) -> ModernConfig {
    let (machine, threads) = cmp_numa_machine(scale);
    ModernConfig {
        kind,
        threads,
        iterations: scale.pick(40, 15),
        critical_work,
        ..settings.modern(machine)
    }
}

/// The two contention levels.
const CWS: [u32; 2] = [400, 1500];

/// The hierarchy-blind and flat-HBO rows.
const KINDS: [LockKind; 3] = [LockKind::TatasExp, LockKind::Mcs, LockKind::Hbo];

/// The cells the ablation reads: each row's run per contention level,
/// HBO_HIER on flat HBO's configs.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    let mut cells: Vec<Cell> = KINDS
        .iter()
        .flat_map(|&kind| CWS.map(|cw| Cell::Modern(base_cfg(settings, scale, kind, cw))))
        .collect();
    cells.extend(CWS.map(|cw| {
        Cell::Custom(CustomLock::HboHier, base_cfg(settings, scale, LockKind::Hbo, cw))
    }));
    cells
}

/// Renders the hierarchy ablation across two contention levels.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut header = vec!["Lock".to_owned()];
    for cw in CWS {
        header.push(format!("cw={cw} ns/iter"));
        header.push(format!("cw={cw} handoff"));
    }
    let mut report = Report::new(
        "hier",
        "Hierarchical HBO on a CMP-in-NUMA machine (2 nodes x chips x cpus)",
        &header,
    );

    for kind in KINDS {
        let mut row = vec![kind.as_str().to_owned()];
        for cw in CWS {
            let r = &cells.modern(&base_cfg(settings, scale, kind, cw)).micro;
            row.push(format!("{:.0}", r.ns_per_iteration));
            row.push(fmt_ratio(r.handoff_ratio));
        }
        report.push_row(row);
    }

    // The hierarchical variant: three distance classes.
    let mut row = vec!["HBO_HIER".to_owned()];
    for cw in CWS {
        let cfg = base_cfg(settings, scale, LockKind::Hbo, cw);
        let r = &cells.custom(CustomLock::HboHier, &cfg).micro;
        row.push(format!("{:.0}", r.ns_per_iteration));
        row.push(fmt_ratio(r.handoff_ratio));
    }
    report.push_row(row);

    report.push_note(
        "HBO_HIER distinguishes same-chip from cross-chip neighbors (3 \
         backoff classes); flat HBO only knows nodes",
    );
    report.push_note("prediction: HBO_HIER <= HBO < MCS/TATAS_EXP on this machine");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows_produced() {
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), 4);
        assert!(r.row_by_key("HBO_HIER").is_some());
    }

    #[test]
    fn nuca_aware_beats_blind_baselines_at_high_cw() {
        let r = crate::fast(cells, run);
        let ns = |k: &str| -> f64 { r.row_by_key(k).unwrap()[3].parse().unwrap() };
        assert!(ns("HBO_HIER") < ns("MCS"));
        assert!(ns("HBO") < ns("MCS"));
    }
}
