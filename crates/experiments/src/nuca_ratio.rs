//! Extension experiment — how the HBO advantage scales with the NUCA
//! ratio (the paper's §2 table spans ratios from ~3.5 to ~10).
//!
//! This is the ablation DESIGN.md calls out: rerun the new microbenchmark
//! under the DASH, WildFire, NUMA-Q and CMP latency presets and report the
//! HBO_GT speedup over MCS and TATAS_EXP. The paper's thesis predicts the
//! advantage grows with the ratio and vanishes on a UMA machine.

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;
use nucasim::{LatencyModel, MachineConfig};

use crate::report::Report;
use crate::{Cell, Cells, Scale, Settings};

/// The latency presets, in row order.
fn presets() -> [(&'static str, LatencyModel); 5] {
    [
        ("E6000 (UMA)", LatencyModel::e6000()),
        ("DS-320-like (3.5)", LatencyModel::wildfire().with_nuca_ratio(3.5)),
        ("DASH (4.5)", LatencyModel::dash()),
        ("WildFire (6)", LatencyModel::wildfire()),
        ("NUMA-Q (10)", LatencyModel::numa_q()),
    ]
}

/// The locks compared on every preset.
const KINDS: [LockKind; 3] = [LockKind::HboGt, LockKind::Mcs, LockKind::TatasExp];

fn config(
    settings: &Settings,
    scale: Scale,
    latency: LatencyModel,
    kind: LockKind,
) -> ModernConfig {
    let (per_node, iters) = scale.pick((14, 30), (4, 15));
    ModernConfig {
        kind,
        threads: per_node * 2,
        iterations: iters,
        critical_work: 1000,
        ..settings.modern(MachineConfig::wildfire(2, per_node).with_latency(latency))
    }
}

/// The cells the ablation reads: preset × lock.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    presets()
        .into_iter()
        .flat_map(|(_, latency)| {
            KINDS.map(|kind| Cell::Modern(config(settings, scale, latency, kind)))
        })
        .collect()
}

/// Renders the NUCA-ratio ablation.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut report = Report::new(
        "nuca_ratio",
        "HBO_GT advantage vs NUCA ratio (new microbenchmark, critical_work=1000)",
        &[
            "Machine",
            "NUCA ratio",
            "HBO_GT (ns/iter)",
            "MCS / HBO_GT",
            "TATAS_EXP / HBO_GT",
        ],
    );
    for (name, latency) in presets() {
        let [hbo, mcs, exp] =
            KINDS.map(|kind| &cells.modern(&config(settings, scale, latency, kind)).micro);
        report.push_row(vec![
            name.to_owned(),
            format!("{:.1}", latency.nuca_ratio()),
            format!("{:.0}", hbo.ns_per_iteration),
            format!("{:.2}", mcs.ns_per_iteration / hbo.ns_per_iteration),
            format!("{:.2}", exp.ns_per_iteration / hbo.ns_per_iteration),
        ]);
    }
    report.push_note("prediction: the HBO advantage grows with the NUCA ratio");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advantage_grows_with_ratio() {
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), 5);
        let ratio = |row: usize| -> f64 { r.cell(row, 3).unwrap().parse().unwrap() };
        // NUMA-Q advantage must exceed the UMA advantage.
        assert!(
            ratio(4) > ratio(0),
            "NUMA-Q {} vs UMA {}",
            ratio(4),
            ratio(0)
        );
    }
}
