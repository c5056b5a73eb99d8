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
use crate::{runner, Cells, Scale, Settings};

/// Runs the NUCA-ratio ablation.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let presets: [(&str, LatencyModel); 5] = [
        ("E6000 (UMA)", LatencyModel::e6000()),
        ("DS-320-like (3.5)", LatencyModel::wildfire().with_nuca_ratio(3.5)),
        ("DASH (4.5)", LatencyModel::dash()),
        ("WildFire (6)", LatencyModel::wildfire()),
        ("NUMA-Q (10)", LatencyModel::numa_q()),
    ];
    let (per_node, iters) = scale.pick((14, 30), (4, 15));
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
    // One job per preset × lock cell, regrouped per preset at assembly.
    let kinds = [LockKind::HboGt, LockKind::Mcs, LockKind::TatasExp];
    let jobs: Vec<_> = presets
        .iter()
        .flat_map(|&(_, latency)| kinds.iter().map(move |&kind| (latency, kind)))
        .map(|(latency, kind)| {
            move || {
                cells.modern(&ModernConfig {
                    kind,
                    threads: per_node * 2,
                    iterations: iters,
                    critical_work: 1000,
                    ..settings.modern(MachineConfig::wildfire(2, per_node).with_latency(latency))
                })
            }
        })
        .collect();
    let results = runner::run_jobs(jobs);
    for (pi, (name, latency)) in presets.iter().enumerate() {
        let [hbo, mcs, exp] = &results[pi * kinds.len()..(pi + 1) * kinds.len()] else {
            unreachable!("three runs per preset");
        };
        let (hbo, mcs, exp) = (&hbo.micro, &mcs.micro, &exp.micro);
        report.push_row(vec![
            (*name).to_owned(),
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
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
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
