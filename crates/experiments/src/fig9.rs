//! Figure 9 — sensitivity of HBO_GT_SD to `REMOTE_BACKOFF_CAP`
//! (26-processor new-microbenchmark runs, normalized, MCS for
//! comparison).

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;
use nucasim::MachineConfig;
use nucasim_locks::SimLockParams;

use crate::report::Report;
use crate::{Cell, Cells, Scale, Settings};

/// The 26-CPU cell at `critical_work = 1000` that Figs. 9 and 10 vary,
/// at the default lock constants.
pub(crate) fn base_config(settings: &Settings, scale: Scale, kind: LockKind) -> ModernConfig {
    let (per_node, iters) = scale.pick((13, 40), (4, 20));
    ModernConfig {
        kind,
        threads: per_node * 2,
        iterations: iters,
        critical_work: 1000,
        ..settings.modern(MachineConfig::wildfire(2, per_node))
    }
}

fn caps(scale: Scale) -> Vec<u32> {
    scale.pick(
        vec![3_200, 6_400, 12_800, 25_600, 51_200, 102_400, 204_800],
        vec![6_400, 51_200, 204_800],
    )
}

/// HBO_GT_SD at remote backoff cap `cap`.
fn capped(settings: &Settings, scale: Scale, cap: u32) -> ModernConfig {
    let mut cfg = base_config(settings, scale, LockKind::HboGtSd);
    cfg.params = cfg.params.with_remote_cap(cap);
    cfg
}

/// The cells Fig. 9 reads: the reference HBO_GT_SD at its default cap,
/// one per swept cap, and the MCS comparison.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    let mut cfgs = vec![base_config(settings, scale, LockKind::HboGtSd)];
    cfgs.extend(caps(scale).into_iter().map(|cap| capped(settings, scale, cap)));
    cfgs.push(base_config(settings, scale, LockKind::Mcs));
    cfgs.into_iter().map(Cell::Modern).collect()
}

/// Renders the remote backoff cap sweep, normalized to the default cap.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let caps = caps(scale);
    let default_cap = SimLockParams::default().remote.cap;
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(caps.iter().map(|c| format!("cap={c}")));
    let mut report = Report::new(
        "fig9",
        "Sensitivity of HBO_GT_SD to REMOTE_BACKOFF_CAP (normalized iteration time, 26 CPUs)",
        &header,
    );
    let ns = |cfg: &ModernConfig| cells.modern(cfg).micro.ns_per_iteration;

    // Reference point: HBO_GT_SD at its default cap, so every cell
    // divides by the same run.
    let reference = ns(&base_config(settings, scale, LockKind::HboGtSd));

    let mut sd_row = vec!["HBO_GT_SD".to_owned()];
    for &cap in &caps {
        sd_row.push(format!("{:.2}", ns(&capped(settings, scale, cap)) / reference));
    }
    report.push_row(sd_row);

    // MCS comparison line (cap-independent — one value repeated).
    let mcs = ns(&base_config(settings, scale, LockKind::Mcs));
    let mut mcs_row = vec!["MCS".to_owned()];
    for _ in &caps {
        mcs_row.push(format!("{:.2}", mcs / reference));
    }
    report.push_row(mcs_row);

    report.push_note(format!("normalized to HBO_GT_SD at its default cap ({default_cap})"));
    report.push_note(
        "paper: HBO_GT_SD stays below MCS across a wide cap range; very \
         small caps lose the traffic throttling benefit",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sd_and_mcs_rows_present() {
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), 2);
        assert!(r.row_by_key("HBO_GT_SD").is_some());
        assert!(r.row_by_key("MCS").is_some());
    }

    #[test]
    fn sd_beats_mcs_at_default_cap() {
        let r = crate::fast(cells, run);
        // Column for cap=51200 (the default) in the fast sweep.
        let sd: f64 = r.row_by_key("HBO_GT_SD").unwrap()[2].parse().unwrap();
        let mcs: f64 = r.row_by_key("MCS").unwrap()[2].parse().unwrap();
        assert!(sd < mcs, "HBO_GT_SD {sd} vs MCS {mcs}");
    }
}
