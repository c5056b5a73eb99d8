//! Figure 10 — sensitivity of HBO_GT_SD to `GET_ANGRY_LIMIT`
//! (26-processor new-microbenchmark runs, HBO_GT for comparison).

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;

use crate::fig9::base_config;
use crate::report::Report;
use crate::{Cell, Cells, Scale, Settings};

fn limits(scale: Scale) -> Vec<u32> {
    scale.pick(vec![2, 4, 8, 16, 32, 64, 128], vec![2, 16, 128])
}

/// HBO_GT_SD at anger threshold `limit`.
fn limited(settings: &Settings, scale: Scale, limit: u32) -> ModernConfig {
    let mut cfg = base_config(settings, scale, LockKind::HboGtSd);
    cfg.params = cfg.params.with_get_angry_limit(limit);
    cfg
}

/// The cells Fig. 10 reads: the HBO_GT reference and one per swept limit.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    let mut cfgs = vec![base_config(settings, scale, LockKind::HboGt)];
    cfgs.extend(limits(scale).into_iter().map(|limit| limited(settings, scale, limit)));
    cfgs.into_iter().map(Cell::Modern).collect()
}

/// Renders the anger threshold sweep, normalized to HBO_GT.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let limits = limits(scale);
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(limits.iter().map(|l| format!("limit={l}")));
    let mut report = Report::new(
        "fig10",
        "Sensitivity of HBO_GT_SD to GET_ANGRY_LIMIT (normalized iteration time, 26 CPUs)",
        &header,
    );
    let ns = |cfg: &ModernConfig| cells.modern(cfg).micro.ns_per_iteration;

    // Reference: plain HBO_GT (no starvation detection).
    let reference = ns(&base_config(settings, scale, LockKind::HboGt));

    let mut sd_row = vec!["HBO_GT_SD".to_owned()];
    for &limit in &limits {
        sd_row.push(format!("{:.2}", ns(&limited(settings, scale, limit)) / reference));
    }
    report.push_row(sd_row);

    let mut gt_row = vec!["HBO_GT".to_owned()];
    for _ in &limits {
        gt_row.push("1.00".to_owned());
    }
    report.push_row(gt_row);

    report.push_note(
        "paper: aggressive (small) GET_ANGRY_LIMIT costs throughput — \
         starvation protection trades against node affinity",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_present() {
        let r = crate::fast(cells, run);
        assert_eq!(r.rows(), 2);
    }

    #[test]
    fn large_limit_approaches_hbo_gt() {
        let r = crate::fast(cells, run);
        let sd = r.row_by_key("HBO_GT_SD").unwrap();
        let at_max: f64 = sd.last().unwrap().parse().unwrap();
        // With a huge limit, anger never triggers: within 40% of HBO_GT.
        assert!(at_max < 1.4, "limit=128 ratio {at_max}");
    }
}
