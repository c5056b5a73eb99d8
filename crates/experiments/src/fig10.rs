//! Figure 10 — sensitivity of HBO_GT_SD to `GET_ANGRY_LIMIT`
//! (26-processor new-microbenchmark runs, HBO_GT for comparison).

use hbo_locks::LockKind;

use crate::fig9::base_config;
use crate::report::Report;
use crate::{runner, Cells, Scale, Settings};

/// Sweeps the anger threshold; values normalized to HBO_GT.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let limits: Vec<u32> = scale.pick(vec![2, 4, 8, 16, 32, 64, 128], vec![2, 16, 128]);
    let mut header = vec!["Lock Type".to_owned()];
    header.extend(limits.iter().map(|l| format!("limit={l}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(
        "fig10",
        "Sensitivity of HBO_GT_SD to GET_ANGRY_LIMIT (normalized iteration time, 26 CPUs)",
        &header_refs,
    );

    // Jobs: [reference HBO_GT] + one per swept limit; normalization
    // happens at assembly against the shared reference run.
    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send + '_>> = vec![Box::new(move || {
        cells
            .modern(&base_config(settings, scale, LockKind::HboGt))
            .micro
            .ns_per_iteration
    })];
    for &limit in &limits {
        jobs.push(Box::new(move || {
            let mut cfg = base_config(settings, scale, LockKind::HboGtSd);
            cfg.params = cfg.params.with_get_angry_limit(limit);
            cells.modern(&cfg).micro.ns_per_iteration
        }));
    }
    let results = runner::run_jobs(jobs);

    // Reference: plain HBO_GT (no starvation detection).
    let reference = results[0];

    let mut sd_row = vec!["HBO_GT_SD".to_owned()];
    for ns in &results[1..] {
        sd_row.push(format!("{:.2}", ns / reference));
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
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        assert_eq!(r.rows(), 2);
    }

    #[test]
    fn large_limit_approaches_hbo_gt() {
        let r = run(&Settings::default(), Scale::Fast, &Cells::new());
        let sd = r.row_by_key("HBO_GT_SD").unwrap();
        let at_max: f64 = sd.last().unwrap().parse().unwrap();
        // With a huge limit, anger never triggers: within 40% of HBO_GT.
        assert!(at_max < 1.4, "limit=128 ratio {at_max}");
    }
}
