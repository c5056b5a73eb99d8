//! Regenerates every table and figure of the paper's evaluation (§5–§6).
//!
//! Each experiment has an id matching the paper artifact (`table1`,
//! `fig3`, ..., `fig10`); [`run_experiment`] dispatches on it, prints the
//! rows/series the paper reports, and writes a TSV next to the binary's
//! working directory under `target/experiments/`.
//!
//! ```bash
//! cargo run --release -p nuca-experiments -- all          # everything
//! cargo run --release -p nuca-experiments -- fig5         # one artifact
//! cargo run --release -p nuca-experiments -- table4 --fast # CI-scale
//! ```
//!
//! Absolute numbers come from the `nucasim` machine model, not the
//! authors' WildFire, so only the *shape* (orderings, ratios, crossovers)
//! is expected to match; `EXPERIMENTS.md` records paper-vs-measured for
//! every artifact.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps_exp;
pub mod cells;
pub mod cli;
pub mod colloc;
pub mod falsesharing;
pub mod fig10;
pub mod fig3;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod hier_exp;
pub mod json;
pub mod kinds;
pub mod lat_hist;
pub mod lockserver;
pub mod nuca_ratio;
pub mod profiler;
pub mod raytrace_exp;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod showdown;
pub mod table1;
pub mod table3;
pub mod ticket_exp;
pub mod tracecap;

use std::error::Error;
use std::fmt;

pub use cells::Cells;
pub use report::Report;

/// How big to run: `Full` approximates the paper's workload volume;
/// `Fast` is for tests and smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale runs (tens of seconds per artifact).
    Full,
    /// Reduced iteration counts and sweeps (seconds total).
    Fast,
}

impl Scale {
    /// Picks `full` or `fast` depending on the scale.
    pub fn pick<T>(self, full: T, fast: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Fast => fast,
        }
    }
}

/// Error for an unknown experiment id.
#[derive(Debug, Clone)]
pub struct UnknownExperiment(pub String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment `{}` (valid: {}, {}, all)",
            self.0,
            EXPERIMENTS.join(", "),
            EXTENSIONS.join(", ")
        )
    }
}

impl Error for UnknownExperiment {}

/// All experiment ids, in paper order.
pub const EXPERIMENTS: [&str; 13] = [
    "table1", "fig3", "fig5", "table2", "table3", "table4", "table5", "table6", "fig6", "fig7",
    "fig8", "fig9", "fig10",
];

/// Extension experiments beyond the paper.
pub const EXTENSIONS: [&str; 10] = [
    "nuca_ratio",
    "hier",
    "colloc",
    "falsesharing",
    "ticket",
    "lat_hist",
    "robustness",
    "handoff",
    "lockserver",
    "showdown",
];

/// Runs one experiment (or `all`) and returns its report(s). The call
/// has its own [`Cells`], so every cell it needs is simulated here, once.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not a known artifact id.
pub fn run_experiment(id: &str, scale: Scale) -> Result<Vec<Report>, UnknownExperiment> {
    run_experiment_in(id, scale, &Cells::new())
}

/// Like [`run_experiment`], but reads and fills `cells`: artifacts run
/// against the same [`Cells`] simulate each shared cell once between
/// them.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not a known artifact id.
pub fn run_experiment_in(
    id: &str,
    scale: Scale,
    cells: &Cells,
) -> Result<Vec<Report>, UnknownExperiment> {
    match id {
        "table1" => Ok(vec![table1::run(scale)]),
        "fig3" => Ok(fig3::run(scale)),
        "fig5" => Ok(fig5::run(scale, cells)),
        "table2" => Ok(vec![fig5::run_table2(scale, cells)]),
        "table3" => Ok(vec![table3::run()]),
        "table4" => Ok(vec![raytrace_exp::run_table4(scale, cells)]),
        "table5" => Ok(vec![apps_exp::run_table5(scale, cells)]),
        "table6" => Ok(vec![apps_exp::run_table6(scale, cells)]),
        "fig6" => Ok(vec![apps_exp::run_fig6(scale, cells)]),
        "fig7" => Ok(vec![raytrace_exp::run_fig7(scale, cells)]),
        "fig8" => Ok(vec![fig8::run(scale, cells)]),
        "fig9" => Ok(vec![fig9::run(scale, cells)]),
        "fig10" => Ok(vec![fig10::run(scale, cells)]),
        "nuca_ratio" => Ok(vec![nuca_ratio::run(scale, cells)]),
        "hier" => Ok(vec![hier_exp::run(scale, cells)]),
        "colloc" => Ok(vec![colloc::run(scale, cells)]),
        "falsesharing" => Ok(falsesharing::run(scale, cells)),
        "ticket" => Ok(vec![ticket_exp::run(scale, cells)]),
        "lat_hist" => Ok(vec![lat_hist::run(scale, cells)]),
        "robustness" => Ok(vec![robustness::run(scale, cells)]),
        "handoff" => Ok(vec![profiler::run_handoff(scale, cells)]),
        "lockserver" => Ok(vec![lockserver::run(scale)]),
        "showdown" => Ok(vec![showdown::run(scale, cells)]),
        "all" => {
            // Fan the artifacts out across orchestration threads (their
            // leaf sim jobs share the global --jobs budget and `cells`)
            // and flatten the reports in the fixed id order.
            let tasks: Vec<_> = EXPERIMENTS
                .iter()
                .chain(EXTENSIONS.iter())
                .map(|&id| move || run_experiment_in(id, scale, cells))
                .collect();
            let mut out = Vec::new();
            for reports in runner::run_fanout(tasks) {
                out.extend(reports.expect("every fanned-out id is a known artifact"));
            }
            Ok(out)
        }
        other => Err(UnknownExperiment(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_an_error() {
        let err = run_experiment("fig99", Scale::Fast).unwrap_err();
        assert!(err.to_string().contains("fig99"));
        assert!(err.to_string().contains("table1"));
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(1, 2), 1);
        assert_eq!(Scale::Fast.pick(1, 2), 2);
    }

    #[test]
    fn table3_runs_instantly() {
        let reports = run_experiment("table3", Scale::Fast).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].rows() >= 14);
    }
}
