//! Regenerates every table and figure of the paper's evaluation (§5–§6).
//!
//! Each experiment has an id matching the paper artifact (`table1`,
//! `fig3`, ..., `fig10`). Each artifact lists the simulation cells it
//! reads and renders its reports from them ([`artifact`]);
//! [`run_experiments`] runs the union of the requested artifacts' cells
//! once ([`cells`]) and renders every report, which the binary prints and
//! writes as TSVs under `target/experiments/`.
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

use hbo_locks::{LockCatalog, LockKind};
use nuca_workloads::modern::{BindingKind, ModernConfig};
use nucasim::{LabelProfile, MachineConfig, ProtocolKind};
use nucasim_locks::{SimLockParams, TwaHash};

pub use cells::{Cell, Cells};
pub use report::Report;
pub use tracecap::Capture;

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

/// The harness settings of one invocation: every flag that changes what
/// a simulation computes, parsed once by [`cli::parse_args`] (the default
/// is an invocation without flags). Every artifact builds complete
/// configs from them, so a config names everything its run reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Coherence protocol of every machine (`--protocol`). `falsesharing`
    /// sweeps the protocols itself.
    pub protocol: ProtocolKind,
    /// How microbenchmark threads are bound to CPUs (`--binding`).
    pub binding: BindingKind,
    /// TWA waiting-array slots (`--twa-slots`).
    pub twa_slots: usize,
    /// TWA ticket→slot hash (`--twa-hash`).
    pub twa_hash: TwaHash,
    /// The kinds the kind-sweeping artifacts iterate (`--kinds`), in
    /// catalog registration order. Paper-faithful artifacts stay on
    /// [`LockCatalog::paper`].
    pub kinds: Vec<LockKind>,
    /// `lockserver`'s one shard count in place of its axis (`--shards`).
    pub shards: Option<usize>,
    /// `lockserver`'s Zipf key skew θ (`--zipf`; 0.99 when unset).
    pub zipf_theta: Option<f64>,
    /// `lockserver`'s mean cycles between request batches
    /// (`--arrival-gap`; the scale's default when unset).
    pub arrival_gap: Option<u64>,
}

impl Default for Settings {
    fn default() -> Settings {
        let params = SimLockParams::default();
        Settings {
            protocol: ProtocolKind::Flat,
            binding: BindingKind::RoundRobin,
            twa_slots: params.twa_slots,
            twa_hash: params.twa_hash,
            kinds: LockCatalog::kinds().to_vec(),
            shards: None,
            zipf_theta: None,
            arrival_gap: None,
        }
    }
}

impl Settings {
    /// `machine` under the invocation's protocol.
    pub fn machine(&self, machine: MachineConfig) -> MachineConfig {
        machine.with_protocol(self.protocol)
    }

    /// The default lock tunables with the invocation's TWA geometry.
    pub fn params(&self) -> SimLockParams {
        SimLockParams::default().with_twa(self.twa_slots, self.twa_hash)
    }

    /// A microbenchmark config on `machine` with the invocation's
    /// protocol, binding and lock tunables, and every other field at its
    /// default.
    pub fn modern(&self, machine: MachineConfig) -> ModernConfig {
        ModernConfig {
            machine: self.machine(machine),
            params: self.params(),
            binding: self.binding,
            ..ModernConfig::default()
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

/// Lists the cells an artifact reads.
pub type CellsFn = fn(&Settings, Scale) -> Vec<Cell>;

/// Renders an artifact's reports from a filled table.
pub type RenderFn = fn(&Settings, Scale, &Cells) -> Vec<Report>;

/// The artifact `id` names: the cells it reads, and how it renders them
/// (reading only those cells, so rendering never simulates).
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not a known artifact id.
pub fn artifact(id: &str) -> Result<(CellsFn, RenderFn), UnknownExperiment> {
    Ok(match id {
        "table1" => (table1::cells, |s, sc, c| vec![table1::run(s, sc, c)]),
        "fig3" => (fig3::cells, fig3::run),
        "fig5" => (fig5::cells, fig5::run),
        "table2" => (fig5::table2_cells, |s, sc, c| vec![fig5::run_table2(s, sc, c)]),
        "table3" => (|_, _| Vec::new(), |_, _, _| vec![table3::run()]),
        "table4" => (raytrace_exp::table4_cells, |s, sc, c| {
            vec![raytrace_exp::run_table4(s, sc, c)]
        }),
        "table5" => (apps_exp::grid_cells, |s, sc, c| vec![apps_exp::run_table5(s, sc, c)]),
        "table6" => (apps_exp::grid_cells, |s, sc, c| vec![apps_exp::run_table6(s, sc, c)]),
        "fig6" => (apps_exp::fig6_cells, |s, sc, c| vec![apps_exp::run_fig6(s, sc, c)]),
        "fig7" => (raytrace_exp::fig7_cells, |s, sc, c| vec![raytrace_exp::run_fig7(s, sc, c)]),
        "fig8" => (fig8::cells, |s, sc, c| vec![fig8::run(s, sc, c)]),
        "fig9" => (fig9::cells, |s, sc, c| vec![fig9::run(s, sc, c)]),
        "fig10" => (fig10::cells, |s, sc, c| vec![fig10::run(s, sc, c)]),
        "nuca_ratio" => (nuca_ratio::cells, |s, sc, c| vec![nuca_ratio::run(s, sc, c)]),
        "hier" => (hier_exp::cells, |s, sc, c| vec![hier_exp::run(s, sc, c)]),
        "colloc" => (colloc::cells, |s, sc, c| vec![colloc::run(s, sc, c)]),
        "falsesharing" => (falsesharing::cells, falsesharing::run),
        "ticket" => (ticket_exp::cells, |s, sc, c| vec![ticket_exp::run(s, sc, c)]),
        "lat_hist" => (fig5::cells, |s, sc, c| vec![lat_hist::run(s, sc, c)]),
        "robustness" => (robustness::cells, |s, sc, c| vec![robustness::run(s, sc, c)]),
        "handoff" => (profiler::cells, |s, sc, c| vec![profiler::run_handoff(s, sc, c)]),
        "lockserver" => (lockserver::cells, |s, sc, c| vec![lockserver::run(s, sc, c)]),
        "showdown" => (showdown::cells, |s, sc, c| vec![showdown::run(s, sc, c)]),
        other => return Err(UnknownExperiment(other.to_owned())),
    })
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every report, in id order.
    pub reports: Vec<Report>,
    /// The `--trace`/`--metrics-json` captures, when asked for.
    pub captures: Vec<Capture>,
    /// Every profiled cell's account, merged by label in label order (the
    /// `--profile` document).
    pub profiles: Vec<(String, LabelProfile)>,
    /// Cells the artifacts declared, counting every declaration.
    pub requested: usize,
    /// Distinct cells simulated.
    pub run: usize,
}

/// Runs artifacts `ids` (not `all`) as one plan under `settings`: the
/// union of their cells, plus the trace capture's when `capture` is set,
/// runs once through one [`runner::run_jobs`] pool, then every report
/// renders from the filled table, in id order. With `profile`, every
/// cell but the capture's runs on a profiled machine (see [`cells`]).
///
/// # Errors
///
/// Returns [`UnknownExperiment`] for the first unknown id, before anything
/// runs.
pub fn run_experiments(
    ids: &[&str],
    settings: &Settings,
    scale: Scale,
    capture: bool,
    profile: bool,
) -> Result<Outcome, UnknownExperiment> {
    let artifacts = ids.iter().map(|id| artifact(id)).collect::<Result<Vec<_>, _>>()?;
    let traced = if capture {
        tracecap::cells(settings, scale)
    } else {
        Vec::new()
    };
    let mut specs: Vec<Cell> = artifacts
        .iter()
        .flat_map(|(cells, _)| cells(settings, scale))
        .collect();
    specs.extend(traced.iter().cloned());
    let requested = specs.len();
    let mut cells = Cells::fill(specs, profile);
    let run = cells.len();
    let reports = artifacts
        .iter()
        .flat_map(|(_, render)| render(settings, scale, &cells))
        .collect();
    let profiles = cells.profiles();
    let captures = traced.iter().map(|spec| cells.take(spec)).collect();
    Ok(Outcome {
        reports,
        captures,
        profiles,
        requested,
        run,
    })
}

/// Runs one experiment (or `all`) under the default [`Settings`] and
/// returns its report(s). Each call plans and simulates afresh.
///
/// The protocol is the one exception to the defaults: it is
/// [`nucasim::default_protocol`], because the repository benchmark selects
/// MESI for this call with [`nucasim::set_default_protocol`]. This is the
/// only reader of that process-wide value.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not a known artifact id.
pub fn run_experiment(id: &str, scale: Scale) -> Result<Vec<Report>, UnknownExperiment> {
    let settings = Settings {
        protocol: nucasim::default_protocol(),
        ..Settings::default()
    };
    let ids: Vec<&str> = match id {
        "all" => EXPERIMENTS.iter().chain(&EXTENSIONS).copied().collect(),
        _ => vec![id],
    };
    Ok(run_experiments(&ids, &settings, scale, false, false)?.reports)
}

/// Renders `render` under the default settings at fast scale, from a
/// table holding the cells `cells` declares (for the artifacts' tests).
#[cfg(test)]
fn fast<T>(cells: CellsFn, render: impl FnOnce(&Settings, Scale, &Cells) -> T) -> T {
    let settings = Settings::default();
    render(&settings, Scale::Fast, &Cells::fill(cells(&settings, Scale::Fast), false))
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
