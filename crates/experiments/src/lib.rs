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
use nucasim::{MachineConfig, ProtocolKind};
use nucasim_locks::{SimLockParams, TwaHash};

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

/// Runs one experiment (or `all`) under the default [`Settings`] and
/// returns its report(s). The call has its own [`Cells`], so every cell it
/// needs is simulated here, once.
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
    run_experiment_in(id, &settings, scale, &Cells::new())
}

/// Like [`run_experiment`], but under `settings`, reading and filling
/// `cells`: artifacts run against the same [`Cells`] simulate each shared
/// cell once between them.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] if `id` is not a known artifact id.
pub fn run_experiment_in(
    id: &str,
    settings: &Settings,
    scale: Scale,
    cells: &Cells,
) -> Result<Vec<Report>, UnknownExperiment> {
    match id {
        "table1" => Ok(vec![table1::run(settings, scale)]),
        "fig3" => Ok(fig3::run(settings, scale)),
        "fig5" => Ok(fig5::run(settings, scale, cells)),
        "table2" => Ok(vec![fig5::run_table2(settings, scale, cells)]),
        "table3" => Ok(vec![table3::run()]),
        "table4" => Ok(vec![raytrace_exp::run_table4(settings, scale, cells)]),
        "table5" => Ok(vec![apps_exp::run_table5(settings, scale, cells)]),
        "table6" => Ok(vec![apps_exp::run_table6(settings, scale, cells)]),
        "fig6" => Ok(vec![apps_exp::run_fig6(settings, scale, cells)]),
        "fig7" => Ok(vec![raytrace_exp::run_fig7(settings, scale, cells)]),
        "fig8" => Ok(vec![fig8::run(settings, scale, cells)]),
        "fig9" => Ok(vec![fig9::run(settings, scale, cells)]),
        "fig10" => Ok(vec![fig10::run(settings, scale, cells)]),
        "nuca_ratio" => Ok(vec![nuca_ratio::run(settings, scale, cells)]),
        "hier" => Ok(vec![hier_exp::run(settings, scale, cells)]),
        "colloc" => Ok(vec![colloc::run(settings, scale, cells)]),
        "falsesharing" => Ok(falsesharing::run(settings, scale, cells)),
        "ticket" => Ok(vec![ticket_exp::run(settings, scale, cells)]),
        "lat_hist" => Ok(vec![lat_hist::run(settings, scale, cells)]),
        "robustness" => Ok(vec![robustness::run(settings, scale, cells)]),
        "handoff" => Ok(vec![profiler::run_handoff(settings, scale, cells)]),
        "lockserver" => Ok(vec![lockserver::run(settings, scale)]),
        "showdown" => Ok(vec![showdown::run(settings, scale, cells)]),
        "all" => {
            // Fan the artifacts out across orchestration threads (their
            // leaf sim jobs share the global --jobs budget and `cells`)
            // and flatten the reports in the fixed id order.
            let tasks: Vec<_> = EXPERIMENTS
                .iter()
                .chain(EXTENSIONS.iter())
                .map(|&id| move || run_experiment_in(id, settings, scale, cells))
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
