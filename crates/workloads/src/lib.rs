//! Workloads for the HBO-lock reproduction: the paper's microbenchmarks,
//! synthetic SPLASH-2 application models, and fairness/sensitivity
//! drivers, all running on the `nucasim` machine simulator.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`uncontested`] | Table 1 — single acquire-release latency scenarios |
//! | [`traditional`] | Fig. 3 — the classic "all processors pound one lock" benchmark with the `last_owner` rule |
//! | [`modern`] | Fig. 4/5, Table 2 — the paper's new microbenchmark: fixed processors, non-critical work, variable `critical_work` |
//! | [`apps`] | Tables 3–6, Figs. 6–7 — synthetic models of the seven lock-heavy SPLASH-2 programs |
//! | [`barrier`] | sense-free simulated barrier used by the app models |
//! | [`lockserver`] | extension — sharded million-object lock service with open-loop bursty arrivals |
//! | [`zipf`] | deterministic Zipfian key sampling for the lockserver |
//!
//! Every run is deterministic for a given seed.
//!
//! # Example
//!
//! ```
//! use hbo_locks::LockKind;
//! use nuca_workloads::modern::{run_modern, ModernConfig};
//!
//! let mut cfg = ModernConfig::default();
//! cfg.kind = LockKind::HboGt;
//! cfg.threads = 4;
//! cfg.iterations = 20;
//! cfg.critical_work = 200;
//! let out = run_modern(&cfg);
//! assert_eq!(out.total_acquires, 4 * 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod barrier;
pub mod lockserver;
pub mod modern;
pub mod traditional;
pub mod uncontested;
pub mod zipf;

use hbo_locks::LockKind;
use nucasim::{LabelProfile, SimReport, TrafficCounts};

/// Outcome of a microbenchmark run, in the units the paper plots.
#[derive(Debug, Clone)]
pub struct MicroReport {
    /// Which algorithm ran.
    pub kind: LockKind,
    /// Number of threads that contended.
    pub threads: usize,
    /// Total successful lock acquisitions.
    pub total_acquires: u64,
    /// Wall time of the run in simulated nanoseconds.
    pub elapsed_ns: u64,
    /// Average time per acquire-release iteration, nanoseconds (the y-axis
    /// of Figs. 3 and 5, left panels).
    pub ns_per_iteration: f64,
    /// Node handoff ratio (the y-axis of Figs. 3 and 5, right panels).
    pub handoff_ratio: Option<f64>,
    /// Coherence traffic (Tables 2 and 6).
    pub traffic: TrafficCounts,
    /// Spread between first and last thread to finish (Fig. 8).
    pub finish_spread: Option<f64>,
    /// Whether the run completed within its cycle budget.
    pub finished: bool,
    /// The machine's account if it was profiled, boxed ([`LabelProfile::of`]).
    pub account: Option<Box<LabelProfile>>,
}

impl MicroReport {
    /// Derives the paper-facing metrics from a raw [`SimReport`]; `lock_index`
    /// selects which recorded lock's acquisition trace to read. Used by
    /// custom-lock runs built on [`modern::run_modern_with`].
    pub fn from_sim(
        kind: LockKind,
        threads: usize,
        report: &SimReport,
        lock_index: usize,
    ) -> MicroReport {
        let total_acquires = report
            .lock_traces
            .get(lock_index)
            .map(|t| t.acquisitions)
            .unwrap_or(0);
        let elapsed_ns = nucasim::cycles_to_ns(report.end_time);
        MicroReport {
            kind,
            threads,
            total_acquires,
            elapsed_ns,
            ns_per_iteration: if total_acquires == 0 {
                f64::NAN
            } else {
                elapsed_ns as f64 / total_acquires as f64
            },
            handoff_ratio: report
                .lock_traces
                .get(lock_index)
                .and_then(|t| t.handoff_ratio()),
            traffic: report.traffic,
            finish_spread: report.finish_spread(),
            finished: report.finished_all,
            account: LabelProfile::of(report).map(Box::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucasim::{Command, CpuCtx, Machine, MachineConfig, Program};

    struct Noop;

    impl Program for Noop {
        fn resume(&mut self, ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
            ctx.record_acquire(0);
            Command::Done
        }
    }

    #[test]
    fn micro_report_from_minimal_sim() {
        let mut m = Machine::new(MachineConfig::wildfire(1, 1));
        m.add_program(nuca_topology::CpuId(0), Box::new(Noop));
        m.run(1_000);
        let report = m.into_report();
        let r = MicroReport::from_sim(LockKind::Tatas, 1, &report, 0);
        assert_eq!(r.total_acquires, 1);
        assert!(r.finished);
        assert_eq!(r.handoff_ratio, None, "one acquisition has no handover");
        // A missing lock index yields zero acquisitions, not a panic.
        let r2 = MicroReport::from_sim(LockKind::Tatas, 1, &report, 9);
        assert_eq!(r2.total_acquires, 0);
        assert!(r2.ns_per_iteration.is_nan());
    }
}
