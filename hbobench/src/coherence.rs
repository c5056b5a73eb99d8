//! The `coherence` workload: fig5's lock × `critical_work` grid under the
//! set-associative MESI and Dragon protocols.
//!
//! Most of the memory work here happens in `nucasim::coherence`, which the
//! `suite` workload barely touches (its flat default takes the inline
//! path), so a change to memory dispatch shows on one workload and not the
//! other. Modelled caches start empty in every cell.

use hbo_locks::{LockCatalog, LockKind};
use nuca_experiments::runner;
use nuca_workloads::modern::{run_modern, ModernConfig};
use nuca_workloads::MicroReport;
use nucasim::{MachineConfig, ProtocolKind};

/// The seed `experiments fig5` runs with; at this seed every cell is
/// checked against `expected.json`.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// The protocols one pass runs, in order.
pub const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::Mesi, ProtocolKind::Dragon];

/// Like fig5, TATAS is not run above this `critical_work`.
const TATAS_MAX_CRITICAL_WORK: u32 = 1300;

/// The shape of the grid: a 2-node machine, one thread per CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// CPUs (and threads) per node.
    pub per_node: usize,
    /// Acquire/release iterations per thread.
    pub iterations: u32,
    /// The `critical_work` sweep.
    pub critical_work: Vec<u32>,
}

impl Grid {
    /// The benchmark grid: fig5's machine and full sweep (2 × 14 CPUs,
    /// eight `critical_work` values) at 5 iterations per thread instead of
    /// 60, so that one MESI + Dragon pass takes well under a second.
    pub fn bench() -> Grid {
        Grid {
            per_node: 14,
            iterations: 5,
            critical_work: vec![0, 300, 600, 900, 1200, 1500, 1800, 2100],
        }
    }

    /// fig5's `--fast` grid: `run_experiment("fig5", Scale::Fast)` runs
    /// exactly these cells.
    pub fn fast() -> Grid {
        Grid {
            per_node: 4,
            iterations: 20,
            critical_work: vec![0, 700, 1500],
        }
    }

    /// Acquisitions every finished cell must report.
    pub fn acquires_per_cell(&self) -> u64 {
        (2 * self.per_node) as u64 * u64::from(self.iterations)
    }

    /// One entry per cell in fig5's row-major (kind, `critical_work`)
    /// order; the config is `None` where fig5 skips the cell.
    pub fn cells(
        &self,
        protocol: ProtocolKind,
        seed: u64,
    ) -> Vec<(LockKind, u32, Option<ModernConfig>)> {
        LockCatalog::kinds()
            .iter()
            .flat_map(|&kind| self.critical_work.iter().map(move |&cw| (kind, cw)))
            .map(|(kind, cw)| {
                let skipped = kind == LockKind::Tatas && cw > TATAS_MAX_CRITICAL_WORK;
                let cfg = (!skipped).then(|| ModernConfig {
                    kind,
                    machine: MachineConfig::wildfire(2, self.per_node)
                        .with_protocol(protocol)
                        .with_seed(seed),
                    threads: 2 * self.per_node,
                    iterations: self.iterations,
                    critical_work: cw,
                    ..ModernConfig::default()
                });
                (kind, cw, cfg)
            })
            .collect()
    }
}

/// A cell's simulated outputs, which must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Simulated run time.
    pub elapsed_ns: u64,
    /// Coherence transactions within one node.
    pub local_txns: u64,
    /// Coherence transactions crossing the interconnect.
    pub global_txns: u64,
}

impl Digest {
    /// The digest of one cell's report.
    pub fn of(r: &MicroReport) -> Digest {
        Digest {
            elapsed_ns: r.elapsed_ns,
            local_txns: r.traffic.local,
            global_txns: r.traffic.global,
        }
    }
}

/// Runs every cell of `grid` under `protocol` through the experiment
/// runner (at its current job budget); results come back in cell order.
pub fn run_grid(grid: &Grid, protocol: ProtocolKind, seed: u64) -> Vec<Option<MicroReport>> {
    let jobs: Vec<_> = grid
        .cells(protocol, seed)
        .into_iter()
        .map(|(_, _, cfg)| move || cfg.map(|cfg| run_modern(&cfg)))
        .collect();
    runner::run_jobs(jobs)
}

/// Whether a cell ran to completion with every acquisition made.
pub fn cell_complete(grid: &Grid, r: &MicroReport) -> bool {
    r.finished && r.total_acquires == grid.acquires_per_cell()
}
