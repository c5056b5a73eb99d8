//! The plan: every simulation an `experiments` invocation needs is
//! declared up front, run once, and read back from one filled table.
//!
//! Several artifacts read the same runs. Table 2 is Fig. 5 at
//! `critical_work = 1500`, `lat_hist` reads Fig. 5's whole grid, Tables 5
//! and 6 and Fig. 6 share the application runs, and Table 4 and Fig. 7
//! share Raytrace's. So each artifact lists the [`Cell`]s it reads, the
//! invocation runs the union of those lists once through one
//! [`runner::run_jobs`] pool ([`Cells::fill`]), and the artifacts render
//! from the filled, read-only table:
//!
//! * **Key.** A cell is keyed by the `Debug` rendering of its spec.
//!   Artifacts build complete configs from the invocation's
//!   [`crate::Settings`] (protocol, binding, lock tunables), and the run
//!   reads nothing else, so the key is exactly what the run sees. The
//!   variant name is part of the key, so a profiled or custom-lock run
//!   never stands in for a plain run of the same config.
//! * **Order.** Duplicates are dropped by key, keeping the order in which
//!   cells were first declared; the pool starts them in that order.
//! * **Lookups.** [`Cells::modern`] and its siblings rebuild the spec and
//!   look its key up. A lookup of a cell the artifact did not declare
//!   panics and names the key: rendering never simulates.
//! * **Memory.** A cell keeps only what artifacts read ([`ModernCell`],
//!   [`AppReport`], [`ProfiledCell`], …), never a run's final-memory image
//!   or a lockserver's per-object tallies.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;

use hbo_locks::{BackoffConfig, LevelBackoff, LockKind};
use nuca_topology::NodeId;
use nuca_workloads::apps::{run_app, AppModel, AppReport, AppRunConfig};
use nuca_workloads::lockserver::{run_lockserver, LockServerConfig};
use nuca_workloads::modern::{
    run_modern_profiled, run_modern_raw, run_modern_traced, run_modern_with, ModernConfig,
};
use nuca_workloads::traditional::{run_traditional, TraditionalConfig};
use nuca_workloads::uncontested::{run_uncontested, UncontestedReport};
use nuca_workloads::MicroReport;
use nucasim::{Histogram, LockProfile, LockTrace, MachineConfig, SimReport};
use nucasim_locks::{Lock, SimHierHbo, SimLockParams, SimTicket};

use crate::falsesharing::{run_layout, LayoutConfig, LayoutOutcome};
use crate::lockserver::Service;
use crate::runner;
use crate::tracecap::Capture;

/// One simulation an artifact reads: a plain-data spec that names
/// everything its run reads.
#[derive(Debug, Clone)]
pub enum Cell {
    /// The new microbenchmark with a registered lock kind.
    Modern(ModernConfig),
    /// The new microbenchmark with a lock outside the catalog (the
    /// config's `kind` only labels the run).
    Custom(CustomLock, ModernConfig),
    /// The new microbenchmark with the streaming profiler attached
    /// (`handoff`).
    Profiled(ModernConfig),
    /// An application model run (Tables 4–6, Figs. 6 and 7).
    App(AppModel, AppRunConfig),
    /// The traditional microbenchmark (Fig. 3).
    Traditional(TraditionalConfig),
    /// One kind's uncontested acquire-release pairs (Table 1).
    Uncontested(LockKind, MachineConfig, SimLockParams),
    /// One sharded lock-service run (`lockserver`).
    LockServer(LockServerConfig),
    /// One lock/data layout run (`falsesharing`).
    Layout(LayoutConfig),
    /// The new microbenchmark with every trace event recorded (the
    /// `--trace`/`--metrics-json` capture).
    Traced(ModernConfig),
}

/// A lock built by name, so a [`Cell::Custom`] stays plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomLock {
    /// Hierarchical HBO (`hier`): flat HBO's node and remote constants
    /// plus an extra-eager on-chip class, so the hierarchy only *adds* a
    /// distinction.
    HboHier,
    /// The ticket lock (`ticket`): FIFO, every waiter spinning on one
    /// shared `now_serving` word.
    Ticket,
}

impl CustomLock {
    fn run(self, cfg: &ModernConfig) -> SimReport {
        let (sim, _) = match self {
            CustomLock::HboHier => {
                let table = LevelBackoff::new(vec![
                    BackoffConfig::new(40, 2, 400),
                    cfg.params.local,
                    cfg.params.remote,
                ]);
                run_modern_with(cfg, &|mem, topo, _gt| {
                    Lock::Hier(SimHierHbo::alloc(mem, topo, NodeId(0), table.clone()))
                })
            }
            CustomLock::Ticket => run_modern_with(cfg, &|mem, _topo, _gt| {
                Lock::Ticket(SimTicket::alloc(mem, NodeId(0)))
            }),
        };
        sim
    }
}

/// What artifacts read from one microbenchmark run (lock 0 is the lock
/// under test).
#[derive(Debug)]
pub struct ModernCell {
    /// The paper-facing metrics.
    pub micro: MicroReport,
    /// Simulated run time in seconds.
    pub seconds: f64,
    /// Lock 0's time-to-acquire distribution (cycles).
    pub wait: Histogram,
    /// Preemption windows applied.
    pub preemptions: u64,
    /// Injected thread migrations applied.
    pub migrations: u64,
}

impl ModernCell {
    fn from_sim(cfg: &ModernConfig, sim: &SimReport) -> ModernCell {
        ModernCell {
            micro: MicroReport::from_sim(cfg.kind, cfg.threads, sim, 0),
            seconds: sim.seconds(),
            wait: sim
                .lock_traces
                .first()
                .map(|t| t.wait.clone())
                .unwrap_or_default(),
            preemptions: sim.preemptions,
            migrations: sim.migrations,
        }
    }
}

/// What the `handoff` artifact reads from one profiled run: lock 0's
/// `SimStats` trace and its stream-only profile.
#[derive(Debug)]
pub struct ProfiledCell {
    /// Lock 0's acquisition trace.
    pub trace: LockTrace,
    /// Lock 0's residency runs and acquire-phase split.
    pub lock: LockProfile,
}

/// The result of one cell; its type follows from the spec's variant.
type Output = Box<dyn Any + Send + Sync>;

impl Cell {
    /// The cell's key: its `Debug` rendering.
    pub fn key(&self) -> String {
        format!("{self:?}")
    }

    fn run(&self) -> Output {
        match self {
            Cell::Modern(cfg) => Box::new(ModernCell::from_sim(cfg, &run_modern_raw(cfg).0)),
            Cell::Custom(lock, cfg) => Box::new(ModernCell::from_sim(cfg, &lock.run(cfg))),
            Cell::Profiled(cfg) => {
                let (mut sim, mut profile) = run_modern_profiled(cfg);
                Box::new(ProfiledCell {
                    trace: sim.lock_traces.swap_remove(0),
                    lock: profile.locks.swap_remove(0),
                })
            }
            Cell::App(model, cfg) => Box::new(run_app(model, cfg)),
            Cell::Traditional(cfg) => Box::new(run_traditional(cfg)),
            Cell::Uncontested(kind, machine, params) => {
                Box::new(run_uncontested(*kind, machine, params))
            }
            Cell::LockServer(cfg) => Box::new(Service::from(&run_lockserver(cfg))),
            Cell::Layout(cfg) => Box::new(run_layout(cfg)),
            Cell::Traced(cfg) => {
                let (report, records) = run_modern_traced(cfg);
                Box::new(Capture {
                    kind: cfg.kind,
                    report,
                    records,
                })
            }
        }
    }
}

/// One invocation's filled cell table (see the module docs).
pub struct Cells {
    table: HashMap<String, Output>,
}

impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cells").field("len", &self.len()).finish()
    }
}

impl Cells {
    /// Runs each distinct cell of `specs` once, through one
    /// [`runner::run_jobs`] pool, in the order of first declaration.
    pub fn fill(specs: Vec<Cell>) -> Cells {
        let mut seen = HashSet::new();
        let unique: Vec<(String, Cell)> = specs
            .into_iter()
            .map(|spec| (spec.key(), spec))
            .filter(|(key, _)| seen.insert(key.clone()))
            .collect();
        drop(seen); // the keys' second copies are not needed while cells run
        let outputs = runner::run_jobs(unique.iter().map(|(_, spec)| || spec.run()).collect());
        let keys = unique.into_iter().map(|(key, _)| key);
        Cells {
            table: keys.zip(outputs).collect(),
        }
    }

    /// Distinct cells in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table holds no cell.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The output of `spec`, which its artifact must have declared.
    fn get<T: 'static>(&self, spec: Cell) -> &T {
        let key = spec.key();
        let output = self.table.get(&key);
        let output = output.unwrap_or_else(|| panic!("cell read but not declared: {key}"));
        output.downcast_ref().expect("a key names its variant")
    }

    /// The microbenchmark run of `cfg` with its registered lock kind.
    pub fn modern(&self, cfg: &ModernConfig) -> &ModernCell {
        self.get(Cell::Modern(cfg.clone()))
    }

    /// The microbenchmark run of `cfg` with `lock`.
    pub fn custom(&self, lock: CustomLock, cfg: &ModernConfig) -> &ModernCell {
        self.get(Cell::Custom(lock, cfg.clone()))
    }

    /// The microbenchmark run of `cfg` with the streaming profiler
    /// attached.
    pub fn profiled(&self, cfg: &ModernConfig) -> &ProfiledCell {
        self.get(Cell::Profiled(cfg.clone()))
    }

    /// The run of application `model` under `cfg`.
    pub fn app(&self, model: &AppModel, cfg: &AppRunConfig) -> &AppReport {
        self.get(Cell::App(model.clone(), cfg.clone()))
    }

    /// The traditional-microbenchmark run of `cfg`.
    pub fn traditional(&self, cfg: &TraditionalConfig) -> &MicroReport {
        self.get(Cell::Traditional(cfg.clone()))
    }

    /// `kind`'s uncontested acquire-release costs on `machine`.
    pub fn uncontested(
        &self,
        kind: LockKind,
        machine: &MachineConfig,
        params: &SimLockParams,
    ) -> &UncontestedReport {
        self.get(Cell::Uncontested(kind, machine.clone(), *params))
    }

    /// The lock-service run of `cfg`.
    pub fn lockserver(&self, cfg: &LockServerConfig) -> &Service {
        self.get(Cell::LockServer(cfg.clone()))
    }

    /// The lock/data layout run of `cfg`.
    pub fn layout(&self, cfg: &LayoutConfig) -> &LayoutOutcome {
        self.get(Cell::Layout(cfg.clone()))
    }

    /// Moves the output of `spec` out of the table (a traced run's
    /// [`Capture`] holds its whole event stream, so it is not copied).
    pub fn take<T: 'static>(&mut self, spec: &Cell) -> T {
        let key = spec.key();
        let output = self.table.remove(&key);
        let output = output.unwrap_or_else(|| panic!("cell read but not declared: {key}"));
        *output.downcast().expect("a key names its variant")
    }
}
