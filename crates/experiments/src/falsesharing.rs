//! Extension experiment — false sharing between a lock word and the data
//! it guards, visible only under line-granular coherence.
//!
//! The paper's model (and this repo's default `flat` memory model) treats
//! every word as its own coherence unit, which is exactly right for lock
//! *words* but blind to a classic deployment bug: allocating the lock and
//! its protected data in the same cache line. Every critical-section
//! update then invalidates the spinners' cached copy of the lock word,
//! and every spin re-fetch steals the line back from the holder — the
//! false-sharing stampede.
//!
//! The workload makes the bug visible the way real code does: the holder
//! updates the protected word **repeatedly** inside the critical section
//! (a counter, a queue head — anything hot), while the other CPUs spin
//! toward their own acquire. Layout *colocated* allocates the data word
//! directly after the lock words — the historical default allocation
//! order, sharing the lock's cache line; *padded* aligns it onto its own
//! line. Under `flat` the two layouts are **identical by construction**:
//! padding only moves addresses, never word-level behavior. Under MESI
//! every spinner poll downgrades the holder's line and every data update
//! pays an upgrade + refetch storm — but only colocated. Dragon sits in
//! between: updates push words to sharers without killing their copies.
//!
//! A second table (`falsesharing_twa`) sweeps the TWA waiting-array
//! geometry under MESI: slot count × ticket→slot hash. With the published
//! `mod` hash, consecutive tickets park on *adjacent* array words — the
//! promote bump falsely shares its line with the neighbouring slots; the
//! `stride` hash scatters neighbours across lines at the same collision
//! rate.
//!
//! Both tables name their own protocols and the second its own TWA
//! geometry, so `--protocol`, `--twa-slots` and `--twa-hash` leave this
//! artifact's TSVs unchanged.

use std::sync::Arc;

use hbo_locks::LockKind;
use nuca_topology::NodeId;
use nuca_workloads::modern::ModernConfig;
use nucasim::{Addr, Command, CpuCtx, Machine, MachineConfig, MemorySystem, Program, ProtocolKind};
use nucasim_locks::{build_lock, DriveResult, GtSlots, SessionDriver, SimLockParams, TwaHash};

use crate::report::Report;
use crate::{Cell, Cells, Scale, Settings};

/// Data-word updates per critical section. One write would be a wash
/// (the QOLB effect — `colloc` — pays it back at handover); the storm
/// needs the alternation of holder updates with spinner polls.
const CS_UPDATES: u32 = 12;

/// Cycles between consecutive data updates — the "compute" part of the
/// critical section, long enough for spinner polls to interleave.
const CS_THINK: u64 = 40;

/// Where the guarded data word sits relative to the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Data word allocated directly after the lock words (shares the
    /// lock's cache line under the default geometry).
    Colocated,
    /// Data word pushed onto its own line by dead padding words.
    Padded,
}

impl Layout {
    const ALL: [Layout; 2] = [Layout::Colocated, Layout::Padded];

    fn name(self) -> &'static str {
        match self {
            Layout::Colocated => "colocated",
            Layout::Padded => "padded",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FsState {
    Stagger,
    Start,
    Acquiring,
    /// `left` data updates remain in this critical section; each is a
    /// write followed by [`CS_THINK`] cycles of compute.
    Update { left: u32, writing: bool },
    Releasing,
    Think,
}

/// { acquire; CS_UPDATES × (write data; compute); release; think }.
struct FsProgram {
    driver: SessionDriver,
    data: Addr,
    iters: u32,
    state: FsState,
}

impl FsProgram {
    fn drive(&mut self, r: DriveResult, ctx: &mut CpuCtx<'_>) -> Command {
        match r {
            DriveResult::Busy(cmd) => cmd,
            DriveResult::AcquireDone => {
                self.state = FsState::Update {
                    left: CS_UPDATES,
                    writing: true,
                };
                Command::Write(self.data, ctx.now)
            }
            DriveResult::ReleaseDone => {
                self.state = FsState::Think;
                // Deterministic per-CPU think time: breaks lockstep
                // without consuming machine randomness.
                Command::Delay(300 + 37 * (ctx.cpu.index() as u64 % 11))
            }
        }
    }
}

impl Program for FsProgram {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        loop {
            match self.state {
                FsState::Stagger => {
                    self.state = FsState::Start;
                    return Command::Delay(1 + 23 * ctx.cpu.index() as u64);
                }
                FsState::Start => {
                    if self.iters == 0 {
                        return Command::Done;
                    }
                    self.iters -= 1;
                    self.state = FsState::Acquiring;
                    let r = self.driver.start_acquire(ctx);
                    return self.drive(r, ctx);
                }
                FsState::Acquiring => {
                    let r = self.driver.on_result(ctx, last);
                    return self.drive(r, ctx);
                }
                FsState::Update { left, writing } => {
                    if writing {
                        self.state = FsState::Update {
                            left,
                            writing: false,
                        };
                        return Command::Delay(CS_THINK);
                    }
                    if left > 1 {
                        self.state = FsState::Update {
                            left: left - 1,
                            writing: true,
                        };
                        return Command::Write(self.data, ctx.now);
                    }
                    self.state = FsState::Releasing;
                    let r = self.driver.start_release(ctx);
                    return self.drive(r, ctx);
                }
                FsState::Releasing => {
                    let r = self.driver.on_result(ctx, last);
                    return self.drive(r, ctx);
                }
                FsState::Think => {
                    self.state = FsState::Start;
                    continue;
                }
            }
        }
    }
}

/// Advances the allocation cursor to a fresh cache line: the next
/// [`MemorySystem::alloc`] lands on a `line`-aligned index. The filler
/// words are never touched, so under the flat word-granular model this
/// is invisible.
fn align_to_line(mem: &mut MemorySystem, line: usize) {
    while !(mem.alloc(NodeId(0)).index() + 1).is_multiple_of(line) {}
}

/// One cell of the layout table: `kind` × `layout` on `machine`, whose
/// protocol is the column.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Lock under test.
    pub kind: LockKind,
    /// Where the data word sits.
    pub layout: Layout,
    /// The machine, with the column's protocol.
    pub machine: MachineConfig,
    /// Acquire-release iterations per CPU.
    pub iterations: u32,
    /// Lock tunables.
    pub params: SimLockParams,
}

/// What the layout table reads from one run.
#[derive(Debug, Clone, Copy)]
pub struct LayoutOutcome {
    /// Simulated nanoseconds per acquisition.
    pub ns_per_acquire: f64,
    /// Global coherence transactions.
    pub global: u64,
}

/// Runs one cell of the layout table.
pub fn run_layout(cfg: &LayoutConfig) -> LayoutOutcome {
    let (kind, layout, iters) = (cfg.kind, cfg.layout, cfg.iterations);
    let proto = cfg.machine.protocol;
    let line = cfg.machine.geometry.line_words;
    let mut m = Machine::new(cfg.machine.clone());
    let topo = Arc::clone(m.topology());
    let gt = GtSlots::alloc(m.mem_mut(), &topo);
    // Line-align the lock so "directly after the lock" deterministically
    // means "on the lock's line" regardless of how many words the global
    // throttling slots consumed.
    align_to_line(m.mem_mut(), line);
    let lock = build_lock(kind, m.mem_mut(), &topo, &gt, NodeId(0), &cfg.params);
    if layout == Layout::Padded {
        align_to_line(m.mem_mut(), line);
    }
    let data = m.mem_mut().alloc(NodeId(0));
    for cpu in topo.cpus() {
        let node = topo.node_of(cpu);
        m.add_program(
            cpu,
            Box::new(FsProgram {
                driver: SessionDriver::new(lock.session(cpu, node)),
                data,
                iters,
                state: FsState::Stagger,
            }),
        );
    }
    let status = m.run(50_000_000_000);
    assert!(status.finished_all, "{kind}/{}/{proto}: run stuck", layout.name());
    let report = m.into_report();
    let acquires = topo.num_cpus() as u64 * u64::from(iters);
    LayoutOutcome {
        ns_per_acquire: report.end_time as f64 / acquires as f64,
        global: report.traffic.global,
    }
}

/// The layout table's cells, row-major: lock kind × layout rows,
/// per-protocol columns.
fn layouts(settings: &Settings, scale: Scale) -> Vec<LayoutConfig> {
    let (per_node, iterations) = scale.pick((14, 24), (4, 8));
    let mut cfgs = Vec::new();
    for kind in [LockKind::TatasExp, LockKind::HboGt, LockKind::Mcs] {
        for layout in Layout::ALL {
            for proto in ProtocolKind::ALL {
                cfgs.push(LayoutConfig {
                    kind,
                    layout,
                    machine: MachineConfig::wildfire(2, per_node).with_protocol(proto),
                    iterations,
                    params: settings.params(),
                });
            }
        }
    }
    cfgs
}

/// The TWA geometry table's cells: slot count × ticket hash, under MESI.
fn geometries(settings: &Settings, scale: Scale) -> Vec<ModernConfig> {
    let (per_node, iters) = scale.pick((14, 40), (4, 15));
    let slot_counts = [4, 16, 64];
    let geometry = |(slots, hash)| ModernConfig {
        kind: LockKind::Twa,
        machine: MachineConfig::wildfire(2, per_node).with_protocol(ProtocolKind::Mesi),
        threads: per_node * 2,
        iterations: iters,
        critical_work: 8,
        params: SimLockParams::default().with_twa(slots, hash),
        binding: settings.binding,
        ..ModernConfig::default()
    };
    let axes = slot_counts.into_iter().flat_map(|n| TwaHash::ALL.map(|h| (n, h)));
    axes.map(geometry).collect()
}

/// The cells the `falsesharing` artifact reads: both tables'.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    let layouts = layouts(settings, scale).into_iter().map(Cell::Layout);
    let geometries = geometries(settings, scale).into_iter().map(Cell::Modern);
    layouts.chain(geometries).collect()
}

/// Runs the layout × protocol sweep plus the TWA-geometry table.
pub fn run(settings: &Settings, scale: Scale, cells: &Cells) -> Vec<Report> {
    vec![
        run_layouts(settings, scale, cells),
        run_twa_geometry(settings, scale, cells),
    ]
}

/// The main table: lock kind × layout rows, per-protocol columns.
fn run_layouts(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut report = Report::new(
        "falsesharing",
        "Lock/data false sharing by layout and coherence protocol",
        &[
            "Configuration",
            "flat ns/acq",
            "flat gtxn",
            "mesi ns/acq",
            "mesi gtxn",
            "dragon ns/acq",
            "dragon gtxn",
        ],
    );
    for cfgs in layouts(settings, scale).chunks(ProtocolKind::ALL.len()) {
        let mut row = vec![format!("{} {}", cfgs[0].kind, cfgs[0].layout.name())];
        for r in cfgs.iter().map(|cfg| cells.layout(cfg)) {
            row.push(format!("{:.0}", r.ns_per_acquire));
            row.push(format!("{}", r.global));
        }
        report.push_row(row);
    }
    report.push_note(
        "flat is word-granular: colocated and padded rows are identical by \
         construction — the layout bug is invisible without line-granular \
         coherence",
    );
    report.push_note(
        "under MESI every critical-section update invalidates the spinners' \
         copy of the lock line and every poll steals it back; padding the \
         data onto its own line removes the stampede",
    );
    report
}

/// The TWA waiting-array geometry sweep, under MESI where slot adjacency
/// is a line-sharing question.
fn run_twa_geometry(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut report = Report::new(
        "falsesharing_twa",
        "TWA waiting-array geometry under MESI (slots x ticket hash)",
        &["Geometry", "ns/acq", "global txns"],
    );
    for cfg in geometries(settings, scale) {
        let (slots, hash) = (cfg.params.twa_slots, cfg.params.twa_hash);
        let r = &cells.modern(&cfg).micro;
        assert!(r.finished, "TWA slots={slots} {hash} hit the cycle limit");
        report.push_row(vec![
            format!("slots={slots} {hash}"),
            format!("{:.0}", r.ns_per_iteration),
            format!("{}", r.traffic.global),
        ]);
    }
    report.push_note(
        "mod parks consecutive tickets on adjacent array words (one line \
         holds 8 slots); stride=7 scatters neighbours across lines at the \
         same collision rate",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(r: &Report, key: &str, col: usize) -> f64 {
        r.row_by_key(key).unwrap()[col].parse().unwrap()
    }

    #[test]
    fn both_tables_have_every_row() {
        let reports = crate::fast(cells, run);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].rows(), 6, "3 kinds x 2 layouts");
        assert_eq!(reports[1].rows(), 6, "3 slot counts x 2 hashes");
    }

    #[test]
    fn flat_cannot_see_the_layout_but_mesi_pays_for_it() {
        let r = crate::fast(cells, run_layouts);
        for kind in ["TATAS_EXP", "HBO_GT", "MCS"] {
            let colocated = format!("{kind} colocated");
            let padded = format!("{kind} padded");
            // flat: layout is invisible — identical ns/acq AND identical
            // global-transaction counts.
            assert_eq!(
                cell(&r, &colocated, 1),
                cell(&r, &padded, 1),
                "{kind}: flat ns/acq differs across layouts"
            );
            assert_eq!(
                cell(&r, &colocated, 2),
                cell(&r, &padded, 2),
                "{kind}: flat traffic differs across layouts"
            );
        }
        // MESI: colocating the hot data word with the TATAS_EXP lock word
        // turns every critical-section update into a spinner-visible
        // invalidation — the padded layout must be measurably cheaper in
        // both time and global transactions.
        let gap = cell(&r, "TATAS_EXP colocated", 3) / cell(&r, "TATAS_EXP padded", 3);
        assert!(
            gap > 1.03,
            "MESI colocated/padded ns ratio {gap:.3} shows no false-sharing cost"
        );
        assert!(
            cell(&r, "TATAS_EXP colocated", 4) > cell(&r, "TATAS_EXP padded", 4),
            "MESI colocation did not add global traffic"
        );
    }

    #[test]
    fn twa_geometry_changes_the_run() {
        let r = crate::fast(cells, run_twa_geometry);
        // Not asserting a direction (collision vs line-sharing trade), only
        // that the knob is live: the 6 geometries cannot all agree.
        let all: Vec<String> =
            (0..r.rows()).map(|i| r.cell(i, 1).unwrap().to_owned()).collect();
        assert!(
            all.iter().any(|v| v != &all[0]),
            "every TWA geometry produced identical ns/acq: {all:?}"
        );
    }
}
