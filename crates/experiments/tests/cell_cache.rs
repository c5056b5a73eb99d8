//! The plan's contract: a key names everything the run reads, a cell
//! several artifacts read is simulated once per invocation at any
//! `--jobs`, separate invocations never share, and every simulation runs
//! in the plan's pool — rendering a filled table simulates nothing.
//!
//! Simulated work is measured with `nucasim::sim_events_total()` deltas.
//! That counter and the job budget are process-wide, so every test here
//! holds [`SERIAL`].

use std::sync::Mutex;

use hbo_locks::{LockCatalog, LockKind};
use nuca_experiments::cli::{self, Invocation};
use nuca_experiments::{
    artifact, fig5, profiler, run_experiment, run_experiments, runner, Cell, Cells, Scale,
    Settings, EXPERIMENTS, EXTENSIONS,
};
use nuca_workloads::apps::{studied_apps, AppModel, AppRunConfig};
use nuca_workloads::modern::{run_modern, run_modern_profiled, ModernConfig};
use nucasim::{MachineConfig, ProtocolKind};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` and returns its result with the simulated events it cost.
fn events<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = nucasim::sim_events_total();
    let out = f();
    (out, nucasim::sim_events_total() - before)
}

#[test]
fn the_settings_protocol_is_in_the_config_and_the_key() {
    let _serial = serial();
    let mesi = Settings {
        protocol: ProtocolKind::Mesi,
        ..Settings::default()
    };
    let cfg = fig5::config(&mesi, Scale::Fast, LockKind::HboGt, 700);
    assert_eq!(cfg.machine.protocol, ProtocolKind::Mesi);
    let flat_cfg = fig5::config(&Settings::default(), Scale::Fast, LockKind::HboGt, 700);
    assert_eq!(flat_cfg.machine.protocol, ProtocolKind::Flat);

    // Declared twice, the flat config runs once; MESI is another cell.
    let specs = [&flat_cfg, &flat_cfg, &cfg].map(|c| Cell::Modern(c.clone()));
    let cells = Cells::fill(specs.into(), false);
    assert_eq!(cells.len(), 2, "one cell per protocol");
    let (under_mesi, flat) = (cells.modern(&cfg), cells.modern(&flat_cfg));
    let expected = run_modern(&cfg);
    assert_eq!(under_mesi.micro.elapsed_ns, expected.elapsed_ns);
    assert_eq!(under_mesi.micro.traffic, expected.traffic);
    assert_ne!(
        under_mesi.micro.elapsed_ns, flat.micro.elapsed_ns,
        "MESI must change the run"
    );
}

#[test]
fn key_sees_seed_critical_work_and_app_model() {
    let base = fig5::config(&Settings::default(), Scale::Fast, LockKind::Mcs, 0);
    let reseeded = ModernConfig {
        machine: base.machine.clone().with_seed(base.machine.seed + 1),
        ..base.clone()
    };
    let more_work = ModernConfig {
        critical_work: 8,
        ..base.clone()
    };
    let mut profiled = base.clone();
    profiled.machine.profile = true;
    let key = Cell::Modern(base.clone()).key();
    for changed in [Cell::Modern(reseeded), Cell::Modern(more_work), Cell::Modern(profiled)] {
        assert_ne!(changed.key(), key, "{changed:?} shares a key");
    }

    let app = studied_apps().remove(0);
    let cfg = AppRunConfig {
        kind: LockKind::TatasExp,
        machine: MachineConfig::wildfire(2, 2),
        threads: 4,
        scale: 0.004,
        ..AppRunConfig::default()
    };
    let busier = AppModel {
        think_cycles: app.think_cycles + 1,
        ..app.clone()
    };
    let key = |model: &AppModel| Cell::App(model.clone(), cfg.clone()).key();
    assert_eq!(key(&app), key(&app.clone()));
    assert_ne!(key(&busier), key(&app), "a changed AppModel must be another cell");
}

#[test]
fn shared_cells_run_once_per_invocation_at_any_jobs() {
    let _serial = serial();
    let ids = ["fig5", "lat_hist", "table2"];
    let (_, fig5_alone) = events(|| run_experiment("fig5", Scale::Fast).unwrap());
    // The one cell table2 needs and fig5 skips (fig5 stops TATAS at
    // critical_work = 1300).
    let settings = Settings::default();
    let tatas = fig5::config(&settings, Scale::Fast, LockKind::Tatas, 1500);
    let (_, tatas) = events(|| Cells::fill(vec![Cell::Modern(tatas)], false));
    for jobs in [1, 4] {
        runner::set_max_jobs(jobs);
        let (_, together) = events(|| run_experiments(&ids, &settings, Scale::Fast, false, false));
        runner::set_max_jobs(0);
        assert_eq!(together, fig5_alone + tatas, "--jobs {jobs}");
    }
}

#[test]
fn a_profiled_plan_accounts_every_machine_once() {
    let _serial = serial();
    let settings = Settings::default();
    let outcome = run_experiments(&["handoff"], &settings, Scale::Fast, false, true).unwrap();
    let labels: Vec<&str> = outcome.profiles.iter().map(|(l, _)| l.as_str()).collect();
    let mut kinds: Vec<&str> = LockCatalog::kinds().iter().map(|k| k.as_str()).collect();
    kinds.sort_unstable();
    assert_eq!(labels, kinds, "one account per registered kind, sorted");

    // Every machine the plan ran is in the document exactly once: the
    // labels' events sum to those of each cell run on its own.
    let documented: u64 = outcome.profiles.iter().map(|(_, p)| p.profile.events).sum();
    let alone: u64 = profiler::cells(&settings, Scale::Fast)
        .iter()
        .map(|spec| match spec {
            Cell::Modern(cfg) => run_modern_profiled(cfg).1.events,
            other => panic!("handoff declared {other:?}"),
        })
        .sum();
    assert!(alone > 0);
    assert_eq!(documented, alone);
}

#[test]
fn each_run_experiment_call_simulates_afresh() {
    let _serial = serial();
    let (_, first) = events(|| run_experiment("lat_hist", Scale::Fast).unwrap());
    let (_, second) = events(|| run_experiment("lat_hist", Scale::Fast).unwrap());
    assert!(first > 0);
    assert_eq!(first, second);
}

/// Fills each artifact's declared cells, then renders it: rendering must
/// simulate nothing (every machine ran in the pool, so `--jobs` bounds
/// it) and must read no undeclared cell (such a lookup panics).
fn render_simulates_nothing(settings: &Settings) {
    runner::set_max_jobs(2);
    for &id in EXPERIMENTS.iter().chain(&EXTENSIONS) {
        let (declare, render) = artifact(id).expect("a known artifact");
        let cells = Cells::fill(declare(settings, Scale::Fast), false);
        let (reports, cost) = events(|| render(settings, Scale::Fast, &cells));
        assert!(!reports.is_empty(), "{id} rendered no report");
        assert_eq!(cost, 0, "{id} simulated {cost} events while rendering");
    }
    runner::set_max_jobs(0);
}

#[test]
fn every_simulation_runs_in_the_plan() {
    let _serial = serial();
    render_simulates_nothing(&Settings::default());
    // ci.sh's flag set: every setting away from its default.
    let flags = "--protocol dragon --binding clustered --twa-slots 64 --twa-hash stride \
                 --kinds TATAS,MCS,TWA,CNA --shards 4 --zipf 0.5 --arrival-gap 8000";
    let Ok(Invocation::Run(run)) = cli::parse_args(flags.split(' ').map(str::to_owned)) else {
        panic!("ci.sh's flags must parse");
    };
    assert_ne!(run.settings, Settings::default());
    render_simulates_nothing(&run.settings);
}
