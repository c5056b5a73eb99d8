//! The cell cache's contract: a key names everything the run reads, a
//! shared cell is simulated once per invocation at any `--jobs`, and
//! separate invocations never share.
//!
//! Simulated work is measured with `nucasim::sim_events_total()` deltas.
//! That counter and the job budget are process-wide, so every test here
//! holds [`SERIAL`].

use std::sync::{Arc, Mutex};

use hbo_locks::LockKind;
use nuca_experiments::{fig5, run_experiment, run_experiment_in, runner, Cells, Scale, Settings};
use nuca_workloads::apps::{studied_apps, AppModel, AppRunConfig};
use nuca_workloads::modern::{run_modern, ModernConfig};
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

    let cells = Cells::new();
    let flat = cells.modern(&flat_cfg);
    let (again, cost) = events(|| cells.modern(&flat_cfg));
    assert!(Arc::ptr_eq(&flat, &again), "the same config must hit");
    assert_eq!(cost, 0);

    let (under_mesi, cost) = events(|| cells.modern(&cfg));
    assert!(cost > 0, "another protocol must miss");
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
    let _serial = serial();
    let cells = Cells::new();
    let base = fig5::config(&Settings::default(), Scale::Fast, LockKind::Mcs, 0);
    cells.modern(&base);
    let reseeded = ModernConfig {
        machine: base.machine.clone().with_seed(base.machine.seed + 1),
        ..base.clone()
    };
    let more_work = ModernConfig {
        critical_work: 8,
        ..base.clone()
    };
    for changed in [reseeded, more_work] {
        let (_, cost) = events(|| cells.modern(&changed));
        assert!(cost > 0, "changed config hit a cached cell: {changed:?}");
    }

    let app = studied_apps().remove(0);
    let cfg = AppRunConfig {
        kind: LockKind::TatasExp,
        machine: MachineConfig::wildfire(2, 2),
        threads: 4,
        scale: 0.004,
        ..AppRunConfig::default()
    };
    cells.app(&app, &cfg);
    let (_, cost) = events(|| cells.app(&app, &cfg));
    assert_eq!(cost, 0, "the same app cell must hit");
    let busier = AppModel {
        think_cycles: app.think_cycles + 1,
        ..app.clone()
    };
    let (_, cost) = events(|| cells.app(&busier, &cfg));
    assert!(cost > 0, "a changed AppModel must miss");
}

#[test]
fn shared_cells_run_once_per_invocation_at_any_jobs() {
    let _serial = serial();
    let ids = ["fig5", "lat_hist", "table2"];
    let (_, fig5_alone) = events(|| run_experiment("fig5", Scale::Fast).unwrap());
    // The one cell table2 needs and fig5 skips (fig5 stops TATAS at
    // critical_work = 1300).
    let settings = Settings::default();
    let (_, tatas) = events(|| {
        Cells::new().modern(&fig5::config(&settings, Scale::Fast, LockKind::Tatas, 1500))
    });
    for jobs in [1, 4] {
        runner::set_max_jobs(jobs);
        let cells = Cells::new();
        let tasks: Vec<_> = ids
            .iter()
            .map(|&id| {
                let (settings, cells) = (&settings, &cells);
                move || run_experiment_in(id, settings, Scale::Fast, cells).unwrap()
            })
            .collect();
        let (_, together) = events(|| runner::run_fanout(tasks));
        runner::set_max_jobs(0);
        assert_eq!(together, fig5_alone + tatas, "--jobs {jobs}");
    }
}

#[test]
fn each_run_experiment_call_simulates_afresh() {
    let _serial = serial();
    let (_, first) = events(|| run_experiment("lat_hist", Scale::Fast).unwrap());
    let (_, second) = events(|| run_experiment("lat_hist", Scale::Fast).unwrap());
    assert!(first > 0);
    assert_eq!(first, second);
}
