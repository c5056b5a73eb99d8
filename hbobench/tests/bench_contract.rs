//! The benchmark's own contract: every entry point runs at `--smoke`
//! scale, every per-layer metric `BENCHMARK.json` names is emitted (the
//! `modelcheck.*` ones by `bench.py`, from the `nuca-mcheck` runs), and
//! the coherence grid is the fig5 artifact's grid.
//!
//! Run with `cargo test --manifest-path hbobench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

use hbo_locks::LockCatalog;
use hbobench::coherence::{self, Grid, DEFAULT_SEED};
use hbobench::layers::{self, LayerScale};
use hbobench::spans::Tracer;
use nuca_experiments::report::fmt_ratio;
use nuca_experiments::{run_experiment, Scale};
use nucasim::ProtocolKind;

/// The simulator's default protocol, the runner's job budget and its event
/// counter are process-wide, so tests that simulate run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(name, unit)` of every per-layer metric in `BENCHMARK.json`, read with
/// a plain text scan: each metric object there holds `"name"` then `"unit"`.
fn spec_per_layer() -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let per_layer = spec
        .split("\"per_layer\"")
        .nth(1)
        .expect("BENCHMARK.json has a per_layer list");
    let value_of = |chunk: &str, key: &str| -> String {
        let after = chunk
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("key present");
        after.split('"').nth(1).expect("string value").to_owned()
    };
    per_layer
        .split('{')
        .skip(1)
        .map(|obj| (value_of(obj, "name"), value_of(obj, "unit")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn layers_emit_every_listed_metric() {
    let _g = serial();
    let mut tracer = Tracer::new();
    let report = layers::run(&LayerScale::smoke(), 1, &mut tracer);
    assert_eq!(
        report.failed, 0,
        "{} of {} checks failed",
        report.failed, report.attempted
    );
    assert!(report.attempted > 0);
    assert!(!tracer.spans().is_empty());

    let emitted: BTreeMap<&str, (f64, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), (m.value, m.unit)))
        .collect();
    assert_eq!(
        emitted.len(),
        report.metrics.len(),
        "a metric is emitted twice"
    );
    // bench.py names one states/s metric per subject `nuca-mcheck --list`
    // prints (the registered kinds), plus two totals.
    let mut from_mcheck: Vec<String> = LockCatalog::kinds()
        .iter()
        .map(|kind| format!("modelcheck.{kind}.states_per_s"))
        .collect();
    from_mcheck.extend([
        "modelcheck.distinct_states".into(),
        "modelcheck.transitions".into(),
    ]);
    let spec = spec_per_layer();
    for (name, _) in &spec {
        assert!(valid_name(name), "bad metric name {name:?}");
    }
    let (spec_mcheck, spec): (Vec<_>, Vec<_>) = spec
        .into_iter()
        .partition(|(name, _)| name.starts_with("modelcheck."));
    let mut spec_mcheck: Vec<String> = spec_mcheck.into_iter().map(|(n, _)| n).collect();
    spec_mcheck.sort();
    from_mcheck.sort();
    assert_eq!(
        spec_mcheck, from_mcheck,
        "BENCHMARK.json's modelcheck metrics"
    );
    assert_eq!(
        spec.len(),
        emitted.len(),
        "BENCHMARK.json and the pass list different metrics"
    );
    for (name, unit) in &spec {
        let (value, got_unit) = emitted
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{name} is listed but not emitted"));
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(got_unit, unit, "{name}");
    }
}

#[test]
fn fast_grid_under_mesi_is_the_fig5_artifact() {
    let _g = serial();
    nucasim::set_default_protocol(ProtocolKind::Mesi);
    let fig5 = run_experiment("fig5", Scale::Fast);
    nucasim::set_default_protocol(ProtocolKind::Flat);
    let fig5 = fig5.expect("fig5 is an artifact");

    let grid = Grid::fast();
    let cells = coherence::run_grid(&grid, ProtocolKind::Mesi, DEFAULT_SEED);
    let width = grid.critical_work.len();
    for (ki, kind) in LockCatalog::kinds().iter().enumerate() {
        let time = fig5[0].row_by_key(kind.as_str()).expect("one row per kind");
        let handoff = fig5[1].row_by_key(kind.as_str()).expect("one row per kind");
        for ci in 0..width {
            let (t, h) = match &cells[ki * width + ci] {
                Some(r) => {
                    assert!(coherence::cell_complete(&grid, r), "{kind} cell {ci}");
                    (
                        format!("{:.0}", r.ns_per_iteration),
                        fmt_ratio(r.handoff_ratio),
                    )
                }
                None => ("-".to_owned(), "-".to_owned()),
            };
            assert_eq!(time[ci + 1], t, "{kind} time, column {ci}");
            assert_eq!(handoff[ci + 1], h, "{kind} handoff, column {ci}");
        }
    }
}

/// Runs the binary and returns its JSON line.
fn hbo_bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hbo-bench"))
        .args(args)
        .output()
        .expect("hbo-bench runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn in_process_workloads_pass_their_checks() {
    let _g = serial();
    for workload in ["coherence", "hostlocks"] {
        let json = hbo_bench(&[workload, "--smoke", "--seed", "3", "--seconds", "0.001"]);
        assert!(json.contains(r#""failed":0"#), "{workload}: {json}");
        assert!(!json.contains(r#""attempted":0,"#), "{workload}: {json}");
        // The zero-work run times no pass: every part's list is empty.
        let setup = hbo_bench(&[workload, "--seconds", "0"]);
        let parts = setup
            .split(r#""parts":{"#)
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .unwrap_or_else(|| panic!("{workload} set-up: {setup}"));
        assert!(
            parts.split('[').skip(1).all(|list| list.starts_with(']')),
            "{workload} set-up: {setup}"
        );
        assert!(json.contains(r#""parts":{""#), "{workload}: {json}");
    }
}

#[test]
fn launcher_reports_the_child() {
    let json = hbo_bench(&["run", "--", "sh", "-c", "exit 4"]);
    assert!(json.trim_end().ends_with('}'), "{json}");
    assert!(json.contains(r#""code":4"#), "{json}");
    assert!(json.contains(r#""max_rss_kib":"#), "{json}");
}
