//! Regression test for the parallel runner's core guarantee: the TSV
//! bytes of an artifact are identical whether its simulation jobs ran
//! serially or on several threads — also when artifacts of one
//! invocation share cells, and whichever of them declared a shared cell
//! first.

use std::sync::Mutex;

use nuca_experiments::{run_experiment, run_experiments, runner, Scale, Settings};

/// Serializes the tests in this file: they reconfigure the process-global
/// job budget.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

/// Renders every report of `id` at fast scale under the given job budget.
fn tsv_bytes(id: &str, jobs: usize) -> Vec<String> {
    runner::set_max_jobs(jobs);
    let reports = run_experiment(id, Scale::Fast).expect("known artifact");
    runner::set_max_jobs(0);
    reports.iter().map(|r| r.to_tsv()).collect()
}

/// Renders every report of `ids`, run as one invocation (one plan, like
/// the CLI) under the job budget.
fn tsv_bytes_together(ids: &[&str], jobs: usize) -> Vec<String> {
    runner::set_max_jobs(jobs);
    let outcome = run_experiments(ids, &Settings::default(), Scale::Fast, false, false);
    runner::set_max_jobs(0);
    let reports = outcome.expect("known artifacts").reports;
    reports.iter().map(|r| r.to_tsv()).collect()
}

#[test]
fn fig3_tsv_identical_serial_vs_parallel() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("fig3", 1), tsv_bytes("fig3", 2));
}

#[test]
fn fig5_tsv_identical_serial_vs_parallel() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("fig5", 1), tsv_bytes("fig5", 2));
}

#[test]
fn table2_tsv_identical_serial_vs_parallel() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("table2", 1), tsv_bytes("table2", 4));
}

#[test]
fn falsesharing_tsv_identical_serial_vs_parallel() {
    // The MESI/Dragon runs inside the sweep must be byte-identical across
    // job counts, exactly like the flat ones: protocol state is
    // per-machine, never shared between concurrent simulations.
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("falsesharing", 1), tsv_bytes("falsesharing", 4));
}

#[test]
fn robustness_tsv_identical_serial_vs_parallel() {
    // The faulted sweep must stay deterministic too: fault-layer RNG
    // streams are seeded per run, never shared across jobs.
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("robustness", 1), tsv_bytes("robustness", 4));
}

#[test]
fn lat_hist_tsv_identical_serial_vs_parallel() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("lat_hist", 1), tsv_bytes("lat_hist", 4));
}

#[test]
fn table6_tsv_identical_serial_vs_parallel() {
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("table6", 1), tsv_bytes("table6", 4));
}

#[test]
fn fig7_tsv_identical_serial_vs_parallel() {
    // fig7 declares each kind's p=1 cell twice (the baseline and the
    // first sweep point); the plan runs it once and both read it.
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(tsv_bytes("fig7", 1), tsv_bytes("fig7", 4));
}

#[test]
fn shared_cell_invocation_identical_serial_vs_parallel_and_alone() {
    // fig5, lat_hist and table2 share most of their cells. Run together,
    // each artifact's bytes must match the serial run and its own
    // separate run.
    let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ids = ["fig5", "lat_hist", "table2"];
    let serial = tsv_bytes_together(&ids, 1);
    assert_eq!(serial, tsv_bytes_together(&ids, 4));
    let alone: Vec<String> = ids.iter().flat_map(|id| tsv_bytes(id, 1)).collect();
    assert_eq!(serial, alone);
}
