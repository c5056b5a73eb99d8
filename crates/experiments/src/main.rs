//! CLI for regenerating the paper's tables and figures.
//!
//! ```bash
//! experiments all                # every artifact, paper scale
//! experiments fig5 table2       # selected artifacts
//! experiments all --fast        # smoke-test scale
//! experiments all --jobs 4      # bound parallel simulation jobs
//! experiments fig5 --trace t.json --metrics-json m.json  # observability
//! experiments --list            # artifact inventory
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nuca_experiments::cli::{self, Invocation, USAGE};
use nuca_experiments::{
    run_experiment_in, runner, tracecap, Cells, Report, UnknownExperiment, EXPERIMENTS, EXTENSIONS,
};

fn main() -> ExitCode {
    let run = match cli::parse_args(std::env::args().skip(1)) {
        Ok(Invocation::Run(run)) => run,
        Ok(Invocation::List) => {
            println!("paper artifacts: {}", EXPERIMENTS.join(", "));
            println!("extensions:      {}", EXTENSIONS.join(", "));
            println!("meta:            all");
            println!("lock kinds:      {}", hbo_locks::LockCatalog::menu());
            return ExitCode::SUCCESS;
        }
        Ok(Invocation::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(jobs) = run.jobs {
        runner::set_max_jobs(jobs);
    }
    let (scale, settings) = (run.scale, &run.settings);

    // Streaming profiling observes every machine the artifacts below run
    // (observe-only, so TSV bytes are unchanged). Must be enabled before
    // the first run; results are collected at the end.
    if run.profile.is_some() {
        nucasim::profile::enable_global_profiling();
    }

    // One orchestration task per artifact; leaf simulation jobs inside
    // each artifact share the global --jobs budget, and every artifact
    // shares one cell cache, so a run two artifacts need happens once.
    // Results come back in request order, so rendering and TSV writes stay
    // deterministic.
    let cells = Cells::new();
    type ArtifactRun = (Duration, Result<Vec<Report>, UnknownExperiment>);
    let tasks: Vec<_> = run
        .ids
        .iter()
        .map(|id| {
            let cells = &cells;
            move || -> ArtifactRun {
                let started = Instant::now();
                let result = run_experiment_in(id, settings, scale, cells);
                (started.elapsed(), result)
            }
        })
        .collect();
    let results = runner::run_fanout(tasks);
    drop(cells); // every artifact has read its cells

    // A TSV that cannot be written fails the run, after every artifact
    // has been reported.
    let mut tsv_failed = false;
    for (id, (elapsed, result)) in run.ids.iter().zip(results) {
        match result {
            Ok(reports) => {
                for report in reports {
                    println!("{}", report.render());
                    match report.write_tsv(&run.out_dir) {
                        Ok(path) => println!("wrote {}\n", path.display()),
                        Err(err) => {
                            eprintln!("could not write TSV: {err}");
                            tsv_failed = true;
                        }
                    }
                }
                eprintln!("[{id} done in {elapsed:.1?}]");
            }
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Observability capture: dedicated traced runs, after the artifacts.
    if run.trace.is_some() || run.metrics_json.is_some() {
        if let Err(err) = tracecap::write_captures(
            settings,
            scale,
            run.trace.as_deref(),
            run.metrics_json.as_deref(),
        ) {
            eprintln!("could not write capture: {err}");
            return ExitCode::FAILURE;
        }
    }

    // nuca-prof output: the label-keyed merge of every profiled machine
    // above (one entry per lock kind, since workload runners label
    // machines by kind).
    if let Some(path) = &run.profile {
        let profiles = nucasim::profile::take_global_profiles();
        let json = nuca_experiments::profiler::profile_json(&profiles);
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("could not write profile JSON {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if tsv_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
