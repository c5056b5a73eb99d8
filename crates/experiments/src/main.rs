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
use std::time::Instant;

use nuca_experiments::cli::{self, Invocation, USAGE};
use nuca_experiments::{run_experiments, runner, tracecap, EXPERIMENTS, EXTENSIONS};

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

    // One plan: the union of the artifacts' cells (and the trace
    // capture's) runs once in the --jobs pool, then every report renders
    // from the filled table in request order. Under --profile every cell's
    // machine is profiled (observe-only, so TSV bytes are unchanged).
    let started = Instant::now();
    let events = nucasim::sim_events_total();
    let ids: Vec<&str> = run.ids.iter().map(String::as_str).collect();
    let capture = run.trace.is_some() || run.metrics_json.is_some();
    let outcome = match run_experiments(&ids, settings, scale, capture, run.profile.is_some()) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };

    // A TSV that cannot be written fails the run, after every artifact
    // has been reported.
    let mut tsv_failed = false;
    for report in &outcome.reports {
        println!("{}", report.render());
        match report.write_tsv(&run.out_dir) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(err) => {
                eprintln!("could not write TSV: {err}");
                tsv_failed = true;
            }
        }
    }
    eprintln!(
        "[{} cells requested, {} run, {} simulated events in {:.1?}]",
        outcome.requested,
        outcome.run,
        nucasim::sim_events_total() - events,
        started.elapsed()
    );

    if let Err(err) = tracecap::write_captures(
        scale,
        &outcome.captures,
        run.trace.as_deref(),
        run.metrics_json.as_deref(),
    ) {
        eprintln!("could not write capture: {err}");
        return ExitCode::FAILURE;
    }

    // nuca-prof output: the label-keyed merge of every profiled cell's
    // account (one entry per lock kind, and one for every other run).
    if let Some(path) = &run.profile {
        let json = nuca_experiments::profiler::profile_json(&outcome.profiles);
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
