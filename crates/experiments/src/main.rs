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

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nuca_experiments::{
    run_experiment_in, runner, tracecap, Cells, Report, Scale, EXPERIMENTS, EXTENSIONS,
};
use nuca_experiments::UnknownExperiment;

const USAGE: &str = "usage: experiments [--fast] [--out DIR] [--jobs N] \
     [--protocol flat|mesi|dragon] \
     [--binding rr|clustered] [--kinds NAME,NAME,...] [--twa-slots N] \
     [--twa-hash mod|stride] [--trace PATH] \
     [--metrics-json PATH] [--profile PATH] [--shards N] [--zipf THETA] \
     [--arrival-gap CYCLES] <id>... | all | --list";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("target/experiments");
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut profile_path: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fast" => scale = Scale::Fast,
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match nuca_experiments::cli::parse_jobs(iter.next().as_deref()) {
                Ok(n) => runner::set_max_jobs(n),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--protocol" => match nuca_experiments::cli::parse_protocol(iter.next().as_deref()) {
                Ok(proto) => nucasim::set_default_protocol(proto),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--binding" => match nuca_experiments::cli::parse_binding(iter.next().as_deref()) {
                Ok(binding) => nuca_workloads::modern::set_default_binding(binding),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--twa-slots" => match nuca_experiments::cli::parse_twa_slots(iter.next().as_deref()) {
                Ok(n) => nucasim_locks::set_default_twa_slots(n),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--twa-hash" => match nuca_experiments::cli::parse_twa_hash(iter.next().as_deref()) {
                Ok(hash) => nucasim_locks::set_default_twa_hash(hash),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--kinds" => match nuca_experiments::cli::parse_kinds(iter.next().as_deref()) {
                Ok(kinds) => nuca_experiments::kinds::select(kinds),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match nuca_experiments::cli::parse_shards(iter.next().as_deref()) {
                Ok(n) => nuca_experiments::lockserver::set_shards(n),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--zipf" => match nuca_experiments::cli::parse_zipf(iter.next().as_deref()) {
                Ok(theta) => nuca_experiments::lockserver::set_zipf_theta(theta),
                Err(msg) => {
                    eprintln!("{msg}");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--arrival-gap" => {
                match nuca_experiments::cli::parse_arrival_gap(iter.next().as_deref()) {
                    Ok(cycles) => nuca_experiments::lockserver::set_arrival_gap(cycles),
                    Err(msg) => {
                        eprintln!("{msg}");
                        eprintln!("{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace" => match iter.next() {
                Some(path) => trace_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-json" => match iter.next() {
                Some(path) => metrics_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--metrics-json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => match iter.next() {
                Some(path) => profile_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--profile requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                println!("paper artifacts: {}", EXPERIMENTS.join(", "));
                println!("extensions:      {}", EXTENSIONS.join(", "));
                println!("meta:            all");
                println!("lock kinds:      {}", hbo_locks::LockCatalog::menu());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unrecognized flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_owned());
    }

    // Expand `all` here (rather than deferring to `run_experiment`) so
    // each artifact gets its own wall-clock line.
    let ids: Vec<String> = ids
        .iter()
        .flat_map(|id| {
            if id == "all" {
                EXPERIMENTS
                    .iter()
                    .chain(EXTENSIONS.iter())
                    .map(|&s| s.to_owned())
                    .collect()
            } else {
                vec![id.clone()]
            }
        })
        .collect();

    // Validate every requested id before running anything: a typo at the
    // end of the list should not cost a full sweep first.
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| {
            !EXPERIMENTS.contains(id) && !EXTENSIONS.contains(id)
        })
        .collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("{}", UnknownExperiment(id.to_owned()));
        }
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    // Streaming profiling observes every machine the artifacts below run
    // (observe-only, so TSV bytes are unchanged). Must be enabled before
    // the first run; results are collected at the end.
    if profile_path.is_some() {
        nucasim::profile::enable_global_profiling();
    }

    // One orchestration task per artifact; leaf simulation jobs inside
    // each artifact share the global --jobs budget, and every artifact
    // shares one cell cache, so a run two artifacts need happens once.
    // Results come back in request order, so rendering and TSV writes stay
    // deterministic.
    let cells = Cells::new();
    type ArtifactRun = (Duration, Result<Vec<Report>, UnknownExperiment>);
    let tasks: Vec<_> = ids
        .iter()
        .map(|id| {
            let (id, cells) = (id.clone(), &cells);
            move || -> ArtifactRun {
                let started = Instant::now();
                let result = run_experiment_in(&id, scale, cells);
                (started.elapsed(), result)
            }
        })
        .collect();
    let results = runner::run_fanout(tasks);
    drop(cells); // every artifact has read its cells

    // A TSV that cannot be written fails the run, after every artifact
    // has been reported.
    let mut tsv_failed = false;
    for (id, (elapsed, result)) in ids.iter().zip(results) {
        match result {
            Ok(reports) => {
                for report in reports {
                    println!("{}", report.render());
                    match report.write_tsv(&out_dir) {
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
    if trace_path.is_some() || metrics_path.is_some() {
        if let Err(err) =
            tracecap::write_captures(scale, trace_path.as_deref(), metrics_path.as_deref())
        {
            eprintln!("could not write capture: {err}");
            return ExitCode::FAILURE;
        }
    }

    // nuca-prof output: the label-keyed merge of every profiled machine
    // above (one entry per lock kind, since workload runners label
    // machines by kind).
    if let Some(path) = profile_path {
        let profiles = nucasim::profile::take_global_profiles();
        let json = nuca_experiments::profiler::profile_json(&profiles);
        match std::fs::write(&path, json) {
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
