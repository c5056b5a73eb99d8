//! `hbo-bench`: the in-process workloads and the traced per-layer pass of
//! the repository benchmark. `bench.py` spawns it; each subcommand prints
//! one JSON object on stdout.
//!
//! ```bash
//! hbo-bench coherence --seed 24301 --seconds 10   # MESI + Dragon fig5 grid
//! hbo-bench hostlocks --seed 1 --seconds 10       # real-atomics locks
//! hbo-bench layers --seed 1 --trace-out t.json    # per-layer metrics + spans
//! hbo-bench run -- nuca-mcheck --kind mcs         # time and RSS of a child
//! hbo-bench calibrate                             # the host-speed loop
//! ```
//!
//! `--seconds 0` stops after set-up: that zero-work run is what the
//! benchmark's `setup_s` times. `--smoke` shrinks every probe to a size
//! that only checks it runs. Exit codes: 0 when the JSON was printed
//! (failed output checks are counted in it), 2 on a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hbo_locks::LockCatalog;
use hbobench::child;
use hbobench::coherence::{self, Digest, Grid, PROTOCOLS};
use hbobench::hostlocks;
use hbobench::layers::{self, LayerScale};
use hbobench::spans::{instant_cost, Tracer};
use nuca_experiments::json::JsonWriter;
use nuca_experiments::runner;

const USAGE: &str =
    "usage: hbo-bench coherence|hostlocks|layers|calibrate [--seed N] [--seconds S] \
     [--smoke] [--trace-out PATH] | hbo-bench run -- PROGRAM [ARG...]";

/// Simulation jobs the coherence workload runs at once, as `experiments`
/// runs by default on the two-vCPU host.
const JOBS: usize = 2;

/// Acquire+release pairs per uncontested batch in the `hostlocks` workload.
const BATCH_PAIRS: u64 = 100_000;

/// Increments per thread of each contended lost-update check.
const CHECK_ITERATIONS: u64 = 20_000;

struct Args {
    command: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing subcommand")?;
    let mut parsed = Args {
        command,
        seed: coherence::DEFAULT_SEED,
        seconds: 10.0,
        smoke: false,
        trace_out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("--seconds: not a non-negative number: {v}")),
                };
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("run")
        && argv.get(2).map(String::as_str) == Some("--")
    {
        return run_child(&argv[3..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let json = match args.command.as_str() {
        "coherence" => run_coherence(&args),
        "hostlocks" => run_hostlocks(&args),
        "calibrate" => format!(
            "{{\"calibration_s\":{}}}",
            hbobench::calibration_loop().as_secs_f64()
        ),
        "layers" => match run_layers(&args) {
            Ok(json) => json,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{json}");
    ExitCode::SUCCESS
}

/// Runs `argv` with inherited stdio, then prints what [`child::run`]
/// measured as the last line of stdout.
fn run_child(argv: &[String]) -> ExitCode {
    match child::run(argv) {
        Ok(r) => {
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("code");
            w.number_raw(&r.code.to_string());
            w.field_raw("wall_s", &r.wall.as_secs_f64().to_string());
            w.field_u64("max_rss_kib", r.max_rss_kib);
            w.end_object();
            println!("{}", w.finish());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Whether a measuring run should start another pass: it makes at least
/// one, then stops once `--seconds` have passed.
fn another_pass(args: &Args, started: Instant, passes: usize) -> bool {
    args.seconds > 0.0 && (passes == 0 || started.elapsed() < Duration::from_secs_f64(args.seconds))
}

/// Writes the host seconds of every pass of each part of the workload, as
/// `"parts": {"name": [seconds, ...]}`, and the output-check counts.
/// `bench.py` sums each part's fastest pass, so a slow moment costs only
/// the part it fell in.
fn write_parts(w: &mut JsonWriter, parts: &[(String, Vec<f64>)], attempted: u64, failed: u64) {
    w.key("parts");
    w.begin_object();
    for (name, passes) in parts {
        w.key(name);
        w.begin_array();
        for p in passes {
            w.number_raw(&p.to_string());
        }
        w.end_array();
    }
    w.end_object();
    w.field_u64("attempted", attempted);
    w.field_u64("failed", failed);
}

fn run_coherence(args: &Args) -> String {
    let grid = if args.smoke {
        Grid::fast()
    } else {
        Grid::bench()
    };
    runner::set_max_jobs(JOBS);
    let mut parts: Vec<(String, Vec<f64>)> = PROTOCOLS
        .iter()
        .map(|p| (p.name().to_owned(), Vec::new()))
        .collect();
    let mut first: Vec<Option<Digest>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    while another_pass(args, started, parts[0].1.len()) {
        let mut results = Vec::new();
        for (&protocol, (_, passes)) in PROTOCOLS.iter().zip(&mut parts) {
            let pass = Instant::now();
            results.extend(coherence::run_grid(&grid, protocol, args.seed));
            passes.push(pass.elapsed().as_secs_f64());
        }
        let digests: Vec<Option<Digest>> =
            results.iter().map(|r| r.as_ref().map(Digest::of)).collect();
        for (i, r) in results.iter().enumerate() {
            if let Some(r) = r {
                attempted += 1;
                let repeats = first.is_empty() || first[i] == digests[i];
                if !(coherence::cell_complete(&grid, r) && repeats) {
                    failed += 1;
                }
            }
        }
        if first.is_empty() {
            first = digests;
        }
    }

    let mut w = JsonWriter::compact();
    w.begin_object();
    write_parts(&mut w, &parts, attempted, failed);
    w.key("cells");
    w.begin_array();
    let labels = PROTOCOLS.iter().flat_map(|&p| {
        grid.cells(p, args.seed)
            .into_iter()
            .map(move |(k, cw, _)| (p, k, cw))
    });
    for ((protocol, kind, cw), digest) in labels.zip(&first) {
        if let Some(d) = digest {
            w.begin_array();
            w.string(protocol.name());
            w.string(kind.as_str());
            w.number_u64(u64::from(cw));
            w.number_u64(d.elapsed_ns);
            w.number_u64(d.local_txns);
            w.number_u64(d.global_txns);
            w.end_array();
        }
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn run_hostlocks(args: &Args) -> String {
    // Set-up: one lock of every kind, and a contended run of each kind
    // with no increments (a fresh lock, its threads spawned and joined).
    let locks = hostlocks::instantiate_all();
    for &kind in LockCatalog::kinds() {
        hostlocks::contended_ok(kind, 0);
    }
    let (mut parts, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    if args.seconds > 0.0 {
        let pairs = if args.smoke { 1_000 } else { BATCH_PAIRS };
        let ns_per_pair = hostlocks::uncontested_rounds(
            &locks,
            pairs,
            1,
            Duration::from_secs_f64(args.seconds),
            args.seed,
        );
        // One part per kind: the seconds of each of its batches.
        parts = LockCatalog::kinds()
            .iter()
            .zip(ns_per_pair)
            .map(|(kind, ns)| {
                let batch_s = ns.iter().map(|n| n * pairs as f64 / 1e9).collect();
                (kind.to_string(), batch_s)
            })
            .collect();
        let iterations = if args.smoke { 1_000 } else { CHECK_ITERATIONS };
        for &kind in LockCatalog::kinds() {
            attempted += 1;
            if !hostlocks::contended_ok(kind, iterations) {
                failed += 1;
            }
        }
    }
    let mut w = JsonWriter::compact();
    w.begin_object();
    write_parts(&mut w, &parts, attempted, failed);
    w.end_object();
    w.finish()
}

fn run_layers(args: &Args) -> Result<String, String> {
    let scale = if args.smoke {
        LayerScale::smoke()
    } else {
        LayerScale::full()
    };
    let mut tracer = Tracer::new();
    let report = layers::run(&scale, args.seed, &mut tracer);
    let spans = tracer.spans().len();
    // Each span reads the clock twice.
    let overhead_bound = instant_cost() * 2 * spans as u32;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.chrome_json())
            .map_err(|e| format!("could not write trace {}: {e}", path.display()))?;
    }

    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("metrics");
    w.begin_array();
    for m in &report.metrics {
        w.begin_array();
        w.string(&m.name);
        w.number_raw(&m.value.to_string());
        w.string(m.unit);
        w.end_array();
    }
    w.end_array();
    w.field_u64("attempted", report.attempted);
    w.field_u64("failed", report.failed);
    w.field_u64("spans", spans as u64);
    w.field_raw(
        "overhead_bound_ms",
        &(overhead_bound.as_secs_f64() * 1e3).to_string(),
    );
    w.end_object();
    Ok(w.finish())
}
