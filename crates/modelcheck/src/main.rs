//! `nuca-mcheck`: CLI for the lock-protocol model checker.
//!
//! ```bash
//! nuca-mcheck                            # exhaustive, all kinds, 2 CPUs
//! nuca-mcheck --kind hbo_gt --cpus 3     # one kind, three contenders
//! nuca-mcheck --kind racy_tatas          # mutant: exits 1 with a trace
//! nuca-mcheck --kind all --random 500 --seed 7   # sampled schedules
//! nuca-mcheck --list                     # subject inventory
//! ```
//!
//! Exit codes: 0 all properties hold, 1 a violation was found, 2 usage
//! error.

use std::process::ExitCode;
use std::time::Instant;

use nuca_modelcheck::{check, check_random, cli, render, CheckConfig, Subject};

const USAGE: &str = "usage: nuca-mcheck [--kind K|all] [--cpus N] [--iters N] \
     [--depth N] [--preempt N] [--random N --seed S] [--list]";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut subjects: Vec<Subject> = Subject::verified().to_vec();
    let mut cpus = 2usize;
    let mut iters = 2u32;
    let mut depth = 100_000usize;
    let mut preempt: Option<u32> = None;
    let mut random: Option<u64> = None;
    let mut seed = 0u64;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--kind" => match cli::parse_subjects(iter.next().as_deref()) {
                Ok(s) => subjects = s,
                Err(msg) => return usage_error(&msg),
            },
            "--cpus" => match cli::parse_count("--cpus", iter.next().as_deref()) {
                Ok(n) if n <= 8 => cpus = n as usize,
                Ok(n) => return usage_error(&format!("--cpus {n} is past the exhaustible range (max 8)")),
                Err(msg) => return usage_error(&msg),
            },
            "--iters" => match cli::parse_count("--iters", iter.next().as_deref()) {
                Ok(n) if n <= 16 => iters = n as u32,
                Ok(n) => return usage_error(&format!("--iters {n} is past the exhaustible range (max 16)")),
                Err(msg) => return usage_error(&msg),
            },
            "--depth" => match cli::parse_count("--depth", iter.next().as_deref()) {
                Ok(n) => depth = n as usize,
                Err(msg) => return usage_error(&msg),
            },
            "--preempt" => match cli::parse_bound(iter.next().as_deref()) {
                Ok(n) => preempt = Some(n),
                Err(msg) => return usage_error(&msg),
            },
            "--random" => match cli::parse_count("--random", iter.next().as_deref()) {
                Ok(n) => random = Some(n),
                Err(msg) => return usage_error(&msg),
            },
            "--seed" => match cli::parse_seed(iter.next().as_deref()) {
                Ok(s) => seed = s,
                Err(msg) => return usage_error(&msg),
            },
            "--list" => {
                let verified: Vec<&str> = Subject::verified().iter().map(|s| s.name()).collect();
                let mutants: Vec<&str> = Subject::MUTANTS.iter().map(|s| s.name()).collect();
                println!("verified subjects: {}", verified.join(", "));
                println!("mutants (must fail): {}", mutants.join(", "));
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                return usage_error(&format!("unrecognized argument `{other}`"));
            }
        }
    }

    let started = Instant::now();
    let mut total_states = 0u64;
    let mut total_transitions = 0u64;
    let mut failed = false;

    for subject in &subjects {
        let mut cfg = CheckConfig::new(*subject);
        cfg.cpus = cpus;
        cfg.iters = iters;
        cfg.depth = depth;
        cfg.preempt = preempt;

        if let Some(n) = random {
            let sub_started = Instant::now();
            let out = check_random(&cfg, n, seed);
            let ms = sub_started.elapsed().as_secs_f64() * 1e3;
            total_transitions += out.steps;
            match out.violation {
                None => println!(
                    "{:<13} cpus={cpus} iters={iters} random={n} seed={seed}: PASS  \
                     steps={} ({ms:.0} ms)",
                    subject.name(),
                    out.steps
                ),
                Some(cex) => {
                    println!(
                        "{:<13} cpus={cpus} iters={iters} random={n} seed={seed}: FAIL \
                         after {} schedules — {}",
                        subject.name(),
                        out.schedules,
                        cex.violation
                    );
                    print!("{}", render::render(&cfg, &cex));
                    failed = true;
                }
            }
            continue;
        }

        let sub_started = Instant::now();
        let report = check(&cfg);
        let ms = sub_started.elapsed().as_secs_f64() * 1e3;
        total_states += report.stats.distinct_states;
        total_transitions += report.stats.transitions;
        match &report.counterexample {
            None => {
                let exhaustive = if report.stats.truncated == 0 {
                    "exhaustive"
                } else {
                    "TRUNCATED"
                };
                let fair = report
                    .fair
                    .map_or(String::new(), |f| format!(" fair_steps={}", f.steps));
                println!(
                    "{:<13} cpus={cpus} iters={iters}: PASS  ({exhaustive}) \
                     states={} transitions={} max_depth={}{fair} ({ms:.0} ms)",
                    subject.name(),
                    report.stats.distinct_states,
                    report.stats.transitions,
                    report.stats.max_depth,
                );
            }
            Some(cex) => {
                println!(
                    "{:<13} cpus={cpus} iters={iters}: FAIL  {} \
                     (counterexample: {} steps, states explored: {})",
                    subject.name(),
                    cex.violation,
                    cex.schedule.len(),
                    report.stats.distinct_states,
                );
                print!("{}", render::render(&cfg, cex));
                failed = true;
            }
        }
    }

    let total = started.elapsed();
    let states_per_sec = total_states as f64 / total.as_secs_f64().max(1e-9);
    eprintln!(
        "[checked {} subject(s) in {total:.1?}: {total_states} states, \
         {total_transitions} transitions, {states_per_sec:.0} states/sec]",
        subjects.len()
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
