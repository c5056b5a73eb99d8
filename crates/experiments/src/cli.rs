//! The command-line surface, parsed without I/O.
//!
//! The binary in `main.rs` is all I/O: [`parse_args`] turns the arguments
//! into one [`Invocation`], so the rejection behavior (a bad `--jobs` is a
//! usage error, exactly like an unknown flag) is covered by unit tests.

use std::path::PathBuf;

use hbo_locks::LockCatalog;

use crate::{Scale, Settings, UnknownExperiment, EXPERIMENTS, EXTENSIONS};

/// The usage line printed with every usage error and by `--help`.
pub const USAGE: &str = "usage: experiments [--fast] [--out DIR] [--jobs N] \
     [--protocol flat|mesi|dragon] \
     [--binding rr|clustered] [--kinds NAME,NAME,...] [--twa-slots N] \
     [--twa-hash mod|stride] [--trace PATH] \
     [--metrics-json PATH] [--profile PATH] [--shards N] [--zipf THETA] \
     [--arrival-gap CYCLES] <id>... | all | --list";

/// What one command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Invocation {
    /// Run artifacts.
    Run(Box<Run>),
    /// Print the artifact and lock-kind inventory (`--list`).
    List,
    /// Print [`USAGE`] (`--help`, `-h`).
    Help,
}

/// A parsed request to run artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Artifact ids in request order, `all` expanded; every id is known.
    pub ids: Vec<String>,
    /// `--fast` selects [`Scale::Fast`].
    pub scale: Scale,
    /// Every flag that changes what a simulation computes.
    pub settings: Settings,
    /// `--jobs`: the simulation job budget (unset: one per host CPU).
    pub jobs: Option<usize>,
    /// `--out`: the TSV directory.
    pub out_dir: PathBuf,
    /// `--trace`: the Chrome trace file.
    pub trace: Option<PathBuf>,
    /// `--metrics-json`: the capture metrics file.
    pub metrics_json: Option<PathBuf>,
    /// `--profile`: the nuca-prof JSON file.
    pub profile: Option<PathBuf>,
}

/// Parses the command line (without the program name). A flag given
/// twice keeps its last value. `--list` and `--help` end parsing.
///
/// # Errors
///
/// Returns the usage message for a missing or bad operand, an
/// unrecognized flag, or an unknown experiment id (one line per unknown
/// id; no id runs unless every id is known).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut run = Run {
        ids: Vec::new(),
        scale: Scale::Full,
        settings: Settings::default(),
        jobs: None,
        out_dir: PathBuf::from("target/experiments"),
        trace: None,
        metrics_json: None,
        profile: None,
    };
    let settings = &mut run.settings;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => run.scale = Scale::Fast,
            "--out" => run.out_dir = path(args.next(), "--out requires a directory")?,
            "--jobs" => run.jobs = Some(parse_jobs(args.next().as_deref())?),
            "--protocol" => settings.protocol = parse_protocol(args.next().as_deref())?,
            "--binding" => settings.binding = parse_binding(args.next().as_deref())?,
            "--twa-slots" => settings.twa_slots = parse_twa_slots(args.next().as_deref())?,
            "--twa-hash" => settings.twa_hash = parse_twa_hash(args.next().as_deref())?,
            "--kinds" => {
                // Registration order, so the flag's spelling order cannot
                // change a TSV.
                let picked = parse_kinds(args.next().as_deref())?;
                settings.kinds = LockCatalog::kinds()
                    .iter()
                    .copied()
                    .filter(|k| picked.contains(k))
                    .collect();
            }
            "--shards" => settings.shards = Some(parse_shards(args.next().as_deref())?),
            "--zipf" => settings.zipf_theta = Some(parse_zipf(args.next().as_deref())?),
            "--arrival-gap" => {
                settings.arrival_gap = Some(parse_arrival_gap(args.next().as_deref())?);
            }
            "--trace" => run.trace = Some(path(args.next(), "--trace requires a file path")?),
            "--metrics-json" => {
                run.metrics_json = Some(path(args.next(), "--metrics-json requires a file path")?);
            }
            "--profile" => {
                run.profile = Some(path(args.next(), "--profile requires a file path")?);
            }
            "--list" => return Ok(Invocation::List),
            "--help" | "-h" => return Ok(Invocation::Help),
            flag if flag.starts_with("--") => return Err(format!("unrecognized flag `{flag}`")),
            id => run.ids.push(id.to_owned()),
        }
    }
    if run.ids.is_empty() {
        run.ids.push("all".to_owned());
    }
    // Expanded here, not in `run_experiment`, so each artifact gets its
    // own wall-clock line.
    run.ids = run
        .ids
        .iter()
        .flat_map(|id| match id.as_str() {
            "all" => EXPERIMENTS
                .iter()
                .chain(&EXTENSIONS)
                .map(|&s| s.to_owned())
                .collect(),
            _ => vec![id.clone()],
        })
        .collect();
    // Every id is checked before anything runs: a typo at the end of the
    // list should not cost a full sweep first.
    let unknown: Vec<String> = run
        .ids
        .iter()
        .filter(|id| !EXPERIMENTS.contains(&id.as_str()) && !EXTENSIONS.contains(&id.as_str()))
        .map(|id| UnknownExperiment(id.clone()).to_string())
        .collect();
    if !unknown.is_empty() {
        return Err(unknown.join("\n"));
    }
    Ok(Invocation::Run(Box::new(run)))
}

/// The operand of a path flag, or `missing` as the usage message.
fn path(value: Option<String>, missing: &str) -> Result<PathBuf, String> {
    value.map(PathBuf::from).ok_or_else(|| missing.to_owned())
}

/// Parses the operand of `--jobs`.
///
/// # Errors
///
/// Returns a message naming the offending value when the operand is
/// missing, not a number, negative, or zero — zero used to be silently
/// conflated with "unbounded" by callers that clamped, and a negative
/// value parsed as a huge unsigned one; both are plain usage errors now.
pub fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    let max = (usize::MAX as u64, "this platform's job limit");
    positive("--jobs", "positive integer", value, max).map(|n| n as usize)
}

/// Parses the operand of `--shards` (lockserver shard-lock count).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// not positive — a zero-shard lock table has nowhere to hash keys.
pub fn parse_shards(value: Option<&str>) -> Result<usize, String> {
    let max = (usize::MAX as u64, "this platform's limit");
    positive("--shards", "positive integer", value, max).map(|n| n as usize)
}

/// Parses the operand of `--zipf` (lockserver key-skew exponent θ).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// outside the open interval `(0, 1)` the constant-time Zipfian sampler
/// is defined on.
pub fn parse_zipf(value: Option<&str>) -> Result<f64, String> {
    let Some(raw) = value else {
        return Err("--zipf requires an exponent in (0, 1), e.g. 0.99".to_owned());
    };
    match raw.parse::<f64>() {
        Ok(theta) if theta > 0.0 && theta < 1.0 => Ok(theta),
        Ok(_) => Err(format!("--zipf must lie in (0, 1), got {raw}")),
        Err(_) => Err(format!("--zipf must be a number in (0, 1) (got `{raw}`)")),
    }
}

/// Parses the operand of `--kinds`: a comma-separated subset of the
/// registered lock names (case-insensitive), in flag order.
/// [`parse_args`] stores it in registration order as
/// [`Settings::kinds`], which the kind-sweeping artifacts iterate.
///
/// # Errors
///
/// Returns a usage message — with the full catalog menu — when the
/// operand is missing, empty, or names an unregistered lock. An unknown
/// name is a hard error, not a skip: silently dropping a typo would run a
/// sweep that looks complete but is not.
pub fn parse_kinds(value: Option<&str>) -> Result<Vec<hbo_locks::LockKind>, String> {
    let menu = hbo_locks::LockCatalog::menu();
    let Some(raw) = value else {
        return Err(format!(
            "--kinds requires a comma-separated subset of: {menu}"
        ));
    };
    let mut kinds = Vec::new();
    for name in raw.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err(format!(
                "--kinds has an empty entry in `{raw}`; expected names from: {menu}"
            ));
        }
        match hbo_locks::LockCatalog::parse(name) {
            Ok(kind) => {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            Err(_) => {
                return Err(format!(
                    "--kinds: unknown lock `{name}`; registered kinds: {menu}"
                ))
            }
        }
    }
    if kinds.is_empty() {
        return Err(format!(
            "--kinds selected nothing; expected names from: {menu}"
        ));
    }
    Ok(kinds)
}

/// Parses the operand of `--protocol` (the coherence model every machine
/// in the run simulates — see [`nucasim::ProtocolKind`]).
///
/// # Errors
///
/// Returns a usage message when the operand is missing or names no
/// protocol (the valid names are `flat`, `mesi` and `dragon`).
pub fn parse_protocol(value: Option<&str>) -> Result<nucasim::ProtocolKind, String> {
    let Some(raw) = value else {
        return Err("--protocol requires a protocol name (flat, mesi or dragon)".to_owned());
    };
    raw.parse::<nucasim::ProtocolKind>().map_err(|e| format!("--protocol: {e}"))
}

/// Parses the operand of `--binding` (how microbenchmark threads are
/// bound to CPUs — see [`nuca_workloads::modern::BindingKind`]).
///
/// # Errors
///
/// Returns a usage message when the operand is missing or names no
/// binding (the valid names are `rr` and `clustered`).
pub fn parse_binding(value: Option<&str>) -> Result<nuca_workloads::modern::BindingKind, String> {
    let Some(raw) = value else {
        return Err("--binding requires a binding name (rr or clustered)".to_owned());
    };
    raw.parse::<nuca_workloads::modern::BindingKind>()
        .map_err(|e| format!("--binding: {e}"))
}

/// Parses the operand of `--twa-slots` (TWA waiting-array length).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, not
/// positive — a zero-slot waiting array has nowhere to park waiters — or
/// above [`nucasim_locks::MAX_TWA_SLOTS`], the published lock's array size.
pub fn parse_twa_slots(value: Option<&str>) -> Result<usize, String> {
    let limit = format!("{}, the published TWA waiting-array size", nucasim_locks::MAX_TWA_SLOTS);
    let max = (nucasim_locks::MAX_TWA_SLOTS as u64, limit.as_str());
    positive("--twa-slots", "positive integer", value, max).map(|n| n as usize)
}

/// Parses the operand of `--twa-hash` (TWA ticket→slot mapping).
///
/// # Errors
///
/// Returns a usage message when the operand is missing or names no hash
/// (the valid names are `mod` and `stride`).
pub fn parse_twa_hash(value: Option<&str>) -> Result<nucasim_locks::TwaHash, String> {
    let Some(raw) = value else {
        return Err("--twa-hash requires a hash name (mod or stride)".to_owned());
    };
    raw.parse::<nucasim_locks::TwaHash>().map_err(|e| format!("--twa-hash: {e}"))
}

/// Parses the operand of `--arrival-gap` (lockserver mean cycles between
/// request batches).
///
/// # Errors
///
/// Returns a usage message when the operand is missing, not a number, or
/// not positive — a zero mean gap would collapse the whole open-loop
/// schedule onto cycle zero.
pub fn parse_arrival_gap(value: Option<&str>) -> Result<u64, String> {
    positive("--arrival-gap", "positive cycle count", value, (u64::MAX, "the cycle range"))
}

/// Parses the integer operand of `flag`: a `noun` in `1..=max.0`, where
/// `max.1` names the bound in the message for a larger value.
fn positive(flag: &str, noun: &str, value: Option<&str>, max: (u64, &str)) -> Result<u64, String> {
    let Some(raw) = value else {
        return Err(format!("{flag} requires a {noun}"));
    };
    match raw.parse::<i128>() {
        Ok(n) if n > i128::from(max.0) => Err(format!("{flag} {raw} exceeds {}", max.1)),
        Ok(n) if n >= 1 => Ok(n as u64),
        Ok(_) => Err(format!("{flag} must be a {noun} (got {raw})")),
        Err(_) => Err(format!("{flag} must be a {noun} (got `{raw}`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_integers() {
        assert_eq!(parse_jobs(Some("1")), Ok(1));
        assert_eq!(parse_jobs(Some("16")), Ok(16));
    }

    #[test]
    fn rejects_zero() {
        let err = parse_jobs(Some("0")).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(err.contains('0'), "{err}");
    }

    #[test]
    fn rejects_negative() {
        let err = parse_jobs(Some("-2")).unwrap_err();
        assert!(err.contains("-2"), "{err}");
    }

    #[test]
    fn rejects_non_numeric() {
        for bad in ["four", "", "4x", "1.5"] {
            let err = parse_jobs(Some(bad)).unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_missing_operand() {
        assert!(parse_jobs(None).is_err());
    }

    #[test]
    fn shards_accepts_positive_and_rejects_the_rest() {
        assert_eq!(parse_shards(Some("16")), Ok(16));
        for bad in ["0", "-3", "many", ""] {
            let err = parse_shards(Some(bad)).unwrap_err();
            assert!(err.contains("--shards"), "{bad}: {err}");
        }
        assert!(parse_shards(None).is_err());
    }

    #[test]
    fn zipf_accepts_open_unit_interval_only() {
        assert_eq!(parse_zipf(Some("0.99")), Ok(0.99));
        assert_eq!(parse_zipf(Some("0.5")), Ok(0.5));
        for bad in ["0", "0.0", "1", "1.0", "1.5", "-0.2", "NaN", "hot", ""] {
            let err = parse_zipf(Some(bad)).unwrap_err();
            assert!(err.contains("--zipf"), "{bad}: {err}");
        }
        assert!(parse_zipf(None).is_err());
    }

    #[test]
    fn kinds_parses_names_dedups_and_keeps_flag_order() {
        use hbo_locks::LockKind;
        assert_eq!(
            parse_kinds(Some("TATAS,MCS,CNA")),
            Ok(vec![LockKind::Tatas, LockKind::Mcs, LockKind::Cna])
        );
        // Case-insensitive, whitespace-tolerant, duplicate-collapsing.
        assert_eq!(
            parse_kinds(Some(" twa , TWA ,recip")),
            Ok(vec![LockKind::Twa, LockKind::Recip])
        );
    }

    #[test]
    fn kinds_rejects_unknown_names_with_the_catalog_menu() {
        let err = parse_kinds(Some("TATAS,QOLB")).unwrap_err();
        assert!(err.contains("QOLB"), "{err}");
        assert!(err.contains("TATAS") && err.contains("RECIP"), "{err}");
        for bad in ["", ",", "MCS,,CLH"] {
            let err = parse_kinds(Some(bad)).unwrap_err();
            assert!(err.contains("--kinds"), "`{bad}`: {err}");
        }
        assert!(parse_kinds(None).is_err());
    }

    #[test]
    fn protocol_accepts_every_name_and_rejects_the_rest() {
        for proto in nucasim::ProtocolKind::ALL {
            assert_eq!(parse_protocol(Some(proto.name())), Ok(proto));
        }
        let err = parse_protocol(Some("splay")).unwrap_err();
        assert!(err.contains("splay"), "{err}");
        assert!(err.contains("mesi"), "{err}");
        assert!(parse_protocol(None).is_err());
    }

    #[test]
    fn binding_accepts_every_name_and_rejects_the_rest() {
        for binding in nuca_workloads::modern::BindingKind::ALL {
            assert_eq!(parse_binding(Some(binding.name())), Ok(binding));
        }
        let err = parse_binding(Some("spread")).unwrap_err();
        assert!(err.contains("spread"), "{err}");
        assert!(err.contains("clustered"), "{err}");
        assert!(parse_binding(None).is_err());
    }

    #[test]
    fn twa_slots_accepts_positive_and_rejects_the_rest() {
        assert_eq!(parse_twa_slots(Some("64")), Ok(64));
        assert_eq!(parse_twa_slots(Some("4096")), Ok(4096));
        for bad in ["0", "-4", "lots", "", "4097", "99999999999"] {
            let err = parse_twa_slots(Some(bad)).unwrap_err();
            assert!(err.contains("--twa-slots"), "{bad}: {err}");
        }
        assert!(parse_twa_slots(None).is_err());
    }

    #[test]
    fn twa_hash_accepts_every_name_and_rejects_the_rest() {
        for hash in nucasim_locks::TwaHash::ALL {
            assert_eq!(parse_twa_hash(Some(hash.name())), Ok(hash));
        }
        let err = parse_twa_hash(Some("xor")).unwrap_err();
        assert!(err.contains("xor"), "{err}");
        assert!(err.contains("stride"), "{err}");
        assert!(parse_twa_hash(None).is_err());
    }

    #[test]
    fn arrival_gap_accepts_positive_cycles_only() {
        assert_eq!(parse_arrival_gap(Some("30000")), Ok(30_000));
        for bad in ["0", "-1", "soon", "2.5", ""] {
            let err = parse_arrival_gap(Some(bad)).unwrap_err();
            assert!(err.contains("--arrival-gap"), "{bad}: {err}");
        }
        assert!(parse_arrival_gap(None).is_err());
    }

    fn parse(line: &str) -> Result<Invocation, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    fn run(line: &str) -> Run {
        match parse(line) {
            Ok(Invocation::Run(run)) => *run,
            other => panic!("`{line}`: {other:?}"),
        }
    }

    #[test]
    fn no_id_runs_all_under_the_defaults() {
        let r = run("");
        assert_eq!(r.ids, run("all").ids);
        assert_eq!(r.ids.len(), EXPERIMENTS.len() + EXTENSIONS.len());
        assert_eq!((r.scale, r.jobs, r.trace, r.profile), (Scale::Full, None, None, None));
        assert_eq!(r.settings, Settings::default());
    }

    #[test]
    fn every_flag_lands_in_its_field_and_a_repeat_keeps_the_last_value() {
        use hbo_locks::LockKind;
        let r = run(
            "fig5 --fast --out a --out o --jobs 1 --jobs 3 --protocol mesi --protocol dragon \
             --binding rr --binding clustered --twa-slots 4 --twa-slots 64 --twa-hash mod \
             --twa-hash stride --kinds MCS --kinds TWA,TATAS --shards 2 --shards 4 --zipf 0.5 \
             --zipf 1e-7 --arrival-gap 10 --arrival-gap 8000 --trace a --trace t \
             --metrics-json a --metrics-json m --profile a --profile p table2",
        );
        assert_eq!(r.ids, ["fig5", "table2"]);
        assert_eq!((r.scale, r.jobs), (Scale::Fast, Some(3)));
        let paths = [r.out_dir, r.trace.unwrap(), r.metrics_json.unwrap(), r.profile.unwrap()];
        assert_eq!(paths, ["o", "t", "m", "p"].map(PathBuf::from));
        assert_eq!(
            r.settings,
            Settings {
                protocol: nucasim::ProtocolKind::Dragon,
                binding: nuca_workloads::modern::BindingKind::Clustered,
                twa_slots: 64,
                twa_hash: nucasim_locks::TwaHash::Stride,
                // Registration order, whatever the flag's order.
                kinds: vec![LockKind::Tatas, LockKind::Twa],
                shards: Some(4),
                zipf_theta: Some(1e-7),
                arrival_gap: Some(8_000),
            }
        );
    }

    #[test]
    fn every_operand_flag_rejects_a_missing_or_bad_operand() {
        let flags = "--out --jobs --protocol --binding --twa-slots --twa-hash --kinds --shards \
                     --zipf --arrival-gap --trace --metrics-json --profile";
        for flag in flags.split_whitespace() {
            let err = parse(&format!("fig5 {flag}")).unwrap_err();
            assert!(err.starts_with(flag) && err.contains("requires"), "{flag}: {err}");
        }
        let bad = "--jobs -3; --protocol splay; --binding diagonal; --twa-slots 99999999999; \
                   --twa-hash xor; --kinds MCS,,CLH; --shards 0; --zipf 1.5; --arrival-gap 0";
        for case in bad.split("; ") {
            let err = parse(&format!("colloc {case}")).unwrap_err();
            assert!(err.starts_with(&case[..case.find(' ').unwrap()]), "{case}: {err}");
        }
    }

    #[test]
    fn unknown_flags_and_ids_are_usage_errors() {
        let err = parse("fig5 --sched heap").unwrap_err();
        assert_eq!(err, "unrecognized flag `--sched`");
        // Every unknown id is named, and none of the request runs.
        let err = parse("table3 fig99 fig98").unwrap_err();
        let lines: Vec<&str> = err.lines().collect();
        assert_eq!(lines.len(), 2, "{err}");
        assert!(lines[0].contains("`fig99`") && lines[1].contains("`fig98`"), "{err}");
    }

    #[test]
    fn list_and_help_end_parsing() {
        assert_eq!(parse("--list --jobs 0"), Ok(Invocation::List));
        assert_eq!(parse("fig5 -h --frobnicate"), Ok(Invocation::Help));
        assert!(parse("--jobs 0 --list").is_err());
    }
}
