//! Small, testable pieces of the command-line surface.
//!
//! Mirrors `nuca-experiments`' convention: the binary in `main.rs` is all
//! I/O; value parsing lives here so rejection behavior (a bad `--cpus` is
//! a usage error, exactly like an unknown flag) is covered by unit tests.

use hbo_locks::LockKind;

use crate::Subject;

/// Parses the operand of a positive-integer flag (`--cpus`, `--iters`,
/// `--depth`, `--random`), naming `flag` in the message.
///
/// # Errors
///
/// Returns a message naming the flag and offending value when the operand
/// is missing, not a number, negative, or zero.
pub fn parse_count(flag: &str, value: Option<&str>) -> Result<u64, String> {
    let Some(raw) = value else {
        return Err(format!("{flag} requires a positive integer"));
    };
    match raw.parse::<i128>() {
        Ok(n) if n >= 1 => {
            u64::try_from(n).map_err(|_| format!("{flag} {raw} is out of range"))
        }
        Ok(_) => Err(format!("{flag} must be a positive integer (got {raw})")),
        Err(_) => Err(format!("{flag} must be a positive integer (got `{raw}`)")),
    }
}

/// Parses the operand of `--preempt`: a preemption bound, zero included
/// (bound 0 explores only the non-preemptive schedules).
///
/// # Errors
///
/// Returns a message when the operand is missing, not a number, negative,
/// or past `u32::MAX`.
pub fn parse_bound(value: Option<&str>) -> Result<u32, String> {
    let Some(raw) = value else {
        return Err("--preempt requires a non-negative integer".to_owned());
    };
    match raw.parse::<i128>() {
        Ok(n) if n >= 0 => {
            u32::try_from(n).map_err(|_| format!("--preempt {raw} is out of range"))
        }
        Ok(_) => Err(format!("--preempt must be a non-negative integer (got {raw})")),
        Err(_) => Err(format!("--preempt must be a non-negative integer (got `{raw}`)")),
    }
}

/// Parses the operand of `--seed`: any u64, zero included.
///
/// # Errors
///
/// Returns a message when the operand is missing or not a u64.
pub fn parse_seed(value: Option<&str>) -> Result<u64, String> {
    let Some(raw) = value else {
        return Err("--seed requires an unsigned integer".to_owned());
    };
    raw.parse::<u64>()
        .map_err(|_| format!("--seed must be an unsigned integer (got `{raw}`)"))
}

/// Parses the operand of `--kind`: `all` (every verified subject), a
/// registered [`LockKind`] name, or one of the extension/mutant names.
/// Case-insensitive, like the simulator's own kind parsing.
///
/// # Errors
///
/// Returns a message listing the valid names when the operand is missing
/// or unknown.
pub fn parse_subjects(value: Option<&str>) -> Result<Vec<Subject>, String> {
    let Some(raw) = value else {
        return Err("--kind requires a lock name or `all`".to_owned());
    };
    if raw.eq_ignore_ascii_case("all") {
        return Ok(Subject::verified().to_vec());
    }
    let all = Subject::verified().iter().chain(Subject::MUTANTS.iter());
    for &subject in all {
        if raw.eq_ignore_ascii_case(subject.name()) {
            return Ok(vec![subject]);
        }
    }
    // Registered kinds also parse through their own FromStr aliases.
    if let Ok(kind) = raw.parse::<LockKind>() {
        return Ok(vec![Subject::Kind(kind)]);
    }
    let names: Vec<&str> = Subject::verified()
        .iter()
        .chain(Subject::MUTANTS.iter())
        .map(|s| s.name())
        .collect();
    Err(format!(
        "unknown lock `{raw}`; expected `all` or one of: {}",
        names.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_accepts_positive() {
        assert_eq!(parse_count("--cpus", Some("2")), Ok(2));
        assert_eq!(parse_count("--depth", Some("100000")), Ok(100_000));
    }

    #[test]
    fn count_rejects_zero_negative_and_garbage() {
        for bad in ["0", "-1", "two", "", "2.5", "2x"] {
            let err = parse_count("--cpus", Some(bad)).unwrap_err();
            assert!(err.contains("--cpus"), "{bad}: {err}");
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
        assert!(parse_count("--cpus", None).is_err());
    }

    #[test]
    fn preempt_bound_accepts_zero_and_rejects_negative_and_garbage() {
        assert_eq!(parse_bound(Some("0")), Ok(0));
        assert_eq!(parse_bound(Some("2")), Ok(2));
        for bad in ["-1", "two", "", "2.5"] {
            let err = parse_bound(Some(bad)).unwrap_err();
            assert!(err.contains("--preempt"), "{bad}: {err}");
            assert!(err.contains("non-negative integer"), "{bad}: {err}");
        }
        assert!(parse_bound(Some("4294967296")).unwrap_err().contains("out of range"));
        assert!(parse_bound(None).is_err());
    }

    #[test]
    fn seed_accepts_zero_and_rejects_garbage() {
        assert_eq!(parse_seed(Some("0")), Ok(0));
        assert_eq!(parse_seed(Some("42")), Ok(42));
        assert!(parse_seed(Some("-1")).is_err());
        assert!(parse_seed(Some("nope")).is_err());
        assert!(parse_seed(None).is_err());
    }

    #[test]
    fn kind_all_is_every_verified_subject() {
        let subjects = parse_subjects(Some("all")).unwrap();
        assert_eq!(subjects, Subject::verified().to_vec());
        assert!(!subjects.contains(&Subject::RacyTatas));
    }

    #[test]
    fn kind_parses_names_case_insensitively() {
        assert_eq!(
            parse_subjects(Some("hbo_gt_sd")).unwrap(),
            vec![Subject::Kind(hbo_locks::LockKind::HboGtSd)]
        );
        assert_eq!(
            parse_subjects(Some("ticket")).unwrap(),
            vec![Subject::Kind(hbo_locks::LockKind::Ticket)]
        );
        assert_eq!(
            parse_subjects(Some("cna")).unwrap(),
            vec![Subject::Kind(hbo_locks::LockKind::Cna)]
        );
        assert_eq!(
            parse_subjects(Some("racy_tatas")).unwrap(),
            vec![Subject::RacyTatas]
        );
        assert_eq!(
            parse_subjects(Some("LEAKY_HBO_GT")).unwrap(),
            vec![Subject::LeakyHboGt]
        );
        assert_eq!(
            parse_subjects(Some("splice_lost_cna")).unwrap(),
            vec![Subject::SpliceLostCna]
        );
    }

    #[test]
    fn kind_rejects_unknown_with_the_menu() {
        let err = parse_subjects(Some("spinlock9000")).unwrap_err();
        assert!(err.contains("spinlock9000"), "{err}");
        assert!(err.contains("TATAS"), "{err}");
        assert!(parse_subjects(None).is_err());
    }
}
