//! Runs one program as a child and measures it from outside: wall time
//! from spawn to exit, and the peak resident set size the kernel recorded.
//!
//! `bench.py` launches every measured program through this rather than
//! spawning it directly, because Linux carries a parent's peak RSS into a
//! child it forks or vforks: under the Python interpreter every child
//! would report at least the interpreter's ~20 MiB. Spawned from this
//! small process, a child's floor is this process's own few MiB.

use std::process::Command;
use std::time::{Duration, Instant};

/// What one child run measured.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Exit code, or `128 + signal` if a signal ended the child.
    pub code: i32,
    /// Host time from spawn to exit.
    pub wall: Duration,
    /// Peak resident set size, in KiB.
    pub max_rss_kib: u64,
}

/// Spawns `argv` with inherited stdio, waits for it, and measures it.
/// Call at most once per process: the kernel reports the largest peak
/// over every child this process has reaped.
///
/// # Errors
///
/// Returns a message if `argv` is empty, the program cannot be started,
/// or the kernel refuses the resource-usage query.
pub fn run(argv: &[String]) -> Result<ChildRun, String> {
    let (program, args) = argv.split_first().ok_or("no program to run")?;
    let started = Instant::now();
    let status = Command::new(program)
        .args(args)
        .status()
        .map_err(|e| format!("could not run {program}: {e}"))?;
    let wall = started.elapsed();
    let code = status.code().unwrap_or_else(|| {
        use std::os::unix::process::ExitStatusExt;
        128 + status.signal().unwrap_or(0)
    });
    Ok(ChildRun {
        code,
        wall,
        max_rss_kib: children_max_rss_kib()?,
    })
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, of
/// which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    ru_maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The largest peak RSS, in KiB, among this process's reaped children.
fn children_max_rss_kib() -> Result<u64, String> {
    let mut usage = Rusage {
        _utime: [0; 2],
        _stime: [0; 2],
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: getrusage writes exactly one `struct rusage` through the
    // pointer. `Rusage` has that struct's layout on 64-bit Linux (the only
    // target this module compiles for, see lib.rs), and the pointer is to
    // an owned, initialized, writable value that outlives the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    u64::try_from(usage.ru_maxrss).map_err(|_| format!("negative ru_maxrss {}", usage.ru_maxrss))
}
