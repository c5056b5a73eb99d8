//! Host-time benchmark entry points for the HBO reproduction.
//!
//! `bench.py` (next to this crate's manifest) spawns the `hbo-bench`
//! binary for the two in-process workloads, `coherence` and `hostlocks`,
//! and for the traced per-layer pass, `layers`. Each entry point here
//! times calls into one layer's public API with `Instant` pairs and
//! returns plain data; the binary prints it as one JSON object. Nothing
//! inside the measured crates is instrumented. [`child`] launches every
//! measured program, so that its wall time and peak RSS are taken from
//! outside it.

#![warn(missing_docs)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child peak RSS through 64-bit Linux's getrusage");

pub mod child;
pub mod coherence;
pub mod hostlocks;
pub mod layers;
pub mod spans;

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times a fixed integer loop, to gauge the host's current speed.
///
/// On a shared host the clock speed drifts by up to a third over minutes,
/// and every workload slows with it. This loop is the benchmark's own code,
/// so no change to the measured crates can move it; `bench.py` scales each
/// run's times by how fast it ran in that run.
pub fn calibration_loop() -> Duration {
    const ITERATIONS: u64 = 8_000_000;
    let started = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        // SplitMix64's mixer: a dependent chain of multiplies and shifts,
        // with a data-dependent branch.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if z & 7 == 0 {
            acc = acc.wrapping_add(z ^ i);
        } else {
            acc ^= z >> 3;
        }
    }
    black_box(acc);
    started.elapsed()
}

/// Median of `v` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `v` is empty or holds a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
