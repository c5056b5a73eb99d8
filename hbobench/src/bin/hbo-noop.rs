//! An empty program. `bench.py` times spawning it next to each zero-work
//! set-up run, to gauge how fast the host creates processes at the time.
//! It uses nothing but the standard library, so no change to the measured
//! crates can move it.

fn main() {}
