//! The `hostlocks` workload: the shipped `hbo-locks` library on host
//! threads, with no simulator involved.
//!
//! Uncontested latency is timed over batches of acquire+release pairs, not
//! per call: one `Instant` pair costs about as much as the pair it would
//! time. Contended runs reuse `hbo_bench::contended_increments`, the lock
//! library's own lost-update check. Their throughput is reported per kind
//! but is not an end-to-end metric, because on shared vCPUs it swings
//! severalfold from run to run.

use std::hint::black_box;
use std::panic;
use std::time::{Duration, Instant};

use hbo_bench::contended_increments;
use hbo_locks::{AnyLock, LockCatalog, LockKind, NucaLock};
use nuca_topology::NodeId;
use nucasim::SplitMix64;

/// Nodes every lock is instantiated for (the paper's two-node WildFire).
const NODES: usize = 2;

/// Threads in each contended run, one per node.
pub const CONTENDED_THREADS: usize = 2;

/// One lock of every registered kind, in catalog order.
pub fn instantiate_all() -> Vec<AnyLock> {
    LockCatalog::kinds()
        .iter()
        .map(|&kind| kind.instantiate(NODES))
        .collect()
}

/// Times `pairs` uncontested acquire+release pairs of `lock` on the
/// calling thread.
pub fn uncontested_batch(lock: &AnyLock, pairs: u64) -> Duration {
    let node = NodeId(0);
    let started = Instant::now();
    for _ in 0..pairs {
        let token = lock.acquire(black_box(node));
        lock.release(black_box(token));
    }
    started.elapsed()
}

/// Times rounds of one `pairs`-pair batch per lock in `locks`, each round
/// in an order drawn from `seed`, until `rounds` rounds have run and at
/// least `min_time` has passed. One untimed warm-up batch per lock comes
/// first. Returns the nanoseconds per pair of each batch, per lock.
pub fn uncontested_rounds(
    locks: &[AnyLock],
    pairs: u64,
    rounds: usize,
    min_time: Duration,
    seed: u64,
) -> Vec<Vec<f64>> {
    for lock in locks {
        uncontested_batch(lock, pairs);
    }
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..locks.len()).collect();
    let mut ns_per_pair = vec![Vec::new(); locks.len()];
    let started = Instant::now();
    for round in 0.. {
        if round >= rounds && started.elapsed() >= min_time {
            break;
        }
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let took = uncontested_batch(&locks[i], pairs);
            ns_per_pair[i].push(took.as_nanos() as f64 / pairs as f64);
        }
    }
    ns_per_pair
}

fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Runs `iterations` lock-protected increments on each of
/// [`CONTENDED_THREADS`] threads with a fresh lock of `kind`; false if an
/// update was lost. `contended_increments` panics on a lost update (or a
/// panicking lock), and its message goes to stderr.
pub fn contended_ok(kind: LockKind, iterations: u64) -> bool {
    panic::catch_unwind(|| contended_increments(kind, CONTENDED_THREADS, iterations)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..13).collect();
        shuffle(&mut v, &mut SplitMix64::new(7));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
    }
}
