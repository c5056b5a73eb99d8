//! Real-lock helpers shared with the repository benchmark.
//!
//! `python3 hbobench/bench.py` measures the lock library on host
//! hardware (uncontested latency and contended throughput per kind) and
//! uses [`contended_increments`] as its lost-update check. The
//! paper-shaped results come from the simulator
//! (`cargo run --release -p nuca-experiments -- all`).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hbo_locks::{AnyLock, LockKind, NucaLock};
use nuca_topology::{register_thread, Topology};

/// Runs `iterations` lock-protected increments on each of `threads`
/// real threads; returns the final counter (for verification).
///
/// # Panics
///
/// Panics if an update was lost — i.e. the lock failed.
pub fn contended_increments(kind: LockKind, threads: usize, iterations: u64) -> u64 {
    let topo = Topology::symmetric(2, threads.div_ceil(2).max(1));
    let lock = Arc::new(kind.instantiate(topo.num_nodes()));
    let counter = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for cpu in topo.round_robin_binding(threads) {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            let node = topo.node_of(cpu);
            s.spawn(move || {
                let _reg = register_thread(node);
                for _ in 0..iterations {
                    let token = lock.acquire(node);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release(token);
                }
            });
        }
    });
    let total = counter.load(Ordering::Relaxed);
    assert_eq!(total, iterations * threads as u64, "{kind}: lost updates");
    total
}

/// One uncontested acquire+release pair on the calling thread.
pub fn uncontested_pair(lock: &AnyLock) {
    let node = nuca_topology::thread_node();
    let token = lock.acquire(node);
    lock.release(token);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_increments_exact() {
        for &kind in hbo_locks::LockCatalog::kinds() {
            assert_eq!(contended_increments(kind, 2, 2_000), 4_000);
        }
    }

    #[test]
    fn uncontested_pair_runs() {
        for &kind in hbo_locks::LockCatalog::kinds() {
            let lock = kind.instantiate(2);
            uncontested_pair(&lock);
            uncontested_pair(&lock);
        }
    }
}
