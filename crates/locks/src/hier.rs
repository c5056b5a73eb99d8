//! Multi-level hierarchical HBO — the paper's "expanded in a hierarchical
//! way, using more than two sets of constants, for a hierarchical NUCA"
//! (§4.1), realized.
//!
//! On a machine with several levels of nonuniformity (e.g. a NUMA system
//! populated with CMP processors), the right backoff for a contender
//! depends on its *communication distance* to the holder: same chip —
//! eager; same node, other chip — lazier; other node — lazier still. The
//! lock word therefore stores the holder's **CPU id** rather than its node
//! id, and each contender picks its backoff from a per-distance table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nuca_topology::{CpuId, NodeId, Topology};

use crate::backoff::{Backoff, BackoffConfig};
use crate::lock::NucaLock;
use crate::pad::CachePadded;

const FREE: usize = 0;

#[inline]
fn tag(cpu: CpuId) -> usize {
    cpu.index() + 1
}

/// Per-distance backoff table for [`HierHboLock`].
///
/// Index `d - 1` holds the constants used when the holder is at
/// communication distance `d` (see [`Topology::distance`]): distance 1 is
/// the innermost group, the last entry is "different NUCA node".
///
/// # Example
///
/// ```
/// use hbo_locks::LevelBackoff;
/// // 3 distance classes (e.g. same chip / same node / remote node),
/// // each 4× lazier than the previous.
/// let lb = LevelBackoff::geometric(3, 32, 1024, 4);
/// assert_eq!(lb.levels(), 3);
/// assert!(lb.config(3).base > lb.config(1).base);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct LevelBackoff {
    configs: Vec<BackoffConfig>,
}

impl LevelBackoff {
    /// Builds a table from explicit per-distance configurations
    /// (innermost first).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<BackoffConfig>) -> LevelBackoff {
        assert!(!configs.is_empty(), "need at least one distance class");
        LevelBackoff { configs }
    }

    /// Builds `levels` distance classes where class `d+1` starts `scale`×
    /// lazier than class `d`, beginning from `(base, cap)`.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or `scale == 0`.
    pub fn geometric(levels: usize, base: u32, cap: u32, scale: u32) -> LevelBackoff {
        assert!(levels > 0, "need at least one distance class");
        assert!(scale > 0, "scale must be positive");
        let mut configs = Vec::with_capacity(levels);
        let mut b = base;
        let mut c = cap;
        for _ in 0..levels {
            configs.push(BackoffConfig::new(b.max(1), 2, c.max(b.max(1))));
            b = b.saturating_mul(scale);
            c = c.saturating_mul(scale);
        }
        LevelBackoff { configs }
    }

    /// Number of distance classes.
    pub fn levels(&self) -> usize {
        self.configs.len()
    }

    /// The constants for communication distance `d` (≥ 1); distances past
    /// the table clamp to the last (laziest) entry.
    pub fn config(&self, d: usize) -> &BackoffConfig {
        let idx = d.saturating_sub(1).min(self.configs.len() - 1);
        &self.configs[idx]
    }
}

/// Proof that a [`HierHboLock`] is held.
#[derive(Debug)]
pub struct HierHboToken(());

/// HBO generalized to arbitrarily deep NUCA hierarchies.
///
/// # Example
///
/// ```
/// use hbo_locks::{HierHboLock, LevelBackoff, NucaLock};
/// use nuca_topology::{CpuId, Topology};
/// use std::sync::Arc;
///
/// // 2 NUMA nodes × (2 chips × 4 threads): three distance classes.
/// let topo = Arc::new(
///     Topology::builder()
///         .hierarchical_node(&[2, 4])
///         .hierarchical_node(&[2, 4])
///         .build()?,
/// );
/// let lock = HierHboLock::new(Arc::clone(&topo), LevelBackoff::geometric(3, 16, 512, 4));
/// let t = lock.acquire_from(CpuId(5));
/// lock.release(t);
/// # Ok::<(), nuca_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct HierHboLock {
    word: CachePadded<AtomicUsize>,
    topo: Arc<Topology>,
    backoff: LevelBackoff,
}

impl HierHboLock {
    /// Creates a free lock for the given machine shape and backoff table.
    pub fn new(topo: Arc<Topology>, backoff: LevelBackoff) -> HierHboLock {
        HierHboLock {
            word: CachePadded::new(AtomicUsize::new(FREE)),
            topo,
            backoff,
        }
    }

    #[inline]
    fn cas(&self, cpu_tag: usize) -> usize {
        match self
            .word
            .compare_exchange(FREE, cpu_tag, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(prev) | Err(prev) => prev,
        }
    }

    /// Acquires from an explicit CPU (the precise, hierarchical API).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the lock's topology.
    pub fn acquire_from(&self, cpu: CpuId) -> HierHboToken {
        assert!(
            cpu.index() < self.topo.num_cpus(),
            "{cpu} outside topology ({} cpus)",
            self.topo.num_cpus()
        );
        let my_tag = tag(cpu);
        let mut tmp = self.cas(my_tag);
        if tmp == FREE {
            return HierHboToken(());
        }
        // Slow path: spin with the backoff class for the holder's distance,
        // re-classifying whenever the holder moves to a different distance.
        loop {
            let holder = CpuId(tmp - 1);
            let d = self.topo.distance(cpu, holder);
            let mut b = Backoff::new(self.backoff.config(d));
            loop {
                b.spin();
                tmp = self.cas(my_tag);
                if tmp == FREE {
                    return HierHboToken(());
                }
                let nd = self.topo.distance(cpu, CpuId(tmp - 1));
                if nd != d {
                    break; // holder distance changed: re-classify
                }
            }
        }
    }

    /// The CPU currently holding the lock, if any.
    pub fn holder(&self) -> Option<CpuId> {
        match self.word.load(Ordering::Relaxed) {
            FREE => None,
            t => Some(CpuId(t - 1)),
        }
    }

    /// The machine shape this lock was built for.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }
}

impl NucaLock for HierHboLock {
    type Token = HierHboToken;

    /// Acquires using the *first CPU of `node`* as the caller's position —
    /// correct but coarse; prefer [`HierHboLock::acquire_from`] when the
    /// exact CPU is known.
    fn acquire(&self, node: NodeId) -> HierHboToken {
        let cpu = self
            .topo
            .cpus_of(NodeId(node.index() % self.topo.num_nodes()))
            .next()
            .expect("topology nodes are non-empty");
        self.acquire_from(cpu)
    }

    fn try_acquire(&self, node: NodeId) -> Option<HierHboToken> {
        let cpu = self
            .topo
            .cpus_of(NodeId(node.index() % self.topo.num_nodes()))
            .next()
            .expect("topology nodes are non-empty");
        if self.cas(tag(cpu)) == FREE {
            Some(HierHboToken(()))
        } else {
            None
        }
    }

    fn release(&self, _token: HierHboToken) {
        self.word.store(FREE, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "HBO_HIER"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn cmp_machine() -> Arc<Topology> {
        Arc::new(
            Topology::builder()
                .hierarchical_node(&[2, 2])
                .hierarchical_node(&[2, 2])
                .build()
                .unwrap(),
        )
    }

    fn fast_lock(topo: Arc<Topology>) -> HierHboLock {
        HierHboLock::new(topo, LevelBackoff::geometric(3, 4, 64, 2))
    }

    #[test]
    fn records_holder_cpu() {
        let lock = fast_lock(cmp_machine());
        assert_eq!(lock.holder(), None);
        let t = lock.acquire_from(CpuId(5));
        assert_eq!(lock.holder(), Some(CpuId(5)));
        lock.release(t);
        assert_eq!(lock.holder(), None);
    }

    #[test]
    fn level_backoff_clamps() {
        let lb = LevelBackoff::geometric(2, 8, 64, 4);
        assert_eq!(lb.config(1).base, 8);
        assert_eq!(lb.config(2).base, 32);
        assert_eq!(lb.config(99).base, 32, "distances past table clamp");
    }

    #[test]
    fn geometric_is_monotone() {
        let lb = LevelBackoff::geometric(4, 16, 256, 4);
        for d in 1..4 {
            assert!(lb.config(d + 1).base >= lb.config(d).base);
            assert!(lb.config(d + 1).cap >= lb.config(d).cap);
        }
    }

    #[test]
    fn mutual_exclusion_across_chips_and_nodes() {
        let topo = cmp_machine();
        let lock = Arc::new(fast_lock(Arc::clone(&topo)));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..4 {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let cpu = CpuId(i * 2); // spread over chips/nodes
                    for _ in 0..20_000 {
                        let t = lock.acquire_from(cpu);
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.release(t);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 80_000);
    }

    #[test]
    fn nuca_lock_impl_uses_first_cpu_of_node() {
        let lock = fast_lock(cmp_machine());
        let t = lock.acquire(NodeId(1));
        assert_eq!(lock.holder(), Some(CpuId(4)), "first CPU of node 1");
        lock.release(t);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn foreign_cpu_rejected() {
        let lock = fast_lock(cmp_machine());
        let _ = lock.acquire_from(CpuId(99));
    }
}
