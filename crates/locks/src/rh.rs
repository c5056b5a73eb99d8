//! The RH lock — the authors' 2-node proof-of-concept NUCA lock (§3).
//!
//! # Faithfulness note
//!
//! The HPCA 2003 paper describes RH only qualitatively (the full listing is
//! in the authors' SC 2002 paper, "Efficient Synchronization for Nonuniform
//! Communication Architectures"). This module reconstructs a 2-node RH from
//! the HPCA description:
//!
//! * every node holds a *copy* of the lock (storage cost 2× the simple
//!   locks);
//! * a copy reads `FREE` (globally free), `L_FREE` (freed for neighbors
//!   only — the local-handover tag), `REMOTE` (the lock currently lives in
//!   the other node), or a *held* marker;
//! * the first thread in a node to observe `REMOTE` becomes the **node
//!   winner** and spins — with the large remote backoff — on the *other*
//!   node's copy until it captures the global lock, migrating it;
//! * release prefers the `L_FREE` local handover, bounded by a consecutive-
//!   handover budget after which the releaser writes `FREE` so remote
//!   captures can succeed.
//!
//! Two liveness details absent from the paper's prose are made explicit
//! here: node-winner election uses a `FISHING` tag so only one thread per
//! node spins remotely, and a patient remote winner may also capture an
//! `L_FREE` copy after exhausting its patience (otherwise an `L_FREE` with
//! no local taker would strand the lock). The lock remains starvation-
//! *prone* — the paper says as much — but is deadlock- and livelock-free.

use std::sync::atomic::{AtomicUsize, Ordering};

use nuca_topology::NodeId;

use crate::backoff::{Backoff, BackoffConfig};
use crate::lock::NucaLock;
use crate::pad::CachePadded;

const FREE: usize = 0;
const L_FREE: usize = 1;
const REMOTE: usize = 2;
const FISHING: usize = 3;
const HELD: usize = 4;

/// Failed remote captures tolerated before the winner may take `L_FREE`.
const REMOTE_PATIENCE: u32 = 2;

/// Proof that an [`RhLock`] is held; remembers the holder's node.
#[derive(Debug)]
pub struct RhToken {
    node: NodeId,
}

/// How `RhLock::try_local` captured the local copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Capture {
    /// From `FREE`: the lock was globally free.
    Fresh,
    /// From `L_FREE`: a neighbour handed it over.
    Handover,
}

/// The RH lock (2 nodes).
///
/// # Example
///
/// ```
/// use hbo_locks::{NucaLock, RhLock};
/// use nuca_topology::NodeId;
///
/// let lock = RhLock::new();
/// let t = lock.acquire(NodeId(1));
/// lock.release(t);
/// ```
///
/// # Panics
///
/// [`RhLock::acquire`] panics if called with a node id other than 0 or 1 —
/// RH is inherently a two-node design (use the HBO family for more nodes).
#[derive(Debug)]
pub struct RhLock {
    /// One padded lock copy per node. `copies[0]` starts `FREE`,
    /// `copies[1]` starts `REMOTE`.
    copies: [CachePadded<AtomicUsize>; 2],
    /// Consecutive local handovers since the last node migration.
    handovers: CachePadded<AtomicUsize>,
    /// Local-handover budget before release publishes `FREE`.
    max_handovers: usize,
    local: BackoffConfig,
    remote: BackoffConfig,
}

impl Default for RhLock {
    fn default() -> Self {
        RhLock::new()
    }
}

impl RhLock {
    /// Creates a free lock, logically placed in node 0, with default
    /// backoff constants and a local-handover budget of 64.
    pub fn new() -> RhLock {
        RhLock::with_config(BackoffConfig::local(), BackoffConfig::remote(), 64)
    }

    /// Creates a free lock with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics if `max_handovers == 0` (the lock could never hand over
    /// locally, defeating its purpose).
    pub fn with_config(local: BackoffConfig, remote: BackoffConfig, max_handovers: usize) -> RhLock {
        assert!(max_handovers > 0, "handover budget must be positive");
        RhLock {
            copies: [
                CachePadded::new(AtomicUsize::new(FREE)),
                CachePadded::new(AtomicUsize::new(REMOTE)),
            ],
            handovers: CachePadded::new(AtomicUsize::new(0)),
            max_handovers,
            local,
            remote,
        }
    }

    fn copy(&self, node: NodeId) -> &AtomicUsize {
        &self.copies[node.index()]
    }

    /// Attempts to capture the *local* copy: a fresh global capture
    /// (`FREE → HELD`) or a local handover (`L_FREE → HELD`). On failure,
    /// returns the value the failed CAS observed. That value can be `FREE`
    /// or `L_FREE` even though no capture happened: a neighbour may take
    /// the copy between the two CASes and release it again. Callers then
    /// re-classify rather than treat the observation as a capture.
    fn try_local(&self, node: NodeId) -> Result<Capture, usize> {
        let c = self.copy(node);
        // cas FREE→HELD, else cas L_FREE→HELD.
        match c.compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => Ok(Capture::Fresh),
            Err(v) if v == L_FREE => c
                .compare_exchange(L_FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
                .map(|_| Capture::Handover),
            Err(v) => Err(v),
        }
    }

    /// The node winner's remote capture loop: spin on the other node's copy
    /// until it can be claimed, then migrate the lock here.
    fn capture_remote(&self, node: NodeId) {
        let other = NodeId(1 - node.index());
        let mut b = Backoff::new(&self.remote);
        let mut failures: u32 = 0;
        loop {
            let oc = self.copy(other);
            let observed = match oc.compare_exchange(FREE, REMOTE, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(v) => v,
            };
            // A fisher that *observes* the local-handover tag — or has
            // exhausted its patience — may take L_FREE too; see the
            // module docs.
            if (observed == L_FREE || failures >= REMOTE_PATIENCE)
                && oc
                    .compare_exchange(L_FREE, REMOTE, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break;
            }
            failures = failures.saturating_add(1);
            b.spin();
        }
        // The global lock migrated into our node: our copy goes from
        // FISHING to HELD and the handover budget restarts.
        self.handovers.store(0, Ordering::Relaxed);
        self.copy(node).store(HELD, Ordering::Release);
    }
}

impl NucaLock for RhLock {
    type Token = RhToken;

    fn acquire(&self, node: NodeId) -> RhToken {
        assert!(node.index() < 2, "RH lock supports exactly two nodes");
        let mut b = Backoff::new(&self.local);
        loop {
            match self.try_local(node) {
                Ok(Capture::Fresh) => {
                    // Fresh global capture: restart the handover budget.
                    self.handovers.store(0, Ordering::Relaxed);
                    return RhToken { node };
                }
                Ok(Capture::Handover) => {
                    // Local handover: one more unit of budget consumed.
                    self.handovers.fetch_add(1, Ordering::Relaxed);
                    return RhToken { node };
                }
                Err(REMOTE) => {
                    // Node-winner election: exactly one thread goes
                    // remote-fishing.
                    if self
                        .copy(node)
                        .compare_exchange(REMOTE, FISHING, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        self.capture_remote(node);
                        return RhToken { node };
                    }
                }
                // Raced: the copy was taken and freed again between our
                // two CASes. Re-classify at once.
                Err(FREE) => {}
                // HELD or FISHING: a neighbor owns or is fetching the
                // lock; spin locally.
                Err(_) => b.spin(),
            }
        }
    }

    fn try_acquire(&self, node: NodeId) -> Option<RhToken> {
        assert!(node.index() < 2, "RH lock supports exactly two nodes");
        match self.try_local(node) {
            Ok(Capture::Fresh) => {
                self.handovers.store(0, Ordering::Relaxed);
                Some(RhToken { node })
            }
            Ok(Capture::Handover) => {
                self.handovers.fetch_add(1, Ordering::Relaxed);
                Some(RhToken { node })
            }
            Err(_) => None,
        }
    }

    fn release(&self, token: RhToken) {
        let budget_left = self.handovers.load(Ordering::Relaxed) < self.max_handovers;
        if budget_left {
            // Prefer the neighbor: local-free tag.
            self.copy(token.node).store(L_FREE, Ordering::Release);
        } else {
            // Budget exhausted: publish globally so a remote winner's
            // FREE-capture can succeed.
            self.copy(token.node).store(FREE, Ordering::Release);
        }
    }

    fn name(&self) -> &'static str {
        "RH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn fast() -> RhLock {
        RhLock::with_config(
            BackoffConfig::new(4, 2, 64),
            BackoffConfig::new(8, 2, 128),
            8,
        )
    }

    #[test]
    fn same_node_roundtrip() {
        let lock = RhLock::new();
        let t = lock.acquire(NodeId(0));
        lock.release(t);
        let t = lock.acquire(NodeId(0));
        lock.release(t);
    }

    #[test]
    fn remote_node_migration() {
        let lock = fast();
        // Lock starts in node 0; node 1 must fish it over.
        let t = lock.acquire(NodeId(1));
        lock.release(t);
        // And node 0 must be able to fish it back.
        let t = lock.acquire(NodeId(0));
        lock.release(t);
    }

    #[test]
    fn try_acquire_does_not_fish() {
        let lock = fast();
        // Node 1's copy reads REMOTE: try_acquire must fail fast, not
        // migrate the lock.
        assert!(lock.try_acquire(NodeId(1)).is_none());
        // Node 0's copy is FREE.
        let t = lock.try_acquire(NodeId(0)).expect("locally free");
        lock.release(t);
    }

    #[test]
    #[should_panic(expected = "exactly two nodes")]
    fn third_node_rejected() {
        let lock = RhLock::new();
        let _ = lock.acquire(NodeId(2));
    }

    #[test]
    fn mutual_exclusion_two_nodes() {
        let lock = Arc::new(fast());
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..4 {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let node = NodeId(i % 2);
                    for _ in 0..20_000 {
                        let t = lock.acquire(node);
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
    fn handover_budget_bounds_local_streak() {
        let lock = RhLock::with_config(
            BackoffConfig::new(4, 2, 64),
            BackoffConfig::new(8, 2, 128),
            3,
        );
        // Burn the budget with same-node reacquires; afterwards the copy
        // must read FREE (not L_FREE) so remote captures can proceed.
        let t = lock.acquire(NodeId(0));
        lock.release(t);
        for _ in 0..3 {
            let t = lock.acquire(NodeId(0));
            lock.release(t);
        }
        assert_eq!(lock.copies[0].load(Ordering::Relaxed), FREE);
    }

    #[test]
    fn starved_remote_thread_eventually_enters() {
        let lock = Arc::new(RhLock::with_config(
            BackoffConfig::new(4, 2, 64),
            BackoffConfig::new(8, 2, 128),
            4,
        ));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let lock = Arc::clone(&lock);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let t = lock.acquire(NodeId(0));
                        crate::backoff::spin_cycles(20);
                        lock.release(t);
                    }
                });
            }
            let lock1 = Arc::clone(&lock);
            let done1 = Arc::clone(&done);
            s.spawn(move || {
                for _ in 0..20 {
                    let t = lock1.acquire(NodeId(1));
                    lock1.release(t);
                }
                done1.store(true, Ordering::Relaxed);
            })
            .join()
            .unwrap();
        });
    }
}
