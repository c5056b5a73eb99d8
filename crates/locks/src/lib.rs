//! Hierarchical backoff locks for nonuniform communication architectures.
//!
//! This crate is a production-oriented implementation of the lock algorithms
//! from *"Hierarchical Backoff Locks for Nonuniform Communication
//! Architectures"* (Zoran Radović and Erik Hagersten, HPCA 2003), together
//! with every baseline the paper compares against:
//!
//! | Type | Paper name | Idea |
//! |------|-----------|------|
//! | [`TatasLock`] | TATAS | test-and-test&set |
//! | [`TatasExpLock`] | TATAS_EXP | TATAS with exponential backoff |
//! | [`McsLock`] | MCS | queue lock of Mellor-Crummey & Scott |
//! | [`ClhLock`] | CLH | queue lock of Craig, Landin & Hagersten |
//! | [`RhLock`] | RH | the authors' 2-node proof-of-concept NUCA lock |
//! | [`HboLock`] | HBO | node-id-in-lock-word + hierarchical backoff |
//! | [`HboGtLock`] | HBO_GT | HBO + per-node global-traffic throttling |
//! | [`HboGtSdLock`] | HBO_GT_SD | HBO_GT + node-centric starvation detection |
//! | [`HierHboLock`] | HIER | the paper's "expand hierarchically" remark, realized |
//! | [`TicketLock`] | TICKET | FIFO ticket lock with proportional backoff, as an extension |
//! | [`CnaLock`] | CNA | compact NUMA-aware MCS variant (Dice & Kogan 2019) |
//! | [`TwaLock`] | TWA | ticket lock + hashed waiting array (Dice & Kogan 2019) |
//! | [`RecipLock`] | RECIP | reciprocating lock, palindromic admission (Dice & Kogan 2025) |
//!
//! Every named kind is registered in the [`LockCatalog`], the single
//! enumeration point for sweeps, CLIs and checkers.
//!
//! # The idea
//!
//! On a NUCA machine (a CC-NUMA built from a few large nodes, or a server
//! built from chip multiprocessors), handing a contended lock to a waiting
//! *neighbor* is much cheaper than handing it to a remote node: both the
//! lock word and the critical-section data are already in the node. The HBO
//! lock gets this node affinity with an embarrassingly simple trick: the
//! lock word holds the **node id of the holder**. A contender whose `cas`
//! fails learns *where* the lock is; same-node contenders retry eagerly
//! (small backoff) while remote contenders retry lazily (large backoff), so
//! when the lock is released a neighbor almost always wins the race.
//!
//! # Quick start
//!
//! ```
//! use hbo_locks::{HboGtSdLock, NucaLockExt, NucaMutex};
//! use nuca_topology::{register_thread, Topology};
//! use std::sync::Arc;
//!
//! let topo = Topology::symmetric(2, 2);
//! let counter = Arc::new(NucaMutex::new(HboGtSdLock::with_nodes(2), 0u64));
//!
//! std::thread::scope(|s| {
//!     for cpu in topo.round_robin_binding(4) {
//!         let counter = Arc::clone(&counter);
//!         let node = topo.node_of(cpu);
//!         s.spawn(move || {
//!             let _reg = register_thread(node);
//!             for _ in 0..1000 {
//!                 *counter.lock() += 1;
//!             }
//!         });
//!     }
//! });
//! assert_eq!(*counter.lock(), 4000);
//! ```
//!
//! # Thread-to-node mapping
//!
//! The NUCA-aware locks need the caller's node id. The [`NucaLock`] trait
//! takes it explicitly ([`NucaLock::acquire`]); the ergonomic wrappers
//! ([`NucaMutex`], [`NucaLockExt::lock`]) read the calling thread's
//! registration from [`nuca_topology::register_thread`], falling back to
//! node 0. The node id is only an *affinity hint*: a wrong node id can cost
//! performance, never correctness.
//!
//! # Fairness
//!
//! HBO locks deliberately trade short-term fairness for throughput: they
//! keep a contended lock inside one node for stretches of time. The
//! starvation-detection variant ([`HboGtSdLock`]) bounds how long a remote
//! node can be bypassed. The queue locks ([`McsLock`], [`ClhLock`]) are
//! strictly FIFO. See the paper's §6 and the `fig8` experiment.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod any;
mod backoff;
mod clh;
mod cna;
mod gt_ctx;
mod hbo;
mod hbo_gt;
mod hbo_gt_sd;
mod hier;
mod instrument;
mod lock;
mod mcs;
mod pad;
mod recip;
mod registry;
mod rh;
mod tatas;
mod ticket;
mod twa;

pub use any::{AnyLock, AnyToken, LockKind, ParseLockKindError};
pub use backoff::{spin_cycles, Backoff, BackoffConfig, SpinWait};
pub use clh::{ClhLock, ClhToken};
pub use cna::{CnaLock, CnaToken};
pub use gt_ctx::{GtContext, MAX_NODES};
pub use hbo::{HboLock, HboToken};
pub use hbo_gt::{HboGtLock, HboGtToken};
pub use hbo_gt_sd::{HboGtSdConfig, HboGtSdLock, HboGtSdToken};
pub use hier::{HierHboLock, HierHboToken, LevelBackoff};
pub use instrument::{Instrumented, LockStats};
pub use lock::{NucaLock, NucaLockExt, NucaLockGuard, NucaMutex, NucaMutexGuard};
pub use mcs::{McsLock, McsToken};
pub use pad::CachePadded;
pub use recip::{RecipLock, RecipToken};
pub use registry::{LockCatalog, LockFamily, LockInfo};
pub use rh::{RhLock, RhToken};
pub use tatas::{TatasExpLock, TatasLock, TatasToken};
pub use ticket::{TicketLock, TicketToken};
pub use twa::{TwaLock, TwaToken};
