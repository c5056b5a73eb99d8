//! The simulated memory system: lines, coherence, latencies, watchers.
//!
//! Every allocated [`Addr`] is one cache-line-sized word with a home node.
//! A line tracks an exclusive owner (a CPU whose cache holds it modified)
//! or a set of sharers, plus a `busy_until` occupancy horizon — coherence
//! transactions targeting the same line serialize on it, which is the
//! mechanism behind lock-handover slowdown at high contention.
//!
//! Spinning is modeled with *watchers*: a CPU that would spin on a cached
//! value registers interest and sleeps; the next conflicting write wakes it
//! with a refill transaction (invalidate + re-fetch), exactly the cost
//! structure of test-and-test&set spinning on real coherent hardware.
//!
//! # Layout
//!
//! Per-line state is struct-of-arrays: one dense array per field, indexed
//! by [`Addr`]. The hot benchmark pattern — a critical section sweeping a
//! run of consecutively allocated lines — then walks each array
//! sequentially instead of striding over fat per-line structs, and the
//! fields an access never touches (watcher chains, homes) cost no cache
//! traffic. Watcher lists are FIFO chains through one shared node arena
//! with a freelist, so parking and waking spinners allocates nothing in
//! the steady state.

use std::fmt;
use std::sync::Arc;

use nuca_topology::{CpuId, NodeId, Topology};

use crate::coherence::Protocol;
use crate::config::{CacheGeometry, LatencyModel, ProtocolKind};
use crate::rng::SplitMix64;
use crate::stats::SimStats;
use crate::trace::{SimEvent, TraceSink};

/// Identifier of one simulated memory word (its own cache line).
///
/// `Addr`s are dense indices into the [`MemorySystem`]. The encoded form
/// ([`Addr::encode`]) is a nonzero `u64` suitable for storing *in* simulated
/// memory — queue locks store pointers to their queue nodes this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub(crate) u32);

impl Addr {
    /// Nonzero `u64` form for storing this address in simulated memory.
    pub fn encode(self) -> u64 {
        u64::from(self.0) + 1
    }

    /// The address `n` words past this one — for indexing into a
    /// contiguous span from [`MemorySystem::alloc_span`]. The caller is
    /// responsible for staying inside the span; the result is only checked
    /// against arithmetic overflow, not allocation bounds.
    ///
    /// # Panics
    ///
    /// Panics if the offset overflows the address width.
    pub fn offset(self, n: usize) -> Addr {
        let n = u32::try_from(n).expect("span offset exceeds address width");
        Addr(self.0.checked_add(n).expect("span offset overflows"))
    }

    /// Inverse of [`Addr::encode`]; `None` for 0 (the null encoding).
    pub fn decode(v: u64) -> Option<Addr> {
        if v == 0 || v > u64::from(u32::MAX) {
            None
        } else {
            Some(Addr((v - 1) as u32))
        }
    }

    /// The dense index of this address.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr{}", self.0)
    }
}

/// One memory operation a program can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Plain load; returns the value.
    Read,
    /// Plain store; returns the *old* value.
    Write(u64),
    /// Atomic compare-and-swap; returns the old value.
    Cas {
        /// Value the word must hold for the swap to happen.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Atomic swap; returns the old value.
    Swap(u64),
    /// Atomic test-and-set (write 1); returns the old value.
    Tas,
    /// Atomic fetch-and-add; returns the old value.
    FetchAdd(u64),
}

impl MemOp {
    /// Whether the operation needs exclusive ownership of the line.
    ///
    /// Atomics always fetch exclusive — even a failing `cas` steals the
    /// line from its owner, which is why undisciplined `cas` spinning is
    /// expensive and backoff matters.
    pub fn is_write(self) -> bool {
        !matches!(self, MemOp::Read)
    }

    /// Whether the operation is an atomic read-modify-write.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            MemOp::Cas { .. } | MemOp::Swap(_) | MemOp::Tas | MemOp::FetchAdd(_)
        )
    }
}

/// Where a miss was served from, for latency selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Hit,
    /// Same innermost group (CMP chip) — hierarchical topologies only.
    SameChipCache,
    SameNodeCache,
    LocalMemory,
    RemoteCache,
    RemoteMemory,
}

/// Largest CPU count one machine may simulate. Sharer sets are `u128`
/// bitmasks indexed by CPU id, so a 129th CPU would shift past the mask
/// width — a debug-build panic and silent sharer corruption (wrapping
/// shift) in release. [`crate::MachineConfig`] validation rejects bigger
/// topologies up front with a clear error instead.
pub const MAX_SIM_CPUS: usize = 128;

/// Largest node count one machine may simulate. Node sets (the nodes an
/// invalidation or update reaches) are `u64` bitmasks indexed by node id,
/// so a 65th node would shift past the mask width — a debug-build panic,
/// and in release its traffic aliases onto node 0's. [`crate::MachineConfig`]
/// validation rejects bigger topologies up front with a clear error.
pub const MAX_SIM_NODES: usize = 64;

/// "No exclusive owner" sentinel in [`MemorySystem::owners`].
pub(crate) const NO_OWNER: u32 = u32::MAX;
/// Null link / empty-chain sentinel for watcher arena indices.
pub(crate) const WNIL: u32 = u32::MAX;

/// One parked spinner in the watcher arena. Freed nodes chain through
/// `next` onto the freelist.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WatchNode {
    /// Wake when the line's value differs from this.
    pub(crate) equals: u64,
    pub(crate) cpu: u32,
    pub(crate) next: u32,
}

/// A completed access: when it finishes and what it returned. Watchers it
/// woke are appended to the caller-provided buffer instead (so the hot
/// write path allocates nothing).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessOutcome {
    pub complete_at: u64,
    pub value: u64,
}

/// The simulated memory: allocation, coherence state, and access costing.
///
/// Line state lives in parallel arrays indexed by [`Addr`] (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct MemorySystem {
    pub(crate) topo: Arc<Topology>,
    pub(crate) latency: LatencyModel,
    /// Current value of each word.
    pub(crate) values: Vec<u64>,
    /// CPU holding each line modified/exclusive ([`NO_OWNER`] if none).
    owners: Vec<u32>,
    /// CPUs holding shared copies (bitmask; the simulator supports up to
    /// 128 CPUs, more than the largest machine in the paper).
    sharers: Vec<u128>,
    /// Time until which each line's coherence agent is busy.
    busy_until: Vec<u64>,
    /// Home node of each word.
    pub(crate) homes: Vec<NodeId>,
    /// Head/tail of each line's watcher chain ([`WNIL`] when empty).
    /// CPUs sleeping until the line's value changes park here, in FIFO
    /// order — wake order is registration order.
    pub(crate) watch_head: Vec<u32>,
    pub(crate) watch_tail: Vec<u32>,
    /// Watcher node arena; `wfree` heads its freelist.
    pub(crate) wnodes: Vec<WatchNode>,
    pub(crate) wfree: u32,
    /// Per-node snooping-bus occupancy horizon: every coherence
    /// transaction touching a node serializes on its bus, so lock storms
    /// slow down unrelated data accesses (the paper's interference).
    pub(crate) bus_until: Vec<u64>,
    /// Inter-node link occupancy horizon (one shared resource, matching
    /// the WildFire's single interface).
    pub(crate) link_until: u64,
    /// Recycled wake buffer for the internal reads issued by
    /// [`MemorySystem::wait_while`] (reads never wake watchers, so it
    /// always comes back empty).
    read_scratch: Vec<(CpuId, u64, u64)>,
    /// Node each CPU's thread currently runs on (index = CPU id). Starts
    /// as the topology mapping; injected migrations rewrite entries.
    cpu_nodes: Vec<NodeId>,
    /// The inverse of `cpu_nodes`: the CPUs running on each node, as a
    /// sharer-style bitmask (index = node id). Folding a sharer set onto
    /// nodes is one AND per node ([`MemorySystem::nodes_of`]).
    /// [`MemorySystem::migrate_cpu`] keeps the two in step.
    node_cpus: Vec<u128>,
    /// Whether any migration has happened. While false (the overwhelmingly
    /// common case) topology-derived shortcuts like the same-chip class
    /// stay valid.
    pub(crate) migrated: bool,
    /// One slow node: `(node, latency multiplier)` for transfers it serves.
    slow_node: Option<(NodeId, u64)>,
    /// Bounded uniform latency noise: `(max_extra, stream)`.
    jitter: Option<(u64, SplitMix64)>,
    /// The coherence protocol ([`crate::coherence`]). The flat arm is the
    /// first branch of [`MemorySystem::access`] and carries no state.
    proto: Protocol,
}

impl MemorySystem {
    pub(crate) fn new(
        topo: Arc<Topology>,
        latency: LatencyModel,
        protocol: ProtocolKind,
        geometry: CacheGeometry,
    ) -> MemorySystem {
        // Backstop for the MachineConfig-level validation: a sharer bitmask
        // must have a bit for every CPU, in release builds too.
        assert!(
            topo.num_cpus() <= MAX_SIM_CPUS,
            "topology has {} CPUs but the memory system supports at most {} \
             (u128 sharer bitmask)",
            topo.num_cpus(),
            MAX_SIM_CPUS
        );
        assert!(
            topo.num_nodes() <= MAX_SIM_NODES,
            "topology has {} nodes but the memory system supports at most {} \
             (u64 node bitmask)",
            topo.num_nodes(),
            MAX_SIM_NODES
        );
        let nodes = topo.num_nodes();
        let num_cpus = topo.num_cpus();
        let cpu_nodes: Vec<NodeId> = (0..num_cpus).map(|c| topo.node_of(CpuId(c))).collect();
        let mut node_cpus = vec![0u128; nodes];
        for (c, n) in cpu_nodes.iter().enumerate() {
            node_cpus[n.index()] |= 1 << c;
        }
        MemorySystem {
            topo,
            latency,
            values: Vec::new(),
            owners: Vec::new(),
            sharers: Vec::new(),
            busy_until: Vec::new(),
            homes: Vec::new(),
            watch_head: Vec::new(),
            watch_tail: Vec::new(),
            wnodes: Vec::new(),
            wfree: WNIL,
            bus_until: vec![0; nodes],
            link_until: 0,
            read_scratch: Vec::new(),
            cpu_nodes,
            node_cpus,
            migrated: false,
            slow_node: None,
            jitter: None,
            proto: Protocol::new(protocol, geometry, num_cpus),
        }
    }

    /// The node `cpu`'s thread currently runs on — the topology's mapping
    /// until an injected migration moves it.
    pub fn node_of(&self, cpu: CpuId) -> NodeId {
        self.cpu_nodes[cpu.index()]
    }

    /// The CPUs whose threads currently run on `node` (bitmask by CPU id).
    pub(crate) fn cpus_on(&self, node: NodeId) -> u128 {
        self.node_cpus[node.index()]
    }

    /// The nodes the CPUs in `cpus` currently run on, as a bitmask by node
    /// id: one AND per node, stopping once every CPU is placed.
    pub(crate) fn nodes_of(&self, cpus: u128) -> u64 {
        let mut rest = cpus;
        let mut nodes = 0u64;
        for (n, &on) in self.node_cpus.iter().enumerate() {
            if rest == 0 {
                break;
            }
            if rest & on != 0 {
                nodes |= 1 << n;
                rest &= !on;
            }
        }
        nodes
    }

    /// Re-homes `cpu`'s thread to `node` (injected migration). Subsequent
    /// accesses by that CPU pay latencies and traffic as from `node`.
    pub(crate) fn migrate_cpu(&mut self, cpu: CpuId, node: NodeId) {
        debug_assert!(node.index() < self.topo.num_nodes());
        let bit = 1u128 << cpu.index();
        self.node_cpus[self.cpu_nodes[cpu.index()].index()] &= !bit;
        self.node_cpus[node.index()] |= bit;
        self.cpu_nodes[cpu.index()] = node;
        self.migrated = true;
    }

    /// Enables the slow-node fault layer.
    pub(crate) fn set_slow_node(&mut self, node: NodeId, factor: u64) {
        self.slow_node = Some((node, factor));
    }

    /// Enables the latency-jitter fault layer.
    pub(crate) fn set_jitter(&mut self, max_extra: u64, rng: SplitMix64) {
        self.jitter = Some((max_extra, rng));
    }

    /// Fault-layer latency adjustment for a transfer served by
    /// `served_by`: the slow-node multiplier, then bounded jitter. Both
    /// disabled (the default) returns `base` untouched and draws nothing.
    pub(crate) fn faulted_latency(&mut self, base: u64, served_by: NodeId) -> u64 {
        let mut lat = base;
        if let Some((slow, factor)) = self.slow_node {
            if served_by == slow {
                lat *= factor;
            }
        }
        if let Some((max_extra, rng)) = self.jitter.as_mut() {
            lat += rng.next_below(*max_extra + 1);
        }
        lat
    }

    /// The coherence protocol this memory system models.
    pub fn protocol(&self) -> ProtocolKind {
        match self.proto {
            Protocol::Flat => ProtocolKind::Flat,
            Protocol::Mesi(_) => ProtocolKind::Mesi,
            Protocol::Dragon(_) => ProtocolKind::Dragon,
        }
    }

    /// Allocates a fresh zero-initialized word homed in `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine's topology.
    pub fn alloc(&mut self, node: NodeId) -> Addr {
        assert!(
            node.index() < self.topo.num_nodes(),
            "{node} outside topology"
        );
        let addr = Addr(u32::try_from(self.values.len()).expect("address space exhausted"));
        self.values.push(0);
        self.owners.push(NO_OWNER);
        self.sharers.push(0);
        self.busy_until.push(0);
        self.homes.push(node);
        self.watch_head.push(WNIL);
        self.watch_tail.push(WNIL);
        addr
    }

    /// Allocates `n` words homed in `node`.
    pub fn alloc_array(&mut self, node: NodeId, n: usize) -> Vec<Addr> {
        self.reserve(n);
        (0..n).map(|_| self.alloc(node)).collect()
    }

    /// Pre-sizes the backing arrays for `n` further allocations, so a bulk
    /// caller (a million-object lock table) pays one reallocation per
    /// parallel vector instead of a geometric growth series.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
        self.owners.reserve(n);
        self.sharers.reserve(n);
        self.busy_until.reserve(n);
        self.homes.reserve(n);
        self.watch_head.reserve(n);
        self.watch_tail.reserve(n);
    }

    /// Allocates `n` contiguous zero-initialized words homed in `node` and
    /// returns the first address; word `i` of the span is `Addr(base.0 +
    /// i)`. Unlike [`MemorySystem::alloc_array`] this materializes no
    /// `Vec<Addr>` — at 10^6+ words (the lockserver's object table) the
    /// handle vector alone would rival the words themselves.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine's topology or the address
    /// space would overflow.
    pub fn alloc_span(&mut self, node: NodeId, n: usize) -> Addr {
        assert!(
            node.index() < self.topo.num_nodes(),
            "{node} outside topology"
        );
        let end = self.values.len() + n;
        assert!(u32::try_from(end).is_ok(), "address space exhausted");
        let base = Addr(self.values.len() as u32);
        self.values.resize(end, 0);
        self.owners.resize(end, NO_OWNER);
        self.sharers.resize(end, 0);
        self.busy_until.resize(end, 0);
        self.homes.resize(end, node);
        self.watch_head.resize(end, WNIL);
        self.watch_tail.resize(end, WNIL);
        base
    }

    /// Number of allocated words.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no words have been allocated.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current value of a word (debug/assertion use; does not model a
    /// coherence transaction).
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.values[addr.index()]
    }

    /// Directly sets a word's value without simulating an access (for
    /// initialization before the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.values[addr.index()] = value;
    }

    /// The home node of a word.
    pub fn home(&self, addr: Addr) -> NodeId {
        self.homes[addr.index()]
    }

    fn source_latency(&self, src: Source) -> u64 {
        match src {
            Source::Hit => self.latency.l1_hit,
            Source::SameChipCache => self.latency.same_chip_transfer,
            Source::SameNodeCache => self.latency.same_node_transfer,
            Source::LocalMemory => self.latency.local_memory,
            Source::RemoteCache => self.latency.remote_transfer,
            Source::RemoteMemory => self.latency.remote_memory,
        }
    }

    pub(crate) fn apply_op(value: &mut u64, op: MemOp) -> u64 {
        let old = *value;
        match op {
            MemOp::Read => {}
            MemOp::Write(v) => *value = v,
            MemOp::Cas { expected, new } => {
                if old == expected {
                    *value = new;
                }
            }
            MemOp::Swap(v) => *value = v,
            MemOp::Tas => *value = 1,
            MemOp::FetchAdd(d) => *value = old.wrapping_add(d),
        }
        old
    }

    /// Appends `cpu` to the line's watcher chain (FIFO order).
    fn park_watcher(&mut self, i: usize, cpu: CpuId, equals: u64) {
        let id = if self.wfree != WNIL {
            let id = self.wfree;
            let n = &mut self.wnodes[id as usize];
            self.wfree = n.next;
            *n = WatchNode { equals, cpu: cpu.index() as u32, next: WNIL };
            id
        } else {
            let id = self.wnodes.len() as u32;
            debug_assert_ne!(id, WNIL, "watcher arena exhausted");
            self.wnodes.push(WatchNode { equals, cpu: cpu.index() as u32, next: WNIL });
            id
        };
        if self.watch_tail[i] == WNIL {
            self.watch_head[i] = id;
        } else {
            let tail = self.watch_tail[i] as usize;
            self.wnodes[tail].next = id;
        }
        self.watch_tail[i] = id;
    }

    /// Performs `op` by `cpu` on `addr`, starting at `now`.
    ///
    /// The value effect is applied immediately (transactions on one line
    /// are serialized by the event order, which is also the coherence
    /// order); the returned completion time reflects latency and line
    /// occupancy. Traffic is recorded into `stats`; every counted
    /// transaction additionally emits one `CoherenceTxn` event into
    /// `trace` when a sink is installed. `woken` is cleared and then
    /// filled with `(cpu, wake_time, observed_value)` for each watcher
    /// this access woke — a caller-owned buffer so the per-write wake
    /// burst never allocates.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn access(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        let mut proto = match self.proto {
            Protocol::Flat => return self.flat_access(now, cpu, addr, op, stats, trace, woken),
            // A set-associative protocol owns the whole access (state
            // machine, geometry, timing). Its box moves out and back — a
            // pointer move — so it can borrow the rest of the memory system.
            Protocol::Mesi(_) | Protocol::Dragon(_) => {
                std::mem::replace(&mut self.proto, Protocol::Flat)
            }
        };
        let out = match &mut proto {
            Protocol::Mesi(c) => c.mesi_access(self, now, cpu, addr, op, stats, trace, woken),
            Protocol::Dragon(c) => c.dragon_access(self, now, cpu, addr, op, stats, trace, woken),
            Protocol::Flat => unreachable!("the flat arm returned above"),
        };
        self.proto = proto;
        out
    }

    /// The flat word-granular access path (every word its own line).
    #[allow(clippy::too_many_arguments)]
    fn flat_access(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        woken.clear();
        // Cache-hit fast paths. Hits arbitrate for no shared resource,
        // draw no fault-layer latency, emit no trace event and count no
        // traffic, so none of the slow path's machinery applies. The
        // coherence-state transitions mirror phase 3 of the slow path.
        let i = addr.index();
        let me = cpu.index() as u32;
        if self.owners[i] == me {
            if !op.is_write() {
                // Owner read-hit: the modified copy demotes to shared.
                stats.count_hit();
                self.owners[i] = NO_OWNER;
                self.sharers[i] |= 1u128 << me;
                return AccessOutcome {
                    complete_at: now + self.latency.l1_hit,
                    value: self.values[i],
                };
            }
            if self.watch_head[i] == WNIL {
                // Owner write-hit with no parked spinners to refill.
                // Owner exclusive implies no sharers to invalidate.
                debug_assert_eq!(self.sharers[i], 0);
                stats.count_hit();
                let old = Self::apply_op(&mut self.values[i], op);
                let mut latency = self.latency.l1_hit;
                if op.is_atomic() {
                    latency += self.latency.atomic_extra;
                }
                return AccessOutcome { complete_at: now + latency, value: old };
            }
        } else if !op.is_write() && self.owners[i] == NO_OWNER && self.sharers[i] & (1u128 << me) != 0
        {
            // Shared read-hit: no state change at all.
            stats.count_hit();
            return AccessOutcome {
                complete_at: now + self.latency.l1_hit,
                value: self.values[i],
            };
        }
        self.access_slow(now, cpu, addr, op, stats, trace, woken)
    }

    /// The general access path: classification, timing/occupancy/traffic,
    /// invalidations, coherence update and watcher wake. (Still reached
    /// with `Source::Hit` for an owner write that must refill parked
    /// spinners.)
    #[allow(clippy::too_many_arguments)]
    fn access_slow(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        mut trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        let i = addr.index();
        let my_node = self.node_of(cpu);
        let home = self.homes[i];
        let lat = self.latency;

        // Phase 1: classify the access against current line state.
        let prev_owner = self.owners[i];
        let prev_sharers = self.sharers[i];
        let (src, src_node) = if prev_owner == cpu.index() as u32
            || (!op.is_write() && prev_owner == NO_OWNER && prev_sharers & (1 << cpu.index()) != 0)
        {
            (Source::Hit, my_node)
        } else if prev_owner != NO_OWNER {
            let owner = CpuId(prev_owner as usize);
            let on = self.node_of(owner);
            if on == my_node {
                // On hierarchical machines, a transfer within the
                // innermost group stays on-chip. Once any thread has
                // migrated, topology distance no longer describes
                // where threads run, so the shortcut is disabled.
                if !self.migrated
                    && self.topo.extra_levels() > 0
                    && self.topo.distance(cpu, owner) <= 1
                {
                    (Source::SameChipCache, on)
                } else {
                    (Source::SameNodeCache, on)
                }
            } else {
                (Source::RemoteCache, on)
            }
        } else if home == my_node {
            (Source::LocalMemory, home)
        } else {
            (Source::RemoteMemory, home)
        };

        let mut latency = self.source_latency(src);
        if src != Source::Hit {
            // Fault layers touch only real transfers; hits stay in-cache.
            latency = self.faulted_latency(latency, src_node);
        }
        if op.is_atomic() {
            latency += lat.atomic_extra;
        }

        // Phase 2: timing, occupancy and traffic. A missing transaction
        // arbitrates for the line, the requester's node bus, and — when it
        // crosses nodes — the source node's bus plus the inter-node link.
        let start;
        if src == Source::Hit {
            // Hits do not arbitrate for any shared resource.
            stats.count_hit();
            start = now;
        } else if src == Source::SameChipCache {
            // On-chip transfer: serializes on the line but stays off the
            // node's snooping bus and the interconnect.
            stats.count_local(my_node);
            start = now.max(self.busy_until[i]);
            self.busy_until[i] = start + lat.local_occupancy;
            if let Some(t) = trace.as_deref_mut() {
                t.record(
                    start,
                    SimEvent::CoherenceTxn {
                        cpu,
                        node: my_node,
                        home,
                        global: false,
                    },
                );
            }
        } else {
            let global = matches!(src, Source::RemoteCache | Source::RemoteMemory);
            if global {
                stats.count_global(my_node);
            } else {
                stats.count_local(my_node);
            }
            let line_busy = self.busy_until[i];
            let mut s = now.max(line_busy).max(self.bus_until[my_node.index()]);
            if global {
                s = s
                    .max(self.link_until)
                    .max(self.bus_until[src_node.index()]);
            }
            start = s;
            self.busy_until[i] = start
                + if global {
                    lat.global_occupancy
                } else {
                    lat.local_occupancy
                };
            // Atomic read-modify-writes cannot be split on a snooping bus:
            // they hold bus resources for several address slots.
            let bus_occ = if op.is_atomic() {
                lat.bus_occupancy * 2
            } else {
                lat.bus_occupancy
            };
            self.bus_until[my_node.index()] = start + bus_occ;
            if global {
                self.bus_until[src_node.index()] = start + bus_occ;
                self.link_until = start
                    + if op.is_atomic() {
                        lat.link_occupancy * 2
                    } else {
                        lat.link_occupancy
                    };
            }
            if let Some(t) = trace.as_deref_mut() {
                t.record(
                    start,
                    SimEvent::CoherenceTxn {
                        cpu,
                        node: my_node,
                        home,
                        global,
                    },
                );
            }
        }
        let complete_at = start + latency;

        // Invalidation traffic: a write that found the line *unowned* but
        // shared sends one invalidation per other node holding a copy (the
        // data fetch above already paid for reaching a modified owner).
        if op.is_write() && prev_owner == NO_OWNER {
            let mut inval_nodes = self.nodes_of(prev_sharers & !(1u128 << cpu.index()));
            while inval_nodes != 0 {
                let n = inval_nodes.trailing_zeros() as usize;
                inval_nodes &= inval_nodes - 1;
                let global = NodeId(n) != my_node;
                if global {
                    stats.count_global(NodeId(n));
                } else {
                    stats.count_local(NodeId(n));
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.record(
                        start,
                        SimEvent::CoherenceTxn {
                            cpu,
                            node: NodeId(n),
                            home,
                            global,
                        },
                    );
                }
            }
        }

        // Phase 3: apply the value effect and update coherence state.
        let old = Self::apply_op(&mut self.values[i], op);
        let new_value = self.values[i];
        if op.is_write() {
            self.owners[i] = cpu.index() as u32;
            self.sharers[i] = 0;
        } else {
            // Read: a previous modified owner's data is now shared.
            if prev_owner != NO_OWNER {
                self.owners[i] = NO_OWNER;
                self.sharers[i] |= 1 << prev_owner;
            }
            self.sharers[i] |= 1 << cpu.index();
        }

        // Phase 4: wake watchers whose condition now holds. Each wake is a
        // refill — an invalidate-then-refetch transaction from the new
        // owner — and refills serialize on the line's occupancy. Watchers
        // that stay parked are relinked in place (the chain nodes are
        // reused), so the burst allocates nothing.
        if op.is_write() && self.watch_head[i] != WNIL {
            let mut id = self.watch_head[i];
            let mut kept_head = WNIL;
            let mut kept_tail = WNIL;
            let mut busy = self.busy_until[i].max(complete_at);
            let mut new_sharers = 0u128;
            while id != WNIL {
                let WatchNode { equals, cpu: wc, next } = self.wnodes[id as usize];
                // *Every* write invalidates every spinner's cached
                // copy; each refills (traffic + bus time) and
                // re-checks. Spinners whose condition still fails stay
                // parked but have already paid — this is the O(N²)
                // test-and-test&set stampede.
                let wcpu = CpuId(wc as usize);
                let w_node = self.node_of(wcpu);
                let global = w_node != my_node;
                let (refill, occ) = if global {
                    stats.count_global(w_node);
                    (lat.remote_transfer, lat.global_occupancy)
                } else {
                    stats.count_local(w_node);
                    (lat.same_node_transfer, lat.local_occupancy)
                };
                // Refills are served by the writer's cache.
                let refill = self.faulted_latency(refill, my_node);
                // The refill burst arbitrates for the same shared
                // resources as any other transaction.
                let mut s = busy.max(self.bus_until[w_node.index()]);
                if global {
                    s = s
                        .max(self.link_until)
                        .max(self.bus_until[my_node.index()]);
                }
                let wake_at = s + refill;
                busy = s + occ;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(
                        s,
                        SimEvent::CoherenceTxn {
                            cpu: wcpu,
                            node: w_node,
                            home,
                            global,
                        },
                    );
                }
                self.bus_until[w_node.index()] = s + lat.bus_occupancy;
                if global {
                    self.bus_until[my_node.index()] = s + lat.bus_occupancy;
                    self.link_until = s + lat.link_occupancy;
                }
                new_sharers |= 1 << wc;
                if new_value != equals {
                    woken.push((wcpu, wake_at, new_value));
                    // Free the node.
                    self.wnodes[id as usize].next = self.wfree;
                    self.wfree = id;
                } else {
                    // Keep parked, preserving FIFO order.
                    self.wnodes[id as usize].next = WNIL;
                    if kept_tail == WNIL {
                        kept_head = id;
                    } else {
                        self.wnodes[kept_tail as usize].next = id;
                    }
                    kept_tail = id;
                }
                id = next;
            }
            self.watch_head[i] = kept_head;
            self.watch_tail[i] = kept_tail;
            self.busy_until[i] = busy;
            self.sharers[i] |= new_sharers;
            // Refilled watchers demote the writer's copy to shared.
            if !woken.is_empty() && self.owners[i] != NO_OWNER {
                self.sharers[i] |= 1 << self.owners[i];
                self.owners[i] = NO_OWNER;
            }
        }

        AccessOutcome {
            complete_at,
            value: old,
        }
    }

    /// Begins a `WaitWhile`: if the word already differs from `equals`,
    /// returns the read outcome; otherwise registers `cpu` as a watcher
    /// and returns `None` (the engine will be woken by a future write).
    ///
    /// A spinner that does not hold a valid copy of the line must fetch it
    /// to observe that the value has not changed — that read transaction
    /// is charged here even though the CPU then sleeps. This is the
    /// re-read a failed `tas` performs before resuming its load loop.
    pub(crate) fn wait_while(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        equals: u64,
        stats: &mut SimStats,
        trace: Option<&mut (dyn TraceSink + 'static)>,
    ) -> Option<(u64, u64)> {
        let i = addr.index();
        if self.values[i] != equals {
            let mut scratch = std::mem::take(&mut self.read_scratch);
            let out = self.access(now, cpu, addr, MemOp::Read, stats, trace, &mut scratch);
            debug_assert!(scratch.is_empty(), "reads wake no watchers");
            self.read_scratch = scratch;
            return Some((out.complete_at, out.value));
        }
        let holds_copy = match &self.proto {
            Protocol::Flat => {
                self.owners[i] == cpu.index() as u32 || self.sharers[i] & (1 << cpu.index()) != 0
            }
            Protocol::Mesi(c) | Protocol::Dragon(c) => c.holds_copy(cpu, addr),
        };
        if !holds_copy {
            // Fetch the line (traffic + line/bus occupancy) before
            // sleeping on it.
            let mut scratch = std::mem::take(&mut self.read_scratch);
            let _ = self.access(now, cpu, addr, MemOp::Read, stats, trace, &mut scratch);
            debug_assert!(scratch.is_empty(), "reads wake no watchers");
            self.read_scratch = scratch;
        }
        self.park_watcher(i, cpu, equals);
        None
    }

    /// Materializes the final value of every allocated word, in address
    /// order (done once, when a finished machine is turned into a report).
    pub(crate) fn final_values(&self) -> Vec<u64> {
        self.values.clone()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use nuca_topology::Topology;

    fn mem2x2() -> (MemorySystem, SimStats) {
        let topo = Arc::new(Topology::symmetric(2, 2));
        (
            MemorySystem::new(topo, LatencyModel::wildfire(), ProtocolKind::Flat, CacheGeometry::default_geometry()),
            SimStats::new(),
        )
    }

    /// Test shim for the pre-buffer `access` signature: discards wakes,
    /// no tracing.
    fn access(
        mem: &mut MemorySystem,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        st: &mut SimStats,
    ) -> AccessOutcome {
        let mut woken = Vec::new();
        mem.access(now, cpu, addr, op, st, None, &mut woken)
    }

    /// Like [`access`] but returns the woken watchers too.
    #[allow(clippy::type_complexity)]
    fn access_w(
        mem: &mut MemorySystem,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        st: &mut SimStats,
    ) -> (AccessOutcome, Vec<(CpuId, u64, u64)>) {
        let mut woken = Vec::new();
        let out = mem.access(now, cpu, addr, op, st, None, &mut woken);
        (out, woken)
    }

    #[test]
    fn alloc_span_is_contiguous_and_usable() {
        let (mut mem, mut st) = mem2x2();
        let first = mem.alloc(NodeId(0));
        let base = mem.alloc_span(NodeId(1), 1000);
        assert_eq!(base.index(), first.index() + 1);
        assert_eq!(mem.len(), 1001);
        // Span words behave exactly like individually allocated ones.
        let mid = base.offset(500);
        assert_eq!(mem.home(mid), NodeId(1));
        assert_eq!(mem.peek(mid), 0);
        let _ = access(&mut mem, 0, CpuId(0), mid, MemOp::Write(7), &mut st);
        assert_eq!(mem.peek(mid), 7);
        assert_eq!(mem.peek(base.offset(499)), 0, "neighbours untouched");
        // Allocation continues cleanly past the span.
        let next = mem.alloc(NodeId(0));
        assert_eq!(next.index(), base.offset(999).index() + 1);
    }

    #[test]
    fn addr_encoding_roundtrip() {
        let a = Addr(0);
        assert_eq!(a.encode(), 1);
        assert_eq!(Addr::decode(1), Some(a));
        assert_eq!(Addr::decode(0), None);
        let b = Addr(41);
        assert_eq!(Addr::decode(b.encode()), Some(b));
    }

    #[test]
    fn ops_apply_correct_values() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        let cpu = CpuId(0);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Write(5), &mut st).value, 0);
        assert_eq!(mem.peek(a), 5);
        assert_eq!(
            access(&mut mem, 0, cpu, a, MemOp::Cas { expected: 5, new: 7 }, &mut st).value,
            5
        );
        assert_eq!(mem.peek(a), 7);
        assert_eq!(
            access(&mut mem, 0, cpu, a, MemOp::Cas { expected: 5, new: 9 }, &mut st).value,
            7,
            "failed cas returns old value"
        );
        assert_eq!(mem.peek(a), 7, "failed cas does not write");
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Swap(1), &mut st).value, 7);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Tas, &mut st).value, 1);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::FetchAdd(3), &mut st).value, 1);
        assert_eq!(mem.peek(a), 4);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Read, &mut st).value, 4);
    }

    #[test]
    fn latency_classes_ordered() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        // CPU 0 (node 0) writes: local memory fetch.
        let w0 = access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        let t_local_mem = w0.complete_at;
        // CPU 1 (node 0) writes: same-node cache-to-cache.
        let w1 = access(&mut mem, w0.complete_at, CpuId(1), a, MemOp::Write(2), &mut st);
        let t_same = w1.complete_at - w0.complete_at;
        // CPU 2 (node 1) writes: remote cache-to-cache.
        let w2 = access(&mut mem, w1.complete_at, CpuId(2), a, MemOp::Write(3), &mut st);
        let t_remote = w2.complete_at - w1.complete_at;
        assert!(t_same < t_local_mem + 10, "cache transfer beats memory+eps");
        assert!(
            t_remote > 4 * t_same,
            "NUCA ratio visible: remote {t_remote} vs same-node {t_same}"
        );
        // Re-write by the owner is a hit.
        let w3 = access(&mut mem, w2.complete_at, CpuId(2), a, MemOp::Write(4), &mut st);
        assert!(w3.complete_at - w2.complete_at <= LatencyModel::wildfire().l1_hit);
    }

    #[test]
    fn traffic_classification() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st); // local mem fetch
        assert_eq!(st.traffic().local, 1);
        assert_eq!(st.traffic().global, 0);
        access(&mut mem, 100, CpuId(2), a, MemOp::Write(2), &mut st); // remote cache fetch
        assert_eq!(st.traffic().global, 1);
        access(&mut mem, 200, CpuId(2), a, MemOp::Write(3), &mut st); // hit
        assert_eq!(st.traffic().total(), 2, "hits add no traffic");
        assert_eq!(st.cache_hits(), 1);
    }

    #[test]
    fn reads_share_then_write_invalidates() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(9), &mut st);
        // Two readers pull shared copies.
        access(&mut mem, 100, CpuId(1), a, MemOp::Read, &mut st);
        access(&mut mem, 200, CpuId(2), a, MemOp::Read, &mut st);
        // Re-read by the same CPU is free.
        let before = st.traffic().total();
        access(&mut mem, 300, CpuId(2), a, MemOp::Read, &mut st);
        assert_eq!(st.traffic().total(), before, "shared re-read is a hit");
        // A write invalidates the sharers (one local, one remote inval).
        let before = st.traffic();
        access(&mut mem, 400, CpuId(0), a, MemOp::Write(1), &mut st);
        let after = st.traffic();
        assert!(after.total() > before.total(), "invalidations counted");
        assert!(after.global > before.global, "remote sharer invalidated");
    }

    #[test]
    fn line_occupancy_serializes_contending_writers() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        // Two foreign writers issue at the same instant: the second must
        // be pushed behind the first by the occupancy horizon.
        let w1 = access(&mut mem, 1000, CpuId(1), a, MemOp::Write(2), &mut st);
        let w2 = access(&mut mem, 1000, CpuId(2), a, MemOp::Write(3), &mut st);
        assert!(w2.complete_at > w1.complete_at);
    }

    #[test]
    fn wait_while_completes_immediately_when_value_differs() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        mem.poke(a, 7);
        let out = mem.wait_while(0, CpuId(0), a, 3, &mut st, None);
        assert!(matches!(out, Some((_, 7))));
    }

    #[test]
    fn wait_while_wakes_on_conflicting_write() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        // CPU 3 (node 1) waits for the value to stop being 0.
        assert!(mem.wait_while(0, CpuId(3), a, 0, &mut st, None).is_none());
        // A write of 0 does not wake it.
        let (_, woken) = access_w(&mut mem, 10, CpuId(0), a, MemOp::Write(0), &mut st);
        assert!(woken.is_empty());
        // A write of 5 wakes it, charging a (global) refill.
        let g_before = st.traffic().global;
        let (out, woken) = access_w(&mut mem, 20, CpuId(0), a, MemOp::Write(5), &mut st);
        assert_eq!(woken.len(), 1);
        let (cpu, wake_at, val) = woken[0];
        assert_eq!(cpu, CpuId(3));
        assert_eq!(val, 5);
        assert!(wake_at > out.complete_at, "refill happens after the write");
        assert!(st.traffic().global > g_before, "cross-node refill is global");
    }

    #[test]
    fn multiple_watchers_wake_staggered() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        assert!(mem.wait_while(0, CpuId(1), a, 0, &mut st, None).is_none());
        assert!(mem.wait_while(0, CpuId(2), a, 0, &mut st, None).is_none());
        assert!(mem.wait_while(0, CpuId(3), a, 0, &mut st, None).is_none());
        let (_, woken) = access_w(&mut mem, 10, CpuId(0), a, MemOp::Write(1), &mut st);
        assert_eq!(woken.len(), 3);
        let mut times: Vec<u64> = woken.iter().map(|w| w.1).collect();
        let sorted = {
            let mut t = times.clone();
            t.sort();
            t
        };
        times.sort();
        assert_eq!(times, sorted);
        // Strictly staggered: the burst serializes on the line.
        assert!(times[0] < times[1] && times[1] < times[2]);
    }

    #[test]
    fn watcher_list_spills_past_inline_capacity() {
        // More concurrent watchers than the inline buffer holds: all of
        // them must still be tracked and woken.
        let topo = Arc::new(Topology::symmetric(2, 4));
        let mut mem = MemorySystem::new(topo, LatencyModel::wildfire(), ProtocolKind::Flat, CacheGeometry::default_geometry());
        let mut st = SimStats::new();
        let a = mem.alloc(NodeId(0));
        for c in 1..8 {
            assert!(mem.wait_while(0, CpuId(c), a, 0, &mut st, None).is_none());
        }
        let (_, woken) = access_w(&mut mem, 10, CpuId(0), a, MemOp::Write(1), &mut st);
        assert_eq!(woken.len(), 7, "every spilled watcher wakes");
    }

    #[test]
    fn flat_topology_never_uses_chip_class() {
        // On a flat machine every same-node pair is "distance 1", but the
        // chip latency class must not apply (it would silently change all
        // of the paper's experiments).
        let topo = Arc::new(Topology::symmetric(2, 2));
        let mut lat = LatencyModel::wildfire();
        lat.same_chip_transfer = 1; // absurdly cheap — detectable if used
        let mut mem = MemorySystem::new(topo, lat, ProtocolKind::Flat, CacheGeometry::default_geometry());
        let mut st = SimStats::new();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        let w = access(&mut mem, 1000, CpuId(1), a, MemOp::Write(2), &mut st);
        assert!(
            w.complete_at - 1000 >= lat.same_node_transfer,
            "flat same-node transfer must pay the full node latency"
        );
    }

    #[test]
    fn hierarchical_topology_chip_transfers_cheap_and_busless() {
        let topo = Arc::new(
            Topology::builder()
                .hierarchical_node(&[2, 2])
                .hierarchical_node(&[2, 2])
                .build()
                .unwrap(),
        );
        let lat = LatencyModel::cmp_numa();
        let mut mem = MemorySystem::new(topo, lat, ProtocolKind::Flat, CacheGeometry::default_geometry());
        let mut st = SimStats::new();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        // cpu1 shares cpu0's chip; cpu2 is the other chip of node 0.
        let chip = access(&mut mem, 10_000, CpuId(1), a, MemOp::Write(2), &mut st);
        let cross = access(&mut mem, 20_000, CpuId(2), a, MemOp::Write(3), &mut st);
        assert_eq!(chip.complete_at - 10_000, lat.same_chip_transfer);
        assert!(cross.complete_at - 20_000 >= lat.same_node_transfer);
        // Both are local traffic.
        assert_eq!(st.traffic().global, 0);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn alloc_foreign_node_rejected() {
        let (mut mem, _) = mem2x2();
        let _ = mem.alloc(NodeId(7));
    }

    #[test]
    fn migration_reclassifies_traffic() {
        let (mut mem, mut st) = mem2x2();
        assert_eq!(mem.node_of(CpuId(0)), NodeId(0));
        let a = mem.alloc(NodeId(0));
        // CPU 2 (node 1) owns the line; CPU 0 fetches it cross-node.
        access(&mut mem, 0, CpuId(2), a, MemOp::Write(1), &mut st);
        let g_before = st.traffic().global;
        access(&mut mem, 10_000, CpuId(0), a, MemOp::Write(2), &mut st);
        assert_eq!(st.traffic().global, g_before + 1, "cross-node fetch");
        // Migrate CPU 0 onto node 1: the same fetch is now node-local.
        mem.migrate_cpu(CpuId(0), NodeId(1));
        assert_eq!(mem.node_of(CpuId(0)), NodeId(1));
        access(&mut mem, 20_000, CpuId(2), a, MemOp::Write(3), &mut st);
        let g_mid = st.traffic().global;
        access(&mut mem, 30_000, CpuId(0), a, MemOp::Write(4), &mut st);
        assert_eq!(st.traffic().global, g_mid, "post-migration fetch is local");
    }

    #[test]
    fn node_masks_fold_like_node_of_across_migrations() {
        // Property: after any sequence of migrations, folding a sharer set
        // through the per-node masks yields the same node set as asking
        // each sharer's node one CPU at a time.
        let reference = |mem: &MemorySystem, cpus: u128| {
            let mut nodes = 0u64;
            for c in 0..128 {
                if cpus & (1u128 << c) != 0 {
                    nodes |= 1 << mem.node_of(CpuId(c)).index();
                }
            }
            nodes
        };
        let mut rng = SplitMix64::new(0x6E0D_E5ED);
        // The extremes (one node; 64 nodes; 128 CPUs on two nodes) plus
        // random shapes within the ceilings.
        let mut shapes = vec![(1, 4), (64, 2), (2, 64)];
        for _ in 0..20 {
            let nodes = 1 + rng.next_below(16) as usize;
            let per = 1 + rng.next_below((MAX_SIM_CPUS / nodes).min(16) as u64) as usize;
            shapes.push((nodes, per));
        }
        for (nodes, per) in shapes {
            let topo = Arc::new(Topology::symmetric(nodes, per));
            let cpus = nodes * per;
            let mut mem = MemorySystem::new(
                topo,
                LatencyModel::wildfire(),
                ProtocolKind::Flat,
                CacheGeometry::default_geometry(),
            );
            let live = if cpus == 128 { u128::MAX } else { (1u128 << cpus) - 1 };
            for step in 0..200 {
                if step % 4 == 0 {
                    let cpu = CpuId(rng.next_below(cpus as u64) as usize);
                    let to = NodeId(rng.next_below(nodes as u64) as usize);
                    mem.migrate_cpu(cpu, to);
                }
                let sharers = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) & live;
                assert_eq!(
                    mem.nodes_of(sharers),
                    reference(&mem, sharers),
                    "{nodes}x{per} machine, sharers {sharers:#x}"
                );
                for n in 0..nodes {
                    let on: u128 = (0..cpus)
                        .filter(|&c| mem.node_of(CpuId(c)) == NodeId(n))
                        .map(|c| 1u128 << c)
                        .sum();
                    assert_eq!(mem.cpus_on(NodeId(n)), on, "node {n} of {nodes}x{per}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "65 nodes")]
    fn oversized_node_count_rejected_by_memory_system() {
        let topo = Arc::new(Topology::symmetric(65, 1));
        let _ = MemorySystem::new(
            topo,
            LatencyModel::wildfire(),
            ProtocolKind::Flat,
            CacheGeometry::default_geometry(),
        );
    }

    #[test]
    fn slow_node_multiplies_served_transfers_only() {
        let t_from = |slow: bool| {
            let (mut mem, mut st) = mem2x2();
            if slow {
                mem.set_slow_node(NodeId(1), 4);
            }
            let a = mem.alloc(NodeId(0));
            // Owner on node 1; requester on node 0 → served by node 1.
            access(&mut mem, 0, CpuId(2), a, MemOp::Write(1), &mut st);
            let out = access(&mut mem, 100_000, CpuId(0), a, MemOp::Write(2), &mut st);
            let served_by_slow = out.complete_at - 100_000;
            // Now owner on node 0; requester on node 1 → served by node 0.
            let out = access(&mut mem, 200_000, CpuId(2), a, MemOp::Write(3), &mut st);
            let served_by_fast = out.complete_at - 200_000;
            (served_by_slow, served_by_fast)
        };
        let (base_slow, base_fast) = t_from(false);
        let (slow, fast) = t_from(true);
        assert!(slow > 3 * base_slow, "slow node's transfers pay the factor");
        assert_eq!(fast, base_fast, "the healthy node is untouched");
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let run = |jitter: bool| {
            let (mut mem, mut st) = mem2x2();
            if jitter {
                mem.set_jitter(50, SplitMix64::new(77));
            }
            let a = mem.alloc(NodeId(0));
            let mut times = Vec::new();
            let mut now = 0;
            for i in 0..20u64 {
                let cpu = CpuId((i % 4) as usize);
                let out = access(&mut mem, now, cpu, a, MemOp::Write(i), &mut st);
                times.push(out.complete_at - now);
                now = out.complete_at + 1_000;
            }
            times
        };
        let base = run(false);
        let j1 = run(true);
        let j2 = run(true);
        assert_eq!(j1, j2, "jitter is seed-reproducible");
        assert_ne!(base, j1, "jitter actually perturbs latencies");
        for (b, j) in base.iter().zip(&j1) {
            assert!(*j >= *b && *j <= *b + 50, "bounded: {b} -> {j}");
        }
    }
}
