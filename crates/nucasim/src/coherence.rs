//! Coherence protocols: the flat model and two over set-associative cache
//! geometry.
//!
//! The flat model in [`crate::mem`] treats every word as its own
//! unbounded cache line — fast, and faithful to the paper's lock-word
//! behaviour, but blind to everything a real line does: false sharing
//! between a lock word and the data it guards, capacity evictions
//! bouncing a hot line, and the invalidate-vs-update policy split. The
//! [`Protocol`] enum makes the protocol a per-machine choice
//! ([`crate::MachineConfig::protocol`], harness `--protocol`):
//!
//! * [`Protocol::Flat`] — the original word-granular model. It keeps no
//!   state of its own (its line state is the memory system's per-word
//!   arrays), so the flat arm is the first branch of every dispatch and
//!   allocates nothing.
//! * [`Protocol::Mesi`] — invalidate-based MESI over per-CPU
//!   set-associative caches ([`CacheGeometry`]). Writes to shared lines
//!   upgrade by invalidating every other copy; read misses with no other
//!   copies install exclusive-clean (E), making private data cheap.
//! * [`Protocol::Dragon`] — update-based Dragon over the same geometry.
//!   Writes broadcast the new value to every holder; copies stay valid,
//!   so false sharing costs one update per holder node instead of an
//!   invalidate-plus-refill stampede.
//!
//! # Geometry, directory and LRU
//!
//! Both set-associative protocols share [`SetAssoc`]: per-CPU tag arrays
//! (`sets × ways`, LRU-evicted by a monotone touch tick) plus a global
//! line directory (owner, sharer bitmap, dirty, busy horizon) indexed by
//! line id = `word >> log2(line_words)`. A line's home is the home node
//! of its first word. Timing reuses the flat model's machinery: latency
//! classes from [`crate::LatencyModel`], per-line occupancy, per-node
//! bus and shared link horizons, and the fault layers.
//!
//! Traffic is priced per node, so every sharer set is folded onto nodes
//! through the memory system's per-node CPU masks (`node_cpus`, one
//! `u128` per node): the invalidation and update targets are one AND
//! per node, and the same-node tests (a miss's preferred server, an
//! upgrade's remote copies) are one mask operation. The memory system
//! builds the masks from the topology and `migrate_cpu`, the only place
//! a CPU changes node, keeps them current.
//!
//! # Watchers, evictions and false sharing
//!
//! Parked spinners ([`crate::Command::WaitWhile`]) stay in the memory
//! system's per-word chains. Under MESI, *any* write to a line refills
//! every watcher parked on *any* word of that line — watchers on
//! untouched words pay the full invalidate-and-refetch but stay parked,
//! which is exactly the false-sharing stampede. Under Dragon the write
//! delivers one update per holder node; watchers on other words keep
//! their copies and pay nothing. Evicting a line does not disturb
//! watcher chains: the subscription outlives the copy, and a watcher
//! whose copy was evicted is re-fetched on its next refill.
//!
//! # Determinism
//!
//! All protocol state (tags, ticks, directory) advances only from the
//! engine's deterministic event order, so MESI and Dragon runs are
//! byte-identical across `--jobs` exactly like flat runs.

use nuca_topology::{CpuId, NodeId};

use crate::config::{CacheGeometry, ProtocolKind};
use crate::mem::{AccessOutcome, Addr, MemOp, MemorySystem, WatchNode, NO_OWNER, WNIL};
use crate::stats::SimStats;
use crate::trace::{SimEvent, TraceSink};

/// The coherence protocol a [`MemorySystem`] models, matched by its
/// access path, its `protocol()` report and the pre-park check in
/// `wait_while`. The set-associative variants box their tag arrays and
/// directory, so an access moves a pointer, never the state itself.
#[derive(Debug)]
pub(crate) enum Protocol {
    /// The word-granular model, run inline by the memory system.
    Flat,
    /// Invalidate-based MESI ([`SetAssoc::mesi_access`]).
    Mesi(Box<SetAssoc>),
    /// Update-based Dragon ([`SetAssoc::dragon_access`]).
    Dragon(Box<SetAssoc>),
}

impl Protocol {
    /// The protocol a fresh memory system of `num_cpus` CPUs installs.
    pub(crate) fn new(kind: ProtocolKind, geometry: CacheGeometry, num_cpus: usize) -> Protocol {
        match kind {
            ProtocolKind::Flat => Protocol::Flat,
            ProtocolKind::Mesi => Protocol::Mesi(Box::new(SetAssoc::new(geometry, num_cpus))),
            ProtocolKind::Dragon => Protocol::Dragon(Box::new(SetAssoc::new(geometry, num_cpus))),
        }
    }
}

/// Empty-way sentinel in the tag arrays.
const EMPTY: u64 = u64::MAX;

/// Directory state of one cache line.
#[derive(Debug, Clone, Copy)]
struct LineDir {
    /// CPU holding the line modified/exclusive ([`NO_OWNER`] if none).
    /// Under Dragon an owner (the last writer) may coexist with sharers.
    owner: u32,
    /// CPUs holding valid non-owner copies.
    sharers: u128,
    /// Whether the owner's copy differs from memory (M vs E).
    dirty: bool,
    /// Line occupancy horizon, as in the flat model.
    busy_until: u64,
}

impl Default for LineDir {
    fn default() -> LineDir {
        LineDir { owner: NO_OWNER, sharers: 0, dirty: false, busy_until: 0 }
    }
}

/// Shared geometry plumbing of the set-associative protocols: per-CPU
/// tag/LRU arrays plus the line directory.
#[derive(Debug)]
pub(crate) struct SetAssoc {
    line_shift: u32,
    sets: usize,
    ways: usize,
    /// `[cpu][set][way]` line tags, [`EMPTY`] when the way is free.
    tags: Vec<u64>,
    /// Last-touch tick per way (monotone counter → deterministic LRU).
    ticks: Vec<u64>,
    tick: u64,
    dir: Vec<LineDir>,
}

impl SetAssoc {
    fn new(geom: CacheGeometry, num_cpus: usize) -> SetAssoc {
        assert!(geom.line_words.is_power_of_two() && geom.sets.is_power_of_two());
        assert!(geom.ways > 0);
        let slots = num_cpus * geom.sets * geom.ways;
        SetAssoc {
            line_shift: geom.line_words.trailing_zeros(),
            sets: geom.sets,
            ways: geom.ways,
            tags: vec![EMPTY; slots],
            ticks: vec![0; slots],
            tick: 0,
            dir: Vec::new(),
        }
    }

    fn line_of(&self, word: usize) -> usize {
        word >> self.line_shift
    }

    fn ensure_line(&mut self, line: usize) {
        if line >= self.dir.len() {
            self.dir.resize(line + 1, LineDir::default());
        }
    }

    fn slot_range(&self, cpu: usize, line: usize) -> std::ops::Range<usize> {
        let set = line & (self.sets - 1);
        let base = (cpu * self.sets + set) * self.ways;
        base..base + self.ways
    }

    fn contains(&self, cpu: usize, line: usize) -> bool {
        self.tags[self.slot_range(cpu, line)].contains(&(line as u64))
    }

    /// Whether `cpu` currently holds a valid cached copy of `addr`'s line
    /// (drives the pre-park fetch in `MemorySystem::wait_while`).
    pub(crate) fn holds_copy(&self, cpu: CpuId, addr: Addr) -> bool {
        match self.dir.get(self.line_of(addr.index())) {
            Some(d) => d.owner == cpu.index() as u32 || d.sharers & (1u128 << cpu.index()) != 0,
            None => false,
        }
    }

    /// LRU-touches a line that must already be cached by `cpu`.
    fn touch(&mut self, cpu: usize, line: usize) {
        self.tick += 1;
        let tick = self.tick;
        for i in self.slot_range(cpu, line) {
            if self.tags[i] == line as u64 {
                self.ticks[i] = tick;
                return;
            }
        }
        debug_assert!(false, "touched a line that is not cached");
    }

    /// Inserts an absent line into `cpu`'s cache; returns the LRU victim
    /// line if the set was full.
    fn insert(&mut self, cpu: usize, line: usize) -> Option<usize> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.slot_range(cpu, line);
        let mut victim = range.start;
        for i in range {
            if self.tags[i] == EMPTY {
                self.tags[i] = line as u64;
                self.ticks[i] = tick;
                return None;
            }
            if self.ticks[i] < self.ticks[victim] {
                victim = i;
            }
        }
        let evicted = self.tags[victim] as usize;
        self.tags[victim] = line as u64;
        self.ticks[victim] = tick;
        Some(evicted)
    }

    /// Drops `line` from `cpu`'s cache if present (invalidation).
    fn remove(&mut self, cpu: usize, line: usize) {
        for i in self.slot_range(cpu, line) {
            if self.tags[i] == line as u64 {
                self.tags[i] = EMPTY;
                return;
            }
        }
    }
}

/// Home node of a line: the home of its first word (clamped to the
/// allocated range, for the tail line of the address space).
fn line_home(mem: &MemorySystem, line: usize, shift: u32) -> NodeId {
    let w = (line << shift).min(mem.values.len() - 1);
    mem.homes[w]
}

/// Latency class of a fetch served by CPU `server`'s cache, or by
/// `home`'s memory when `server` is `None`. Returns
/// `(base latency, serving node, on_chip, global)` — the same
/// classification the flat model applies.
fn classify(
    mem: &MemorySystem,
    cpu: CpuId,
    my_node: NodeId,
    server: Option<CpuId>,
    home: NodeId,
) -> (u64, NodeId, bool, bool) {
    let lat = mem.latency;
    match server {
        Some(o) => {
            let on = mem.node_of(o);
            if on == my_node {
                if !mem.migrated && mem.topo.extra_levels() > 0 && mem.topo.distance(cpu, o) <= 1 {
                    (lat.same_chip_transfer, on, true, false)
                } else {
                    (lat.same_node_transfer, on, false, false)
                }
            } else {
                (lat.remote_transfer, on, false, true)
            }
        }
        None => {
            if home == my_node {
                (lat.local_memory, home, false, false)
            } else {
                (lat.remote_memory, home, false, true)
            }
        }
    }
}

/// The CPU that serves a miss: the owner if another CPU owns the line,
/// else a deterministic sharer (lowest id on the requester's node,
/// falling back to the lowest id overall), else `None` (memory).
fn pick_server(d: &LineDir, mem: &MemorySystem, me: u32, my_node: NodeId) -> Option<CpuId> {
    if d.owner != NO_OWNER && d.owner != me {
        return Some(CpuId(d.owner as usize));
    }
    let others = d.sharers & !(1u128 << me);
    if others == 0 {
        return None;
    }
    let near = others & mem.cpus_on(my_node);
    let pool = if near != 0 { near } else { others };
    Some(CpuId(pool.trailing_zeros() as usize))
}

/// Arbitrates one data-moving transaction (fetch, upgrade request or
/// update broadcast) for the line, the requester's bus and — cross-node —
/// the serving node's bus plus the shared link; charges traffic to the
/// requester's node and emits one `CoherenceTxn`. Mirrors phase 2 of the
/// flat slow path. Returns `(start, complete_at)` and advances `busy`,
/// the line's occupancy horizon.
#[allow(clippy::too_many_arguments)]
fn pay_txn(
    mem: &mut MemorySystem,
    busy: &mut u64,
    now: u64,
    cpu: CpuId,
    my_node: NodeId,
    served_by: NodeId,
    home: NodeId,
    base: u64,
    on_chip: bool,
    global: bool,
    atomic: bool,
    stats: &mut SimStats,
    trace: &mut Option<&mut (dyn TraceSink + 'static)>,
) -> (u64, u64) {
    let lat = mem.latency;
    let mut latency = mem.faulted_latency(base, served_by);
    if atomic {
        latency += lat.atomic_extra;
    }
    let start;
    if on_chip {
        stats.count_local(my_node);
        start = now.max(*busy);
        *busy = start + lat.local_occupancy;
        if let Some(t) = trace.as_deref_mut() {
            t.record(start, SimEvent::CoherenceTxn { cpu, node: my_node, home, global: false });
        }
    } else {
        if global {
            stats.count_global(my_node);
        } else {
            stats.count_local(my_node);
        }
        let mut s = now.max(*busy).max(mem.bus_until[my_node.index()]);
        if global {
            s = s.max(mem.link_until).max(mem.bus_until[served_by.index()]);
        }
        start = s;
        *busy = start + if global { lat.global_occupancy } else { lat.local_occupancy };
        let bus_occ = if atomic { lat.bus_occupancy * 2 } else { lat.bus_occupancy };
        mem.bus_until[my_node.index()] = start + bus_occ;
        if global {
            mem.bus_until[served_by.index()] = start + bus_occ;
            mem.link_until =
                start + if atomic { lat.link_occupancy * 2 } else { lat.link_occupancy };
        }
        if let Some(t) = trace.as_deref_mut() {
            t.record(start, SimEvent::CoherenceTxn { cpu, node: my_node, home, global });
        }
    }
    (start, start + latency)
}

/// Counts one secondary per-node transaction (invalidation or update
/// delivery) attributed to `target`, as the flat invalidation loop does.
fn count_node_txn(
    stats: &mut SimStats,
    trace: &mut Option<&mut (dyn TraceSink + 'static)>,
    at: u64,
    cpu: CpuId,
    target: NodeId,
    my_node: NodeId,
    home: NodeId,
) {
    let global = target != my_node;
    if global {
        stats.count_global(target);
    } else {
        stats.count_local(target);
    }
    if let Some(t) = trace.as_deref_mut() {
        t.record(at, SimEvent::CoherenceTxn { cpu, node: target, home, global });
    }
}

/// Inserts `line` into `cpu`'s cache (it must be absent), evicting the
/// LRU victim if the set is full. A victim the CPU owned dirty pays a
/// buffered writeback transaction to the victim's home (traffic only —
/// writebacks do not delay the access that triggered them); every
/// eviction clears the victim's directory state for this CPU and emits an
/// `Eviction` event. Watcher chains are untouched: the subscription
/// outlives the copy.
#[allow(clippy::too_many_arguments)]
fn insert_with_eviction(
    c: &mut SetAssoc,
    mem: &mut MemorySystem,
    cpu: CpuId,
    my_node: NodeId,
    line: usize,
    at: u64,
    stats: &mut SimStats,
    trace: &mut Option<&mut (dyn TraceSink + 'static)>,
) {
    let Some(victim) = c.insert(cpu.index(), line) else {
        return;
    };
    let me = cpu.index() as u32;
    let vd = c.dir[victim];
    let vhome = line_home(mem, victim, c.line_shift);
    let dirty = vd.owner == me && vd.dirty;
    if vd.owner == me {
        c.dir[victim].owner = NO_OWNER;
        c.dir[victim].dirty = false;
    } else {
        c.dir[victim].sharers &= !(1u128 << me);
    }
    if dirty {
        let global = vhome != my_node;
        if global {
            stats.count_global(my_node);
        } else {
            stats.count_local(my_node);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.record(at, SimEvent::CoherenceTxn { cpu, node: my_node, home: vhome, global });
        }
    }
    stats.count_eviction();
    if let Some(t) = trace.as_deref_mut() {
        t.record(at, SimEvent::Eviction { cpu, node: my_node, home: vhome, dirty });
    }
}

/// The MESI and Dragon state machines, as methods on their shared
/// geometry.
impl SetAssoc {
    /// Removes every other holder's copy of `line` (directory + tags) and
    /// counts one invalidation per holder node. Returns how many nodes
    /// were invalidated. Leaves the directory with no owner and no
    /// sharers — the caller installs the new exclusive state.
    #[allow(clippy::too_many_arguments)]
    fn invalidate_others(
        &mut self,
        mem: &mut MemorySystem,
        line: usize,
        cpu: CpuId,
        my_node: NodeId,
        home: NodeId,
        at: u64,
        stats: &mut SimStats,
        trace: &mut Option<&mut (dyn TraceSink + 'static)>,
    ) -> u32 {
        let me = cpu.index() as u32;
        let d = self.dir[line];
        let mut holders = d.sharers;
        if d.owner != NO_OWNER {
            holders |= 1u128 << d.owner;
        }
        holders &= !(1u128 << me);
        let mut node_mask = mem.nodes_of(holders);
        let mut h = holders;
        while h != 0 {
            self.remove(h.trailing_zeros() as usize, line);
            h &= h - 1;
        }
        let mut invalidated = 0;
        while node_mask != 0 {
            let n = node_mask.trailing_zeros() as usize;
            node_mask &= node_mask - 1;
            invalidated += 1;
            count_node_txn(stats, trace, at, cpu, NodeId(n), my_node, home);
        }
        let dd = &mut self.dir[line];
        dd.sharers = 0;
        dd.owner = NO_OWNER;
        invalidated
    }

    /// Processes the watcher chains of *every word* of `line` after a
    /// write: each parked spinner pays an invalidate-and-refetch refill
    /// (traffic + serialization on the line, the false-sharing stampede),
    /// re-caches the line, and wakes only if its own word's value
    /// actually changed. Mirrors phase 4 of the flat slow path, widened
    /// from one word to the whole line.
    #[allow(clippy::too_many_arguments)]
    fn wake_line(
        &mut self,
        mem: &mut MemorySystem,
        line: usize,
        writer: CpuId,
        my_node: NodeId,
        home: NodeId,
        complete_at: u64,
        stats: &mut SimStats,
        trace: &mut Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) {
        let lat = mem.latency;
        let first = line << self.line_shift;
        let last = (first + (1usize << self.line_shift)).min(mem.values.len());
        let mut busy = self.dir[line].busy_until.max(complete_at);
        let mut any = false;
        let mut new_sharers = 0u128;
        for w in first..last {
            if mem.watch_head[w] == WNIL {
                continue;
            }
            let mut id = mem.watch_head[w];
            let mut kept_head = WNIL;
            let mut kept_tail = WNIL;
            while id != WNIL {
                let WatchNode { equals, cpu: wc, next } = mem.wnodes[id as usize];
                any = true;
                let wcpu = CpuId(wc as usize);
                let w_node = mem.node_of(wcpu);
                let global = w_node != my_node;
                let (refill, occ) = if global {
                    stats.count_global(w_node);
                    (lat.remote_transfer, lat.global_occupancy)
                } else {
                    stats.count_local(w_node);
                    (lat.same_node_transfer, lat.local_occupancy)
                };
                let refill = mem.faulted_latency(refill, my_node);
                let mut s = busy.max(mem.bus_until[w_node.index()]);
                if global {
                    s = s.max(mem.link_until).max(mem.bus_until[my_node.index()]);
                }
                let wake_at = s + refill;
                busy = s + occ;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(s, SimEvent::CoherenceTxn { cpu: wcpu, node: w_node, home, global });
                }
                mem.bus_until[w_node.index()] = s + lat.bus_occupancy;
                if global {
                    mem.bus_until[my_node.index()] = s + lat.bus_occupancy;
                    mem.link_until = s + lat.link_occupancy;
                }
                // The refill re-caches the line at the watcher.
                if !self.contains(wc as usize, line) {
                    insert_with_eviction(self, mem, wcpu, w_node, line, s, stats, trace);
                }
                new_sharers |= 1u128 << wc;
                let val = mem.values[w];
                if val != equals {
                    woken.push((wcpu, wake_at, val));
                    mem.wnodes[id as usize].next = mem.wfree;
                    mem.wfree = id;
                } else {
                    mem.wnodes[id as usize].next = WNIL;
                    if kept_tail == WNIL {
                        kept_head = id;
                    } else {
                        mem.wnodes[kept_tail as usize].next = id;
                    }
                    kept_tail = id;
                }
                id = next;
            }
            mem.watch_head[w] = kept_head;
            mem.watch_tail[w] = kept_tail;
        }
        let dd = &mut self.dir[line];
        dd.busy_until = busy;
        if any {
            dd.sharers |= new_sharers;
            // Refilled watchers demote the writer's exclusive copy.
            if dd.owner == writer.index() as u32 {
                dd.sharers |= 1u128 << dd.owner;
                dd.owner = NO_OWNER;
                dd.dirty = false;
            }
        }
    }

    /// Performs `op` by `cpu` on `addr` under MESI, with the contract of
    /// `MemorySystem::access`: the value effect applies immediately (event
    /// order is coherence order), the outcome carries completion time and
    /// old value, traffic lands in `stats`, and `woken` is cleared then
    /// filled with the watchers this access released.
    ///
    /// Never inlined, like [`SetAssoc::dragon_access`]: folded into
    /// `MemorySystem::access` (their only caller) they would double its
    /// size and tax the flat arm every access takes.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn mesi_access(
        &mut self,
        mem: &mut MemorySystem,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        mut trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        woken.clear();
        let word = addr.index();
        let line = self.line_of(word);
        self.ensure_line(line);
        let me = cpu.index() as u32;
        let mebit = 1u128 << me;
        let my_node = mem.node_of(cpu);
        let home = line_home(mem, line, self.line_shift);
        let lat = mem.latency;
        let d = self.dir[line];
        let holds = d.owner == me || d.sharers & mebit != 0;

        if holds {
            self.touch(cpu.index(), line);
            if !op.is_write() {
                // Read hit: M, E and S all serve locally with no state
                // change (MESI keeps exclusivity across owner reads,
                // unlike the flat model's M→S demotion).
                stats.count_hit();
                return AccessOutcome {
                    complete_at: now + lat.l1_hit,
                    value: mem.values[word],
                };
            }
            if d.owner == me {
                // Write hit in M or E (E upgrades to M silently).
                stats.count_hit();
                self.dir[line].dirty = true;
                let old = MemorySystem::apply_op(&mut mem.values[word], op);
                let mut l = lat.l1_hit;
                if op.is_atomic() {
                    l += lat.atomic_extra;
                }
                let complete_at = now + l;
                self.wake_line(mem, line, cpu, my_node, home, complete_at, stats, &mut trace, woken);
                return AccessOutcome { complete_at, value: old };
            }
            // Write hit in S: upgrade. The request moves no data — one
            // bus round (or link round, if any copy is remote) — then
            // every other copy is invalidated.
            let mut others = d.sharers & !mebit;
            if d.owner != NO_OWNER {
                others |= 1u128 << d.owner;
            }
            let any_remote = others & !mem.cpus_on(my_node) != 0;
            let base = if any_remote { lat.remote_transfer } else { lat.same_node_transfer };
            let served_by = if any_remote { home } else { my_node };
            let mut busy = d.busy_until;
            let (start, complete_at) = pay_txn(
                mem, &mut busy, now, cpu, my_node, served_by, home, base, false, any_remote,
                op.is_atomic(), stats, &mut trace,
            );
            let invalidated =
                self.invalidate_others(mem, line, cpu, my_node, home, start, stats, &mut trace);
            stats.count_upgrade();
            if let Some(t) = trace.as_deref_mut() {
                t.record(start, SimEvent::Upgrade { cpu, node: my_node, home, invalidated });
            }
            let dd = &mut self.dir[line];
            dd.owner = me;
            dd.sharers = 0;
            dd.dirty = true;
            dd.busy_until = busy;
            let old = MemorySystem::apply_op(&mut mem.values[word], op);
            self.wake_line(mem, line, cpu, my_node, home, complete_at, stats, &mut trace, woken);
            return AccessOutcome { complete_at, value: old };
        }

        // Miss: fetch from the owner, a sharer, or home memory.
        let server = pick_server(&d, mem, me, my_node);
        let (base, served_by, on_chip, global) = classify(mem, cpu, my_node, server, home);
        let mut busy = d.busy_until;
        let (start, complete_at) = pay_txn(
            mem, &mut busy, now, cpu, my_node, served_by, home, base, on_chip, global,
            op.is_atomic(), stats, &mut trace,
        );
        self.dir[line].busy_until = busy;

        if op.is_write() {
            // Read-with-intent-to-modify: every other copy dies.
            let _ = self.invalidate_others(mem, line, cpu, my_node, home, start, stats, &mut trace);
            let dd = &mut self.dir[line];
            dd.owner = me;
            dd.sharers = 0;
            dd.dirty = true;
        } else {
            let dd = &mut self.dir[line];
            if dd.owner != NO_OWNER {
                // The previous owner demotes to sharer; its modified data
                // travels on the transfer (no separate writeback charged,
                // matching the flat model's accounting).
                dd.sharers |= 1u128 << dd.owner;
                dd.owner = NO_OWNER;
                dd.dirty = false;
                dd.sharers |= mebit;
            } else if dd.sharers == 0 {
                // No copies anywhere: exclusive-clean (the E state). The
                // next write by this CPU upgrades silently.
                dd.owner = me;
                dd.dirty = false;
            } else {
                dd.sharers |= mebit;
            }
        }
        insert_with_eviction(self, mem, cpu, my_node, line, start, stats, &mut trace);
        let old = MemorySystem::apply_op(&mut mem.values[word], op);
        if op.is_write() {
            self.wake_line(mem, line, cpu, my_node, home, complete_at, stats, &mut trace, woken);
        }
        AccessOutcome { complete_at, value: old }
    }

    /// Performs `op` by `cpu` on `addr` under Dragon, with the contract
    /// of [`SetAssoc::mesi_access`].
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dragon_access(
        &mut self,
        mem: &mut MemorySystem,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        mut trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        woken.clear();
        let word = addr.index();
        let line = self.line_of(word);
        self.ensure_line(line);
        let me = cpu.index() as u32;
        let mebit = 1u128 << me;
        let my_node = mem.node_of(cpu);
        let home = line_home(mem, line, self.line_shift);
        let lat = mem.latency;
        let d = self.dir[line];
        let holds = d.owner == me || d.sharers & mebit != 0;

        if !op.is_write() {
            if holds {
                // Dragon copies are always up to date (updates are pushed
                // to them), so every held read is a plain hit.
                self.touch(cpu.index(), line);
                stats.count_hit();
                return AccessOutcome {
                    complete_at: now + lat.l1_hit,
                    value: mem.values[word],
                };
            }
            // Read miss: the owner (if any) serves and *keeps* ownership
            // (M → Sm); the requester joins the sharers.
            let server = pick_server(&d, mem, me, my_node);
            let (base, served_by, on_chip, global) = classify(mem, cpu, my_node, server, home);
            let mut busy = d.busy_until;
            let (start, complete_at) = pay_txn(
                mem, &mut busy, now, cpu, my_node, served_by, home, base, on_chip, global, false,
                stats, &mut trace,
            );
            let dd = &mut self.dir[line];
            dd.busy_until = busy;
            dd.sharers |= mebit;
            insert_with_eviction(self, mem, cpu, my_node, line, start, stats, &mut trace);
            return AccessOutcome { complete_at, value: mem.values[word] };
        }

        // Write: ensure a copy (fetch on miss), then update in place.
        // Copies elsewhere stay valid — they receive the new value as one
        // broadcast transaction per holder node.
        let mut busy = d.busy_until;
        let mut after_fetch = now;
        let mut fetched = false;
        if holds {
            self.touch(cpu.index(), line);
        } else {
            let server = pick_server(&d, mem, me, my_node);
            let (base, served_by, on_chip, global) = classify(mem, cpu, my_node, server, home);
            let (start, complete_at) = pay_txn(
                mem, &mut busy, now, cpu, my_node, served_by, home, base, on_chip, global,
                op.is_atomic(), stats, &mut trace,
            );
            after_fetch = complete_at;
            fetched = true;
            self.dir[line].sharers |= mebit;
            insert_with_eviction(self, mem, cpu, my_node, line, start, stats, &mut trace);
        }
        let d = self.dir[line];
        let mut others = d.sharers & !mebit;
        if d.owner != NO_OWNER && d.owner != me {
            others |= 1u128 << d.owner;
        }
        // Update targets: every node holding a copy, plus the nodes of
        // watchers parked on the written word (the subscription is
        // delivered with the same broadcast even if the watcher's copy
        // was evicted).
        let mut node_mask = mem.nodes_of(others);
        let mut id = mem.watch_head[word];
        while id != WNIL {
            let n = mem.wnodes[id as usize];
            node_mask |= 1 << mem.node_of(CpuId(n.cpu as usize)).index();
            id = n.next;
        }

        let complete_at;
        let mut broadcast_start = after_fetch;
        if node_mask == 0 {
            // Exclusive write: a pure cache hit (or just the fetch).
            if fetched {
                complete_at = after_fetch;
            } else {
                stats.count_hit();
                let mut l = lat.l1_hit;
                if op.is_atomic() {
                    l += lat.atomic_extra;
                }
                complete_at = now + l;
            }
        } else {
            // Broadcast the update: one bus round locally, a link round
            // if any holder is remote; one counted transaction per
            // target node, as the flat invalidation loop does.
            let any_remote = node_mask & !(1 << my_node.index()) != 0;
            let base = if any_remote { lat.remote_transfer } else { lat.same_node_transfer };
            let mut latency = mem.faulted_latency(base, my_node);
            if !fetched && op.is_atomic() {
                latency += lat.atomic_extra;
            }
            let mut s = after_fetch.max(busy).max(mem.bus_until[my_node.index()]);
            if any_remote {
                s = s.max(mem.link_until);
            }
            broadcast_start = s;
            busy = s + if any_remote { lat.global_occupancy } else { lat.local_occupancy };
            mem.bus_until[my_node.index()] = s + lat.bus_occupancy;
            if any_remote {
                mem.link_until = s + lat.link_occupancy;
            }
            let mut nm = node_mask;
            let mut n_nodes = 0;
            while nm != 0 {
                let n = nm.trailing_zeros() as usize;
                nm &= nm - 1;
                n_nodes += 1;
                if NodeId(n) != my_node {
                    mem.bus_until[n] = s + lat.bus_occupancy;
                }
                count_node_txn(stats, &mut trace, s, cpu, NodeId(n), my_node, home);
            }
            stats.count_update_broadcast();
            if let Some(t) = &mut trace {
                t.record(
                    s,
                    SimEvent::UpdateBroadcast { cpu, node: my_node, home, sharers: n_nodes },
                );
            }
            complete_at = s + latency;
        }

        // State: the writer becomes the owner (Dragon's Sm/M); a previous
        // owner demotes to sharer but keeps its (updated) copy.
        let dd = &mut self.dir[line];
        dd.busy_until = busy;
        if dd.owner != NO_OWNER && dd.owner != me {
            dd.sharers |= 1u128 << dd.owner;
        }
        dd.owner = me;
        dd.sharers &= !mebit;
        dd.dirty = true;
        let old = MemorySystem::apply_op(&mut mem.values[word], op);
        let new_value = mem.values[word];

        // Wake watchers on the written word only: their copies were
        // updated in place by the broadcast, so spinners whose condition
        // still fails pay nothing — the Dragon advantage under false
        // sharing. Watchers on other words of the line are untouched.
        if mem.watch_head[word] != WNIL {
            let mut id = mem.watch_head[word];
            let mut kept_head = WNIL;
            let mut kept_tail = WNIL;
            while id != WNIL {
                let WatchNode { equals, cpu: wc, next } = mem.wnodes[id as usize];
                if new_value != equals {
                    let wcpu = CpuId(wc as usize);
                    let w_node = mem.node_of(wcpu);
                    let base = if w_node == my_node {
                        lat.same_node_transfer
                    } else {
                        lat.remote_transfer
                    };
                    let wake_at = broadcast_start + mem.faulted_latency(base, my_node);
                    woken.push((wcpu, wake_at, new_value));
                    mem.wnodes[id as usize].next = mem.wfree;
                    mem.wfree = id;
                } else {
                    mem.wnodes[id as usize].next = WNIL;
                    if kept_tail == WNIL {
                        kept_head = id;
                    } else {
                        mem.wnodes[kept_tail as usize].next = id;
                    }
                    kept_tail = id;
                }
                id = next;
            }
            mem.watch_head[word] = kept_head;
            mem.watch_tail[word] = kept_tail;
        }
        AccessOutcome { complete_at, value: old }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Command, CpuCtx, Program};
    use crate::trace::EventLog;
    use crate::{Machine, MachineConfig};

    /// Runs `left` fetch-adds on `addr` then finishes.
    struct Incr {
        addr: Addr,
        left: u32,
    }

    impl Program for Incr {
        fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
            if self.left == 0 {
                return Command::Done;
            }
            self.left -= 1;
            Command::FetchAdd { addr: self.addr, delta: 1 }
        }
    }

    fn run_incrs(cfg: MachineConfig, cpus: usize, per_cpu: u32) -> (crate::SimReport, Addr) {
        let mut m = Machine::new(cfg);
        let a = m.mem_mut().alloc(NodeId(0));
        for cpu in 0..cpus {
            m.add_program(CpuId(cpu), Box::new(Incr { addr: a, left: per_cpu }));
        }
        let status = m.run(1_000_000_000);
        assert!(status.finished_all);
        (m.into_report(), a)
    }

    #[test]
    fn protocols_agree_on_values() {
        // The protocol changes timing and traffic, never results: the same
        // program yields the same final memory under flat, MESI and Dragon.
        for kind in ProtocolKind::ALL {
            let cfg = MachineConfig::wildfire(2, 4).with_seed(3).with_protocol(kind);
            let (report, a) = run_incrs(cfg, 8, 50);
            assert_eq!(report.final_value(a), 8 * 50, "{kind} corrupted the counter");
        }
    }

    #[test]
    fn mesi_exclusive_read_then_write_stays_silent() {
        // One CPU alone: the first read misses to memory and installs E;
        // the following write upgrades silently (a cache hit), so the
        // whole run costs exactly one transaction.
        struct ReadThenWrite {
            addr: Addr,
            step: u8,
        }
        impl Program for ReadThenWrite {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Read(self.addr),
                    2 => Command::Write(self.addr, 9),
                    _ => Command::Done,
                }
            }
        }
        let mut m = Machine::new(
            MachineConfig::wildfire(2, 2).with_protocol(ProtocolKind::Mesi),
        );
        let a = m.mem_mut().alloc(NodeId(0));
        m.add_program(CpuId(0), Box::new(ReadThenWrite { addr: a, step: 0 }));
        assert!(m.run(1_000_000).finished_all);
        let report = m.into_report();
        assert_eq!(report.traffic.total(), 1, "read miss only");
        assert_eq!(report.cache_hits, 1, "the E-state write hit");
        assert_eq!(report.final_value(a), 9);
    }

    #[test]
    fn mesi_false_sharing_is_invisible_to_flat() {
        // Two CPUs on different nodes each hammer their *own* word — but
        // the words share a line. Flat sees two independent words (cheap,
        // all hits after the first touch); MESI ping-pongs the line.
        fn run(kind: ProtocolKind) -> crate::SimReport {
            let mut m = Machine::new(
                MachineConfig::wildfire(2, 2).with_seed(5).with_protocol(kind),
            );
            let words = m.mem_mut().alloc_array(NodeId(0), 2);
            // Both words land in one 8-word line of the default geometry.
            m.add_program(CpuId(0), Box::new(Incr { addr: words[0], left: 100 }));
            m.add_program(CpuId(2), Box::new(Incr { addr: words[1], left: 100 }));
            let status = m.run(1_000_000_000);
            assert!(status.finished_all);
            m.into_report()
        }
        let flat = run(ProtocolKind::Flat);
        let mesi = run(ProtocolKind::Mesi);
        assert!(
            mesi.traffic.global > flat.traffic.global * 4,
            "MESI must ping-pong the falsely shared line (flat {} vs mesi {} global txns)",
            flat.traffic.global,
            mesi.traffic.global,
        );
        assert!(
            mesi.end_time > flat.end_time,
            "the stampede costs simulated time (flat {} vs mesi {})",
            flat.end_time,
            mesi.end_time,
        );
    }

    #[test]
    fn dragon_updates_beat_mesi_invalidations_under_false_sharing() {
        // Same false-sharing duel: Dragon's per-write update keeps both
        // copies valid, so it moves less traffic than MESI's
        // invalidate-and-refetch ping-pong.
        fn run(kind: ProtocolKind) -> crate::SimReport {
            let mut m = Machine::new(
                MachineConfig::wildfire(2, 2).with_seed(5).with_protocol(kind),
            );
            let words = m.mem_mut().alloc_array(NodeId(0), 2);
            m.add_program(CpuId(0), Box::new(Incr { addr: words[0], left: 100 }));
            m.add_program(CpuId(2), Box::new(Incr { addr: words[1], left: 100 }));
            assert!(m.run(1_000_000_000).finished_all);
            m.into_report()
        }
        let mesi = run(ProtocolKind::Mesi);
        let dragon = run(ProtocolKind::Dragon);
        assert!(
            dragon.traffic.total() < mesi.traffic.total(),
            "updates ({}) must cost fewer transactions than invalidations ({})",
            dragon.traffic.total(),
            mesi.traffic.total(),
        );
    }

    #[test]
    fn capacity_evictions_fire_and_write_back_dirty_lines() {
        // A 1-set × 2-way cache walking three distinct lines must evict;
        // dirty victims pay a writeback, observable as Eviction events.
        struct Walk {
            words: Vec<Addr>,
            step: usize,
        }
        impl Program for Walk {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                if self.step >= self.words.len() {
                    return Command::Done;
                }
                let a = self.words[self.step];
                self.step += 1;
                Command::Write(a, 1)
            }
        }
        let geom = CacheGeometry { line_words: 8, sets: 1, ways: 2 };
        let mut m = Machine::new(
            MachineConfig::wildfire(2, 2)
                .with_protocol(ProtocolKind::Mesi)
                .with_geometry(geom),
        );
        let log = EventLog::new();
        m.set_trace_sink(Box::new(log.clone()));
        let words = m.mem_mut().alloc_array(NodeId(0), 40);
        // Words 0, 8, 16, 24, 32 are five distinct lines.
        let walk: Vec<Addr> = (0..5).map(|i| words[i * 8]).collect();
        m.add_program(CpuId(0), Box::new(Walk { words: walk, step: 0 }));
        assert!(m.run(1_000_000).finished_all);
        let records = log.take();
        let evictions: Vec<_> = records
            .iter()
            .filter_map(|r| match r.event {
                SimEvent::Eviction { dirty, .. } => Some(dirty),
                _ => None,
            })
            .collect();
        assert_eq!(evictions.len(), 3, "5 lines through 2 ways evicts thrice");
        assert!(evictions.iter().all(|&d| d), "all victims were written, hence dirty");
    }

    #[test]
    fn mesi_upgrade_emits_event_and_invalidation() {
        // CPU 1 reads a line CPU 0 also read (both sharers); CPU 0 then
        // writes it — a shared-line upgrade, which must emit an Upgrade
        // event counting one invalidated node.
        struct ReadWaitWrite {
            addr: Addr,
            write: bool,
            step: u8,
        }
        impl Program for ReadWaitWrite {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Read(self.addr),
                    2 => Command::Delay(10_000),
                    3 if self.write => Command::Write(self.addr, 7),
                    _ => Command::Done,
                }
            }
        }
        let mut m = Machine::new(
            MachineConfig::wildfire(2, 2).with_protocol(ProtocolKind::Mesi),
        );
        let log = EventLog::new();
        m.set_trace_sink(Box::new(log.clone()));
        let a = m.mem_mut().alloc(NodeId(0));
        m.add_program(CpuId(0), Box::new(ReadWaitWrite { addr: a, write: true, step: 0 }));
        m.add_program(CpuId(2), Box::new(ReadWaitWrite { addr: a, write: false, step: 0 }));
        assert!(m.run(1_000_000).finished_all);
        let upgrades: Vec<_> = log
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                SimEvent::Upgrade { invalidated, .. } => Some(invalidated),
                _ => None,
            })
            .collect();
        assert_eq!(upgrades, vec![1], "one upgrade invalidating one remote node");
    }

    #[test]
    fn dragon_broadcast_emits_event_and_keeps_copies() {
        // Two sharers; the writer's update must reach the other node as
        // one UpdateBroadcast, after which the reader still hits locally.
        struct Writer {
            addr: Addr,
            step: u8,
        }
        impl Program for Writer {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Read(self.addr),
                    2 => Command::Delay(5_000),
                    3 => Command::Write(self.addr, 7),
                    _ => Command::Done,
                }
            }
        }
        struct Reader {
            addr: Addr,
            step: u8,
        }
        impl Program for Reader {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Read(self.addr),
                    2 => Command::Delay(20_000),
                    3 => Command::Read(self.addr),
                    _ => Command::Done,
                }
            }
        }
        let mut m = Machine::new(
            MachineConfig::wildfire(2, 2).with_protocol(ProtocolKind::Dragon),
        );
        let log = EventLog::new();
        m.set_trace_sink(Box::new(log.clone()));
        let a = m.mem_mut().alloc(NodeId(0));
        m.add_program(CpuId(0), Box::new(Writer { addr: a, step: 0 }));
        m.add_program(CpuId(2), Box::new(Reader { addr: a, step: 0 }));
        assert!(m.run(1_000_000).finished_all);
        let report_hits_before = log
            .take()
            .into_iter()
            .filter_map(|r| match r.event {
                SimEvent::UpdateBroadcast { sharers, .. } => Some(sharers),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(report_hits_before, vec![1], "one broadcast to one remote node");
    }

    /// A bare 2×2 WildFire memory system (CPUs 0–1 on node 0, 2–3 on
    /// node 1) under `kind`, with one word homed on node 0.
    fn mem2x2(kind: ProtocolKind) -> (MemorySystem, Addr) {
        let topo = std::sync::Arc::new(nuca_topology::Topology::symmetric(2, 2));
        let mut mem = MemorySystem::new(
            topo,
            crate::LatencyModel::wildfire(),
            kind,
            CacheGeometry::default_geometry(),
        );
        let a = mem.alloc(NodeId(0));
        (mem, a)
    }

    fn access(
        mem: &mut MemorySystem,
        now: u64,
        cpu: usize,
        a: Addr,
        op: MemOp,
        st: &mut SimStats,
    ) -> AccessOutcome {
        mem.access(now, CpuId(cpu), a, op, st, None, &mut Vec::new())
    }

    #[test]
    fn migrated_holder_is_invalidated_or_updated_on_its_new_node() {
        // CPU 1 caches the line on node 0, then migrates to node 1. CPU 0's
        // write must reach the copy where CPU 1 now runs: the invalidation
        // (MESI) or update (Dragon) is global traffic charged to node 1.
        // With and without a copy of its own, the writer takes the miss
        // path and the upgrade (MESI) or held-write (Dragon) path.
        for kind in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
            for writer_reads_first in [false, true] {
                let (mut mem, a) = mem2x2(kind);
                let mut st = SimStats::new();
                if writer_reads_first {
                    access(&mut mem, 0, 0, a, MemOp::Read, &mut st);
                }
                access(&mut mem, 10_000, 1, a, MemOp::Read, &mut st);
                assert!(st.node_traffic().get(1).is_none(), "{kind}: node 1 untouched so far");
                mem.migrate_cpu(CpuId(1), NodeId(1));
                access(&mut mem, 20_000, 0, a, MemOp::Write(5), &mut st);
                let node1 = st.node_traffic()[1];
                assert_eq!(
                    (node1.local, node1.global),
                    (0, 1),
                    "{kind} (writer read first: {writer_reads_first}): one global \
                     invalidation/update on node 1"
                );
            }
        }
    }

    #[test]
    fn migrated_sharer_serves_its_new_node_mates() {
        // CPUs 0 and 1 share the line on node 0; CPU 1 then moves to
        // node 1. A read miss by CPU 3 (node 1) prefers a sharer on its own
        // node, so CPU 1 serves it: a same-node transfer, no global traffic.
        // Served by CPU 0 it would cost a remote transfer.
        for kind in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
            let (mut mem, a) = mem2x2(kind);
            let mut st = SimStats::new();
            access(&mut mem, 0, 0, a, MemOp::Read, &mut st);
            access(&mut mem, 10_000, 1, a, MemOp::Read, &mut st);
            mem.migrate_cpu(CpuId(1), NodeId(1));
            let global_before = st.traffic().global;
            let out = access(&mut mem, 20_000, 3, a, MemOp::Read, &mut st);
            assert_eq!(
                out.complete_at - 20_000,
                crate::LatencyModel::wildfire().same_node_transfer,
                "{kind}: CPU 3's miss is served on node 1"
            );
            assert_eq!(st.traffic().global, global_before, "{kind}: no global fetch");
            assert_eq!(st.node_traffic()[1].local, 1, "{kind}: one local fetch on node 1");
        }
    }

    #[test]
    fn mesi_and_dragon_runs_are_deterministic() {
        for kind in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
            let cfg = || MachineConfig::wildfire(2, 4).with_seed(11).with_protocol(kind);
            let (a, _) = run_incrs(cfg(), 8, 30);
            let (b, _) = run_incrs(cfg(), 8, 30);
            assert_eq!(a.end_time, b.end_time, "{kind} end time must be stable");
            assert_eq!(a.traffic, b.traffic, "{kind} traffic must be stable");
            assert_eq!(a.finish_times, b.finish_times);
        }
    }
}
