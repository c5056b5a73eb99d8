//! Event schedulers: the pending-resume queue driving the engine.
//!
//! The engine's event set is tiny (at most one pending resume per CPU)
//! but churns at enormous rates — every simulated memory access, delay
//! and backoff sleep is one push/pop pair. The classic binary heap costs
//! O(log n) *and* a cache-missing sift per operation; because nucasim's
//! delay distribution is bounded (coherence latencies of tens to hundreds
//! of cycles, backoff caps of ≤ 51 200 cycles, private work of ~20 000),
//! nearly every insertion lands within a small known horizon of current
//! time — the textbook case for a hierarchical *time wheel* with O(1)
//! enqueue/dequeue and a heap-backed overflow for the rare far-future
//! event (preemption quanta, fault timers).
//!
//! # Tie-break contract
//!
//! The hard invariant of the whole simulator is byte-identical artifacts
//! at any `--jobs` count. The reference order, pinned by
//! [`BinHeapQueue`], is lexicographic `(time, seq)` where `seq` is a
//! per-queue monotone insertion counter: **events at the same tick pop in
//! FIFO insertion order**. (The CPU id never participates: `seq` is
//! unique.) [`TimeWheel`], the engine's only scheduler, preserves exactly
//! this order. The oracle is offline: the engine can record its operation
//! stream ([`Machine::record_sched_ops`](crate::Machine::record_sched_ops)),
//! and the tests replay recorded streams through both queues
//! ([`replay_pops`]) and require identical pop sequences.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

/// The scheduler interface the engine drives.
///
/// Entries are `(time, cpu)`; insertion order is the tie-break (see the
/// [module docs](self)). `next_time` takes `&mut self` because the wheel
/// may need to cascade internal structure to locate its earliest entry.
pub trait EventQueue {
    /// Enqueues a resume of `cpu` at time `t`. `t` must not precede the
    /// time of the last popped event.
    fn push(&mut self, t: u64, cpu: u32);
    /// The time of the earliest pending event, if any.
    fn next_time(&mut self) -> Option<u64>;
    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<(u64, u32)>;
    /// Pops the earliest event only if its time is ≤ `limit` — the
    /// engine's per-event peek-then-pop, fused so implementations can do
    /// a single find-min. Declining must leave the queue observably
    /// unchanged.
    fn pop_at_most(&mut self, limit: u64) -> Option<(u64, u32)> {
        match self.next_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reference scheduler: `BinaryHeap<Reverse<(time, seq, cpu)>>`,
/// exactly the engine's original event queue. O(log n) per operation.
#[derive(Debug, Default)]
pub struct BinHeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl BinHeapQueue {
    /// An empty queue.
    pub fn new() -> BinHeapQueue {
        BinHeapQueue::default()
    }
}

impl EventQueue for BinHeapQueue {
    fn push(&mut self, t: u64, cpu: u32) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, cpu)));
    }

    fn next_time(&mut self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        self.heap.pop().map(|Reverse((t, _, cpu))| (t, cpu))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Level-0 geometry: 1024 one-cycle slots — every event within the
/// current 1024-cycle block sits in the slot of its exact tick, so a slot
/// is a plain FIFO of arena nodes.
const L0_BITS: u32 = 10;
const L0_SLOTS: usize = 1 << L0_BITS;
const L0_MASK: u64 = (L0_SLOTS as u64) - 1;
/// Level-1 geometry: 64 slots of one 1024-cycle block each, covering the
/// rest of the current 2^16-cycle (≈262 µs simulated) superblock. Backoff
/// caps (≤ 51 200 cycles) and workload think-time (≤ ~40 000) land here
/// or closer; only preemption quanta and fault timers overflow.
const L1_BITS: u32 = 6;
const L1_SLOTS: usize = 1 << L1_BITS;
const L1_MASK: u64 = (L1_SLOTS as u64) - 1;
const HORIZON_BITS: u32 = L0_BITS + L1_BITS;
const HORIZON_MASK: u64 = (1u64 << HORIZON_BITS) - 1;
/// Null link / empty-slot sentinel for arena indices.
const NIL: u32 = u32::MAX;

/// One pending event in the wheel's node arena. Freed nodes chain through
/// `next` onto the freelist and are recycled most-recently-freed first,
/// so the handful of live nodes stays in the same few cache lines.
#[derive(Debug, Clone, Copy)]
struct Node {
    t: u64,
    cpu: u32,
    next: u32,
}

/// A slot's FIFO chain: head/tail arena indices (`NIL`/`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo { head: NIL, tail: NIL };
}

/// Hierarchical time wheel with a heap-backed overflow.
///
/// * **L0**: 1024 granularity-1 slots covering the block of current time.
///   Each in-window tick maps to exactly one slot, so per-slot FIFO order
///   *is* insertion order — the tie-break comes for free.
/// * **L1**: 64 slots of 1024 cycles covering the rest of the current
///   superblock; a slot's chain is relinked into L0 when time enters its
///   block.
/// * **Overflow**: a `(time, seq)`-keyed min-heap for events beyond the
///   superblock, drained into the wheels when time crosses into theirs.
///
/// Ordering correctness rests on the monotonicity of current time: the
/// structure an event lands in depends only on the horizon at push time,
/// horizons only advance, and a cascade/drain into a block always happens
/// *before* any direct insertion into that block — so every slot FIFO is
/// globally seq-ordered. Occupancy bitmaps (one bit per L0 slot plus a
/// one-word summary) make find-first-event a handful of word scans.
///
/// All storage is data-oriented: events are 16-byte nodes in one arena,
/// slots are 8-byte head/tail pairs, and cascades *relink* nodes instead
/// of copying them — the steady state allocates nothing and the whole
/// structure (arena + headers + bitmaps ≈ 10 KB, of which only the live
/// chains are touched) stays cache-resident under engine pressure, where
/// the simulation's own working set would evict anything bulkier.
#[derive(Debug)]
pub struct TimeWheel {
    /// Lower bound on the next event's time; advanced by pops/cascades.
    cur: u64,
    len: usize,
    /// Insertion counter for overflow ordering.
    seq: u64,
    /// Node arena; grows to the high-water mark of pending events and
    /// then recycles through the freelist.
    nodes: Vec<Node>,
    /// Freelist head (`NIL` when exhausted).
    free: u32,
    l0: Box<[Fifo; L0_SLOTS]>,
    /// One bit per L0 slot.
    l0_occ: [u64; L0_SLOTS / 64],
    /// One bit per `l0_occ` word.
    l0_sum: u64,
    l1: [Fifo; L1_SLOTS],
    l1_occ: u64,
    /// Earliest time in each occupied L1 slot, so peeking never has to
    /// restructure the wheel (see [`TimeWheel::next_time`]).
    l1_min: [u64; L1_SLOTS],
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl Default for TimeWheel {
    fn default() -> Self {
        TimeWheel::new()
    }
}

impl TimeWheel {
    /// An empty wheel starting at time 0.
    pub fn new() -> TimeWheel {
        TimeWheel {
            cur: 0,
            len: 0,
            seq: 0,
            nodes: Vec::new(),
            free: NIL,
            l0: Box::new([Fifo::EMPTY; L0_SLOTS]),
            l0_occ: [0; L0_SLOTS / 64],
            l0_sum: 0,
            l1: [Fifo::EMPTY; L1_SLOTS],
            l1_occ: 0,
            l1_min: [0; L1_SLOTS],
            overflow: BinaryHeap::new(),
        }
    }

    #[inline]
    fn alloc_node(&mut self, t: u64, cpu: u32) -> u32 {
        if self.free != NIL {
            let id = self.free;
            let n = &mut self.nodes[id as usize];
            self.free = n.next;
            *n = Node { t, cpu, next: NIL };
            id
        } else {
            let id = self.nodes.len() as u32;
            debug_assert_ne!(id, NIL, "wheel arena exhausted");
            self.nodes.push(Node { t, cpu, next: NIL });
            id
        }
    }

    #[inline]
    fn free_node(&mut self, id: u32) {
        self.nodes[id as usize].next = self.free;
        self.free = id;
    }

    /// Appends the (already detached) node `id` to the L0 slot of its
    /// tick.
    #[inline]
    fn link_l0(&mut self, id: u32) {
        let t = self.nodes[id as usize].t;
        debug_assert_eq!(t >> L0_BITS, self.cur >> L0_BITS);
        debug_assert_eq!(self.nodes[id as usize].next, NIL);
        let idx = (t & L0_MASK) as usize;
        let slot = &mut self.l0[idx];
        if slot.tail == NIL {
            slot.head = id;
        } else {
            self.nodes[slot.tail as usize].next = id;
        }
        slot.tail = id;
        self.l0_occ[idx >> 6] |= 1u64 << (idx & 63);
        self.l0_sum |= 1u64 << (idx >> 6);
    }

    /// Appends the (already detached) node `id` to the L1 slot of its
    /// block.
    #[inline]
    fn link_l1(&mut self, id: u32) {
        let t = self.nodes[id as usize].t;
        debug_assert_eq!(t >> HORIZON_BITS, self.cur >> HORIZON_BITS);
        debug_assert_eq!(self.nodes[id as usize].next, NIL);
        let j = ((t >> L0_BITS) & L1_MASK) as usize;
        let bit = 1u64 << j;
        if self.l1_occ & bit == 0 {
            self.l1_occ |= bit;
            self.l1_min[j] = t;
        } else if t < self.l1_min[j] {
            self.l1_min[j] = t;
        }
        let slot = &mut self.l1[j];
        if slot.tail == NIL {
            slot.head = id;
        } else {
            self.nodes[slot.tail as usize].next = id;
        }
        slot.tail = id;
    }

    /// First occupied L0 slot at or after bit `from`, via the summary.
    #[inline]
    fn scan_l0(&self, from: usize) -> Option<usize> {
        let wi = from >> 6;
        let w = self.l0_occ[wi] & (!0u64 << (from & 63));
        if w != 0 {
            return Some((wi << 6) | w.trailing_zeros() as usize);
        }
        let sum = if wi >= 63 {
            0
        } else {
            self.l0_sum & (!0u64 << (wi + 1))
        };
        if sum == 0 {
            return None;
        }
        let wj = sum.trailing_zeros() as usize;
        let w = self.l0_occ[wj];
        debug_assert_ne!(w, 0, "summary bit set for empty word");
        Some((wj << 6) | w.trailing_zeros() as usize)
    }

    /// The earliest pending time, *without* restructuring the wheel.
    ///
    /// Purity matters for correctness, not just cost: the engine peeks
    /// ahead while its inline-resume fast path is still simulating at
    /// earlier times, and pushes issued there must still classify against
    /// the last *popped* time. Only [`EventQueue::pop`] — where simulated
    /// time really does jump forward — may cascade and advance `cur`.
    ///
    /// The level order gives the minimum directly: L0 holds the current
    /// block, occupied L1 slots hold strictly later disjoint blocks (the
    /// earliest via `l1_min`), and the overflow never holds anything in
    /// the current superblock (it is fully drained on entry).
    fn peek_time(&self) -> Option<u64> {
        if let Some(idx) = self.scan_l0((self.cur & L0_MASK) as usize) {
            return Some((self.cur & !L0_MASK) | idx as u64);
        }
        if self.l1_occ != 0 {
            let j = self.l1_occ.trailing_zeros() as usize;
            debug_assert!(j as u64 > (self.cur >> L0_BITS) & L1_MASK);
            return Some(self.l1_min[j]);
        }
        self.overflow.peek().map(|&Reverse((t, _, _))| t)
    }

    /// Advances internal structure (cascades, overflow drains) until the
    /// earliest event sits in L0, and returns its time. Leaves `cur` at a
    /// value ≤ that time, so classification of later pushes stays valid.
    /// Called only from the pop paths.
    fn advance(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Fast path: an event within the current block.
            if let Some(idx) = self.scan_l0((self.cur & L0_MASK) as usize) {
                return Some((self.cur & !L0_MASK) | idx as u64);
            }
            // Cascade the next occupied L1 block of this superblock:
            // relink its chain into L0, preserving chain (= insertion)
            // order. Every occupied slot is strictly after the current
            // block — stale earlier slots cannot exist (cascades clear
            // them and superblock entry finds L1 empty).
            if self.l1_occ != 0 {
                let j = self.l1_occ.trailing_zeros() as usize;
                debug_assert!(j as u64 > (self.cur >> L0_BITS) & L1_MASK);
                self.l1_occ &= !(1u64 << j);
                self.cur = (self.cur & !HORIZON_MASK) | ((j as u64) << L0_BITS);
                let mut id = self.l1[j].head;
                self.l1[j] = Fifo::EMPTY;
                while id != NIL {
                    let next = self.nodes[id as usize].next;
                    self.nodes[id as usize].next = NIL;
                    self.link_l0(id);
                    id = next;
                }
                continue;
            }
            // Wheels empty: jump to the overflow's superblock and drain
            // everything it holds for that superblock. Entries pop from
            // the heap in (time, seq) order, so per-tick FIFO order is
            // preserved, and any *direct* insertion into the new window
            // necessarily happens later (with a larger seq).
            let Some(&Reverse((t0, _, _))) = self.overflow.peek() else {
                debug_assert!(false, "len={} but all structures empty", self.len);
                return None;
            };
            self.cur = t0;
            let sb = t0 >> HORIZON_BITS;
            while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
                if t >> HORIZON_BITS != sb {
                    break;
                }
                let Reverse((t, _, cpu)) = self.overflow.pop().expect("peeked");
                let id = self.alloc_node(t, cpu);
                if t >> L0_BITS == self.cur >> L0_BITS {
                    self.link_l0(id);
                } else {
                    self.link_l1(id);
                }
            }
        }
    }

    /// Unlinks and returns the head of the L0 slot at tick `t` (which
    /// `advance` just located).
    #[inline]
    fn consume_at(&mut self, t: u64) -> (u64, u32) {
        self.cur = t;
        let idx = (t & L0_MASK) as usize;
        let slot = &mut self.l0[idx];
        let id = slot.head;
        debug_assert_ne!(id, NIL);
        let node = self.nodes[id as usize];
        debug_assert_eq!(node.t, t);
        let slot = &mut self.l0[idx];
        slot.head = node.next;
        if node.next == NIL {
            slot.tail = NIL;
            self.l0_occ[idx >> 6] &= !(1u64 << (idx & 63));
            if self.l0_occ[idx >> 6] == 0 {
                self.l0_sum &= !(1u64 << (idx >> 6));
            }
        }
        self.free_node(id);
        self.len -= 1;
        (t, node.cpu)
    }
}

impl EventQueue for TimeWheel {
    fn push(&mut self, t: u64, cpu: u32) {
        debug_assert!(t >= self.cur, "push into the past: t={t} cur={}", self.cur);
        let t = t.max(self.cur);
        self.len += 1;
        if t >> HORIZON_BITS == self.cur >> HORIZON_BITS {
            let id = self.alloc_node(t, cpu);
            if t >> L0_BITS == self.cur >> L0_BITS {
                self.link_l0(id);
            } else {
                self.link_l1(id);
            }
        } else {
            self.seq += 1;
            self.overflow.push(Reverse((t, self.seq, cpu)));
        }
    }

    fn next_time(&mut self) -> Option<u64> {
        self.peek_time()
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let t = self.advance()?;
        Some(self.consume_at(t))
    }

    fn pop_at_most(&mut self, limit: u64) -> Option<(u64, u32)> {
        // Fast path: an event in the current block needs no structural
        // work, so find-min and consume share one bitmap scan.
        if let Some(idx) = self.scan_l0((self.cur & L0_MASK) as usize) {
            let t = (self.cur & !L0_MASK) | idx as u64;
            if t > limit {
                return None;
            }
            return Some(self.consume_at(t));
        }
        // Otherwise peek *purely* first: declining to pop must not
        // cascade (`cur` may only advance when time really moves, else
        // later pushes at pre-advance times would be misclassified).
        let t = self.peek_time()?;
        if t > limit {
            return None;
        }
        let located = self.advance().expect("peeked");
        debug_assert_eq!(located, t);
        Some(self.consume_at(located))
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// One recorded scheduler operation (for replay benchmarks and the
/// recorded-stream oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOp {
    /// An enqueue of `cpu` at time `t`.
    Push {
        /// Event time.
        t: u64,
        /// CPU id.
        cpu: u32,
    },
    /// A dequeue of the earliest event.
    Pop,
}

/// Cloneable handle onto a recorded scheduler-operation stream, in the
/// style of [`crate::EventLog`]. Install with
/// [`Machine::record_sched_ops`](crate::Machine::record_sched_ops), run a
/// workload, then [`take`](SchedOpLog::take) the trace and replay it
/// against any [`EventQueue`] — this is how the benchmark times the wheel
/// and the determinism oracle checks it, in isolation, on a real event
/// mix.
#[derive(Debug, Clone, Default)]
pub struct SchedOpLog {
    ops: Arc<Mutex<Vec<SchedOp>>>,
}

impl SchedOpLog {
    /// An empty log.
    pub fn new() -> SchedOpLog {
        SchedOpLog::default()
    }

    /// Moves the recorded operations out, leaving the log empty.
    pub fn take(&self) -> Vec<SchedOp> {
        std::mem::take(&mut self.ops.lock().expect("sched log poisoned"))
    }
}

/// A [`TimeWheel`] that records every operation into a [`SchedOpLog`].
#[derive(Debug)]
pub struct RecordingQueue {
    inner: TimeWheel,
    log: SchedOpLog,
}

impl RecordingQueue {
    /// Wraps a fresh wheel, recording into `log`.
    pub fn new(log: SchedOpLog) -> RecordingQueue {
        RecordingQueue {
            inner: TimeWheel::new(),
            log,
        }
    }
}

impl EventQueue for RecordingQueue {
    fn push(&mut self, t: u64, cpu: u32) {
        self.log
            .ops
            .lock()
            .expect("sched log poisoned")
            .push(SchedOp::Push { t, cpu });
        self.inner.push(t, cpu);
    }

    fn next_time(&mut self) -> Option<u64> {
        self.inner.next_time()
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let out = self.inner.pop();
        if out.is_some() {
            self.log
                .ops
                .lock()
                .expect("sched log poisoned")
                .push(SchedOp::Pop);
        }
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Replays a recorded operation stream through `q` and returns every
/// popped `(time, cpu)`, in order — the recorded-stream oracle: the same
/// stream must pop identically through [`BinHeapQueue`] and [`TimeWheel`].
///
/// # Panics
///
/// Panics if a recorded pop finds `q` empty (a recorded pop always
/// succeeded).
pub fn replay_pops(q: &mut impl EventQueue, ops: &[SchedOp]) -> Vec<(u64, u32)> {
    let mut pops = Vec::new();
    for op in ops {
        match *op {
            SchedOp::Push { t, cpu } => q.push(t, cpu),
            SchedOp::Pop => pops.push(q.pop().expect("a recorded pop always succeeded")),
        }
    }
    pops
}

/// The engine's queue: the time wheel, or the recording wheel that
/// [`Machine::record_sched_ops`](crate::Machine::record_sched_ops)
/// installs. Enum dispatch keeps the per-event scheduler call a
/// predictable branch instead of a virtual call.
#[derive(Debug)]
pub(crate) enum SchedQueue {
    Wheel(TimeWheel),
    Record(RecordingQueue),
}

impl SchedQueue {
    #[inline]
    pub(crate) fn push(&mut self, t: u64, cpu: u32) {
        match self {
            SchedQueue::Wheel(q) => q.push(t, cpu),
            SchedQueue::Record(q) => q.push(t, cpu),
        }
    }

    #[inline]
    pub(crate) fn next_time(&mut self) -> Option<u64> {
        match self {
            SchedQueue::Wheel(q) => q.next_time(),
            SchedQueue::Record(q) => q.next_time(),
        }
    }

    #[inline]
    pub(crate) fn pop_at_most(&mut self, limit: u64) -> Option<(u64, u32)> {
        match self {
            SchedQueue::Wheel(q) => q.pop_at_most(limit),
            SchedQueue::Record(q) => q.pop_at_most(limit),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            SchedQueue::Wheel(q) => q.is_empty(),
            SchedQueue::Record(q) => q.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn fifo_tie_break_same_tick() {
        // Events on one tick pop in insertion order, whatever the cpu ids.
        for q in [
            &mut TimeWheel::new() as &mut dyn EventQueue,
            &mut BinHeapQueue::new(),
        ] {
            for cpu in [9u32, 3, 7, 3, 0] {
                q.push(100, cpu);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, c)| c).collect();
            assert_eq!(order, vec![9, 3, 7, 3, 0]);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_per_tick() {
        let mut w = TimeWheel::new();
        let mut h = BinHeapQueue::new();
        // Push at a tick, consume part of it, push more at the same tick.
        for c in 0..3 {
            w.push(50, c);
            h.push(50, c);
        }
        assert_eq!(w.pop(), h.pop());
        for c in 10..13 {
            w.push(50, c);
            h.push(50, c);
        }
        while let Some(e) = h.pop() {
            assert_eq!(w.pop(), Some(e));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn overflow_entries_order_against_direct_inserts() {
        let mut w = TimeWheel::new();
        let mut h = BinHeapQueue::new();
        let far = 1u64 << 20; // beyond the 2^18 horizon: overflow
        w.push(far, 1);
        h.push(far, 1);
        w.push(far + 3, 2);
        h.push(far + 3, 2);
        // Something near keeps the wheel busy before the jump.
        w.push(5, 0);
        h.push(5, 0);
        assert_eq!(w.pop(), h.pop());
        // After time advances into the far superblock, direct pushes at
        // the same tick must pop *after* the older overflow entries.
        assert_eq!(w.next_time(), Some(far));
        w.push(far, 9);
        h.push(far, 9);
        while let Some(e) = h.pop() {
            assert_eq!(w.pop(), Some(e));
        }
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn cascade_preserves_order_across_blocks_and_laps() {
        let mut w = TimeWheel::new();
        let mut h = BinHeapQueue::new();
        // Straddle several L0 blocks and superblock wraps (the L0 block
        // is 1024 cycles, the superblock 65 536).
        let times = [
            0u64, 1, 1023, 1024, 1025, 4095, 4096, 4097, 8000, 65_535, 65_536, 131_071, 131_072,
            262_143, 262_144, 262_145, 300_000, 524_287, 524_288, 1 << 21,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u32);
            h.push(t, i as u32);
        }
        while let Some(e) = h.pop() {
            assert_eq!(w.pop(), Some(e));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn randomized_against_reference() {
        // Engine-shaped fuzz: pushes are always ≥ the last popped time,
        // with the engine's real delay mix (tiny latencies, backoff-sized
        // sleeps, rare preemption-sized jumps that hit the overflow).
        // Between pushes come the calls the engine makes on every event —
        // `next_time`, and `pop_at_most` with limits below, at and above
        // the head — plus plain pops; wheel and heap must agree on each.
        let mut rng = SplitMix64::new(0xC0FFEE);
        let mut w = TimeWheel::new();
        let mut h = BinHeapQueue::new();
        let mut now = 0u64;
        for _ in 0..200_000 {
            if h.is_empty() || rng.next_below(100) < 55 {
                let d = match rng.next_below(100) {
                    0..=59 => rng.next_below(500),           // coherence latencies
                    60..=89 => rng.next_below(60_000),       // backoff / think time
                    90..=97 => rng.next_below(400_000),      // preemption quanta
                    _ => rng.next_below(20_000_000),         // fault timers
                };
                let cpu = rng.next_below(28) as u32;
                w.push(now + d, cpu);
                h.push(now + d, cpu);
            } else {
                let head = h.next_time().expect("non-empty");
                assert_eq!(w.next_time(), Some(head));
                let (e, r) = match rng.next_below(4) {
                    0 => (w.pop(), h.pop()),
                    k => {
                        let limit = match k {
                            1 => head.saturating_sub(1),
                            2 => head,
                            _ => head + rng.next_below(1_000),
                        };
                        let e = w.pop_at_most(limit);
                        assert_eq!(e.is_some(), limit >= head, "limit {limit}, head {head}");
                        (e, h.pop_at_most(limit))
                    }
                };
                assert_eq!(e, r);
                if let Some((t, _)) = e {
                    now = t;
                }
            }
            assert_eq!(w.len(), h.len());
        }
        while let Some(e) = h.pop() {
            assert_eq!(w.pop(), Some(e));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn wheel_reports_len_and_empty() {
        let mut w = TimeWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
        w.push(10, 0);
        w.push(1 << 30, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_time(), Some(10));
        w.pop();
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_is_time_monotone() {
        let mut rng = SplitMix64::new(42);
        let mut w = TimeWheel::new();
        let mut now = 0;
        for _ in 0..10_000 {
            w.push(now + rng.next_below(100_000), rng.next_below(16) as u32);
            if rng.next_below(2) == 0 {
                if let Some((t, _)) = w.pop() {
                    assert!(t >= now, "time went backwards: {t} < {now}");
                    now = t;
                }
            }
        }
        let mut last = now;
        while let Some((t, _)) = w.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn recording_queue_captures_ops_and_replays() {
        let log = SchedOpLog::new();
        let mut q = RecordingQueue::new(log.clone());
        q.push(5, 1);
        q.push(3, 2);
        let first = q.pop();
        assert_eq!(first, Some((3, 2)));
        let ops = log.take();
        assert_eq!(
            ops,
            vec![
                SchedOp::Push { t: 5, cpu: 1 },
                SchedOp::Push { t: 3, cpu: 2 },
                SchedOp::Pop,
            ]
        );
        assert!(log.take().is_empty(), "take drains the log");
        // Replaying the ops against the reference gives the same pops.
        assert_eq!(replay_pops(&mut BinHeapQueue::new(), &ops), vec![(3, 2)]);
    }
}
