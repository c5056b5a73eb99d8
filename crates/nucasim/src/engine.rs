//! The discrete-event engine driving simulated CPUs.

use std::fmt;
use std::sync::Arc;

use nuca_topology::{CpuId, NodeId, Topology};

use crate::config::MachineConfig;
use crate::faults::{FaultConfig, FaultState};
use crate::mem::{Addr, MemOp, MemorySystem};
use crate::preempt::PreemptState;
use crate::profile::Profile;
use crate::program::{Command, CpuCtx, Program};
use crate::rng::SplitMix64;
use crate::sched::{RecordingQueue, SchedOpLog, SchedQueue, TimeWheel};
use crate::stats::{LockTally, LockTrace, SimStats, TrafficCounts};
use crate::trace::{SimEvent, TraceSink};

/// Per-CPU scheduler/program state, struct-of-arrays: the hot loop
/// touches `pending` and `programs` on every event, `finished_at` only at
/// program exit — splitting them keeps the per-event working set dense.
struct CpuStates {
    programs: Vec<Option<Box<dyn Program>>>,
    /// Value to hand to each CPU's next `resume`.
    pending: Vec<Option<u64>>,
    /// Simulated time at which each CPU's program returned `Done`.
    finished_at: Vec<Option<u64>>,
}

impl CpuStates {
    fn new(n: usize) -> CpuStates {
        CpuStates {
            programs: (0..n).map(|_| None).collect(),
            pending: vec![None; n],
            finished_at: vec![None; n],
        }
    }

    fn all_done(&self) -> bool {
        self.programs.iter().all(|p| p.is_none())
    }
}

impl fmt::Debug for CpuStates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuStates")
            .field(
                "running",
                &self.programs.iter().filter(|p| p.is_some()).count(),
            )
            .field("finished_at", &self.finished_at)
            .finish()
    }
}

/// Outcome of one [`Machine::run`] call: how far simulated time advanced
/// and whether every program finished. Cheap to copy; ask the machine for
/// an [`Machine::into_report`] when the full statistics are needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStatus {
    /// Simulated time when the run stopped (cycles).
    pub end_time: u64,
    /// Whether every program reached `Done` before the limit.
    pub finished_all: bool,
}

impl RunStatus {
    /// End-to-end time in seconds of simulated execution.
    pub fn seconds(&self) -> f64 {
        crate::cycles_to_secs(self.end_time)
    }
}

/// Final outcome of a simulation: timing, statistics and final memory
/// values, decoupled from the machine so it can outlive it.
///
/// Produced by [`Machine::into_report`], which *moves* the accumulated
/// lock traces out of the machine and materializes memory values exactly
/// once — nothing on this path clones per-run data.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated time when the run stopped (cycles).
    pub end_time: u64,
    /// Whether every program reached `Done` before the limit.
    pub finished_all: bool,
    /// Per-CPU completion times (index = CPU id).
    pub finish_times: Vec<Option<u64>>,
    /// Coherence traffic generated during the run.
    pub traffic: TrafficCounts,
    /// Traffic attributed per node (index = node id; may be shorter than
    /// the node count when trailing nodes generated no traffic).
    pub node_traffic: Vec<TrafficCounts>,
    /// Per-lock acquisition traces (dense tier: lock indices below
    /// [`crate::MachineConfig::hot_locks`]).
    pub lock_traces: Vec<LockTrace>,
    /// Compact tallies for cold-tier lock indices (at or above the hot
    /// limit), in index order. Empty unless a workload recorded past the
    /// limit.
    pub lock_tallies: Vec<(usize, LockTally)>,
    /// Final values of all allocated words.
    values: Vec<u64>,
    /// Preemption windows applied.
    pub preemptions: u64,
    /// Injected thread migrations applied.
    pub migrations: u64,
    /// HBO_GT_SD anger episodes recorded.
    pub anger_episodes: u64,
    /// HBO_GT throttled-spin announcements recorded.
    pub throttle_spins: u64,
    /// MESI shared→exclusive upgrades.
    pub upgrades: u64,
    /// Set-associative cache evictions.
    pub evictions: u64,
    /// Dragon update broadcasts.
    pub update_broadcasts: u64,
    /// Transactions served from the requester's own cache.
    pub cache_hits: u64,
    /// Program-resume events the engine processed.
    pub events: u64,
    /// The streaming profile of the run, when the machine was built with
    /// [`crate::MachineConfig::profile`] and no explicit trace sink
    /// replaced the profiler.
    pub profile: Option<Profile>,
}

impl SimReport {
    /// The final value of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated in the machine that produced
    /// this report.
    pub fn final_value(&self, addr: Addr) -> u64 {
        self.values[addr.index()]
    }

    /// End-to-end time in seconds of simulated execution.
    pub fn seconds(&self) -> f64 {
        crate::cycles_to_secs(self.end_time)
    }

    /// Spread between first and last finisher as a fraction of the last
    /// finish time — the paper's fairness metric (Fig. 8).
    pub fn finish_spread(&self) -> Option<f64> {
        let times: Vec<u64> = self.finish_times.iter().copied().collect::<Option<_>>()?;
        let (min, max) = (
            *times.iter().min()?,
            *times.iter().max()?,
        );
        if max == 0 {
            return Some(0.0);
        }
        Some((max - min) as f64 / max as f64)
    }
}

/// The simulated machine: topology + memory + CPUs + event queue.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Machine {
    topo: Arc<Topology>,
    mem: MemorySystem,
    stats: SimStats,
    cpus: CpuStates,
    /// Pending `(time, cpu)` resume events: the time wheel, recording
    /// its operations once [`Machine::record_sched_ops`] installs a log
    /// (see [`crate::sched`]).
    queue: SchedQueue,
    time: u64,
    preempt: Option<PreemptState>,
    /// Engine-side fault layers (holder-preempt bursts, migration).
    /// `None` whenever fault injection is off — the hot path then pays a
    /// single branch, like tracing.
    faults: Option<FaultState>,
    /// Recycled buffer for the watchers each write wakes (engine-owned so
    /// the hot path never allocates).
    woken_buf: Vec<(CpuId, u64, u64)>,
    /// Installed trace sink, if any: the streaming profiler under
    /// [`MachineConfig::profile`], or the caller's. `None` (the default)
    /// keeps every emission site down to one branch.
    trace: Option<Box<dyn TraceSink>>,
}

impl Machine {
    /// Builds an idle machine from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.preemption` or `cfg.faults` is degenerate (the
    /// builders on [`MachineConfig`] reject these earlier with the same
    /// messages; this is the backstop for directly-assembled configs).
    pub fn new(cfg: MachineConfig) -> Machine {
        if let Err(msg) = cfg.validate() {
            panic!("invalid machine config: {msg}");
        }
        let topo = Arc::new(cfg.topology);
        let mut rng = SplitMix64::new(cfg.seed);
        let preempt = cfg.preemption.map(|p| {
            if let Err(msg) = p.validate() {
                panic!("invalid preemption config: {msg}");
            }
            PreemptState::new(p, topo.num_cpus(), &mut rng)
        });
        let mut mem = MemorySystem::new(Arc::clone(&topo), cfg.latency, cfg.protocol, cfg.geometry);
        // FaultConfig::none() is exactly equivalent to no fault config:
        // no state, no extra rng draws, bit-identical runs.
        let faults = cfg.faults.filter(FaultConfig::is_active).map(|f| {
            if let Err(msg) = f.validate(topo.num_nodes()) {
                panic!("invalid fault config: {msg}");
            }
            if let Some(s) = f.slow_node {
                mem.set_slow_node(NodeId(s.node), s.factor);
            }
            if let Some(j) = f.jitter {
                mem.set_jitter(j.max_extra, rng.split());
            }
            FaultState::new(&f, topo.num_cpus(), &mut rng)
        });
        let cpus = CpuStates::new(topo.num_cpus());
        let trace = cfg.profile.then(crate::profile::analyzer);
        Machine {
            mem,
            topo,
            stats: SimStats::with_hot_limit(cfg.hot_locks),
            cpus,
            queue: SchedQueue::Wheel(TimeWheel::new()),
            time: 0,
            preempt,
            faults,
            woken_buf: Vec::new(),
            trace,
        }
    }

    /// Installs a trace sink; subsequent simulation emits [`SimEvent`]s
    /// into it. Tracing only observes — simulation results are identical
    /// with or without a sink. The sink replaces the profiler
    /// [`MachineConfig::profile`] installs, so the report then carries no
    /// profile.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Replaces the scheduler with a recording wheel and returns the
    /// cloneable op log: every subsequent push/pop is captured as a
    /// [`crate::SchedOp`] for offline replay (the scheduler benchmark and
    /// the recorded-stream oracle, [`crate::sched::replay_pops`]). Must be
    /// called before any program is added.
    ///
    /// # Panics
    ///
    /// Panics if events are already queued.
    pub fn record_sched_ops(&mut self) -> SchedOpLog {
        let log = SchedOpLog::new();
        self.record_sched_ops_into(log.clone());
        log
    }

    /// Like [`record_sched_ops`](Machine::record_sched_ops), but appends
    /// into a caller-supplied log (so several runs can share one stream).
    ///
    /// # Panics
    ///
    /// Panics if events are already queued.
    pub fn record_sched_ops_into(&mut self, log: SchedOpLog) {
        assert!(
            self.queue.is_empty(),
            "install the scheduler recorder before adding programs"
        );
        self.queue = SchedQueue::Record(RecordingQueue::new(log));
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Mutable access to simulated memory (allocate and initialize words
    /// before running).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Read access to simulated memory.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Installs `program` on `cpu`, scheduled to start at the current
    /// simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the topology or already runs a program.
    pub fn add_program(&mut self, cpu: CpuId, program: Box<dyn Program>) {
        let i = cpu.index();
        assert!(self.cpus.programs[i].is_none(), "{cpu} already has a program");
        self.cpus.programs[i] = Some(program);
        self.cpus.pending[i] = None;
        self.cpus.finished_at[i] = None;
        self.queue.push(self.time, i as u32);
    }

    /// Slides `t` past any preemption window on `cpu`.
    fn adjust_preempt(&mut self, cpu: usize, t: u64) -> u64 {
        if let Some(p) = self.preempt.as_mut() {
            let (adj, applied) = p.adjust(cpu, t);
            for _ in 0..applied {
                self.stats.count_preemption();
            }
            if applied > 0 {
                if let Some(sink) = self.trace.as_deref_mut() {
                    sink.record(
                        t,
                        SimEvent::Preempt {
                            cpu: CpuId(cpu),
                            cycles: adj - t,
                        },
                    );
                }
            }
            adj
        } else {
            t
        }
    }

    /// Applies the engine-side fault layers to a resume of `cpu` at `t`:
    /// a pending holder-preemption burst delays the resume by its quantum,
    /// and due migrations re-home the CPU's thread (with an off-CPU
    /// pause). Returns the adjusted time. Every injected fault is counted
    /// and traced, mirroring [`Machine::adjust_preempt`].
    fn apply_faults(&mut self, cpu: usize, t: u64) -> u64 {
        let Some(f) = self.faults.as_mut() else {
            return t;
        };
        let mut t = t;
        if let Some(m) = f.migration.as_mut() {
            while m.next[cpu] <= t {
                let from = self.mem.node_of(CpuId(cpu));
                let to = NodeId((from.index() + 1) % self.topo.num_nodes());
                self.mem.migrate_cpu(CpuId(cpu), to);
                self.stats.count_migration();
                if let Some(sink) = self.trace.as_deref_mut() {
                    sink.record(t, SimEvent::Migrate { cpu: CpuId(cpu), from, to });
                }
                t = t.max(m.next[cpu] + m.pause);
                m.rearm(cpu);
            }
        }
        let burst = std::mem::take(&mut f.pending_delay[cpu]);
        if burst > 0 {
            self.stats.count_preemption();
            if let Some(sink) = self.trace.as_deref_mut() {
                sink.record(t, SimEvent::Preempt { cpu: CpuId(cpu), cycles: burst });
            }
            t += burst;
        }
        t
    }

    /// Schedules a resume at `t`, sliding past faults and preemption
    /// windows. Returns the time actually queued so the run loop can keep
    /// its cached view of the queue head current.
    fn schedule_resume(&mut self, cpu: usize, t: u64, value: Option<u64>) -> u64 {
        let t = self.apply_faults(cpu, t);
        let t = self.adjust_preempt(cpu, t);
        self.cpus.pending[cpu] = value;
        self.queue.push(t, cpu as u32);
        t
    }

    /// Runs until every program finishes or `limit` cycles elapse.
    /// Returns a [`RunStatus`]; the machine may be `run` again with a
    /// larger limit to continue an unfinished simulation, and
    /// [`Machine::into_report`] turns the finished machine into a full
    /// [`SimReport`].
    pub fn run(&mut self, limit: u64) -> RunStatus {
        self.run_with(limit, true)
    }

    /// `run` with the inline-resume fast path switchable, so tests can
    /// compare against the straightforward heap-everything reference.
    fn run_with(&mut self, limit: u64, inline_resume: bool) -> RunStatus {
        let mut events = 0u64;
        'outer: while let Some((mut t, cpu)) = self.queue.pop_at_most(limit) {
            let cpu = cpu as usize;
            // Queue head, cached across the inline-resume burst below. Only
            // watcher wakes push while the burst runs, and those go through
            // `schedule_resume`, whose return value keeps the cache exact.
            let mut head = self.queue.next_time();
            // Inline-resume fast path (classic DES lazy insertion): keep
            // driving this CPU without a queue round-trip for as long as
            // its next event *strictly* precedes everything queued. Ties
            // must go through the queue, where insertion order wins, so
            // event order is exactly the reference order.
            loop {
                self.time = t;
                let Some(mut program) = self.cpus.programs[cpu].take() else {
                    continue 'outer; // stale event for a finished CPU
                };
                let last = self.cpus.pending[cpu].take();
                events += 1;
                let command = {
                    // The *current* node — an injected migration may have
                    // moved this thread off its topology home.
                    let node = self.mem.node_of(CpuId(cpu));
                    let mut ctx = CpuCtx {
                        cpu: CpuId(cpu),
                        node,
                        now: t,
                        stats: &mut self.stats,
                        trace: self.trace.as_deref_mut(),
                        faults: self.faults.as_mut(),
                    };
                    program.resume(&mut ctx, last)
                };
                let (next_at, next_value) = match command {
                    Command::Done => {
                        self.cpus.finished_at[cpu] = Some(t);
                        // program dropped
                        continue 'outer;
                    }
                    Command::Delay(d) => (t + d.max(1), None),
                    Command::WaitWhile { addr, equals } => {
                        match self.mem.wait_while(
                            t,
                            CpuId(cpu),
                            addr,
                            equals,
                            &mut self.stats,
                            self.trace.as_deref_mut(),
                        ) {
                            Some((done, v)) => (done, Some(v)),
                            None => {
                                // Parked: a future write wakes this CPU.
                                self.cpus.programs[cpu] = Some(program);
                                continue 'outer;
                            }
                        }
                    }
                    mem_cmd => {
                        let (addr, op) = match mem_cmd {
                            Command::Read(a) => (a, MemOp::Read),
                            Command::Write(a, v) => (a, MemOp::Write(v)),
                            Command::Cas {
                                addr,
                                expected,
                                new,
                            } => (addr, MemOp::Cas { expected, new }),
                            Command::Swap { addr, value } => (addr, MemOp::Swap(value)),
                            Command::Tas(a) => (a, MemOp::Tas),
                            Command::FetchAdd { addr, delta } => (addr, MemOp::FetchAdd(delta)),
                            _ => unreachable!("non-memory commands handled above"),
                        };
                        let mut woken = std::mem::take(&mut self.woken_buf);
                        let out = self.mem.access(
                            t,
                            CpuId(cpu),
                            addr,
                            op,
                            &mut self.stats,
                            self.trace.as_deref_mut(),
                            &mut woken,
                        );
                        // Wake any watchers first so their events are ordered.
                        for &(wcpu, wake_at, wval) in &woken {
                            let queued = self.schedule_resume(wcpu.index(), wake_at, Some(wval));
                            head = Some(head.map_or(queued, |h| h.min(queued)));
                        }
                        woken.clear();
                        self.woken_buf = woken;
                        (out.complete_at, Some(out.value))
                    }
                };
                self.cpus.programs[cpu] = Some(program);
                let faulted = self.apply_faults(cpu, next_at);
                let adj = self.adjust_preempt(cpu, faulted);
                if inline_resume && adj <= limit && head.is_none_or(|ht| adj < ht) {
                    // Nothing can run before this CPU's continuation:
                    // resume it directly.
                    self.cpus.pending[cpu] = next_value;
                    t = adj;
                    continue;
                }
                self.cpus.pending[cpu] = next_value;
                self.queue.push(adj, cpu as u32);
                continue 'outer;
            }
        }
        self.stats.add_events(events);
        crate::add_sim_events(events);

        // A CPU still holding a program (running or parked) is unfinished;
        // CPUs that never received a program do not count against the run.
        RunStatus {
            end_time: self.time,
            finished_all: self.cpus.all_done(),
        }
    }

    /// Consumes the machine, producing the full [`SimReport`].
    ///
    /// Lock traces are moved (not cloned) out of the statistics and final
    /// memory values are materialized once, here — keeping repeated
    /// [`Machine::run`] continuations free of per-call copying. A profiled
    /// machine's profile is finished (open residency runs flushed) here.
    pub fn into_report(mut self) -> SimReport {
        let finish_times = self.cpus.finished_at.clone();
        let finished_all = self.cpus.all_done();
        SimReport {
            end_time: self.time,
            finished_all,
            finish_times,
            traffic: self.stats.traffic(),
            node_traffic: self.stats.node_traffic().to_vec(),
            lock_traces: self.stats.take_locks(),
            lock_tallies: self.stats.take_tallies(),
            values: self.mem.final_values(),
            preemptions: self.stats.preemptions(),
            migrations: self.stats.migrations(),
            anger_episodes: self.stats.anger_episodes(),
            throttle_spins: self.stats.throttle_spins(),
            upgrades: self.stats.upgrades(),
            evictions: self.stats.evictions(),
            update_broadcasts: self.stats.update_broadcasts(),
            cache_hits: self.stats.cache_hits(),
            events: self.stats.events(),
            profile: self.trace.take().and_then(crate::profile::finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use nuca_topology::NodeId;

    /// Writes `value` then finishes.
    struct WriteOnce {
        addr: Addr,
        value: u64,
        wrote: bool,
    }

    impl Program for WriteOnce {
        fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _last: Option<u64>) -> Command {
            if self.wrote {
                Command::Done
            } else {
                self.wrote = true;
                Command::Write(self.addr, self.value)
            }
        }
    }

    /// Waits for `addr` to stop being 0, records the observed value, done.
    struct Waiter {
        addr: Addr,
        observed: Addr,
        state: u8,
    }

    impl Program for Waiter {
        fn resume(&mut self, _ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
            match self.state {
                0 => {
                    self.state = 1;
                    Command::WaitWhile {
                        addr: self.addr,
                        equals: 0,
                    }
                }
                1 => {
                    self.state = 2;
                    Command::Write(self.observed, last.expect("wait returns value"))
                }
                _ => Command::Done,
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 128")]
    fn oversized_topology_rejected_at_machine_build() {
        // Regression: >128 CPUs used to reach the memory system, where
        // `1u128 << cpu` panics in debug and wraps (corrupting sharer
        // state) in release. Now a clear config error at construction.
        let _ = Machine::new(MachineConfig::e6000(129));
    }

    #[test]
    fn full_width_topology_still_builds() {
        // Exactly 128 CPUs is the documented ceiling, not past it.
        let m = Machine::new(MachineConfig::wildfire(2, 64));
        assert_eq!(m.topology().num_cpus(), 128);
    }

    #[test]
    fn single_writer_finishes() {
        let mut m = Machine::new(MachineConfig::wildfire(2, 2));
        let a = m.mem_mut().alloc(NodeId(0));
        m.add_program(
            CpuId(0),
            Box::new(WriteOnce {
                addr: a,
                value: 42,
                wrote: false,
            }),
        );
        let status = m.run(10_000);
        assert!(status.finished_all);
        let r = m.into_report();
        assert_eq!(r.final_value(a), 42);
        assert!(r.finish_times[0].is_some());
        assert!(r.finish_times[1].is_none(), "idle CPU never finishes");
    }

    #[test]
    fn waiter_wakes_on_write() {
        let mut m = Machine::new(MachineConfig::wildfire(2, 2));
        let flag = m.mem_mut().alloc(NodeId(0));
        let obs = m.mem_mut().alloc(NodeId(1));
        // CPU 3 (node 1) waits; CPU 0 writes after a delay.
        m.add_program(
            CpuId(3),
            Box::new(Waiter {
                addr: flag,
                observed: obs,
                state: 0,
            }),
        );
        struct DelayedWrite {
            addr: Addr,
            step: u8,
        }
        impl Program for DelayedWrite {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Delay(5_000),
                    2 => Command::Write(self.addr, 7),
                    _ => Command::Done,
                }
            }
        }
        m.add_program(CpuId(0), Box::new(DelayedWrite { addr: flag, step: 0 }));
        let status = m.run(1_000_000);
        assert!(status.finished_all);
        let r = m.into_report();
        assert_eq!(r.final_value(obs), 7, "waiter observed the woken value");
        // The waiter finished after the writer's store.
        assert!(r.finish_times[3].unwrap() > 5_000);
    }

    #[test]
    fn unfinished_run_reports_false_and_can_continue() {
        let mut m = Machine::new(MachineConfig::wildfire(1, 1));
        struct LongDelay {
            step: u8,
        }
        impl Program for LongDelay {
            fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                self.step += 1;
                match self.step {
                    1 => Command::Delay(1_000_000),
                    _ => Command::Done,
                }
            }
        }
        m.add_program(CpuId(0), Box::new(LongDelay { step: 0 }));
        let r = m.run(10);
        assert!(!r.finished_all);
        let r = m.run(2_000_000);
        assert!(r.finished_all);
    }

    #[test]
    fn deadlocked_waiters_reported_unfinished() {
        let mut m = Machine::new(MachineConfig::wildfire(1, 2));
        let flag = m.mem_mut().alloc(NodeId(0));
        m.add_program(
            CpuId(0),
            Box::new(Waiter {
                addr: flag,
                observed: flag,
                state: 0,
            }),
        );
        let r = m.run(1_000_000);
        assert!(!r.finished_all, "nobody ever writes the flag");
    }

    #[test]
    fn atomic_increments_from_all_cpus_sum_exactly() {
        let mut m = Machine::new(MachineConfig::wildfire(2, 4));
        let a = m.mem_mut().alloc(NodeId(0));
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
                Command::FetchAdd {
                    addr: self.addr,
                    delta: 1,
                }
            }
        }
        for cpu in 0..8 {
            m.add_program(CpuId(cpu), Box::new(Incr { addr: a, left: 100 }));
        }
        let status = m.run(100_000_000);
        assert!(status.finished_all);
        let r = m.into_report();
        assert_eq!(r.final_value(a), 800);
        assert!(r.traffic.global > 0, "cross-node increments cross the wire");
        assert!(r.traffic.local > 0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        fn run_once(seed: u64) -> (u64, TrafficCounts) {
            let mut m = Machine::new(MachineConfig::wildfire(2, 4).with_seed(seed));
            let a = m.mem_mut().alloc(NodeId(0));
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
                    Command::FetchAdd {
                        addr: self.addr,
                        delta: 1,
                    }
                }
            }
            for cpu in 0..8 {
                m.add_program(CpuId(cpu), Box::new(Incr { addr: a, left: 50 }));
            }
            m.run(100_000_000);
            let r = m.into_report();
            (r.end_time, r.traffic)
        }
        assert_eq!(run_once(11), run_once(11));
    }

    /// The inline-resume fast path must be observationally identical to
    /// the heap-everything reference on the contended-increment scenario:
    /// same end time, traffic, finish times, final values, and event count.
    #[test]
    fn inline_resume_matches_reference() {
        fn run_once(inline_resume: bool) -> SimReport {
            let mut m = Machine::new(MachineConfig::wildfire(2, 4).with_seed(7));
            let a = m.mem_mut().alloc(NodeId(0));
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
                    Command::FetchAdd {
                        addr: self.addr,
                        delta: 1,
                    }
                }
            }
            for cpu in 0..8 {
                m.add_program(CpuId(cpu), Box::new(Incr { addr: a, left: 100 }));
            }
            let status = m.run_with(100_000_000, inline_resume);
            assert!(status.finished_all);
            m.into_report()
        }
        let fast = run_once(true);
        let slow = run_once(false);
        assert_eq!(fast.end_time, slow.end_time);
        assert_eq!(fast.traffic, slow.traffic);
        assert_eq!(fast.finish_times, slow.finish_times);
        assert_eq!(fast.final_value(Addr(0)), slow.final_value(Addr(0)));
        assert_eq!(fast.cache_hits, slow.cache_hits);
        assert_eq!(fast.events, slow.events, "fast path skips no resumes");
        assert!(fast.events > 0);
    }

    /// Same check on a scenario that exercises watcher wakes (WaitWhile),
    /// where event *ordering* between woken CPUs and the writer matters.
    #[test]
    fn inline_resume_matches_reference_with_waiters() {
        fn run_once(inline_resume: bool) -> SimReport {
            let mut m = Machine::new(MachineConfig::wildfire(2, 2));
            let flag = m.mem_mut().alloc(NodeId(0));
            let obs = m.mem_mut().alloc(NodeId(1));
            m.add_program(
                CpuId(3),
                Box::new(Waiter {
                    addr: flag,
                    observed: obs,
                    state: 0,
                }),
            );
            m.add_program(
                CpuId(2),
                Box::new(Waiter {
                    addr: flag,
                    observed: obs,
                    state: 0,
                }),
            );
            struct DelayedWrite {
                addr: Addr,
                step: u8,
            }
            impl Program for DelayedWrite {
                fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                    self.step += 1;
                    match self.step {
                        1 => Command::Delay(5_000),
                        2 => Command::Write(self.addr, 7),
                        _ => Command::Done,
                    }
                }
            }
            m.add_program(CpuId(0), Box::new(DelayedWrite { addr: flag, step: 0 }));
            let status = m.run_with(1_000_000, inline_resume);
            assert!(status.finished_all);
            m.into_report()
        }
        let fast = run_once(true);
        let slow = run_once(false);
        assert_eq!(fast.end_time, slow.end_time);
        assert_eq!(fast.traffic, slow.traffic);
        assert_eq!(fast.finish_times, slow.finish_times);
        assert_eq!(fast.events, slow.events);
    }

    /// Tracing must only observe: a traced run produces the same report as
    /// an untraced one, every counted coherence transaction appears as one
    /// `CoherenceTxn` event, and per-CPU timestamps are monotone.
    #[test]
    fn tracing_only_observes() {
        use crate::trace::{EventLog, SimEvent, TraceRecord};

        fn run_once(traced: bool) -> (SimReport, Vec<TraceRecord>) {
            let mut m = Machine::new(MachineConfig::wildfire(2, 4).with_seed(3));
            let log = EventLog::new();
            if traced {
                m.set_trace_sink(Box::new(log.clone()));
            }
            let a = m.mem_mut().alloc(NodeId(0));
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
                    Command::FetchAdd {
                        addr: self.addr,
                        delta: 1,
                    }
                }
            }
            for cpu in 0..8 {
                m.add_program(CpuId(cpu), Box::new(Incr { addr: a, left: 50 }));
            }
            let status = m.run(100_000_000);
            assert!(status.finished_all);
            (m.into_report(), log.take())
        }

        let (plain, no_events) = run_once(false);
        let (traced, events) = run_once(true);
        assert!(no_events.is_empty());
        assert_eq!(plain.end_time, traced.end_time);
        assert_eq!(plain.traffic, traced.traffic);
        assert_eq!(plain.finish_times, traced.finish_times);
        assert_eq!(plain.events, traced.events);

        let txns = events
            .iter()
            .filter(|r| matches!(r.event, SimEvent::CoherenceTxn { .. }))
            .count() as u64;
        assert_eq!(txns, traced.traffic.total(), "one event per counted txn");

        let mut last_per_cpu = [0u64; 8];
        for r in &events {
            let cpu = match r.event {
                SimEvent::AcquireStart { cpu, .. }
                | SimEvent::LockAcquire { cpu, .. }
                | SimEvent::LockRelease { cpu, .. }
                | SimEvent::BackoffSleep { cpu, .. }
                | SimEvent::CoherenceTxn { cpu, .. }
                | SimEvent::Preempt { cpu, .. }
                | SimEvent::GotAngry { cpu, .. }
                | SimEvent::ThrottleSpin { cpu, .. }
                | SimEvent::Migrate { cpu, .. }
                | SimEvent::Upgrade { cpu, .. }
                | SimEvent::Eviction { cpu, .. }
                | SimEvent::UpdateBroadcast { cpu, .. } => cpu,
            };
            assert!(
                r.at >= last_per_cpu[cpu.index()],
                "per-CPU timestamps must be monotone"
            );
            last_per_cpu[cpu.index()] = r.at;
        }
    }

    #[test]
    fn preemption_slows_execution() {
        fn run_once(preempt: bool) -> u64 {
            let mut cfg = MachineConfig::wildfire(1, 2);
            if preempt {
                cfg = cfg.with_preemption(crate::PreemptionConfig {
                    mean_gap: 10_000,
                    quantum: 50_000,
                });
            }
            let mut m = Machine::new(cfg);
            struct Delays {
                left: u32,
            }
            impl Program for Delays {
                fn resume(&mut self, _ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                    if self.left == 0 {
                        return Command::Done;
                    }
                    self.left -= 1;
                    Command::Delay(1_000)
                }
            }
            m.add_program(CpuId(0), Box::new(Delays { left: 100 }));
            let status = m.run(u64::MAX / 2);
            assert!(status.finished_all);
            status.end_time
        }
        assert!(run_once(true) > 2 * run_once(false));
    }

    /// One contended-counter report, with an arbitrary fault surface.
    fn faulted_report(faults: Option<crate::FaultConfig>) -> SimReport {
        faulted_run(faults, None)
    }

    /// [`faulted_report`], recording the scheduler operations into `log`
    /// when one is given.
    fn faulted_run(faults: Option<crate::FaultConfig>, log: Option<SchedOpLog>) -> SimReport {
        let mut cfg = MachineConfig::wildfire(2, 4).with_seed(13);
        cfg.faults = faults;
        let mut m = Machine::new(cfg);
        if let Some(log) = log {
            m.record_sched_ops_into(log);
        }
        let a = m.mem_mut().alloc(NodeId(0));
        struct LockedIncr {
            addr: Addr,
            left: u32,
            lock: bool,
        }
        impl Program for LockedIncr {
            fn resume(&mut self, ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                if self.left == 0 {
                    return Command::Done;
                }
                // Alternate "acquire" notifications with the increment so
                // the holder-preempt layer sees acquisitions.
                if self.lock {
                    self.lock = false;
                    ctx.record_acquire(0);
                    Command::Delay(50)
                } else {
                    self.lock = true;
                    self.left -= 1;
                    Command::FetchAdd { addr: self.addr, delta: 1 }
                }
            }
        }
        for cpu in 0..8 {
            m.add_program(
                CpuId(cpu),
                Box::new(LockedIncr { addr: a, left: 50, lock: true }),
            );
        }
        let status = m.run(u64::MAX / 2);
        assert!(status.finished_all);
        let r = m.into_report();
        assert_eq!(r.final_value(Addr(0)), 400, "no increments lost to faults");
        r
    }

    /// Tie-break regression under injected faults: holder-preempt bursts
    /// and migrations reschedule resumes at collision-prone times. The
    /// faulted run's recorded scheduler stream must pop identically
    /// through the reference heap and the wheel, and recording must not
    /// change the run.
    #[test]
    fn schedulers_agree_under_preempt_and_migration_faults() {
        use crate::sched::{replay_pops, BinHeapQueue};

        let fcfg = || {
            crate::FaultConfig::none()
                .with_holder_preempt(crate::HolderPreemptConfig {
                    per_mille: 500,
                    quantum: 10_000,
                })
                .with_migration(crate::MigrationConfig { mean_gap: 50_000, pause: 1_000 })
        };
        let log = SchedOpLog::new();
        let recorded = faulted_run(Some(fcfg()), Some(log.clone()));
        let plain = faulted_report(Some(fcfg()));
        assert!(plain.preemptions > 0 && plain.migrations > 0, "faults fired");
        assert_eq!(plain.end_time, recorded.end_time);
        assert_eq!(plain.traffic, recorded.traffic);
        assert_eq!(plain.finish_times, recorded.finish_times);
        assert_eq!(plain.events, recorded.events);
        let ops = log.take();
        let heap = replay_pops(&mut BinHeapQueue::new(), &ops);
        assert!(heap.len() > 100, "the run went through the queue");
        assert_eq!(heap, replay_pops(&mut TimeWheel::new(), &ops));
    }

    #[test]
    fn inactive_fault_config_is_bit_identical_to_none() {
        let plain = faulted_report(None);
        let gated = faulted_report(Some(crate::FaultConfig::none()));
        assert_eq!(plain.end_time, gated.end_time);
        assert_eq!(plain.traffic, gated.traffic);
        assert_eq!(plain.finish_times, gated.finish_times);
        assert_eq!(plain.events, gated.events);
        assert_eq!(plain.preemptions, 0);
        assert_eq!(plain.migrations, 0);
    }

    #[test]
    fn holder_preempt_bursts_fire_and_slow_the_run() {
        let plain = faulted_report(None);
        let faulted = faulted_report(Some(crate::FaultConfig::none().with_holder_preempt(
            crate::HolderPreemptConfig { per_mille: 500, quantum: 10_000 },
        )));
        assert!(faulted.preemptions > 0, "bursts fired");
        assert!(
            faulted.end_time > plain.end_time + 10_000,
            "losing quanta mid-critical-section costs time: {} vs {}",
            faulted.end_time,
            plain.end_time
        );
        // Reproducible: same seed, same faulted timeline.
        let again = faulted_report(Some(crate::FaultConfig::none().with_holder_preempt(
            crate::HolderPreemptConfig { per_mille: 500, quantum: 10_000 },
        )));
        assert_eq!(faulted.end_time, again.end_time);
        assert_eq!(faulted.preemptions, again.preemptions);
    }

    #[test]
    fn migrations_fire_are_counted_and_traced() {
        use crate::trace::EventLog;

        let fcfg = crate::FaultConfig::none()
            .with_migration(crate::MigrationConfig { mean_gap: 50_000, pause: 1_000 });
        let mut m = Machine::new(MachineConfig::wildfire(2, 4).with_seed(5).with_faults(fcfg));
        let log = EventLog::new();
        m.set_trace_sink(Box::new(log.clone()));
        let a = m.mem_mut().alloc(NodeId(0));
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
        for cpu in 0..8 {
            m.add_program(CpuId(cpu), Box::new(Incr { addr: a, left: 200 }));
        }
        let status = m.run(u64::MAX / 2);
        assert!(status.finished_all);
        let events = log.take();
        let r = m.into_report();
        assert_eq!(r.final_value(a), 1600, "migration loses no operations");
        assert!(r.migrations > 0, "migrations happened");
        let migrate_events = events
            .iter()
            .filter(|rec| {
                matches!(rec.event, SimEvent::Migrate { from, to, .. } if from != to)
            })
            .count() as u64;
        assert_eq!(migrate_events, r.migrations, "one event per counted migration");
    }

    #[test]
    fn finish_spread_metric() {
        let r = SimReport {
            end_time: 100,
            finished_all: true,
            finish_times: vec![Some(80), Some(100)],
            traffic: TrafficCounts::default(),
            node_traffic: Vec::new(),
            lock_traces: Vec::new(),
            lock_tallies: Vec::new(),
            values: Vec::new(),
            preemptions: 0,
            migrations: 0,
            anger_episodes: 0,
            throttle_spins: 0,
            upgrades: 0,
            evictions: 0,
            update_broadcasts: 0,
            cache_hits: 0,
            events: 0,
            profile: None,
        };
        assert_eq!(r.finish_spread(), Some(0.2));
    }
}
