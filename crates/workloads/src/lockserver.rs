//! Lockserver: a sharded lock-table service at 10^6-object scale.
//!
//! The paper's microbenchmarks pound a single lock from a fixed set of
//! threads. Real lock *services* (a DLM, a database lock manager) look
//! different: requests for a million lockable objects arrive in bursts
//! whether or not the server has caught up, hash onto a modest number of
//! shard locks, and the interesting metrics are request-latency tails and
//! goodput under overload — not iteration throughput.
//!
//! Three design points matter here:
//!
//! - **Sharding.** Objects hash onto `shards` locks of the swept
//!   [`LockKind`]; the critical section touches the object's word. Only
//!   the shard locks are real [`nucasim_locks::Lock`]s — a million queue locks would
//!   need two qnode words per CPU *each* — while per-object statistics go
//!   through the sparse [`nucasim::LockTally`] tier (lock index
//!   `shards + key`), which is what keeps 10^6 objects affordable.
//! - **Open-loop arrivals.** Each CPU draws a deterministic schedule of
//!   request batches (exponential gaps, geometric-ish batch sizes) and
//!   *timestamps requests by that schedule*, not by when the server got
//!   to them. Latency is `completion − scheduled arrival`, so queueing
//!   delay under overload is visible instead of silently absorbed, and
//!   goodput (fraction served within the SLO) degrades honestly.
//! - **Reader/writer mix.** `write_pct` of requests write the object
//!   word; the rest read it. Readers still take the shard lock exclusively
//!   (this models a simple DLM, not an RW lock) but generate different
//!   coherence traffic on the object line.
//!
//! Determinism: all randomness (keys, mixes, schedules) comes from
//! [`SplitMix64`] streams split off the machine seed, so a run is a pure
//! function of its config — the experiments crate byte-compares sweep
//! TSVs across `--jobs` on exactly this property.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use hbo_locks::LockKind;
use nuca_topology::NodeId;
use nucasim::{
    Addr, Command, CpuCtx, Histogram, Machine, MachineConfig, Program, SimReport, SplitMix64,
};
use nucasim_locks::{build_lock, DriveResult, GtSlots, SessionDriver, SimLockParams};

use crate::zipf::Zipfian;

/// Configuration of one lockserver run.
#[derive(Debug, Clone)]
pub struct LockServerConfig {
    /// Shard-lock algorithm under test.
    pub kind: LockKind,
    /// Machine description. Its `hot_locks` bound is overridden to
    /// `shards` for the run, so shard locks keep full histograms while
    /// object indices tally sparsely.
    pub machine: MachineConfig,
    /// Server threads, bound round-robin across nodes.
    pub threads: usize,
    /// Shard locks the object space hashes onto.
    pub shards: usize,
    /// Lockable objects. Object `k` hashes to shard `k % shards`; its
    /// word lives in a contiguous span homed round-robin across nodes.
    pub objects: usize,
    /// Zipf skew of the key popularity distribution, in `(0, 1)`
    /// (YCSB-style; 0.99 is the classic hot-key mix).
    pub zipf_theta: f64,
    /// Percent of requests that write the object word (the rest read).
    pub write_pct: u32,
    /// Requests each thread must serve.
    pub requests: u32,
    /// Mean gap between arrival batches, in cycles. Smaller means a
    /// hotter offered load; well below the per-request service time it
    /// drives the server into overload.
    pub mean_gap: u64,
    /// Maximum batch size: each arrival event brings 1..=burst requests
    /// at the same timestamp (burstiness knob).
    pub burst: u32,
    /// Latency SLO in cycles; requests completing within it count toward
    /// goodput.
    pub slo: u64,
    /// Shard-lock tunables.
    pub params: SimLockParams,
    /// Simulated-cycle budget; runs exceeding it report `finished=false`.
    pub cycle_limit: u64,
}

impl Default for LockServerConfig {
    fn default() -> Self {
        LockServerConfig {
            kind: LockKind::HboGt,
            machine: MachineConfig::wildfire(2, 14),
            threads: 28,
            shards: 16,
            objects: 4096,
            zipf_theta: 0.99,
            write_pct: 50,
            requests: 50,
            mean_gap: 30_000,
            burst: 4,
            slo: 400_000,
            params: SimLockParams::default(),
            cycle_limit: 50_000_000_000,
        }
    }
}

/// Request-level statistics shared by every server thread of one machine.
#[derive(Debug, Default)]
pub struct RequestStats {
    /// Request latency (scheduled arrival → completion), in cycles.
    pub latency: Histogram,
    /// Requests served.
    pub served: u64,
    /// Requests served within the SLO.
    pub within_slo: u64,
    /// Requests served per node (index = node id).
    pub node_served: Vec<u64>,
    /// Write requests served.
    pub writes: u64,
}

/// Paper-facing metrics of one lockserver run.
#[derive(Debug, Clone)]
pub struct LockServerReport {
    /// Algorithm label.
    pub kind: LockKind,
    /// Whether every thread served its quota within the cycle budget.
    pub finished: bool,
    /// Wall-clock of the run in nanoseconds.
    pub elapsed_ns: u64,
    /// Requests served.
    pub served: u64,
    /// Write requests among those served.
    pub writes: u64,
    /// Median request latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile request latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency, ns.
    pub p999_ns: u64,
    /// Fraction of requests served within the SLO, in percent.
    pub goodput_pct: f64,
    /// Requests served per node.
    pub node_served: Vec<u64>,
    /// Cross-node fairness: min node share over max node share (1.0 is
    /// perfectly even; NUCA-blind queue locks approach it, throughput-
    /// greedy locks trade it away).
    pub fairness: f64,
    /// Distinct objects that were actually locked.
    pub objects_touched: usize,
    /// Acquisitions of the hottest single object.
    pub hottest_object_acquires: u64,
    /// Raw simulation report (shard traces in `lock_traces`, per-object
    /// tallies in `lock_tallies`).
    pub sim: SimReport,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Between requests: draw the next arrival and sleep until it is due.
    Arrive,
    /// The drawn request is due now: start the shard-lock acquisition.
    Due,
    /// Shard-lock acquisition in flight.
    Acquiring,
    /// Object word access in flight (inside the critical section).
    Touching,
    /// Shard-lock release in flight.
    Releasing,
}

struct ServerProgram {
    /// One driver per shard lock (requests hop between shards).
    drivers: Vec<SessionDriver>,
    /// Object word `k` is `object_base[k % nodes].offset(k / nodes)`.
    object_spans: Arc<[Addr]>,
    zipf: Arc<Zipfian>,
    stats: Rc<RefCell<RequestStats>>,
    rng: SplitMix64,
    shards: usize,
    write_pct: u32,
    requests_left: u32,
    mean_gap: u64,
    burst: u32,
    slo: u64,
    /// Timestamp of the current arrival batch.
    batch_time: u64,
    /// Requests still due in the current batch.
    batch_left: u32,
    /// Scheduled arrival of the in-flight request.
    arrival: u64,
    cur_key: u64,
    cur_shard: usize,
    cur_write: bool,
    state: State,
}

impl ServerProgram {
    /// Advances the open-loop schedule and returns the next request's
    /// scheduled arrival time. Arrivals never depend on service progress:
    /// the batch clock advances by exponential gaps regardless of `now`.
    fn next_arrival(&mut self) -> u64 {
        if self.batch_left == 0 {
            self.batch_time += self.rng.next_exp(self.mean_gap);
            self.batch_left = 1 + (self.rng.next_below(u64::from(self.burst))) as u32;
        }
        self.batch_left -= 1;
        self.batch_time
    }

    fn object_word(&self, key: u64) -> Addr {
        let nodes = self.object_spans.len() as u64;
        self.object_spans[(key % nodes) as usize].offset((key / nodes) as usize)
    }

    /// Handles a driver step during acquisition: pass through busy
    /// commands, enter the critical section on success.
    fn step_acquire(&mut self, r: DriveResult) -> Command {
        match r {
            DriveResult::Busy(cmd) => cmd,
            DriveResult::AcquireDone => {
                self.state = State::Touching;
                let word = self.object_word(self.cur_key);
                if self.cur_write {
                    Command::Write(word, self.cur_key + 1)
                } else {
                    Command::Read(word)
                }
            }
            DriveResult::ReleaseDone => unreachable!("release result while acquiring"),
        }
    }

    /// Handles a driver step during release; on completion records the
    /// request and returns `None` so the state loop starts the next one.
    fn step_release(&mut self, r: DriveResult, ctx: &mut CpuCtx<'_>) -> Option<Command> {
        match r {
            DriveResult::Busy(cmd) => Some(cmd),
            DriveResult::ReleaseDone => {
                let latency = ctx.now - self.arrival;
                {
                    let mut s = self.stats.borrow_mut();
                    s.latency.record(latency);
                    s.served += 1;
                    if latency <= self.slo {
                        s.within_slo += 1;
                    }
                    if s.node_served.len() <= ctx.node.index() {
                        s.node_served.resize(ctx.node.index() + 1, 0);
                    }
                    s.node_served[ctx.node.index()] += 1;
                    if self.cur_write {
                        s.writes += 1;
                    }
                }
                // Per-object statistics: cold-tier tally at index
                // `shards + key` (trace-free, so the profiler's dense
                // per-lock state never sees sparse indices).
                let obj = self.shards + self.cur_key as usize;
                ctx.tally_acquire(obj);
                ctx.record_acquire_latency(obj, latency);
                self.state = State::Arrive;
                None
            }
            DriveResult::AcquireDone => unreachable!("acquire result while releasing"),
        }
    }
}

impl Program for ServerProgram {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        loop {
            match self.state {
                State::Arrive => {
                    if self.requests_left == 0 {
                        return Command::Done;
                    }
                    self.requests_left -= 1;
                    self.arrival = self.next_arrival();
                    self.cur_key = self.zipf.sample(&mut self.rng);
                    self.cur_shard = (self.cur_key % self.shards as u64) as usize;
                    self.cur_write = self.rng.next_below(100) < u64::from(self.write_pct);
                    self.state = State::Due;
                    if self.arrival > ctx.now {
                        // Ahead of the offered load: idle until the
                        // request is due. Under overload `arrival` is
                        // already in the past and we fall straight
                        // through — the backlog is what the latency
                        // histogram then shows.
                        return Command::Delay(self.arrival - ctx.now);
                    }
                }
                State::Due => {
                    self.state = State::Acquiring;
                    let r = self.drivers[self.cur_shard].start_acquire(ctx);
                    return self.step_acquire(r);
                }
                State::Acquiring => {
                    let r = self.drivers[self.cur_shard].on_result(ctx, last);
                    return self.step_acquire(r);
                }
                State::Touching => {
                    self.state = State::Releasing;
                    let r = self.drivers[self.cur_shard].start_release(ctx);
                    if let Some(cmd) = self.step_release(r, ctx) {
                        return cmd;
                    }
                }
                State::Releasing => {
                    let r = self.drivers[self.cur_shard].on_result(ctx, last);
                    if let Some(cmd) = self.step_release(r, ctx) {
                        return cmd;
                    }
                }
            }
        }
    }
}

/// Builds and runs the lockserver, returning the service-level metrics.
///
/// # Panics
///
/// Panics if `shards` is zero, `objects < shards`, `threads` exceeds the
/// machine's CPU count, or `zipf_theta` is outside `(0, 1)`.
pub fn run_lockserver(cfg: &LockServerConfig) -> LockServerReport {
    run_lockserver_inner(cfg, cfg.shards)
}

/// The worker behind [`run_lockserver`], with an explicit dense/sparse
/// statistics boundary. Production runs pass `shards` (objects tally
/// sparsely); the agreement tests pass `shards + objects` to force every
/// object through the dense path and compare.
fn run_lockserver_inner(cfg: &LockServerConfig, hot_locks: usize) -> LockServerReport {
    assert!(cfg.shards > 0, "lockserver needs at least one shard");
    assert!(
        cfg.objects >= cfg.shards,
        "{} objects cannot cover {} shards",
        cfg.objects,
        cfg.shards
    );
    let mut machine = Machine::new(cfg.machine.clone().with_hot_locks(hot_locks));
    let topo = Arc::clone(machine.topology());
    assert!(
        cfg.threads <= topo.num_cpus(),
        "{} threads exceed {} CPUs",
        cfg.threads,
        topo.num_cpus()
    );
    let nodes = topo.num_nodes();
    let gt = GtSlots::alloc(machine.mem_mut(), &topo);
    // Shard locks, homed round-robin across nodes so no node owns every
    // lock line.
    let locks: Vec<_> = (0..cfg.shards)
        .map(|s| {
            build_lock(
                cfg.kind,
                machine.mem_mut(),
                &topo,
                &gt,
                NodeId(s % nodes),
                &cfg.params,
            )
        })
        .collect();
    // Object words: one contiguous span per node, object k homed on node
    // k % nodes. Spans avoid a 10^6-entry Vec<Addr> of handles.
    let per_node = cfg.objects.div_ceil(nodes);
    machine.mem_mut().reserve(per_node * nodes);
    let spans: Arc<[Addr]> = (0..nodes)
        .map(|n| machine.mem_mut().alloc_span(NodeId(n), per_node))
        .collect::<Vec<_>>()
        .into();
    let zipf = Arc::new(Zipfian::new(cfg.objects as u64, cfg.zipf_theta));
    let stats = Rc::new(RefCell::new(RequestStats::default()));

    let mut seed = SplitMix64::new(cfg.machine.seed ^ 0x10C5);
    for cpu in topo.round_robin_binding(cfg.threads) {
        let node = topo.node_of(cpu);
        let drivers = locks
            .iter()
            .enumerate()
            .map(|(s, l)| SessionDriver::new(l.session(cpu, node)).with_lock_index(s))
            .collect();
        machine.add_program(
            cpu,
            Box::new(ServerProgram {
                drivers,
                object_spans: Arc::clone(&spans),
                zipf: Arc::clone(&zipf),
                stats: Rc::clone(&stats),
                rng: seed.split(),
                shards: cfg.shards,
                write_pct: cfg.write_pct,
                requests_left: cfg.requests,
                mean_gap: cfg.mean_gap.max(1),
                burst: cfg.burst.max(1),
                slo: cfg.slo,
                batch_time: 0,
                batch_left: 0,
                arrival: 0,
                cur_key: 0,
                cur_shard: 0,
                cur_write: false,
                state: State::Arrive,
            }),
        );
    }
    machine.run(cfg.cycle_limit);
    let sim = machine.into_report();
    let stats = Rc::try_unwrap(stats)
        .expect("machine dropped, no other stats holders")
        .into_inner();

    let pct = |p: f64| stats.latency.percentile(p).map_or(0, nucasim::cycles_to_ns);
    let mut node_served = stats.node_served.clone();
    node_served.resize(nodes, 0);
    let fairness = match (node_served.iter().min(), node_served.iter().max()) {
        (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
        _ => 0.0,
    };
    let goodput_pct = if stats.served == 0 {
        0.0
    } else {
        100.0 * stats.within_slo as f64 / stats.served as f64
    };
    let hottest_object_acquires = sim
        .lock_tallies
        .iter()
        .map(|(_, t)| t.acquisitions)
        .chain(
            // Dense-path runs (agreement tests) carry objects as traces.
            sim.lock_traces.iter().skip(cfg.shards).map(|t| t.acquisitions),
        )
        .max()
        .unwrap_or(0);
    let objects_touched = sim.lock_tallies.len()
        + sim
            .lock_traces
            .iter()
            .skip(cfg.shards)
            .filter(|t| t.acquisitions > 0)
            .count();
    LockServerReport {
        kind: cfg.kind,
        finished: sim.finished_all,
        elapsed_ns: nucasim::cycles_to_ns(sim.end_time),
        served: stats.served,
        writes: stats.writes,
        p50_ns: pct(50.0),
        p99_ns: pct(99.0),
        p999_ns: pct(99.9),
        goodput_pct,
        node_served,
        fairness,
        objects_touched,
        hottest_object_acquires,
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: LockKind) -> LockServerConfig {
        LockServerConfig {
            kind,
            machine: MachineConfig::wildfire(2, 4),
            threads: 8,
            shards: 4,
            objects: 200,
            requests: 30,
            mean_gap: 20_000,
            ..LockServerConfig::default()
        }
    }

    #[test]
    fn serves_all_requests_and_reports_tails() {
        let r = run_lockserver(&quick(LockKind::HboGt));
        assert!(r.finished, "hit the cycle limit");
        assert_eq!(r.served, 8 * 30);
        assert!(r.p50_ns > 0);
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        assert!(r.goodput_pct > 0.0 && r.goodput_pct <= 100.0);
        assert!(r.objects_touched > 0);
        assert!(r.hottest_object_acquires >= 2, "zipf never repeated a key");
        // Shard locks are hot-tier; objects never leak into the dense
        // traces in a production run.
        assert!(r.sim.lock_traces.len() <= 4);
        assert_eq!(
            r.sim.lock_tallies.iter().map(|(_, t)| t.acquisitions).sum::<u64>(),
            r.served
        );
        let node_sum: u64 = r.node_served.iter().sum();
        assert_eq!(node_sum, r.served);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0);
    }

    #[test]
    fn tiered_stats_agree_with_dense_path_for_every_lock_kind() {
        // Satellite property: per-object tallies from the sparse tier must
        // equal what the dense traces would have recorded, across seeds and
        // lock kinds — and tiering must not perturb the simulation itself.
        for &kind in hbo_locks::LockCatalog::kinds() {
            for seed in [1u64, 99] {
                let mut cfg = quick(kind);
                cfg.machine = cfg.machine.with_seed(seed);
                cfg.requests = 15;
                let tiered = run_lockserver_inner(&cfg, cfg.shards);
                let dense = run_lockserver_inner(&cfg, cfg.shards + cfg.objects);
                assert_eq!(
                    tiered.sim.end_time, dense.sim.end_time,
                    "{kind} seed {seed}: tiering changed the simulation"
                );
                assert_eq!(tiered.served, dense.served);
                assert_eq!(tiered.p99_ns, dense.p99_ns);
                assert!(
                    !tiered.sim.lock_tallies.is_empty(),
                    "{kind} seed {seed}: no cold-tier tallies recorded"
                );
                assert!(dense.sim.lock_tallies.is_empty());
                for &(idx, tally) in &tiered.sim.lock_tallies {
                    let trace = &dense.sim.lock_traces[idx];
                    assert_eq!(
                        trace.tally(),
                        tally,
                        "{kind} seed {seed}: object {idx} disagrees between tiers"
                    );
                }
            }
        }
    }

    #[test]
    fn overload_degrades_goodput_and_tails() {
        let mut hot = quick(LockKind::Mcs);
        hot.mean_gap = 50; // offered load far above service capacity
        hot.burst = 8;
        hot.requests = 120;
        hot.slo = 50_000;
        let mut cool = quick(LockKind::Mcs);
        cool.mean_gap = 200_000;
        cool.requests = 120;
        cool.slo = 50_000;
        let hot_r = run_lockserver(&hot);
        let cool_r = run_lockserver(&cool);
        assert!(
            hot_r.p99_ns > cool_r.p99_ns,
            "overload p99 {} vs idle p99 {}",
            hot_r.p99_ns,
            cool_r.p99_ns
        );
        assert!(
            hot_r.goodput_pct < cool_r.goodput_pct,
            "overload goodput {:.1}% vs idle {:.1}%",
            hot_r.goodput_pct,
            cool_r.goodput_pct
        );
    }

    #[test]
    fn write_mix_is_respected() {
        let mut ro = quick(LockKind::TatasExp);
        ro.write_pct = 0;
        let r = run_lockserver(&ro);
        assert!(r.finished);
        assert_eq!(r.writes, 0, "read-only mix issued writes");

        let mut wo = quick(LockKind::TatasExp);
        wo.write_pct = 100;
        let w = run_lockserver(&wo);
        assert!(w.finished);
        assert_eq!(w.writes, w.served, "write-only mix issued reads");

        let mut mixed = quick(LockKind::TatasExp);
        mixed.write_pct = 50;
        let m = run_lockserver(&mixed);
        assert!(m.writes > 0 && m.writes < m.served, "{}/{}", m.writes, m.served);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run_lockserver(&quick(LockKind::Clh));
        let b = run_lockserver(&quick(LockKind::Clh));
        assert_eq!(a.sim.end_time, b.sim.end_time);
        assert_eq!(a.p999_ns, b.p999_ns);
        assert_eq!(a.node_served, b.node_served);
        assert_eq!(a.sim.lock_tallies, b.sim.lock_tallies);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn fewer_objects_than_shards_rejected() {
        let mut cfg = quick(LockKind::Tatas);
        cfg.objects = 2;
        let _ = run_lockserver(&cfg);
    }
}

