//! The scheduler's determinism oracle, on recorded streams.
//!
//! The engine runs one scheduler, the time wheel. The reference order is
//! the binary heap's `(time, seq)`: events at the same tick pop in
//! insertion order. Each cell below records the engine's scheduler
//! operation stream, replays it through the heap and through the wheel,
//! and requires identical pop sequences — any divergence is a tie-break
//! bug in the wheel, and would change artifact bytes. The cells cover the
//! event mixes that stress the wheel: fig5's contended point under every
//! lock kind, both set-associative protocols, preemption quanta past the
//! wheel's horizon, and the robustness fault stack.

use hbo_locks::{LockCatalog, LockKind};
use nuca_experiments::{robustness, Scale};
use nuca_topology::Topology;
use nuca_workloads::modern::{run_modern_recorded, ModernConfig};
use nucasim::sched::{replay_pops, BinHeapQueue, TimeWheel};
use nucasim::{MachineConfig, PreemptionConfig, ProtocolKind, SchedOp, SimReport};

/// Cycles the wheel's two levels span (1024 one-cycle slots × 64
/// blocks): a push at least this far past the last pop always goes to
/// the overflow heap.
const WHEEL_SPAN: u64 = 1 << 16;

/// Records `cfg`'s scheduler stream and asserts the heap and the wheel pop
/// it identically. Returns the run's report and how many pushes landed at
/// least [`WHEEL_SPAN`] past the last pop.
fn assert_replays_identically(label: &str, cfg: &ModernConfig) -> (SimReport, usize) {
    let (report, ops) = run_modern_recorded(cfg);
    let heap = replay_pops(&mut BinHeapQueue::new(), &ops);
    assert!(!heap.is_empty(), "{label}: nothing went through the queue");
    let wheel = replay_pops(&mut TimeWheel::new(), &ops);
    if let Some(i) = heap.iter().zip(&wheel).position(|(h, w)| h != w) {
        panic!(
            "{label}: pop {i} diverges: heap {:?}, wheel {:?}",
            heap[i], wheel[i]
        );
    }
    assert_eq!(heap.len(), wheel.len(), "{label}");

    let mut now = 0;
    let mut pops = heap.iter();
    let mut far = 0;
    for op in &ops {
        match *op {
            SchedOp::Push { t, .. } => far += usize::from(t - now >= WHEEL_SPAN),
            SchedOp::Pop => now = pops.next().expect("one pop per Pop").0,
        }
    }
    (report, far)
}

/// fig5's contended point at full scale: 28 CPUs, 60 iterations each, at
/// `critical_work = 1500`.
fn fig5_point(kind: LockKind, protocol: ProtocolKind) -> ModernConfig {
    ModernConfig {
        kind,
        machine: MachineConfig::wildfire(2, 14).with_protocol(protocol),
        threads: 28,
        iterations: 60,
        critical_work: 1500,
        ..ModernConfig::default()
    }
}

#[test]
fn fig5_point_replays_identically_for_every_kind() {
    for &kind in LockCatalog::kinds() {
        let cfg = fig5_point(kind, ProtocolKind::Flat);
        let (report, _) = assert_replays_identically(kind.as_str(), &cfg);
        assert!(report.finished_all, "{kind}");
    }
}

#[test]
fn hbo_gt_replays_identically_under_mesi_and_dragon() {
    for protocol in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
        let cfg = fig5_point(LockKind::HboGt, protocol);
        let (report, _) = assert_replays_identically(protocol.name(), &cfg);
        assert!(report.finished_all, "{protocol}");
    }
}

/// Table 4's 30-CPU prototype under OS preemption: quanta far beyond the
/// wheel's horizon, so the stream exercises the overflow heap.
#[test]
fn preempted_30_cpu_prototype_replays_identically() {
    let machine = MachineConfig {
        topology: Topology::builder()
            .node(16)
            .node(14)
            .build()
            .expect("static"),
        ..MachineConfig::wildfire(2, 2)
    }
    .with_preemption(PreemptionConfig {
        mean_gap: 120_000,
        quantum: 300_000,
    });
    for kind in [LockKind::Mcs, LockKind::HboGtSd] {
        let cfg = ModernConfig {
            kind,
            machine: machine.clone(),
            threads: 30,
            iterations: 6,
            cycle_limit: 200_000_000,
            ..ModernConfig::default()
        };
        let (report, far) = assert_replays_identically(kind.as_str(), &cfg);
        assert!(report.preemptions > 0, "{kind}: no preemption fired");
        assert!(far > 0, "{kind}: no push reached the overflow heap");
    }
}

/// The robustness artifact's `heavy+faults` stack: OS preemption plus
/// holder-targeted preemption, migration, a slow node and jitter.
#[test]
fn robustness_fault_stack_replays_identically() {
    let stack = robustness::levels(Scale::Fast)
        .into_iter()
        .find(|d| d.name == "heavy+faults")
        .expect("robustness sweeps heavy+faults");
    let machine = MachineConfig::wildfire(2, 4)
        .with_preemption(stack.preemption.expect("heavy preemption"))
        .with_faults(stack.faults);
    let mut migrations = 0;
    for &kind in LockCatalog::kinds() {
        let cfg = ModernConfig {
            kind,
            machine: machine.clone(),
            threads: 8,
            iterations: 30,
            private_work: 2_000,
            cycle_limit: 3_000_000_000,
            ..ModernConfig::default()
        };
        let (report, _) = assert_replays_identically(kind.as_str(), &cfg);
        assert!(report.preemptions > 0, "{kind}: no preemption fired");
        migrations += report.migrations;
    }
    assert!(migrations > 0, "no migration fired");
}
