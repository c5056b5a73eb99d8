//! The counters `SimReport` carries for throttle spins, upgrades,
//! evictions and update broadcasts are incremented at the sites that emit
//! their trace events: for HBO_GT under each set-associative protocol,
//! every counter equals the count of its event in a full event log.

use hbo_locks::LockKind;
use nuca_workloads::modern::{run_modern_traced, ModernConfig};
use nucasim::{CacheGeometry, MachineConfig, ProtocolKind, SimEvent};

#[test]
fn counters_equal_their_event_counts_under_mesi_and_dragon() {
    for protocol in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
        let cfg = ModernConfig {
            kind: LockKind::HboGt,
            // A 4-line cache, so the critical section's lines are evicted.
            machine: MachineConfig::wildfire(2, 4)
                .with_protocol(protocol)
                .with_geometry(CacheGeometry { line_words: 1, sets: 2, ways: 2 }),
            threads: 8,
            iterations: 20,
            critical_work: 400,
            ..ModernConfig::default()
        };
        let (r, records) = run_modern_traced(&cfg);
        assert!(r.finished_all);
        let counted = [r.throttle_spins, r.upgrades, r.evictions, r.update_broadcasts];
        let mut logged = [0u64; 4];
        for rec in &records {
            match rec.event {
                SimEvent::ThrottleSpin { .. } => logged[0] += 1,
                SimEvent::Upgrade { .. } => logged[1] += 1,
                SimEvent::Eviction { .. } => logged[2] += 1,
                SimEvent::UpdateBroadcast { .. } => logged[3] += 1,
                _ => {}
            }
        }
        assert_eq!(counted, logged, "{protocol:?}");
        // MESI upgrades where Dragon broadcasts updates; both throttle
        // and evict.
        let protocol_counter = if protocol == ProtocolKind::Mesi { 1 } else { 3 };
        for i in [0, 2, protocol_counter] {
            assert!(counted[i] > 0, "{protocol:?}: {counted:?}");
        }
    }
}
