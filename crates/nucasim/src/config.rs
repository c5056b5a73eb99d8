//! Machine configuration: topology, latency model, coherence protocol,
//! preemption, faults, seed.

use std::fmt;
use std::str::FromStr;

use nuca_topology::Topology;

use crate::faults::FaultConfig;
use crate::preempt::PreemptionConfig;

/// Which coherence protocol the memory system models (see
/// [`crate::coherence`]).
///
/// The protocol changes results: `flat` is the original word-granular
/// ownership model (every address its own line, no capacity limits),
/// while `mesi` and `dragon` model real set-associative caches per CPU
/// with line-granular state, so false sharing and evictions become
/// visible. Each protocol is individually deterministic — the same config
/// produces byte-identical output at any `--jobs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// Word-granular MOESI-flavoured ownership without geometry — the fast
    /// preset every pre-existing artifact uses. The default.
    #[default]
    Flat,
    /// Invalidate-based MESI over set-associative caches: writes to shared
    /// lines upgrade by invalidating every other copy.
    Mesi,
    /// Update-based Dragon over set-associative caches: writes broadcast
    /// the new value to sharers, which stay valid.
    Dragon,
}

impl ProtocolKind {
    /// Every protocol kind, in CLI-listing order.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Flat, ProtocolKind::Mesi, ProtocolKind::Dragon];

    /// The CLI name (`flat`, `mesi`, `dragon`).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Flat => "flat",
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Dragon => "dragon",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProtocolKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ProtocolKind, String> {
        ProtocolKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown protocol '{s}' (expected flat, mesi or dragon)"))
    }
}

/// Per-CPU cache geometry for the set-associative protocols
/// ([`ProtocolKind::Mesi`], [`ProtocolKind::Dragon`]).
///
/// A cache holds `sets × ways` lines of `line_words` words each. The flat
/// protocol ignores geometry entirely (every word is its own unbounded
/// line). Line addresses map to sets by `line & (sets - 1)`, which is why
/// `sets` and `line_words` must be powers of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Words per cache line (power of two). Words `k*line_words ..
    /// (k+1)*line_words` of the simulated address space share coherence
    /// state — the source of false sharing.
    pub line_words: usize,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity: lines per set. Victims are chosen by LRU.
    pub ways: usize,
}

impl CacheGeometry {
    /// The default geometry: 8-word (64-byte) lines, 64 sets × 8 ways =
    /// 512 lines (4 KiB of simulated words) per CPU — small enough that
    /// artifact working sets exert real pressure.
    pub const fn default_geometry() -> CacheGeometry {
        CacheGeometry { line_words: 8, sets: 64, ways: 8 }
    }

    /// Builds a geometry from a total capacity in lines, deriving the
    /// associativity as `capacity_lines / sets`. A capacity smaller than
    /// one set yields zero ways, which [`MachineConfig::validate`]
    /// rejects.
    pub const fn from_capacity(
        line_words: usize,
        sets: usize,
        capacity_lines: usize,
    ) -> CacheGeometry {
        let sets_divisor = if sets == 0 { 1 } else { sets };
        CacheGeometry { line_words, sets, ways: capacity_lines / sets_divisor }
    }

    /// Total lines per CPU cache.
    pub const fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }
}

impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry::default_geometry()
    }
}

/// Unloaded latencies and occupancies of the simulated memory system, in
/// cycles (4 ns each at the 250 MHz clock).
///
/// The defining quantity is the **NUCA ratio**: remote cache-to-cache
/// transfer time over same-node cache-to-cache transfer time. The paper's
/// §2 table gives ratios of ~4.5 (Stanford DASH), ~10 (Sequent NUMA-Q),
/// ~6 (Sun WildFire), ~3.5 (Compaq DS-320) and 6–10 for CMP/SMT servers;
/// the presets below reproduce those machines.
///
/// # Example
///
/// ```
/// let m = nucasim::LatencyModel::wildfire();
/// assert!((m.nuca_ratio() - 6.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Load/store hit in the requester's own cache.
    pub l1_hit: u64,
    /// Cache-to-cache transfer from another CPU in the same node.
    pub same_node_transfer: u64,
    /// Cache-to-cache transfer from a CPU in the same *innermost group*
    /// (e.g. the same CMP chip) on machines with a hierarchy level below
    /// the node ([`nuca_topology::Topology::extra_levels`] > 0). Such
    /// transfers stay on-chip and skip the node's snooping bus. Ignored on
    /// flat topologies.
    pub same_chip_transfer: u64,
    /// Access to node-local memory (the paper's lmbench 330 ns).
    pub local_memory: u64,
    /// Cache-to-cache transfer from a CPU in a remote node (the paper's
    /// lmbench ~1700 ns on WildFire).
    pub remote_transfer: u64,
    /// Access to remote memory.
    pub remote_memory: u64,
    /// Extra cost of an atomic operation (`cas`/`swap`/`tas`) on top of
    /// the data access.
    pub atomic_extra: u64,
    /// How long a node-local coherence transaction keeps the target line
    /// busy (back-to-back transactions on one line serialize on this).
    pub local_occupancy: u64,
    /// How long a global (cross-node) transaction keeps the line busy.
    pub global_occupancy: u64,
    /// How long each coherence transaction occupies a node's snooping bus.
    /// This is what couples lock traffic with data traffic: a release
    /// stampede delays the very critical-section accesses the lock guards
    /// (E6000 Gigaplane: 2.7 GB/s ≈ 10 cycles per 64-byte transaction).
    pub bus_occupancy: u64,
    /// How long each global transaction occupies the inter-node link
    /// (WildFire: 800 MB/s per direction ≈ 25 cycles per transaction).
    pub link_occupancy: u64,
}

impl LatencyModel {
    /// The 2-node Sun WildFire prototype: 330 ns local memory, ~1700 ns
    /// remote, NUCA ratio ≈ 6 for CMR-cached data.
    pub const fn wildfire() -> LatencyModel {
        LatencyModel {
            l1_hit: 2,
            same_node_transfer: 70,
            same_chip_transfer: 70,
            local_memory: 82,
            remote_transfer: 420,
            remote_memory: 425,
            atomic_extra: 30,
            local_occupancy: 30,
            global_occupancy: 130,
            bus_occupancy: 25,
            link_occupancy: 50,
        }
    }

    /// A UMA Sun E6000 (single node): every transfer is "same node".
    pub const fn e6000() -> LatencyModel {
        LatencyModel {
            l1_hit: 2,
            same_node_transfer: 70,
            same_chip_transfer: 70,
            local_memory: 82,
            remote_transfer: 70,
            remote_memory: 82,
            atomic_extra: 30,
            local_occupancy: 30,
            global_occupancy: 30,
            bus_occupancy: 10,
            link_occupancy: 10,
        }
    }

    /// Stanford DASH: NUCA ratio ≈ 4.5.
    pub const fn dash() -> LatencyModel {
        LatencyModel {
            l1_hit: 2,
            same_node_transfer: 60,
            same_chip_transfer: 60,
            local_memory: 80,
            remote_transfer: 270,
            remote_memory: 280,
            atomic_extra: 30,
            local_occupancy: 28,
            global_occupancy: 90,
            bus_occupancy: 12,
            link_occupancy: 30,
        }
    }

    /// Sequent NUMA-Q: NUCA ratio ≈ 10.
    pub const fn numa_q() -> LatencyModel {
        LatencyModel {
            l1_hit: 2,
            same_node_transfer: 60,
            same_chip_transfer: 60,
            local_memory: 80,
            remote_transfer: 600,
            remote_memory: 620,
            atomic_extra: 30,
            local_occupancy: 28,
            global_occupancy: 180,
            bus_occupancy: 12,
            link_occupancy: 60,
        }
    }

    /// A future CMP-based server (paper §2: ratio 6–10, on-chip sharing):
    /// small absolute latencies, ratio 8.
    pub const fn cmp() -> LatencyModel {
        LatencyModel {
            l1_hit: 1,
            same_node_transfer: 20,
            same_chip_transfer: 20,
            local_memory: 100,
            remote_transfer: 160,
            remote_memory: 180,
            atomic_extra: 10,
            local_occupancy: 10,
            global_occupancy: 50,
            bus_occupancy: 4,
            link_occupancy: 12,
        }
    }

    /// A hierarchical NUCA: a NUMA machine populated with CMP processors
    /// (paper §2, "several levels of non-uniformity"). Three latency
    /// classes: on-chip (20), cross-chip within the node (90), and remote
    /// node (420).
    pub const fn cmp_numa() -> LatencyModel {
        LatencyModel {
            l1_hit: 2,
            same_node_transfer: 90,
            same_chip_transfer: 20,
            local_memory: 100,
            remote_transfer: 420,
            remote_memory: 430,
            atomic_extra: 20,
            local_occupancy: 30,
            global_occupancy: 130,
            bus_occupancy: 25,
            link_occupancy: 50,
        }
    }

    /// The ratio of remote to same-node cache-to-cache transfer latency.
    pub fn nuca_ratio(&self) -> f64 {
        self.remote_transfer as f64 / self.same_node_transfer as f64
    }

    /// Returns this model with the remote transfer scaled so the NUCA
    /// ratio becomes `ratio` (for sensitivity sweeps).
    #[must_use]
    pub fn with_nuca_ratio(mut self, ratio: f64) -> LatencyModel {
        assert!(ratio >= 1.0, "NUCA ratio below 1 is not a NUCA");
        self.remote_transfer = (self.same_node_transfer as f64 * ratio) as u64;
        self.remote_memory = self.remote_transfer + 5;
        self
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::wildfire()
    }
}

/// Full description of a simulated machine run.
///
/// # Example
///
/// ```
/// let cfg = nucasim::MachineConfig::wildfire(2, 14);
/// assert_eq!(cfg.topology.num_cpus(), 28);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Node/CPU shape.
    pub topology: Topology,
    /// Latency and occupancy parameters.
    pub latency: LatencyModel,
    /// OS preemption model; `None` simulates an otherwise-idle machine.
    pub preemption: Option<PreemptionConfig>,
    /// Injected fault layers; `None` (or [`FaultConfig::none`]) runs
    /// undisturbed.
    pub faults: Option<FaultConfig>,
    /// Coherence protocol ([`ProtocolKind::Flat`] from the constructors).
    /// The choice changes results: each protocol is its own deterministic
    /// model, and the harness `--protocol` flag sets it on every machine
    /// of a protocol-sensitivity run.
    pub protocol: ProtocolKind,
    /// Per-CPU cache geometry for the set-associative protocols. Ignored
    /// by [`ProtocolKind::Flat`].
    pub geometry: CacheGeometry,
    /// Seed for all engine-internal randomness.
    pub seed: u64,
    /// Lock indices below this bound get full dense [`crate::LockTrace`]s
    /// (histograms, per-node acquire vectors); indices at or above it fall
    /// back to compact [`crate::LockTally`] counters in a sparse map.
    /// Workloads with huge lock index spaces (e.g. a lock service with
    /// 10^6 lockable objects) set this to their count of "real" locks so
    /// per-object statistics stay cheap. Defaults to
    /// [`crate::DEFAULT_HOT_LOCKS`], which is far above any in-repo
    /// artifact's lock count — existing runs are unaffected.
    pub hot_locks: usize,
    /// Attach the streaming profiler ([`crate::profile`]): the run's
    /// [`crate::Profile`] comes back in [`crate::SimReport::profile`], and
    /// every other report field is the same either way. An explicit
    /// [`crate::Machine::set_trace_sink`] replaces the profiler.
    pub profile: bool,
}

impl MachineConfig {
    /// Checks machine-wide invariants that individual builder methods
    /// cannot see: the topology ceilings and the cache geometry. The
    /// memory system's sharer sets are `u128` bitmasks indexed by CPU id
    /// ([`crate::MAX_SIM_CPUS`]) and its node sets `u64` bitmasks indexed
    /// by node id ([`crate::MAX_SIM_NODES`]), so a topology beyond 128 CPUs
    /// or 64 nodes would corrupt coherence state or alias one node's
    /// traffic onto another's via wrapping shifts. [`crate::Machine::new`]
    /// calls this and panics with the message on error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending CPU or node count when the
    /// topology exceeds the simulator's limits, or the offending field of
    /// a degenerate cache geometry.
    pub fn validate(&self) -> Result<(), String> {
        let cpus = self.topology.num_cpus();
        if cpus > crate::MAX_SIM_CPUS {
            return Err(format!(
                "topology has {cpus} CPUs but the simulator supports at most {} \
                 (sharer sets are u128 bitmasks; shrink the topology or split \
                 the experiment across machines)",
                crate::MAX_SIM_CPUS
            ));
        }
        let nodes = self.topology.num_nodes();
        if nodes > crate::MAX_SIM_NODES {
            return Err(format!(
                "topology has {nodes} nodes but the simulator supports at most {} \
                 (node sets are u64 bitmasks; merge nodes or split the \
                 experiment across machines)",
                crate::MAX_SIM_NODES
            ));
        }
        let g = &self.geometry;
        if g.line_words == 0 || !g.line_words.is_power_of_two() {
            return Err(format!(
                "cache line of {} words is not a non-zero power of two \
                 (line addresses are derived by shifting word indices)",
                g.line_words
            ));
        }
        if g.sets == 0 || !g.sets.is_power_of_two() {
            return Err(format!(
                "cache with {} sets is not a non-zero power of two \
                 (set indices are derived by masking line addresses)",
                g.sets
            ));
        }
        if g.ways == 0 {
            return Err(String::from(
                "cache has zero ways — its capacity is smaller than one \
                 set, so no line could ever be cached (raise the capacity \
                 or lower the set count)",
            ));
        }
        Ok(())
    }

    /// A WildFire-like machine with `nodes` × `cpus_per_node` processors.
    pub fn wildfire(nodes: usize, cpus_per_node: usize) -> MachineConfig {
        MachineConfig {
            topology: Topology::symmetric(nodes, cpus_per_node),
            latency: LatencyModel::wildfire(),
            preemption: None,
            faults: None,
            protocol: ProtocolKind::Flat,
            geometry: CacheGeometry::default_geometry(),
            seed: 0x5EED,
            hot_locks: crate::DEFAULT_HOT_LOCKS,
            profile: false,
        }
    }

    /// A single-node UMA E6000 with `cpus` processors.
    pub fn e6000(cpus: usize) -> MachineConfig {
        MachineConfig {
            topology: Topology::single_node(cpus),
            latency: LatencyModel::e6000(),
            preemption: None,
            faults: None,
            protocol: ProtocolKind::Flat,
            geometry: CacheGeometry::default_geometry(),
            seed: 0x5EED,
            hot_locks: crate::DEFAULT_HOT_LOCKS,
            profile: false,
        }
    }

    /// Replaces the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> MachineConfig {
        self.latency = latency;
        self
    }

    /// Enables the preemption model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero `mean_gap` or
    /// `quantum`) — see [`PreemptionConfig::validate`].
    #[must_use]
    pub fn with_preemption(mut self, p: PreemptionConfig) -> MachineConfig {
        if let Err(msg) = p.validate() {
            panic!("invalid preemption config: {msg}");
        }
        self.preemption = Some(p);
        self
    }

    /// Enables fault injection.
    ///
    /// # Panics
    ///
    /// Panics if any enabled layer is degenerate for this machine's
    /// topology — see [`FaultConfig::validate`].
    #[must_use]
    pub fn with_faults(mut self, f: FaultConfig) -> MachineConfig {
        if let Err(msg) = f.validate(self.topology.num_nodes()) {
            panic!("invalid fault config: {msg}");
        }
        self.faults = Some(f);
        self
    }

    /// Selects the coherence protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> MachineConfig {
        self.protocol = protocol;
        self
    }

    /// Replaces the cache geometry (used by the set-associative
    /// protocols; the flat protocol ignores it). Degenerate geometries
    /// are rejected by [`MachineConfig::validate`] when the machine is
    /// built, not here — `from_capacity` legitimately produces zero-way
    /// geometries that callers may still inspect.
    #[must_use]
    pub fn with_geometry(mut self, geometry: CacheGeometry) -> MachineConfig {
        self.geometry = geometry;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> MachineConfig {
        self.seed = seed;
        self
    }

    /// Sets the dense/sparse boundary for per-lock statistics (see the
    /// `hot_locks` field). Lock indices `0..n` keep full traces; the rest
    /// are tallied compactly.
    #[must_use]
    pub fn with_hot_locks(mut self, n: usize) -> MachineConfig {
        self.hot_locks = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_ratios_match_paper_table() {
        assert!((LatencyModel::wildfire().nuca_ratio() - 6.0).abs() < 0.5);
        assert!((LatencyModel::dash().nuca_ratio() - 4.5).abs() < 0.5);
        assert!((LatencyModel::numa_q().nuca_ratio() - 10.0).abs() < 0.5);
        assert!((LatencyModel::e6000().nuca_ratio() - 1.0).abs() < 0.01);
        let cmp = LatencyModel::cmp().nuca_ratio();
        assert!((6.0..=10.0).contains(&cmp));
    }

    #[test]
    fn with_nuca_ratio_rescales() {
        let m = LatencyModel::wildfire().with_nuca_ratio(3.0);
        assert!((m.nuca_ratio() - 3.0).abs() < 0.1);
        assert_eq!(m.same_node_transfer, LatencyModel::wildfire().same_node_transfer);
    }

    #[test]
    #[should_panic(expected = "not a NUCA")]
    fn sub_unity_ratio_rejected() {
        let _ = LatencyModel::wildfire().with_nuca_ratio(0.5);
    }

    #[test]
    fn cmp_numa_has_three_latency_classes() {
        let m = LatencyModel::cmp_numa();
        assert!(m.same_chip_transfer < m.same_node_transfer);
        assert!(m.same_node_transfer < m.remote_transfer);
        // Chip-to-remote gap is a full NUCA ratio class of its own.
        assert!(m.remote_transfer / m.same_chip_transfer >= 10);
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = MachineConfig::wildfire(2, 4)
            .with_latency(LatencyModel::dash())
            .with_seed(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.latency, LatencyModel::dash());
        assert!(cfg.preemption.is_none());
        assert!(cfg.faults.is_none());
    }

    #[test]
    #[should_panic(expected = "invalid preemption config")]
    fn degenerate_preemption_rejected_at_build() {
        let _ = MachineConfig::wildfire(2, 2)
            .with_preemption(PreemptionConfig { mean_gap: 0, quantum: 100 });
    }

    #[test]
    #[should_panic(expected = "invalid fault config")]
    fn degenerate_faults_rejected_at_build() {
        use crate::faults::{FaultConfig, MigrationConfig};
        // Migration on a single-node machine can never change anything.
        let _ = MachineConfig::e6000(4)
            .with_faults(FaultConfig::none().with_migration(MigrationConfig {
                mean_gap: 1000,
                pause: 10,
            }));
    }

    #[test]
    fn cpu_ceiling_is_exactly_the_sharer_mask_width() {
        // 128 CPUs fill the u128 sharer bitmask exactly: still valid.
        assert!(MachineConfig::wildfire(2, 64).validate().is_ok());
        assert!(MachineConfig::e6000(128).validate().is_ok());
        // One more would shift past the mask (a wrapping shift in release,
        // i.e. silent sharer corruption): rejected with a clear message.
        let err = MachineConfig::wildfire(2, 65).validate().unwrap_err();
        assert!(err.contains("130"), "{err}");
        assert!(err.contains("128"), "{err}");
        let err = MachineConfig::e6000(129).validate().unwrap_err();
        assert!(err.contains("129"), "{err}");
    }

    #[test]
    fn node_ceiling_is_exactly_the_node_mask_width() {
        // 64 nodes fill the u64 node bitmask exactly: still valid.
        assert!(MachineConfig::wildfire(64, 1).validate().is_ok());
        assert!(MachineConfig::wildfire(64, 2).validate().is_ok());
        // A 65th node would alias its traffic onto node 0's: rejected with
        // a message naming the node count.
        let err = MachineConfig::wildfire(65, 1).validate().unwrap_err();
        assert!(err.contains("65 nodes"), "{err}");
        assert!(err.contains("64"), "{err}");
    }

    #[test]
    fn protocol_kind_round_trips_through_names() {
        for k in ProtocolKind::ALL {
            assert_eq!(k.name().parse::<ProtocolKind>().unwrap(), k);
        }
        let err = "moesi".parse::<ProtocolKind>().unwrap_err();
        assert!(err.contains("moesi"), "{err}");
        assert!(err.contains("flat, mesi or dragon"), "{err}");
        assert_eq!(ProtocolKind::default(), ProtocolKind::Flat);
    }

    #[test]
    fn geometry_capacity_and_builders() {
        let g = CacheGeometry::default_geometry();
        assert_eq!(g.capacity_lines(), 512);
        let g = CacheGeometry::from_capacity(8, 64, 1024);
        assert_eq!(g.ways, 16);
        let cfg = MachineConfig::wildfire(2, 4)
            .with_protocol(ProtocolKind::Mesi)
            .with_geometry(CacheGeometry { line_words: 4, sets: 16, ways: 2 });
        assert_eq!(cfg.protocol, ProtocolKind::Mesi);
        assert_eq!(cfg.geometry.capacity_lines(), 32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn degenerate_geometries_rejected() {
        let base = MachineConfig::wildfire(2, 2);
        // Non-power-of-two line size.
        let err = base
            .clone()
            .with_geometry(CacheGeometry { line_words: 6, sets: 64, ways: 8 })
            .validate()
            .unwrap_err();
        assert!(err.contains("line of 6 words"), "{err}");
        // Zero line words.
        assert!(base
            .clone()
            .with_geometry(CacheGeometry { line_words: 0, sets: 64, ways: 8 })
            .validate()
            .is_err());
        // Non-power-of-two / zero sets.
        let err = base
            .clone()
            .with_geometry(CacheGeometry { line_words: 8, sets: 48, ways: 8 })
            .validate()
            .unwrap_err();
        assert!(err.contains("48 sets"), "{err}");
        assert!(base
            .clone()
            .with_geometry(CacheGeometry { line_words: 8, sets: 0, ways: 8 })
            .validate()
            .is_err());
        // Capacity smaller than one set → zero ways.
        let err = base
            .clone()
            .with_geometry(CacheGeometry::from_capacity(8, 64, 32))
            .validate()
            .unwrap_err();
        assert!(err.contains("zero ways"), "{err}");
        assert!(err.contains("smaller than one"), "{err}");
    }

    #[test]
    fn local_memory_matches_paper_lmbench() {
        // 330 ns at 4 ns/cycle ≈ 82 cycles.
        let m = LatencyModel::wildfire();
        assert_eq!(crate::cycles_to_ns(m.local_memory), 328);
        // ~1700 ns remote.
        assert!((1600..1800).contains(&crate::cycles_to_ns(m.remote_transfer)));
    }
}
