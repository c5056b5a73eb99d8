//! nuca-prof, harness side: the `handoff` artifact and the `--profile`
//! JSON serialization.
//!
//! The `handoff` artifact sweeps the Fig. 5 configuration (the new
//! microbenchmark at the Table 2 operating point,
//! `critical_work = 1500`) across lock kind × CPU count and reports the
//! metrics the paper argues from but never tabulates directly: handoff
//! locality (local vs. remote handovers, the node-handoff rate, starved
//! CPUs — all from the run's `SimStats` lock trace — and node-residency
//! run lengths) and the acquire-latency phase split (spin vs.
//! backoff-by-class), with the dominant phase as a critical-path label.
//! The run lengths and the phase split need the ordered event stream, so
//! every run has the streaming profiler ([`nucasim::profile`]) attached.
//!
//! `--profile <out.json>` works on *any* artifact: it turns on the
//! process-global profiling registry
//! ([`nucasim::profile::enable_global_profiling`]) so every machine the
//! requested artifacts run is observed, and [`profile_json`] serializes
//! the label-keyed merged result. Profiling only observes, so artifact
//! TSVs are byte-identical with or without it.

use hbo_locks::LockKind;
use nuca_workloads::modern::ModernConfig;
use nucasim::{LabelProfile, MachineConfig};

use crate::json::JsonWriter;
use crate::report::{fmt_ratio, Report};
use crate::tracecap::CAPTURE_CRITICAL_WORK;
use crate::{tracecap, Cell, Cells, Scale, Settings};

/// Version stamp of the `--profile` JSON document (bump on any
/// field/shape change; ci.sh validates against it). v2 added the
/// per-CPU acquisition counts behind the starved-CPU column.
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// CPUs-per-node steps of the handoff sweep (×2 nodes = total CPUs; the
/// full sweep tops out at the paper's 28-processor WildFire).
fn per_node_sweep(scale: Scale) -> Vec<usize> {
    scale.pick(vec![2, 6, 10, 14], vec![2, 4])
}

/// The Fig. 5 configuration at `per_node` CPUs per node (cf.
/// [`crate::fig5::config`], which fixes `per_node` by scale).
fn config(settings: &Settings, scale: Scale, kind: LockKind, per_node: usize) -> ModernConfig {
    ModernConfig {
        kind,
        threads: per_node * 2,
        iterations: scale.pick(60, 20),
        critical_work: CAPTURE_CRITICAL_WORK,
        ..settings.modern(MachineConfig::wildfire(2, per_node))
    }
}

/// The handoff sweep's configs, kind-major.
fn grid(settings: &Settings, scale: Scale) -> Vec<ModernConfig> {
    let per_nodes = per_node_sweep(scale);
    let row = |kind| per_nodes.iter().map(move |&pn| config(settings, scale, kind, pn));
    settings.kinds.iter().flat_map(|&kind| row(kind)).collect()
}

/// The cells the `handoff` artifact reads: profiled runs of its grid.
pub fn cells(settings: &Settings, scale: Scale) -> Vec<Cell> {
    grid(settings, scale).into_iter().map(Cell::Profiled).collect()
}

/// One percentage cell, one decimal (integer-derived, so TSVs stay
/// byte-identical across job counts and schedulers).
fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}", part as f64 * 100.0 / total as f64)
    }
}

/// Runs the handoff-locality × phase-breakdown sweep.
pub fn run_handoff(settings: &Settings, scale: Scale, cells: &Cells) -> Report {
    let mut report = Report::new(
        "handoff",
        "Handoff locality and acquire-phase breakdown, new microbenchmark \
         (critical_work=1500)",
        &[
            "Lock Type",
            "CPUs",
            "Acquires",
            "Local HO",
            "Remote HO",
            "Remote Rate",
            "Starved CPUs",
            "Mean Run",
            "Spin %",
            "Backoff Local %",
            "Backoff Remote %",
            "Coh Local",
            "Coh Global",
            "Critical Path",
        ],
    );

    for cfg in grid(settings, scale) {
        let cell = cells.profiled(&cfg);
        let (kind, pn) = (cfg.kind, cfg.threads / 2);
        let (trace, lock) = (&cell.trace, &cell.lock);
        let wait = trace.wait.sum();
        report.push_row(vec![
            kind.as_str().to_owned(),
            (pn * 2).to_string(),
            trace.acquisitions.to_string(),
            // The first acquisition of the run is not a handover.
            trace.acquisitions.saturating_sub(trace.node_handoffs + 1).to_string(),
            trace.node_handoffs.to_string(),
            fmt_ratio(trace.handoff_ratio()),
            trace.starved_cpus(pn * 2).to_string(),
            match lock.mean_residency_run() {
                Some(m) => format!("{m:.1}"),
                None => "-".to_owned(),
            },
            pct(lock.spin_cycles, wait),
            pct(lock.backoff_local_cycles, wait),
            pct(lock.backoff_remote_cycles, wait),
            lock.coh_local.to_string(),
            lock.coh_global.to_string(),
            lock.critical_path().to_owned(),
        ]);
    }
    report.push_note(
        "remote rate = node handoffs / handover opportunities (lower = more \
         node-local); mean run = consecutive same-node acquisitions",
    );
    report.push_note(
        "starved CPUs = contenders that never acquired once: a low remote \
         rate is only locality if this column is 0 — in a bounded window \
         TATAS posts near-0.00 rates by locking whole CPUs out; here every \
         thread has a fixed quota, so 0 certifies the starvation stayed \
         transient",
    );
    report.push_note(
        "paper: the HBO family trades longer backoff phases for node-local \
         handoff runs; queue locks hand off FIFO, blind to node locality",
    );
    report
}

/// Serializes label-keyed merged accounts (the `--profile` document): the
/// handoff counts, histograms and counters from the merged `SimStats`,
/// the residency runs and phase split from the stream-only profile.
pub fn profile_json(profiles: &[(String, LabelProfile)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("version", PROFILE_SCHEMA_VERSION);
    w.key("labels");
    w.begin_array();
    for (label, p) in profiles {
        w.begin_object();
        w.field_str("label", label);
        w.field_u64("events", p.profile.events);
        w.field_u64("anger_episodes", p.anger_episodes);
        w.field_u64("throttle_spins", p.throttle_spins);
        w.field_u64("preemptions", p.preemptions);
        w.field_u64("migrations", p.migrations);
        w.field_u64("upgrades", p.upgrades);
        w.field_u64("evictions", p.evictions);
        w.field_u64("update_broadcasts", p.update_broadcasts);
        w.key("locks");
        w.begin_array();
        let no_stream = nucasim::LockProfile::default();
        for (i, (trace, chains)) in p.locks().enumerate() {
            let lock = p.profile.locks.get(i).unwrap_or(&no_stream);
            w.begin_object();
            w.field_u64("acquires", trace.acquisitions);
            w.field_u64(
                "local_handoffs",
                trace.acquisitions - trace.node_handoffs - chains,
            );
            w.field_u64("remote_handoffs", trace.node_handoffs);
            w.field_u64("chains", chains);
            if let Some(r) = trace.handoff_ratio() {
                w.field_raw("remote_handoff_rate", &format!("{r:.4}"));
            }
            w.key("node_acquires");
            w.begin_array();
            for &n in &trace.node_acquires {
                w.number_u64(n);
            }
            w.end_array();
            w.key("cpu_acquires");
            w.begin_array();
            for &n in &trace.cpu_acquires {
                w.number_u64(n);
            }
            w.end_array();
            w.key("residency_runs");
            write_run_histogram(&mut w, &lock.residency_runs);
            w.key("wait");
            tracecap::write_histogram(&mut w, &trace.wait);
            w.key("phases");
            w.begin_object();
            w.field_u64("wait_cycles", trace.wait.sum());
            w.field_u64("spin_cycles", lock.spin_cycles);
            w.field_u64("spin_clamped", lock.spin_clamped);
            w.field_u64("backoff_local_cycles", lock.backoff_local_cycles);
            w.field_u64("backoff_remote_cycles", lock.backoff_remote_cycles);
            w.field_u64("coherence_local", lock.coh_local);
            w.field_u64("coherence_global", lock.coh_global);
            w.field_str("critical_path", lock.critical_path());
            w.end_object();
            w.field_u64("holds", trace.hold.count());
            w.field_u64("hold_cycles", trace.hold.sum());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Serializes a run-length histogram (dimensionless counts, unlike the
/// latency histograms `tracecap` renders in nanoseconds).
fn write_run_histogram(w: &mut JsonWriter, h: &nucasim::Histogram) {
    w.begin_object();
    w.field_u64("count", h.count());
    w.field_u64("max", h.max());
    if let Some(mean) = h.mean() {
        w.field_raw("mean", &format!("{mean:.2}"));
    }
    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        if let Some(v) = h.percentile(p) {
            w.field_u64(label, v);
        }
    }
    w.key("buckets");
    w.begin_array();
    for (upper, n) in h.nonzero_buckets() {
        w.begin_array();
        w.number_u64(upper);
        w.number_u64(n);
        w.end_array();
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_workloads::modern::run_modern_profiled;
    use nucasim::{Profile, SimReport};

    fn cell(kind: LockKind) -> (SimReport, Profile) {
        run_modern_profiled(&config(&Settings::default(), Scale::Fast, kind, 4))
    }

    #[test]
    fn handoff_grid_covers_all_kinds_and_cpu_counts() {
        let report = crate::fast(cells, run_handoff);
        assert_eq!(report.rows(), hbo_locks::LockCatalog::kinds().len() * 2);
        let hbo = report.row_by_key("HBO_GT_SD").unwrap();
        assert_ne!(hbo[5], "-", "HBO_GT_SD remote rate missing");
        // The starved-CPU column parses for every row, and the FIFO queue
        // locks — which structurally cannot starve — report zero.
        for key in ["MCS", "TICKET", "TWA"] {
            let row = report.row_by_key(key).unwrap();
            assert_eq!(row[6], "0", "{key} starved a CPU under FIFO order");
        }
    }

    #[test]
    fn hbo_family_is_more_node_local_than_queue_and_tatas_locks() {
        // The artifact's headline, checked at the sweep's top CPU count:
        // NUCA-aware backoff turns migratory handoffs into node-local
        // runs; FIFO queue locks and TATAS cannot.
        let rate = |kind| {
            let (sim, _) = cell(kind);
            sim.lock_traces[0]
                .handoff_ratio()
                .expect("enough acquires for a rate")
        };
        let hbo_gt_sd = rate(LockKind::HboGtSd);
        let hbo = rate(LockKind::Hbo);
        let mcs = rate(LockKind::Mcs);
        let tatas = rate(LockKind::Tatas);
        assert!(
            hbo_gt_sd < mcs && hbo < mcs,
            "HBO_GT_SD {hbo_gt_sd:.3} / HBO {hbo:.3} vs MCS {mcs:.3}"
        );
        assert!(
            hbo_gt_sd < tatas && hbo < tatas,
            "HBO_GT_SD {hbo_gt_sd:.3} / HBO {hbo:.3} vs TATAS {tatas:.3}"
        );
    }

    #[test]
    fn phase_split_accounts_every_wait_cycle() {
        let (sim, profile) = cell(LockKind::HboGtSd);
        let lock = &profile.locks[0];
        let wait = sim.lock_traces[0].wait.sum();
        // spin is the per-window residual (wait − backoff, saturating), so
        // summed spin can never exceed summed wait.
        assert!(lock.spin_cycles <= wait, "residual spin exceeds the wait total");
        assert!(wait > 0);
        assert!(
            lock.backoff_local_cycles + lock.backoff_remote_cycles > 0,
            "HBO_GT_SD never backed off under contention"
        );
    }

    #[test]
    fn profile_json_has_schema_fields() {
        let (sim, profile) = cell(LockKind::HboGt);
        let mut account = LabelProfile::default();
        account.add(&sim, &profile);
        account.add(&sim, &profile);
        let json = profile_json(&[("HBO_GT".to_owned(), account)]);
        for key in [
            "\"version\"",
            "\"labels\"",
            "\"label\"",
            "\"remote_handoffs\"",
            "\"cpu_acquires\"",
            "\"residency_runs\"",
            "\"phases\"",
            "\"critical_path\"",
        ] {
            assert!(json.contains(key), "profile JSON missing {key}");
        }
        assert!(json.contains(&format!("\"version\": {PROFILE_SCHEMA_VERSION}")));
        // Two merged machines are two handoff chains.
        let t = &sim.lock_traces[0];
        let local = 2 * (t.acquisitions - t.node_handoffs - 1);
        assert!(json.contains("\"chains\": 2"));
        assert!(json.contains(&format!("\"local_handoffs\": {local}")));
    }

    /// Full-scale memory-budget regression (the satellite guarantee):
    /// profiling the Fig. 5 high-contention cell at paper scale folds
    /// millions of events into a profile whose footprint stays a few
    /// kilobytes. Slow in debug builds; ci.sh runs it in release via
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "full-scale; ci.sh runs it in release"]
    fn full_scale_profile_memory_stays_bounded() {
        let (_, profile) = run_modern_profiled(&config(
            &Settings::default(),
            Scale::Full,
            LockKind::HboGtSd,
            14,
        ));
        assert!(
            profile.events > 500_000,
            "expected a full-scale event volume, got {}",
            profile.events
        );
        assert!(
            profile.approx_bytes() < 16 * 1024,
            "streaming profile footprint grew to {} bytes over {} events",
            profile.approx_bytes(),
            profile.events
        );
    }
}
