//! Trace and metrics capture for the `--trace` / `--metrics-json` flags.
//!
//! One traced run of the new microbenchmark per lock algorithm, at the
//! Fig. 5 high-contention point (`critical_work = 1500`, the same
//! configuration Table 2 reports traffic for). The capture is dispatched
//! through [`runner::run_jobs`], so the emitted files are byte-identical
//! at any `--jobs` level: jobs may *execute* in any order, but results are
//! reassembled in [`hbo_locks::LockCatalog::paper()`] order before a byte is written.
//!
//! `--trace` writes Chrome trace-event JSON (load it at
//! <https://ui.perfetto.dev>): one process track per lock algorithm, one
//! thread track per simulated CPU, instant events for acquisitions,
//! releases, coherence transactions, throttle announcements and anger
//! episodes, and duration slices for backoff sleeps and preemptions.
//!
//! `--metrics-json` writes the aggregate statistics of the same runs:
//! latency histograms (wait and hold) with percentiles, per-node traffic
//! and acquisition breakdowns, and anger-episode counts.

use std::io;
use std::path::Path;

use hbo_locks::LockKind;
use nucasim::{cycles_to_ns, BackoffClass, Histogram, SimEvent, SimReport, TraceRecord};

use nuca_workloads::modern::run_modern_traced;

use crate::json::JsonWriter;
use crate::{fig5, runner, Scale};

/// One traced benchmark run: the algorithm, its aggregate report, and the
/// full event stream.
#[derive(Debug)]
pub struct Capture {
    /// Algorithm that ran.
    pub kind: LockKind,
    /// Aggregate simulation report.
    pub report: SimReport,
    /// Every trace event of the run, in emission order.
    pub records: Vec<TraceRecord>,
}

/// The `critical_work` level captured (the Table 2 operating point).
pub const CAPTURE_CRITICAL_WORK: u32 = 1500;

/// Runs one traced capture per lock algorithm, in [`hbo_locks::LockCatalog::paper()`] order.
pub fn capture(scale: Scale) -> Vec<Capture> {
    let jobs: Vec<_> = hbo_locks::LockCatalog::paper()
        .iter()
        .map(|&kind| {
            move || {
                let cfg = fig5::config(scale, kind, CAPTURE_CRITICAL_WORK);
                let (report, records) = run_modern_traced(&cfg);
                Capture {
                    kind,
                    report,
                    records,
                }
            }
        })
        .collect();
    runner::run_jobs(jobs)
}

/// Simulated cycles rendered as a trace timestamp (microseconds, with
/// nanosecond precision).
fn ts_us(cycles: u64) -> String {
    format!("{:.3}", cycles_to_ns(cycles) as f64 / 1_000.0)
}

/// Serializes `captures` as Chrome trace-event JSON.
pub fn chrome_trace_json(captures: &[Capture]) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.field_str("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_array();
    for (ki, cap) in captures.iter().enumerate() {
        let pid = ki as u64 + 1;
        // Track naming: one "process" per algorithm, one "thread" per CPU.
        w.begin_object();
        w.field_str("name", "process_name");
        w.field_str("ph", "M");
        w.field_u64("pid", pid);
        w.key("args");
        w.begin_object();
        w.field_str("name", cap.kind.as_str());
        w.end_object();
        w.end_object();
        let cpus = cap.report.finish_times.len();
        for cpu in 0..cpus {
            w.begin_object();
            w.field_str("name", "thread_name");
            w.field_str("ph", "M");
            w.field_u64("pid", pid);
            w.field_u64("tid", cpu as u64);
            w.key("args");
            w.begin_object();
            w.field_str("name", &format!("cpu {cpu}"));
            w.end_object();
            w.end_object();
        }
        let mut counters = CounterTracks::default();
        for rec in &cap.records {
            write_event(&mut w, pid, rec);
            counters.observe(&mut w, pid, rec);
        }
        counters.finish(&mut w, pid);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Perfetto counter tracks derived from the event stream, so aggregate
/// trends line up with the instant/slice events on one timeline:
///
/// * **waiters** — a queue-depth proxy: CPUs between `AcquireStart` and
///   their `LockAcquire` (emitted on every change);
/// * **global txns** — cumulative interconnect-crossing transactions per
///   node (sampled every [`CounterTracks::TRAFFIC_SAMPLE`] global txns —
///   per-txn counter points would double the trace size);
/// * **anger** — cumulative HBO_GT_SD `GET_ANGRY` episodes (emitted per
///   episode; they are rare).
#[derive(Debug, Default)]
struct CounterTracks {
    waiters: u64,
    /// Cumulative global transactions per node (grown on demand).
    node_global: Vec<u64>,
    /// Global txns since the traffic track was last sampled.
    unsampled: u64,
    anger: u64,
    last_at: u64,
}

impl CounterTracks {
    const TRAFFIC_SAMPLE: u64 = 256;

    fn counter(w: &mut JsonWriter, pid: u64, name: &str, at: u64) {
        w.begin_object();
        w.field_str("name", name);
        w.field_str("ph", "C");
        w.field_raw("ts", &ts_us(at));
        w.field_u64("pid", pid);
        w.key("args");
        w.begin_object();
    }

    fn emit_waiters(&self, w: &mut JsonWriter, pid: u64, at: u64) {
        Self::counter(w, pid, "waiters", at);
        w.field_u64("waiting", self.waiters);
        w.end_object();
        w.end_object();
    }

    fn emit_traffic(&self, w: &mut JsonWriter, pid: u64, at: u64) {
        Self::counter(w, pid, "global txns", at);
        for (node, &n) in self.node_global.iter().enumerate() {
            w.field_u64(&format!("node{node}"), n);
        }
        w.end_object();
        w.end_object();
    }

    fn emit_anger(&self, w: &mut JsonWriter, pid: u64, at: u64) {
        Self::counter(w, pid, "anger", at);
        w.field_u64("episodes", self.anger);
        w.end_object();
        w.end_object();
    }

    fn observe(&mut self, w: &mut JsonWriter, pid: u64, rec: &TraceRecord) {
        self.last_at = rec.at;
        match rec.event {
            SimEvent::AcquireStart { .. } => {
                self.waiters += 1;
                self.emit_waiters(w, pid, rec.at);
            }
            SimEvent::LockAcquire { .. } => {
                // Acquisitions recorded outside a traced acquire window
                // (none today) would underflow; saturate defensively.
                self.waiters = self.waiters.saturating_sub(1);
                self.emit_waiters(w, pid, rec.at);
            }
            SimEvent::CoherenceTxn { node, global: true, .. } => {
                if self.node_global.len() <= node.index() {
                    self.node_global.resize(node.index() + 1, 0);
                }
                self.node_global[node.index()] += 1;
                self.unsampled += 1;
                if self.unsampled >= Self::TRAFFIC_SAMPLE {
                    self.unsampled = 0;
                    self.emit_traffic(w, pid, rec.at);
                }
            }
            SimEvent::GotAngry { .. } => {
                self.anger += 1;
                self.emit_anger(w, pid, rec.at);
            }
            _ => {}
        }
    }

    /// Emits the final counter values so every track ends at the run's
    /// last timestamp (and sub-sample traffic remainders are not lost).
    fn finish(&mut self, w: &mut JsonWriter, pid: u64) {
        if !self.node_global.is_empty() {
            self.emit_traffic(w, pid, self.last_at);
        }
        if self.anger > 0 {
            self.emit_anger(w, pid, self.last_at);
        }
    }
}

/// Writes one [`TraceRecord`] as a trace event object.
fn write_event(w: &mut JsonWriter, pid: u64, rec: &TraceRecord) {
    let instant = |w: &mut JsonWriter, name: &str, cpu: usize| {
        w.begin_object();
        w.field_str("name", name);
        w.field_str("ph", "i");
        w.field_str("s", "t");
        w.field_raw("ts", &ts_us(rec.at));
        w.field_u64("pid", pid);
        w.field_u64("tid", cpu as u64);
    };
    let span = |w: &mut JsonWriter, name: &str, cpu: usize, cycles: u64| {
        w.begin_object();
        w.field_str("name", name);
        w.field_str("ph", "X");
        w.field_raw("ts", &ts_us(rec.at));
        w.field_raw("dur", &ts_us(cycles));
        w.field_u64("pid", pid);
        w.field_u64("tid", cpu as u64);
    };
    match rec.event {
        SimEvent::AcquireStart { lock, cpu, node } => {
            instant(w, "AcquireStart", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("lock", lock as u64);
            w.field_u64("node", node.index() as u64);
            w.end_object();
        }
        SimEvent::LockAcquire { lock, cpu, node } => {
            instant(w, "LockAcquire", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("lock", lock as u64);
            w.field_u64("node", node.index() as u64);
            w.end_object();
        }
        SimEvent::LockRelease { lock, cpu, node } => {
            instant(w, "LockRelease", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("lock", lock as u64);
            w.field_u64("node", node.index() as u64);
            w.end_object();
        }
        SimEvent::BackoffSleep {
            cpu,
            node,
            cycles,
            class,
        } => {
            span(w, "BackoffSleep", cpu.index(), cycles);
            w.key("args");
            w.begin_object();
            w.field_str(
                "class",
                match class {
                    BackoffClass::Local => "local",
                    BackoffClass::Remote => "remote",
                },
            );
            w.field_u64("node", node.index() as u64);
            w.end_object();
        }
        SimEvent::CoherenceTxn {
            cpu,
            node,
            home,
            global,
        } => {
            instant(w, "CoherenceTxn", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("node", node.index() as u64);
            w.field_u64("home", home.index() as u64);
            w.key("global");
            w.boolean(global);
            w.end_object();
        }
        SimEvent::Preempt { cpu, cycles } => {
            span(w, "Preempt", cpu.index(), cycles);
        }
        SimEvent::Migrate { cpu, from, to } => {
            instant(w, "Migrate", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("from", from.index() as u64);
            w.field_u64("to", to.index() as u64);
            w.end_object();
        }
        SimEvent::GotAngry { cpu, node } => {
            instant(w, "GotAngry", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("node", node.index() as u64);
            w.end_object();
        }
        SimEvent::ThrottleSpin { cpu, node } => {
            instant(w, "ThrottleSpin", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("node", node.index() as u64);
            w.end_object();
        }
        SimEvent::Upgrade {
            cpu,
            node,
            home,
            invalidated,
        } => {
            instant(w, "Upgrade", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("node", node.index() as u64);
            w.field_u64("home", home.index() as u64);
            w.field_u64("invalidated", invalidated as u64);
            w.end_object();
        }
        SimEvent::Eviction {
            cpu,
            node,
            home,
            dirty,
        } => {
            instant(w, "Eviction", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("node", node.index() as u64);
            w.field_u64("home", home.index() as u64);
            w.key("dirty");
            w.boolean(dirty);
            w.end_object();
        }
        SimEvent::UpdateBroadcast {
            cpu,
            node,
            home,
            sharers,
        } => {
            instant(w, "UpdateBroadcast", cpu.index());
            w.key("args");
            w.begin_object();
            w.field_u64("node", node.index() as u64);
            w.field_u64("home", home.index() as u64);
            w.field_u64("sharers", sharers as u64);
            w.end_object();
        }
    }
    w.end_object();
}

/// Serializes a latency histogram (cycles in, nanoseconds out). Shared
/// with the profiler's `--profile` document (`crate::profiler`).
pub(crate) fn write_histogram(w: &mut JsonWriter, h: &Histogram) {
    w.begin_object();
    w.field_u64("count", h.count());
    w.field_u64("max_ns", cycles_to_ns(h.max()));
    if let Some(mean) = h.mean() {
        w.field_raw("mean_ns", &format!("{:.1}", mean * 4.0));
    }
    for (label, p) in [("p50_ns", 50.0), ("p90_ns", 90.0), ("p99_ns", 99.0)] {
        if let Some(v) = h.percentile(p) {
            w.field_u64(label, cycles_to_ns(v));
        }
    }
    w.key("buckets");
    w.begin_array();
    for (upper, n) in h.nonzero_buckets() {
        w.begin_array();
        // 1 cycle = 4 ns exactly; saturate for the open-ended top bucket.
        w.number_u64(upper.saturating_mul(4));
        w.number_u64(n);
        w.end_array();
    }
    w.end_array();
    w.end_object();
}

/// Serializes the aggregate metrics of `captures`.
pub fn metrics_json(scale: Scale, captures: &[Capture]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("scale", scale.pick("full", "fast"));
    w.field_u64("critical_work", u64::from(CAPTURE_CRITICAL_WORK));
    w.key("locks");
    w.begin_array();
    for cap in captures {
        let r = &cap.report;
        w.begin_object();
        w.field_str("kind", cap.kind.as_str());
        w.field_raw("simulated_seconds", &format!("{:.6}", r.seconds()));
        w.key("finished");
        w.boolean(r.finished_all);
        w.key("traffic");
        w.begin_object();
        w.field_u64("local", r.traffic.local);
        w.field_u64("global", r.traffic.global);
        w.end_object();
        w.key("node_traffic");
        w.begin_array();
        for t in &r.node_traffic {
            w.begin_object();
            w.field_u64("local", t.local);
            w.field_u64("global", t.global);
            w.end_object();
        }
        w.end_array();
        w.field_u64("anger_episodes", r.anger_episodes);
        w.field_u64("preemptions", r.preemptions);
        w.field_u64("migrations", r.migrations);
        // Protocol-level counters, tallied from the event stream (the
        // aggregate report predates the coherence layer and does not
        // carry them). All three are zero under the flat protocol.
        let (mut upgrades, mut evictions, mut update_broadcasts) = (0u64, 0u64, 0u64);
        for rec in &cap.records {
            match rec.event {
                SimEvent::Upgrade { .. } => upgrades += 1,
                SimEvent::Eviction { .. } => evictions += 1,
                SimEvent::UpdateBroadcast { .. } => update_broadcasts += 1,
                _ => {}
            }
        }
        w.field_u64("upgrades", upgrades);
        w.field_u64("evictions", evictions);
        w.field_u64("update_broadcasts", update_broadcasts);
        w.field_u64("trace_events", cap.records.len() as u64);
        w.key("locks");
        w.begin_array();
        for trace in &r.lock_traces {
            w.begin_object();
            w.field_u64("acquisitions", trace.acquisitions);
            w.field_u64("node_handoffs", trace.node_handoffs);
            if let Some(h) = trace.handoff_ratio() {
                w.field_raw("handoff_ratio", &format!("{h:.4}"));
            }
            w.key("node_acquires");
            w.begin_array();
            for &n in &trace.node_acquires {
                w.number_u64(n);
            }
            w.end_array();
            w.key("wait");
            write_histogram(&mut w, &trace.wait);
            w.key("hold");
            write_histogram(&mut w, &trace.hold);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Captures once and writes the requested artifacts.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_captures(
    scale: Scale,
    trace_path: Option<&Path>,
    metrics_path: Option<&Path>,
) -> io::Result<()> {
    let captures = capture(scale);
    if let Some(path) = trace_path {
        std::fs::write(path, chrome_trace_json(&captures))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, metrics_json(scale, &captures))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fast_captures() -> Vec<Capture> {
        capture(Scale::Fast)
    }

    #[test]
    fn capture_covers_all_kinds_with_monotone_cpu_timestamps() {
        let caps = fast_captures();
        assert_eq!(caps.len(), hbo_locks::LockCatalog::paper().len());
        for cap in &caps {
            assert!(cap.report.finished_all, "{} did not finish", cap.kind);
            assert!(!cap.records.is_empty(), "{} traced nothing", cap.kind);
            let mut last_at: HashMap<usize, u64> = HashMap::new();
            for rec in &cap.records {
                let cpu = match rec.event {
                    SimEvent::AcquireStart { cpu, .. }
                    | SimEvent::LockAcquire { cpu, .. }
                    | SimEvent::LockRelease { cpu, .. }
                    | SimEvent::BackoffSleep { cpu, .. }
                    | SimEvent::CoherenceTxn { cpu, .. }
                    | SimEvent::Preempt { cpu, .. }
                    | SimEvent::Migrate { cpu, .. }
                    | SimEvent::GotAngry { cpu, .. }
                    | SimEvent::ThrottleSpin { cpu, .. }
                    | SimEvent::Upgrade { cpu, .. }
                    | SimEvent::Eviction { cpu, .. }
                    | SimEvent::UpdateBroadcast { cpu, .. } => cpu.index(),
                };
                let prev = last_at.entry(cpu).or_insert(0);
                assert!(
                    rec.at >= *prev,
                    "{}: cpu {cpu} time went backwards ({} < {prev})",
                    cap.kind,
                    rec.at
                );
                *prev = rec.at;
            }
        }
    }

    #[test]
    fn chrome_trace_has_expected_events() {
        let caps = fast_captures();
        let json = chrome_trace_json(&caps);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for name in ["LockAcquire", "LockRelease", "CoherenceTxn", "BackoffSleep"] {
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "missing {name} events"
            );
        }
        // The HBO_GT_SD capture produces anger episodes at this contention
        // level; HBO_GT announces throttled spinners.
        assert!(json.contains("\"name\":\"GotAngry\""), "no GotAngry events");
        assert!(
            json.contains("\"name\":\"ThrottleSpin\""),
            "no ThrottleSpin events"
        );
        // One process track per algorithm.
        for &kind in hbo_locks::LockCatalog::paper() {
            assert!(json.contains(&format!("\"name\":\"{}\"", kind.as_str())));
        }
        // Counter tracks ride along on the same timeline.
        assert!(json.contains("\"ph\":\"C\""), "no counter events");
        for track in ["waiters", "global txns", "anger"] {
            assert!(
                json.contains(&format!("\"name\":\"{track}\"")),
                "missing {track} counter track"
            );
        }
    }

    #[test]
    fn metrics_json_reports_percentiles_per_kind() {
        let caps = fast_captures();
        let json = metrics_json(Scale::Fast, &caps);
        for &kind in hbo_locks::LockCatalog::paper() {
            assert!(json.contains(&format!("\"kind\": \"{}\"", kind.as_str())));
        }
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"handoff_ratio\""));
        assert!(json.contains("\"anger_episodes\""));
    }

    #[test]
    fn tracing_does_not_change_results() {
        // The tentpole invariant: a traced run and an untraced run of the
        // same configuration produce identical simulation results.
        let cfg = fig5::config(Scale::Fast, LockKind::HboGtSd, CAPTURE_CRITICAL_WORK);
        let (traced, records) = run_modern_traced(&cfg);
        let (plain, _) = nuca_workloads::modern::run_modern_raw(&cfg);
        assert!(!records.is_empty());
        assert_eq!(traced.end_time, plain.end_time);
        assert_eq!(traced.traffic, plain.traffic);
        assert_eq!(
            traced.lock_traces[0].acquisitions,
            plain.lock_traces[0].acquisitions
        );
    }
}
