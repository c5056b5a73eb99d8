//! Structured tracing: typed simulation events delivered to a sink.
//!
//! The engine, memory system and lock drivers emit [`SimEvent`]s with
//! simulated timestamps whenever a sink is installed on the machine
//! ([`crate::Machine::set_trace_sink`]). With no sink installed — the
//! default — every emission site is a single `Option` branch, so the hot
//! path cost is unmeasurable and simulation results are bit-identical
//! with tracing on or off (tracing only *observes*).

use nuca_topology::{CpuId, NodeId};

use std::fmt;
use std::sync::{Arc, Mutex};

/// Duration class of a backoff sleep, mirroring the HBO backoff pair: the
/// cheap class used when the lock is node-local, the expensive one when it
/// is held remotely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffClass {
    /// Backoff chosen because the lock was free or held within the
    /// spinner's own node (the paper's `BACKOFF_BASE/CAP`).
    Local,
    /// Backoff chosen because the lock was held on a remote node (the
    /// paper's `BACKOFF_REMOTE_BASE/CAP`).
    Remote,
}

/// One typed simulation event. All fields are simulated quantities;
/// timestamps travel separately (see [`TraceSink::record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A CPU began a lock acquisition (the first acquire step). Everything
    /// between this event and the matching [`SimEvent::LockAcquire`] on the
    /// same CPU is acquire latency, which the streaming profiler
    /// ([`crate::profile`]) decomposes into spin, backoff and coherence
    /// phases.
    AcquireStart {
        /// Workload-chosen dense lock index.
        lock: usize,
        /// The acquiring CPU.
        cpu: CpuId,
        /// The acquiring CPU's node.
        node: NodeId,
    },
    /// A lock acquisition succeeded.
    LockAcquire {
        /// Workload-chosen dense lock index.
        lock: usize,
        /// The new holder.
        cpu: CpuId,
        /// The new holder's node.
        node: NodeId,
    },
    /// A lock holder began its release.
    LockRelease {
        /// Workload-chosen dense lock index.
        lock: usize,
        /// The releasing holder.
        cpu: CpuId,
        /// The releasing holder's node.
        node: NodeId,
    },
    /// A spinner went to sleep for a bounded backoff period.
    BackoffSleep {
        /// The sleeping CPU.
        cpu: CpuId,
        /// Its node.
        node: NodeId,
        /// Sleep length in cycles.
        cycles: u64,
        /// Which backoff class chose the delay.
        class: BackoffClass,
    },
    /// One coherence transaction (fetch, invalidation or refill).
    CoherenceTxn {
        /// The CPU on whose behalf the transaction ran.
        cpu: CpuId,
        /// The node the transaction is attributed to.
        node: NodeId,
        /// The accessed line's home node.
        home: NodeId,
        /// Whether the transaction crossed the interconnect.
        global: bool,
    },
    /// The OS preempted a CPU (its next resume slid past the window).
    Preempt {
        /// The preempted CPU.
        cpu: CpuId,
        /// How many cycles the resume was delayed.
        cycles: u64,
    },
    /// An HBO_GT_SD spinner's patience ran out: it reset its backoff to
    /// the cheap class and may have throttled a remote node (the paper's
    /// `GET_ANGRY` episode).
    GotAngry {
        /// The CPU that got angry.
        cpu: CpuId,
        /// Its node.
        node: NodeId,
    },
    /// An HBO_GT spinner announced itself as remotely spinning, making
    /// itself eligible for traffic throttling.
    ThrottleSpin {
        /// The announcing CPU.
        cpu: CpuId,
        /// Its node.
        node: NodeId,
    },
    /// An injected fault migrated a CPU's thread to another node
    /// ([`crate::MigrationConfig`]).
    Migrate {
        /// The migrated CPU.
        cpu: CpuId,
        /// Node it left.
        from: NodeId,
        /// Node it now runs on.
        to: NodeId,
    },
    /// A MESI writer already sharing a line upgraded it to exclusive by
    /// invalidating every other copy (only the set-associative protocols
    /// emit this; the flat model folds upgrades into plain writes).
    Upgrade {
        /// The upgrading writer.
        cpu: CpuId,
        /// Its node.
        node: NodeId,
        /// The line's home node.
        home: NodeId,
        /// How many other nodes held a copy that got invalidated.
        invalidated: u32,
    },
    /// A set-associative cache evicted a line to make room (LRU victim).
    Eviction {
        /// The CPU whose cache evicted.
        cpu: CpuId,
        /// Its node.
        node: NodeId,
        /// The *victim* line's home node (where a dirty line writes back).
        home: NodeId,
        /// Whether the victim was dirty (modified) and paid a writeback.
        dirty: bool,
    },
    /// A Dragon writer broadcast the new value to every sharer of the
    /// line (update-based coherence: copies stay valid instead of being
    /// invalidated).
    UpdateBroadcast {
        /// The writing CPU.
        cpu: CpuId,
        /// Its node.
        node: NodeId,
        /// The line's home node.
        home: NodeId,
        /// How many other nodes received the update.
        sharers: u32,
    },
}

/// Receives timestamped [`SimEvent`]s from a running machine.
///
/// Implementations must be cheap: the engine calls [`TraceSink::record`]
/// inline on the simulation path. `at` is the simulated time in cycles
/// (convert with [`crate::cycles_to_ns`]); events for one CPU arrive in
/// nondecreasing `at` order. The [`Any`](std::any::Any) supertrait lets
/// the engine recognize the profiler a profiled machine installs (see
/// [`crate::MachineConfig::profile`]).
pub trait TraceSink: std::any::Any {
    /// Records `event` observed at simulated cycle `at`.
    fn record(&mut self, at: u64, event: SimEvent);
}

impl fmt::Debug for dyn TraceSink + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<trace sink>")
    }
}

/// One buffered event: the simulated cycle and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event, in cycles.
    pub at: u64,
    /// The event.
    pub event: SimEvent,
}

/// A [`TraceSink`] that buffers every event in memory.
///
/// The log is a shared handle: clone it, box one clone into the machine
/// with [`crate::Machine::set_trace_sink`], and read the records back from
/// the other clone after the run — no downcasting needed.
///
/// # Memory contract
///
/// The log grows by `size_of::<TraceRecord>()` bytes (a few tens of bytes)
/// **per event**, and a contended full-scale run emits millions of events
/// per simulated lock — buffering is only appropriate for runs whose trace
/// is about to be serialized whole (the `--trace` capture). Analyses that
/// only need aggregates should use the streaming [`crate::profile`] sinks,
/// whose footprint is bounded by machine shape instead of event count.
///
/// ```
/// use nucasim::{EventLog, Machine, MachineConfig};
///
/// let log = EventLog::new();
/// let mut machine = Machine::new(MachineConfig::wildfire(2, 2));
/// machine.set_trace_sink(Box::new(log.clone()));
/// // ... add programs, run ...
/// let records = log.take();
/// assert!(records.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    records: Arc<Mutex<Vec<TraceRecord>>>,
}

impl EventLog {
    /// An empty, unbounded log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.records.lock().expect("event log poisoned").len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves the buffered records out, leaving the log empty.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock().expect("event log poisoned"))
    }
}

impl TraceSink for EventLog {
    fn record(&mut self, at: u64, event: SimEvent) {
        self.records
            .lock()
            .expect("event log poisoned")
            .push(TraceRecord { at, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_buffers_in_order() {
        let log = EventLog::new();
        let mut sink: Box<dyn TraceSink> = Box::new(log.clone());
        sink.record(5, SimEvent::Preempt { cpu: CpuId(1), cycles: 100 });
        sink.record(
            9,
            SimEvent::LockAcquire {
                lock: 0,
                cpu: CpuId(1),
                node: NodeId(0),
            },
        );
        assert_eq!(log.len(), 2);
        let records = log.take();
        assert_eq!(records[0].at, 5);
        assert_eq!(
            records[1].event,
            SimEvent::LockAcquire {
                lock: 0,
                cpu: CpuId(1),
                node: NodeId(0),
            }
        );
        assert!(log.is_empty(), "take drains the shared buffer");
    }
}
