//! The server-wide metric catalog: one [`ServeMetrics`] per
//! [`SessionHub`](crate::session::SessionHub), shared by the accept loop
//! and every connection thread (which also runs its groups' passes).
//!
//! All handles are pre-registered at hub construction, so instrumented
//! paths never touch the registry lock — a tick records through plain
//! atomic adds. The only dynamic registrations are the per-session
//! step-latency histograms (`serve.session.<id>.step_latency_us`),
//! registered on `Open` and removed again on close/reap so the registry
//! stays bounded by live sessions.
//!
//! # Metric catalog
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `serve.sessions.opened` / `.closed` / `.reaped` | counter | lifecycle totals |
//! | `serve.sessions.live` / `.parked` | gauge | sessions in RAM or spilled / swapped out in RAM; recomputed from the group's session table after every command and tick |
//! | `serve.groups.live` | gauge | engine groups built (one per distinct configuration) |
//! | `serve.scheduler.ticks` | counter | ticks that stepped ≥ 1 lane (client work only) |
//! | `serve.scheduler.steps` | counter | total lane-steps served, recovery replay included |
//! | `serve.scheduler.parks` / `.splices` / `.lane_resets` | counter | lane swap-outs / swap-ins / blank recycles |
//! | `serve.scheduler.queue_depth` | gauge | queued-but-unserved step inputs; recomputed from the group's session table after every command and tick |
//! | `serve.scheduler.active_lanes` | gauge | lanes stepped by the latest tick (0 once nothing is in flight) |
//! | `serve.scheduler.tick_ns` | histogram | masked-batch step wall time per tick |
//! | `serve.scheduler.batch_size` | histogram | coalesced batch size per tick (client work only) |
//! | `serve.scheduler.occupancy_pct` | histogram | stepped lanes as % of grid per tick |
//! | `serve.session.step_latency_us` | histogram | enqueue→output latency, all sessions |
//! | `serve.session.<id>.step_latency_us` | histogram | same, per live session |
//! | `store.evictions` / `.rehydrations` | counter | sessions spilled to disk / rebuilt from it |
//! | `store.recovered` | counter | stored sessions adopted at hub boot |
//! | `store.log_appends` | counter | step records appended to delta logs |
//! | `store.torn_tails` | counter | delta logs recovered past a torn tail |
//! | `store.errors` | counter | store I/O or corruption failures |
//! | `store.snapshot_bytes` / `.snapshot_us` | histogram | encoded snapshot size / encode+write wall time |
//! | `store.replay_steps` | histogram | delta-log steps replayed per rehydration, on a borrowed lane |
//! | `net.frames_in` / `.frames_out` / `.bytes_in` / `.bytes_out` | counter | wire traffic |
//! | `rpc.<command>` | counter | requests by command |
//! | `err.<kind>` | counter | error replies by [`ServeError`] kind |
//! | `overload.shed` | counter | requests rejected by queue budgets |
//! | `overload.deadline_expired` | counter | queued commands shed past their deadline |
//! | `supervisor.restarts` | counter | groups replaced after a panicked pass |
//! | `supervisor.resurrected` | counter | sessions rebuilt from the store after a panic |
//! | `supervisor.failed_sessions` | counter | sessions lost to a panic (no durable state) |
//! | `store.evict_refusals` | counter | evictions refused to avoid silent data loss |
//! | `fault.disk.injected` / `fault.net.injected` / `fault.sched.injected` | gauge | injected faults by family (mirrors the fault plan) |

use crate::protocol::{Request, Response, ServeError};
use hima_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceKind, TraceRing,
};
use std::sync::Arc;

/// Retained lifecycle events; enough to reconstruct recent scheduling
/// decisions without unbounded growth.
const TRACE_CAPACITY: usize = 1024;

/// Pre-registered handles for every server metric, plus the registry and
/// trace ring they live in. One instance per hub, shared via `Arc`.
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    trace: TraceRing,

    /// `serve.sessions.opened`.
    pub sessions_opened: Counter,
    /// `serve.sessions.closed`.
    pub sessions_closed: Counter,
    /// `serve.sessions.reaped`.
    pub sessions_reaped: Counter,
    /// `serve.sessions.live`.
    pub sessions_live: Gauge,
    /// `serve.sessions.parked`.
    pub sessions_parked: Gauge,
    /// `serve.groups.live`.
    pub groups_live: Gauge,

    /// `serve.scheduler.ticks`.
    pub ticks: Counter,
    /// `serve.scheduler.steps`.
    pub steps: Counter,
    /// `serve.scheduler.parks`.
    pub parks: Counter,
    /// `serve.scheduler.splices`.
    pub splices: Counter,
    /// `serve.scheduler.lane_resets`.
    pub lane_resets: Counter,
    /// `serve.scheduler.queue_depth`.
    pub queue_depth: Gauge,
    /// `serve.scheduler.active_lanes`.
    pub active_lanes: Gauge,
    /// `serve.scheduler.tick_ns`.
    pub tick_ns: Histogram,
    /// `serve.scheduler.batch_size`.
    pub batch_size: Histogram,
    /// `serve.scheduler.occupancy_pct`.
    pub occupancy_pct: Histogram,
    /// `serve.session.step_latency_us` (all sessions pooled).
    pub step_latency_us: Histogram,

    /// `store.evictions`.
    pub store_evictions: Counter,
    /// `store.rehydrations`.
    pub store_rehydrations: Counter,
    /// `store.recovered`.
    pub store_recovered: Counter,
    /// `store.log_appends`.
    pub store_log_appends: Counter,
    /// `store.torn_tails`.
    pub store_torn_tails: Counter,
    /// `store.errors`.
    pub store_errors: Counter,
    /// `store.snapshot_bytes`.
    pub store_snapshot_bytes: Histogram,
    /// `store.snapshot_us`.
    pub store_snapshot_us: Histogram,
    /// `store.replay_steps`.
    pub store_replay_steps: Histogram,

    /// `net.frames_in`.
    pub frames_in: Counter,
    /// `net.frames_out`.
    pub frames_out: Counter,
    /// `net.bytes_in`.
    pub bytes_in: Counter,
    /// `net.bytes_out`.
    pub bytes_out: Counter,

    /// `overload.shed`.
    pub overload_shed: Counter,
    /// `overload.deadline_expired`.
    pub overload_deadline_expired: Counter,
    /// `supervisor.restarts`.
    pub supervisor_restarts: Counter,
    /// `supervisor.resurrected`.
    pub supervisor_resurrected: Counter,
    /// `supervisor.failed_sessions`.
    pub supervisor_failed_sessions: Counter,
    /// `store.evict_refusals`.
    pub store_evict_refusals: Counter,
    /// `fault.disk.injected` (mirrors the fault plan's disk-site totals).
    pub fault_disk_injected: Gauge,
    /// `fault.net.injected` (mirrors the fault plan's net-site totals).
    pub fault_net_injected: Gauge,
    /// `fault.sched.injected` (mirrors the fault plan's scheduler-site
    /// totals).
    pub fault_sched_injected: Gauge,

    /// `rpc.<command>` counters indexed like [`Request`] wire tags − 1.
    rpc: [Counter; 9],
    /// `err.<kind>` counters indexed like [`ServeError`] wire subtags − 1.
    err: [Counter; ServeError::KINDS],
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Registers the full catalog in a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let r = &registry;
        let rpc_names =
            ["open", "step", "step_stream", "read_rows", "reset", "close", "shutdown", "metrics", "trace_dump"];
        let err_names = [
            "bad_spec",
            "unknown_session",
            "session_busy",
            "bad_input",
            "protocol",
            "shutting_down",
            "store",
            "overloaded",
            "deadline_exceeded",
            "group_failed",
        ];
        let metrics = ServeMetrics {
            sessions_opened: r.counter("serve.sessions.opened"),
            sessions_closed: r.counter("serve.sessions.closed"),
            sessions_reaped: r.counter("serve.sessions.reaped"),
            sessions_live: r.gauge("serve.sessions.live"),
            sessions_parked: r.gauge("serve.sessions.parked"),
            groups_live: r.gauge("serve.groups.live"),
            ticks: r.counter("serve.scheduler.ticks"),
            steps: r.counter("serve.scheduler.steps"),
            parks: r.counter("serve.scheduler.parks"),
            splices: r.counter("serve.scheduler.splices"),
            lane_resets: r.counter("serve.scheduler.lane_resets"),
            queue_depth: r.gauge("serve.scheduler.queue_depth"),
            active_lanes: r.gauge("serve.scheduler.active_lanes"),
            tick_ns: r.histogram("serve.scheduler.tick_ns"),
            batch_size: r.histogram("serve.scheduler.batch_size"),
            occupancy_pct: r.histogram("serve.scheduler.occupancy_pct"),
            step_latency_us: r.histogram("serve.session.step_latency_us"),
            store_evictions: r.counter("store.evictions"),
            store_rehydrations: r.counter("store.rehydrations"),
            store_recovered: r.counter("store.recovered"),
            store_log_appends: r.counter("store.log_appends"),
            store_torn_tails: r.counter("store.torn_tails"),
            store_errors: r.counter("store.errors"),
            store_snapshot_bytes: r.histogram("store.snapshot_bytes"),
            store_snapshot_us: r.histogram("store.snapshot_us"),
            store_replay_steps: r.histogram("store.replay_steps"),
            overload_shed: r.counter("overload.shed"),
            overload_deadline_expired: r.counter("overload.deadline_expired"),
            supervisor_restarts: r.counter("supervisor.restarts"),
            supervisor_resurrected: r.counter("supervisor.resurrected"),
            supervisor_failed_sessions: r.counter("supervisor.failed_sessions"),
            store_evict_refusals: r.counter("store.evict_refusals"),
            fault_disk_injected: r.gauge("fault.disk.injected"),
            fault_net_injected: r.gauge("fault.net.injected"),
            fault_sched_injected: r.gauge("fault.sched.injected"),
            frames_in: r.counter("net.frames_in"),
            frames_out: r.counter("net.frames_out"),
            bytes_in: r.counter("net.bytes_in"),
            bytes_out: r.counter("net.bytes_out"),
            rpc: rpc_names.map(|name| r.counter(&format!("rpc.{name}"))),
            err: err_names.map(|name| r.counter(&format!("err.{name}"))),
            trace: TraceRing::new(TRACE_CAPACITY),
            registry: registry.clone(),
        };
        metrics
    }

    /// Copies every registered metric's current value out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Records one lifecycle event in the bounded trace.
    pub fn trace(&self, kind: TraceKind, session: u64, detail: u64) {
        self.trace.record(kind, session, detail);
    }

    /// The retained lifecycle events, oldest first.
    pub fn trace_dump(&self) -> Vec<TraceEvent> {
        self.trace.dump()
    }

    /// Registers (or retrieves) the per-session step-latency histogram.
    pub fn session_histogram(&self, session: u64) -> Histogram {
        self.registry.histogram(&format!("serve.session.{session}.step_latency_us"))
    }

    /// Drops a closed/reaped session's histogram from the registry.
    pub(crate) fn drop_session_histogram(&self, session: u64) {
        self.registry.remove(&format!("serve.session.{session}.step_latency_us"));
    }

    /// Counts one inbound request under its `rpc.<command>` counter.
    pub(crate) fn record_request(&self, req: &Request) {
        let idx = match req {
            Request::Open { .. } => 0,
            Request::Step { .. } => 1,
            Request::StepStream { .. } => 2,
            Request::ReadRows { .. } => 3,
            Request::Reset { .. } => 4,
            Request::Close { .. } => 5,
            Request::Shutdown => 6,
            Request::Metrics => 7,
            Request::TraceDump => 8,
        };
        self.rpc[idx].inc();
    }

    /// Counts an error reply under its `err.<kind>` counter and traces
    /// it; non-error responses pass through untouched.
    pub(crate) fn record_response(&self, resp: &Response) {
        if let Response::Error(e) = resp {
            self.record_error(e);
        }
    }

    /// Counts one [`ServeError`] and appends a trace event (the detail
    /// field carries the error's wire subtag).
    pub(crate) fn record_error(&self, e: &ServeError) {
        let idx = e.subtag() as usize - 1;
        let session = match e {
            ServeError::UnknownSession(id)
            | ServeError::SessionBusy(id)
            | ServeError::DeadlineExceeded { session: id }
            | ServeError::GroupFailed(id) => *id,
            _ => 0,
        };
        self.err[idx].inc();
        let kind = if matches!(e, ServeError::SessionBusy(_)) {
            TraceKind::Busy
        } else {
            TraceKind::Error
        };
        self.trace.record(kind, session, idx as u64 + 1);
    }

    /// Mirrors a fault plan's injected-fault totals into the `fault.*`
    /// gauges so a metrics snapshot reveals whether (and where) the
    /// chaos harness actually fired. Cheap: three relaxed loads per
    /// family; called on each `Metrics` request.
    pub(crate) fn sync_fault_gauges(&self, plan: &hima_chaos::FaultPlan) {
        use hima_chaos::FaultSite;
        self.fault_disk_injected.set(plan.injected_disk() as i64);
        self.fault_net_injected.set(
            (plan.injected(FaultSite::NetRead) + plan.injected(FaultSite::NetWrite)) as i64,
        );
        self.fault_sched_injected.set(plan.injected(FaultSite::SchedTick) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_registered_up_front() {
        let m = ServeMetrics::new();
        let snap = m.snapshot();
        for name in [
            "serve.sessions.opened",
            "serve.scheduler.ticks",
            "net.frames_in",
            "rpc.step_stream",
            "err.session_busy",
            "err.store",
            "err.overloaded",
            "err.deadline_exceeded",
            "err.group_failed",
            "overload.shed",
            "overload.deadline_expired",
            "supervisor.restarts",
            "supervisor.resurrected",
            "supervisor.failed_sessions",
            "store.evict_refusals",
            "store.evictions",
            "store.rehydrations",
            "store.log_appends",
        ] {
            assert!(snap.counter(name).is_some(), "{name} missing");
        }
        assert!(snap.gauge("serve.sessions.live").is_some());
        assert!(snap.gauge("fault.disk.injected").is_some());
        assert!(snap.gauge("fault.net.injected").is_some());
        assert!(snap.gauge("fault.sched.injected").is_some());
        assert!(snap.histogram("serve.scheduler.tick_ns").is_some());
        assert!(snap.histogram("store.snapshot_bytes").is_some());
        assert!(snap.histogram("store.replay_steps").is_some());
        assert!(snap.histogram("serve.session.step_latency_us").is_some());
    }

    #[test]
    fn request_and_error_accounting() {
        let m = ServeMetrics::new();
        m.record_request(&Request::Metrics);
        m.record_request(&Request::Step { session: 1, input: vec![], deadline_ms: 0 });
        m.record_request(&Request::Step { session: 1, input: vec![], deadline_ms: 0 });
        m.record_response(&Response::Error(ServeError::SessionBusy(1)));
        m.record_response(&Response::Done);
        let snap = m.snapshot();
        assert_eq!(snap.counter("rpc.metrics"), Some(1));
        assert_eq!(snap.counter("rpc.step"), Some(2));
        assert_eq!(snap.counter("err.session_busy"), Some(1));
        assert_eq!(snap.counter("err.protocol"), Some(0));
        // The busy rejection also landed in the trace.
        let events = m.trace_dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::Busy);
        assert_eq!(events[0].session, 1);
    }

    #[test]
    fn fault_family_errors_and_gauges() {
        use hima_chaos::{FaultKind, FaultPlan, FaultRule, FaultSite};
        let m = ServeMetrics::new();
        m.record_error(&ServeError::Overloaded { retry_after_ms: 40 });
        m.record_error(&ServeError::DeadlineExceeded { session: 9 });
        m.record_error(&ServeError::GroupFailed(9));
        let plan = FaultPlan::new(7)
            .with_rule(FaultRule::probabilistic(FaultSite::StoreWrite, FaultKind::IoError, 1000));
        assert!(plan.check(FaultSite::StoreWrite).is_some());
        m.sync_fault_gauges(&plan);
        let snap = m.snapshot();
        assert_eq!(snap.counter("err.overloaded"), Some(1));
        assert_eq!(snap.counter("err.deadline_exceeded"), Some(1));
        assert_eq!(snap.counter("err.group_failed"), Some(1));
        assert_eq!(snap.gauge("fault.disk.injected"), Some(1));
        assert_eq!(snap.gauge("fault.net.injected"), Some(0));
        // The trace carries the session id for session-scoped faults.
        let events = m.trace_dump();
        assert!(events.iter().any(|e| e.kind == TraceKind::Error && e.session == 9));
    }

    #[test]
    fn session_histograms_come_and_go() {
        let m = ServeMetrics::new();
        m.session_histogram(42).observe(100);
        assert!(m.snapshot().histogram("serve.session.42.step_latency_us").is_some());
        m.drop_session_histogram(42);
        assert!(m.snapshot().histogram("serve.session.42.step_latency_us").is_none());
    }
}
