//! The session registry: ids, routing, and engine-group lifecycle.
//!
//! The [`SessionHub`] owns the two maps behind the serving API: a
//! *routing* table from live session id to the engine group serving it,
//! and a *group* table from canonical configuration key to that group.
//! Session ids are allocated from one global counter, so an id never
//! repeats for the lifetime of a server — a closed or reaped id stays
//! permanently unknown rather than aliasing a newer session.
//!
//! The hub is the routing table's only writer. It routes an id at `Open`
//! and at adoption, and unroutes it when a `Close` is answered `Done`,
//! when any command is answered [`ServeError::GroupFailed`], and when an
//! idle sweep without a store returns it reaped — each after the group
//! has dropped the session and published its gauges.
//!
//! A group has no thread: [`SessionHub::dispatch`] runs it on the
//! calling thread (see "Who runs a group" in the `cell` module). Each
//! command carries the sender of a reply channel its calling thread keeps
//! for all of its commands, so a step allocates no channel. The hub's only
//! thread is the idle sweeper, and it exists only when
//! [`ServeConfig::idle_timeout`] is set: every [`ServeConfig::tick`] it
//! runs each group's idle sweep, skipping a group that a caller is
//! running at that moment.
//!
//! The hub also owns the server-wide [`ServeMetrics`]: every dispatch is
//! counted under its `rpc.<command>` counter, every error reply under its
//! `err.<kind>` counter, and the `Metrics` / `TraceDump` requests are
//! answered here from the registry without touching any group.
//!
//! With a [`StoreConfig`], the hub additionally owns the durable session
//! tier: at construction it scans the store directory, builds an engine
//! group for every stored configuration and **adopts** each stored
//! session — the id routes again immediately and the state rehydrates
//! lazily on its first command. The id counter resumes past the largest
//! adopted id, so recovered ids never alias new ones.
//!
//! # Supervision
//!
//! A panicking pass (a bug — or an injected
//! [`FaultKind::Panic`](hima_chaos::FaultKind) at the `SchedTick` site)
//! does not take the server down: its group is replaced by a fresh
//! incarnation (counted under `supervisor.restarts`; "Supervision" in the
//! `cell` module). A session whose command was taken down with the dead
//! incarnation answers that command [`ServeError::GroupFailed`] and is
//! retired with its files; one the new incarnation could not resurrect
//! answers its next command so.

use crate::cell::{lock_clean, GroupCell};
use crate::clock::Clock;
use crate::durable::GroupStore;
use crate::metrics::ServeMetrics;
use crate::protocol::{RawSessionSpec, Request, Response, ServeError, SessionSpec};
use crate::scheduler::{Group, GroupShared, Op};
use crate::server::ServeConfig;
use hima_bytes::Reader;
use hima_chaos::FaultPlan;
use hima_store::SessionStore;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the durable session tier.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the per-session snapshot and delta-log files
    /// (created if absent).
    pub dir: PathBuf,
    /// Snapshot + compact a session's delta log every this many logged
    /// steps (clamped to ≥ 1).
    pub snapshot_every: u64,
    /// Per group, spill idle parked sessions to disk, lowest id first,
    /// once more than this many detached states sit in RAM.
    pub max_parked: usize,
    /// Optional seeded fault plan injected into every store I/O path
    /// (snapshot writes and fsyncs, log appends). `None` — the
    /// default — is a plain pass-through.
    pub faults: Option<Arc<FaultPlan>>,
}

impl StoreConfig {
    /// Durability rooted at `dir` with default policy: snapshot every
    /// 256 steps, at most 64 parked states in RAM per group, no fault
    /// injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), snapshot_every: 256, max_parked: 64, faults: None }
    }
}

/// Registry of live sessions and the engine groups serving them.
pub struct SessionHub {
    cfg: ServeConfig,
    next_id: AtomicU64,
    /// session id → serving group.
    index: Arc<Mutex<HashMap<u64, Arc<GroupCell>>>>,
    /// canonical spec key → group.
    groups: Arc<Mutex<HashMap<Vec<u8>, Arc<GroupCell>>>>,
    /// The idle sweeper's stop flag and thread (only with an idle timeout).
    sweeper: Mutex<Option<(Arc<AtomicBool>, JoinHandle<()>)>>,
    metrics: Arc<ServeMetrics>,
    /// Steps queued across every group — the global admission budget
    /// shared by all groups.
    global_queued: Arc<AtomicI64>,
    /// The durable tier's wiring, handed to every group (`None` = RAM only).
    store: Option<GroupStore>,
    /// What deadlines and every group's idle and shedding decisions read.
    clock: Arc<dyn Clock>,
}

impl SessionHub {
    /// Creates an empty hub; groups are built lazily on the first `Open`
    /// of each distinct configuration.
    ///
    /// # Panics
    ///
    /// Panics on a config [`SessionHub::with_store`] refuses: a zero
    /// [`ServeConfig::tick`] with an idle timeout set.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_store(cfg, None).expect("a zero tick with an idle timeout is refused")
    }

    /// Creates a hub with an optional durable session tier. With a
    /// [`StoreConfig`], opens (creating if needed) the store directory
    /// and adopts every stored session before accepting traffic;
    /// sessions whose store files are corrupt or no longer validate are
    /// skipped (counted under `store.errors`) rather than wedging boot.
    ///
    /// A zero [`ServeConfig::tick`] with an idle timeout set is refused
    /// with [`std::io::ErrorKind::InvalidInput`]: the idle sweeper would
    /// never sleep.
    pub fn with_store(cfg: ServeConfig, store: Option<StoreConfig>) -> std::io::Result<Self> {
        Self::with_clock(cfg, store, Arc::new(Instant::now))
    }

    /// [`SessionHub::with_store`] reading `clock` for its decisions.
    pub(crate) fn with_clock(
        cfg: ServeConfig,
        store: Option<StoreConfig>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Self> {
        if cfg.idle_timeout.is_some() && cfg.tick.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the idle sweep needs a non-zero tick",
            ));
        }
        let (groups, index) = (Arc::default(), Arc::default());
        let sweeper =
            cfg.idle_timeout.map(|_| sweep_every(cfg.tick, Arc::clone(&groups), Arc::clone(&index)));
        let mut hub = Self {
            cfg,
            next_id: AtomicU64::new(1),
            index,
            groups,
            sweeper: Mutex::new(sweeper),
            metrics: Arc::new(ServeMetrics::new()),
            global_queued: Arc::default(),
            store: None,
            clock,
        };
        let Some(sc) = store else { return Ok(hub) };
        let store = Arc::new(SessionStore::open_with(&sc.dir, sc.faults)?);
        let (snapshot_every, max_parked) = (sc.snapshot_every.max(1), sc.max_parked);
        hub.store = Some(GroupStore { store: Arc::clone(&store), snapshot_every, max_parked });

        // Adoption: every stored session becomes routable again (snapshot
        // decode and log replay wait for its first command), and new ids
        // start past every stored one, adopted or skipped.
        let mut max_id = 0u64;
        for id in store.sessions()? {
            max_id = max_id.max(id);
            let spec = match store.spec_key(id) {
                Ok(Some(key)) => {
                    let mut r = Reader::new(&key);
                    match RawSessionSpec::decode(&mut r)
                        .ok()
                        .filter(|_| r.finish().is_ok())
                        .and_then(|raw| raw.validate().ok())
                    {
                        Some(spec) => spec,
                        None => {
                            hub.metrics.store_errors.inc();
                            continue;
                        }
                    }
                }
                _ => {
                    hub.metrics.store_errors.inc();
                    continue;
                }
            };
            let cell = hub.group(spec);
            cell.adopt(id);
            lock_clean(&hub.index).insert(id, cell);
            hub.metrics.store_recovered.inc();
        }
        hub.next_id.store(max_id + 1, Ordering::Relaxed);
        Ok(hub)
    }

    /// The group serving `spec`, built on first use of each distinct
    /// configuration.
    fn group(&self, spec: SessionSpec) -> Arc<GroupCell> {
        let key = spec.group_key();
        let mut groups = lock_clean(&self.groups);
        if let Some(cell) = groups.get(&key) {
            return Arc::clone(cell);
        }
        let shared = GroupShared {
            metrics: Arc::clone(&self.metrics),
            global_queued: Arc::clone(&self.global_queued),
            clock: Arc::clone(&self.clock),
        };
        let cell = Arc::new(GroupCell::new(Group::new(self.cfg.clone(), &spec, shared, self.store.clone())));
        self.metrics.groups_live.add(1);
        groups.insert(key, Arc::clone(&cell));
        cell
    }

    /// Number of currently live sessions (registered and not yet closed
    /// or reaped).
    pub fn live_sessions(&self) -> usize {
        lock_clean(&self.index).len()
    }

    /// The server-wide metric catalog and lifecycle trace.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Executes one request synchronously and returns its reply. This is
    /// the whole serving semantics; the TCP layer is a dumb pipe around
    /// it (and in-process callers — tests, the load generator harness —
    /// can drive a hub directly).
    pub fn dispatch(&self, req: Request) -> Response {
        self.metrics.record_request(&req);
        let resp = self.dispatch_inner(req);
        self.metrics.record_response(&resp);
        resp
    }

    /// The effective deadline of a step command: the request's own
    /// `deadline_ms` if nonzero, else the server default (if any).
    fn deadline_from(&self, deadline_ms: u32) -> Option<Instant> {
        let budget = match deadline_ms {
            0 => self.cfg.default_deadline?,
            ms => Duration::from_millis(ms as u64),
        };
        Some(self.clock.now() + budget)
    }

    fn dispatch_inner(&self, req: Request) -> Response {
        match req {
            Request::Open { spec } => {
                let spec = match spec.validate() {
                    Ok(spec) => spec,
                    Err(e) => return Response::Error(ServeError::BadSpec(e.to_string())),
                };
                let cell = self.group(spec);
                let session = self.next_id.fetch_add(1, Ordering::Relaxed);
                lock_clean(&self.index).insert(session, Arc::clone(&cell));
                self.call(&cell, session, Op::Open)
            }
            Request::Step { session, input, deadline_ms } => {
                let deadline = self.deadline_from(deadline_ms);
                self.route(session, Op::Step { inputs: vec![input], deadline })
            }
            Request::StepStream { session, inputs, deadline_ms } => {
                let deadline = self.deadline_from(deadline_ms);
                self.route(session, Op::Step { inputs, deadline })
            }
            Request::ReadRows { session } => self.route(session, Op::ReadRows),
            Request::Reset { session } => self.route(session, Op::Reset),
            Request::Close { session } => self.route(session, Op::Close),
            // Answered from the hub's own registry — never waits for a
            // group, so a snapshot is cheap even under full load.
            Request::Metrics => {
                // Fold the fault plan's live injection counters into
                // their gauges so the snapshot reflects them.
                if let Some(plan) = self
                    .cfg
                    .faults
                    .as_deref()
                    .or_else(|| self.store.as_ref().and_then(|gs| gs.store.faults().map(Arc::as_ref)))
                {
                    self.metrics.sync_fault_gauges(plan);
                }
                Response::Metrics { snapshot: self.metrics.snapshot() }
            }
            Request::TraceDump => Response::Trace { events: self.metrics.trace_dump() },
            // The process-level stop is the server's call to make; a bare
            // hub just acknowledges.
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    fn route(&self, session: u64, op: Op) -> Response {
        let cell = match lock_clean(&self.index).get(&session) {
            Some(cell) => Arc::clone(cell),
            None => return Response::Error(ServeError::UnknownSession(session)),
        };
        self.call(&cell, session, op)
    }

    /// Runs `op` on `cell` from this thread, and unroutes the session if
    /// the answer ends it: `Done` to a `Close`, or any `GroupFailed`. A
    /// command lost with a panicked incarnation means the session is
    /// forgotten whole: through the new incarnation's `Close` path its
    /// table entry, gauge share and store files go, so no later
    /// incarnation or boot adopts it again, and its route goes here.
    fn call(&self, cell: &GroupCell, session: u64, op: Op) -> Response {
        let close = matches!(op, Op::Close);
        let resp = cell.call(session, op).unwrap_or_else(|| {
            let _ = cell.call(session, Op::Close);
            Response::Error(ServeError::GroupFailed(session))
        });
        let closed = close && matches!(resp, Response::Done);
        if closed || matches!(resp, Response::Error(ServeError::GroupFailed(_))) {
            lock_clean(&self.index).remove(&session);
        }
        resp
    }

    /// Stops the idle sweeper and forgets every group. A call already in
    /// progress still runs to its reply: its caller holds the group it
    /// runs.
    pub fn shutdown(&self) {
        if let Some((stop, handle)) = lock_clean(&self.sweeper).take() {
            stop.store(true, Ordering::Release);
            handle.thread().unpark();
            let _ = handle.join();
        }
        lock_clean(&self.index).clear();
        let groups: Vec<Arc<GroupCell>> = lock_clean(&self.groups).drain().map(|(_, cell)| cell).collect();
        self.metrics.groups_live.sub(groups.len() as i64);
    }
}

/// Starts the idle sweeper: every `period` it sweeps each group in
/// `groups` and unroutes from `index` the ids a sweep reaped, until its
/// stop flag is set.
fn sweep_every(
    period: Duration,
    groups: Arc<Mutex<HashMap<Vec<u8>, Arc<GroupCell>>>>,
    index: Arc<Mutex<HashMap<u64, Arc<GroupCell>>>>,
) -> (Arc<AtomicBool>, JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        while !stopped.load(Ordering::Acquire) {
            std::thread::park_timeout(period);
            let cells: Vec<Arc<GroupCell>> = lock_clean(&groups).values().cloned().collect();
            for cell in cells {
                for id in cell.sweep() {
                    lock_clean(&index).remove(&id);
                }
            }
        }
    });
    (stop, handle)
}

impl Drop for SessionHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_chaos::{FaultKind, FaultRule, FaultSite};
    use hima_testkit::{metered, solo_replay, wait_until};

    /// How long a test waits for callers on other threads to line up.
    const PATIENCE: Duration = Duration::from_secs(10);

    fn open(hub: &SessionHub) -> u64 {
        match hub.dispatch(Request::Open { spec: RawSessionSpec::demo() }) {
            Response::Opened { session } => session,
            other => panic!("open answered {other:?}"),
        }
    }

    /// Rows `from..to` of `session`'s input stream.
    fn rows(session: u64, from: usize, to: usize) -> Vec<Vec<f32>> {
        let width = RawSessionSpec::demo().input_size as usize;
        (from..to).map(|t| crate::loadgen::synth_input(session as usize, t, width)).collect()
    }

    fn counter(hub: &SessionHub, name: &str) -> u64 {
        hub.metrics().snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn a_zero_tick_with_an_idle_timeout_is_refused() {
        let idle = Some(Duration::from_millis(10));
        let cfg = ServeConfig { tick: Duration::ZERO, idle_timeout: idle, ..ServeConfig::default() };
        match SessionHub::with_store(cfg.clone(), None) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            Ok(_) => panic!("a zero tick with an idle timeout was accepted"),
        }
        // Without an idle timeout the tick is unused, so zero is fine.
        assert!(SessionHub::with_store(ServeConfig { idle_timeout: None, ..cfg }, None).is_ok());
    }

    /// Sends every `(session, inputs)` command from a thread of its own
    /// while `cell` is held, lets go once all of them wait in its inbox,
    /// and returns the replies in order.
    fn lined_up(hub: &SessionHub, cell: &GroupCell, commands: Vec<(u64, Vec<Vec<f32>>)>) -> Vec<Response> {
        let n = commands.len();
        std::thread::scope(|scope| {
            let callers: Vec<_> = cell.holding(|| {
                let callers = commands
                    .into_iter()
                    .map(|(session, inputs)| {
                        scope.spawn(move || hub.dispatch(Request::StepStream { session, inputs, deadline_ms: 0 }))
                    })
                    .collect();
                assert!(wait_until(PATIENCE, || cell.queued() == n), "the callers never lined up");
                callers
            });
            callers.into_iter().map(|caller| caller.join().unwrap()).collect()
        })
    }

    /// A step served through the hub on a resident session, in steady
    /// state, makes three allocations — the one-row input list, and the
    /// output list and row its reply carries. The tick's lists (pending
    /// sessions, mask flags, stepped lanes) are the group's, reused, and
    /// there is no reply channel: every command of a thread carries the
    /// sender of one channel that thread keeps. That channel's queue
    /// takes a new block once every 31 replies, so exactly two of 62
    /// steps allocate once more.
    #[test]
    fn a_hub_step_allocates_no_reply_channel() {
        let hub = SessionHub::new(ServeConfig { grid_lanes: 2, ..ServeConfig::default() });
        let session = open(&hub);
        let inputs = rows(session, 0, 94);
        let step = |t: usize| {
            let input = inputs[t].clone();
            let (resp, spent) = metered(|| hub.dispatch(Request::Step { session, input, deadline_ms: 0 }));
            assert!(matches!(resp, Response::Stepped { .. }), "step {t} answered {resp:?}");
            spent.calls
        };
        for t in 0..32 {
            step(t);
        }
        let calls: Vec<u64> = (32..94).map(step).collect();
        let least = *calls.iter().min().unwrap();
        assert_eq!(least, 3, "allocations per step: {calls:?}");
        assert_eq!(calls.iter().filter(|&&c| c != least).count(), 2, "{calls:?}");
        assert!(calls.iter().all(|&c| c <= least + 1), "{calls:?}");
    }

    /// Four callers on one group, their commands lined up behind a held
    /// group: a 200-row stream and three one-row steps. Whichever caller
    /// runs the next pass serves all four, so the one-row steps ride the
    /// stream's first tick — 200 ticks in all — and every reply is
    /// bit-equal to solo replay. Then a panic is armed for the next tick
    /// and two callers' commands are lined up: the pass that takes both
    /// panics, whichever caller ran it, so each caller gets `GroupFailed`
    /// once and `UnknownSession` after. With no store nothing resurrects:
    /// the two idle sessions fail typed on their next command, and once
    /// all are gone no gauge holds a share of them.
    #[test]
    fn callers_combine_and_a_panicked_pass_fails_every_command_it_took() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::at(FaultSite::SchedTick, FaultKind::Panic, vec![0]));
        plan.clear();
        let plan = Arc::new(plan);
        let cfg = ServeConfig { grid_lanes: 4, faults: Some(Arc::clone(&plan)), ..ServeConfig::default() };
        let hub = SessionHub::new(cfg);
        let ids: Vec<u64> = (0..4).map(|_| open(&hub)).collect();
        let cell = lock_clean(&hub.groups).values().next().cloned().unwrap();
        let spec = RawSessionSpec::demo().validate().unwrap();

        let commands: Vec<(u64, Vec<Vec<f32>>)> =
            ids.iter().enumerate().map(|(i, &s)| (s, rows(s, 0, if i == 0 { 200 } else { 1 }))).collect();
        let replies = lined_up(&hub, &cell, commands.clone());
        for ((session, inputs), reply) in commands.iter().zip(replies) {
            let (want, _) = solo_replay(spec.params, spec.spec, spec.seed, inputs);
            match reply {
                Response::Stepped { outputs } => assert_eq!(outputs, want, "session {session}"),
                other => panic!("session {session} answered {other:?}"),
            }
        }
        assert_eq!(counter(&hub, "serve.scheduler.ticks"), 200, "a one-row step took a tick of its own");
        assert_eq!(counter(&hub, "serve.scheduler.steps"), 203);

        plan.arm();
        let held = [ids[1], ids[2]];
        let replies = lined_up(&hub, &cell, held.iter().map(|&s| (s, rows(s, 1, 2))).collect());
        for (&session, reply) in held.iter().zip(replies) {
            assert!(matches!(reply, Response::Error(ServeError::GroupFailed(s)) if s == session), "{reply:?}");
            let again = hub.dispatch(Request::StepStream { session, inputs: rows(session, 1, 2), deadline_ms: 0 });
            assert!(matches!(again, Response::Error(ServeError::UnknownSession(s)) if s == session), "{again:?}");
        }
        assert_eq!(counter(&hub, "supervisor.restarts"), 1);
        assert_eq!(plan.injected(FaultSite::SchedTick), 1);
        for session in [ids[0], ids[3]] {
            let reply = hub.dispatch(Request::Close { session });
            assert!(matches!(reply, Response::Error(ServeError::GroupFailed(s)) if s == session), "{reply:?}");
        }
        assert_eq!(hub.live_sessions(), 0);
        let snap = hub.metrics().snapshot();
        for gauge in ["serve.sessions.live", "serve.scheduler.queue_depth", "serve.sessions.parked"] {
            assert_eq!(snap.gauge(gauge), Some(0), "{gauge}");
        }
    }

    /// A session failed by one group panic still answers `GroupFailed`
    /// after a second: X and Y open and a panic takes Y's step down; Z
    /// opens and a second panic takes Z's step down. The third
    /// incarnation inherits the second's failed set, so X's next command
    /// answers `GroupFailed`, once, and unroutes it — nothing stays
    /// routed and no gauge counts a session.
    #[test]
    fn a_session_failed_by_one_panic_still_fails_after_a_second() {
        let plan = FaultPlan::new(5).with_rule(FaultRule::at(FaultSite::SchedTick, FaultKind::Panic, vec![0]));
        plan.clear();
        let plan = Arc::new(plan);
        let cfg = ServeConfig { grid_lanes: 2, faults: Some(Arc::clone(&plan)), ..ServeConfig::default() };
        let hub = SessionHub::new(cfg);
        let step = |session: u64| {
            hub.dispatch(Request::StepStream { session, inputs: rows(session, 0, 1), deadline_ms: 0 })
        };
        let failed = |resp: &Response, session: u64| {
            matches!(resp, Response::Error(ServeError::GroupFailed(s)) if *s == session)
        };
        let (x, y) = (open(&hub), open(&hub));
        plan.arm();
        let reply = step(y);
        assert!(failed(&reply, y), "{reply:?}");
        let z = open(&hub);
        plan.arm();
        let reply = step(z);
        assert!(failed(&reply, z), "{reply:?}");
        assert_eq!(counter(&hub, "supervisor.restarts"), 2);

        let reply = step(x);
        assert!(failed(&reply, x), "{reply:?}");
        let again = step(x);
        assert!(matches!(again, Response::Error(ServeError::UnknownSession(s)) if s == x), "{again:?}");
        assert_eq!(hub.live_sessions(), 0);
        assert_eq!(hub.metrics().snapshot().gauge("serve.sessions.live"), Some(0));
    }
}
