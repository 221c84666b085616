//! The session registry: ids, routing, and engine-group lifecycle.
//!
//! The [`SessionHub`] owns the two maps behind the serving API: a
//! *routing* table from live session id to the command channel of the
//! group thread serving it, and a *group* table from canonical
//! configuration key to that channel. Session ids are allocated from one
//! global counter, so an id never repeats for the lifetime of a server —
//! a closed or reaped id stays permanently unknown rather than aliasing
//! a newer session.
//!
//! The hub also owns the server-wide [`ServeMetrics`]: every dispatch is
//! counted under its `rpc.<command>` counter, every error reply under its
//! `err.<kind>` counter, and the `Metrics` / `TraceDump` requests are
//! answered here from the registry without touching any group thread.
//!
//! With a [`StoreConfig`], the hub additionally owns the durable session
//! tier: at construction it scans the store directory, re-spawns an
//! engine group for every stored configuration and **adopts** each
//! stored session — the id routes again immediately and the state
//! rehydrates lazily on its first command. The id counter resumes past
//! the largest adopted id, so recovered ids never alias new ones.
//!
//! # Supervision
//!
//! Each group thread runs its scheduler loop under `catch_unwind`. A
//! panic (a bug — or an injected [`FaultKind::Panic`](hima_chaos::FaultKind)
//! at the `SchedTick` site) does not take the server down: the
//! supervisor repairs the gauges the dying incarnation left dangling,
//! counts a `supervisor.restarts`, and re-enters the loop with
//! `resume = true`. The fresh incarnation resurrects store-backed
//! sessions from their snapshot + delta log; sessions with no durable
//! state answer their next command with a typed
//! [`ServeError::GroupFailed`] instead of vanishing silently.

use crate::metrics::ServeMetrics;
use crate::protocol::{RawSessionSpec, Reader, Request, Response, ServeError, SessionSpec};
use crate::scheduler::{lock_clean, run_group, GroupCmd, GroupShared, GroupStore};
use crate::server::ServeConfig;
use hima_chaos::FaultPlan;
use hima_store::SessionStore;
use hima_telemetry::TraceKind;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
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
    /// Per group, spill least-recently-active parked sessions to disk
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
    /// session id → serving group's command channel.
    index: Arc<Mutex<HashMap<u64, Sender<GroupCmd>>>>,
    /// canonical spec key → group command channel.
    groups: Mutex<HashMap<Vec<u8>, Sender<GroupCmd>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<ServeMetrics>,
    /// Steps queued across every group — the global admission budget
    /// shared by all group threads.
    global_queued: Arc<AtomicI64>,
    /// Set once `shutdown` begins: lets `call` distinguish a clean
    /// shutdown (`ShuttingDown`) from a dead group (`GroupFailed`).
    stopping: AtomicBool,
    /// The durable tier (`None` = RAM only).
    store: Option<(Arc<SessionStore>, StoreConfig)>,
}

impl SessionHub {
    /// Creates an empty hub; group threads spawn lazily on the first
    /// `Open` of each distinct configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_store(cfg, None).expect("hub without a store performs no I/O")
    }

    /// Creates a hub with an optional durable session tier. With a
    /// [`StoreConfig`], opens (creating if needed) the store directory
    /// and adopts every stored session before accepting traffic;
    /// sessions whose store files are corrupt or no longer validate are
    /// skipped (counted under `store.errors`) rather than wedging boot.
    pub fn with_store(cfg: ServeConfig, store: Option<StoreConfig>) -> std::io::Result<Self> {
        let mut hub = Self {
            cfg,
            next_id: AtomicU64::new(1),
            index: Arc::new(Mutex::new(HashMap::new())),
            groups: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            metrics: Arc::new(ServeMetrics::new()),
            global_queued: Arc::new(AtomicI64::new(0)),
            stopping: AtomicBool::new(false),
            store: None,
        };
        let Some(store_cfg) = store else { return Ok(hub) };
        let store = Arc::new(SessionStore::open_with(&store_cfg.dir, store_cfg.faults.clone())?);
        hub.store = Some((Arc::clone(&store), store_cfg));

        // Adoption: every stored session becomes routable again. The
        // heavy work (snapshot decode, log replay) is deferred to the
        // session's first command.
        let mut max_id = 0u64;
        for id in store.sessions()? {
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
            let sender = hub.group_sender(spec);
            let _ = sender.send(GroupCmd::Adopt { session: id });
            lock_clean(&hub.index).insert(id, sender);
            hub.metrics.sessions_live.add(1);
            hub.metrics.store_recovered.inc();
            max_id = max_id.max(id);
        }
        hub.next_id.store(max_id + 1, Ordering::Relaxed);
        Ok(hub)
    }

    /// The group command channel for `spec`, spawning the group's
    /// supervisor thread on first use of each distinct configuration.
    fn group_sender(&self, spec: SessionSpec) -> Sender<GroupCmd> {
        let key = spec.group_key();
        let mut groups = lock_clean(&self.groups);
        if let Some(sender) = groups.get(&key) {
            return sender.clone();
        }
        let (tx, rx) = channel();
        let cfg = self.cfg.clone();
        let shared = GroupShared {
            index: Arc::clone(&self.index),
            metrics: Arc::clone(&self.metrics),
            global_queued: Arc::clone(&self.global_queued),
            roster: Arc::new(Mutex::new(HashSet::new())),
            queued: Arc::new(AtomicI64::new(0)),
            parked: Arc::new(AtomicI64::new(0)),
        };
        let group_store = self.store.as_ref().map(|(store, sc)| GroupStore {
            store: Arc::clone(store),
            snapshot_every: sc.snapshot_every.max(1),
            max_parked: sc.max_parked,
        });
        // The supervisor: run the group loop, and if it panics, repair
        // the gauges its contribution counters still hold, then restart
        // it in resume mode (resurrect from the store, fail the rest).
        let handle = std::thread::spawn(move || {
            let mut resume = false;
            loop {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_group(
                        cfg.clone(),
                        spec.clone(),
                        &rx,
                        shared.clone(),
                        group_store.clone(),
                        resume,
                    )
                }));
                match result {
                    Ok(()) => break,
                    Err(_) => {
                        shared.metrics.trace(TraceKind::GroupPanic, 0, 0);
                        shared.metrics.supervisor_restarts.inc();
                        let q = shared.queued.swap(0, Ordering::SeqCst);
                        if q != 0 {
                            shared.metrics.queue_depth.sub(q);
                            shared.global_queued.fetch_sub(q, Ordering::SeqCst);
                        }
                        let p = shared.parked.swap(0, Ordering::SeqCst);
                        if p != 0 {
                            shared.metrics.sessions_parked.sub(p);
                        }
                        resume = true;
                    }
                }
            }
        });
        lock_clean(&self.handles).push(handle);
        self.metrics.groups_live.add(1);
        groups.insert(key, tx.clone());
        tx
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
        if deadline_ms > 0 {
            Some(Instant::now() + Duration::from_millis(deadline_ms as u64))
        } else {
            self.cfg.default_deadline.map(|d| Instant::now() + d)
        }
    }

    fn dispatch_inner(&self, req: Request) -> Response {
        match req {
            Request::Open { spec } => {
                let spec = match spec.validate() {
                    Ok(spec) => spec,
                    Err(e) => return Response::Error(ServeError::BadSpec(e.to_string())),
                };
                let sender = self.group_sender(spec);
                let session = self.next_id.fetch_add(1, Ordering::Relaxed);
                lock_clean(&self.index).insert(session, sender.clone());
                self.call(&sender, session, |reply| GroupCmd::Open { session, reply })
            }
            Request::Step { session, input, deadline_ms } => {
                let deadline = self.deadline_from(deadline_ms);
                self.route(session, |reply| GroupCmd::Step {
                    session,
                    inputs: vec![input],
                    deadline,
                    reply,
                })
            }
            Request::StepStream { session, inputs, deadline_ms } => {
                let deadline = self.deadline_from(deadline_ms);
                self.route(session, |reply| GroupCmd::Step { session, inputs, deadline, reply })
            }
            Request::ReadRows { session } => {
                self.route(session, |reply| GroupCmd::ReadRows { session, reply })
            }
            Request::Reset { session } => {
                self.route(session, |reply| GroupCmd::Reset { session, reply })
            }
            Request::Close { session } => {
                self.route(session, |reply| GroupCmd::Close { session, reply })
            }
            // Answered from the hub's own registry — never blocks on a
            // group thread, so a snapshot is cheap even under full load.
            Request::Metrics => {
                // Fold the fault plan's live injection counters into
                // their gauges so the snapshot reflects them.
                if let Some(plan) = self
                    .cfg
                    .faults
                    .as_deref()
                    .or_else(|| self.store.as_ref().and_then(|(s, _)| s.faults().map(Arc::as_ref)))
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

    fn route(&self, session: u64, make: impl FnOnce(Sender<Response>) -> GroupCmd) -> Response {
        let sender = match lock_clean(&self.index).get(&session) {
            Some(sender) => sender.clone(),
            None => return Response::Error(ServeError::UnknownSession(session)),
        };
        self.call(&sender, session, make)
    }

    /// What a dead command channel means: a clean shutdown if one is in
    /// progress, otherwise the session's group is gone for good.
    fn channel_failure(&self, session: u64) -> Response {
        if self.stopping.load(Ordering::Relaxed) {
            Response::Error(ServeError::ShuttingDown)
        } else {
            lock_clean(&self.index).remove(&session);
            Response::Error(ServeError::GroupFailed(session))
        }
    }

    fn call(
        &self,
        sender: &Sender<GroupCmd>,
        session: u64,
        make: impl FnOnce(Sender<Response>) -> GroupCmd,
    ) -> Response {
        let (reply_tx, reply_rx) = channel();
        if sender.send(make(reply_tx)).is_err() {
            return self.channel_failure(session);
        }
        match reply_rx.recv() {
            Ok(resp) => resp,
            Err(_) => self.channel_failure(session),
        }
    }

    /// Stops every group thread: drops the command channels (each group
    /// drains its queued steps, answers them, then exits) and joins.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        lock_clean(&self.groups).clear();
        lock_clean(&self.index).clear();
        let handles: Vec<_> = lock_clean(&self.handles).drain(..).collect();
        let stopped = handles.len() as i64;
        for handle in handles {
            let _ = handle.join();
        }
        self.metrics.groups_live.sub(stopped);
    }
}

impl Drop for SessionHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}
