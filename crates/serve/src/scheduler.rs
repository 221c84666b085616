//! The continuous-batching scheduler: one tick loop per engine group.
//!
//! A **group** is every live session that shares one engine configuration
//! (equal [`SessionSpec`](crate::protocol::SessionSpec) group keys). The
//! group thread owns a single batched engine whose lane count is the
//! grid capacity, and each **tick** coalesces the pending step requests
//! of resident sessions into one `step_batch_masked_into` call:
//!
//! * sessions **join** a lane when they have queued steps (fresh lanes
//!   are recycled with `reset_lane`, swapped-in sessions re-attached with
//!   `swap_lane`),
//! * sessions with no work are **frozen** in place by the
//!   [`LaneMask`] — a parked resident costs (almost) nothing and its
//!   state stays bit-identical while co-tenants advance,
//! * when the grid is full, the least-recently-active idle resident is
//!   **swapped out** to a detached [`LaneState`](hima_dnc::LaneState) — by
//!   the same `swap_lane` that seats a session carrying one (the two
//!   trade buffers; nothing is copied), by `export_lane` when the joining
//!   session is blank.
//!
//! Because weights are a function of the seed alone and masked stepping
//! of an active lane is bit-identical to stepping that lane solo (the
//! ragged conformance contract), a session served through this grid
//! produces **bit-identical** outputs to a dedicated single-lane engine
//! fed the same inputs — regardless of co-tenants, joins, leaves or
//! swaps. `tests/serve_conformance.rs` pins that end to end.
//!
//! # Durability tier
//!
//! With a [`SessionStore`] configured, the in-RAM park tier gains a
//! disk tier below it:
//!
//! * every served step is appended to the session's CRC-guarded delta
//!   log **before** the engine steps it (write-ahead): an acknowledged
//!   step is always re-derivable after a process kill. If the append
//!   fails, the step is *not* applied — the command fails with a typed
//!   store error instead of acknowledging state the disk never saw,
//! * every `snapshot_every` steps the lane state is snapshotted (which
//!   compacts the log),
//! * the idle-timeout sweep **evicts** instead of reaping: the session's
//!   state is snapshotted to disk, dropped from RAM, and the id stays
//!   routable — its next command transparently **rehydrates** it
//!   (snapshot decode + replay of unapplied log records through the
//!   grid), bit-identically. If the eviction snapshot fails, the state
//!   is *never* discarded: the session degrades to the in-RAM parked
//!   tier (counted under `store.evict_refusals`) and stays servable,
//! * when more than `max_parked` detached states accumulate in RAM, the
//!   least-recently-active ones spill to disk the same way.
//!
//! Replayed steps run through the ordinary masked grid but answer no
//! client and append no log records; a `ReadRows` that arrives while a
//! replay is draining is deferred until the recovered state is current.
//!
//! # Overload protection and deadlines
//!
//! Step admission enforces two queue budgets — per session
//! ([`ServeConfig::session_queue_limit`]) and across all groups
//! ([`ServeConfig::global_queue_limit`]) — answering
//! [`ServeError::Overloaded`] with a drain-time estimate instead of
//! queueing without bound. Each in-flight command may carry a deadline;
//! the tick sheds expired commands (oldest deadline first —
//! [`crate::retry::shed_order`]) with a typed
//! [`ServeError::DeadlineExceeded`] — never a silent drop.
//!
//! # Supervision
//!
//! The group thread body is re-entrant: the supervisor in
//! [`SessionHub`](crate::session::SessionHub) wraps [`run_group`] in
//! `catch_unwind` and calls it again with `resume = true` after a panic.
//! The restarted group resurrects store-backed sessions from their
//! snapshot + delta log and fails unpersisted ones with a typed
//! [`ServeError::GroupFailed`]; the [`GroupShared`] contribution
//! counters let the supervisor repair the shared gauges a dying group
//! left dangling.

use crate::metrics::ServeMetrics;
use crate::protocol::{Response, ServeError, SessionSpec};
use crate::server::ServeConfig;
use hima_chaos::{FaultKind, FaultSite};
use hima_dnc::{BoxedEngine, EngineBuilder, KernelId, KernelProfile, LaneState};
use hima_store::SessionStore;
use hima_telemetry::{Histogram, TraceKind};
use hima_tensor::{LaneMask, Matrix};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// With sampled engine timing on, fold the engine's accumulated
/// [`KernelProfile`] into the registry every this many stepped ticks.
const PROFILE_SAMPLE_TICKS: u32 = 64;

/// Locks a mutex, ignoring poisoning: a panicked group thread must not
/// wedge the hub (or the next incarnation of the group) out of the
/// shared maps — the data under these locks stays consistent because
/// every critical section is a plain insert/remove.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A command routed to a group thread by the
/// [`SessionHub`](crate::session::SessionHub).
pub(crate) enum GroupCmd {
    /// Register a hub-allocated session id with this group.
    Open { session: u64, reply: Sender<Response> },
    /// Queue `inputs.len()` steps; one reply carries all output rows.
    /// `deadline` (if any) bounds how long the rows may sit queued.
    Step { session: u64, inputs: Vec<Vec<f32>>, deadline: Option<Instant>, reply: Sender<Response> },
    /// Query the session's current read-vector row.
    ReadRows { session: u64, reply: Sender<Response> },
    /// Reset the session to blank state.
    Reset { session: u64, reply: Sender<Response> },
    /// Close the session.
    Close { session: u64, reply: Sender<Response> },
    /// Register a session found in the store at hub boot as spilled; it
    /// rehydrates lazily on its first command. Fire-and-forget.
    Adopt { session: u64 },
}

/// Store wiring handed to a group at spawn (see
/// [`StoreConfig`](crate::session::StoreConfig) for the policy knobs).
#[derive(Clone)]
pub(crate) struct GroupStore {
    /// The shared on-disk session store.
    pub store: Arc<SessionStore>,
    /// Snapshot + compact a session's log every this many logged steps.
    pub snapshot_every: u64,
    /// Spill LRU detached states to disk beyond this many parked in RAM.
    pub max_parked: usize,
}

/// State shared between a group thread, its supervisor, and the hub.
///
/// The `queued`/`parked` counters track this group's *contribution* to
/// the corresponding shared gauges. When the group thread panics those
/// gauge contributions would otherwise dangle forever; the supervisor
/// swaps them to zero and subtracts them back out before restarting.
#[derive(Clone)]
pub(crate) struct GroupShared {
    /// The hub's session → group routing table.
    pub index: Arc<Mutex<HashMap<u64, Sender<GroupCmd>>>>,
    /// Server-wide metric handles and lifecycle trace.
    pub metrics: Arc<ServeMetrics>,
    /// Steps queued across every group (the global admission budget).
    pub global_queued: Arc<AtomicI64>,
    /// Session ids this group owns (RAM or spilled) — what the restarted
    /// group scans for resurrection after a panic.
    pub roster: Arc<Mutex<HashSet<u64>>>,
    /// This group's contribution to `serve.scheduler.queue_depth` (and
    /// to `global_queued`).
    pub queued: Arc<AtomicI64>,
    /// This group's contribution to `serve.sessions.parked`.
    pub parked: Arc<AtomicI64>,
}

impl GroupShared {
    fn queue_add(&self, n: i64) {
        self.metrics.queue_depth.add(n);
        self.queued.fetch_add(n, Ordering::Relaxed);
        self.global_queued.fetch_add(n, Ordering::Relaxed);
    }

    fn queue_sub(&self, n: i64) {
        self.metrics.queue_depth.sub(n);
        self.queued.fetch_sub(n, Ordering::Relaxed);
        self.global_queued.fetch_sub(n, Ordering::Relaxed);
    }

    fn park_add(&self, n: i64) {
        self.metrics.sessions_parked.add(n);
        self.parked.fetch_add(n, Ordering::Relaxed);
    }

    fn park_sub(&self, n: i64) {
        self.metrics.sessions_parked.sub(n);
        self.parked.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Per-session scheduler state.
struct Sess {
    /// Resident lane slot, if currently on the grid.
    lane: Option<usize>,
    /// Detached state while swapped out (`None` for a blank session —
    /// attaching then recycles the lane with `reset_lane`).
    parked: Option<LaneState>,
    /// Pending step inputs in step order, each with its enqueue instant
    /// (the start of the measured enqueue→output step latency).
    queue: VecDeque<(Vec<f32>, Instant)>,
    /// The in-flight step command: reply channel, outputs accumulated so
    /// far, and how many are expected. At most one per session.
    reply: Option<(Sender<Response>, Vec<Vec<f32>>, usize)>,
    /// The in-flight command's deadline: queued rows still unserved when
    /// it passes are shed with `DeadlineExceeded`.
    deadline: Option<Instant>,
    /// Copy of the session's current read-vector row, maintained across
    /// swaps so `ReadRows` never needs to touch the grid.
    last_read: Vec<f32>,
    /// Refreshed by every command and every stepped tick; drives
    /// idle-timeout reaping.
    last_activity: Instant,
    /// This session's `serve.session.<id>.step_latency_us` histogram
    /// (registered on open, dropped on close/reap).
    latency: Histogram,
    /// Steps applied to this session over its whole life (survives
    /// evict/rehydrate) — the delta-log sequence number of the latest
    /// step and the `step_seq` a snapshot is stamped with.
    seq: u64,
    /// Logged steps since the last snapshot; drives periodic compaction.
    since_snapshot: u64,
    /// Queued rows at the front of `queue` that are recovery replay:
    /// they step the grid but answer no client and append no log record.
    replay_left: usize,
    /// `ReadRows` replies deferred until `replay_left` drains.
    pending_reads: Vec<Sender<Response>>,
    /// Open delta-log writer (lazy; dropped before compaction, because
    /// compaction truncates the log file under stale handles).
    log: Option<hima_store::LogWriter>,
}

impl Sess {
    fn idle(&self) -> bool {
        self.queue.is_empty() && self.reply.is_none()
    }
}

/// The state owned by one group thread.
struct Group {
    cfg: ServeConfig,
    engine: BoxedEngine,
    /// `lanes[slot]` = resident session id.
    lanes: Vec<Option<u64>>,
    free: Vec<usize>,
    sessions: HashMap<u64, Sess>,
    /// Hub/supervisor shared state: routing index, metrics, budgets,
    /// roster, gauge contributions.
    shared: GroupShared,
    /// Reused per-tick input/output blocks.
    x: Matrix,
    y: Matrix,
    read_width: usize,
    /// Server-wide metric handles and lifecycle trace (clone of
    /// `shared.metrics`, kept separate for borrow-splitting ergonomics).
    metrics: Arc<ServeMetrics>,
    /// Sampled engine timing: the profile totals already folded into the
    /// registry (`None` when the opt-in path is off).
    profile_base: Option<KernelProfile>,
    /// Stepped ticks since the last profile sample.
    ticks_since_sample: u32,
    /// The durability tier (`None` = RAM only; idle-reap then discards).
    store: Option<GroupStore>,
    /// This group's canonical spec key — what its sessions' store files
    /// are stamped with.
    spec_key: Vec<u8>,
    /// Sessions living only in the store right now; still routable, and
    /// rehydrated on their next command.
    spilled: HashSet<u64>,
    /// Sessions lost to a group panic (no durable state to resurrect
    /// from). Their next command answers `GroupFailed` exactly once.
    failed: HashSet<u64>,
    /// A blank lane's state, for non-panicking geometry checks against
    /// decoded snapshots before the splice (which asserts), and as
    /// the canonical state of a blank session being evicted.
    template: Option<LaneState>,
}

/// Runs a group's tick loop until its command channel disconnects (server
/// shutdown) **and** every queued step has been served — pending work is
/// drained, never dropped.
///
/// Re-entrant: the supervisor calls it again after a panic with
/// `resume = true`, and the fresh incarnation resurrects store-backed
/// sessions from the roster (unpersisted ones move to the failed set).
pub(crate) fn run_group(
    cfg: ServeConfig,
    spec: SessionSpec,
    rx: &Receiver<GroupCmd>,
    shared: GroupShared,
    store: Option<GroupStore>,
    resume: bool,
) {
    let mut group = Group::new(cfg, &spec, shared, store);
    if resume {
        group.resurrect();
    }

    let mut disconnected = false;
    loop {
        let has_work = group.sessions.values().any(|s| !s.queue.is_empty());
        if has_work || disconnected {
            // Work pending (or draining): poll without blocking so the
            // grid keeps ticking at full rate.
            loop {
                match rx.try_recv() {
                    Ok(cmd) => group.handle(cmd),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
        } else {
            // Idle: block for up to one tick waiting for a command.
            match rx.recv_timeout(group.cfg.tick) {
                Ok(cmd) => {
                    group.handle(cmd);
                    while let Ok(cmd) = rx.try_recv() {
                        group.handle(cmd);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
        }
        group.step_tick();
        group.reap();
        group.spill_lru();
        if disconnected && group.sessions.values().all(Sess::idle) {
            break;
        }
    }
    // Fold any engine time accumulated since the last periodic sample.
    group.sample_profile(true);
}

impl Group {
    /// An empty group over a freshly built `grid_lanes`-lane engine of
    /// `spec`.
    fn new(cfg: ServeConfig, spec: &SessionSpec, shared: GroupShared, store: Option<GroupStore>) -> Self {
        let lanes = cfg.grid_lanes.max(1);
        let metrics = Arc::clone(&shared.metrics);
        let profiling = metrics.engine_profiling();
        let engine = EngineBuilder::new(spec.params)
            .with_spec(spec.spec)
            .lanes(lanes)
            .seed(spec.seed)
            .profiling(profiling)
            .build();
        let template = store.as_ref().map(|_| engine.export_lane(0));
        Group {
            cfg,
            engine,
            lanes: vec![None; lanes],
            free: (0..lanes).rev().collect(),
            sessions: HashMap::new(),
            shared,
            x: Matrix::zeros(lanes, spec.params.input_size),
            y: Matrix::zeros(lanes, spec.params.output_size),
            read_width: spec.params.read_heads * spec.params.word_size,
            metrics,
            profile_base: profiling.then(KernelProfile::new),
            ticks_since_sample: 0,
            store,
            spec_key: spec.group_key(),
            spilled: HashSet::new(),
            failed: HashSet::new(),
            template,
        }
    }

    /// A fresh blank session record (open, or reset-from-spilled).
    fn blank_sess(&self, session: u64) -> Sess {
        Sess {
            lane: None,
            parked: None,
            queue: VecDeque::new(),
            reply: None,
            deadline: None,
            last_read: vec![0.0; self.read_width],
            last_activity: Instant::now(),
            latency: self.metrics.session_histogram(session),
            seq: 0,
            since_snapshot: 0,
            replay_left: 0,
            pending_reads: Vec::new(),
            log: None,
        }
    }

    /// Post-panic recovery: every roster session either resurrects from
    /// its store files (as spilled — the lazy rehydration path does the
    /// heavy lifting on its next command) or moves to the failed set.
    fn resurrect(&mut self) {
        let roster: Vec<u64> = lock_clean(&self.shared.roster).iter().copied().collect();
        let mut resurrected = 0u64;
        for id in roster {
            let stored = self
                .store
                .as_ref()
                .and_then(|gs| gs.store.spec_key(id).ok().flatten())
                .is_some_and(|key| key == self.spec_key);
            if stored {
                self.spilled.insert(id);
                self.metrics.supervisor_resurrected.inc();
                resurrected += 1;
            } else {
                // Still routable: the index entry goes when the session's
                // next command has collected its `GroupFailed`.
                self.failed.insert(id);
                self.metrics.supervisor_failed_sessions.inc();
                self.retire(id, TraceKind::SessionFailed);
            }
        }
        self.metrics.trace(TraceKind::GroupRestart, 0, resurrected);
    }

    /// Deletes a session's store files, counting failures.
    fn drop_store_files(&self, session: u64) {
        if let Some(gs) = &self.store {
            if gs.store.remove(session).is_err() {
                self.metrics.store_errors.inc();
            }
        }
    }

    /// Returns a departing session's lane, if it held one, to the free
    /// list.
    fn free_lane(&mut self, lane: Option<usize>) {
        if let Some(lane) = lane {
            self.lanes[lane] = None;
            self.free.push(lane);
        }
    }

    /// Takes a session that is gone for good off the books: the roster,
    /// the live gauge, its latency histogram, and the lifecycle trace
    /// (`kind` says how it went). Callers account and retire *before*
    /// replying, and drop the routing-index entry themselves — a failed
    /// session keeps its entry until its `GroupFailed` is collected.
    fn retire(&self, id: u64, kind: TraceKind) {
        lock_clean(&self.shared.roster).remove(&id);
        self.metrics.sessions_live.sub(1);
        self.metrics.drop_session_histogram(id);
        self.metrics.trace(kind, id, 0);
    }

    /// How long an overloaded client should wait before retrying: the
    /// estimated drain time of the current global backlog through this
    /// group's grid, in whole ticks.
    fn retry_after_estimate(&self) -> u64 {
        let backlog = self.shared.global_queued.load(Ordering::Relaxed).max(0) as u64;
        let lanes = self.engine.batch().max(1) as u64;
        let tick_ms = self.cfg.tick.as_millis().max(1) as u64;
        ((backlog / lanes + 1) * tick_ms).clamp(1, 30_000)
    }

    fn handle(&mut self, cmd: GroupCmd) {
        // A session the supervisor could not resurrect answers its next
        // command with a typed GroupFailed, then unregisters.
        let failed_target = match &cmd {
            GroupCmd::Open { .. } => None,
            GroupCmd::Step { session, .. }
            | GroupCmd::ReadRows { session, .. }
            | GroupCmd::Reset { session, .. }
            | GroupCmd::Close { session, .. }
            | GroupCmd::Adopt { session } => Some(*session),
        };
        if let Some(session) = failed_target {
            if self.failed.remove(&session) {
                lock_clean(&self.shared.index).remove(&session);
                let resp = Response::Error(ServeError::GroupFailed(session));
                match cmd {
                    GroupCmd::Step { reply, .. }
                    | GroupCmd::ReadRows { reply, .. }
                    | GroupCmd::Reset { reply, .. }
                    | GroupCmd::Close { reply, .. } => {
                        let _ = reply.send(resp);
                    }
                    _ => {}
                }
                return;
            }
        }
        // Step and read commands addressed to a spilled session pull it
        // back into RAM first; close/reset only touch the store files.
        let target = match &cmd {
            GroupCmd::Step { session, .. } | GroupCmd::ReadRows { session, .. } => Some(*session),
            _ => None,
        };
        if let Some(session) = target {
            if self.spilled.contains(&session) {
                if let Err(e) = self.rehydrate(session) {
                    let (GroupCmd::Step { reply, .. } | GroupCmd::ReadRows { reply, .. }) = cmd
                    else {
                        unreachable!()
                    };
                    let _ = reply.send(Response::Error(e));
                    return;
                }
            }
        }
        match cmd {
            GroupCmd::Open { session, reply } => {
                let blank = self.blank_sess(session);
                self.sessions.insert(session, blank);
                lock_clean(&self.shared.roster).insert(session);
                self.metrics.sessions_opened.inc();
                self.metrics.sessions_live.add(1);
                self.metrics.trace(TraceKind::Open, session, 0);
                let _ = reply.send(Response::Opened { session });
            }
            GroupCmd::Step { session, inputs, deadline, reply } => {
                let input_size = self.engine.params().input_size;
                let retry_after_ms = self.retry_after_estimate();
                let global_queued = self.shared.global_queued.load(Ordering::Relaxed).max(0) as usize;
                let Some(sess) = self.sessions.get_mut(&session) else {
                    let _ = reply.send(Response::Error(ServeError::UnknownSession(session)));
                    return;
                };
                if sess.reply.is_some() {
                    let _ = reply.send(Response::Error(ServeError::SessionBusy(session)));
                    return;
                }
                if inputs.is_empty() {
                    let _ = reply.send(Response::Stepped { outputs: Vec::new() });
                    return;
                }
                if let Some(bad) = inputs.iter().find(|row| row.len() != input_size) {
                    let _ = reply.send(Response::Error(ServeError::BadInput(format!(
                        "input rows must be {input_size} wide, got {}",
                        bad.len()
                    ))));
                    return;
                }
                // A NaN or an infinity would poison the session's lane
                // state for good, inside a grid it shares with co-tenants:
                // stop it here, typed, before anything is admitted.
                if let Some(t) = inputs.iter().position(|row| row.iter().any(|v| !v.is_finite())) {
                    let _ = reply.send(Response::Error(ServeError::BadInput(format!(
                        "input rows must hold finite values, row {t} does not"
                    ))));
                    return;
                }
                // Admission control: bounded queues, typed rejection.
                let over_session =
                    sess.queue.len() + inputs.len() > self.cfg.session_queue_limit.max(1);
                let over_global =
                    global_queued.saturating_add(inputs.len()) > self.cfg.global_queue_limit.max(1);
                if over_session || over_global {
                    self.metrics.overload_shed.inc();
                    self.metrics.trace(TraceKind::Shed, session, inputs.len() as u64);
                    let _ = reply.send(Response::Error(ServeError::Overloaded { retry_after_ms }));
                    return;
                }
                let now = Instant::now();
                sess.last_activity = now;
                let expected = inputs.len();
                sess.queue.extend(inputs.into_iter().map(|row| (row, now)));
                sess.reply = Some((reply, Vec::with_capacity(expected), expected));
                sess.deadline = deadline;
                self.shared.queue_add(expected as i64);
            }
            GroupCmd::ReadRows { session, reply } => {
                let Some(sess) = self.sessions.get_mut(&session) else {
                    let _ = reply.send(Response::Error(ServeError::UnknownSession(session)));
                    return;
                };
                sess.last_activity = Instant::now();
                if sess.replay_left > 0 {
                    // Recovery replay still draining: answer once the
                    // re-applied log has caught the state up.
                    sess.pending_reads.push(reply);
                    return;
                }
                let _ = reply.send(Response::Rows { read: sess.last_read.clone() });
            }
            GroupCmd::Reset { session, reply } => {
                if self.spilled.remove(&session) {
                    // Reset of a spilled session never rehydrates: the
                    // stored state is discarded and it restarts blank.
                    self.drop_store_files(session);
                    let blank = self.blank_sess(session);
                    self.sessions.insert(session, blank);
                    let _ = reply.send(Response::Done);
                    return;
                }
                let Some(sess) = self.sessions.get_mut(&session) else {
                    let _ = reply.send(Response::Error(ServeError::UnknownSession(session)));
                    return;
                };
                if sess.reply.is_some() {
                    let _ = reply.send(Response::Error(ServeError::SessionBusy(session)));
                    return;
                }
                if let Some(lane) = sess.lane {
                    self.engine.reset_lane(lane);
                    self.metrics.lane_resets.inc();
                }
                let was_parked = sess.parked.take().is_some();
                let queued = sess.queue.len();
                sess.queue.clear();
                sess.deadline = None;
                sess.last_read.fill(0.0);
                sess.last_activity = Instant::now();
                sess.seq = 0;
                sess.since_snapshot = 0;
                sess.replay_left = 0;
                sess.log = None;
                for deferred in sess.pending_reads.drain(..) {
                    let _ = deferred.send(Response::Rows { read: sess.last_read.clone() });
                }
                if was_parked {
                    self.shared.park_sub(1);
                }
                self.shared.queue_sub(queued as i64);
                self.drop_store_files(session);
                let _ = reply.send(Response::Done);
            }
            GroupCmd::Close { session, reply } => {
                let resident = self.sessions.remove(&session);
                if resident.is_none() && !self.spilled.remove(&session) {
                    let _ = reply.send(Response::Error(ServeError::UnknownSession(session)));
                    return;
                }
                if let Some(mut sess) = resident {
                    self.free_lane(sess.lane);
                    if sess.parked.is_some() {
                        self.shared.park_sub(1);
                    }
                    self.shared.queue_sub(sess.queue.len() as i64);
                    // Abort any queued-but-unserved steps (cannot happen
                    // through the synchronous client, which holds the
                    // session busy until the reply).
                    if let Some((reply, outputs, _)) = sess.reply {
                        let _ = reply.send(Response::Stepped { outputs });
                    }
                    for deferred in sess.pending_reads.drain(..) {
                        let _ = deferred.send(Response::Rows { read: sess.last_read.clone() });
                    }
                    // Drop the log writer before deleting its file.
                    sess.log = None;
                }
                // Closing a spilled session never rehydrates it; its store
                // files are simply deleted.
                self.drop_store_files(session);
                lock_clean(&self.shared.index).remove(&session);
                self.metrics.sessions_closed.inc();
                self.retire(session, TraceKind::Close);
                let _ = reply.send(Response::Done);
            }
            GroupCmd::Adopt { session } => {
                self.spilled.insert(session);
                lock_clean(&self.shared.roster).insert(session);
            }
        }
    }

    /// Seats non-resident session `id` on a lane: one from the free list,
    /// else the lane of the least-recently-active idle resident, which is
    /// parked. `None` if every resident is mid-request this tick (the
    /// requester stays queued and retries next tick — by then at least one
    /// resident has drained or parked).
    ///
    /// A session that carries a detached state takes the lane by
    /// **exchange** (`swap_lane`): park and splice are one trade of buffer
    /// headers, no state byte copied, nothing allocated. Only a blank
    /// session's victim is copied out (`export_lane`) — there is nothing
    /// to trade it for — before the lane is recycled with `reset_lane`.
    fn seat(&mut self, id: u64) -> Option<usize> {
        let (lane, victim) = match self.free.pop() {
            Some(lane) => (lane, None),
            None => {
                let victim = self
                    .lanes
                    .iter()
                    .filter_map(|&slot| slot)
                    .filter(|id| self.sessions[id].idle())
                    .min_by_key(|id| self.sessions[id].last_activity)?;
                (self.sessions.get_mut(&victim).unwrap().lane.take().unwrap(), Some(victim))
            }
        };
        let sess = self.sessions.get_mut(&id).unwrap();
        sess.lane = Some(lane);
        self.lanes[lane] = Some(id);
        // After the exchange `detached` holds whatever the lane held: the
        // victim's session, or a free lane's leftovers (dropped below).
        let mut detached = sess.parked.take();
        let splice = detached.is_some();
        if let Some(state) = &mut detached {
            self.engine.swap_lane(lane, state);
        }
        if let Some(victim) = victim {
            let state = detached.unwrap_or_else(|| self.engine.export_lane(lane));
            self.sessions.get_mut(&victim).unwrap().parked = Some(state);
            self.metrics.parks.inc();
            self.shared.park_add(1);
            self.metrics.trace(TraceKind::Park, victim, lane as u64);
        }
        if splice {
            self.metrics.splices.inc();
            self.shared.park_sub(1);
            self.metrics.trace(TraceKind::Splice, id, lane as u64);
        } else {
            self.engine.reset_lane(lane);
            self.metrics.lane_resets.inc();
        }
        Some(lane)
    }

    /// Sheds every in-flight command whose deadline has passed, in
    /// [`shed_order`](crate::retry::shed_order): oldest deadline first,
    /// ties by session id. The whole command
    /// fails with a typed `DeadlineExceeded`; rows already stepped are
    /// dropped with it (the session state keeps them — only the reply is
    /// truncated). Recovery-replay rows are never shed: they are owed to
    /// durability, not to a client.
    fn shed_expired(&mut self) {
        let in_flight: Vec<(u64, Instant)> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.reply.is_some())
            .filter_map(|(&id, s)| Some((id, s.deadline?)))
            .collect();
        for id in crate::retry::shed_order(&in_flight, Instant::now()) {
            let sess = self.sessions.get_mut(&id).unwrap();
            let shed = sess.queue.len() - sess.replay_left;
            sess.queue.truncate(sess.replay_left);
            sess.deadline = None;
            let (reply, _outputs, _) = sess.reply.take().unwrap();
            // Account and trace before replying: the client may read the
            // counters the moment its error arrives.
            self.shared.queue_sub(shed as i64);
            self.metrics.overload_deadline_expired.inc();
            self.metrics.trace(TraceKind::Shed, id, shed as u64);
            let _ = reply.send(Response::Error(ServeError::DeadlineExceeded { session: id }));
        }
    }

    /// One grid tick: shed expired commands, seat sessions with pending
    /// work, coalesce one queued step per seated session into a masked
    /// batch, step, fan the outputs back out.
    fn step_tick(&mut self) {
        self.shed_expired();
        // Deterministic seating order (session id) keeps swap decisions
        // reproducible under identical command interleavings.
        let mut pending: Vec<u64> =
            self.sessions.iter().filter(|(_, s)| !s.queue.is_empty()).map(|(&id, _)| id).collect();
        if pending.is_empty() {
            // The gauge is "lanes stepped by the latest tick": an idle tick
            // stepped none. Without this it holds the last batch size for
            // as long as the group stays idle.
            self.metrics.active_lanes.set(0);
            return;
        }
        pending.sort_unstable();

        // The scheduler fault site: consulted once per tick that has
        // pending work, *before* any queue entry is popped — a panic
        // here leaves every command intact for the restarted group.
        if let Some(plan) = self.cfg.faults.as_deref() {
            match plan.check(FaultSite::SchedTick) {
                Some(FaultKind::Panic) => panic!("injected scheduler panic"),
                Some(kind) => {
                    // Latency sleeps inside; error kinds are meaningless
                    // at this site and ignored.
                    let _ = hima_chaos::io_error_for(kind);
                }
                None => {}
            }
        }

        let mut mask = vec![false; self.engine.batch()];
        let mut stepping: Vec<(u64, usize, Instant, bool)> = Vec::with_capacity(pending.len());
        for id in pending {
            let lane = match self.sessions[&id].lane {
                Some(lane) => lane,
                None => match self.seat(id) {
                    Some(lane) => lane,
                    // Grid saturated by mid-request residents: wait a
                    // tick.
                    None => continue,
                },
            };
            let sess = self.sessions.get_mut(&id).unwrap();
            let is_replay = sess.replay_left > 0;
            if let Some(gs) = self.store.as_ref().filter(|_| !is_replay) {
                // Write-ahead: the step input must be durable *before*
                // the engine applies it — an acknowledged step is then
                // always re-derivable after a kill. On failure the step
                // is not applied and the command fails typed.
                if sess.log.is_none() {
                    if let Ok(w) = gs.store.log_writer(id, &self.spec_key) {
                        sess.log = Some(w);
                    }
                }
                let next_seq = sess.seq + 1;
                let appended = match &mut sess.log {
                    Some(log) => {
                        let input = &sess.queue.front().unwrap().0;
                        log.append(next_seq, input).is_ok()
                    }
                    None => false,
                };
                if !appended {
                    self.metrics.store_errors.inc();
                    sess.log = None;
                    let dropped = sess.queue.len();
                    sess.queue.clear();
                    sess.deadline = None;
                    // Queue accounting before the reply, as in
                    // `shed_expired`.
                    self.shared.queue_sub(dropped as i64);
                    if let Some((reply, _, _)) = sess.reply.take() {
                        let _ = reply.send(Response::Error(ServeError::Store(format!(
                            "session {id}: delta-log append failed; step not applied"
                        ))));
                    }
                    continue;
                }
                self.metrics.store_log_appends.inc();
                sess.seq = next_seq;
                sess.since_snapshot += 1;
            }
            let (input, enqueued) = sess.queue.pop_front().unwrap();
            self.x.row_mut(lane).copy_from_slice(&input);
            mask[lane] = true;
            stepping.push((id, lane, enqueued, is_replay));
        }
        if stepping.is_empty() {
            self.metrics.active_lanes.set(0);
            return;
        }

        let mask = LaneMask::from(mask);
        let tick_start = Instant::now();
        self.engine.step_batch_masked_into(&self.x, &mask, &mut self.y);
        let tick_ns = tick_start.elapsed().as_nanos() as u64;

        let n = stepping.len();
        self.metrics.ticks.inc();
        self.metrics.steps.add(n as u64);
        self.metrics.tick_ns.observe(tick_ns);
        self.metrics.batch_size.observe(n as u64);
        self.metrics.occupancy_pct.observe((n * 100 / self.engine.batch()) as u64);
        self.metrics.active_lanes.set(n as i64);
        self.shared.queue_sub(n as i64);

        let now = Instant::now();
        let mut compact: Vec<u64> = Vec::new();
        for (id, lane, enqueued, is_replay) in stepping {
            let sess = self.sessions.get_mut(&id).unwrap();
            sess.last_read.copy_from_slice(self.engine.last_read_row(lane));
            sess.last_activity = now;
            if is_replay {
                // A recovery-replay row: it advanced the lane state but
                // answers no client, counts no latency and appends no
                // log record (it came *from* the log or predates the
                // snapshot's coverage).
                sess.replay_left -= 1;
                if sess.replay_left == 0 {
                    for deferred in sess.pending_reads.drain(..) {
                        let _ = deferred.send(Response::Rows { read: sess.last_read.clone() });
                    }
                }
                continue;
            }
            if let Some(gs) = &self.store {
                if sess.since_snapshot >= gs.snapshot_every {
                    compact.push(id);
                }
            }
            let latency_us = now.duration_since(enqueued).as_micros() as u64;
            sess.latency.observe(latency_us);
            self.metrics.step_latency_us.observe(latency_us);
            let (reply, mut outputs, expected) = sess.reply.take().unwrap();
            outputs.push(self.y.row(lane).to_vec());
            if outputs.len() == expected {
                sess.deadline = None;
                let _ = reply.send(Response::Stepped { outputs });
            } else {
                sess.reply = Some((reply, outputs, expected));
            }
        }
        for id in compact {
            self.compact(id);
        }

        self.ticks_since_sample += 1;
        self.sample_profile(false);
    }

    /// With sampled engine timing on, folds the delta between the
    /// engine's cumulative [`KernelProfile`] and the last sampled
    /// baseline into the registry's per-category counters. Runs every
    /// [`PROFILE_SAMPLE_TICKS`] stepped ticks and once (`force`) at group
    /// shutdown.
    fn sample_profile(&mut self, force: bool) {
        let Some(base) = &self.profile_base else { return };
        if !force && self.ticks_since_sample < PROFILE_SAMPLE_TICKS {
            return;
        }
        let cur = self.engine.profile();
        let mut delta = KernelProfile::new();
        // The engine's totals are monotone — a splice moves state, never a
        // unit's profile — so a negative delta is a bug to see.
        for k in KernelId::ALL {
            delta.record(k, cur.nanos(k) - base.nanos(k), cur.calls(k) - base.calls(k));
        }
        self.metrics.record_profile_delta(&delta);
        self.profile_base = Some(cur);
        self.ticks_since_sample = 0;
    }

    /// Periodic compaction of one resident session: snapshot the lane
    /// state at its current `seq`, which truncates the delta log.
    fn compact(&mut self, id: u64) {
        let Some(gs) = &self.store else { return };
        let store = Arc::clone(&gs.store);
        let sess = self.sessions.get_mut(&id).unwrap();
        let Some(lane) = sess.lane else { return };
        let seq = sess.seq;
        // The snapshot truncates the log in place; a stale writer would
        // roll a failed append back to the pre-truncation length.
        sess.log = None;
        let t0 = Instant::now();
        let state = self.engine.export_lane(lane);
        let bytes = state.encode();
        match store.save_snapshot(id, &self.spec_key, seq, &bytes) {
            Ok(()) => {
                self.metrics.store_snapshot_bytes.observe(bytes.len() as u64);
                self.metrics.store_snapshot_us.observe(t0.elapsed().as_micros() as u64);
                self.sessions.get_mut(&id).unwrap().since_snapshot = 0;
            }
            Err(_) => self.metrics.store_errors.inc(),
        }
    }

    /// Spills one idle session to the store: snapshot its full state,
    /// drop it from RAM, keep its id routable (the routing index entry
    /// survives; [`Group::rehydrate`] rebuilds it on the next command).
    ///
    /// Returns false — with the session's newest state still in RAM —
    /// if the store write fails: state newer than the last durable
    /// snapshot is **never** discarded. The refused victim degrades to
    /// the parked tier (freeing its lane) and the refusal is counted
    /// under `store.evict_refusals`.
    fn evict(&mut self, id: u64) -> bool {
        let Some(gs) = &self.store else { return false };
        let store = Arc::clone(&gs.store);
        let sess = self.sessions.get_mut(&id).unwrap();
        debug_assert!(sess.idle(), "only idle sessions evict");
        sess.log = None;
        let seq = sess.seq;
        let was_parked = sess.parked.is_some();
        let state = match sess.parked.take() {
            Some(state) => state,
            None => match sess.lane {
                Some(lane) => self.engine.export_lane(lane),
                // A blank session (never stepped, nothing on the grid):
                // its canonical state is the blank template.
                None => self.template.clone().expect("store implies a template lane state"),
            },
        };
        let t0 = Instant::now();
        let bytes = state.encode();
        if store.save_snapshot(id, &self.spec_key, seq, &bytes).is_err() {
            self.metrics.store_errors.inc();
            self.metrics.store_evict_refusals.inc();
            // Refuse to discard: keep the newest state in RAM, parked
            // (the lane frees up either way — the detached copy is the
            // state now). The refusal counts as activity, so the idle
            // sweep retries once per `idle_timeout`, not once per tick
            // for as long as the disk refuses.
            let sess = self.sessions.get_mut(&id).unwrap();
            sess.parked = Some(state);
            sess.last_activity = Instant::now();
            let lane = sess.lane.take();
            self.free_lane(lane);
            if !was_parked {
                self.shared.park_add(1);
            }
            return false;
        }
        self.metrics.store_snapshot_bytes.observe(bytes.len() as u64);
        self.metrics.store_snapshot_us.observe(t0.elapsed().as_micros() as u64);
        let sess = self.sessions.remove(&id).unwrap();
        self.free_lane(sess.lane);
        if was_parked {
            self.shared.park_sub(1);
        }
        self.spilled.insert(id);
        self.metrics.store_evictions.inc();
        self.metrics.drop_session_histogram(id);
        self.metrics.trace(TraceKind::Evict, id, seq);
        true
    }

    /// Rebuilds a spilled session in RAM: decode its snapshot (geometry-
    /// checked against this group's engines), queue the unapplied delta-
    /// log steps as replay, and make it schedulable again. Replay runs
    /// through the ordinary masked grid, so the recovered state is
    /// bit-identical to never having been evicted.
    fn rehydrate(&mut self, id: u64) -> Result<(), ServeError> {
        let gs = self.store.as_ref().expect("spilled sessions imply a store");
        let store = Arc::clone(&gs.store);
        let rec = match store.load(id) {
            Ok(Some(rec)) => rec,
            Ok(None) => {
                self.metrics.store_errors.inc();
                return Err(ServeError::Store(format!("session {id}: store files missing")));
            }
            Err(e) => {
                self.metrics.store_errors.inc();
                return Err(ServeError::Store(e.to_string()));
            }
        };
        if rec.torn_tail {
            // Tolerated: the valid prefix still recovers; the torn
            // records were never acknowledged to any client.
            self.metrics.store_torn_tails.inc();
        }
        if rec.spec_key != self.spec_key {
            self.metrics.store_errors.inc();
            return Err(ServeError::Store(format!("session {id}: stored under a different spec")));
        }
        let parked = match &rec.snapshot {
            Some(snap) => match LaneState::decode(&snap.state) {
                Ok(state) if self.template.as_ref().is_some_and(|t| t.same_geometry(&state)) => {
                    Some(state)
                }
                Ok(_) => {
                    self.metrics.store_errors.inc();
                    return Err(ServeError::Store(format!(
                        "session {id}: snapshot geometry does not match the group engine"
                    )));
                }
                Err(e) => {
                    self.metrics.store_errors.inc();
                    return Err(ServeError::Store(format!("session {id}: {e}")));
                }
            },
            None => None,
        };
        let input_size = self.engine.params().input_size;
        let now = Instant::now();
        let mut queue = VecDeque::new();
        for step in rec.replay_steps() {
            if step.input.len() != input_size {
                self.metrics.store_errors.inc();
                return Err(ServeError::Store(format!(
                    "session {id}: logged step is {} wide, engine wants {input_size}",
                    step.input.len()
                )));
            }
            queue.push_back((step.input.clone(), now));
        }
        let replay_left = queue.len();
        let seq = rec.last_seq();
        let snap_seq = rec.snapshot.as_ref().map_or(0, |s| s.step_seq);
        let mut last_read = vec![0.0; self.read_width];
        if let Some(state) = &parked {
            last_read.copy_from_slice(state.read_row());
        }
        let has_state = parked.is_some();
        self.spilled.remove(&id);
        self.sessions.insert(
            id,
            Sess {
                lane: None,
                parked,
                queue,
                reply: None,
                deadline: None,
                last_read,
                last_activity: now,
                latency: self.metrics.session_histogram(id),
                seq,
                since_snapshot: seq - snap_seq,
                replay_left,
                pending_reads: Vec::new(),
                log: None,
            },
        );
        if has_state {
            self.shared.park_add(1);
        }
        self.shared.queue_add(replay_left as i64);
        self.metrics.store_rehydrations.inc();
        self.metrics.store_replay_steps.observe(replay_left as u64);
        self.metrics.trace(TraceKind::Rehydrate, id, replay_left as u64);
        Ok(())
    }

    /// Caps the in-RAM parked tier: beyond `max_parked` detached states,
    /// the least-recently-active idle ones spill to the store.
    fn spill_lru(&mut self) {
        let Some(gs) = &self.store else { return };
        let max_parked = gs.max_parked;
        loop {
            let parked: Vec<u64> = self
                .sessions
                .iter()
                .filter(|(_, s)| s.parked.is_some())
                .map(|(&id, _)| id)
                .collect();
            if parked.len() <= max_parked {
                return;
            }
            let Some(victim) = parked
                .into_iter()
                .filter(|id| self.sessions[id].idle())
                .min_by_key(|id| self.sessions[id].last_activity)
            else {
                return;
            };
            if !self.evict(victim) {
                return;
            }
        }
    }

    /// Sweeps sessions idle past the configured timeout. Without a store
    /// this *discards* them (reap); with one it *evicts* them to disk,
    /// keeping the id routable. A session with queued steps or an
    /// unanswered reply is never swept, so an in-flight stream outlives
    /// any idle timeout — `last_activity` is refreshed on every stepped
    /// tick.
    fn reap(&mut self) {
        let Some(timeout) = self.cfg.idle_timeout else { return };
        let now = Instant::now();
        let dead: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.idle() && now.duration_since(s.last_activity) > timeout)
            .map(|(&id, _)| id)
            .collect();
        if dead.is_empty() {
            return;
        }
        if self.store.is_some() {
            for id in dead {
                self.evict(id);
            }
            return;
        }
        for id in dead {
            let sess = self.sessions.remove(&id).unwrap();
            self.free_lane(sess.lane);
            if sess.parked.is_some() {
                self.shared.park_sub(1);
            }
            lock_clean(&self.shared.index).remove(&id);
            self.metrics.sessions_reaped.inc();
            self.retire(id, TraceKind::Reap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RawSessionSpec;
    use std::sync::mpsc::channel;

    /// Counts the calling thread's heap allocations (the `zero_alloc`
    /// pattern: const-initialized native TLS, so counting never allocates
    /// and parallel test threads do not see each other).
    mod counting_alloc {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        pub struct CountingAlloc;

        thread_local! {
            static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        }

        pub fn allocations() -> u64 {
            ALLOCATIONS.with(Cell::get)
        }

        fn count() {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
        }

        unsafe impl GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                count();
                // SAFETY: forwarded with the caller's layout.
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                count();
                // SAFETY: forwarded with the caller's layout.
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                count();
                // SAFETY: forwarded with the caller's pointer and layout.
                unsafe { System.realloc(ptr, layout, new_size) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: forwarded with the caller's pointer and layout.
                unsafe { System.dealloc(ptr, layout) }
            }
        }
    }

    #[global_allocator]
    static COUNTER: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

    fn group(grid_lanes: usize) -> Group {
        let cfg = ServeConfig { grid_lanes, idle_timeout: None, ..ServeConfig::default() };
        group_with(cfg, None)
    }

    fn group_with(cfg: ServeConfig, store: Option<GroupStore>) -> Group {
        let shared = GroupShared {
            index: Arc::default(),
            metrics: Arc::new(ServeMetrics::new()),
            global_queued: Arc::default(),
            roster: Arc::default(),
            queued: Arc::default(),
            parked: Arc::default(),
        };
        Group::new(cfg, &RawSessionSpec::demo().validate().unwrap(), shared, store)
    }

    fn open(group: &mut Group, session: u64) {
        let (reply, _opened) = channel();
        group.handle(GroupCmd::Open { session, reply });
    }

    /// Queues one step for `session` and ticks until it is answered.
    fn step(group: &mut Group, session: u64, t: usize) -> Vec<f32> {
        let input = crate::loadgen::synth_input(session as usize, t, group.engine.params().input_size);
        let (reply, answered) = channel();
        group.handle(GroupCmd::Step { session, inputs: vec![input], deadline: None, reply });
        group.step_tick();
        match answered.try_recv().expect("one tick serves an idle grid's only request") {
            Response::Stepped { mut outputs } => outputs.pop().unwrap(),
            other => panic!("step answered {other:?}"),
        }
    }

    /// A churned tick's lane miss — park the victim, splice the incoming
    /// session — is one exchange: no heap allocation, the least-recently
    /// -active idle resident parked, Park traced before Splice, the
    /// counters and the gauge as the copying pair left them, and the
    /// sessions bit-equal to solo replay afterwards.
    #[test]
    fn a_lane_miss_is_one_exchange_with_no_allocation() {
        let mut group = group(2);
        for session in 0..4u64 {
            open(&mut group, session);
        }
        // Round-robin over four sessions on two lanes: from the third on,
        // every step misses. Sessions 0 and 1 come back with state.
        let mut got: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 4];
        for t in 0..2 {
            for session in 0..4u64 {
                got[session as usize].push(step(&mut group, session, t));
            }
        }
        let metrics = Arc::clone(&group.metrics);
        let count = |name: &str| metrics.snapshot().counter(name).unwrap_or(0);
        assert_eq!((count("serve.scheduler.parks"), count("serve.scheduler.splices")), (6, 4));
        assert_eq!(group.shared.parked.load(Ordering::Relaxed), 2);

        // Sessions 2 and 3 hold the lanes, 2 the longer idle: seating 0
        // parks it.
        let lane = group.sessions[&2].lane.unwrap();
        let before = counting_alloc::allocations();
        let seated = group.seat(0);
        let allocated = counting_alloc::allocations() - before;
        assert_eq!(seated, Some(lane));
        assert_eq!(allocated, 0, "park + splice allocated");
        assert_eq!((count("serve.scheduler.parks"), count("serve.scheduler.splices")), (7, 5));
        assert_eq!(group.shared.parked.load(Ordering::Relaxed), 2);
        assert!(group.sessions[&2].parked.is_some() && group.sessions[&2].lane.is_none());
        assert!(group.sessions[&0].parked.is_none());
        let kinds: Vec<_> = metrics.trace_dump().iter().rev().take(2).map(|e| (e.kind, e.session)).collect();
        assert_eq!(kinds, [(TraceKind::Splice, 0), (TraceKind::Park, 2)]);

        for session in [0u64, 2, 1, 3] {
            got[session as usize].push(step(&mut group, session, 2));
        }
        let spec = RawSessionSpec::demo().validate().unwrap();
        for (session, got) in got.iter().enumerate() {
            let mut solo =
                EngineBuilder::new(spec.params).with_spec(spec.spec).seed(spec.seed).build();
            for (t, row) in got.iter().enumerate() {
                let input = crate::loadgen::synth_input(session, t, spec.params.input_size);
                assert_eq!(row, &solo.step(&input), "session {session} step {t}");
            }
        }
    }

    /// A refused eviction counts as activity: the idle sweep comes back
    /// for the victim after another `idle_timeout`, not on the next tick —
    /// each attempt is an encode, a slot write and a `sync_all` on the
    /// thread that serves the co-tenants.
    #[test]
    fn a_refused_eviction_is_retried_per_idle_timeout_not_per_tick() {
        use hima_chaos::{FaultPlan, FaultRule};
        use std::time::Duration;

        let dir = std::env::temp_dir().join(format!("hima-sched-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Only a snapshot syncs: every eviction is refused, the
        // write-ahead log (never synced) works.
        let plan = FaultPlan::new(7).with_rule(FaultRule::probabilistic(
            FaultSite::StoreFsync,
            FaultKind::IoError,
            1000,
        ));
        let store = GroupStore {
            store: Arc::new(SessionStore::open_with(&dir, Some(Arc::new(plan))).unwrap()),
            snapshot_every: u64::MAX,
            max_parked: usize::MAX,
        };
        let timeout = Duration::from_secs(10);
        let cfg = ServeConfig { grid_lanes: 2, idle_timeout: Some(timeout), ..ServeConfig::default() };
        let mut group = group_with(cfg, Some(store));
        open(&mut group, 0);
        step(&mut group, 0, 0);
        let long_ago = Instant::now().checked_sub(timeout + Duration::from_secs(1));
        group.sessions.get_mut(&0).unwrap().last_activity = long_ago.expect("host up for 11 s");

        let metrics = Arc::clone(&group.metrics);
        let observed = |group: &Group| {
            let sess = &group.sessions[&0];
            (
                metrics.snapshot().counter("store.evict_refusals").unwrap_or(0),
                sess.lane,
                sess.parked.is_some(),
                group.shared.parked.load(Ordering::Relaxed),
            )
        };
        group.reap();
        assert_eq!(observed(&group), (1, None, true, 1), "refused: parked in RAM, off the lane");
        group.reap();
        assert_eq!(observed(&group), (1, None, true, 1), "the next sweep leaves the victim alone");
        assert_eq!(step(&mut group, 0, 1).len(), group.engine.params().output_size, "still servable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Expired commands are answered `DeadlineExceeded` in `shed_order`:
    /// oldest deadline first, ties by session id — and leave nothing
    /// queued behind.
    #[test]
    fn expired_commands_are_shed_oldest_deadline_first_ties_by_id() {
        let mut group = group(2);
        let late = Instant::now();
        let early = late.checked_sub(std::time::Duration::from_millis(5)).expect("host up for 5 ms");
        // One reply channel for all three: answers arrive in shed order.
        let (reply, answered) = channel();
        for (session, deadline) in [(3u64, late), (1, late), (2, early)] {
            open(&mut group, session);
            let input = crate::loadgen::synth_input(0, 0, group.engine.params().input_size);
            group.handle(GroupCmd::Step {
                session,
                inputs: vec![input],
                deadline: Some(deadline),
                reply: reply.clone(),
            });
        }
        assert_eq!(group.shared.queued.load(Ordering::Relaxed), 3);

        group.step_tick();
        let shed: Vec<u64> = answered
            .try_iter()
            .map(|resp| match resp {
                Response::Error(ServeError::DeadlineExceeded { session }) => session,
                other => panic!("expired step answered {other:?}"),
            })
            .collect();
        assert_eq!(shed, [2, 1, 3]);
        let snap = group.metrics.snapshot();
        assert_eq!(snap.counter("overload.deadline_expired"), Some(3));
        assert_eq!(snap.gauge("serve.scheduler.queue_depth"), Some(0));
        assert_eq!(group.shared.queued.load(Ordering::Relaxed), 0);
    }
}
