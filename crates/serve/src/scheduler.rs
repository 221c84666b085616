//! The continuous-batching scheduler: one engine group, run by its callers.
//!
//! A **group** is every live session that shares one engine configuration
//! (equal [`SessionSpec`](crate::protocol::SessionSpec) group keys). A
//! group owns a single batched engine whose lane count is the grid
//! capacity, and each **tick** coalesces the pending step requests of
//! resident sessions into one `step_batch_masked_into` call:
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
//! # Who runs a group
//!
//! No thread of its own: a group is a [`GroupCell`] — the group and a
//! command inbox — and the threads that send it commands run it (flat
//! combining). A caller appends its command to the inbox and returns as
//! soon as its reply is there. Otherwise it takes the group, serves every
//! command the inbox holds, runs one tick and the parked-tier cap, and
//! looks again. While another caller holds the group it waits for that
//! caller's pass to end, which has served its command by then if it was
//! sent in time. Commands that arrive during a tick join the next one, so
//! overlapping callers still share a batch; a lone caller runs its step
//! inline, on its own thread, with no hand-off. The idle sweep is the one
//! job no caller drives: the hub's sweeper thread runs it
//! ([`GroupCell::sweep`]) when an idle timeout is configured.
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
//!   (snapshot decode + replay of unapplied log records), bit-identically.
//!   If the eviction snapshot fails, the state is *never* discarded: the
//!   session degrades to the in-RAM parked tier (counted under
//!   `store.evict_refusals`) and stays servable,
//! * when more than `max_parked` detached states accumulate in RAM, the
//!   least-recently-active ones spill to disk the same way.
//!
//! The replay runs inside rehydration, before the command that caused it
//! is applied: the recovered state is swapped into a borrowed lane, each
//! unapplied log row is stepped with only that lane active, and the state
//! is swapped back out — the lane's occupant, frozen by the mask, gets
//! its own buffers back bit for bit. Replayed steps count under
//! `serve.scheduler.steps` and `store.replay_steps`, answer no client and
//! append no log record; no tick ever sees one.
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
//! Every pass over a group runs under `catch_unwind`. A panic (a bug — or
//! an injected [`FaultKind::Panic`] at the `SchedTick` site) replaces the
//! group with a fresh incarnation that resurrects store-backed sessions
//! from their snapshot + delta log and fails unpersisted ones with a typed
//! [`ServeError::GroupFailed`]. A command the dead incarnation had taken
//! from the inbox is lost with it, and its caller is told so; commands
//! still in the inbox are served by the new one. Nothing repairs the
//! shared gauges: a group publishes them from its own session table
//! (`Group::publish`), and the new incarnation's first publish corrects
//! what the dead one left behind.

use crate::clock::Clock;
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
// Named by the unit tests through `use super::*`.
#[cfg(test)]
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// With sampled engine timing on, fold the engine's accumulated
/// [`KernelProfile`] into the registry every this many stepped ticks.
const PROFILE_SAMPLE_TICKS: u32 = 64;

/// Locks a mutex, ignoring poisoning: a panicked pass must not wedge the
/// hub (or the next incarnation of the group) out of the shared maps —
/// the data under these locks stays consistent because every critical
/// section is a plain insert/remove.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A command routed to a group by the
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

impl GroupCmd {
    /// The command's reply channel (`Adopt` has none).
    fn into_reply(self) -> Option<Sender<Response>> {
        match self {
            GroupCmd::Open { reply, .. }
            | GroupCmd::Step { reply, .. }
            | GroupCmd::ReadRows { reply, .. }
            | GroupCmd::Reset { reply, .. }
            | GroupCmd::Close { reply, .. } => Some(reply),
            GroupCmd::Adopt { .. } => None,
        }
    }
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

/// State shared between a group, its later incarnations, and the hub.
#[derive(Clone)]
pub(crate) struct GroupShared {
    /// The hub's session → group routing table.
    pub index: Arc<Mutex<HashMap<u64, Arc<GroupCell>>>>,
    /// Server-wide metric handles and lifecycle trace.
    pub metrics: Arc<ServeMetrics>,
    /// Steps queued across every group (the global admission budget).
    pub global_queued: Arc<AtomicI64>,
    /// Session ids this group owns (RAM or spilled) — what the restarted
    /// group scans for resurrection after a panic.
    pub roster: Arc<Mutex<HashSet<u64>>>,
    /// The queued rows, parked sessions and live sessions this group last
    /// published (`Group::publish`). It outlives a panicked incarnation,
    /// so the next one's first publish takes back the dead one's share.
    pub published: Arc<[AtomicI64; 3]>,
    /// The hub's clock: what `last_activity`, the idle sweep, the
    /// eviction back-off and deadline shedding read.
    pub clock: Arc<dyn Clock>,
}

/// A session's in-flight step command (at most one: a second answers
/// `SessionBusy`). It stays in flight until its last output is sent.
struct StepCmd {
    /// Input rows not yet staged into a tick, in step order.
    rows: VecDeque<Vec<f32>>,
    /// Outputs of the rows stepped so far.
    outputs: Vec<Vec<f32>>,
    reply: Sender<Response>,
    /// Rows still unserved when it passes are shed with `DeadlineExceeded`.
    deadline: Option<Instant>,
    /// When the command was queued: the start of every row's measured
    /// enqueue→output step latency.
    enqueued: Instant,
}

/// Per-session scheduler state.
struct Sess {
    /// Resident lane slot, if currently on the grid.
    lane: Option<usize>,
    /// Detached state while swapped out (`None` for a blank session —
    /// attaching then recycles the lane with `reset_lane`).
    parked: Option<LaneState>,
    /// The in-flight step command, if any.
    cmd: Option<StepCmd>,
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
    /// Logged steps since the last snapshot attempt; drives periodic
    /// compaction. A refused snapshot resets it too, so the next attempt
    /// waits another `snapshot_every` steps rather than coming every step.
    since_snapshot: u64,
    /// Open delta-log writer (lazy; dropped before compaction, because
    /// compaction truncates the log file under stale handles).
    log: Option<hima_store::LogWriter>,
}

impl Sess {
    /// Nothing owed: no command in flight.
    fn idle(&self) -> bool {
        self.cmd.is_none()
    }
}

/// One group's engine and session table.
struct Group {
    cfg: ServeConfig,
    engine: BoxedEngine,
    /// `lanes[slot]` = resident session id (`None` = free lane).
    lanes: Vec<Option<u64>>,
    sessions: HashMap<u64, Sess>,
    /// State shared with the hub and later incarnations: routing index,
    /// metrics, budgets, roster, published gauge levels.
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

thread_local! {
    /// This thread's reply slot, reused by every command it sends: each
    /// carries a clone of the sender, and exactly one reply comes back for
    /// it unless a panicked incarnation took the command down.
    static REPLY: (Sender<Response>, Receiver<Response>) = channel();
}

/// One engine group as its callers run it: the [`Group`] behind one lock,
/// and the inbox that callers append their commands to.
pub(crate) struct GroupCell {
    inbox: Mutex<Inbox>,
    /// Signalled when a pass ends that callers were waiting behind.
    passed: Condvar,
    group: Mutex<Group>,
    /// What a new incarnation is built from after a panic.
    cfg: ServeConfig,
    spec: SessionSpec,
    shared: GroupShared,
    store: Option<GroupStore>,
}

/// Commands sent and not yet taken by a pass, and how many callers wait
/// for the pass in progress to end.
#[derive(Default)]
struct Inbox {
    cmds: VecDeque<GroupCmd>,
    waiting: usize,
}

impl GroupCell {
    pub(crate) fn new(cfg: ServeConfig, spec: SessionSpec, shared: GroupShared, store: Option<GroupStore>) -> Self {
        let group = Mutex::new(Group::new(cfg.clone(), &spec, shared.clone(), store.clone()));
        Self { inbox: Mutex::default(), passed: Condvar::new(), group, cfg, spec, shared, store }
    }

    /// Sends the command `make` builds around this thread's reply slot and
    /// runs passes until it is answered. `None`: the command was lost with
    /// an incarnation that panicked.
    pub(crate) fn call(&self, session: u64, make: impl FnOnce(Sender<Response>) -> GroupCmd) -> Option<Response> {
        REPLY.with(|(reply, answer)| {
            lock_clean(&self.inbox).cmds.push_back(make(reply.clone()));
            loop {
                if let Ok(resp) = answer.try_recv() {
                    return Some(resp);
                }
                let Some(mut group) = self.turn() else { continue };
                // After a clean pass of this caller's own, its command has
                // been applied: answered, or a step still in the table. If
                // neither, a panicked pass took it down.
                let lost = self.pass(&mut group) && !group.in_flight(session);
                self.release(group);
                if let Ok(resp) = answer.try_recv() {
                    return Some(resp);
                }
                if lost {
                    return None;
                }
            }
        })
    }

    /// The group, if no pass holds it; otherwise waits for that pass to end
    /// and returns `None` (it may have served the caller's command).
    fn turn(&self) -> Option<MutexGuard<'_, Group>> {
        let mut inbox = lock_clean(&self.inbox);
        let group = self.try_group();
        if group.is_none() {
            inbox.waiting += 1;
            inbox = self.passed.wait(inbox).unwrap_or_else(|e| e.into_inner());
            inbox.waiting -= 1;
        }
        group
    }

    /// The group, unless a pass holds it right now.
    fn try_group(&self) -> Option<MutexGuard<'_, Group>> {
        match self.group.try_lock() {
            Ok(group) => Some(group),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Ends a pass: lets go of the group and wakes whoever waited behind it.
    fn release(&self, group: MutexGuard<'_, Group>) {
        drop(group);
        if lock_clean(&self.inbox).waiting > 0 {
            self.passed.notify_all();
        }
    }

    /// One combining pass: every command in the inbox, one tick, the
    /// parked-tier cap, the gauges. False if it panicked.
    fn pass(&self, group: &mut Group) -> bool {
        self.supervised(group, |group| {
            while let Some(cmd) = self.next_cmd() {
                group.handle(cmd);
            }
            group.step_tick();
            group.spill_lru();
            group.publish();
        })
    }

    /// The oldest command in the inbox (the inbox lock is not held while it
    /// is applied, so senders never wait on a tick).
    fn next_cmd(&self) -> Option<GroupCmd> {
        lock_clean(&self.inbox).cmds.pop_front()
    }

    /// Runs `f` on the group under `catch_unwind`. After a panic the group
    /// is replaced by a new incarnation that resurrects what the store
    /// holds, and this returns false.
    fn supervised(&self, group: &mut Group, f: impl FnOnce(&mut Group)) -> bool {
        if catch_unwind(AssertUnwindSafe(|| f(group))).is_ok() {
            return true;
        }
        self.shared.metrics.trace(TraceKind::GroupPanic, 0, 0);
        self.shared.metrics.supervisor_restarts.inc();
        *group = Group::new(self.cfg.clone(), &self.spec, self.shared.clone(), self.store.clone());
        group.resurrect();
        group.publish();
        false
    }

    /// The idle sweep, unless a pass holds the group right now (the sweeper
    /// comes back a tick later).
    pub(crate) fn sweep(&self) {
        let Some(mut group) = self.try_group() else { return };
        self.supervised(&mut group, |group| {
            group.reap();
            group.spill_lru();
            group.publish();
        });
        self.release(group);
    }

    /// Registers a session found in the store at hub boot; no caller waits
    /// for it, so it is applied here rather than sent.
    pub(crate) fn adopt(&self, session: u64) {
        let mut group = lock_clean(&self.group);
        group.handle(GroupCmd::Adopt { session });
        self.release(group);
    }

    /// Folds the engine time accumulated since the last periodic sample
    /// (at hub shutdown).
    pub(crate) fn fold_profile(&self) {
        let mut group = lock_clean(&self.group);
        group.sample_profile(true);
        self.release(group);
    }
}

#[cfg(test)]
impl GroupCell {
    /// Runs `f` while holding the group as a pass would, so that a test can
    /// line commands from several callers up behind it.
    pub(crate) fn holding<R>(&self, f: impl FnOnce() -> R) -> R {
        let group = lock_clean(&self.group);
        let out = f();
        self.release(group);
        out
    }

    /// Commands sent and not yet taken by a pass.
    pub(crate) fn queued(&self) -> usize {
        lock_clean(&self.inbox).cmds.len()
    }
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
            cmd: None,
            last_read: vec![0.0; self.read_width],
            last_activity: self.shared.clock.now(),
            latency: self.metrics.session_histogram(session),
            seq: 0,
            since_snapshot: 0,
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

    /// Frees a departing session's lane, if it held one.
    fn free_lane(&mut self, lane: Option<usize>) {
        if let Some(lane) = lane {
            self.lanes[lane] = None;
        }
    }

    /// Takes a session that is gone for good off the books: the roster,
    /// its latency histogram, and the lifecycle trace (`kind` says how it
    /// went). Callers retire *before* replying, and drop the routing-index
    /// entry themselves — a failed session keeps its entry until its
    /// `GroupFailed` is collected.
    fn retire(&self, id: u64, kind: TraceKind) {
        lock_clean(&self.shared.roster).remove(&id);
        self.metrics.drop_session_histogram(id);
        self.metrics.trace(kind, id, 0);
    }

    /// The only writer of the shared gauges: recomputes this group's queued
    /// rows (`queue_depth` and the hub's `global_queued`), parked sessions
    /// and live sessions (RAM or spilled) from its table, and moves each by
    /// its change since the last publish, of this incarnation or a dead one.
    /// Runs after every command and tick, before the replies they send.
    fn publish(&self) {
        let queued = self.sessions.values().flat_map(|s| &s.cmd).map(|c| c.rows.len()).sum::<usize>() as i64;
        let parked = self.sessions.values().filter(|s| s.parked.is_some()).count() as i64;
        let live = (self.sessions.len() + self.spilled.len()) as i64;
        let [q, p, l] = &*self.shared.published;
        let dq = queued - q.swap(queued, Ordering::Relaxed);
        self.metrics.queue_depth.add(dq);
        self.shared.global_queued.fetch_add(dq, Ordering::Relaxed);
        self.metrics.sessions_parked.add(parked - p.swap(parked, Ordering::Relaxed));
        self.metrics.sessions_live.add(live - l.swap(live, Ordering::Relaxed));
    }

    /// Whether `session` has a step command in flight.
    fn in_flight(&self, session: u64) -> bool {
        self.sessions.get(&session).is_some_and(|s| !s.idle())
    }

    /// How long an overloaded client should wait before retrying: the
    /// estimated drain time of the current global backlog through this
    /// group's grid at the mean measured tick.
    fn retry_after_estimate(&self) -> u64 {
        let backlog = self.shared.global_queued.load(Ordering::Relaxed).max(0) as u64;
        let mean_tick_ns = self.metrics.tick_ns.snapshot().mean() as u64;
        crate::retry::retry_after_ms(backlog, self.engine.batch() as u64, mean_tick_ns)
    }

    /// Applies one command, publishes the gauges it moved, then sends its
    /// reply: a client that reads the metrics after its answer sees them.
    fn handle(&mut self, cmd: GroupCmd) {
        let answer = self.apply(cmd);
        self.publish();
        if let Some((reply, resp)) = answer {
            let _ = reply.send(resp);
        }
    }

    /// Applies one command to the session table and returns its reply,
    /// unless it is a step, answered by the tick that serves its last row.
    fn apply(&mut self, cmd: GroupCmd) -> Option<(Sender<Response>, Response)> {
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
        if let Some(session) = failed_target.filter(|s| self.failed.remove(s)) {
            lock_clean(&self.shared.index).remove(&session);
            let resp = Response::Error(ServeError::GroupFailed(session));
            return cmd.into_reply().map(|reply| (reply, resp));
        }
        // Step and read commands addressed to a spilled session pull it
        // back into RAM first; close/reset only touch the store files.
        let target = match &cmd {
            GroupCmd::Step { session, .. } | GroupCmd::ReadRows { session, .. } => Some(*session),
            _ => None,
        };
        if let Some(session) = target.filter(|s| self.spilled.contains(s)) {
            if let Err(e) = self.rehydrate(session) {
                return cmd.into_reply().map(|reply| (reply, Response::Error(e)));
            }
        }
        match cmd {
            GroupCmd::Open { session, reply } => {
                let blank = self.blank_sess(session);
                self.sessions.insert(session, blank);
                lock_clean(&self.shared.roster).insert(session);
                self.metrics.sessions_opened.inc();
                self.metrics.trace(TraceKind::Open, session, 0);
                Some((reply, Response::Opened { session }))
            }
            GroupCmd::Step { session, inputs, deadline, reply } => {
                let input_size = self.engine.params().input_size;
                let global_queued = self.shared.global_queued.load(Ordering::Relaxed).max(0) as usize;
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return Some((reply, Response::Error(ServeError::UnknownSession(session))));
                };
                if !sess.idle() {
                    return Some((reply, Response::Error(ServeError::SessionBusy(session))));
                }
                if inputs.is_empty() {
                    return Some((reply, Response::Stepped { outputs: Vec::new() }));
                }
                if let Some(bad) = inputs.iter().find(|row| row.len() != input_size) {
                    let e = format!("input rows must be {input_size} wide, got {}", bad.len());
                    return Some((reply, Response::Error(ServeError::BadInput(e))));
                }
                // A NaN or an infinity would poison the session's lane
                // state for good, inside a grid it shares with co-tenants:
                // stop it here, typed, before anything is admitted.
                if let Some(t) = inputs.iter().position(|row| row.iter().any(|v| !v.is_finite())) {
                    let e = format!("input rows must hold finite values, row {t} does not");
                    return Some((reply, Response::Error(ServeError::BadInput(e))));
                }
                // Admission control: bounded queues, typed rejection.
                let over_session = inputs.len() > self.cfg.session_queue_limit.max(1);
                let over_global =
                    global_queued.saturating_add(inputs.len()) > self.cfg.global_queue_limit.max(1);
                if over_session || over_global {
                    self.metrics.overload_shed.inc();
                    self.metrics.trace(TraceKind::Shed, session, inputs.len() as u64);
                    let retry_after_ms = self.retry_after_estimate();
                    return Some((reply, Response::Error(ServeError::Overloaded { retry_after_ms })));
                }
                sess.last_activity = self.shared.clock.now();
                let outputs = Vec::with_capacity(inputs.len());
                let (rows, enqueued) = (inputs.into(), Instant::now());
                sess.cmd = Some(StepCmd { rows, outputs, reply, deadline, enqueued });
                None
            }
            GroupCmd::ReadRows { session, reply } => {
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return Some((reply, Response::Error(ServeError::UnknownSession(session))));
                };
                sess.last_activity = self.shared.clock.now();
                Some((reply, Response::Rows { read: sess.last_read.clone() }))
            }
            GroupCmd::Reset { session, reply } => {
                if self.spilled.remove(&session) {
                    // Reset of a spilled session never rehydrates: the
                    // stored state is discarded and it restarts blank.
                    self.drop_store_files(session);
                    let blank = self.blank_sess(session);
                    self.sessions.insert(session, blank);
                    return Some((reply, Response::Done));
                }
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return Some((reply, Response::Error(ServeError::UnknownSession(session))));
                };
                if !sess.idle() {
                    return Some((reply, Response::Error(ServeError::SessionBusy(session))));
                }
                if let Some(lane) = sess.lane {
                    self.engine.reset_lane(lane);
                    self.metrics.lane_resets.inc();
                }
                sess.parked = None;
                sess.last_read.fill(0.0);
                sess.last_activity = self.shared.clock.now();
                sess.seq = 0;
                sess.since_snapshot = 0;
                sess.log = None;
                self.drop_store_files(session);
                Some((reply, Response::Done))
            }
            GroupCmd::Close { session, reply } => {
                let resident = self.sessions.remove(&session);
                if resident.is_none() && !self.spilled.remove(&session) {
                    return Some((reply, Response::Error(ServeError::UnknownSession(session))));
                }
                if let Some(mut sess) = resident {
                    self.free_lane(sess.lane);
                    // Abort any queued-but-unserved steps (cannot happen
                    // through the synchronous client, which holds the
                    // session busy until the reply).
                    if let Some(cmd) = sess.cmd.take() {
                        let _ = cmd.reply.send(Response::Stepped { outputs: cmd.outputs });
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
                Some((reply, Response::Done))
            }
            GroupCmd::Adopt { session } => {
                self.spilled.insert(session);
                lock_clean(&self.shared.roster).insert(session);
                None
            }
        }
    }

    /// Seats non-resident session `id` on a lane: the lowest free one,
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
        let (lane, victim) = match self.lanes.iter().position(Option::is_none) {
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
            self.metrics.trace(TraceKind::Park, victim, lane as u64);
        }
        if splice {
            self.metrics.splices.inc();
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
    /// truncated).
    fn shed_expired(&mut self) {
        let in_flight: Vec<(u64, Instant)> =
            self.sessions.iter().filter_map(|(&id, s)| Some((id, s.cmd.as_ref()?.deadline?))).collect();
        for id in crate::retry::shed_order(&in_flight, self.shared.clock.now()) {
            let cmd = self.sessions.get_mut(&id).unwrap().cmd.take().unwrap();
            // Publish, count and trace before replying: the client may
            // read the metrics the moment its error arrives.
            self.publish();
            self.metrics.overload_deadline_expired.inc();
            self.metrics.trace(TraceKind::Shed, id, cmd.rows.len() as u64);
            let _ = cmd.reply.send(Response::Error(ServeError::DeadlineExceeded { session: id }));
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
            self.sessions.iter().filter(|(_, s)| !s.idle()).map(|(&id, _)| id).collect();
        if pending.is_empty() {
            // Nothing in flight: no lane is busy.
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
        let mut stepping: Vec<(u64, usize)> = Vec::with_capacity(pending.len());
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
            let cmd = sess.cmd.as_mut().unwrap();
            if let Some(gs) = &self.store {
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
                    Some(log) => log.append(next_seq, &cmd.rows[0]).is_ok(),
                    None => false,
                };
                if !appended {
                    self.metrics.store_errors.inc();
                    sess.log = None;
                    let failed = sess.cmd.take().unwrap();
                    // Published before the reply, as in `shed_expired`.
                    self.publish();
                    let _ = failed.reply.send(Response::Error(ServeError::Store(format!(
                        "session {id}: delta-log append failed; step not applied"
                    ))));
                    continue;
                }
                self.metrics.store_log_appends.inc();
                sess.seq = next_seq;
                sess.since_snapshot += 1;
            }
            let input = cmd.rows.pop_front().unwrap();
            self.x.row_mut(lane).copy_from_slice(&input);
            mask[lane] = true;
            stepping.push((id, lane));
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
        // Lanes stepped while work stays queued; 0 once this tick answers
        // the last of it, before any reply goes out.
        let queued = self.sessions.values().flat_map(|s| &s.cmd).any(|c| !c.rows.is_empty());
        self.metrics.active_lanes.set(if queued { n as i64 } else { 0 });
        // Rows popped and parks made are published before the fan-out.
        self.publish();

        let now = Instant::now();
        let active = self.shared.clock.now();
        let mut compact: Vec<u64> = Vec::new();
        for (id, lane) in stepping {
            let sess = self.sessions.get_mut(&id).unwrap();
            sess.last_read.copy_from_slice(self.engine.last_read_row(lane));
            sess.last_activity = active;
            if let Some(gs) = &self.store {
                if sess.since_snapshot >= gs.snapshot_every {
                    compact.push(id);
                }
            }
            let cmd = sess.cmd.as_mut().unwrap();
            let latency_us = now.duration_since(cmd.enqueued).as_micros() as u64;
            sess.latency.observe(latency_us);
            self.metrics.step_latency_us.observe(latency_us);
            cmd.outputs.push(self.y.row(lane).to_vec());
            if cmd.rows.is_empty() {
                let done = sess.cmd.take().unwrap();
                let _ = done.reply.send(Response::Stepped { outputs: done.outputs });
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
    /// [`PROFILE_SAMPLE_TICKS`] stepped ticks and once (`force`) at hub
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
    /// state at its current `seq`, which truncates the delta log. A
    /// refused snapshot leaves the log whole (every step stays logged and
    /// recoverable) and is retried after the next `snapshot_every` logged
    /// steps.
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
            }
            Err(_) => self.metrics.store_errors.inc(),
        }
        self.sessions.get_mut(&id).unwrap().since_snapshot = 0;
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
            sess.last_activity = self.shared.clock.now();
            let lane = sess.lane.take();
            self.free_lane(lane);
            return false;
        }
        self.metrics.store_snapshot_bytes.observe(bytes.len() as u64);
        self.metrics.store_snapshot_us.observe(t0.elapsed().as_micros() as u64);
        let sess = self.sessions.remove(&id).unwrap();
        self.free_lane(sess.lane);
        self.spilled.insert(id);
        self.metrics.store_evictions.inc();
        self.metrics.drop_session_histogram(id);
        self.metrics.trace(TraceKind::Evict, id, seq);
        true
    }

    /// Rebuilds a spilled session in RAM, parked: decode its snapshot
    /// (geometry-checked against this group's engine), then replay the
    /// unapplied delta-log steps on a borrowed lane — swapped in, stepped
    /// with only that lane active, swapped back out. Masked stepping is
    /// solo stepping, so the recovered state is bit-identical to never
    /// having been evicted, and the lane's occupant, frozen by the mask,
    /// gets its own buffers back untouched.
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
        let mut parked = match &rec.snapshot {
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
        let replay: Vec<&[f32]> = rec.replay_steps().map(|step| &step.input[..]).collect();
        if let Some(bad) = replay.iter().find(|input| input.len() != input_size) {
            self.metrics.store_errors.inc();
            return Err(ServeError::Store(format!(
                "session {id}: logged step is {} wide, engine wants {input_size}",
                bad.len()
            )));
        }
        if !replay.is_empty() {
            let template = self.template.as_ref().expect("store implies a template lane state");
            let mut state = parked.unwrap_or_else(|| template.clone());
            let mask = LaneMask::from_fn(self.engine.batch(), |lane| lane == 0);
            self.engine.swap_lane(0, &mut state);
            for input in &replay {
                self.x.row_mut(0).copy_from_slice(input);
                self.engine.step_batch_masked_into(&self.x, &mask, &mut self.y);
            }
            self.engine.swap_lane(0, &mut state);
            self.metrics.steps.add(replay.len() as u64);
            parked = Some(state);
        }
        let seq = rec.last_seq();
        let snap_seq = rec.snapshot.as_ref().map_or(0, |s| s.step_seq);
        let mut sess = Sess { parked, seq, since_snapshot: seq - snap_seq, ..self.blank_sess(id) };
        if let Some(state) = &sess.parked {
            sess.last_read.copy_from_slice(state.read_row());
        }
        self.spilled.remove(&id);
        self.sessions.insert(id, sess);
        self.metrics.store_rehydrations.inc();
        self.metrics.store_replay_steps.observe(replay.len() as u64);
        self.metrics.trace(TraceKind::Rehydrate, id, replay.len() as u64);
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
        let now = self.shared.clock.now();
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
        for &id in &dead {
            let sess = self.sessions.remove(&id).unwrap();
            self.free_lane(sess.lane);
            self.metrics.sessions_reaped.inc();
            self.retire(id, TraceKind::Reap);
        }
        // Published before the ids unroute, so whoever sees them gone
        // sees the gauges without them.
        self.publish();
        let mut index = lock_clean(&self.shared.index);
        for id in dead {
            index.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RawSessionSpec;
    use hima_testkit::{metered, ManualClock};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[global_allocator]
    static A: hima_testkit::CountingAlloc = hima_testkit::CountingAlloc;

    fn group(grid_lanes: usize) -> (Group, ManualClock) {
        let cfg = ServeConfig { grid_lanes, idle_timeout: None, ..ServeConfig::default() };
        group_with(cfg, None)
    }

    /// A demo-spec group whose decisions read the returned manual clock.
    fn group_with(cfg: ServeConfig, store: Option<GroupStore>) -> (Group, ManualClock) {
        let clock = ManualClock::default();
        let shared = GroupShared {
            index: Arc::default(),
            metrics: Arc::new(ServeMetrics::new()),
            global_queued: Arc::default(),
            roster: Arc::default(),
            published: Arc::default(),
            clock: Arc::new(clock.reader()),
        };
        let group = Group::new(cfg, &RawSessionSpec::demo().validate().unwrap(), shared, store);
        (group, clock)
    }

    /// A store on a fresh scratch directory, every snapshot's sync failing
    /// when `refuse_snapshots` (so every eviction is refused while the
    /// write-ahead log, never synced, works).
    fn scratch_store(refuse_snapshots: bool) -> (GroupStore, std::path::PathBuf) {
        use hima_chaos::{FaultPlan, FaultRule};
        let dir = hima_testkit::scratch("sched");
        let plan = refuse_snapshots.then(|| {
            Arc::new(FaultPlan::new(7).with_rule(FaultRule::probabilistic(
                FaultSite::StoreFsync,
                FaultKind::IoError,
                1000,
            )))
        });
        let store = GroupStore {
            store: Arc::new(SessionStore::open_with(&dir, plan).unwrap()),
            snapshot_every: u64::MAX,
            max_parked: usize::MAX,
        };
        (store, dir)
    }

    fn open(group: &mut Group, session: u64) {
        let (reply, _opened) = channel();
        group.handle(GroupCmd::Open { session, reply });
    }

    fn input(group: &Group, session: u64, t: usize) -> Vec<f32> {
        crate::loadgen::synth_input(session as usize, t, group.engine.params().input_size)
    }

    /// Queues one step for `session` and ticks until it is answered.
    fn step(group: &mut Group, session: u64, t: usize) -> Vec<f32> {
        let inputs = vec![input(group, session, t)];
        let (reply, answered) = channel();
        group.handle(GroupCmd::Step { session, inputs, deadline: None, reply });
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
        let (mut group, clock) = group(2);
        for session in 0..4u64 {
            open(&mut group, session);
        }
        // Round-robin over four sessions on two lanes, a millisecond
        // apart: from the third on, every step misses. Sessions 0 and 1
        // come back with state.
        let mut got: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 4];
        for t in 0..2 {
            for session in 0..4u64 {
                clock.advance(Duration::from_millis(1));
                got[session as usize].push(step(&mut group, session, t));
            }
        }
        let metrics = Arc::clone(&group.metrics);
        let count = |name: &str| metrics.snapshot().counter(name).unwrap_or(0);
        assert_eq!((count("serve.scheduler.parks"), count("serve.scheduler.splices")), (6, 4));
        assert_eq!(group.metrics.sessions_parked.get(), 2);

        // Sessions 2 and 3 hold the lanes, 2 the longer idle: seating 0
        // parks it.
        let lane = group.sessions[&2].lane.unwrap();
        let (seated, spent) = metered(|| group.seat(0));
        assert_eq!(seated, Some(lane));
        assert_eq!(spent.calls, 0, "park + splice allocated");
        assert_eq!((count("serve.scheduler.parks"), count("serve.scheduler.splices")), (7, 5));
        group.publish();
        assert_eq!(group.metrics.sessions_parked.get(), 2);
        assert!(group.sessions[&2].parked.is_some() && group.sessions[&2].lane.is_none());
        assert!(group.sessions[&0].parked.is_none());
        let kinds: Vec<_> = metrics.trace_dump().iter().rev().take(2).map(|e| (e.kind, e.session)).collect();
        assert_eq!(kinds, [(TraceKind::Splice, 0), (TraceKind::Park, 2)]);

        for session in [0u64, 2, 1, 3] {
            got[session as usize].push(step(&mut group, session, 2));
        }
        let spec = RawSessionSpec::demo().validate().unwrap();
        for (session, got) in got.iter().enumerate() {
            let inputs: Vec<Vec<f32>> = (0..got.len()).map(|t| input(&group, session as u64, t)).collect();
            let (want, _) = hima_testkit::solo_replay(spec.params, spec.spec, spec.seed, &inputs);
            assert_eq!(got, &want, "session {session}");
        }
    }

    /// The idle sweep reads the group's clock, not the wall: held still,
    /// three idle timeouts of real time reap (or evict) nothing; one
    /// advance past the timeout reaps the idle session without a store and
    /// evicts it with one — and never touches a session whose command is
    /// still in flight, however long it has been queued.
    #[test]
    fn the_idle_sweep_reads_the_injected_clock() {
        let timeout = Duration::from_millis(2);
        for with_store in [false, true] {
            let (store, dir) = scratch_store(false);
            let cfg = ServeConfig { grid_lanes: 2, idle_timeout: Some(timeout), ..ServeConfig::default() };
            let (mut group, clock) = group_with(cfg, with_store.then_some(store));
            open(&mut group, 0);
            open(&mut group, 1);
            step(&mut group, 0, 0);
            // Session 1: a three-step command, one step served.
            let inputs = (0..3).map(|t| input(&group, 1, t)).collect();
            let (reply, answered) = channel();
            group.handle(GroupCmd::Step { session: 1, inputs, deadline: None, reply });
            group.step_tick();

            let held = Instant::now();
            while held.elapsed() < 3 * timeout {
                group.reap();
            }
            assert!(group.sessions.contains_key(&0), "store {with_store}: swept by the wall clock");

            clock.advance(timeout + Duration::from_nanos(1));
            group.reap();
            let snap = group.metrics.snapshot();
            let (reaped, evicted) = (snap.counter("serve.sessions.reaped"), snap.counter("store.evictions"));
            assert!(!group.sessions.contains_key(&0), "store {with_store}: idle session survived");
            assert_eq!(group.spilled.contains(&0), with_store, "evicted iff a store is configured");
            assert_eq!((reaped, evicted), if with_store { (Some(0), Some(1)) } else { (Some(1), Some(0)) });
            assert!(group.sessions.contains_key(&1), "store {with_store}: in-flight session swept");
            group.step_tick();
            group.step_tick();
            assert!(matches!(answered.try_recv(), Ok(Response::Stepped { outputs }) if outputs.len() == 3));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A refused eviction counts as activity: the idle sweep comes back
    /// for the victim after another `idle_timeout`, not on the next tick —
    /// each attempt is an encode, a slot write and a `sync_all` on the
    /// thread that serves the co-tenants.
    #[test]
    fn a_refused_eviction_is_retried_per_idle_timeout_not_per_tick() {
        let (store, dir) = scratch_store(true);
        let timeout = Duration::from_secs(10);
        let cfg = ServeConfig { grid_lanes: 2, idle_timeout: Some(timeout), ..ServeConfig::default() };
        let (mut group, clock) = group_with(cfg, Some(store));
        open(&mut group, 0);
        step(&mut group, 0, 0);
        clock.advance(timeout + Duration::from_secs(1));

        let metrics = Arc::clone(&group.metrics);
        let observed = |group: &mut Group| {
            group.reap();
            group.publish();
            let sess = &group.sessions[&0];
            (
                metrics.snapshot().counter("store.evict_refusals").unwrap_or(0),
                sess.lane,
                sess.parked.is_some(),
                metrics.sessions_parked.get(),
            )
        };
        assert_eq!(observed(&mut group), (1, None, true, 1), "refused: parked in RAM, off the lane");
        assert_eq!(observed(&mut group), (1, None, true, 1), "the next sweep leaves the victim alone");
        clock.advance(timeout + Duration::from_secs(1));
        assert_eq!(observed(&mut group), (2, None, true, 1), "one idle timeout later it tries again");
        assert_eq!(step(&mut group, 0, 1).len(), group.engine.params().output_size, "still servable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A refused compaction backs off like a refused eviction: with every
    /// snapshot refused and `snapshot_every = 2`, eight steps try four
    /// times (steps 2, 4, 6, 8), not seven — each try costs an export, an
    /// encode, a failed write and a delta-log reopen. Every step is still
    /// logged first, and the session still serves.
    #[test]
    fn a_refused_compaction_is_retried_per_snapshot_every_not_per_step() {
        let (mut store, dir) = scratch_store(true);
        store.snapshot_every = 2;
        let cfg = ServeConfig { grid_lanes: 2, idle_timeout: None, ..ServeConfig::default() };
        let (mut group, _) = group_with(cfg, Some(store));
        open(&mut group, 0);
        for t in 0..8 {
            let out = step(&mut group, 0, t);
            assert_eq!(out.len(), group.engine.params().output_size, "step {t} served");
        }
        let snap = group.metrics.snapshot();
        assert_eq!(snap.counter("store.log_appends"), Some(8), "every step logged");
        assert_eq!(snap.counter("store.errors"), Some(4), "one refused snapshot per two steps");
        assert_eq!(snap.histogram("store.snapshot_us").map_or(0, |h| h.count), 0, "none written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both snapshot writers time and size what they write: one
    /// compaction (after `snapshot_every` steps) and one eviction leave
    /// two samples in `store.snapshot_us` and in `store.snapshot_bytes`,
    /// each the size of the encoded lane state.
    #[test]
    fn compaction_and_eviction_both_record_a_snapshot() {
        let (mut store, dir) = scratch_store(false);
        store.snapshot_every = 2;
        let cfg = ServeConfig { grid_lanes: 2, idle_timeout: None, ..ServeConfig::default() };
        let (mut group, _) = group_with(cfg, Some(store));
        open(&mut group, 0);
        step(&mut group, 0, 0);
        step(&mut group, 0, 1);
        let snap = group.metrics.snapshot();
        assert_eq!(snap.histogram("store.snapshot_us").unwrap().count, 1, "the compaction");
        assert!(group.evict(0), "the eviction");
        let snap = group.metrics.snapshot();
        let us = snap.histogram("store.snapshot_us").unwrap();
        let bytes = snap.histogram("store.snapshot_bytes").unwrap();
        assert_eq!((us.count, bytes.count), (2, 2));
        let lane_bytes = group.template.as_ref().unwrap().encode().len() as u64;
        assert_eq!(bytes.sum, 2 * lane_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Expired commands are answered `DeadlineExceeded` in `shed_order`:
    /// oldest deadline first, ties by session id — and leave nothing
    /// queued behind.
    #[test]
    fn expired_commands_are_shed_oldest_deadline_first_ties_by_id() {
        let (mut group, clock) = group(2);
        let early = clock.now();
        clock.advance(Duration::from_millis(5));
        let late = clock.now();
        // One reply channel for all three: answers arrive in shed order.
        let (reply, answered) = channel();
        for (session, deadline) in [(3u64, late), (1, late), (2, early)] {
            open(&mut group, session);
            let inputs = vec![input(&group, 0, 0)];
            group.handle(GroupCmd::Step { session, inputs, deadline: Some(deadline), reply: reply.clone() });
        }
        assert_eq!(group.shared.global_queued.load(Ordering::Relaxed), 3);

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
        assert_eq!(group.shared.global_queued.load(Ordering::Relaxed), 0);
    }

    /// Recovery replay cannot be caught mid-tick by a co-tenant's seating:
    /// session 1 logs three steps; a new group adopts it and a `ReadRows`
    /// rehydrates it, replay included; sessions 2 and 3 then ask for the
    /// two lanes. The read and session 1's next output equal solo replay.
    #[test]
    fn a_replaying_session_is_not_parked_in_the_middle_of_its_tick() {
        let (store, dir) = scratch_store(false);
        let cfg = ServeConfig { grid_lanes: 2, idle_timeout: None, ..ServeConfig::default() };
        let (mut first, _) = group_with(cfg.clone(), Some(store.clone()));
        open(&mut first, 1);
        for t in 0..3 {
            step(&mut first, 1, t);
        }
        drop(first);

        let (mut group, _) = group_with(cfg, Some(store));
        group.handle(GroupCmd::Adopt { session: 1 });
        let (reply, read) = channel();
        group.handle(GroupCmd::ReadRows { session: 1, reply });
        group.step_tick();
        group.step_tick();
        for (session, rows) in [(2u64, 2), (3, 1)] {
            open(&mut group, session);
            let inputs = (0..rows).map(|t| input(&group, session, t)).collect();
            let (reply, _answered) = channel();
            group.handle(GroupCmd::Step { session, inputs, deadline: None, reply });
        }
        group.step_tick();

        let spec = RawSessionSpec::demo().validate().unwrap();
        let inputs: Vec<Vec<f32>> = (0..4).map(|t| input(&group, 1, t)).collect();
        let solo = |n: usize| hima_testkit::solo_replay(spec.params, spec.spec, spec.seed, &inputs[..n]);
        match read.try_recv() {
            Ok(Response::Rows { read }) => assert_eq!(read, solo(3).1, "the read"),
            other => panic!("the read answered {other:?}"),
        }
        assert_eq!(step(&mut group, 1, 3), solo(4).0[3], "the step after the replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the property case below knows of one open session: the rows
    /// applied and the outputs answered since its last reset, and its
    /// unanswered step (rows) and read (rows applied when it was sent).
    #[derive(Default)]
    struct Model {
        rows: Vec<Vec<f32>>,
        outputs: Vec<Vec<f32>>,
        step: Option<(Vec<Vec<f32>>, Receiver<Response>)>,
        read: Option<(usize, Receiver<Response>)>,
    }

    /// The published gauges and the admission count equal the values
    /// recomputed from the table, and `lanes[l] == Some(id)` exactly when
    /// `sessions[id].lane == Some(l)`.
    fn assert_table_truth(group: &Group, at: &str) {
        let queued: usize = group.sessions.values().flat_map(|s| &s.cmd).map(|c| c.rows.len()).sum();
        let parked = group.sessions.values().filter(|s| s.parked.is_some()).count();
        let live = group.sessions.len() + group.spilled.len();
        let m = &group.metrics;
        let published = (m.queue_depth.get(), m.sessions_parked.get(), m.sessions_live.get());
        assert_eq!(published, (queued as i64, parked as i64, live as i64), "{at}: gauges");
        assert_eq!(group.shared.global_queued.load(Ordering::Relaxed), queued as i64, "{at}: admission");
        for (lane, slot) in group.lanes.iter().enumerate() {
            assert!(slot.is_none_or(|id| group.sessions[&id].lane == Some(lane)), "{at}: lane {lane}");
        }
        for (id, sess) in &group.sessions {
            assert!(sess.lane.is_none_or(|lane| group.lanes[lane] == Some(*id)), "{at}: session {id}");
            assert!(sess.lane.is_none() || sess.parked.is_none(), "{at}: session {id} seated and parked");
        }
    }

    /// Seeded random commands over up to six open sessions on two lanes,
    /// with a store that spills beyond one parked state: open, step (1–3
    /// rows, one in four already past its deadline), read, reset, close,
    /// clock advance + sweep, and a supervisor restart (a new incarnation
    /// on the same shared state). After every command and every tick the
    /// gauges and lanes equal the table; at the end every open session's
    /// outputs, and every read it was answered, equal solo replay.
    #[test]
    fn gauges_and_lanes_equal_the_table_command_by_command() {
        let (mut store, dir) = scratch_store(false);
        store.max_parked = 1;
        let timeout = Duration::from_millis(10);
        let cfg = ServeConfig { grid_lanes: 2, idle_timeout: Some(timeout), ..ServeConfig::default() };
        let (mut group, clock) = group_with(cfg.clone(), Some(store.clone()));
        let spec = RawSessionSpec::demo().validate().unwrap();
        let mut models: std::collections::BTreeMap<u64, Model> = Default::default();
        let mut reads: Vec<(usize, Vec<Vec<f32>>, Vec<f32>)> = Vec::new();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        // One run-loop iteration after the commands: tick, sweep, spill.
        let turn = |group: &mut Group, at: &str| {
            group.step_tick();
            assert_table_truth(group, &format!("{at}, tick"));
            group.reap();
            group.spill_lru();
            group.publish();
            assert_table_truth(group, &format!("{at}, sweep"));
        };
        let (mut next_id, mut t) = (1u64, 0usize);
        for i in 0..600 {
            let at = format!("command {i}");
            let ids: Vec<u64> = models.keys().copied().collect();
            let id = if ids.is_empty() { 0 } else { ids[draw(ids.len())] };
            let (reply, answer) = channel();
            let kind = if ids.is_empty() { 0 } else { draw(16) };
            match kind {
                0..=1 if models.len() < 6 => {
                    group.handle(GroupCmd::Open { session: next_id, reply });
                    models.insert(next_id, Model::default());
                    next_id += 1;
                }
                2..=7 => {
                    let rows: Vec<Vec<f32>> = (0..1 + draw(3)).map(|k| input(&group, id, t + k)).collect();
                    t += rows.len();
                    let deadline = (draw(4) == 0).then(|| clock.now());
                    group.handle(GroupCmd::Step { session: id, inputs: rows.clone(), deadline, reply });
                    let model = models.get_mut(&id).unwrap();
                    if model.step.is_some() {
                        let busy = answer.try_recv();
                        assert!(matches!(busy, Ok(Response::Error(ServeError::SessionBusy(_)))), "{at}: {busy:?}");
                    } else {
                        model.step = Some((rows, answer));
                    }
                }
                8..=9 => {
                    group.handle(GroupCmd::ReadRows { session: id, reply });
                    let model = models.get_mut(&id).unwrap();
                    if model.step.is_none() && model.read.is_none() {
                        model.read = Some((model.rows.len(), answer));
                    }
                }
                10 | 11 if models[&id].read.is_none() => {
                    let close = kind == 11;
                    let cmd = if close { GroupCmd::Close { session: id, reply } } else { GroupCmd::Reset { session: id, reply } };
                    group.handle(cmd);
                    let model = models.get_mut(&id).unwrap();
                    match answer.try_recv() {
                        Ok(Response::Done) if close => drop(models.remove(&id)),
                        Ok(Response::Done) if model.step.is_none() => *model = Model::default(),
                        Ok(Response::Error(ServeError::SessionBusy(_))) if model.step.is_some() => {}
                        other => panic!("{at}: close {close} answered {other:?}"),
                    }
                }
                12 => clock.advance(timeout + Duration::from_nanos(1)),
                13 if models.values().all(|m| m.step.is_none() && m.read.is_none()) => {
                    let shared = group.shared.clone();
                    drop(group);
                    group = Group::new(cfg.clone(), &spec, shared, Some(store.clone()));
                    group.resurrect();
                    // Sessions with nothing on disk fail, once, typed.
                    for id in group.failed.clone() {
                        let (reply, answer) = channel();
                        group.handle(GroupCmd::Close { session: id, reply });
                        assert!(matches!(answer.try_recv(), Ok(Response::Error(ServeError::GroupFailed(_)))));
                        models.remove(&id);
                    }
                    group.publish();
                }
                _ => {}
            }
            assert_table_truth(&group, &at);
            turn(&mut group, &at);
            for (&id, model) in &mut models {
                if let Some((rows, answer)) = model.step.take() {
                    match answer.try_recv() {
                        Ok(Response::Stepped { outputs }) => {
                            model.rows.extend(rows);
                            model.outputs.extend(outputs);
                        }
                        // Shed by the tick after it was sent, before any row stepped.
                        Ok(Response::Error(ServeError::DeadlineExceeded { .. })) => {}
                        Err(TryRecvError::Empty) => model.step = Some((rows, answer)),
                        other => panic!("{at}: session {id} step answered {other:?}"),
                    }
                }
                if let Some((n, answer)) = model.read.take() {
                    match answer.try_recv() {
                        Ok(Response::Rows { read }) => reads.push((n, model.rows.clone(), read)),
                        Err(TryRecvError::Empty) => model.read = Some((n, answer)),
                        other => panic!("{at}: session {id} read answered {other:?}"),
                    }
                }
            }
        }
        let solo = |rows: &[Vec<f32>]| hima_testkit::solo_replay(spec.params, spec.spec, spec.seed, rows);
        for (id, model) in &models {
            assert_eq!(model.outputs, solo(&model.rows).0, "session {id}");
        }
        for (n, rows, read) in &reads {
            assert_eq!(read, &solo(&rows[..*n]).1, "a read after {n} rows");
        }        let _ = std::fs::remove_dir_all(&dir);
    }
}
