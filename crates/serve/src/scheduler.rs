//! The continuous-batching scheduler: one engine group's session table and
//! tick.
//!
//! A **group** is every live session that shares one engine configuration
//! (equal [`SessionSpec`] group keys). A group owns a single batched engine
//! whose lane count is the grid capacity, and each **tick** coalesces the
//! pending step requests of resident sessions into one
//! `step_batch_masked_into` call:
//!
//! * sessions **join** a lane when they have queued steps (fresh lanes
//!   are recycled with `reset_lane`, swapped-in sessions re-attached with
//!   `swap_lane`),
//! * sessions with no work are **frozen** in place by the
//!   [`LaneMask`] — a parked resident costs (almost) nothing and its
//!   state stays bit-identical while co-tenants advance,
//! * when the grid is full, the idle resident on the lowest lane is
//!   **swapped out** to a detached [`LaneState`] — by
//!   the same `swap_lane` that seats a session carrying one (the two
//!   trade buffers; nothing is copied), by `export_lane` when the joining
//!   session is blank.
//!
//! Who runs a group, and what replaces it after a panic, is
//! [`crate::cell`]; the disk tier below the parked one — write-ahead log,
//! snapshots, eviction, rehydration — is [`crate::durable`], present only
//! when the group has a store.
//!
//! Because weights are a function of the seed alone and masked stepping
//! of an active lane is bit-identical to stepping that lane solo (the
//! ragged conformance contract), a session served through this grid
//! produces **bit-identical** outputs to a dedicated single-lane engine
//! fed the same inputs — regardless of co-tenants, joins, leaves or
//! swaps. `tests/serve_conformance.rs` pins that end to end.
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

use crate::clock::Clock;
use crate::durable::{Durable, GroupStore, Wal};
use crate::metrics::ServeMetrics;
use crate::protocol::{Response, ServeError, SessionSpec};
use crate::server::ServeConfig;
use hima_chaos::{FaultKind, FaultSite};
use hima_dnc::{BoxedEngine, EngineBuilder, LaneState};
use hima_telemetry::{Histogram, TraceKind};
use hima_tensor::{LaneMask, Matrix};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// A command routed to a group by the
/// [`SessionHub`](crate::session::SessionHub): what to do to which
/// session, and where its one reply goes.
pub(crate) struct GroupCmd {
    pub session: u64,
    pub reply: Sender<Response>,
    pub op: Op,
}

/// What a [`GroupCmd`] does to its session.
pub(crate) enum Op {
    /// Register a hub-allocated session id with this group.
    Open,
    /// Queue `inputs.len()` steps; one reply carries all output rows.
    /// `deadline` (if any) bounds how long the rows may sit queued.
    Step { inputs: Vec<Vec<f32>>, deadline: Option<Instant> },
    /// Query the session's current read-vector row.
    ReadRows,
    /// Reset the session to blank state.
    Reset,
    /// Close the session.
    Close,
}

/// Hub-wide state every group reads or moves. What one group's
/// incarnations pass on to each other is not here: a new incarnation
/// takes it from the dead one ([`Group::reincarnate`]).
#[derive(Clone)]
pub(crate) struct GroupShared {
    /// Server-wide metric handles and lifecycle trace.
    pub metrics: Arc<ServeMetrics>,
    /// Steps queued across every group (the global admission budget).
    pub global_queued: Arc<AtomicI64>,
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

/// Per-session scheduler state. The session's engine state lives in one
/// place only: on its lane, in its parked state, or — for a blank
/// session — nowhere yet. `ReadRows` reads it from there.
pub(crate) struct Sess {
    /// Resident lane slot, if currently on the grid.
    pub(crate) lane: Option<usize>,
    /// Detached state while swapped out (`None` for a blank session —
    /// attaching then recycles the lane with `reset_lane`).
    pub(crate) parked: Option<LaneState>,
    /// The in-flight step command, if any.
    cmd: Option<StepCmd>,
    /// Refreshed by every command and every stepped tick; drives
    /// idle-timeout reaping.
    pub(crate) last_activity: Instant,
    /// This session's `serve.session.<id>.step_latency_us` histogram
    /// (registered on open, dropped on close/reap).
    latency: Histogram,
    /// Where the session's delta log stands (untouched without a store).
    pub(crate) wal: Wal,
}

impl Sess {
    /// Nothing owed: no command in flight.
    pub(crate) fn idle(&self) -> bool {
        self.cmd.is_none()
    }
}

/// One group's engine and session table.
pub(crate) struct Group {
    cfg: ServeConfig,
    spec: SessionSpec,
    pub(crate) engine: BoxedEngine,
    /// `lanes[slot]` = resident session id (`None` = free lane).
    lanes: Vec<Option<u64>>,
    pub(crate) sessions: HashMap<u64, Sess>,
    /// Hub-wide metrics, admission budget and clock.
    pub(crate) shared: GroupShared,
    /// Reused per-tick input/output blocks.
    pub(crate) x: Matrix,
    pub(crate) y: Matrix,
    /// Reused per-tick lists: sessions with work (in id order), the lane
    /// mask's flags, and the `(session, lane)` pairs stepped.
    pending: Vec<u64>,
    mask: Vec<bool>,
    stepping: Vec<(u64, usize)>,
    /// The queued rows, parked sessions and live sessions last published
    /// ([`Group::publish`]); a new incarnation starts from the dead one's.
    published: Cell<[i64; 3]>,
    /// The durability tier (`None` = RAM only; idle-reap then discards).
    pub(crate) durable: Option<Durable>,
    /// Sessions lost to a group panic (no durable state to resurrect
    /// from). Their next command answers `GroupFailed` exactly once.
    failed: HashSet<u64>,
}

impl Group {
    /// An empty group over a freshly built `grid_lanes`-lane engine of
    /// `spec`.
    pub(crate) fn new(cfg: ServeConfig, spec: &SessionSpec, shared: GroupShared, store: Option<GroupStore>) -> Self {
        let lanes = cfg.grid_lanes.max(1);
        let engine = EngineBuilder::new(spec.params)
            .with_spec(spec.spec)
            .lanes(lanes)
            .seed(spec.seed)
            .build();
        let durable = store.map(|store| Durable::new(store, spec, &engine));
        Group {
            cfg,
            spec: spec.clone(),
            engine,
            lanes: vec![None; lanes],
            sessions: HashMap::new(),
            shared,
            x: Matrix::zeros(lanes, spec.params.input_size),
            y: Matrix::zeros(lanes, spec.params.output_size),
            pending: Vec::new(),
            mask: Vec::new(),
            stepping: Vec::new(),
            published: Cell::default(),
            durable,
            failed: HashSet::new(),
        }
    }

    /// The incarnation that replaces this one after a panic, built from
    /// the same configuration, shared state and store. It inherits, by
    /// value, this one's failed set and its last published gauge levels,
    /// so its first publish takes back this one's share. Every session
    /// this one held (in RAM or spilled), in ascending id order, either
    /// resurrects from its store files as spilled — its next command
    /// rehydrates it — or joins the failed set.
    pub(crate) fn reincarnate(&self) -> Group {
        let store = self.durable.as_ref().map(|d| d.cfg.clone());
        let mut group = Group::new(self.cfg.clone(), &self.spec, self.shared.clone(), store);
        group.failed = self.failed.clone();
        group.published.set(self.published.get());
        let spilled = self.durable.iter().flat_map(|d| &d.spilled);
        let held: BTreeSet<u64> = self.sessions.keys().chain(spilled).copied().collect();
        let metrics = &self.shared.metrics;
        let mut resurrected = 0u64;
        for id in held {
            if group.durable.as_mut().is_some_and(|d| d.resurrect(id)) {
                metrics.supervisor_resurrected.inc();
                resurrected += 1;
            } else {
                group.failed.insert(id);
                metrics.supervisor_failed_sessions.inc();
                group.retire(id, TraceKind::SessionFailed);
            }
        }
        metrics.trace(TraceKind::GroupRestart, 0, resurrected);
        group.publish();
        group
    }

    /// A fresh blank session record (open, or reset-from-spilled).
    pub(crate) fn blank_sess(&self, session: u64) -> Sess {
        Sess {
            lane: None,
            parked: None,
            cmd: None,
            last_activity: self.shared.clock.now(),
            latency: self.shared.metrics.session_histogram(session),
            wal: Wal::default(),
        }
    }

    /// Frees a departing session's lane, if it held one.
    pub(crate) fn free_lane(&mut self, lane: Option<usize>) {
        if let Some(lane) = lane {
            self.lanes[lane] = None;
        }
    }

    /// Takes a session that is gone for good off the books: its latency
    /// histogram, and the lifecycle trace (`kind` says how it went).
    /// Callers retire *before* replying. The routing entry is the hub's:
    /// it drops it when the `Close` is done, when a `GroupFailed` is
    /// answered, or when a sweep returns the id reaped.
    fn retire(&self, id: u64, kind: TraceKind) {
        self.shared.metrics.drop_session_histogram(id);
        self.shared.metrics.trace(kind, id, 0);
    }

    /// The only writer of the shared gauges: recomputes this group's queued
    /// rows (`queue_depth` and the hub's `global_queued`), parked sessions
    /// and live sessions (RAM or spilled) from its table, and moves each by
    /// its change since the last publish, of this incarnation or a dead one.
    /// Runs after every command and tick, before the replies they send.
    fn publish(&self) {
        let queued = self.sessions.values().flat_map(|s| &s.cmd).map(|c| c.rows.len()).sum::<usize>() as i64;
        let parked = self.sessions.values().filter(|s| s.parked.is_some()).count() as i64;
        let spilled = self.durable.as_ref().map_or(0, |d| d.spilled.len());
        let live = (self.sessions.len() + spilled) as i64;
        let [q, p, l] = self.published.replace([queued, parked, live]);
        let m = &self.shared.metrics;
        m.queue_depth.add(queued - q);
        self.shared.global_queued.fetch_add(queued - q, Ordering::Relaxed);
        m.sessions_parked.add(parked - p);
        m.sessions_live.add(live - l);
    }

    /// Whether `session` has a step command in flight.
    pub(crate) fn in_flight(&self, session: u64) -> bool {
        self.sessions.get(&session).is_some_and(|s| !s.idle())
    }

    /// Applies one command, publishes the gauges it moved, then sends its
    /// reply: a client that reads the metrics after its answer sees them.
    pub(crate) fn handle(&mut self, cmd: GroupCmd) {
        let GroupCmd { session, reply, op } = cmd;
        let answer = self.apply(session, op, &reply);
        self.publish();
        if let Some(resp) = answer {
            let _ = reply.send(resp);
        }
    }

    /// Applies `op` to `session` and returns its reply, unless it is a
    /// step, answered through `reply` by the tick that serves its last row.
    fn apply(&mut self, session: u64, op: Op, reply: &Sender<Response>) -> Option<Response> {
        // A session the supervisor could not resurrect answers its next
        // command with a typed GroupFailed, once; the hub unroutes it on
        // that answer. (An `Open` carries a fresh id, never in the set.)
        if self.failed.remove(&session) {
            return Some(Response::Error(ServeError::GroupFailed(session)));
        }
        // Step and read commands addressed to a spilled session pull it
        // back into RAM first; close/reset only touch the store files.
        if matches!(op, Op::Step { .. } | Op::ReadRows) {
            if let Err(e) = self.rehydrate(session) {
                return Some(Response::Error(e));
            }
        }
        match op {
            Op::Open => {
                let blank = self.blank_sess(session);
                self.sessions.insert(session, blank);
                self.shared.metrics.sessions_opened.inc();
                self.shared.metrics.trace(TraceKind::Open, session, 0);
                Some(Response::Opened { session })
            }
            Op::Step { inputs, deadline } => {
                let input_size = self.engine.params().input_size;
                let global_queued = self.shared.global_queued.load(Ordering::Relaxed).max(0) as usize;
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return Some(Response::Error(ServeError::UnknownSession(session)));
                };
                if !sess.idle() {
                    return Some(Response::Error(ServeError::SessionBusy(session)));
                }
                if inputs.is_empty() {
                    return Some(Response::Stepped { outputs: Vec::new() });
                }
                if let Some(bad) = inputs.iter().find(|row| row.len() != input_size) {
                    let e = format!("input rows must be {input_size} wide, got {}", bad.len());
                    return Some(Response::Error(ServeError::BadInput(e)));
                }
                // A NaN or an infinity would poison the session's lane
                // state for good, inside a grid it shares with co-tenants:
                // stop it here, typed, before anything is admitted.
                if let Some(t) = inputs.iter().position(|row| row.iter().any(|v| !v.is_finite())) {
                    let e = format!("input rows must hold finite values, row {t} does not");
                    return Some(Response::Error(ServeError::BadInput(e)));
                }
                // Admission control: bounded queues, typed rejection.
                let over_session = inputs.len() > self.cfg.session_queue_limit.max(1);
                let over_global =
                    global_queued.saturating_add(inputs.len()) > self.cfg.global_queue_limit.max(1);
                if over_session || over_global {
                    self.shared.metrics.overload_shed.inc();
                    self.shared.metrics.trace(TraceKind::Shed, session, inputs.len() as u64);
                    // Retry after the estimated drain time of the global
                    // backlog through this grid at the mean measured tick.
                    let tick_ns = self.shared.metrics.tick_ns.snapshot().mean() as u64;
                    let batch = self.engine.batch() as u64;
                    let retry_after_ms = crate::retry::retry_after_ms(global_queued as u64, batch, tick_ns);
                    return Some(Response::Error(ServeError::Overloaded { retry_after_ms }));
                }
                sess.last_activity = self.shared.clock.now();
                let outputs = Vec::with_capacity(inputs.len());
                let (rows, reply, enqueued) = (inputs.into(), reply.clone(), Instant::now());
                sess.cmd = Some(StepCmd { rows, outputs, reply, deadline, enqueued });
                None
            }
            Op::ReadRows => {
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return Some(Response::Error(ServeError::UnknownSession(session)));
                };
                sess.last_activity = self.shared.clock.now();
                // Where the state lives: its lane, its parked state, or
                // nowhere yet (a blank session reads a row of zeros).
                let read = match (sess.lane, &sess.parked) {
                    (Some(lane), _) => self.engine.last_read_row(lane).to_vec(),
                    (None, Some(state)) => state.read_row().to_vec(),
                    (None, None) => vec![0.0; self.engine.last_read_row(0).len()],
                };
                Some(Response::Rows { read })
            }
            Op::Reset => {
                if self.unspill(session) {
                    // Reset of a spilled session never rehydrates: the
                    // stored state is discarded and it restarts blank.
                    self.drop_store_files(session);
                    let blank = self.blank_sess(session);
                    self.sessions.insert(session, blank);
                    return Some(Response::Done);
                }
                let Some(sess) = self.sessions.get_mut(&session) else {
                    return Some(Response::Error(ServeError::UnknownSession(session)));
                };
                if !sess.idle() {
                    return Some(Response::Error(ServeError::SessionBusy(session)));
                }
                if let Some(lane) = sess.lane {
                    self.engine.reset_lane(lane);
                    self.shared.metrics.lane_resets.inc();
                }
                sess.parked = None;
                sess.last_activity = self.shared.clock.now();
                sess.wal = Wal::default();
                self.drop_store_files(session);
                Some(Response::Done)
            }
            Op::Close => {
                let resident = self.sessions.remove(&session);
                if resident.is_none() && !self.unspill(session) {
                    return Some(Response::Error(ServeError::UnknownSession(session)));
                }
                // Its delta-log writer drops here, before the file goes.
                if let Some(sess) = resident {
                    self.free_lane(sess.lane);
                    // Abort any queued-but-unserved steps (cannot happen
                    // through the synchronous client, which holds the
                    // session busy until the reply).
                    if let Some(cmd) = sess.cmd {
                        let _ = cmd.reply.send(Response::Stepped { outputs: cmd.outputs });
                    }
                }
                // Closing a spilled session never rehydrates it; its store
                // files are simply deleted.
                self.drop_store_files(session);
                self.shared.metrics.sessions_closed.inc();
                self.retire(session, TraceKind::Close);
                Some(Response::Done)
            }
        }
    }

    /// Seats non-resident session `id` on a lane: the lowest free one,
    /// else the lowest lane whose resident is idle, which is parked.
    /// `None` if every resident is mid-request this tick (the requester
    /// stays queued and retries next tick — by then at least one resident
    /// has drained or parked).
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
                let lane = self.lanes.iter().position(|s| s.is_some_and(|id| self.sessions[&id].idle()))?;
                let victim = self.lanes[lane].unwrap();
                self.sessions.get_mut(&victim).unwrap().lane = None;
                (lane, Some(victim))
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
        let metrics = &self.shared.metrics;
        if let Some(victim) = victim {
            let state = detached.unwrap_or_else(|| self.engine.export_lane(lane));
            self.sessions.get_mut(&victim).unwrap().parked = Some(state);
            metrics.parks.inc();
            metrics.trace(TraceKind::Park, victim, lane as u64);
        }
        if splice {
            metrics.splices.inc();
            metrics.trace(TraceKind::Splice, id, lane as u64);
        } else {
            self.engine.reset_lane(lane);
            metrics.lane_resets.inc();
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
            self.shared.metrics.overload_deadline_expired.inc();
            self.shared.metrics.trace(TraceKind::Shed, id, cmd.rows.len() as u64);
            let _ = cmd.reply.send(Response::Error(ServeError::DeadlineExceeded { session: id }));
        }
    }

    /// A pass's work after its commands: one grid tick, the parked-tier
    /// cap, the gauges.
    pub(crate) fn tick(&mut self) {
        self.step_tick();
        self.spill_idle();
        self.publish();
    }

    /// The idle sweep: reap (or evict) sessions idle past the timeout,
    /// then the parked-tier cap and the gauges. Returns the ids reaped
    /// (never any with a store), published gone, for the hub to unroute.
    pub(crate) fn sweep(&mut self) -> Vec<u64> {
        let reaped = self.reap();
        self.spill_idle();
        self.publish();
        reaped
    }

    /// One grid tick: shed expired commands, seat sessions with pending
    /// work, coalesce one queued step per seated session into a masked
    /// batch, step, fan the outputs back out.
    fn step_tick(&mut self) {
        self.shed_expired();
        // Deterministic seating order (session id) keeps swap decisions
        // reproducible under identical command interleavings.
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        pending.extend(self.sessions.iter().filter(|(_, s)| !s.idle()).map(|(&id, _)| id));
        if pending.is_empty() {
            self.pending = pending;
            // Nothing in flight: no lane is busy.
            self.shared.metrics.active_lanes.set(0);
            return;
        }
        pending.sort_unstable();

        // The scheduler fault site: consulted once per tick that has
        // pending work, *before* any queue entry is popped — a panic
        // here leaves every command intact for the restarted group.
        match self.cfg.faults.as_deref().and_then(|plan| plan.check(FaultSite::SchedTick)) {
            Some(FaultKind::Panic) => panic!("injected scheduler panic"),
            // Latency sleeps inside; error kinds are meaningless at this
            // site and ignored.
            Some(kind) => drop(hima_chaos::io_error_for(kind)),
            None => {}
        }

        self.mask.clear();
        self.mask.resize(self.engine.batch(), false);
        self.stepping.clear();
        for &id in &pending {
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
            // Write-ahead (`Durable::append`): a step the log refused is
            // not applied, and its command fails typed.
            if let Some(d) = &self.durable {
                if !d.append(id, &mut sess.wal, &cmd.rows[0], &self.shared.metrics) {
                    let failed = sess.cmd.take().unwrap();
                    // Published before the reply, as in `shed_expired`.
                    self.publish();
                    let _ = failed.reply.send(Response::Error(ServeError::Store(format!(
                        "session {id}: delta-log append failed; step not applied"
                    ))));
                    continue;
                }
            }
            let input = cmd.rows.pop_front().unwrap();
            self.x.row_mut(lane).copy_from_slice(&input);
            self.mask[lane] = true;
            self.stepping.push((id, lane));
        }
        self.pending = pending;
        let metrics = &self.shared.metrics;
        if self.stepping.is_empty() {
            metrics.active_lanes.set(0);
            return;
        }

        let mask = LaneMask::from(std::mem::take(&mut self.mask));
        let tick_start = Instant::now();
        self.engine.step_batch_masked_into(&self.x, &mask, &mut self.y);
        let tick_ns = tick_start.elapsed().as_nanos() as u64;
        self.mask = mask.into();

        let n = self.stepping.len();
        metrics.ticks.inc();
        metrics.steps.add(n as u64);
        metrics.tick_ns.observe(tick_ns);
        metrics.batch_size.observe(n as u64);
        metrics.occupancy_pct.observe((n * 100 / self.engine.batch()) as u64);
        // Lanes stepped while work stays queued; 0 once this tick answers
        // the last of it, before any reply goes out.
        let queued = self.sessions.values().flat_map(|s| &s.cmd).any(|c| !c.rows.is_empty());
        metrics.active_lanes.set(if queued { n as i64 } else { 0 });
        // Rows popped and parks made are published before the fan-out.
        self.publish();

        let now = Instant::now();
        let active = self.shared.clock.now();
        let snapshot_every = self.durable.as_ref().map_or(u64::MAX, |d| d.cfg.snapshot_every);
        let mut compact: Vec<u64> = Vec::new();
        for &(id, lane) in &self.stepping {
            let sess = self.sessions.get_mut(&id).unwrap();
            sess.last_activity = active;
            if sess.wal.since_snapshot >= snapshot_every {
                compact.push(id);
            }
            let cmd = sess.cmd.as_mut().unwrap();
            let latency_us = now.duration_since(cmd.enqueued).as_micros() as u64;
            sess.latency.observe(latency_us);
            metrics.step_latency_us.observe(latency_us);
            cmd.outputs.push(self.y.row(lane).to_vec());
            if cmd.rows.is_empty() {
                let done = sess.cmd.take().unwrap();
                let _ = done.reply.send(Response::Stepped { outputs: done.outputs });
            }
        }
        for id in compact {
            self.compact(id);
        }
    }

    /// Sweeps sessions idle past the configured timeout. Without a store
    /// this *discards* them (reap) and returns their ids; with one it
    /// *evicts* them to disk, keeping the id routable. A session with
    /// queued steps or an unanswered reply is never swept, so an in-flight
    /// stream outlives any idle timeout — `last_activity` is refreshed on
    /// every stepped tick.
    fn reap(&mut self) -> Vec<u64> {
        let Some(timeout) = self.cfg.idle_timeout else { return Vec::new() };
        let now = self.shared.clock.now();
        let dead: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.idle() && now.duration_since(s.last_activity) > timeout)
            .map(|(&id, _)| id)
            .collect();
        if self.durable.is_some() {
            for id in dead {
                self.evict(id);
            }
            return Vec::new();
        }
        for &id in &dead {
            let sess = self.sessions.remove(&id).unwrap();
            self.free_lane(sess.lane);
            self.shared.metrics.sessions_reaped.inc();
            self.retire(id, TraceKind::Reap);
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RawSessionSpec;
    use hima_store::SessionStore;
    use hima_testkit::{metered, ManualClock};
    use std::sync::mpsc::{channel, Receiver, TryRecvError};
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
            metrics: Arc::new(ServeMetrics::new()),
            global_queued: Arc::default(),
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
        group.handle(GroupCmd { session, reply, op: Op::Open });
    }

    fn input(group: &Group, session: u64, t: usize) -> Vec<f32> {
        crate::loadgen::synth_input(session as usize, t, group.engine.params().input_size)
    }

    /// Queues one step for `session` and ticks until it is answered.
    fn step(group: &mut Group, session: u64, t: usize) -> Vec<f32> {
        let inputs = vec![input(group, session, t)];
        let (reply, answered) = channel();
        group.handle(GroupCmd { session, reply, op: Op::Step { inputs, deadline: None } });
        group.step_tick();
        match answered.try_recv().expect("one tick serves an idle grid's only request") {
            Response::Stepped { mut outputs } => outputs.pop().unwrap(),
            other => panic!("step answered {other:?}"),
        }
    }

    /// A churned tick's lane miss — park the victim, splice the incoming
    /// session — is one exchange: no heap allocation, the idle resident
    /// on the lowest lane parked, Park traced before Splice, the counters
    /// and the gauge as the copying pair left them, and the sessions
    /// bit-equal to solo replay afterwards.
    #[test]
    fn a_lane_miss_is_one_exchange_with_no_allocation() {
        let (mut group, _) = group(2);
        for session in 0..4u64 {
            open(&mut group, session);
        }
        // Round-robin over four sessions on two lanes: from the third on,
        // every step but session 1's misses on lane 0 (session 1 keeps
        // lane 1). Sessions 0, 2 and 3 come back with state.
        let mut got: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 4];
        for t in 0..2 {
            for session in 0..4u64 {
                got[session as usize].push(step(&mut group, session, t));
            }
        }
        let metrics = Arc::clone(&group.shared.metrics);
        let count = |name: &str| metrics.snapshot().counter(name).unwrap_or(0);
        assert_eq!((count("serve.scheduler.parks"), count("serve.scheduler.splices")), (5, 3));
        assert_eq!(group.shared.metrics.sessions_parked.get(), 2);

        // Sessions 3 and 1 hold lanes 0 and 1: seating 0 parks 3.
        let (seated, spent) = metered(|| group.seat(0));
        assert_eq!(seated, Some(0));
        assert_eq!(spent.calls, 0, "park + splice allocated");
        assert_eq!((count("serve.scheduler.parks"), count("serve.scheduler.splices")), (6, 4));
        group.publish();
        assert_eq!(group.shared.metrics.sessions_parked.get(), 2);
        assert!(group.sessions[&3].parked.is_some() && group.sessions[&3].lane.is_none());
        assert!(group.sessions[&0].parked.is_none());
        let kinds: Vec<_> = metrics.trace_dump().iter().rev().take(2).map(|e| (e.kind, e.session)).collect();
        assert_eq!(kinds, [(TraceKind::Splice, 0), (TraceKind::Park, 3)]);

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

    /// Which idle resident a full grid parks, and which parked state the
    /// parked-tier cap spills, read neither the clock nor the table's hash
    /// order: the grid parks the idle resident on its lowest lane, passing
    /// over one with a command in flight (the least-recently-active one
    /// is on another lane), and parks no one while every resident is
    /// mid-request; the cap spills the idle parked session with the
    /// lowest id.
    #[test]
    fn a_full_grid_parks_its_lowest_idle_lane_and_the_cap_spills_the_lowest_id() {
        let (mut store, dir) = scratch_store(false);
        store.max_parked = 1;
        let cfg = ServeConfig { grid_lanes: 3, idle_timeout: None, ..ServeConfig::default() };
        let (mut group, clock) = group_with(cfg, Some(store));
        for session in 0..5u64 {
            open(&mut group, session);
        }
        // Sessions 0, 1, 2 on lanes 0, 1, 2, then 0 again: session 1 is the
        // least recently active, session 0 the most.
        for session in [0u64, 1, 2, 0] {
            clock.advance(Duration::from_millis(1));
            step(&mut group, session, 0);
        }
        assert_eq!(group.lanes, [Some(0), Some(1), Some(2)]);
        let queue = |group: &mut Group, session: u64| {
            let inputs = vec![input(group, session, 1)];
            let (reply, _answer) = channel();
            group.handle(GroupCmd { session, reply, op: Op::Step { inputs, deadline: None } });
        };
        assert_eq!(group.seat(3), Some(0));
        assert!(group.sessions[&0].parked.is_some());
        queue(&mut group, 3);
        assert_eq!(group.seat(4), Some(1), "lane 0's resident has a command in flight");
        assert!(group.sessions[&1].parked.is_some());
        queue(&mut group, 4);
        queue(&mut group, 2);
        assert_eq!(group.seat(0), None, "every resident is mid-request");
        assert_eq!(group.lanes, [Some(3), Some(4), Some(2)]);

        // Sessions 0 and 1 are parked, one over the cap: 0 spills.
        group.spill_idle();
        let spilled = &group.durable.as_ref().unwrap().spilled;
        assert!(spilled.contains(&0) && !spilled.contains(&1));
        assert!(group.sessions[&1].parked.is_some());
        let _ = std::fs::remove_dir_all(dir);
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
            group.handle(GroupCmd { session: 1, reply, op: Op::Step { inputs, deadline: None } });
            group.step_tick();

            let held = Instant::now();
            while held.elapsed() < 3 * timeout {
                group.reap();
            }
            assert!(group.sessions.contains_key(&0), "store {with_store}: swept by the wall clock");

            clock.advance(timeout + Duration::from_nanos(1));
            group.reap();
            let snap = group.shared.metrics.snapshot();
            let (reaped, evicted) = (snap.counter("serve.sessions.reaped"), snap.counter("store.evictions"));
            assert!(!group.sessions.contains_key(&0), "store {with_store}: idle session survived");
            let spilled = group.durable.as_ref().is_some_and(|d| d.spilled.contains(&0));
            assert_eq!(spilled, with_store, "evicted iff a store is configured");
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

        let metrics = Arc::clone(&group.shared.metrics);
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
        let snap = group.shared.metrics.snapshot();
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
        let snap = group.shared.metrics.snapshot();
        assert_eq!(snap.histogram("store.snapshot_us").unwrap().count, 1, "the compaction");
        assert!(group.evict(0), "the eviction");
        let snap = group.shared.metrics.snapshot();
        let us = snap.histogram("store.snapshot_us").unwrap();
        let bytes = snap.histogram("store.snapshot_bytes").unwrap();
        assert_eq!((us.count, bytes.count), (2, 2));
        let lane_bytes = group.durable.as_ref().unwrap().template.encode().len() as u64;
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
            let op = Op::Step { inputs, deadline: Some(deadline) };
            group.handle(GroupCmd { session, reply: reply.clone(), op });
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
        let snap = group.shared.metrics.snapshot();
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
        group.adopt(1);
        let (reply, read) = channel();
        group.handle(GroupCmd { session: 1, reply, op: Op::ReadRows });
        group.step_tick();
        group.step_tick();
        for (session, rows) in [(2u64, 2), (3, 1)] {
            open(&mut group, session);
            let inputs = (0..rows).map(|t| input(&group, session, t)).collect();
            let (reply, _answered) = channel();
            group.handle(GroupCmd { session, reply, op: Op::Step { inputs, deadline: None } });
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

    /// A session the supervisor failed answers its next command —
    /// a step, a read, a reset or a close — `GroupFailed`, once, and the
    /// same command after that `UnknownSession`.
    #[test]
    fn every_command_to_a_failed_session_answers_group_failed_once() {
        let (mut group, _) = group(2);
        for session in 0..4u64 {
            open(&mut group, session);
        }
        let mut group = group.reincarnate();
        let ask = |group: &mut Group, session: u64| {
            let op = match session {
                0 => Op::Step { inputs: vec![input(group, session, 0)], deadline: None },
                1 => Op::ReadRows,
                2 => Op::Reset,
                _ => Op::Close,
            };
            let (reply, answer) = channel();
            group.handle(GroupCmd { session, reply, op });
            answer.try_recv().expect("answered at once")
        };
        for session in 0..4u64 {
            let first = ask(&mut group, session);
            assert!(matches!(first, Response::Error(ServeError::GroupFailed(s)) if s == session), "{first:?}");
            let again = ask(&mut group, session);
            assert!(matches!(again, Response::Error(ServeError::UnknownSession(s)) if s == session), "{again:?}");
        }
        assert!(group.failed.is_empty());
        assert_eq!(group.shared.metrics.sessions_live.get(), 0);
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
        let live = group.sessions.len() + group.durable.as_ref().map_or(0, |d| d.spilled.len());
        let m = &group.shared.metrics;
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
            group.spill_idle();
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
                    group.handle(GroupCmd { session: next_id, reply, op: Op::Open });
                    models.insert(next_id, Model::default());
                    next_id += 1;
                }
                2..=7 => {
                    let rows: Vec<Vec<f32>> = (0..1 + draw(3)).map(|k| input(&group, id, t + k)).collect();
                    t += rows.len();
                    let deadline = (draw(4) == 0).then(|| clock.now());
                    group.handle(GroupCmd { session: id, reply, op: Op::Step { inputs: rows.clone(), deadline } });
                    let model = models.get_mut(&id).unwrap();
                    if model.step.is_some() {
                        let busy = answer.try_recv();
                        assert!(matches!(busy, Ok(Response::Error(ServeError::SessionBusy(_)))), "{at}: {busy:?}");
                    } else {
                        model.step = Some((rows, answer));
                    }
                }
                8..=9 => {
                    group.handle(GroupCmd { session: id, reply, op: Op::ReadRows });
                    let model = models.get_mut(&id).unwrap();
                    if model.step.is_none() && model.read.is_none() {
                        model.read = Some((model.rows.len(), answer));
                    }
                }
                10 | 11 if models[&id].read.is_none() => {
                    let close = kind == 11;
                    let cmd = GroupCmd { session: id, reply, op: if close { Op::Close } else { Op::Reset } };
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
                    group = group.reincarnate();
                    // Sessions with nothing on disk fail, once, typed.
                    for id in group.failed.clone() {
                        let (reply, answer) = channel();
                        group.handle(GroupCmd { session: id, reply, op: Op::Close });
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
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
