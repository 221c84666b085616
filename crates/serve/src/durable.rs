//! A group's durability tier: the write-ahead log, snapshots, eviction
//! and rehydration — one value, [`Durable`], that a group has only when
//! it has a store.
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
//!   idle ones spill to disk the same way, lowest session id first.
//!
//! The replay runs inside rehydration, before the command that caused it
//! is applied: the recovered state is swapped into a borrowed lane, each
//! unapplied log row is stepped with only that lane active, and the state
//! is swapped back out — the lane's occupant, frozen by the mask, gets
//! its own buffers back bit for bit. Replayed steps count under
//! `serve.scheduler.steps` and `store.replay_steps`, answer no client and
//! append no log record; no tick ever sees one.

use crate::metrics::ServeMetrics;
use crate::protocol::{ServeError, SessionSpec};
use crate::scheduler::Group;
use hima_dnc::{BoxedEngine, LaneState};
use hima_store::{LogWriter, SessionStore};
use hima_telemetry::TraceKind;
use hima_tensor::LaneMask;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Store wiring handed to a group at spawn (see
/// [`StoreConfig`](crate::session::StoreConfig) for the policy knobs).
#[derive(Clone)]
pub(crate) struct GroupStore {
    /// The shared on-disk session store.
    pub store: Arc<SessionStore>,
    /// Snapshot + compact a session's log every this many logged steps.
    pub snapshot_every: u64,
    /// Spill idle detached states to disk beyond this many parked in RAM.
    pub max_parked: usize,
}

/// A group's durability tier.
pub(crate) struct Durable {
    /// The wiring it was built from, never changed (a new incarnation is
    /// built from it too).
    pub(crate) cfg: GroupStore,
    /// This group's canonical spec key — what its sessions' store files
    /// are stamped with.
    spec_key: Vec<u8>,
    /// A blank lane's state, for non-panicking geometry checks against
    /// decoded snapshots before the splice (which asserts), and as the
    /// canonical state of a blank session being evicted.
    pub(crate) template: LaneState,
    /// Sessions living only in the store right now; still routable, and
    /// rehydrated on their next command.
    pub(crate) spilled: HashSet<u64>,
}

/// Where one session's delta log stands.
#[derive(Default)]
pub(crate) struct Wal {
    /// Steps applied to the session over its whole life (survives
    /// evict/rehydrate) — the delta-log sequence number of the latest
    /// step and the `step_seq` a snapshot is stamped with.
    pub(crate) seq: u64,
    /// Logged steps since the last snapshot attempt; drives periodic
    /// compaction. A refused snapshot resets it too, so the next attempt
    /// waits another `snapshot_every` steps rather than coming every step.
    pub(crate) since_snapshot: u64,
    /// Open delta-log writer (lazy; dropped before compaction, because
    /// compaction truncates the log file under stale handles).
    log: Option<LogWriter>,
}

impl Durable {
    /// The tier of a group of `spec` over `engine`, nothing spilled yet.
    pub(crate) fn new(cfg: GroupStore, spec: &SessionSpec, engine: &BoxedEngine) -> Self {
        Self { cfg, spec_key: spec.group_key(), template: engine.export_lane(0), spilled: HashSet::new() }
    }

    /// Takes session `id` back as spilled after a group panic, if its
    /// store files are stamped with this group's spec.
    pub(crate) fn resurrect(&mut self, id: u64) -> bool {
        let stored = self.cfg.store.spec_key(id).ok().flatten().is_some_and(|key| key == self.spec_key);
        if stored {
            self.spilled.insert(id);
        }
        stored
    }

    /// Write-ahead: logs `row` as the session's next step, *before* the
    /// engine applies it, so an acknowledged step is always re-derivable
    /// after a kill. False — the step must not be applied — if the log
    /// refuses it (counted under `store.errors`).
    pub(crate) fn append(&self, id: u64, wal: &mut Wal, row: &[f32], metrics: &ServeMetrics) -> bool {
        if wal.log.is_none() {
            wal.log = self.cfg.store.log_writer(id, &self.spec_key).ok();
        }
        let seq = wal.seq + 1;
        if wal.log.as_mut().is_none_or(|log| log.append(seq, row).is_err()) {
            metrics.store_errors.inc();
            wal.log = None;
            return false;
        }
        metrics.store_log_appends.inc();
        wal.seq = seq;
        wal.since_snapshot += 1;
        true
    }

    /// The one snapshot writer: saves `state` as session `id`'s snapshot
    /// at step `wal.seq`, then records the encoded size and the encode +
    /// write time, or counts a refusal under `store.errors`. The save
    /// truncates the log in place, so the log writer is dropped first: a
    /// stale one would roll a failed append back to the old length.
    ///
    /// The state is encoded into a buffer of its own, not into the
    /// store's frame: that buffer's growth past glibc's mmap threshold
    /// is, today, what keeps the heap top from being trimmed and faulted
    /// back in around every eviction's and rehydration's transient state
    /// copies (`CHANGES.md`).
    fn save(&self, id: u64, wal: &mut Wal, state: &LaneState, metrics: &ServeMetrics) -> bool {
        wal.log = None;
        let t0 = Instant::now();
        let bytes = state.encode();
        if self.cfg.store.save_snapshot(id, &self.spec_key, wal.seq, &bytes).is_err() {
            metrics.store_errors.inc();
            return false;
        }
        metrics.store_snapshot_bytes.observe(bytes.len() as u64);
        metrics.store_snapshot_us.observe(t0.elapsed().as_micros() as u64);
        true
    }
}

impl Group {
    /// Registers a session found in the store at hub boot as spilled; it
    /// rehydrates lazily on its first command.
    pub(crate) fn adopt(&mut self, session: u64) {
        if let Some(d) = &mut self.durable {
            d.spilled.insert(session);
        }
    }

    /// Takes `session` off the spilled set; false if it was not there.
    pub(crate) fn unspill(&mut self, session: u64) -> bool {
        self.durable.as_mut().is_some_and(|d| d.spilled.remove(&session))
    }

    /// Deletes a session's store files, counting failures.
    pub(crate) fn drop_store_files(&self, session: u64) {
        if let Some(d) = &self.durable {
            if d.cfg.store.remove(session).is_err() {
                self.shared.metrics.store_errors.inc();
            }
        }
    }

    /// Periodic compaction of one resident session: snapshot the lane
    /// state at its current `seq`, which truncates the delta log. A
    /// refused snapshot leaves the log whole (every step stays logged and
    /// recoverable) and is retried after the next `snapshot_every` logged
    /// steps.
    pub(crate) fn compact(&mut self, id: u64) {
        let Some(d) = &self.durable else { return };
        let sess = self.sessions.get_mut(&id).unwrap();
        let Some(lane) = sess.lane else { return };
        sess.wal.since_snapshot = 0;
        d.save(id, &mut sess.wal, &self.engine.export_lane(lane), &self.shared.metrics);
    }

    /// Spills one idle session to the store: snapshot its full state,
    /// drop it from RAM, keep its id routable (the hub's route survives;
    /// [`Group::rehydrate`] rebuilds it on the next command).
    ///
    /// Returns false — with the session's newest state still in RAM —
    /// if the store write fails: state newer than the last durable
    /// snapshot is **never** discarded. The refused victim degrades to
    /// the parked tier (freeing its lane) and the refusal is counted
    /// under `store.evict_refusals`.
    pub(crate) fn evict(&mut self, id: u64) -> bool {
        let Some(d) = &mut self.durable else { return false };
        let metrics = &self.shared.metrics;
        let sess = self.sessions.get_mut(&id).unwrap();
        debug_assert!(sess.idle(), "only idle sessions evict");
        let state = match (sess.parked.take(), sess.lane) {
            (Some(state), _) => state,
            (None, Some(lane)) => self.engine.export_lane(lane),
            // A blank session (never stepped, nothing on the grid): its
            // canonical state is the blank template.
            (None, None) => d.template.clone(),
        };
        if !d.save(id, &mut sess.wal, &state, metrics) {
            metrics.store_evict_refusals.inc();
            // Refuse to discard: keep the newest state in RAM, parked
            // (the lane frees up either way — the detached copy is the
            // state now). The refusal counts as activity, so the idle
            // sweep retries once per `idle_timeout`, not once per tick
            // for as long as the disk refuses.
            sess.parked = Some(state);
            sess.last_activity = self.shared.clock.now();
            let lane = sess.lane.take();
            self.free_lane(lane);
            return false;
        }
        d.spilled.insert(id);
        let sess = self.sessions.remove(&id).unwrap();
        self.free_lane(sess.lane);
        let metrics = &self.shared.metrics;
        metrics.store_evictions.inc();
        metrics.drop_session_histogram(id);
        metrics.trace(TraceKind::Evict, id, sess.wal.seq);
        true
    }

    /// Rebuilds session `id` in RAM, parked, if it lives only in the
    /// store: decode its snapshot (geometry-checked against this group's
    /// engine), then replay the unapplied delta-log steps on a borrowed
    /// lane — swapped in, stepped with only that lane active, swapped back
    /// out. Masked stepping is solo stepping, so the recovered state is
    /// bit-identical to never having been evicted, and the lane's occupant,
    /// frozen by the mask, gets its own buffers back untouched.
    pub(crate) fn rehydrate(&mut self, id: u64) -> Result<(), ServeError> {
        let Some(d) = self.durable.as_mut().filter(|d| d.spilled.contains(&id)) else { return Ok(()) };
        let metrics = &self.shared.metrics;
        let refused = |e: String| {
            metrics.store_errors.inc();
            ServeError::Store(e)
        };
        let rec = match d.cfg.store.load(id) {
            Ok(Some(rec)) => rec,
            Ok(None) => return Err(refused(format!("session {id}: store files missing"))),
            Err(e) => return Err(refused(e.to_string())),
        };
        if rec.torn_tail {
            // Tolerated: the valid prefix still recovers; the torn
            // records were never acknowledged to any client.
            metrics.store_torn_tails.inc();
        }
        if rec.spec_key != d.spec_key {
            return Err(refused(format!("session {id}: stored under a different spec")));
        }
        let mut parked = match rec.snapshot.as_ref().map(|snap| LaneState::decode(&snap.state)).transpose() {
            Ok(state) if state.as_ref().is_none_or(|s| d.template.same_geometry(s)) => state,
            Ok(_) => {
                return Err(refused(format!("session {id}: snapshot geometry does not match the group engine")))
            }
            Err(e) => return Err(refused(format!("session {id}: {e}"))),
        };
        let input_size = self.engine.params().input_size;
        let replay: Vec<&[f32]> = rec.replay_steps().map(|step| &step.input[..]).collect();
        if let Some(bad) = replay.iter().find(|input| input.len() != input_size) {
            let wide = bad.len();
            return Err(refused(format!("session {id}: logged step is {wide} wide, engine wants {input_size}")));
        }
        if !replay.is_empty() {
            let mut state = parked.unwrap_or_else(|| d.template.clone());
            let mask = LaneMask::from_fn(self.engine.batch(), |lane| lane == 0);
            self.engine.swap_lane(0, &mut state);
            for input in &replay {
                self.x.row_mut(0).copy_from_slice(input);
                self.engine.step_batch_masked_into(&self.x, &mask, &mut self.y);
            }
            self.engine.swap_lane(0, &mut state);
            metrics.steps.add(replay.len() as u64);
            parked = Some(state);
        }
        d.spilled.remove(&id);
        let seq = rec.last_seq();
        let since_snapshot = seq - rec.snapshot.as_ref().map_or(0, |s| s.step_seq);
        let mut sess = self.blank_sess(id);
        sess.parked = parked;
        sess.wal = Wal { seq, since_snapshot, log: None };
        self.sessions.insert(id, sess);
        metrics.store_rehydrations.inc();
        metrics.store_replay_steps.observe(replay.len() as u64);
        metrics.trace(TraceKind::Rehydrate, id, replay.len() as u64);
        Ok(())
    }

    /// Caps the in-RAM parked tier: beyond `max_parked` detached states,
    /// the idle ones spill to the store, lowest session id first.
    pub(crate) fn spill_idle(&mut self) {
        let Some(max_parked) = self.durable.as_ref().map(|d| d.cfg.max_parked) else { return };
        loop {
            let parked = self.sessions.iter().filter(|(_, s)| s.parked.is_some());
            if parked.clone().count() <= max_parked {
                return;
            }
            let Some(victim) = parked.filter(|(_, s)| s.idle()).map(|(&id, _)| id).min() else { return };
            if !self.evict(victim) {
                return;
            }
        }
    }
}
