//! Who runs a group: the [`GroupCell`], an engine group run by its callers.
//!
//! # Who runs a group
//!
//! No thread of its own: a group is a [`GroupCell`] — the [`Group`] and a
//! command inbox — and the threads that send it commands run it (flat
//! combining). A caller appends its command to the inbox and returns as
//! soon as its reply is there. Otherwise it takes the group, serves every command the inbox
//! holds, runs one tick and the parked-tier cap, and looks again. While
//! another caller holds the group it waits for that caller's pass to end,
//! which has served its command by then if it was sent in time. Commands
//! that arrive during a tick join the next one, so overlapping callers
//! still share a batch; a lone caller runs its step inline, on its own
//! thread, with no hand-off. The idle sweep is the one job no caller
//! drives: the hub's sweeper thread runs it ([`GroupCell::sweep`]) when an
//! idle timeout is configured.
//!
//! # Supervision
//!
//! Every pass over a group runs under `catch_unwind`. A panic (a bug — or
//! an injected [`FaultKind::Panic`](hima_chaos::FaultKind) at the
//! `SchedTick` site) replaces the group with a fresh incarnation, built
//! from the dead one's configuration, that resurrects store-backed
//! sessions from their snapshot + delta log and fails unpersisted ones
//! with a typed [`ServeError::GroupFailed`](crate::ServeError). A command
//! the dead incarnation had taken from the inbox is lost with it, and its
//! caller is told so; commands still in the inbox are served by the new
//! one. Nothing repairs the shared gauges: a group publishes them from its
//! own session table, and the new incarnation's first publish corrects
//! what the dead one left behind.

use crate::protocol::Response;
use crate::scheduler::{Group, GroupCmd, Op};
use hima_telemetry::TraceKind;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, TryLockError};

/// Locks a mutex, ignoring poisoning: a panicked pass must not wedge the
/// hub (or the next incarnation of the group) out of the shared maps —
/// the data under these locks stays consistent because every critical
/// section is a plain insert/remove.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
}

/// Commands sent and not yet taken by a pass, and how many callers wait
/// for the pass in progress to end.
#[derive(Default)]
struct Inbox {
    cmds: VecDeque<GroupCmd>,
    waiting: usize,
}

impl GroupCell {
    pub(crate) fn new(group: Group) -> Self {
        Self { inbox: Mutex::default(), passed: Condvar::new(), group: Mutex::new(group) }
    }

    /// Sends `op` for `session` with this thread's reply slot and runs
    /// passes until it is answered. `None`: the command was lost with an
    /// incarnation that panicked.
    pub(crate) fn call(&self, session: u64, op: Op) -> Option<Response> {
        REPLY.with(|(reply, answer)| {
            lock_clean(&self.inbox).cmds.push_back(GroupCmd { session, reply: reply.clone(), op });
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

    /// One combining pass: every command in the inbox, then one tick.
    /// False if it panicked.
    fn pass(&self, group: &mut Group) -> bool {
        self.supervised(group, |group| {
            while let Some(cmd) = self.next_cmd() {
                group.handle(cmd);
            }
            group.tick();
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
        let metrics = &group.shared.metrics;
        metrics.trace(TraceKind::GroupPanic, 0, 0);
        metrics.supervisor_restarts.inc();
        *group = group.reincarnate();
        false
    }

    /// The idle sweep, unless a pass holds the group right now (the sweeper
    /// comes back a tick later).
    pub(crate) fn sweep(&self) {
        let Some(mut group) = self.try_group() else { return };
        self.supervised(&mut group, Group::sweep);
        self.release(group);
    }

    /// Registers a session found in the store at hub boot; no caller waits
    /// for it, so it is applied here rather than sent.
    pub(crate) fn adopt(&self, session: u64) {
        let mut group = lock_clean(&self.group);
        group.adopt(session);
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
