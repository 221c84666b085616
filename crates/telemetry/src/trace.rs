//! Bounded ring-buffer event trace for session-lifecycle debugging.
//!
//! The scheduler records one [`TraceEvent`] per lifecycle transition
//! (open, close, park, splice, reap, busy-rejection, error, evict,
//! rehydrate). The ring
//! pre-allocates its slots at construction and overwrites the oldest
//! event when full, so recording never allocates and the memory bound is
//! fixed. Sequence numbers are assigned inside the ring lock, which makes
//! storage order equal to sequence order — [`TraceRing::dump`] returns
//! events oldest→newest with strictly increasing `seq` even across
//! wraparound.

use std::sync::Mutex;
use std::time::Instant;

/// The kind of session-lifecycle transition a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Session opened and bound to a group.
    Open,
    /// Session closed by the client.
    Close,
    /// Resident session swapped out of its lane to make room.
    Park,
    /// Parked session spliced back into a free lane.
    Splice,
    /// Idle session reaped by the idle-timeout sweep.
    Reap,
    /// Request rejected because the session already had a call in flight.
    Busy,
    /// Request failed with a server-side error.
    Error,
    /// Cold session spilled from RAM to the session store.
    Evict,
    /// Stored session rebuilt in RAM (snapshot decode + delta replay).
    Rehydrate,
    /// Queued work shed: overload rejection or an expired deadline
    /// (detail carries the shed queue depth).
    Shed,
    /// A pass over a serving group panicked (detail: 0).
    GroupPanic,
    /// A panicked group was replaced by a new incarnation (detail:
    /// sessions resurrected from the store).
    GroupRestart,
    /// A session could not be resurrected after a group panic and was
    /// failed with a typed error (detail: 0).
    SessionFailed,
}

impl TraceKind {
    /// Every kind, in wire-code order. New kinds are appended, never
    /// reordered — the wire code is the index into this array.
    pub const ALL: [TraceKind; 13] = [
        TraceKind::Open,
        TraceKind::Close,
        TraceKind::Park,
        TraceKind::Splice,
        TraceKind::Reap,
        TraceKind::Busy,
        TraceKind::Error,
        TraceKind::Evict,
        TraceKind::Rehydrate,
        TraceKind::Shed,
        TraceKind::GroupPanic,
        TraceKind::GroupRestart,
        TraceKind::SessionFailed,
    ];

    /// Human-readable label (used by `hima_cli metrics --trace`).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Open => "open",
            TraceKind::Close => "close",
            TraceKind::Park => "park",
            TraceKind::Splice => "splice",
            TraceKind::Reap => "reap",
            TraceKind::Busy => "busy",
            TraceKind::Error => "error",
            TraceKind::Evict => "evict",
            TraceKind::Rehydrate => "rehydrate",
            TraceKind::Shed => "shed",
            TraceKind::GroupPanic => "group-panic",
            TraceKind::GroupRestart => "group-restart",
            TraceKind::SessionFailed => "session-failed",
        }
    }

    /// Stable wire code (index into [`TraceKind::ALL`]).
    pub fn code(self) -> u8 {
        TraceKind::ALL.iter().position(|&k| k == self).unwrap() as u8
    }

    /// Inverse of [`TraceKind::code`]; `None` for an unknown code.
    pub fn from_code(code: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(code as usize).copied()
    }
}

/// One recorded lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (global across all kinds; gaps mean
    /// events were overwritten before being dumped).
    pub seq: u64,
    /// Microseconds since the ring was constructed.
    pub at_us: u64,
    /// What happened.
    pub kind: TraceKind,
    /// The session the event concerns (0 when not session-specific).
    pub session: u64,
    /// Kind-specific payload: lane index for park/splice, error subtag
    /// for error, queue depth for busy — 0 when unused.
    pub detail: u64,
}

/// Slots plus the cursor state the lock protects.
struct RingInner {
    events: Vec<TraceEvent>,
    /// Next slot to write (== `seq % capacity` once full).
    head: usize,
    /// Total events ever recorded; the next event's `seq`.
    recorded: u64,
}

/// A bounded, overwrite-oldest trace of [`TraceEvent`]s.
///
/// Recording takes a short mutex (no allocation, no syscalls beyond the
/// monotonic-clock read) — contention is bounded by lifecycle-event rate,
/// which is orders of magnitude below step rate.
pub struct TraceRing {
    epoch: Instant,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            epoch: Instant::now(),
            inner: Mutex::new(RingInner {
                events: Vec::with_capacity(capacity),
                head: 0,
                recorded: 0,
            }),
        }
    }

    /// Records one event, overwriting the oldest if the ring is full.
    pub fn record(&self, kind: TraceKind, session: u64, detail: u64) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.recorded;
        inner.recorded += 1;
        let ev = TraceEvent { seq, at_us, kind, session, detail };
        if inner.events.len() < inner.events.capacity() {
            inner.events.push(ev);
        } else {
            let head = inner.head;
            inner.events[head] = ev;
        }
        inner.head = (inner.head + 1) % inner.events.capacity();
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().recorded
    }

    /// The retained events, oldest first, `seq` strictly increasing.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().unwrap();
        let n = inner.events.len();
        if n == 0 {
            return Vec::new();
        }
        // Before wraparound `head == n` is never true mid-fill (head
        // wraps to 0 exactly when the ring fills), so the oldest event is
        // at `head % n` in both regimes.
        let start = inner.head % n;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(inner.events[(start + i) % n]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_code(kind.code()), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(TraceKind::from_code(200), None);
    }

    #[test]
    fn dump_before_wraparound_is_in_order() {
        let ring = TraceRing::new(8);
        ring.record(TraceKind::Open, 1, 0);
        ring.record(TraceKind::Park, 1, 3);
        ring.record(TraceKind::Close, 1, 0);
        let events = ring.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[1].kind, TraceKind::Park);
        assert_eq!(events[1].detail, 3);
    }

    #[test]
    fn wraparound_keeps_newest_in_seq_order() {
        let ring = TraceRing::new(4);
        for i in 0..11u64 {
            ring.record(TraceKind::Open, i, 0);
        }
        assert_eq!(ring.recorded(), 11);
        let events = ring.dump();
        assert_eq!(events.len(), 4, "bounded at capacity");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest→newest after overwrite");
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let ring = TraceRing::new(0);
        ring.record(TraceKind::Error, 5, 2);
        ring.record(TraceKind::Reap, 6, 0);
        let events = ring.dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::Reap);
        assert_eq!(events[0].seq, 1);
    }
}
