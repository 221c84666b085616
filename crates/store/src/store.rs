//! The per-directory session store: two alternating snapshot slots + one
//! delta log per session id, with snapshot-then-truncate compaction.

use crate::log::{read_log, truncate_to_header, LogWriter, StepRecord};
use crate::snapshot::{encode_frame, read_slot, retire_slot, write_frame, Slot, Snapshot};
use hima_chaos::{io_error_for, FaultKind, FaultPlan, FaultSite};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Consults a fault plan for one store I/O operation.
///
/// `Ok(None)`: proceed normally (latency faults have already slept).
/// `Ok(Some(keep))`: the caller must write only `keep` bytes, then fail.
/// `Err`: the injected failure to surface in place of the real I/O.
pub(crate) fn consult_faults(
    faults: Option<&FaultPlan>,
    site: FaultSite,
) -> std::io::Result<Option<usize>> {
    let Some(plan) = faults else { return Ok(None) };
    match plan.check(site) {
        None => Ok(None),
        Some(FaultKind::PartialWrite { keep }) => Ok(Some(keep)),
        Some(kind) => match io_error_for(kind) {
            Some(e) => Err(e),
            None => Ok(None),
        },
    }
}

/// A persistence failure: either plain I/O or a file whose integrity
/// checks failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A store file exists but its magic, framing, or checksum is wrong.
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What failed to check out.
        what: &'static str,
    },
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { file, what } => {
                write!(f, "corrupt store file {}: {what}", file.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

pub(crate) fn corrupt(path: &Path, what: &'static str) -> StoreError {
    StoreError::Corrupt { file: path.to_path_buf(), what }
}

/// Maps "no file at that path" to `Ok(None)`: the readers open without
/// probing first, so an absent file — including one that disappears
/// between a directory scan and the open — is an answer, not an error.
fn absent_ok<T>(read: Result<T, StoreError>) -> Result<Option<T>, StoreError> {
    match read {
        Ok(value) => Ok(Some(value)),
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The snapshot recovery starts from, with its spec key; `None` for log
/// only.
type Chosen = Option<(Vec<u8>, Snapshot)>;

/// The slot rule table of [`SessionStore`]. Returns where recovery
/// starts, and the *live* slot — the one
/// [`SessionStore::save_snapshot`] must not overwrite: the newest that
/// verifies, else one that is not torn, preferring a retired one. A write
/// to the other slot that tears therefore never changes what a load
/// returns (bar both slots retired, which no crash produces: a tear that
/// restores the magic over the older frame un-retires it).
fn resolve(slots: [Slot; 2], paths: [&Path; 2]) -> (usize, Result<Chosen, StoreError>) {
    use Slot::{Absent, Retired, Torn, Valid};
    const ORPHAN: &str = "retired snapshot slot has no verifying partner";
    match slots {
        [Valid(ka, a), Valid(kb, b)] => {
            if b.step_seq > a.step_seq {
                (1, Ok(Some((kb, b))))
            } else {
                (0, Ok(Some((ka, a))))
            }
        }
        [Valid(key, snap), _] => (0, Ok(Some((key, snap)))),
        [_, Valid(key, snap)] => (1, Ok(Some((key, snap)))),
        [Absent | Torn(_), Absent] => (1, Ok(None)),
        [Absent, Torn(_)] => (0, Ok(None)),
        [Torn(e), Torn(_) | Retired] => (1, Err(e)),
        [Retired, Torn(e)] => (0, Err(e)),
        [Retired, Retired | Absent] => (0, Err(corrupt(paths[0], ORPHAN))),
        [Absent, Retired] => (1, Err(corrupt(paths[1], ORPHAN))),
    }
}

/// Everything recoverable for one session: the latest snapshot (if any),
/// the valid delta-log prefix, and whether the log tail was torn.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Canonical spec key the session was stored under.
    pub spec_key: Vec<u8>,
    /// Latest snapshot, absent when the session never compacted.
    pub snapshot: Option<Snapshot>,
    /// Valid delta-log records in append order (may predate the
    /// snapshot; filter with [`replay_steps`](Self::replay_steps)).
    pub steps: Vec<StepRecord>,
    /// True when the delta log ended in a torn or corrupt tail that was
    /// discarded.
    pub torn_tail: bool,
}

impl SessionRecord {
    /// The steps not yet captured by the snapshot, in replay order.
    pub fn replay_steps(&self) -> impl Iterator<Item = &StepRecord> {
        let applied = self.snapshot.as_ref().map_or(0, |s| s.step_seq);
        self.steps.iter().filter(move |s| s.seq > applied)
    }

    /// The step sequence the session reaches after full recovery.
    pub fn last_seq(&self) -> u64 {
        let snap = self.snapshot.as_ref().map_or(0, |s| s.step_seq);
        self.steps.iter().map(|s| s.seq).fold(snap, u64::max)
    }
}

/// A directory of durable sessions.
///
/// Layout per session: two snapshot slots, `sess-<id>.snap` (slot 0) and
/// `sess-<id>.snap1` (slot 1), and `sess-<id>.log` (append-only delta
/// log). [`save_snapshot`](Self::save_snapshot) overwrites the slot that
/// does not hold the newest snapshot, `sync_all`s it, and only then
/// retires the other slot and truncates the log to its header — so it
/// doubles as compaction. A crash anywhere in that sequence is benign:
/// until the sync, the other slot still verifies and the log still holds
/// every step since it; after it, the new slot wins, and the records a
/// not-yet-truncated log still holds satisfy `seq <= step_seq`, so they
/// replay to nothing. Which slot a session's next save writes is cached
/// per store, filled from the two slot files on a session's first save.
///
/// A slot is *absent* (no file, or an empty one), *retired*, *valid*
/// (its frame verifies) or *torn* (anything else). [`load`](Self::load)
/// and [`spec_key`](Self::spec_key) pick a slot by one rule table:
///
/// * both slots valid → the higher `step_seq`;
/// * one valid, the other retired, absent or torn → the valid one (a
///   torn partner is a save that never finished, and the log was not
///   truncated after it);
/// * one torn, the other absent → no snapshot, log only (a session's
///   first save never finished);
/// * any other combination with a slot that fails to verify, or a
///   retired slot with no valid partner → typed [`StoreError::Corrupt`].
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    /// Session id → its live slot (the one the next save must not
    /// overwrite).
    live: Mutex<HashMap<u64, usize>>,
    /// Buffers a save builds its frame and file paths in, returned after
    /// it: a save takes one (or makes one, when every buffer is in use by
    /// a concurrent save), so from a store's second save on, saving
    /// allocates nothing.
    scratch: Mutex<Vec<SaveScratch>>,
}

/// A save's reused buffers: the snapshot frame, and a file name and path.
#[derive(Debug, Default)]
struct SaveScratch {
    frame: Vec<u8>,
    name: String,
    path: PathBuf,
}

impl SaveScratch {
    /// The path of `root`'s file named by `name`, in the reused buffers.
    fn path(&mut self, root: &Path, name: FileName) -> &Path {
        self.name.clear();
        write!(self.name, "{name}").expect("formatting a file name cannot fail");
        self.path.as_mut_os_string().clear();
        self.path.push(root);
        self.path.push(&self.name);
        &self.path
    }
}

/// One of a session's files, displayed as its name.
#[derive(Clone, Copy)]
enum FileName {
    /// Snapshot slot 0 or 1. Slot 0 keeps the single-snapshot layout's
    /// name, so a store written before slots existed loads unchanged.
    Slot(u64, usize),
    /// The delta log.
    Log(u64),
}

impl std::fmt::Display for FileName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FileName::Slot(id, 0) => write!(f, "sess-{id}.snap"),
            FileName::Slot(id, _) => write!(f, "sess-{id}.snap1"),
            FileName::Log(id) => write!(f, "sess-{id}.log"),
        }
    }
}

impl SessionStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with(root, None)
    }

    /// [`open`](Self::open) with a fault plan consulted on every
    /// snapshot write and log append issued through this store. `None`
    /// injects nothing and costs one branch per operation.
    pub fn open_with(
        root: impl Into<PathBuf>,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root, faults, live: Mutex::default(), scratch: Mutex::default() })
    }

    /// The fault plan this store consults, when one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn slot_path(&self, id: u64, slot: usize) -> PathBuf {
        self.root.join(FileName::Slot(id, slot).to_string())
    }

    fn log_path(&self, id: u64) -> PathBuf {
        self.root.join(FileName::Log(id).to_string())
    }

    fn live_slots(&self) -> MutexGuard<'_, HashMap<u64, usize>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads both slots of `id` and applies the rule table.
    fn read_slots(&self, id: u64) -> std::io::Result<(usize, Result<Chosen, StoreError>)> {
        let paths = [self.slot_path(id, 0), self.slot_path(id, 1)];
        let slots = [read_slot(&paths[0])?, read_slot(&paths[1])?];
        Ok(resolve(slots, [&paths[0], &paths[1]]))
    }

    /// Every session id with at least one store file, ascending.
    pub fn sessions(&self) -> std::io::Result<Vec<u64>> {
        let mut ids = BTreeSet::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("sess-") else { continue };
            let Some(id) = [".snap", ".snap1", ".log"]
                .iter()
                .find_map(|suffix| rest.strip_suffix(suffix))
                .and_then(|id| id.parse::<u64>().ok())
            else {
                continue;
            };
            ids.insert(id);
        }
        Ok(ids.into_iter().collect())
    }

    /// The spec key a stored session belongs to, or `None` when no store
    /// files exist for `id` — by the same checks as [`load`](Self::load),
    /// so a session that routes is one that loads.
    pub fn spec_key(&self, id: u64) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.load(id)?.map(|rec| rec.spec_key))
    }

    /// Loads everything recoverable for `id`, or `None` when there is
    /// nothing to recover (no store files, or only a torn first save).
    /// The snapshot comes from the slot the rule table picks (see
    /// [`SessionStore`]); when it and the log both exist their spec keys
    /// must agree, and the first log record past the snapshot must be the
    /// step right after it (`step_seq + 1`, or `1` with no snapshot) — a
    /// mismatch or a gap is corruption, never a state replayed with steps
    /// missing. Records at or below `step_seq` are a log a crashed
    /// compaction left behind, and are allowed.
    pub fn load(&self, id: u64) -> Result<Option<SessionRecord>, StoreError> {
        let (_, chosen) = self.read_slots(id)?;
        let log_path = self.log_path(id);
        let log = absent_ok(read_log(&log_path))?;
        let (spec_key, snapshot) = chosen?.unzip();
        let (spec_key, steps, torn_tail) = match (spec_key, log) {
            (None, None) => return Ok(None),
            (Some(key), None) => (key, Vec::new(), false),
            (None, Some(log)) => (log.spec_key, log.steps, log.torn_tail),
            (Some(key), Some(log)) => {
                if key != log.spec_key {
                    return Err(corrupt(&log_path, "spec key disagrees with snapshot"));
                }
                (key, log.steps, log.torn_tail)
            }
        };
        let applied = snapshot.as_ref().map_or(0, |s| s.step_seq);
        if steps.iter().find(|s| s.seq > applied).is_some_and(|s| s.seq != applied + 1) {
            return Err(corrupt(&log_path, "delta log does not continue the snapshot"));
        }
        Ok(Some(SessionRecord { spec_key, snapshot, steps, torn_tail }))
    }

    /// Durably snapshots `id` at `step_seq`, then compacts the delta log:
    /// overwrites the slot that is not live, `sync_all`s it, retires the
    /// other slot and truncates the log to its header. Any open
    /// [`LogWriter`] for `id` must be dropped first.
    ///
    /// `Ok` means the snapshot is durable. `Err` means *not known*
    /// durable: a failed sync can leave the new frame in its slot, and a
    /// failure after the sync leaves the old slot unretired or the log
    /// untruncated. Either way the session still loads to a state
    /// consistent with its log, because the log is truncated only after
    /// a save has fully succeeded.
    ///
    /// The frame and the file paths are built in buffers the store
    /// reuses, so a save after the store's first allocates nothing.
    pub fn save_snapshot(
        &self,
        id: u64,
        spec_key: &[u8],
        step_seq: u64,
        state: &[u8],
    ) -> std::io::Result<()> {
        // Bound first, so the guard is dropped before the miss re-locks.
        let cached = self.live_slots().get(&id).copied();
        let live = match cached {
            Some(live) => live,
            None => {
                let (live, _) = self.read_slots(id)?;
                self.live_slots().insert(id, live);
                live
            }
        };
        let target = 1 - live;
        let taken = self.scratch.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let mut scratch = taken.unwrap_or_default();
        encode_frame(&mut scratch.frame, spec_key, step_seq, state);
        let saved = self.write_frames(&mut scratch, id, spec_key, live, target);
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
        saved
    }

    /// The I/O of a save: `scratch.frame` into slot `target`, synced, then
    /// slot `live` retired and the log truncated to its header.
    fn write_frames(
        &self,
        scratch: &mut SaveScratch,
        id: u64,
        spec_key: &[u8],
        live: usize,
        target: usize,
    ) -> std::io::Result<()> {
        let frame = std::mem::take(&mut scratch.frame);
        let written = write_frame(scratch.path(&self.root, FileName::Slot(id, target)), &frame, self.faults.as_deref());
        scratch.frame = frame;
        written?;
        // Synced: from here on a load picks the new slot.
        self.live_slots().insert(id, target);
        retire_slot(scratch.path(&self.root, FileName::Slot(id, live)))?;
        truncate_to_header(scratch.path(&self.root, FileName::Log(id)), spec_key)
    }

    /// Opens the delta log for `id` in append mode.
    pub fn log_writer(&self, id: u64, spec_key: &[u8]) -> std::io::Result<LogWriter> {
        LogWriter::open_with(&self.log_path(id), spec_key, self.faults.clone())
    }

    /// Deletes every store file for `id` (closed or reset sessions).
    pub fn remove(&self, id: u64) -> std::io::Result<()> {
        self.live_slots().remove(&id);
        for path in [self.slot_path(id, 0), self.slot_path(id, 1), self.log_path(id)] {
            match fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Creates a fresh scratch directory under the OS temp dir (test-only).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    let dir = hima_testkit::scratch(&format!("store-{tag}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;

    #[global_allocator]
    static A: hima_testkit::CountingAlloc = hima_testkit::CountingAlloc;

    #[test]
    fn a_save_reuses_its_frame_and_writes_the_bytes_of_write_snapshot() {
        // A payload the size of a served-shape lane state.
        let state: Vec<u8> = (0..77_362u32).map(|i| (i * 31 % 251) as u8).collect();
        let dir = test_dir("reused-frame");
        let store = SessionStore::open(&dir).unwrap();
        store.save_snapshot(1, b"spec", 4, &state).unwrap();
        let (saved, spent) = hima_testkit::metered(|| store.save_snapshot(1, b"spec", 5, &state));
        saved.unwrap();
        assert_eq!(spent.calls, 0, "a save after the store's first allocates nothing");

        let reference = dir.join("reference.snap");
        write_snapshot(&reference, b"spec", 5, &state).unwrap();
        let live = store.live_slots()[&1];
        let saved = fs::read(store.slot_path(1, live)).unwrap();
        assert!(saved == fs::read(&reference).unwrap(), "HIMASNP1 bytes differ");
    }

    #[test]
    fn empty_store_lists_nothing() {
        let store = SessionStore::open(test_dir("empty")).unwrap();
        assert!(store.sessions().unwrap().is_empty());
        assert_eq!(store.spec_key(1).unwrap(), None);
        assert_eq!(store.load(1).unwrap(), None);
    }

    #[test]
    fn log_only_session_recovers_all_steps() {
        let store = SessionStore::open(test_dir("log-only")).unwrap();
        let mut w = store.log_writer(3, b"spec").unwrap();
        w.append(1, &[1.0, 2.0]).unwrap();
        w.append(2, &[3.0, 4.0]).unwrap();
        drop(w);
        let rec = store.load(3).unwrap().unwrap();
        assert_eq!(rec.spec_key, b"spec");
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.replay_steps().count(), 2);
        assert_eq!(rec.last_seq(), 2);
        assert_eq!(store.sessions().unwrap(), vec![3]);
        assert_eq!(store.spec_key(3).unwrap().unwrap(), b"spec");
    }

    #[test]
    fn snapshot_compacts_log_and_filters_replay() {
        let store = SessionStore::open(test_dir("compact")).unwrap();
        let mut w = store.log_writer(5, b"k").unwrap();
        for seq in 1..=4 {
            w.append(seq, &[seq as f32]).unwrap();
        }
        drop(w);
        store.save_snapshot(5, b"k", 4, b"state@4").unwrap();
        let rec = store.load(5).unwrap().unwrap();
        assert_eq!(rec.snapshot.as_ref().unwrap().step_seq, 4);
        assert!(rec.steps.is_empty(), "compaction left log records behind");
        assert_eq!(store.spec_key(5).unwrap().unwrap(), b"k", "snapshot alone routes");

        // Steps after the snapshot replay; a stale pre-snapshot log
        // (crash between the sync and the truncation) replays to nothing.
        let mut w = store.log_writer(5, b"k").unwrap();
        w.append(5, &[5.0]).unwrap();
        w.append(6, &[6.0]).unwrap();
        drop(w);
        let rec = store.load(5).unwrap().unwrap();
        let replay: Vec<u64> = rec.replay_steps().map(|s| s.seq).collect();
        assert_eq!(replay, vec![5, 6]);
        assert_eq!(rec.last_seq(), 6);
        assert_eq!(store.spec_key(5).unwrap().unwrap(), b"k", "snapshot + log routes");
    }

    #[test]
    fn stale_log_after_crashed_compaction_replays_to_nothing() {
        let store = SessionStore::open(test_dir("crashed-compaction")).unwrap();
        let mut w = store.log_writer(7, b"k").unwrap();
        w.append(1, &[1.0]).unwrap();
        w.append(2, &[2.0]).unwrap();
        drop(w);
        // Simulate a crash between the snapshot's sync and the log's
        // truncation by writing the snapshot directly, leaving the log.
        crate::snapshot::write_snapshot(
            &store.root().join("sess-7.snap"),
            b"k",
            2,
            b"state@2",
        )
        .unwrap();
        let rec = store.load(7).unwrap().unwrap();
        assert_eq!(rec.steps.len(), 2, "stale log records should still parse");
        assert_eq!(rec.replay_steps().count(), 0, "stale records must not replay");
        assert_eq!(rec.last_seq(), 2);
    }

    #[test]
    fn spec_key_mismatch_is_corruption() {
        let store = SessionStore::open(test_dir("key-mismatch")).unwrap();
        store.save_snapshot(9, b"key-a", 1, b"s").unwrap();
        let mut w = store.log_writer(9, b"key-b").unwrap();
        w.append(2, &[1.0]).unwrap();
        drop(w);
        assert!(matches!(store.load(9), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn injected_snapshot_fault_leaves_previous_snapshot_intact() {
        use hima_chaos::FaultRule;
        // Fail the 2nd, 3rd, and 4th snapshot-write ops three different
        // ways; op 0 (the first snapshot) and ops ≥ 4 succeed.
        let plan = Arc::new(
            FaultPlan::new(5)
                .with_rule(FaultRule::at(FaultSite::StoreWrite, FaultKind::IoError, vec![1]))
                .with_rule(FaultRule::at(FaultSite::StoreWrite, FaultKind::Enospc, vec![2]))
                .with_rule(FaultRule::at(
                    FaultSite::StoreWrite,
                    FaultKind::PartialWrite { keep: 3 },
                    vec![3],
                )),
        );
        let store =
            SessionStore::open_with(test_dir("inject-snap"), Some(Arc::clone(&plan))).unwrap();
        store.save_snapshot(1, b"k", 10, b"good-state").unwrap();
        for expect in ["injected i/o error", "ENOSPC", "partial"] {
            let err = store.save_snapshot(1, b"k", 11, b"newer-state").unwrap_err();
            assert!(err.to_string().contains(expect), "got {err}");
            let rec = store.load(1).unwrap().unwrap();
            let snap = rec.snapshot.unwrap();
            assert_eq!(snap.step_seq, 10, "failed write clobbered the snapshot");
            assert_eq!(snap.state, b"good-state");
        }
        assert_eq!(plan.injected(FaultSite::StoreWrite), 3);
        // The partial write tore the other slot — retired by the first
        // save, so eight bytes long — not the live one: the magic and
        // `keep` = 3 body bytes (the low bytes of `key_len`).
        let torn = fs::read(store.root().join("sess-1.snap1")).unwrap();
        assert_eq!(torn, [&b"HIMASNP1"[..], &[1, 0, 0]].concat());
        // Past the scheduled faults, writes succeed again.
        store.save_snapshot(1, b"k", 12, b"final").unwrap();
        assert_eq!(store.load(1).unwrap().unwrap().snapshot.unwrap().step_seq, 12);
    }

    #[test]
    fn injected_partial_append_rolls_back_and_log_stays_readable() {
        use hima_chaos::FaultRule;
        let plan = Arc::new(FaultPlan::new(6).with_rule(FaultRule::at(
            FaultSite::StoreWrite,
            FaultKind::PartialWrite { keep: 7 },
            vec![2],
        )));
        let store =
            SessionStore::open_with(test_dir("inject-log"), Some(Arc::clone(&plan))).unwrap();
        let mut w = store.log_writer(4, b"spec").unwrap();
        w.append(1, &[1.0, 2.0]).unwrap();
        w.append(2, &[3.0, 4.0]).unwrap();
        let err = w.append(3, &[5.0, 6.0]).unwrap_err();
        assert!(err.to_string().contains("partial"), "got {err}");
        // The torn partial record was rolled back: a later successful
        // append through the same writer must stay readable.
        w.append(3, &[5.0, 6.0]).unwrap();
        w.sync().unwrap();
        drop(w);
        let rec = store.load(4).unwrap().unwrap();
        assert!(!rec.torn_tail, "rollback left a torn record behind");
        let seqs: Vec<u64> = rec.replay_steps().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(plan.injected(FaultSite::StoreWrite), 1);
        // A cleared plan injects nothing more.
        plan.clear();
        let mut w = store.log_writer(4, b"spec").unwrap();
        w.append(4, &[7.0]).unwrap();
        assert_eq!(store.load(4).unwrap().unwrap().last_seq(), 4);
    }

    fn magic(path: PathBuf) -> [u8; 8] {
        fs::read(path).unwrap()[..8].try_into().unwrap()
    }

    #[test]
    #[cfg(unix)]
    fn saves_alternate_slots_retire_the_other_and_truncate_the_log_in_place() {
        use crate::snapshot::{RETIRED_MAGIC, SNAPSHOT_MAGIC};
        use std::os::unix::fs::MetadataExt;
        let store = SessionStore::open(test_dir("alternate")).unwrap();
        let (slot0, slot1) = (store.slot_path(6, 0), store.slot_path(6, 1));
        let log = store.log_path(6);
        let mut w = store.log_writer(6, b"key").unwrap();
        w.append(1, &[1.0]).unwrap();
        drop(w);
        let inode = fs::metadata(&log).unwrap().ino();
        for (seq, written, retired) in [(1, &slot0, &slot1), (2, &slot1, &slot0), (3, &slot0, &slot1)] {
            store.save_snapshot(6, b"key", seq, &[seq as u8; 40]).unwrap();
            assert_eq!(magic(written.clone()), SNAPSHOT_MAGIC, "save {seq}");
            assert_eq!(magic(retired.clone()), RETIRED_MAGIC, "save {seq}");
            // The log keeps its inode and exactly its header.
            let meta = fs::metadata(&log).unwrap();
            assert_eq!((meta.ino(), meta.len()), (inode, 12 + 3), "save {seq}");
            let rec = store.load(6).unwrap().unwrap();
            assert_eq!((rec.snapshot.unwrap().step_seq, rec.steps.len()), (seq, 0));
        }
        assert_eq!(fs::read_dir(store.root()).unwrap().count(), 3, "a sibling file was left behind");
        assert_eq!(store.sessions().unwrap(), vec![6]);
    }

    #[test]
    fn a_log_that_does_not_continue_the_snapshot_is_corruption() {
        let store = SessionStore::open(test_dir("gap")).unwrap();
        let append = |seqs: std::ops::RangeInclusive<u64>| {
            let mut w = store.log_writer(8, b"k").unwrap();
            for seq in seqs {
                w.append(seq, &[seq as f32]).unwrap();
            }
        };
        let gap = |store: &SessionStore| match store.load(8) {
            Err(StoreError::Corrupt { what, .. }) => what == "delta log does not continue the snapshot",
            other => panic!("expected a gap, got {other:?}"),
        };
        // No snapshot: the log must start at step 1.
        append(2..=3);
        assert!(gap(&store));
        assert!(store.spec_key(8).is_err(), "a session that does not load must not route");
        store.remove(8).unwrap();
        append(1..=3);
        store.save_snapshot(8, b"k", 3, b"s@3").unwrap();
        // A stale record at or below the snapshot is allowed; the first
        // one past it must be `step_seq + 1`.
        append(2..=5);
        let rec = store.load(8).unwrap().unwrap();
        assert_eq!(rec.replay_steps().map(|s| s.seq).collect::<Vec<_>>(), [4, 5]);
        store.save_snapshot(8, b"k", 5, b"s@5").unwrap();
        append(7..=7);
        assert!(gap(&store));
        // The old silent case: the snapshot files disappear and the log,
        // which continues them, replays onto a blank lane.
        store.save_snapshot(8, b"k", 7, b"s@7").unwrap();
        append(8..=9);
        fs::remove_file(store.slot_path(8, 0)).unwrap();
        fs::remove_file(store.slot_path(8, 1)).unwrap();
        assert!(gap(&store));
    }

    #[test]
    fn an_old_layout_store_loads_unchanged_and_then_alternates() {
        use crate::snapshot::{RETIRED_MAGIC, SNAPSHOT_MAGIC};
        let dir = test_dir("old-layout");
        // What the single-snapshot layout left: `sess-4.snap` (its frame
        // spelled out byte by byte), a stray tmp sibling from a save that
        // was cut short, and a log that continues the snapshot.
        let mut body = Vec::new();
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(b"key");
        body.extend_from_slice(&5u64.to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(&[9, 8, 7, 6]);
        let crc = crate::crc32(&body);
        fs::write(dir.join("sess-4.snap"), [&b"HIMASNP1"[..], &body, &crc.to_le_bytes()].concat())
            .unwrap();
        fs::write(dir.join("sess-4.snap.tmp"), b"HIMASNP1\x03\x00").unwrap();
        let mut w = LogWriter::open(&dir.join("sess-4.log"), b"key").unwrap();
        w.append(6, &[0.5]).unwrap();
        drop(w);

        let store = SessionStore::open(&dir).unwrap();
        assert_eq!(store.sessions().unwrap(), vec![4]);
        assert_eq!(store.spec_key(4).unwrap().unwrap(), b"key");
        let rec = store.load(4).unwrap().unwrap();
        assert_eq!(rec.snapshot, Some(Snapshot { step_seq: 5, state: vec![9, 8, 7, 6] }));
        assert_eq!(rec.replay_steps().map(|s| s.seq).collect::<Vec<_>>(), [6]);

        // The first save goes to the new slot and retires the old file;
        // the next one goes back. The stray tmp file is never touched.
        store.save_snapshot(4, b"key", 6, b"six").unwrap();
        assert_eq!(magic(dir.join("sess-4.snap1")), SNAPSHOT_MAGIC);
        assert_eq!(magic(dir.join("sess-4.snap")), RETIRED_MAGIC);
        store.save_snapshot(4, b"key", 7, b"seven").unwrap();
        assert_eq!(magic(dir.join("sess-4.snap")), SNAPSHOT_MAGIC);
        assert_eq!(magic(dir.join("sess-4.snap1")), RETIRED_MAGIC);
        let rec = store.load(4).unwrap().unwrap();
        assert_eq!(rec.snapshot.unwrap().state, b"seven");
        assert_eq!(fs::read(dir.join("sess-4.snap.tmp")).unwrap(), b"HIMASNP1\x03\x00");
        // A second store on the directory finds the live slot itself.
        let again = SessionStore::open(&dir).unwrap();
        again.save_snapshot(4, b"key", 8, b"eight").unwrap();
        assert_eq!(magic(dir.join("sess-4.snap1")), SNAPSHOT_MAGIC);
        assert_eq!(again.load(4).unwrap().unwrap().snapshot.unwrap().state, b"eight");
    }

    /// The input logged at step `seq`, and the toy state machine the
    /// sweep below checks recovery against.
    fn input(seq: u64) -> [f32; 3] {
        [seq as f32 * 0.37, -(seq as f32), 1.0 / seq as f32]
    }

    fn advance(state: &mut [u8; 32], input: &[f32]) {
        for (i, v) in input.iter().enumerate() {
            for (j, b) in v.to_bits().to_le_bytes().into_iter().enumerate() {
                let at = (i * 4 + j) % 32;
                state[at] = state[at].wrapping_mul(31).wrapping_add(b) ^ state[(at + 7) % 32];
            }
        }
    }

    #[test]
    fn every_injected_save_fault_still_loads_the_last_appended_step() {
        use hima_chaos::FaultRule;
        const SAVES: u64 = 20;
        let faults = [
            (FaultSite::StoreWrite, FaultKind::IoError),
            (FaultSite::StoreWrite, FaultKind::Enospc),
            (FaultSite::StoreWrite, FaultKind::PartialWrite { keep: 0 }),
            (FaultSite::StoreWrite, FaultKind::PartialWrite { keep: 4 }),
            (FaultSite::StoreWrite, FaultKind::PartialWrite { keep: 30 }),
            (FaultSite::StoreWrite, FaultKind::PartialWrite { keep: 49 }),
            (FaultSite::StoreFsync, FaultKind::IoError),
        ];
        for (site, kind) in faults {
            for at in 0..SAVES {
                let dir = test_dir("sweep");
                // Saves go through the faulty store alone, so its op `at`
                // at either site is save `at`; the log through a clean one.
                let plan = Arc::new(FaultPlan::new(1).with_rule(FaultRule::at(site, kind, vec![at])));
                let saver = SessionStore::open_with(&dir, Some(Arc::clone(&plan))).unwrap();
                let logger = SessionStore::open(&dir).unwrap();
                let (mut state, mut seq) = ([0u8; 32], 0u64);
                for save in 0..SAVES {
                    let mut w = logger.log_writer(1, b"k").unwrap();
                    for _ in 0..3 {
                        seq += 1;
                        w.append(seq, &input(seq)).unwrap();
                        advance(&mut state, &input(seq));
                    }
                    drop(w);
                    let saved = saver.save_snapshot(1, b"k", seq, &state);
                    assert_eq!(saved.is_err(), save == at, "{site:?} {kind:?} at save {at}");
                }
                let mut w = logger.log_writer(1, b"k").unwrap();
                for _ in 0..2 {
                    seq += 1;
                    w.append(seq, &input(seq)).unwrap();
                    advance(&mut state, &input(seq));
                }
                drop(w);
                assert_eq!(plan.injected(site), 1);

                let rec = SessionStore::open(&dir).unwrap().load(1).unwrap().unwrap();
                let snap = rec.snapshot.as_ref().unwrap();
                let mut got: [u8; 32] = snap.state.as_slice().try_into().unwrap();
                for step in rec.replay_steps() {
                    advance(&mut got, &step.input);
                }
                assert_eq!(rec.last_seq(), seq, "{site:?} {kind:?} at save {at}");
                assert_eq!(got, state, "{site:?} {kind:?} at save {at}");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn remove_deletes_both_files() {
        let store = SessionStore::open(test_dir("remove")).unwrap();
        store.save_snapshot(2, b"k", 1, b"s").unwrap();
        let mut w = store.log_writer(2, b"k").unwrap();
        w.append(2, &[0.5]).unwrap();
        drop(w);
        store.remove(2).unwrap();
        assert!(store.sessions().unwrap().is_empty());
        assert_eq!(store.load(2).unwrap(), None);
        // Removing an absent session is not an error.
        store.remove(2).unwrap();
    }
}
