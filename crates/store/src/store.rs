//! The per-directory session store: one snapshot + one delta log per
//! session id, with snapshot-then-truncate compaction.

use crate::log::{read_log, LogWriter, StepRecord};
use crate::snapshot::{read_snapshot, read_snapshot_key, write_snapshot_with, Snapshot};
use hima_chaos::{io_error_for, FaultKind, FaultPlan, FaultSite};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
/// Layout: `sess-<id>.snap` (atomic snapshot) and `sess-<id>.log`
/// (append-only delta log) per session. [`save_snapshot`](Self::save_snapshot)
/// doubles as compaction — after the snapshot is
/// durably renamed into place, the log is deleted. A crash between
/// those two operations is benign: recovery replays only log records
/// with `seq > snapshot.step_seq`, and every surviving record satisfies
/// `seq <= step_seq`, so the stale log replays to nothing.
#[derive(Debug)]
pub struct SessionStore {
    root: PathBuf,
    faults: Option<Arc<FaultPlan>>,
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
        Ok(Self { root, faults })
    }

    /// The fault plan this store consults, when one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn snapshot_path(&self, id: u64) -> PathBuf {
        self.root.join(format!("sess-{id}.snap"))
    }

    fn log_path(&self, id: u64) -> PathBuf {
        self.root.join(format!("sess-{id}.log"))
    }

    /// Every session id with at least one store file, ascending.
    pub fn sessions(&self) -> std::io::Result<Vec<u64>> {
        let mut ids = BTreeSet::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix("sess-") else { continue };
            let Some(id) = rest
                .strip_suffix(".snap")
                .or_else(|| rest.strip_suffix(".log"))
                .and_then(|id| id.parse::<u64>().ok())
            else {
                continue;
            };
            ids.insert(id);
        }
        Ok(ids.into_iter().collect())
    }

    /// The spec key a stored session belongs to, or `None` when no store
    /// files exist for `id`. Reads only as much as routing needs.
    pub fn spec_key(&self, id: u64) -> Result<Option<Vec<u8>>, StoreError> {
        if let Some(key) = absent_ok(read_snapshot_key(&self.snapshot_path(id)))? {
            return Ok(Some(key));
        }
        Ok(absent_ok(read_log(&self.log_path(id)))?.map(|log| log.spec_key))
    }

    /// Loads everything recoverable for `id`, or `None` when the session
    /// has no store files. When both files exist their spec keys must
    /// agree; a mismatch is corruption, not a recoverable state.
    pub fn load(&self, id: u64) -> Result<Option<SessionRecord>, StoreError> {
        let snap_path = self.snapshot_path(id);
        let log_path = self.log_path(id);
        let snap = absent_ok(read_snapshot(&snap_path))?;
        let log = absent_ok(read_log(&log_path))?;
        match (snap, log) {
            (None, None) => Ok(None),
            (Some((key, snapshot)), None) => Ok(Some(SessionRecord {
                spec_key: key,
                snapshot: Some(snapshot),
                steps: Vec::new(),
                torn_tail: false,
            })),
            (None, Some(log)) => Ok(Some(SessionRecord {
                spec_key: log.spec_key,
                snapshot: None,
                steps: log.steps,
                torn_tail: log.torn_tail,
            })),
            (Some((key, snapshot)), Some(log)) => {
                if key != log.spec_key {
                    return Err(corrupt(&log_path, "spec key disagrees with snapshot"));
                }
                Ok(Some(SessionRecord {
                    spec_key: key,
                    snapshot: Some(snapshot),
                    steps: log.steps,
                    torn_tail: log.torn_tail,
                }))
            }
        }
    }

    /// Durably snapshots `id` at `step_seq`, then compacts (deletes) the
    /// delta log. Any open [`LogWriter`] for `id` must be dropped first.
    pub fn save_snapshot(
        &self,
        id: u64,
        spec_key: &[u8],
        step_seq: u64,
        state: &[u8],
    ) -> std::io::Result<()> {
        write_snapshot_with(
            &self.snapshot_path(id),
            spec_key,
            step_seq,
            state,
            self.faults.as_deref(),
        )?;
        match fs::remove_file(self.log_path(id)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Opens the delta log for `id` in append mode.
    pub fn log_writer(&self, id: u64, spec_key: &[u8]) -> std::io::Result<LogWriter> {
        LogWriter::open_with(&self.log_path(id), spec_key, self.faults.clone())
    }

    /// Deletes every store file for `id` (closed or reset sessions).
    pub fn remove(&self, id: u64) -> std::io::Result<()> {
        for path in [self.snapshot_path(id), self.log_path(id)] {
            match fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Creates a fresh scratch directory under the OS temp dir (test-only;
/// the hermetic build has no tempfile crate).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "hima-store-{tag}-{}-{n}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // (crash between rename and remove) replays to nothing.
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
        // Simulate a crash between snapshot rename and log removal by
        // writing the snapshot directly, leaving the log in place.
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
        // The partial write tore the tmp sibling, not the snapshot: the
        // magic and `keep` = 3 body bytes (the low bytes of `key_len`).
        let torn = fs::read(store.root().join("sess-1.snap.tmp")).unwrap();
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
