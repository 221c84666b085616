//! Std-only session persistence for the HiMA serve stack: versioned
//! snapshots plus a CRC-guarded append-only delta log, combined into
//! snapshot + replay recovery.
//!
//! The serve scheduler parks cold sessions off the engine grid; this
//! crate lets it go one step further and spill them to disk, then
//! recover them — across a process restart or a kill — bit-for-bit.
//! Durability comes from two complementary kinds of file per session:
//!
//! * a **snapshot** ([`snapshot`]): the complete serialized engine lane
//!   state at a known step count, CRC-verified on read, kept in two
//!   alternating **slot** files (`sess-<id>.snap`, `sess-<id>.snap1`)
//!   that are overwritten in place, and
//! * a **delta log** ([`log`]): an append-only record of every step
//!   input since, each record CRC-guarded and self-delimiting, with a
//!   reader that is total over torn tails.
//!
//! [`SessionStore`] ties them together under one directory and makes
//! compaction crash-safe. A save overwrites the slot that does not hold
//! the newest snapshot, so a save cut short leaves the other slot intact;
//! recovery picks a slot by one rule table (on [`SessionStore`]) and
//! replays only records with `seq > snapshot.step_seq`, so a log that
//! survives a crashed compaction replays to nothing.
//!
//! # What is durable
//!
//! * A snapshot is `sync_all`ed before the other slot is retired and
//!   before the log is truncated to its header; a save that returns
//!   `Ok` is on stable storage.
//! * A slot's directory entry is written once, when its file is created
//!   (both slots exist after a session's first save), and is never
//!   synced. From a slot's second frame on, a save rewrites blocks the
//!   file already has.
//! * WAL appends are not synced. An acknowledged step since the last
//!   snapshot survives process death (its bytes are in the page cache)
//!   but not power loss.
//! * One case is not guarded: the retirement of the older slot is not
//!   synced either, so after power loss both slots can verify. If the
//!   newer one then rots before the session takes another step, the
//!   older one loads with an empty log behind it — an older state, with
//!   nothing to show that steps are missing. With a step logged since,
//!   the log's first record does not continue the older snapshot and
//!   the load is a typed [`StoreError::Corrupt`].
//!
//! Whether the snapshot sync should stay at all — process-crash
//! durability needs none of it, power-loss durability needs the WAL
//! synced too — is an open decision (ROADMAP item 4); until it is made,
//! every sync above stays.
//!
//! Both files are guarded by one checksum, [`crc32`] — zlib's CRC-32, so
//! the bytes on disk do not depend on how it was computed: a
//! carry-less-multiply fold on `x86_64` CPUs that report `pclmulqdq`
//! (for `update`s of 64 bytes or more), a slice-by-8 table walk
//! everywhere else and for every tail. A served-shape snapshot is 77 KB
//! of state checksummed on every eviction and every rehydration, so this
//! runs at the speed the bytes are copied; the bit-at-a-time definition
//! survives as the test oracle both bodies are held to ([`crc`] has the
//! dispatch rule and where the fold constants come from).
//!
//! The crate is deliberately ignorant of what the state bytes *mean* —
//! sessions are keyed by an opaque canonical spec key and store opaque
//! state payloads, so the dependency points from the serve stack to
//! here, never back.
//!
//! # Example
//!
//! ```
//! use hima_store::SessionStore;
//!
//! let dir = std::env::temp_dir().join(format!("hima-store-doc-{}", std::process::id()));
//! let store = SessionStore::open(&dir)?;
//!
//! // Log two steps, snapshot at step 2 (compacts the log), log one more.
//! let mut log = store.log_writer(1, b"spec-key")?;
//! log.append(1, &[0.5, -0.5])?;
//! log.append(2, &[1.0, 0.0])?;
//! drop(log);
//! store.save_snapshot(1, b"spec-key", 2, b"engine-state-bytes")?;
//! store.log_writer(1, b"spec-key")?.append(3, &[0.25, 0.75])?;
//!
//! // Recovery: decode the snapshot, then replay only step 3.
//! let rec = store.load(1)?.unwrap();
//! assert_eq!(rec.snapshot.as_ref().unwrap().step_seq, 2);
//! assert_eq!(rec.replay_steps().map(|s| s.seq).collect::<Vec<_>>(), vec![3]);
//! # store.remove(1)?;
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod crc;
pub mod log;
pub mod snapshot;
pub mod store;

pub use crc::{crc32, Crc32};
pub use log::{read_log, LogContents, LogWriter, StepRecord};
pub use snapshot::Snapshot;
pub use store::{SessionRecord, SessionStore, StoreError};
