//! The snapshot reader under hostile bytes: **typed error, never a panic,
//! allocation bounded by the file's length** — the twin of
//! `log_corruption.rs` for the other file of a session.
//!
//! A small well-formed snapshot is
//!
//! * truncated at every byte offset,
//! * rewritten with every byte replaced (both extremes, single-bit flips
//!   and a seeded random value), and
//! * given forged `key_len` / `state_len` fields **under a recomputed
//!   checksum**, so the length checks behind the CRC are what answers,
//!
//! and every one of those is a typed [`StoreError::Corrupt`]. Seeded random
//! files — raw, behind a valid magic, behind a valid magic *and* checksum
//! so the field parser is reached, and well-framed with skewed length
//! fields — are a typed error or an `Ok` that re-encodes to the very bytes
//! it came from. No single read requests
//! more than [`budget`] bytes from the allocator, whatever a length field
//! claims.
//!
//! Requested bytes are counted per thread by a counting global allocator
//! (the `zero_alloc` pattern), so the parallel test threads do not see
//! each other.
//!
//! A session keeps two such files, and [`SessionStore::load`] picks one by
//! a rule table; the last test crosses every state a slot can be in —
//! absent, retired, an older or a newer frame, every torn prefix, a
//! flipped bit — for both slots with every shape of log, a torn one
//! included, and holds each outcome to the table, to "a save cut short
//! changes nothing" and to "a step appended after a torn tail replays".

use hima_chaos::{FaultKind, FaultPlan, FaultRule, FaultSite};
use hima_store::snapshot::{
    read_snapshot, read_snapshot_key, write_snapshot, MAX_SECTION, RETIRED_MAGIC,
};
use hima_store::{crc32, SessionStore, StoreError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    pub struct CountingAlloc;

    thread_local! {
        // Const-initialized native TLS: the counting itself never allocates.
        static BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// Bytes requested by the calling thread so far.
    pub fn requested() -> u64 {
        BYTES.with(Cell::get)
    }

    fn count(bytes: usize) {
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: forwarded with the caller's layout.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: forwarded with the caller's layout.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
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

/// What one read of a `file_len`-byte file may request: the file once, its
/// key and state copied out of it, and a constant for the path a typed
/// error carries.
fn budget(file_len: usize) -> u64 {
    2 * file_len as u64 + 512
}

/// A unique scratch file per call (unique names keep the parallel test
/// threads, and concurrent test binaries, apart).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hima-snap-hostile-{}-{tag}-{n}.snap", std::process::id()))
}

const KEY: &[u8] = b"hostile-spec-key";
const STEP_SEQ: u64 = 0x0102_0304_0506_0708;

/// Offsets of the two length fields in a snapshot keyed by [`KEY`].
const KEY_LEN_AT: usize = 8;
const STATE_LEN_AT: usize = 8 + 4 + KEY.len() + 8;

fn state() -> Vec<u8> {
    (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect()
}

/// The bytes of a well-formed snapshot of [`KEY`], [`STEP_SEQ`], [`state`].
fn fixture(path: &PathBuf) -> Vec<u8> {
    write_snapshot(path, KEY, STEP_SEQ, &state()).unwrap();
    std::fs::read(path).unwrap()
}

/// Writes `bytes` at `path` and reads them back through both entry points
/// under the allocation meter; the two must agree on Ok-ness.
fn read_metered(path: &PathBuf, bytes: &[u8]) -> Result<(Vec<u8>, u64, Vec<u8>), StoreError> {
    std::fs::write(path, bytes).unwrap();
    let before = counting_alloc::requested();
    let full = read_snapshot(path);
    let spent = counting_alloc::requested() - before;
    assert!(
        spent <= budget(bytes.len()),
        "one read of a {}-byte file requested {spent} bytes",
        bytes.len()
    );
    let before = counting_alloc::requested();
    let key_only = read_snapshot_key(path);
    let spent = counting_alloc::requested() - before;
    assert!(
        spent <= budget(bytes.len()),
        "one key read of a {}-byte file requested {spent} bytes",
        bytes.len()
    );
    assert_eq!(full.is_ok(), key_only.is_ok(), "the two readers disagree");
    full.map(|(key, snap)| {
        assert_eq!(key_only.unwrap(), key);
        (key, snap.step_seq, snap.state)
    })
}

fn assert_corrupt(got: Result<(Vec<u8>, u64, Vec<u8>), StoreError>, case: &str) -> &'static str {
    match got {
        Err(StoreError::Corrupt { what, .. }) => what,
        other => panic!("{case}: expected a typed corruption error, got {other:?}"),
    }
}

/// xorshift64 — seeded, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn the_fixture_reads_back() {
    let path = scratch("fixture");
    let bytes = fixture(&path);
    assert_eq!(bytes.len(), 8 + 4 + KEY.len() + 8 + 4 + 40 + 4);
    assert_eq!(u32::from_le_bytes(bytes[KEY_LEN_AT..KEY_LEN_AT + 4].try_into().unwrap()), 16);
    assert_eq!(u32::from_le_bytes(bytes[STATE_LEN_AT..STATE_LEN_AT + 4].try_into().unwrap()), 40);
    let (key, step_seq, got) = read_metered(&path, &bytes).unwrap();
    assert_eq!((key.as_slice(), step_seq, got), (KEY, STEP_SEQ, state()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_offset_is_typed_corruption() {
    let path = scratch("trunc");
    let bytes = fixture(&path);
    for cut in 0..bytes.len() {
        assert_corrupt(read_metered(&path, &bytes[..cut]), &format!("prefix of {cut} bytes"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_byte_replaced_is_typed_corruption() {
    let path = scratch("replace");
    let bytes = fixture(&path);
    let mut rng = Rng(0x5EED_0001);
    for at in 0..bytes.len() {
        let orig = bytes[at];
        for value in [0x00, 0xFF, orig ^ 0x01, orig ^ 0x80, rng.next() as u8] {
            if value == orig {
                continue;
            }
            let mut damaged = bytes.clone();
            damaged[at] = value;
            // One changed byte is a burst of at most 8 bits: CRC-32
            // detects every one, so nothing here may read `Ok`.
            assert_corrupt(read_metered(&path, &damaged), &format!("byte {at} = {value:#04x}"));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn forged_length_fields_under_a_valid_checksum_are_typed_corruption() {
    let path = scratch("forge");
    let bytes = fixture(&path);
    let mut reached = Vec::new();
    for (field_at, honest) in [(KEY_LEN_AT, 16u32), (STATE_LEN_AT, 40u32)] {
        for forged in [
            0,
            1,
            honest - 1,
            honest + 1,
            bytes.len() as u32,
            MAX_SECTION,
            MAX_SECTION + 1,
            1 << 30,
            u32::MAX / 4,
            u32::MAX,
        ] {
            let mut damaged = bytes.clone();
            damaged[field_at..field_at + 4].copy_from_slice(&forged.to_le_bytes());
            // Re-seal: the checksum passes, so the reader's own bounds
            // checks — not the CRC — have to reject the length, and must
            // do so before sizing anything by it.
            let body_end = damaged.len() - 4;
            let crc = crc32(&damaged[8..body_end]);
            damaged[body_end..].copy_from_slice(&crc.to_le_bytes());
            let case = format!("field @{field_at} = {forged}");
            let what = assert_corrupt(read_metered(&path, &damaged), &case);
            assert_ne!(what, "snapshot checksum mismatch", "the forgery was not re-sealed");
            reached.push(what);
        }
    }
    for check in ["snapshot key length out of bounds", "snapshot state length out of bounds"] {
        assert!(reached.contains(&check), "no forgery reached the {check:?} check");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn seeded_random_files_are_a_typed_error_or_a_canonical_ok() {
    let path = scratch("random");
    let rewritten = scratch("random-rewrite");
    let mut rng = Rng(0x5EED_0002);
    let (mut ok, mut past_checksum) = (0u32, 0u32);
    for case in 0..4000u32 {
        // Half the bytes zero, so little-endian length fields are often
        // small enough to be plausible.
        let len = (rng.next() % 96) as usize;
        let mut file: Vec<u8> = (0..len)
            .map(|_| if rng.next() & 1 == 0 { 0 } else { (rng.next() % 24) as u8 })
            .collect();
        if case % 4 == 3 {
            // A well-framed body whose two length fields are each honest,
            // off by one, or random.
            let (key_n, state_n) = ((rng.next() % 12) as u32, (rng.next() % 48) as u32);
            let mut skewed = |n: u32| match rng.next() % 4 {
                0 => n.wrapping_sub(1),
                1 => n + 1,
                2 => rng.next() as u32,
                _ => n,
            };
            let (key_len, state_len) = (skewed(key_n), skewed(state_n));
            file.clear();
            file.extend_from_slice(&key_len.to_le_bytes());
            file.extend((0..key_n).map(|i| i as u8 ^ 0xC3));
            file.extend_from_slice(&u64::from(case).to_le_bytes());
            file.extend_from_slice(&state_len.to_le_bytes());
            file.extend((0..state_n).map(|i| i as u8 ^ 0x3C));
        }
        if case % 4 >= 2 {
            let crc = crc32(&file);
            file.extend_from_slice(&crc.to_le_bytes());
        }
        if case % 4 >= 1 {
            file.splice(..0, *b"HIMASNP1").for_each(drop);
        }
        match read_metered(&path, &file) {
            Ok((key, step_seq, state)) => {
                ok += 1;
                write_snapshot(&rewritten, &key, step_seq, &state).unwrap();
                assert_eq!(std::fs::read(&rewritten).unwrap(), file, "case {case}: not canonical");
            }
            Err(StoreError::Corrupt { what, .. }) => {
                let before_fields = ["header", "magic", "shorter", "checksum"];
                past_checksum += !before_fields.iter().any(|w| what.contains(w)) as u32;
            }
            Err(other) => panic!("case {case}: {other:?} is not a corruption error"),
        }
    }
    // Not vacuous: some files parsed, and some were refused by the field
    // checks behind the checksum.
    assert!(ok > 25, "only {ok} files parsed");
    assert!(past_checksum > 500, "only {past_checksum} files reached the field parser");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&rewritten).ok();
}

/// One slot file's contents in the rule-table matrix.
#[derive(Debug, Clone, Copy)]
enum SlotCase {
    Absent,
    /// The older frame with its magic retired, as a save leaves it.
    Retired,
    Older,
    Newer,
    /// The first `n` bytes of the newer frame (`0`: an empty file).
    Prefix(usize),
    /// The newer frame with one bit flipped mid-body.
    Flipped,
}

/// How the rule table sees a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Absent,
    Retired,
    Valid(u64),
    Torn,
}

const OLDER: u64 = 5;
const NEWER: u64 = 9;

fn frame(seq: u64) -> Vec<u8> {
    let path = scratch("frame");
    write_snapshot(&path, b"k", seq, &[seq as u8; 6]).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

impl SlotCase {
    fn bytes(self, older: &[u8], newer: &[u8]) -> Option<Vec<u8>> {
        match self {
            SlotCase::Absent => None,
            SlotCase::Retired => Some([&RETIRED_MAGIC[..], &older[8..]].concat()),
            SlotCase::Older => Some(older.to_vec()),
            SlotCase::Newer => Some(newer.to_vec()),
            SlotCase::Prefix(n) => Some(newer[..n].to_vec()),
            SlotCase::Flipped => {
                let mut bytes = newer.to_vec();
                bytes[newer.len() / 2] ^= 0x04;
                Some(bytes)
            }
        }
    }

    fn class(self) -> Class {
        match self {
            SlotCase::Absent | SlotCase::Prefix(0) => Class::Absent,
            SlotCase::Retired => Class::Retired,
            SlotCase::Older => Class::Valid(OLDER),
            SlotCase::Newer => Class::Valid(NEWER),
            SlotCase::Prefix(_) | SlotCase::Flipped => Class::Torn,
        }
    }
}

/// `Err(())` is a typed corruption error; `Ok(None)` nothing to recover;
/// otherwise the snapshot's `step_seq` (if any) and the steps replayed.
type Outcome = Result<Option<(Option<u64>, Vec<u64>)>, ()>;

/// The rule table and the continuation check, restated.
fn expected(a: Class, b: Class, log: Option<&[u64]>) -> Outcome {
    let snap = match (a, b) {
        (Class::Valid(x), Class::Valid(y)) => Some(x.max(y)),
        (Class::Valid(x), _) | (_, Class::Valid(x)) => Some(x),
        (Class::Absent | Class::Torn, Class::Absent) | (Class::Absent, Class::Torn) => None,
        _ => return Err(()),
    };
    let Some(log) = log else { return Ok(snap.map(|s| (Some(s), Vec::new()))) };
    let applied = snap.unwrap_or(0);
    let replay: Vec<u64> = log.iter().copied().filter(|&s| s > applied).collect();
    if replay.first().is_some_and(|&s| s != applied + 1) {
        return Err(());
    }
    Ok(Some((snap, replay)))
}

fn outcome(store: &SessionStore, case: &str) -> Outcome {
    let got = match store.load(1) {
        Ok(None) => Ok(None),
        Ok(Some(rec)) => {
            if let Some(snap) = &rec.snapshot {
                assert_eq!(snap.state, [snap.step_seq as u8; 6], "{case}: state of another frame");
            }
            let replay = rec.replay_steps().map(|s| s.seq).collect();
            Ok(Some((rec.snapshot.map(|s| s.step_seq), replay)))
        }
        Err(StoreError::Corrupt { .. }) => Err(()),
        Err(e) => panic!("{case}: {e} is not a corruption error"),
    };
    // Routing applies the same table: a session routes iff it loads.
    match (store.spec_key(1), &got) {
        (Ok(Some(key)), Ok(Some(_))) => assert_eq!(key, b"k", "{case}"),
        (Ok(None), Ok(None)) | (Err(StoreError::Corrupt { .. }), Err(())) => {}
        (key, _) => panic!("{case}: spec_key {key:?} disagrees with load {got:?}"),
    }
    got
}

fn put(path: &Path, bytes: Option<Vec<u8>>) {
    match bytes {
        Some(bytes) => std::fs::write(path, bytes).unwrap(),
        None => std::fs::remove_file(path).or_else(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Ok(()),
            _ => Err(e),
        })
        .unwrap(),
    }
}

#[test]
fn the_slot_rule_table_holds_for_every_slot_pair_and_log() {
    let dir = scratch("matrix").with_extension("d");
    std::fs::create_dir_all(&dir).unwrap();
    let (older, newer) = (frame(OLDER), frame(NEWER));
    let mut slots = vec![
        SlotCase::Absent,
        SlotCase::Retired,
        SlotCase::Older,
        SlotCase::Newer,
        SlotCase::Flipped,
    ];
    slots.extend((0..newer.len()).map(SlotCase::Prefix));
    // Each log: its whole records, and whether a record torn mid-append
    // follows them.
    let logs: [(Option<Vec<u64>>, bool); 8] = [
        (None, false),
        (Some(vec![]), false),
        (Some((1..=5).collect()), false),   // stale for either snapshot
        (Some((1..=12).collect()), false),  // continues anything
        (Some((6..=12).collect()), false),  // continues the older or the newer
        (Some((10..=12).collect()), false), // continues the newer only
        (Some((11..=12).collect()), false), // continues nothing
        (Some((1..=5).collect()), true),    // stale, then a torn 6th
    ];
    let slot_paths = [dir.join("sess-1.snap"), dir.join("sess-1.snap1")];
    let log_path = dir.join("sess-1.log");
    let (mut ok, mut corrupt) = (0u32, 0u32);
    for &a in &slots {
        for &b in &slots {
            for (log, torn_tail) in &logs {
                let case = format!("slots ({a:?}, {b:?}), log {log:?}, torn tail {torn_tail}");
                put(&slot_paths[0], a.bytes(&older, &newer));
                put(&slot_paths[1], b.bytes(&older, &newer));
                put(&log_path, None);
                if let Some(seqs) = log {
                    let mut w = hima_store::LogWriter::open(&log_path, b"k").unwrap();
                    for &seq in seqs {
                        w.append(seq, &[seq as f32]).unwrap();
                    }
                    if *torn_tail {
                        let whole = std::fs::metadata(&log_path).unwrap().len();
                        w.append(6, &[6.0]).unwrap();
                        drop(w);
                        let file = std::fs::OpenOptions::new().write(true).open(&log_path);
                        file.unwrap().set_len(whole + 10).unwrap();
                    }
                }
                let want = expected(a.class(), b.class(), log.as_deref());
                let got = outcome(&SessionStore::open(&dir).unwrap(), &case);
                assert_eq!(got, want, "{case}");
                if got.is_ok() { ok += 1 } else { corrupt += 1 }

                // A save cut short — by a fresh store, which has to find
                // the live slot itself — changes nothing a load sees: cut
                // inside the key (the bytes every frame of a session
                // shares) and past the step count.
                for keep in [5, 20] {
                    // Except from one state no crash produces: with both
                    // slots retired, the tear restores the magic over an
                    // intact older frame and un-retires it.
                    if keep == 5 && (a.class(), b.class()) == (Class::Retired, Class::Retired) {
                        continue;
                    }
                    let plan = FaultPlan::new(0).with_rule(FaultRule::at(
                        FaultSite::StoreWrite,
                        FaultKind::PartialWrite { keep },
                        vec![0],
                    ));
                    let torn = SessionStore::open_with(&dir, Some(Arc::new(plan))).unwrap();
                    assert!(torn.save_snapshot(1, b"k", 13, &[13; 6]).is_err(), "{case}");
                    assert_eq!(outcome(&torn, &case), want, "{case}: after a save torn at {keep}");
                }

                // A writer reopened on a torn log cuts the tear first, so
                // the next step it appends replays.
                if let (true, Ok(Some((snap, replay)))) = (*torn_tail, &want) {
                    let next = replay.last().copied().or(*snap).unwrap_or(0) + 1;
                    let store = SessionStore::open(&dir).unwrap();
                    let mut w = store.log_writer(1, b"k").unwrap();
                    w.append(next, &[next as f32]).unwrap();
                    drop(w);
                    assert!(!store.load(1).unwrap().unwrap().torn_tail, "{case}");
                    let replay = [&replay[..], &[next]].concat();
                    let want = Ok(Some((*snap, replay)));
                    assert_eq!(outcome(&store, &case), want, "{case}: after a reopen");
                }

                // A save that completes recovers to itself, whatever was there.
                let store = SessionStore::open(&dir).unwrap();
                store.save_snapshot(1, b"k", 13, &[13; 6]).unwrap();
                assert_eq!(outcome(&store, &case), Ok(Some((Some(13), Vec::new()))), "{case}");
            }
        }
    }
    // Not vacuous: both answers are common.
    assert!(ok > 1000 && corrupt > 1000, "{ok} loads, {corrupt} corruption errors");
    std::fs::remove_dir_all(&dir).ok();
}
