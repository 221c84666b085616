//! The snapshot reader under hostile bytes: **typed error, never a panic,
//! allocation bounded by the file's length** — the twin of
//! `log_corruption.rs` for the other file of a session.
//!
//! A small well-formed snapshot truncated at every byte offset, with every
//! byte replaced, or with forged `key_len` / `state_len` fields **under a
//! recomputed checksum** (so the length checks behind the CRC are what
//! answers) is a typed [`StoreError::Corrupt`]. Seeded random
//! files — raw, behind a valid magic, behind a valid magic *and* checksum
//! so the field parser is reached, and well-framed with skewed length
//! fields — are a typed error or an `Ok` that re-encodes to the very bytes
//! it came from. No single read requests more than [`budget`] bytes from
//! the allocator, whatever a length field claims. The loops, the generator
//! and the per-thread meter are `hima_testkit::hostile`'s.
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
use hima_testkit::hostile::{byte_replacements, forge_u32, truncations, u32_at, within};
use hima_testkit::hostile::{Xorshift, HOSTILE_U32};
use hima_testkit::scratch;
use std::path::Path;
use std::sync::Arc;

#[global_allocator]
static A: hima_testkit::CountingAlloc = hima_testkit::CountingAlloc;

/// What one read of a `file_len`-byte file may request: the file once, its
/// key and state copied out of it, and a constant for the path a typed
/// error carries.
fn budget(file_len: usize) -> u64 {
    2 * file_len as u64 + 512
}

const KEY: &[u8] = b"hostile-spec-key";
const STEP_SEQ: u64 = 0x0102_0304_0506_0708;

/// Offsets of the two length fields in a snapshot keyed by [`KEY`].
const KEY_LEN_AT: usize = 8;
const STATE_LEN_AT: usize = 8 + 4 + KEY.len() + 8;

fn state() -> Vec<u8> {
    (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect()
}

/// The bytes `write_snapshot` writes; the fixture is
/// `frame(KEY, STEP_SEQ, &state())`.
fn frame(key: &[u8], step_seq: u64, state: &[u8]) -> Vec<u8> {
    let path = scratch("snap-frame");
    write_snapshot(&path, key, step_seq, state).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Writes `bytes` to a fresh file and reads it back through both entry
/// points under the allocation meter; the two must agree on Ok-ness.
fn read_metered(bytes: &[u8]) -> Result<(Vec<u8>, u64, Vec<u8>), StoreError> {
    let path = scratch("snap-read");
    std::fs::write(&path, bytes).unwrap();
    let case = format!("a read of {} bytes", bytes.len());
    let full = within(budget(bytes.len()), &case, || read_snapshot(&path));
    let key_only = within(budget(bytes.len()), &case, || read_snapshot_key(&path));
    std::fs::remove_file(&path).ok();
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

#[test]
fn the_fixture_reads_back() {
    let bytes = frame(KEY, STEP_SEQ, &state());
    assert_eq!(bytes.len(), 8 + 4 + KEY.len() + 8 + 4 + 40 + 4);
    assert_eq!((u32_at(&bytes, KEY_LEN_AT), u32_at(&bytes, STATE_LEN_AT)), (16, 40));
    let (key, step_seq, got) = read_metered(&bytes).unwrap();
    assert_eq!((key.as_slice(), step_seq, got), (KEY, STEP_SEQ, state()));
}

#[test]
fn truncation_at_every_offset_is_typed_corruption() {
    let bytes = frame(KEY, STEP_SEQ, &state());
    for prefix in truncations(&bytes) {
        let case = format!("prefix of {} bytes", prefix.len());
        assert_corrupt(read_metered(prefix), &case);
    }
}

#[test]
fn every_byte_replaced_is_typed_corruption() {
    let bytes = frame(KEY, STEP_SEQ, &state());
    // One changed byte is a burst of at most 8 bits: CRC-32 detects
    // every one, so nothing here may read `Ok`.
    for (at, value, damaged) in byte_replacements(&bytes, &mut Xorshift(0x5EED_0001), 1) {
        assert_corrupt(read_metered(&damaged), &format!("byte {at} = {value:#04x}"));
    }
}

#[test]
fn forged_length_fields_under_a_valid_checksum_are_typed_corruption() {
    let bytes = frame(KEY, STEP_SEQ, &state());
    let mut reached = Vec::new();
    for (field_at, honest) in [(KEY_LEN_AT, 16u32), (STATE_LEN_AT, 40u32)] {
        let near = [honest - 1, honest + 1, bytes.len() as u32, MAX_SECTION, MAX_SECTION + 1];
        for forged in HOSTILE_U32.into_iter().chain(near) {
            let damaged = forge_u32(&bytes, field_at, forged);
            // Re-seal: the checksum passes, so the reader's own bounds
            // checks — not the CRC — have to reject the length, and must
            // do so before sizing anything by it.
            let body_end = damaged.len() - 4;
            let damaged = forge_u32(&damaged, body_end, crc32(&damaged[8..body_end]));
            let case = format!("field @{field_at} = {forged}");
            let what = assert_corrupt(read_metered(&damaged), &case);
            assert_ne!(what, "snapshot checksum mismatch", "the forgery was not re-sealed");
            reached.push(what);
        }
    }
    for check in ["snapshot key length out of bounds", "snapshot state length out of bounds"] {
        assert!(reached.contains(&check), "no forgery reached the {check:?} check");
    }
}

#[test]
fn seeded_random_files_are_a_typed_error_or_a_canonical_ok() {
    let mut rng = Xorshift(0x5EED_0002);
    let (mut ok, mut past_checksum) = (0u32, 0u32);
    for case in 0..4000u32 {
        // Half the bytes zero, so little-endian length fields are often
        // small enough to be plausible.
        let len = rng.below(96) as usize;
        let mut file: Vec<u8> =
            (0..len).map(|_| if rng.below(2) == 0 { 0 } else { rng.below(24) as u8 }).collect();
        if case % 4 == 3 {
            // A well-framed body whose two length fields are each honest,
            // off by one, or random.
            let (key_n, state_n) = (rng.below(12) as u32, rng.below(48) as u32);
            let mut skewed = |n: u32| match rng.below(4) {
                0 => n.wrapping_sub(1),
                1 => n + 1,
                2 => rng.next_u64() as u32,
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
            file.extend(crc32(&file).to_le_bytes());
        }
        if case % 4 >= 1 {
            file.splice(..0, *b"HIMASNP1").for_each(drop);
        }
        match read_metered(&file) {
            Ok((key, step_seq, state)) => {
                ok += 1;
                assert_eq!(frame(&key, step_seq, &state), file, "case {case}: not canonical");
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
        None if path.exists() => std::fs::remove_file(path).unwrap(),
        None => {}
    }
}

#[test]
fn the_slot_rule_table_holds_for_every_slot_pair_and_log() {
    let dir = scratch("snap-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let [older, newer] = [OLDER, NEWER].map(|seq| frame(b"k", seq, &[seq as u8; 6]));
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
