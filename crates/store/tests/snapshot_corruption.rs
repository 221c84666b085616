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

use hima_store::snapshot::{read_snapshot, read_snapshot_key, write_snapshot, MAX_SECTION};
use hima_store::{crc32, StoreError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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
