//! Property tests for the delta-log reader over adversarial bytes.
//!
//! The reader's contract: a log damaged *anywhere after the header* —
//! truncated mid-record, bit-flipped, or with a forged length field —
//! yields the longest valid record prefix with `torn_tail` set, while a
//! damaged header is a typed [`StoreError::Corrupt`]. Under no input may
//! it panic or over-allocate. These properties fuzz that contract with
//! randomly shaped logs and randomly placed damage; one fixture log is cut
//! at every offset and has every byte replaced, within [`budget`].

use hima_store::{read_log, LogContents, LogWriter, StepRecord, StoreError};
use hima_testkit::hostile::{byte_replacements, truncations, within, Xorshift};
use hima_testkit::scratch;
use proptest::prelude::*;
use std::path::PathBuf;

/// Deterministic step inputs; the value pattern includes negatives and
/// non-round floats so bit-exactness is meaningful.
fn input_row(seq: u64, width: usize) -> Vec<f32> {
    (0..width).map(|i| ((seq * 31 + i as u64 * 7) as f32) * 0.37 - 3.0).collect()
}

/// Writes a well-formed log of `steps` records of `width` f32s each and
/// returns its bytes.
fn build_log(path: &PathBuf, key: &[u8], steps: u64, width: usize) -> Vec<u8> {
    let mut w = LogWriter::open(path, key).unwrap();
    for seq in 1..=steps {
        w.append(seq, &input_row(seq, width)).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    std::fs::read(path).unwrap()
}

const KEY: &[u8] = b"prop-spec-key";

#[global_allocator]
static A: hima_testkit::CountingAlloc = hima_testkit::CountingAlloc;

/// What one read of a `len`-byte log of 40-byte records may request: the
/// file, its rows again, a step table of 32 bytes a record requested at most
/// four times over as it doubles (< 3.2 × `len`), and 512 bytes of path.
fn budget(len: usize) -> u64 {
    6 * len as u64 + 512
}

#[test]
fn every_cut_and_replaced_byte_reads_the_whole_prefix_within_budget() {
    let (path, width) = (scratch("log-hostile"), 5);
    let bytes = build_log(&path, KEY, 6, width);
    let (header_len, record_len) = (8 + 4 + KEY.len(), 4 + 8 + 4 + width * 4 + 4);
    let read = |file: &[u8], case: &str| {
        std::fs::write(&path, file).unwrap();
        within(budget(file.len()), case, || read_log(&path))
    };
    // Exactly the first `n` records, torn iff `torn`.
    let prefix_of = |log: LogContents, n: usize, torn: bool, case: &str| {
        assert_eq!((log.steps.len(), log.torn_tail), (n, torn), "{case}");
        let want = (1..=n as u64).map(|seq| StepRecord { seq, input: input_row(seq, width) });
        assert!(log.steps.into_iter().eq(want), "{case}");
    };
    for prefix in truncations(&bytes) {
        let case = format!("prefix of {} bytes", prefix.len());
        match (read(prefix, &case), prefix.len().checked_sub(header_len)) {
            (Err(StoreError::Corrupt { .. }), None) => {}
            (Ok(log), Some(n)) => prefix_of(log, n / record_len, n % record_len != 0, &case),
            (other, _) => panic!("{case}: {other:?}"),
        }
    }
    for (at, value, damaged) in byte_replacements(&bytes, &mut Xorshift(0x5EED_3001), 1) {
        let case = format!("byte {at} = {value:#04x}");
        match (read(&damaged, &case), at.checked_sub(header_len)) {
            // A damaged header is refused, or names another key.
            (Err(StoreError::Corrupt { .. }), None) => {}
            (Ok(log), None) => assert_ne!(log.spec_key, KEY, "{case}"),
            (Ok(log), Some(n)) => prefix_of(log, n / record_len, true, &case),
            (other, _) => panic!("{case}: {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Truncation at any byte offset: offsets inside the header are
    // `Corrupt`; offsets at or past the header recover exactly the
    // records that fit wholly in the prefix, flagging the tear iff one
    // record is cut.
    #[test]
    fn truncation_recovers_the_longest_whole_prefix(
        steps in 1u64..6,
        width in 1usize..9,
        frac in 0.0f64..1.0,
    ) {
        let path = scratch("log-trunc");
        let bytes = build_log(&path, KEY, steps, width);
        let header_len = 8 + 4 + KEY.len();
        let record_len = 4 + 8 + 4 + width * 4 + 4;
        let cut = (frac * bytes.len() as f64) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let got = read_log(&path);
        if cut < header_len {
            prop_assert!(
                matches!(got, Err(StoreError::Corrupt { .. })),
                "cut {cut} inside the header: {got:?}"
            );
        } else {
            let log = got.unwrap();
            let whole = (cut - header_len) / record_len;
            prop_assert_eq!(log.steps.len(), whole, "cut at {cut}");
            prop_assert_eq!(log.torn_tail, !(cut - header_len).is_multiple_of(record_len));
            for (i, step) in log.steps.iter().enumerate() {
                let seq = i as u64 + 1;
                prop_assert_eq!(step.seq, seq);
                prop_assert_eq!(&step.input, &input_row(seq, width));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    // A single flipped bit anywhere past the header never panics and
    // never corrupts a *prefix* silently: every record the reader does
    // return is bit-identical to what was written.
    #[test]
    fn bit_flips_never_yield_wrong_records(
        steps in 1u64..6,
        width in 1usize..9,
        frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let path = scratch("log-flip");
        let mut bytes = build_log(&path, KEY, steps, width);
        let header_len = 8 + 4 + KEY.len();
        let span = bytes.len() - header_len;
        let pos = header_len + ((frac * span as f64) as usize).min(span - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // Any outcome shape is allowed (the flip may hit a length field,
        // a CRC, a payload byte, or cancel out into a still-valid
        // frame); what is pinned is that returned records are exact.
        if let Ok(log) = read_log(&path) {
            prop_assert!(log.steps.len() <= steps as usize);
            for step in &log.steps {
                prop_assert_eq!(&step.input, &input_row(step.seq, width), "seq {}", step.seq);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    // A forged length field — any value, including ones whose `n * 4`
    // wraps a 32-bit usize and ones far past the allocation cap — stops
    // the reader at the forgery with the prior records intact. The
    // reader must bound-check before allocating, so this also pins
    // "never allocate `len` bytes up front".
    #[test]
    fn forged_length_fields_stop_cleanly_at_the_forgery(
        steps in 1u64..5,
        width in 1usize..9,
        forged in prop::sample::select(vec![
            0u32, 1, 11, 64 << 20, (64 << 20) + 1, 1 << 30, u32::MAX / 4, u32::MAX,
        ]),
    ) {
        let path = scratch("log-forge");
        let bytes = build_log(&path, KEY, steps, width);
        let mut forged_bytes = bytes;
        forged_bytes.extend_from_slice(&forged.to_le_bytes());
        // A few payload bytes after the forged length, fewer than it
        // claims, so an unguarded reader would read out of bounds.
        forged_bytes.extend_from_slice(&[0xAB; 16]);
        std::fs::write(&path, &forged_bytes).unwrap();

        let log = read_log(&path).unwrap();
        prop_assert_eq!(log.steps.len(), steps as usize);
        prop_assert!(log.torn_tail, "forged length {forged} not flagged as a torn tail");
        for (i, step) in log.steps.iter().enumerate() {
            prop_assert_eq!(&step.input, &input_row(i as u64 + 1, width));
        }
        std::fs::remove_file(&path).ok();
    }

    // Appending garbage of any shape after a valid log keeps the valid
    // records readable — recovery is monotone in the intact prefix.
    #[test]
    fn garbage_tails_keep_the_valid_prefix(
        steps in 1u64..5,
        width in 1usize..9,
        garbage in prop::collection::vec(0u32..256, 1..40),
    ) {
        let path = scratch("log-tail");
        let mut bytes = build_log(&path, KEY, steps, width);
        bytes.extend(garbage.iter().map(|&b| b as u8));
        std::fs::write(&path, &bytes).unwrap();

        if let Ok(log) = read_log(&path) {
            // The garbage may parse as a frame only if its CRC happens
            // to validate — astronomically unlikely at 48 cases; every
            // genuine record must survive regardless.
            prop_assert!(log.steps.len() >= steps as usize);
            for (i, step) in log.steps.iter().take(steps as usize).enumerate() {
                prop_assert_eq!(&step.input, &input_row(i as u64 + 1, width));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
