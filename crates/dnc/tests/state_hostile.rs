//! [`LaneState::decode`] under hostile bytes: **typed error, never a
//! panic, allocation bounded by the payload's length** — the twin of
//! `serve/tests/wire_hostile.rs` and `store/tests/snapshot_corruption.rs`
//! for the one decoder that sits behind nothing but a snapshot's CRC.
//!
//! A small warmed lane on each datapath × topology (`N = 8, W = 3, R = 2`;
//! monolithic and `sharded(2)`; f32 and Q16.16) is
//!
//! * truncated at every byte offset — always a typed error,
//! * rewritten with every byte replaced, and
//! * given a forged shard count, or forged `memory_size` / `word_size` /
//!   `read_heads` fields (each alone, in pairs and all three; `u32::MAX`
//!   among the values) inside an otherwise well-framed payload,
//!
//! next to seeded random payloads, raw and behind a valid magic and
//! version. Every one of those is a typed [`StateCodecError`] or an `Ok`
//! that re-encodes to the very bytes it came from, and no decode requests
//! more than [`budget`] bytes, whatever a count or a geometry field
//! claims. The loops, the generator and the per-thread meter are
//! `hima_testkit::hostile`'s.

use hima_dnc::{DncParams, EngineBuilder, LaneState, StateCodecError};
use hima_tensor::{Matrix, QFormat};
use hima_testkit::hostile::{byte_replacements, forge_u32, truncations, u32_at, within};
use hima_testkit::hostile::{Xorshift, HOSTILE_U32};

#[global_allocator]
static A: hima_testkit::CountingAlloc = hima_testkit::CountingAlloc;

/// What one decode of a `len`-byte payload may request: the state
/// memories it holds (at most the payload once), the shard table, and a
/// constant.
fn budget(len: usize) -> u64 {
    2 * len as u64 + 512
}

const N: usize = 8;
const W: usize = 3;
const R: usize = 2;
const H: usize = 4;

/// One fixture: the encoding of a warmed lane and where its forgeable
/// fields sit.
struct Fixture {
    label: &'static str,
    bytes: Vec<u8>,
    /// Offset of the `u32` shard count.
    shard_count_at: usize,
    /// Offset of each shard's `memory_size` field (`word_size` and
    /// `read_heads` follow it).
    geometry_at: Vec<usize>,
}

fn fixtures() -> Vec<Fixture> {
    let params = DncParams::new(N, W, R).with_hidden(H).with_io(3, 3);
    let mut out = Vec::new();
    for (label, tiles, quantized) in [
        ("monolithic/f32", 1usize, false),
        ("monolithic/Q16.16", 1, true),
        ("sharded(2)/f32", 2, false),
        ("sharded(2)/Q16.16", 2, true),
    ] {
        let mut builder = EngineBuilder::new(params).seed(17);
        if tiles > 1 {
            builder = builder.sharded(tiles);
        }
        if quantized {
            builder = builder.quantized(QFormat::q16_16());
        }
        let mut engine = builder.build();
        for t in 0..3 {
            engine.step_batch(&Matrix::from_fn(1, 3, |_, i| ((t * 5 + i) as f32 * 0.37).sin()));
        }
        let bytes = engine.export_lane(0).encode();

        // Magic, version, the two counted LSTM vectors, then the count.
        let shard_count_at = 6 + 2 * (4 + 4 * H);
        let n = N / tiles;
        let mut at = shard_count_at + 4;
        let mut geometry_at = Vec::new();
        for _ in 0..tiles {
            at += if quantized { 9 } else { 1 };
            geometry_at.push(at);
            // Config, the six state memories, the counted shard read.
            at += 19 + 4 * (n * W + n + n * n + n + n + R * n) + 4 + 4 * R * W;
        }
        // The merged read row and the hidden row end the payload.
        assert_eq!(at + 4 + 4 * R * W + 4 + 4 * H, bytes.len(), "{label}: layout drifted");
        out.push(Fixture { label, bytes, shard_count_at, geometry_at });
    }
    out
}

/// Decodes within [`budget`]; an `Ok` must re-encode to its payload.
fn decode_metered(payload: &[u8], case: &str) -> Result<LaneState, StateCodecError> {
    let got = within(budget(payload.len()), case, || LaneState::decode(payload));
    if let Ok(state) = &got {
        assert_eq!(state.encode(), payload, "{case}: decoded, but not canonical");
    }
    got
}

#[test]
fn the_fixtures_decode_and_sit_where_the_forgeries_aim() {
    for f in fixtures() {
        decode_metered(&f.bytes, f.label).unwrap_or_else(|e| panic!("{}: {e}", f.label));
        assert_eq!(u32_at(&f.bytes, f.shard_count_at) as usize, f.geometry_at.len(), "{}", f.label);
        for &at in &f.geometry_at {
            let geometry = [u32_at(&f.bytes, at), u32_at(&f.bytes, at + 4), u32_at(&f.bytes, at + 8)];
            assert_eq!(geometry, [(N / f.geometry_at.len()) as u32, W as u32, R as u32], "{}", f.label);
        }
    }
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    for f in fixtures() {
        for prefix in truncations(&f.bytes) {
            let case = format!("{}: prefix of {} bytes", f.label, prefix.len());
            assert!(decode_metered(prefix, &case).is_err(), "{case} decoded");
        }
    }
}

#[test]
fn every_byte_replaced_is_a_typed_error_or_a_canonical_ok() {
    let mut rng = Xorshift(0x5EED_2001);
    for f in fixtures() {
        let (mut ok, mut refused) = (0u32, 0u32);
        for (at, value, damaged) in byte_replacements(&f.bytes, &mut rng, 1) {
            match decode_metered(&damaged, &format!("{}: byte {at} = {value:#04x}", f.label)) {
                Ok(_) => ok += 1,
                Err(_) => refused += 1,
            }
        }
        // Most bytes are f32 payload (any bit pattern is a value); the
        // rest — magic, version, counts, tags, geometry — must refuse.
        assert!(ok > 1000 && refused > 150, "{}: {ok} decoded, {refused} refused", f.label);
    }
}

/// The payloads of the defect this suite was written for: 62 bytes whose
/// one shard claims a geometry the payload cannot hold. The decoder used
/// to build a whole memory unit from the claim — 68.6 MB for 4 096 rows,
/// an abort for 10⁶ — before checking it.
#[test]
fn a_forged_geometry_is_refused_before_a_byte_is_requested() {
    for rows in [4096u32, 1_000_000, u32::MAX] {
        let mut payload = Vec::new();
        payload.extend_from_slice(b"HLSS");
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.extend_from_slice(&[0; 8]); // empty LSTM hidden and cell vectors
        payload.extend_from_slice(&1u32.to_le_bytes()); // one shard
        payload.push(0); // f32 datapath
        for dim in [rows, 64, 4] {
            payload.extend_from_slice(&dim.to_le_bytes());
        }
        payload.extend_from_slice(&[0; 7]); // sorter tag, skim, approx softmax, backend
        payload.extend_from_slice(&[0; 24]);
        assert_eq!(payload.len(), 62);

        let got = within(0, format_args!("{rows} rows, before refusing"), || {
            LaneState::decode(&payload)
        });
        assert_eq!(got.err(), Some(StateCodecError::BadLength(u64::from(rows) * 64)), "{rows} rows");
    }
}

#[test]
fn seeded_hostile_payloads_are_a_typed_error_or_a_canonical_ok() {
    let fixtures = fixtures();
    let mut rng = Xorshift(0x5EED_2002);
    let (mut ok, mut bad_length, mut other) = (0u32, 0u32, 0u32);
    for case in 0..4800u32 {
        let f = &fixtures[(case / 4) as usize % fixtures.len()];
        let payload = match case % 4 {
            // Raw, and behind a valid magic and version: half the bytes
            // zero, so little-endian counts are often plausibly small.
            shape @ (0 | 1) => {
                let len = rng.below(160) as usize;
                let mut p: Vec<u8> = if shape == 1 { b"HLSS\x01\x00".to_vec() } else { Vec::new() };
                p.extend((0..len).map(|_| match rng.below(2) {
                    0 => 0,
                    _ => rng.below(12) as u8,
                }));
                p
            }
            // A valid header, then a shard count the payload cannot back
            // (or can, by one too few).
            2 => {
                let honest = u32_at(&f.bytes, f.shard_count_at);
                let forged = match rng.below(3) {
                    0 => honest.wrapping_add(rng.pick(&[1, 2, u32::MAX])),
                    1 => rng.below(64) as u32,
                    _ => rng.pick(&HOSTILE_U32),
                };
                forge_u32(&f.bytes, f.shard_count_at, forged)
            }
            // Well-framed, with one, two or all three geometry fields of
            // one shard forged.
            _ => {
                let mut p = f.bytes.clone();
                let shard_at = rng.pick(&f.geometry_at);
                let fields = 1 + rng.below(7); // a non-empty subset of {N, W, R}
                for field in 0..3 {
                    if fields >> field & 1 == 1 {
                        let at = shard_at + 4 * field;
                        let forged = match rng.below(3) {
                            0 => u32_at(&p, at).wrapping_add(rng.pick(&[1, u32::MAX])),
                            _ => rng.pick(&HOSTILE_U32),
                        };
                        p = forge_u32(&p, at, forged);
                    }
                }
                p
            }
        };
        match decode_metered(&payload, &format!("case {case} ({})", f.label)) {
            Ok(_) => ok += 1,
            Err(StateCodecError::BadLength(_)) => bad_length += 1,
            Err(_) => other += 1,
        }
    }
    // Not vacuous: the bounds checks answered often, so did the other
    // typed errors, and a forgery that lands on the honest value decodes.
    assert!(bad_length > 800, "only {bad_length} payloads reached a bounds check");
    assert!(other > 800, "only {other} payloads were refused by another check");
    assert!(ok > 0, "no forgery landed on an honest value");
}
