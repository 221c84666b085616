//! The hostile-bytes harness of the four decoder suites (wire, lane
//! state, snapshot, delta log): a seeded generator, truncations, byte
//! replacements, forged `u32` fields and one allocation-bounded call.
//! Each suite keeps only its own contract for an `Ok` or an `Err`.

use crate::metered;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// xorshift64, started at its (non-zero) seed: seeded, no dependency.
pub struct Xorshift(pub u64);

impl Xorshift {
    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// The next value modulo `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One element of `from`, drawn uniformly.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Values for a forged `u32` count, length or geometry: small ones a payload
/// can almost back, the formats' caps (64 MiB frame and record, 256 MiB
/// section) and one past, and ones whose byte size wraps a 32-bit `usize`.
pub const HOSTILE_U32: [u32; 18] = [
    0, 1, 2, 3, 7, 9, 11, 64, 4096, 1_000_000, 64 << 20, (64 << 20) + 1, 256 << 20,
    (256 << 20) + 1, 1 << 30, u32::MAX / 4, u32::MAX - 1, u32::MAX,
];

/// Every strict prefix of `bytes`, shortest first.
pub fn truncations(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..bytes.len()).map(|cut| &bytes[..cut])
}

/// Every offset of `bytes` replaced by each of `0x00 0x01 0x7f 0x80 0xff`,
/// the original with its low or its high bit flipped, and `random` values
/// drawn from `rng`, skipping the original: `(offset, value, damaged copy)`.
pub fn byte_replacements<'a>(
    bytes: &'a [u8],
    rng: &'a mut Xorshift,
    random: usize,
) -> impl Iterator<Item = (usize, u8, Vec<u8>)> + 'a {
    (0..bytes.len()).flat_map(move |at| {
        let orig = bytes[at];
        let mut values = vec![0x00, 0x01, 0x7f, 0x80, 0xff, orig ^ 0x01, orig ^ 0x80];
        values.extend((0..random).map(|_| rng.next_u64() as u8));
        values.retain(|&v| v != orig);
        values.into_iter().map(move |value| {
            let mut damaged = bytes.to_vec();
            damaged[at] = value;
            (at, value, damaged)
        })
    })
}

/// The little-endian `u32` at `at`.
pub fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// A copy of `bytes` with the little-endian `u32` at `at` set to `value`.
pub fn forge_u32(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut forged = bytes.to_vec();
    forged[at..at + 4].copy_from_slice(&value.to_le_bytes());
    forged
}

/// Runs `f` under the allocation meter and fails the calling test,
/// naming `case`, if `f` panics or requests more than `budget` bytes on
/// this thread. Returns what `f` returned.
pub fn within<T>(budget: u64, case: impl Display, f: impl FnOnce() -> T) -> T {
    let Ok((out, spent)) = catch_unwind(AssertUnwindSafe(|| metered(f))) else {
        panic!("{case}: panicked");
    };
    assert!(spent.bytes <= budget, "{case}: requested {} bytes, budget {budget}", spent.bytes);
    out
}
