//! CRC-32 (IEEE 802.3 polynomial, reflected) — the integrity check on
//! every snapshot body and delta-log record.
//!
//! Hand-rolled because the build is hermetic (no crates.io). The
//! parameters match zlib's `crc32()` (polynomial `0xEDB88320`, initial
//! value and final XOR `0xFFFF_FFFF`), so stored checksums stay
//! meaningful to external tooling — and the same bytes land on disk
//! whichever body below computed them.
//!
//! # Dispatch
//!
//! [`Crc32::update`] picks a body per call from what it can observe:
//!
//! * on `x86_64`, when the CPU reports `pclmulqdq` and at least
//!   64 bytes are offered, the first `len & !15` bytes go
//!   through a **carry-less-multiply fold**: four 128-bit accumulators
//!   take 64 bytes per iteration, fold 4 → 1, take the remaining 16-byte
//!   blocks one fold each, then reduce 128 → 64 → 32 bits and finish with
//!   a Barrett reduction;
//! * everywhere else, and for every tail, a **slice-by-8 table walk**:
//!   eight bytes per iteration through eight 256-entry tables (8 KiB,
//!   built at compile time), one byte at a time for the last `len % 8`.
//!
//! Both carry the raw register in and out, so split `update`s compose
//! whichever body each piece took. A 77 362-byte snapshot body reads
//! ≈ 3 µs folded and ≈ 45 µs sliced against ≈ 180 µs for the one-table,
//! one-byte-per-lookup loop this replaced (`kernels` bench, `crc32` rows).
//!
//! # Constants
//!
//! The fold constants are the published ones for this polynomial (Gopal,
//! Ozturk, Guilford et al., *Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ Instruction*, Intel 2009; the same values zlib's and
//! Linux's PCLMULQDQ bodies carry): `x^n mod P`, bit-reflected, for
//! `P = 0x1DB710641`.
//!
//! # The definition stays, as the oracle
//!
//! Nothing at run time computes the CRC one bit at a time any more, but
//! the tests keep that definition: it is the only form short enough to
//! check by eye against the polynomial, and both bodies are held to it on
//! every length, alignment and split point that can steer them down a
//! different path.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Fewest bytes the folded body takes: one 64-byte block to fill its four
/// accumulators.
const FOLD_MIN: usize = 64;

/// Slice-by-8 tables. `TABLES[0][b]` is the register after the single
/// byte `b`; `TABLES[k][b]` is that register after `k` further zero bytes,
/// which is what lets eight input bytes be looked up independently and
/// XORed together.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The CRC-32 of `bytes` (one-shot).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// [`crc32`] through the table walk alone, whatever the CPU offers — the
/// `kernels` bench times it beside the dispatched body. Not an API.
#[doc(hidden)]
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    update_tables(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 over multiple slices.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
            let (blocks, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: the CPU reports PCLMULQDQ (checked on the line
            // above); `blocks` is a whole number of 16-byte blocks, at
            // least four of them, which the fold itself asserts.
            self.state = unsafe { clmul::fold_pclmulqdq(self.state, blocks) };
            tail
        } else {
            bytes
        };
        self.state = update_tables(self.state, bytes);
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The slice-by-8 walk: raw register in, raw register out.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The PCLMULQDQ body: everything here is `x86_64`-only.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::FOLD_MIN;
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(512±32) mod P`, reflected: carries an accumulator 64 bytes forward.
    const FOLD_BY_512: (i64, i64) = (0x01_5444_2bd4, 0x01_c6e4_1596);
    /// `x^(128±32) mod P`, reflected: carries an accumulator 16 bytes forward;
    /// the second also takes 128 bits to 96.
    const FOLD_BY_128: (i64, i64) = (0x01_7519_97d0, 0x00_ccaa_009e);
    /// `x^64 mod P`, reflected: takes 96 bits to 64.
    const FOLD_64_TO_32: i64 = 0x01_63cd_6124;
    /// Barrett reduction: `P` itself and `μ = ⌊x^64 / P⌋`, both reflected.
    const BARRETT_P_MU: (i64, i64) = (0x01_db71_0641, 0x01_f701_1641);

    /// One fold: `acc` carried forward by the distance `k` encodes (low half by
    /// `k`'s low constant, high half by its high one), plus the bytes met there.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[inline(always)]
    unsafe fn fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        // SAFETY: the caller guarantees PCLMULQDQ; the rest is baseline SSE2.
        unsafe {
            let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
            let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        }
    }

    /// The 16 bytes at `bytes[at..at + 16]`, unaligned.
    #[inline]
    fn load(bytes: &[u8], at: usize) -> __m128i {
        let block: &[u8] = &bytes[at..at + 16];
        // SAFETY: SSE2 is part of the x86_64 baseline ABI, and the unaligned
        // load reads exactly the 16 bytes `block` borrows.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// The carry-less-multiply fold over `bytes` — at least `FOLD_MIN` of
    /// them, a multiple of 16: raw register in, raw register out.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold_pclmulqdq(state: u32, bytes: &[u8]) -> u32 {
        assert!(
            bytes.len() >= FOLD_MIN && bytes.len().is_multiple_of(16),
            "the fold takes whole 16-byte blocks, four or more"
        );
        let (wide, narrow) = bytes.split_at(bytes.len() & !63);
        // SAFETY: the caller guarantees PCLMULQDQ; every other intrinsic here
        // is baseline SSE2 and works on registers alone.
        unsafe {
            // Four accumulators over the first 64 bytes, the incoming register
            // XORed into their first four bytes, then 64 bytes per pass.
            let mut blocks = wide.chunks_exact(64);
            let first = blocks.next().expect("at least one 64-byte block");
            let mut x0 = _mm_xor_si128(load(first, 0), _mm_cvtsi32_si128(state as i32));
            let (mut x1, mut x2, mut x3) = (load(first, 16), load(first, 32), load(first, 48));
            let k = _mm_set_epi64x(FOLD_BY_512.1, FOLD_BY_512.0);
            for b in blocks {
                x0 = fold(x0, k, load(b, 0));
                x1 = fold(x1, k, load(b, 16));
                x2 = fold(x2, k, load(b, 32));
                x3 = fold(x3, k, load(b, 48));
            }
            // 4 → 1, then whatever 16-byte blocks are left.
            let k = _mm_set_epi64x(FOLD_BY_128.1, FOLD_BY_128.0);
            let mut x = fold(fold(fold(x0, k, x1), k, x2), k, x3);
            for b in narrow.chunks_exact(16) {
                x = fold(x, k, load(b, 0));
            }
            // 128 → 96 → 64 bits.
            let low32 = _mm_setr_epi32(!0, 0, !0, 0);
            let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k));
            let k = _mm_set_epi64x(0, FOLD_64_TO_32);
            let x = _mm_xor_si128(
                _mm_srli_si128::<4>(x),
                _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k),
            );
            // Barrett: 64 → 32 bits, left in the second dword.
            let p_mu = _mm_set_epi64x(BARRETT_P_MU.1, BARRETT_P_MU.0);
            let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
            let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), p_mu);
            _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t))) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 as defined: one bit at a time, raw register in and out.
    fn definition(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc
    }

    /// Seeded bytes with no period a 16- or 64-byte block could hide in.
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn matches_known_vectors() {
        // Standard CRC-32 check values (same parameters as zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// zlib's answers on inputs long enough to reach the fold, its block
    /// edges (63 / 64 / 65 / 80) and a snapshot body's length: the pin on
    /// "same bytes on disk" that does not rest on this file's own oracle.
    #[test]
    fn matches_zlib_on_fold_sized_inputs() {
        let ramp: Vec<u8> = (0..=255).collect();
        let snapshot_sized: Vec<u8> =
            (0..77_362usize).map(|i| ((31 * i + 7) % 256) as u8).collect();
        let cases: [(&[u8], u32); 6] = [
            (&ramp, 0x2905_8C73),
            (&[b'a'; 63], 0x6824_C5DE),
            (&[b'a'; 64], 0x89B4_6555),
            (&[b'a'; 65], 0xF33F_AF5D),
            (&[b'a'; 80], 0x1A99_8D7D),
            (&snapshot_sized, 0x54C5_63DE),
        ];
        for (bytes, want) in cases {
            assert_eq!(crc32(bytes), want, "dispatched, {} bytes", bytes.len());
            assert_eq!(crc32_portable(bytes), want, "portable, {} bytes", bytes.len());
        }
    }

    /// Both bodies against the definition on every length that can change
    /// the path taken (no fold, one wide block, wide + narrow blocks, every
    /// tail), at four alignments, and split in two at the points that put a
    /// block edge on either side of the seam.
    #[test]
    fn both_bodies_equal_the_definition_at_every_length_offset_and_split() {
        let data = seeded_bytes(700 + 7, 19);
        for offset in [0usize, 1, 3, 7] {
            for len in 0..=700usize {
                let bytes = &data[offset..offset + len];
                let want = definition(0xFFFF_FFFF, bytes);
                let at = format!("len {len} @ {offset}");
                assert_eq!(update_tables(0xFFFF_FFFF, bytes), want, "portable, {at}");
                for split in [0usize, 1, 15, 16, 63, 64, 65, 100] {
                    let split = split.min(len);
                    let mut h = Crc32::new();
                    h.update(&bytes[..split]);
                    h.update(&bytes[split..]);
                    assert_eq!(h.state, want, "dispatched, {at}, split {split}");
                    let head = update_tables(0xFFFF_FFFF, &bytes[..split]);
                    let whole = update_tables(head, &bytes[split..]);
                    assert_eq!(whole, want, "portable, {at}, split {split}");
                }
            }
        }
    }

    #[test]
    fn both_bodies_equal_the_definition_on_64_kib() {
        let data = seeded_bytes(64 << 10, 23);
        let want = definition(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
        assert_eq!(crc32(&data), want);
        assert_eq!(crc32_portable(&data), want);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"snapshot + delta log";
        let mut h = Crc32::new();
        h.update(&data[..7]);
        h.update(&data[7..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
