//! The usage sort in registers: HiMA's local-global two-stage sort (§4.3,
//! Fig. 7) over packed `u64` keys, as the memory unit's free list runs it.
//! `hima_sort::{BitonicNetwork, TwoStageSorter}` are the cycle models of
//! the same dataflow; this module is its executable form.
//!
//! **Stage 1** ([`sort_chunks`]) packs every slot's key,
//! `ordered_bits(u) << 32 | slot` — the word `SortEngine::argsort_into`
//! sorts, whose unsigned order is `total_cmp` on the usage, ties by slot —
//! and sorts each [`CHUNK`] of 128 keys in place. On `Avx512` a bitonic
//! network sorts the chunk in registers, sixteen `__m512i` of eight keys;
//! the keys are packed in registers as the usages load and stored once,
//! sorted. A chunk of at most 64 keys (the last one, or the only one) runs
//! on eight vectors; missing lanes are padded with `u64::MAX`, which sorts
//! after every key and is never stored. The eight-lane tiers have no
//! 64-bit `min`/`max`: the same network built from compares and blends on
//! `Avx`, or from plain arrays on `F32x8`, lost to a comparison sort of
//! the same keys at every size measured (at 128 keys, 0.73–0.79× and
//! 0.42–0.45× of `argsort_into` on an AVX-512 host), so there the packed
//! chunk is sorted with `sort_unstable`.
//!
//! **Stage 2** ([`ChunkMerge`]) merges the sorted chunks lazily: it yields
//! the keys in ascending order one at a time, so a reader that stops early
//! — the allocation product once its running product is exactly zero —
//! merges no further. A single chunk needs no merge: it is the order.
//!
//! # The network
//!
//! The network is the bitonic sorter in its all-ascending form: to merge
//! two sorted runs of `k/2` keys into one of `k`, key `i` is first
//! compare-exchanged with its mirror `i ^ (k − 1)`, then with `i ^ j` for
//! `j = k/4, …, 1`; the lower index keeps the smaller key. Index `i` lives
//! in vector `8·b + (i mod 8)` and lane `(i / 8) mod 8`, `b = i / 64` —
//! each block of eight vectors holds its 64 keys *transposed* — so the
//! three lowest index bits, which the most steps touch, pick a vector:
//! those steps pair whole vectors (a lane-wise `min` and `max`, no data
//! movement), and so does `i ^ 64`. Only `j = 8, 16, 32` pair lanes of
//! one vector (a fixed permute and a blended `min`/`max`), and a mirror
//! that reaches bit 3 or above permutes its partner's lanes. The keys are
//! loaded in any order (the network sorts whatever it is given), and one
//! 8 × 8 transpose per block, of permutes and blends, brings the sorted
//! keys back to `i` in lane `i mod 8` of vector `i / 8` before the store.
//! Keys are distinct — the slot in the low bits breaks every tie as
//! `argsort_into` breaks it — so there is one sorted order, which the
//! network and the comparison sort both return: every tier leaves the
//! same keys in the same places.

use crate::simd::{usage_key, Keys, Kernel, Lanes, Tier, Token};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Keys a chunk holds: sixteen vectors of eight.
pub const CHUNK: usize = 128;

/// Stage 1 on the detected tier: packs the key of every slot of `usage`
/// into `keys` and sorts each [`CHUNK`] of them (and the shorter last one)
/// in place, ascending as unsigned integers.
///
/// # Panics
///
/// Panics if `keys` and `usage` differ in length, or `usage` holds more
/// than `u32::MAX` slots.
pub fn sort_chunks(usage: &[f32], keys: &mut [u64]) {
    sort_chunks_on(Tier::detected(), usage, keys);
}

/// [`sort_chunks`] on the given tier — the same keys in the same places
/// on every tier: the network's on `Avx512`, the comparison sort's on the
/// eight-lane tiers.
///
/// # Panics
///
/// As `sort_chunks`, and if this CPU does not run `tier`.
pub fn sort_chunks_on(tier: Tier, usage: &[f32], keys: &mut [u64]) {
    assert_eq!(keys.len(), usage.len(), "one key per slot");
    assert!(u32::try_from(usage.len()).is_ok(), "slot index must fit 32 bits");
    tier.run(SortChunks { usage, keys });
}

/// Stage 1's arguments, for [`Tier::run`].
struct SortChunks<'a> {
    usage: &'a [f32],
    keys: &'a mut [u64],
}

impl Kernel for SortChunks<'_> {
    type Output = ();
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) {
        let chunks = self.usage.chunks(CHUNK).zip(self.keys.chunks_mut(CHUNK));
        let chunks = (0u64..).step_by(CHUNK).zip(chunks);
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = V::keys(cpu) {
            for (slot, (usage, keys)) in chunks {
                if usage.len() > CHUNK / 2 {
                    sort_in::<_, 16>(cpu, usage, slot, keys);
                } else {
                    sort_in::<_, 8>(cpu, usage, slot, keys);
                }
            }
            return;
        }
        for (slot, (usage, keys)) in chunks {
            for ((key, &u), s) in keys.iter_mut().zip(usage).zip(slot..) {
                *key = usage_key(u, s);
            }
            keys.sort_unstable();
        }
    }
}

/// Packs the keys of `usage` (at most `8 · R`, at slots from `slot`) in
/// `R` vectors, padded with `u64::MAX`, runs the network and stores the
/// sorted keys to `keys`.
#[inline(always)]
fn sort_in<K: Keys, const R: usize>(cpu: Token<K>, usage: &[f32], slot: u64, keys: &mut [u64]) {
    let len = usage.len();
    let mut v = [K::load(cpu, &[u64::MAX; 8]); R];
    for (r, v) in v.iter_mut().enumerate() {
        let at = (8 * r).min(len);
        let usage = &usage[at..len.min(at + 8)];
        let slot = slot + at as u64;
        if usage.len() == 8 {
            *v = K::pack(cpu, usage, slot);
        } else if !usage.is_empty() {
            let mut tail = [u64::MAX; 8];
            for ((key, &u), s) in tail.iter_mut().zip(usage).zip(slot..) {
                *key = usage_key(u, s);
            }
            *v = K::load(cpu, &tail);
        }
    }
    network(&mut v);
    for (r, v) in v.iter().enumerate() {
        let at = (8 * r).min(len);
        let d = &mut keys[at..len.min(at + 8)];
        if d.len() == 8 {
            v.store(d);
        } else {
            v.store_first(d);
        }
    }
}

/// The bitonic network over `R` vectors, 8 or 16, in the transposed
/// layout of the [module docs](self): runs of 2, 4 and 8 keys (one vector
/// pair per step), of 16, 32 and 64 (the mirror reaching into the lanes),
/// of 128 on sixteen vectors; then the transpose back.
#[inline(always)]
fn network<K: Keys, const R: usize>(v: &mut [K; R]) {
    mirror::<K, R, 2, 0, 0>(v);
    mirror::<K, R, 4, 0, 0>(v);
    vectors_apart::<K, R, 1>(v);
    mirror::<K, R, 8, 0, 0>(v);
    vectors_apart::<K, R, 2>(v);
    vectors_apart::<K, R, 1>(v);
    mirror::<K, R, 8, 1, 1>(v);
    clean::<K, R, 0>(v);
    mirror::<K, R, 8, 3, 2>(v);
    clean::<K, R, 1>(v);
    mirror::<K, R, 8, 7, 4>(v);
    clean::<K, R, 2>(v);
    if R == 16 {
        mirror::<K, R, 16, 7, 0>(v);
        clean::<K, R, 3>(v);
    }
    transpose_stage::<K, R, 4>(v);
    transpose_stage::<K, R, 2>(v);
    transpose_stage::<K, R, 1>(v);
}

/// A mirror step: vector `a` of each group of `SPAN` against its mirror
/// `b`, lane `l` against `b`'s lane `l ^ X`. With `B` zero the mirrored
/// bit is a vector bit and `a` keeps the smaller key; otherwise it is lane
/// bit `B`, and in both vectors the lanes with that bit clear keep the
/// smaller.
#[inline(always)]
fn mirror<K: Keys, const R: usize, const SPAN: usize, const X: usize, const B: usize>(v: &mut [K; R]) {
    if SPAN > R {
        return;
    }
    for pair in 0..R / 2 {
        let base = SPAN * (pair / (SPAN / 2));
        let (a, b) = (base + pair % (SPAN / 2), base + SPAN - 1 - pair % (SPAN / 2));
        let (x, y) = (v[a], v[b]);
        (v[a], v[b]) = if X == 0 {
            (x.min(y), x.max(y))
        } else if B == 0 {
            let y = y.permute::<X>();
            (x.min(y), x.max(y).permute::<X>())
        } else {
            (x.min_max::<B>(y.permute::<X>()), y.min_max::<B>(x.permute::<X>()))
        };
    }
}

/// The strides after a mirror: `LANE_STEPS` of the lane strides 4, 2, 1
/// (the largest first), then the vector strides 4, 2, 1.
#[inline(always)]
fn clean<K: Keys, const R: usize, const LANE_STEPS: usize>(v: &mut [K; R]) {
    if LANE_STEPS >= 3 {
        lanes_apart::<K, R, 4>(v);
    }
    if LANE_STEPS >= 2 {
        lanes_apart::<K, R, 2>(v);
    }
    if LANE_STEPS >= 1 {
        lanes_apart::<K, R, 1>(v);
    }
    vectors_apart::<K, R, 4>(v);
    vectors_apart::<K, R, 2>(v);
    vectors_apart::<K, R, 1>(v);
}

/// One vector stride: vector `a` against `a + J` wherever bit `J` of `a`
/// is clear, `a` keeping the smaller key of each lane.
#[inline(always)]
fn vectors_apart<K: Keys, const R: usize, const J: usize>(v: &mut [K; R]) {
    for a in 0..R {
        if a & J == 0 {
            let b = a + J;
            (v[a], v[b]) = (v[a].min(v[b]), v[a].max(v[b]));
        }
    }
}

/// One lane stride in every vector: lane `l` against `l ^ J`, the lane
/// with bit `J` clear keeping the smaller key.
#[inline(always)]
fn lanes_apart<K: Keys, const R: usize, const J: usize>(v: &mut [K; R]) {
    for x in v.iter_mut() {
        *x = x.min_max::<J>(x.permute::<J>());
    }
}

/// One stage of the 8 × 8 transpose of each block: bit `D` of the vector
/// index and bit `D` of the lane index trade places.
#[inline(always)]
fn transpose_stage<K: Keys, const R: usize, const D: usize>(v: &mut [K; R]) {
    for a in 0..R {
        if a & D == 0 {
            let (x, y) = (v[a], v[a + D]);
            (v[a], v[a + D]) = (x.blend::<D>(y.permute::<D>()), x.permute::<D>().blend::<D>(y));
        }
    }
}

/// Stage 2: the keys of sorted chunks, merged in ascending order only as
/// far as they are read. The heap of chunk heads is kept between merges,
/// so once it has held as many chunks as a merge has, merging allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct ChunkMerge {
    /// `(key, position)` of every unexhausted chunk's smallest unread key.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ChunkMerge {
    /// The keys of `keys`, whose every [`CHUNK`] (and the shorter last
    /// one) is sorted ascending — as [`sort_chunks`] leaves them — in
    /// ascending order.
    pub fn merge<'a>(&'a mut self, keys: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        self.heads.clear();
        self.heads.extend((0..keys.len()).step_by(CHUNK).map(|at| Reverse((keys[at], at))));
        std::iter::from_fn(move || {
            let mut head = self.heads.peek_mut()?;
            let Reverse((key, at)) = *head;
            let next = at + 1;
            if next % CHUNK != 0 && next < keys.len() {
                *head = Reverse((keys[next], next));
            } else {
                PeekMut::pop(head);
            }
            Some(key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tiers;
    use hima_sort::{ordered_bits, CentralizedMergeSorter, SortEngine};

    /// Slot counts every check covers: empty, one, either side of a
    /// vector (8 keys), of half a chunk, of a chunk and of several.
    const SIZES: [usize; 16] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 1024];

    /// Usages no sort may get wrong: both zeros, NaNs of both signs and
    /// several payloads (the greatest and the least key among them), both
    /// infinities, subnormals, one and a value just past it.
    const HOSTILE: [f32; 16] = [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc0_0002),
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0x7fff_ffff),
        f32::from_bits(0xffff_ffff),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::MIN_POSITIVE,
        1.0,
        1.0 + f32::EPSILON,
    ];

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Usage vectors of `n` slots: uniform, hostile values mixed in,
    /// hostile only, all equal, and ties on a few levels.
    fn usages(n: usize) -> Vec<(&'static str, Vec<f32>)> {
        let mut next = xorshift(n as u64 + 1);
        let mut uniform = || (next() >> 40) as f32 / (1u64 << 24) as f32;
        let soft: Vec<f32> = (0..n).map(|_| uniform()).collect();
        let mut next = xorshift(n as u64 + 2);
        let mut pick = || HOSTILE[(next() >> 33) as usize % HOSTILE.len()];
        let mixed = soft.iter().enumerate().map(|(i, &u)| if i % 3 == 0 { pick() } else { u }).collect();
        let hostile = (0..n).map(|_| pick()).collect();
        let tied = (0..n).map(|i| [0.0, 0.25, 0.5, -0.0][(i * 7 + i / 5) % 4]).collect();
        vec![
            ("uniform", soft),
            ("mixed", mixed),
            ("hostile", hostile),
            ("all equal", vec![0.375; n]),
            ("tie-heavy", tied),
        ]
    }

    #[test]
    fn the_chunks_and_merge_are_the_argsort_on_every_tier() {
        tiers::report("keysort::the_chunks_and_merge_are_the_argsort_on_every_tier");
        let mut order = Vec::new();
        let mut merge = ChunkMerge::default();
        for n in SIZES {
            for (what, usage) in usages(n) {
                CentralizedMergeSorter.argsort_into(&usage, &mut order);
                let packed: Vec<u64> =
                    usage.iter().zip(0u64..).map(|(&u, s)| u64::from(ordered_bits(u)) << 32 | s).collect();
                for tier in Tier::available() {
                    let mut keys = vec![0; n];
                    sort_chunks_on(tier, &usage, &mut keys);
                    for (c, run) in keys.chunks(CHUNK).enumerate() {
                        let mut want = packed[c * CHUNK..][..run.len()].to_vec();
                        want.sort_unstable();
                        assert_eq!(run, want, "{what}, N = {n}, {tier}: chunk {c}");
                    }
                    let merged: Vec<usize> = merge.merge(&keys).map(|k| k as u32 as usize).collect();
                    assert_eq!(merged, order, "{what}, N = {n}, {tier}: the argsort's order");
                }
            }
        }
    }

    #[test]
    fn a_key_packs_as_the_argsort_packs_it() {
        let mut next = xorshift(5);
        let words = HOSTILE.iter().map(|u| u.to_bits()).chain((0..4096).map(|_| (next() >> 32) as u32));
        for bits in words {
            let u = f32::from_bits(bits);
            assert_eq!(usage_key(u, 9), u64::from(ordered_bits(u)) << 32 | 9, "{bits:#010x}");
        }
    }

    #[test]
    fn a_merge_reuses_its_heap() {
        let usage: Vec<f32> = (0..1024u32).map(|i| ((i * 7919) % 1024) as f32).collect();
        let mut keys = vec![0; 1024];
        sort_chunks(&usage, &mut keys);
        let mut merge = ChunkMerge::default();
        assert_eq!(merge.merge(&keys).count(), 1024);
        let room = merge.heads.capacity();
        let slots = merge.merge(&keys).take(3).map(|k| usage[k as u32 as usize]);
        assert!(slots.eq([0.0, 1.0, 2.0]));
        assert_eq!(merge.heads.capacity(), room, "a second merge allocates nothing");
    }
}
