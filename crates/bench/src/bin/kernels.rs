//! Kernel microbenchmark: per-call time of the engine's vector kernels
//! against the plain scalar loops they are pinned to, at the served
//! shape (N = 128, W = 16, H = 64: `e2e_bench`'s `offline_small_f32`
//! and `serve_*` workloads) and the paper's tile (N = 64, W = 64).
//!
//! There is one kernel tier, so every row pairs two forms that return
//! **identical bits** (asserted on the spot) — the only question a row
//! answers is which is faster, and by the repository's rule a variant
//! has to read ≥ 1.2× to be worth a second implementation of its
//! reference. Each row is a paired best-of measurement (reference and
//! variant interleaved over the same buffers). The one exception is the
//! transcendental rows below, whose reference is the host's libm: there
//! the two sides agree to a few ulp (asserted), not to the bit — which is
//! the reason the reference was replaced.
//!
//! `quantize_slice` has two rows over 4 096 elements: the `f32`-only
//! Q-format rounding body (`QFormat::quantize_slice_inplace`, on the
//! widest tier the CPU has) against the `round()` definition, per element, and
//! against the SSE2-via-`f64` body it replaced (a copy kept in this
//! file). `matmul_nt_masked_lanes` is the row kernel
//! (`Matrix::matmul_nt_masked_into`, one pass over the weights per active
//! lane) against the transposing row-dot kernel
//! (`fused::matmul_nt_into`, one pass per four active lanes) at 1, 2, 3, 4
//! and 8 active lanes of a `B = 8` grid. `matvec_row_dot` is a plain
//! mat-vec (`Matrix::matvec_into`) against the same kernel run as a
//! one-row product — what `Backend::matvec_into` forwards to — over the
//! `128 × 128` and `64 × 64` linkage.
//!
//! The memory unit's kernels run at one paper tile (`N = 64, W = 64`) and
//! the served shape (`N = 128, W = 16`): `linkage_update_branch_free` (the
//! reference's `if i == j` loop vs the branch-free row body);
//! `forward_heads` / `content_dots_heads` at `R = 1, 2, 4` read heads — `R`
//! one-head passes (`matvec_into` over `L`; `N` one-chain dots over `M`)
//! vs the one `fused::matmul_nt_into` product (eight rows of `L` or `M`
//! transposed in registers, one accumulator per head); `matvec_t_heads`
//! at the same head counts — `R` `matvec_t_into` passes vs one
//! `fused::matvec_t_heads_into`, over `L` (the backward weightings) and
//! over `M` (the memory read); and `row_norms_fused` at `R = 1` and `4`
//! keys — `row_norms_into` followed by the dots-only kernel vs the one
//! pass that returns both.
//!
//! `crc32` rows are the durable tier's checksum at a delta-log record body
//! (76 B: `seq | n | 16 × f32`) and a served-shape snapshot body (77 362 B;
//! `shape` carries the byte count): the bit-at-a-time definition against
//! the dispatched `hima::store::crc32` (a PCLMULQDQ fold where the CPU has
//! one) and against the portable slice-by-8 walk alone, then the
//! single-table byte loop that walk replaced (a copy kept in this file)
//! against it — the row the ≥ 1.2× rule reads for the portable body.
//!
//! `usage_sort` rows are the memory unit's free-list argsort at one paper
//! tile, the served shape and the paper's whole memory (`N = 64, 128,
//! 1024`), on random keys and on tie-heavy ones (half the slots blank at
//! `0.0`, the rest on seven levels — what a usage vector looks like):
//! the `total_cmp`-through-an-index comparator
//! (`hima::sort::argsort_by_comparator`, the replaced body) against
//! `SortEngine::argsort_into`, which sorts `ordered_bits(key) << 32 |
//! index` words as integers; then, on each tier the CPU runs,
//! `argsort_into` against the same words sorted in chunks of 128 by
//! `hima::tensor::keysort::sort_chunks_on` — the bitonic network on
//! `Avx512`, `sort_unstable` on the eight-lane tiers — and merged by
//! `keysort::ChunkMerge`.
//!
//! `allocation_prefix` rows are the usage sort and allocation product
//! together, over usage vectors a stepping engine's memory unit carried
//! (`shape` gives their count): at the served shape and the paper's whole
//! memory (`N = 128, 1024`) over the first steps of a blank state, and at
//! the served shape and one 64-slot tile of the paper's Q16.16 engine
//! from step 2 000 of one session on (`long-lived`: usage has settled
//! near ½ on every slot, so the product reads the whole free list). Each
//! shape pairs `FreeList::sort_on` + `FreeList::allocation_into` (sorted
//! chunks, merged only as far as the product reads), on each tier the CPU
//! runs, twice: against the definition, `argsort_into` then
//! `allocation_from_free_list_into` over the whole free list, and against
//! the free list it replaced, which selected the 32 smallest keys and
//! doubled that window while the product was not zero (a copy kept in
//! this file).
//!
//! `lstm_gates` (H = 64, 256), `softmax` (N = 64, 128, 1024) and
//! `sigmoid_slice` (W = 16, 64) rows are the pointwise passes of a step:
//! the per-element compositions of libm `expf`/`tanhf` that
//! `hima::tensor::transcend` replaced (copies kept in this file) against
//! `transcend::{lstm_gates, softmax_inplace, sigmoid_into}` — in-repo
//! arithmetic at lane width.
//!
//! `packed_weights` rows are the engine's shared-weight products — the
//! interface projection, LSTM gates and output projection at the paper's
//! and the served shapes (`shape` is `N×K`), at 1, 2, 3, 4, 8 and 32
//! active lanes: `fused::matmul_nt_into` over the row-major matrix
//! against `PackedWeights::matmul_masked_into` over the same weights
//! packed once.
//!
//! `width_*` rows (only where the CPU runs the `Avx512` tier; the run says
//! so when it skips them) pair each kernel's eight-lane body (`Avx`)
//! with its sixteen-lane one (`Avx512`), both called on their tier:
//! `width_packed_weights`, the paper's 471 × 270 interface projection at
//! 1, 2 and 4 lanes cycling through sixteen weight sets as a
//! paper-regime step does (so the weights stream from L3);
//! `width_quantize_slice` (4 096 elements); `width_linkage_update` at
//! N = 64 and 128; `width_memory_write` and `width_matvec_t_heads` (the
//! memory read, R = 4) at one paper tile; `width_row_dots`, the
//! transposing row-dot kernel (8 × 8 transposes against 16 × 16 ones) at
//! the forward shapes (`R × N` read weightings against the `N × N`
//! linkage: `R = 2, N = 128`, `R = 2, N = 120` — whose last eight rows
//! the sixteen-lane body takes as one eight-lane block — and `R = 4,
//! N = 64`) and the content shapes (`R` keys against `M`: `128 × 16` and
//! `64 × 64`). Each is the best of fifteen interleaved rounds per side.
//!
//! Flags:
//!
//! * `--json` — additionally write `BENCH_kernels.json`:
//!   `{ bench: "kernels", schema_version: 8, params: {memory_size,
//!   word_size, hidden_size, tier}, scalar_variants: [{kernel, shape, batch,
//!   active, reference, variant, reference_ns_per_call,
//!   variant_ns_per_call, speedup}] }`
//!   (`batch` is 0 for kernels without a batch axis; `active` counts
//!   live rows of the left factor — active lanes, or read heads; `shape`
//!   names the memory geometry of a read-phase row, the matrix of a
//!   `matvec_row_dot` row, the `N×K` of a `packed_weights` row, the
//!   length and key distribution of a `usage_sort` row or the width of a
//!   transcendental row and is empty otherwise),
//! * `--smoke` — short measurement windows for CI.

use hima::dnc::allocation::{allocation_from_free_list_into, FreeList, SkimRate};
use hima::dnc::linkage::TemporalLinkage;
use hima::dnc::{Datapath, DncParams, EngineBuilder, EngineSpec};
use hima::sort::{argsort_by_comparator, CentralizedMergeSorter, SortEngine};
use hima::tensor::simd::Tier;
use hima::tensor::{
    assert_close, fused, history, keysort, transcend, vector, Backend, LaneMask, Matrix,
    PackedWeights, QFormat,
};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const N: usize = 128;
const W: usize = 16;
const HIDDEN: usize = 64;
/// Controller input width: tokens (16) + R·W read vectors (32).
const X_WIDTH: usize = 16 + 2 * W;

/// One measured pairing of two bit-identical forms of a kernel.
struct VariantRow {
    kernel: &'static str,
    shape: String,
    batch: usize,
    active: usize,
    reference: &'static str,
    variant: &'static str,
    reference_ns: f64,
    variant_ns: f64,
}

/// Elements per `quantize_slice` call (one 64 × 64 linkage tile).
const QUANTIZE_ELEMS: usize = 4096;
/// Active-lane counts of the `matmul_nt_masked_lanes` rows, out of
/// [`LANE_GRID`] lanes.
const ACTIVE_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];
const LANE_GRID: usize = 8;
/// Side of the square linkage of the `matvec_row_dot` rows: the served
/// shape and one paper tile.
const MATVEC_SIDES: [usize; 2] = [128, 64];
/// `(N, W)` of the read-phase rows: one paper tile and the served shape.
const UNIT_SHAPES: [(usize, usize); 2] = [(64, 64), (128, 16)];
/// Read-head counts of the `forward_heads` / `content_dots_heads` rows.
const HEAD_COUNTS: [usize; 3] = [1, 2, 4];
/// `N × K` of the `packed_weights` rows: the paper regime's per-shard
/// interface projection and LSTM gates, then the served shapes' interface
/// projection, LSTM gates and output projection.
const PACKED_SHAPES: [(usize, usize); 5] = [(471, 270), (1024, 526), (93, 78), (256, 110), (14, 96)];
/// Active-lane counts of the `packed_weights` rows (every lane active).
const PACKED_LANES: [usize; 6] = [1, 2, 3, 4, 8, 32];

/// Key counts of the `usage_sort` rows: one paper tile, the served shape
/// and the paper's whole memory.
const SORT_SIZES: [usize; 3] = [64, 128, 1024];
/// Distinct key vectors one `usage_sort` call cycles through.
const SORT_SETS: usize = 16;
/// The variant of a chunked `usage_sort` row, per tier in
/// `Tier::available()` order.
const CHUNK_VARIANTS: [&str; 3] = [
    "keysort::sort_chunks_on(F32x8) + ChunkMerge (sort_unstable in 128-key chunks, merged)",
    "keysort::sort_chunks_on(Avx) + ChunkMerge (sort_unstable in 128-key chunks, merged)",
    "keysort::sort_chunks_on(Avx512) + ChunkMerge (bitonic network in 128-key chunks, merged)",
];
/// The variant of an `allocation_prefix` row, per tier in
/// `Tier::available()` order.
const FREE_LIST_VARIANTS: [&str; 3] = [
    "FreeList::sort_on(F32x8) + allocation_into (sorted chunks, merged as far as the product reads)",
    "FreeList::sort_on(Avx) + allocation_into (sorted chunks, merged as far as the product reads)",
    "FreeList::sort_on(Avx512) + allocation_into (sorted chunks, merged as far as the product reads)",
];

/// Slot counts of the blank-state `allocation_prefix` rows: the served
/// shape and the paper's whole memory.
const ALLOCATION_SIZES: [usize; 2] = [128, 1024];
/// Usage vectors an `allocation_prefix` row cycles through: one per step.
const ALLOCATION_STEPS: usize = 48;
/// Steps a long-lived `allocation_prefix` session runs before its usage
/// vectors are recorded.
const LONG_LIVED_FROM: usize = 2000;

/// Hidden widths of the `lstm_gates` rows: the served shape and the
/// paper's.
const GATE_WIDTHS: [usize; 2] = [64, 256];
/// Lengths of the `softmax` rows: one paper tile, the served shape and
/// the paper's whole memory.
const SOFTMAX_SIZES: [usize; 3] = [64, 128, 1024];
/// Lengths of the `sigmoid_slice` rows: the served and the paper's word.
const SIGMOID_SIZES: [usize; 2] = [16, 64];

/// Active-lane counts of the `width_packed_weights` rows.
const WIDTH_PACKED_LANES: [usize; 3] = [1, 2, 4];
/// Weight sets a `width_packed_weights` call cycles through, as a
/// paper-regime step cycles through its sixteen tiles' projections.
const WIDTH_PACKED_SETS: usize = 16;
/// Linkage sides of the `width_linkage_update` rows: one paper tile and
/// the served shape.
const WIDTH_LINKAGE_SIDES: [usize; 2] = [64, 128];
/// Interleaved rounds per side of a `width_*` row (one-shot numbers move
/// by about 20 % on a shared host; the best of many is the stable one).
const WIDTH_REPS: usize = 15;

/// The pointwise passes as they ran before `hima::tensor::transcend`: one
/// libm call per element. Kept here to say what the replacement bought;
/// the workspace's Clippy configuration forbids these calls everywhere
/// else.
#[allow(clippy::disallowed_methods)]
mod libm_replaced {
    pub fn sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let z = x.exp();
            z / (1.0 + z)
        }
    }

    pub fn sigmoid_into(src: &[f32], dst: &mut [f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = sigmoid(s);
        }
    }

    pub fn lstm_gates(pre: &[f32], cell: &mut [f32], hidden: &mut [f32]) {
        let h = cell.len();
        for (j, (o, c)) in hidden.iter_mut().zip(cell).enumerate() {
            let (i_g, f_g) = (sigmoid(pre[j]), sigmoid(pre[h + j]));
            let (g, o_g) = (pre[2 * h + j].tanh(), sigmoid(pre[3 * h + j]));
            *c = f_g * *c + i_g * g;
            *o = o_g * c.tanh();
        }
    }

    pub fn softmax_inplace(xs: &mut [f32]) {
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut total = 0.0f32;
        for x in xs.iter_mut() {
            *x = (*x - max).exp();
            total += *x;
        }
        for x in xs.iter_mut() {
            *x /= total;
        }
    }
}

/// Byte counts of the `crc32` rows: one delta-log record body and one
/// snapshot body of the served shape.
const CRC_SIZES: [usize; 2] = [76, 77_362];

/// CRC-32 as defined — the reflected IEEE polynomial, one bit at a time:
/// what `hima-store`'s tests keep as their oracle.
fn crc32_definition(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// The body `Crc32::update` ran before the slice-by-8 walk: one 256-entry
/// table computed at first use, one lookup per byte, each waiting on the
/// last. Kept here to say what the portable replacement bought.
fn crc32_single_table(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Q-format rounding as defined — `(x·2^frac).round().clamp()` through
/// libm `round`, one element at a time: what the slice kernel replaced
/// and what `hima-tensor`'s tests keep as their oracle.
fn quantize_round_definition(q: QFormat, xs: &mut [f32]) {
    let scale = (1u64 << q.frac_bits) as f64;
    let max_raw = ((1u64 << (q.total_bits() - 1)) - 1) as f64;
    let min_raw = -((1u64 << (q.total_bits() - 1)) as f64);
    for x in xs {
        let raw = (*x as f64 * scale).round().clamp(min_raw, max_raw) as i64;
        *x = raw as f32 / scale as f32;
    }
}

/// The rounding body `QFormat::quantize_slice_inplace` ran before the
/// `f32`-only one: clamp, add ±½, truncate in `f64`, four elements per pass
/// in baseline SSE2 (the tail in scalar code). Kept here, as the
/// definition above is, to say what the replacement bought.
#[cfg(target_arch = "x86_64")]
fn quantize_sse2_f64(q: QFormat, xs: &mut [f32]) {
    use core::arch::x86_64::{
        __m128d, __m128i, _mm_add_pd, _mm_and_pd, _mm_and_si128, _mm_castps_si128, _mm_cmpord_ps,
        _mm_cvtepi32_ps, _mm_cvtps_pd, _mm_cvttpd_epi32, _mm_loadu_ps, _mm_max_pd, _mm_min_pd,
        _mm_movehl_ps, _mm_mul_pd, _mm_mul_ps, _mm_or_pd, _mm_set1_pd, _mm_set1_ps, _mm_storeu_ps,
        _mm_unpacklo_epi64,
    };
    let edge = (1u64 << (q.total_bits() - 1)) as f64;
    let (scale, min_raw, max_raw) = ((1u64 << q.frac_bits) as f64, -edge, edge - 1.0);
    let inv_scale = (1.0 / scale) as f32;
    let mut quads = xs.chunks_exact_mut(4);
    // SAFETY: SSE2 is part of the x86_64 baseline ABI, and the one
    // unaligned load and one unaligned store per pass touch exactly the
    // four f32s of `quad`.
    unsafe {
        let (scale_pd, inv) = (_mm_set1_pd(scale), _mm_set1_ps(inv_scale));
        let (lo_edge, hi_edge) = (_mm_set1_pd(min_raw), _mm_set1_pd(max_raw));
        let (sign_bit, half) = (_mm_set1_pd(-0.0), _mm_set1_pd(0.5));
        let to_raw = |x: __m128d| -> __m128i {
            let v = _mm_min_pd(_mm_max_pd(_mm_mul_pd(x, scale_pd), lo_edge), hi_edge);
            _mm_cvttpd_epi32(_mm_add_pd(v, _mm_or_pd(_mm_and_pd(v, sign_bit), half)))
        };
        for quad in &mut quads {
            let x = _mm_loadu_ps(quad.as_ptr());
            let lo = to_raw(_mm_cvtps_pd(x));
            let hi = to_raw(_mm_cvtps_pd(_mm_movehl_ps(x, x)));
            let ordered = _mm_castps_si128(_mm_cmpord_ps(x, x));
            let raw = _mm_and_si128(_mm_unpacklo_epi64(lo, hi), ordered);
            _mm_storeu_ps(quad.as_mut_ptr(), _mm_mul_ps(_mm_cvtepi32_ps(raw), inv));
        }
    }
    for x in quads.into_remainder() {
        let v = (*x as f64 * scale).clamp(min_raw, max_raw);
        *x = ((v + 0.5f64.copysign(v)) as i32) as f32 * inv_scale;
    }
}

/// Nanoseconds per call of `f`, measured over a fixed wall-clock window.
fn ns_per_call(measure: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < measure {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Paired best-of: interleaved reps, each side keeping its best (lowest)
/// per-call time.
fn best_of_paired(
    reps: usize,
    measure: Duration,
    mut reference: impl FnMut(),
    mut variant: impl FnMut(),
) -> (f64, f64) {
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        best.0 = best.0.min(ns_per_call(measure, &mut reference));
        best.1 = best.1.min(ns_per_call(measure, &mut variant));
    }
    best
}

/// [`ALLOCATION_STEPS`] usage vectors of unit `(0, 0)` of `engine`, one a
/// step, recorded after `skip` steps of one session.
fn recorded_usage(mut engine: hima::dnc::BoxedEngine, skip: usize) -> Vec<Vec<f32>> {
    (0..skip + ALLOCATION_STEPS)
        .filter_map(|t| {
            let x: Vec<f32> = (0..16).map(|i| ((t * 16 + i) as f32 * 0.61).sin()).collect();
            engine.step(&x);
            (t >= skip).then(|| engine.unit(0, 0).usage().to_vec())
        })
        .collect()
}

/// The free list `FreeList` replaced, kept to say what the chunked sort bought:
/// select the 32 smallest packed keys, sort them, run the product, and
/// double the sorted window while the product is not exactly `+0.0` (or
/// some usage lies outside `[+0.0, 1.0]`), up to every slot.
mod window_replaced {
    use hima::sort::ordered_bits;

    #[derive(Default)]
    pub struct FreeList {
        keys: Vec<u64>,
        sorted: usize,
        in_unit: bool,
    }

    impl FreeList {
        pub fn sort_prefix(&mut self, usage: &[f32]) {
            self.keys.clear();
            self.keys.extend(usage.iter().zip(0u64..).map(|(&u, s)| u64::from(ordered_bits(u)) << 32 | s));
            self.in_unit = usage.iter().all(|u| u.to_bits() <= 1.0f32.to_bits());
            self.sorted = 0;
            self.sort_to(32.min(usage.len()));
        }

        fn sort_to(&mut self, end: usize) {
            let rest = &mut self.keys[self.sorted..];
            let len = end - self.sorted;
            if len == 0 {
                return;
            }
            if len < rest.len() {
                rest.select_nth_unstable(len - 1);
            }
            rest[..len].sort_unstable();
            self.sorted = end;
        }

        pub fn allocation_into(&mut self, w_a: &mut [f32]) {
            w_a.fill(0.0);
            let mut acc = 1.0f32;
            let mut done = 0;
            loop {
                for &key in &self.keys[done..self.sorted] {
                    let ordered = (key >> 32) as u32;
                    let u = f32::from_bits(ordered ^ (!(ordered as i32 >> 31) as u32 | 0x8000_0000));
                    w_a[key as u32 as usize] = (1.0 - u) * acc;
                    acc *= u;
                }
                if self.sorted == self.keys.len() || (self.in_unit && acc.to_bits() == 0) {
                    return;
                }
                done = self.sorted;
                self.sort_to((2 * done).min(self.keys.len()));
            }
        }
    }
}

/// The argsort through the chunked sort on `tier`: the keys packed and
/// sorted in chunks, merged, their indices written to `out`.
fn chunked_argsort(
    tier: Tier,
    keys: &[f32],
    words: &mut Vec<u64>,
    merge: &mut keysort::ChunkMerge,
    out: &mut Vec<usize>,
) {
    words.resize(keys.len(), 0);
    keysort::sort_chunks_on(tier, keys, words);
    out.clear();
    if words.len() <= keysort::CHUNK {
        out.extend(words.iter().map(|&w| w as u32 as usize));
    } else {
        out.extend(merge.merge(words).map(|w| w as u32 as usize));
    }
}

fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| (((i * 31 + j * 7 + salt) as f32) * 0.13).sin())
}

fn main() {
    let mut json = false;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            other => {
                eprintln!("error: unknown flag {other:?} (expected --json and/or --smoke)");
                std::process::exit(2);
            }
        }
    }
    let measure = if smoke { Duration::from_millis(20) } else { Duration::from_millis(200) };
    let reps = if smoke { 1 } else { 5 };

    hima_bench::header(&format!(
        "Kernel microbench — N={N} W={W} H={HIDDEN}, engine shapes, per-call ns{}",
        if smoke { " (smoke mode)" } else { "" }
    ));
    println!(
        "{:<27} {:>11} {:>6} {:>6} {:>14} {:>14} {:>9}",
        "kernel", "shape", "batch", "active", "reference ns", "variant ns", "speedup"
    );
    let mut variants: Vec<VariantRow> = Vec::new();
    let mut report_variant = |row: VariantRow| {
        println!(
            "{:<27} {:>11} {:>6} {:>6} {:>14.0} {:>14.0} {:>8}",
            row.kernel,
            row.shape,
            row.batch,
            row.active,
            row.reference_ns,
            row.variant_ns,
            hima_bench::times(row.reference_ns / row.variant_ns)
        );
        variants.push(row);
    };

    // Q16.16 rounding pass over one linkage tile. Fresh values per call:
    // rounding is idempotent, and a buffer of already-representable
    // values would be a different (easier) input.
    let q = QFormat::q16_16();
    let state: Vec<f32> =
        (0..QUANTIZE_ELEMS).map(|i| ((i * 7) as f32 * 0.013).sin() * 3.0).collect();
    let mut buf_r = state.clone();
    let mut buf_v = state.clone();
    let (r, v) = best_of_paired(
        reps,
        measure,
        || {
            buf_r.copy_from_slice(&state);
            quantize_round_definition(q, &mut buf_r);
        },
        || {
            buf_v.copy_from_slice(&state);
            q.quantize_slice_inplace(&mut buf_v);
        },
    );
    assert_eq!(buf_r, buf_v, "slice kernel must equal the round() definition");
    report_variant(VariantRow {
        kernel: "quantize_slice",
        shape: String::new(),
        batch: 0,
        active: 0,
        reference: "round() definition, per element",
        variant: "QFormat::quantize_slice_inplace (f32-only rule over Lanes)",
        reference_ns: r,
        variant_ns: v,
    });
    #[cfg(target_arch = "x86_64")]
    {
        let (r, v) = best_of_paired(
            reps,
            measure,
            || {
                buf_r.copy_from_slice(&state);
                quantize_sse2_f64(q, &mut buf_r);
            },
            || {
                buf_v.copy_from_slice(&state);
                q.quantize_slice_inplace(&mut buf_v);
            },
        );
        assert_eq!(buf_r, buf_v, "slice kernel must equal the body it replaced");
        report_variant(VariantRow {
            kernel: "quantize_slice",
            shape: String::new(),
            batch: 0,
            active: 0,
            reference: "SSE2 body through f64, four per pass (replaced)",
            variant: "QFormat::quantize_slice_inplace (f32-only rule over Lanes)",
            reference_ns: r,
            variant_ns: v,
        });
    }

    // The durable tier's checksum: both bodies against the definition,
    // then the portable body against the loop it replaced.
    type Crc = fn(&[u8]) -> u32;
    let dispatched = "hima::store::crc32 (dispatched: PCLMULQDQ fold where the CPU has it)";
    let portable = "hima::store::crc::crc32_portable (slice-by-8 table walk)";
    let pairings: [(&str, Crc, &str, Crc); 3] = [
        ("bit-at-a-time definition", crc32_definition, dispatched, hima::store::crc32),
        ("bit-at-a-time definition", crc32_definition, portable, hima::store::crc::crc32_portable),
        (
            "single-table byte loop (replaced)",
            crc32_single_table,
            portable,
            hima::store::crc::crc32_portable,
        ),
    ];
    for &len in &CRC_SIZES {
        let bytes: Vec<u8> = (0..len).map(|i| ((31 * i + 7) % 256) as u8).collect();
        for (reference, reference_fn, variant, variant_fn) in pairings {
            let (mut got_r, mut got_v) = (0u32, 0u32);
            let (r, v) = best_of_paired(
                reps,
                measure,
                || got_r = reference_fn(black_box(&bytes)),
                || got_v = variant_fn(black_box(&bytes)),
            );
            assert_eq!(got_r, got_v, "{variant} must equal the {reference} at {len} B");
            report_variant(VariantRow {
                kernel: "crc32",
                shape: format!("{len} B"),
                batch: 0,
                active: 0,
                reference,
                variant,
                reference_ns: r,
                variant_ns: v,
            });
        }
    }

    // The usage sort: the comparator body against the packed-key one, on
    // keys that are all distinct and on keys that are mostly ties. A call
    // sorts `SORT_SETS` different key vectors in turn and a row reports
    // the time per sort: one vector sorted over and over teaches the
    // branch predictor its comparison outcomes, which a step's fresh
    // usage vector never does.
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed >> 40
    };
    for &n in &SORT_SIZES {
        // The top 24 bits of an xorshift64 word: a uniform key in [0, 1).
        let random: Vec<Vec<f32>> = (0..SORT_SETS)
            .map(|_| (0..n).map(|_| next() as f32 / (1u64 << 24) as f32).collect())
            .collect();
        // Sixteen residues: eight are blank slots, eight are usage levels.
        let tied: Vec<Vec<f32>> = (0..SORT_SETS)
            .map(|_| (0..n).map(|_| next() % 16).map(|l| if l < 8 { l as f32 / 8.0 } else { 0.0 }).collect())
            .collect();
        for (sets, what) in [(&random, "random"), (&tied, "tied")] {
            let (mut out_r, mut out_v) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for keys in sets {
                argsort_by_comparator(keys, &mut out_r);
                CentralizedMergeSorter.argsort_into(keys, &mut out_v);
                assert_eq!(out_r, out_v, "packed-key argsort must equal the comparator's permutation");
            }
            let (r, v) = best_of_paired(
                reps,
                measure,
                || {
                    for keys in sets {
                        argsort_by_comparator(black_box(keys), &mut out_r);
                    }
                },
                || {
                    for keys in sets {
                        CentralizedMergeSorter.argsort_into(black_box(keys), &mut out_v);
                    }
                },
            );
            report_variant(VariantRow {
                kernel: "usage_sort",
                shape: format!("N={n} {what}"),
                batch: 0,
                active: 0,
                reference: "hima::sort::argsort_by_comparator (total_cmp through the index, replaced)",
                variant: "SortEngine::argsort_into (ordered_bits(key) << 32 | index, sorted as integers)",
                reference_ns: r / SORT_SETS as f64,
                variant_ns: v / SORT_SETS as f64,
            });
            // The same words sorted in chunks and merged, on every tier.
            let (mut words, mut merge) = (Vec::with_capacity(n), keysort::ChunkMerge::default());
            for (tier, variant) in Tier::available().zip(CHUNK_VARIANTS) {
                for keys in sets {
                    CentralizedMergeSorter.argsort_into(keys, &mut out_r);
                    chunked_argsort(tier, keys, &mut words, &mut merge, &mut out_v);
                    assert_eq!(out_r, out_v, "the chunked permutation must equal argsort_into's");
                }
                let (r, v) = best_of_paired(
                    reps,
                    measure,
                    || {
                        for keys in sets {
                            CentralizedMergeSorter.argsort_into(black_box(keys), &mut out_r);
                        }
                    },
                    || {
                        for keys in sets {
                            chunked_argsort(tier, black_box(keys), &mut words, &mut merge, &mut out_v);
                        }
                    },
                );
                report_variant(VariantRow {
                    kernel: "usage_sort",
                    shape: format!("N={n} {what}"),
                    batch: 0,
                    active: 0,
                    reference: "SortEngine::argsort_into (ordered_bits(key) << 32 | index, sorted as integers)",
                    variant,
                    reference_ns: r / SORT_SETS as f64,
                    variant_ns: v / SORT_SETS as f64,
                });
            }
        }
    }

    // The usage sort and allocation product together: the definition over
    // the whole argsort, and the window free list it replaced, each
    // against the free list sorted in chunks and merged only as far as the
    // product reads, on every tier — over blank-state usage and over a
    // long-lived session's.
    let served = |n| DncParams::new(n, W, 2).with_hidden(HIDDEN).with_io(16, 16);
    let paper = DncParams::new(1024, 64, 4).with_hidden(256).with_io(16, 16);
    let q16 = EngineSpec::sharded(16).with_datapath(Datapath::Quantized(QFormat::q16_16()));
    let mut trajectories: Vec<(String, Vec<Vec<f32>>)> = ALLOCATION_SIZES
        .iter()
        .map(|&n| {
            let engine = EngineBuilder::new(served(n)).seed(7).build();
            (format!("N={n} {ALLOCATION_STEPS} blank-state"), recorded_usage(engine, 0))
        })
        .collect();
    let engine = EngineBuilder::new(served(N)).seed(7).build();
    trajectories.push((format!("N={N} {ALLOCATION_STEPS} long-lived"), recorded_usage(engine, LONG_LIVED_FROM)));
    let engine = EngineBuilder::new(paper).with_spec(q16).seed(7).build();
    let tile = format!("N=64 tile {ALLOCATION_STEPS} long-lived");
    trajectories.push((tile, recorded_usage(engine, LONG_LIVED_FROM)));
    for (shape, sets) in &trajectories {
        let n = sets[0].len();
        let mut order = Vec::with_capacity(n);
        let mut free_list = FreeList::with_capacity(n);
        let mut window = window_replaced::FreeList::default();
        let (mut w_r, mut w_v) = (vec![0.0f32; n], vec![0.0f32; n]);
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (tier, variant) in Tier::available().zip(FREE_LIST_VARIANTS) {
            for usage in sets {
                CentralizedMergeSorter.argsort_into(usage, &mut order);
                allocation_from_free_list_into(usage, &order, SkimRate::NONE, &mut w_r);
                free_list.sort_on(tier, usage, SkimRate::NONE);
                free_list.allocation_into(&mut w_v);
                assert_eq!(bits(&w_r), bits(&w_v), "the free list's allocation must equal the definition");
                window.sort_prefix(usage);
                window.allocation_into(&mut w_r);
                assert_eq!(bits(&w_r), bits(&w_v), "the free list's allocation must equal the window's");
            }
            let mut free_list_on_tier = || {
                for usage in sets {
                    free_list.sort_on(tier, black_box(usage), SkimRate::NONE);
                    free_list.allocation_into(&mut w_v);
                }
            };
            let (r, v) = best_of_paired(
                reps,
                measure,
                || {
                    for usage in sets {
                        CentralizedMergeSorter.argsort_into(black_box(usage), &mut order);
                        allocation_from_free_list_into(usage, &order, SkimRate::NONE, &mut w_r);
                    }
                },
                &mut free_list_on_tier,
            );
            report_variant(VariantRow {
                kernel: "allocation_prefix",
                shape: shape.clone(),
                batch: 0,
                active: 0,
                reference: "argsort_into + allocation_from_free_list_into (the whole free list)",
                variant,
                reference_ns: r / sets.len() as f64,
                variant_ns: v / sets.len() as f64,
            });
            let (r, v) = best_of_paired(
                reps,
                measure,
                || {
                    for usage in sets {
                        window.sort_prefix(black_box(usage));
                        window.allocation_into(&mut w_r);
                    }
                },
                &mut free_list_on_tier,
            );
            report_variant(VariantRow {
                kernel: "allocation_prefix",
                shape: shape.clone(),
                batch: 0,
                active: 0,
                reference: "select-and-double window FreeList (replaced)",
                variant,
                reference_ns: r / sets.len() as f64,
                variant_ns: v / sets.len() as f64,
            });
        }
    }

    // The pointwise passes of a step: libm per element against the
    // in-repo definitions at lane width.
    let libm = "libm composition, per element (replaced)";
    for &h in &GATE_WIDTHS {
        let pre: Vec<f32> = (0..4 * h).map(|i| ((i * 7) as f32 * 0.13).sin() * 4.0).collect();
        let cell: Vec<f32> = (0..h).map(|i| ((i * 11) as f32 * 0.29).sin()).collect();
        let (mut c_r, mut c_v) = (cell.clone(), cell.clone());
        let (mut h_r, mut h_v) = (vec![0.0f32; h], vec![0.0f32; h]);
        let (r, v) = best_of_paired(
            reps,
            measure,
            || {
                c_r.copy_from_slice(&cell);
                libm_replaced::lstm_gates(black_box(&pre), &mut c_r, &mut h_r);
            },
            || {
                c_v.copy_from_slice(&cell);
                transcend::lstm_gates(black_box(&pre), &mut c_v, &mut h_v);
            },
        );
        assert_close(&c_r, &c_v, 1e-6);
        assert_close(&h_r, &h_v, 1e-6);
        report_variant(VariantRow {
            kernel: "lstm_gates",
            shape: format!("H={h}"),
            batch: 0,
            active: 0,
            reference: libm,
            variant: "transcend::lstm_gates (in-repo sigmoid/tanh over Lanes)",
            reference_ns: r,
            variant_ns: v,
        });
    }
    for &n in &SOFTMAX_SIZES {
        let logits: Vec<f32> = (0..n).map(|i| ((i * 13) as f32 * 0.21).sin() * 6.0).collect();
        let (mut buf_r, mut buf_v) = (logits.clone(), logits.clone());
        let (r, v) = best_of_paired(
            reps,
            measure,
            || {
                buf_r.copy_from_slice(&logits);
                libm_replaced::softmax_inplace(black_box(&mut buf_r));
            },
            || {
                buf_v.copy_from_slice(&logits);
                transcend::softmax_inplace(black_box(&mut buf_v));
            },
        );
        assert_close(&buf_r, &buf_v, 1e-6);
        report_variant(VariantRow {
            kernel: "softmax",
            shape: format!("N={n}"),
            batch: 0,
            active: 0,
            reference: "libm exp per element, in-order sum (replaced)",
            variant: "transcend::softmax_inplace (in-repo exp over Lanes, lane-wise partial sums)",
            reference_ns: r,
            variant_ns: v,
        });
    }
    for &w in &SIGMOID_SIZES {
        let raw: Vec<f32> = (0..w).map(|i| ((i * 5) as f32 * 0.37).sin() * 5.0).collect();
        let (mut out_r, mut out_v) = (vec![0.0f32; w], vec![0.0f32; w]);
        let (r, v) = best_of_paired(
            reps,
            measure,
            || libm_replaced::sigmoid_into(black_box(&raw), &mut out_r),
            || transcend::sigmoid_into(black_box(&raw), &mut out_v),
        );
        assert_close(&out_r, &out_v, 1e-6);
        report_variant(VariantRow {
            kernel: "sigmoid_slice",
            shape: format!("W={w}"),
            batch: 0,
            active: 0,
            reference: libm,
            variant: "transcend::sigmoid_into (in-repo sigmoid over Lanes)",
            reference_ns: r,
            variant_ns: v,
        });
    }

    // The LSTM gate projection, [X ; H] (B × 112) · weights (4H × 112)ᵀ:
    // the row kernel (`Matrix::matmul_nt_masked_into`) against the
    // transposing row-dot kernel at each active-lane count.
    let x = test_matrix(LANE_GRID, X_WIDTH + HIDDEN, 1);
    let w = test_matrix(4 * HIDDEN, X_WIDTH + HIDDEN, 2);
    let mut out_r = Matrix::zeros(LANE_GRID, 4 * HIDDEN);
    let mut out_v = Matrix::zeros(LANE_GRID, 4 * HIDDEN);
    for &active in &ACTIVE_COUNTS {
        // Spread the active lanes over the grid, as a ragged tick does.
        let mask = LaneMask::from_fn(LANE_GRID, |b| (b * active) % LANE_GRID < active);
        assert_eq!(mask.active_count(), active);
        let (r, v) = best_of_paired(
            reps,
            measure,
            || x.matmul_nt_masked_into(&w, &mask, &mut out_r),
            || fused::matmul_nt_into(&x, &w, Some(&mask), &mut out_v),
        );
        assert_eq!(out_r, out_v, "row-dot kernel must equal the row kernel");
        report_variant(VariantRow {
            kernel: "matmul_nt_masked_lanes",
            shape: String::new(),
            batch: LANE_GRID,
            active,
            reference: "row kernel (Matrix::matmul_nt_masked_into)",
            variant: "fused::matmul_nt_into (transposing row-dot kernel, 4 lanes per pass)",
            reference_ns: r,
            variant_ns: v,
        });
    }
    // A plain mat-vec over the square linkage against the same product as
    // one row of the row-dot kernel, through the entry point that forwards
    // to it (`Backend::matvec_into`: its two shape checks are in the time).
    for &n in &MATVEC_SIDES {
        let linkage = test_matrix(n, n, 3);
        let wv: Vec<f32> = (0..n).map(|i| ((i * 13) as f32 * 0.21).sin().abs() / n as f32).collect();
        let (mut out_r, mut out_v) = (vec![0.0f32; n], vec![0.0f32; n]);
        let (r, v) = best_of_paired(
            reps,
            measure,
            || linkage.matvec_into(&wv, &mut out_r),
            || Backend::Scalar.matvec_into(&linkage, &wv, &mut out_v),
        );
        assert_eq!(out_r, out_v, "one-row row-dot product must equal the mat-vec");
        report_variant(VariantRow {
            kernel: "matvec_row_dot",
            shape: format!("{n}x{n}"),
            batch: 0,
            active: 1,
            reference: "Matrix::matvec_into",
            variant: "Backend::matvec_into (one-row fused::row_dots_into)",
            reference_ns: r,
            variant_ns: v,
        });
    }
    // The engine's shared-weight products: the row-dot kernel over the
    // row-major matrix on every call against the product over the weights
    // packed once.
    for &(n, k) in &PACKED_SHAPES {
        let w = test_matrix(n, k, 2);
        let packed = PackedWeights::pack(&w);
        for &lanes in &PACKED_LANES {
            let x = test_matrix(lanes, k, 1);
            let mask = LaneMask::full(lanes);
            let mut out_r = Matrix::zeros(lanes, n);
            let mut out_v = Matrix::zeros(lanes, n);
            let (r, v) = best_of_paired(
                reps,
                measure,
                || fused::matmul_nt_into(&x, &w, Some(&mask), &mut out_r),
                || packed.matmul_masked_into(&x, &mask, &mut out_v),
            );
            assert_eq!(out_r, out_v, "packed product must equal the row-major one");
            report_variant(VariantRow {
                kernel: "packed_weights",
                shape: format!("{n}x{k}"),
                batch: lanes,
                active: lanes,
                reference: "fused::matmul_nt_into (row-major weights)",
                variant: "PackedWeights::matmul_masked_into (panels of 16 outputs, k-major)",
                reference_ns: r,
                variant_ns: v,
            });
        }
    }
    // The memory unit's kernels.
    for &(n, w) in &UNIT_SHAPES {
        let shape = format!("N={n} W={w}");
        let write: Vec<f32> = (0..n).map(|i| ((i * 13) as f32 * 0.21).sin().abs() / n as f32).collect();
        let mut warmed = TemporalLinkage::new(n);
        for _ in 0..4 {
            warmed.update(&write);
        }
        // One checked update each, then the timed ones (the linkage keeps
        // decaying under them, so the two sides' states drift apart).
        let (mut link_r, mut link_v) = (warmed.clone(), warmed.clone());
        link_r.update_linkage(&write);
        link_v.update_linkage_with(&write);
        assert_eq!(link_r, link_v, "branch-free update must equal the reference");
        let (r, v) = best_of_paired(
            reps,
            measure,
            || link_r.update_linkage(&write),
            || link_v.update_linkage_with(&write),
        );
        report_variant(VariantRow {
            kernel: "linkage_update_branch_free",
            shape: shape.clone(),
            batch: 0,
            active: 0,
            reference: "TemporalLinkage::update_linkage (if i == j per element)",
            variant: "TemporalLinkage::update_linkage_with (row, then zero the diagonal)",
            reference_ns: r,
            variant_ns: v,
        });

        let linkage = warmed.matrix();
        let memory = test_matrix(n, w, 4);
        for &heads in &HEAD_COUNTS {
            let reads =
                Matrix::from_fn(heads, n, |h, i| ((h * 29 + i * 13) as f32 * 0.21).sin().abs() / n as f32);
            let mut out_r = Matrix::zeros(heads, n);
            let mut out_v = Matrix::zeros(heads, n);
            let (r, v) = best_of_paired(
                reps,
                measure,
                || {
                    for h in 0..heads {
                        linkage.matvec_into(reads.row(h), out_r.row_mut(h));
                    }
                },
                || fused::matmul_nt_into(&reads, linkage, None, &mut out_v),
            );
            assert_eq!(out_r, out_v, "head-fused forward must equal the per-head mat-vecs");
            report_variant(VariantRow {
                kernel: "forward_heads",
                shape: shape.clone(),
                batch: 0,
                active: heads,
                reference: "Matrix::matvec_into over L, once per head",
                variant: "fused::matmul_nt_into(reads, L) (transposing row-dot kernel)",
                reference_ns: r,
                variant_ns: v,
            });

            let keys = test_matrix(heads, w, 5);
            let (r, v) = best_of_paired(
                reps,
                measure,
                || {
                    for h in 0..heads {
                        for (i, o) in out_r.row_mut(h).iter_mut().enumerate() {
                            *o = vector::dot(memory.row(i), keys.row(h));
                        }
                    }
                },
                || fused::matmul_nt_into(&keys, &memory, None, &mut out_v),
            );
            assert_eq!(out_r, out_v, "head-fused content dots must equal the per-pair dots");
            report_variant(VariantRow {
                kernel: "content_dots_heads",
                shape: shape.clone(),
                batch: 0,
                active: heads,
                reference: "vector::dot per (head, memory row)",
                variant: "fused::matmul_nt_into(keys, M) (transposing row-dot kernel)",
                reference_ns: r,
                variant_ns: v,
            });

            // The transposed products: backward weightings over L, then
            // the memory read over M, `R` passes vs one.
            for (m, what_r, what_v) in [
                (
                    linkage,
                    "Matrix::matvec_t_into over L, once per head (backward)",
                    "fused::matvec_t_heads_into(L, reads) (backward)",
                ),
                (
                    &memory,
                    "Matrix::matvec_t_into over M, once per head (memory read)",
                    "fused::matvec_t_heads_into(M, reads) (memory read)",
                ),
            ] {
                let mut out_r = vec![0.0f32; heads * m.cols()];
                let mut out_v = vec![0.0f32; heads * m.cols()];
                let (r, v) = best_of_paired(
                    reps,
                    measure,
                    || {
                        for (h, out) in out_r.chunks_exact_mut(m.cols()).enumerate() {
                            m.matvec_t_into(reads.row(h), out);
                        }
                    },
                    || fused::matvec_t_heads_into(m, &reads, &mut out_v),
                );
                assert_eq!(out_r, out_v, "head-fused transposed product must equal the per-head one");
                report_variant(VariantRow {
                    kernel: "matvec_t_heads",
                    shape: shape.clone(),
                    batch: 0,
                    active: heads,
                    reference: what_r,
                    variant: what_v,
                    reference_ns: r,
                    variant_ns: v,
                });
            }

            // Row norms riding along with the key dots (a quantized step
            // needs them twice, and can never cache them).
            if heads != 2 {
                let (mut norms_r, mut norms_v) = (vec![0.0f32; n], vec![0.0f32; n]);
                let (r, v) = best_of_paired(
                    reps,
                    measure,
                    || {
                        memory.row_norms_into(&mut norms_r);
                        fused::row_dots_into(keys.as_slice(), &memory, out_r.as_mut_slice(), None);
                    },
                    || {
                        let norms = Some(&mut norms_v[..]);
                        fused::row_dots_into(keys.as_slice(), &memory, out_v.as_mut_slice(), norms);
                    },
                );
                assert_eq!(norms_r, norms_v, "fused norms must equal the norm pass");
                assert_eq!(out_r, out_v, "dots must not change with the norms riding along");
                report_variant(VariantRow {
                    kernel: "row_norms_fused",
                    shape: shape.clone(),
                    batch: 0,
                    active: heads,
                    reference: "Matrix::row_norms_into, then fused::row_dots_into(keys, M) without norms",
                    variant: "fused::row_dots_into(keys, M) with norms, one pass",
                    reference_ns: r,
                    variant_ns: v,
                });
            }
        }
    }
    lane_width_rows(smoke, measure, &mut report_variant);
    println!(
        "\nPer-call wall time, best of {reps} interleaved reps per side. The\n\
         reference and the variant of every row return identical bits\n\
         (asserted on the spot) — the lstm_gates / softmax / sigmoid_slice\n\
         rows, whose reference is libm, to 1e-6; the rows only say which\n\
         form is faster."
    );

    if json {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"kernels\",\n  \"schema_version\": 8,\n");
        s.push_str(&format!(
            "  \"params\": {{\"memory_size\": {N}, \"word_size\": {W}, \"hidden_size\": {HIDDEN}, \
             \"tier\": \"{}\"}},\n",
            Tier::detected()
        ));
        s.push_str("  \"scalar_variants\": [\n");
        for (i, r) in variants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"batch\": {}, \"active\": {}, \"reference\": \"{}\", \"variant\": \"{}\", \"reference_ns_per_call\": {:.1}, \"variant_ns_per_call\": {:.1}, \"speedup\": {:.3}}}{}\n",
                r.kernel,
                r.shape,
                r.batch,
                r.active,
                r.reference,
                r.variant,
                r.reference_ns,
                r.variant_ns,
                r.reference_ns / r.variant_ns,
                if i + 1 < variants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        let path = "BENCH_kernels.json";
        match std::fs::write(path, &s) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `width_*` rows: each kernel that runs at sixteen lanes where the
/// CPU has AVX-512, its eight-lane body (`Avx`, or `F32x8` without AVX)
/// against its sixteen-lane one (`Avx512`), both called explicitly on
/// their tier — the same bits, asserted. Skipped, and said so, on a CPU
/// without AVX-512.
fn lane_width_rows(smoke: bool, measure: Duration, report: &mut impl FnMut(VariantRow)) {
    if !Tier::Avx512.is_available() {
        println!("width_* rows skipped: this CPU does not run the Avx512 tier");
        return;
    }
    let narrow = if Tier::Avx.is_available() { Tier::Avx } else { Tier::Portable };
    let wide = Tier::Avx512;
    let reps = if smoke { 1 } else { WIDTH_REPS };
    let (reference, variant) = if narrow == Tier::Avx {
        ("8-lane body (Avx)", "16-lane body (Avx512)")
    } else {
        ("8-lane body (F32x8)", "16-lane body (Avx512)")
    };
    let mut row = |kernel: &'static str, shape: String, active: usize, (r, v): (f64, f64)| {
        report(VariantRow {
            kernel,
            shape,
            batch: 0,
            active,
            reference,
            variant,
            reference_ns: r,
            variant_ns: v,
        });
    };

    // The paper regime's per-tile interface projection, sixteen weight
    // sets in turn (8.1 MB, so the stream comes from L3 as in the engine).
    let (n, k) = PACKED_SHAPES[0];
    let sets: Vec<PackedWeights> =
        (0..WIDTH_PACKED_SETS).map(|s| PackedWeights::pack(&test_matrix(n, k, 2 + s))).collect();
    for &lanes in &WIDTH_PACKED_LANES {
        let x = test_matrix(lanes, k, 1);
        let mask = LaneMask::full(lanes);
        let (mut out_r, mut out_v) = (Matrix::zeros(lanes, n), Matrix::zeros(lanes, n));
        for set in &sets {
            set.matmul_masked_on(narrow, &x, &mask, &mut out_r);
            set.matmul_masked_on(wide, &x, &mask, &mut out_v);
            assert_eq!(out_r, out_v, "the 16-lane packed product must equal the 8-lane one");
        }
        let (mut next_r, mut next_v) = (0, 0);
        let times = best_of_paired(
            reps,
            measure,
            || {
                sets[next_r].matmul_masked_on(narrow, &x, &mask, &mut out_r);
                next_r = (next_r + 1) % WIDTH_PACKED_SETS;
            },
            || {
                sets[next_v].matmul_masked_on(wide, &x, &mask, &mut out_v);
                next_v = (next_v + 1) % WIDTH_PACKED_SETS;
            },
        );
        row("width_packed_weights", format!("{n}x{k} x{WIDTH_PACKED_SETS} sets"), lanes, times);
    }

    // The Q16.16 rounding pass over one linkage tile, fresh values per call.
    let q = QFormat::q16_16();
    let state: Vec<f32> =
        (0..QUANTIZE_ELEMS).map(|i| ((i * 7) as f32 * 0.013).sin() * 3.0).collect();
    let (mut buf_r, mut buf_v) = (state.clone(), state.clone());
    let times = best_of_paired(
        reps,
        measure,
        || {
            buf_r.copy_from_slice(&state);
            q.quantize_slice_on(narrow, &mut buf_r);
        },
        || {
            buf_v.copy_from_slice(&state);
            q.quantize_slice_on(wide, &mut buf_v);
        },
    );
    assert_eq!(buf_r, buf_v, "the 16-lane rounding must equal the 8-lane one");
    row("width_quantize_slice", format!("{QUANTIZE_ELEMS} elements"), 0, times);

    // The linkage update, from a warmed state (one checked update each,
    // then the timed ones).
    for &n in &WIDTH_LINKAGE_SIDES {
        let write: Vec<f32> =
            (0..n).map(|i| ((i * 13) as f32 * 0.21).sin().abs() / n as f32).collect();
        let mut warmed = TemporalLinkage::new(n);
        for _ in 0..4 {
            warmed.update(&write);
        }
        let precedence = warmed.precedence().to_vec();
        let (mut link_r, mut link_v) = (warmed.matrix().clone(), warmed.matrix().clone());
        history::linkage_update_on(narrow, &mut link_r, &precedence, &write);
        history::linkage_update_on(wide, &mut link_v, &precedence, &write);
        assert_eq!(link_r, link_v, "the 16-lane linkage update must equal the 8-lane one");
        let times = best_of_paired(
            reps,
            measure,
            || history::linkage_update_on(narrow, &mut link_r, &precedence, &write),
            || history::linkage_update_on(wide, &mut link_v, &precedence, &write),
        );
        row("width_linkage_update", format!("N={n}"), 0, times);
    }

    // The erase/add memory write of one paper tile, every row written.
    let (n, w) = UNIT_SHAPES[0];
    let weights: Vec<f32> =
        (0..n).map(|i| ((i * 13) as f32 * 0.21).sin().abs() / n as f32).collect();
    let erase: Vec<f32> = (0..w).map(|j| ((j * 5) as f32 * 0.3).sin().abs()).collect();
    let write: Vec<f32> = (0..w).map(|j| ((j * 11) as f32 * 0.17).cos()).collect();
    let (mut mem_r, mut mem_v) = (test_matrix(n, w, 4), test_matrix(n, w, 4));
    history::erase_add_write_on(narrow, &mut mem_r, &weights, &erase, &write);
    history::erase_add_write_on(wide, &mut mem_v, &weights, &erase, &write);
    assert_eq!(mem_r, mem_v, "the 16-lane memory write must equal the 8-lane one");
    let times = best_of_paired(
        reps,
        measure,
        || {
            history::erase_add_write_on(narrow, &mut mem_r, &weights, &erase, &write);
        },
        || {
            history::erase_add_write_on(wide, &mut mem_v, &weights, &erase, &write);
        },
    );
    row("width_memory_write", format!("N={n} W={w}"), 0, times);

    // The memory read of one paper tile: every head in one pass over M.
    let heads = 4;
    let memory = test_matrix(n, w, 4);
    let reads =
        Matrix::from_fn(heads, n, |h, i| ((h * 29 + i * 13) as f32 * 0.21).sin().abs() / n as f32);
    let (mut out_r, mut out_v) = (vec![0.0f32; heads * w], vec![0.0f32; heads * w]);
    let times = best_of_paired(
        reps,
        measure,
        || fused::matvec_t_heads_on(narrow, &memory, &reads, &mut out_r),
        || fused::matvec_t_heads_on(wide, &memory, &reads, &mut out_v),
    );
    assert_eq!(out_r, out_v, "the 16-lane memory read must equal the 8-lane one");
    row("width_matvec_t_heads", format!("N={n} W={w}"), heads, times);

    // The transposing row-dot kernel: the forward product (read
    // weightings against the linkage) and the content dots (keys against
    // the memory) of the served shape and one paper tile, and a forward
    // product whose last eight rows take the sixteen-lane body's
    // eight-lane block (`N % 16 = 8`).
    for (what, rows, heads) in [
        ("forward", test_matrix(128, 128, 3), 2),
        ("forward", test_matrix(120, 120, 3), 2),
        ("forward", test_matrix(64, 64, 3), 4),
        ("content", test_matrix(128, 16, 4), 2),
        ("content", test_matrix(64, 64, 4), 4),
    ] {
        let (n, k) = rows.shape();
        let lhs = test_matrix(heads, k, 5);
        let (mut out_r, mut out_v) = (vec![0.0f32; heads * n], vec![0.0f32; heads * n]);
        let times = best_of_paired(
            reps,
            measure,
            || fused::row_dots_on(narrow, black_box(lhs.as_slice()), &rows, &mut out_r, None),
            || fused::row_dots_on(wide, black_box(lhs.as_slice()), &rows, &mut out_v, None),
        );
        assert_eq!(out_r, out_v, "the 16-lane row dots must equal the 8-lane ones");
        row("width_row_dots", format!("{what} N={n} K={k}"), heads, times);
    }
}
