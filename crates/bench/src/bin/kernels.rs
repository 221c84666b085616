//! Kernel-level backend microbenchmark: per-call time of each hot kernel
//! on the scalar reference tier vs the blocked + vectorized tier, at the
//! engine shapes the throughput bench runs (N = 128, W = 16, H = 64,
//! B ∈ {1, 8, 32}).
//!
//! Where the engine-level `throughput` bench answers "how much faster is
//! a blocked *engine*", this bench answers "which *kernel* moved": the
//! LSTM gate projection (`matmul_nt_masked_into` at `B × 112 · 256 ×
//! 112ᵀ`), the temporal-link mat-vec over the `N × N` linkage
//! (`matvec_into`) and the content-lookup row norms (`row_norms_into`
//! over `N × W`). Each row is a paired best-of measurement (scalar and
//! blocked interleaved over the same buffers), so a regression in one
//! tier is visible against the other. `matvec_t_into` and
//! `softmax_inplace` have no row: both tiers run the one scalar kernel
//! (their blocked bodies read 0.96× and 1.08× here and were deleted).
//!
//! A second table holds the **bit-exact variants inside the scalar
//! tier** — pairs that return identical bits, so the only question is
//! which is faster. `quantize_slice` has two rows over 4 096 elements:
//! the `f32`-only Q-format rounding body (`QFormat::quantize_slice_inplace`,
//! AVX where the CPU has it) against the `round()` definition, per
//! element, and against the SSE2-via-`f64` body it replaced (a copy kept
//! in this file). `matmul_nt_masked_lanes` is the row kernel
//! (`Matrix::matmul_nt_masked_into`, one pass over the weights per active
//! lane) against what `Backend::Scalar` dispatches to — the transposing
//! row-dot kernel of `hima_tensor::fused`, one pass per four active lanes
//! — at 1, 2, 3, 4 and 8 active lanes of a `B = 8` grid.
//!
//! The same table holds the memory unit's kernels at one paper tile
//! (`N = 64, W = 64`) and the served shape (`N = 128, W = 16`):
//! `linkage_update_branch_free` (the reference's `if i == j` loop vs the
//! branch-free row body); `forward_heads` / `content_dots_heads` at
//! `R = 1, 2, 4` read heads — `R` one-head passes (`matvec_into` over `L`;
//! `N` one-chain dots over `M`) vs the one `Backend::Scalar.matmul_nt_into`
//! product (eight rows of `L` or `M` transposed in registers, one
//! accumulator per head); `matvec_t_heads` at the same head counts — `R`
//! `matvec_t_into` passes vs one `fused::matvec_t_heads_into`, over `L`
//! (the backward weightings) and over `M` (the memory read); and
//! `row_norms_fused` at `R = 1` and `4` keys — `row_norms_into` followed
//! by the dots-only kernel vs the one pass that returns both.
//!
//! `packed_weights` rows are the engine's shared-weight products — the
//! interface projection, LSTM gates and output projection at the paper's
//! and the served shapes (`shape` is `N×K`), at 1, 2, 3, 4, 8 and 32
//! active lanes: `Backend::Scalar.matmul_nt_masked_into` over the
//! row-major matrix (today's exact tier) against
//! `PackedWeights::matmul_masked_into` over the same weights packed once.
//! These rows also carry `Backend::Blocked`'s time for the same call
//! (`blocked_ns_per_call`, `speedup_vs_blocked`) — a different numerics
//! contract, so it sits beside the bit-identical pair, not in it.
//!
//! Flags:
//!
//! * `--json` — additionally write `BENCH_kernels.json`:
//!   `{ bench: "kernels", schema_version: 5, params: {memory_size,
//!   word_size, hidden_size}, kernels: [{kernel, batch,
//!   scalar_ns_per_call, blocked_ns_per_call, speedup}],
//!   scalar_variants: [{kernel, shape, batch, active, reference, variant,
//!   reference_ns_per_call, variant_ns_per_call, speedup
//!   [, blocked_ns_per_call, speedup_vs_blocked]}] }`
//!   (`batch` is 0 for kernels without a batch axis; `active` counts
//!   live rows of the left factor — active lanes, or read heads; `shape`
//!   names the memory geometry of a read-phase row or the `N×K` of a
//!   `packed_weights` row and is empty otherwise),
//! * `--smoke` — short measurement windows for CI.

use hima::dnc::linkage::TemporalLinkage;
use hima::tensor::{fused, Backend, LaneMask, Matrix, PackedWeights, QFormat};
use std::time::{Duration, Instant};

const N: usize = 128;
const W: usize = 16;
const HIDDEN: usize = 64;
/// Controller input width: tokens (16) + R·W read vectors (32).
const X_WIDTH: usize = 16 + 2 * W;
const BATCHES: [usize; 3] = [1, 8, 32];

/// One measured kernel pairing.
struct Row {
    kernel: &'static str,
    batch: usize,
    scalar_ns: f64,
    blocked_ns: f64,
}

/// One measured pairing of two bit-identical forms of a scalar-tier kernel.
struct VariantRow {
    kernel: &'static str,
    shape: String,
    batch: usize,
    active: usize,
    reference: &'static str,
    variant: &'static str,
    reference_ns: f64,
    variant_ns: f64,
    /// The `Backend::Blocked` form of the same call, where the row has
    /// one (it is *not* bit-identical to the other two).
    blocked_ns: Option<f64>,
}

/// Elements per `quantize_slice` call (one 64 × 64 linkage tile).
const QUANTIZE_ELEMS: usize = 4096;
/// Active-lane counts of the `matmul_nt_masked_lanes` rows, out of
/// [`LANE_GRID`] lanes.
const ACTIVE_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];
const LANE_GRID: usize = 8;
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

/// Paired best-of: interleaved reps, each tier keeping its best (lowest)
/// per-call time.
fn best_of_paired(
    reps: usize,
    measure: Duration,
    mut scalar: impl FnMut(),
    mut blocked: impl FnMut(),
) -> (f64, f64) {
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        best.0 = best.0.min(ns_per_call(measure, &mut scalar));
        best.1 = best.1.min(ns_per_call(measure, &mut blocked));
    }
    best
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
        "Backend kernel microbench — N={N} W={W} H={HIDDEN}, engine shapes, per-call ns{}",
        if smoke { " (smoke mode)" } else { "" }
    ));
    println!(
        "{:<26} {:>6} {:>14} {:>14} {:>9}",
        "kernel", "batch", "scalar ns", "blocked ns", "speedup"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut report = |kernel: &'static str, batch: usize, scalar_ns: f64, blocked_ns: f64| {
        println!(
            "{:<26} {:>6} {:>14.0} {:>14.0} {:>8}",
            kernel,
            batch,
            scalar_ns,
            blocked_ns,
            hima_bench::times(scalar_ns / blocked_ns)
        );
        rows.push(Row { kernel, batch, scalar_ns, blocked_ns });
    };

    // LSTM gate projection shape: [X ; H] (B × 112) · weights (4H × 112)ᵀ.
    for &b in &BATCHES {
        let x = test_matrix(b, X_WIDTH + HIDDEN, 1);
        let w = test_matrix(4 * HIDDEN, X_WIDTH + HIDDEN, 2);
        let mask = LaneMask::full(b);
        let mut out_s = Matrix::zeros(b, 4 * HIDDEN);
        let mut out_b = Matrix::zeros(b, 4 * HIDDEN);
        let (s, v) = best_of_paired(
            reps,
            measure,
            || Backend::Scalar.matmul_nt_masked_into(&x, &w, &mask, &mut out_s),
            || Backend::Blocked.matmul_nt_masked_into(&x, &w, &mask, &mut out_b),
        );
        report("matmul_nt_masked_into", b, s, v);
    }

    // Temporal-link kernels: forward/backward weighting over the N × N
    // linkage — the per-lane hot spot of the memory unit.
    let linkage = test_matrix(N, N, 3);
    let wv: Vec<f32> = (0..N).map(|i| ((i * 13) as f32 * 0.21).sin().abs() / N as f32).collect();
    let mut out_ns = vec![0.0f32; N];
    let mut out_nb = vec![0.0f32; N];
    let (s, v) = best_of_paired(
        reps,
        measure,
        || Backend::Scalar.matvec_into(&linkage, &wv, &mut out_ns),
        || Backend::Blocked.matvec_into(&linkage, &wv, &mut out_nb),
    );
    report("matvec_into (NxN)", 0, s, v);

    // Content-lookup row norms over the N × W memory block.
    let memory = test_matrix(N, W, 4);
    let mut norms_s = vec![0.0f32; N];
    let mut norms_b = vec![0.0f32; N];
    let (s, v) = best_of_paired(
        reps,
        measure,
        || Backend::Scalar.row_norms_into(&memory, &mut norms_s),
        || Backend::Blocked.row_norms_into(&memory, &mut norms_b),
    );
    report("row_norms_into (NxW)", 0, s, v);

    println!(
        "\nPer-call wall time, best of {reps} interleaved reps per tier. The\n\
         engine-level consequence of these kernels is the `backend` section\n\
         of the throughput bench; numerical agreement is pinned by the\n\
         backend conformance suite."
    );

    println!(
        "\n{:<27} {:>11} {:>6} {:>6} {:>14} {:>14} {:>9} {:>12}",
        "scalar-tier variant",
        "shape",
        "batch",
        "active",
        "reference ns",
        "variant ns",
        "speedup",
        "blocked ns"
    );
    let mut variants: Vec<VariantRow> = Vec::new();
    let mut report_variant = |row: VariantRow| {
        println!(
            "{:<27} {:>11} {:>6} {:>6} {:>14.0} {:>14.0} {:>8} {:>12}",
            row.kernel,
            row.shape,
            row.batch,
            row.active,
            row.reference_ns,
            row.variant_ns,
            hima_bench::times(row.reference_ns / row.variant_ns),
            row.blocked_ns.map_or(String::new(), |b| format!("{b:.0}"))
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
        blocked_ns: None,
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
            blocked_ns: None,
        });
    }

    // The LSTM gate projection again, scalar tier only: the row kernel
    // (`Matrix::matmul_nt_masked_into`) against what `Backend::Scalar`
    // dispatches to at each active-lane count.
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
            || Backend::Scalar.matmul_nt_masked_into(&x, &w, &mask, &mut out_v),
        );
        assert_eq!(out_r, out_v, "row-dot kernel must equal the row kernel");
        report_variant(VariantRow {
            kernel: "matmul_nt_masked_lanes",
            shape: String::new(),
            batch: LANE_GRID,
            active,
            reference: "row kernel (Matrix::matmul_nt_masked_into)",
            variant: "Backend::Scalar dispatch (transposing row-dot kernel, 4 lanes per pass)",
            reference_ns: r,
            variant_ns: v,
            blocked_ns: None,
        });
    }
    // The engine's shared-weight products: what `Backend::Scalar` (and
    // `Backend::Blocked`) compute from the row-major matrix on every call
    // against the product over the weights packed once.
    for &(n, k) in &PACKED_SHAPES {
        let w = test_matrix(n, k, 2);
        let packed = PackedWeights::pack(&w);
        for &lanes in &PACKED_LANES {
            let x = test_matrix(lanes, k, 1);
            let mask = LaneMask::full(lanes);
            let mut out_r = Matrix::zeros(lanes, n);
            let mut out_v = Matrix::zeros(lanes, n);
            let mut out_b = Matrix::zeros(lanes, n);
            let (r, v) = best_of_paired(
                reps,
                measure,
                || Backend::Scalar.matmul_nt_masked_into(&x, &w, &mask, &mut out_r),
                || packed.matmul_masked_into(&x, &mask, &mut out_v),
            );
            assert_eq!(out_r, out_v, "packed product must equal the scalar tier's");
            let blocked = (0..reps)
                .map(|_| {
                    ns_per_call(measure, || {
                        Backend::Blocked.matmul_nt_masked_into(&x, &w, &mask, &mut out_b)
                    })
                })
                .fold(f64::MAX, f64::min);
            report_variant(VariantRow {
                kernel: "packed_weights",
                shape: format!("{n}x{k}"),
                batch: lanes,
                active: lanes,
                reference: "Backend::Scalar.matmul_nt_masked_into (row-major weights)",
                variant: "PackedWeights::matmul_masked_into (panels of 16 outputs, k-major)",
                reference_ns: r,
                variant_ns: v,
                blocked_ns: Some(blocked),
            });
        }
    }
    // The memory unit's read phase, scalar tier only.
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
        link_v.update_linkage_with(&write, Backend::Scalar);
        assert_eq!(link_r, link_v, "branch-free update must equal the reference");
        let (r, v) = best_of_paired(
            reps,
            measure,
            || link_r.update_linkage(&write),
            || link_v.update_linkage_with(&write, Backend::Scalar),
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
            blocked_ns: None,
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
                || Backend::Scalar.matmul_nt_into(&reads, linkage, &mut out_v),
            );
            assert_eq!(out_r, out_v, "head-fused forward must equal the per-head mat-vecs");
            report_variant(VariantRow {
                kernel: "forward_heads",
                shape: shape.clone(),
                batch: 0,
                active: heads,
                reference: "Matrix::matvec_into over L, once per head",
                variant: "Backend::Scalar.matmul_nt_into(reads, L) (transposing row-dot kernel)",
                reference_ns: r,
                variant_ns: v,
                blocked_ns: None,
            });

            let keys = test_matrix(heads, w, 5);
            let (r, v) = best_of_paired(
                reps,
                measure,
                || {
                    for h in 0..heads {
                        for (i, o) in out_r.row_mut(h).iter_mut().enumerate() {
                            *o = Backend::Scalar.dot(memory.row(i), keys.row(h));
                        }
                    }
                },
                || Backend::Scalar.matmul_nt_into(&keys, &memory, &mut out_v),
            );
            assert_eq!(out_r, out_v, "head-fused content dots must equal the per-pair dots");
            report_variant(VariantRow {
                kernel: "content_dots_heads",
                shape: shape.clone(),
                batch: 0,
                active: heads,
                reference: "Backend::Scalar.dot per (head, memory row)",
                variant: "Backend::Scalar.matmul_nt_into(keys, M) (transposing row-dot kernel)",
                reference_ns: r,
                variant_ns: v,
                blocked_ns: None,
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
                    blocked_ns: None,
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
                    blocked_ns: None,
                });
            }
        }
    }
    println!(
        "\nThe reference and the variant of every row above return identical\n\
         bits (asserted on the spot); the rows only say which form is faster.\n\
         `blocked ns` is the tolerance tier's time for a packed_weights call."
    );

    if json {
        let mut s = String::new();
        s.push_str("{\n  \"bench\": \"kernels\",\n  \"schema_version\": 5,\n");
        s.push_str(&format!(
            "  \"params\": {{\"memory_size\": {N}, \"word_size\": {W}, \"hidden_size\": {HIDDEN}}},\n"
        ));
        s.push_str("  \"kernels\": [\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"batch\": {}, \"scalar_ns_per_call\": {:.1}, \"blocked_ns_per_call\": {:.1}, \"speedup\": {:.3}}}{}\n",
                r.kernel,
                r.batch,
                r.scalar_ns,
                r.blocked_ns,
                r.scalar_ns / r.blocked_ns,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"scalar_variants\": [\n");
        for (i, r) in variants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"batch\": {}, \"active\": {}, \"reference\": \"{}\", \"variant\": \"{}\", \"reference_ns_per_call\": {:.1}, \"variant_ns_per_call\": {:.1}, \"speedup\": {:.3}{}}}{}\n",
                r.kernel,
                r.shape,
                r.batch,
                r.active,
                r.reference,
                r.variant,
                r.reference_ns,
                r.variant_ns,
                r.reference_ns / r.variant_ns,
                r.blocked_ns.map_or(String::new(), |b| format!(
                    ", \"blocked_ns_per_call\": {b:.1}, \"speedup_vs_blocked\": {:.3}",
                    b / r.variant_ns
                )),
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
