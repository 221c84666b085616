//! Property-based tests for the tensor substrate.

use hima_tensor::{fixed::QFormat, matrix::Matrix, softmax::PlaSoftmax, vector, softmax};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    // Bounded values keep float associativity error far below test tolerances.
    (-100.0f32..100.0).prop_map(|x| (x * 16.0).round() / 16.0)
}

fn vec_f32(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(small_f32(), len)
}

proptest! {
    #[test]
    fn transpose_is_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17 + seed as usize) % 97) as f32 - 48.0);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_t_agrees_with_explicit_transpose(rows in 1usize..10, cols in 1usize..10, seed in 0u64..1000) {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 13 + j * 7 + seed as usize) % 51) as f32 * 0.125 - 3.0);
        let v: Vec<f32> = (0..rows).map(|i| ((i * 29 + seed as usize) % 23) as f32 * 0.25 - 2.0).collect();
        let a = m.matvec_t(&v);
        let b = m.transpose().matvec(&v);
        prop_assert!(hima_tensor::all_close(&a, &b, 1e-3));
    }

    #[test]
    fn matmul_distributes_over_add(n in 1usize..6, seed in 0u64..500) {
        let a = Matrix::from_fn(n, n, |i, j| ((i + 3 * j + seed as usize) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(n, n, |i, j| ((2 * i + j + seed as usize) % 7) as f32 - 3.0);
        let c = Matrix::from_fn(n, n, |i, j| ((i * j + seed as usize) % 5) as f32 - 2.0);
        let lhs = a.matmul(&Matrix::from_vec(n, n, vector::add(b.as_slice(), c.as_slice())));
        let rhs = vector::add(a.matmul(&b).as_slice(), a.matmul(&c).as_slice());
        prop_assert!(hima_tensor::all_close(lhs.as_slice(), &rhs, 1e-3));
    }

    #[test]
    fn softmax_is_a_distribution(xs in vec_f32(1..32)) {
        let p = softmax(&xs);
        prop_assert_eq!(p.len(), xs.len());
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_preserves_argmax(xs in vec_f32(2..16)) {
        let p = softmax(&xs);
        let argmax_x = (0..xs.len()).max_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap()).unwrap();
        let argmax_p = (0..p.len()).max_by(|&a, &b| p[a].partial_cmp(&p[b]).unwrap()).unwrap();
        prop_assert!((xs[argmax_x] - xs[argmax_p]).abs() < 1e-6);
    }

    #[test]
    fn pla_softmax_is_a_distribution(xs in vec_f32(1..32)) {
        let p = PlaSoftmax::default().softmax(&xs);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-5).contains(&x)));
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn pla_softmax_tracks_exact(xs in prop::collection::vec(-4.0f32..4.0, 2..16)) {
        let exact = softmax(&xs);
        let approx = PlaSoftmax::default().softmax(&xs);
        for (e, a) in exact.iter().zip(&approx) {
            prop_assert!((e - a).abs() < 0.03, "exact {} vs approx {}", e, a);
        }
    }

    #[test]
    fn fixed_round_trip_error_bounded(x in -30000.0f32..30000.0) {
        let q = QFormat::q16_16();
        prop_assert!((q.quantize(x) - x).abs() <= q.resolution());
    }

    #[test]
    fn fixed_mul_error_bounded(a in -100.0f32..100.0, b in -100.0f32..100.0) {
        // Datapath arithmetic: `f32` on quantized operands, then the
        // rounding.
        let q = QFormat::q16_16();
        let prod = q.quantize(q.quantize(a) * q.quantize(b));
        // Error ≤ input quantization amplified by the operand magnitudes
        // plus one output rounding step.
        let bound = q.resolution() * (a.abs() + b.abs() + 1.0);
        prop_assert!((prod - a * b).abs() <= bound, "{} * {} = {} (err bound {})", a, b, prod, bound);
    }

    #[test]
    fn row_norms_nonnegative(rows in 1usize..8, cols in 1usize..8, seed in 0u64..100) {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3 + seed as usize) % 19) as f32 - 9.0);
        for n in m.row_norms() {
            prop_assert!(n >= 0.0);
        }
    }
}

// --- Batched row-block kernels ------------------------------------------
//
// The batched execution path stacks B independent lanes as matrix rows;
// these properties pin the row-block kernels to their per-lane
// equivalents (`matmul_nt` vs repeated `matvec`, row-broadcast bias vs
// scalar adds).

proptest! {
    #[test]
    fn matmul_nt_equals_repeated_matvec(
        b in prop::sample::select(vec![1usize, 3, 8]),
        n in 1usize..8,
        k in 1usize..8,
        seed in 0u64..200,
    ) {
        let x = Matrix::from_fn(b, k, |i, j| ((i * 31 + j * 7 + seed as usize) % 23) as f32 * 0.25 - 2.0);
        let w = Matrix::from_fn(n, k, |i, j| ((i * 13 + j * 11 + seed as usize) % 19) as f32 * 0.125 - 1.0);
        let out = x.matmul_nt(&w);
        prop_assert_eq!(out.shape(), (b, n));
        for lane in 0..b {
            let want = w.matvec(x.row(lane));
            prop_assert_eq!(out.row(lane), &want[..], "lane {} differs", lane);
        }
    }

    #[test]
    fn matmul_nt_equals_matmul_of_transpose(n in 1usize..7, k in 1usize..7, seed in 0u64..100) {
        let a = Matrix::from_fn(n, k, |i, j| ((i * 5 + j * 3 + seed as usize) % 13) as f32 - 6.0);
        let bm = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 11 + seed as usize) % 17) as f32 - 8.0);
        let fast = a.matmul_nt(&bm);
        let slow = a.matmul(&bm.transpose());
        prop_assert!(hima_tensor::all_close(fast.as_slice(), slow.as_slice(), 1e-3));
    }

    #[test]
    fn hcat_preserves_rows(rows in 1usize..6, ca in 1usize..6, cb in 1usize..6, seed in 0u64..50) {
        let a = Matrix::from_fn(rows, ca, |i, j| (i * 10 + j + seed as usize) as f32);
        let b = Matrix::from_fn(rows, cb, |i, j| -((i * 10 + j + seed as usize) as f32));
        let c = Matrix::hcat(&a, &b);
        prop_assert_eq!(c.shape(), (rows, ca + cb));
        for i in 0..rows {
            prop_assert_eq!(&c.row(i)[..ca], a.row(i));
            prop_assert_eq!(&c.row(i)[ca..], b.row(i));
        }
    }

    #[test]
    fn add_row_inplace_broadcasts(rows in 1usize..6, cols in 1usize..8, seed in 0u64..50) {
        let mut m = Matrix::from_fn(rows, cols, |i, j| (i * 3 + j + seed as usize) as f32);
        let bias: Vec<f32> = (0..cols).map(|j| j as f32 * 0.5 - 1.0).collect();
        let before = m.clone();
        m.add_row_inplace_masked(&bias, &hima_tensor::LaneMask::full(rows));
        for i in 0..rows {
            for j in 0..cols {
                prop_assert_eq!(m[(i, j)], before[(i, j)] + bias[j]);
            }
        }
    }
}

// --- Transcendentals ------------------------------------------------------
//
// The slice kernels of `transcend` run whole vectors through a lane body
// and tails through the scalar function; these properties hold the two
// equal — bit for bit — on arbitrary bit patterns (NaNs, infinities,
// subnormals, both zeros) at arbitrary lengths, through the public entry
// points the engine calls. The unit tests in `transcend.rs` call the AVX
// and the portable body explicitly; this is the dispatched one.

use hima_tensor::transcend::{
    exp, lstm_gates, oneplus, oneplus_into, sigmoid, sigmoid_into, softmax_inplace, softplus, tanh,
    EXP_HI, EXP_LO,
};

fn any_f32(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u32..u32::MAX).prop_map(f32::from_bits), len)
}

/// Equal bits, or both NaN (payloads are no kernel's contract).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

proptest! {
    // Arbitrary bit patterns are mostly huge or tiny magnitudes; the cases
    // are cheap, so run enough of them to land on the interesting ones.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pointwise_slices_equal_the_scalar_functions_on_any_bits(xs in any_f32(0..41)) {
        let mut got = vec![0.0; xs.len()];
        sigmoid_into(&xs, &mut got);
        let want: Vec<f32> = xs.iter().map(|&x| sigmoid(x)).collect();
        prop_assert!(same_bits(&got, &want), "sigmoid_into {:?} -> {:?} vs {:?}", xs, got, want);
        oneplus_into(&xs, &mut got);
        let want: Vec<f32> = xs.iter().map(|&x| oneplus(x)).collect();
        prop_assert!(same_bits(&got, &want), "oneplus_into {:?} -> {:?} vs {:?}", xs, got, want);
    }

    #[test]
    fn every_function_keeps_its_range_and_its_edges_on_any_bits(bits in 0u32..u32::MAX) {
        let x = f32::from_bits(bits);
        if x.is_nan() {
            prop_assert!([exp(x), sigmoid(x), tanh(x), softplus(x), oneplus(x)].iter().all(|y| y.is_nan()));
            return;
        }
        let e = exp(x);
        prop_assert_eq!(e == 0.0, x < EXP_LO, "exp({:e}) = {:e}", x, e);
        prop_assert_eq!(e == f32::INFINITY, x > EXP_HI, "exp({:e}) = {:e}", x, e);
        prop_assert!(e == 0.0 || e == f32::INFINITY || e.is_normal(), "exp({:e}) = {:e}", x, e);
        prop_assert!((0.0..=1.0).contains(&sigmoid(x)), "sigmoid({:e})", x);
        let t = tanh(x);
        prop_assert!(t.abs() <= 1.0, "tanh({:e}) = {:e}", x, t);
        prop_assert_eq!(t.is_sign_negative(), x.is_sign_negative(), "tanh({:e}) = {:e}", x, t);
        prop_assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh is odd at {:e}", x);
        let s = softplus(x);
        prop_assert!(s >= 0.0, "softplus({:e}) = {:e}", x, s);
        prop_assert_eq!(oneplus(x).to_bits(), (1.0 + s).to_bits());
    }

    #[test]
    fn lstm_gates_equals_the_scalar_loop_on_any_bits(h in 0usize..21, seed in any_f32(105..106)) {
        let (pre, cell) = (&seed[..4 * h], &seed[84..84 + h]);
        let (mut c_got, mut h_got) = (cell.to_vec(), vec![0.0; h]);
        lstm_gates(pre, &mut c_got, &mut h_got);
        let (mut c_want, mut h_want) = (cell.to_vec(), vec![0.0; h]);
        for j in 0..h {
            c_want[j] = sigmoid(pre[h + j]) * cell[j] + sigmoid(pre[j]) * tanh(pre[2 * h + j]);
            h_want[j] = sigmoid(pre[3 * h + j]) * tanh(c_want[j]);
        }
        prop_assert!(same_bits(&c_got, &c_want), "cell, H={}", h);
        prop_assert!(same_bits(&h_got, &h_want), "hidden, H={}", h);
    }

    #[test]
    fn softmax_is_the_documented_sum_order_over_the_scalar_exp(xs in vec_f32(0..41)) {
        let mut got = xs.clone();
        softmax_inplace(&mut got);
        // The definition: exp(x − max); eight lane-wise partial sums over
        // the whole vectors, a fixed tree, the tail in order; divide.
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let e: Vec<f32> = xs.iter().map(|&x| exp(x - max)).collect();
        let whole = xs.len() / 8 * 8;
        let mut s = [0.0f32; 8];
        for (i, &v) in e[..whole].iter().enumerate() {
            s[i % 8] += v;
        }
        let mut total = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
        for &v in &e[whole..] {
            total += v;
        }
        let want: Vec<f32> = e.iter().map(|&v| v / total).collect();
        prop_assert!(same_bits(&got, &want), "{:?} -> {:?} vs {:?}", xs, got, want);
    }

    #[test]
    fn softmax_of_any_bits_is_a_distribution_or_all_nan(xs in any_f32(1..41)) {
        let mut p = xs.clone();
        softmax_inplace(&mut p);
        let defined = xs.iter().all(|x| x.is_finite());
        if defined {
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "{:?} -> {:?}", xs, p);
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4, "{:?} -> {:?}", xs, p);
        } else if xs.iter().any(|x| x.is_nan()) {
            prop_assert!(p.iter().all(|x| x.is_nan()), "{:?} -> {:?}", xs, p);
        }
    }
}
