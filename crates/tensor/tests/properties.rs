//! Property-based tests for the tensor substrate.

use hima_tensor::{fixed::QFormat, matrix::Matrix, softmax::PlaSoftmax, vector, softmax};
use hima_testkit::cases::{check, Gen};

fn small_f32(g: &mut Gen) -> f32 {
    // Bounded values keep float associativity error far below test tolerances.
    (g.range(-100.0f32..100.0) * 16.0).round() / 16.0
}

fn vec_f32(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<f32> {
    g.vec(len, small_f32)
}

#[test]
fn transpose_is_involution() {
    let draw = |g: &mut Gen| (g.range(1usize..8), g.range(1usize..8), g.range(0u64..1000));
    check("transpose_is_involution", 64, draw, |(rows, cols, seed)| {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17 + seed as usize) % 97) as f32 - 48.0);
        assert_eq!(m.transpose().transpose(), m);
    });
}

#[test]
fn matvec_t_agrees_with_explicit_transpose() {
    let draw = |g: &mut Gen| (g.range(1usize..10), g.range(1usize..10), g.range(0u64..1000));
    check("matvec_t_agrees_with_explicit_transpose", 64, draw, |(rows, cols, seed)| {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 13 + j * 7 + seed as usize) % 51) as f32 * 0.125 - 3.0);
        let v: Vec<f32> = (0..rows).map(|i| ((i * 29 + seed as usize) % 23) as f32 * 0.25 - 2.0).collect();
        let a = m.matvec_t(&v);
        let b = m.transpose().matvec(&v);
        assert!(hima_tensor::all_close(&a, &b, 1e-3));
    });
}

#[test]
fn matmul_distributes_over_add() {
    check("matmul_distributes_over_add", 64, |g| (g.range(1usize..6), g.range(0u64..500)), |(n, seed)| {
        let a = Matrix::from_fn(n, n, |i, j| ((i + 3 * j + seed as usize) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(n, n, |i, j| ((2 * i + j + seed as usize) % 7) as f32 - 3.0);
        let c = Matrix::from_fn(n, n, |i, j| ((i * j + seed as usize) % 5) as f32 - 2.0);
        let lhs = a.matmul(&Matrix::from_vec(n, n, vector::add(b.as_slice(), c.as_slice())));
        let rhs = vector::add(a.matmul(&b).as_slice(), a.matmul(&c).as_slice());
        assert!(hima_tensor::all_close(lhs.as_slice(), &rhs, 1e-3));
    });
}

#[test]
fn softmax_is_a_distribution() {
    check("softmax_is_a_distribution", 64, |g| vec_f32(g, 1..32), |xs| {
        let p = softmax(&xs);
        assert_eq!(p.len(), xs.len());
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    });
}

#[test]
fn softmax_preserves_argmax() {
    check("softmax_preserves_argmax", 64, |g| vec_f32(g, 2..16), |xs| {
        let p = softmax(&xs);
        let argmax_x = (0..xs.len()).max_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap()).unwrap();
        let argmax_p = (0..p.len()).max_by(|&a, &b| p[a].partial_cmp(&p[b]).unwrap()).unwrap();
        assert!((xs[argmax_x] - xs[argmax_p]).abs() < 1e-6);
    });
}

#[test]
fn pla_softmax_is_a_distribution() {
    check("pla_softmax_is_a_distribution", 64, |g| vec_f32(g, 1..32), |xs| {
        let p = PlaSoftmax::default().softmax(&xs);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-5).contains(&x)));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    });
}

#[test]
fn pla_softmax_tracks_exact() {
    check("pla_softmax_tracks_exact", 64, |g| g.vec(2..16, |g| g.range(-4.0f32..4.0)), |xs| {
        let exact = softmax(&xs);
        let approx = PlaSoftmax::default().softmax(&xs);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 0.03, "exact {} vs approx {}", e, a);
        }
    });
}

#[test]
fn fixed_round_trip_error_bounded() {
    check("fixed_round_trip_error_bounded", 64, |g| g.range(-30000.0f32..30000.0), |x| {
        let q = QFormat::q16_16();
        assert!((q.quantize(x) - x).abs() <= q.resolution());
    });
}

#[test]
fn fixed_mul_error_bounded() {
    check("fixed_mul_error_bounded", 64, |g| (g.range(-100.0f32..100.0), g.range(-100.0f32..100.0)), |(a, b)| {
        // Datapath arithmetic: `f32` on quantized operands, then the
        // rounding.
        let q = QFormat::q16_16();
        let prod = q.quantize(q.quantize(a) * q.quantize(b));
        // Error ≤ input quantization amplified by the operand magnitudes
        // plus one output rounding step.
        let bound = q.resolution() * (a.abs() + b.abs() + 1.0);
        assert!((prod - a * b).abs() <= bound, "{} * {} = {} (err bound {})", a, b, prod, bound);
    });
}

#[test]
fn row_norms_nonnegative() {
    let draw = |g: &mut Gen| (g.range(1usize..8), g.range(1usize..8), g.range(0u64..100));
    check("row_norms_nonnegative", 64, draw, |(rows, cols, seed)| {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3 + seed as usize) % 19) as f32 - 9.0);
        for n in m.row_norms() {
            assert!(n >= 0.0);
        }
    });
}

// --- Batched row-block kernels ------------------------------------------
//
// The batched execution path stacks B independent lanes as matrix rows;
// these properties pin the row-block kernels to their per-lane
// equivalents (`matmul_nt` vs repeated `matvec`, row-broadcast bias vs
// scalar adds).

#[test]
fn matmul_nt_equals_repeated_matvec() {
    let draw = |g: &mut Gen| (g.pick(&[1usize, 3, 8]), g.range(1usize..8), g.range(1usize..8), g.range(0u64..200));
    check("matmul_nt_equals_repeated_matvec", 64, draw, |(b, n, k, seed)| {
        let x = Matrix::from_fn(b, k, |i, j| ((i * 31 + j * 7 + seed as usize) % 23) as f32 * 0.25 - 2.0);
        let w = Matrix::from_fn(n, k, |i, j| ((i * 13 + j * 11 + seed as usize) % 19) as f32 * 0.125 - 1.0);
        let out = x.matmul_nt(&w);
        assert_eq!(out.shape(), (b, n));
        for lane in 0..b {
            let want = w.matvec(x.row(lane));
            assert_eq!(out.row(lane), &want[..], "lane {} differs", lane);
        }
    });
}

#[test]
fn matmul_nt_equals_matmul_of_transpose() {
    let draw = |g: &mut Gen| (g.range(1usize..7), g.range(1usize..7), g.range(0u64..100));
    check("matmul_nt_equals_matmul_of_transpose", 64, draw, |(n, k, seed)| {
        let a = Matrix::from_fn(n, k, |i, j| ((i * 5 + j * 3 + seed as usize) % 13) as f32 - 6.0);
        let bm = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 11 + seed as usize) % 17) as f32 - 8.0);
        let fast = a.matmul_nt(&bm);
        let slow = a.matmul(&bm.transpose());
        assert!(hima_tensor::all_close(fast.as_slice(), slow.as_slice(), 1e-3));
    });
}

#[test]
fn hcat_preserves_rows() {
    let draw = |g: &mut Gen| (g.range(1usize..6), g.range(1usize..6), g.range(1usize..6), g.range(0u64..50));
    check("hcat_preserves_rows", 64, draw, |(rows, ca, cb, seed)| {
        let a = Matrix::from_fn(rows, ca, |i, j| (i * 10 + j + seed as usize) as f32);
        let b = Matrix::from_fn(rows, cb, |i, j| -((i * 10 + j + seed as usize) as f32));
        let c = Matrix::hcat(&a, &b);
        assert_eq!(c.shape(), (rows, ca + cb));
        for i in 0..rows {
            assert_eq!(&c.row(i)[..ca], a.row(i));
            assert_eq!(&c.row(i)[ca..], b.row(i));
        }
    });
}

#[test]
fn add_row_inplace_broadcasts() {
    let draw = |g: &mut Gen| (g.range(1usize..6), g.range(1usize..8), g.range(0u64..50));
    check("add_row_inplace_broadcasts", 64, draw, |(rows, cols, seed)| {
        let mut m = Matrix::from_fn(rows, cols, |i, j| (i * 3 + j + seed as usize) as f32);
        let bias: Vec<f32> = (0..cols).map(|j| j as f32 * 0.5 - 1.0).collect();
        let before = m.clone();
        m.add_row_inplace_masked(&bias, &hima_tensor::LaneMask::full(rows));
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(m[(i, j)], before[(i, j)] + bias[j]);
            }
        }
    });
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

fn any_f32(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<f32> {
    g.vec(len, |g| f32::from_bits(g.range(0u32..u32::MAX)))
}

/// Equal bits, or both NaN (payloads are no kernel's contract).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

// Arbitrary bit patterns are mostly huge or tiny magnitudes; the cases
// are cheap, so the tests below run enough of them (512) to land on the
// interesting ones.
#[test]
fn pointwise_slices_equal_the_scalar_functions_on_any_bits() {
    check("pointwise_slices_equal_the_scalar_functions_on_any_bits", 512, |g| any_f32(g, 0..41), |xs| {
        let mut got = vec![0.0; xs.len()];
        sigmoid_into(&xs, &mut got);
        let want: Vec<f32> = xs.iter().map(|&x| sigmoid(x)).collect();
        assert!(same_bits(&got, &want), "sigmoid_into {:?} -> {:?} vs {:?}", xs, got, want);
        oneplus_into(&xs, &mut got);
        let want: Vec<f32> = xs.iter().map(|&x| oneplus(x)).collect();
        assert!(same_bits(&got, &want), "oneplus_into {:?} -> {:?} vs {:?}", xs, got, want);
    });
}

#[test]
fn every_function_keeps_its_range_and_its_edges_on_any_bits() {
    check("every_function_keeps_its_range_and_its_edges_on_any_bits", 512, |g| g.range(0u32..u32::MAX), |bits| {
        let x = f32::from_bits(bits);
        if x.is_nan() {
            assert!([exp(x), sigmoid(x), tanh(x), softplus(x), oneplus(x)].iter().all(|y| y.is_nan()));
            return;
        }
        let e = exp(x);
        assert_eq!(e == 0.0, x < EXP_LO, "exp({:e}) = {:e}", x, e);
        assert_eq!(e == f32::INFINITY, x > EXP_HI, "exp({:e}) = {:e}", x, e);
        assert!(e == 0.0 || e == f32::INFINITY || e.is_normal(), "exp({:e}) = {:e}", x, e);
        assert!((0.0..=1.0).contains(&sigmoid(x)), "sigmoid({:e})", x);
        let t = tanh(x);
        assert!(t.abs() <= 1.0, "tanh({:e}) = {:e}", x, t);
        assert_eq!(t.is_sign_negative(), x.is_sign_negative(), "tanh({:e}) = {:e}", x, t);
        assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh is odd at {:e}", x);
        let s = softplus(x);
        assert!(s >= 0.0, "softplus({:e}) = {:e}", x, s);
        assert_eq!(oneplus(x).to_bits(), (1.0 + s).to_bits());
    });
}

#[test]
fn lstm_gates_equals_the_scalar_loop_on_any_bits() {
    let draw = |g: &mut Gen| (g.range(0usize..21), any_f32(g, 105..106));
    check("lstm_gates_equals_the_scalar_loop_on_any_bits", 512, draw, |(h, seed)| {
        let (pre, cell) = (&seed[..4 * h], &seed[84..84 + h]);
        let (mut c_got, mut h_got) = (cell.to_vec(), vec![0.0; h]);
        lstm_gates(pre, &mut c_got, &mut h_got);
        let (mut c_want, mut h_want) = (cell.to_vec(), vec![0.0; h]);
        for j in 0..h {
            c_want[j] = sigmoid(pre[h + j]) * cell[j] + sigmoid(pre[j]) * tanh(pre[2 * h + j]);
            h_want[j] = sigmoid(pre[3 * h + j]) * tanh(c_want[j]);
        }
        assert!(same_bits(&c_got, &c_want), "cell, H={}", h);
        assert!(same_bits(&h_got, &h_want), "hidden, H={}", h);
    });
}

#[test]
fn softmax_is_the_documented_sum_order_over_the_scalar_exp() {
    check("softmax_is_the_documented_sum_order_over_the_scalar_exp", 512, |g| vec_f32(g, 0..41), |xs| {
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
        assert!(same_bits(&got, &want), "{:?} -> {:?} vs {:?}", xs, got, want);
    });
}

#[test]
fn softmax_of_any_bits_is_a_distribution_or_all_nan() {
    check("softmax_of_any_bits_is_a_distribution_or_all_nan", 512, |g| any_f32(g, 1..41), |xs| {
        let mut p = xs.clone();
        softmax_inplace(&mut p);
        let defined = xs.iter().all(|x| x.is_finite());
        if defined {
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)), "{:?} -> {:?}", xs, p);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4, "{:?} -> {:?}", xs, p);
        } else if xs.iter().any(|x| x.is_nan()) {
            assert!(p.iter().all(|x| x.is_nan()), "{:?} -> {:?}", xs, p);
        }
    });
}
