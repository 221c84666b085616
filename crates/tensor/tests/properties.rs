//! Property-based tests for the tensor substrate.

use hima_tensor::{fixed::Fixed, matrix::Matrix, softmax::PlaSoftmax, vector, softmax};
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
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(hima_tensor::all_close(lhs.as_slice(), rhs.as_slice(), 1e-3));
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
        let err = (Fixed::from_f32(x).to_f32() - x).abs();
        prop_assert!(err <= Fixed::resolution());
    }

    #[test]
    fn fixed_add_commutes(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        let fa = Fixed::from_f32(a);
        let fb = Fixed::from_f32(b);
        prop_assert_eq!(fa + fb, fb + fa);
    }

    #[test]
    fn fixed_mul_commutes(a in -100.0f32..100.0, b in -100.0f32..100.0) {
        let fa = Fixed::from_f32(a);
        let fb = Fixed::from_f32(b);
        prop_assert_eq!(fa * fb, fb * fa);
    }

    #[test]
    fn fixed_mul_error_bounded(a in -100.0f32..100.0, b in -100.0f32..100.0) {
        let prod = (Fixed::from_f32(a) * Fixed::from_f32(b)).to_f32();
        // Error ≤ input quantization amplified by the operand magnitudes
        // plus one output rounding step.
        let bound = Fixed::resolution() * (a.abs() + b.abs() + 1.0);
        prop_assert!((prod - a * b).abs() <= bound, "{} * {} = {} (err bound {})", a, b, prod, bound);
    }

    #[test]
    fn argsort_produces_sorted_permutation(xs in vec_f32(0..64)) {
        let idx = vector::argsort_ascending(&xs);
        // Is a permutation.
        let mut seen = vec![false; xs.len()];
        for &i in &idx {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        // Is sorted.
        for w in idx.windows(2) {
            prop_assert!(xs[w[0]] <= xs[w[1]]);
        }
    }

    #[test]
    fn prefix_product_recurrence(xs in prop::collection::vec(0.0f32..1.0, 1..32)) {
        let p = vector::exclusive_prefix_product(&xs);
        prop_assert_eq!(p.len(), xs.len());
        prop_assert_eq!(p[0], 1.0);
        for i in 1..p.len() {
            prop_assert!((p[i] - p[i - 1] * xs[i - 1]).abs() < 1e-5);
        }
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
// equivalents (`matmul_nt` vs repeated `matvec`, `softmax_rows` vs
// per-row `softmax`, row-broadcast bias vs scalar adds).

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
    fn softmax_rows_equals_per_row_softmax(rows in 1usize..6, cols in 1usize..9, seed in 0u64..100) {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 17 + j * 29 + seed as usize) % 31) as f32 * 0.2 - 3.0);
        let mut batched = m.clone();
        hima_tensor::softmax_rows(&mut batched);
        for i in 0..rows {
            let want = softmax(m.row(i));
            prop_assert!(hima_tensor::all_close(batched.row(i), &want, 1e-6), "row {}", i);
            prop_assert!((batched.row(i).iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn add_row_inplace_broadcasts(rows in 1usize..6, cols in 1usize..8, seed in 0u64..50) {
        let mut m = Matrix::from_fn(rows, cols, |i, j| (i * 3 + j + seed as usize) as f32);
        let bias: Vec<f32> = (0..cols).map(|j| j as f32 * 0.5 - 1.0).collect();
        let before = m.clone();
        m.add_row_inplace(&bias);
        for i in 0..rows {
            for j in 0..cols {
                prop_assert_eq!(m[(i, j)], before[(i, j)] + bias[j]);
            }
        }
    }
}
