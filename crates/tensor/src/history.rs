//! The history-write kernels of a memory unit's step: the erase/add
//! memory write and the temporal-linkage update (MW and HR.(1) of the
//! paper's Fig. 2). Both are element-wise — every output element is its
//! own short expression over its own inputs, with no reduction — so each
//! is one generic body over the crate's `Lanes` type
//! ([`mod@crate::simd`]), run at the widest tier the CPU has, and every
//! tier returns the bits of the scalar expression it transcribes. The
//! last `len % LANES` elements of a row run that scalar expression
//! itself.
//!
//! Both walk their matrix in **column blocks** of up to four vectors: the
//! operands every row shares in those columns — the erase and write
//! vectors, or the write weights and precedences — are loaded into
//! registers once per block, and the rows are walked as `chunks_exact`
//! chunks, so a row costs one load and one store per vector and no
//! bounds check (at the served `128 × 16` memory and `N = 128` linkage,
//! one block is a whole row). Which pass computes an element changes
//! nothing in its expression, so the order of the walk is free.
//!
//! # [`erase_add_write`]: `M ← M ∘ (E − w eᵀ) + w vᵀ`
//!
//! Row `i` of `M` with `w[i] != 0.0` becomes
//! `m[i][j] · (1 − w[i] · e[j]) + w[i] · v[j]`, in that operation order;
//! a row with `w[i] == 0.0` is not touched at all (not even rewritten
//! with itself), so a non-finite value there stays what it was.
//!
//! # [`linkage_update`]: `L[i,j] ← (1 − w[i] − w[j]) · L[i,j] + w[i] · p[j]`
//!
//! Every row is computed branch-free — `1 − w[i]` once per row, then the
//! reference's left-associated `(1 − w[i]) − w[j]` per element — and its
//! diagonal entry zeroed afterwards (in the pass that also runs the last
//! `N % LANES` columns), instead of testing `i == j` per element. The
//! result is bit-identical to the reference loop's
//! (`TemporalLinkage::update_linkage` in `hima-dnc`).

use crate::matrix::Matrix;
use crate::simd::{Kernel, Lanes, Tier, Token};

/// The erase/add memory write: every row `i` of `memory` with
/// `write_weighting[i] != 0.0` becomes `m · (1 − w·e) + w·v` element-wise
/// (see the [module docs](self)). Returns whether any row was written.
///
/// # Panics
///
/// Panics if `write_weighting` is not `memory.rows()` long, or `erase` or
/// `write` not `memory.cols()` long.
pub fn erase_add_write(
    memory: &mut Matrix,
    write_weighting: &[f32],
    erase: &[f32],
    write: &[f32],
) -> bool {
    erase_add_write_on(Tier::detected(), memory, write_weighting, erase, write)
}

/// [`erase_add_write`] on the given tier — the same bits on every tier.
///
/// # Panics
///
/// As `erase_add_write`, and if this CPU does not run `tier`.
pub fn erase_add_write_on(
    tier: Tier,
    memory: &mut Matrix,
    write_weighting: &[f32],
    erase: &[f32],
    write: &[f32],
) -> bool {
    assert_eq!(write_weighting.len(), memory.rows(), "write weighting length mismatch");
    assert_eq!(erase.len(), memory.cols(), "erase vector length mismatch");
    assert_eq!(write.len(), memory.cols(), "write vector length mismatch");
    tier.run(EraseAdd { memory, write_weighting, erase, write })
}

/// The memory write's arguments, for [`Tier::run`].
struct EraseAdd<'a> {
    memory: &'a mut Matrix,
    write_weighting: &'a [f32],
    erase: &'a [f32],
    write: &'a [f32],
}

impl Kernel for EraseAdd<'_> {
    type Output = bool;
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) -> bool {
        let EraseAdd { memory, write_weighting, erase, write } = self;
        let cols = memory.cols();
        let rows = memory.as_mut_slice();
        let mut j = 0;
        while j + BLOCK * V::LANES <= cols {
            erase_add_block::<V, BLOCK>(cpu, rows, cols, write_weighting, erase, write, j);
            j += BLOCK * V::LANES;
        }
        while j + V::LANES <= cols {
            erase_add_block::<V, 1>(cpu, rows, cols, write_weighting, erase, write, j);
            j += V::LANES;
        }
        if j < cols {
            for (row, &w) in rows.chunks_exact_mut(cols).zip(write_weighting) {
                if w != 0.0 {
                    for ((m, &e), &v) in row[j..].iter_mut().zip(&erase[j..]).zip(&write[j..]) {
                        *m = *m * (1.0 - w * e) + w * v;
                    }
                }
            }
        }
        write_weighting.iter().any(|&w| w != 0.0)
    }
}

/// Vectors of columns one pass over the rows carries: the column block's
/// operands that every row shares stay in registers for the whole pass.
const BLOCK: usize = 4;

/// Columns `j..j + C·LANES` of the memory write: the erase and write
/// vectors loaded once, then every written row of `rows` (row-major,
/// `cols` wide) updated in place.
#[inline(always)]
fn erase_add_block<V: Lanes, const C: usize>(
    cpu: Token<V>,
    rows: &mut [f32],
    cols: usize,
    write_weighting: &[f32],
    erase: &[f32],
    write: &[f32],
    j: usize,
) {
    let width = C * V::LANES;
    let (erase, write) = (&erase[j..j + width], &write[j..j + width]);
    let one = V::splat(cpu, 1.0);
    let (mut e, mut v) = ([one; C], [one; C]);
    for c in 0..C {
        let at = c * V::LANES;
        (e[c], v[c]) = (V::load(cpu, &erase[at..]), V::load(cpu, &write[at..]));
    }
    for (row, &w) in rows.chunks_exact_mut(cols).zip(write_weighting) {
        if w == 0.0 {
            continue;
        }
        let wv = V::splat(cpu, w);
        let block = &mut row[j..j + width];
        for c in 0..C {
            let at = c * V::LANES;
            let m = V::load(cpu, &block[at..]);
            m.mul(one.sub(wv.mul(e[c]))).add(wv.mul(v[c])).store(&mut block[at..]);
        }
    }
}

/// The linkage update: every `linkage[i][j]` becomes
/// `(1 − w[i] − w[j]) · L[i,j] + w[i] · p[j]`, then every diagonal entry
/// `0.0` (see the [module docs](self)). `precedence` is the *previous*
/// step's.
///
/// # Panics
///
/// Panics unless `linkage` is `N × N` for `N = write_weighting.len()` and
/// `precedence` is `N` long.
pub fn linkage_update(linkage: &mut Matrix, precedence: &[f32], write_weighting: &[f32]) {
    linkage_update_on(Tier::detected(), linkage, precedence, write_weighting);
}

/// [`linkage_update`] on the given tier — the same bits on every tier.
///
/// # Panics
///
/// As `linkage_update`, and if this CPU does not run `tier`.
pub fn linkage_update_on(
    tier: Tier,
    linkage: &mut Matrix,
    precedence: &[f32],
    write_weighting: &[f32],
) {
    let n = write_weighting.len();
    assert_eq!(linkage.shape(), (n, n), "linkage shape mismatch");
    assert_eq!(precedence.len(), n, "precedence length mismatch");
    tier.run(LinkageUpdate { linkage, precedence, write_weighting });
}

/// The linkage update's arguments, for [`Tier::run`].
struct LinkageUpdate<'a> {
    linkage: &'a mut Matrix,
    precedence: &'a [f32],
    write_weighting: &'a [f32],
}

impl Kernel for LinkageUpdate<'_> {
    type Output = ();
    #[inline(always)]
    fn run<V: Lanes>(self, cpu: Token<V>) {
        let LinkageUpdate { linkage, precedence, write_weighting: w } = self;
        let n = w.len();
        let rows = linkage.as_mut_slice();
        let mut j = 0;
        while j + BLOCK * V::LANES <= n {
            linkage_block::<V, BLOCK>(cpu, rows, precedence, w, j);
            j += BLOCK * V::LANES;
        }
        while j + V::LANES <= n {
            linkage_block::<V, 1>(cpu, rows, precedence, w, j);
            j += V::LANES;
        }
        // The last `N % LANES` columns, then the diagonal.
        for (i, (row, &wi)) in rows.chunks_exact_mut(n.max(1)).zip(w).enumerate() {
            for ((l, &wj), &pj) in row[j..].iter_mut().zip(&w[j..]).zip(&precedence[j..]) {
                *l = (1.0 - wi - wj) * *l + wi * pj;
            }
            row[i] = 0.0;
        }
    }
}

/// Columns `j..j + C·LANES` of the linkage update: the write weights and
/// precedences of those columns loaded once, then every row of `rows`
/// (row-major, `N × N`) updated in place.
#[inline(always)]
fn linkage_block<V: Lanes, const C: usize>(
    cpu: Token<V>,
    rows: &mut [f32],
    precedence: &[f32],
    w: &[f32],
    j: usize,
) {
    let width = C * V::LANES;
    let (wj, pj) = (&w[j..j + width], &precedence[j..j + width]);
    let zero = V::zero(cpu);
    let (mut wv, mut pv) = ([zero; C], [zero; C]);
    for c in 0..C {
        let at = c * V::LANES;
        (wv[c], pv[c]) = (V::load(cpu, &wj[at..]), V::load(cpu, &pj[at..]));
    }
    for (row, &wi) in rows.chunks_exact_mut(w.len()).zip(w) {
        let (wiv, one_minus_wi) = (V::splat(cpu, wi), V::splat(cpu, 1.0 - wi));
        let block = &mut row[j..j + width];
        for c in 0..C {
            let at = c * V::LANES;
            // (1 − wi − w[j]) · l + wi · p[j], the reference loop's
            // left-associated operation order.
            let l = V::load(cpu, &block[at..]);
            one_minus_wi.sub(wv[c]).mul(l).add(wiv.mul(pv[c])).store(&mut block[at..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::tiers::{assert_same_bits, hostile_row, LENGTHS};

    /// The memory write as the memory unit wrote it before it moved here:
    /// the scalar reference.
    fn erase_add_reference(memory: &mut Matrix, w: &[f32], erase: &[f32], write: &[f32]) -> bool {
        let mut wrote = false;
        for (i, &w) in w.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            wrote = true;
            for ((m, &e), &v) in memory.row_mut(i).iter_mut().zip(erase).zip(write) {
                *m = *m * (1.0 - w * e) + w * v;
            }
        }
        wrote
    }

    /// The linkage update with the `i == j` test per element: the
    /// definition.
    fn linkage_reference(linkage: &mut Matrix, p: &[f32], w: &[f32]) {
        for i in 0..w.len() {
            for (j, l) in linkage.row_mut(i).iter_mut().enumerate() {
                *l = if i == j { 0.0 } else { (1.0 - w[i] - w[j]) * *l + w[i] * p[j] };
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A seeded weighting of `n` slots: hostile values, soft weights and
    /// exact zeros of both signs (rows the write must skip).
    fn weighting(seed: u64, n: usize) -> Vec<f32> {
        let mut w = hostile_row(seed, n);
        for (i, x) in w.iter_mut().enumerate() {
            match i % 5 {
                0 => *x = 0.0,
                3 => *x = -0.0,
                _ => {}
            }
        }
        w
    }

    #[test]
    fn erase_add_write_has_the_same_bits_on_every_tier() {
        for (seed, &cols) in LENGTHS.iter().enumerate() {
            for rows in [1usize, 7, 16] {
                let seed = seed as u64 * 31 + rows as u64;
                let memory = Matrix::from_vec(rows, cols, hostile_row(seed, rows * cols));
                let w = weighting(seed + 1, rows);
                let (erase, write) = (hostile_row(seed + 2, cols), hostile_row(seed + 3, cols));
                let mut want = memory.clone();
                let wrote = erase_add_reference(&mut want, &w, &erase, &write);
                let what = format!("memory write {rows}x{cols}");
                assert_same_bits(&what, bits(want.as_slice()), |tier| {
                    let mut got = memory.clone();
                    let wrote_here = erase_add_write_on(tier, &mut got, &w, &erase, &write);
                    assert_eq!(wrote_here, wrote, "{what}");
                    bits(got.as_slice())
                });
            }
        }
        // No row written: nothing moves, whatever the rows hold.
        let mut memory = Matrix::filled(3, 20, f32::NAN);
        assert!(!erase_add_write(&mut memory, &[0.0, -0.0, 0.0], &[1.0; 20], &[1.0; 20]));
    }

    #[test]
    fn linkage_update_has_the_same_bits_on_every_tier() {
        for (seed, &n) in LENGTHS.iter().enumerate() {
            let seed = seed as u64 * 17;
            let linkage = Matrix::from_vec(n, n, hostile_row(seed, n * n));
            let (p, w) = (hostile_row(seed + 1, n), weighting(seed + 2, n));
            let mut want = linkage.clone();
            linkage_reference(&mut want, &p, &w);
            assert_same_bits(&format!("linkage update N={n}"), bits(want.as_slice()), |tier| {
                let mut got = linkage.clone();
                linkage_update_on(tier, &mut got, &p, &w);
                bits(got.as_slice())
            });
        }
    }

    #[test]
    #[should_panic(expected = "linkage shape mismatch")]
    fn linkage_update_rejects_a_non_square_linkage() {
        linkage_update(&mut Matrix::zeros(3, 4), &[0.0; 3], &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "erase vector length mismatch")]
    fn erase_add_write_rejects_a_short_erase_vector() {
        erase_add_write(&mut Matrix::zeros(2, 4), &[0.0; 2], &[0.0; 3], &[0.0; 4]);
    }
}
