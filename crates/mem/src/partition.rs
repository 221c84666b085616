//! The submatrix-wise partition: `N_t = N_t^h × N_t^w` blocks.

use std::fmt;

/// A submatrix-wise partition into `rows × cols` tile blocks.
///
/// `Partition::new(n_t, 1)` is the row-wise split, `Partition::new(1, n_t)`
/// the column-wise split; everything in between is a general submatrix
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    rows: usize,
    cols: usize,
}

impl Partition {
    /// Creates an `rows × cols` block partition.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "partition dimensions must be positive");
        Self { rows, cols }
    }

    /// Row-wise partition over `n_t` tiles (`N_t^h = N_t`, `N_t^w = 1`).
    pub fn row_wise(n_t: usize) -> Self {
        Self::new(n_t, 1)
    }

    /// Block rows `N_t^h`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Block columns `N_t^w`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total tiles `N_t = N_t^h · N_t^w`.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether this is the row-wise special case.
    pub fn is_row_wise(&self) -> bool {
        self.cols == 1
    }

    /// All factorizations `h × w = n_t`, ordered by increasing `w`.
    pub fn factorizations(n_t: usize) -> Vec<Partition> {
        assert!(n_t > 0, "need at least one tile");
        (1..=n_t)
            .filter(|w| n_t.is_multiple_of(*w))
            .map(|w| Partition::new(n_t / w, w))
            .collect()
    }

    /// Tile index owning matrix element `(i, j)` of an `n × m` matrix,
    /// numbering tiles row-major over blocks — the element-by-element
    /// reference [`Partition::block_shape`] is checked against.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    #[cfg(test)]
    fn tile_of(&self, i: usize, j: usize, n: usize, m: usize) -> usize {
        assert!(i < n && j < m, "element ({i},{j}) outside {n}x{m}");
        let block_h = n.div_ceil(self.rows);
        let block_w = m.div_ceil(self.cols);
        let bi = (i / block_h).min(self.rows - 1);
        let bj = (j / block_w).min(self.cols - 1);
        bi * self.cols + bj
    }

    /// Shape `(rows, cols)` of the block owned by tile `t` for an `n × m`
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if `t >= tiles()`.
    pub(crate) fn block_shape(&self, t: usize, n: usize, m: usize) -> (usize, usize) {
        assert!(t < self.tiles(), "tile {t} out of range");
        let (bi, bj) = (t / self.cols, t % self.cols);
        let block_h = n.div_ceil(self.rows);
        let block_w = m.div_ceil(self.cols);
        let h = block_h.min(n.saturating_sub(bi * block_h));
        let w = block_w.min(m.saturating_sub(bj * block_w));
        (h, w)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_cases() {
        assert!(Partition::row_wise(8).is_row_wise());
        assert_eq!(Partition::row_wise(8).tiles(), 8);
        assert_eq!(Partition::new(4, 4).tiles(), 16);
    }

    #[test]
    fn factorizations_of_16() {
        let f = Partition::factorizations(16);
        let shapes: Vec<(usize, usize)> = f.iter().map(|p| (p.rows(), p.cols())).collect();
        assert_eq!(shapes, vec![(16, 1), (8, 2), (4, 4), (2, 8), (1, 16)]);
    }

    #[test]
    fn factorizations_of_prime() {
        let f = Partition::factorizations(7);
        assert_eq!(f.len(), 2, "only row- and column-wise for primes");
    }

    #[test]
    fn tile_of_row_wise() {
        let p = Partition::row_wise(4);
        // 8 rows over 4 tiles: 2 rows per tile.
        assert_eq!(p.tile_of(0, 3, 8, 4), 0);
        assert_eq!(p.tile_of(2, 0, 8, 4), 1);
        assert_eq!(p.tile_of(7, 3, 8, 4), 3);
    }

    #[test]
    fn tile_of_submatrix() {
        let p = Partition::new(2, 2);
        // 4x4 matrix in 2x2 blocks of 2x2.
        assert_eq!(p.tile_of(0, 0, 4, 4), 0);
        assert_eq!(p.tile_of(0, 2, 4, 4), 1);
        assert_eq!(p.tile_of(2, 0, 4, 4), 2);
        assert_eq!(p.tile_of(3, 3, 4, 4), 3);
    }

    #[test]
    fn every_element_maps_to_exactly_one_tile() {
        let p = Partition::new(3, 2);
        let (n, m) = (10, 7);
        let mut counts = vec![0usize; p.tiles()];
        for i in 0..n {
            for j in 0..m {
                counts[p.tile_of(i, j, n, m)] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), n * m);
        // Block shapes agree with the element counts.
        for (t, &count) in counts.iter().enumerate() {
            let (h, w) = p.block_shape(t, n, m);
            assert_eq!(count, h * w, "tile {t}");
        }
    }

    #[test]
    fn block_shapes_tile_the_matrix() {
        let p = Partition::new(4, 4);
        let total: usize = (0..16).map(|t| {
            let (h, w) = p.block_shape(t, 1024, 1024);
            h * w
        }).sum();
        assert_eq!(total, 1024 * 1024);
        assert_eq!(p.block_shape(0, 1024, 1024), (256, 256));
    }

    #[test]
    fn display_format() {
        assert_eq!(Partition::new(4, 4).to_string(), "4x4");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero() {
        Partition::new(0, 4);
    }
}
