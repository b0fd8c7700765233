//! Block-sparse matrices over a semiring.
//!
//! Support for the paper's §7 direction "add support of structured sparse
//! graphs, where exploiting sparsity becomes paramount" (the supernodal
//! APSP of Sao et al., PPoPP'20, reference \[31\]). The distance matrix is
//! tiled into `b × b` blocks and only blocks containing at least one
//! non-`0̄` entry are materialized; an absent block is semantically the
//! all-`0̄` (all-∞ for min-plus) block, which annihilates under ⊗ and is
//! the identity under ⊕ — so block-sparse kernels simply skip it.
//!
//! Floyd-Warshall creates *fill-in* (blocks that become finite during the
//! elimination); [`BlockSparseMatrix`] materializes fill blocks lazily, the
//! same way sparse direct solvers grow their supernodal structure.

use std::collections::BTreeMap;

use crate::matrix::Matrix;
use crate::semiring::Semiring;

/// A square block-sparse matrix with `b × b` tiles (the trailing block row
/// and column may be ragged). Blocks are keyed `(block_row, block_col)` in
/// a BTreeMap for deterministic iteration.
#[derive(Clone)]
pub struct BlockSparseMatrix<T> {
    n: usize,
    b: usize,
    nb: usize,
    zero: T,
    blocks: BTreeMap<(u32, u32), Matrix<T>>,
}

impl<T: Copy + PartialEq> BlockSparseMatrix<T> {
    /// Empty (all-`0̄`) matrix of order `n` with block size `b`.
    pub fn new(n: usize, b: usize, zero: T) -> Self {
        assert!(b > 0, "block size must be positive");
        BlockSparseMatrix {
            n,
            b,
            nb: n.div_ceil(b),
            zero,
            blocks: BTreeMap::new(),
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of block rows/cols.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of materialized blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Fraction of blocks materialized (1.0 = fully dense).
    pub fn block_density(&self) -> f64 {
        if self.nb == 0 {
            return 0.0;
        }
        self.blocks.len() as f64 / (self.nb * self.nb) as f64
    }

    /// Rows/cols of block index `k`.
    pub fn block_dim(&self, k: usize) -> usize {
        self.b.min(self.n - k * self.b)
    }

    /// Read one element.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (bi, bj) = (i / self.b, j / self.b);
        match self.blocks.get(&(bi as u32, bj as u32)) {
            Some(blk) => blk[(i % self.b, j % self.b)],
            None => self.zero,
        }
    }

    /// Write one element, materializing its block if needed.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let (bi, bj) = (i / self.b, j / self.b);
        let (ri, rj) = (self.block_dim(bi), self.block_dim(bj));
        let zero = self.zero;
        let blk = self
            .blocks
            .entry((bi as u32, bj as u32))
            .or_insert_with(|| Matrix::filled(ri, rj, zero));
        blk[(i % self.b, j % self.b)] = v;
    }

    /// Borrow block `(bi, bj)` if materialized.
    pub fn block(&self, bi: usize, bj: usize) -> Option<&Matrix<T>> {
        self.blocks.get(&(bi as u32, bj as u32))
    }

    /// Mutably borrow block `(bi, bj)`, materializing an all-`0̄` block if
    /// absent.
    pub fn block_mut(&mut self, bi: usize, bj: usize) -> &mut Matrix<T> {
        let (ri, rj) = (self.block_dim(bi), self.block_dim(bj));
        let zero = self.zero;
        self.blocks
            .entry((bi as u32, bj as u32))
            .or_insert_with(|| Matrix::filled(ri, rj, zero))
    }

    /// Materialized block coordinates in block row `k`.
    pub fn blocks_in_row(&self, k: usize) -> Vec<usize> {
        self.blocks
            .range((k as u32, 0)..=(k as u32, u32::MAX))
            .map(|(&(_, j), _)| j as usize)
            .collect()
    }

    /// Materialized block coordinates in block column `k`.
    pub fn blocks_in_col(&self, k: usize) -> Vec<usize> {
        // column scan: BTreeMap is row-major, so filter (O(blocks))
        self.blocks
            .keys()
            .filter(|&&(_, j)| j as usize == k)
            .map(|&(i, _)| i as usize)
            .collect()
    }

    /// Drop blocks that are entirely `0̄` (post-pass hygiene).
    pub fn prune(&mut self) {
        let zero = self.zero;
        self.blocks.retain(|_, blk| blk.as_slice().iter().any(|&v| v != zero));
    }

    /// Densify.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut out = Matrix::filled(self.n, self.n, self.zero);
        for (&(bi, bj), blk) in &self.blocks {
            out.set_block(bi as usize * self.b, bj as usize * self.b, &blk.view());
        }
        out
    }

    /// Build from a coordinate entry list, seeding the whole diagonal with
    /// `diag` first (materializing every diagonal block). Duplicate
    /// coordinates keep the last write, except that a diagonal entry never
    /// rises above its seed — the same `D[i][i] = min(diag, w(i,i))`
    /// semantics as a dense distance matrix. This is the direct
    /// graph-to-block-sparse path: no `O(n²)` dense detour, and callers no
    /// longer hand-seed zero diagonals after `from_dense`.
    pub fn from_entries<I>(n: usize, b: usize, zero: T, diag: T, entries: I) -> Self
    where
        T: PartialOrd,
        I: IntoIterator<Item = (usize, usize, T)>,
    {
        let mut out = BlockSparseMatrix::new(n, b, zero);
        for i in 0..n {
            out.set(i, i, diag);
        }
        for (i, j, v) in entries {
            if i == j {
                let cur = out.get(i, i);
                if v < cur {
                    out.set(i, i, v);
                }
            } else {
                out.set(i, j, v);
            }
        }
        out
    }

    /// Build from a dense matrix, materializing only blocks with at least
    /// one non-`0̄` entry.
    pub fn from_dense(dense: &Matrix<T>, b: usize, zero: T) -> Self {
        assert_eq!(dense.rows(), dense.cols(), "matrix must be square");
        let n = dense.rows();
        let mut out = BlockSparseMatrix::new(n, b, zero);
        for bi in 0..out.nb {
            for bj in 0..out.nb {
                let (ri, rj) = (out.block_dim(bi), out.block_dim(bj));
                let view = dense.subview(bi * b, bj * b, ri, rj);
                let has_data = (0..ri).any(|r| view.row(r).iter().any(|&v| v != zero));
                if has_data {
                    out.blocks.insert((bi as u32, bj as u32), view.to_matrix());
                }
            }
        }
        out
    }
}

/// Block-level `C(bi,bj) ← C(bi,bj) ⊕ A ⊗ B` where the output block is
/// materialized on demand (fill-in).
pub fn bsp_gemm_block<S: Semiring>(
    c: &mut BlockSparseMatrix<S::Elem>,
    bi: usize,
    bj: usize,
    a: &Matrix<S::Elem>,
    b: &Matrix<S::Elem>,
) {
    let blk = c.block_mut(bi, bj);
    crate::gemm::gemm_packed::<S>(&mut blk.view_mut(), &a.view(), &b.view());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlus, Semiring};

    type MP = MinPlus<f32>;
    const INF: f32 = f32::INFINITY;

    #[test]
    fn empty_matrix_reads_zero_everywhere() {
        let m = BlockSparseMatrix::new(10, 3, INF);
        assert_eq!(m.nnz_blocks(), 0);
        assert_eq!(m.get(7, 2), INF);
        assert_eq!(m.block_density(), 0.0);
    }

    #[test]
    fn set_materializes_one_block() {
        let mut m = BlockSparseMatrix::new(10, 3, INF);
        m.set(4, 7, 2.5);
        assert_eq!(m.nnz_blocks(), 1);
        assert_eq!(m.get(4, 7), 2.5);
        assert_eq!(m.get(4, 6), INF); // same block, untouched
        assert_eq!(m.get(0, 0), INF); // other block, absent
    }

    #[test]
    fn dense_round_trip_preserves_data_and_sparsity() {
        let mut dense = Matrix::filled(9, 9, INF);
        dense[(0, 0)] = 0.0;
        dense[(8, 8)] = 0.0;
        dense[(2, 7)] = 5.0;
        let sp = BlockSparseMatrix::from_dense(&dense, 3, INF);
        // blocks (0,0), (2,2), (0,2) → 3 of 9
        assert_eq!(sp.nnz_blocks(), 3);
        assert!(sp.to_dense().eq_exact(&dense));
    }

    #[test]
    fn ragged_tail_blocks() {
        let mut m = BlockSparseMatrix::new(7, 3, INF);
        assert_eq!(m.nb(), 3);
        assert_eq!(m.block_dim(2), 1);
        m.set(6, 6, 1.0);
        assert_eq!(m.block(2, 2).expect("materialized").rows(), 1);
        assert!(m.to_dense().eq_exact(&{
            let mut d = Matrix::filled(7, 7, INF);
            d[(6, 6)] = 1.0;
            d
        }));
    }

    #[test]
    fn row_and_col_scans() {
        let mut m = BlockSparseMatrix::new(12, 3, INF);
        m.set(0, 0, 1.0); // block (0,0)
        m.set(0, 9, 1.0); // block (0,3)
        m.set(9, 0, 1.0); // block (3,0)
        assert_eq!(m.blocks_in_row(0), vec![0, 3]);
        assert_eq!(m.blocks_in_col(0), vec![0, 3]);
        assert!(m.blocks_in_row(1).is_empty());
    }

    #[test]
    fn prune_drops_all_zero_blocks() {
        let mut m = BlockSparseMatrix::new(6, 3, INF);
        let _ = m.block_mut(0, 0); // materialize all-∞
        m.set(3, 3, 1.0);
        assert_eq!(m.nnz_blocks(), 2);
        m.prune();
        assert_eq!(m.nnz_blocks(), 1);
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    fn bsp_gemm_creates_fill_in() {
        let mut c = BlockSparseMatrix::new(4, 2, INF);
        let a = Matrix::from_rows(&[&[1.0f32, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0f32, 1.0], &[1.0, 0.0]]);
        assert_eq!(c.nnz_blocks(), 0);
        bsp_gemm_block::<MP>(&mut c, 1, 1, &a, &b);
        assert_eq!(c.nnz_blocks(), 1);
        assert_eq!(c.get(2, 2), 1.0); // min(1+0, 2+1)
    }

    #[test]
    fn get_set_agree_with_zero_identity() {
        let mut m = BlockSparseMatrix::new(5, 2, MP::zero());
        m.set(1, 3, 7.0);
        assert_eq!(m.get(1, 3), 7.0);
        m.set(1, 3, MP::zero());
        m.prune();
        assert_eq!(m.nnz_blocks(), 0);
    }

    #[test]
    fn from_entries_seeds_every_diagonal_entry() {
        let m = BlockSparseMatrix::from_entries(7, 3, INF, 0.0, std::iter::empty());
        for i in 0..7 {
            assert_eq!(m.get(i, i), 0.0);
        }
        // all 3 (ragged) diagonal blocks materialized, nothing else
        assert_eq!(m.nnz_blocks(), 3);
        assert_eq!(m.get(0, 6), INF);
    }

    #[test]
    fn from_entries_diagonal_takes_min_with_seed() {
        // positive self-loop never beats the zero seed; negative one wins —
        // the same semantics as Graph::to_dense
        let entries = vec![(0usize, 0usize, 5.0f32), (1, 1, -2.0), (0, 2, 1.5)];
        let m = BlockSparseMatrix::from_entries(3, 2, INF, 0.0, entries);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 1), -2.0);
        assert_eq!(m.get(0, 2), 1.5);
    }

    #[test]
    fn from_entries_matches_seeded_from_dense() {
        // the constructor replaces from_dense + manual zero-diagonal
        // seeding; both routes must agree element-for-element
        let entries = [(0usize, 4usize, 2.0f32), (4, 0, 3.0), (2, 3, 1.0)];
        let mut dense = Matrix::filled(5, 5, INF);
        for i in 0..5 {
            dense[(i, i)] = 0.0;
        }
        for &(i, j, v) in &entries {
            dense[(i, j)] = v;
        }
        let direct = BlockSparseMatrix::from_entries(5, 2, INF, 0.0, entries.iter().copied());
        let mut via_dense = BlockSparseMatrix::from_dense(&dense, 2, INF);
        for i in 0..5 {
            via_dense.set(i, i, 0.0);
        }
        assert!(direct.to_dense().eq_exact(&via_dense.to_dense()));
    }
}
