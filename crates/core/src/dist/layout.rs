//! Block-cyclic distributed distance matrix (paper §2.5.1).
//!
//! Block `(i, j)` of the `n×n` matrix (blocks of `b×b`, the last block row
//! and column possibly ragged) lives on the rank with grid coordinates
//! `(i mod P_r, j mod P_c)`. Each rank stores its blocks packed into one
//! contiguous local matrix, so the k-th panel strips and the whole-matrix
//! outer product are plain sub-views — the same reason the GPU
//! implementation packs local blocks into single device allocations.

use mpi_sim::{CommError, ProcessGrid};
use srgemm::matrix::{Matrix, View, ViewMut};

/// One rank's share of a block-cyclic distributed square matrix.
#[derive(Clone)]
pub struct DistMatrix<T> {
    /// Global matrix order.
    pub n: usize,
    /// Block size.
    pub b: usize,
    /// Number of block rows/cols (`⌈n/b⌉`).
    pub nb: usize,
    /// Process-grid dims.
    pub pr: usize,
    /// Process-grid dims.
    pub pc: usize,
    /// This rank's grid coordinates.
    pub my_r: usize,
    /// This rank's grid coordinates.
    pub my_c: usize,
    /// Packed local data: my block rows × my block cols.
    pub local: Matrix<T>,
}

impl<T: Copy> DistMatrix<T> {
    /// Slice this rank's blocks out of a replicated global matrix.
    /// (Test- and example-scale construction; a production scatter would
    /// stream blocks, but ownership math is identical.)
    pub fn from_global(global: &Matrix<T>, b: usize, pr: usize, pc: usize, my_r: usize, my_c: usize) -> Self {
        let n = global.rows();
        assert_eq!(n, global.cols(), "matrix must be square");
        assert!(b > 0, "block size must be positive");
        let nb = n.div_ceil(b);
        let my_rows: Vec<usize> = (my_r..nb).step_by(pr).collect();
        let my_cols: Vec<usize> = (my_c..nb).step_by(pc).collect();
        let dim = |k: usize| b.min(n - k * b);
        let lrows: usize = my_rows.iter().map(|&k| dim(k)).sum();
        let lcols: usize = my_cols.iter().map(|&k| dim(k)).sum();
        if n == 0 {
            let local = Matrix::from_vec(0, 0, Vec::new());
            return DistMatrix { n, b, nb, pr, pc, my_r, my_c, local };
        }
        let mut local = Matrix::filled(lrows, lcols, global[(0, 0)]);
        let mut ro = 0;
        for &i in &my_rows {
            let bi = dim(i);
            let mut co = 0;
            for &j in &my_cols {
                let bj = dim(j);
                let src = global.subview(i * b, j * b, bi, bj);
                local.subview_mut(ro, co, bi, bj).copy_from(&src);
                co += bj;
            }
            ro += bi;
        }
        DistMatrix { n, b, nb, pr, pc, my_r, my_c, local }
    }

    /// Rows/cols of global block `k` (`b`, or the ragged remainder).
    #[inline]
    pub fn block_dim(&self, k: usize) -> usize {
        self.b.min(self.n - k * self.b)
    }

    /// Does this rank's process row own block row `k`?
    #[inline]
    pub fn owns_row(&self, k: usize) -> bool {
        k % self.pr == self.my_r
    }

    /// Does this rank's process column own block column `k`?
    #[inline]
    pub fn owns_col(&self, k: usize) -> bool {
        k % self.pc == self.my_c
    }

    /// Local row offset of owned block row `k`. Only the last global block
    /// is ragged, so owned block `k` starts at `(k / P_r) · b`.
    #[inline]
    pub fn local_row_start(&self, k: usize) -> usize {
        debug_assert!(self.owns_row(k));
        (k / self.pr) * self.b
    }

    /// Local column offset of owned block column `k`.
    #[inline]
    pub fn local_col_start(&self, k: usize) -> usize {
        debug_assert!(self.owns_col(k));
        (k / self.pc) * self.b
    }

    /// The k-th block-row strip (all my columns), immutable.
    pub fn row_strip(&self, k: usize) -> View<'_, T> {
        let r0 = self.local_row_start(k);
        self.local.subview(r0, 0, self.block_dim(k), self.local.cols())
    }

    /// The k-th block-row strip, mutable.
    pub fn row_strip_mut(&mut self, k: usize) -> ViewMut<'_, T> {
        let r0 = self.local_row_start(k);
        let bk = self.block_dim(k);
        let w = self.local.cols();
        self.local.subview_mut(r0, 0, bk, w)
    }

    /// The k-th block-column strip (all my rows), immutable.
    pub fn col_strip(&self, k: usize) -> View<'_, T> {
        let c0 = self.local_col_start(k);
        self.local.subview(0, c0, self.local.rows(), self.block_dim(k))
    }

    /// The k-th block-column strip, mutable.
    pub fn col_strip_mut(&mut self, k: usize) -> ViewMut<'_, T> {
        let c0 = self.local_col_start(k);
        let bk = self.block_dim(k);
        let h = self.local.rows();
        self.local.subview_mut(0, c0, h, bk)
    }

    /// Owned diagonal block `(k, k)`, mutable.
    pub fn diag_block_mut(&mut self, k: usize) -> ViewMut<'_, T> {
        let r0 = self.local_row_start(k);
        let c0 = self.local_col_start(k);
        let bk = self.block_dim(k);
        self.local.subview_mut(r0, c0, bk, bk)
    }

    /// Owned diagonal block `(k, k)`, immutable.
    pub fn diag_block(&self, k: usize) -> View<'_, T> {
        let r0 = self.local_row_start(k);
        let c0 = self.local_col_start(k);
        let bk = self.block_dim(k);
        self.local.subview(r0, c0, bk, bk)
    }
}

impl<T: Copy + Send + Sync + 'static> DistMatrix<T> {
    /// Collect the full matrix on grid rank 0 (`Ok(Some)` there, `Ok(None)`
    /// elsewhere). Collective over `grid.grid`; a lost or failed peer
    /// surfaces as the typed [`CommError`].
    pub fn gather(&self, grid: &ProcessGrid) -> Result<Option<Matrix<T>>, CommError> {
        let Some(locals) = grid.grid.gather(0, self.local.as_slice().to_vec())? else {
            return Ok(None);
        };
        if self.n == 0 {
            return Ok(Some(Matrix::from_vec(0, 0, Vec::new())));
        }
        // rank 0 always owns block (0,0), so its local matrix is non-empty here
        let fill = self.local.as_slice()[0];
        let mut out = Matrix::filled(self.n, self.n, fill);
        let dim = |k: usize| self.b.min(self.n - k * self.b);
        // gathered in grid-rank order: rank = r · pc + c
        for (rank, data) in locals.into_iter().enumerate() {
            let (r, c) = (rank / self.pc, rank % self.pc);
            let lrows: usize = (r..self.nb).step_by(self.pr).map(dim).sum();
            let lcols: usize = (c..self.nb).step_by(self.pc).map(dim).sum();
            assert_eq!(data.len(), lrows * lcols, "gather size mismatch from rank {rank}");
            if lrows == 0 || lcols == 0 {
                continue;
            }
            let lm = Matrix::from_vec(lrows, lcols, data);
            for (li, i) in (r..self.nb).step_by(self.pr).enumerate() {
                for (lj, j) in (c..self.nb).step_by(self.pc).enumerate() {
                    let src = lm.subview(li * self.b, lj * self.b, dim(i), dim(j));
                    out.set_block(i * self.b, j * self.b, &src);
                }
            }
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::Runtime;

    fn iota(n: usize) -> Matrix<i64> {
        Matrix::from_fn(n, n, |i, j| (i * n + j) as i64)
    }

    #[test]
    fn from_global_slices_block_cyclically() {
        let g = iota(10);
        // 2x2 grid, b=3: rank (0,0) owns block rows {0,2}, cols {0,2}
        let d = DistMatrix::from_global(&g, 3, 2, 2, 0, 0);
        assert_eq!(d.nb, 4);
        // local rows: blocks 0 (3) + 2 (3) = 6; block 3 ragged (1) belongs to row 1
        assert_eq!(d.local.rows(), 6);
        assert_eq!(d.local.cols(), 6);
        assert_eq!(d.local[(0, 0)], g[(0, 0)]);
        // local (3,3) = block (2,2) origin = global (6,6)
        assert_eq!(d.local[(3, 3)], g[(6, 6)]);
    }

    #[test]
    fn ragged_tail_blocks_land_correctly() {
        let g = iota(7);
        let d = DistMatrix::from_global(&g, 3, 2, 2, 1, 1); // owns block rows {1}, cols {1}
        assert_eq!(d.block_dim(2), 1);
        assert_eq!(d.local.rows(), 3); // block row 1 of size 3
        assert_eq!(d.local[(0, 0)], g[(3, 3)]);
    }

    #[test]
    fn strips_address_the_kth_panels() {
        let g = iota(12);
        let d = DistMatrix::from_global(&g, 3, 2, 2, 0, 1); // rows {0,2}, cols {1,3}
        let rs = d.row_strip(2); // block row 2, local row offset = 3
        assert_eq!(rs.rows(), 3);
        assert_eq!(rs.cols(), 6);
        assert_eq!(rs.at(0, 0), g[(6, 3)]); // local col 0 = block col 1
        let cs = d.col_strip(3); // block col 3, local col offset = 3
        assert_eq!(cs.cols(), 3);
        assert_eq!(cs.at(0, 0), g[(0, 9)]);
    }

    #[test]
    fn gather_round_trips_for_several_grids_and_sizes() {
        for (pr, pc, n, b) in [(1, 1, 5, 2), (2, 2, 10, 3), (2, 3, 13, 4), (3, 2, 9, 3)] {
            let g = iota(n);
            let got = Runtime::new(pr * pc).run(|comm| {
                let grid = ProcessGrid::new(comm, pr, pc);
                let (r, c) = grid.coords();
                let d = DistMatrix::from_global(&g, b, pr, pc, r, c);
                d.gather(&grid).unwrap()
            });
            let root = got[0].clone().expect("root gathers");
            assert!(root.eq_exact(&g), "grid {pr}x{pc} n={n} b={b}");
            assert!(got[1..].iter().all(|o| o.is_none()));
        }
    }
}
