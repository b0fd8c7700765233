//! Block-sparse Floyd-Warshall — the §7 "structured sparse graphs"
//! direction (supernodal APSP, the paper's reference \[31\]).
//!
//! Same three-phase structure as Algorithm 2, but each phase touches only
//! *materialized* blocks:
//!
//! * DiagUpdate closes `A(k,k)` (materializing it — the diagonal always
//!   fills);
//! * PanelUpdate runs over the present blocks of block row/column `k`;
//! * the outer product runs over the cross product of present panel blocks:
//!   `A(i,j) ⊕= A(i,k) ⊗ A(k,j)` only when **both** `A(i,k)` and `A(k,j)`
//!   exist — an absent operand is all-∞ and annihilates. The output block
//!   is materialized on demand (fill-in), exactly like the numerical
//!   fill-in of a sparse factorization.
//!
//! On banded or clustered graphs this does asymptotically less work than
//! dense FW; on strongly connected graphs everything fills and it converges
//! to the dense cost plus bookkeeping (the crossover the supernodal paper
//! studies). `FillStats` reports how much structure survived.

use srgemm::block_sparse::{bsp_gemm_block, BlockSparseMatrix};
use srgemm::closure::fw_closure;
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;

/// Fill statistics of a sparse run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FillStats {
    /// Blocks materialized in the input.
    pub input_blocks: usize,
    /// Blocks materialized at completion (≥ input).
    pub output_blocks: usize,
    /// Total block-level GEMM calls performed.
    pub block_gemms: usize,
    /// Block-GEMMs a dense run of the same shape would perform.
    pub dense_block_gemms: usize,
}

impl FillStats {
    /// Fraction of dense work actually performed (≤ 1).
    pub fn work_ratio(&self) -> f64 {
        if self.dense_block_gemms == 0 {
            return 0.0;
        }
        self.block_gemms as f64 / self.dense_block_gemms as f64
    }
}

/// In-place block-sparse Floyd-Warshall.
///
/// # Panics
/// Panics for non-idempotent semirings (same contract as the dense solver).
pub fn fw_block_sparse<S: Semiring>(a: &mut BlockSparseMatrix<S::Elem>) -> FillStats {
    assert!(
        S::IDEMPOTENT_ADD,
        "blocked FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let nb = a.nb();
    let mut stats = FillStats {
        input_blocks: a.nnz_blocks(),
        output_blocks: 0,
        block_gemms: 0,
        dense_block_gemms: nb * nb * nb,
    };

    for k in 0..nb {
        // ----- DiagUpdate (always materializes the diagonal) -----
        {
            let diag = a.block_mut(k, k);
            fw_closure::<S>(&mut diag.view_mut());
        }
        let diag = a.block(k, k).expect("diagonal materialized").clone();

        // ----- PanelUpdate over present panel blocks -----
        for j in a.blocks_in_row(k) {
            if j != k {
                let blk = a.block_mut(k, j);
                panel_update_left::<S>(&mut blk.view_mut(), &diag.view());
            }
        }
        for i in a.blocks_in_col(k) {
            if i != k {
                let blk = a.block_mut(i, k);
                panel_update_right::<S>(&mut blk.view_mut(), &diag.view());
            }
        }

        // ----- MinPlus outer product over present (i,k) × (k,j) pairs -----
        let rows: Vec<usize> = a.blocks_in_col(k);
        let cols: Vec<usize> = a.blocks_in_row(k);
        for &i in &rows {
            if i == k {
                continue;
            }
            let aik = a.block(i, k).expect("present").clone();
            for &j in &cols {
                if j == k {
                    continue;
                }
                let akj = a.block(k, j).expect("present").clone();
                bsp_gemm_block::<S>(a, i, j, &aik, &akj);
                stats.block_gemms += 1;
            }
        }
    }

    stats.output_blocks = a.nnz_blocks();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::graph::GraphBuilder;
    use srgemm::MinPlusF32;

    const INF: f32 = f32::INFINITY;

    fn sparse_of(dense: &srgemm::Matrix<f32>, b: usize) -> BlockSparseMatrix<f32> {
        BlockSparseMatrix::from_dense(dense, b, INF)
    }

    #[test]
    fn matches_dense_fw_on_random_sparse_graph() {
        let g = generators::erdos_renyi(30, 0.1, WeightKind::small_ints(), 44);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut sp = sparse_of(&g.to_dense(), 6);
        fw_block_sparse::<MinPlusF32>(&mut sp);
        assert!(sp.to_dense().eq_exact(&want));
    }

    #[test]
    fn matches_dense_fw_on_dense_graph() {
        let g = generators::uniform_dense(24, WeightKind::small_ints(), 45);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut sp = sparse_of(&g.to_dense(), 5);
        let stats = fw_block_sparse::<MinPlusF32>(&mut sp);
        assert!(sp.to_dense().eq_exact(&want));
        // dense input ⇒ essentially the dense work
        assert!(stats.work_ratio() > 0.5);
    }

    #[test]
    fn banded_graph_skips_most_block_work() {
        // path graph (bandwidth 1): blocks fill only near the diagonal
        // *during early iterations*; overall work ≪ dense
        let n = 64;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_undirected(i, i + 1, 1.0);
        }
        let g = b.build();
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut sp = sparse_of(&g.to_dense(), 8);
        let stats = fw_block_sparse::<MinPlusF32>(&mut sp);
        assert!(sp.to_dense().eq_exact(&want));
        // a path is connected: output fully fills...
        assert_eq!(stats.output_blocks, 8 * 8);
        // ...but early iterations operate on thin panels, so total block
        // GEMMs stay below the dense count
        assert!(
            stats.block_gemms < stats.dense_block_gemms,
            "{} !< {}",
            stats.block_gemms,
            stats.dense_block_gemms
        );
    }

    #[test]
    fn disconnected_clusters_never_fill_across() {
        let g = generators::multi_component(24, 3, WeightKind::small_ints(), 46);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut sp = sparse_of(&g.to_dense(), 4); // blocks align with the 8-vertex clusters
        let stats = fw_block_sparse::<MinPlusF32>(&mut sp);
        assert!(sp.to_dense().eq_exact(&want));
        // cross-cluster blocks must never materialize (minus pruned zeros):
        // 3 clusters of 2 block-rows each → 3 · 4 = 12 intra blocks of 36
        sp.prune();
        assert_eq!(sp.nnz_blocks(), 12);
        assert!(stats.work_ratio() < 0.2, "ratio {}", stats.work_ratio());
    }

    #[test]
    fn fill_in_is_monotone() {
        let g = generators::erdos_renyi(20, 0.15, WeightKind::small_ints(), 47);
        let mut sp = sparse_of(&g.to_dense(), 4);
        let before = sp.nnz_blocks();
        let stats = fw_block_sparse::<MinPlusF32>(&mut sp);
        assert!(stats.output_blocks >= before);
        assert_eq!(stats.input_blocks, before);
    }

    #[test]
    fn ragged_blocks_and_tiny_sizes() {
        for (n, b) in [(7usize, 3usize), (5, 5), (9, 2), (1, 4), (7, 1), (7, 16), (70, 3)] {
            let g = generators::erdos_renyi(n, 0.4, WeightKind::small_ints(), (n * b) as u64);
            let mut want = g.to_dense();
            fw_seq::<MinPlusF32>(&mut want);
            let mut sp = sparse_of(&g.to_dense(), b);
            fw_block_sparse::<MinPlusF32>(&mut sp);
            assert!(sp.to_dense().eq_exact(&want), "n={n} b={b}");
        }
    }
}
