//! Blocked Floyd-Warshall (paper Algorithm 2), single node.
//!
//! Per block-iteration `k`: DiagUpdate closes `A(k,k)`, PanelUpdate fixes the
//! k-th block row and column, and the MinPlus outer product updates the rest
//! of the matrix. Every phase runs in place on views of the matrix, split
//! into the 3 × 3 bands around block `k`: the diagonal block is read as a
//! view by PanelUpdate, and OuterUpdate covers only `i ∉ k, j ∉ k` as up to
//! four quadrant GEMMs (above/below × left/right of block `k`), each taking
//! its `A` straight from the column panel beside it.
//!
//! The outer product consumes the two halves of the row panel (left and
//! right of the diagonal block) through two [`PackedB`]s, packed from the
//! matrix into the micro-kernel's tiled layout **once per iteration**
//! (reusing their allocations across all `nb` iterations via
//! [`PackedB::repack`]) and streamed by the two quadrants below and above
//! them and every row slab of those GEMMs, at any thread count — the
//! single-node form of the per-`k` panel reuse the distributed driver
//! performs on its broadcast panels. That repack is the iteration's only
//! copy.
//!
//! Each iteration opens the paper's phase spans (`DiagUpdate`,
//! `PanelUpdate`, `OuterUpdate`, with the repack as `pack` inside the last)
//! on the calling thread's `apsp_trace` recorder.

use apsp_trace::span;
use srgemm::closure::fw_closure;
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::Matrix;
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;

/// The DiagUpdate choice `benchmark/src/layers.rs` still names when it calls
/// [`fw_blocked`]. [`srgemm::closure::fw_closure`] is the one DiagUpdate
/// kernel; this enum and the wrapper below are deleted by the next
/// `[benchmark]` PR, once that file stops naming them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagMethod {
    /// Classic `O(b³)` Floyd-Warshall on the block.
    FwClosure,
}

/// [`fw_blocked_threads`] behind the signature `benchmark/src/layers.rs`
/// compiles against: `parallel` means every core of the host, otherwise one
/// thread. A change outside `benchmark/` may not edit that file, so this
/// wrapper stays until the next `[benchmark]` PR moves the call over and
/// deletes it with [`DiagMethod`]; nothing else in the workspace calls it.
pub fn fw_blocked<S: Semiring>(d: &mut Matrix<S::Elem>, b: usize, _: DiagMethod, parallel: bool) {
    fw_blocked_threads::<S>(d, b, if parallel { crate::host_threads() } else { 1 })
}

/// In-place blocked Floyd-Warshall with block size `b`, its GEMMs on at
/// most `threads` kernel threads.
///
/// # Panics
/// Panics if `d` is not square or `b == 0`.
pub fn fw_blocked_threads<S: Semiring>(d: &mut Matrix<S::Elem>, b: usize, threads: usize) {
    let n = d.rows();
    assert_eq!(n, d.cols(), "distance matrix must be square");
    assert!(b > 0, "block size must be positive");
    assert!(
        S::IDEMPOTENT_ADD,
        "blocked FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    if n == 0 {
        return;
    }
    let nb = n.div_ceil(b);
    // The row panel's left and right halves, packed into these two buffers
    // each iteration (allocations reused); empty until the first repack.
    let mut left_b = PackedB::pack::<S>(&d.subview(0, 0, 0, 0));
    let mut right_b = PackedB::pack::<S>(&d.subview(0, 0, 0, 0));

    for k in 0..nb {
        let k0 = k * b;
        let bk = b.min(n - k0);
        // The 3 × 3 bands around block k; at k = 0 the top row and left
        // column of them are empty, at k = nb − 1 the bottom and right.
        let (top, rest) = d.view_mut().split_rows_mut(k0);
        let (row_k, bottom) = rest.split_rows_mut(bk);
        let (mut top_left, rest) = top.split_cols_mut(k0);
        let (mut top_k, mut top_right) = rest.split_cols_mut(bk);
        let (mut k_left, rest) = row_k.split_cols_mut(k0);
        let (mut diag_k, mut k_right) = rest.split_cols_mut(bk);
        let (mut bottom_left, rest) = bottom.split_cols_mut(k0);
        let (mut bottom_k, mut bottom_right) = rest.split_cols_mut(bk);

        // ----- DiagUpdate -----
        {
            let _p = span("DiagUpdate");
            fw_closure::<S>(&mut diag_k);
        }
        // ----- PanelUpdate -----
        {
            let _p = span("PanelUpdate");
            let diag_k = diag_k.as_view();
            // row panel A(k, :): left and right of the diagonal block
            panel_update_left::<S>(&mut k_left, &diag_k);
            panel_update_left::<S>(&mut k_right, &diag_k);
            // column panel A(:, k): above and below it
            panel_update_right::<S>(&mut top_k, &diag_k);
            panel_update_right::<S>(&mut bottom_k, &diag_k);
        }

        // ----- MinPlus outer product, i ∉ k and j ∉ k -----
        let _p = span("OuterUpdate");
        {
            let _pack = span("pack");
            left_b.repack::<S>(&k_left.as_view());
            right_b.repack::<S>(&k_right.as_view());
        }
        let (top_k, bottom_k) = (top_k.as_view(), bottom_k.as_view());
        gemm_packed_threads::<S>(&mut top_left, &top_k, &left_b, threads);
        gemm_packed_threads::<S>(&mut top_right, &top_k, &right_b, threads);
        gemm_packed_threads::<S>(&mut bottom_left, &bottom_k, &left_b, threads);
        gemm_packed_threads::<S>(&mut bottom_right, &bottom_k, &right_b, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use srgemm::semiring::{MaxMin, MinPlusSatU16};
    use srgemm::MinPlusF32;

    fn dense(n: usize, seed: u64) -> Matrix<f32> {
        generators::uniform_dense(n, WeightKind::small_ints(), seed).to_dense()
    }

    /// `fw_blocked_threads` bit for bit against `fw_seq` at ragged n, with
    /// blocks of 1, 7, n − 1, n and n + 5 on 1–3 threads: the quadrants
    /// above and left of block k are empty at k = 0, those below and right
    /// at the last (ragged) block, and b ≥ n is one diagonal block alone.
    /// `edge` maps a hash to an edge value; a third of the pairs get one.
    fn assert_matches_seq<S: Semiring>(edge: impl Fn(u64) -> S::Elem) {
        for n in [2usize, 37, 100] {
            let base = Matrix::from_fn(n, n, |i, j| {
                let h = ((i * n + j) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if i != j && h.is_multiple_of(3) { edge(h >> 2) } else { S::zero() }
            });
            let mut want = base.clone();
            fw_seq::<S>(&mut want);
            for b in [1, 7, n - 1, n, n + 5] {
                for threads in 1..=3 {
                    let mut got = base.clone();
                    fw_blocked_threads::<S>(&mut got, b, threads);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "{} n={n} b={b} threads={threads}",
                        S::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn quadrant_outer_update_matches_sequential_per_semiring() {
        assert_matches_seq::<MinPlusF32>(|h| (h % 100 + 1) as f32);
        assert_matches_seq::<MinPlusSatU16>(|h| (h % 100 + 1) as u16);
        assert_matches_seq::<MaxMin<f32>>(|h| (h % 50) as f32);
    }

    #[test]
    fn blocked_matches_sequential_for_many_block_sizes() {
        let base = dense(48, 1);
        let mut want = base.clone();
        fw_seq::<MinPlusF32>(&mut want);
        // block sizes that divide, don't divide, exceed, and equal n
        for b in [1, 3, 7, 16, 17, 48, 64] {
            let mut got = base.clone();
            fw_blocked_threads::<MinPlusF32>(&mut got, b, 1);
            assert!(want.eq_exact(&got), "b={b}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // n = 384 at block 64: the 320 × 320 × 64 quadrant at k = 0 splits
        // (at n = 256 the largest, 192 × 192 × 64, would not)
        let base = dense(384, 3);
        let mut a = base.clone();
        let mut b = base.clone();
        fw_blocked_threads::<MinPlusF32>(&mut a, 64, 1);
        fw_blocked_threads::<MinPlusF32>(&mut b, 64, 2);
        assert!(a.eq_exact(&b));
    }

    #[test]
    fn sparse_graph_with_infinities() {
        let g = generators::erdos_renyi(33, 0.15, WeightKind::small_ints(), 4);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut got = g.to_dense();
        fw_blocked_threads::<MinPlusF32>(&mut got, 8, 1);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn works_for_max_min_widest_path() {
        type WP = MaxMin<f32>;
        let mut m = Matrix::filled(20, 20, f32::NEG_INFINITY);
        // random capacities
        let mut state = 99u64;
        for i in 0..20 {
            for j in 0..20 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i != j && state.is_multiple_of(3) {
                    m[(i, j)] = ((state >> 33) % 50) as f32;
                }
            }
        }
        let mut want = m.clone();
        fw_seq::<WP>(&mut want);
        let mut got = m.clone();
        fw_blocked_threads::<WP>(&mut got, 6, 1);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn single_vertex_and_empty_edge_cases() {
        let mut one = Matrix::filled(1, 1, f32::INFINITY);
        fw_blocked_threads::<MinPlusF32>(&mut one, 4, 1);
        assert_eq!(one[(0, 0)], 0.0);
        let mut zero = Matrix::filled(0, 0, 0.0f32);
        fw_blocked_threads::<MinPlusF32>(&mut zero, 4, 1);
    }
}
