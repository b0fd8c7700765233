//! Blocked Floyd-Warshall (paper Algorithm 2), single node.
//!
//! Per block-iteration `k`: DiagUpdate closes `A(k,k)`, PanelUpdate fixes the
//! k-th block row and column, and the MinPlus outer product updates the rest
//! of the matrix. The outer product here is one big
//! `A ← A ⊕ A(:,k) ⊗ A(k,:)` GEMM over the *whole* matrix: re-touching the
//! already-updated k-th row/column with a closed diagonal is an exact no-op
//! in any idempotent semiring (see `outer_product_is_idempotent_on_panels`),
//! so correctness is unchanged while the update becomes a single GEMM that
//! splits into row slabs — the same trade the GPU implementation makes by
//! launching one large SRGEMM instead of one kernel per block.
//!
//! The outer product consumes the row panel through a [`PackedB`]: the
//! panel is packed into the micro-kernel's tiled layout **once per
//! iteration** (reusing one allocation across all `nb` iterations via
//! [`PackedB::repack`]) and streamed by every row slab of the GEMM, at any
//! thread count — the single-node form of the per-`k` panel reuse the
//! distributed driver performs on its broadcast panels.
//!
//! Each iteration opens the paper's phase spans (`DiagUpdate`,
//! `PanelUpdate`, `OuterUpdate`, with the panel copies and the repack as
//! `pack` inside the last) on the calling thread's `apsp_trace` recorder.

use apsp_trace::span;
use srgemm::closure::{fw_closure, fw_closure_squaring};
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::Matrix;
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;

/// How DiagUpdate closes the diagonal block (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagMethod {
    /// Classic `O(b³)` Floyd-Warshall on the block — the CPU form.
    FwClosure,
    /// Repeated squaring (`⌈log₂ b⌉` SRGEMMs, Eq. 4) — the GPU-friendly
    /// form; more flops, all of them GEMM flops.
    Squaring,
}

/// [`fw_blocked_threads`] behind the signature `benchmark/src/layers.rs`
/// compiles against: `parallel` means every core of the host, otherwise one
/// thread. A change outside `benchmark/` may not edit that file, so this
/// wrapper stays until the next `[benchmark]` PR moves the call over and
/// deletes it; nothing else in the workspace calls it.
pub fn fw_blocked<S: Semiring>(d: &mut Matrix<S::Elem>, b: usize, diag: DiagMethod, parallel: bool) {
    fw_blocked_threads::<S>(d, b, diag, if parallel { crate::host_threads() } else { 1 })
}

/// In-place blocked Floyd-Warshall with block size `b`, its GEMMs on at
/// most `threads` kernel threads.
///
/// # Panics
/// Panics if `d` is not square or `b == 0`.
pub fn fw_blocked_threads<S: Semiring>(
    d: &mut Matrix<S::Elem>,
    b: usize,
    diag: DiagMethod,
    threads: usize,
) {
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
    // One packed-B buffer for the whole run: repacked (allocation reused)
    // with each iteration's row panel, shared by every slab of the GEMM.
    let mut packed_row: Option<PackedB<S::Elem>> = None;

    for k in 0..nb {
        let k0 = k * b;
        let bk = b.min(n - k0);

        // ----- DiagUpdate -----
        {
            let _p = span("DiagUpdate");
            let mut dblk = d.subview_mut(k0, k0, bk, bk);
            match diag {
                DiagMethod::FwClosure => fw_closure::<S>(&mut dblk),
                DiagMethod::Squaring => fw_closure_squaring::<S>(&mut dblk, threads),
            }
        }
        // ----- PanelUpdate -----
        let panel_update = span("PanelUpdate");
        let diag_snapshot = d.block(k0, k0, bk, bk);
        // row panel A(k, :) — everything left and right of the diagonal block
        if k0 > 0 {
            let mut left = d.subview_mut(k0, 0, bk, k0);
            panel_update_left::<S>(&mut left, &diag_snapshot.view());
        }
        if k0 + bk < n {
            let mut right = d.subview_mut(k0, k0 + bk, bk, n - k0 - bk);
            panel_update_left::<S>(&mut right, &diag_snapshot.view());
        }
        // column panel A(:, k)
        if k0 > 0 {
            let mut top = d.subview_mut(0, k0, k0, bk);
            panel_update_right::<S>(&mut top, &diag_snapshot.view());
        }
        if k0 + bk < n {
            let mut bottom = d.subview_mut(k0 + bk, k0, n - k0 - bk, bk);
            panel_update_right::<S>(&mut bottom, &diag_snapshot.view());
        }
        drop(panel_update);

        // ----- MinPlus outer product -----
        // snapshot the k-th block column and row, then one full-matrix GEMM
        let _p = span("OuterUpdate");
        let pack = span("pack");
        let col_panel = d.block(0, k0, n, bk);
        let row_panel = d.block(k0, 0, bk, n);
        let pb = match packed_row.as_mut() {
            Some(pb) => {
                pb.repack::<S>(&row_panel.view());
                pb
            }
            None => packed_row.insert(PackedB::pack::<S>(&row_panel.view())),
        };
        drop(pack);
        gemm_packed_threads::<S>(&mut d.view_mut(), &col_panel.view(), pb, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use srgemm::gemm::gemm_naive;
    use srgemm::semiring::{MaxMin, MinPlus};
    use srgemm::MinPlusF32;

    fn dense(n: usize, seed: u64) -> Matrix<f32> {
        generators::uniform_dense(n, WeightKind::small_ints(), seed).to_dense()
    }

    #[test]
    fn blocked_matches_sequential_for_many_block_sizes() {
        let base = dense(48, 1);
        let mut want = base.clone();
        fw_seq::<MinPlusF32>(&mut want);
        // block sizes that divide, don't divide, exceed, and equal n
        for b in [1, 3, 7, 16, 17, 48, 64] {
            let mut got = base.clone();
            fw_blocked_threads::<MinPlusF32>(&mut got, b, DiagMethod::FwClosure, 1);
            assert!(want.eq_exact(&got), "b={b}");
        }
    }

    #[test]
    fn squaring_diag_matches_fw_diag() {
        let base = dense(40, 2);
        let mut a = base.clone();
        let mut b = base.clone();
        fw_blocked_threads::<MinPlusF32>(&mut a, 8, DiagMethod::FwClosure, 1);
        fw_blocked_threads::<MinPlusF32>(&mut b, 8, DiagMethod::Squaring, 1);
        assert!(a.eq_exact(&b));
    }

    #[test]
    fn parallel_matches_serial() {
        // n = 256 at block 64: the smallest full-width GEMM that splits
        let base = dense(256, 3);
        let mut a = base.clone();
        let mut b = base.clone();
        fw_blocked_threads::<MinPlusF32>(&mut a, 64, DiagMethod::FwClosure, 1);
        fw_blocked_threads::<MinPlusF32>(&mut b, 64, DiagMethod::FwClosure, 2);
        assert!(a.eq_exact(&b));
    }

    #[test]
    fn sparse_graph_with_infinities() {
        let g = generators::erdos_renyi(33, 0.15, WeightKind::small_ints(), 4);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut got = g.to_dense();
        fw_blocked_threads::<MinPlusF32>(&mut got, 8, DiagMethod::FwClosure, 1);
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
        fw_blocked_threads::<WP>(&mut got, 6, DiagMethod::FwClosure, 1);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn outer_product_is_idempotent_on_panels() {
        // the doc-comment claim: re-applying the outer product to the k-th
        // row/col after PanelUpdate changes nothing
        let base = dense(24, 7);
        let mut d = base.clone();
        let b = 8;
        // run one manual iteration k=0 with the full-matrix outer product
        {
            let mut blk = d.subview_mut(0, 0, b, b);
            fw_closure::<MinPlus<f32>>(&mut blk);
        }
        let diag = d.block(0, 0, b, b);
        {
            let mut right = d.subview_mut(0, b, b, 24 - b);
            panel_update_left::<MinPlus<f32>>(&mut right, &diag.view());
            let mut bottom = d.subview_mut(b, 0, 24 - b, b);
            panel_update_right::<MinPlus<f32>>(&mut bottom, &diag.view());
        }
        let col = d.block(0, 0, 24, b);
        let row = d.block(0, 0, b, 24);
        let mut once = d.clone();
        gemm_naive::<MinPlus<f32>>(&mut once.view_mut(), &col.view(), &row.view());
        // panels (row 0..b and col 0..b) must be unchanged by the product
        for i in 0..24 {
            for j in 0..b {
                assert_eq!(once[(i, j)], d[(i, j)], "col panel perturbed at {i},{j}");
            }
        }
        for i in 0..b {
            for j in 0..24 {
                assert_eq!(once[(i, j)], d[(i, j)], "row panel perturbed at {i},{j}");
            }
        }
    }

    #[test]
    fn single_vertex_and_empty_edge_cases() {
        let mut one = Matrix::filled(1, 1, f32::INFINITY);
        fw_blocked_threads::<MinPlusF32>(&mut one, 4, DiagMethod::FwClosure, 1);
        assert_eq!(one[(0, 0)], 0.0);
        let mut zero = Matrix::filled(0, 0, 0.0f32);
        fw_blocked_threads::<MinPlusF32>(&mut zero, 4, DiagMethod::FwClosure, 1);
    }
}
