//! Panel-update kernels — the paper's *PanelUpdate* (§2.4).
//!
//! Given the closed diagonal block `D = A(k,k)*`:
//!
//! * row panel:    `A(k, j) ← A(k, j) ⊕ D ⊗ A(k, j)` — [`panel_update_left`];
//! * column panel: `A(i, k) ← A(i, k) ⊕ A(i, k) ⊗ D` — [`panel_update_right`].
//!
//! Both update a panel in place. Because the product reads the same panel it
//! writes, the kernel reads the panel from a copy taken before the first
//! write — exactly what the GPU implementation does by reading the panel out
//! of global memory into a fresh output tile. For the row panel that copy is
//! the packed `B` operand itself; the column panel keeps a plain snapshot.

use crate::gemm::{gemm_packed, gemm_packed_with_b, PackedB};
use crate::matrix::ViewMut;
use crate::semiring::Semiring;

/// `P ← P ⊕ D ⊗ P` where `D` is `b×b` and `P` is `b×w` (a block of the k-th
/// block *row*). `P` is packed once as the `B` operand, and the kernel reads
/// only that packed copy, so the writes to `P` cannot reach it.
///
/// # Panics
/// Panics if `d` is not square or its order differs from `p.rows()`.
pub fn panel_update_left<S: Semiring>(p: &mut ViewMut<'_, S::Elem>, d: &crate::matrix::View<'_, S::Elem>) {
    assert_eq!(d.rows(), d.cols(), "diagonal block must be square");
    assert_eq!(d.cols(), p.rows(), "diagonal order must match panel rows");
    let pb = PackedB::pack::<S>(&p.as_view());
    gemm_packed_with_b::<S>(p, d, &pb);
}

/// `P ← P ⊕ P ⊗ D` where `P` is `h×b` (a block of the k-th block *column*)
/// and `D` is `b×b`. `P` is the `A` operand here, which the kernel packs
/// slab by slab as it goes: once `b > KC` a later reduction pass would pack
/// rows of `P` it has already written. So `P` is first copied to a snapshot.
///
/// # Panics
/// Panics if `d` is not square or its order differs from `p.cols()`.
pub fn panel_update_right<S: Semiring>(p: &mut ViewMut<'_, S::Elem>, d: &crate::matrix::View<'_, S::Elem>) {
    assert_eq!(d.rows(), d.cols(), "diagonal block must be square");
    assert_eq!(d.rows(), p.cols(), "diagonal order must match panel cols");
    let snapshot = p.to_matrix();
    gemm_packed::<S>(p, &snapshot.view(), d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::fw_closure;
    use crate::matrix::Matrix;
    use crate::semiring::MinPlus;

    type MP = MinPlus<f32>;
    const INF: f32 = f32::INFINITY;

    #[test]
    fn left_update_routes_through_diag_block() {
        // Diagonal block: 2 vertices {0,1} with 0->1 cost 1 (closed).
        let mut d = Matrix::from_rows(&[&[0.0, 1.0], &[INF, 0.0]]);
        fw_closure::<MP>(&mut d.view_mut());
        // Panel: edges from {0,1} to outside vertex 2: only 1->2 exists (cost 1).
        let mut p = Matrix::from_rows(&[&[INF], &[1.0]]);
        panel_update_left::<MP>(&mut p.view_mut(), &d.view());
        // Now 0->2 must be discovered via 0->1->2 = 2.
        assert_eq!(p[(0, 0)], 2.0);
        assert_eq!(p[(1, 0)], 1.0);
    }

    #[test]
    fn right_update_routes_through_diag_block() {
        let mut d = Matrix::from_rows(&[&[0.0, 1.0], &[INF, 0.0]]);
        fw_closure::<MP>(&mut d.view_mut());
        // Column panel: edges from outside vertex 2 into {0,1}: only 2->0 (cost 3).
        let mut p = Matrix::from_rows(&[&[3.0, INF]]);
        panel_update_right::<MP>(&mut p.view_mut(), &d.view());
        // 2->1 via 2->0->1 = 4.
        assert_eq!(p[(0, 1)], 4.0);
        assert_eq!(p[(0, 0)], 3.0);
    }

    #[test]
    fn update_never_worsens_entries() {
        // with D closed (D ⊇ I), P ⊕ D⊗P ≤ P pointwise
        let mut d = Matrix::from_rows(&[&[0.0, 5.0], &[5.0, 0.0]]);
        fw_closure::<MP>(&mut d.view_mut());
        let orig = Matrix::from_rows(&[&[7.0, 2.0, INF], &[1.0, INF, 4.0]]);
        let mut p = orig.clone();
        panel_update_left::<MP>(&mut p.view_mut(), &d.view());
        for i in 0..2 {
            for j in 0..3 {
                assert!(p[(i, j)] <= orig[(i, j)]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match panel rows")]
    fn left_update_shape_check() {
        let d = Matrix::filled(3, 3, 0.0f32);
        let mut p = Matrix::filled(2, 4, 0.0f32);
        panel_update_left::<MP>(&mut p.view_mut(), &d.view());
    }
}
