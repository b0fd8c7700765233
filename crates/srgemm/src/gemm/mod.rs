//! Semiring GEMM kernels: `C ← C ⊕ A ⊗ B`.
//!
//! One production kernel and its oracle share one contract:
//!
//! * [`gemm_packed`] — BLIS-style packed operands + register-tiled
//!   micro-kernel (see [`pack`]). Every caller in the workspace runs it:
//!   the FW drivers, the simulated device's `ooGSrGemm`, the recursive and
//!   block-sparse solvers;
//! * [`gemm_packed_threads`] — the same kernel on row-slab threads sharing
//!   one packed `B` under the caller's thread budget, standing in for the
//!   GPU SRGEMM of the paper's §2.6/§4.1;
//! * [`gemm_naive`] — triple loop, the correctness oracle of the tests.
//!
//! The accumulate-into-C contract matches the paper's *MinPlus outer product*
//! (`A(i,j) ← A(i,j) ⊕ A(i,k) ⊗ A(k,j)`) and cuASR's epilogue semantics.
//! Both the kernel and the oracle fold the reduction in ascending `k` per
//! output element, so they are bit-identical on every semiring.

mod naive;
pub mod pack;
mod parallel;

pub use naive::gemm_naive;
pub use pack::{
    gemm_packed, gemm_packed_with_b, gemm_packed_with_scratch, pad_quantum, Isa, PackedA, PackedB,
    KC, MC, NC,
};
pub use parallel::gemm_packed_threads;

use crate::matrix::{View, ViewMut};

/// Validate `C ← C ⊕ A ⊗ B` operand shapes; every kernel calls this first.
#[inline]
pub(crate) fn check_shapes<T: Copy>(c: &ViewMut<'_, T>, a: &View<'_, T>, b: &View<'_, T>) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimensions disagree");
    assert_eq!(c.rows(), a.rows(), "gemm: C rows != A rows");
    assert_eq!(c.cols(), b.cols(), "gemm: C cols != B cols");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::semiring::{MinPlus, RealArith};

    type MP = MinPlus<f32>;

    fn dist(vals: &[&[f32]]) -> Matrix<f32> {
        Matrix::from_rows(vals)
    }

    #[test]
    fn min_plus_product_small() {
        // C(i,j) = min_k A(i,k) + B(k,j), accumulated into C.
        let a = dist(&[&[1.0, 2.0], &[4.0, 1.0]]);
        let b = dist(&[&[0.0, 5.0], &[1.0, 0.0]]);
        let mut c = Matrix::filled(2, 2, f32::INFINITY);
        gemm_packed::<MP>(&mut c.view_mut(), &a.view(), &b.view());
        assert_eq!(c[(0, 0)], 1.0); // min(1+0, 2+1) = 1
        assert_eq!(c[(0, 1)], 2.0); // min(1+5, 2+0) = 2
        assert_eq!(c[(1, 0)], 2.0); // min(4+0, 1+1) = 2
        assert_eq!(c[(1, 1)], 1.0); // min(4+5, 1+0) = 1
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = dist(&[&[10.0]]);
        let b = dist(&[&[10.0]]);
        let mut c = dist(&[&[5.0]]);
        gemm_packed::<MP>(&mut c.view_mut(), &a.view(), &b.view());
        // existing 5.0 beats 10+10
        assert_eq!(c[(0, 0)], 5.0);
    }

    #[test]
    fn infinity_edges_do_not_contaminate() {
        let inf = f32::INFINITY;
        let a = dist(&[&[inf, 3.0]]);
        let b = dist(&[&[1.0], &[inf]]);
        let mut c = Matrix::filled(1, 1, inf);
        gemm_packed::<MP>(&mut c.view_mut(), &a.view(), &b.view());
        assert_eq!(c[(0, 0)], inf); // no finite path
    }

    #[test]
    fn real_arith_matches_manual_matmul() {
        type RA = RealArith<f64>;
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = Matrix::filled(2, 2, 0.0f64);
        gemm_packed::<RA>(&mut c.view_mut(), &a.view(), &b.view());
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::from_fn(3, 5, |i, j| (i + j) as f32);
        let b = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f32);
        let mut c1 = Matrix::filled(3, 2, f32::INFINITY);
        let mut c2 = c1.clone();
        gemm_naive::<MP>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<MP>(&mut c2.view_mut(), &a.view(), &b.view());
        assert!(c1.eq_exact(&c2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = Matrix::filled(2, 3, 0.0f32);
        let b = Matrix::filled(2, 2, 0.0f32);
        let mut c = Matrix::filled(2, 2, 0.0f32);
        gemm_packed::<MP>(&mut c.view_mut(), &a.view(), &b.view());
    }

    #[test]
    fn zero_sized_k_is_identity_on_c() {
        let a = Matrix::filled(2, 0, 0.0f32);
        let b = Matrix::filled(0, 2, 0.0f32);
        let mut c = dist(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let before = c.clone();
        gemm_packed::<MP>(&mut c.view_mut(), &a.view(), &b.view());
        assert!(c.eq_exact(&before));
    }
}
