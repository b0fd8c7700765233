//! Divide-and-conquer APSP — the communication-avoiding comparator from the
//! paper's related work (§6: "Solomonik et al. proposed a communication
//! avoiding parallel Apsp which uses the divide and conquer approach").
//!
//! The recursive Kleene/Floyd block-2×2 closure:
//!
//! ```text
//! [A B]*      A ← A*         B ← A ⊗ B     C ← C ⊗ A     D ← D ⊕ C ⊗ B
//! [C D]       D ← D*         B ← B ⊗ D     C ← D ⊗ C     A ← A ⊕ B ⊗ C
//! ```
//!
//! All heavy work is GEMM (two closure recursions + six GEMM-shaped
//! updates per level), which is why it maps onto 2.5D process grids; here
//! it serves as an independent single-node solver validating the blocked
//! FW results, and as the subject of the dc-vs-blocked bench.

use srgemm::closure::fw_closure;
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::{Matrix, View, ViewMut};
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;

/// In-place divide-and-conquer closure. `base` is the recursion cutoff
/// (classic FW below it); the off-diagonal quadrant updates run on at most
/// `threads` kernel threads.
///
/// # Panics
/// Panics if `a` is not square, `base == 0`, or the semiring is not
/// idempotent.
pub fn dc_apsp<S: Semiring>(a: &mut Matrix<S::Elem>, base: usize, threads: usize) {
    assert_eq!(a.rows(), a.cols(), "distance matrix must be square");
    assert!(base > 0, "base case must be positive");
    assert!(
        S::IDEMPOTENT_ADD,
        "DC-APSP relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let n = a.rows();
    let mut view = a.subview_mut(0, 0, n, n);
    dc_recurse::<S>(&mut view, base, threads);
}

fn dc_recurse<S: Semiring>(a: &mut ViewMut<'_, S::Elem>, base: usize, threads: usize) {
    let n = a.rows();
    if n <= base {
        fw_closure::<S>(a);
        return;
    }
    let mid = n / 2;
    // carve the four quadrants as disjoint mutable views
    let whole = a.subview_mut(0, 0, n, n);
    let (top, bottom) = whole.split_rows_mut(mid);
    let (mut a11, mut a12) = top.split_cols_mut(mid);
    let (mut a21, mut a22) = bottom.split_cols_mut(mid);

    // A ← A*
    dc_recurse::<S>(&mut a11, base, threads);
    // B ← A ⊗ B ; C ← C ⊗ A   (closure absorbs the old values: A* ⊇ I)
    panel_update_left::<S>(&mut a12, &a11.as_view());
    panel_update_right::<S>(&mut a21, &a11.as_view());
    let gemm = |c: &mut ViewMut<'_, S::Elem>, a: &View<'_, S::Elem>, b: &View<'_, S::Elem>| {
        gemm_packed_threads::<S>(c, a, &PackedB::pack::<S>(b), threads)
    };
    // D ← D ⊕ C ⊗ B
    gemm(&mut a22, &a21.as_view(), &a12.as_view());
    // D ← D*
    dc_recurse::<S>(&mut a22, base, threads);
    // B ← B ⊗ D ; C ← D ⊗ C
    panel_update_right::<S>(&mut a12, &a22.as_view());
    panel_update_left::<S>(&mut a21, &a22.as_view());
    // A ← A ⊕ B ⊗ C
    gemm(&mut a11, &a12.as_view(), &a21.as_view());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, GraphKind, WeightKind};
    use srgemm::semiring::MaxMin;
    use srgemm::MinPlusF32;

    #[test]
    fn matches_sequential_fw_across_sizes_and_bases() {
        // 70 > MC: the quadrant products cross a packed-slab boundary
        for n in [1usize, 2, 3, 5, 8, 17, 33, 48, 70] {
            let g = generators::uniform_dense(n, WeightKind::small_ints(), n as u64);
            let mut want = g.to_dense();
            fw_seq::<MinPlusF32>(&mut want);
            for base in [1usize, 3, 4, 16, 64, 128] {
                let mut got = g.to_dense();
                dc_apsp::<MinPlusF32>(&mut got, base, 1);
                assert!(want.eq_exact(&got), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn parallel_gemms_give_identical_results() {
        // 336 → 168-row quadrants: the top-level 168³ products carry two
        // slabs of the GEMM's work floor
        let g = generators::uniform_dense(336, WeightKind::small_ints(), 3);
        let mut a = g.to_dense();
        let mut b = g.to_dense();
        dc_apsp::<MinPlusF32>(&mut a, 8, 1);
        dc_apsp::<MinPlusF32>(&mut b, 8, 2);
        assert!(a.eq_exact(&b));
    }

    #[test]
    fn sparse_and_disconnected_inputs() {
        for (kind, seed) in [
            (GraphKind::ErdosRenyi { p: 0.1 }, 5u64),
            (GraphKind::MultiComponent { components: 4 }, 6),
            (GraphKind::Ring, 7),
        ] {
            let g = generators::generate(kind, 27, WeightKind::small_ints(), seed);
            let mut want = g.to_dense();
            fw_seq::<MinPlusF32>(&mut want);
            let mut got = g.to_dense();
            dc_apsp::<MinPlusF32>(&mut got, 4, 1);
            assert!(want.eq_exact(&got), "{kind:?}");
        }
    }

    #[test]
    fn works_for_widest_path_semiring() {
        type WP = MaxMin<f32>;
        let n = 21;
        let mut m = srgemm::Matrix::filled(n, n, f32::NEG_INFINITY);
        let mut state = 5u64;
        for i in 0..n {
            for j in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i != j && state.is_multiple_of(4) {
                    m[(i, j)] = ((state >> 33) % 40) as f32;
                }
            }
        }
        let mut want = m.clone();
        fw_seq::<WP>(&mut want);
        let mut got = m.clone();
        dc_apsp::<WP>(&mut got, 4, 1);
        assert!(want.eq_exact(&got));
    }
}
