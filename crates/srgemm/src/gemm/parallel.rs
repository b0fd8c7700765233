//! The packed kernel on row-slab threads, under an explicit thread budget.
//!
//! `C` is partitioned into disjoint row slabs, each slab updated by the
//! serial packed kernel on its own scoped thread. Row-slab partitioning
//! means no two workers ever touch the same element of `C`, so no
//! synchronization is needed inside the kernel — the CPU analogue of
//! assigning threadblocks to output tiles on the GPU. Which thread owns a
//! row changes with the budget; the ascending-`k` fold inside the row does
//! not, so results are bit-identical at every thread count.
//!
//! `B` arrives already packed and is shared by reference ([`PackedB`] is
//! immutable and `Sync`): every slab — and every call of an FW iteration —
//! streams the same KC×NC-tiled copy. Each worker keeps its own `A`
//! micro-panel buffer; only the read-only `B` copy is shared.
//!
//! The budget is an argument because only the caller knows who else is on
//! the machine: a single-node solve passes its whole budget, a rank of the
//! mpi-sim grid passes `budget / ranks` (floor 1), so that
//! ranks × kernel threads ≤ cores (DESIGN.md §10).

use crate::gemm::pack::{gemm_packed_with_b, PackedB};
use crate::matrix::{View, ViewMut};
use crate::semiring::Semiring;

/// Minimum rows per parallel slab; below this the serial kernel is used
/// outright (spawn overhead would dominate).
pub(crate) const MIN_ROWS_PER_SLAB: usize = 16;

/// Row counts of the slabs `m` rows of `C` are split into under a budget of
/// `threads`: as many slabs as the budget allows without any falling under
/// [`MIN_ROWS_PER_SLAB`] (one slab when `m` itself is under it, or when
/// `threads ≤ 1`), near-equal (sizes differ by at most one), in row order.
fn slab_rows(m: usize, threads: usize) -> impl ExactSizeIterator<Item = usize> {
    // nslabs ≤ m / MIN ⇒ base = m / nslabs ≥ MIN: no slab under the floor.
    let nslabs = threads.min(m / MIN_ROWS_PER_SLAB).max(1);
    let (base, extra) = (m / nslabs, m % nslabs);
    (0..nslabs).map(move |s| base + usize::from(s < extra))
}

/// `C ← C ⊕ A ⊗ B` against an already packed `B`, on at most `threads`
/// row-slab workers. The caller packs once (e.g. per FW `k`-iteration) and
/// every slab — and every *call* — streams the same copy. Runs the serial
/// [`gemm_packed_with_b`] on the calling thread when `threads ≤ 1` or the
/// slab floor (16 rows) leaves a single slab.
///
/// # Panics
/// Panics if operand shapes disagree (`a.cols() != pb.rows()` etc.).
pub fn gemm_packed_threads<S: Semiring>(
    c: &mut ViewMut<'_, S::Elem>,
    a: &View<'_, S::Elem>,
    pb: &PackedB<S::Elem>,
    threads: usize,
) {
    let m = c.rows();
    let slabs = slab_rows(m, threads);
    if slabs.len() == 1 {
        gemm_packed_with_b::<S>(c, a, pb);
        return;
    }
    // checked here, on the caller's thread, not once per slab inside a worker
    assert_eq!(a.cols(), pb.rows(), "gemm: inner dimensions disagree");
    assert_eq!(m, a.rows(), "gemm: C rows != A rows");
    assert_eq!(c.cols(), pb.cols(), "gemm: C cols != B cols");

    std::thread::scope(|scope| {
        // Reborrow to a local lifetime, then peel one disjoint slab of `C`
        // per worker, paired with the matching rows of `A`.
        let mut rest = c.subview_mut(0, 0, m, c.cols());
        let mut row0 = 0;
        for rows in slabs {
            let (mut c_slab, tail) = rest.split_rows_mut(rows);
            rest = tail;
            let a_slab = a.subview(row0, 0, rows, a.cols());
            row0 += rows;
            scope.spawn(move || gemm_packed_with_b::<S>(&mut c_slab, &a_slab, pb));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use crate::matrix::Matrix;
    use crate::semiring::{MaxMin, MinPlus, MinPlusSatU16, RealArith};

    fn lcg_matrix<T: Copy>(
        rows: usize,
        cols: usize,
        seed: u64,
        elem: impl Fn(u16) -> T,
    ) -> Matrix<T> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            elem(((state >> 35) % 512) as u16)
        })
    }

    /// `gemm_packed_threads` against `gemm_naive` on one `m×k · k×n` shape.
    fn assert_matches_naive<S: Semiring>(
        (m, n, k): (usize, usize, usize),
        threads: usize,
        elem: impl Fn(u16) -> S::Elem + Copy,
    ) where
        S::Elem: PartialEq + std::fmt::Debug,
    {
        let a = lcg_matrix(m, k, 1, elem);
        let b = lcg_matrix(k, n, 2, elem);
        let mut want = Matrix::filled(m, n, S::zero());
        let mut got = want.clone();
        gemm_naive::<S>(&mut want.view_mut(), &a.view(), &b.view());
        let pb = PackedB::pack::<S>(&b.view());
        gemm_packed_threads::<S>(&mut got.view_mut(), &a.view(), &pb, threads);
        assert_eq!(want.as_slice(), got.as_slice(), "{} {m}x{n}x{k} threads={threads}", S::NAME);
    }

    #[test]
    fn parallel_matches_naive_minplus() {
        assert_matches_naive::<MinPlus<f32>>((97, 63, 41), 4, f32::from);
    }

    #[test]
    fn parallel_matches_naive_small_fallback() {
        // m below MIN_ROWS_PER_SLAB exercises the serial fallback
        assert_matches_naive::<MinPlus<f32>>((4, 5, 9), 4, f32::from);
    }

    #[test]
    fn parallel_real_arith_exact_on_integers() {
        // integer-valued f32s: + and * are exact (max 512·512·32 ≈ 8.4e6 <
        // 2^24), so the fold order across slabs is irrelevant
        assert_matches_naive::<RealArith<f32>>((64, 48, 32), 4, f32::from);
    }

    #[test]
    fn explicit_thread_counts_all_agree() {
        // a shape below the slab floor, one at it (two slabs of exactly 16
        // from 2 threads up), and a ragged one
        for shape in [(15, 40, 30), (32, 40, 30), (130, 41, 29)] {
            for threads in [0, 1, 2, 3, 7, 64] {
                assert_matches_naive::<MinPlus<f32>>(shape, threads, f32::from);
                assert_matches_naive::<MinPlusSatU16>(shape, threads, |v| v);
                assert_matches_naive::<MaxMin<f32>>(shape, threads, f32::from);
            }
        }
    }

    // Regression: the old ceil-divide slab sizing could produce a final slab
    // far below MIN_ROWS_PER_SLAB (m=49, 3 threads gave 17+17+15, and m=65,
    // 4 → 17×3+14; worst cases stranded a 1-row slab). The balanced
    // partition must never go below the floor unless m itself is below it.
    #[test]
    fn no_slab_below_floor() {
        for m in 1..200 {
            for threads in 1..10 {
                let sizes: Vec<usize> = slab_rows(m, threads).collect();
                assert_eq!(sizes.iter().sum::<usize>(), m);
                assert!(sizes.len() <= threads);
                if sizes.len() > 1 {
                    assert!(
                        sizes.iter().all(|&s| s >= MIN_ROWS_PER_SLAB),
                        "m={m} threads={threads} sizes={sizes:?}"
                    );
                }
                // near-equal: max - min ≤ 1
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced m={m} threads={threads}");
            }
        }
    }

    #[test]
    fn budget_floor_is_one() {
        // a budget of zero threads, or no rows at all, is still one slab
        assert_eq!(slab_rows(100, 0).collect::<Vec<_>>(), [100]);
        assert_eq!(slab_rows(0, 8).collect::<Vec<_>>(), [0]);
        assert_eq!(slab_rows(100, usize::MAX).count(), 100 / MIN_ROWS_PER_SLAB);
    }
}
