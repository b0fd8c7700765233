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

/// Minimum work, in ⊗-⊕ steps (rows × cols × depth), a slab must carry to
/// pay for the thread it runs on. Below twice this much, `C` is updated on
/// the calling thread. On the 2-vCPU AVX-512 box of DESIGN.md §10 a scoped
/// spawn and join costs ≈ 70 µs, and a split at 2¹⁹ steps per slab ran
/// 2.0× slower than serial; at 2²¹ (a 256 × 256 × 64 product) 1.14×; from
/// 2²² even or faster. 2²¹ keeps every 64 × 64 × 64 tile product serial,
/// and splits `fw_blocked`'s largest OuterUpdate quadrant at block 64 from
/// n = 320 on (256 × 256 × 64 at k = 0).
pub(crate) const MIN_SLAB_WORK: usize = 1 << 21;

/// Row counts of the slabs an `m × n` `C` with inner dimension `k` is split
/// into under a budget of `threads`: as many slabs as the budget allows
/// without any carrying under [`MIN_SLAB_WORK`] (one slab when the whole
/// product is under twice that, or when `threads ≤ 1`), near-equal (sizes
/// differ by at most one), in row order.
fn slab_rows(m: usize, n: usize, k: usize, threads: usize) -> impl ExactSizeIterator<Item = usize> {
    // nslabs ≤ m / min_rows ⇒ base = m / nslabs ≥ min_rows: no slab under
    // the floor.
    let min_rows = MIN_SLAB_WORK.div_ceil((n * k).max(1));
    let nslabs = threads.min(m / min_rows).max(1);
    let (base, extra) = (m / nslabs, m % nslabs);
    (0..nslabs).map(move |s| base + usize::from(s < extra))
}

/// `C ← C ⊕ A ⊗ B` against an already packed `B`, on at most `threads`
/// row-slab workers. The caller packs once (e.g. per FW `k`-iteration) and
/// every slab — and every *call* — streams the same copy. Runs the serial
/// [`gemm_packed_with_b`] on the calling thread when `threads ≤ 1` or the
/// slab floor (2²¹ ⊗-⊕ steps, rows × cols × depth) leaves a single slab.
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
    let slabs = slab_rows(m, c.cols(), a.cols(), threads);
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

    /// `gemm_packed_threads` at each of `threads` against `gemm_naive` on
    /// one `m×k · k×n` shape.
    fn assert_matches_naive<S: Semiring>(
        (m, n, k): (usize, usize, usize),
        threads: &[usize],
        elem: impl Fn(u16) -> S::Elem + Copy,
    ) where
        S::Elem: PartialEq + std::fmt::Debug,
    {
        let a = lcg_matrix(m, k, 1, elem);
        let b = lcg_matrix(k, n, 2, elem);
        let mut want = Matrix::filled(m, n, S::zero());
        gemm_naive::<S>(&mut want.view_mut(), &a.view(), &b.view());
        let pb = PackedB::pack::<S>(&b.view());
        for &t in threads {
            let mut got = Matrix::filled(m, n, S::zero());
            gemm_packed_threads::<S>(&mut got.view_mut(), &a.view(), &pb, t);
            assert_eq!(want.as_slice(), got.as_slice(), "{} {m}x{n}x{k} threads={t}", S::NAME);
        }
    }

    #[test]
    fn parallel_matches_naive_minplus() {
        // 97 rows over 4 threads: work enough for two slabs
        assert_matches_naive::<MinPlus<f32>>((97, 256, 192), &[4], f32::from);
    }

    #[test]
    fn parallel_matches_naive_small_fallback() {
        // a product under two slabs of MIN_SLAB_WORK exercises the serial
        // fallback
        assert_matches_naive::<MinPlus<f32>>((4, 5, 9), &[4], f32::from);
    }

    #[test]
    fn parallel_real_arith_exact_on_integers() {
        // integer-valued f32s: + and * are exact (max 511·511·64 < 2^24),
        // so the fold order across slabs is irrelevant
        assert_matches_naive::<RealArith<f32>>((256, 256, 64), &[4], f32::from);
    }

    #[test]
    fn explicit_thread_counts_all_agree() {
        // a product below two slabs, one of exactly two (128 rows carry
        // MIN_SLAB_WORK at 256 × 64), and a ragged one that splits three
        // ways from 3 threads up
        for shape in [(15, 40, 30), (256, 256, 64), (400, 160, 100)] {
            let threads = [0, 1, 2, 3, 7, 64];
            assert_matches_naive::<MinPlus<f32>>(shape, &threads, f32::from);
            assert_matches_naive::<MinPlusSatU16>(shape, &threads, |v| v);
            assert_matches_naive::<MaxMin<f32>>(shape, &threads, f32::from);
        }
    }

    // Regression: the old ceil-divide slab sizing could produce a final slab
    // far below the floor (m=49, 3 threads gave 17+17+15, and m=65,
    // 4 → 17×3+14; worst cases stranded a 1-row slab). The balanced
    // partition must never leave a slab under MIN_SLAB_WORK unless the
    // product is a single slab.
    #[test]
    fn no_slab_below_floor() {
        for (n, k) in [(64, 64), (256, 64), (1024, 64), (192, 192), (4096, 512), (3, 1)] {
            for m in (1..2000).step_by(7) {
                for threads in 1..10 {
                    let sizes: Vec<usize> = slab_rows(m, n, k, threads).collect();
                    assert_eq!(sizes.iter().sum::<usize>(), m);
                    assert!(sizes.len() <= threads);
                    if sizes.len() > 1 {
                        assert!(
                            sizes.iter().all(|&s| s * n * k >= MIN_SLAB_WORK),
                            "{m}x{n}x{k} threads={threads} sizes={sizes:?}"
                        );
                    }
                    // near-equal: max - min ≤ 1
                    let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1, "unbalanced {m}x{n}x{k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn budget_floor_is_one() {
        // a budget of zero threads, no rows, or an empty inner product is
        // still one slab
        assert_eq!(slab_rows(1000, 1000, 64, 0).collect::<Vec<_>>(), [1000]);
        assert_eq!(slab_rows(0, 1000, 64, 8).collect::<Vec<_>>(), [0]);
        assert_eq!(slab_rows(1000, 0, 64, 8).collect::<Vec<_>>(), [1000]);
        // a 64×64×64 tile product stays on the calling thread; a
        // 256 × 256 × 64 product (`fw_blocked`'s k = 0 quadrant at n = 320,
        // block 64) splits
        assert_eq!(slab_rows(64, 64, 64, 64).count(), 1);
        assert_eq!(slab_rows(256, 256, 64, 2).count(), 2);
        let rows = MIN_SLAB_WORK / (256 * 64);
        assert_eq!(slab_rows(10_000, 256, 64, usize::MAX).count(), 10_000 / rows);
    }
}
