//! Block closure kernels — the paper's *DiagUpdate* (§2.4, §4.2).
//!
//! The diagonal update of blocked Floyd-Warshall computes the semiring
//! closure `A* = I ⊕ A ⊕ A² ⊕ …` of a single `b × b` block. Two forms:
//!
//! * [`fw_closure`] — the classic in-place k-i-j Floyd-Warshall triple loop,
//!   `O(b³)` semiring FMAs. This is the "CPU" form.
//! * [`fw_closure_squaring`] — Eq. (4) of the paper: the Neumann-series form
//!   `(I ⊕ A)^(2^t)` computed by `⌈log₂ b⌉` repeated squarings, each a dense
//!   SRGEMM. Asymptotically `O(b³ log b)`, but every flop is a GEMM flop —
//!   which is why the paper runs it on the GPU. Blocked FW selects it with
//!   `DiagMethod::Squaring`.
//!
//! Requires an idempotent ⊕ (min/max-style semirings); the squaring form also
//! assumes no negative cycles, same as Floyd-Warshall itself.

use crate::gemm::{gemm_packed_threads, PackedB};
use crate::matrix::{Matrix, ViewMut};
use crate::semiring::Semiring;

/// In-place Floyd-Warshall closure of a square block: after the call,
/// `a[i][j]` is the shortest `i → j` distance using only intermediate
/// vertices local to the block. The diagonal is first ⊕-ed with `1̄`
/// (distance 0 to self), matching `Dist[i,i] = 0` initialization.
///
/// # Panics
/// Panics if the view is not square.
pub fn fw_closure<S: Semiring>(a: &mut ViewMut<'_, S::Elem>) {
    let n = a.rows();
    assert_eq!(n, a.cols(), "fw_closure requires a square block");
    for i in 0..n {
        let d = S::add(a.at(i, i), S::one());
        a.set(i, i, d);
    }
    for k in 0..n {
        for i in 0..n {
            let a_ik = a.at(i, k);
            let (k_row, i_row_mut): (Vec<S::Elem>, &mut [S::Elem]) = {
                // copy row k (it may alias row i when i == k)
                (a.row(k).to_vec(), a.row_mut(i))
            };
            for (j, &a_kj) in k_row.iter().enumerate() {
                i_row_mut[j] = S::fma(i_row_mut[j], a_ik, a_kj);
            }
        }
    }
}

/// Closure by repeated squaring (paper Eq. 4): `B ← I ⊕ A`, then
/// `B ← B ⊗ B` for `⌈log₂ n⌉` rounds. Returns nothing; `a` is replaced by
/// its closure. Each squaring runs on at most `threads` kernel threads.
pub fn fw_closure_squaring<S: Semiring>(a: &mut ViewMut<'_, S::Elem>, threads: usize) {
    assert!(
        S::IDEMPOTENT_ADD,
        "closure-by-squaring needs an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let n = a.rows();
    assert_eq!(n, a.cols(), "closure requires a square block");
    if n == 0 {
        return;
    }
    for i in 0..n {
        let d = S::add(a.at(i, i), S::one());
        a.set(i, i, d);
    }
    let rounds = usize::BITS - (n - 1).leading_zeros(); // ⌈log₂ n⌉
    let mut cur = a.to_matrix();
    for _ in 0..rounds.max(1) {
        let mut next = Matrix::filled(n, n, S::zero());
        let pb = PackedB::pack::<S>(&cur.view());
        gemm_packed_threads::<S>(&mut next.view_mut(), &cur.view(), &pb, threads);
        cur = next;
    }
    a.copy_from(&cur.view());
}

/// Number of GEMM flops the squaring form spends on a `b × b` block —
/// `⌈log₂ b⌉ · 2b³`.
pub fn closure_squaring_flops(b: usize) -> f64 {
    if b <= 1 {
        return 2.0 * (b as f64).powi(3);
    }
    let rounds = (usize::BITS - (b - 1).leading_zeros()) as f64;
    rounds * 2.0 * (b as f64).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOr, MinPlus};

    type MP = MinPlus<f64>;

    fn lcg_dist(n: usize, seed: u64, density_mod: u64) -> Matrix<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
        Matrix::from_fn(n, n, |i, j| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if i == j {
                0.0
            } else if (state >> 33).is_multiple_of(density_mod) {
                ((state >> 13) % 100) as f64 + 1.0
            } else {
                f64::INFINITY
            }
        })
    }

    #[test]
    fn closure_of_line_graph() {
        // 0 -1-> 1 -1-> 2: dist(0,2) must become 2.
        let inf = f64::INFINITY;
        let mut a = Matrix::from_rows(&[&[0.0, 1.0, inf], &[inf, 0.0, 1.0], &[inf, inf, 0.0]]);
        fw_closure::<MP>(&mut a.view_mut());
        assert_eq!(a[(0, 2)], 2.0);
        assert_eq!(a[(2, 0)], inf);
        assert_eq!(a[(1, 1)], 0.0);
    }

    #[test]
    fn closure_finds_shortcut() {
        let inf = f64::INFINITY;
        // direct 0->1 is 10, via 2 it's 3.
        let mut a = Matrix::from_rows(&[
            &[0.0, 10.0, 1.0],
            &[inf, 0.0, inf],
            &[inf, 2.0, 0.0],
        ]);
        fw_closure::<MP>(&mut a.view_mut());
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn squaring_matches_fw_closure_dense() {
        // 70 > MC: the squarings cross a packed-slab boundary
        for n in [1usize, 2, 3, 5, 8, 17, 32, 70] {
            let base = lcg_dist(n, n as u64, 2);
            let mut by_fw = base.clone();
            let mut by_sq = base.clone();
            fw_closure::<MP>(&mut by_fw.view_mut());
            fw_closure_squaring::<MP>(&mut by_sq.view_mut(), 1);
            assert!(by_fw.eq_exact(&by_sq), "n={n}");
        }
    }

    #[test]
    fn squaring_matches_fw_closure_sparse_and_parallel() {
        let base = lcg_dist(33, 7, 5);
        let mut by_fw = base.clone();
        let mut by_sq = base.clone();
        fw_closure::<MP>(&mut by_fw.view_mut());
        fw_closure_squaring::<MP>(&mut by_sq.view_mut(), 2);
        assert!(by_fw.eq_exact(&by_sq));
    }

    #[test]
    fn bool_closure_is_reachability() {
        // 0 -> 1 -> 2, plus 3 isolated.
        let mut a = Matrix::from_fn(4, 4, |i, j| (i == 0 && j == 1) || (i == 1 && j == 2));
        fw_closure::<BoolOr>(&mut a.view_mut());
        assert!(a[(0, 2)]);
        assert!(a[(0, 0)]); // self-reachability via I ⊕ …
        assert!(!a[(0, 3)]);
        assert!(!a[(3, 0)]);
    }

    #[test]
    fn closure_is_idempotent() {
        let mut a = lcg_dist(16, 99, 3);
        fw_closure::<MP>(&mut a.view_mut());
        let once = a.clone();
        fw_closure::<MP>(&mut a.view_mut());
        assert!(a.eq_exact(&once));
    }

    #[test]
    fn closure_on_subview_leaves_parent_rest() {
        let inf = f64::INFINITY;
        let mut parent = Matrix::filled(5, 5, 42.0);
        {
            let mut blk = parent.subview_mut(1, 1, 3, 3);
            blk.fill(inf);
            blk.set(0, 0, 0.0);
            blk.set(1, 1, 0.0);
            blk.set(2, 2, 0.0);
            blk.set(0, 1, 1.0);
            blk.set(1, 2, 1.0);
            fw_closure::<MP>(&mut blk);
        }
        assert_eq!(parent[(1, 3)], 2.0); // (0,2) of the block
        assert_eq!(parent[(0, 0)], 42.0); // outside untouched
        assert_eq!(parent[(4, 4)], 42.0);
    }

    #[test]
    fn squaring_flop_model() {
        assert_eq!(closure_squaring_flops(1), 2.0);
        // b=8: 3 rounds of 2·8³
        assert_eq!(closure_squaring_flops(8), 3.0 * 2.0 * 512.0);
        // b=9: 4 rounds
        assert_eq!(closure_squaring_flops(9), 4.0 * 2.0 * 729.0);
    }
}
