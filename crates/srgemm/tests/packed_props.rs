//! Property-based equivalence checks for the packed, register-tiled kernel.
//!
//! The claim under test is the one DESIGN.md §11 argues: for **any** operand
//! shape — ragged micro-tile tails included — the packed kernel folds the
//! reduction in the same ascending-`k` order as `gemm_naive`, so the two are
//! *bit-identical* (not just numerically close) on every semiring, and the
//! row-slab parallel kernel with its shared packed `B` is bit-identical to
//! the serial one.

use proptest::prelude::*;
use srgemm::gemm::{gemm_naive, gemm_packed, gemm_packed_threads, gemm_packed_with_b, PackedB, KC};
use srgemm::matrix::Matrix;
use srgemm::semiring::{BoolOr, MaxMin, MinPlus, RealArith, Semiring};

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // mix finite weights with ~1/8 infinities, like a sparse graph
        if state.is_multiple_of(8) {
            f32::INFINITY
        } else {
            ((state >> 33) % 4096) as f32 / 16.0
        }
    })
}

fn lcg_matrix_f64(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % 4096) as f64 / 16.0
    })
}

/// Shapes that straddle every interesting boundary: the micro-tile edges
/// (MR ∈ {2,4,8}, NR ∈ {16,32} depending on ISA), the `k = 0` empty
/// reduction, and — with low weight, they are slow — `k` around the KC tile
/// boundary so multi-tile reductions and ragged KC tails are exercised.
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        8 => (1usize..40, 1usize..70, 0usize..48),
        1 => (1usize..8, 1usize..20, (KC - 2)..(KC + 3)),
    ]
}

/// Shapes two to three slabs deep for the row-slab kernel's work floor
/// (2²¹ ⊗-⊕ steps, rows × cols × depth): `n·k ∈ [14 336, 20 777]` puts a
/// slab at 101–147 rows, so 300–399 rows split from 2 threads up, with
/// ragged slab, micro-tile and column tails.
fn split_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (300usize..400, 224usize..264, 64usize..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_bit_identical_to_naive_minplus_f32((m, n, k) in shapes(), seed in any::<u64>()) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed ^ 0x9e3779b97f4a7c15);
        let mut c1 = lcg_matrix(m, n, seed ^ 0xdeadbeef);
        let mut c2 = c1.clone();
        gemm_naive::<MinPlus<f32>>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<MinPlus<f32>>(&mut c2.view_mut(), &a.view(), &b.view());
        prop_assert!(c1.eq_exact(&c2), "shape ({m},{n},{k})");
    }

    #[test]
    fn packed_bit_identical_to_naive_minplus_f64((m, n, k) in shapes(), seed in any::<u64>()) {
        let a = lcg_matrix_f64(m, k, seed);
        let b = lcg_matrix_f64(k, n, seed ^ 0x9e3779b97f4a7c15);
        let mut c1 = Matrix::filled(m, n, MinPlus::<f64>::zero());
        let mut c2 = c1.clone();
        gemm_naive::<MinPlus<f64>>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<MinPlus<f64>>(&mut c2.view_mut(), &a.view(), &b.view());
        prop_assert!(c1.eq_exact(&c2), "shape ({m},{n},{k})");
    }

    // The other element widths and semirings the packed kernel serves:
    // 1-byte Boolean reachability, the real-arithmetic sanity oracle, and
    // the widest-path instances of `dc_apsp` / `fw_closure_squaring`.

    #[test]
    fn packed_bit_identical_to_naive_boolor((m, n, k) in shapes(), seed in any::<u64>()) {
        // 1-byte elements: the widest NR (128 lanes on AVX-512) and pad
        let bits = |rows, cols, s: u64| {
            let mut state = s | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33).is_multiple_of(3)
            })
        };
        let a = bits(m, k, seed);
        let b = bits(k, n, seed ^ 0x9e3779b97f4a7c15);
        let mut c1 = bits(m, n, seed ^ 0xdeadbeef);
        let mut c2 = c1.clone();
        gemm_naive::<BoolOr>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<BoolOr>(&mut c2.view_mut(), &a.view(), &b.view());
        prop_assert!(c1.eq_exact(&c2), "shape ({m},{n},{k})");
    }

    #[test]
    fn packed_bit_identical_to_naive_realarith_f64((m, n, k) in shapes(), seed in any::<u64>()) {
        // ⊕ is a rounding sum here: equal bits need the same ascending-k
        // order, and the 0̄ = 0.0 pads must not leak into live lanes
        let a = lcg_matrix_f64(m, k, seed);
        let b = lcg_matrix_f64(k, n, seed ^ 0x9e3779b97f4a7c15);
        let mut c1 = lcg_matrix_f64(m, n, seed ^ 0xdeadbeef);
        let mut c2 = c1.clone();
        gemm_naive::<RealArith<f64>>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<RealArith<f64>>(&mut c2.view_mut(), &a.view(), &b.view());
        prop_assert!(c1.eq_exact(&c2), "shape ({m},{n},{k})");
    }

    #[test]
    fn packed_bit_identical_to_naive_maxmin_f32((m, n, k) in shapes(), seed in any::<u64>()) {
        // 0̄ = −∞ here; `lcg_matrix`'s +∞ entries are this semiring's 1̄
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed ^ 0x9e3779b97f4a7c15);
        let mut c1 = Matrix::filled(m, n, MaxMin::<f32>::zero());
        let mut c2 = c1.clone();
        gemm_naive::<MaxMin<f32>>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<MaxMin<f32>>(&mut c2.view_mut(), &a.view(), &b.view());
        prop_assert!(c1.eq_exact(&c2), "shape ({m},{n},{k})");
    }

    #[test]
    fn shared_packed_b_matches_fresh_pack(
        (m, n, k) in (1usize..30, 1usize..40, 1usize..30),
        seed in any::<u64>(),
    ) {
        // one packed B serving several A operands must behave exactly like
        // packing per call — the reuse the FW drivers rely on per iteration
        let b = lcg_matrix(k, n, seed);
        let pb = PackedB::pack::<MinPlus<f32>>(&b.view());
        for round in 0..3u64 {
            let a = lcg_matrix(m, k, seed.wrapping_add(round));
            let mut c1 = lcg_matrix(m, n, seed ^ round);
            let mut c2 = c1.clone();
            gemm_packed::<MinPlus<f32>>(&mut c1.view_mut(), &a.view(), &b.view());
            gemm_packed_with_b::<MinPlus<f32>>(&mut c2.view_mut(), &a.view(), &pb);
            prop_assert!(c1.eq_exact(&c2), "round {round}, shape ({m},{n},{k})");
        }
    }

    #[test]
    fn parallel_with_packing_bit_equal_to_serial(
        // half the cases split into several slabs that actually spawn; the
        // small half takes the serial fallback at every budget
        ((m, n, k), threads) in prop_oneof![
            ((1usize..80, 1usize..40, 0usize..32), 1usize..5),
            (split_shapes(), 2usize..5),
        ],
        seed in any::<u64>(),
    ) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed ^ 0x5bf0a8b1);
        let mut serial = lcg_matrix(m, n, seed ^ 0x7f4a7c15);
        let mut parallel = serial.clone();
        gemm_packed::<MinPlus<f32>>(&mut serial.view_mut(), &a.view(), &b.view());
        let pb = PackedB::pack::<MinPlus<f32>>(&b.view());
        gemm_packed_threads::<MinPlus<f32>>(&mut parallel.view_mut(), &a.view(), &pb, threads);
        prop_assert!(serial.eq_exact(&parallel), "shape ({m},{n},{k}) threads {threads}");
    }
}
