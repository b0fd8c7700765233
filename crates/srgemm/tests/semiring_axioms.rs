//! Property-based checks of the semiring laws and kernel equivalences.

use proptest::prelude::*;
use srgemm::prelude::*;
use srgemm::gemm::{gemm_naive, gemm_packed, gemm_packed_threads};

/// Finite tropical elements: moderate magnitudes so ⊗ (=+) never overflows,
/// with ∞ mixed in at ~20% rate.
fn tropical_elem() -> impl Strategy<Value = f64> {
    // Integer-valued doubles: ⊗ (= IEEE +) is exact on them, so the monoid
    // and distributivity laws hold bit-for-bit (they fail for general floats
    // only because of rounding, not because the algebra is wrong).
    prop_oneof![
        4 => (-1000i64..1000).prop_map(|i| i as f64),
        1 => Just(f64::INFINITY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn minplus_add_commutative_associative(a in tropical_elem(), b in tropical_elem(), c in tropical_elem()) {
        type S = MinPlus<f64>;
        prop_assert_eq!(S::add(a, b), S::add(b, a));
        prop_assert_eq!(S::add(S::add(a, b), c), S::add(a, S::add(b, c)));
    }

    #[test]
    fn minplus_mul_associative_with_identity(a in tropical_elem(), b in tropical_elem(), c in tropical_elem()) {
        type S = MinPlus<f64>;
        prop_assert_eq!(S::mul(S::mul(a, b), c), S::mul(a, S::mul(b, c)));
        prop_assert_eq!(S::mul(S::one(), a), a);
        prop_assert_eq!(S::mul(a, S::one()), a);
    }

    #[test]
    fn minplus_distributes(a in tropical_elem(), b in tropical_elem(), c in tropical_elem()) {
        type S = MinPlus<f64>;
        // a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c): min(a+min(b,c)) vs min(a+b, a+c)
        prop_assert_eq!(S::mul(a, S::add(b, c)), S::add(S::mul(a, b), S::mul(a, c)));
        prop_assert_eq!(S::mul(S::add(b, c), a), S::add(S::mul(b, a), S::mul(c, a)));
    }

    #[test]
    fn minplus_zero_annihilates(a in tropical_elem()) {
        type S = MinPlus<f64>;
        prop_assert_eq!(S::mul(S::zero(), a), S::zero());
        prop_assert_eq!(S::mul(a, S::zero()), S::zero());
        prop_assert_eq!(S::add(S::zero(), a), a);
    }

    #[test]
    fn minplus_add_idempotent(a in tropical_elem()) {
        type S = MinPlus<f64>;
        prop_assert_eq!(S::add(a, a), a);
    }

    #[test]
    fn maxmin_laws(a in tropical_elem(), b in tropical_elem(), c in tropical_elem()) {
        type S = MaxMin<f64>;
        prop_assert_eq!(S::add(a, b), S::add(b, a));
        prop_assert_eq!(S::mul(a, S::add(b, c)), S::add(S::mul(a, b), S::mul(a, c)));
        prop_assert_eq!(S::mul(S::zero(), a), S::zero());
    }
}

/// The `u16` lanes' sentinel `S = 2¹⁵ − 1` and the canonical form of a bare
/// `⊗` result: anything at or above `S` is `+∞`.
const S16: u16 = MinPlusSatU16::SENTINEL;

fn canon(x: u16) -> u16 {
    x.min(S16)
}

/// Quantized tropical elements (u16): the whole domain `0..=S`, with values
/// near the saturation boundary and the sentinel itself mixed in at ~20 %
/// rate each. Unlike the float strategy there is no "moderate magnitude"
/// cap — saturation is the point.
fn quant_u16_elem() -> impl Strategy<Value = u16> {
    prop_oneof![
        2 => 0u16..1001,
        1 => 0u16..S16,
        1 => (S16 - 64)..S16,
        1 => Just(S16),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quant_u16_semiring_laws(a in quant_u16_elem(), b in quant_u16_elem(), c in quant_u16_elem()) {
        type S = MinPlusSatU16;
        // ⊗ on in-domain operands, read back into the domain: a bare product
        // may sit above the sentinel and is an operand again only through canon
        let mul = |x: u16, y: u16| canon(S::mul(x, y));
        prop_assert_eq!(S::zero(), S16);
        // (S, ⊕, 0̄) commutative monoid; ⊕ idempotent and closed on the domain
        prop_assert_eq!(S::add(a, b), S::add(b, a));
        prop_assert_eq!(S::add(S::add(a, b), c), S::add(a, S::add(b, c)));
        prop_assert_eq!(S::add(S::zero(), a), a);
        prop_assert_eq!(S::add(a, a), a);
        // (S, ⊗, 1̄) monoid modulo canon — addition capped at S stays associative
        prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        prop_assert_eq!(S::mul(S::one(), a), a);
        prop_assert_eq!(S::mul(a, S::one()), a);
        // distributivity (both sides) and annihilation — exact modulo canon
        prop_assert_eq!(mul(a, S::add(b, c)), S::add(mul(a, b), mul(a, c)));
        prop_assert_eq!(mul(S::add(b, c), a), S::add(mul(b, a), mul(c, a)));
        prop_assert_eq!(mul(S::zero(), a), S::zero());
        prop_assert_eq!(mul(a, S::zero()), S::zero());
        // the law the design rests on: the accumulate — all a kernel ever
        // stores — needs no canon. With c in the domain the plain add under
        // min *is* the add that saturates at S, and the result is in the domain.
        let saturated = (a as u32 + b as u32).min(S16 as u32);
        prop_assert_eq!(S::fma(c, a, b) as u32, (c as u32).min(saturated));
        prop_assert_eq!(S::fma(c, a, b), S::add(c, mul(a, b)));
        prop_assert!(S::fma(c, a, b) <= S16);
    }

    #[test]
    fn quant_u16_saturating_add_never_wraps(a in quant_u16_elem(), b in quant_u16_elem()) {
        type S = MinPlusSatU16;
        // ⊗ is a + b over ℕ for every in-domain pair (2S < 2¹⁶, no wrap):
        // monotone in both operands, ≥ each operand, and min(a + b, S) once
        // read back into the domain
        let sum = a as u32 + b as u32;
        prop_assert_eq!(S::mul(a, b) as u32, sum);
        prop_assert_eq!(canon(S::mul(a, b)) as u32, sum.min(S16 as u32));
        prop_assert!(S::mul(a, b) >= a.max(b));
    }

    #[test]
    fn quant_packed_kernel_matches_naive(
        (m, n, k) in (1usize..20, 1usize..70, 1usize..20),
        seed in any::<u64>(),
    ) {
        // the widened-lane packed kernel agrees with naive for the quantized
        // semirings on shapes straddling the u16 NR=64 boundary, sentinel
        // values included
        use srgemm::gemm::{gemm_naive, gemm_packed};
        let mk = |s: u64, rows: usize, cols: usize| {
            let mut state = s | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (state >> 61) == 0 { S16 } else { ((state >> 33) % 5000) as u16 }
            })
        };
        let a = mk(seed, m, k);
        let b = mk(seed.wrapping_add(1), k, n);
        let c0 = mk(seed.wrapping_add(2), m, n);
        let mut want = c0.clone();
        gemm_naive::<MinPlusSatU16>(&mut want.view_mut(), &a.view(), &b.view());
        let mut got = c0.clone();
        gemm_packed::<MinPlusSatU16>(&mut got.view_mut(), &a.view(), &b.view());
        prop_assert!(want.eq_exact(&got), "u16 packed diverged on {}x{}x{}", m, n, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_and_parallel_match_naive(
        (m, n, k) in (1usize..24, 1usize..24, 1usize..24),
        seed in any::<u64>(),
    ) {
        let mk = |s: u64, rows: usize, cols: usize| {
            let mut state = s | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (state >> 60) == 0 { f64::INFINITY } else { ((state >> 33) % 2048) as f64 }
            })
        };
        let a = mk(seed, m, k);
        let b = mk(seed.wrapping_add(1), k, n);
        let c0 = mk(seed.wrapping_add(2), m, n);

        let mut want = c0.clone();
        gemm_naive::<MinPlus<f64>>(&mut want.view_mut(), &a.view(), &b.view());
        let mut got = c0.clone();
        gemm_packed::<MinPlus<f64>>(&mut got.view_mut(), &a.view(), &b.view());
        prop_assert!(want.eq_exact(&got), "packed diverged");
        let mut got = c0.clone();
        let pb = PackedB::pack::<MinPlus<f64>>(&b.view());
        gemm_packed_threads::<MinPlus<f64>>(&mut got.view_mut(), &a.view(), &pb, 4);
        prop_assert!(want.eq_exact(&got), "parallel diverged");
    }

    #[test]
    fn thread_budgeted_parallel_is_bit_equal_to_serial(
        // small shapes stay under the row-slab kernel's work floor (2²¹
        // ⊗-⊕ steps a slab); 300–399 rows at n·k ≥ 14 336 split two or
        // three ways
        (m, n, k) in prop_oneof![
            (1usize..96, 1usize..40, 1usize..40),
            (300usize..400, 224usize..264, 64usize..80),
        ],
        threads in 0usize..9,
        seed in any::<u64>(),
    ) {
        // The thread budget must never change the answer: row slabs are
        // disjoint and min-plus has no rounding, so every thread count —
        // including the degenerate 0 (treated as 1) and counts far above
        // what the product's work allows — must be bit-identical to the
        // serial kernel.
        let mk = |s: u64, rows: usize, cols: usize| {
            let mut state = s | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (state >> 60) == 0 { f64::INFINITY } else { ((state >> 33) % 2048) as f64 }
            })
        };
        let a = mk(seed, m, k);
        let b = mk(seed.wrapping_add(1), k, n);
        let c0 = mk(seed.wrapping_add(2), m, n);

        let mut want = c0.clone();
        gemm_packed::<MinPlus<f64>>(&mut want.view_mut(), &a.view(), &b.view());
        let mut got = c0.clone();
        let pb = PackedB::pack::<MinPlus<f64>>(&b.view());
        gemm_packed_threads::<MinPlus<f64>>(&mut got.view_mut(), &a.view(), &pb, threads);
        prop_assert!(want.eq_exact(&got), "threads={} diverged on {}x{}x{}", threads, m, n, k);
    }

    #[test]
    fn gemm_monotone_in_c(n in 1usize..12, seed in any::<u64>()) {
        // min-plus gemm can only lower entries of C
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 512) as f64
        };
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b = Matrix::from_fn(n, n, |_, _| next());
        let c0 = Matrix::from_fn(n, n, |_, _| next());
        let mut c = c0.clone();
        gemm_packed::<MinPlus<f64>>(&mut c.view_mut(), &a.view(), &b.view());
        for i in 0..n {
            for j in 0..n {
                prop_assert!(c[(i, j)] <= c0[(i, j)]);
            }
        }
    }

    #[test]
    fn closure_matches_squaring(n in 1usize..20, seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let base = Matrix::from_fn(n, n, |i, j| {
            let r = next();
            if i == j { 0.0 }
            else if r % 3 == 0 { f64::INFINITY }
            else { ((r >> 33) % 100) as f64 + 1.0 }
        });
        let mut fw = base.clone();
        let mut sq = base.clone();
        fw_closure::<MinPlus<f64>>(&mut fw.view_mut());
        fw_closure_squaring::<MinPlus<f64>>(&mut sq.view_mut(), 1);
        prop_assert!(fw.eq_exact(&sq));
    }

    #[test]
    fn closure_triangle_inequality(n in 2usize..16, seed in any::<u64>()) {
        // after closure: d(i,j) ≤ d(i,k) + d(k,j) for all i,j,k
        let mut state = seed | 1;
        let base = Matrix::from_fn(n, n, |i, j| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if i == j { 0.0 } else { ((state >> 33) % 1000) as f64 }
        });
        let mut d = base;
        fw_closure::<MinPlus<f64>>(&mut d.view_mut());
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    prop_assert!(d[(i, j)] <= d[(i, k)] + d[(k, j)] + 1e-9);
                }
            }
        }
    }
}
