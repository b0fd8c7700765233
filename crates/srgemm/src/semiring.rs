//! Semiring abstraction and the instances used across the workspace.
//!
//! All-pairs shortest paths is matrix closure over the **tropical semiring**
//! (ℝ ∪ {∞}, min, +): the paper's §2.3 defines `x ⊕ y = min(x, y)` and
//! `x ⊗ y = x + y`. The kernels in this crate are generic over any semiring
//! so the same code also computes transitive closure (Boolean semiring),
//! widest paths (max-min), longest paths on DAG-like inputs (max-plus), and
//! plain numeric products (used as a sanity oracle in tests).

use std::fmt::Debug;
use std::marker::PhantomData;

/// An algebraic semiring `(S, ⊕, ⊗, 0̄, 1̄)`.
///
/// Laws (checked by property tests in `tests/semiring_axioms.rs`):
///
/// * `(S, ⊕, 0̄)` is a commutative monoid,
/// * `(S, ⊗, 1̄)` is a monoid,
/// * `⊗` distributes over `⊕`,
/// * `0̄` annihilates: `0̄ ⊗ x = x ⊗ 0̄ = 0̄`.
///
/// Implementations are zero-sized marker types; the element type is the
/// associated [`Semiring::Elem`]. All kernels take the semiring as a type
/// parameter, so the operation choice is monomorphized into the inner loops
/// exactly as cuASR instantiates Cutlass templates per semiring.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Scalar element type flowing through the kernels.
    type Elem: Copy + Send + Sync + PartialEq + Debug + 'static;

    /// Human-readable name (used in bench labels and error messages).
    const NAME: &'static str;

    /// Whether `x ⊕ x = x` for all `x`. True for min/max semirings; it makes
    /// repeated accumulation idempotent, which the blocked algorithms exploit.
    const IDEMPOTENT_ADD: bool;

    /// Additive identity `0̄` (`+∞` for min-plus).
    fn zero() -> Self::Elem;

    /// Multiplicative identity `1̄` (`0.0` for min-plus).
    fn one() -> Self::Elem;

    /// `⊕` — the "add" (min for min-plus).
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// `⊗` — the "multiply" (+ for min-plus).
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Fused accumulate `c ← c ⊕ (a ⊗ b)`, the semiring analogue of FMA.
    /// Kernels call this in their innermost loop; instances may override it
    /// with a cheaper form.
    #[inline(always)]
    fn fma(c: Self::Elem, a: Self::Elem, b: Self::Elem) -> Self::Elem {
        Self::add(c, Self::mul(a, b))
    }
}

/// Floating-point scalars usable by [`MinPlus`]/[`MaxMin`]/[`RealArith`].
pub trait Scalar: Copy + Send + Sync + PartialEq + PartialOrd + Debug + 'static {
    /// `+∞`.
    fn infinity() -> Self;
    /// `-∞`.
    fn neg_infinity() -> Self;
    /// Additive zero.
    fn zero() -> Self;
    /// Multiplicative one.
    fn one() -> Self;
    /// IEEE addition.
    fn plus(self, other: Self) -> Self;
    /// IEEE multiplication.
    fn times(self, other: Self) -> Self;
    /// `min` (NaN-free inputs assumed; ties keep either operand).
    fn min_(self, other: Self) -> Self;
    /// `max`.
    fn max_(self, other: Self) -> Self;
}

macro_rules! impl_scalar_float {
    ($t:ty) => {
        impl Scalar for $t {
            #[inline(always)]
            fn infinity() -> Self {
                <$t>::INFINITY
            }
            #[inline(always)]
            fn neg_infinity() -> Self {
                <$t>::NEG_INFINITY
            }
            #[inline(always)]
            fn zero() -> Self {
                0.0
            }
            #[inline(always)]
            fn one() -> Self {
                1.0
            }
            #[inline(always)]
            fn plus(self, other: Self) -> Self {
                self + other
            }
            #[inline(always)]
            fn times(self, other: Self) -> Self {
                self * other
            }
            #[inline(always)]
            fn min_(self, other: Self) -> Self {
                if other < self {
                    other
                } else {
                    self
                }
            }
            #[inline(always)]
            fn max_(self, other: Self) -> Self {
                if other > self {
                    other
                } else {
                    self
                }
            }
        }
    };
}

impl_scalar_float!(f32);
impl_scalar_float!(f64);

/// Tropical semiring `(ℝ ∪ {+∞}, min, +)` — shortest paths. The paper's
/// semiring (§2.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlus<T>(PhantomData<T>);

impl<T: Scalar> Semiring for MinPlus<T> {
    type Elem = T;
    const NAME: &'static str = "min-plus";
    const IDEMPOTENT_ADD: bool = true;

    #[inline(always)]
    fn zero() -> T {
        T::infinity()
    }
    #[inline(always)]
    fn one() -> T {
        T::zero()
    }
    #[inline(always)]
    fn add(a: T, b: T) -> T {
        a.min_(b)
    }
    #[inline(always)]
    fn mul(a: T, b: T) -> T {
        a.plus(b)
    }
}

/// `(ℝ ∪ {±∞}, max, min)` — widest path / bottleneck capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxMin<T>(PhantomData<T>);

impl<T: Scalar> Semiring for MaxMin<T> {
    type Elem = T;
    const NAME: &'static str = "max-min";
    const IDEMPOTENT_ADD: bool = true;

    #[inline(always)]
    fn zero() -> T {
        T::neg_infinity()
    }
    #[inline(always)]
    fn one() -> T {
        T::infinity()
    }
    #[inline(always)]
    fn add(a: T, b: T) -> T {
        a.max_(b)
    }
    #[inline(always)]
    fn mul(a: T, b: T) -> T {
        a.min_(b)
    }
}

/// Boolean semiring `({false, true}, ∨, ∧)` — reachability / transitive closure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoolOr;

impl Semiring for BoolOr {
    type Elem = bool;
    const NAME: &'static str = "bool-or-and";
    const IDEMPOTENT_ADD: bool = true;

    #[inline(always)]
    fn zero() -> bool {
        false
    }
    #[inline(always)]
    fn one() -> bool {
        true
    }
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a | b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }
}

/// Quantized tropical semiring over `u16`: min-plus that saturates at the
/// half-range sentinel `S = 2¹⁵ − 1 = 32 767` ([`MinPlusSatU16::SENTINEL`]),
/// evaluated without a saturating instruction.
///
/// The domain is `0..=S`; `zero() = S` is `+∞` / "no edge", `⊕` is `min`
/// and `⊗` is a plain 16-bit add. For in-domain operands `a + b ≤ 2S < 2¹⁶`
/// cannot wrap, and for an in-domain accumulator `c`
///
/// > `min(c, a + b) = min(c, min(a + b, S))`,
///
/// so `c ← c ⊕ a ⊗ b` — the only way the kernels combine the two — is bit
/// for bit what the saturating semiring at `S` computes, and the result is
/// again `≤ S`. A bare `a ⊗ b` may exceed `S`; it reads as `+∞` (any value
/// `≥ S` does) and must pass through `⊕` with an in-domain value before it
/// is an operand again. The axioms therefore hold exactly modulo
/// `canon(x) = min(x, S)`, the sentinel absorbs (`min(c, S + x) = c`), and
/// `S`-padded [`crate::gemm::PackedB`] tails stay exact no-ops.
///
/// Why half the range: the saturating add (`vpaddusw`) is the port-limited
/// instruction of the u16 micro-tile, the plain one (`vpaddw`) is not —
/// 131–144 against 91–98 Gflop/s on the same 8×64 tile (DESIGN.md §16). On
/// AVX-512 this runs 32 lanes per vector (`vpminuw` + `vpaddw`), twice the
/// f32 width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlusSatU16;

impl MinPlusSatU16 {
    /// `S = 2¹⁵ − 1`: the `+∞` sentinel and the largest in-domain element.
    pub const SENTINEL: u16 = i16::MAX as u16;
}

impl Semiring for MinPlusSatU16 {
    type Elem = u16;
    const NAME: &'static str = "min-plus-sat-u16";
    const IDEMPOTENT_ADD: bool = true;

    #[inline(always)]
    fn zero() -> u16 {
        Self::SENTINEL
    }
    #[inline(always)]
    fn one() -> u16 {
        0
    }
    #[inline(always)]
    fn add(a: u16, b: u16) -> u16 {
        a.min(b)
    }
    /// The bare add in a release build; a debug build panics on an operand
    /// outside the domain, which is the only way the sum could wrap.
    #[inline(always)]
    fn mul(a: u16, b: u16) -> u16 {
        debug_assert!(
            a <= Self::SENTINEL && b <= Self::SENTINEL,
            "u16 min-plus operand above the sentinel: {a} (x) {b}"
        );
        a.wrapping_add(b)
    }
}

/// Ordinary real arithmetic `(ℝ, +, ×)` — used as a GEMM sanity oracle in
/// tests (it is a semiring too, just not an idempotent one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RealArith<T>(PhantomData<T>);

impl<T: Scalar> Semiring for RealArith<T> {
    type Elem = T;
    const NAME: &'static str = "real-arith";
    const IDEMPOTENT_ADD: bool = false;

    #[inline(always)]
    fn zero() -> T {
        T::zero()
    }
    #[inline(always)]
    fn one() -> T {
        T::one()
    }
    #[inline(always)]
    fn add(a: T, b: T) -> T {
        a.plus(b)
    }
    #[inline(always)]
    fn mul(a: T, b: T) -> T {
        a.times(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_plus_identities() {
        type S = MinPlus<f32>;
        assert_eq!(S::zero(), f32::INFINITY);
        assert_eq!(S::one(), 0.0);
        // 0̄ is additive identity.
        assert_eq!(S::add(S::zero(), 3.5), 3.5);
        // 1̄ is multiplicative identity.
        assert_eq!(S::mul(S::one(), 3.5), 3.5);
        // 0̄ annihilates under ⊗.
        assert_eq!(S::mul(S::zero(), 3.5), f32::INFINITY);
    }

    #[test]
    fn min_plus_fma_is_relaxation() {
        type S = MinPlus<f32>;
        // dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
        assert_eq!(S::fma(10.0, 3.0, 4.0), 7.0);
        assert_eq!(S::fma(5.0, 3.0, 4.0), 5.0);
        assert_eq!(S::fma(5.0, f32::INFINITY, 4.0), 5.0);
    }

    #[test]
    fn max_min_is_bottleneck() {
        type S = MaxMin<f64>;
        // widest path: the width through an edge pair is the narrower one.
        assert_eq!(S::mul(3.0, 7.0), 3.0);
        // among alternatives take the widest.
        assert_eq!(S::add(3.0, 7.0), 7.0);
        assert_eq!(S::zero(), f64::NEG_INFINITY);
        assert_eq!(S::one(), f64::INFINITY);
    }

    #[test]
    fn bool_or_is_reachability() {
        type S = BoolOr;
        assert!(S::fma(false, true, true));
        assert!(!S::fma(false, true, false));
        assert!(S::fma(true, false, false));
    }

    #[test]
    fn quantized_u16_identities_and_saturation() {
        type S = MinPlusSatU16;
        const INF: u16 = 32_767;
        assert_eq!((S::zero(), S::SENTINEL), (INF, INF));
        assert_eq!(S::one(), 0);
        // 0̄ is additive identity, 1̄ multiplicative identity.
        assert_eq!(S::add(S::zero(), 17), 17);
        assert_eq!(S::mul(S::one(), 17), 17);
        // through the sentinel a bare ⊗ lands at or above it (reads as +∞)
        // without wrapping, even at the top of the domain: 2S = 65 534
        assert_eq!(S::mul(S::zero(), 17), INF + 17);
        assert_eq!(S::mul(17, S::zero()), INF + 17);
        assert_eq!(S::mul(INF, INF), u16::MAX - 1);
        // …and the accumulate, which is all a kernel ever stores, saturates
        // at the sentinel exactly: absorption, and finite sums past it
        assert_eq!(S::fma(INF, INF, 17), INF);
        assert_eq!(S::fma(INF, INF - 1, 10), INF);
        assert_eq!(S::fma(INF, INF - 11, 10), INF - 1);
        // relaxation semantics.
        assert_eq!(S::fma(10, 3, 4), 7);
        assert_eq!(S::fma(5, INF, 4), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "above the sentinel")]
    fn quantized_u16_mul_checks_its_domain_in_debug_builds() {
        MinPlusSatU16::mul(MinPlusSatU16::SENTINEL + 1, 0);
    }

    #[test]
    fn real_arith_matches_ieee() {
        type S = RealArith<f64>;
        assert_eq!(S::fma(1.0, 2.0, 3.0), 7.0);
        const { assert!(!S::IDEMPOTENT_ADD) };
    }
}
