//! Quantized-integer APSP: scale-and-round a weighted [`Graph`] into `u16`
//! weights, run blocked FW over the saturating integer min-plus semiring
//! [`MinPlusSatU16`], and dequantize back to `f32` with a provable error
//! bound — `u16` lanes or a typed refusal, there is no wider fallback.
//!
//! Why bother: `u16` doubles (vs `f32`) the elements per SIMD register —
//! 32 lanes per AVX-512 register instead of 16 — and halves the bytes per
//! distance, so a quantized solve trades a bounded, explicit amount of
//! precision for capacity and a measured 1.2× kernel (DESIGN.md §16). This
//! is the CPU analogue of the low-precision tensor-core SRGEMM variants of
//! the paper's GPU engine.
//!
//! ## Contract
//!
//! Quantization maps weight `w` to `round(w · scale)` with a power-of-two
//! `scale ≥ 1`. The integer semiring's `zero()` is the type's `MAX`
//! sentinel (= "no edge" = `+∞`); saturating `⊗` guarantees sums through
//! the sentinel stick at the sentinel. The plan ([`plan`]) proves, before
//! any work happens, that no *finite* path can reach the sentinel:
//!
//! > `hops · round(max_weight · scale) ≤ sentinel − 1`, `hops = n − 1`.
//!
//! Every shortest path in a non-negative graph is simple (≤ `n − 1` edges),
//! so under that precondition the solve is *exact over the quantized
//! weights*: saturation only ever caps dominated path sums, never a
//! minimum. The remaining error is pure rounding — each edge contributes at
//! most `0.5 / scale`, so the dequantized distance `d̂` satisfies
//!
//! > `|d̂ − d*| ≤ eps = hops · 0.5 / scale`
//!
//! (see DESIGN.md §16 for the derivation). When every weight is a whole
//! number and the precondition holds at `scale = 1` (every distance is then
//! below 2¹⁶, so the `f32` dequantization is itself exact), rounding
//! vanishes and the solve is bit-exact: `eps = 0`.
//!
//! Graphs that cannot meet the precondition at `scale = 1`
//! (`hops · max_weight > 65 534`) are rejected up front with the typed
//! [`QuantError::Overflow`]; requested
//! tolerances the achievable `eps` cannot meet are
//! [`QuantError::Tolerance`]. Negative weights are outside the saturating
//! semiring's domain (the annihilator law breaks) and are typed
//! [`QuantError::NegativeWeights`].

use apsp_graph::Graph;
use srgemm::{Matrix, MinPlusSatU16};

use crate::fw_blocked::{fw_blocked_threads, DiagMethod};

/// Largest power-of-two exponent [`plan`] will consider for the scale.
/// `2⁴⁰` already pushes `eps` below `1e-9` for any graph small enough to
/// solve densely; beyond that `w · scale` risks `f64` rounding in the
/// overflow proof itself.
const MAX_SCALE_EXP: i32 = 40;

/// The `+∞` sentinel of the `u16` lanes (the semiring's `zero()`).
const SENTINEL: u64 = u16::MAX as u64;

/// Integer element type a quantized solve runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantDtype {
    /// 16-bit unsigned lanes — 32 per AVX-512 register.
    U16,
}

impl QuantDtype {
    /// Type name as printed in notes and errors.
    pub fn name(self) -> &'static str {
        "u16"
    }

    /// Bytes per element (the SIMD lane width driver).
    pub fn bytes(self) -> usize {
        2
    }
}

/// A proven-safe quantization: dtype, scale, and the error bound the
/// dequantized distances are guaranteed to satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantPlan {
    /// Integer element type the solve will run in.
    pub dtype: QuantDtype,
    /// Power-of-two weight multiplier (`≥ 1`).
    pub scale: f64,
    /// Worst-case `|dequantized − true|` over all finite distances;
    /// `0.0` when the solve is provably bit-exact.
    pub eps: f64,
    /// Whether the solve is provably bit-exact (integral weights,
    /// `f32`-representable distances).
    pub exact: bool,
    /// Maximum edges on a simple path (`max(n − 1, 1)`), the factor in
    /// both the overflow proof and the error bound.
    pub hops: u64,
}

/// Why a graph cannot be quantized (all variants are decided *before* any
/// quantization work happens).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuantError {
    /// Saturating integer min-plus is only a semiring on non-negative
    /// values (`MAX.saturating_add(-5) ≠ MAX` breaks the annihilator).
    NegativeWeights {
        /// The most negative weight seen.
        min: f32,
    },
    /// `hops × max_weight` cannot fit below the `u16` sentinel even at
    /// `scale = 1`: a finite shortest path could saturate, which would
    /// silently turn a reachable pair into `+∞`.
    Overflow {
        /// `n − 1`, the simple-path hop bound.
        hops: u64,
        /// Largest edge weight in the graph.
        max_weight: f32,
        /// The `u16` sentinel the product must stay below.
        sentinel: u64,
    },
    /// The best achievable error bound still exceeds the requested
    /// `--error-tolerance`.
    Tolerance {
        /// Smallest `eps` any fitting scale achieves.
        eps: f64,
        /// What the caller asked for.
        tolerance: f64,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NegativeWeights { min } => {
                write!(f, "quantization requires non-negative weights (min {min})")
            }
            QuantError::Overflow { hops, max_weight, sentinel } => write!(
                f,
                "quantization overflow: {hops} hops x max weight {max_weight} cannot fit \
                 below the u16 sentinel {sentinel} at any scale >= 1"
            ),
            QuantError::Tolerance { eps, tolerance } => write!(
                f,
                "achievable quantization error +-{eps:.3e} exceeds the requested \
                 tolerance {tolerance:.3e}"
            ),
        }
    }
}

impl std::error::Error for QuantError {}

/// Does `scale` keep every finite simple-path sum strictly below the
/// sentinel (so saturation can never cap a minimum)?
fn fits(hops: u64, max_weight: f64, scale: f64) -> bool {
    let q_max = (max_weight * scale).round();
    q_max.is_finite() && hops as f64 * q_max <= (SENTINEL - 1) as f64
}

/// Pick the power-of-two scale for a graph with the given shape, proving
/// the overflow precondition and the `eps` bound up front.
///
/// `integral` asserts every weight is a whole number (the profile's
/// one-pass sweep computes it); it unlocks the bit-exact `scale = 1` path.
/// `tolerance` is the largest acceptable `eps` — pass `f64::INFINITY` to
/// ask "what is the best you can do", e.g. to report an achievable bound.
pub fn plan(
    n: usize,
    min_weight: f32,
    max_weight: f32,
    integral: bool,
    tolerance: f64,
) -> Result<QuantPlan, QuantError> {
    if min_weight < 0.0 {
        return Err(QuantError::NegativeWeights { min: min_weight });
    }
    let dtype = QuantDtype::U16;
    let hops = (n.saturating_sub(1)).max(1) as u64;
    let w_max = max_weight.max(0.0) as f64;

    // Bit-exact path: integral weights at scale 1 (every finite distance is
    // then a whole number below 2¹⁶, which f32 holds exactly).
    if integral && fits(hops, w_max, 1.0) {
        return Ok(QuantPlan { dtype, scale: 1.0, eps: 0.0, exact: true, hops });
    }

    // Rounding path: the largest power-of-two scale that still fits gives
    // the smallest achievable eps = hops / (2 * scale).
    let Some(scale) =
        (0..=MAX_SCALE_EXP).rev().map(|e| (2.0f64).powi(e)).find(|&s| fits(hops, w_max, s))
    else {
        return Err(QuantError::Overflow { hops, max_weight, sentinel: SENTINEL });
    };
    let eps = hops as f64 * 0.5 / scale;
    if eps <= tolerance {
        Ok(QuantPlan { dtype, scale, eps, exact: false, hops })
    } else {
        Err(QuantError::Tolerance { eps, tolerance })
    }
}

/// [`plan`] with the shape features read off a graph directly (one `O(m)`
/// sweep); the solver layer passes its [`GraphProfile`] fields instead.
///
/// [`GraphProfile`]: crate::solver::GraphProfile
pub fn plan_for_graph(g: &Graph, tolerance: f64) -> Result<QuantPlan, QuantError> {
    let mut min_w = 0.0f32;
    let mut max_w = 0.0f32;
    let mut integral = true;
    for (_, _, w) in g.edges() {
        min_w = min_w.min(w);
        max_w = max_w.max(w);
        if w.fract() != 0.0 {
            integral = false;
        }
    }
    plan(g.n(), min_w, max_w, integral, tolerance)
}

/// Dense `u16` distance seed: `round(w · scale)` per edge, `0` diagonal,
/// `u16::MAX` sentinel elsewhere. Caller must hold a fitting [`QuantPlan`].
pub fn quantize_u16(g: &Graph, scale: f64) -> Matrix<u16> {
    let n = g.n();
    let mut d = Matrix::filled(n, n, u16::MAX);
    for i in 0..n {
        d[(i, i)] = 0;
    }
    for (u, v, w) in g.edges() {
        let q = (w as f64 * scale).round() as u16;
        if q < d[(u, v)] {
            d[(u, v)] = q;
        }
    }
    d
}

/// Map solved `u16` distances back to `f32`: sentinel → `+∞`, otherwise
/// `q / scale`.
pub fn dequantize_u16(d: &Matrix<u16>, scale: f64) -> Matrix<f32> {
    Matrix::from_fn(d.rows(), d.cols(), |i, j| {
        let q = d[(i, j)];
        if q == u16::MAX {
            f32::INFINITY
        } else {
            (q as f64 / scale) as f32
        }
    })
}

/// Quantize per `plan`, run blocked FW over [`MinPlusSatU16`] on at most
/// `threads` kernel threads, and dequantize. The caller is responsible for
/// having obtained `plan` from [`plan`] / [`plan_for_graph`] on this graph —
/// that is what makes the saturation-free and `eps` guarantees hold.
pub fn solve_quantized(g: &Graph, plan: &QuantPlan, block: usize, threads: usize) -> Matrix<f32> {
    let mut d = quantize_u16(g, plan.scale);
    fw_blocked_threads::<MinPlusSatU16>(&mut d, block.max(1), DiagMethod::FwClosure, threads);
    dequantize_u16(&d, plan.scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::GraphBuilder;
    use srgemm::MinPlusF32;

    fn oracle(g: &Graph) -> Matrix<f32> {
        let mut d = g.to_dense();
        fw_seq::<MinPlusF32>(&mut d);
        d
    }

    #[test]
    fn integral_weights_plan_exactly_into_u16() {
        let p = plan(64, 1.0, 9.0, true, 0.0).unwrap();
        assert_eq!(p.dtype, QuantDtype::U16);
        assert_eq!(p.scale, 1.0);
        assert_eq!(p.eps, 0.0);
        assert!(p.exact);
        assert_eq!(p.hops, 63);
    }

    #[test]
    fn fractional_weights_need_a_tolerance_and_get_a_scaled_plan() {
        // 127 hops x round(1.0 x 512) = 65024 fits below the sentinel, x 1024 does not
        let p = plan(128, 0.1, 1.0, false, 0.125).unwrap();
        assert!(!p.exact);
        assert_eq!(p.scale, 512.0);
        // the bound is hops/(2*scale)
        assert_eq!(p.eps, 127.0 * 0.5 / p.scale);
        assert!(p.eps <= 0.125, "eps {}", p.eps);
        // an impossible tolerance is a typed error carrying the best bound
        match plan(128, 0.1, 1.0, false, 0.0) {
            Err(QuantError::Tolerance { eps, tolerance }) => {
                assert!(eps > 0.0);
                assert_eq!(tolerance, 0.0);
            }
            other => panic!("expected Tolerance, got {other:?}"),
        }
    }

    #[test]
    fn overflow_and_negative_weights_are_typed_up_front() {
        // 3e9 > u16::MAX: even scale 1 cannot represent one edge
        match plan(4, 1.0, 3.0e9, true, f64::INFINITY) {
            Err(QuantError::Overflow { hops: 3, sentinel, .. }) => {
                assert_eq!(sentinel, u16::MAX as u64)
            }
            other => panic!("expected Overflow, got {other:?}"),
        }
        // the boundary itself, integral or not: 2 hops x 32767 = 65534 is the
        // last product below the sentinel, 3 x 21845 = 65535 is the sentinel
        for integral in [true, false] {
            let fit = plan(3, 1.0, 32767.0, integral, f64::INFINITY).unwrap();
            assert_eq!((fit.scale, fit.exact), (1.0, integral));
            assert!(matches!(
                plan(4, 1.0, 21845.0, integral, f64::INFINITY),
                Err(QuantError::Overflow { hops: 3, .. })
            ));
        }
        assert!(format!("{}", plan(4, 1.0, 3.0e9, true, 1.0).unwrap_err()).contains("overflow"));
        match plan(4, -2.5, 3.0, false, 1.0) {
            Err(QuantError::NegativeWeights { min }) => assert_eq!(min, -2.5),
            other => panic!("expected NegativeWeights, got {other:?}"),
        }
    }

    #[test]
    fn exact_solve_is_bit_identical_to_the_f32_oracle() {
        for (g, label) in [
            (generators::uniform_dense(48, WeightKind::small_ints(), 7), "dense"),
            (generators::grid(7, 9, WeightKind::small_ints(), 3), "grid"),
            (generators::multi_component(40, 3, WeightKind::small_ints(), 11), "multi"),
        ] {
            let p = plan_for_graph(&g, 0.0).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(p.exact, "{label}");
            let got = solve_quantized(&g, &p, 8, 1);
            assert!(got.eq_exact(&oracle(&g)), "{label} diverged from fw_seq");
        }
    }

    #[test]
    fn fractional_solve_stays_within_the_documented_eps() {
        let g = generators::uniform_dense(40, WeightKind::Real { lo: 0.0, hi: 1.0 }, 13);
        // 39 hops at scale 1024: eps = 0.019
        let p = plan_for_graph(&g, 0.02).unwrap();
        assert!(!p.exact);
        let got = solve_quantized(&g, &p, 8, 1);
        let want = oracle(&g);
        for i in 0..g.n() {
            for j in 0..g.n() {
                let (a, b) = (got[(i, j)], want[(i, j)]);
                assert_eq!(a.is_finite(), b.is_finite(), "({i},{j})");
                if a.is_finite() {
                    assert!(
                        (a - b).abs() as f64 <= p.eps + 1e-6,
                        "({i},{j}): |{a} - {b}| > eps {}",
                        p.eps
                    );
                }
            }
        }
    }

    #[test]
    fn unreachable_pairs_survive_quantization_as_infinity() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0).add_edge(2, 3, 4.0);
        let g = b.build();
        let p = plan_for_graph(&g, 0.0).unwrap();
        let got = solve_quantized(&g, &p, 2, 1);
        assert!(got.eq_exact(&oracle(&g)));
        assert_eq!(got[(0, 2)], f32::INFINITY);
        assert_eq!(got[(1, 0)], f32::INFINITY);
    }

    #[test]
    fn empty_and_trivial_graphs_do_not_panic() {
        let g = GraphBuilder::new(0).build();
        let p = plan_for_graph(&g, 0.0).unwrap();
        assert_eq!(solve_quantized(&g, &p, 4, 1).rows(), 0);
        let g = GraphBuilder::new(1).build();
        let p = plan_for_graph(&g, 0.0).unwrap();
        let d = solve_quantized(&g, &p, 4, 1);
        assert_eq!(d[(0, 0)], 0.0);
    }
}
