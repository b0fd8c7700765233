//! Quantized-integer APSP: scale-and-round a weighted [`Graph`] into `u16`
//! weights, run blocked FW over the integer min-plus semiring
//! [`MinPlusSatU16`], and dequantize back to `f32` with a provable error
//! bound — `u16` lanes or a typed refusal, there is no wider fallback.
//!
//! Why bother: `u16` doubles (vs `f32`) the elements per SIMD register —
//! 32 lanes per AVX-512 register instead of 16 — and halves the bytes per
//! distance, so a quantized solve trades a bounded, explicit amount of
//! precision for capacity *and* speed: the kernel measures ≈ 1.6× packed
//! `f32` and the whole solve ≈ 0.7× `blocked`'s time on the benchmark's
//! dense input (DESIGN.md §16). This is the CPU analogue of the
//! low-precision tensor-core SRGEMM variants of the paper's GPU engine.
//!
//! ## Contract
//!
//! Quantization maps weight `w` to `round(w · scale)` with a power-of-two
//! `scale ≥ 1`. The lanes use half the `u16` range: the semiring's
//! `zero()` is the sentinel `S = 2¹⁵ − 1 = 32 767` (= "no edge" = `+∞`,
//! as is anything `≥ S`), every stored element is `≤ S`, and so `⊗` is a
//! plain 16-bit add that cannot wrap (`a + b ≤ 2S < 2¹⁶`) while
//! `c ← min(c, a + b)` is exactly the accumulate of the min-plus semiring
//! that saturates at `S` — sums through the sentinel stick at the
//! sentinel, without the saturating instruction. The plan ([`plan`])
//! proves, before any work happens, that no *finite* path can reach the
//! sentinel:
//!
//! > `hops · round(max_weight · scale) ≤ S − 1 = 32 766`, `hops = n − 1`.
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
//! below 2¹⁵, so the `f32` dequantization is itself exact), rounding
//! vanishes and the solve is bit-exact: `eps = 0`.
//!
//! Graphs that cannot meet the precondition at `scale = 1`
//! (`hops · max_weight > 32 766`) are rejected up front with the typed
//! [`QuantError::Overflow`]; requested
//! tolerances the achievable `eps` cannot meet are
//! [`QuantError::Tolerance`]. Negative weights are outside the
//! semiring's domain (the annihilator law breaks) and are typed
//! [`QuantError::NegativeWeights`]. [`solve_quantized`] re-proves the
//! precondition on the weights it quantizes, so a plan made for another
//! graph is the same typed `Overflow` and never a wrapped distance.

use apsp_graph::Graph;
use srgemm::{Matrix, MinPlusSatU16};

use crate::fw_blocked::fw_blocked_threads;
use crate::solver::profile::WeightSweep;

/// Largest power-of-two exponent [`plan`] will consider for the scale.
/// `2⁴⁰` already pushes `eps` below `1e-9` for any graph small enough to
/// solve densely; beyond that `w · scale` risks `f64` rounding in the
/// overflow proof itself.
const MAX_SCALE_EXP: i32 = 40;

/// The `+∞` sentinel of the `u16` lanes (the semiring's `zero()`), and the
/// largest element a quantized matrix may hold.
const SENTINEL: u16 = MinPlusSatU16::SENTINEL;

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

/// Why a graph cannot be quantized. [`plan`] decides all three before any
/// quantization work happens; [`solve_quantized`] can still answer
/// `Overflow` for a plan that was made for another graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuantError {
    /// Integer min-plus with a `+∞` sentinel is only a semiring on
    /// non-negative values (`S + (−5) < S` breaks the annihilator).
    NegativeWeights {
        /// The most negative weight seen.
        min: f32,
    },
    /// `hops × max_weight` cannot fit below the `u16` lanes' sentinel even
    /// at `scale = 1`: a finite shortest path could saturate, which would
    /// silently turn a reachable pair into `+∞`.
    Overflow {
        /// `n − 1`, the simple-path hop bound.
        hops: u64,
        /// Largest edge weight in the graph.
        max_weight: f32,
        /// The sentinel (32 767) the product must stay below.
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

/// The simple-path hop bound of an `n`-vertex graph.
fn hop_bound(n: usize) -> u64 {
    (n.saturating_sub(1)).max(1) as u64
}

/// Does `scale` keep every finite simple-path sum strictly below the
/// sentinel (so saturation can never cap a minimum)?
fn fits(hops: u64, max_weight: f64, scale: f64) -> bool {
    let q_max = (max_weight * scale).round();
    q_max.is_finite() && hops as f64 * q_max <= (SENTINEL - 1) as f64
}

fn overflow(hops: u64, max_weight: f32) -> QuantError {
    QuantError::Overflow { hops, max_weight, sentinel: SENTINEL as u64 }
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
    let hops = hop_bound(n);
    let w_max = max_weight.max(0.0) as f64;

    // Bit-exact path: integral weights at scale 1 (every finite distance is
    // then a whole number below 2¹⁵, which f32 holds exactly).
    if integral && fits(hops, w_max, 1.0) {
        return Ok(QuantPlan { dtype, scale: 1.0, eps: 0.0, exact: true, hops });
    }

    // Rounding path: the largest power-of-two scale that still fits gives
    // the smallest achievable eps = hops / (2 * scale).
    let Some(scale) =
        (0..=MAX_SCALE_EXP).rev().map(|e| (2.0f64).powi(e)).find(|&s| fits(hops, w_max, s))
    else {
        return Err(overflow(hops, max_weight));
    };
    let eps = hops as f64 * 0.5 / scale;
    if eps <= tolerance {
        Ok(QuantPlan { dtype, scale, eps, exact: false, hops })
    } else {
        Err(QuantError::Tolerance { eps, tolerance })
    }
}

/// [`plan`] with the shape features read off a graph directly: the weight
/// sweep of the profile pass and nothing else of it. The solver layer passes
/// its [`GraphProfile`] fields instead.
///
/// [`GraphProfile`]: crate::solver::GraphProfile
pub fn plan_for_graph(g: &Graph, tolerance: f64) -> Result<QuantPlan, QuantError> {
    let mut weights = WeightSweep::new();
    for u in 0..g.n() {
        weights.row(g.out_edges(u).1);
    }
    let (min_w, max_w) = weights.range();
    plan(g.n(), min_w, max_w, weights.integral, tolerance)
}

/// `round(x)` clamped to the sentinel, for `x = w · scale`. `x + 0.5`
/// truncated equals `x.round()` wherever a plan can put `x`: the product
/// of an `f32` and a power of two is exact, non-negative and below 2¹⁶, so
/// neither the sum nor the cast rounds. Anything else (a weight the plan
/// was not made for, `+∞`) lands on the sentinel, negatives and NaN on 0:
/// no input produces an element above `S`.
#[inline]
fn quantize_weight(x: f64) -> u16 {
    ((x + 0.5) as u16).min(SENTINEL)
}

/// The dense `u16` seed of [`quantize_u16`], one row at a time, and the
/// largest weight the pass saw (`0` for no edges).
fn quantize_rows(g: &Graph, scale: f64) -> (Matrix<u16>, f32) {
    let n = g.n();
    let mut data = Vec::with_capacity(n * n);
    let mut max_weight = 0.0f32;
    for u in 0..n {
        data.resize((u + 1) * n, SENTINEL);
        let row = &mut data[u * n..];
        let (targets, weights) = g.out_edges(u);
        // CSR holds one edge per (u, v): a plain store, no min
        for (&v, &w) in targets.iter().zip(weights) {
            if w > max_weight {
                max_weight = w;
            }
            row[v as usize] = quantize_weight(w as f64 * scale);
        }
        row[u] = 0;
    }
    (Matrix::from_vec(n, n, data), max_weight)
}

/// Dense `u16` distance seed: `round(w · scale)` per edge clamped to the
/// sentinel 32 767, `0` diagonal, the sentinel elsewhere. No element
/// exceeds the sentinel whatever `scale` is; a finite path can only be
/// trusted not to reach it under a fitting [`QuantPlan`].
pub fn quantize_u16(g: &Graph, scale: f64) -> Matrix<u16> {
    quantize_rows(g, scale).0
}

/// Map solved `u16` distances back to `f32`: the sentinel (or anything
/// above it) → `+∞`, otherwise `q / scale`, computed as `q · (1 / scale)` —
/// the same number for the power-of-two scale every [`QuantPlan`] carries.
pub fn dequantize_u16(d: &Matrix<u16>, scale: f64) -> Matrix<f32> {
    let inv = 1.0 / scale;
    let data = d
        .as_slice()
        .iter()
        .map(|&q| if q >= SENTINEL { f32::INFINITY } else { (q as f64 * inv) as f32 })
        .collect();
    Matrix::from_vec(d.rows(), d.cols(), data)
}

/// Quantize per `plan`, run blocked FW over [`MinPlusSatU16`] on at most
/// `threads` kernel threads, and dequantize — the two passes as `quantize`
/// and `dequantize` spans around the FW's own.
///
/// `plan` is meant to come from [`plan`] / [`plan_for_graph`] on this graph —
/// that is what makes the `eps` guarantee hold. The precondition the lanes'
/// plain add rests on is not taken on trust: it is proved again from the
/// weights the quantize pass saw, before any FW work, and a plan that does
/// not fit this graph is [`QuantError::Overflow`].
pub fn solve_quantized(
    g: &Graph,
    plan: &QuantPlan,
    block: usize,
    threads: usize,
) -> Result<Matrix<f32>, QuantError> {
    let (mut d, max_weight) = {
        let _s = apsp_trace::span("quantize");
        quantize_rows(g, plan.scale)
    };
    let hops = hop_bound(g.n());
    if !fits(hops, max_weight as f64, plan.scale) {
        return Err(overflow(hops, max_weight));
    }
    fw_blocked_threads::<MinPlusSatU16>(&mut d, block.max(1), threads);
    let _s = apsp_trace::span("dequantize");
    Ok(dequantize_u16(&d, plan.scale))
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
        // 127 hops x round(1.0 x 256) = 32512 fits below the sentinel, x 512 does not
        let p = plan(128, 0.1, 1.0, false, 0.25).unwrap();
        assert!(!p.exact);
        assert_eq!(p.scale, 256.0);
        // the bound is hops/(2*scale)
        assert_eq!(p.eps, 127.0 * 0.5 / p.scale);
        assert!(p.eps <= 0.25, "eps {}", p.eps);
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
        // 3e9 > 32767: even scale 1 cannot represent one edge
        match plan(4, 1.0, 3.0e9, true, f64::INFINITY) {
            Err(QuantError::Overflow { hops: 3, sentinel, .. }) => assert_eq!(sentinel, 32_767),
            other => panic!("expected Overflow, got {other:?}"),
        }
        // the boundary itself, integral or not: 2 hops x 16383 = 32766 is the
        // last product below the sentinel, 3 x 10923 = 32769 is past it
        for integral in [true, false] {
            let fit = plan(3, 1.0, 16383.0, integral, f64::INFINITY).unwrap();
            assert_eq!((fit.scale, fit.exact), (1.0, integral));
            assert!(matches!(
                plan(4, 1.0, 10923.0, integral, f64::INFINITY),
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
    fn an_unfit_plan_is_a_typed_overflow_never_a_wrapped_distance() {
        // a plan proved on weights <= 15…
        let small = generators::uniform_dense(8, WeightKind::Integer { lo: 1, hi: 15 }, 5);
        let p = plan_for_graph(&small, 0.0).unwrap();
        assert!(p.exact);
        // …handed a graph with 30 000 edges: 0 → 1 → 2 is 60 000, which a
        // 16-bit add still holds, and one more hop would wrap to 24 464
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 30_000.0).add_edge(1, 2, 30_000.0).add_edge(2, 3, 30_000.0);
        b.add_edge(3, 0, 7.0);
        let g = b.build();
        assert_eq!(
            solve_quantized(&g, &p, 2, 1).unwrap_err(),
            QuantError::Overflow { hops: 3, max_weight: 30_000.0, sentinel: 32_767 }
        );
        // the right plan for it is the same typed error, up front
        assert_eq!(plan_for_graph(&g, 1.0), Err(overflow(3, 30_000.0)));
        // and the seed stays in the lanes' domain whatever it is handed
        b = GraphBuilder::new(4);
        b.add_edge(0, 1, 30_000.0).add_edge(3, 0, 7.0).add_edge(0, 2, 1.0e9);
        b.add_edge(1, 3, f32::INFINITY).add_edge(2, 1, 32_768.0);
        let g = b.build();
        for scale in [1.0, 4.0, 1.0e30] {
            let q = quantize_u16(&g, scale);
            assert!(q.as_slice().iter().all(|&x| x <= 32_767), "scale {scale}");
            assert_eq!(q[(3, 0)], (7.0 * scale).min(32_767.0) as u16);
            assert_eq!((q[(0, 2)], q[(1, 3)], q[(2, 1)]), (32_767, 32_767, 32_767));
            assert_eq!((q[(2, 0)], q[(2, 2)]), (32_767, 0));
        }
        assert_eq!(quantize_u16(&g, 1.0)[(0, 1)], 30_000);
    }

    #[test]
    fn quantize_rounds_like_round_on_the_plans_domain() {
        // x = q · 2⁻ᵉ: every value a power-of-two scale can produce at whole,
        // half and 1/256 steps, through the whole 16-bit range
        for e in [0, 1, 8] {
            for q in 0..=65_535u32 {
                let x = q as f64 / (1u32 << e) as f64;
                assert_eq!((x + 0.5) as u16, x.round() as u16, "{q} / 2^{e}");
                assert_eq!(quantize_weight(x), (x.round() as u16).min(32_767), "{q} / 2^{e}");
            }
        }
    }

    #[test]
    fn plan_for_graph_reads_what_the_profile_reads() {
        let mut lopsided = GraphBuilder::new(5);
        lopsided.add_edge(0, 1, 0.25).add_edge(4, 2, 7.0).add_edge(2, 2, 3.0);
        let mut negative = GraphBuilder::new(3);
        negative.add_edge(0, 1, 2.0).add_edge(1, 2, -1.5);
        for g in [
            generators::uniform_dense(20, WeightKind::small_ints(), 1),
            generators::grid(4, 5, WeightKind::Real { lo: 0.0, hi: 2.0 }, 2),
            lopsided.build(),
            negative.build(),
            GraphBuilder::new(3).build(),
        ] {
            let p = crate::solver::GraphProfile::compute(&g, 8);
            for tol in [0.0, 1e-2, f64::INFINITY] {
                assert_eq!(
                    plan_for_graph(&g, tol),
                    plan(p.n, p.min_weight, p.max_weight, p.integral_weights, tol),
                    "n = {}, tolerance {tol}",
                    p.n
                );
            }
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
            let got = solve_quantized(&g, &p, 8, 1).unwrap();
            assert!(got.eq_exact(&oracle(&g)), "{label} diverged from fw_seq");
        }
    }

    #[test]
    fn fractional_solve_stays_within_the_documented_eps() {
        let g = generators::uniform_dense(40, WeightKind::Real { lo: 0.0, hi: 1.0 }, 13);
        // 39 hops at scale 512: eps = 0.038
        let p = plan_for_graph(&g, 0.04).unwrap();
        assert_eq!(p.scale, 512.0);
        assert!(!p.exact);
        let got = solve_quantized(&g, &p, 8, 1).unwrap();
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
        let got = solve_quantized(&g, &p, 2, 1).unwrap();
        assert!(got.eq_exact(&oracle(&g)));
        assert_eq!(got[(0, 2)], f32::INFINITY);
        assert_eq!(got[(1, 0)], f32::INFINITY);
    }

    #[test]
    fn empty_and_trivial_graphs_do_not_panic() {
        let g = GraphBuilder::new(0).build();
        let p = plan_for_graph(&g, 0.0).unwrap();
        assert_eq!(solve_quantized(&g, &p, 4, 1).unwrap().rows(), 0);
        let g = GraphBuilder::new(1).build();
        let p = plan_for_graph(&g, 0.0).unwrap();
        let d = solve_quantized(&g, &p, 4, 1).unwrap();
        assert_eq!(d[(0, 0)], 0.0);
    }
}
