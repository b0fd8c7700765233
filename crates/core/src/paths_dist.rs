//! Distributed shortest-*path* generation — the paper's §7 future work
//! ("we plan to extend this work to support distributed shortest path
//! generation"), implemented with zero new communication machinery.
//!
//! The trick is algebraic: pair every distance with a *witness* — the
//! predecessor of the destination on the best path found so far — and
//! define a semiring on the pairs:
//!
//! * `(d₁, p₁) ⊕ (d₂, p₂)` keeps the pair with the smaller distance;
//! * `(d₁, p₁) ⊗ (d₂, p₂) = (d₁ + d₂, p₂ or p₁)` — concatenating paths
//!   keeps the *right* operand's predecessor (the vertex before the final
//!   destination), falling back to the left one when the right segment is
//!   empty (the multiplicative identity).
//!
//! [`MinPlusPred`] satisfies the semiring laws (identity, distributivity —
//! see the tests), so **every** solver in this workspace — blocked FW, and
//! all four distributed variants over real message passing — computes
//! predecessor-annotated APSP just by switching the type parameter. Ties
//! may pick different (equally shortest) witnesses than the sequential
//! reference; tests therefore validate realizability and length, not
//! witness identity.

use srgemm::matrix::Matrix;
use srgemm::semiring::Semiring;

use crate::fw_seq::NO_PRED;

/// Distance + predecessor witness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistPred {
    /// Path length.
    pub d: f32,
    /// Vertex preceding the destination on the path (`NO_PRED` if none).
    pub pred: u32,
}

/// The witness-carrying tropical semiring.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlusPred;

impl Semiring for MinPlusPred {
    type Elem = DistPred;
    const NAME: &'static str = "min-plus-pred";
    const IDEMPOTENT_ADD: bool = true;

    #[inline(always)]
    fn zero() -> DistPred {
        DistPred { d: f32::INFINITY, pred: NO_PRED }
    }

    #[inline(always)]
    fn one() -> DistPred {
        DistPred { d: 0.0, pred: NO_PRED }
    }

    #[inline(always)]
    fn add(a: DistPred, b: DistPred) -> DistPred {
        // strict <: on ties keep the left (already-held) witness, which
        // makes ⊕ idempotent and deterministic
        if b.d < a.d {
            b
        } else {
            a
        }
    }

    #[inline(always)]
    fn mul(a: DistPred, b: DistPred) -> DistPred {
        DistPred {
            d: a.d + b.d,
            pred: if b.pred == NO_PRED { a.pred } else { b.pred },
        }
    }
}

/// Annotated initial matrix: `(w(i,j), i)` for edges, `(0, NO_PRED)` on the
/// diagonal, `(∞, NO_PRED)` elsewhere.
pub fn annotate(dist: &Matrix<f32>) -> Matrix<DistPred> {
    let n = dist.rows();
    Matrix::from_fn(n, n, |i, j| {
        let d = dist[(i, j)];
        if i == j {
            DistPred { d: d.min(0.0), pred: NO_PRED }
        } else if d.is_finite() {
            DistPred { d, pred: i as u32 }
        } else {
            DistPred { d: f32::INFINITY, pred: NO_PRED }
        }
    })
}

/// Split an annotated result into the distance and predecessor matrices
/// (`pred` is directly consumable by [`crate::fw_seq::reconstruct_path`]).
pub fn split(annotated: &Matrix<DistPred>) -> (Matrix<f32>, Matrix<u32>) {
    let n = annotated.rows();
    let d = Matrix::from_fn(n, n, |i, j| annotated[(i, j)].d);
    let p = Matrix::from_fn(n, n, |i, j| annotated[(i, j)].pred);
    (d, p)
}

/// Inverse of [`split`]: zip a solved distance matrix and its predecessor
/// matrix (e.g. from [`crate::fw_seq::fw_seq_with_paths`]) back into the
/// annotated form that the witness-carrying incremental updater and the
/// [`crate::serve`] engine operate on.
pub fn combine(dist: &Matrix<f32>, pred: &Matrix<u32>) -> Matrix<DistPred> {
    let n = dist.rows();
    assert_eq!((n, n), (pred.rows(), pred.cols()), "dist/pred shape mismatch");
    Matrix::from_fn(n, n, |i, j| DistPred { d: dist[(i, j)], pred: pred[(i, j)] })
}

/// The annotated element for a raw edge `u → v` of weight `w`: the witness
/// is `u`, the vertex preceding `v` when a path uses this edge.
pub fn edge_elem(u: usize, w: f32) -> DistPred {
    DistPred { d: w, pred: u as u32 }
}

/// Walk witnesses back from `dst` on an annotated closure, producing the
/// vertex sequence `src … dst` (`None` if unreachable). Equivalent to
/// [`crate::fw_seq::reconstruct_path`] on the [`split`] predecessor matrix,
/// without materializing it — the serve layer answers path queries on a
/// shared annotated snapshot directly.
pub fn reconstruct_path_annotated(
    m: &Matrix<DistPred>,
    src: usize,
    dst: usize,
) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while m[(src, cur)].pred != crate::fw_seq::NO_PRED {
        cur = m[(src, cur)].pred as usize;
        path.push(cur);
        if cur == src {
            path.reverse();
            return Some(path);
        }
        if path.len() > m.rows() {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{distributed_apsp, FwConfig, Variant};
    use crate::fw_blocked::{fw_blocked_threads, DiagMethod};
    use crate::fw_seq::{fw_seq, reconstruct_path};
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::paths::validate_path;

    type S = MinPlusPred;

    fn dp(d: f32, pred: u32) -> DistPred {
        DistPred { d, pred }
    }

    #[test]
    fn semiring_laws_hold_with_witnesses() {
        let a = dp(3.0, 7);
        let b = dp(5.0, 9);
        let c = dp(1.0, 2);
        // identity on both sides, witness preserved
        assert_eq!(S::mul(a, S::one()), a);
        assert_eq!(S::mul(S::one(), a), a);
        assert_eq!(S::add(S::zero(), a), a);
        // annihilation
        assert_eq!(S::mul(S::zero(), a).d, f32::INFINITY);
        // distributivity (left): a ⊗ (b ⊕ c) = (a⊗b) ⊕ (a⊗c)
        assert_eq!(S::mul(a, S::add(b, c)), S::add(S::mul(a, b), S::mul(a, c)));
        // distributivity (right)
        assert_eq!(S::mul(S::add(b, c), a), S::add(S::mul(b, a), S::mul(c, a)));
        // ⊕ idempotent
        assert_eq!(S::add(a, a), a);
    }

    #[test]
    fn mul_concatenation_keeps_rightmost_witness() {
        // path i→k (pred of k is 7) followed by k→j (pred of j is 9)
        assert_eq!(S::mul(dp(3.0, 7), dp(5.0, 9)), dp(8.0, 9));
        // …but an empty right segment keeps the left witness
        assert_eq!(S::mul(dp(3.0, 7), S::one()), dp(3.0, 7));
    }

    #[test]
    fn blocked_fw_generates_valid_paths() {
        let g = generators::erdos_renyi(28, 0.25, WeightKind::small_ints(), 19);
        let mut annotated = annotate(&g.to_dense());
        fw_blocked_threads::<S>(&mut annotated, 8, DiagMethod::FwClosure, 1);
        let (d, pred) = split(&annotated);

        // distances equal plain FW
        let mut want = g.to_dense();
        fw_seq::<srgemm::MinPlusF32>(&mut want);
        assert!(want.eq_exact(&d));

        // every finite pair has a realizable path of exactly that length
        for s in 0..28 {
            for t in 0..28 {
                if s != t && d[(s, t)].is_finite() {
                    let p = reconstruct_path(&pred, s, t).expect("path exists");
                    assert!(validate_path(&g, &p, s, t, d[(s, t)], 1e-3), "{s}->{t}");
                }
            }
        }
    }

    #[test]
    fn distributed_path_generation_end_to_end() {
        // the §7 extension: predecessor-annotated APSP through the real
        // message-passing pipeline, every variant
        let g = generators::uniform_dense(20, WeightKind::small_ints(), 5);
        let input = annotate(&g.to_dense());
        let mut want = g.to_dense();
        fw_seq::<srgemm::MinPlusF32>(&mut want);

        for variant in Variant::all() {
            let cfg = FwConfig::new(5, variant);
            let (annotated, _) = distributed_apsp::<S>(2, 2, &cfg, &input, None).expect("run");
            let (d, pred) = split(&annotated);
            assert!(want.eq_exact(&d), "{variant:?} distances");
            for s in 0..20 {
                for t in 0..20 {
                    if s != t {
                        let p = reconstruct_path(&pred, s, t).expect("dense graph");
                        assert!(validate_path(&g, &p, s, t, d[(s, t)], 1e-3));
                    }
                }
            }
        }
    }

    #[test]
    fn combine_round_trips_and_annotated_walk_matches_split_walk() {
        let g = generators::erdos_renyi(18, 0.3, WeightKind::small_ints(), 23);
        let mut annotated = annotate(&g.to_dense());
        fw_blocked_threads::<S>(&mut annotated, 6, DiagMethod::FwClosure, 1);
        let (d, pred) = split(&annotated);
        let back = combine(&d, &pred);
        assert_eq!(annotated, back);
        for s in 0..18 {
            for t in 0..18 {
                assert_eq!(
                    reconstruct_path_annotated(&annotated, s, t),
                    reconstruct_path(&pred, s, t),
                    "{s}->{t}"
                );
            }
        }
    }

    #[test]
    fn unreachable_pairs_have_no_witness() {
        let g = generators::multi_component(12, 2, WeightKind::small_ints(), 3);
        let mut annotated = annotate(&g.to_dense());
        fw_blocked_threads::<S>(&mut annotated, 4, DiagMethod::FwClosure, 1);
        let (d, pred) = split(&annotated);
        assert_eq!(d[(0, 11)], f32::INFINITY);
        assert_eq!(pred[(0, 11)], crate::fw_seq::NO_PRED);
        assert_eq!(reconstruct_path(&pred, 0, 11), None);
    }
}
