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
//! predecessor-annotated APSP just by switching the type parameter. This
//! is the workspace's one path representation: `apsp route` and `apsp
//! serve` both walk these witnesses with [`reconstruct_path_annotated`].
//! Ties may pick different (equally shortest) witnesses than another
//! solver or block size; tests therefore validate realizability and
//! length, not witness identity.

use apsp_graph::graph::Graph;
use srgemm::matrix::Matrix;
use srgemm::semiring::Semiring;

/// Witness sentinel: "no predecessor" (unreachable, or `i == j`).
pub const NO_PRED: u32 = u32::MAX;

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

/// Annotated initial matrix of `g`, built straight from its edges: `(w, u)`
/// for an edge `u → v` (the lighter of parallel edges), `(min(0, w_ii),
/// NO_PRED)` on the diagonal, `(∞, NO_PRED)` elsewhere. Its `d` half is
/// bitwise [`Graph::to_dense`].
pub fn annotate(g: &Graph) -> Matrix<DistPred> {
    let n = g.n();
    let mut m = Matrix::from_fn(n, n, |i, j| if i == j { MinPlusPred::one() } else { MinPlusPred::zero() });
    for (u, v, w) in g.edges() {
        if w < m[(u, v)].d {
            m[(u, v)] = if u == v { DistPred { d: w, pred: NO_PRED } } else { edge_elem(u, w) };
        }
    }
    m
}

/// The distance half of an annotated matrix (a copy).
pub fn distances(m: &Matrix<DistPred>) -> Matrix<f32> {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)].d)
}

/// The annotated element for a raw edge `u → v` of weight `w`: the witness
/// is `u`, the vertex preceding `v` when a path uses this edge.
pub fn edge_elem(u: usize, w: f32) -> DistPred {
    DistPred { d: w, pred: u as u32 }
}

/// Walk witnesses back from `dst` on an annotated closure, producing the
/// vertex sequence `src … dst` (`None` if unreachable). The serve layer,
/// and through it `apsp route`, answers path queries with it on a shared
/// annotated snapshot.
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
    while m[(src, cur)].pred != NO_PRED {
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
    use crate::dist::{distributed_apsp_opts, DistRunOpts, FwConfig, Variant};
    use crate::fw_blocked::fw_blocked_threads;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::graph::GraphBuilder;
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

    /// Every finite off-diagonal pair of a solved witness matrix walks to a
    /// path in `g` of exactly its distance; every infinite one has no path.
    fn assert_paths_realize(g: &Graph, annotated: &Matrix<DistPred>) {
        let n = g.n();
        for s in 0..n {
            for t in 0..n {
                let d = annotated[(s, t)].d;
                let path = reconstruct_path_annotated(annotated, s, t);
                if s == t {
                    continue;
                } else if d.is_finite() {
                    let p = path.expect("path exists");
                    assert!(validate_path(g, &p, s, t, d, 1e-3), "{s}->{t}");
                } else {
                    assert_eq!(path, None, "{s}->{t}");
                }
            }
        }
    }

    #[test]
    fn annotate_matches_to_dense_and_witnesses_the_edge_source() {
        // parallel edges (the lighter one wins), a negative and a positive
        // self-loop, and a vertex nothing reaches
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 4.0).add_edge(0, 1, 2.5).add_edge(1, 2, -1.0);
        b.add_edge(2, 2, -3.0).add_edge(1, 1, 7.0).add_edge(2, 0, 0.0);
        let mut graphs = vec![b.build()];
        graphs.push(generators::erdos_renyi(30, 0.2, WeightKind::small_ints(), 4));
        graphs.push(generators::multi_component(16, 2, WeightKind::small_ints(), 8));
        for g in &graphs {
            let got = annotate(g);
            let want = g.to_dense();
            let n = g.n();
            for i in 0..n {
                for j in 0..n {
                    let DistPred { d, pred } = got[(i, j)];
                    assert_eq!(d.to_bits(), want[(i, j)].to_bits(), "d[{i}][{j}]");
                    let expect = if i == j || d == f32::INFINITY { NO_PRED } else { i as u32 };
                    assert_eq!(pred, expect, "pred[{i}][{j}]");
                }
            }
        }
        let hand = annotate(&graphs[0]);
        assert_eq!(hand[(0, 1)], dp(2.5, 0));
        assert_eq!(hand[(2, 2)], dp(-3.0, NO_PRED));
        assert_eq!(hand[(1, 1)], dp(0.0, NO_PRED));
        assert_eq!(hand[(3, 4)], S::zero());
    }

    #[test]
    fn witnesses_do_not_depend_on_the_thread_count() {
        // small integer weights make many equal-length routes: any
        // scheduling-dependent tie-break would show as a different witness
        let g = generators::erdos_renyi(90, 0.15, WeightKind::small_ints(), 29);
        let mut one = annotate(&g);
        fw_blocked_threads::<S>(&mut one, 16, 1);
        let mut three = annotate(&g);
        fw_blocked_threads::<S>(&mut three, 16, 3);
        assert_eq!(one, three);
        assert_paths_realize(&g, &three);
    }

    #[test]
    fn blocked_fw_generates_valid_paths() {
        let g = generators::erdos_renyi(28, 0.25, WeightKind::small_ints(), 19);
        let mut annotated = annotate(&g);
        fw_blocked_threads::<S>(&mut annotated, 8, 1);

        // distances equal plain FW
        let mut want = g.to_dense();
        fw_seq::<srgemm::MinPlusF32>(&mut want);
        assert!(want.eq_exact(&distances(&annotated)));

        // every finite pair has a realizable path of exactly that length
        assert_paths_realize(&g, &annotated);
    }

    #[test]
    fn distributed_path_generation_end_to_end() {
        // the §7 extension: predecessor-annotated APSP through the real
        // message-passing pipeline, every variant
        let g = generators::uniform_dense(20, WeightKind::small_ints(), 5);
        let input = annotate(&g);
        let mut want = g.to_dense();
        fw_seq::<srgemm::MinPlusF32>(&mut want);

        for variant in Variant::all() {
            let cfg = FwConfig::new(5, variant);
            let (annotated, _) = distributed_apsp_opts::<S>(
                2, 2, &cfg, &input, None, &DistRunOpts::default(),
            )
            .expect("run");
            assert!(want.eq_exact(&distances(&annotated)), "{variant:?} distances");
            // dense graph: every pair is reachable
            assert!(annotated.as_slice().iter().all(|e| e.d.is_finite()));
            assert_paths_realize(&g, &annotated);
        }
    }

    #[test]
    fn unreachable_pairs_have_no_witness() {
        let g = generators::multi_component(12, 2, WeightKind::small_ints(), 3);
        let mut annotated = annotate(&g);
        fw_blocked_threads::<S>(&mut annotated, 4, 1);
        assert_eq!(annotated[(0, 11)], dp(f32::INFINITY, NO_PRED));
        assert_eq!(reconstruct_path_annotated(&annotated, 0, 11), None);
    }
}
