//! Sequential Floyd-Warshall (paper Algorithm 1).
//!
//! This is the correctness anchor of the whole workspace: §5.1 of the paper
//! states that every optimized implementation was checked against the
//! sequential baseline, and our test suites do the same.

use srgemm::closure::fw_closure;
use srgemm::matrix::Matrix;
use srgemm::semiring::Semiring;

/// In-place sequential Floyd-Warshall over any idempotent semiring:
/// `d[i][j] ← ⊕_k d[i][k] ⊗ d[k][j]`, with the diagonal seeded with `1̄`.
///
/// # Panics
/// Panics if `d` is not square.
pub fn fw_seq<S: Semiring>(d: &mut Matrix<S::Elem>) {
    fw_closure::<S>(&mut d.view_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::dijkstra::apsp_by_dijkstra;
    use apsp_graph::generators::{self, WeightKind};
    use srgemm::MinPlusF32;

    #[test]
    fn matches_dijkstra_on_dense_random() {
        let g = generators::uniform_dense(40, WeightKind::small_ints(), 3);
        let want = apsp_by_dijkstra(&g);
        let mut d = g.to_dense();
        fw_seq::<MinPlusF32>(&mut d);
        assert!(want.eq_exact(&d));
    }

    #[test]
    fn matches_dijkstra_on_sparse_and_disconnected() {
        for (kind, seed) in [
            (generators::GraphKind::ErdosRenyi { p: 0.1 }, 5),
            (generators::GraphKind::MultiComponent { components: 3 }, 6),
            (generators::GraphKind::Ring, 7),
        ] {
            let g = generators::generate(kind, 30, WeightKind::small_ints(), seed);
            let want = apsp_by_dijkstra(&g);
            let mut d = g.to_dense();
            fw_seq::<MinPlusF32>(&mut d);
            assert!(want.eq_exact(&d), "kind {kind:?}");
        }
    }

    #[test]
    fn unreachable_pairs_stay_infinite() {
        let g = generators::multi_component(12, 2, WeightKind::small_ints(), 17);
        let mut d = g.to_dense();
        fw_seq::<MinPlusF32>(&mut d);
        assert_eq!(d[(0, 11)], f32::INFINITY);
        assert!(d[(0, 3)] < f32::INFINITY);
    }
}
