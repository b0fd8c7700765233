//! Incremental Floyd-Warshall — the paper's §7 future-work item
//! ("we plan to extend this work to support … incremental Floyd-Warshall,
//! which \[is\] critical in applications").
//!
//! Given a solved distance matrix, an edge insertion or weight *decrease*
//! `(u, v, w)` is absorbed in `O(n²)`: every pair `(i, j)` can only improve
//! by routing through the new edge, so
//! `d[i][j] ← d[i][j] ⊕ (d[i][u] ⊗ w ⊗ d[v][j])`.
//! Weight increases and deletions can invalidate routes and require
//! recomputation in general; [`decrease_edge`] detects and rejects them.
//!
//! A batched form applies `m` updates in `O(m·n²)`, which beats the `O(n³)`
//! re-solve whenever `m ≪ n` — exactly the dynamic-graph use case
//! (traffic updates on a road network, new facts in a knowledge graph).
//!
//! Every rejection is a typed [`IncrementalError`], never a panic — the
//! [`crate::serve`] writer feeds untrusted client batches straight through
//! [`decrease_edges`], so a malformed update must come back as a value the
//! server can report, not kill the process. Updates that would *corrupt*
//! the closure (negative self-loops, negative cycles through the new edge,
//! NaN weights) are rejected before any element is written.
//!
//! Witness maintenance: the update rule is generic over the semiring, so
//! running it over [`crate::paths_dist::MinPlusPred`] (via
//! [`decrease_edges_pred`]) updates the predecessor witnesses *together
//! with* the distances — after a batch of decreases,
//! [`crate::paths_dist::reconstruct_path_annotated`] still returns paths
//! that realize the reported distances. Updating only the `f32` distance
//! matrix would leave any separately-held predecessors stale; the
//! witness-carrying form is what the serve layer uses.

use srgemm::matrix::Matrix;
use srgemm::semiring::Semiring;

use crate::paths_dist::{edge_elem, DistPred, MinPlusPred};

/// Errors from the incremental updater.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncrementalError {
    /// The new weight does not improve on the current `d[u][v]`; an
    /// increase cannot be absorbed incrementally (it may invalidate paths).
    NotADecrease,
    /// Endpoint out of range.
    BadVertex,
    /// A self-loop decrease (`u == v` with an improving weight) is a
    /// negative cycle; absorbing it would write a negative diagonal and
    /// corrupt the closure.
    NegativeSelfLoop,
    /// Accepting the edge would create a negative cycle through it
    /// (`w ⊗ d[v][u]` improves on `d[u][u]`), which incremental FW cannot
    /// absorb.
    NegativeCycle,
    /// The weight is NaN (compares unequal to itself), which would poison
    /// every ⊕/⊗ it touches.
    NanWeight,
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IncrementalError::NotADecrease => "notadecrease",
            IncrementalError::BadVertex => "badvertex",
            IncrementalError::NegativeSelfLoop => "negselfloop",
            IncrementalError::NegativeCycle => "negcycle",
            IncrementalError::NanWeight => "nanweight",
        };
        f.write_str(s)
    }
}

/// NaN detection generic over any `PartialEq` element (NaN is the only
/// value that compares unequal to itself; for composite elements such as
/// [`DistPred`] a NaN component makes the derived `PartialEq` do the same).
#[allow(clippy::eq_op)]
fn is_nan_like<T: PartialEq + Copy>(x: T) -> bool {
    x != x
}

/// Absorb an improved (or new) edge `u → v` of weight `w` into a solved
/// all-pairs matrix, in `O(n²)`. The matrix must already be a closure
/// (output of any `fw_*` solver). Returns the number of pairs improved
/// (always ≥ 1 on `Ok` — at least `(u, v)` itself improves).
///
/// Works over any idempotent semiring where "improve" means the new value
/// differs from the ⊕-combination (min-plus: strictly smaller). Rejections
/// are typed and leave the matrix untouched:
///
/// * [`IncrementalError::NanWeight`] — `w` is NaN(-like);
/// * [`IncrementalError::BadVertex`] — an endpoint is out of range;
/// * [`IncrementalError::NegativeSelfLoop`] — `u == v` and `w` improves on
///   the diagonal (a negative cycle);
/// * [`IncrementalError::NegativeCycle`] — `w ⊗ d[v][u]` improves on
///   `d[u][u]` (the new edge closes a negative cycle);
/// * [`IncrementalError::NotADecrease`] — `w` does not improve `d[u][v]`.
pub fn decrease_edge<S: Semiring>(
    d: &mut Matrix<S::Elem>,
    u: usize,
    v: usize,
    w: S::Elem,
) -> Result<usize, IncrementalError> {
    let n = d.rows();
    if is_nan_like(w) {
        return Err(IncrementalError::NanWeight);
    }
    if u >= n || v >= n {
        return Err(IncrementalError::BadVertex);
    }
    // reject non-improving updates: d[u][v] ⊕ w must differ from d[u][v]
    let combined = S::add(d[(u, v)], w);
    if u == v {
        // an improving self-loop is a negative cycle (min-plus: w < 0);
        // a non-improving one is merely redundant
        return Err(if combined != d[(u, v)] {
            IncrementalError::NegativeSelfLoop
        } else {
            IncrementalError::NotADecrease
        });
    }
    if combined == d[(u, v)] {
        return Err(IncrementalError::NotADecrease);
    }
    // the new edge must not close a negative cycle: routing u → v (new
    // edge) → u (existing closure) must not improve the diagonal
    let diag = d[(u, u)];
    if S::add(diag, S::mul(w, d[(v, u)])) != diag {
        return Err(IncrementalError::NegativeCycle);
    }

    // snapshot the u-th column and v-th row: the update reads d[i][u] and
    // d[v][j], both of which it may also write
    let col_u: Vec<S::Elem> = (0..n).map(|i| d[(i, u)]).collect();
    let row_v: Vec<S::Elem> = (0..n).map(|j| d[(v, j)]).collect();

    let mut improved = 0usize;
    for (i, &cu) in col_u.iter().enumerate() {
        let through = S::mul(cu, w);
        let drow = d.row_mut(i);
        for (dj, &rv) in drow.iter_mut().zip(&row_v) {
            let cand = S::mul(through, rv);
            let new = S::add(*dj, cand);
            if new != *dj {
                *dj = new;
                improved += 1;
            }
        }
    }
    Ok(improved)
}

/// Outcome of a batched update: one result per input update, in order,
/// plus aggregate counts. Rejected updates are skipped — they never abort
/// the batch and never panic, so a server can apply a client batch and
/// report exactly which entries were refused and why.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-update outcome: `Ok(pairs improved)` or the typed rejection.
    pub outcomes: Vec<Result<usize, IncrementalError>>,
    /// Number of accepted updates.
    pub applied: usize,
    /// Total pairs improved across accepted updates.
    pub improved: usize,
}

impl BatchReport {
    /// Number of rejected updates.
    pub fn rejected(&self) -> usize {
        self.outcomes.len() - self.applied
    }

    /// The rejections, with their batch positions.
    pub fn rejections(&self) -> impl Iterator<Item = (usize, IncrementalError)> + '_ {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.err().map(|e| (i, e)))
    }
}

/// Apply a batch of candidate edge updates; each is accepted or rejected
/// independently (see [`decrease_edge`] for the rejection taxonomy).
/// Never panics on malformed input — bad vertices, NaN weights, and
/// negative self-loops come back as typed per-update outcomes.
pub fn decrease_edges<S: Semiring>(
    d: &mut Matrix<S::Elem>,
    updates: &[(usize, usize, S::Elem)],
) -> BatchReport {
    let mut report = BatchReport::default();
    for &(u, v, w) in updates {
        let outcome = decrease_edge::<S>(d, u, v, w);
        if let Ok(k) = outcome {
            report.applied += 1;
            report.improved += k;
        }
        report.outcomes.push(outcome);
    }
    report
}

/// Witness-carrying batched update over raw `(u, v, w)` triples: absorb
/// each edge into an annotated closure (distances *and* predecessor
/// witnesses), so path reconstruction stays correct after the batch. An
/// edge's witness is `u`, the vertex preceding `v` when a path uses it. The
/// non-panicking batch form the [`crate::serve`] writer uses.
pub fn decrease_edges_pred(
    d: &mut Matrix<DistPred>,
    updates: &[(usize, usize, f32)],
) -> BatchReport {
    let updates: Vec<_> = updates.iter().map(|&(u, v, w)| (u, v, edge_elem(u, w))).collect();
    decrease_edges::<MinPlusPred>(d, &updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use crate::paths_dist::{annotate, distances, reconstruct_path_annotated};
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::graph::Graph;
    use apsp_graph::paths::validate_path;
    use srgemm::MinPlusF32;

    fn solved(n: usize, p: f64, seed: u64) -> (Graph, Matrix<f32>) {
        let g = generators::erdos_renyi(n, p, WeightKind::small_ints(), seed);
        let mut d = g.to_dense();
        fw_seq::<MinPlusF32>(&mut d);
        (g, d)
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let (g, mut d) = solved(30, 0.15, 5);
        // add a shortcut edge
        let (u, v, w) = (3usize, 27usize, 1.0f32);
        decrease_edge::<MinPlusF32>(&mut d, u, v, w).expect("improves");

        // full recompute with the edge added
        let mut b = apsp_graph::graph::GraphBuilder::new(30);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        b.add_edge(u, v, w);
        let mut want = b.build().to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        assert!(want.eq_exact(&d));
    }

    #[test]
    fn batch_updates_match_recompute() {
        let (g, mut d) = solved(25, 0.2, 9);
        let updates = [(0usize, 20usize, 2.0f32), (5, 10, 1.0), (18, 2, 3.0)];
        decrease_edges::<MinPlusF32>(&mut d, &updates);

        let mut b = apsp_graph::graph::GraphBuilder::new(25);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        for &(u, v, w) in &updates {
            b.add_edge(u, v, w);
        }
        let mut want = b.build().to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        assert!(want.eq_exact(&d));
    }

    #[test]
    fn rejects_weight_increase() {
        let (_, mut d) = solved(10, 0.5, 2);
        let cur = d[(1, 2)];
        assert_eq!(
            decrease_edge::<MinPlusF32>(&mut d, 1, 2, cur + 10.0),
            Err(IncrementalError::NotADecrease)
        );
    }

    #[test]
    fn rejects_bad_vertex() {
        let (_, mut d) = solved(10, 0.5, 2);
        assert_eq!(
            decrease_edge::<MinPlusF32>(&mut d, 1, 99, 0.5),
            Err(IncrementalError::BadVertex)
        );
    }

    #[test]
    fn rejects_negative_self_loop_and_leaves_matrix_valid() {
        // regression: pre-fix, a (u == v, w < 0) update was accepted,
        // wrote a negative diagonal, and corrupted the whole closure
        let (_, mut d) = solved(12, 0.4, 3);
        let before = d.clone();
        assert_eq!(
            decrease_edge::<MinPlusF32>(&mut d, 4, 4, -1.0),
            Err(IncrementalError::NegativeSelfLoop)
        );
        assert!(before.eq_exact(&d), "rejected update must not modify the matrix");
        crate::verify::check_apsp_invariants(&d, "after rejected self-loop");

        // a non-improving self-loop is merely redundant, not a corruption
        assert_eq!(
            decrease_edge::<MinPlusF32>(&mut d, 4, 4, 2.0),
            Err(IncrementalError::NotADecrease)
        );
    }

    #[test]
    fn rejects_nan_weight() {
        let (_, mut d) = solved(10, 0.5, 2);
        let before = d.clone();
        assert_eq!(
            decrease_edge::<MinPlusF32>(&mut d, 1, 2, f32::NAN),
            Err(IncrementalError::NanWeight)
        );
        assert!(before.eq_exact(&d));
    }

    #[test]
    fn rejects_negative_cycle_through_new_edge() {
        // a negative edge that would close a cycle u → v → u of negative
        // total weight must be refused before it corrupts the diagonal
        let (_, mut d) = solved(10, 0.8, 6);
        let (u, v) = (1usize, 7usize);
        let back = d[(v, u)];
        assert!(back.is_finite(), "dense-ish graph should connect v back to u");
        let w = -back - 1.0; // w + d[v][u] = -1 < 0
        assert_eq!(
            decrease_edge::<MinPlusF32>(&mut d, u, v, w),
            Err(IncrementalError::NegativeCycle)
        );
        crate::verify::check_apsp_invariants(&d, "after rejected negative cycle");
    }

    #[test]
    fn batch_survives_bad_vertex_with_typed_outcomes() {
        // regression: pre-fix, decrease_edges panicked on BadVertex —
        // a malformed client update would have killed a long-lived server
        let (g, mut d) = solved(20, 0.25, 11);
        let updates = [
            (0usize, 15usize, 1.0f32), // fine
            (3, 999, 1.0),             // out of range — must not panic
            (7, 7, -2.0),              // negative self-loop — must not corrupt
            (2, 12, f32::NAN),         // NaN — must not poison
            (5, 9, 2.0),               // fine
        ];
        let report = decrease_edges::<MinPlusF32>(&mut d, &updates);
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.outcomes[1], Err(IncrementalError::BadVertex));
        assert_eq!(report.outcomes[2], Err(IncrementalError::NegativeSelfLoop));
        assert_eq!(report.outcomes[3], Err(IncrementalError::NanWeight));
        assert!(report.outcomes[0].is_ok());
        assert_eq!(report.rejected(), 3);
        assert_eq!(
            report.rejections().map(|(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        crate::verify::check_apsp_invariants(&d, "after mixed batch");

        // the good updates were really applied: oracle recompute
        let mut b = apsp_graph::graph::GraphBuilder::new(20);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        b.add_edge(0, 15, 1.0).add_edge(5, 9, 2.0);
        let mut want = b.build().to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        assert!(want.eq_exact(&d));
    }

    #[test]
    fn connecting_components_incrementally() {
        let g = generators::multi_component(20, 2, WeightKind::small_ints(), 4);
        let mut d = g.to_dense();
        fw_seq::<MinPlusF32>(&mut d);
        assert_eq!(d[(0, 19)], f32::INFINITY);
        // bridge the components
        let improved = decrease_edge::<MinPlusF32>(&mut d, 0, 10, 5.0).unwrap();
        assert!(improved > 0);
        assert!(d[(0, 19)].is_finite());
        // still a valid closure
        crate::verify::check_apsp_invariants(&d, "bridged");
    }

    #[test]
    fn update_count_is_zero_for_redundant_edge() {
        let (_, mut d) = solved(15, 0.6, 7);
        // an edge equal to the existing shortest distance improves nothing
        let cur = d[(2, 3)];
        if cur.is_finite() {
            assert_eq!(
                decrease_edge::<MinPlusF32>(&mut d, 2, 3, cur),
                Err(IncrementalError::NotADecrease)
            );
        }
    }

    #[test]
    fn witness_carrying_update_keeps_paths_realizable() {
        // regression: updating only the f32 distance matrix leaves
        // separately-held predecessors stale — the path walk then returns
        // routes that no longer realize the reported distances. The
        // witness-carrying update fixes both together.
        let g = generators::erdos_renyi(24, 0.18, WeightKind::small_ints(), 21);
        let mut annotated = annotate(&g);
        fw_seq::<MinPlusPred>(&mut annotated);

        let updates = [(0usize, 17usize, 1.0f32), (9, 3, 1.0), (20, 5, 2.0), (3, 3, -1.0)];
        let report = decrease_edges_pred(&mut annotated, &updates);
        assert_eq!(report.outcomes[3], Err(IncrementalError::NegativeSelfLoop));
        assert!(report.applied >= 1, "at least one update should land on this seed");

        // the graph with the accepted edges added is the oracle (rejected
        // NotADecrease edges would not change distances either way)
        let mut b = apsp_graph::graph::GraphBuilder::new(24);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        for (i, &(u, v, w)) in updates.iter().enumerate() {
            if report.outcomes[i].is_ok() {
                b.add_edge(u, v, w);
            }
        }
        let g2 = b.build();
        let mut want = g2.to_dense();
        fw_seq::<MinPlusF32>(&mut want);

        let d2 = distances(&annotated);
        assert!(want.eq_exact(&d2), "witness-carrying update distances match recompute");
        for s in 0..24 {
            for t in 0..24 {
                if s != t && d2[(s, t)].is_finite() {
                    let p = reconstruct_path_annotated(&annotated, s, t).expect("path exists");
                    assert!(
                        validate_path(&g2, &p, s, t, d2[(s, t)], 1e-3),
                        "{s}->{t}: reconstructed path must realize the updated distance"
                    );
                }
            }
        }
    }
}
