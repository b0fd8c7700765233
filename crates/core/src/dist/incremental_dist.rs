//! Distributed incremental Floyd-Warshall: absorb an edge insertion or
//! weight decrease into an already-solved *distributed* closure in
//! `O(n²/P)` per rank plus two vector broadcasts — the distributed form of
//! [`crate::incremental`], combining both §7 future-work directions
//! (incremental + distributed).
//!
//! The update `d[i][j] ⊕= d[i][u] ⊗ w ⊗ d[v][j]` needs exactly one column
//! (`d[:,u]`, owned by one process column) and one row (`d[v,:]`, owned by
//! one process row). The owners broadcast their slices along the grid's
//! row/column communicators — the same communication pattern as a
//! `PanelBcast` with `b = 1` — and every rank applies a local rank-1
//! relaxation.

use mpi_sim::{CommError, ProcessGrid};
use srgemm::semiring::Semiring;

use super::DistMatrix;
use crate::incremental::IncrementalError;

/// Failure modes of the distributed incremental update: the update itself
/// can be malformed (typed, deterministic, detected on every rank before
/// any message is sent), or a slice broadcast can break mid-flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistUpdateError {
    /// The update was rejected by local validation; no rank communicated.
    Update(IncrementalError),
    /// A row/column slice broadcast failed.
    Comm(CommError),
}

impl From<CommError> for DistUpdateError {
    fn from(e: CommError) -> Self {
        DistUpdateError::Comm(e)
    }
}

impl From<IncrementalError> for DistUpdateError {
    fn from(e: IncrementalError) -> Self {
        DistUpdateError::Update(e)
    }
}

impl std::fmt::Display for DistUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistUpdateError::Update(e) => write!(f, "rejected update: {e}"),
            DistUpdateError::Comm(e) => write!(f, "communication failure: {e}"),
        }
    }
}

/// Validation shared by every rank, before any communication: rejections
/// are computed from the arguments alone (plus the closure invariant
/// `d[u][u] = 1̄`), so all ranks agree without a collective and the grid
/// never deadlocks half-in/half-out of the broadcast pair.
fn validate<S: Semiring>(n: usize, u: usize, v: usize, w: S::Elem) -> Result<(), IncrementalError> {
    #[allow(clippy::eq_op)]
    if w != w {
        return Err(IncrementalError::NanWeight);
    }
    if u >= n || v >= n {
        return Err(IncrementalError::BadVertex);
    }
    if u == v {
        // on a valid closure d[u][u] = 1̄, so "improving" means w ⊕ 1̄ ≠ 1̄
        // (min-plus: w < 0) — a negative cycle
        return Err(if S::add(S::one(), w) != S::one() {
            IncrementalError::NegativeSelfLoop
        } else {
            IncrementalError::NotADecrease
        });
    }
    Ok(())
}

/// Collectively absorb the improved edge `u → v` of weight `w` into the
/// solved distributed closure `a`. Every rank of `grid` must call this with
/// identical arguments. Returns the number of local entries improved on
/// this rank, or a typed error — malformed updates (out-of-range endpoint,
/// NaN weight, negative self-loop) are rejected on every rank *before* any
/// message is sent, so a bad client update can never kill or desynchronize
/// the grid.
pub fn decrease_edge_dist<S: Semiring>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    u: usize,
    v: usize,
    w: S::Elem,
) -> Result<usize, DistUpdateError> {
    validate::<S>(a.n, u, v, w)?;

    // --- broadcast my rows' d[i][u] along each process row ---
    let bu = u / a.b;
    let cu = u % a.b;
    let col_owner = bu % a.pc; // process-column index owning block column bu
    let mine = (a.my_c == col_owner).then(|| {
        let c0 = a.local_col_start(bu) + cu;
        (0..a.local.rows()).map(|r| a.local[(r, c0)]).collect::<Vec<S::Elem>>()
    });
    let col_u: Vec<S::Elem> = grid.row.bcast(col_owner, mine)?;
    debug_assert_eq!(col_u.len(), a.local.rows());

    // --- broadcast my columns' d[v][j] along each process column ---
    let bv = v / a.b;
    let rv = v % a.b;
    let row_owner = bv % a.pr;
    let mine = (a.my_r == row_owner).then(|| {
        let r0 = a.local_row_start(bv) + rv;
        a.local.row(r0).to_vec()
    });
    let row_v: Vec<S::Elem> = grid.col.bcast(row_owner, mine)?;
    debug_assert_eq!(row_v.len(), a.local.cols());

    // --- local rank-1 relaxation ---
    let mut improved = 0usize;
    for (i, &cu) in col_u.iter().enumerate() {
        let through = S::mul(cu, w);
        let row = a.local.row_mut(i);
        for (j, rv_j) in row_v.iter().enumerate() {
            let cand = S::mul(through, *rv_j);
            let new = S::add(row[j], cand);
            if new != row[j] {
                row[j] = new;
                improved += 1;
            }
        }
    }
    Ok(improved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{driver, DistMatrix, FwConfig, InCoreGemm, Variant};
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::graph::GraphBuilder;
    use mpi_sim::{ProcessGrid, Runtime};
    use srgemm::MinPlusF32;

    fn solve_then_update(
        pr: usize,
        pc: usize,
        b: usize,
        n: usize,
        seed: u64,
        updates: Vec<(usize, usize, f32)>,
    ) -> srgemm::Matrix<f32> {
        let g = generators::erdos_renyi(n, 0.2, WeightKind::small_ints(), seed);
        let input = g.to_dense();
        let updates2 = updates.clone();
        let out = Runtime::new(pr * pc).run(move |comm| {
            let grid = ProcessGrid::new(comm, pr, pc).unwrap();
            let (r, c) = grid.coords();
            let mut a = DistMatrix::from_global(&input, b, pr, pc, r, c);
            let cfg = FwConfig::new(b, Variant::Baseline);
            driver::run::<MinPlusF32, _>(&grid, &mut a, &cfg, &mut InCoreGemm::with_threads(1))
                .expect("in-core run");
            for &(u, v, w) in &updates2 {
                decrease_edge_dist::<MinPlusF32>(&grid, &mut a, u, v, w).expect("update");
            }
            a.gather(&grid).unwrap()
        });
        out.into_iter().flatten().next().expect("rank 0 gathers")
    }

    #[test]
    fn distributed_incremental_matches_full_recompute() {
        let n = 26;
        let seed = 31;
        let updates = vec![(1usize, 20usize, 1.0f32), (15, 3, 2.0)];
        let got = solve_then_update(2, 3, 5, n, seed, updates.clone());

        // oracle: rebuild the graph with the new edges and solve from scratch
        let g = generators::erdos_renyi(n, 0.2, WeightKind::small_ints(), seed);
        let mut b = GraphBuilder::new(n);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        for &(u, v, w) in &updates {
            b.add_edge(u, v, w);
        }
        let mut want = b.build().to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn update_touching_ragged_tail_block() {
        // n=23 with b=4 → last block ragged; update endpoints in it
        let got = solve_then_update(2, 2, 4, 23, 7, vec![(22, 0, 1.0), (1, 21, 1.0)]);
        let g = generators::erdos_renyi(23, 0.2, WeightKind::small_ints(), 7);
        let mut b = GraphBuilder::new(23);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        b.add_edge(22, 0, 1.0).add_edge(1, 21, 1.0);
        let mut want = b.build().to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn malformed_updates_are_typed_on_every_rank_without_deadlock() {
        // regression: pre-fix this was an assert! that killed the calling
        // rank and deadlocked the rest of the grid mid-collective
        let g = generators::erdos_renyi(12, 0.3, WeightKind::small_ints(), 13);
        let input = g.to_dense();
        let errors = Runtime::new(4).run(move |comm| {
            let grid = ProcessGrid::new(comm, 2, 2).unwrap();
            let (r, c) = grid.coords();
            let mut a = DistMatrix::from_global(&input, 3, 2, 2, r, c);
            let cfg = FwConfig::new(3, Variant::Baseline);
            driver::run::<MinPlusF32, _>(&grid, &mut a, &cfg, &mut InCoreGemm::with_threads(1))
                .expect("in-core run");
            let bad_vertex = decrease_edge_dist::<MinPlusF32>(&grid, &mut a, 1, 99, 1.0);
            let self_loop = decrease_edge_dist::<MinPlusF32>(&grid, &mut a, 5, 5, -1.0);
            let nan = decrease_edge_dist::<MinPlusF32>(&grid, &mut a, 1, 2, f32::NAN);
            // the grid is still functional after the rejections
            let ok = decrease_edge_dist::<MinPlusF32>(&grid, &mut a, 0, 11, 0.5);
            (bad_vertex, self_loop, nan, ok.is_ok())
        });
        use crate::incremental::IncrementalError;
        for (bad_vertex, self_loop, nan, grid_alive) in errors {
            assert_eq!(bad_vertex, Err(DistUpdateError::Update(IncrementalError::BadVertex)));
            assert_eq!(
                self_loop,
                Err(DistUpdateError::Update(IncrementalError::NegativeSelfLoop))
            );
            assert_eq!(nan, Err(DistUpdateError::Update(IncrementalError::NanWeight)));
            assert!(grid_alive);
        }
    }

    #[test]
    fn redundant_update_changes_nothing() {
        // inserting an edge equal to an existing distance leaves the
        // closure untouched
        let base = solve_then_update(2, 2, 4, 16, 9, vec![]);
        let d = base[(2, 5)];
        if d.is_finite() {
            let same = solve_then_update(2, 2, 4, 16, 9, vec![(2, 5, d)]);
            assert!(base.eq_exact(&same));
        }
    }
}
