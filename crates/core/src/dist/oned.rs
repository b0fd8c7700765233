//! 1-D row-partitioned Floyd-Warshall — the pre-blocked distributed
//! formulation of Jenq & Sahni (the paper's §6: "the first 2D
//! distributed-memory algorithm for the APSP without blocking using n
//! global synchronization"), kept as a comparator.
//!
//! Rows are dealt cyclically over `P` ranks. Each of the `n` scalar
//! iterations broadcasts the current pivot row and relaxes the local rows —
//! `n` global broadcasts (vs `n/b` for the blocked 2-D algorithm) and
//! rank-1 updates with O(1) arithmetic intensity (vs GEMM). Both weaknesses
//! are what the paper's blocked formulation fixes; the schedule model in
//! [`crate::schedule::simulate_oned`] prices them.

use mpi_sim::{Comm, CommError};
use srgemm::matrix::Matrix;
use srgemm::semiring::Semiring;

/// Tag for the row-gather at the end.
const GATHER_TAG: u64 = 0x1D;

/// Run 1-D cyclic-row Floyd-Warshall over `comm`. `global` must be
/// identical on all ranks; returns the solved matrix on rank 0. A broken
/// pivot broadcast or gather surfaces as the typed [`CommError`].
pub fn oned_apsp<S: Semiring>(
    comm: &Comm,
    global: &Matrix<S::Elem>,
) -> Result<Option<Matrix<S::Elem>>, CommError> {
    assert!(
        S::IDEMPOTENT_ADD,
        "distributed FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let n = global.rows();
    assert_eq!(n, global.cols(), "matrix must be square");
    let p = comm.size();
    let me = comm.rank();

    // my rows, cyclic: i ≡ me (mod p); seed the diagonal with 1̄
    let my_rows: Vec<usize> = (me..n).step_by(p).collect();
    let mut local: Vec<Vec<S::Elem>> = my_rows
        .iter()
        .map(|&i| {
            let mut row = global.row(i).to_vec();
            row[i] = S::add(row[i], S::one());
            row
        })
        .collect();

    for k in 0..n {
        // owner broadcasts the pivot row (post-update — row k is fixed
        // point for iteration k since d[k][k] = 1̄); the pivot broadcast is
        // this formulation's PanelBcast, the rank-1 relax its OuterUpdate
        let owner = k % p;
        let pivot: Vec<S::Elem> = {
            let _p = apsp_trace::span("PanelBcast");
            comm.bcast(owner, (owner == me).then(|| local[k / p].clone()))?
        };
        // relax every local row
        let _p = apsp_trace::span("OuterUpdate");
        for (li, &i) in my_rows.iter().enumerate() {
            let d_ik = local[li][k];
            let row = &mut local[li];
            for j in 0..n {
                row[j] = S::add(row[j], S::mul(d_ik, pivot[j]));
            }
            let _ = i;
        }
    }

    // gather rows to rank 0
    if me != 0 {
        for (li, &i) in my_rows.iter().enumerate() {
            comm.send(0, GATHER_TAG + i as u64, local[li].clone())?;
        }
        Ok(None)
    } else {
        let mut out = global.clone();
        for (li, &i) in my_rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(&local[li]);
        }
        for src in 1..p {
            for i in (src..n).step_by(p) {
                let row: Vec<S::Elem> = comm.recv(src, GATHER_TAG + i as u64)?;
                out.row_mut(i).copy_from_slice(&row);
            }
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use apsp_graph::generators::{self, WeightKind};
    use mpi_sim::Runtime;
    use srgemm::MinPlusF32;

    #[test]
    fn matches_sequential_fw() {
        for (n, p, seed) in [(17usize, 3usize, 1u64), (24, 4, 2), (8, 8, 3), (5, 7, 4)] {
            let g = generators::erdos_renyi(n, 0.3, WeightKind::small_ints(), seed);
            let input = g.to_dense();
            let mut want = input.clone();
            fw_seq::<MinPlusF32>(&mut want);
            let out = Runtime::new(p).run(|comm| oned_apsp::<MinPlusF32>(&comm, &input).unwrap());
            let got = out.into_iter().flatten().next().expect("rank 0 output");
            assert!(want.eq_exact(&got), "n={n} p={p}");
        }
    }

    #[test]
    fn oned_moves_more_pivot_traffic_than_2d_blocked() {
        // same problem, same rank count: the 1-D formulation issues n
        // broadcasts (one per vertex) vs n/b for the 2-D blocked algorithm
        let n = 32;
        let input = generators::uniform_dense(n, WeightKind::small_ints(), 9).to_dense();

        let rt = Runtime::new(4);
        let (_, t1d) = rt.run_traced(|comm| oned_apsp::<MinPlusF32>(&comm, &input).unwrap());

        let cfg = crate::dist::FwConfig::new(8, crate::dist::Variant::Baseline);
        let (_, t2d) =
            crate::dist::distributed_apsp::<MinPlusF32>(2, 2, &cfg, &input, None).expect("2-D run");

        assert!(
            t1d.total_msgs > t2d.total_msgs,
            "1-D should send more messages: {} vs {}",
            t1d.total_msgs,
            t2d.total_msgs
        );
    }
}
