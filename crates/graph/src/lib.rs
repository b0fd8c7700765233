#![warn(missing_docs)]

//! # apsp-graph — weighted digraphs, workload generators, and oracles
//!
//! Support crate for the APSP-FW workspace:
//!
//! * [`graph`] — a compact CSR weighted digraph and conversions to/from the
//!   dense distance matrices consumed by the Floyd-Warshall kernels.
//! * [`block_sparse`] — the block-sparse form of the distance matrix, one
//!   tile row at a time, for tiled solvers that skip all-`∞` tiles.
//! * [`generators`] — seeded workload generators. The paper evaluates on
//!   *dense uniform random* matrices (§5.1.4); we add sparse, structured and
//!   multi-component families for correctness tests and the example apps.
//! * [`dijkstra`], [`bellman_ford`], [`johnson`], [`delta_stepping`] —
//!   reference single-source/all-pairs algorithms from the paper's related
//!   work (§6), used as correctness oracles and single-node comparators.
//! * [`paths`] — path length and validation: checks that a reported path
//!   exists in the graph and realizes the reported distance.

pub mod bellman_ford;
pub mod block_sparse;
pub mod delta_stepping;
pub mod dijkstra;
pub mod generators;
pub mod graph;
pub mod io;
pub mod johnson;
pub mod paths;

pub use graph::{Graph, GraphBuilder, INF};

/// The all-pairs answer of a one-task-per-source sweep (Johnson, Dijkstra,
/// Δ-stepping), filled in place. The `INF`-filled n×n matrix is allocated
/// once and split into contiguous near-equal slabs of rows, one per worker
/// (at most `threads`, `0` → all cores). Each worker calls `make_row` once
/// and then `row(s, out)` for every source `s` of its slab, writing `s`'s
/// row into `out`, which arrives all `INF`; whatever scratch `row` keeps
/// serves every source of its slab. A row must depend on `s` alone, not on
/// what an earlier source left in that scratch: then the answer is
/// bit-identical for any thread count, and the sweep holds nothing beside
/// it but one scratch per worker.
pub(crate) fn par_rows<M, F>(n: usize, threads: usize, make_row: M) -> srgemm::Matrix<f32>
where
    M: Fn() -> F + Sync,
    F: FnMut(usize, &mut [f32]),
{
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
    let workers = threads.min(n).max(1);
    let (base, extra) = (n / workers, n % workers);
    let fill = &|first: usize, slab: &mut [f32]| {
        let mut row = make_row();
        for (i, out) in slab.chunks_exact_mut(n.max(1)).enumerate() {
            row(first + i, out);
        }
    };
    let mut data = vec![INF; n * n];
    // the calling thread takes the last slab; a serial sweep spawns nothing
    std::thread::scope(|scope| {
        let (mut rest, mut first) = (&mut data[..], 0);
        for w in 0..workers {
            let rows = base + usize::from(w < extra);
            let (slab, tail) = std::mem::take(&mut rest).split_at_mut(rows * n);
            rest = tail;
            if w + 1 < workers {
                scope.spawn(move || fill(first, slab));
            } else {
                fill(first, slab);
            }
            first += rows;
        }
    });
    srgemm::Matrix::from_vec(n, n, data)
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bellman_ford::bellman_ford;
    pub use crate::delta_stepping::{apsp_by_delta_stepping, delta_stepping};
    pub use crate::dijkstra::{apsp_by_dijkstra, apsp_by_dijkstra_threads, dijkstra};
    pub use crate::generators::{self, GraphKind};
    pub use crate::graph::{Graph, GraphBuilder, INF};
    pub use crate::johnson::{johnson_apsp, johnson_apsp_threads};
    pub use crate::paths::{path_length, validate_path};
}

#[cfg(test)]
mod tests {
    use super::INF;

    #[test]
    fn par_rows_preserves_order_at_any_thread_count() {
        // empty, fewer rows than workers, ragged slabs, `0` → all cores;
        // every row arrives all INF and lands at its own source's index
        for n in [0usize, 1, 2, 7, 64] {
            let want = srgemm::Matrix::from_fn(n, n, |s, j| if s == j { INF } else { (s * n + j) as f32 });
            for threads in [0, 1, 2, 3, 8, 100] {
                let got = super::par_rows(n, threads, || {
                    |s, out: &mut [f32]| {
                        assert!(out.len() == n && out.iter().all(|&x| x == INF));
                        for (j, x) in out.iter_mut().enumerate() {
                            if j != s {
                                *x = (s * n + j) as f32;
                            }
                        }
                    }
                });
                assert!(got.eq_exact(&want), "n={n} threads={threads}");
            }
        }
    }
}
